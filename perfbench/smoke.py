"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py [WORKLOAD...]

Runs the shortest pass of each workload (--seconds 1), untraced and traced,
and asserts that every metric BENCHMARK.json names is printed by name with
its unit, both as a text line and in the final JSON object, that the metric
lists in BENCHMARK.json and perfbench/run.py agree, and that every verdict
matched its pin.  Exits 0 when all hold.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import END_TO_END, PER_LAYER, ROOT, WORKLOADS


def main(workloads: list[str]) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    if declared[0] != END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if declared[1] != PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from run.PER_LAYER")
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    for workload in workloads or list(WORKLOADS):
        for trace in (0, 1):
            argv = [*bench["command"], "--workload", workload, "--seed", "7",
                    "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit code {proc.returncode}\n{proc.stderr}")
                continue
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0:
                problems.append(f"{where}: verdicts did not match the pins")
            if set(result["metrics"]) != set(declared[trace]):
                problems.append(f"{where}: metric names differ from BENCHMARK.json")
            for name, unit in declared[trace].items():
                metric = result["metrics"].get(name, {})
                if metric.get("unit") != unit or not isinstance(metric.get("value"), (int, float)):
                    problems.append(f"{where}: {name} not reported with unit {unit}")
                if not any(l.startswith(f"{name} = ") and l.endswith(f" {unit}") for l in lines):
                    problems.append(f"{where}: no text line for {name} [{unit}]")
            if not any(l.startswith("# failed_frac: ") for l in lines):
                problems.append(f"{where}: failed_frac not printed")
            print(f"{where}: {len(declared[trace])} metrics checked", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Benchmark: time to an exact verdict for the painleve-backlund CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is run from `src/`
through PYTHONPATH, with nothing installed.  One client in a closed loop
runs each command of the workload as a fresh
`painleve-backlund ... --format json` process and starts the next only when
the previous one has exited.  The seed permutes the command order within a
pass and is passed to every command as --seed, which the program echoes.

Every report goes through the verdict gate: JSON schema, exit code, echoed
seed, and each (check id, outcome) against perfbench/pins.json.

--trace 0 measures the end-to-end metrics, untraced: passes at --jobs 1 and
at the default --jobs alternate until --seconds are used up (the last pair
may run past by at most half its length), and each time metric is the sum
over commands of the command's fastest sample (see fastest_pass).
--trace 1 alternates passes traced by perfbench/launch.py (at --jobs 1)
with untraced --jobs 1 passes in the same way (at least two traced),
requires the exact counts of all traced passes to agree, and prints the
per-layer metrics.  The last line of stdout is one JSON object: correct,
attempted, failed (commands that did not give their pinned verdict),
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCHEMA = SRC / "painleve_backlund" / "report_schema.json"
PINS = BENCH / "pins.json"
OUT = BENCH / "out"

CLI = "import sys; from painleve_backlund.cli import main; sys.exit(main())"
SETUP_SAMPLES = 15  # at least; one more is taken before each pass
COMMAND_TIMEOUT_S = 120

_GENERATORS = {"VI": 5, "V": 4, "IV": 3, "III": 3, "II": 2}
_ARROWS = (("VI", "V"), ("V", "IV"), ("V", "III"), ("IV", "II"), ("III", "II"))


def _degenerate(src: str, tgt: str) -> tuple[str, list[str]]:
    return f"degenerate-{src}-{tgt}", ["degenerate", src, tgt, "--what", "all"]


# Workload -> [(command key, CLI arguments)].  BENCHMARK.json says why each
# workload exists; perfbench/README.md gives the layers each one exercises.
WORKLOADS: dict[str, list[tuple[str, list[str]]]] = {
    "groups": [("verify-groups", ["verify-groups"])],
    "degen-birational": [_degenerate("VI", "V"), _degenerate("V", "III")],
    "degen-branched": [
        _degenerate("V", "IV"), _degenerate("IV", "II"), _degenerate("III", "II"),
    ],
    "numeric": [
        (f"numeric-backlund-{s}-s{i}",
         ["numeric", "backlund", "--system", s, "--gen", f"s{i}"])
        for s, n in _GENERATORS.items() for i in range(n)
    ] + [
        (f"numeric-degeneration-{a}-{b}", ["numeric", "degeneration", "--arrow", a, b])
        for a, b in _ARROWS
    ],
}
ALL_COMMANDS = [cmd for cmds in WORKLOADS.values() for cmd in cmds]

END_TO_END = {
    "wall_s": "s",
    "wall_default_jobs_s": "s",
    "cpu_s": "s",
    "cpu_default_jobs_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

CHECK_KINDS = (
    "relation", "param", "eps", "limit", "data", "ham", "factor",
    "group-relation", "symplectic", "constraint", "commutes",
)

# Per-layer metric -> (launcher counter, field).  Fields: calls; total
# (inclusive seconds); work (Poly.mul term-count products, rk4 steps);
# max_terms.  Ratios and span sums are computed in layer_metrics().
COUNTERS = {
    "checks.run_check.calls": ("checks.run_check", "calls"),
    "verify_subgroup_relations.calls": ("degeneration.verify_subgroup_relations", "calls"),
    "verify_subgroup_relations.s": ("degeneration.verify_subgroup_relations", "total"),
    "lift_word.calls": ("degeneration.lift_word", "calls"),
    "lift_word.s": ("degeneration.lift_word", "total"),
    "verify_arrow_data.calls": ("degeneration.verify_arrow_data", "calls"),
    "verify_eps_actions.calls": ("degeneration.verify_eps_actions", "calls"),
    "degenerate_hamiltonian.s": ("degeneration.degenerate_hamiltonian", "total"),
    "apply_word.calls": ("groups.apply_word", "calls"),
    "apply_word.s": ("groups.apply_word", "total"),
    "verify_relation.calls": ("groups.verify_relation", "calls"),
    "verify_relation.s": ("groups.verify_relation", "total"),
    "substitute_reduced.calls": ("factored.substitute_reduced", "calls"),
    "substitute_reduced.s": ("factored.substitute_reduced", "total"),
    "FactoredFrac.substitute.s": ("factored.FactoredFrac.substitute", "total"),
    "RatFn.substitute.calls": ("ratfn.RatFn.substitute", "calls"),
    "RatFn.substitute.s": ("ratfn.RatFn.substitute", "total"),
    "ratfn_equal.calls": ("ratfn.ratfn_equal", "calls"),
    "ratfn_equal.s": ("ratfn.ratfn_equal", "total"),
    "EpsSeries.mul.calls": ("series.EpsSeries.__mul__", "calls"),
    "EpsSeries.mul.s": ("series.EpsSeries.__mul__", "total"),
    "EpsSeries.from_ratfn.calls": ("series.EpsSeries.from_ratfn", "calls"),
    "EpsSeries.from_ratfn.s": ("series.EpsSeries.from_ratfn", "total"),
    "ratfn_at_series.s": ("series.ratfn_at_series", "total"),
    "Poly.mul.calls": ("poly.Poly.__mul__", "calls"),
    "Poly.mul.s": ("poly.Poly.__mul__", "total"),
    "Poly.mul.coeff_products": ("poly.Poly.__mul__", "work"),
    "Poly.mul.max_terms": ("poly.Poly.__mul__", "max_terms"),
    "Poly.try_div.calls": ("poly.Poly.try_div", "calls"),
    "Poly.try_div.s": ("poly.Poly.try_div", "total"),
    "backlund_numeric_check.s": ("numeric.backlund_numeric_check", "total"),
    "degeneration_numeric_check.s": ("numeric.degeneration_numeric_check", "total"),
    "integrate.s": ("numeric.integrate", "total"),
    "rk4_steps": ("numeric._rk4", "work"),
}


def _unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("hit_ratio") or name == "failed_frac":
        return "ratio"
    if name.endswith("ns_per_product"):
        return "ns"
    return "count"


PER_LAYER_NAMES = (
    [f"cli.cmd.{key}.s" for key, _ in ALL_COMMANDS]
    + list(COUNTERS)
    + [f"checks.kind.{kind}.s" for kind in CHECK_KINDS]
    + [
        "lift_cache.hit_ratio", "word_cache.hit_ratio", "Poly.try_div.hit_ratio",
        "Poly.mul.ns_per_product", "parse_expr.calls", "parse_expr.s",
        "failed_frac", "trace.overhead_s",
    ]
)
PER_LAYER = {name: _unit(name) for name in PER_LAYER_NAMES}

# Counts that must repeat exactly between two traced runs of one commit.
EXACT = [n for n in PER_LAYER if n.endswith((".calls", "coeff_products", "max_terms",
                                             "hit_ratio", "rk4_steps"))]


# ----------------------------------------------------------------------
# running commands


@dataclass
class Result:
    key: str
    wall: float
    cpu: float
    rss_mb: float
    rc: int
    stdout: str
    stderr: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_process(key: str, argv: list[str], env: dict) -> Result:
    """Run one process to completion; wall clock, rusage of it and its pool."""
    out, err = os.memfd_create("stdout"), os.memfd_create("stderr")
    try:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=env,
                                start_new_session=True)
        killer = threading.Timer(COMMAND_TIMEOUT_S, _kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        # Usage of the reaped child includes the pool workers it reaped;
        # maxrss is that of the largest of those processes, in KiB.
        return Result(key, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024, proc.returncode, _read(out), _read(err))
    finally:
        os.close(out)
        os.close(err)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, 9)
    except ProcessLookupError:
        pass


def _read(fd: int) -> str:
    os.lseek(fd, 0, os.SEEK_SET)
    chunks = []
    while chunk := os.read(fd, 1 << 20):
        chunks.append(chunk)
    return b"".join(chunks).decode(errors="replace")


def cli_argv(args: list[str], seed: int, jobs: int | None) -> list[str]:
    argv = [sys.executable, "-c", CLI, *args, "--format", "json", "--seed", str(seed)]
    if jobs is not None:
        argv += ["--jobs", str(jobs)]
    return argv


def setup_sample(env: dict) -> float:
    """Wall time for a fresh interpreter to import the CLI module."""
    res = run_process("setup", [sys.executable, "-c", "import painleve_backlund.cli"], env)
    if res.rc != 0:
        raise SystemExit(f"import painleve_backlund.cli failed:\n{res.stderr}")
    return res.wall


# ----------------------------------------------------------------------
# verdict gate


def digest(check: dict) -> str:
    text = (check.get("detail") or "") + "\0" + (check.get("witness") or "")
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Gate:
    """Checks every report against the schema and the pinned verdicts."""

    def __init__(self, validator, pins: dict, seed: int):
        self.validator = validator
        self.pins = pins
        self.seed = seed
        self.commands = 0
        self.bad_commands: list[str] = []
        self.checks = 0
        self.failed_checks = 0
        self.drifted: set[str] = set()

    def check(self, res: Result) -> None:
        pin = self.pins[res.key]
        expected = {cid: outcome for cid, outcome, _ in pin["checks"]}
        self.commands += 1
        self.checks += len(expected)
        problem, bad = self._problem(res, pin, expected)
        self.failed_checks += bad
        if problem:
            self.bad_commands.append(f"{res.key}: {problem}")

    def _problem(self, res: Result, pin: dict, expected: dict) -> tuple[str | None, int]:
        if res.rc not in (0, 1):
            tail = res.stderr.strip().splitlines()[-1:] or [""]
            return f"exit code {res.rc}: {tail[0]}", len(expected)
        try:
            report = json.loads(res.stdout)
        except json.JSONDecodeError as exc:
            return f"report is not JSON: {exc}", len(expected)
        errors = [e.message for e in self.validator.iter_errors(report)]
        if errors:
            return f"schema: {errors[0]}", len(expected)
        got = {c["id"]: c for c in report["checks"]}
        bad = {cid for cid, c in got.items() if c["outcome"] == "fail" or c["kind"] == "error"}
        bad |= {cid for cid, outcome in expected.items()
                if cid not in got or got[cid]["outcome"] != outcome}
        bad |= set(got) - set(expected)
        for cid, _, pinned_digest in pin["checks"]:
            if cid in got and digest(got[cid]) != pinned_digest:
                self.drifted.add(f"{res.key}/{cid}")
        if [c["id"] for c in report["checks"]] != list(expected):
            return "check ids or their order differ from the pin", len(bad)
        if any(got[cid]["outcome"] != outcome for cid, outcome in expected.items()):
            return "an outcome differs from the pin", len(bad)
        if res.rc != pin["exit"]:
            return f"exit code {res.rc}, pinned {pin['exit']}", len(bad)
        if report["config"].get("seed") != self.seed:
            return "seed not echoed", len(bad)
        return None, len(bad)

    @property
    def failed_frac(self) -> float:
        return self.failed_checks / self.checks if self.checks else 0.0


def load_gate(seed: int) -> Gate:
    import jsonschema

    schema = json.loads(SCHEMA.read_text())
    validator = jsonschema.Draft7Validator(schema)
    return Gate(validator, json.loads(PINS.read_text()), seed)


# ----------------------------------------------------------------------
# passes


def run_pass(commands, seed: int, jobs: int | None, env: dict, gate: Gate) -> list[Result]:
    results = []
    for key, args in commands:
        res = run_process(key, cli_argv(args, seed, jobs), env)
        gate.check(res)
        results.append(res)
    return results


def run_traced_pass(commands, seed: int, env: dict, gate: Gate, trace_dir: Path):
    trace_dir.mkdir(parents=True, exist_ok=True)
    results, traces = [], []
    for key, args in commands:
        path = trace_dir / f"{key}.json"
        path.unlink(missing_ok=True)
        argv = [sys.executable, str(BENCH / "launch.py"), str(path), key,
                *args, "--format", "json", "--seed", str(seed), "--jobs", "1"]
        res = run_process(key, argv, env)
        gate.check(res)
        results.append(res)
        if res.rc == 3 or not path.exists():
            raise SystemExit(f"traced launcher failed for {key}:\n{res.stderr}")
        traces.append(json.loads(path.read_text()))
    return results, traces


def shuffled(commands, rng: random.Random):
    order = list(commands)
    rng.shuffle(order)
    return order


def quartiles(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4f} median={q2:.4f} q3={q3:.4f}"


def more_time(start: float, seconds: float, step_s: float) -> bool:
    """Whether another step of about step_s seconds fits before the deadline.

    A step may run past the deadline by at most half its length, so a run
    ends within half a step of --seconds either way.
    """
    return time.perf_counter() - start + step_s / 2 < seconds


def fastest_pass(passes: list[list[Result]], field: str) -> float:
    """Sum over the commands of each command's fastest value in the passes.

    Other load on a shared machine only ever adds time, and it comes in
    bursts; the fastest of a command's samples is its least disturbed one,
    and the sum is the time of one pass with the least interference.  Over
    ten runs it spreads less than the median does (perfbench/README.md).
    """
    values: dict[str, list[float]] = {}
    for p in passes:
        for r in p:
            values.setdefault(r.key, []).append(getattr(r, field))
    return sum(min(v) for v in values.values())


def end_to_end(commands, seed: int, seconds: float, env: dict, gate: Gate):
    rng = random.Random(seed)
    passes: dict[str, list[list[Result]]] = {"1": [], "default": []}
    setup: list[float] = []
    start = time.perf_counter()
    i = 0
    while True:
        # Alternate which mode goes first so drift over the run hits both;
        # set-up samples are spread over the run for the same reason.
        step = time.perf_counter()
        for mode in (("1", "default") if i % 2 == 0 else ("default", "1")):
            jobs = 1 if mode == "1" else None
            setup.append(setup_sample(env))
            passes[mode].append(run_pass(shuffled(commands, rng), seed, jobs, env, gate))
        i += 1
        if not more_time(start, seconds, time.perf_counter() - step):
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(env))
    serial, pooled = passes["1"], passes["default"]
    metrics = {
        "wall_s": fastest_pass(serial, "wall"),
        "wall_default_jobs_s": fastest_pass(pooled, "wall"),
        "cpu_s": fastest_pass(serial, "cpu"),
        "cpu_default_jobs_s": fastest_pass(pooled, "cpu"),
        "peak_rss_mb": statistics.median([max(r.rss_mb for r in p) for p in serial]),
        "setup_s": statistics.median(setup),
    }
    print(f"# {i} passes at --jobs 1 and {i} at the default --jobs")
    for name, values in (("wall_s pass", [sum(r.wall for r in p) for p in serial]),
                         ("wall_default_jobs_s pass", [sum(r.wall for r in p) for p in pooled]),
                         ("setup_s", setup)):
        print(f"# {name}: {quartiles(values)}")
    for key, _ in commands:
        walls = [r.wall for p in serial for r in p if r.key == key]
        print(f"# cli.cmd.{key}.s (untraced, --jobs 1): fastest {min(walls):.4f} s,"
              f" median {statistics.median(walls):.4f} s")
    return metrics


# ----------------------------------------------------------------------
# per-layer metrics


def check_kind(check_id: str) -> str:
    parts = check_id.split("/")
    if parts[0] == "groups":
        return "group-relation" if parts[2] == "relation" else parts[4]
    return parts[2]


def kind_times(traces: list[dict]) -> dict[str, float]:
    """Seconds spent in run_check, by check kind."""
    kinds = dict.fromkeys(CHECK_KINDS, 0.0)
    for trace in traces:
        for span in trace["spans"]:
            if span["name"] == "checks.run_check":
                kinds[check_kind(span["arg"])] += span["end"] - span["start"]
    return kinds


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (one trace per command)."""
    stats: dict[str, dict] = {}
    for trace in traces:
        for name, s in trace["stats"].items():
            acc = stats.setdefault(name, {"calls": 0, "total": 0.0, "self_s": 0.0,
                                          "work": 0, "hits": 0, "max_terms": 0})
            for field in ("calls", "total", "self_s", "work", "hits"):
                acc[field] += s[field]
            acc["max_terms"] = max(acc["max_terms"], s["max_terms"])

    def get(counter: str, field: str):
        return stats.get(counter, {}).get(field, 0)

    def ratio(num, den) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {name: get(*src) for name, src in COUNTERS.items()}
    m.update({f"checks.kind.{k}.s": v for k, v in kind_times(traces).items()})
    m["lift_cache.hit_ratio"] = ratio(
        get("degeneration.lift_generator", "calls") - get("degeneration.lift_word", "calls"),
        get("degeneration.lift_generator", "calls"))
    m["word_cache.hit_ratio"] = ratio(
        get("groups._word_on_symbol", "calls") - get("groups.apply_word", "hits"),
        get("groups._word_on_symbol", "calls"))
    m["Poly.try_div.hit_ratio"] = ratio(get("poly.Poly.try_div", "hits"),
                                        get("poly.Poly.try_div", "calls"))
    m["Poly.mul.ns_per_product"] = 1e9 * ratio(get("poly.Poly.__mul__", "total"),
                                               get("poly.Poly.__mul__", "work"))
    imports = [t["import_stats"].get("exprio.parse_expr", {}) for t in traces]
    m["parse_expr.calls"] = imports[0].get("calls", 0)
    m["parse_expr.s"] = statistics.median([s.get("total", 0.0) for s in imports])
    return m


def self_time_table(traces: list[dict]) -> None:
    """Print, per command, where the traced time went (self time)."""
    for trace in traces:
        root = trace["spans"][0]
        wall = root["end"] - root["start"]
        ranked = sorted(trace["stats"].items(), key=lambda kv: -kv[1]["self_s"])[:4]
        shown = ", ".join(f"{n} {s['self_s'] / wall:.0%}" for n, s in ranked)
        print(f"# self time {trace['cmd']} ({wall:.3f} s traced): {shown}")


def hotspots(traces: list[dict]) -> None:
    """The hot spots the workloads were chosen for, as shares of traced time."""
    for trace in traces:
        spans = trace["spans"]
        root = spans[0]
        wall = root["end"] - root["start"]
        if trace["cmd"] == "degenerate-VI-V":
            kinds = kind_times([trace])
            top = max(kinds, key=kinds.get)
            print(f"# hotspot degenerate-VI-V: kind {top} takes {kinds[top] / wall:.0%}"
                  f" of the command")
        if trace["cmd"] == "degenerate-III-II":
            lift = sum(s["end"] - s["start"] for s in spans
                       if s["name"] == "degeneration.lift_word"
                       and spans[s["parent"]]["name"] != "degeneration.lift_word")
            print(f"# hotspot degenerate-III-II: lift_word subtree takes {lift / wall:.0%}"
                  f" of the command")
        if trace["cmd"] == "verify-groups":
            name, s = max(trace["stats"].items(), key=lambda kv: kv[1]["self_s"])
            print(f"# hotspot verify-groups: largest self time is {name}"
                  f" ({s['self_s'] / wall:.0%} of the command)")


def traced(workload: str, commands, seed: int, seconds: float, env: dict, gate: Gate):
    rng = random.Random(seed)
    trace_root = OUT / "trace" / workload
    shutil.rmtree(trace_root, ignore_errors=True)
    start = time.perf_counter()
    # Traced and untraced --jobs 1 passes alternate, so the overhead estimate
    # (difference of their fastest passes) sees the same machine state on both sides.
    runs: list[tuple[list[Result], list[dict]]] = []
    serial: list[list[Result]] = []
    while True:
        step = time.perf_counter()
        path = trace_root / f"pass{len(runs) + 1}"
        runs.append(run_traced_pass(shuffled(commands, rng), seed, env, gate, path))
        serial.append(run_pass(shuffled(commands, rng), seed, 1, env, gate))
        if len(runs) >= 2 and not more_time(start, seconds, time.perf_counter() - step):
            break
    per_run = [layer_metrics(traces) for _, traces in runs]
    differ = [n for n in EXACT if any(r[n] != per_run[0][n] for r in per_run)]
    for n in differ:
        print(f"# count does not repeat: {n} {sorted({r[n] for r in per_run})}")
    print(f"# {len(runs)} traced and {len(serial)} untraced passes")

    m = dict(per_run[0])
    for name in PER_LAYER:
        if name in m and name not in EXACT:
            m[name] = statistics.median([r[name] for r in per_run])
    keys = {key for key, _ in commands}
    for key, _ in ALL_COMMANDS:
        walls = [r.wall for p in serial for r in p if r.key == key]
        m[f"cli.cmd.{key}.s"] = min(walls) if key in keys else 0.0
    traced_wall = fastest_pass([results for results, _ in runs], "wall")
    untraced_wall = fastest_pass(serial, "wall")
    m["trace.overhead_s"] = traced_wall - untraced_wall
    m["failed_frac"] = gate.failed_frac
    print(f"# tracing overhead: traced {traced_wall:.4f} s - untraced {untraced_wall:.4f} s"
          f" = {traced_wall - untraced_wall:.4f} s"
          f" ({(traced_wall - untraced_wall) / untraced_wall:.1%})")
    self_time_table(runs[0][1])
    hotspots(runs[0][1])
    summary = OUT / f"trace-{workload}.json"
    summary.write_text(json.dumps({"workload": workload, "seed": seed, "metrics": m,
                                   "traces": runs[0][1]}))
    print(f"# spans and counters written to {summary.relative_to(ROOT)}")
    return m, differ


# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "painleve_backlund" / "cli.py").is_file() or not SCHEMA.is_file():
        print(f"error: no painleve_backlund source under {SRC}", file=sys.stderr)
        return 2
    try:
        gate = load_gate(args.seed)
    except ImportError as exc:
        print(f"error: the verdict gate needs jsonschema: {exc}", file=sys.stderr)
        return 2
    env = child_env()
    OUT.mkdir(exist_ok=True)
    commands = WORKLOADS[args.workload]
    # Untimed warm-up: compiles the bytecode caches users would already have.
    run_process("warm-up", [sys.executable, "-c", "import painleve_backlund.cli"], env)

    differ: list[str] = []
    if args.trace:
        values, differ = traced(args.workload, commands, args.seed, args.seconds, env, gate)
        units = PER_LAYER
    else:
        values = end_to_end(commands, args.seed, args.seconds, env, gate)
        units = END_TO_END
    print(f"# failed_frac: {gate.failed_checks}/{gate.checks} = {gate.failed_frac:.4f}")
    print(f"# detail/witness text drifted from the pin on {len(gate.drifted)} checks"
          + (": " + ", ".join(sorted(gate.drifted)[:5]) if gate.drifted else ""))
    for problem in gate.bad_commands[:10]:
        print(f"# VERDICT MISMATCH {problem}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps({
        "correct": not gate.bad_commands and not differ,
        "attempted": gate.commands,
        "failed": len(gate.bad_commands),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Write perfbench/pins.json: the verdict of every benchmark command.

    python3 perfbench/pin.py

Runs each command once at --jobs 1 and records its exit code and, per
check, (id, outcome, digest of detail and witness).  Re-pin only when a
change of verdict is intended, and say why in the change that does it.
"""

from __future__ import annotations

import json
import sys

from run import ALL_COMMANDS, PINS, child_env, cli_argv, digest, run_process


def main() -> int:
    env = child_env()
    pins = {}
    for key, args in ALL_COMMANDS:
        res = run_process(key, cli_argv(args, 0, 1), env)
        if res.rc not in (0, 1):
            print(f"{key}: exit code {res.rc}\n{res.stderr}", file=sys.stderr)
            return 1
        report = json.loads(res.stdout)
        pins[key] = {
            "exit": res.rc,
            "checks": [[c["id"], c["outcome"], digest(c)] for c in report["checks"]],
        }
        print(f"{key}: exit {res.rc}, {len(report['checks'])} checks")
    PINS.write_text(json.dumps(pins, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

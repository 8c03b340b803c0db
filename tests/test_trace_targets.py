"""The benchmark's trace launcher wraps package names it looks up by name.

perfbench/launch.py refuses to run when one of its TARGETS is missing, so a
refactor that deletes or renames a traced function fails here first; its
counter hooks also read some arguments by position, checked here too.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

LAUNCH = Path(__file__).resolve().parents[1] / "perfbench" / "launch.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_launch", LAUNCH)
    launch = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(launch)
    assert launch.TARGETS
    missing = []
    for short, targets in launch.TARGETS.items():
        module = importlib.import_module(f"{launch.PKG}.{short}")
        for path, _ in targets:
            # Class.attr must be defined on the class itself, as launch.py reads it
            owner, _, attr = path.rpartition(".")
            scope = getattr(module, owner, None) if owner else module
            if scope is None or attr not in vars(scope):
                missing.append(f"{short}.{path}")
    assert not missing, missing


def test_rk4_keeps_the_positional_parameters_the_tracer_reads(monkeypatch):
    # launch.py computes rk4_steps from args[3], args[6] and args[7] of each
    # _rk4 call: t0, t1 and h, passed by position
    from painleve_backlund import numeric
    from painleve_backlund.degeneration import arrow

    params = inspect.signature(numeric._rk4).parameters.values()
    assert [(p.name, p.kind) for p in params] == [
        (name, inspect.Parameter.POSITIONAL_OR_KEYWORD)
        for name in ("dq", "dp", "weight", "t0", "q0", "p0", "t1", "h")
    ]
    calls = []
    rk4 = numeric._rk4

    def spy(*args, **kwargs):
        calls.append((len(args), kwargs))
        return rk4(*args, **kwargs)

    monkeypatch.setattr(numeric, "_rk4", spy)
    numeric.integrate("II", [2 / 3, 1 / 3], (0.0, 1.0, 1.0), 0.01, 1e-3)
    numeric.degeneration_numeric_check(
        arrow("IV", "II"), 1e-3, [2 / 3, 1 / 3], (0.0, 1.0, 1.0), 0.01, 1e-3
    )
    assert calls == [(8, {})] * 3

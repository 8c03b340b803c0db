"""The benchmark's trace launcher wraps package names it looks up by name.

perfbench/launch.py refuses to run when one of its TARGETS is missing, so a
refactor that deletes or renames a traced function fails here first.
"""

import importlib
import importlib.util
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

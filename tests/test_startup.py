"""Start-up loads only what the command runs.

Each check runs in a fresh interpreter, since the test session itself has
long since imported every module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import painleve_backlund

SRC = Path(painleve_backlund.__file__).resolve().parents[1]

LAZY = (
    "concurrent.futures.process",
    "painleve_backlund.degeneration",
    "painleve_backlund.checks",
    "painleve_backlund.series",
)

SCRIPT = f"""
import contextlib, io, json, sys

def loaded():
    return [m for m in {LAZY!r} if m in sys.modules]

import painleve_backlund.cli as cli
after_import = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(["numeric", "backlund", "--system", "II", "--gen", "s1"])
after_numeric = loaded()

import painleve_backlund as pb
import painleve_backlund.degeneration as dg
built = dg._default_arrows.cache_info().currsize
missing = [name for name in pb.__all__ if not hasattr(pb, name)]
print(json.dumps(dict(after_import=after_import, rc=rc, after_numeric=after_numeric,
                      built=built, missing=missing)))
"""


def test_start_up_loads_only_what_the_command_runs():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    state = json.loads(proc.stdout.splitlines()[-1])
    assert state == {
        "after_import": [], "rc": 0, "after_numeric": [], "built": 0, "missing": [],
    }

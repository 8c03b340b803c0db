"""Start-up loads only what the command runs, each command builds only the
groups, systems and arrows it uses, and every command runs in one process.

Each check runs in a fresh interpreter, since the test session itself has
long since imported every module and built every table.  The interpreter
runs with -S, so that no `site` .pth file preloads a module for it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import painleve_backlund

SRC = Path(painleve_backlund.__file__).resolve().parents[1]

# no command starts worker processes, so these stay unloaded throughout
IN_PROCESS = ("concurrent.futures.process", "multiprocessing")

# loaded only by the degeneration commands
DEGENERATION = ("painleve_backlund.degeneration", "painleve_backlund.series")

# neither importing the CLI nor numeric backlund runs any of these: the
# records are namedtuples, no command builds a Fraction, and the factored
# engine only acts by words
LAZY = IN_PROCESS + DEGENERATION + (
    "painleve_backlund.checks",
    "painleve_backlund.factored",
    "dataclasses", "inspect", "fractions", "decimal", "random", "typing",
    "pathlib", "importlib.resources",
)

SCRIPT = f"""
import contextlib, io, json, sys

def loaded(names={LAZY!r}):
    return [m for m in names if m in sys.modules]

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))

def held(build, *keys):
    # [builds in the cache, whether it holds every key]: a call with a
    # held key is a hit and leaves the size as it was
    size = build.cache_info().currsize
    for key in keys:
        build(*key)
    return [size, build.cache_info().currsize == size]

import painleve_backlund.cli as cli
from painleve_backlund import groups, systems

state = {{}}
state["import"] = [loaded(), held(groups._build_group), held(systems._build_system)]
rc = run("numeric", "backlund", "--system", "II", "--gen", "s1")
state["numeric"] = [rc, loaded(), held(groups._build_group, ("II",)),
                    held(systems._build_system, ("II",))]

rc = run("verify-groups")
state["verify-groups"] = [rc, loaded({DEGENERATION!r} + ("fractions", "decimal"))]

import painleve_backlund as pb
from painleve_backlund import degeneration as dg
state["missing"] = [name for name in pb.__all__ if not hasattr(pb, name)]
rc = run("degenerate", "IV", "II", "--what", "all")
state["IV-II"] = [rc, held(dg._build_arrow, (("IV", "II"), 12))]
rc = run("degenerate", "V", "III", "--what", "params", "--order", "10")
state["V-III@10"] = [rc, held(dg._build_arrow, (("IV", "II"), 12), (("V", "III"), 10))]
rc = run("numeric", "degeneration", "--arrow", "IV", "II")
# binomials, printing and series evaluation run on integer pairs
state["fraction-free"] = [rc, loaded(("fractions", "decimal"))]
# no --jobs above: the default runs every symbolic check in this process
state["workers"] = loaded({IN_PROCESS!r})
print(json.dumps(state))
"""


def test_start_up_loads_only_what_the_command_runs():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", SCRIPT], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    state = json.loads(proc.stdout.splitlines()[-1])
    assert state == {
        # importing the CLI loads no lazy module and builds no table
        "import": [[], [0, True], [0, True]],
        # numeric backlund II s1 builds group II and system II, nothing else
        "numeric": [0, [], [1, True], [1, True]],
        # verify-groups loads no degeneration code, and builds no Fraction
        "verify-groups": [0, []],
        "missing": [],
        # degenerate builds its one arrow, at its default truncation 12 ...
        "IV-II": [0, [1, True]],
        # ... or only at the --order given
        "V-III@10": [0, [2, True]],
        # neither degenerate nor numeric degeneration loads fractions
        "fraction-free": [0, []],
        "workers": [],
    }


def test_verify_groups_loads_no_random():
    # ratfn_equal decides by the cross product alone: no sample points
    script = (
        "import contextlib, io, sys\n"
        "import painleve_backlund.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = cli.main(['verify-groups'])\n"
        "print(rc, 'random' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]

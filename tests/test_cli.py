import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import painleve_backlund
from painleve_backlund.cli import main
from painleve_backlund.report import load_schema


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_groups_single_system(capsys):
    code, out = run_cli(capsys, "verify-groups", "--system", "II", "--jobs", "1")
    assert code == 0
    assert "0 failed" in out


def test_verify_groups_refuses_first_system(capsys):
    code = main(["verify-groups", "--system", "I"])
    err = capsys.readouterr().err
    assert code == 2
    assert "no Backlund group" in err


def test_degenerate_refuses_second_to_first(capsys):
    code = main(["degenerate", "II", "I"])
    err = capsys.readouterr().err
    assert code == 2
    assert "converges to the identity as eps -> 0" in err


def test_degenerate_unknown_arrow(capsys):
    code = main(["degenerate", "VI", "II"])
    assert code == 2


def test_degenerate_params_json_schema(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    code, out = run_cli(
        capsys, "degenerate", "V", "III", "--what", "params",
        "--format", "json", "--jobs", "1",
    )
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema())
    assert doc["summary"]["failed"] == 0
    assert doc["summary"]["total"] == doc["summary"]["passed"]


def test_text_and_json_outcomes_agree(capsys):
    code_t, text = run_cli(
        capsys, "degenerate", "V", "III", "--what", "hamiltonian", "--jobs", "1"
    )
    code_j, blob = run_cli(
        capsys, "degenerate", "V", "III", "--what", "hamiltonian",
        "--format", "json", "--jobs", "1",
    )
    assert code_t == code_j == 0
    doc = json.loads(blob)
    for check in doc["checks"]:
        assert check["outcome"] == "pass"
        assert f"[ok  ] {check['id']}" in text


def test_numeric_backlund_cli(capsys):
    code, out = run_cli(
        capsys, "numeric", "backlund", "--system", "II", "--gen", "s1",
        "--jobs", "1",
    )
    assert code == 0
    assert "max deviation" in out


def test_numeric_degeneration_cli(capsys):
    code, out = run_cli(
        capsys, "numeric", "degeneration", "--arrow", "V", "III",
        "--eps", "1e-3", "--jobs", "1",
    )
    assert code == 0
    assert "max deviation" in out


def test_numeric_degeneration_passes_next_to_the_sixth_to_fifth_pole(capsys):
    # Q = 0.85 is 0.15 from the flow's only pole Q = 1: the check runs
    code, out = run_cli(
        capsys, "numeric", "degeneration", "--arrow", "VI", "V",
        "--initial", "1.0,0.85,0.3", "--t1", "1.02", "--format", "json",
    )
    assert code == 0
    (check,) = json.loads(out)["checks"]
    assert check["outcome"] == "pass", check


def test_numeric_bad_generator(capsys):
    code = main(["numeric", "backlund", "--system", "II", "--gen", "s7"])
    assert code == 2


def test_unknown_generator_message_is_printed_without_quotes(capsys):
    code = main(["numeric", "backlund", "--system", "II", "--gen", "s5"])
    assert code == 2
    assert capsys.readouterr().err == "error: W_II has no generator 's5'\n"


@pytest.mark.parametrize("argv", [
    ("verify-groups", "--system", "IV"),
    ("degenerate", "IV", "II", "--what", "params"),
], ids=["verify-groups", "degenerate"])
def test_jobs_value_leaves_the_checks_unchanged(capsys, argv):
    runs = [run_cli(capsys, *argv, *jobs) for jobs in ((), ("--jobs", "1"), ("--jobs", "2"))]
    assert [code for code, _ in runs] == [0, 0, 0]
    # identical check records in identical order; only the config echo differs
    checks = [[line for line in out.splitlines() if line.startswith("[")]
              for _, out in runs]
    assert checks[0] and checks[0] == checks[1] == checks[2]
    # --jobs defaults to 1, so the default report is the --jobs 1 report
    _, default_json = run_cli(capsys, *argv, "--format", "json")
    _, serial_json = run_cli(capsys, *argv, "--format", "json", "--jobs", "1")
    assert default_json == serial_json


def test_near_pole_becomes_a_skip_record(capsys):
    # the s1 map has a 1/p pole; starting with p0 below the pole guard turns
    # the check into a skip carrying the offending point, not a failure
    code, out = run_cli(
        capsys, "numeric", "backlund", "--system", "II", "--gen", "s1",
        "--initial", "0.0,1.0,1e-13", "--t1", "0.01", "--jobs", "1",
    )
    assert code == 0
    assert "[skip]" in out
    assert "1 skipped" in out
    assert "witness: (0.0, 1.0, 1e-13)" in out


def test_failure_sets_exit_code(capsys):
    # an impossibly tight tolerance turns the numeric check into a failure
    code, out = run_cli(
        capsys, "numeric", "backlund", "--system", "II", "--gen", "s1",
        "--tol", "1e-30", "--jobs", "1",
    )
    assert code == 1
    assert "FAIL" in out
    assert "witness" in out


def assert_input_error(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2, argv
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


def test_jobs_below_one_is_refused(capsys):
    assert_input_error(capsys, "verify-groups", "--system", "II", "--jobs", "0")
    assert_input_error(capsys, "degenerate", "V", "III", "--jobs", "-1")


def test_degenerate_has_no_order_option(capsys):
    # every arrow runs at the truncation order its data declares
    with pytest.raises(SystemExit) as exc:
        main(["degenerate", "VI", "V", "--order", "10"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --order 10" in capsys.readouterr().err


def test_nonpositive_step_is_refused(capsys):
    assert_input_error(capsys, "numeric", "backlund", "--system", "II",
                       "--gen", "s1", "--h", "0")
    assert_input_error(capsys, "numeric", "degeneration", "--arrow", "V", "III",
                       "--h=-1e-3")


@pytest.mark.parametrize("option", [
    ("--t1", "nan"), ("--t1", "inf"), ("--t1=-inf",), ("--initial", "nan,1.0,1.0"),
    ("--initial", "0.0,inf,1.0"), ("--params", "nan,0.3"), ("--params", "0.3,inf"),
    ("--h", "inf"), ("--h", "nan"), ("--tol", "nan"), ("--tol", "inf"),
    ("--tol", "0"), ("--tol=-1e-6",),
])
def test_numeric_backlund_refuses_nonfinite_input(capsys, option):
    # a non-finite t1 or step count crashes integrate, and the P_II flow
    # never reads alpha0, so a nan there would pass as ok; no deviation
    # passes a tolerance at or below zero
    assert_input_error(capsys, "numeric", "backlund", "--system", "II",
                       "--gen", "s1", *option)


@pytest.mark.parametrize("option", [
    ("--eps", "nan"), ("--eps", "inf"), ("--eps", "0"), ("--eps=-1e-3",),
    ("--h", "inf"), ("--t1", "nan"), ("--tol", "inf"),
    ("--initial", "1.0,0.5,nan"), ("--params", "0.3,nan,0.3"), ("--tol", "0"), ("--tol=-1e-6",),
])
def test_numeric_degeneration_refuses_bad_eps_and_nonfinite_input(capsys, option):
    # a nan or inf eps reads as a pole (a skip with exit 0), and eps 0 sets
    # the default tolerance 10*eps to 0
    assert_input_error(capsys, "numeric", "degeneration", "--arrow", "V", "III",
                       *option)


def test_empty_numeric_window_is_refused(capsys):
    # t1 equal to the default t0 of 0.0: backlund died re-integrating with
    # a zero step, degeneration reported a vacuous pass
    assert_input_error(capsys, "numeric", "backlund", "--system", "II",
                       "--gen", "s1", "--t1", "0.0")
    assert_input_error(capsys, "numeric", "degeneration", "--arrow", "IV", "II",
                       "--t1", "0.0")
    # t0 from --initial
    assert_input_error(capsys, "numeric", "backlund", "--system", "II",
                       "--gen", "s1", "--initial", "0.5,1.0,1.0", "--t1", "0.5")


def test_wrong_params_count_is_refused(capsys):
    assert_input_error(capsys, "numeric", "backlund", "--system", "II",
                       "--gen", "s1", "--params", "0.1,0.2,0.3")
    assert_input_error(capsys, "numeric", "degeneration", "--arrow", "V", "III",
                       "--params", "0.1,0.2")


def test_dump_csv_writes_the_base_trajectory(capsys, tmp_path):
    path = tmp_path / "base.csv"
    code, _ = run_cli(capsys, "numeric", "backlund", "--system", "II", "--gen", "s1",
                      "--initial", "0.1,0.5,0.3", "--t1", "0.2",
                      "--dump-csv", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "t,q,p"
    # 17 significant digits: each double reads back exactly
    assert lines[1] == "0.10000000000000001,0.5,0.29999999999999999"
    assert tuple(map(float, lines[1].split(","))) == (0.1, 0.5, 0.3)
    assert len(lines) == 1 + 101  # 100 steps of h = 1e-3 and the initial point


def test_dump_csv_to_an_unwritable_path_is_an_input_error(capsys, tmp_path):
    assert_input_error(capsys, "numeric", "backlund", "--system", "II", "--gen", "s1",
                       "--dump-csv", str(tmp_path / "missing" / "base.csv"))


@pytest.mark.parametrize("value", ["a,b,c", "1.0,2.0"])
def test_bad_initial_names_the_expected_form(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["numeric", "backlund", "--system", "II", "--gen", "s1",
              "--initial", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --initial: expected t0,q0,p0: three numbers" in err


EXIT_SCRIPT = """
import atexit, gc, json, sys

calls = []
freeze = gc.freeze


def counting_freeze():
    calls.append(1)
    freeze()


def probe():
    # registered before main, so it runs after the hook main registers
    print("probe", json.dumps([len(calls), gc.get_freeze_count() > 0]), file=sys.stderr)


gc.freeze = counting_freeze
atexit.register(probe)
import painleve_backlund.cli as cli

counts = []
rc = cli.main(["numeric", "backlund", "--system", "II", "--gen", "s1", "--format", "json"])
counts.append([rc, gc.get_freeze_count(), len(calls)])
rc = cli.main(sys.argv[1:])
counts.append([rc, gc.get_freeze_count(), len(calls)])
print("counts", json.dumps(counts), file=sys.stderr)
sys.exit(rc)
"""


@pytest.mark.parametrize("argv, code", [
    (["verify-groups", "--system", "II", "--format", "json"], 0),
    (["numeric", "degeneration", "--arrow", "III", "II", "--format", "json"], 1),
    (["numeric", "backlund", "--system", "II", "--gen", "s1", "--h", "0"], 2),
])
def test_every_process_freezes_its_objects_once_at_exit(argv, code):
    # gc.freeze runs once, at exit, however often main ran; the reports are
    # flushed whole and the exit code is main's
    env = dict(os.environ, PYTHONPATH=str(Path(painleve_backlund.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", EXIT_SCRIPT, *argv], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    lines = dict(line.split(" ", 1) for line in proc.stderr.splitlines()
                 if line.startswith(("counts ", "probe ")))
    assert json.loads(lines["counts"]) == [[0, 0, 0], [code, 0, 0]]
    assert json.loads(lines["probe"]) == [1, True]
    decoder, text, reports = json.JSONDecoder(), proc.stdout, []
    while text.strip():
        doc, end = decoder.raw_decode(text.lstrip())
        reports.append(doc)
        text = text.lstrip()[end:]
    assert len(reports) == (1 if code == 2 else 2)
    assert all(doc["summary"]["total"] == len(doc["checks"]) for doc in reports)


# sha256 of the stdout of each symbolic JSON report, and of each
# `numeric degeneration` report at the CLI defaults, with its exit code.  A
# change that alters printed text updates these digests and says why.
# `numeric backlund` is left out: its deviations are roundoff-level, so a
# digest would mostly pin the platform's libm.
REPORT_DIGESTS = {
    ("verify-groups",): (0,
        "13a958cfc8f38e626cd8484c21bc2ebaab27b40c273f473605db89265af52cc3"),
    ("degenerate", "VI", "V", "--what", "all"): (0,
        "017a72c123442b78c0979516ef32ff4e25e1da39c88d49105a293cd94f09084d"),
    ("degenerate", "V", "IV", "--what", "all"): (0,
        "6d04d6806d5708956ec846bfd07d6117ab3abfbc7b3ba6eedeee758bfaf0eea5"),
    ("degenerate", "V", "III", "--what", "all"): (0,
        "0e13c28db0037ce77ed663ff60f337ac238af2c45b6cac8ae49a1ca84e259aae"),
    ("degenerate", "IV", "II", "--what", "all"): (0,
        "875730dcdb3de754c6764720df7b3eccda2c2510e69d01c8a0034468e02a7225"),
    ("degenerate", "III", "II", "--what", "all"): (0,
        "2ceaaf5d66075fb5a8cf036b7fa7e39eef3b2378e1ce1c1b80a13c8c0ad3de00"),
    ("numeric", "degeneration", "--arrow", "VI", "V"): (0,
        "d0d0724836b53ad430e93b0ce5ae5ae7f41879e7621271e1dbef76740e106696"),
    ("numeric", "degeneration", "--arrow", "V", "IV"): (0,
        "8de20fb6491362506640b38771f57442c4e6b4369d341c2549d61fbbe9e6046f"),
    ("numeric", "degeneration", "--arrow", "V", "III"): (0,
        "56f94f8bbea0aa20d0344e6aadbb01fc82eb9cce40a005b9835f1583791f7026"),
    ("numeric", "degeneration", "--arrow", "IV", "II"): (0,
        "a792204fe95d4578a466aead91eb489b80593cf4635a46c4fb1dc758e7bd8b0c"),
    ("numeric", "degeneration", "--arrow", "III", "II"): (1,
        "90ed9053b7f4abf93c634882ad3956d2b601cad6f7f8d1e0f924b6254f1115dd"),
}


@pytest.mark.parametrize("argv", list(REPORT_DIGESTS), ids=" ".join)
def test_symbolic_reports_are_pinned_byte_for_byte(argv):
    # each report from a fresh interpreter, as a command would print it
    env = dict(os.environ, PYTHONPATH=str(Path(painleve_backlund.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-S", "-m", "painleve_backlund.cli", *argv, "--format", "json"],
        env=env, capture_output=True, timeout=120,
    )
    got = (proc.returncode, hashlib.sha256(proc.stdout).hexdigest())
    assert got == REPORT_DIGESTS[argv], proc.stderr.decode()

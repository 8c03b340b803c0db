"""Command-line front end.

    painleve-backlund verify-groups [--system VI] [--format json]
    painleve-backlund degenerate VI V --what all
    painleve-backlund numeric backlund --system II --gen s1
    painleve-backlund numeric degeneration --arrow V III --eps 1e-3

Exit code is 0 exactly when no check failed.  Every check runs in this
process, symbolic ones in catalog order.  The JSON report validates
against report_schema.json.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import math
import sys
from functools import partial

from . import __version__
from .groups import GROUP_LABELS, generator
from .report import CheckRecord, Report
from .systems import UnsupportedSystem, system

# Pinned pole-free configurations for the numeric checks, one per system
# (params, (t0, q0, p0), t1).  Windows avoid the zeros of the time weight:
# t in {0, 1} for VI, t = 0 for V and III.
NUMERIC_DEFAULTS = {
    "VI": ((0.3, 0.2, 0.15, 0.1, 0.1), (2.0, 0.5, 0.3), 2.5),
    "V": ((0.4, 0.3, 0.2, 0.1), (1.0, 0.5, 0.3), 2.0),
    "IV": ((0.4, 0.3, 0.3), (0.0, 0.5, 0.4), 1.0),
    "III": ((0.3, 0.2, 0.3), (1.0, 0.5, 0.3), 2.0),
    "II": ((2 / 3, 1 / 3), (0.0, 1.0, 1.0), 1.0),
}

DEGEN_NUMERIC_DEFAULTS = {
    ("VI", "V"): ((0.4, 0.3, 0.2, 0.1), (1.0, 0.5, 0.3), 1.5),
    ("V", "IV"): ((0.4, 0.3, 0.3), (0.0, 0.5, 0.4), 1.0),
    ("V", "III"): ((0.3, 0.2, 0.3), (1.0, 0.5, 0.3), 1.5),
    ("IV", "II"): ((2 / 3, 1 / 3), (0.0, 1.0, 1.0), 1.0),
    ("III", "II"): ((2 / 3, 1 / 3), (0.0, 1.0, 1.0), 1.0),
}


def _new_report(config: dict) -> Report:
    return Report("painleve-backlund", __version__, config)


def _emit(report: Report, fmt: str) -> int:
    if fmt == "json":
        print(report.render_json())
    else:
        print(report.render_text())
    return 0 if report.failed == 0 else 1


def cmd_verify_groups(args) -> int:
    from . import checks as ck

    labels = GROUP_LABELS if args.system in (None, "all") else (args.system,)
    for label in labels:
        if label not in GROUP_LABELS:
            return _input_error(
                f"no Backlund group for P_{label}"
                + (" (P_I has no nontrivial Backlund transformations)"
                   if label == "I" else "")
            )
    report = _new_report({"systems": ",".join(labels), "jobs": args.jobs,
                          "seed": args.seed})
    for label in labels:
        for check_id in ck.group_check_ids(label):
            report.add(ck.run_check(check_id))
    return _emit(report, args.format)


def cmd_degenerate(args) -> int:
    from . import checks as ck
    from . import degeneration as dg

    try:
        arr = dg.arrow(args.source, args.target)
    except dg.UnsupportedArrow as exc:
        return _input_error(str(exc))
    report = _new_report({
        "arrow": arr.name, "what": args.what, "order": arr.trunc,
        "jobs": args.jobs, "seed": args.seed,
    })
    for check_id in ck.arrow_check_ids(arr, args.what):
        report.add(ck.run_check(check_id))
    return _emit(report, args.format)


def _input_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _parse_params(text: str, label: str) -> tuple[float, ...]:
    n = len(system(label).params)
    try:
        params = tuple(float(x) for x in text.split(","))
    except ValueError:
        params = ()
    if len(params) != n or not all(map(math.isfinite, params)):
        raise ValueError(
            f"--params expects {n} comma-separated finite numbers for P_{label}")
    return params


def _parse_triple(text: str) -> tuple[float, float, float]:
    try:
        parts = tuple(float(x) for x in text.split(","))
    except ValueError:
        parts = ()
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected t0,q0,p0: three numbers")
    return parts


def cmd_numeric(args) -> int:
    """numeric backlund and numeric degeneration: one flow comparison each."""
    from .numeric import NearPole, backlund_numeric_check, degeneration_numeric_check, integrate

    command = args.numeric_command
    if command == "backlund":
        label = args.system
        try:
            gen = generator(label, args.gen)
        except (UnsupportedSystem, KeyError) as exc:
            # args[0], not str(exc): str of a KeyError is the repr of its message
            return _input_error(exc.args[0])
        params, initial, t1 = NUMERIC_DEFAULTS[label]
        head = {"system": label, "generator": args.gen}
        tol, at_eps = args.tol, ""
        check_id, subject, source = (
            f"numeric/backlund/{label}/{args.gen}", f"P_{label} {args.gen}",
            f"flow of P_{label}")
        check = partial(backlund_numeric_check, label, gen)
    else:
        from . import degeneration as dg

        try:
            arr = dg.arrow(*args.arrow)
        except dg.UnsupportedArrow as exc:
            return _input_error(str(exc))
        label = arr.target
        params, initial, t1 = DEGEN_NUMERIC_DEFAULTS[(arr.source, arr.target)]
        head = {"arrow": arr.name, "eps": args.eps}
        tol = args.tol if args.tol is not None else 10 * args.eps
        at_eps = f" at eps={args.eps:g}"
        check_id, subject, source = (
            f"numeric/degeneration/{arr.source}-{arr.target}", arr.name,
            f"flows of {arr.name} vs P_{arr.target}")
        check = partial(degeneration_numeric_check, arr, args.eps)
    if args.params is not None:
        try:
            params = _parse_params(args.params, label)
        except ValueError as exc:
            return _input_error(str(exc))
    if args.initial is not None:
        initial = args.initial
    if args.t1 is not None:
        t1 = args.t1
    if t1 == initial[0]:
        return _input_error(
            f"--t1 {t1} equals the start time t0 = {initial[0]}: the window is empty")
    if getattr(args, "dump_csv", None):
        trajectory = integrate(label, params, initial, t1, args.h)
        try:
            trajectory.to_csv(args.dump_csv)
        except OSError as exc:
            return _input_error(f"cannot write --dump-csv: {exc}")
    report = _new_report({
        **head, "h": args.h, "tol": tol,
        "params": ",".join(str(v) for v in params),
        "initial": ",".join(str(v) for v in initial), "t1": t1,
        "seed": args.seed,
    })
    kind = f"numeric-{command}"
    try:
        dev = check(params, initial, t1, args.h)
        outcome = "pass" if dev < tol else "fail"
        report.add(CheckRecord(
            check_id, kind, subject, source, outcome,
            detail=f"max deviation {dev:.3e}{at_eps} vs tolerance {tol:.1e}",
            witness=None if outcome == "pass" else f"deviation {dev:.6e}",
        ))
    except NearPole as exc:
        report.add(CheckRecord(
            check_id, kind, subject, source, "skip",
            detail=f"near pole: {exc}", witness=str(exc.at),
        ))
    return _emit(report, args.format)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="painleve-backlund",
        description="Exact verification of Backlund transformation groups"
                    " of the Painleve systems and their degenerations.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--jobs", type=int, default=1,
                       help="only echoed into the report; every check runs in"
                            " this process")
        p.add_argument("--seed", type=int, default=0,
                       help="seed echoed into the report for reproducibility")

    p = sub.add_parser("verify-groups", help="fundamental relations,"
                       " symplecticity, derivation commutation, constraints")
    p.add_argument("--system", default="all",
                   choices=("all", "VI", "V", "IV", "III", "II", "I"))
    common(p)
    p.set_defaults(func=cmd_verify_groups)

    p = sub.add_parser("degenerate", help="verify one degeneration arrow")
    p.add_argument("source", help="source system label, e.g. VI")
    p.add_argument("target", help="target system label, e.g. V")
    p.add_argument("--what", default="all",
                   choices=("params", "limits", "hamiltonian", "relations", "all"))
    common(p)
    p.set_defaults(func=cmd_degenerate)

    p = sub.add_parser("numeric", help="floating-point cross-checks")
    nsub = p.add_subparsers(dest="numeric_command", required=True)

    nb = nsub.add_parser("backlund", help="compare mapped and re-integrated flows")
    nb.add_argument("--system", required=True, choices=("VI", "V", "IV", "III", "II"))
    nb.add_argument("--gen", required=True, help="generator name, e.g. s1")
    nb.add_argument("--h", type=float, default=1e-3)
    nb.add_argument("--tol", type=float, default=1e-6)
    nb.add_argument("--params", default=None, help="comma-separated values")
    nb.add_argument("--initial", type=_parse_triple, default=None,
                    help="t0,q0,p0")
    nb.add_argument("--t1", type=float, default=None)
    nb.add_argument("--dump-csv", default=None, metavar="PATH",
                    help="write the base trajectory as CSV (t,q,p)")
    common(nb)
    nb.set_defaults(func=cmd_numeric)

    nd = nsub.add_parser("degeneration",
                         help="compare the degenerate flow with the target flow")
    nd.add_argument("--arrow", nargs=2, required=True, metavar=("J", "K"))
    nd.add_argument("--eps", type=float, default=1e-3)
    nd.add_argument("--h", type=float, default=1e-3)
    nd.add_argument("--tol", type=float, default=None,
                    help="default 10*eps")
    nd.add_argument("--params", default=None)
    nd.add_argument("--initial", type=_parse_triple, default=None)
    nd.add_argument("--t1", type=float, default=None)
    common(nd)
    nd.set_defaults(func=cmd_numeric)

    return parser


def main(argv=None) -> int:
    # At exit, freeze every tracked object into the permanent generation, so
    # that finalization skips traversing them; registered once per process.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    args = build_parser().parse_args(argv)
    if args.jobs < 1:
        return _input_error(f"--jobs must be at least 1, got {args.jobs}")
    for name in ("h", "eps", "tol"):
        value = getattr(args, name, None)
        if value is not None and not 0 < value < math.inf:  # also refuses nan
            return _input_error(f"--{name} must be positive and finite, got {value}")
    t1 = getattr(args, "t1", None)
    if t1 is not None and not math.isfinite(t1):
        return _input_error(f"--t1 must be finite, got {t1}")
    initial = getattr(args, "initial", None)
    if initial is not None and not all(map(math.isfinite, initial)):
        return _input_error(
            f"--initial must be finite, got {','.join(map(str, initial))}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

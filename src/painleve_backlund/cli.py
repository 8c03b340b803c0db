"""Command-line front end.

    painleve-backlund verify-groups [--system VI] [--format json]
    painleve-backlund degenerate VI V --what all
    painleve-backlund numeric backlund --system II --gen s1
    painleve-backlund numeric degeneration --arrow V III --eps 1e-3

Exit code is 0 exactly when no check failed.  Symbolic checks are
independent and dispatch to a process pool (--jobs); numeric checks run
inline.  The JSON report validates against report_schema.json.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial

from . import __version__
from .numeric import NearPole, backlund_numeric_check, degeneration_numeric_check
from .groups import generator
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


def _run_ids(report: Report, ids: list[str], jobs: int, order: int | None = None) -> None:
    from . import checks as ck

    run = partial(ck.run_check, order=order)  # a partial of a module function pickles
    if jobs > 1 and len(ids) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(run, ids))
    else:
        records = [run(check_id) for check_id in ids]
    for rec in records:
        report.add(rec)


def _emit(report: Report, fmt: str) -> int:
    if fmt == "json":
        print(report.render_json())
    else:
        print(report.render_text())
    return 0 if report.failed == 0 else 1


def cmd_verify_groups(args) -> int:
    from . import checks as ck

    labels = ck.GROUPS if args.system in (None, "all") else (args.system,)
    for label in labels:
        if label not in ck.GROUPS:
            return _input_error(
                f"no Backlund group for P_{label}"
                + (" (P_I has no nontrivial Backlund transformations)"
                   if label == "I" else "")
            )
    report = _new_report({"systems": ",".join(labels), "jobs": args.jobs,
                          "seed": args.seed})
    ids: list[str] = []
    for label in labels:
        ids += ck.group_check_ids(label)
    _run_ids(report, ids, args.jobs)
    return _emit(report, args.format)


def cmd_degenerate(args) -> int:
    from . import checks as ck
    from . import degeneration as dg

    try:
        arr = dg.arrow(args.source, args.target)
    except dg.UnsupportedArrow as exc:
        return _input_error(str(exc))
    if args.order is not None and args.order <= arr.eps_power:
        # at eps^k the S(eps)^k comparisons keep only the leading term, so a
        # wrong eps branch passes; below it they compare nothing
        return _input_error(
            f"--order {args.order} is not above the eps power {arr.eps_power}"
            f" of {arr.name}; its branch checks need order {arr.eps_power + 1}"
        )
    arr = dg.arrow(args.source, args.target, order=args.order)
    report = _new_report({
        "arrow": arr.name, "what": args.what, "order": arr.trunc,
        "jobs": args.jobs, "seed": args.seed,
    })
    ids = ck.arrow_check_ids(arr, args.what)
    _run_ids(report, ids, args.jobs, args.order)
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
    if len(params) != n:
        raise ValueError(f"--params expects {n} comma-separated numbers for P_{label}")
    return params


def _parse_triple(text: str) -> tuple[float, float, float]:
    parts = [float(x) for x in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected t0,q0,p0")
    return tuple(parts)


def cmd_numeric_backlund(args) -> int:
    label = args.system
    try:
        gen = generator(label, args.gen)
    except (UnsupportedSystem, KeyError) as exc:
        return _input_error(str(exc))
    params, initial, t1 = NUMERIC_DEFAULTS[label]
    if args.params is not None:
        try:
            params = _parse_params(args.params, label)
        except ValueError as exc:
            return _input_error(str(exc))
    if args.initial is not None:
        initial = args.initial
    if args.t1 is not None:
        t1 = args.t1
    if args.dump_csv:
        from .numeric import integrate

        integrate(label, params, initial, t1, args.h).to_csv(args.dump_csv)
    report = _new_report({
        "system": label, "generator": args.gen, "h": args.h, "tol": args.tol,
        "params": ",".join(str(v) for v in params),
        "initial": ",".join(str(v) for v in initial), "t1": t1,
        "seed": args.seed,
    })
    check_id = f"numeric/backlund/{label}/{args.gen}"
    try:
        dev = backlund_numeric_check(label, gen, params, initial, t1, args.h)
        outcome = "pass" if dev < args.tol else "fail"
        report.add(CheckRecord(
            check_id, "numeric-backlund", f"P_{label} {args.gen}",
            f"flow of P_{label}", outcome,
            detail=f"max deviation {dev:.3e} vs tolerance {args.tol:.1e}",
            witness=None if outcome == "pass" else f"deviation {dev:.6e}",
        ))
    except NearPole as exc:
        report.add(CheckRecord(
            check_id, "numeric-backlund", f"P_{label} {args.gen}",
            f"flow of P_{label}", "skip",
            detail=f"near pole: {exc}", witness=str(exc.at),
        ))
    return _emit(report, args.format)


def cmd_numeric_degeneration(args) -> int:
    from . import degeneration as dg

    try:
        arr = dg.arrow(args.arrow[0], args.arrow[1])
    except dg.UnsupportedArrow as exc:
        return _input_error(str(exc))
    params, initial, t1 = DEGEN_NUMERIC_DEFAULTS[(arr.source, arr.target)]
    if args.params is not None:
        try:
            params = _parse_params(args.params, arr.target)
        except ValueError as exc:
            return _input_error(str(exc))
    if args.initial is not None:
        initial = args.initial
    if args.t1 is not None:
        t1 = args.t1
    tol = args.tol if args.tol is not None else 10 * args.eps
    report = _new_report({
        "arrow": arr.name, "eps": args.eps, "h": args.h, "tol": tol,
        "params": ",".join(str(v) for v in params),
        "initial": ",".join(str(v) for v in initial), "t1": t1,
        "seed": args.seed,
    })
    check_id = f"numeric/degeneration/{arr.source}-{arr.target}"
    try:
        dev = degeneration_numeric_check(arr, args.eps, params, initial, t1, args.h)
        outcome = "pass" if dev < tol else "fail"
        report.add(CheckRecord(
            check_id, "numeric-degeneration", arr.name,
            f"flows of {arr.name} vs P_{arr.target}", outcome,
            detail=f"max deviation {dev:.3e} at eps={args.eps:g}"
                   f" vs tolerance {tol:.1e}",
            witness=None if outcome == "pass" else f"deviation {dev:.6e}",
        ))
    except NearPole as exc:
        report.add(CheckRecord(
            check_id, "numeric-degeneration", arr.name,
            f"flows of {arr.name} vs P_{arr.target}", "skip",
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
        p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
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
    p.add_argument("--order", type=int, default=None,
                   help="override the eps truncation order")
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
    nb.set_defaults(func=cmd_numeric_backlund)

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
    nd.set_defaults(func=cmd_numeric_degeneration)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.jobs < 1:
        return _input_error(f"--jobs must be at least 1, got {args.jobs}")
    if not getattr(args, "h", 1.0) > 0:  # also refuses nan
        return _input_error(f"--h must be a positive step, got {args.h}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

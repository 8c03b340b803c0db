"""Catalog of verification checks, addressable by string id.

The CLI builds an id list and runs run_check on each id in catalog order.
Ids look like

    groups/VI/relation/(s0 s2)^3
    groups/II/gen/s0/symplectic
    degen/VI-V/limit/S0/Q
    degen/IV-II/ham/limit

Each id computes only its own verdict, and this module is the only code
that turns a degeneration id into one: the runner calls the library
functions for that id (one relation on one side, one generator's eps branch,
one arrow-data item, one table entry), never a whole list it then filters.
Every failure record carries a printable witness; a crash becomes an error
record naming the exception class and the innermost file:line.
"""

from __future__ import annotations

import os
import traceback

from . import degeneration as dg
from . import groups as gr
from .exprio import print_expr, print_series
from .ratfn import RatFn, ratfn_equal
from .report import CheckRecord
from .series import DivergesAtZero
from .symbols import A, P_, Q_, T_, p_, q_
from .systems import poisson_bracket, system

def group_check_ids(label: str) -> list[str]:
    ids = [f"groups/{label}/relation/{rel}" for rel, _ in gr.fundamental_relations(label)]
    for g in gr.generators(label):
        ids += [
            f"groups/{label}/gen/{g.name}/symplectic",
            f"groups/{label}/gen/{g.name}/constraint",
            f"groups/{label}/gen/{g.name}/commutes",
        ]
    return ids


def arrow_check_ids(arr: dg.DegenerationArrow, what: str = "all") -> list[str]:
    key = f"{arr.source}-{arr.target}"
    ids: list[str] = []
    if what in ("all", "params"):
        ids += [f"degen/{key}/data/{i}" for i in range(len(dg.arrow_data_labels(arr)))]
        n = len(system(arr.target).params)
        for name in arr.subgroup_words:
            ids += [f"degen/{key}/param/{name}/{A[i].name}" for i in range(n)]
            ids.append(f"degen/{key}/eps/{name}")
    if what in ("all", "limits"):
        for name in arr.subgroup_words:
            ids += [f"degen/{key}/limit/{name}/{X.name}" for X in (T_, Q_, P_)]
    if what in ("all", "hamiltonian"):
        ids += [f"degen/{key}/ham/gauge", f"degen/{key}/ham/limit"]
        if not arr.ham_shift.is_zero():
            ids.append(f"degen/{key}/ham/shift-identity")
    if what in ("all", "relations"):
        for rel, _ in gr.fundamental_relations(arr.target):
            ids += [f"degen/{key}/relation/{rel}/a", f"degen/{key}/relation/{rel}/b"]
    if what == "all":
        ids += [f"degen/{key}/factor/{name}" for name in arr.subgroup_words]
    return ids


# ----------------------------------------------------------------------
# runner

def run_check(check_id: str, order: int | None = None) -> CheckRecord:
    """Execute one catalog check and return its report record.

    order sets the eps truncation of a degeneration arrow (None keeps
    the arrow's default); group checks ignore it.
    """
    parts = check_id.split("/")
    try:
        if parts[0] == "groups":
            return _run_group_check(check_id, parts)
        if parts[0] == "degen":
            return _run_degen_check(check_id, parts, order)
    except Exception as exc:  # an error record; the rest of the report still runs
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{os.path.basename(frame.filename)}:{frame.lineno}"
        return _record(
            check_id, "error", parts[1], "fail",
            detail=f"{type(exc).__name__} at {where}: {exc}",
        )
    return _record(check_id, "unknown", "", "fail", detail="unknown check id")


def _record(check_id, kind, subject, outcome, detail="", witness=None) -> CheckRecord:
    if outcome == "fail" and witness is None:
        witness = detail or subject or check_id
    return CheckRecord(check_id, kind, subject, _source_of(check_id), outcome, detail, witness)


def _source_of(check_id: str) -> str:
    parts = check_id.split("/")
    if parts[0] == "groups":
        return f"generator table W_{parts[1]} ({gr.weyl_type(parts[1])})"
    if parts[0] == "degen":
        return f"degeneration data {parts[1].replace('-', ' -> ')}"
    return "internal"


def _run_group_check(check_id: str, parts: list[str]) -> CheckRecord:
    label = parts[1]
    if parts[2] == "relation":
        rel = parts[3]
        words = dict(gr.fundamental_relations(label))
        word = words[rel]
        ok = gr.verify_relation(label, word)
        witness = None
        if not ok:
            for s in gr.field_symbols(label):
                image = gr.apply_word(label, word, RatFn.variable(s))
                if not ratfn_equal(image, RatFn.variable(s)):
                    witness = f"{rel}({s.name}) = {print_expr(image)}"
                    break
        return _record(
            check_id, "relation", f"W_{label}: {rel} = 1",
            "pass" if ok else "fail",
            detail=f"identity on {len(gr.field_symbols(label))} field generators",
            witness=witness,
        )
    gen = gr.generator(label, parts[3])
    kind = parts[4]
    if kind == "symplectic":
        ok = gr.verify_symplectic(label, gen)
        return _record(
            check_id, "symplectic", f"W_{label} {gen.name}",
            "pass" if ok else "fail",
            detail="{g(p), g(q)} = 1",
            witness=None if ok else print_expr(
                poisson_bracket(gen.acts_on(p_), gen.acts_on(q_))
            ),
        )
    if kind == "constraint":
        ok = gr.verify_constraint_preserved(label, gen)
        return _record(
            check_id, "constraint", f"W_{label} {gen.name}",
            "pass" if ok else "fail",
            detail="parameter sum preserved",
            witness=None if ok else print_expr(gen(system(label).constraint_expr())),
        )
    if kind == "commutes":
        mismatch = gr.derivation_mismatch(label, gen)
        if mismatch is not None:
            s, lhs, rhs = mismatch
            return _record(
                check_id, "commutation", f"W_{label} {gen.name}", "fail",
                detail=f"delta(g({s.name})) != g(delta({s.name}))",
                witness=f"lhs = {print_expr(lhs)}; rhs = {print_expr(rhs)}",
            )
        return _record(
            check_id, "commutation", f"W_{label} {gen.name}", "pass",
            detail="delta o g = g o delta on all field generators",
        )
    raise ValueError(f"bad group check {check_id}")


def _run_degen_check(check_id: str, parts: list[str], order: int | None) -> CheckRecord:
    src, tgt = parts[1].split("-")
    arr = dg.arrow(src, tgt, order=order)
    kind = parts[2]
    if kind == "data":
        label, ok = dg.verify_arrow_datum(arr, int(parts[3]))
        return _record(
            check_id, "arrow-data", f"{arr.name}: {label}",
            "pass" if ok else "fail", detail=label,
        )
    if kind == "param":
        name, a_name = parts[3], parts[4]
        Ai = next(s for s in A if s.name == a_name)
        got = dg.lift_generator(arr, name).param_actions[Ai]
        expected = dg.target_table_action(arr, name, Ai)
        ok = ratfn_equal(got, expected)
        return _record(
            check_id, "lifted-param", f"{arr.name} {name}({a_name})",
            "pass" if ok else "fail",
            detail=f"= {print_expr(got)}",
            witness=None if ok else f"expected {print_expr(expected)}",
        )
    if kind == "eps":
        name = parts[3]
        results = dict(dg.verify_eps_action(arr, name))
        ok = all(results.values())
        branch = arr.eps_action[name]
        shown = print_series(branch.truncate(min(arr.eps_power + 1, branch.trunc)))
        return _record(
            check_id, "eps-branch", f"{arr.name} {name}(eps)",
            "pass" if ok else "fail",
            detail=f"chosen branch {shown}; verified: " + "; ".join(results),
            witness=None if ok else print_series(branch),
        )
    if kind == "limit":
        name, x_name = parts[3], parts[4]
        X = {"T": T_, "Q": Q_, "P": P_}[x_name]
        # limits match the table in free parameters; only the ham ids need the constraint
        expected = dg.target_table_action(arr, name, X)
        try:
            got = dg.limit_action(arr, name, X)
        except DivergesAtZero as exc:
            return _record(
                check_id, "limit", f"{arr.name} {name}({x_name})", "fail",
                detail="diverges", witness=str(exc),
            )
        ok = ratfn_equal(got, expected)
        return _record(
            check_id, "limit", f"{arr.name} {name}({x_name})",
            "pass" if ok else "fail",
            detail=f"-> {print_expr(got)} ; table entry {print_expr(expected)}",
            witness=None if ok else f"limit differs from {print_expr(expected)}",
        )
    if kind == "ham":
        return _run_ham_check(check_id, arr, parts[3])
    if kind == "relation":
        rel, side = parts[3], parts[4]
        ok = dg.verify_subgroup_relation(arr, rel, side)
        detail = (
            "exact identity in the source field" if side == "a"
            else "identity on lifted (A, eps) actions"
        )
        return _record(
            check_id, "subgroup-relation", f"{arr.name} {rel} ({side})",
            "pass" if ok else "fail", detail=detail,
        )
    if kind == "factor":
        name = parts[3]
        factor = dg.transformed_system_factor(arr, name)
        ok = ratfn_equal(factor.coeff(0), RatFn.const(1)) and all(
            n >= 0 for n in factor.coeffs
        )
        return _record(
            check_id, "transform-factor", f"{arr.name} {name}",
            "pass" if ok else "fail",
            detail=f"= {print_series(factor.truncate(min(4, factor.trunc)))}",
            witness=None if ok else print_series(factor),
        )
    raise ValueError(f"bad degeneration check {check_id}")


def _run_ham_check(check_id: str, arr: dg.DegenerationArrow, which: str) -> CheckRecord:
    if which == "gauge":
        gauge = dg.hamiltonian_gauge_terms(arr)
        ok = all(dg.is_flow_trivial(c) for c in gauge.values())
        orders = ", ".join(
            f"eps^{n}: {print_expr(c)}" for n, c in sorted(gauge.items())
        )
        return _record(
            check_id, "hamiltonian", f"{arr.name} gauge terms",
            "pass" if ok else "fail",
            detail=orders or "none",
        )
    if which == "limit":
        try:
            residual = dg.hamiltonian_limit_residual(arr)
        except DivergesAtZero as exc:
            return _record(
                check_id, "hamiltonian", f"{arr.name} limit", "fail",
                detail="diverges", witness=str(exc),
            )
        ok = dg.is_flow_trivial(residual)
        return _record(
            check_id, "hamiltonian", f"{arr.name} limit",
            "pass" if ok else "fail",
            detail="order-0 coefficient generates the target flow"
            + ("" if residual.is_zero() else
               f"; flow-trivial residual {print_expr(residual)}"),
            witness=None if ok else print_expr(residual),
        )
    if which == "shift-identity":
        ok = dg.verify_hamiltonian_shift(arr)
        return _record(
            check_id, "hamiltonian", f"{arr.name} additive shift",
            "pass" if ok else "fail",
            detail="exact identity before expansion",
        )
    raise ValueError(f"bad hamiltonian check {check_id}")

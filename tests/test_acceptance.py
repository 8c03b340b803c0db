"""Acceptance suite: every exit criterion, timed, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
All tolerances and budgets are pinned here, not configurable.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from painleve_backlund import checks as ck
from painleve_backlund import degeneration as dg
from painleve_backlund import groups as gr
from painleve_backlund.exprio import parse_expr
from painleve_backlund.numeric import backlund_numeric_check, degeneration_numeric_check
from painleve_backlund.ratfn import RatFn, ratfn_equal
from painleve_backlund.series import DivergesAtZero, EpsSeries, binomial_series, series_equal
from painleve_backlund.symbols import A, P_, eps, p_, q_, t_

GROUPS = ("VI", "V", "IV", "III", "II")
ARROWS = (("VI", "V"), ("V", "IV"), ("V", "III"), ("IV", "II"), ("III", "II"))


@contextmanager
def criterion(number: int, description: str, budget: float | None = None):
    start = time.perf_counter()
    failures: list[str] = []
    try:
        yield failures
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if not failures else "FAIL"
        budget_note = f" (budget {budget:.0f}s)" if budget else ""
        print(f"criterion {number}: {status} - {description}"
              f" [{elapsed:.2f}s{budget_note}]")
    assert not failures, f"criterion {number}: {failures}"
    if budget is not None:
        assert elapsed < budget, f"criterion {number} overran: {elapsed:.1f}s"


def test_criterion_1_group_relation_suites():
    with criterion(1, "all fundamental relations verify exactly", 60.0) as bad:
        total = 0
        for label in GROUPS:
            for rel_label, word in gr.fundamental_relations(label):
                total += 1
                if not gr.verify_relation(label, word):
                    bad.append(f"{label}:{rel_label}")
        # 5 involutions + 6 order-2 + 4 order-3 for D4(1); 10 for A3(1);
        # 6 for A2(1); 5 for C2(1); 2 for A1(1)
        if total != 38:
            bad.append(f"relation count {total} != 38")


def test_criterion_2_generator_checks():
    with criterion(2, "17 generators: symplectic, constraint, derivation"
                      " commutation", 120.0) as bad:
        count = 0
        for label in GROUPS:
            for g in gr.generators(label):
                count += 1
                if not gr.verify_symplectic(label, g):
                    bad.append(f"{label}:{g.name}:symplectic")
                if not gr.verify_constraint_preserved(label, g):
                    bad.append(f"{label}:{g.name}:constraint")
                if not gr.verify_commutes_with_derivation(label, g):
                    bad.append(f"{label}:{g.name}:commutes")
        if count != 17:
            bad.append(f"generator count {count} != 17")


def catalog_failures(arr, what, kinds):
    """Ids of the given kinds on one arrow whose catalog record is not a pass."""
    failures = []
    for check_id in ck.arrow_check_ids(arr, what):
        if check_id.split("/")[2] in kinds:
            rec = ck.run_check(check_id)
            if rec.outcome != "pass":
                failures.append(f"{check_id}: {rec.witness}")
    return failures


def test_criterion_3_lifted_parameter_actions():
    with criterion(3, "lifted actions on (A, eps) match the published lists") as bad:
        for J, K in ARROWS:
            arr = dg.arrow(J, K)
            bad += catalog_failures(arr, "params", ("param", "eps"))
            if arr.is_birational():
                # eps is rational there: the derived action must equal the
                # declared branch exactly, order by order
                for name, word in arr.subgroup_words.items():
                    derived = dg.lift_word(arr, word)
                    if not series_equal(derived.eps_series, arr.eps_action[name]):
                        bad.append(f"{J}->{K}:{name}(eps) exact")


def test_criterion_4_convergence_limits_at_order_12():
    with criterion(4, "all lifted T, Q, P actions converge to the target"
                      " tables (order 12 on the branched arrows)", 600.0) as bad:
        for J, K in ARROWS:
            # the limits read order 0 only; VI -> V and V -> III declare 8
            bad += catalog_failures(dg.arrow(J, K), "limits", ("limit",))
        # the S1(P) remainder on V -> III has eps-valuation >= 1
        from painleve_backlund.series import ratfn_eps_valuation

        lifted = dg.lift_generator(dg.arrow("V", "III"), "S1")
        remainder = lifted.exact_var[P_] - parse_expr("P - 2*A1/Q + T/Q^2")
        if not (ratfn_eps_valuation(remainder) or 0) >= 1:
            bad.append("V->III S1(P) remainder valuation < 1")


def test_criterion_5_hamiltonian_degeneration():
    with criterion(5, "order-0 of H_{J->K} generates the target flow;"
                      " V->III additive identity exact") as bad:
        for J, K in ARROWS:
            bad += catalog_failures(dg.arrow(J, K), "hamiltonian", ("ham",))
        sh = dg.arrow("V", "III")
        from painleve_backlund.systems import system

        lhs = dg.degenerate_hamiltonian_exact(sh)
        rhs = sh.pushforward(system("V").hamiltonian) + parse_expr("Q*P")
        if not ratfn_equal(lhs, rhs):
            bad.append("H_{V->III} != H_V + Q*P")


def test_criterion_6_negative_controls():
    with criterion(6, "raw s3 lift diverges on A0; II -> I arrow refused") as bad:
        raw = dg.lift_word(dg.arrow("VI", "V"), ("s3",))
        if not ratfn_equal(raw.param_actions[A[0]], parse_expr("A2 + 1/eps")):
            bad.append("raw s3(A0) value")
        try:
            raw.action_limit(A[0])
            bad.append("raw s3(A0) limit did not diverge")
        except DivergesAtZero as err:
            if err.order != -1:
                bad.append(f"divergence order {err.order} != -1")
        try:
            dg.arrow("II", "I")
            bad.append("II -> I arrow not refused")
        except dg.UnsupportedArrow as err:
            if "converges to the identity as" not in str(err):
                bad.append("II -> I refusal lacks the reason")


def test_criterion_7_numeric_backlund_check():
    with criterion(7, "numeric Backlund check on the pinned P_II case", 5.0) as bad:
        g = gr.generator("II", "s1")
        dev_h = backlund_numeric_check(
            "II", g, [2 / 3, 1 / 3], (0.0, 1.0, 1.0), 1.0, 1e-3
        )
        if not dev_h < 1e-6:
            bad.append(f"deviation {dev_h:.3e} >= 1e-6")
        dev_half = backlund_numeric_check(
            "II", g, [2 / 3, 1 / 3], (0.0, 1.0, 1.0), 1.0, 5e-4
        )
        ratio = dev_h / dev_half
        if not (8.0 <= ratio <= 32.0):
            bad.append(f"halving ratio {ratio:.2f} outside [8, 32]")


def test_criterion_8_numeric_degeneration_check():
    with criterion(8, "numeric degeneration checks for VI->V and V->III", 30.0) as bad:
        cases = {
            ("VI", "V"): ((0.4, 0.3, 0.2, 0.1), (1.0, 0.5, 0.3), 1.5),
            ("V", "III"): ((0.3, 0.2, 0.3), (1.0, 0.5, 0.3), 1.5),
        }
        for (J, K), (params, initial, t1) in cases.items():
            arr = dg.arrow(J, K)
            dev3 = degeneration_numeric_check(arr, 1e-3, params, initial, t1, 1e-3)
            if not dev3 < 10 * 1e-3:
                bad.append(f"{J}->{K}: deviation {dev3:.3e} >= 1e-2")
            dev2 = degeneration_numeric_check(arr, 1e-2, params, initial, t1, 1e-3)
            ratio = dev2 / dev3
            if not (5.0 <= ratio <= 20.0):
                bad.append(f"{J}->{K}: decade ratio {ratio:.2f} outside [5, 20]")


def test_criterion_9_kernel_property_suite(seed):
    from conftest import rand_poly, rand_ratfn, rng_for
    from painleve_backlund.exprio import parse_expr as parse, print_expr as show
    from painleve_backlund.ratfn import DenominatorVanishes
    from painleve_backlund.systems import poisson_bracket

    N = 1000
    with criterion(9, f"kernel property suite, {N} seeded cases per law") as bad:
        # substitution is a ring homomorphism
        rng = rng_for(seed, "acc-subst")
        syms = (q_, t_)
        done = 0
        while done < N:
            f = rand_ratfn(rng, syms, max_terms=2)
            g = rand_ratfn(rng, syms, max_terms=2)
            bindings = {q_: rand_ratfn(rng, syms, max_terms=2)}
            if bindings[q_].is_zero():
                continue
            try:
                lhs = (f * g).substitute(bindings)
                fs, gs = f.substitute(bindings), g.substitute(bindings)
                lhs_add = (f + g).substitute(bindings)
            except DenominatorVanishes:
                continue
            done += 1
            if not ratfn_equal(lhs, fs * gs) or not ratfn_equal(lhs_add, fs + gs):
                bad.append(f"substitution case {done}")
                break

        # Jacobi identity
        rng = rng_for(seed, "acc-jacobi")
        for i in range(N):
            f = rand_ratfn(rng, (q_, p_), max_terms=2)
            g = rand_ratfn(rng, (q_, p_), max_terms=2)
            h = rand_ratfn(rng, (q_, p_), max_terms=2)
            total = (
                poisson_bracket(f, poisson_bracket(g, h))
                + poisson_bracket(g, poisson_bracket(h, f))
                + poisson_bracket(h, poisson_bracket(f, g))
            )
            if not total.is_zero() and not ratfn_equal(total, RatFn.const(0)):
                bad.append(f"jacobi case {i}")
                break

        # parse / print round trip
        rng = rng_for(seed, "acc-roundtrip")
        for i in range(N):
            f = rand_ratfn(rng, (q_, p_, t_), max_terms=3)
            if not ratfn_equal(parse(show(f)), f):
                bad.append(f"roundtrip case {i}")
                break

        # truncation coherence
        rng = rng_for(seed, "acc-trunc")
        for i in range(N):
            a = rand_poly(rng, (q_, eps), max_terms=3)
            b = rand_poly(rng, (q_, eps), max_terms=3)
            hi = EpsSeries.from_ratfn(RatFn(a), 8) * EpsSeries.from_ratfn(RatFn(b), 8)
            lo = EpsSeries.from_ratfn(RatFn(a), 4) * EpsSeries.from_ratfn(RatFn(b), 4)
            m = min(4, hi.trunc, lo.trunc)
            if not series_equal(hi.truncate(m), lo.truncate(m)):
                bad.append(f"truncation case {i}")
                break

        # binomial inverse pairs
        rng = rng_for(seed, "acc-binom")
        done = 0
        while done < N:
            body = rand_poly(rng, (A[0],), max_terms=2) * rand_poly(
                rng, (eps,), max_terms=1, allow_zero=False
            )
            x = EpsSeries.from_ratfn(RatFn(body) * parse("eps"), 6)
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
            done += 1
            product = binomial_series(x, c) * binomial_series(x, -c)
            if not series_equal(product, EpsSeries.const(1, product.trunc)):
                bad.append(f"binomial case {done}")
                break

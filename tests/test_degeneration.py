import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import painleve_backlund
from painleve_backlund.degeneration import (
    _ARROW_DATA,
    ARROW_KEYS,
    BranchDataError,
    UnsupportedArrow,
    _branch_exact,
    _build_arrow,
    arrow,
    arrow_data_labels,
    arrows,
    degenerate_hamiltonian,
    degenerate_hamiltonian_exact,
    hamiltonian_gauge_terms,
    hamiltonian_limit,
    hamiltonian_limit_residual,
    is_flow_trivial,
    lift_generator,
    lift_word,
    limit_action,
    target_table_action,
    transformed_system_factor,
    verify_arrow_data,
    verify_arrow_datum,
    verify_eps_action,
    verify_eps_actions,
    verify_subgroup_relation,
    verify_subgroup_relations,
)
from painleve_backlund.checks import arrow_check_ids, run_check
from painleve_backlund.exprio import parse_expr as P
from painleve_backlund.groups import fundamental_relations
from painleve_backlund.ratfn import RatFn, ratfn_equal
from painleve_backlund.series import (
    DivergesAtZero,
    EpsSeries,
    binomial_series,
    ratfn_eps_valuation,
    series_equal,
)
from painleve_backlund.symbols import A, P_, Q_, T_, eps

from conftest import rand_ratfn, rng_for

ALL = tuple(ARROW_KEYS)


def S(text, trunc):
    return EpsSeries.from_ratfn(P(text), trunc)


def catalog_verdicts(what, kind):
    """Catalog records of one check kind on all five arrows: (ids run, failures)."""
    ran, bad = [], []
    for J, K in ALL:
        for check_id in arrow_check_ids(arrow(J, K), what):
            if check_id.split("/")[2] == kind:
                rec = run_check(check_id)
                ran.append(check_id)
                if rec.outcome != "pass":
                    bad.append((check_id, rec.detail, rec.witness))
    return ran, bad


# ----------------------------------------------------------------------
# arrow data

def test_unsupported_arrows():
    with pytest.raises(UnsupportedArrow):
        arrow("VI", "IV")
    with pytest.raises(UnsupportedArrow) as err:
        arrow("II", "I")
    assert "converges to the identity as eps -> 0" in str(err.value)


def test_arrow_components():
    a = arrow("VI", "V")
    assert ratfn_equal(a.param_map[P("alpha0").symbols_used().pop()], P("1/eps"))
    b = arrow("IV", "II")
    q_sym = P("q").symbols_used().pop()
    assert ratfn_equal(b.var_forward[q_sym], P("(1 + 2*eps^2*Q)/(sqrt2*eps^3)"))
    c = arrow("V", "IV")
    assert c.subgroup_words["S0"] == ("s3", "s0", "s3")
    assert c.alt_words["S0"] == ("s0", "s3", "s0")


def test_arrow_structural_data():
    for J, K in ALL:
        results = verify_arrow_data(arrow(J, K))
        bad = [label for label, ok in results if not ok]
        assert not bad, (J, K, bad)


def test_subgroup_word_spellings_agree():
    from painleve_backlund.groups import apply_word, field_symbols
    from painleve_backlund.ratfn import RatFn

    for J, K in ALL:
        a = arrow(J, K)
        for name, alt in a.alt_words.items():
            word = a.subgroup_words[name]
            for s in field_symbols(J):
                assert ratfn_equal(
                    apply_word(J, word, RatFn.variable(s)),
                    apply_word(J, alt, RatFn.variable(s)),
                ), (a.name, name, s.name)


def test_III_to_II_stage_maps_are_each_symplectic():
    # the variable change composes two canonical maps:
    #   (q, p) from (x, y):  q = -tau/x, p = (x/tau)(alpha0 + x y)
    #   (x, y) from (Q, P):  x = 1 + 2 eps Q, y = P/(2 eps)
    from painleve_backlund.symbols import sym
    from painleve_backlund.systems import poisson_bracket

    x, y = sym("x"), sym("y")
    q_of = P("-tau/x")
    p_of = P("x*(alpha0 + x*y)/tau")
    assert ratfn_equal(poisson_bracket(p_of, q_of, p=y, q=x), P("1"))
    x_of = P("1 + 2*eps*Q")
    y_of = P("P/(2*eps)")
    assert ratfn_equal(poisson_bracket(y_of, x_of, p=P_, q=Q_), P("1"))


def test_truncation_orders():
    truncs = {(a.source, a.target): a.trunc for a in arrows()}
    assert truncs == {
        ("VI", "V"): 8, ("V", "IV"): 12, ("V", "III"): 8,
        ("IV", "II"): 12, ("III", "II"): 12,
    }


# ----------------------------------------------------------------------
# lifted parameter actions

def test_param_actions_match_target_tables():
    # one id per (subgroup generator, target parameter): 16 + 9 + 9 + 4 + 4
    ran, bad = catalog_verdicts("params", "param")
    assert len(ran) == 42
    assert not bad, bad


def test_lifted_param_examples():
    a = arrow("VI", "V")
    g0 = lift_generator(a, "S0")
    assert ratfn_equal(g0.param_actions[A[0]], P("-A0"))
    assert ratfn_equal(g0.param_actions[A[1]], P("A1 + A0"))
    assert ratfn_equal(g0.param_actions[A[2]], P("A2"))
    assert ratfn_equal(g0.param_actions[A[3]], P("A3 + A0"))
    b = arrow("IV", "II")
    h0 = lift_generator(b, "S0")
    assert ratfn_equal(h0.param_actions[A[0]], P("-A0"))
    assert ratfn_equal(h0.param_actions[A[1]], P("A1 + 2*A0"))


def test_lifted_param_full_tables():
    # complete published lists, frozen per arrow and generator
    tables = {
        ("VI", "V"): {
            "S0": ("-A0", "A1+A0", "A2", "A3+A0"),
            "S1": ("A0+A1", "-A1", "A2+A1", "A3"),
            "S2": ("A0", "A1+A2", "-A2", "A3+A2"),
            "S3": ("A0+A3", "A1", "A2+A3", "-A3"),
        },
        ("V", "IV"): {
            "S0": ("-A0", "A1+A0", "A2+A0"),
            "S1": ("A0+A1", "-A1", "A2+A1"),
            "S2": ("A0+A2", "A1+A2", "-A2"),
        },
        ("V", "III"): {
            "S0": ("-A0", "A1+A0", "A2"),
            "S1": ("A0+2*A1", "-A1", "A2+2*A1"),
            "S2": ("A0", "A1+A2", "-A2"),
        },
        ("IV", "II"): {
            "S0": ("-A0", "A1+2*A0"),
            "S1": ("A0+2*A1", "-A1"),
        },
        ("III", "II"): {
            "S0": ("-A0", "A1+2*A0"),
            "S1": ("A0+2*A1", "-A1"),
        },
    }
    for (J, K), rows in tables.items():
        arr = arrow(J, K)
        for name, entries in rows.items():
            lifted = lift_generator(arr, name)
            for i, text in enumerate(entries):
                assert ratfn_equal(lifted.param_actions[A[i]], P(text)), (
                    J, K, name, A[i].name,
                )


def test_eps_actions_exact_for_birational_arrows():
    # eps is rational in the source parameters, so the lifted eps-action can
    # be computed exactly and must agree with the declared one.
    # The A0 in the S0 denominator is forced: with A2 there instead,
    # S0(S0(eps)) would be eps/(1 - 2*A2*eps) rather than eps.
    expected = {
        ("VI", "V"): {
            "S0": "eps/(1 - A0*eps)", "S1": "eps",
            "S2": "eps/(1 + A2*eps)", "S3": "eps",
        },
        ("V", "III"): {
            "S0": "eps/(1 + A0*eps)", "S1": "-eps", "S2": "eps/(1 + A2*eps)",
        },
    }
    for (J, K), table in expected.items():
        a = arrow(J, K)
        for name, text in table.items():
            derived = lift_word(a, a.subgroup_words[name])
            assert series_equal(derived.eps_series, S(text, a.trunc)), (J, K, name)
            assert series_equal(a.eps_action[name], S(text, a.trunc)), (J, K, name)


def test_eps_branch_consistency_all_arrows():
    for J, K in ALL:
        results = verify_eps_actions(arrow(J, K))
        bad = [label for label, ok in results if not ok]
        assert not bad, (J, K, bad)


def test_declared_branches_match_binomial_construction():
    a = arrow("V", "IV")
    built = binomial_series(S("2*A0*eps^2", a.trunc), Fraction(-1, 2)).shift(1)
    assert series_equal(a.eps_action["S0"], built)
    b = arrow("IV", "II")
    built = binomial_series(S("-4*A0*eps^6", b.trunc), Fraction(-1, 6)).shift(1)
    assert series_equal(b.eps_action["S0"], built)
    c = arrow("III", "II")
    assert series_equal(c.eps_action["S0"], S("-eps", c.trunc))
    built = binomial_series(S("4*A1*eps^3", c.trunc), Fraction(-1, 3)).shift(1)
    assert series_equal(c.eps_action["S1"], built)


def test_square_of_branch_recovers_exact_action():
    # oracle by hand: S0(eps)^2 must be eps^2/(1 + 2*A0*eps^2) on V -> IV
    a = arrow("V", "IV")
    sq = a.eps_action["S0"] ** 2
    assert series_equal(sq, S("eps^2/(1 + 2*A0*eps^2)", a.trunc))


# ----------------------------------------------------------------------
# exact lifted variable actions (birational arrows)

def test_exact_var_actions_VI_to_V():
    # The S0 row is pinned by three independent facts checked here and
    # below: it satisfies the defining conjugation equation, preserves the
    # (Q, P) bracket, and squares to the identity.  Both (Q-1) factors are
    # essential; with Q*(Q-1)*P resp. A0 + Q*P in their place all three
    # checks fail.
    a = arrow("VI", "V")
    expected = {
        "S0": {
            T_: "T*(1 - A0*eps)",
            Q_: "Q + A0*(1 - T*(Q-1)*eps)/(P + T - T*(Q-1)*P*eps)",
            P_: "P*(1 + A0*T*eps/(P + T - T*(A0 + (Q-1)*P)*eps))",
        },
        "S1": {T_: "T", Q_: "Q", P_: "P - A1/Q"},
        "S2": {T_: "T*(1 + A2*eps)", Q_: "Q + A2/P", P_: "P"},
        "S3": {T_: "T", Q_: "Q", P_: "P - A3/(Q-1)"},
    }
    for name, table in expected.items():
        lifted = lift_generator(a, name)
        for X, text in table.items():
            assert ratfn_equal(lifted.exact_var[X], P(text)), (name, X.name)


def test_VI_to_V_S0_row_satisfies_defining_equation():
    from painleve_backlund.factored import substitute_reduced
    from painleve_backlund.groups import _word_on_symbol
    from painleve_backlund.symbols import p_

    a = arrow("VI", "V")
    g = lift_generator(a, "S0")
    images = {Q_: g.exact_var[Q_], T_: g.exact_var[T_], P_: g.exact_var[P_],
              eps: P("eps/(1 - A0*eps)")}
    images.update(g.param_actions)
    lhs = substitute_reduced(a.var_forward[p_], images)
    rhs = a.pushforward(_word_on_symbol("VI", a.subgroup_words["S0"], p_))
    assert ratfn_equal(lhs, rhs)


def test_lifted_actions_stay_symplectic_VI_to_V():
    from painleve_backlund.systems import poisson_bracket

    a = arrow("VI", "V")
    for name in a.subgroup_words:
        lifted = lift_generator(a, name)
        bracket = poisson_bracket(
            lifted.exact_var[P_], lifted.exact_var[Q_], p=P_, q=Q_
        )
        assert ratfn_equal(bracket, P("1")), name


def test_exact_var_actions_V_to_III():
    a = arrow("V", "III")
    expected = {
        "S0": {T_: "T*(1 + A0*eps)", Q_: "Q + A0/P", P_: "P"},
        "S1": {T_: "-T", Q_: "Q"},
        "S2": {T_: "T*(1 + A2*eps)", Q_: "Q + A2/(P-1)", P_: "P"},
    }
    for name, table in expected.items():
        lifted = lift_generator(a, name)
        for X, text in table.items():
            assert ratfn_equal(lifted.exact_var[X], P(text)), (name, X.name)


def test_V_to_III_S1_P_remainder_has_positive_valuation():
    a = arrow("V", "III")
    lifted = lift_generator(a, "S1")
    remainder = lifted.exact_var[P_] - P("P - 2*A1/Q + T/Q^2")
    assert ratfn_eps_valuation(remainder) >= 1


def test_series_pipeline_matches_branch_algebra_V_to_IV():
    # S0(T) = (T - A0 eps) (1 + 2 A0 eps^2)^(-1/2) and its S2 mirror.
    a = arrow("V", "IV")
    unit_plus = binomial_series(S("2*A0*eps^2", a.trunc), Fraction(-1, 2))
    s0_T = lift_generator(a, "S0").action_series(T_, 8)
    assert series_equal(s0_T, (S("T - A0*eps", 8) * unit_plus.truncate(8)))
    unit_minus = binomial_series(S("-2*A2*eps^2", a.trunc), Fraction(-1, 2))
    s2_T = lift_generator(a, "S2").action_series(T_, 8)
    assert series_equal(s2_T, (S("T + A2*eps", 8) * unit_minus.truncate(8)))
    # S1 fixes eps, so its Q and P actions are exact
    assert series_equal(lift_generator(a, "S1").action_series(Q_, 6), S("Q", 6))
    assert series_equal(
        lift_generator(a, "S1").action_series(P_, 6), S("P - A1/Q", 6)
    )
    # S2 multiplies eps by the branch unit, so S2(eps) S2(Q) = eps (Q + A2/P)
    # exactly and the Q and P actions each carry one branch factor; both
    # converge to the table entries Q + A2/P and P.
    s2 = lift_generator(a, "S2")
    assert series_equal(
        s2.action_series(Q_, 6),
        S("Q + A2/P", 8) * binomial_series(S("-2*A2*eps^2", 8), Fraction(1, 2)).truncate(6),
    )
    assert series_equal(
        s2.action_series(P_, 6),
        S("P", 8) * unit_minus.truncate(6),
    )
    assert ratfn_equal(s2.action_limit(Q_), P("Q + A2/P"))
    assert ratfn_equal(s2.action_limit(P_), P("P"))


# ----------------------------------------------------------------------
# convergence: eps -> 0 limits

def test_all_limits_match_target_tables():
    # T, Q and P of each of the 14 subgroup generators
    ran, bad = catalog_verdicts("limits", "limit")
    assert len(ran) == 42
    assert not bad, bad


def test_limit_examples_frozen():
    a = arrow("V", "IV")
    assert ratfn_equal(limit_action(a, "S0", Q_), P("Q + 2*A0/(2*P - Q - 2*T)"))
    assert ratfn_equal(limit_action(a, "S0", P_), P("P + A0/(2*P - Q - 2*T)"))
    b = arrow("IV", "II")
    assert ratfn_equal(
        limit_action(b, "S0", P_),
        P("P + 4*A0*Q/(P - 2*Q^2 - T) + 2*A0^2/(P - 2*Q^2 - T)^2"),
    )
    assert ratfn_equal(limit_action(b, "S0", T_), P("T"))
    c = arrow("III", "II")
    assert ratfn_equal(limit_action(c, "S1", Q_), P("Q + A1/P"))
    assert ratfn_equal(
        limit_action(c, "S0", Q_), P("Q + A0/(P - 2*Q^2 - T)")
    )
    d = arrow("VI", "V")
    assert ratfn_equal(limit_action(d, "S0", Q_), P("Q + A0/(P + T)"))


def test_target_table_action_relabeling():
    a = arrow("VI", "V")
    assert ratfn_equal(target_table_action(a, "S0", Q_), P("Q + A0/(P + T)"))
    assert ratfn_equal(target_table_action(a, "S0", A[0]), P("-A0"))


def test_relabel_is_the_renaming_substitution():
    # _relabel_to_target moves exponent fields instead of substituting; it
    # must give the substitution's canonical num and den on every entry
    from painleve_backlund.degeneration import _relabel_to_target
    from painleve_backlund.groups import generators
    from painleve_backlund.symbols import alpha, p_, q_, t_
    from painleve_backlund.systems import system

    for K in sorted({K for _, K in ALL}):
        sysK = system(K)
        n = len(sysK.params)
        renames = {**{alpha[i]: RatFn.variable(A[i]) for i in range(n)},
                   t_: RatFn.variable(T_), q_: RatFn.variable(Q_), p_: RatFn.variable(P_)}
        entries = [f for g in generators(K) for f in g.action.values()]
        for f in entries + [sysK.constraint_expr(), sysK.hamiltonian]:
            got, want = _relabel_to_target(f, n), f.substitute(renames)
            assert (got.num, got.den) == (want.num, want.den), (K, f)
    with pytest.raises(ValueError, match="uses"):
        P("alpha0*q + A0").num.rename({alpha[0]: A[0]})


def test_negative_control_raw_s3_diverges():
    a = arrow("VI", "V")
    raw = lift_word(a, ("s3",))
    assert ratfn_equal(raw.param_actions[A[0]], P("A2 + 1/eps"))
    with pytest.raises(DivergesAtZero) as err:
        raw.action_limit(A[0])
    assert err.value.order == -1


def test_lift_word_needs_branch_on_non_birational_arrows():
    a = arrow("V", "IV")
    with pytest.raises(ValueError):
        lift_word(a, ("s3",))


# ----------------------------------------------------------------------
# Hamiltonians

def test_hamiltonian_checks_all_arrows():
    # gauge terms and limit on every arrow, the H_V + Q*P identity on V -> III
    ran, bad = catalog_verdicts("hamiltonian", "ham")
    assert len(ran) == 11
    assert "degen/V-III/ham/shift-identity" in ran
    assert not bad, bad


def test_hamiltonian_limit_residuals():
    # VI -> V leaves a parameter constant; the other arrows none at all
    res = hamiltonian_limit_residual(arrow("VI", "V"))
    assert ratfn_equal(res, P("-A2*(A1 + A2 + A3)"))
    for J, K in ALL[1:]:
        assert hamiltonian_limit_residual(arrow(J, K)).is_zero(), (J, K)


def test_hamiltonian_gauge_terms():
    gauge = hamiltonian_gauge_terms(arrow("IV", "II"))
    assert set(gauge) == {-2}
    assert ratfn_equal(gauge[-2], P("-A1/2"))
    assert is_flow_trivial(gauge[-2])
    assert hamiltonian_gauge_terms(arrow("VI", "V")) == {}


def test_V_to_III_shift_identity():
    a = arrow("V", "III")
    from painleve_backlund.systems import system

    lhs = degenerate_hamiltonian_exact(a)
    rhs = a.pushforward(system("V").hamiltonian) + P("Q*P")
    assert ratfn_equal(lhs, rhs)


def test_degenerate_hamiltonian_series_has_arrow_truncation():
    a = arrow("V", "III")
    series = degenerate_hamiltonian(a)
    assert series.trunc == a.trunc
    assert ratfn_equal(series.coeff(0), hamiltonian_limit(a))


# ----------------------------------------------------------------------
# subgroup relations and transform factors

def test_subgroup_relations_all_arrows():
    for J, K in ALL:
        for rel_label, ok_a, ok_b in verify_subgroup_relations(arrow(J, K)):
            assert ok_a, (J, K, rel_label, "source-field check")
            assert ok_b, (J, K, rel_label, "lifted parameter check")


def test_per_id_functions_agree_with_the_list_apis():
    for J, K in ALL:
        a = arrow(J, K)
        data = verify_arrow_data(a)
        assert arrow_data_labels(a) == [label for label, _ in data], (J, K)
        assert [verify_arrow_datum(a, i) for i in range(len(data))] == data, (J, K)
        per_name = [r for name in a.subgroup_words for r in verify_eps_action(a, name)]
        assert per_name == verify_eps_actions(a), (J, K)
        relations = verify_subgroup_relations(a)
        per_side = [
            (rel, verify_subgroup_relation(a, rel, "a"), verify_subgroup_relation(a, rel, "b"))
            for rel, _, _ in relations
        ]
        assert per_side == relations, (J, K)


DECLARED = dict(_ARROW_DATA)


def fresh_arrow(monkeypatch, key, **branches):
    """key's arrow built afresh, past the arrow cache, with the declared eps
    branches of the named generators replaced.  The arrow keeps the branches
    it was built from, so the table is restored at the end of the test."""
    data = DECLARED[key]
    branches = {**data["eps_action"], **branches}
    monkeypatch.setitem(_ARROW_DATA, key, dict(data, eps_action=branches))
    return _build_arrow.__wrapped__(key)


def test_each_letters_exact_branch_data_is_built_once(monkeypatch):
    # side (b) reads each (arrow, letter)'s exact branch data from one memo
    for key in ALL:
        a = fresh_arrow(monkeypatch, key)
        relations = fundamental_relations(a.target)
        before = _branch_exact.cache_info()
        assert all(verify_subgroup_relation(a, rel, "b") for rel, _ in relations), key
        after = _branch_exact.cache_info()
        letters = sum(len(word) for _, word in relations)
        assert after.misses - before.misses == len(a.subgroup_words), key
        assert after.hits - before.hits == letters - len(a.subgroup_words), key
    # (S^k in u = eps^k, written in eps; order-1 coefficient of S)
    for (J, K), name, u_image, lead in (
        (("VI", "V"), "S0", "eps/(1 - A0*eps)", "1"),
        (("V", "IV"), "S0", "eps/(1 + 2*A0*eps)", "1"),
        (("V", "III"), "S1", "-eps", "-1"),
        (("IV", "II"), "S1", "eps/(1 + 4*A1*eps)", "1"),
        (("III", "II"), "S0", "-eps", "-1"),
    ):
        got = _branch_exact(arrow(J, K), name)
        assert ratfn_equal(got[0], P(u_image)) and ratfn_equal(got[1], P(lead)), (J, K, name)


def test_side_b_catches_a_wrong_branch_sign(monkeypatch):
    # S1 = -eps has the right square, so every eps/* id passes and the
    # u-state closes; only the product of the leads, (-1)^3, fails the two
    # relations with three S1 letters
    a = fresh_arrow(monkeypatch, ("V", "IV"), S1="-eps")
    assert all(ok for name in a.subgroup_words for _, ok in verify_eps_action(a, name))
    u_image, lead = _branch_exact(a, "S1")
    assert ratfn_equal(u_image, P("eps")) and ratfn_equal(lead, P("-1"))
    fails = [rel for rel, _ in fundamental_relations("IV")
             if not verify_subgroup_relation(a, rel, "b")]
    assert fails == ["(s0 s1)^3", "(s1 s2)^3"]


def test_side_b_catches_a_wrong_branch_power(monkeypatch):
    a = fresh_arrow(monkeypatch, ("V", "IV"), S0=("2*A0*eps^2", "1/2"))
    assert verify_eps_action(a, "S0") == [("S0(eps)^2", False)]
    fails = [rel for rel, _ in fundamental_relations("IV")
             if not verify_subgroup_relation(a, rel, "b")]
    assert fails == ["s0^2", "(s0 s1)^3", "(s2 s0)^3"]


def test_branch_data_is_validated_when_the_arrow_is_built(monkeypatch):
    # k*power must be an integer: 2 * (-1/3) is not
    with pytest.raises(BranchDataError, match=r"V->IV S0: 2 \* power -1/3 is not an integer"):
        fresh_arrow(monkeypatch, ("V", "IV"), S0=("2*A0*eps^2", "-1/3"))
    # the order-1 coefficient must be nonzero, and nothing may lie below it
    for image in ("eps^2", "0", "1 + eps"):
        with pytest.raises(BranchDataError, match=r"VI->V S1: the branch is not c\*eps"):
            fresh_arrow(monkeypatch, ("VI", "V"), S1=image)
    # side (b) writes eps^k as u, so the lifted A actions must be free of eps
    data = DECLARED[("VI", "V")]
    inverse = {**data["param_inverse"], "A1": "alpha4*alpha0"}
    monkeypatch.setitem(_ARROW_DATA, ("VI", "V"), dict(data, param_inverse=inverse))
    a = _build_arrow.__wrapped__(("VI", "V"))
    with pytest.raises(BranchDataError, match=r"VI->V S0: the lifted parameter actions"):
        verify_subgroup_relation(a, "s0^2", "b")
    # a k-th power that is not rational in eps^k is refused when the arrow is built
    with pytest.raises(BranchDataError, match=r"V->IV S1: S\^2 is not rational in eps\^2"):
        fresh_arrow(monkeypatch, ("V", "IV"), S1="eps/(1 + A1*eps)")


def test_an_arrow_keeps_the_branches_it_was_built_from(monkeypatch):
    # side (b) composes the patched arrow's own branch data, not whatever
    # the table holds when it first runs
    patched = fresh_arrow(monkeypatch, ("V", "IV"), S0=("2*A0*eps^2", "1/2"))
    monkeypatch.setitem(_ARROW_DATA, ("V", "IV"), DECLARED[("V", "IV")])
    declared = _build_arrow.__wrapped__(("V", "IV"))
    assert not verify_subgroup_relation(patched, "s0^2", "b")
    assert verify_subgroup_relation(declared, "s0^2", "b")


def test_eps_ids_compare_the_branch_exactly(monkeypatch):
    # eps^12 lies beyond VI -> V's truncation order 8, so only an exact
    # comparison sees that this S1 is not the word's image of eps
    a = fresh_arrow(monkeypatch, ("VI", "V"), S1="eps + eps^12")
    assert a.trunc == 8
    assert verify_eps_action(a, "S1") == [("S1(eps)^1", False)]
    assert verify_eps_action(a, "S0") == [("S0(eps)^1", True)]


def test_limit_below_the_known_terms_is_refused():
    # a series known only below order 0 has no limit to read
    with pytest.raises(ValueError, match="unknown at truncation -1"):
        EpsSeries({}, -1).limit_eps0()
    # a negative order that is known still diverges
    with pytest.raises(DivergesAtZero):
        EpsSeries({-3: P("T")}, -1).limit_eps0()
    assert ratfn_equal(EpsSeries({0: P("T")}, 0).limit_eps0(), P("T"))


BIRATIONAL_AND_V_IV = (("VI", "V"), ("V", "III"), ("V", "IV"))


def test_param_image_is_the_memoised_substitution(seed):
    rng = rng_for(seed, "param-image")
    for J, K in BIRATIONAL_AND_V_IV:
        a = arrow(J, K)
        for name in a.subgroup_words:
            lifted = lift_generator(a, name)
            syms = tuple(lifted.param_actions) + (eps,)
            for f in [RatFn.variable(Ai) for Ai in lifted.param_actions] + [
                rand_ratfn(rng, syms) for _ in range(10)
            ]:
                image = lifted.param_image(f)
                assert image == f.substitute(lifted.param_actions), (J, K, name, f)
                assert lifted.param_image(f) is image


def untruncated_side_b_eps(arr, rel):
    """Side (b)'s eps-series as composed with untruncated powers S^n =
    S^(n-1)*S and every coefficient substituted afresh: the reference."""
    state = EpsSeries.eps_power(1, arr.trunc)
    for s_name in reversed(dict(fundamental_relations(arr.target))[rel]):
        lifted = lift_generator(arr, "S" + s_name[1:])
        S, powers = lifted.eps_series, {}

        def power(n):
            if n not in powers:
                powers[n] = S**n if n < 2 else power(n - 1) * S
            return powers[n]

        out = EpsSeries.zero(state.trunc)
        for n, c in state.coeffs.items():
            out = out + power(n).scale(c.substitute(lifted.param_actions))
        state = out
    return state


def test_exact_side_b_matches_the_untruncated_composition(monkeypatch):
    # exact side (b) passes exactly when the series composition is eps to
    # order T, on the five arrows and on two wrong branches of V -> IV
    cases = [(key, {}) for key in ALL] + [
        (("V", "IV"), {"S1": "-eps"}),
        (("V", "IV"), {"S0": ("2*A0*eps^2", "1/2")}),
    ]
    verdicts = []
    for key, branches in cases:
        a = fresh_arrow(monkeypatch, key, **branches) if branches else arrow(*key)
        for rel, _ in fundamental_relations(a.target):
            ref = untruncated_side_b_eps(a, rel)
            assert ref.trunc == a.trunc, (a.name, rel)
            closes = series_equal(ref, EpsSeries.eps_power(1, a.trunc))
            assert closes == verify_subgroup_relation(a, rel, "b"), (a.name, rel)
            verdicts.append(closes)
    assert verdicts.count(False) == 5


RELATION_WORK_SCRIPT = """
import json
import sys
from painleve_backlund import checks, degeneration as dg, groups
from painleve_backlund.poly import Poly

mul = Poly.__mul__
calls = [0]

def spy(a, b):
    calls[0] += 1
    return mul(a, b)

def run(J, K, kind, count_build):
    # empty caches in every loaded package module, and parsed group tables;
    # the arrow's own build is counted only when count_build is set
    for name, module in list(sys.modules.items()):
        if name.startswith("painleve_backlund"):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    groups.generators(J), groups.generators(K)
    calls[0] = 0
    Poly.__mul__ = spy if count_build else mul
    arr = dg.arrow(J, K)
    ids = [i for i in checks.arrow_check_ids(arr) if f"/{kind}/" in i]
    Poly.__mul__ = spy
    outcomes = {checks.run_check(i).outcome for i in ids}
    Poly.__mul__ = mul
    return [len(ids), calls[0], sorted(outcomes)]

counts = {}
for J, K in (("VI", "V"), ("V", "III"), ("V", "IV")):
    counts[f"relation {J}-{K}"] = run(J, K, "relation", False)
for J, K in dg.ARROW_KEYS:
    counts[f"eps {J}-{K}"] = run(J, K, "eps", True)
for kind in ("param", "limit"):
    for J, K in dg.ARROW_KEYS:
        counts[f"{kind} {J}-{K}"] = run(J, K, kind, False)
for J, K in reversed(dg.ARROW_KEYS):
    counts[f"reversed param {J}-{K}"] = run(J, K, "param", False)
print(json.dumps(counts))
"""


def test_relation_checks_stay_within_their_work_budget():
    # Poly products over every relation/* id of an arrow, from empty caches
    # and parsed group tables: a deterministic work count (1,610, 968 and
    # 997, with side (a)'s involution checks).  Composing side (b)'s eps-series to order T instead of the exact
    # branch data costs 3,806, 2,391 and 2,040 products; to order T+n+1,
    # with each coefficient substituted afresh, 6,819, 4,720 and 4,011.
    # The eps/* ids are counted with the arrow's build, which also builds
    # the exact branch pairs they compare: 328, 360, 238, 299 and 358
    # products, against 486, 661, 370, 399 and 830 when they compared
    # S(eps)^k with the word's image as series truncated at order T.  The
    # param/* and limit/* ids run after those, without the arrow's build:
    # 865, 283, 137, 287 and 497 products for param, and 891, 882, 155, 818
    # and 797 for limit, in ARROW_KEYS order.  Every run starts from empty
    # caches in all package modules, so a count does not depend on the runs
    # before it: param in reverse order counts the same.
    src = Path(painleve_backlund.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", RELATION_WORK_SCRIPT],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout.splitlines()[-1])
    budgets = {
        "relation VI-V": (20, 1_700), "relation V-III": (10, 1_000),
        "relation V-IV": (12, 1_050),
        "eps VI-V": (4, 400), "eps V-IV": (3, 450), "eps V-III": (3, 300),
        "eps IV-II": (2, 350), "eps III-II": (2, 450),
        "param VI-V": (16, 925), "param V-IV": (9, 295), "param V-III": (9, 145),
        "param IV-II": (4, 310), "param III-II": (4, 540),
        "limit VI-V": (12, 955), "limit V-IV": (9, 955), "limit V-III": (9, 165),
        "limit IV-II": (6, 870), "limit III-II": (6, 825),
    }
    for key, (n_ids, budget) in budgets.items():
        ids, calls, outcomes = counts[key]
        assert ids == n_ids and outcomes == ["pass"], (key, counts[key])
        assert calls <= budget, (key, calls, budget)
    for J, K in ARROW_KEYS:
        assert counts[f"reversed param {J}-{K}"] == counts[f"param {J}-{K}"], (J, K)


def test_transformed_system_factor():
    vi_v = arrow("VI", "V")
    for name in vi_v.subgroup_words:
        assert series_equal(
            transformed_system_factor(vi_v, name),
            EpsSeries.const(1, vi_v.trunc),
        )
    v_iv = arrow("V", "IV")
    s1 = transformed_system_factor(v_iv, "S1")
    assert series_equal(s1, EpsSeries.const(1, s1.trunc))
    s0 = transformed_system_factor(v_iv, "S0")
    expected = binomial_series(S("2*A0*eps^2", s0.trunc), Fraction(-1, 2))
    assert series_equal(s0, expected.truncate(min(s0.trunc, expected.trunc)))
    assert ratfn_equal(s0.coeff(0), P("1"))
    assert ratfn_equal(s0.coeff(2), P("-A0"))


def test_transformed_system_factor_remaining_arrows():
    # every correction factor is 1 + O(eps): the transformed system keeps the
    # target Hamiltonian form in the limit
    for J, K in (("IV", "II"), ("III", "II")):
        a = arrow(J, K)
        for name in a.subgroup_words:
            factor = transformed_system_factor(a, name)
            assert ratfn_equal(factor.coeff(0), P("1")), (J, K, name)
            assert all(n >= 0 for n in factor.coeffs), (J, K, name)
    # hand checks: with r = sqrt2/eps the factor is (1 -+ 4 A eps^6)^(1/6),
    # whose leading correction is -+(2/3) A eps^6
    iv_ii = arrow("IV", "II")
    s0 = transformed_system_factor(iv_ii, "S0")
    assert ratfn_equal(s0.coeff(6), P("-2/3*A0"))
    s1 = transformed_system_factor(iv_ii, "S1")
    assert ratfn_equal(s1.coeff(6), P("2/3*A1"))
    # S0 of III -> II fixes both eps^2 and T, so its factor is exactly 1
    s0_iii = transformed_system_factor(arrow("III", "II"), "S0")
    assert series_equal(s0_iii, EpsSeries.const(1, s0_iii.trunc))



BUILDS_SCRIPT = """
import collections, contextlib, io, json
from painleve_backlund import cli, degeneration as dg

lifts = collections.Counter()
lift_word = dg.lift_word

def spy(arr, word, name="", **kwargs):
    lifts[f"{arr.name}@{arr.trunc} {name}"] += 1
    return lift_word(arr, word, name, **kwargs)

dg.lift_word = spy
for argv in (["IV", "II"], ["V", "III"]):
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["degenerate", *argv, "--what", "all"])
caches = {
    f.__name__: [f.cache_info().misses, f.cache_info().hits]
    for f in (dg.lift_generator, dg._arrow_data_items, dg.degenerate_hamiltonian,
              dg.degenerate_hamiltonian_exact)
}
print(json.dumps([lifts, caches]))
"""


def test_per_arrow_data_is_built_once_per_process():
    # Every check id asks its arrow again for the lifts, the arrow-data items
    # and the Hamiltonian expansion; each is built once per arrow.
    src = Path(painleve_backlund.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", BUILDS_SCRIPT],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lifts, caches = json.loads(proc.stdout.splitlines()[-1])
    # IV -> II lifts S0, S1; V -> III lifts S0, S1, S2
    assert sorted(lifts) == [
        "IV->II@12 S0", "IV->II@12 S1", "V->III@8 S0", "V->III@8 S1", "V->III@8 S2",
    ]
    assert set(lifts.values()) == {1}
    assert caches["lift_generator"][0] == len(lifts)
    for name in ("_arrow_data_items", "degenerate_hamiltonian", "degenerate_hamiltonian_exact"):
        misses, hits = caches[name]
        assert misses == 2 and hits > 0, (name, misses, hits)


PRODUCTS_SCRIPT = """
import json
from painleve_backlund.degeneration import arrow, lift_generator
from painleve_backlund.poly import Poly

sizes = []
mul = Poly.__mul__

def spy(a, b):
    out = mul(a, b)
    sizes.append((len(a.terms) * len(b.terms), len(out.terms)))
    return out

Poly.__mul__ = spy
lift_generator(arrow("III", "II"), "S0")
print(json.dumps([sum(n for n, _ in sizes), max(m for _, m in sizes)]))
"""


def test_III_to_II_S0_lift_cancels_before_expanding():
    # The P slice 2*q*(p*q + alpha0) takes the pushed q and p; p's
    # denominator divides q's numerator squared, so cancelled per term the
    # lift never expands a product over both denominators (6,060 terms and
    # 275,826 coefficient products when expanded first).  A fresh process
    # starts with every cache empty.
    src = Path(painleve_backlund.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", PRODUCTS_SCRIPT],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    products, largest = json.loads(proc.stdout.splitlines()[-1])
    assert largest <= 1352, largest
    assert products <= 60_000, products

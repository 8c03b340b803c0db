"""Differential tests of the kernel, substitution, eps-series and limits
against sympy.

sympy is an independent oracle here and nowhere else: the package never
imports it.  Every random case comes from the seeded generators in
conftest, with half of the coefficients carrying a sqrt2 part.
"""

import pytest

from painleve_backlund.degeneration import (
    arrow,
    arrows,
    degenerate_hamiltonian_exact,
    lift_generator,
    limit_action,
    target_table_action,
)
from painleve_backlund.ratfn import DenominatorVanishes, RatFn, ratfn_equal
from painleve_backlund.series import DivergesAtZero, EpsSeries, ratfn_limit_eps0
from painleve_backlund.symbols import MASK, P_, Q_, REGISTRY, SHIFTS, T_, eps, p_, q_, t_

from conftest import rand_poly, rng_for

sympy = pytest.importorskip("sympy")

SYMS = (q_, p_, t_)
GENS = sympy.symbols(" ".join(s.name for s in SYMS))
SQRT2 = sympy.sqrt(2)
N = 40


def to_sympy(poly):
    total = sympy.Integer(0)
    for key, a, b, d in poly.int_coefficients():
        term = sympy.Rational(a, d) + SQRT2 * sympy.Rational(b, d)
        for s in REGISTRY:
            e = (key >> SHIFTS[s.index]) & MASK
            if e:
                term *= sympy.Symbol(s.name) ** e
        total += term
    return total


def ratfn_to_sympy(f):
    return to_sympy(f.num) / to_sympy(f.den)


def same_value(expr, f):
    """expr (sympy) and f (RatFn) are the same rational function."""
    return sympy.cancel(sympy.together(expr - ratfn_to_sympy(f)), extension=True) == 0


def has_sqrt2(poly):
    return any(b for _, _, b, _ in poly.int_coefficients())


def sqrt2_poly(rng, **kw):
    return rand_poly(rng, SYMS, sqrt2_prob=0.5, **kw)


def sympy_div(num, den):
    gens = dict(gens=GENS, extension=SQRT2)
    return sympy.Poly(to_sympy(num), **gens).div(sympy.Poly(to_sympy(den), **gens))


def test_mul_matches_sympy_expansion(seed):
    rng = rng_for(seed, "oracle-mul")
    surds = 0
    for _ in range(N):
        a = sqrt2_poly(rng, max_terms=4)
        b = sqrt2_poly(rng, max_terms=4)
        surds += has_sqrt2(a) or has_sqrt2(b)
        assert sympy.expand(to_sympy(a) * to_sympy(b) - to_sympy(a * b)) == 0, (a, b)
    assert surds > N // 4


def test_try_div_matches_sympy(seed):
    rng = rng_for(seed, "oracle-div")
    outcomes = set()
    for _ in range(N):
        a = sqrt2_poly(rng, max_terms=3, allow_zero=False)
        b = sqrt2_poly(rng, max_terms=3, allow_zero=False)
        if b.is_const():
            continue
        # a divisible product, then the same product with a term added
        for num in (a * b, a * b + sqrt2_poly(rng, max_terms=2, allow_zero=False)):
            ours = num.try_div(b)
            quo, rem = sympy_div(num, b)
            outcomes.add(ours is None)
            assert (ours is None) == (not rem.is_zero), (num, b)
            if ours is not None:
                assert sympy.expand(to_sympy(ours) - quo.as_expr()) == 0, (num, b)
    assert outcomes == {True, False}


def test_ratfn_equal_matches_sympy_cancel(seed):
    rng = rng_for(seed, "oracle-equal")
    verdicts = set()
    for _ in range(N):
        f = RatFn(sqrt2_poly(rng), sqrt2_poly(rng, max_terms=2, allow_zero=False))
        h = sqrt2_poly(rng, max_terms=2, allow_zero=False)
        # the same value with a common factor left uncancelled, and another value
        for g in (
            RatFn(f.num * h, f.den * h),
            RatFn(sqrt2_poly(rng), sqrt2_poly(rng, max_terms=2, allow_zero=False)),
        ):
            diff = to_sympy(f.num) / to_sympy(f.den) - to_sympy(g.num) / to_sympy(g.den)
            expected = sympy.cancel(diff, extension=True) == 0
            verdicts.add(expected)
            assert ratfn_equal(f, g) == expected, (f, g)
    assert verdicts == {True, False}


def series_matches_sympy(f, trunc):
    """EpsSeries.from_ratfn(f, trunc) equals sympy.series, order by order."""
    e = sympy.Symbol(eps.name)
    ours = EpsSeries.from_ratfn(f, trunc)
    # eps^k f is regular at eps = 0, so sympy gives a Taylor polynomial
    k = f.den.max_exponent(eps)
    expansion = sympy.series(to_sympy(f.num) * e**k / to_sympy(f.den), e, 0, trunc + k + 1)
    collected = sympy.collect(sympy.expand(expansion.removeO()), e, evaluate=False)
    theirs = {(sympy.degree(key, e) if key.has(e) else 0) - k: c for key, c in collected.items()}
    for n in set(ours.coeffs) | set(theirs):
        got = ours.coeffs.get(n)
        got = to_sympy(got.num) / to_sympy(got.den) if got is not None else 0
        if sympy.cancel(sympy.together(got - theirs.get(n, 0)), extension=True) != 0:
            return False
    return True


def test_from_ratfn_matches_sympy_series(seed):
    rng = rng_for(seed, "oracle-series")
    symbols = (eps, q_, t_)
    orders = set()
    for _ in range(N // 2):
        f = RatFn(
            rand_poly(rng, symbols, sqrt2_prob=0.5),
            rand_poly(rng, symbols, max_terms=3, allow_zero=False, sqrt2_prob=0.5),
        )
        trunc = rng.randint(1, 4)
        assert series_matches_sympy(f, trunc), (f, trunc)
        orders |= set(EpsSeries.from_ratfn(f, trunc).coeffs)
    assert min(orders) < 0 < max(orders)


def test_degenerate_hamiltonians_match_sympy_series():
    # the two series numeric degeneration compiles at V->III and IV->II
    for key in (("V", "III"), ("IV", "II")):
        arr = arrow(*key)
        assert series_matches_sympy(degenerate_hamiltonian_exact(arr), arr.trunc), key


def test_substitute_matches_sympy_subs(seed):
    # both sides of the engine's rule: polynomial bindings (no reduction
    # beyond identical atoms) and rational ones (peeling and trial division)
    rng = rng_for(seed, "oracle-subst")
    seen = set()
    for _ in range(N // 2):
        f = RatFn(sqrt2_poly(rng), sqrt2_poly(rng, max_terms=2, allow_zero=False))
        polynomial = rng.random() < 0.5
        bindings = {
            s: RatFn(sqrt2_poly(rng, allow_zero=False))
            if polynomial
            else RatFn(sqrt2_poly(rng), sqrt2_poly(rng, max_terms=2, allow_zero=False))
            for s in (q_, p_)
        }
        images = {sympy.Symbol(s.name): ratfn_to_sympy(b) for s, b in bindings.items()}
        num = sympy.together(to_sympy(f.num).subs(images, simultaneous=True))
        den = sympy.together(to_sympy(f.den).subs(images, simultaneous=True))
        try:
            ours = f.substitute(bindings)
        except DenominatorVanishes:
            assert sympy.cancel(den, extension=True) == 0, (f, bindings)
            continue
        seen.add(polynomial)
        assert same_value(num / den, ours), (f, bindings)
    assert seen == {True, False}


def test_limit_eps0_matches_sympy_limit(seed):
    rng = rng_for(seed, "oracle-limit")
    e = sympy.Symbol(eps.name)
    kinds = set()
    for _ in range(N // 2):
        f = RatFn(
            rand_poly(rng, (eps, q_), sqrt2_prob=0.5, allow_zero=False),
            rand_poly(rng, (eps, q_), max_terms=3, allow_zero=False, sqrt2_prob=0.5),
        )
        expr = ratfn_to_sympy(f)
        try:
            ours = ratfn_limit_eps0(f)
        except DivergesAtZero as exc:
            # eps^-order * f has the finite nonzero limit exc.coeff
            kinds.add("diverges")
            assert exc.order < 0 and not exc.coeff.is_zero()
            assert same_value(sympy.limit(expr * e ** (-exc.order), e, 0), exc.coeff), f
            continue
        kinds.add("zero" if ours.is_zero() else "finite")
        assert same_value(sympy.limit(expr, e, 0), ours), f
    assert kinds == {"diverges", "zero", "finite"}


@pytest.mark.parametrize("key", [("VI", "V"), ("V", "III")])
def test_exact_lift_limits_match_sympy_limit(key):
    # every limit/* check id of the exact-lift arrows, with sympy taking the
    # eps -> 0 limit of the exact lifted action
    arr = arrow(*key)
    e = sympy.Symbol(eps.name)
    for name in arr.subgroup_words:
        exact = lift_generator(arr, name).exact_var
        for X in (T_, Q_, P_):
            theirs = sympy.limit(ratfn_to_sympy(exact[X]), e, 0)
            assert same_value(theirs, target_table_action(arr, name, X)), (key, name, X)


def test_printed_limits_and_table_entry_are_in_lowest_terms():
    # Each of the 42 limit/* check ids prints the limit and the table entry,
    # and none of these forms may carry a common factor.  The V -> IV and III -> II
    # limits of S0 on Q are substituted as one quotient, W_II's s0(p) parses
    # over D^2 (D divides D^2), and limit_action divides out the target
    # generator's binding denominators (VI -> V and V -> IV S0(P), IV -> II
    # S0(Q) kept (P + T)^2, (2P - Q - 2T)^2 and (P - 2Q^2 - T)^2).
    from painleve_backlund.groups import generator

    forms = {"II/s0(p)": generator("II", "s0").acts_on(p_)}
    for arr in arrows():
        for name in arr.subgroup_words:
            for X in (T_, Q_, P_):
                key = f"{arr.name}/{name}/{X.name}"
                forms[f"{key} limit"] = limit_action(arr, name, X)
                forms[f"{key} table"] = target_table_action(arr, name, X)
    assert len(forms) == 1 + 2 * 42
    shared = {
        key: common for key, f in forms.items()
        if (common := sympy.gcd(to_sympy(f.num), to_sympy(f.den))).free_symbols
    }
    assert not shared, shared
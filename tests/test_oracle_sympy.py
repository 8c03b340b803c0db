"""Differential tests of the polynomial kernel against sympy.

sympy is an independent oracle here and nowhere else: the package never
imports it.  Every case comes from the seeded generators in conftest, with
half of the coefficients carrying a sqrt2 part.
"""

import pytest

from painleve_backlund.ratfn import RatFn, ratfn_equal
from painleve_backlund.symbols import MASK, REGISTRY, SHIFTS, p_, q_, t_

from conftest import rand_poly, rng_for

sympy = pytest.importorskip("sympy")

SYMS = (q_, p_, t_)
GENS = sympy.symbols(" ".join(s.name for s in SYMS))
SQRT2 = sympy.sqrt(2)
N = 40


def to_sympy(poly):
    total = sympy.Integer(0)
    for key, c in poly.coefficients():
        term = sympy.Rational(c.a.numerator, c.a.denominator) + SQRT2 * sympy.Rational(
            c.b.numerator, c.b.denominator
        )
        for s in REGISTRY:
            e = (key >> SHIFTS[s.index]) & MASK
            if e:
                term *= sympy.Symbol(s.name) ** e
        total += term
    return total


def has_sqrt2(poly):
    return any(c.b for _, c in poly.coefficients())


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

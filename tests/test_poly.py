from fractions import Fraction
from math import gcd

import pytest

from painleve_backlund.exprio import parse_expr, print_poly
from painleve_backlund.poly import MonomialOverflow, Poly
from painleve_backlund.qsqrt2 import QSqrt2
from painleve_backlund.symbols import q_, sym, t_

from conftest import rand_poly, rng_for


def P(text):
    f = parse_expr(text)
    assert f.den.is_one()
    return f.num


def test_difference_of_squares():
    assert P("q + t") * P("q - t") == P("q^2 - t^2")


def test_additive_identity():
    f = P("3*q^2 - t")
    assert Poly.zero() + f == f


def test_sqrt2_coefficient_product():
    # hand check in Q(sqrt2): (0 + r/2)(0 + r/2) = 2/4 = 1/2 with r = sqrt2
    half_sqrt2_q = P("1/sqrt2 * q")
    assert half_sqrt2_q * half_sqrt2_q == P("1/2 * q^2")


def test_pow():
    f = P("q + 1")
    assert f**0 == Poly.const(1)
    assert f**3 == P("q^3 + 3*q^2 + 3*q + 1")


def test_partial():
    f = P("q^3*t + 2*q")
    assert f.partial(q_) == P("3*q^2*t + 2")
    assert f.partial(t_) == P("q^3")
    assert f.partial(sym("p")).is_zero()


def test_leading_term_is_lexicographic():
    # registry order puts t before q, so t dominates
    f = P("q^5 + t")
    assert f.leading_coeff() == QSqrt2(1)
    assert f.leading_key() == P("t").leading_key()


def test_content_key():
    f = P("q^2*t + q^3")
    content = f.content_key()
    assert f.div_key(content) == P("t + q")


def test_try_div_exact_and_inexact(seed):
    rng = rng_for(seed, "poly-trydiv")
    syms = (t_, q_, sym("p"))
    for _ in range(200):
        a = rand_poly(rng, syms, max_terms=3, max_degree=2)
        b = rand_poly(rng, syms, max_terms=2, max_degree=2, allow_zero=False)
        if b.is_zero():
            continue
        quotient = (a * b).try_div(b)
        assert quotient == a
    # q^2 - t^2 is not divisible by q - 1
    assert P("q^2 - t^2").try_div(P("q - 1")) is None


def test_eval_exact():
    f = P("q^2*t - 1/2")
    value = f.eval_exact({q_: Fraction(2), t_: Fraction(1, 3)})
    assert value == QSqrt2(Fraction(4, 3) - Fraction(1, 2))


def test_canonical_form_is_unique(seed):
    rng = rng_for(seed, "poly-canonical")
    syms = (t_, q_)
    for _ in range(100):
        f = rand_poly(rng, syms)
        g = rand_poly(rng, syms)
        # structural equality coincides with semantic equality
        assert (f - g).is_zero() == (f == g)


def assert_canonical(f):
    parts = [x for c in f.terms.values() for x in (c if type(c) is tuple else (c,))]
    assert f.den > 0 and 0 not in f.terms.values()
    assert gcd(f.den, *parts) == 1
    # pairs exactly when some coefficient has a sqrt2 part
    surd = any(type(c) is tuple and c[1] for c in f.terms.values())
    assert all((type(c) is tuple) == surd for c in f.terms.values())


def test_same_polynomial_built_two_ways_is_one_value():
    # FactoredFrac cancels atoms by == and hash, so both must see one value
    q = P("q")
    cases = [
        (q.scale(Fraction(1, 2)) * Poly.const(2), q),
        (P("2*q + 4") * P("q/2 - 1/4"), P("q^2 + 3/2*q - 1")),  # content cancels
        (P("sqrt2*q") * P("sqrt2/4"), P("q/2")),  # sqrt2 parts multiply out
        ((P("q + sqrt2") - P("sqrt2")), q),  # sqrt2 parts cancel
        (P("q^2 - 1/4").try_div(P("2*q - 1")), P("q/2 + 1/4")),
        (P("(q + sqrt2)*t + 1/3").slices(t_)[1], P("q + sqrt2")),
        (P("(q + sqrt2)*t + 1/3").slices(t_)[0], P("1/3")),
    ]
    for a, b in cases:
        assert_canonical(a)
        assert a == b and hash(a) == hash(b) and len(a.terms) == len(b.terms), (a, b)
        assert {b: 1}[a] == 1


def test_operations_keep_the_canonical_form(seed):
    rng = rng_for(seed, "poly-invariant")
    syms = (t_, q_)
    for _ in range(100):
        f = rand_poly(rng, syms, sqrt2_prob=0.5)
        g = rand_poly(rng, syms, sqrt2_prob=0.5)
        for h in (f + g, f - g, -f, f * g, f.partial(q_), (f * g).try_div(g) if g.terms else f):
            assert_canonical(h)


def test_monomial_overflow_is_named():
    p = Poly.variable("p")
    with pytest.raises(MonomialOverflow):
        (p**40000) ** 2
    with pytest.raises(MonomialOverflow):
        p**70000
    half = p**20000
    with pytest.raises(MonomialOverflow):
        half * half
    with pytest.raises(MonomialOverflow):
        half.mul_key(half.leading_key())
    assert print_poly(p**32767) == "p^32767"  # the largest exponent a field holds

from fractions import Fraction

from painleve_backlund.exprio import parse_expr
from painleve_backlund.poly import Poly
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
    assert f.terms[f.leading_key()] == QSqrt2(1)
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

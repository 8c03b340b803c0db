import math
from fractions import Fraction
from math import gcd

import pytest

from painleve_backlund.exprio import parse_expr, print_poly
from painleve_backlund.poly import ONE, SQRT2, MonomialOverflow, Poly, min_key
from painleve_backlund.symbols import MASK, REGISTRY, SHIFTS, alpha, eps, p_, q_, sym, t_

from conftest import rand_coeff, rand_poly, rng_for


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
    assert f.leading_coeff() == Poly.const(1)
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


# Scalars of Q(sqrt2) are constant polynomials: the kernel's product and
# equality apply to them, and ONE.try_div(c) is the inverse of c.


def test_constant_product():
    a = Poly.const(Fraction(1, 2), 3)
    b = Poly.const(2, Fraction(-1, 3))
    # (1/2 + 3 r)(2 - r/3) with r^2 = 2: rational part 1 - 2 = -1,
    # r part -1/6 + 6 = 35/6
    assert a * b == Poly.const(-1, Fraction(35, 6))


def test_sqrt2_squares_to_two():
    assert SQRT2 * SQRT2 == Poly.const(2)


def test_inverse_of_sqrt2():
    inv_sqrt2 = ONE.try_div(SQRT2)
    assert inv_sqrt2 == Poly.const(0, Fraction(1, 2))
    assert inv_sqrt2 * SQRT2 == ONE


def test_constant_inverse_round_trip(seed):
    rng = rng_for(seed, "qsqrt2-inverse")
    for _ in range(300):
        value = rand_coeff(rng, sqrt2_prob=0.5)
        if value.is_zero():
            continue
        assert value * ONE.try_div(value) == ONE


def test_zero_constant_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        ONE.try_div(Poly.zero())


def test_nonzero_constants_invertible_even_when_norm_looks_small():
    # a^2 - 2 b^2 never vanishes for rational a, b not both zero
    v = Poly.const(Fraction(7, 5), Fraction(99, 100))
    assert v * ONE.try_div(v) == ONE


def test_constant_hash_and_equality_consistent():
    assert hash(Poly.const(1, 2)) == hash(Poly.const(Fraction(1), Fraction(2)))
    assert Poly.const(1, 2) == Poly.const(Fraction(1), Fraction(2))


def test_constant_to_float():
    [(key, value)] = SQRT2.float_coefficients()
    assert key == 0 and abs(value - 2**0.5) < 1e-15


def test_float_coefficients_match_the_fraction_formula(seed):
    # the stored ints divided directly round like the Fraction parts did
    rng = rng_for(seed, "poly-float")
    for _ in range(200):
        scale = Poly.const(Fraction(rng.randint(1, 10**30), rng.randint(1, 10**30)))
        f = rand_poly(rng, (t_, q_), sqrt2_prob=0.5) * scale
        assert [k for k, _ in f.float_coefficients()] == [k for k, *_ in f.int_coefficients()]
        for (_, x), (_, a, b, d) in zip(f.float_coefficients(), f.int_coefficients()):
            assert repr(x) == repr(float(Fraction(a, d)) + float(Fraction(b, d)) * math.sqrt(2.0))


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
        (q * Poly.const(Fraction(1, 2)) * Poly.const(2), q),
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


def test_unit_factor_returns_the_other_operand(seed):
    # a product with ONE skips the kernel; it must still be the same value
    rng = rng_for(seed, "poly-unit-factor")
    syms = (t_, q_)
    cases = [Poly.zero(), ONE, SQRT2] + [rand_poly(rng, syms, sqrt2_prob=0.5) for _ in range(100)]
    for f in cases:
        for h in (f * ONE, ONE * f):
            assert h == f and hash(h) == hash(f), f
            assert_canonical(h)


def test_uses_matches_the_per_term_definition(seed):
    rng = rng_for(seed, "poly-uses")
    cases = [Poly.zero(), ONE, SQRT2]
    cases += [rand_poly(rng, rng.sample(REGISTRY, 3), max_terms=4, sqrt2_prob=0.5)
              for _ in range(100)]
    cases.append(P("q*eps^3 + t"))
    for f in cases:
        for s in REGISTRY:
            per_term = any((key >> SHIFTS[s.index]) & MASK for key in f.terms)
            assert f.uses(s) is per_term, (f, s)
    assert cases[-1].uses(eps) and not cases[-1].uses(sym("p"))


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


def long_div(num, div):
    """Textbook division by the divisor's lex-leading term, on Poly values:
    the reference for try_div, with no early exit."""
    lead, inv = div.leading_key(), ONE.try_div(div.leading_coeff())
    quo = Poly.zero()
    while not num.is_zero():
        key = num.leading_key()
        if min_key(key, lead) != lead:
            return None
        step = (num.leading_coeff() * inv).mul_key(key - lead)
        quo = quo + step
        num = num - step * div
    return quo


def test_fail_fast_try_div_agrees_with_long_division(seed):
    # Divisible pairs, the same pairs off by one term (most of which the
    # trailing-term test rejects before any reduction), a zero dividend,
    # and divisors with sqrt2 coefficients.
    rng = rng_for(seed, "poly-fail-fast")
    syms = (q_, t_, sym("p"))
    assert Poly.zero().try_div(P("q + 1")) == Poly.zero() == long_div(Poly.zero(), P("q + 1"))
    rejected = 0
    for i in range(300):
        a = rand_poly(rng, syms, max_terms=4, allow_zero=False, sqrt2_prob=0.3)
        b = rand_poly(rng, syms, max_terms=3, allow_zero=False, sqrt2_prob=0.3)
        if b.is_zero():
            continue
        for num in (a * b, a * b + rand_poly(rng, syms, max_terms=1, sqrt2_prob=0.3)):
            ours, ref = num.try_div(b), long_div(num, b)
            assert ours == ref, (num, b)
            rejected += ours is None
    assert rejected > 100


def test_uses_all_symbols_of_is_the_symbol_set_inclusion(seed):
    rng = rng_for(seed, "poly-uses-all")
    syms = (alpha[0], t_, q_, p_)
    polys = [rand_poly(rng, syms, max_terms=2, max_degree=3, sqrt2_prob=0.3) for _ in range(40)]
    polys.append(Poly.variable(q_) ** 32767)  # a full exponent field
    for f in polys:
        for g in polys:
            assert f.uses_all_symbols_of(g) == (g.symbols_used() <= f.symbols_used())

from fractions import Fraction

import pytest

from painleve_backlund.exprio import parse_expr as P
from painleve_backlund.ratfn import RatFn, ratfn_equal
from painleve_backlund.series import (
    DivergesAtZero,
    DivisionByZeroSeries,
    EpsSeries,
    FloorExceeded,
    NonpositiveValuation,
    binomial_series,
    ratfn_at_series,
    ratfn_eps_valuation,
    ratfn_limit_eps0,
    rational_pair,
    series_equal,
    poly_at_series,
)
from painleve_backlund.symbols import eps, q_, sym

from conftest import rand_poly, rng_for


def S(text, trunc):
    return EpsSeries.from_ratfn(P(text), trunc)


def test_geometric_expansion():
    got = S("1/(1 + eps*T)", 2)
    assert series_equal(got, S("1 - T*eps + T^2*eps^2", 2))


def test_pure_laurent_monomial():
    got = S("q/eps", 0)
    assert got.valuation() == -1
    assert ratfn_equal(got.coeff(-1), P("q"))


def test_shifted_geometric():
    # eps/(1 - A2 eps) = eps + A2 eps^2 + A2^2 eps^3 + ...
    got = S("eps/(1 - A2*eps)", 3)
    assert series_equal(got, S("eps + A2*eps^2 + A2^2*eps^3", 3))


def test_mul_monomials_cancel():
    one = S("1/eps", 8) * S("eps", 8)
    assert series_equal(one, EpsSeries.const(1, one.trunc))


def test_div_self():
    s = S("1 + eps", 8)
    assert series_equal(s / s, EpsSeries.const(1, 6))


def test_branch_square_recovers_rational():
    # (eps * (1 - 2 A2 eps^2)^(-1/2))^2 = eps^2 / (1 - 2 A2 eps^2)
    unit = binomial_series(S("-2*A2*eps^2", 10), Fraction(-1, 2))
    branch = unit.shift(1)
    assert series_equal(branch * branch, S("eps^2/(1 - 2*A2*eps^2)", 10))


def test_binomial_hand_coefficients():
    # (1 + 2 A0 eps^2)^(-1/2): C(-1/2,1) = -1/2, C(-1/2,2) = 3/8
    # so the eps^2 coefficient is -A0 and the eps^4 one is (3/8)*4*A0^2
    got = binomial_series(S("2*A0*eps^2", 4), Fraction(-1, 2))
    assert series_equal(got, S("1 - A0*eps^2 + (3/2)*A0^2*eps^4", 4))


def test_binomial_zero_argument():
    got = binomial_series(EpsSeries.zero(6), Fraction(-1, 2))
    assert series_equal(got, EpsSeries.const(1, 6))


def test_binomial_sixth_root():
    got = binomial_series(S("4*A1*eps^6", 6), Fraction(-1, 6))
    assert series_equal(got, S("1 - (2/3)*A1*eps^6", 6))


def test_binomial_exponent_forms_agree():
    # an int, a Fraction and 'p/q' text (any sign, not in lowest terms) give
    # one series; the binomials are integer pairs, so the k-th power of a
    # (-1/k)-th power series with k = 3 is exactly the inverse
    x = S("4*A1*eps^3", 12)
    for c, forms in ((-1, (-1, Fraction(-1), "-1", "2/-2")),
                     (Fraction(-1, 3), ("-1/3", "2/-6", Fraction(-2, 6))),
                     (Fraction(5, 2), ("5/2", "10/4"))):
        want = binomial_series(x, c)
        for form in forms:
            assert binomial_series(x, form).coeffs == want.coeffs, (c, form)
    assert series_equal(binomial_series(x, "-1/3") ** 3, S("1/(1 + 4*A1*eps^3)", 12))
    assert series_equal(binomial_series(x, 2), S("(1 + 4*A1*eps^3)^2", 12))
    assert rational_pair("6/-4") == (-3, 2) and rational_pair(Fraction(6, 4)) == (3, 2)
    with pytest.raises(ZeroDivisionError):
        rational_pair("1/0")


def test_binomial_rejects_nonpositive_valuation():
    with pytest.raises(NonpositiveValuation):
        binomial_series(S("1 + eps", 4), Fraction(1, 2))


def test_limit_examples():
    finite = S("Q + A2/P", 4)
    assert ratfn_equal(finite.limit_eps0(), P("Q + A2/P"))
    diverging = S("1/eps + T", 4)
    with pytest.raises(DivergesAtZero) as err:
        diverging.limit_eps0()
    assert err.value.order == -1
    constant = EpsSeries.const(P("q"), 4)
    assert ratfn_equal(constant.limit_eps0(), P("q"))


def test_direct_ratfn_limit():
    assert ratfn_eps_valuation(P("eps^2*q/(eps*t)")) == 1
    assert ratfn_equal(ratfn_limit_eps0(P("(q + eps)/(1 + eps)")), P("q"))
    assert ratfn_limit_eps0(P("eps*q")).is_zero()
    with pytest.raises(DivergesAtZero):
        ratfn_limit_eps0(P("q/eps"))


def test_limit_matches_substitution(seed):
    rng = rng_for(seed, "series-limit")
    syms = (q_, sym("T"))
    for _ in range(50):
        num = rand_poly(rng, syms + (eps,), max_terms=3)
        den = rand_poly(rng, syms, max_terms=2, allow_zero=False)
        if den.is_zero():
            continue
        den = den + rand_poly(rng, (eps,), max_terms=1) * rand_poly(
            rng, syms, max_terms=1
        )
        f = RatFn(num, den)
        try:
            direct = f.substitute({eps: P("0")})
        except Exception:
            continue
        series = EpsSeries.from_ratfn(f, 4)
        assert ratfn_equal(series.limit_eps0(), direct)


def test_truncation_coherence(seed):
    rng = rng_for(seed, "series-trunc")
    syms = (q_,)
    for _ in range(60):
        a = rand_poly(rng, syms + (eps,), max_terms=3)
        b = rand_poly(rng, syms + (eps,), max_terms=3)
        fa, fb = RatFn(a), RatFn(b)
        hi = EpsSeries.from_ratfn(fa, 8) * EpsSeries.from_ratfn(fb, 8)
        lo = EpsSeries.from_ratfn(fa, 4) * EpsSeries.from_ratfn(fb, 4)
        m = min(4, lo.trunc, hi.trunc)
        assert series_equal(hi.truncate(m), lo.truncate(m))


def test_expansion_is_ring_homomorphism(seed):
    rng = rng_for(seed, "series-homo")
    syms = (q_,)
    for _ in range(60):
        a = rand_poly(rng, syms + (eps,), max_terms=3, allow_zero=False)
        b = rand_poly(rng, syms + (eps,), max_terms=3, allow_zero=False)
        if a.is_zero() or b.is_zero():
            continue
        fa, fb = RatFn(a), RatFn(b)
        lhs = EpsSeries.from_ratfn(fa * fb, 6)
        rhs = EpsSeries.from_ratfn(fa, 8) * EpsSeries.from_ratfn(fb, 8)
        assert series_equal(lhs, rhs.truncate(min(6, rhs.trunc)))


def test_binomial_inverse_pair(seed):
    rng = rng_for(seed, "series-binom")
    for _ in range(40):
        x = rand_poly(rng, (sym("A0"),), max_terms=2) * rand_poly(
            rng, (eps,), max_terms=1, allow_zero=False
        )
        body = RatFn(x) * P("eps")  # force valuation >= 1
        series = EpsSeries.from_ratfn(body, 6)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
        product = binomial_series(series, c) * binomial_series(series, -c)
        assert series_equal(product, EpsSeries.const(1, product.trunc))


def test_floor_is_enforced():
    deep = EpsSeries.eps_power(-7, 8)
    with pytest.raises(FloorExceeded):
        deep * deep  # order -14 < -12
    with pytest.raises(FloorExceeded):
        EpsSeries.from_ratfn(P("1/eps^13"), 0)


def test_zero_series_division():
    with pytest.raises(DivisionByZeroSeries):
        EpsSeries.const(1, 4) / EpsSeries.zero(4)


def test_coefficients_must_be_eps_free():
    with pytest.raises(ValueError):
        EpsSeries({0: P("eps*q")}, 4)


def test_poly_at_series():
    args = {q_: S("1 + eps", 6)}
    value = poly_at_series(P("q^2").num, args, 6)
    assert series_equal(value, S("1 + 2*eps + eps^2", 6))
    with pytest.raises(ValueError):
        poly_at_series(P("q*t").num, args, 6)


def test_ratfn_at_series():
    args = {q_: S("eps", 6)}
    value = ratfn_at_series(P("1/(1 - q)"), args, 6)
    assert series_equal(value, S("1/(1 - eps)", 5))

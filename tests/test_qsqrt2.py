from fractions import Fraction

import pytest

from painleve_backlund.qsqrt2 import ONE, SQRT2, ZERO, QSqrt2

from conftest import rand_coeff, rng_for


def test_basic_arithmetic():
    a = QSqrt2(Fraction(1, 2), Fraction(3))
    b = QSqrt2(2, Fraction(-1, 3))
    # (1/2 + 3 r)(2 - r/3) with r^2 = 2: rational part 1 - 2 = -1,
    # r part -1/6 + 6 = 35/6
    assert a * b == QSqrt2(-1, Fraction(35, 6))


def test_sqrt2_squares_to_two():
    assert SQRT2 * SQRT2 == QSqrt2(2)


def test_inverse_of_one_over_sqrt2():
    inv_sqrt2 = ONE / SQRT2
    assert inv_sqrt2 == QSqrt2(0, Fraction(1, 2))
    assert inv_sqrt2 * SQRT2 == ONE


def test_inverse_round_trip(seed):
    rng = rng_for(seed, "qsqrt2-inverse")
    for _ in range(300):
        value = rand_coeff(rng, sqrt2_prob=0.5)
        if value.is_zero():
            continue
        assert value * value.inverse() == ONE


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_nonzero_values_invertible_even_when_norm_looks_small():
    # a^2 - 2 b^2 never vanishes for rational a, b not both zero
    v = QSqrt2(Fraction(7, 5), Fraction(99, 100))
    assert (v * v.inverse()) == ONE


def test_hash_and_equality_consistent():
    assert hash(QSqrt2(1, 2)) == hash(QSqrt2(Fraction(1), Fraction(2)))
    assert QSqrt2(1, 2) == QSqrt2(Fraction(1), Fraction(2))


def test_to_float():
    assert abs(SQRT2.to_float() - 2**0.5) < 1e-15

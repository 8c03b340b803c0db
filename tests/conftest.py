"""Shared helpers: seeded random generators for the property tests.

Every randomized test takes its seed from PB_TEST_SEED (default 20240517)
and prints it, so failures are reproducible by exporting the seed.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction

import pytest

from painleve_backlund.poly import Poly
from painleve_backlund.ratfn import RatFn
DEFAULT_SEED = 20240517


@pytest.fixture(scope="session")
def seed() -> int:
    value = int(os.environ.get("PB_TEST_SEED", DEFAULT_SEED))
    print(f"\n[property tests seeded with PB_TEST_SEED={value}]")
    return value


def rng_for(seed: int, tag: str) -> random.Random:
    return random.Random(f"{seed}:{tag}")


def rand_fraction(rng: random.Random, span: int = 6) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, 4))


def rand_coeff(rng: random.Random, sqrt2_prob: float = 0.15) -> Poly:
    """A nonzero constant a + b*sqrt2."""
    b = rand_fraction(rng) if rng.random() < sqrt2_prob else Fraction(0)
    a = rand_fraction(rng)
    if not a and not b:
        a = Fraction(1)
    return Poly.const(a, b)


def rand_poly(
    rng: random.Random,
    symbols,
    max_terms: int = 3,
    max_degree: int = 2,
    allow_zero: bool = True,
    sqrt2_prob: float = 0.15,
) -> Poly:
    terms = rng.randint(0 if allow_zero else 1, max_terms)
    result = Poly.zero()
    for _ in range(terms):
        mono = rand_coeff(rng, sqrt2_prob)
        for s in symbols:
            e = rng.randint(0, max_degree)
            if e:
                mono = mono * Poly.variable(s) ** e
        result = result + mono
    return result


def rand_ratfn(rng: random.Random, symbols, max_terms: int = 3) -> RatFn:
    num = rand_poly(rng, symbols, max_terms=max_terms)
    den = rand_poly(rng, symbols, max_terms=2, max_degree=1, allow_zero=False)
    if den.is_zero():
        den = Poly.const(1)
    return RatFn(num, den)

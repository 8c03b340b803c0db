"""Exact scalars a + b*sqrt2 of Q(sqrt2), at the boundary of the kernel.

Polynomials do not store QSqrt2 values: poly.py keeps integer numerators
over one common denominator.  QSqrt2 is the scalar that crosses that
boundary: what Poly.const and scale take, and what leading_coeff,
coefficients, eval_exact and the printer in exprio give back.  It keeps
only the arithmetic those callers need: products, inverses and quotients
of evaluated values, and equality.

The extension is needed only for the IV -> II substitution, which scales
coordinates by 1/sqrt2.  Since sqrt2 is irrational, a + b*sqrt2 = 0 forces
a = b = 0, so every nonzero value is invertible:

    1 / (a + b*sqrt2) = (a - b*sqrt2) / (a^2 - 2*b^2)
"""

from __future__ import annotations

import math
from fractions import Fraction


class QSqrt2:
    """An element a + b*sqrt2 of Q(sqrt2), with a and b exact rationals."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = a if isinstance(a, Fraction) else Fraction(a)
        self.b = b if isinstance(b, Fraction) else Fraction(b)

    @staticmethod
    def of(value) -> "QSqrt2":
        """Coerce an int, Fraction, or QSqrt2 into QSqrt2."""
        if isinstance(value, QSqrt2):
            return value
        return QSqrt2(Fraction(value))

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def __mul__(self, other: "QSqrt2") -> "QSqrt2":
        # (a + b r)(c + d r) = (ac + 2bd) + (ad + bc) r  with r^2 = 2
        if not self.b and not other.b:
            return QSqrt2(self.a * other.a)
        return QSqrt2(
            self.a * other.a + 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    def inverse(self) -> "QSqrt2":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(sqrt2)")
        if not self.b:
            return QSqrt2(1 / self.a)
        norm = self.a * self.a - 2 * self.b * self.b
        return QSqrt2(self.a / norm, -self.b / norm)

    def __truediv__(self, other: "QSqrt2") -> "QSqrt2":
        return self * other.inverse()

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSqrt2):
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def to_float(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(2.0)

    def __repr__(self) -> str:
        if not self.b:
            return f"QSqrt2({self.a})"
        return f"QSqrt2({self.a}, {self.b})"


ZERO = QSqrt2(0)
ONE = QSqrt2(1)
SQRT2 = QSqrt2(0, 1)

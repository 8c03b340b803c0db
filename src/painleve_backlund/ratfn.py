"""Rational functions over Q(sqrt2) in the registered symbols.

A RatFn is a pair num/den of polynomials with den != 0.  Canonical form:

  * common monomial content of num and den is cancelled,
  * den's leading coefficient under the global monomial order is 1 (both
    are multiplied by the inverse of that constant, a constant Poly),
  * zero is represented as 0/1.

No polynomial GCD is computed: equality is decided semantically by
cross-multiplication, with a randomized evaluation pre-check that can only
answer "different".  Substitution runs the engine in factored.py.
"""

from __future__ import annotations

from .poly import ONE as P_ONE, Poly, min_key
from .symbols import Symbol


class DivisionByZero(ZeroDivisionError):
    """Division of a rational function by zero."""


class DenominatorVanishes(ZeroDivisionError):
    """A substitution produced an identically zero denominator."""


class RatFn:
    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = P_ONE):
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        if num.is_zero():
            den = P_ONE
        if den.is_one():  # zero is 0/1; a unit den has no content and lead 1
            self.num = num
            self.den = P_ONE
            return
        content = min_key(num.content_key(), den.content_key())
        if content:
            num = num.div_key(content)
            den = den.div_key(content)
        lead = den.leading_coeff()
        if not lead.is_one():
            inv = P_ONE.try_div(lead)
            num = num * inv
            den = den * inv
        self.num = num
        self.den = den

    @classmethod
    def const(cls, value) -> "RatFn":
        return cls(Poly.const(value))

    @classmethod
    def variable(cls, s: Symbol | str) -> "RatFn":
        return cls(Poly.variable(s))

    @classmethod
    def of(cls, value) -> "RatFn":
        if isinstance(value, RatFn):
            return value
        if isinstance(value, Poly):
            return cls(value)
        return cls.const(value)

    # ------------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_const(self) -> bool:
        return self.num.is_const() and self.den.is_one()

    def symbols_used(self) -> set[Symbol]:
        return self.num.symbols_used() | self.den.symbols_used()

    def uses(self, s: Symbol) -> bool:
        return self.num.uses(s) or self.den.uses(s)

    # ------------------------------------------------------------------
    # field arithmetic

    def __add__(self, other: "RatFn") -> "RatFn":
        if self.den == other.den:
            return RatFn(self.num + other.num, self.den)
        return RatFn(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "RatFn") -> "RatFn":
        if self.den == other.den:
            return RatFn(self.num - other.num, self.den)
        return RatFn(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self) -> "RatFn":
        out = RatFn.__new__(RatFn)
        out.num = -self.num
        out.den = self.den
        return out

    def __mul__(self, other: "RatFn") -> "RatFn":
        return RatFn(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RatFn") -> "RatFn":
        if other.num.is_zero():
            raise DivisionByZero("division by zero rational function")
        return RatFn(self.num * other.den, self.den * other.num)

    def inverse(self) -> "RatFn":
        if self.num.is_zero():
            raise DivisionByZero("inverse of zero")
        return RatFn(self.den, self.num)

    def __pow__(self, n: int) -> "RatFn":
        if n < 0:
            return self.inverse() ** (-n)
        return RatFn(self.num**n, self.den**n)

    def partial(self, s: Symbol) -> "RatFn":
        """Exact partial derivative by the quotient rule."""
        dn = self.num.partial(s)
        dd = self.den.partial(s)
        if dd.is_zero():
            return RatFn(dn, self.den)
        return RatFn(dn * self.den - self.num * dd, self.den * self.den)

    # ------------------------------------------------------------------
    # substitution

    def substitute(self, bindings: dict[Symbol, "RatFn"]) -> "RatFn":
        """Simultaneously substitute rational functions for symbols.

        Unbound symbols map to themselves.  Runs factored.substitute_reduced,
        which states the reduction rule; raises DenominatorVanishes if the
        composed denominator is identically zero.
        """
        from .factored import substitute_reduced

        return substitute_reduced(self, bindings)

    # ------------------------------------------------------------------
    # equality

    def equals(self, other: "RatFn") -> bool:
        """Semantic equality: num*other.den - other.num*den expands to zero."""
        return ratfn_equal(self, other)

    def __eq__(self, other) -> bool:
        # Structural equality of canonical forms.  Use .equals() for the
        # semantic test; structural equality implies semantic equality.
        if not isinstance(other, RatFn):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        from .exprio import print_expr

        return f"RatFn({print_expr(self)})"


# Fixed seed: the pre-check must be deterministic run to run.
_PRECHECK_SEED = 0x5EED
_PRECHECK_POINTS = 3


def ratfn_equal(f: RatFn, g: RatFn) -> bool:
    """Decide f == g in the rational function field.

    A randomized evaluation pre-check runs first; a nonzero value at any
    sample point settles the answer as "different".  Equality is always
    confirmed by expanding the cross product.
    """
    if f.num == g.num and f.den == g.den:
        return True
    # in registry order: a set of Symbols iterates in hash order, which
    # follows PYTHONHASHSEED
    syms = sorted(f.symbols_used() | g.symbols_used(), key=lambda s: s.index)
    if syms:
        import random

        rng = random.Random(_PRECHECK_SEED)
        for _ in range(_PRECHECK_POINTS):
            # each value n/d as the pair (n, d), so no Fraction is built
            point = {s: (rng.randint(-9, 9), rng.randint(1, 4)) for s in syms}
            lhs = f.num.eval_exact(point) * g.den.eval_exact(point)
            rhs = g.num.eval_exact(point) * f.den.eval_exact(point)
            if lhs != rhs:
                return False
    return (f.num * g.den - g.num * f.den).is_zero()


ZERO = RatFn(Poly.zero())
ONE = RatFn(P_ONE)

"""Sparse multivariate polynomials over Q(sqrt2).

Terms map packed monomial keys (see symbols.py) to nonzero QSqrt2
coefficients.  The zero polynomial is the empty map.  Values are immutable
after construction; all operations return new polynomials in canonical form
(no stored zero coefficients).
"""

from __future__ import annotations

from fractions import Fraction

from .qsqrt2 import QSqrt2, ONE as C_ONE
from .symbols import MASK, SHIFTS, Symbol, sym, var_key

_coerce = QSqrt2.of


class Poly:
    __slots__ = ("terms", "_hash")

    def __init__(self, terms: dict[int, QSqrt2] | None = None):
        self.terms = {} if terms is None else {k: c for k, c in terms.items() if c}
        self._hash = None

    @classmethod
    def _raw(cls, terms: dict[int, QSqrt2]) -> "Poly":
        # Internal: terms must already be canonical (no zero coefficients).
        p = cls.__new__(cls)
        p.terms = terms
        p._hash = None
        return p

    @classmethod
    def zero(cls) -> "Poly":
        return cls._raw({})

    @classmethod
    def const(cls, value) -> "Poly":
        c = _coerce(value)
        return cls._raw({0: c} if c else {})

    @classmethod
    def variable(cls, s: Symbol | str) -> "Poly":
        s = sym(s) if isinstance(s, str) else s
        return cls._raw({var_key(s): C_ONE})

    # ------------------------------------------------------------------
    # predicates and inspection

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def const_value(self) -> QSqrt2:
        if not self.terms:
            return QSqrt2(0)
        if len(self.terms) == 1 and 0 in self.terms:
            return self.terms[0]
        raise ValueError("polynomial is not constant")

    def is_one(self) -> bool:
        return len(self.terms) == 1 and self.terms.get(0) == C_ONE

    def leading_key(self) -> int:
        """Largest monomial under the global lexicographic order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms)

    def leading_coeff(self) -> QSqrt2:
        return self.terms[self.leading_key()]

    def max_exponent(self, s: Symbol) -> int:
        sh = SHIFTS[s.index]
        deg = 0
        for key in self.terms:
            e = (key >> sh) & MASK
            if e > deg:
                deg = e
        return deg

    def symbols_used(self) -> set[Symbol]:
        from .symbols import REGISTRY

        used: set[Symbol] = set()
        for key in self.terms:
            for s in REGISTRY:
                if (key >> SHIFTS[s.index]) & MASK:
                    used.add(s)
        return used

    def uses(self, s: Symbol) -> bool:
        sh = SHIFTS[s.index]
        return any((key >> sh) & MASK for key in self.terms)

    def content_key(self) -> int:
        """Packed key of the largest monomial dividing every term."""
        if not self.terms:
            return 0
        content = None
        for key in self.terms:
            if content is None:
                content = key
            else:
                content = min_key(content, key)
            if content == 0:
                return 0
        return content

    # ------------------------------------------------------------------
    # arithmetic

    def __add__(self, other: "Poly") -> "Poly":
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for key, c in other.terms.items():
            acc = out.get(key)
            if acc is None:
                out[key] = c
            else:
                s = acc + c
                if s:
                    out[key] = s
                else:
                    del out[key]
        return Poly._raw(out)

    def __sub__(self, other: "Poly") -> "Poly":
        if not other.terms:
            return self
        out = dict(self.terms)
        for key, c in other.terms.items():
            acc = out.get(key)
            if acc is None:
                out[key] = -c
            else:
                s = acc - c
                if s:
                    out[key] = s
                else:
                    del out[key]
        return Poly._raw(out)

    def __neg__(self) -> "Poly":
        return Poly._raw({k: -c for k, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.terms, other.terms
        if not a or not b:
            return Poly.zero()
        if len(a) > len(b):
            a, b = b, a
        out: dict[int, QSqrt2] = {}
        get = out.get
        for ka, ca in a.items():
            for kb, cb in b.items():
                k = ka + kb
                acc = get(k)
                if acc is None:
                    out[k] = ca * cb
                else:
                    s = acc + ca * cb
                    if s:
                        out[k] = s
                    else:
                        del out[k]
        return Poly._raw(out)

    def scale(self, c) -> "Poly":
        c = _coerce(c)
        if not c:
            return Poly.zero()
        if c == C_ONE:
            return self
        return Poly._raw({k: coeff * c for k, coeff in self.terms.items()})

    def mul_key(self, key: int) -> "Poly":
        """Multiply by the monomial with the given packed key."""
        if key == 0:
            return self
        return Poly._raw({k + key: c for k, c in self.terms.items()})

    def div_key(self, key: int) -> "Poly":
        """Divide by a monomial that must divide every term."""
        if key == 0:
            return self
        out = {}
        for k, c in self.terms.items():
            if min_key(k, key) != key:
                raise ValueError("monomial does not divide every term")
            out[k - key] = c
        return Poly._raw(out)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def try_div(self, divisor: "Poly") -> "Poly | None":
        """Exact polynomial division; None if the divisor does not divide.

        Standard sparse reduction against the divisor's lex-leading term.
        Used to cancel denominator factors that reappear inside expanded
        numerators during word composition.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return self
        dlead = divisor.leading_key()
        dcoeff_inv = divisor.terms[dlead].inverse()
        dtail = [(k, c) for k, c in divisor.terms.items() if k != dlead]
        rem = dict(self.terms)
        quo: dict[int, QSqrt2] = {}
        while rem:
            rlead = max(rem)
            if min_key(rlead, dlead) != dlead:
                return None  # leading monomial not divisible
            qkey = rlead - dlead
            qcoeff = rem.pop(rlead) * dcoeff_inv
            quo[qkey] = qcoeff
            for k, c in dtail:
                key = qkey + k
                acc = rem.get(key)
                if acc is None:
                    rem[key] = -(qcoeff * c)
                else:
                    s2 = acc - qcoeff * c
                    if s2:
                        rem[key] = s2
                    else:
                        del rem[key]
        return Poly._raw(quo)

    def partial(self, s: Symbol) -> "Poly":
        sh = SHIFTS[s.index]
        unit = 1 << sh
        out: dict[int, QSqrt2] = {}
        for key, c in self.terms.items():
            e = (key >> sh) & MASK
            if e:
                out[key - unit] = c * QSqrt2(e)
        return Poly._raw(out)

    # ------------------------------------------------------------------
    # evaluation and slicing

    def eval_exact(self, values: dict[Symbol, Fraction]) -> QSqrt2:
        """Evaluate at rational points; every used symbol must be bound."""
        total = QSqrt2(0)
        items = [(SHIFTS[s.index], Fraction(v)) for s, v in values.items()]
        for key, c in self.terms.items():
            factor = Fraction(1)
            rest = key
            for shift, v in items:
                e = (key >> shift) & MASK
                if e:
                    factor *= v**e
                    rest -= e << shift
            if rest:
                raise ValueError("unbound symbol in exact evaluation")
            total = total + c * QSqrt2(factor)
        return total

    def eval_float(self, values: dict[Symbol, float]) -> float:
        total = 0.0
        items = [(SHIFTS[s.index], float(v)) for s, v in values.items()]
        for key, c in self.terms.items():
            factor = c.to_float()
            rest = key
            for shift, v in items:
                e = (key >> shift) & MASK
                if e:
                    factor *= v**e
                    rest -= e << shift
            if rest:
                raise ValueError("unbound symbol in float evaluation")
            total += factor
        return total

    def slices(self, s: Symbol) -> dict[int, "Poly"]:
        """Decompose as sum_k s^k * slice_k with s removed from each slice."""
        sh = SHIFTS[s.index]
        out: dict[int, dict[int, QSqrt2]] = {}
        for key, c in self.terms.items():
            e = (key >> sh) & MASK
            out.setdefault(e, {})[key - (e << sh)] = c
        return {e: Poly._raw(terms) for e, terms in out.items()}

    # ------------------------------------------------------------------
    # equality / hashing (canonical form makes structural == semantic)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __repr__(self) -> str:
        from .exprio import print_poly

        return f"Poly({print_poly(self)})"


def min_key(k1: int, k2: int) -> int:
    """Componentwise minimum of two packed monomial keys (gcd of monomials)."""
    out = 0
    for sh in SHIFTS:
        e1 = (k1 >> sh) & MASK
        e2 = (k2 >> sh) & MASK
        out |= (e1 if e1 < e2 else e2) << sh
    return out


ZERO = Poly.zero()
ONE = Poly.const(1)

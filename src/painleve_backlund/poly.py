"""Sparse multivariate polynomials over Q(sqrt2), kept as integers over one
common denominator (the layout of FLINT's fmpq_poly).

A Poly is terms/den: `terms` maps packed monomial keys (see symbols.py) to
integer numerators and `den` is one positive integer shared by all terms.
While no coefficient has a sqrt2 part every numerator is a plain int;
otherwise every numerator is a pair (a, b) of ints meaning a + b*sqrt2.
Canonical form, restored by each operation with one gcd pass:

  * no stored zero numerator; zero is the empty map over den 1,
  * den > 0 and gcd(den, every numerator component) == 1,
  * numerators are pairs only when some b is nonzero.

So `==` on (terms, den) is equality of polynomials and equal polynomials
hash alike.  Values are immutable after construction.

Arithmetic runs on Python ints (Monagan & Pearce, "Sparse polynomial
multiplication and division in Maple 14", 2009): schoolbook products,
merges over the lcm of the denominators, and fraction-free trial division
by the primitive part of the divisor.  A sqrt2 operand is split as
A + sqrt2*B into two integer parts that run through the same loops.
A scalar of Q(sqrt2) is a constant Poly, multiplied, compared and inverted
(by try_div) in the same kernel.  No other module reads the stored format:
int_coefficients() gives each term as integers (a, b) over den, and nothing
here builds a Fraction, so no command loads `fractions`.

Exponents stay below 2^15 (see symbols.py); a product, monomial shift or
power whose result would reach 2^15 raises MonomialOverflow.
"""

from __future__ import annotations

from functools import reduce
from heapq import heapify, heappop, heappush
from math import gcd, lcm, sqrt
from operator import or_

from .symbols import BITS, GUARDS, MASK, REGISTRY, SHIFTS, Symbol, sym, var_key


class MonomialOverflow(OverflowError):
    """An exponent reached 2^15, the capacity of a packed key field."""


class Poly:
    __slots__ = ("terms", "den", "_hash")

    def __init__(self, terms: dict | None = None, den: int = 1):
        # Internal: terms/den must already be canonical (see module doc).
        self.terms = {} if terms is None else terms
        self.den = den
        self._hash = None

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def const(cls, a, b=0) -> "Poly":
        """The constant a + b*sqrt2, for ints or Fractions a and b."""
        if type(a) is int and not b:
            return cls({0: a} if a else {})
        (na, da), (nb, db) = a.as_integer_ratio(), b.as_integer_ratio()
        den = lcm(da, db)
        return _constant(na * (den // da), nb * (den // db), den)

    @classmethod
    def variable(cls, s: Symbol | str) -> "Poly":
        s = sym(s) if isinstance(s, str) else s
        return cls({var_key(s): 1})

    # ------------------------------------------------------------------
    # predicates and inspection

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def is_one(self) -> bool:
        return self.den == 1 and len(self.terms) == 1 and self.terms.get(0) == 1

    def leading_key(self) -> int:
        """Largest monomial under the global lexicographic order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms)

    def leading_coeff(self) -> "Poly":
        """The coefficient of the leading term, as a constant."""
        c = self.terms[self.leading_key()]
        if c == self.den:  # the coefficient 1
            return ONE
        return _constant(*(c if type(c) is tuple else (c, 0)), self.den)

    def int_coefficients(self) -> list[tuple[int, int, int, int]]:
        """(packed key, a, b, d) for every term (a + b*sqrt2)/d, in storage
        order; d is the shared denominator, so a/d need not be in lowest terms."""
        den = self.den
        return [
            (k, *c, den) if type(c) is tuple else (k, c, 0, den)
            for k, c in self.terms.items()
        ]

    def float_coefficients(self) -> list[tuple[int, float]]:
        """(packed key, a + b*sqrt(2.0)) for every term, in storage order.

        a and b are divided straight from the stored ints: int true division
        rounds correctly, so each equals float(Fraction(a)) bit for bit.
        """
        den = self.den
        return [
            (k, c[0] / den + c[1] / den * _SQRT2_FLOAT) if type(c) is tuple else (k, c / den)
            for k, c in self.terms.items()
        ]

    def numerator_groups(self, mask: int) -> dict[int, "Poly"]:
        """{key & mask: integer numerators times the monomials key & ~mask};
        the groups, each times the monomial of its key, sum to den * self."""
        out: dict[int, tuple[dict, dict]] = {}
        for part, terms in enumerate(_parts(self)):
            for key, c in terms.items():
                out.setdefault(key & mask, ({}, {}))[part][key & ~mask] = c
        return {k: _join(a, b, 1) for k, (a, b) in out.items()}

    def ends_may_divide(self, factors: list[tuple["Poly", int]]) -> bool:
        """False only if self cannot divide the product of f^e: that product's
        lex-leading and lex-trailing monomials must be multiples of self's."""
        for end in (max, min):
            key = sum(end(f.terms) * e for f, e in factors)
            if ((key | GUARDS) - end(self.terms)) & GUARDS != GUARDS:
                return False
        return True

    def max_exponent(self, s: Symbol) -> int:
        sh = SHIFTS[s.index]
        deg = 0
        for key in self.terms:
            e = (key >> sh) & MASK
            if e > deg:
                deg = e
        return deg

    def symbols_used(self) -> set[Symbol]:
        # a field of the OR of all keys is nonzero iff some term uses it
        used = reduce(or_, self.terms, 0)
        return {s for s in REGISTRY if (used >> SHIFTS[s.index]) & MASK}

    def uses(self, s: Symbol) -> bool:
        return bool((reduce(or_, self.terms, 0) >> SHIFTS[s.index]) & MASK)

    def uses_all_symbols_of(self, other: "Poly") -> bool:
        """False if other uses a symbol self does not use."""
        # (field of the OR of the keys | guard) - 1 keeps the guard iff field > 0
        mine, theirs = (((reduce(or_, f.terms, 0) | GUARDS) - (GUARDS >> (BITS - 1))) & GUARDS
                        for f in (self, other))
        return not theirs & ~mine

    def content_key(self) -> int:
        """Packed key of the largest monomial dividing every term."""
        if not self.terms:
            return 0
        content = None
        for key in self.terms:
            content = key if content is None else min_key(content, key)
            if not content:
                return 0
        return content

    # ------------------------------------------------------------------
    # arithmetic

    def __add__(self, other: "Poly") -> "Poly":
        if not self.terms:
            return other
        if not other.terms:
            return self
        return _combine(self, other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        if not other.terms:
            return self
        return _combine(self, other, -1)

    def __neg__(self) -> "Poly":
        return _combine(ZERO, self, -1)

    def __mul__(self, other: "Poly") -> "Poly":
        return _product(self, other)

    def mul_key(self, key: int) -> "Poly":
        """Multiply by the monomial with the given packed key."""
        if key == 0:
            return self
        out = {k + key: c for k, c in self.terms.items()}
        _check_keys(out)
        return Poly(out, self.den)

    def div_key(self, key: int) -> "Poly":
        """Divide by a monomial that must divide every term."""
        if key == 0:
            return self
        out = {}
        for k, c in self.terms.items():
            diff = (k | GUARDS) - key
            if diff & GUARDS != GUARDS:
                raise ValueError("monomial does not divide every term")
            out[diff ^ GUARDS] = c
        return Poly(out, self.den)

    def rename(self, moves: dict[Symbol, Symbol]) -> "Poly":
        """Move the exponent field of each symbol to its target's field.

        Raises ValueError if self already uses a target symbol.
        """
        used = reduce(or_, self.terms, 0)
        if any((used >> SHIFTS[b.index]) & MASK for b in moves.values()):
            raise ValueError("cannot rename onto a symbol the polynomial uses")
        fields = [(SHIFTS[a.index], SHIFTS[b.index]) for a, b in moves.items()
                  if (used >> SHIFTS[a.index]) & MASK]
        out = {}
        for k, c in self.terms.items():
            for src, dst in fields:
                e = (k >> src) & MASK
                k += (e << dst) - (e << src)
            out[k] = c
        return Poly(out, self.den)

    def div_int(self, n: int) -> "Poly":
        """Divide by a positive integer."""
        return self if n == 1 else _join(*_parts(self), self.den * n)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            base = base * base if n > 1 else base
            n >>= 1
        return ONE if result is None else result

    def try_div(self, divisor: "Poly") -> "Poly | None":
        """Exact polynomial division; None if the divisor does not divide.

        Fraction-free sparse reduction against the lex-leading term of the
        divisor's primitive part: by Gauss's lemma an exact quotient then
        has integer numerators, so the first remainder coefficient that the
        leading one does not divide settles "None", and so, before any
        reduction, does the trailing (lex-smallest) term.  A sqrt2 divisor M is
        first made rational by multiplying both sides by its conjugate.
        Used to cancel denominator factors that reappear inside expanded
        numerators during word composition.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return self
        (na, nb), (ma, mb) = _parts(self), _parts(divisor)
        if mb:
            # (na + r nb)(ma - r mb) over (ma + r mb)(ma - r mb) = ma^2 - 2 mb^2
            na, nb = (
                _lin(_mul_terms(na, ma), 1, _mul_terms(nb, mb), -2),
                _lin(_mul_terms(nb, ma), 1, _mul_terms(na, mb), -1),
            )
            ma = _lin(_mul_terms(ma, ma), 1, _mul_terms(mb, mb), -2)
        g = gcd(*ma.values())
        if g != 1:
            ma = {k: c // g for k, c in ma.items()}
        qa = _div_terms(na, ma)
        qb = _div_terms(nb, ma)
        if qa is None or qb is None:
            return None
        dm = divisor.den
        if dm != 1:
            qa = {k: c * dm for k, c in qa.items()}
            qb = {k: c * dm for k, c in qb.items()}
        return _join(qa, qb, self.den * g)

    def partial(self, s: Symbol) -> "Poly":
        sh = SHIFTS[s.index]
        unit = 1 << sh

        def diff(terms: dict) -> dict:
            out = {}
            for key, c in terms.items():
                e = (key >> sh) & MASK
                if e:
                    out[key - unit] = c * e
            return out

        a, b = _parts(self)
        return _join(diff(a), diff(b), self.den)

    # ------------------------------------------------------------------
    # evaluation and slicing

    def eval_float(self, values: dict[Symbol, float]) -> float:
        total = 0.0
        items = [(SHIFTS[s.index], float(v)) for s, v in values.items()]
        for key, factor in self.float_coefficients():
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

        def split(terms: dict) -> dict[int, dict]:
            out: dict[int, dict] = {}
            for key, c in terms.items():
                e = (key >> sh) & MASK
                out.setdefault(e, {})[key - (e << sh)] = c
            return out

        a, b = _parts(self)
        sa, sb = split(a), split(b)
        return {e: _join(sa.get(e, {}), sb.get(e, {}), self.den) for e in {**sa, **sb}}

    # ------------------------------------------------------------------
    # equality / hashing (canonical form makes structural == semantic)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.den == other.den and self.terms == other.terms

    def __hash__(self) -> int:
        # By the stored integers, which are canonical (see module doc).  The
        # iteration order of a set of Poly atoms follows it, so no result may
        # depend on such an order.
        if self._hash is None:
            self._hash = hash((self.den, frozenset(self.terms.items())))
        return self._hash

    def __repr__(self) -> str:
        from .exprio import print_poly

        return f"Poly({print_poly(self)})"


def min_key(k1: int, k2: int) -> int:
    """Componentwise minimum of two packed monomial keys (gcd of monomials)."""
    ge = ((k1 | GUARDS) - k2) & GUARDS  # guard set where field of k1 >= k2
    mask = ge - (ge >> (BITS - 1))  # ... widened to the whole field
    return (k2 & mask) | (k1 & ~mask)


def _check_keys(terms: dict) -> None:
    """Raise MonomialOverflow if some key of a result has a guard bit set."""
    if reduce(or_, terms, 0) & GUARDS:
        raise MonomialOverflow("an exponent reached 2^15")


# ----------------------------------------------------------------------
# integer kernels on {key: int} maps with no zero values


def _mul_terms(a: dict, b: dict) -> dict:
    if len(a) > len(b):
        a, b = b, a
    out: dict[int, int] = {}
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
    _check_keys(out)
    return out


def _lin(x: dict, m: int, y: dict, n: int) -> dict:
    """m*x + n*y."""
    out = dict(x) if m == 1 else {k: c * m for k, c in x.items()}
    get = out.get
    for k, c in y.items():
        acc = get(k)
        if acc is None:
            out[k] = n * c
        else:
            s = acc + n * c
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def _div_terms(num: dict, div: dict) -> dict | None:
    """num / div over Z, or None if div does not divide num over Q.

    div must be primitive (its numerators have gcd 1); see Poly.try_div.
    """
    nt, dt = min(num, default=0), min(div)  # trailing terms multiply too
    if num and (((nt | GUARDS) - dt) & GUARDS != GUARDS or num[nt] % div[dt]):
        return None
    dlead = max(div)
    dcoeff = div[dlead]
    dtail = [(k, c) for k, c in div.items() if k != dlead]
    rem = dict(num)
    # max-heap of remainder keys; a key cancelled from rem stays behind stale
    heap = [-k for k in rem]
    heapify(heap)
    quo: dict[int, int] = {}
    while rem:
        rlead = -heappop(heap)
        c = rem.pop(rlead, 0)
        if not c:
            continue
        if rlead & GUARDS:
            raise MonomialOverflow("an exponent reached 2^15")
        diff = (rlead | GUARDS) - dlead
        if diff & GUARDS != GUARDS:
            return None  # leading monomial not divisible
        qcoeff, r = divmod(c, dcoeff)
        if r:
            return None  # an exact quotient would have integer numerators
        qkey = diff ^ GUARDS
        quo[qkey] = qcoeff
        for k, dc in dtail:
            key = qkey + k
            acc = rem.get(key)
            if acc is None:
                rem[key] = -qcoeff * dc
                heappush(heap, -key)
            else:
                s = acc - qcoeff * dc
                if s:
                    rem[key] = s
                else:
                    del rem[key]
    return quo


# ----------------------------------------------------------------------
# the sqrt2 split, normalisation, and the operations built on them


def _parts(p: Poly) -> tuple[dict, dict]:
    """Numerators of p as A + sqrt2*B, two {key: int} maps without zeros."""
    t = p.terms
    if not t or type(next(iter(t.values()))) is not tuple:
        return t, {}
    return (
        {k: c[0] for k, c in t.items() if c[0]},
        {k: c[1] for k, c in t.items() if c[1]},
    )


def _join(a: dict, b: dict, den: int) -> Poly:
    """Canonical Poly (a + sqrt2*b)/den from {key: int} maps without zeros."""
    if not a and not b:
        return ZERO
    if den != 1:
        g = gcd(den, *a.values(), *b.values())
        if g != 1:
            den //= g
            a = {k: c // g for k, c in a.items()}
            b = {k: c // g for k, c in b.items()}
    if b:
        return Poly({k: (a.get(k, 0), b.get(k, 0)) for k in {**a, **b}}, den)
    return Poly(a, den)


def _constant(a: int, b: int, den: int) -> Poly:
    """Canonical constant (a + sqrt2*b)/den."""
    return _join({0: a} if a else {}, {0: b} if b else {}, den)


def _combine(p: Poly, q: Poly, sign: int) -> Poly:
    """p + sign*q over the lcm of the two denominators."""
    dp, dq = p.den, q.den
    g = gcd(dp, dq)
    mp, mq = dq // g, sign * (dp // g)
    (pa, pb), (qa, qb) = _parts(p), _parts(q)
    return _join(_lin(pa, mp, qa, mq), _lin(pb, mp, qb, mq), dp * mp)


def _product(p: Poly, q: Poly) -> Poly:
    if not p.terms or not q.terms:
        return ZERO
    # values are immutable and canonical, so a unit factor returns the other
    if p.is_one():
        return q
    if q.is_one():
        return p
    (pa, pb), (qa, qb) = _parts(p), _parts(q)
    den = p.den * q.den
    if not pb and not qb:
        return _join(_mul_terms(pa, qa), {}, den)
    # (pa + r pb)(qa + r qb) = pa qa + 2 pb qb + r (pa qb + pb qa)
    return _join(
        _lin(_mul_terms(pa, qa), 1, _mul_terms(pb, qb), 2),
        _lin(_mul_terms(pa, qb), 1, _mul_terms(pb, qa), 1),
        den,
    )


_SQRT2_FLOAT = sqrt(2.0)

ZERO = Poly()
ONE = Poly.const(1)
SQRT2 = _constant(0, 1, 1)

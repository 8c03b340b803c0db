"""Substitution of rational functions for symbols: the one engine.

RatFn.substitute (through substitute_reduced) and the word action in groups
run FactoredFrac.substitute.  Composed generator words are birational, so
their reduced forms stay small, but naive num/den composition accumulates
huge common factors: the numerator of step k becomes divisible by images of
the denominators introduced at earlier steps, which cross-multiplication
cannot see without a GCD.  So a FactoredFrac keeps its denominator as a
multiset of unexpanded atoms (binding denominators and their images), and
the rule for cancelling them depends only on the bindings:

  * if every binding has denominator 1, structurally identical atoms on the
    two sides cancel and nothing else does; a RatFn then comes back as the
    substituted num over the substituted den, unreduced;
  * if some binding has a denominator, powers of the binding denominators
    are also peeled off each substituted polynomial, and the remaining
    denominator atoms are trial-divided into the expanded numerator (sparse
    trial division, which is unconditionally correct).

substitute_reduced drops the bindings its input does not use first; a word
letter's bindings are kept whole, because dividing after every rational
letter keeps word states small even where the state misses that binding.
Word actions never need ring addition at this level.
"""

from __future__ import annotations

from .poly import ONE as P_ONE, Poly
from .ratfn import DenominatorVanishes, RatFn
from .symbols import MASK, SHIFTS, Symbol


class FactoredFrac:
    __slots__ = ("num", "num_facs", "den_facs")

    def __init__(
        self,
        num: Poly,
        num_facs: dict[Poly, int] | None = None,
        den_facs: dict[Poly, int] | None = None,
    ):
        self.num = num
        self.num_facs = {f: e for f, e in (num_facs or {}).items() if e}
        self.den_facs = {f: e for f, e in (den_facs or {}).items() if e}

    @classmethod
    def from_ratfn(cls, f: RatFn) -> "FactoredFrac":
        den_facs = {} if f.den.is_one() else {f.den: 1}
        return cls(f.num, {}, den_facs)

    def to_ratfn(self) -> RatFn:
        return RatFn(_expand(self.num_facs, self.num), _expand(self.den_facs))

    def substitute(self, bindings: dict[Symbol, RatFn]) -> "FactoredFrac":
        # in binding order, so the peel order (and the printed form) does
        # not depend on Poly.__hash__
        binding_dens = list(dict.fromkeys(
            b.den for b in bindings.values() if not b.den.is_one()))
        images: dict[Poly, tuple[Poly, dict[Poly, int], dict[Poly, int]]] = {}

        def image(f: Poly) -> tuple[Poly, dict[Poly, int], dict[Poly, int]]:
            got = images.get(f)
            if got is None:
                body, extra_den = _subst_poly(f, bindings)
                split: dict[Poly, int] = {}
                if binding_dens and not body.is_zero():
                    body, split = _peel(body, binding_dens)
                got = (body, split, extra_den)
                images[f] = got
            return got

        # A vanishing denominator wins over a vanishing numerator: 0/0 raises.
        for f in self.den_facs:
            if image(f)[0].is_zero():
                raise DenominatorVanishes(
                    "a denominator factor maps to zero under substitution"
                )
        num_facs: dict[Poly, int] = {}
        den_facs: dict[Poly, int] = {}
        num_new, split, extra = image(self.num)
        for g, k in split.items():
            _bump(num_facs, g, k)
        for g, k in extra.items():
            _bump(den_facs, g, k)
        for f, e in self.num_facs.items():
            body, split, extra = image(f)
            if body.is_zero():
                return FactoredFrac(Poly.zero())
            _bump(num_facs, body, e)
            for g, k in split.items():
                _bump(num_facs, g, k * e)
            for g, k in extra.items():
                _bump(den_facs, g, k * e)
        for f, e in self.den_facs.items():
            body, split, extra = image(f)
            _bump(den_facs, body, e)
            for g, k in split.items():
                _bump(den_facs, g, k * e)
            for g, k in extra.items():
                _bump(num_facs, g, k * e)
        return FactoredFrac(num_new, num_facs, den_facs)._reduced(bool(binding_dens))

    def _reduced(self, trial_divide: bool) -> "FactoredFrac":
        num = self.num
        num_facs = dict(self.num_facs)
        den_facs = dict(self.den_facs)
        if num.is_zero():
            return FactoredFrac(num)
        # Identical atoms cancel outright.
        for f in list(den_facs):
            if f in num_facs:
                m = min(num_facs[f], den_facs[f])
                _bump(num_facs, f, -m)
                _bump(den_facs, f, -m)
        # Remaining denominator atoms may divide the expanded numerator.
        for f in list(den_facs) if trial_divide else ():
            if f.is_const():
                continue
            while den_facs.get(f, 0):
                quo = num.try_div(f)
                if quo is None:
                    break
                num = quo
                _bump(den_facs, f, -1)
        return FactoredFrac(num, num_facs, den_facs)

    def __repr__(self) -> str:
        return (
            f"FactoredFrac({len(self.num.terms)} terms,"
            f" num_facs={[(len(f.terms), e) for f, e in self.num_facs.items()]},"
            f" den_facs={[(len(f.terms), e) for f, e in self.den_facs.items()]})"
        )


def _bump(facs: dict[Poly, int], f: Poly, e: int) -> None:
    if f.is_one() or e == 0:
        return
    new = facs.get(f, 0) + e
    if new:
        facs[f] = new
    else:
        del facs[f]


def _expand(facs: dict[Poly, int], into: Poly | None = None) -> Poly:
    """into * prod(f^e), with no multiplication by the constant 1."""
    for f, e in facs.items():
        f = f**e
        into = f if into is None else into * f
    return P_ONE if into is None else into


def _peel(poly: Poly, dens: list[Poly]) -> tuple[Poly, dict[Poly, int]]:
    """Split off the powers of binding denominators hiding inside poly."""
    counts: dict[Poly, int] = {}
    for b in dens:
        while True:
            quo = poly.try_div(b)
            if quo is None:
                break
            poly = quo
            counts[b] = counts.get(b, 0) + 1
    return poly, counts


def _powers(x: Poly, d: int) -> list[Poly]:
    pows = [P_ONE, x]
    for _ in range(d - 1):
        pows.append(pows[-1] * x)
    return pows


def _subst_poly(
    poly: Poly, bindings: dict[Symbol, RatFn]
) -> tuple[Poly, dict[Poly, int]]:
    """Substitute into a polynomial, returning num and factored denominator.

    The denominator is the product over bound symbols s of den(s)^max_deg(s),
    kept as a factor -> exponent map so the caller can cancel factors shared
    between two substituted polynomials exactly.  Each term starts from its
    integer numerator, and the sum is divided by poly.den once at the end.
    """
    tables = []
    factors: dict[Poly, int] = {}
    bound = 0  # the key fields of the symbols substituted
    for s, b in bindings.items():
        d = poly.max_exponent(s)
        if not d:
            continue
        sh = SHIFTS[s.index]
        bound |= MASK << sh
        den_pows = None
        if not b.den.is_one():
            den_pows = _powers(b.den, d)
            factors[b.den] = factors.get(b.den, 0) + d
        tables.append((sh, d, _powers(b.num, d), den_pows))
    if not tables:
        return poly, {}
    result = Poly.zero()
    for key, term in poly.numerator_terms(bound):
        for sh, d, num_pows, den_pows in tables:
            e = (key >> sh) & MASK
            if e:
                term = term * num_pows[e]
            if den_pows and d > e:
                term = term * den_pows[d - e]
        result = result + term
    return result.div_int(poly.den), factors


def substitute_reduced(f: RatFn, bindings: dict[Symbol, RatFn]) -> RatFn:
    """Simultaneously substitute rational functions for symbols in f.

    This is RatFn.substitute.  Unbound symbols map to themselves; bindings f
    does not use and identity bindings are dropped before the engine picks
    its reduction.  Raises DenominatorVanishes if the composed denominator
    is identically zero.
    """
    live = {
        s: b
        for s, b in bindings.items()
        if f.uses(s) and not (b.den.is_one() and b.num == Poly.variable(s))
    }
    if not live:
        return f
    return FactoredFrac.from_ratfn(f).substitute(live).to_ratfn()

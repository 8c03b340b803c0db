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
    (one that is the power a^k of another counts as a^k) are also peeled
    off each substituted polynomial, and the remaining denominator atoms are
    trial-divided into the expanded numerator (sparse trial division, which
    is unconditionally correct).

Each polynomial cancels before it expands: its terms divide the binding
denominators into their own factors and are summed over the lcm of what they
keep; the peel then takes the powers the lcm spared, so the result is the
one that peeling the fully expanded product would give.  While no power is
pending, the peel skips a binding denominator that uses a symbol the
polynomial does not: it cannot divide it.

An ImageTable holds what depends only on the bindings: the binding data
(roots and the atoms to peel), each atom's image, and the word states of
groups.  A word letter has one for the process, so each (state, letter)
step runs once; the powers of binding numerators and denominators, and the
trial divisions between them, are kept by value.  substitute_reduced drops
the bindings its input does not use first; a letter's bindings are kept
whole, because dividing after every rational letter keeps word states small
even where the state misses that binding.  Word actions never need ring
addition at this level.
"""

from __future__ import annotations

from functools import cache

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

    def substitute(
        self, bindings: dict[Symbol, RatFn], images: "ImageTable | None" = None
    ) -> "FactoredFrac":
        """The image under the simultaneous substitution `bindings`.

        `images` is the ImageTable of `bindings`: callers may share one
        across calls only when every call passes the same bindings; its
        entries are read, never mutated.
        """
        if images is None:
            images = ImageTable(bindings)
        roots, binding_dens = images.roots, images.dens

        def image(f: Poly) -> tuple[Poly, dict[Poly, int], dict[Poly, int]]:
            got = images.get(f)
            if got is None:
                body, pending, extra_den = _subst_poly(f, bindings, roots)
                split: dict[Poly, int] = {}
                if binding_dens and not body.is_zero():
                    body, split = _peel(body, binding_dens, pending)
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
            if f.is_const() or not f.ends_may_divide([(num, 1)]):
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


class ImageTable(dict):
    """{atom: (body, split, extra denominators)} under one set of bindings.

    roots and dens, the binding data, are in binding order, so the peel
    order (and the printed form) does not depend on Poly.__hash__; `states`
    holds whole images under keys the caller picks (groups: word, fraction).
    """

    __slots__ = ("roots", "dens", "states")

    def __init__(self, bindings: dict[Symbol, RatFn]):
        super().__init__()
        self.states: dict = {}
        self.roots = _binding_roots(tuple(dict.fromkeys(
            b.den for b in bindings.values() if not b.den.is_one())))
        self.dens = list(dict.fromkeys(a for a, _ in self.roots.values()))


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


def _peel(poly: Poly, dens: list[Poly], pending: dict) -> tuple[Poly, dict[Poly, int]]:
    """Split off each binding denominator in turn, as often as it divides
    poly * prod(pending), using up pending: its powers go first, and the
    product is expanded only when a denominator may divide it but not poly.
    With nothing pending, a denominator using a symbol poly lacks is skipped."""
    counts: dict[Poly, int] = {}
    for b in dens:
        while True:
            if pending.get(b):
                pending[b] -= 1
            else:
                if not any(pending.values()) and not poly.uses_all_symbols_of(b):
                    break
                quo = poly.try_div(b)
                if quo is None and any(pending.values()) and b.ends_may_divide(
                        [(poly, 1), *pending.items()]):
                    poly, pending = _expand(pending, poly), {}
                    quo = poly.try_div(b)
                if quo is None:
                    break
                poly = quo
            counts[b] = counts.get(b, 0) + 1
    return poly, counts


@cache
def _binding_roots(dens: tuple[Poly, ...]) -> dict[Poly, tuple[Poly, int]]:
    """{d: (a, k)} with d = a**k for another binding denominator a (k >= 2),
    else (d, 1).  a**k is formed only when each exponent in the lex-leading
    and trailing keys of d is k times a's.  Kept for the process."""
    def ends(f: Poly) -> list[int]:
        return [(key >> sh) & MASK for key in (max(f.terms), min(f.terms)) for sh in SHIFTS]

    roots = {d: (d, 1) for d in dens}
    for d in dens:
        for a in dens:
            k = 0 if a is d or a.is_const() else max(ends(d)) // max(ends(a))
            if k >= 2 and ends(d) == [k * e for e in ends(a)] and a**k == d:
                roots[d] = (a, k)
                break
    return roots


# kept by value: each power and trial division is computed once per process
_power = cache(Poly.__pow__)
_quotient = cache(Poly.try_div)


def _subst_poly(
    poly: Poly, bindings: dict[Symbol, RatFn], roots: dict[Poly, tuple[Poly, int]]
) -> tuple[Poly, dict[Poly, int], dict[Poly, int]]:
    """(num, pending, den): the image is num * prod(pending) / prod(den),
    den = prod over s of a^(k*max_deg(s)), where den(s) = a^k in `roots`.
    Terms with equal exponents e(s) form a group; each atom a is
    trial-divided into the group's num(s)^e(s) first, the groups are summed
    over the lcm of the powers they keep, and den over that lcm is pending."""
    tables = []
    top: dict[Poly, int] = {}  # den: atom -> power, binding order
    bound = 0  # the key fields of the symbols substituted
    for s, b in bindings.items():
        d = poly.max_exponent(s)
        if not d:
            continue
        sh = SHIFTS[s.index]
        bound |= MASK << sh
        root = roots.get(b.den)  # None for a polynomial binding
        if root:
            top[root[0]] = top.get(root[0], 0) + root[1] * d
        tables.append((sh, b.num, root))
    if not tables:
        return poly, {}, {}
    groups = []
    kept = dict.fromkeys(top, 0)  # the lcm of the kept powers
    for key, coeff in poly.numerator_groups(bound).items():
        factors = []
        left = dict.fromkeys(top, 0)
        for sh, num, root in tables:
            e = (key >> sh) & MASK
            if e:
                factors.append(_power(num, e))
                if root:
                    left[root[0]] += root[1] * e
        for den in top:
            for i, f in enumerate(factors):
                while left[den]:
                    quo = _quotient(f, den)
                    if quo is None:
                        break
                    f = factors[i] = quo
                    left[den] -= 1
            kept[den] = max(kept[den], left[den])
        groups.append((coeff, factors, left))
    result = Poly.zero()
    for coeff, factors, left in groups:
        factors += [_power(den, kept[den] - e) for den, e in left.items() if kept[den] > e]
        for f in factors:
            coeff = coeff * f
        result = result + coeff
    pending = {den: top[den] - kept[den] for den in top}
    return result.div_int(poly.den), pending, top


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

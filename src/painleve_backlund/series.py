"""Truncated Laurent series in eps with eps-free rational-function coefficients.

A series stores the coefficients it knows exactly, from its valuation up to
and including its truncation order N; everything above N is unknown.  All
arithmetic propagates truncation honestly (products shift by valuations).
Finitely many negative orders are allowed, with a hard global floor at
eps^-12: any operation that would need terms below the floor fails loudly
instead of silently truncating.

Fractional powers are never represented symbolically.  They enter only
through binomial_series, which expands (1 + x)^c with constant term 1 and
exact generalized binomial coefficients; branch choices are made by whoever
builds the series.
"""

from __future__ import annotations

from math import gcd

from .exprio import print_expr, print_series
from .poly import Poly
from .ratfn import RatFn, ratfn_equal
from .symbols import MASK, SHIFTS, Symbol, eps as EPS

FLOOR = -12


class NotExpandable(ArithmeticError):
    """A rational function has no Laurent expansion around eps = 0."""


class DivisionByZeroSeries(ZeroDivisionError):
    """Division by the zero series."""


class NonpositiveValuation(ValueError):
    """binomial_series needs an argument of valuation >= 1."""


class FloorExceeded(ArithmeticError):
    """An operation needed coefficients below the global eps^-12 floor."""


class DivergesAtZero(ArithmeticError):
    """A series with a nonzero negative-order coefficient has no eps->0 limit."""

    def __init__(self, order: int, coeff: RatFn):
        super().__init__(
            f"diverges as eps -> 0: nonzero coefficient at order {order}: "
            f"{print_expr(coeff)}"
        )
        self.order = order
        self.coeff = coeff


class EpsSeries:
    __slots__ = ("coeffs", "trunc")

    def __init__(self, coeffs: dict[int, RatFn], trunc: int):
        clean: dict[int, RatFn] = {}
        for n, c in coeffs.items():
            if c.is_zero() or n > trunc:
                continue
            if n < FLOOR:
                raise FloorExceeded(f"coefficient at order {n} is below eps^{FLOOR}")
            if c.uses(EPS):
                raise ValueError("series coefficients must be free of eps")
            clean[n] = c
        self.coeffs = clean
        self.trunc = trunc

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, trunc: int) -> "EpsSeries":
        return cls({}, trunc)

    @classmethod
    def const(cls, value, trunc: int) -> "EpsSeries":
        return cls({0: RatFn.of(value)}, trunc)

    @classmethod
    def eps_power(cls, n: int, trunc: int) -> "EpsSeries":
        return cls({n: RatFn.const(1)}, trunc)

    @classmethod
    def from_ratfn(cls, f: RatFn, trunc: int) -> "EpsSeries":
        """Laurent expansion of f around eps = 0, to the given order.

        Writes f = eps^(a-b) (sum u_i eps^i) / (sum w_j eps^j) with
        u_0, w_0 nonzero polynomials in the remaining symbols, then inverts
        the denominator by the geometric recursion, carried on polynomial
        numerators over the implicit common denominator w_0^(k+1) so no
        intermediate fraction arithmetic is needed.
        """
        if f.is_zero():
            return cls.zero(trunc)
        num_slices = f.num.slices(EPS)
        den_slices = f.den.slices(EPS)
        if not den_slices:
            raise NotExpandable("zero denominator")
        a = min(num_slices)
        b = min(den_slices)
        shift = a - b
        rel_n = trunc - shift
        if rel_n < 0:
            return cls.zero(trunc)
        if shift < FLOOR:
            raise FloorExceeded(f"valuation {shift} is below eps^{FLOOR}")
        u = {k - a: poly for k, poly in num_slices.items()}
        w = {k - b: poly for k, poly in den_slices.items()}
        w0 = w[0]
        w0_pows = [Poly.const(1), w0]

        def w0_pow(k: int) -> Poly:
            while len(w0_pows) <= k:
                w0_pows.append(w0_pows[-1] * w0)
            return w0_pows[k]

        # inverse relative series: v_k = p_k / w0^(k+1)
        p = {0: Poly.const(1)}
        for k in range(1, rel_n + 1):
            acc = Poly.zero()
            for j, wj in w.items():
                if 1 <= j <= k:
                    acc = acc + wj * p[k - j] * w0_pow(j - 1)
            p[k] = -acc
        coeffs: dict[int, RatFn] = {}
        for m in range(rel_n + 1):
            acc = Poly.zero()
            for i, ui in u.items():
                if 0 <= m - i:
                    acc = acc + ui * p[m - i] * w0_pow(i)
            if not acc.is_zero():
                coeffs[m + shift] = RatFn(acc, w0_pow(m + 1))
        return cls(coeffs, trunc)

    # ------------------------------------------------------------------
    # inspection

    def is_zero(self) -> bool:
        return not self.coeffs

    def valuation(self) -> int | None:
        """Lowest order with nonzero coefficient; None for the zero series."""
        return min(self.coeffs) if self.coeffs else None

    def coeff(self, n: int) -> RatFn:
        return self.coeffs.get(n, RatFn.const(0))

    def truncate(self, m: int) -> "EpsSeries":
        if m > self.trunc:
            raise ValueError(f"cannot extend truncation {self.trunc} to {m}")
        return EpsSeries({n: c for n, c in self.coeffs.items() if n <= m}, m)

    def limit_eps0(self) -> RatFn:
        """The order-0 coefficient, provided no negative order survives;
        unknown (ValueError) when the truncation lies below order 0."""
        negatives = [n for n in self.coeffs if n < 0]
        if negatives:
            n = min(negatives)
            raise DivergesAtZero(n, self.coeffs[n])
        if self.trunc < 0:
            raise ValueError(f"the order-0 coefficient is unknown at truncation {self.trunc}")
        return self.coeffs.get(0, RatFn.const(0))

    # ------------------------------------------------------------------
    # ring arithmetic

    def __add__(self, other: "EpsSeries") -> "EpsSeries":
        trunc = min(self.trunc, other.trunc)
        out = dict(self.coeffs)
        for n, c in other.coeffs.items():
            out[n] = out[n] + c if n in out else c
        return EpsSeries(out, trunc)

    def __sub__(self, other: "EpsSeries") -> "EpsSeries":
        trunc = min(self.trunc, other.trunc)
        out = dict(self.coeffs)
        for n, c in other.coeffs.items():
            out[n] = out[n] - c if n in out else -c
        return EpsSeries(out, trunc)

    def __neg__(self) -> "EpsSeries":
        return EpsSeries({n: -c for n, c in self.coeffs.items()}, self.trunc)

    def scale(self, value) -> "EpsSeries":
        c = RatFn.of(value)
        return EpsSeries({n: coeff * c for n, coeff in self.coeffs.items()}, self.trunc)

    def shift(self, k: int) -> "EpsSeries":
        """Multiply by eps^k exactly."""
        return EpsSeries(
            {n + k: c for n, c in self.coeffs.items()}, self.trunc + k
        )

    def __mul__(self, other: "EpsSeries") -> "EpsSeries":
        if not self.coeffs or not other.coeffs:
            return EpsSeries.zero(min(self.trunc, other.trunc))
        va, vb = min(self.coeffs), min(other.coeffs)
        trunc = min(self.trunc + vb, other.trunc + va)
        out: dict[int, RatFn] = {}
        for n, cn in self.coeffs.items():
            for m, cm in other.coeffs.items():
                k = n + m
                if k > trunc:
                    continue
                prod = cn * cm
                out[k] = out[k] + prod if k in out else prod
        return EpsSeries(out, trunc)

    def inverse(self) -> "EpsSeries":
        """Multiplicative inverse by the coefficient recurrence.

        With self = eps^v * sum_j c_{v+j} eps^j, the inverse is
        eps^-v * sum_k d_k eps^k, where d_0 = 1/c_v and
        d_k = -(1/c_v) * sum_{j=1..k} c_{v+j} d_{k-j}.
        """
        if not self.coeffs:
            raise DivisionByZeroSeries("inverse of the zero series")
        v = min(self.coeffs)
        if -v < FLOOR:
            raise FloorExceeded(f"inverse valuation {-v} is below eps^{FLOOR}")
        c = self.coeffs
        d = [c[v].inverse()]
        for k in range(1, self.trunc - v + 1):
            total = RatFn.const(0)
            for j in range(1, k + 1):
                if v + j in c and not d[k - j].is_zero():
                    total = total + c[v + j] * d[k - j]
            d.append(-(total * d[0]))
        return EpsSeries({k - v: dk for k, dk in enumerate(d)}, self.trunc - 2 * v)

    def __truediv__(self, other: "EpsSeries") -> "EpsSeries":
        return self * other.inverse()

    def __pow__(self, n: int) -> "EpsSeries":
        if n < 0:
            return self.inverse() ** (-n)
        result = EpsSeries.const(1, self.trunc)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __repr__(self) -> str:
        return f"EpsSeries({print_series(self)})"


def series_equal(s: EpsSeries, t: EpsSeries) -> bool:
    """Coefficientwise semantic equality up to the shared truncation order."""
    trunc = min(s.trunc, t.trunc)
    orders = {n for n in s.coeffs if n <= trunc} | {n for n in t.coeffs if n <= trunc}
    return all(ratfn_equal(s.coeff(n), t.coeff(n)) for n in orders)


def rational_pair(c) -> tuple[int, int]:
    """An exact rational (int, Fraction or 'p/q' text) as (n, d) in lowest
    terms with d > 0."""
    if isinstance(c, str):
        n, _, d = c.partition("/")
        n, d = int(n), int(d or 1)
        if d == 0:
            raise ZeroDivisionError(f"zero denominator in {c!r}")
        g = gcd(n, d) if d > 0 else -gcd(n, d)
        return n // g, d // g
    return c.as_integer_ratio()


def binomial_series(x: EpsSeries, c, trunc: int | None = None) -> "EpsSeries":
    """(1 + x)^c as a formal series with constant term 1.

    c is an exact rational (see rational_pair); x must have valuation >= 1 so
    composition into the binomial expansion is well defined.  The binomial
    coefficients are carried as integer pairs (n, d), d > 0.
    """
    p, q = rational_pair(c)
    if trunc is None:
        trunc = x.trunc
    v = x.valuation()
    if v is not None and v <= 0:
        raise NonpositiveValuation(
            f"binomial argument has a term of order {v} <= 0"
        )
    x = x.truncate(min(trunc, x.trunc))
    result = EpsSeries.const(1, trunc)
    power = EpsSeries.const(1, trunc)
    n, d = 1, 1
    if v is None:
        return result
    k = 0
    while (k + 1) * v <= trunc:
        k += 1
        # binom(c, k) = binom(c, k-1) * (c - k + 1)/k, with c = p/q
        n, d = n * (p - (k - 1) * q), d * q * k
        g = gcd(n, d)
        n, d = n // g, d // g
        power = power * x
        if power.is_zero():
            break
        result = result + power.scale(Poly.const(n).div_int(d))
    return result


def ratfn_eps_valuation(f: RatFn) -> int | None:
    """Exact eps-valuation of a rational function; None for zero."""
    if f.is_zero():
        return None
    return min(f.num.slices(EPS)) - min(f.den.slices(EPS))


def ratfn_limit_eps0(f: RatFn) -> RatFn:
    """Direct eps -> 0 limit of an exact rational function.

    Works from the eps-slices without expanding a series: the valuation and
    the leading coefficient are read off the lowest slices.
    """
    if f.is_zero():
        return f
    num_slices = f.num.slices(EPS)
    den_slices = f.den.slices(EPS)
    a, b = min(num_slices), min(den_slices)
    lead = RatFn(num_slices[a]) / RatFn(den_slices[b])
    if a < b:
        raise DivergesAtZero(a - b, lead)
    if a > b:
        return RatFn.const(0)
    return lead


def poly_at_series(
    poly: Poly, args: dict[Symbol, EpsSeries], trunc: int
) -> EpsSeries:
    """Evaluate a polynomial at series arguments.

    Every symbol the polynomial uses must be bound.  Series powers are cached
    across terms.
    """
    result = EpsSeries.zero(trunc)
    powers: dict[tuple[int, int], EpsSeries] = {}
    for key, a, b, d in poly.int_coefficients():
        term = EpsSeries.const(Poly.const(a, b).div_int(d), trunc)
        rest = key
        for s, value in args.items():
            sh = SHIFTS[s.index]
            e = (key >> sh) & MASK
            if e:
                rest -= e << sh
                cache_key = (s.index, e)
                pw = powers.get(cache_key)
                if pw is None:
                    pw = value**e
                    powers[cache_key] = pw
                term = term * pw
        if rest:
            raise ValueError("unbound symbol in series evaluation")
        result = result + term
    return result


def ratfn_at_series(
    f: RatFn, args: dict[Symbol, EpsSeries], trunc: int
) -> EpsSeries:
    """Evaluate a rational function at series arguments."""
    num = poly_at_series(f.num, args, trunc)
    den = poly_at_series(f.den, args, trunc)
    if den.is_zero():
        raise DivisionByZeroSeries("denominator vanishes as a series")
    return num / den

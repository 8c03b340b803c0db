"""Textual grammar for exact expressions.

    expression := term (('+'|'-') term)*        leading '+'/'-' allowed
    term       := factor (('*'|'/') factor)*
    factor     := base ('^' integer)?
    base       := number | 'sqrt2' | symbol | '(' expression ')'
    number     := integer
    symbol     := registry name (alpha0..alpha4, A0..A3, eps, t, q, p,
                  T, Q, P, tau, x, y)

'^' binds tighter than '*' and '/'.  Rationals are written with the division
operator ("1/2"), which evaluates to the same exact value.  Whitespace is
insignificant.  The same grammar is the fixture file format: one expression
per line, '#' starts a comment.

Printing is deterministic: terms are emitted in descending global monomial
order, so equal canonical values print identically, and parse(print_expr(f))
is semantically equal to f.
"""

from __future__ import annotations

from .poly import SQRT2, Poly
from .ratfn import RatFn
from .symbols import MASK, REGISTRY, SHIFTS, _BY_NAME


class ExprSyntaxError(ValueError):
    """Malformed expression text; carries the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class UnknownSymbol(ValueError):
    """A name outside the fixed symbol registry."""


# ----------------------------------------------------------------------
# tokenizer

_OPS = set("+-*/^()")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _OPS:
            tokens.append(("op", ch, i))
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("num", text[i:j], i))
            i = j
        elif ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        else:
            raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value, at = self.peek()
        if kind != "op" or value != op:
            raise ExprSyntaxError(f"expected {op!r}", at)
        self.advance()

    def expression(self) -> RatFn:
        sign = 1
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            self.advance()
            sign = -1 if value == "-" else 1
        result = self.term()
        if sign < 0:
            result = -result
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                result = result + rhs if value == "+" else result - rhs
            else:
                return result

    def term(self) -> RatFn:
        result = self.factor()
        while True:
            kind, value, at = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                rhs = self.factor()
                if value == "*":
                    result = result * rhs
                else:
                    if rhs.is_zero():
                        raise ExprSyntaxError("division by zero", at)
                    result = result / rhs
            else:
                return result

    def factor(self) -> RatFn:
        base = self.base()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            exp = self.integer()
            return base**exp
        return base

    def integer(self) -> int:
        sign = 1
        kind, value, at = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            sign = -1
            kind, value, at = self.peek()
        if kind != "num":
            raise ExprSyntaxError("expected integer exponent", at)
        self.advance()
        return sign * int(value)

    def base(self) -> RatFn:
        kind, value, at = self.advance()
        if kind == "num":
            return RatFn.const(int(value))
        if kind == "name":
            if value == "sqrt2":
                return RatFn(SQRT2)
            if value not in _BY_NAME:
                raise UnknownSymbol(f"unknown symbol {value!r} (at position {at})")
            return RatFn.variable(_BY_NAME[value])
        if kind == "op" and value == "(":
            inner = self.expression()
            self.expect_op(")")
            return inner
        raise ExprSyntaxError("expected number, symbol, or '('", at)


def parse_expr(text: str) -> RatFn:
    """Parse an expression into an exact rational function."""
    parser = _Parser(text)
    result = parser.expression()
    kind, _, at = parser.peek()
    if kind != "end":
        raise ExprSyntaxError("trailing input", at)
    return result


# ----------------------------------------------------------------------
# printer

def _fraction_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _coeff_parts(a: Fraction, b: Fraction) -> tuple[bool, str]:
    """Return (negated, magnitude-string) for a coefficient a + b*sqrt2.

    Mixed a + b*sqrt2 coefficients are emitted fully parenthesized and never
    report a sign of their own.
    """
    if not b:
        neg = a < 0
        mag = -a if neg else a
        return neg, _fraction_str(mag)
    if not a:
        neg = b < 0
        mag = -b if neg else b
        if mag == 1:
            return neg, "sqrt2"
        return neg, f"{_fraction_str(mag)}*sqrt2"
    a_str = _fraction_str(a)
    bneg, b_str = _coeff_parts(0, b)
    joiner = " - " if bneg else " + "
    return False, f"({a_str}{joiner}{b_str})"


def _monomial_str(key: int) -> str:
    parts = []
    for s in REGISTRY:
        e = (key >> SHIFTS[s.index]) & MASK
        if e == 1:
            parts.append(s.name)
        elif e > 1:
            parts.append(f"{s.name}^{e}")
    return "*".join(parts)


def print_poly(poly: Poly) -> str:
    if poly.is_zero():
        return "0"
    pieces = []
    for key, a, b in sorted(poly.coefficients(), reverse=True):
        neg, coeff = _coeff_parts(a, b)
        mono = _monomial_str(key)
        if not mono:
            body = coeff
        elif coeff == "1":
            body = mono
        else:
            body = f"{coeff}*{mono}"
        pieces.append((neg, body))
    first_neg, first = pieces[0]
    out = ("-" if first_neg else "") + first
    for neg, body in pieces[1:]:
        out += (" - " if neg else " + ") + body
    return out


def _needs_parens_as_denominator(poly: Poly) -> bool:
    if len(poly.terms) != 1:
        return True
    key = next(iter(poly.terms))
    nsyms = sum(1 for sh in SHIFTS if (key >> sh) & MASK)
    return nsyms != 1  # lone "q" or "q^2" is safe after '/'


def print_expr(f: RatFn) -> str:
    """Deterministic text form; parse_expr(print_expr(f)) equals f."""
    num = print_poly(f.num)
    if f.den.is_one():
        return num
    if len(f.num.terms) > 1:
        num = f"({num})"
    den = print_poly(f.den)
    if _needs_parens_as_denominator(f.den):
        den = f"({den})"
    return f"{num}/{den}"


def print_series(series) -> str:
    """Series as ordered (order, coefficient) pairs plus truncation marker."""
    pairs = [f"({n}, {print_expr(c)})" for n, c in sorted(series.coeffs.items())]
    marker = f"O(eps^{series.trunc + 1})"
    if not pairs:
        return marker
    return " + ".join(pairs) + " + " + marker


# ----------------------------------------------------------------------
# fixtures

def load_fixtures(path) -> list[RatFn]:
    """Read a fixture file: one expression per line, '#' comments."""
    with open(path) as fh:
        text = fh.read()
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(parse_expr(line))
    return out

"""The fixed global symbol registry.

All polynomials share one variable universe, frozen at import time.  The
registry order doubles as the priority of the lexicographic monomial order:
symbols earlier in the list compare higher.

Monomials are stored as packed integers, one 16-bit field per symbol, with
symbol 0 in the most significant field.  Packing makes monomial
multiplication a single integer addition and makes the numeric order of the
packed keys coincide with the lexicographic monomial order.  The top bit of
each field is a guard: exponents stay below 2^15, so the sum of two keys
never carries into the next field, and a set guard bit flags an exponent
that has outgrown its field.
"""

from __future__ import annotations


class Symbol:
    """A registered variable: identity is by name, order is by index."""

    __slots__ = ("name", "index")

    def __init__(self, name: str, index: int):
        self.name = name
        self.index = index

    def __repr__(self) -> str:
        return self.name

    def __hash__(self) -> int:
        return hash(self.name)

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, Symbol) and self.name == other.name)


NAMES = (
    "alpha0", "alpha1", "alpha2", "alpha3", "alpha4",
    "A0", "A1", "A2", "A3",
    "eps", "t", "q", "p", "T", "Q", "P",
    "tau", "x", "y",
)

NSYM = len(NAMES)
BITS = 16
MASK = (1 << BITS) - 1

REGISTRY = tuple(Symbol(name, i) for i, name in enumerate(NAMES))
_BY_NAME = {s.name: s for s in REGISTRY}

# Shift of each symbol's exponent field inside a packed monomial key.
SHIFTS = tuple((NSYM - 1 - i) * BITS for i in range(NSYM))
# The guard bit of every field; a valid key has none of them set.
GUARDS = sum(1 << (sh + BITS - 1) for sh in SHIFTS)


def sym(name: str) -> Symbol:
    """Look up a registered symbol by name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown symbol {name!r}; registry is fixed") from None


def var_key(s: Symbol) -> int:
    """Packed monomial key of the bare variable s."""
    return 1 << SHIFTS[s.index]


# Named handles for the symbols the formulas use all the time.
alpha = tuple(_BY_NAME[f"alpha{i}"] for i in range(5))
A = tuple(_BY_NAME[f"A{i}"] for i in range(4))
eps = _BY_NAME["eps"]
t_ = _BY_NAME["t"]
q_ = _BY_NAME["q"]
p_ = _BY_NAME["p"]
T_ = _BY_NAME["T"]
Q_ = _BY_NAME["Q"]
P_ = _BY_NAME["P"]
tau = _BY_NAME["tau"]
x_ = _BY_NAME["x"]
y_ = _BY_NAME["y"]

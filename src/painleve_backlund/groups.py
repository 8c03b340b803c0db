"""Backlund transformation groups of the systems VI, V, IV, III, II.

Each generator is a named substitution on the field generators
(alpha..., t, q, p); symbols a table row leaves fixed are simply absent from
the action map.  The tables and the fundamental-relation schemes are data,
one block per group, so they can be audited entry by entry.  A group's
generators are parsed from its table on first use, so a command builds
only the groups it asks for; the factored engine loads with the first word
action, so `numeric backlund` never loads it.

Word composition convention: apply_word((u, v), f) = u(v(f)), i.e. the
rightmost letter acts first and each application is a simultaneous
substitution of that letter's table into the accumulated expression.
A letter's bindings never change, so the image of each atom under it is
computed once per process: every word action shares the letter's image
table (_letter_images), and words that pass through the same intermediate
factors, as the relations of one group do, substitute each factor once.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache

from .exprio import parse_expr
from .ratfn import RatFn, ratfn_equal
from .symbols import Symbol, p_, q_, sym, t_
from .systems import (
    UnsupportedSystem,
    derivation_apply,
    equal_mod_constraint,
    poisson_bracket,
    system,
)

Word = tuple[str, ...]

_TABLES: dict[str, dict[str, dict[str, str]]] = {
    "VI": {
        "s0": {"alpha0": "-alpha0", "alpha2": "alpha2+alpha0",
               "p": "p - alpha0/(q-t)"},
        "s1": {"alpha1": "-alpha1", "alpha2": "alpha2+alpha1"},
        "s2": {"alpha0": "alpha0+alpha2", "alpha1": "alpha1+alpha2",
               "alpha2": "-alpha2", "alpha3": "alpha3+alpha2",
               "alpha4": "alpha4+alpha2", "q": "q + alpha2/p"},
        "s3": {"alpha2": "alpha2+alpha3", "alpha3": "-alpha3",
               "p": "p - alpha3/(q-1)"},
        "s4": {"alpha2": "alpha2+alpha4", "alpha4": "-alpha4",
               "p": "p - alpha4/q"},
    },
    "V": {
        "s0": {"alpha0": "-alpha0", "alpha1": "alpha1+alpha0",
               "alpha3": "alpha3+alpha0", "q": "q + alpha0/(p+t)"},
        "s1": {"alpha0": "alpha0+alpha1", "alpha1": "-alpha1",
               "alpha2": "alpha2+alpha1", "p": "p - alpha1/q"},
        "s2": {"alpha1": "alpha1+alpha2", "alpha2": "-alpha2",
               "alpha3": "alpha3+alpha2", "q": "q + alpha2/p"},
        "s3": {"alpha0": "alpha0+alpha3", "alpha2": "alpha2+alpha3",
               "alpha3": "-alpha3", "p": "p - alpha3/(q-1)"},
    },
    "IV": {
        "s0": {"alpha0": "-alpha0", "alpha1": "alpha1+alpha0",
               "alpha2": "alpha2+alpha0", "q": "q + 2*alpha0/(2*p-q-2*t)",
               "p": "p + alpha0/(2*p-q-2*t)"},
        "s1": {"alpha0": "alpha0+alpha1", "alpha1": "-alpha1",
               "alpha2": "alpha2+alpha1", "p": "p - alpha1/q"},
        "s2": {"alpha0": "alpha0+alpha2", "alpha1": "alpha1+alpha2",
               "alpha2": "-alpha2", "q": "q + alpha2/p"},
    },
    "III": {
        "s0": {"alpha0": "-alpha0", "alpha1": "alpha1+alpha0",
               "q": "q + alpha0/p"},
        "s1": {"alpha0": "alpha0+2*alpha1", "alpha1": "-alpha1",
               "alpha2": "alpha2+2*alpha1", "t": "-t",
               "p": "p - 2*alpha1/q + t/q^2"},
        "s2": {"alpha1": "alpha1+alpha2", "alpha2": "-alpha2",
               "q": "q + alpha2/(p-1)"},
    },
    "II": {
        "s0": {"alpha0": "-alpha0", "alpha1": "alpha1+2*alpha0",
               "q": "q + alpha0/(p-2*q^2-t)",
               "p": "p + 4*alpha0*q/(p-2*q^2-t)"
                    " + 2*alpha0^2/(p-2*q^2-t)^2"},
        "s1": {"alpha0": "alpha0+2*alpha1", "alpha1": "-alpha1",
               "q": "q + alpha1/p"},
    },
}

# Weyl group type, and the pairs (i, j) whose products have order 2, 3, 4.
_RELATION_SCHEMES = {
    "VI": ("D4(1)", [(0, 1), (0, 3), (0, 4), (1, 3), (1, 4), (3, 4)],
           [(0, 2), (1, 2), (3, 2), (4, 2)], []),
    "V": ("A3(1)", [(0, 2), (1, 3)], [(0, 1), (1, 2), (2, 3), (3, 0)], []),
    "IV": ("A2(1)", [], [(0, 1), (1, 2), (2, 0)], []),
    "III": ("C2(1)", [], [], [(0, 1), (1, 2)]),
    "II": ("A1(1)", [], [], []),
}

GROUP_LABELS = tuple(_TABLES)


class BacklundGen(namedtuple("BacklundGen", "group name action")):
    """One named generator: a substitution map on the field generators.

    action maps each Symbol the generator moves to its image RatFn.
    """

    __slots__ = ()

    def __call__(self, f: RatFn) -> RatFn:
        return f.substitute(self.action)

    def acts_on(self, s: Symbol) -> RatFn:
        return self.action.get(s, RatFn.variable(s))


@cache
def _build_group(label: str) -> dict[str, BacklundGen]:
    out = {}
    for name, rows in _TABLES[label].items():
        action = {sym(k): parse_expr(v) for k, v in rows.items()}
        out[name] = BacklundGen(label, name, action)
    return out


def _require_group(label: str) -> dict[str, BacklundGen]:
    if label not in _TABLES:
        if label == "I":
            raise UnsupportedSystem(
                "P_I has no Backlund transformation group; only its"
                " Hamiltonian and flow are available"
            )
        raise UnsupportedSystem(f"no Backlund group for label {label!r}")
    return _build_group(label)


def generators(label: str) -> list[BacklundGen]:
    """The generator list of W_J, in table order."""
    return list(_require_group(label).values())


def generator(label: str, name: str) -> BacklundGen:
    group = _require_group(label)
    try:
        return group[name]
    except KeyError:
        raise KeyError(f"W_{label} has no generator {name!r}") from None


def field_symbols(label: str) -> tuple[Symbol, ...]:
    """The field generators a W_J relation must fix: parameters, t, q, p."""
    return tuple(system(label).params) + (t_, q_, p_)


# ----------------------------------------------------------------------
# word action

@cache
def _word_on_symbol(label: str, word: Word, s: Symbol) -> RatFn:
    if not word:
        return RatFn.variable(s)
    return apply_word(label, word, RatFn.variable(s))


def apply_word(label: str, word: Word, f: RatFn) -> RatFn:
    """Act by the composite word, rightmost letter first.

    Composition runs on partially factored fractions so that denominator
    factors reappearing inside expanded numerators cancel along the way.
    """
    from .factored import FactoredFrac

    group = _require_group(label)
    for name in word:
        if name not in group:
            raise KeyError(f"W_{label} has no generator {name!r}")
    state = FactoredFrac.from_ratfn(f)
    for name in reversed(word):
        state = state.substitute(group[name].action, _letter_images(label, name))
    return state.to_ratfn()


@cache
def _letter_images(label: str, name: str) -> dict:
    """The atom image table of one letter, shared by all its word actions."""
    return {}


def verify_relation(label: str, word: Word) -> bool:
    """Check that the word acts as the identity on every field generator.

    A field automorphism fixing all generators is the identity, so checking
    the generators suffices.  For long words the two halves are compared
    instead (u v = e iff u = reversed(v) for involution letters), which
    halves the depth of the substitution towers.
    """
    word = tuple(word)
    if len(word) >= 6:
        k = len(word) // 2
        left, right = word[:k], tuple(reversed(word[k:]))
        return all(
            ratfn_equal(
                _word_on_symbol(label, left, s), _word_on_symbol(label, right, s)
            )
            for s in field_symbols(label)
        )
    return all(
        ratfn_equal(_word_on_symbol(label, word, s), RatFn.variable(s))
        for s in field_symbols(label)
    )


def fundamental_relations(label: str) -> list[tuple[str, Word]]:
    """The group's fundamental relation words, labelled for reporting."""
    group = _require_group(label)
    names = list(group)
    _, comm, braid3, braid4 = _RELATION_SCHEMES[label]
    rels: list[tuple[str, Word]] = []
    for name in names:
        rels.append((f"{name}^2", (name, name)))
    for (i, j), power in [(pair, 2) for pair in comm] + [
        (pair, 3) for pair in braid3
    ] + [(pair, 4) for pair in braid4]:
        u, v = names[i], names[j]
        rels.append((f"({u} {v})^{power}", (u, v) * power))
    return rels


def weyl_type(label: str) -> str:
    return _RELATION_SCHEMES[label][0]


# ----------------------------------------------------------------------
# per-generator checks

def verify_symplectic(label: str, gen: BacklundGen) -> bool:
    """{g(p), g(q)} must equal 1 exactly."""
    bracket = poisson_bracket(gen.acts_on(p_), gen.acts_on(q_))
    return ratfn_equal(bracket, RatFn.const(1))


def derivation_mismatch(label: str, gen: BacklundGen) -> tuple[Symbol, RatFn, RatFn] | None:
    """(x, delta(g(x)), g(delta(x))) for the first x where the two differ, or None.

    The identity holds on the constraint hyperplane (the Hamiltonians are
    normalized against the parameter sum), so both sides are compared after
    eliminating alpha0 by the constraint.
    """
    for s in field_symbols(label):
        lhs = derivation_apply(label, gen.acts_on(s))
        rhs = gen(derivation_apply(label, RatFn.variable(s)))
        if not equal_mod_constraint(label, lhs, rhs):
            return s, lhs, rhs
    return None


def verify_commutes_with_derivation(label: str, gen: BacklundGen) -> bool:
    """delta(g(x)) = g(delta(x)) on every field generator x."""
    return derivation_mismatch(label, gen) is None


def verify_constraint_preserved(label: str, gen: BacklundGen) -> bool:
    """The parameter action must fix the normalization expression."""
    expr = system(label).constraint_expr()
    return ratfn_equal(gen(expr), expr)

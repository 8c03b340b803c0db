"""The six Painleve Hamiltonian systems as exact objects.

Each system J carries its polynomial Hamiltonian H_J(q, p, t, alpha), its
time weight w_J (the coefficient of d/dt in the derivation delta_J), the
ordered parameter list, and the normalization constraint on the parameters.

The Poisson bracket convention is

    {f, g} = f_p g_q - f_q g_p

so that {p, q} = +1, the flow reads delta_J q = {H_J, q} = H_p and
delta_J p = {H_J, p} = -H_q, and the derivation extends to rational
functions by the chain rule with delta_J t = w_J and delta_J alpha_i = 0.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache

from .exprio import parse_expr
from .ratfn import RatFn
from .symbols import Symbol, alpha, p_, q_, t_

LABELS = ("VI", "V", "IV", "III", "II", "I")


class UnsupportedSystem(ValueError):
    """A request outside the six supported system labels."""


class PainleveSystem(namedtuple(
    "PainleveSystem", "label hamiltonian t_weight params constraint_coeffs",
)):
    """H_J and w_J as RatFns, the alpha_i in order, and the integers c_i of
    the normalization sum(c_i * alpha_i) = 1."""

    __slots__ = ()

    def constraint_expr(self) -> RatFn:
        """The left side of the parameter normalization."""
        total = RatFn.const(0)
        for c, s in zip(self.constraint_coeffs, self.params):
            total = total + RatFn.variable(s) * RatFn.const(c)
        return total


_HAMILTONIANS = {
    "VI": (
        "q*(q-1)*(q-t)*p^2"
        " - ((alpha0-1)*q*(q-1) + alpha4*(q-1)*(q-t) + alpha3*q*(q-t))*p"
        " + alpha2*(alpha1+alpha2)*(q-t)"
    ),
    "V": "q*(q-1)*p*(p+t) - (alpha1+alpha3)*q*p + alpha1*p + alpha2*t*q",
    "IV": "q*p*(2*p-q-2*t) - 2*alpha1*p - alpha2*q",
    "III": "q^2*p*(p-1) + q*((alpha0+alpha2)*p - alpha0) + t*p",
    "II": "(1/2)*p^2 - (q^2 + t/2)*p - alpha1*q",
    "I": "(1/2)*p^2 - 2*q^3 - t*q",
}

_T_WEIGHTS = {
    "VI": "t*(t-1)",
    "V": "t",
    "IV": "1",
    "III": "t",
    "II": "1",
    "I": "1",
}

_CONSTRAINTS = {
    "VI": (1, 1, 2, 1, 1),
    "V": (1, 1, 1, 1),
    "IV": (1, 1, 1),
    "III": (1, 2, 1),
    "II": (1, 1),
    "I": (),
}


@cache
def _build_system(label: str) -> PainleveSystem:
    n_params = len(_CONSTRAINTS[label])
    return PainleveSystem(
        label=label,
        hamiltonian=parse_expr(_HAMILTONIANS[label]),
        t_weight=parse_expr(_T_WEIGHTS[label]),
        params=alpha[:n_params],
        constraint_coeffs=_CONSTRAINTS[label],
    )


def system(label: str) -> PainleveSystem:
    """The system labelled J, parsed on first use."""
    if label not in LABELS:
        raise UnsupportedSystem(f"no Painleve system labelled {label!r}")
    return _build_system(label)


def hamiltonian(label: str) -> RatFn:
    return system(label).hamiltonian


def poisson_bracket(
    f: RatFn, g: RatFn, p: Symbol = p_, q: Symbol = q_
) -> RatFn:
    """{f, g} = f_p g_q - f_q g_p in the given canonical pair."""
    return f.partial(p) * g.partial(q) - f.partial(q) * g.partial(p)


@cache
def _flow(label: str) -> tuple[RatFn, RatFn]:
    """(H_p, H_q) of system J: delta q = H_p and delta p = -H_q."""
    H = system(label).hamiltonian
    return H.partial(p_), H.partial(q_)


def derivation_apply(label: str, f: RatFn) -> RatFn:
    """Apply the derivation of system J to a rational function.

    delta f = f_t * w(t) + f_q * {H, q} + f_p * {H, p}, parameters constant.
    """
    H_p, H_q = _flow(label)
    out = f.partial(t_) * system(label).t_weight
    dq = f.partial(q_)
    if not dq.is_zero():
        out = out + dq * H_p
    dp = f.partial(p_)
    if not dp.is_zero():
        out = out - dp * H_q
    return out


@cache
def _constraint_binding(label: str) -> dict[Symbol, RatFn]:
    """{alpha0: 1 - (rest of the weighted sum)}, or {} for a system without
    parameters.  Shared by every caller: read it, never mutate it."""
    sys = system(label)
    if not sys.params:
        return {}
    # Leading constraint coefficient is 1 for every system.
    a0 = RatFn.variable(sys.params[0])
    return {sys.params[0]: a0 + RatFn.const(1) - sys.constraint_expr()}


def reduce_constraint(label: str, f: RatFn) -> RatFn:
    """Eliminate the leading parameter using the normalization.

    Substitutes alpha0 = 1 - (rest of the weighted sum), restricting f to the
    hyperplane where the constraint holds.  Identities that involve the
    Hamiltonian (derivation commutation, degenerated limits) hold on that
    hyperplane, not in free parameters: H_J is normalized against it.
    """
    return f.substitute(_constraint_binding(label))


def equal_mod_constraint(label: str, f: RatFn, g: RatFn) -> bool:
    """Exact equality of f and g restricted to the constraint hyperplane.

    Raises DenominatorVanishes if a denominator vanishes there; otherwise,
    restriction being a ring map, f = g iff the cross product restricts to 0.
    """
    for den in (f.den, g.den):
        reduce_constraint(label, RatFn(den).inverse())  # raises if den vanishes
    if f == g:
        return True
    return reduce_constraint(label, RatFn(f.num * g.den - g.num * f.den)).is_zero()

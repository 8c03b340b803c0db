"""Floating-point cross-checks of the exact claims, at desk scale.

Flows are integrated with classical fixed-step RK4 on

    dq/dt = {H, q} / w(t),   dp/dt = {H, p} / w(t)

where w is the system's time weight, so windows must exclude the zeros of w
(t = 0 for V and III, t in {0, 1} for VI).  Everything is plain double
arithmetic; expressions are compiled once per run by folding the parameter
values into float coefficient tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .degeneration import DegenerationArrow, degenerate_hamiltonian
from .groups import BacklundGen
from .ratfn import RatFn
from .symbols import MASK, SHIFTS, Symbol, alpha, p_, q_, t_
from .systems import system

POLE_GUARD = 1e-12


class NearPole(ArithmeticError):
    """An evaluation or integration step came too close to a pole."""

    def __init__(self, message: str, at=None):
        super().__init__(message)
        self.at = at


@dataclass
class Trajectory:
    system: str
    params: dict[str, float]
    h: float
    samples: list[tuple[float, float, float]]
    complete: bool = True

    def to_csv(self, path: str | Path) -> None:
        lines = ["t,q,p"]
        for t, q, p in self.samples:
            lines.append(f"{t:.17g},{q:.17g},{p:.17g}")
        Path(path).write_text("\n".join(lines) + "\n")


def eval_ratfn(f: RatFn, assignment: dict[Symbol, float]) -> float:
    """Double-precision value of f; raises NearPole near a vanishing
    denominator (threshold 1e-12)."""
    den = f.den.eval_float(assignment)
    if abs(den) <= POLE_GUARD:
        raise NearPole("denominator magnitude below 1e-12", assignment)
    return f.num.eval_float(assignment) / den


# ----------------------------------------------------------------------
# compiled evaluation on (t, q, p)

def _compile_poly(poly, fold: dict[Symbol, float]):
    """Fold parameter values into a float term table over (t, q, p)."""
    terms: dict[tuple[int, int, int], float] = {}
    sh_t, sh_q, sh_p = SHIFTS[t_.index], SHIFTS[q_.index], SHIFTS[p_.index]
    for key, c in poly.coefficients():
        coeff = c.to_float()
        rest = key
        for s, v in fold.items():
            sh = SHIFTS[s.index]
            e = (key >> sh) & MASK
            if e:
                coeff *= v**e
                rest -= e << sh
        et = (rest >> sh_t) & MASK
        eq = (rest >> sh_q) & MASK
        ep = (rest >> sh_p) & MASK
        rest -= (et << sh_t) + (eq << sh_q) + (ep << sh_p)
        if rest:
            raise ValueError("expression uses symbols outside params + (t, q, p)")
        mono = (et, eq, ep)
        terms[mono] = terms.get(mono, 0.0) + coeff
    return list(terms.items())


def _compile_ratfn(f: RatFn, fold: dict[Symbol, float]):
    num = _compile_poly(f.num, fold)
    den = _compile_poly(f.den, fold)

    def evaluate(t: float, q: float, p: float) -> float:
        try:
            nv = 0.0
            for (et, eq, ep), c in num:
                nv += c * t**et * q**eq * p**ep
            dv = 0.0
            for (et, eq, ep), c in den:
                dv += c * t**et * q**eq * p**ep
        except OverflowError:
            raise NearPole("value overflow during evaluation", (t, q, p)) from None
        if abs(dv) <= POLE_GUARD:
            raise NearPole("denominator magnitude below 1e-12", (t, q, p))
        return nv / dv

    return evaluate


def _flow_functions(label: str, params: dict[Symbol, float]):
    sys = system(label)
    H = sys.hamiltonian
    dq = _compile_ratfn(H.partial(p_), params)
    dp = _compile_ratfn(-H.partial(q_), params)
    weight = _compile_ratfn(sys.t_weight, params)
    return dq, dp, weight


def _rk4(dq, dp, weight, t0, q0, p0, t1, h):
    """Fixed-step classical RK4; returns the sample list and a completion flag.

    State updates use Kahan compensation and stage times come from the step
    index, keeping the roundoff floor well below the truncation error so the
    h^4 order is visible down to small steps.
    """
    samples = [(t0, q0, p0)]
    steps = max(1, round(abs(t1 - t0) / h))
    step = (t1 - t0) / steps
    q, p = q0, p0
    cq = cp = 0.0  # Kahan compensations

    def field(tt, qq, pp):
        w = weight(tt, qq, pp)
        if abs(w) <= POLE_GUARD:
            raise NearPole("time weight vanishes", (tt, qq, pp))
        return dq(tt, qq, pp) / w, dp(tt, qq, pp) / w

    for i in range(steps):
        t = t0 + i * step
        try:
            k1q, k1p = field(t, q, p)
            k2q, k2p = field(t + step / 2, q + step * k1q / 2, p + step * k1p / 2)
            k3q, k3p = field(t + step / 2, q + step * k2q / 2, p + step * k2p / 2)
            k4q, k4p = field(t + step, q + step * k3q, p + step * k3p)
        except NearPole:
            return samples, False
        inc_q = step * (k1q + 2 * k2q + 2 * k3q + k4q) / 6 - cq
        new_q = q + inc_q
        cq = (new_q - q) - inc_q
        q = new_q
        inc_p = step * (k1p + 2 * k2p + 2 * k3p + k4p) / 6 - cp
        new_p = p + inc_p
        cp = (new_p - p) - inc_p
        p = new_p
        if not (math.isfinite(q) and math.isfinite(p)):
            return samples, False
        samples.append((t0 + (i + 1) * step, q, p))
    return samples, True


def integrate(
    label: str,
    params: dict[Symbol, float] | list[float],
    initial: tuple[float, float, float],
    t1: float,
    h: float,
) -> Trajectory:
    """Integrate the flow of P_J from (t0, q0, p0) to t1 with fixed step h."""
    if h <= 0:
        raise ValueError("step size must be positive")
    params = _param_dict(label, params)
    dq, dp, weight = _flow_functions(label, params)
    t0, q0, p0 = initial
    samples, complete = _rk4(dq, dp, weight, t0, q0, p0, t1, h)
    return Trajectory(
        system=label,
        params={s.name: v for s, v in params.items()},
        h=h,
        samples=samples,
        complete=complete,
    )


def _param_dict(label: str, params) -> dict[Symbol, float]:
    sys = system(label)
    if isinstance(params, dict):
        return {s: float(params[s]) for s in sys.params} if sys.params else {}
    values = list(params)
    if len(values) != len(sys.params):
        raise ValueError(f"system {label} takes {len(sys.params)} parameters")
    return dict(zip(sys.params, map(float, values)))


def backlund_numeric_check(
    label: str,
    gen: BacklundGen,
    params,
    initial: tuple[float, float, float],
    t1: float,
    h: float,
) -> float:
    """Maximum deviation between the mapped flow and the re-integrated flow.

    Integrates P_J, maps every sample through the generator's (t, q, p)
    formulas evaluated at the source parameter values, then integrates P_J
    again with the transformed parameter values from the mapped initial
    point.  Exact derivation-commutation makes the two agree up to
    integrator error.
    """
    params = _param_dict(label, params)
    base = integrate(label, params, initial, t1, h)
    if not base.complete:
        raise NearPole("base trajectory hit a pole", base.samples[-1])

    new_params = {
        s: eval_ratfn(gen.acts_on(s), params) for s in system(label).params
    }
    map_t = _compile_ratfn(gen.acts_on(t_), params)
    map_q = _compile_ratfn(gen.acts_on(q_), params)
    map_p = _compile_ratfn(gen.acts_on(p_), params)
    mapped = [
        (map_t(t, q, p), map_q(t, q, p), map_p(t, q, p)) for t, q, p in base.samples
    ]

    t0m = mapped[0][0]
    t1m = mapped[-1][0]
    remapped = integrate(label, new_params, mapped[0], t1m, abs(t1m - t0m) / (len(mapped) - 1))
    if not remapped.complete or len(remapped.samples) != len(mapped):
        raise NearPole("transformed trajectory hit a pole", mapped[0])
    return max(
        max(abs(a[1] - b[1]), abs(a[2] - b[2]))
        for a, b in zip(mapped, remapped.samples)
    )


# ----------------------------------------------------------------------
# degeneration flows

def _compile_series_flow(arr: DegenerationArrow, eps_value: float, params: dict[Symbol, float]):
    """Compile the flow of the truncated degenerate Hamiltonian at numeric eps.

    Partial derivatives are taken per coefficient before folding, so the
    flow-trivial divergent gauge terms never get evaluated.
    """
    from .symbols import P_, Q_, T_

    series = degenerate_hamiltonian(arr)
    fold = dict(params)
    relabel = {T_: t_, Q_: q_, P_: p_}

    def compile_partial(var: Symbol):
        tables = []
        for order, coeff in series.coeffs.items():
            d = coeff.partial(var)
            if d.is_zero():
                continue
            renamed = d.substitute({k: RatFn.variable(v) for k, v in relabel.items()})
            tables.append((eps_value**order, _compile_ratfn(renamed, fold)))
        def evaluate(t, q, p):
            return sum(scale * fn(t, q, p) for scale, fn in tables)
        return evaluate

    dq = compile_partial(P_)           # {H, Q} = dH/dP
    dp_raw = compile_partial(Q_)       # {H, P} = -dH/dQ

    def dp(t, q, p):
        return -dp_raw(t, q, p)

    return dq, dp


def degeneration_numeric_check(
    arr: DegenerationArrow,
    eps_value: float,
    params,
    initial: tuple[float, float, float],
    t1: float,
    h: float,
) -> float:
    """Maximum deviation between the degenerate flow at eps and the P_K flow.

    Both flows start from the same initial data and use the target system's
    time weight; the deviation is O(eps).
    """
    params = _param_dict(arr.target, params)
    fold = {A_sym: params[a_sym] for A_sym, a_sym in _target_param_pairs(arr)}
    dq, dp = _compile_series_flow(arr, eps_value, fold)
    weight = _compile_ratfn(system(arr.target).t_weight, {})
    t0, q0, p0 = initial
    steps_samples, complete = _rk4(dq, dp, weight, t0, q0, p0, t1, h)
    if not complete:
        raise NearPole("degenerate flow hit a pole", steps_samples[-1])
    reference = integrate(arr.target, params, initial, t1, h)
    if not reference.complete:
        raise NearPole("reference flow hit a pole", initial)
    return max(
        max(abs(a[1] - b[1]), abs(a[2] - b[2]))
        for a, b in zip(steps_samples, reference.samples)
    )


def _target_param_pairs(arr: DegenerationArrow):
    from .symbols import A

    n = len(system(arr.target).params)
    return [(A[i], alpha[i]) for i in range(n)]

"""Floating-point cross-checks of the exact claims, at desk scale.

Flows are integrated with classical fixed-step RK4 on

    dq/dt = {H, q} / w(t),   dp/dt = {H, p} / w(t)

where w is the system's time weight, so windows must exclude the zeros of w
(t = 0 for V and III, t in {0, 1} for VI).  Everything is plain double
arithmetic; expressions are compiled once per run by folding the parameter
values into float coefficient tables, and the tables become generated
straight-line code: one function per flow, returning (dq/w, dp/w), and one
per Backlund map, returning (t', q', p').  Every component is one exact
RatFn compiled to one (numerator, denominator) table pair; for a degenerate
flow that RatFn is the flow of the truncated H_{J->K}, summed exactly over
its eps orders in lowest terms, with eps folded in like a parameter.
Denominators that fold to constants are decided when the code is
generated.  The generated code performs the same IEEE operations in the
same order as summing the tables term by term, so every value is
bit-identical to that loop.

`degeneration` is imported only when a degenerate flow is compiled, so
`numeric backlund` loads neither it nor `series`; the annotations naming
`DegenerationArrow` and `BacklundGen` stay unevaluated strings.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .ratfn import RatFn
from .symbols import MASK, SHIFTS, A, P_, Q_, Symbol, T_, alpha, eps, p_, q_, t_
from .systems import system

POLE_GUARD = 1e-12


class NearPole(ArithmeticError):
    """An evaluation or integration step came too close to a pole."""

    def __init__(self, message: str, at=None):
        super().__init__(message)
        self.at = at


class Trajectory(namedtuple(
    "Trajectory", "system params h samples complete", defaults=(True,),
)):
    """Samples (t, q, p) of one flow; complete is False if it stopped at a pole."""

    __slots__ = ()

    def to_csv(self, path) -> None:
        lines = ["t,q,p"]
        for t, q, p in self.samples:
            lines.append(f"{t:.17g},{q:.17g},{p:.17g}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def eval_ratfn(f: RatFn, assignment: dict[Symbol, float]) -> float:
    """Double-precision value of f; raises NearPole near a vanishing
    denominator (threshold 1e-12)."""
    den = f.den.eval_float(assignment)
    if abs(den) <= POLE_GUARD:
        raise NearPole("denominator magnitude below 1e-12", assignment)
    return f.num.eval_float(assignment) / den


# ----------------------------------------------------------------------
# compiled evaluation on (t, q, p)

def _compile_poly(poly, fold: dict[Symbol, float], variables=(t_, q_, p_)):
    """Fold parameter values into a float term table over three variables.

    Each table key is the exponent triple of `variables`, read as (t, q, p).
    """
    terms: dict[tuple[int, int, int], float] = {}
    sh_t, sh_q, sh_p = (SHIFTS[s.index] for s in variables)
    for key, coeff in poly.float_coefficients():
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


def _constant(table):
    """The value 0.0 + c of the table [((0, 0, 0), c)], else None."""
    return 0.0 + table[0][1] if len(table) == 1 and table[0][0] == (0, 0, 0) else None


def _generate(components, weight=None):
    """Emit one straight-line function (t, q, p) -> value, or -> tuple of
    values for several components, each divided by the `weight` component.
    A component is the (numerator, denominator) pair of float term tables
    that _compile_ratfn returns.

    Components are emitted in order, the weight first: each power of
    exponent >= 2 is computed once, before the first component using it,
    then the component's denominator is tested, so the first NearPole
    raised (a power's OverflowError, a denominator of magnitude at most
    POLE_GUARD, a vanishing weight) is the one separate evaluators called
    in turn would raise.  Sums run left to right from 0.0
    in table order over terms c*t**et*q**eq*p**ep, dropping **0 and **1, so
    every value is bit-identical to the term-by-term loop.  Constant
    denominators are folded: 1.0 drops its division and test, any other has
    its test decided; a weight of constant 1 drops its division.
    Coefficients live in the globals, never in the source.
    """
    env = {"NearPole": NearPole, "POLE_GUARD": POLE_GUARD}
    pole = "raise NearPole('denominator magnitude below 1e-12', (t, q, p))"
    lines = ["def evaluate(t, q, p):"]
    done = set()

    def total(table) -> str:
        parts = ["0.0"]
        for mono, c in table:
            name = f"c{len(env)}"
            env[name] = c
            parts.append("*".join([name] + [
                "tqp"[i] if e == 1 else f"{'tqp'[i]}{e}"
                for i, e in enumerate(mono) if e
            ]))
        return " + ".join(parts)

    def emit(k, comp) -> None:
        num, den = comp
        powers = sorted({
            (i, e) for table in comp for mono, _ in table
            for i, e in enumerate(mono) if e >= 2} - done)
        done.update(powers)
        if powers:
            lines.extend([
                "    try:",
                *(f"        {'tqp'[i]}{e} = {'tqp'[i]}**{e}" for i, e in powers),
                "    except OverflowError:",
                "        raise NearPole('value overflow during evaluation', (t, q, p)) from None",
            ])
        name, value = f"d{k}", _constant(den)
        if value is None:
            lines.extend([f"    {name} = {total(den)}",
                          f"    if abs({name}) <= POLE_GUARD:", f"        {pole}"])
        elif value != 1.0:
            env[name] = value
            if abs(value) <= POLE_GUARD:
                lines.append(f"    {pole}")
        lines.append(f"    v{k} = ({total(num)})" + (f" / {name}" if value != 1.0 else ""))

    divide = ""
    if weight is not None and tuple(map(_constant, weight)) != (1.0, 1.0):
        emit("w", weight)
        lines += ["    if abs(vw) <= POLE_GUARD:",
                  "        raise NearPole('time weight vanishes', (t, q, p))"]
        divide = " / vw"
    for k, comp in enumerate(components):
        emit(k, comp)
    lines.append("    return " + ", ".join(f"v{k}{divide}" for k in range(len(components))))
    exec(compile("\n".join(lines), "<numeric evaluator>", "exec"), env)
    return env["evaluate"]


def _compile_ratfn(f: RatFn, fold: dict[Symbol, float], variables=(t_, q_, p_)):
    """The (numerator, denominator) term tables of f, for _generate."""
    return _compile_poly(f.num, fold, variables), _compile_poly(f.den, fold, variables)


def _flow_functions(label: str, params: dict[Symbol, float]):
    sys = system(label)
    H = sys.hamiltonian
    dq = _compile_ratfn(H.partial(p_), params)
    dp = _compile_ratfn(-H.partial(q_), params)
    weight = _compile_ratfn(sys.t_weight, params)
    return dq, dp, weight


def _rk4(dq, dp, weight, t0, q0, p0, t1, h):
    """Fixed-step classical RK4; returns the sample list and a completion flag.

    The field (t, q, p) -> (dq/w, dp/w) is one generated function built from
    the term tables of the three components, so each stage makes one call;
    its values are bit-identical to evaluating the three components in turn.
    State updates use Kahan compensation and stage times come from the step
    index, keeping the roundoff floor well below the truncation error so the
    h^4 order is visible down to small steps.
    """
    samples = [(t0, q0, p0)]
    steps = max(1, round(abs(t1 - t0) / h))
    step = (t1 - t0) / steps
    q, p = q0, p0
    cq = cp = 0.0  # Kahan compensations
    field = _generate([dq, dp], weight)

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
    mapping = _generate([_compile_ratfn(gen.acts_on(s), params) for s in (t_, q_, p_)])
    mapped = [mapping(t, q, p) for t, q, p in base.samples]

    t0m = mapped[0][0]
    t1m = mapped[-1][0]
    remapped = integrate(label, new_params, mapped[0], t1m, abs(t1m - t0m) / (len(mapped) - 1))
    if not remapped.complete or len(remapped.samples) != len(mapped):
        raise NearPole(f"transformed trajectory hit a pole after {len(remapped.samples) - 1}"
                       f" of {len(mapped) - 1} steps", remapped.samples[-1])
    return max(
        max(abs(a[1] - b[1]), abs(a[2] - b[2]))
        for a, b in zip(mapped, remapped.samples)
    )


# ----------------------------------------------------------------------
# degeneration flows

def _series_flow(arr: DegenerationArrow) -> tuple[RatFn, RatFn]:
    """The exact flow (dH/dP, -dH/dQ) of the truncated H_{J->K}.

    The expansion leaves coefficient k over w0^(k+1); exact division first
    cancels every power of the lowest-order denominator w0 that divides it.
    The nonzero partials, times eps^k, are then summed exactly; the
    flow-trivial gauge terms have none.
    """
    from .degeneration import degenerate_hamiltonian

    series = degenerate_hamiltonian(arr)
    base = series.coeffs[min(series.coeffs)].den
    flows = [RatFn.const(0), RatFn.const(0)]
    for k, c in series.coeffs.items():
        num, den = c.num, c.den
        while (not base.is_const() and (n := num.try_div(base)) is not None
               and (m := den.try_div(base)) is not None):
            num, den = n, m
        c = RatFn(num, den)
        for i, var in enumerate((P_, Q_)):
            d = c.partial(var)
            if not d.is_zero():
                flows[i] = flows[i] + RatFn.variable(eps) ** k * d
    return flows[0], -flows[1]  # {H, Q} = dH/dP, {H, P} = -dH/dQ


def _compile_series_flow(arr: DegenerationArrow, eps_value: float, params: dict[Symbol, float]):
    """The table pairs of _series_flow, with eps folded in like a parameter
    and the (T, Q, P) exponents read as (t, q, p)."""
    fold = {**params, eps: eps_value}
    return tuple(_compile_ratfn(f, fold, (T_, Q_, P_)) for f in _series_flow(arr))


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
        raise NearPole(f"reference flow hit a pole after {len(reference.samples) - 1}"
                       f" of {len(steps_samples) - 1} steps", reference.samples[-1])
    return max(
        max(abs(a[1] - b[1]), abs(a[2] - b[2]))
        for a, b in zip(steps_samples, reference.samples)
    )


def _target_param_pairs(arr: DegenerationArrow):
    n = len(system(arr.target).params)
    return [(A[i], alpha[i]) for i in range(n)]

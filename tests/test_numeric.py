import math

import pytest

from painleve_backlund import numeric
from painleve_backlund.cli import DEGEN_NUMERIC_DEFAULTS, NUMERIC_DEFAULTS, main
from painleve_backlund.degeneration import arrow, arrows, degenerate_hamiltonian
from painleve_backlund.exprio import parse_expr as P
from painleve_backlund.groups import generator, generators
from painleve_backlund.numeric import (
    POLE_GUARD,
    NearPole,
    _compile_poly,
    _compile_ratfn,
    _compile_series_flow,
    _flow_functions,
    _generate,
    _param_dict,
    _series_flow,
    backlund_numeric_check,
    degeneration_numeric_check,
    eval_ratfn,
    integrate,
)
from painleve_backlund.ratfn import RatFn, ratfn_equal
from painleve_backlund.symbols import A, P_, Q_, T_, alpha, eps, p_, q_, t_
from painleve_backlund.systems import hamiltonian, poisson_bracket, system

from conftest import rand_poly, rng_for


def test_eval_examples():
    H1 = hamiltonian("I")
    assert eval_ratfn(H1, {q_: 0.0, p_: 0.0, t_: 0.0}) == 0.0
    H2 = hamiltonian("II")
    value = eval_ratfn(H2, {q_: 1.0, p_: 1.0, t_: 0.0, alpha[1]: 0.0})
    assert abs(value - (-0.5)) < 1e-15
    bracket = poisson_bracket(P("p"), P("q"))
    assert eval_ratfn(bracket, {q_: 3.7, p_: -1.2, t_: 9.9}) == 1.0


def test_eval_near_pole():
    with pytest.raises(NearPole):
        eval_ratfn(P("1/q"), {q_: 1e-13})


def test_eval_sqrt2_is_numeric():
    assert abs(eval_ratfn(P("sqrt2"), {}) - math.sqrt(2.0)) < 1e-15


def test_one_rk4_step_of_first_system():
    # oracle by hand from dq/dt = p, dp/dt = 6q^2 + t starting at (0, 0, 0):
    # k1 = (0,0), k2 = (0, h/2), k3 = (h^2/4, h/2), k4 = (h^2/2, h + 6h^6/16)
    # giving q1 = h^3/6 and p1 = h^2/2 + h^7/16
    h = 0.1
    traj = integrate("I", [], (0.0, 0.0, 0.0), h, h)
    assert len(traj.samples) == 2
    _, q1, p1 = traj.samples[-1]
    assert abs(q1 - h**3 / 6) < 1e-18
    assert abs(p1 - (h**2 / 2 + h**7 / 16)) < 1e-18


def test_stationary_point_is_exact_for_fourth_system():
    # with alpha1 = alpha2 = 0 the field of P_IV vanishes identically at
    # q = p = 0, for every t, so RK4 stays put to the bit
    traj = integrate("IV", [1.0, 0.0, 0.0], (0.3, 0.0, 0.0), 1.3, 1e-2)
    assert all(q == 0.0 and p == 0.0 for _, q, p in traj.samples)


def test_near_stationary_start_for_second_system():
    # the field vanishes at t0 = 0, q = p = 0 when alpha1 = 0, but RK4
    # stages sample t = h/2 where it does not; drift stays O(h^2)
    h = 1e-3
    traj = integrate("II", [1.0, 0.0], (0.0, 0.0, 0.0), h, h)
    _, q1, p1 = traj.samples[-1]
    assert abs(q1) <= h**2 and abs(p1) <= h**2


def test_trajectory_spacing_and_csv(tmp_path):
    traj = integrate("II", [2 / 3, 1 / 3], (0.0, 1.0, 1.0), 0.01, 1e-3)
    ts = [t for t, _, _ in traj.samples]
    hs = [b - a for a, b in zip(ts, ts[1:])]
    assert all(abs(h - 1e-3) < 1e-12 for h in hs)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,q,p"
    assert len(lines) == len(traj.samples) + 1
    t0, q0, p0 = (float(x) for x in lines[1].split(","))
    assert (t0, q0, p0) == traj.samples[0]


def test_sixth_system_against_adaptive_oracle():
    # independent adaptive RKF45 oracle, written from the Fehlberg tableau
    params = (0.3, 0.2, 0.15, 0.1, 0.1)
    traj = integrate("VI", params, (2.0, 0.5, 0.3), 2.5, 1e-3)
    assert traj.complete

    H = hamiltonian("VI")
    dq_expr = H.partial(p_)
    dp_expr = -H.partial(q_)
    w_expr = P("t*(t-1)")
    assign = dict(zip(alpha, params))

    def field(t, y):
        point = {**assign, t_: t, q_: y[0], p_: y[1]}
        w = w_expr.num.eval_float(point) / w_expr.den.eval_float(point)
        return (
            eval_ratfn(dq_expr, point) / w,
            eval_ratfn(dp_expr, point) / w,
        )

    # Fehlberg 4(5) coefficients
    A_ = (
        (),
        (1 / 4,),
        (3 / 32, 9 / 32),
        (1932 / 2197, -7200 / 2197, 7296 / 2197),
        (439 / 216, -8, 3680 / 513, -845 / 4104),
        (-8 / 27, 2, -3544 / 2565, 1859 / 4104, -11 / 40),
    )
    C = (0, 1 / 4, 3 / 8, 12 / 13, 1, 1 / 2)
    B5 = (16 / 135, 0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55)
    B4 = (25 / 216, 0, 1408 / 2565, 2197 / 4104, -1 / 5, 0)

    def rkf45(t, y, t_end, tol=1e-10):
        h = 1e-3
        while t < t_end:
            h = min(h, t_end - t)
            ks = []
            for i in range(6):
                yi = list(y)
                for j, a in enumerate(A_[i]):
                    yi[0] += h * a * ks[j][0]
                    yi[1] += h * a * ks[j][1]
                ks.append(field(t + C[i] * h, yi))
            y5 = [y[d] + h * sum(b * ks[i][d] for i, b in enumerate(B5)) for d in (0, 1)]
            y4 = [y[d] + h * sum(b * ks[i][d] for i, b in enumerate(B4)) for d in (0, 1)]
            err = max(abs(y5[0] - y4[0]), abs(y5[1] - y4[1]))
            if err <= tol or h < 1e-6:
                t += h
                y = y5
            h *= 0.9 * (tol / err) ** 0.2 if err > 0 else 2.0
        return y

    q_end, p_end = rkf45(2.0, [0.5, 0.3], 2.5)
    _, q_fixed, p_fixed = traj.samples[-1]
    assert abs(q_end - q_fixed) < 1e-6
    assert abs(p_end - p_fixed) < 1e-6


def test_backlund_check_second_system():
    g = generator("II", "s1")
    dev = backlund_numeric_check("II", g, [2 / 3, 1 / 3], (0.0, 1.0, 1.0), 1.0, 1e-3)
    assert dev < 1e-6


def test_backlund_check_fifth_system():
    g = generator("V", "s2")
    dev = backlund_numeric_check(
        "V", g, [0.4, 0.3, 0.2, 0.1], (1.0, 0.5, 0.3), 2.0, 1e-3
    )
    assert dev < 1e-6


def test_backlund_check_identity_like_generator():
    # s1 of W_VI fixes q, p and t: mapped and re-integrated flows coincide
    g = generator("VI", "s1")
    dev = backlund_numeric_check(
        "VI", g, (0.3, 0.2, 0.15, 0.1, 0.1), (2.0, 0.5, 0.3), 2.2, 1e-3
    )
    assert dev < 1e-12


def test_pole_skip_witness_is_where_the_transformed_flow_stopped():
    # IV s0 at the CLI defaults: the transformed flow blows up at t = 0.304,
    # so the witness is that last sample, not the mapped start (t = 0.0)
    params, initial, t1 = NUMERIC_DEFAULTS["IV"]
    with pytest.raises(NearPole, match="transformed trajectory hit a pole"
                       " after 304 of 1000 steps") as exc:
        backlund_numeric_check("IV", generator("IV", "s0"), params, initial, t1, 1e-3)
    t, q, p = exc.value.at
    assert t == pytest.approx(0.304) and abs(q) > 1e100


def test_pole_skip_witness_is_where_the_reference_flow_stopped(monkeypatch):
    # a reference flow cut after 100 steps must name that sample and the count
    params, initial, t1 = DEGEN_NUMERIC_DEFAULTS[("IV", "II")]
    full = integrate("II", params, initial, t1, 1e-3)
    cut = full._replace(samples=full.samples[:101], complete=False)
    monkeypatch.setattr(numeric, "integrate", lambda *args: cut)
    with pytest.raises(NearPole, match="reference flow hit a pole after 100 of 1000 steps") as exc:
        degeneration_numeric_check(arrow("IV", "II"), 1e-2, params, initial, t1, 1e-3)
    assert exc.value.at == full.samples[100]


def test_rk4_order_scaling():
    g = generator("II", "s1")
    devs = [
        backlund_numeric_check("II", g, [2 / 3, 1 / 3], (0.0, 1.0, 1.0), 1.0, h)
        for h in (2e-3, 1e-3)
    ]
    ratio = devs[0] / devs[1]
    assert 8 <= ratio <= 32


def test_degeneration_check_at_zero_eps_coincides():
    a = arrow("V", "III")
    dev = degeneration_numeric_check(
        a, 0.0, [0.3, 0.2, 0.3], (1.0, 0.5, 0.3), 1.5, 1e-3
    )
    assert dev < 1e-12


def test_degeneration_deviation_shrinks_with_eps():
    a = arrow("VI", "V")
    dev2 = degeneration_numeric_check(
        a, 1e-2, [0.4, 0.3, 0.2, 0.1], (1.0, 0.5, 0.3), 1.5, 1e-3
    )
    dev3 = degeneration_numeric_check(
        a, 1e-3, [0.4, 0.3, 0.2, 0.1], (1.0, 0.5, 0.3), 1.5, 1e-3
    )
    assert dev3 < dev2
    assert dev3 < 10 * 1e-3


def test_energy_rate_matches_time_partial_along_fourth_system():
    # along a trajectory dH/dt = dH/dt|_explicit, since {H, H} = 0; centered
    # differences of H along RK4 samples must match the exact t-partial
    params = (0.4, 0.3, 0.3)
    h = 1e-3
    traj = integrate("IV", params, (0.0, 0.5, 0.4), 1.0, h)
    H = hamiltonian("IV")
    Ht = H.partial(t_)
    assign = dict(zip(alpha, params))
    values = [
        eval_ratfn(H, {**assign, t_: t, q_: q, p_: p}) for t, q, p in traj.samples
    ]
    worst = 0.0
    for i in range(1, len(values) - 1):
        t, q, p = traj.samples[i]
        rate = (values[i + 1] - values[i - 1]) / (2 * h)
        exact = eval_ratfn(Ht, {**assign, t_: t, q_: q, p_: p})
        worst = max(worst, abs(rate - exact))
    assert worst < 5e-5  # centered-difference O(h^2) floor for this window


# ----------------------------------------------------------------------
# generated evaluators against the term-by-term loop they replaced


def term_loop(f, fold, variables=(t_, q_, p_)):
    """Reference evaluator: the loop over the float term tables."""
    num = _compile_poly(f.num, fold, variables)
    den = _compile_poly(f.den, fold, variables)

    def evaluate(t, q, p):
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


def outcome(fn, point):
    # repr tells -0.0 from 0.0, so equal outcomes are equal bits
    try:
        return repr(fn(*point))
    except NearPole as exc:
        return f"NearPole: {exc}"


def test_generated_evaluator_matches_term_loop(seed):
    rng = rng_for(seed, "numeric-evaluator")
    fold = {alpha[1]: 0.37, alpha[2]: -1.3}
    symbols = (t_, q_, p_, *fold)
    kinds = set()
    for _ in range(80):
        f = RatFn(
            rand_poly(rng, symbols, max_terms=6, max_degree=3, sqrt2_prob=0.5),
            rand_poly(rng, symbols, max_terms=3, max_degree=3, allow_zero=False,
                      sqrt2_prob=0.5),
        )
        ours, ref = _generate([_compile_ratfn(f, fold)]), term_loop(f, fold)
        points = [tuple(rng.uniform(-3, 3) for _ in range(3)) for _ in range(4)]
        points += [(0.0, -0.0, 0.0), (1.0, -1.0, 0.5), (1e120, 2.0, -1.0)]
        for point in points:
            got = outcome(ours, point)
            assert got == outcome(ref, point), (f, point)
            kinds.add("NearPole" if got.startswith("NearPole") else "value")
    assert kinds == {"value", "NearPole"}


def test_generated_evaluator_near_pole():
    tiny = _generate([_compile_ratfn(P("(t + q)/(q - 1)"), {})])
    with pytest.raises(NearPole, match="denominator"):
        tiny(0.5, 1.0 + 1e-13, 0.0)
    assert tiny(0.5, 2.0, 0.0) == 2.5
    for f, point in ((P("q^3*p"), (0.0, 1e200, 2.0)), (P("1/(1 + t*p^2)"), (1.0, 0.0, 1e300))):
        with pytest.raises(NearPole, match="overflow"):
            _generate([_compile_ratfn(f, {})])(*point)


@pytest.mark.parametrize("eps_value", [1e-2, 1e-3])
def test_series_flow_is_the_truncated_flow_in_lowest_terms(eps_value):
    # each component is Sum_k eps^k dH_k/dvar over the raw expansion, exactly,
    # and compiles to the term loop of that one RatFn at the folded values
    for arr in arrows():
        params, (t0, q0, p0), t1 = DEGEN_NUMERIC_DEFAULTS[(arr.source, arr.target)]
        series = degenerate_hamiltonian(arr)
        flows = _series_flow(arr)
        for f, var, sign in zip(flows, (P_, Q_), (1, -1)):
            expected = RatFn.const(0)
            for k, coeff in series.coeffs.items():
                expected = expected + RatFn.variable(eps) ** k * coeff.partial(var)
            assert ratfn_equal(f, RatFn.const(sign) * expected), (arr.name, var)
        fold = {**dict(zip(A, params)), eps: eps_value}
        refs = [term_loop(f, fold, (T_, Q_, P_)) for f in flows]
        comps = _compile_series_flow(arr, eps_value, dict(zip(A, params)))
        for comp, ref in zip(comps, refs):
            ours = _generate([comp])
            for k in range(5):
                t = t0 + k * (t1 - t0) / 4
                for point in ((t, q0, p0), (t, q0 + 0.3 * k, p0 - 0.2 * k)):
                    assert outcome(ours, point) == outcome(ref, point), (arr.name, point)


def test_sixth_to_fifth_flow_raises_only_next_to_its_pole():
    # Q - 1 is the only denominator atom: dH/dP sits over Q - 1 and dH/dQ
    # over (Q - 1)^2, so the guard fires only for |Q - 1| <= 1e-6
    arr = arrow("VI", "V")
    dq, dp = _series_flow(arr)
    assert ratfn_equal(RatFn(dq.den), P("Q - 1"))
    assert ratfn_equal(RatFn(dp.den), P("(Q - 1)^2"))
    params = DEGEN_NUMERIC_DEFAULTS[("VI", "V")][0]
    field = _generate(_compile_series_flow(arr, 1e-3, dict(zip(A, params))))
    for q in (0.8, 0.9, 1 - 2e-6, 1 + 2e-6, 1.1, 1.25):
        assert all(map(math.isfinite, field(1.0, q, 0.3))), q
    for q in (1 - 1e-7, 1.0, 1 + 1e-7):
        with pytest.raises(NearPole, match="denominator"):
            field(1.0, q, 0.3)


# ----------------------------------------------------------------------
# fused fields and maps against the separate evaluators they replaced


def three_call_field(dq, dp, weight):
    """Reference field: each component called on its own, as _rk4 did."""

    def field(t, q, p):
        w = weight(t, q, p)
        if abs(w) <= POLE_GUARD:
            raise NearPole("time weight vanishes", (t, q, p))
        return dq(t, q, p) / w, dp(t, q, p) / w

    return field


def outcome_at(fn, point):
    # the witness too: a fused function must raise where the separate ones do
    try:
        return repr(fn(*point))
    except NearPole as exc:
        return f"NearPole: {exc} at {exc.at!r}"


def flow_points(t0, q0, p0, t1):
    points = []
    for k in range(4):
        t = t0 + k * (t1 - t0) / 3
        points += [(t, q0, p0), (t, q0 + 0.4 * k, p0 - 0.3 * k), (t, -q0, 2 * p0)]
    # the zeros of every time weight, and powers that overflow
    points += [(0.0, q0, p0), (1.0, q0, p0), (-0.0, 0.0, -0.0),
               (t0, 1e200, p0), (t0, q0, 1e200), (1e200, q0, p0)]
    return points


def assert_fused_field_matches(dq, dp, weight, points, label, kinds):
    fused = _generate([dq, dp], weight)
    ref = three_call_field(*(_generate([comp]) for comp in (dq, dp, weight)))
    for point in points:
        got = outcome_at(fused, point)
        assert got == outcome_at(ref, point), (label, point)
        kinds.add(got[:30] if got.startswith("NearPole") else "value")


def test_fused_field_matches_three_calls_for_every_system():
    kinds = set()
    for label, (params, (t0, q0, p0), t1) in NUMERIC_DEFAULTS.items():
        base = _param_dict(label, params)
        states = [base] + [
            {s: eval_ratfn(g.acts_on(s), base) for s in system(label).params}
            for g in generators(label)
        ]
        for values in states:
            dq, dp, weight = _flow_functions(label, values)
            assert_fused_field_matches(
                dq, dp, weight, flow_points(t0, q0, p0, t1), label, kinds)
    assert {"value", "NearPole: time weight vanishes",
            "NearPole: value overflow durin"} <= kinds


@pytest.mark.parametrize("eps_value", [1e-2, 1e-3])
def test_fused_degenerate_field_matches_three_calls(eps_value):
    kinds = set()
    for arr in arrows():
        params, (t0, q0, p0), t1 = DEGEN_NUMERIC_DEFAULTS[(arr.source, arr.target)]
        dq, dp = _compile_series_flow(arr, eps_value, dict(zip(A, params)))
        weight = _compile_ratfn(system(arr.target).t_weight, {})
        assert_fused_field_matches(
            dq, dp, weight, flow_points(t0, q0, p0, t1), arr.name, kinds)
    assert {"value", "NearPole: time weight vanishes",
            "NearPole: value overflow durin"} <= kinds


def test_constant_denominators_are_folded_bit_for_bit():
    # 1.0 drops the division, 3 keeps it, and a constant that folds to 0
    # raises on every call, after the powers and in component order
    fold = {alpha[1]: 0.25}
    texts = ("q^2*p - t", "(t + q^2)/3", "(t - p^2)/(4*alpha1 - 1)", "p/(alpha1 - 1)")
    tables = [_compile_ratfn(P(text), fold) for text in texts]
    comps = [_generate([table]) for table in tables]
    points = [(0.5, -0.0, -0.0), (-1.5, 2.0, 3.0), (0.0, 1e200, 1.0), (0.0, 1.0, 1e200),
              (float("inf"), 1.0, 1.0), (float("nan"), 0.0, 1.0)]
    for text, comp in zip(texts, comps):
        ref = term_loop(P(text), fold)
        for point in points:
            assert outcome_at(comp, point) == outcome_at(ref, point), (text, point)
    assert outcome_at(comps[2], (1.0, 1.0, 1.0)).startswith("NearPole: denominator")
    assert outcome_at(comps[2], (1.0, 1.0, 1e200)).startswith("NearPole: value overflow")
    fused = _generate(tables)
    for point in points:
        assert outcome_at(fused, point) == outcome_at(
            lambda *x: tuple(c(*x) for c in comps), point), point


def test_fused_map_raises_where_the_three_maps_do():
    kinds = set()
    for label, (params, (t0, q0, p0), _) in NUMERIC_DEFAULTS.items():
        values = _param_dict(label, params)
        points = [(t0, q0, p0), (t0, t0, p0), (t0, q0, 0.0), (t0, 0.0, p0),
                  (t0, 1.0, p0), (0.0, 0.0, 0.0), (t0, q0, 2 * q0**2 + t0),
                  (t0, 1e200, p0), (t0, q0, 1e200), (1e200, q0, p0)]
        for g in generators(label):
            tables = [_compile_ratfn(g.acts_on(s), values) for s in (t_, q_, p_)]
            maps = [_generate([table]) for table in tables]
            fused = _generate(tables)
            for point in points:
                got = outcome_at(fused, point)
                assert got == outcome_at(
                    lambda *x: tuple(m(*x) for m in maps), point), (label, g.name, point)
                kinds.add(got[:30] if got.startswith("NearPole") else "value")
    assert kinds == {"value", "NearPole: denominator magnitud",
                     "NearPole: value overflow durin"}


@pytest.mark.parametrize("argv, compiled", [
    (["numeric", "backlund", "--system", "II", "--gen", "s1"], 3),
    (["numeric", "degeneration", "--arrow", "VI", "V"], 2),
])
def test_numeric_commands_compile_one_function_per_flow_and_map(
        capsys, monkeypatch, argv, compiled):
    # two fields and one map for backlund, two fields for degeneration
    sources = []

    def spy(source, filename, *args, **kwargs):
        if filename.startswith("<numeric"):
            sources.append(source)
        return compile(source, filename, *args, **kwargs)

    monkeypatch.setattr(numeric, "compile", spy, raising=False)
    assert main(argv) == 0
    capsys.readouterr()
    assert len(sources) == compiled

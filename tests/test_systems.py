import pytest

from painleve_backlund.exprio import parse_expr as P
from painleve_backlund.ratfn import DenominatorVanishes, RatFn, ratfn_equal
from painleve_backlund.symbols import p_, q_, t_
from painleve_backlund.systems import (
    LABELS,
    UnsupportedSystem,
    _constraint_binding,
    derivation_apply,
    equal_mod_constraint,
    hamiltonian,
    poisson_bracket,
    reduce_constraint,
    system,
)

from conftest import rand_ratfn, rng_for


def test_hamiltonian_II():
    assert ratfn_equal(hamiltonian("II"), P("(1/2)*p^2 - (q^2 + t/2)*p - alpha1*q"))


def test_hamiltonian_I():
    assert ratfn_equal(hamiltonian("I"), P("(1/2)*p^2 - 2*q^3 - t*q"))


def test_hamiltonian_III():
    assert ratfn_equal(
        hamiltonian("III"),
        P("q^2*p*(p-1) + q*((alpha0+alpha2)*p - alpha0) + t*p"),
    )


def test_time_weights():
    assert ratfn_equal(system("VI").t_weight, P("t*(t-1)"))
    assert ratfn_equal(system("V").t_weight, P("t"))
    assert ratfn_equal(system("III").t_weight, P("t"))
    for label in ("IV", "II", "I"):
        assert ratfn_equal(system(label).t_weight, P("1"))


def test_constraints():
    assert ratfn_equal(
        system("VI").constraint_expr(),
        P("alpha0 + alpha1 + 2*alpha2 + alpha3 + alpha4"),
    )
    assert ratfn_equal(system("III").constraint_expr(), P("alpha0 + 2*alpha1 + alpha2"))
    assert system("I").params == ()


def test_unknown_label():
    with pytest.raises(UnsupportedSystem):
        system("VII")


def test_bracket_convention():
    assert ratfn_equal(poisson_bracket(P("p"), P("q")), P("1"))
    f = P("q^2*p + t")
    assert poisson_bracket(f, f).is_zero()


def test_bracket_of_H2_with_q():
    got = poisson_bracket(hamiltonian("II"), P("q"))
    assert ratfn_equal(got, P("p - q^2 - t/2"))


def test_bracket_properties(seed):
    rng = rng_for(seed, "systems-bracket")
    syms = (q_, p_, t_)
    for _ in range(40):
        f = rand_ratfn(rng, syms)
        g = rand_ratfn(rng, syms)
        h = rand_ratfn(rng, syms)
        # antisymmetry and bilinearity
        assert ratfn_equal(poisson_bracket(f, g), -poisson_bracket(g, f))
        assert ratfn_equal(
            poisson_bracket(f + g, h),
            poisson_bracket(f, h) + poisson_bracket(g, h),
        )
        # Leibniz
        assert ratfn_equal(
            poisson_bracket(f * g, h),
            f * poisson_bracket(g, h) + poisson_bracket(f, h) * g,
        )


def test_jacobi_identity(seed):
    rng = rng_for(seed, "systems-jacobi")
    syms = (q_, p_)
    for _ in range(25):
        f = rand_ratfn(rng, syms, max_terms=2)
        g = rand_ratfn(rng, syms, max_terms=2)
        h = rand_ratfn(rng, syms, max_terms=2)
        total = (
            poisson_bracket(f, poisson_bracket(g, h))
            + poisson_bracket(g, poisson_bracket(h, f))
            + poisson_bracket(h, poisson_bracket(f, g))
        )
        assert total.is_zero() or ratfn_equal(total, P("0"))


def test_derivation_on_t_and_parameters():
    assert ratfn_equal(derivation_apply("VI", P("t")), P("t*(t-1)"))
    for label in ("VI", "V", "IV", "III", "II"):
        assert derivation_apply(label, P("alpha0")).is_zero()


def test_derivation_on_q_is_bracket():
    assert ratfn_equal(derivation_apply("II", P("q")), P("p - q^2 - t/2"))


def test_derivation_leibniz(seed):
    rng = rng_for(seed, "systems-leibniz")
    syms = (q_, p_, t_)
    for _ in range(25):
        f = rand_ratfn(rng, syms, max_terms=2)
        g = rand_ratfn(rng, syms, max_terms=2)
        lhs = derivation_apply("V", f * g)
        rhs = derivation_apply("V", f) * g + f * derivation_apply("V", g)
        assert ratfn_equal(lhs, rhs)


def test_derivation_kills_constraint():
    for label in ("VI", "V", "IV", "III", "II"):
        expr = system(label).constraint_expr()
        assert derivation_apply(label, expr).is_zero()


def test_reduce_constraint():
    reduced = reduce_constraint("II", P("alpha0 + alpha1"))
    assert ratfn_equal(reduced, P("1"))


def uncached_derivation_apply(label, f):
    """derivation_apply with H_p and H_q differentiated on every call."""
    sys = system(label)
    H = sys.hamiltonian
    out = f.partial(t_) * sys.t_weight
    dq = f.partial(q_)
    if not dq.is_zero():
        out = out + dq * H.partial(p_)
    dp = f.partial(p_)
    if not dp.is_zero():
        out = out - dp * H.partial(q_)
    return out


def uncached_reduce_constraint(label, f):
    """reduce_constraint with the alpha0 binding built on every call."""
    sys = system(label)
    if not sys.params:
        return f
    rest = RatFn.const(1)
    for c, s in zip(sys.constraint_coeffs[1:], sys.params[1:]):
        rest = rest - RatFn.variable(s) * RatFn.const(c)
    return f.substitute({sys.params[0]: rest})


def outcome(fn, *args):
    try:
        got = fn(*args)
    except DenominatorVanishes:
        return "vanishes"
    return got.num, got.den


def test_cached_flow_and_constraint_match_the_uncached_formulas(seed):
    rng = rng_for(seed, "systems-caches")
    for label in LABELS:
        syms = system(label).params[:2] + (t_, q_, p_)
        for _ in range(6):
            f = rand_ratfn(rng, syms, max_terms=2)
            assert outcome(derivation_apply, label, f) == outcome(
                uncached_derivation_apply, label, f)
            assert outcome(reduce_constraint, label, f) == outcome(
                uncached_reduce_constraint, label, f)


def reduce_both_sides(label, f, g):
    """equal_mod_constraint as two reductions and ratfn_equal."""
    return ratfn_equal(reduce_constraint(label, f), reduce_constraint(label, g))


def verdict(fn, *args):
    try:
        return fn(*args)
    except DenominatorVanishes:
        return "vanishes"


def test_equal_mod_constraint_matches_reducing_both_sides(seed):
    # every commutes pair of verify-groups, each made unequal twice, and
    # seeded pairs, some of whose denominators vanish on the hyperplane
    from painleve_backlund.groups import GROUP_LABELS, field_symbols, generators

    rng = rng_for(seed, "systems-equal-mod-constraint")
    cases = []
    for label in GROUP_LABELS:
        params = system(label).params
        vanishing = RatFn.const(1) / (system(label).constraint_expr() - RatFn.const(1))
        cases += [(label, vanishing, vanishing), (label, RatFn.const(1), vanishing)]
        for gen in generators(label):
            for s in field_symbols(label):
                lhs = derivation_apply(label, gen.acts_on(s))
                rhs = gen(derivation_apply(label, RatFn.variable(s)))
                cases += [(label, lhs, rhs), (label, lhs, rhs + RatFn.variable(params[-1])),
                          (label, lhs * RatFn.variable(q_), rhs)]
        for _ in range(20):
            f = rand_ratfn(rng, params[:2] + (t_, q_), max_terms=2)
            g = f.substitute({params[1]: RatFn.const(1) - RatFn.variable(params[0])})
            cases += [(label, f, g), (label, g, f + RatFn.variable(p_))]
    verdicts = [verdict(equal_mod_constraint, *case) for case in cases]
    assert verdicts == [verdict(reduce_both_sides, *case) for case in cases]
    assert {True, False, "vanishes"} <= set(verdicts)
    # a vanishing denominator raises even when the two sides are identical
    assert verdicts[0] == "vanishes"


def test_constraint_binding_is_shared_and_left_unmutated(capsys):
    from painleve_backlund.cli import main
    from painleve_backlund.exprio import print_expr

    def printed(binding):
        return {s.name: print_expr(f) for s, f in binding.items()}

    bindings = {label: _constraint_binding(label) for label in LABELS}
    before = {label: printed(b) for label, b in bindings.items()}
    assert before["II"] == {"alpha0": "-alpha1 + 1"} and before["I"] == {}
    assert main(["verify-groups"]) == 0
    capsys.readouterr()
    for label, b in bindings.items():
        assert _constraint_binding(label) is b
        assert printed(b) == before[label]

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import painleve_backlund
from painleve_backlund.exprio import parse_expr as P
from painleve_backlund.poly import ONE as P_ONE, Poly, min_key
from painleve_backlund.ratfn import (
    DenominatorVanishes,
    DivisionByZero,
    RatFn,
    ratfn_equal,
)
from painleve_backlund.symbols import alpha, p_, q_, t_

from conftest import rand_poly, rand_ratfn, rng_for


def test_add_same_denominator():
    assert ratfn_equal(P("1/q") + P("1/q"), P("2/q"))


def test_self_division_is_one(seed):
    rng = rng_for(seed, "ratfn-selfdiv")
    syms = (q_, p_, t_)
    for _ in range(100):
        f = rand_ratfn(rng, syms)
        if f.is_zero():
            continue
        assert ratfn_equal(f / f, P("1"))


def test_add_cross_multiplied_by_hand():
    # p + alpha2/p = (p^2 + alpha2)/p, done by cross multiplication
    assert ratfn_equal(P("p") + P("alpha2/p"), P("(p^2 + alpha2)/p"))


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        P("q") / P("0")


def test_substitute_generator_row():
    f = P("p")
    image = f.substitute({p_: P("p - alpha0/(q - t)")})
    assert ratfn_equal(image, P("p - alpha0/(q - t)"))


def test_substitute_identity_bindings():
    f = P("q*p")
    image = f.substitute({q_: P("q"), p_: P("p")})
    assert ratfn_equal(image, f)


def test_substitute_involution():
    # applying {q -> q + alpha2/p, alpha2 -> -alpha2} twice returns q
    binding = {q_: P("q + alpha2/p"), alpha[2]: P("-alpha2")}
    once = P("q").substitute(binding)
    twice = once.substitute(binding)
    assert ratfn_equal(twice, P("q"))


def test_substitute_vanishing_denominator():
    f = P("1/(q - t)")
    with pytest.raises(DenominatorVanishes):
        f.substitute({q_: P("t")})


def test_equal_examples():
    assert ratfn_equal(P("(q^2 - t^2)/(q - t)"), P("q + t"))
    assert not ratfn_equal(P("1/q"), P("1/p"))


def test_equal_is_equivalence(seed):
    rng = rng_for(seed, "ratfn-equiv")
    syms = (q_, t_)
    pool = [rand_ratfn(rng, syms) for _ in range(30)]
    # scaled copies are semantically equal
    for f in pool[:10]:
        g = (f * P("2")) / P("2")
        assert ratfn_equal(f, g) and ratfn_equal(g, f)  # symmetric
        assert ratfn_equal(f, f)  # reflexive
    for f in pool:
        for g in pool:
            for h in pool:
                if ratfn_equal(f, g) and ratfn_equal(g, h):
                    assert ratfn_equal(f, h)  # transitive


def test_partial_examples():
    assert ratfn_equal(P("q^2*p").partial(p_), P("q^2"))
    assert ratfn_equal(P("1/q").partial(q_), P("-1/q^2"))
    # dH_II/dp by hand: p - q^2 - t/2
    H2 = P("(1/2)*p^2 - (q^2 + t/2)*p - alpha1*q")
    assert ratfn_equal(H2.partial(p_), P("p - q^2 - t/2"))


def test_mixed_partials_commute(seed):
    rng = rng_for(seed, "ratfn-mixed")
    syms = (q_, t_, p_)
    for _ in range(60):
        f = rand_ratfn(rng, syms)
        assert ratfn_equal(f.partial(q_).partial(t_), f.partial(t_).partial(q_))


def test_substitution_is_homomorphism(seed):
    rng = rng_for(seed, "ratfn-homo")
    syms = (q_, t_)
    for _ in range(60):
        f = rand_ratfn(rng, syms)
        g = rand_ratfn(rng, syms)
        bindings = {
            q_: rand_ratfn(rng, syms),
            t_: rand_ratfn(rng, syms),
        }
        if any(b.is_zero() for b in bindings.values()):
            continue
        try:
            lhs_mul = (f * g).substitute(bindings)
            lhs_add = (f + g).substitute(bindings)
            fs = f.substitute(bindings)
            gs = g.substitute(bindings)
        except DenominatorVanishes:
            continue
        assert ratfn_equal(lhs_mul, fs * gs)
        assert ratfn_equal(lhs_add, fs + gs)


def test_canonicalization_idempotent(seed):
    rng = rng_for(seed, "ratfn-canon")
    syms = (q_, p_)
    for _ in range(100):
        f = rand_ratfn(rng, syms)
        again = RatFn(f.num, f.den)
        assert again.num == f.num and again.den == f.den


def general_normalisation(num, den):
    """RatFn.__init__ without its unit-denominator path: the reference."""
    if num.is_zero():
        return Poly.zero(), P_ONE
    content = min_key(num.content_key(), den.content_key())
    if content:
        num = num.div_key(content)
        den = den.div_key(content)
    lead = den.leading_coeff()
    if not lead.is_one():
        inv = P_ONE.try_div(lead)
        num = num * inv
        den = den * inv
    return num, den


def test_unit_denominator_path_matches_the_general_normalisation(seed):
    rng = rng_for(seed, "ratfn-unit-den")
    syms = (q_, p_, t_)
    for i in range(200):
        num = rand_poly(rng, syms, max_terms=4, sqrt2_prob=0.5)
        den = P_ONE if i % 2 else rand_poly(rng, syms, allow_zero=False, sqrt2_prob=0.5)
        if den.is_zero():
            continue
        f = RatFn(num, den)
        assert (f.num, f.den) == general_normalisation(num, den), (num, den)
    assert (RatFn(Poly.zero()).num, RatFn(Poly.zero()).den) == (Poly.zero(), P_ONE)


def test_canonical_denominator_is_monic():
    f = P("q / (2*t - 2*q)")
    assert f.den.leading_coeff().is_one()


def test_precheck_first_point_is_pinned(monkeypatch):
    # the seeded sample values, passed as (n, d) pairs in registry order;
    # as Fractions they read alpha0 = -5/4, alpha1 = -3/4, t = 2, q = 1,
    # p = 1, T = 3/4
    from painleve_backlund.poly import Poly

    points = []
    eval_exact = Poly.eval_exact

    def spy(self, values):
        points.append({s.name: v for s, v in values.items()})
        return eval_exact(self, values)

    monkeypatch.setattr(Poly, "eval_exact", spy)
    assert not ratfn_equal(P("alpha0*q + p/t"), P("alpha1*q + T"))
    assert list(points[0].items()) == [
        ("alpha0", (-5, 4)), ("alpha1", (-3, 4)), ("t", (6, 3)),
        ("q", (2, 2)), ("p", (4, 4)), ("T", (3, 4)),
    ]


PRECHECK_SCRIPT = """
import contextlib, io, json
from painleve_backlund import cli
from painleve_backlund.exprio import parse_expr
from painleve_backlund.poly import Poly
from painleve_backlund.ratfn import ratfn_equal

points = []
eval_exact = Poly.eval_exact

def spy(self, values):
    points.append([(s.name, str(v)) for s, v in values.items()])
    return eval_exact(self, values)

Poly.eval_exact = spy
ratfn_equal(parse_expr("alpha0*q + p/t"), parse_expr("alpha1*q + T"))
first = points[:]
out = io.StringIO()
with contextlib.redirect_stdout(out):
    cli.main(["degenerate", "IV", "II", "--format", "json"])
print(json.dumps([first, points, out.getvalue()]))
"""


def test_precheck_points_do_not_follow_the_hash_seed():
    # Symbols hash by name, so a set of them iterates in an order that
    # changes with PYTHONHASHSEED; the sample points must not.
    src = Path(painleve_backlund.__file__).resolve().parents[1]
    runs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, "-c", PRECHECK_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
    (first_1, points_1, report_1), (first_2, points_2, report_2) = runs
    assert first_1 and first_1 == first_2
    assert points_1 == points_2
    assert report_1 == report_2

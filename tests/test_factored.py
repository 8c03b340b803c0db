"""The substitution engine must agree with plain substitution.

plain_substitute is RatFn.substitute as it was before it ran the factored
engine: substituted num over substituted den, with only the tracked binding
denominators cancelled.  It is kept here as the reference.
"""

import pytest

from painleve_backlund.exprio import parse_expr as P
from painleve_backlund.factored import FactoredFrac, substitute_reduced
from painleve_backlund.poly import ONE as P_ONE, Poly
from painleve_backlund.ratfn import DenominatorVanishes, RatFn, ratfn_equal
from painleve_backlund.symbols import MASK, SHIFTS, p_, q_, t_

from conftest import rand_poly, rand_ratfn, rng_for


def plain_subst_poly(poly, bindings):
    active = [(s, b) for s, b in bindings.items() if poly.uses(s)]
    if not active:
        return poly, {}
    degs = [poly.max_exponent(s) for s, _ in active]
    num_pows = []
    den_pows = []
    for (s, b), d in zip(active, degs):
        npws = [P_ONE]
        dpws = [P_ONE]
        for k in range(d):
            npws.append(npws[-1] * b.num)
            dpws.append(dpws[-1] * b.den)
        num_pows.append(npws)
        den_pows.append(dpws)
    shifts = [SHIFTS[s.index] for s, _ in active]
    result = Poly.zero()
    for key, a, b in poly.coefficients():
        term = Poly.const(a, b)
        rest = key
        for i, sh in enumerate(shifts):
            e = (key >> sh) & MASK
            if e:
                rest -= e << sh
            term = term * num_pows[i][e]
            cod = degs[i] - e
            if cod:
                term = term * den_pows[i][cod]
        result = result + term.mul_key(rest)
    factors = {}
    for (s, b), d in zip(active, degs):
        if d and not b.den.is_one():
            factors[b.den] = factors.get(b.den, 0) + d
    return result, factors


def plain_substitute(f, bindings):
    live = {
        s: b
        for s, b in bindings.items()
        if f.uses(s) and not (b.den.is_one() and b.num == Poly.variable(s))
    }
    if not live:
        return f
    num_poly, num_facs = plain_subst_poly(f.num, live)
    den_poly, den_facs = plain_subst_poly(f.den, live)
    if den_poly.is_zero():
        raise DenominatorVanishes("substituted denominator is identically zero")
    num_extra = P_ONE
    den_extra = P_ONE
    for fac in set(num_facs) | set(den_facs):
        diff = den_facs.get(fac, 0) - num_facs.get(fac, 0)
        if diff > 0:
            num_extra = num_extra * fac**diff
        elif diff < 0:
            den_extra = den_extra * fac ** (-diff)
    return RatFn(num_poly * num_extra, den_poly * den_extra)


def size(f):
    return len(f.num.terms) + len(f.den.terms)


def test_round_trip_through_factored_form():
    f = P("(q^2 + t)/(p*(q - 1))")
    assert ratfn_equal(FactoredFrac.from_ratfn(f).to_ratfn(), f)


def test_substitute_matches_plain(seed):
    rng = rng_for(seed, "factored-match")
    syms = (q_, p_, t_)
    for _ in range(120):
        f = rand_ratfn(rng, syms)
        bindings = {q_: rand_ratfn(rng, syms), p_: rand_ratfn(rng, syms)}
        if any(b.is_zero() for b in bindings.values()):
            continue
        try:
            plain = plain_substitute(f, bindings)
        except DenominatorVanishes:
            continue
        fast = f.substitute(bindings)
        assert ratfn_equal(fast, plain)


def test_vanishing_denominator_propagates():
    f = P("1/(q - t)")
    with pytest.raises(DenominatorVanishes):
        f.substitute({q_: P("t")})


def test_zero_over_zero_raises_instead_of_returning_zero():
    # the carried numerator atom q - t and the denominator atom q both map to 0
    state = FactoredFrac.from_ratfn(P("1/(p*q)")).substitute({p_: P("1/(q - t)")})
    assert state.num_facs and state.den_facs
    with pytest.raises(DenominatorVanishes):
        state.substitute({q_: P("0"), t_: P("0")})
    with pytest.raises(DenominatorVanishes):
        plain_substitute(state.to_ratfn(), {q_: P("0"), t_: P("0")})


def test_repeated_factor_cancellation_keeps_sizes_small():
    # a fraction whose numerator hides a power of the binding denominator
    f = P("(q^2 - 2*q + 1)/(p)")
    out = f.substitute({q_: P("1 + 1/p")})
    assert ratfn_equal(out, P("1/p^3"))
    assert len(out.num.terms) == 1 and len(out.den.terms) == 1


def test_substitute_matches_plain_with_sqrt2_coefficients(seed):
    # the IV -> II maps scale by 1/sqrt2, so the engine must agree with
    # plain substitution over the full coefficient field
    rng = rng_for(seed, "factored-sqrt2")
    syms = (q_, p_)
    root = P("1/sqrt2")
    for _ in range(60):
        f = rand_ratfn(rng, syms) * root
        bindings = {
            q_: rand_ratfn(rng, syms) * root,
            p_: rand_ratfn(rng, syms),
        }
        if any(b.is_zero() for b in bindings.values()):
            continue
        try:
            plain = plain_substitute(f, bindings)
        except DenominatorVanishes:
            continue
        assert ratfn_equal(f.substitute(bindings), plain)


def test_word_engine_agrees_with_plain_composition(seed):
    # compose short random generator words both ways
    import random

    from painleve_backlund.groups import apply_word, generators
    from painleve_backlund.ratfn import RatFn
    from painleve_backlund.symbols import q_ as qq, p_ as pp

    # plain composition is exactly what blows up on longer words, so the
    # cross-check stays at two letters
    rng = random.Random(f"{seed}:factored-words")
    for label in ("VI", "V", "IV", "III", "II"):
        names = [g.name for g in generators(label)]
        for _ in range(4):
            word = tuple(rng.choice(names) for _ in range(rng.randint(1, 2)))
            for s in (qq, pp):
                via_engine = apply_word(label, word, RatFn.variable(s))
                plain = RatFn.variable(s)
                from painleve_backlund.groups import generator

                for name in reversed(word):
                    plain = plain_substitute(plain, generator(label, name).action)
                assert ratfn_equal(via_engine, plain), (label, word, s.name)


def test_reduction_rule_follows_the_bindings(seed):
    # polynomial bindings: exactly the plain form; rational bindings: the
    # same value, reduced, and never larger than the plain form
    rng = rng_for(seed, "factored-rule")
    syms = (q_, p_, t_)
    for _ in range(120):
        f = rand_ratfn(rng, syms)
        polynomial = rng.random() < 0.5
        bindings = {
            s: RatFn(rand_poly(rng, syms)) if polynomial else rand_ratfn(rng, syms)
            for s in (q_, p_)
        }
        try:
            plain = plain_substitute(f, bindings)
        except DenominatorVanishes:
            with pytest.raises(DenominatorVanishes):
                f.substitute(bindings)
            continue
        ours = f.substitute(bindings)
        assert ours == substitute_reduced(f, bindings)
        if polynomial:
            assert ours == plain, (f, bindings)
        else:
            assert ratfn_equal(ours, plain), (f, bindings)
            assert size(ours) <= size(plain), (f, bindings)
    # a case the plain form leaves unreduced: (t+1)(p+1)/(t+1)
    f = P("q*p + 1")
    bindings = {q_: P("1/(t + 1)"), p_: P("(t + 1)*p")}
    assert f.substitute(bindings) == P("p + 1")
    assert plain_substitute(f, bindings) == P("(t*p + t + p + 1)/(t + 1)")


def test_word_images_do_not_depend_on_poly_hash(monkeypatch):
    # The peel order of the binding denominators must not follow the hash
    # of Poly: under salted hashes each two-letter W_II word keeps the
    # printed form of its image of every field generator.
    import itertools

    from painleve_backlund.exprio import print_expr
    from painleve_backlund.groups import _letter_images, apply_word, field_symbols

    words = list(itertools.product(("s0", "s1"), repeat=2))

    def images():
        # a warm letter memo would hand back images computed under another hash
        _letter_images.cache_clear()
        out = []
        for w in words:
            for s in field_symbols("II"):
                f = apply_word("II", w, RatFn.variable(s))
                out.append((print_expr(RatFn(f.num)), print_expr(RatFn(f.den))))
        return out

    expected = images()
    for salt in range(1, 4):
        monkeypatch.setattr(
            Poly, "__hash__",
            lambda self, salt=salt: hash((salt, self.den, frozenset(self.terms.items()))),
        )
        assert images() == expected, salt
    # leave later tests no entry keyed by a salted hash
    _letter_images.cache_clear()


def power_roots(bindings):
    """{den: (a, k)}: den = a**k for another binding denominator a, found by
    trying every k up to 6, else (den, 1)."""
    dens = list(dict.fromkeys(b.den for b in bindings.values() if not b.den.is_one()))
    return {d: next(((a, k) for a in dens if a != d and not a.is_const()
                     for k in range(2, 7) if a**k == d), (d, 1)) for d in dens}


def expand_subst_poly(poly, bindings, roots):
    """The engine's polynomial substitution before per-term cancellation:
    every term expanded over prod den(s)^max_deg(s), nothing pending; a
    binding denominator that is a power a**k of another counts as a^k."""
    assert roots == power_roots(bindings)
    tables = []
    factors = {}
    bound = 0
    for s, b in bindings.items():
        d = poly.max_exponent(s)
        if not d:
            continue
        sh = SHIFTS[s.index]
        bound |= MASK << sh
        den_pows = None
        if not b.den.is_one():
            den_pows = [P_ONE]
            for _ in range(d):
                den_pows.append(den_pows[-1] * b.den)
            a, k = roots[b.den]
            factors[a] = factors.get(a, 0) + k * d
        num_pows = [P_ONE]
        for _ in range(d):
            num_pows.append(num_pows[-1] * b.num)
        tables.append((sh, d, num_pows, den_pows))
    if not tables:
        return poly, {}, {}
    result = Poly.zero()
    for key, group in poly.numerator_groups(bound).items():
        for sh, d, num_pows, den_pows in tables:
            e = (key >> sh) & MASK
            group = group * num_pows[e]
            if den_pows:
                group = group * den_pows[d - e]
        result = result + group
    return result.div_int(poly.den), {}, factors


def expand_peel(poly, dens, pending):
    assert not pending
    counts = {}
    for b in dens:
        while (quo := poly.try_div(b)) is not None:
            poly = quo
            counts[b] = counts.get(b, 0) + 1
    return poly, counts


def shared_factor_bindings(rng):
    """q and p bound over denominators that share a factor (g and g^2, g and
    g*h, t^3 and t^6, ...), each numerator carrying the other denominator."""
    from painleve_backlund.symbols import x_, y_

    # x and y are each in one term at most, so g and h are never zero
    g = rand_poly(rng, (t_,), max_terms=2) + Poly.variable(x_)
    h = rand_poly(rng, (t_,), max_terms=2) + Poly.variable(y_)
    t3 = Poly.variable(t_) ** 3
    dq, dp = rng.choice([(g, g * g), (g * g, g), (g, g * h), (g * h, h), (t3, t3 * t3), (g, h)])
    syms = (t_, x_, y_)
    nq = rand_poly(rng, syms, allow_zero=False) * dp ** rng.randint(0, 2) + rand_poly(rng, syms)
    np_ = rand_poly(rng, syms, allow_zero=False) * dq ** rng.randint(0, 2) + rand_poly(rng, syms)
    return {q_: RatFn(nq, dq), p_: RatFn(np_, dp)}


def test_per_term_cancellation_matches_expanding_first(seed, monkeypatch):
    # Differential test against the engine as it was: substitute by
    # expanding every term over the full denominator, then peel (a binding
    # denominator that is a power of another as that atom's power).  The
    # canonical (num, den) must be identical, also through a second
    # substitution that carries the factored numerator and denominator.
    import painleve_backlund.factored as factored

    rng = rng_for(seed, "factored-per-term")
    cases = []
    while len(cases) < 60:
        bindings = shared_factor_bindings(rng)
        num = rand_poly(rng, (q_, p_, t_), max_terms=4, allow_zero=False)
        den = rand_poly(rng, (q_, p_, t_), max_terms=2, allow_zero=False)
        if den.is_zero() or any(b.is_zero() for b in bindings.values()):
            continue
        cases.append((RatFn(num, den), bindings, shared_factor_bindings(rng)))

    def run():
        out = []
        for f, first, second in cases:
            try:
                state = FactoredFrac.from_ratfn(f).substitute(first)
                out.append((state.to_ratfn(), state.substitute(second).to_ratfn()))
            except DenominatorVanishes:
                out.append(None)
        return out

    ours = run()
    monkeypatch.setattr(factored, "_subst_poly", expand_subst_poly)
    monkeypatch.setattr(factored, "_peel", expand_peel)
    assert ours == run()
    assert sum(r is not None for r in ours) > 40


def test_power_binding_denominator_is_peeled_as_its_atom_power():
    # W_II s0 binds q over D = p - 2q^2 - t and p over D^2; s0(D) = D
    from painleve_backlund.groups import apply_word

    D = P("p - 2*q^2 - t")
    assert apply_word("II", ("s0",), D) == D


def unskipped_peel(poly, dens, pending):
    """_peel as it was before it skipped denominators that cannot divide."""
    from painleve_backlund.factored import _expand

    counts = {}
    for b in dens:
        while True:
            if pending.get(b):
                pending[b] -= 1
            else:
                quo = poly.try_div(b)
                if quo is None and any(pending.values()) and b.ends_may_divide(
                        [(poly, 1), *pending.items()]):
                    poly, pending = _expand(pending, poly), {}
                    quo = poly.try_div(b)
                if quo is None:
                    break
                poly = quo
            counts[b] = counts.get(b, 0) + 1
    return poly, counts


def test_peel_skip_changes_no_quotient(seed, monkeypatch):
    # Differential test of the skip rule: the bodies the 89 group checks
    # peel (from cold word caches), and seeded bodies with sqrt2
    # coefficients, pending powers and denominators in symbols they lack.
    import painleve_backlund.factored as factored
    from painleve_backlund.checks import group_check_ids, run_check
    from painleve_backlund.groups import GROUP_LABELS, _letter_images, _word_on_symbol
    from painleve_backlund.symbols import x_, y_

    cases = []
    peel = factored._peel

    def record(poly, dens, pending):
        cases.append((poly, list(dens), dict(pending)))
        return peel(poly, dens, pending)

    monkeypatch.setattr(factored, "_peel", record)
    _word_on_symbol.cache_clear()
    _letter_images.cache_clear()
    ids = [i for label in GROUP_LABELS for i in group_check_ids(label)]
    assert {run_check(i).outcome for i in ids} == {"pass"}
    monkeypatch.undo()
    from_groups = len(cases)

    rng = rng_for(seed, "factored-peel-skip")
    while len(cases) < from_groups + 300:
        # atoms in q, x and y, and products of two, which a pending power
        # may supply the missing symbol of
        a, b, c = (rand_poly(rng, syms, max_terms=2, allow_zero=False, sqrt2_prob=0.5)
                   + Poly.variable(extra) for syms, extra in [((t_,), q_), ((q_,), x_), ((t_,), y_)])
        dens = rng.sample([a, b, c, a * b, b * c], 4)
        poly = rand_poly(rng, (q_, p_, t_), max_terms=3, allow_zero=False, sqrt2_prob=0.5)
        for d in rng.sample(dens, 2):
            poly = poly * d ** rng.randint(0, 2)
        pending = {d: rng.randint(0, 2) for d in rng.sample(dens, rng.randint(0, 3))}
        if not poly.is_zero():
            cases.append((poly, dens, pending))
    skips = 0
    for poly, dens, pending in cases:
        got = factored._peel(poly, dens, dict(pending))
        assert got == unskipped_peel(poly, dens, dict(pending)), (poly, dens, pending)
        skips += not any(pending.values()) and any(
            not poly.uses_all_symbols_of(d) for d in dens)
    assert from_groups > 100 and skips > 100

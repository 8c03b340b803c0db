import pytest

from painleve_backlund.exprio import parse_expr as P
from painleve_backlund.groups import (
    GROUP_LABELS,
    _letter_images,
    apply_word,
    field_symbols,
    fundamental_relations,
    generator,
    generators,
    verify_commutes_with_derivation,
    verify_constraint_preserved,
    verify_relation,
    verify_symplectic,
    weyl_type,
)
from painleve_backlund.ratfn import RatFn, ratfn_equal
from painleve_backlund.symbols import p_, q_
from painleve_backlund.systems import UnsupportedSystem

from conftest import rng_for


def test_group_sizes_and_types():
    sizes = {label: len(generators(label)) for label in GROUP_LABELS}
    assert sizes == {"VI": 5, "V": 4, "IV": 3, "III": 3, "II": 2}
    assert weyl_type("VI") == "D4(1)"
    assert weyl_type("III") == "C2(1)"


def test_no_group_for_first_system():
    with pytest.raises(UnsupportedSystem) as err:
        generators("I")
    assert "Backlund" in str(err.value)


def test_table_rows_spot_checks():
    assert ratfn_equal(generator("VI", "s2").acts_on(q_), P("q + alpha2/p"))
    assert ratfn_equal(
        generator("II", "s0").acts_on(p_),
        P("p + 4*alpha0*q/(p-2*q^2-t) + 2*alpha0^2/(p-2*q^2-t)^2"),
    )
    assert ratfn_equal(
        generator("III", "s1").acts_on(p_),
        P("p - 2*alpha1/q + t/q^2"),
    )
    # only the s1 row of W_III moves t
    t_moving = [
        (label, g.name)
        for label in GROUP_LABELS
        for g in generators(label)
        if not ratfn_equal(g.acts_on(P("t").symbols_used().pop()), P("t"))
    ]
    assert t_moving == [("III", "s1")]


def test_involution_example():
    assert ratfn_equal(apply_word("VI", ("s2", "s2"), P("q")), P("q"))


def test_identity_word():
    f = P("q*p + alpha0")
    assert ratfn_equal(apply_word("VI", (), f), f)


def test_composition_order_both_spellings_agree():
    left = ("s0", "s2", "s3", "s2", "s0")
    right = ("s3", "s2", "s0", "s2", "s3")
    for s in field_symbols("VI"):
        a = apply_word("VI", left, RatFn.variable(s))
        b = apply_word("VI", right, RatFn.variable(s))
        assert ratfn_equal(a, b)


def test_all_involutions():
    for label in GROUP_LABELS:
        for g in generators(label):
            assert verify_relation(label, (g.name, g.name)), (label, g.name)


def test_relation_examples():
    assert verify_relation("IV", ("s0", "s1") * 3)
    assert verify_relation("III", ("s0", "s1") * 4)
    assert verify_relation("V", ("s0", "s2", "s0", "s2"))
    # sanity: a non-relation must fail
    assert not verify_relation("IV", ("s0", "s1"))


def test_full_relation_suites():
    for label in GROUP_LABELS:
        for rel_label, word in fundamental_relations(label):
            assert verify_relation(label, word), (label, rel_label)


def test_relation_counts_match_group_presentations():
    counts = {label: len(fundamental_relations(label)) for label in GROUP_LABELS}
    # involutions + order-2 pairs + order-3 pairs + order-4 pairs
    assert counts == {"VI": 15, "V": 10, "IV": 6, "III": 5, "II": 2}


def test_symplectic_examples():
    assert verify_symplectic("VI", generator("VI", "s0"))
    assert verify_symplectic("II", generator("II", "s0"))
    assert verify_symplectic("V", generator("V", "s1"))


def test_all_generators_symplectic_commuting_constraint_preserving():
    for label in GROUP_LABELS:
        for g in generators(label):
            assert verify_symplectic(label, g), (label, g.name)
            assert verify_constraint_preserved(label, g), (label, g.name)
            assert verify_commutes_with_derivation(label, g), (label, g.name)


def test_commutation_hand_case_III_s1_on_t():
    # delta t = t and s1(t) = -t, so both sides are -t
    from painleve_backlund.systems import derivation_apply

    g = generator("III", "s1")
    t = P("t")
    lhs = derivation_apply("III", g(t))
    rhs = g(derivation_apply("III", t))
    assert ratfn_equal(lhs, P("-t"))
    assert ratfn_equal(rhs, P("-t"))


def test_unknown_generator():
    with pytest.raises(KeyError):
        generator("VI", "s9")
    with pytest.raises(KeyError):
        apply_word("VI", ("s9",), P("q"))


def test_letter_memo_returns_what_a_cold_memo_returns(seed):
    # The image of an atom under a letter depends only on the atom and the
    # letter's bindings, so a memo warmed by other words changes nothing.
    # Words are seeded picks among the 1-4 letter pieces of the relation
    # words, the states the relation checks build.
    rng = rng_for(seed, "letter-memo")
    for label in GROUP_LABELS:
        pieces = sorted({
            word[i:i + k]
            for _, word in fundamental_relations(label)
            for k in range(1, 5) for i in range(len(word) - k + 1)
        })
        cases = [
            (word, RatFn.variable(s))
            for word in rng.sample(pieces, min(6, len(pieces)))
            for s in field_symbols(label)
        ]
        for word, f in cases:
            apply_word(label, word, f)
        assert all(_letter_images(label, name) for word, _ in cases for name in word)
        warm = [apply_word(label, word, f) for word, f in cases]
        for (word, f), got in zip(cases, warm):
            _letter_images.cache_clear()
            cold = apply_word(label, word, f)
            assert (got.num, got.den) == (cold.num, cold.den), (label, word, f)


def relation_halves(word):
    """The words verify_relation acts by: a long word's two halves, else the word."""
    if len(word) >= 6:
        k = len(word) // 2
        return [word[:k], tuple(reversed(word[k:]))]
    return [word]


def test_shared_word_states_match_cold_word_actions():
    # Every relation half of the five groups and of the side-(a) expansions
    # of the five arrows: acting with states shared across all of them gives
    # the canonical num and den of acting from a cold letter memo, whose
    # word states are cleared with it, and cold caches of powers and quotients.
    from painleve_backlund import factored
    from painleve_backlund.degeneration import ARROW_KEYS, arrow
    from painleve_backlund.groups import _word_on_symbol

    words = {(label, half) for label in GROUP_LABELS
             for _, word in fundamental_relations(label) for half in relation_halves(word)}
    for J, K in ARROW_KEYS:
        subgroup_words = arrow(J, K).subgroup_words
        for _, s_word in fundamental_relations(K):
            expanded = tuple(x for s in s_word for x in subgroup_words["S" + s[1:]])
            words |= {(J, half) for half in relation_halves(expanded)}
    _word_on_symbol.cache_clear()
    _letter_images.cache_clear()
    shared = {(label, word, s): _word_on_symbol(label, word, s)
              for label, word in sorted(words) for s in field_symbols(label)}
    for (label, word, s), got in shared.items():
        for memo in (_letter_images, factored._power, factored._quotient):
            memo.cache_clear()
        cold = apply_word(label, word, RatFn.variable(s))
        assert (got.num, got.den) == (cold.num, cold.den), (label, word, s)
    assert len(words) > 60


WORK_SCRIPT = """
import json
from painleve_backlund import poly

counts = dict.fromkeys(["FactoredFrac.substitute", "Poly.try_div", "Poly.__mul__"], 0)

def count(cls, name):
    orig = getattr(cls, name)
    def spy(*args, **kwargs):
        counts[cls.__name__ + "." + name] += 1
        return orig(*args, **kwargs)
    setattr(cls, name, spy)

# before factored loads, since it keeps Poly.try_div and Poly.__pow__ by value
for name in ("try_div", "__mul__"):
    count(poly.Poly, name)
from painleve_backlund import factored
from painleve_backlund.checks import group_check_ids, run_check
from painleve_backlund.groups import GROUP_LABELS

count(factored.FactoredFrac, "substitute")
ids = [i for label in GROUP_LABELS for i in group_check_ids(label)]
outcomes = sorted({run_check(i).outcome for i in ids})
print(json.dumps([len(ids), outcomes, counts]))
"""


def test_group_checks_stay_within_their_work_budget():
    # The 89 group ids from a fresh process (empty caches): each (state,
    # letter) step runs once, a peel skips denominators that cannot divide,
    # and ratfn_equal evaluates nothing.  The engine that acted word by word
    # and pre-checked at sample points made 1,133 substitutions, 1,066
    # trial divisions, 156 evaluations and 3,183 products.
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    import painleve_backlund

    src = Path(painleve_backlund.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", WORK_SCRIPT],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    n_ids, outcomes, counts = json.loads(proc.stdout.splitlines()[-1])
    assert n_ids == 89 and outcomes == ["pass"]
    assert counts["FactoredFrac.substitute"] <= 900, counts
    assert counts["Poly.try_div"] <= 850, counts
    assert counts["Poly.__mul__"] <= 3_183, counts

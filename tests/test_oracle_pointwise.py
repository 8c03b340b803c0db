"""A pointwise oracle for the 38 fundamental relations, free of the kernels.

The generator tables (groups._TABLES, plain strings) are parsed with `ast`
and evaluated with Fractions; no exprio, Poly, RatFn or factored code runs.
A word acts on a point letter by letter: apply_word((u, v), f) = u(v(f)) is
f composed with v's map and then u's, so at a point u's map goes first.
A rational map that is not the identity differs from it at a random point
with high probability (Schwartz 1980; Zippel 1979), and each relation is
checked at 24 seeded points.
"""

import ast
from fractions import Fraction

from painleve_backlund.groups import _RELATION_SCHEMES, _TABLES

from conftest import rand_fraction, rng_for

POINTS = 24
MIN_EVALUATED = 15


class _Exact(ast.NodeTransformer):
    """Integer literals become Fractions, so `/` is exact division."""

    def visit_Constant(self, node):
        return ast.Call(ast.Name("Fraction", ast.Load()), [node], [])


def compile_table(table):
    """{letter: {symbol: code}} from a group's table of strings."""
    out = {}
    for letter, rows in table.items():
        out[letter] = {}
        for name, text in rows.items():
            tree = _Exact().visit(ast.parse(text.replace("^", "**"), mode="eval"))
            out[letter][name] = compile(ast.fix_missing_locations(tree), text, "eval")
    return out


def act(letters, word, point):
    """The point mapped by the word: leftmost letter's map first."""
    for letter in word:
        env = {"Fraction": Fraction, **point}
        point = {**point, **{s: eval(code, env) for s, code in letters[letter].items()}}
    return point


def relations(label, table):
    names = list(table)
    _, comm, braid3, braid4 = _RELATION_SCHEMES[label]
    words = [(f"{n}^2", (n, n)) for n in names]
    for pairs, power in ((comm, 2), (braid3, 3), (braid4, 4)):
        words += [(f"({names[i]} {names[j]})^{power}", (names[i], names[j]) * power)
                  for i, j in pairs]
    return words


def field(label):
    n_params = {"VI": 5, "V": 4, "IV": 3, "III": 3, "II": 2}[label]
    return [f"alpha{i}" for i in range(n_params)] + ["t", "q", "p"]


def check_group(label, table, rng):
    """{relation: (points evaluated, pole hits, points where it failed)}."""
    letters = compile_table(table)
    out = {}
    for rel, word in relations(label, table):
        evaluated = poles = failed = 0
        for _ in range(POINTS):
            point = {s: rand_fraction(rng, span=9) for s in field(label)}
            try:
                image = act(letters, word, point)
            except ZeroDivisionError:
                poles += 1
                continue
            evaluated += 1
            failed += image != point
        out[rel] = (evaluated, poles, failed)
    return out


def test_every_relation_holds_pointwise(seed):
    counts = {}
    for label, table in _TABLES.items():
        rng = rng_for(seed, f"pointwise-{label}")
        for rel, stats in check_group(label, table, rng).items():
            counts[label, rel] = stats
    assert len(counts) == 38
    assert all(failed == 0 for _, _, failed in counts.values()), counts
    assert all(evaluated >= MIN_EVALUATED for evaluated, _, _ in counts.values()), counts
    print(f"pole hits: {sum(poles for _, poles, _ in counts.values())}"
          f" of {POINTS * len(counts)} points")


def test_a_false_relation_fails_pointwise(seed):
    letters = compile_table(_TABLES["IV"])
    rng = rng_for(seed, "pointwise-false")
    point = {s: rand_fraction(rng, span=9) for s in field("IV")}
    assert act(letters, ("s0", "s1"), point) != point


def flip_first_sign(text):
    """text with its first binary + or - (not one inside a power) flipped."""
    for i, ch in enumerate(text):
        if ch in "+-" and i and text[i - 1] not in "(^*/":
            return text[:i] + ("-" if ch == "+" else "+") + text[i + 1:]
    return None


def test_a_flipped_sign_in_a_table_entry_breaks_some_relation(seed):
    caught = []
    for label, table in _TABLES.items():
        for letter, rows in table.items():
            for name, text in rows.items():
                flipped = flip_first_sign(text)
                if flipped is None:
                    continue
                mutated = {k: dict(v) for k, v in table.items()}
                mutated[letter][name] = flipped
                rng = rng_for(seed, f"pointwise-mutant-{label}-{letter}-{name}")
                stats = check_group(label, mutated, rng)
                caught.append((label, letter, name, any(f for _, _, f in stats.values())))
    assert len(caught) > 40
    # W_II's only relations are s0^2 and s1^2, and these three flips keep
    # their letter an involution (alpha1 -> alpha1 - 2*alpha0 is one)
    assert [c[:3] for c in caught if not c[-1]] == [
        ("II", "s0", "alpha1"), ("II", "s1", "alpha0"), ("II", "s1", "q")]

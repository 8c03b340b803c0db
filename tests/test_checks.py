"""The check catalog: per-id dispatch and error records."""

from painleve_backlund import checks as ck
from painleve_backlund import degeneration as dg
from painleve_backlund.exprio import parse_expr, print_expr
from painleve_backlund.groups import fundamental_relations


def test_error_record_names_the_exception_and_its_location():
    rec = ck.run_check("degen/VI-V/relation/bogus/a")
    assert rec.kind == "error"
    assert rec.outcome == "fail"
    assert rec.detail.startswith("KeyError at ")
    assert ".py:" in rec.detail


def test_relation_ids_compute_only_their_own_relation(monkeypatch):
    # side (b) takes one exact eps step per letter of its own relation word;
    # recomputing every relation for every id would make 20x as many
    calls = []
    original = dg._act_on_eps_power

    def counting(lifted, state_u, lead):
        calls.append(lifted.name)
        return original(lifted, state_u, lead)

    monkeypatch.setattr(dg, "_act_on_eps_power", counting)
    arr = dg.arrow("VI", "V")
    ids = [i for i in ck.arrow_check_ids(arr, "relations") if "/relation/" in i]
    assert len(ids) == 20
    records = [ck.run_check(i) for i in ids]
    assert [r.outcome for r in records] == ["pass"] * 20
    letters = sum(len(word) for _, word in fundamental_relations("V"))
    assert letters == 40
    assert len(calls) == letters


def test_symbolic_records_fail_with_a_witness(monkeypatch):
    # a wrong W_V table entry must fail both the parameter and the limit id
    monkeypatch.setattr(dg, "target_table_action", lambda arr, name, X: parse_expr("x"))
    param = ck.run_check("degen/VI-V/param/S0/A0")
    assert (param.outcome, param.detail, param.witness) == ("fail", "= -A0", "expected x")
    limit = ck.run_check("degen/VI-V/limit/S0/Q")
    assert limit.outcome == "fail"
    assert limit.witness == "limit differs from x"
    # a residual that is not flow-trivial must fail the Hamiltonian limit id
    monkeypatch.setattr(dg, "is_flow_trivial", lambda f: False)
    ham = ck.run_check("degen/VI-V/ham/limit")
    residual = dg.hamiltonian_limit_residual(dg.arrow("VI", "V"))
    assert ham.outcome == "fail"
    assert ham.witness == print_expr(residual) and not residual.is_zero()


def test_group_checks_stay_within_their_work_budget(monkeypatch):
    # With cold caches, all 89 group ids cost at most 3,400 products and
    # 1,350 trial divisions: each letter maps an atom once, and H_p, H_q and
    # the constraint binding are built once per system.  Recomputing them
    # costs 5,088 and 2,289.
    from painleve_backlund import groups as gr, systems
    from painleve_backlund.poly import Poly

    for module in (gr, systems):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    ids = [i for label in gr.GROUP_LABELS for i in ck.group_check_ids(label)]
    for label in gr.GROUP_LABELS:
        systems.system(label)  # parse the tables before counting
    counts = {"mul": 0, "try_div": 0}
    mul, try_div = Poly.__mul__, Poly.try_div

    def counting_mul(self, other):
        counts["mul"] += 1
        return mul(self, other)

    def counting_try_div(self, other):
        counts["try_div"] += 1
        return try_div(self, other)

    monkeypatch.setattr(Poly, "__mul__", counting_mul)
    monkeypatch.setattr(Poly, "try_div", counting_try_div)
    outcomes = [ck.run_check(i).outcome for i in ids]
    assert len(ids) == 89 and set(outcomes) == {"pass"}
    assert counts["mul"] <= 3400 and counts["try_div"] <= 1350, counts

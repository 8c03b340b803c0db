"""The check catalog: per-id dispatch and error records."""

from painleve_backlund import checks as ck
from painleve_backlund import degeneration as dg
from painleve_backlund.groups import fundamental_relations


def test_error_record_names_the_exception_and_its_location():
    rec = ck.run_check("degen/VI-V/relation/bogus/a")
    assert rec["kind"] == "error"
    assert rec["outcome"] == "fail"
    assert rec["detail"].startswith("KeyError at ")
    assert ".py:" in rec["detail"]


def test_relation_ids_compute_only_their_own_relation(monkeypatch):
    # side (b) acts on the eps series once per letter of its own relation
    # word; recomputing every relation for every id would make 20x as many
    calls = []
    original = dg._act_on_eps_series

    def counting(lifted, s):
        calls.append(lifted.name)
        return original(lifted, s)

    monkeypatch.setattr(dg, "_act_on_eps_series", counting)
    arr = dg.arrow("VI", "V")
    ids = [i for i in ck.arrow_check_ids(arr, "relations") if "/relation/" in i]
    assert len(ids) == 20
    records = [ck.run_check(i) for i in ids]
    assert [r["outcome"] for r in records] == ["pass"] * 20
    letters = sum(len(word) for _, word in fundamental_relations("V"))
    assert letters == 40
    assert len(calls) == letters

"""The verdict checks reject wrong answers.  These tests import catcw from
the checkout's src."""

import pytest

import presentations as pres
from queries import Session, WrongVerdict, check_table, run_query
from reference import model_for
from spans import Tracer

import catcw


def test_a_correct_table_passes_and_a_corrupted_one_fails():
    p = pres.dihedral(5)
    fin = catcw.to_finite(catcw.from_json(p["doc"]))
    model = model_for(p["spec"])
    check_table(fin, model, seed=1)
    # swap the results of two cells: still a table of the right size
    cells = sorted(fin.compose_table)
    a, b = cells[7], cells[11]
    fin.compose_table[a], fin.compose_table[b] = fin.compose_table[b], fin.compose_table[a]
    with pytest.raises(WrongVerdict):
        for seed in range(50):
            check_table(fin, model, seed)


def test_a_table_of_the_wrong_group_fails():
    fin = catcw.to_finite(catcw.from_json(pres.dihedral(5)["doc"]))
    with pytest.raises(WrongVerdict):
        check_table(fin, model_for(pres.abelian(2, 5)["spec"]), seed=1)


def test_braid_monoid_write_is_undecided():
    q = {"kind": "write", "id": "b", "pres": pres.braid_monoid("t."), "budget": 60, "check_seed": 0}
    assert run_query(q, Session(Tracer(False))) == "undecided"


def test_read_with_a_wrong_second_word_fails():
    p = pres.coxeter("A", 3, "t.")
    s = Session(Tracer(False))
    assert run_query({"kind": "write", "id": "w", "pres": p, "budget": 500, "check_seed": 0}, s) == "verdict"
    read = {"kind": "read", "of": "w", "at": "t.*", "word": ["t.s0", "t.s1"], "word2": ["t.s1", "t.s0"]}
    with pytest.raises(WrongVerdict):
        run_query(read, s)

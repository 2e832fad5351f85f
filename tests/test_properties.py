"""Properties over seeded random presentations, drawn by hypothesis.

The draws are derandomized and fixed in number, so every run checks the
same seeds.
"""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from catcw import (
    CatError,
    IncompleteSystem,
    K0Witness,
    NotFinite,
    PointedCategory,
    clear_completion_cache,
    completion_cache_info,
    from_json,
    k0_vanishing_witness,
    to_finite,
)
from catcw import fpcat, ktheory
from catcw.fpcat import DEFAULT_RULE_BUDGET
from conftest import pool8, random_pointed

BOUND, BUDGET = 32, 20


def _fields(fin):
    return (
        fin.objects, fin.labels, fin.mor_src, fin.mor_dst, fin.paths,
        list(fin.identities.items()), list(fin.gen_image.items()),
        list(fin.compose_table.items()),
    )


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_a_json_round_trip_reads_the_shared_table(seed):
    """JSON is read back exactly, and the table an equal presentation reads
    from the shared entry equals a cold build, whatever an earlier caller did
    to its own copy."""
    cat = random_pointed(random.Random(seed)).cat
    doc = cat.to_json()
    assert from_json(doc).to_json() == doc
    clear_completion_cache()
    try:
        first = to_finite(cat, BOUND, BUDGET)
    except (IncompleteSystem, NotFinite) as exc:
        with pytest.raises(type(exc)):  # errors are not kept
            to_finite(from_json(doc), BOUND, BUDGET)
        return
    first.compose_table.clear()
    first.identities.clear()
    warm = to_finite(from_json(doc), BOUND, BUDGET)
    clear_completion_cache()
    cold = to_finite(from_json(doc), BOUND, BUDGET)
    assert _fields(warm) == _fields(cold)


def _pointed(choice):
    """A pool8 member pointed at one of its objects, or a ``random_pointed`` draw."""
    kind, n, seed = choice
    if kind == "pool8":
        C = pool8()[n]
        return PointedCategory(C, C.objects[seed % len(C.objects)])
    return random_pointed(random.Random(seed))


def _slots(w) -> list:
    """Every category, functor and pushout a witness holds, at fixed places."""
    slots = [w.x.cat, w.px, w.sx.cat, w.psx, w.s2x.cat]
    slots += [w.contract_px.category, w.contract_psx.category]
    for cert in (w.cert1, w.cert2):
        po = cert.pushout
        functors = [cert.i, cert.q, cert.comparison, cert.inverse]
        functors += [po.inj_left, po.inj_right, *po.from_span]
        slots += [po, po.apex, *functors]
        slots += [c for F in functors if F is not None for c in (F.source, F.target)]
    return slots


def _sharing(w) -> list[int]:
    """For each slot of ``_slots(w)``, the first slot holding the same object."""
    slots = _slots(w)
    return [next(j for j, other in enumerate(slots) if other is obj) for obj in slots]


def _templates() -> int:
    return sum(isinstance(e, ktheory._Template) for e in fpcat._completion_order)


def _edit(w, spare) -> None:
    """Edit a witness's stage inverse tables, but not the input ``spare``
    that the caller owns, its functor maps and its hom counts."""
    for cat in (w.x.cat, w.px, w.sx.cat, w.psx, w.s2x.cat):
        if cat is not spare:
            cat.inverses.clear()
    for cert in (w.cert1, w.cert2):
        cert.q.gen_map.clear()
        cert.inverse.gen_map.clear()
        cert.pushout.inj_right.gen_map.clear()
        if cert.hom_card is not None:
            cert.hom_card.clear()


POINTED = st.one_of(
    st.tuples(st.just("pool8"), st.integers(0, 7), st.integers(0, 2)),
    st.tuples(st.just("random"), st.just(0), st.integers(0, 2**32 - 1)),
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(POINTED, st.sampled_from([DEFAULT_RULE_BUDGET, 1]))
def test_a_shared_k0_witness_is_a_cold_build(choice, budget):
    """A witness built or read from the cache equals a cold one byte for
    byte, replays, holds the same objects at the same places, and shares
    nothing an edit could reach with an earlier caller's; errors are raised
    on every call and keep nothing."""
    X = _pointed(choice)
    clear_completion_cache()
    try:
        cold = k0_vanishing_witness(X, budget)
    except CatError as exc:
        assert _templates() == 0
        with pytest.raises(type(exc), match=str(exc)):
            k0_vanishing_witness(X, budget)
        assert _templates() == 0
        return
    text = cold.to_json()
    hit = k0_vanishing_witness(X, budget)
    assert hit.to_json() == text
    assert cold.replay(budget) and hit.replay(budget)
    assert hit.x.cat is X.cat and _sharing(hit) == _sharing(cold)
    assert {id(o) for o in _slots(hit)} & {id(o) for o in _slots(cold)} == {id(X.cat)}

    read = K0Witness.from_json(text)
    again = K0Witness.from_json(text)
    assert read.to_json() == again.to_json() == text
    assert read.replay(budget) and again.replay(budget)
    assert _sharing(again) == _sharing(read)
    assert not {id(o) for o in _slots(again)} & {id(o) for o in _slots(read)}

    for w in (cold, hit, read, again):
        _edit(w, X.cat)
    for w in (k0_vanishing_witness(X, budget), K0Witness.from_json(text)):
        assert w.to_json() == text and w.replay(budget)

    # a stated hom count is each reader's own
    doc = json.loads(text)
    doc["cert1"]["hom_card"] = {"x|x": 1}
    counted = json.dumps(doc)
    K0Witness.from_json(counted).cert1.hom_card.clear()
    assert K0Witness.from_json(counted).cert1.hom_card == {"x|x": 1}

    entries = completion_cache_info().entries
    doc["format"] = "catcw-k0-witness-999"
    for bad, error in ((text[:-1], json.JSONDecodeError), (json.dumps(doc), CatError)):
        for _ in range(2):
            with pytest.raises(error):
                K0Witness.from_json(bad)
    assert completion_cache_info().entries == entries

"""Properties over seeded random presentations, drawn by hypothesis.

The draws are derandomized and fixed in number, so every run checks the
same seeds.
"""

import copy
import dataclasses
import json
import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from catcw import (
    CatError,
    IncompleteSystem,
    K0Witness,
    NotFinite,
    PointedCategory,
    build_two_complex,
    chaotic,
    clear_completion_cache,
    completion_cache_info,
    cone_unit,
    from_json,
    k0_vanishing_witness,
    point_collapse,
    pushout,
    read_off_presentation,
    sphere,
    terminal,
    to_finite,
)
from catcw import fpcat
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


def _kept() -> int:
    """The number of K0 witnesses the cache of shared values holds."""
    return sum(isinstance(value, K0Witness) for value, _, _ in fpcat._shared.values())


def _witness_parts(w) -> tuple[list, list]:
    """Every mapping a witness holds, and every record in it whose fields
    could otherwise be set."""
    mappings = [c.inverses for c in (w.x.cat, w.px, w.sx.cat, w.psx, w.s2x.cat)]
    records = [w, w.x, w.sx, w.s2x, w.contract_px, w.contract_psx]
    for cert in (w.cert1, w.cert2):
        po = cert.pushout
        functors = [cert.i, cert.q, cert.comparison, cert.inverse, po.inj_left, po.inj_right]
        for F in functors + list(po.from_span):
            if F is not None:
                mappings += [F.object_map, F.gen_map, F.source.inverses, F.target.inverses]
        mappings.append(po.apex.inverses)
        if cert.hom_card is not None:
            mappings.append(cert.hom_card)
        records += [cert, po]
    return mappings, records


def _assert_read_only(mappings, records=()) -> None:
    """Setting or deleting a key of each mapping raises, and so does
    setting a field of each record."""
    for m in mappings:
        key = next(iter(m), "junk")
        with pytest.raises(TypeError):
            m[key] = "junk"
        with pytest.raises(TypeError):
            del m[key]
    for r in records:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(r, dataclasses.fields(r)[0].name, None)


POINTED = st.one_of(
    st.tuples(st.just("pool8"), st.integers(0, 7), st.integers(0, 2)),
    st.tuples(st.just("random"), st.just(0), st.integers(0, 2**32 - 1)),
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(POINTED, st.sampled_from([DEFAULT_RULE_BUDGET, 1]))
def test_a_shared_k0_witness_is_a_cold_build(choice, budget):
    """A witness built or read from the cache is the one kept, equals a
    cold build byte for byte, replays, and cannot be edited; errors are
    raised on every call and keep nothing."""
    X = _pointed(choice)
    clear_completion_cache()
    try:
        cold = k0_vanishing_witness(X, budget)
    except CatError as exc:
        assert _kept() == 0
        with pytest.raises(type(exc), match=str(exc)):
            k0_vanishing_witness(X, budget)
        assert _kept() == 0
        return
    text = cold.to_json()
    hit = k0_vanishing_witness(X, budget)
    assert hit is cold and hit.x.cat is X.cat
    assert cold.replay(budget)

    read = K0Witness.from_json(text)
    again = K0Witness.from_json(text)
    assert again is read and read.to_json() == text
    assert read.replay(budget)

    for w in (cold, read):
        _assert_read_only(*_witness_parts(w))
    for w in (k0_vanishing_witness(X, budget), K0Witness.from_json(text)):
        assert w.to_json() == text and w.replay(budget)

    # a stated hom count is read-only too
    doc = json.loads(text)
    doc["cert1"]["hom_card"] = {"x|x": 1}
    counted = json.dumps(doc)
    _assert_read_only([K0Witness.from_json(counted).cert1.hom_card])
    assert K0Witness.from_json(counted).cert1.hom_card == {"x|x": 1}

    entries = completion_cache_info().entries
    doc["format"] = "catcw-k0-witness-999"
    for bad, error in ((text[:-1], json.JSONDecodeError), (json.dumps(doc), CatError)):
        for _ in range(2):
            with pytest.raises(error):
                K0Witness.from_json(bad)
    assert completion_cache_info().entries == entries


def _handed_out(kind: str, X: PointedCategory):
    """What one cached call of ``kind`` hands out for ``X``: the value,
    every mapping and record in it, and what a cold build must match."""
    if kind == "witness":
        w = k0_vanishing_witness(X)
        return w, *_witness_parts(w), (w.to_json(), w.replay())
    if kind == "witness_text":
        text = k0_vanishing_witness(X).to_json()
        w = K0Witness.from_json(text)
        return w, *_witness_parts(w), (w.to_json(), w.replay())
    if kind == "table":  # the kept table catcw's readers share; callers get a copy
        fin = fpcat._finite(from_json(X.cat.to_json()), BOUND, BUDGET)
        maps = [fin.compose_table, fin.identities, fin.gen_image, fin.inverses()]
        return fin, maps, [], _fields(fin)
    if kind == "pushout":
        po = pushout(cone_unit(X), point_collapse(X.cat))
        legs = (po.inj_left, po.inj_right)
        maps = [po.apex.inverses] + [m for F in legs for m in (F.object_map, F.gen_map)]
        answer = (po.apex.to_json(), [F.to_json_obj() for F in legs], po.verify())
        return po.apex, maps, [po], answer
    cat = {
        "document": lambda: from_json(X.cat.to_json()),
        "chaotic": lambda: chaotic(X.cat.objects),
        "terminal": lambda: terminal(X.basepoint),
        "sphere": lambda: sphere(len(X.cat.objects) % 4),
        "two_complex": lambda: build_two_complex(
            read_off_presentation(to_finite(chaotic(X.cat.objects)))
        ),
    }[kind]()
    return cat, [cat.inverses], [], (cat.to_json(), list(cat.inverses.items()))


HANDED_OUT = [
    "document", "table", "chaotic", "terminal", "sphere", "two_complex",
    "pushout", "witness", "witness_text",
]


@settings(derandomize=True, max_examples=30, deadline=None)
@given(POINTED)
@pytest.mark.parametrize("kind", HANDED_OUT)
def test_every_container_a_cache_hands_out_is_read_only(kind, choice):
    """Each cache hands every equal call one value: editing any mapping or
    record field in it raises, and the next equal call gets that value,
    which equals a cold build (its JSON and, for a witness, its replay)."""
    X = _pointed(choice)
    clear_completion_cache()
    try:
        first, mappings, records, _ = _handed_out(kind, X)
    except CatError:
        return  # no finite table, or no witness at budget 500
    assert mappings
    _assert_read_only(mappings, records)
    warm, _, _, warm_answer = _handed_out(kind, X)
    assert warm is first
    clear_completion_cache()
    cold, _, _, cold_answer = _handed_out(kind, X)
    assert cold is not first and warm_answer == cold_answer


@pytest.mark.parametrize("kind", HANDED_OUT)
def test_handed_out_values_pickle_and_deep_copy(kind):
    """A value a cache hands out pickles and deep-copies to an equal value
    of its own, whose mappings are read-only again."""
    clear_completion_cache()
    first, mappings, records, answer = _handed_out(kind, _pointed(("pool8", 3, 0)))
    for twin in (pickle.loads(pickle.dumps(first)), copy.deepcopy(first)):
        assert twin is not first and twin == first
        if kind == "table":
            assert _fields(twin) == answer
            _assert_read_only([twin.compose_table, twin.identities, twin.gen_image])
        elif kind.startswith("witness"):
            assert (twin.to_json(), twin.replay()) == answer
            _assert_read_only(*_witness_parts(twin))
        else:
            assert twin.to_json() == first.to_json()
            _assert_read_only([twin.inverses])


def test_a_presentation_pickled_in_another_process_finds_its_completion():
    """String hashes differ between processes, so a loaded presentation's
    key hashes again: it finds the completion an equal presentation made
    here."""
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    src = os.path.dirname(os.path.dirname(fpcat.__file__))
    code = (
        "import pickle, sys; from catcw import chaotic; "
        "sys.stdout.buffer.write(pickle.dumps(chaotic(['p', 'q', 'r'])))"
    )
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True)
    clear_completion_cache()
    here = chaotic(["p", "q", "r"])
    loaded = pickle.loads(out.stdout)
    assert loaded is not here and loaded == here
    assert loaded.completion() is here.completion()

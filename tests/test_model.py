"""Cofibrations, isofibrations, equivalences, groupoids, contractibility."""

import itertools
import json

import pytest

from catcw import (
    EquivalenceCertificate,
    FiniteFunctor,
    Functor,
    NotEquivalence,
    Path,
    SearchSpaceTooLarge,
    all_functors,
    build,
    chaotic,
    find_equivalence,
    find_isomorphism,
    is_cofibration,
    is_contractible,
    is_equivalence,
    is_groupoid,
    is_groupoid_fp,
    is_isofibration,
    iso_core,
    sphere,
    terminal,
    to_finite,
)
from catcw.model_structure import groupoid_witness
from conftest import (
    arrow_cat,
    c2_cat,
    c3_cat,
    discrete2,
    groupoid_pool6,
    interval_cat,
    path2_cat,
    pool8,
)


def test_is_cofibration_object_injectivity():
    a = arrow_cat()
    one = terminal()
    incl = Functor(one, a, {"pt": "a"}, {})
    assert is_cofibration(incl)
    squash = Functor(discrete2(), one, {"x": "pt", "y": "pt"}, {})
    assert not is_cofibration(squash)


def test_iso_core_groupoid_is_itself():
    c2 = to_finite(c2_cat())
    core = iso_core(c2)
    assert core.n == c2.n
    assert core.objects == c2.objects


def test_iso_core_arrow_keeps_identities_only():
    fin = to_finite(arrow_cat())
    core = iso_core(fin)
    assert len(core.objects) == 2
    assert core.n == 2  # just the two identities


def test_iso_core_interval_has_all_four():
    fin = to_finite(interval_cat())
    core = iso_core(fin)
    assert core.n == 4


def _iso_ids_tuple_construction(C):
    # pairs composing to an identity, then matched middles: 4-tuples
    # (a, b, c, d) with a;b and c;d identities and b = c pick out exactly
    # the morphisms with inverses on both sides
    sections = [(a, b) for (a, b), h in C.compose_table.items() if C.is_identity(h)]
    firsts = {a for a, _ in sections}
    return {b for _, b in sections if b in firsts}


def test_iso_core_matches_tuple_construction():
    for C in [to_finite(c) for c in pool8()] + groupoid_pool6():
        core = iso_core(C)
        oracle = _iso_ids_tuple_construction(C)
        assert core.n == len(oracle)
        assert set(core.labels) == {C.labels[i] for i in oracle}


def test_isofibration_examples():
    ch2 = to_finite(chaotic(["p", "q"]))
    one = to_finite(terminal())
    proj = FiniteFunctor(ch2, one, {"p": "pt", "q": "pt"}, [one.identities["pt"]] * ch2.n)
    assert is_isofibration(proj)
    # picking one endpoint of an invertible interval cannot lift the flip
    inter = to_finite(interval_cat())
    pick = FiniteFunctor(one, inter, {"pt": "a"}, [inter.identities["a"]])
    assert not is_isofibration(pick)


def test_equivalence_certificate_and_json():
    ch2 = to_finite(chaotic(["p", "q"]))
    one = to_finite(terminal())
    proj = FiniteFunctor(ch2, one, {"p": "pt", "q": "pt"}, [one.identities["pt"]] * ch2.n)
    cert = is_equivalence(proj)
    assert isinstance(cert, EquivalenceCertificate)
    assert cert.verify()
    doc = json.loads(cert.to_json())
    assert doc["fully_faithful"] and doc["essentially_surjective"]


def test_not_equivalence_s0_to_point():
    s0 = to_finite(sphere(0))
    one = to_finite(terminal())
    F = FiniteFunctor(s0, one, {x: "pt" for x in s0.objects}, [one.identities["pt"]] * s0.n)
    verdict = is_equivalence(F)
    assert isinstance(verdict, NotEquivalence)
    assert not verdict
    assert verdict.reason == "not_full"


def test_not_essentially_surjective():
    one = to_finite(terminal())
    s0 = to_finite(sphere(0))
    incl = FiniteFunctor(one, s0, {"pt": s0.objects[0]}, [s0.identities[s0.objects[0]]])
    verdict = is_equivalence(incl)
    assert isinstance(verdict, NotEquivalence)
    assert verdict.reason == "not_essentially_surjective"


def test_groupoid_tests():
    assert is_groupoid(to_finite(c2_cat()))
    assert not is_groupoid(to_finite(arrow_cat()))
    w = groupoid_witness(to_finite(arrow_cat()))
    assert w is not None
    assert groupoid_witness(to_finite(c3_cat())) is None


def test_is_groupoid_fp_tristate():
    assert is_groupoid_fp(c2_cat()) is True
    assert is_groupoid_fp(arrow_cat()) is False
    z = build(["x"], [("a", "x", "x")], [], ["a"])
    assert is_groupoid_fp(z) is True
    # braid relation: not finite within bounds, completion keeps diverging
    braid = build(
        ["x"],
        [("a", "x", "x"), ("b", "x", "x")],
        [(Path("x", ("a", "b", "a")), Path("x", ("b", "a", "b")))],
        [],
    )
    assert is_groupoid_fp(braid, budget=3, bound=8) is None


def test_is_contractible_basics():
    assert is_contractible(chaotic(["p"]))
    assert is_contractible(chaotic(["p", "q", "r"]))
    assert not is_contractible(sphere(0))
    assert not is_contractible(sphere(1))
    assert not is_contractible(discrete2())


def test_contractible_agrees_with_equivalence_search():
    one = to_finite(terminal())
    for cat in pool8():
        fin = to_finite(cat)
        if len(fin.objects) > 4:
            continue
        got = is_contractible(cat)
        oracle = find_equivalence(fin, one) is not None
        assert got == oracle, cat


def test_all_functors_counts():
    # endofunctors of the arrow category: 3 (classical count)
    a = arrow_cat()
    fin = to_finite(a)
    assert sum(1 for _ in all_functors(a, fin)) == 3
    # arrow into the 2-element group: image of f can be either element
    c2 = to_finite(c2_cat())
    assert sum(1 for _ in all_functors(a, c2)) == 2


def test_all_functors_respects_relations():
    c2 = c2_cat()
    z3 = to_finite(c3_cat())
    # t must land on an element of order dividing 2: only the identity
    assert sum(1 for _ in all_functors(c2, z3)) == 1


def test_search_space_guard():
    ch3 = chaotic(["p", "q", "r"])
    fin = to_finite(ch3)
    with pytest.raises(SearchSpaceTooLarge):
        list(all_functors(ch3, fin, product_bound=2))


def test_find_isomorphism_positive_and_negative():
    c3a = to_finite(c3_cat())
    c3b = to_finite(
        build(["y"], [("s", "y", "y")],
              [(Path("y", ("s", "s", "s")), Path("y"))], ["s"])
    )
    iso = find_isomorphism(c3a, c3b)
    assert iso is not None
    assert find_isomorphism(c3a, to_finite(c2_cat())) is None


def test_find_equivalence_chaotic_to_point():
    ch = to_finite(chaotic(["p", "q"]))
    one = to_finite(terminal())
    F = find_equivalence(ch, one)
    assert F is not None and is_equivalence(F)


def test_equivalence_certificate_bytes_chaotic_to_point():
    cert = is_equivalence(find_equivalence(to_finite(chaotic(["p", "q"])), to_finite(terminal())))
    assert cert.to_json() == (
        '{"essentially_surjective":{"pt":["p",0,0]},'
        '"fully_faithful":{"p|p":[[0,0]],"p|q":[[2,0]],"q|p":[[3,0]],"q|q":[[1,0]]},'
        '"functor":{"gen_map":{"2":0,"3":0},"object_map":{"p":"pt","q":"pt"}}}'
    )


# (object map, image of every morphism) of the functor each search returns
# on groupoid_pool6()[i] -> groupoid_pool6()[j]; pairs not listed find none
POOL6_EQUIVALENCES = {
    (0, 0): ({"x": "x"}, (0, 1)),
    (1, 1): ({"x": "x"}, (0, 1, 2)),
    (2, 2): ({"x": "x", "y": "y"}, (0, 1)),
    (3, 3): ({"p": "p", "q": "p"}, (0, 0, 0, 0)),
    (3, 4): ({"p": "a", "q": "a"}, (0, 0, 0, 0)),
    (4, 3): ({"a": "p", "b": "p"}, (0, 0, 0, 0)),
    (4, 4): ({"a": "a", "b": "a"}, (0, 0, 0, 0)),
    (5, 5): ({"0.x": "0.x", "1.x": "1.x"}, (0, 1, 2, 3, 4)),
}
POOL6_ISOMORPHISMS = {
    (0, 0): ({"x": "x"}, (0, 1)),
    (1, 1): ({"x": "x"}, (0, 1, 2)),
    (2, 2): ({"x": "x", "y": "y"}, (0, 1)),
    (3, 3): ({"p": "p", "q": "q"}, (0, 1, 2, 3)),
    (3, 4): ({"p": "a", "q": "b"}, (0, 1, 2, 3)),
    (4, 3): ({"a": "p", "b": "q"}, (0, 1, 2, 3)),
    (4, 4): ({"a": "a", "b": "b"}, (0, 1, 2, 3)),
    (5, 5): ({"0.x": "0.x", "1.x": "1.x"}, (0, 1, 2, 3, 4)),
}


@pytest.mark.parametrize(
    "search, pinned",
    [(find_equivalence, POOL6_EQUIVALENCES), (find_isomorphism, POOL6_ISOMORPHISMS)],
)
def test_searches_on_groupoid_pool6_are_pinned(search, pinned):
    pool = groupoid_pool6()
    for (i, C), (j, D) in itertools.product(enumerate(pool), repeat=2):
        F = search(C, D)
        assert (None if F is None else (F.object_map, F.mor)) == pinned.get((i, j)), (i, j)


def test_identity_is_equivalence_across_pool():
    for cat in pool8():
        fin = to_finite(cat)
        ident = FiniteFunctor(fin, fin, {x: x for x in fin.objects}, range(fin.n))
        assert is_equivalence(ident)
        assert find_isomorphism(fin, fin) is not None

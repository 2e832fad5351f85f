"""Cofibrations, isofibrations, equivalences, groupoids, contractibility."""

import itertools
import json
import random
import tracemalloc

import pytest

from catcw import (
    CatError,
    EquivalenceCertificate,
    FiniteCategory,
    FiniteFunctor,
    Functor,
    NotEquivalence,
    Path,
    SearchSpaceTooLarge,
    all_functors,
    build,
    check_functor,
    chaotic,
    discrete,
    find_equivalence,
    finite_to_fp,
    find_isomorphism,
    functors_equal,
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
from catcw.model_structure import DEFAULT_PRODUCT_BOUND, groupoid_witness
from conftest import (
    arrow_cat,
    c2_cat,
    c3_cat,
    discrete2,
    groupoid_pool6,
    interval_cat,
    path2_cat,
    pool8,
    random_pointed,
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


def test_functors_into_a_finite_category_are_checked_on_the_table():
    c2 = c2_cat()
    z3 = to_finite(c3_cat())
    found = list(all_functors(c2, z3))
    assert found and all(check_functor(F) for F in found)
    F = found[0]
    assert functors_equal(F, F)
    rotation = next(i for i in z3.hom("x", "x") if not z3.is_identity(i))
    # t;t = id fails when t goes to an element of order 3
    breaks_relation = Functor(c2, z3, F.object_map, {"t": rotation})
    assert not check_functor(breaks_relation)
    assert not functors_equal(F, breaks_relation)
    assert not check_functor(Functor(c2, z3, F.object_map, {"t": z3.n}))


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


def _product_oracle(src, dst, product_bound=DEFAULT_PRODUCT_BOUND, object_maps=None):
    """The exhaustive search behind ``all_functors`` before backtracking.

    Walks the full product of candidates over the generators, or over the
    multiplication-table presentation of a finite source, and checks each
    candidate against every relation.  Charges each object map its product
    size up front.
    """
    finite = isinstance(src, FiniteCategory)
    fp = finite_to_fp(src) if finite else src
    gens = fp.quiver.generators
    if object_maps is None:
        object_maps = [
            dict(zip(fp.objects, combo))
            for combo in itertools.product(dst.objects, repeat=len(fp.objects))
        ]
    examined = 0
    for omap in object_maps:
        cands = [dst.hom(omap[g.src], omap[g.dst]) for g in gens]
        if not all(cands):
            continue
        size = 1
        for hom in cands:
            size *= len(hom)
        examined += size
        if examined > product_bound:
            raise SearchSpaceTooLarge(product_bound)
        for combo in itertools.product(*cands):
            gen_map = {g.name: m for g, m in zip(gens, combo)}
            F = Functor(fp, dst, omap, gen_map)
            if not all(F.apply_path(lhs) == F.apply_path(rhs) for lhs, rhs in fp.relations):
                continue
            if finite:
                mor = [dst.identities[omap[x]] for x in src.mor_src]
                for name, m in gen_map.items():  # finite_to_fp names morphism i "m<i>"
                    mor[int(name[1:])] = m
                F = FiniteFunctor(src, dst, omap, mor)
            yield F


def _oracle_find_equivalence(C, D, product_bound):
    return next((F for F in _product_oracle(C, D, product_bound) if is_equivalence(F)), None)


def _oracle_find_isomorphism(C, D, product_bound):
    if len(C.objects) != len(D.objects) or C.n != D.n:
        return None
    perms = [dict(zip(C.objects, p)) for p in itertools.permutations(D.objects)]
    found = _product_oracle(C, D, product_bound, perms)
    return next((F for F in found if len(set(F.mor)) == D.n and is_equivalence(F)), None)


def _cyclic(k):
    return build(["x"], [("t", "x", "x")], [(Path("x", ("t",) * k), Path("x"))], ["t"])


def _dihedral(k):
    """D_k of order 2k: r^k = 1, s s = 1, r s = s r^(k-1)."""
    rels = [
        (Path("x", ("r",) * k), Path("x")),
        (Path("x", ("s", "s")), Path("x")),
        (Path("x", ("r", "s")), Path("x", ("s",) + ("r",) * (k - 1))),
    ]
    return build(["x"], [("r", "x", "x"), ("s", "x", "x")], rels, ["s"])


def _z2_times_z3():
    rels = [
        (Path("x", ("a", "a")), Path("x")),
        (Path("x", ("b",) * 3), Path("x")),
        (Path("x", ("b", "a")), Path("x", ("a", "b"))),
    ]
    return build(["x"], [("a", "x", "x"), ("b", "x", "x")], rels)


def _coxeter_a(rank):
    """The symmetric group on rank + 1 letters, by its Coxeter presentation."""
    s = [f"s{i}" for i in range(rank)]
    rels = [(Path("x", (a, a)), Path("x")) for a in s]
    for i, j in itertools.combinations(range(rank), 2):
        m = 3 if j == i + 1 else 2
        lhs = tuple((s[i], s[j])[t % 2] for t in range(m))
        rhs = tuple((s[j], s[i])[t % 2] for t in range(m))
        rels.append((Path("x", lhs), Path("x", rhs)))
    return build(["x"], [(a, "x", "x") for a in s], rels, s)


def _absorbing_tables():
    """Tables with a cell ``f;g = f`` where ``g`` is not an identity."""
    # the monoid {1, e, a} with f;g = f off the identity: e;e = e and a;e = a
    left_zero = FiniteCategory(
        ["x"], ["x"] * 3, ["x"] * 3,
        {(f, g): g if f == 0 else f for f in range(3) for g in range(3)}, {"x": 0},
    )
    # an idempotent e on x and an arrow a: y -> x that absorbs it, a;e = a
    absorbed = FiniteCategory(
        ["x", "y"], ["x", "y", "x", "y"], ["x", "y", "x", "x"],
        {(0, 0): 0, (0, 2): 2, (2, 0): 2, (2, 2): 2,
         (1, 1): 1, (1, 3): 3, (3, 0): 3, (3, 2): 3},
        {"x": 0, "y": 1},
    )
    return [left_zero, absorbed]


def _random_tables(count, seed=7):
    rng = random.Random(seed)
    tables = []
    while len(tables) < count:
        try:
            fin = to_finite(random_pointed(rng).cat, bound=12, budget=20)
        except CatError:
            continue
        if fin.n <= 12:
            tables.append(fin)
    return tables


@pytest.fixture(scope="module")
def oracle_cats():
    return (
        [to_finite(c) for c in pool8()]
        + groupoid_pool6()
        + [to_finite(_cyclic(k)) for k in range(2, 8)]
        + [to_finite(_dihedral(3)), to_finite(_z2_times_z3())]
        + _absorbing_tables()
        + _random_tables(8)
    )


# candidates the oracle may examine per pair; the few pairs past it are skipped
ORACLE_BOUND = 5000


def _compare_with_oracle(cats, search, oracle, key):
    compared = 0
    for (i, C), (j, D) in itertools.product(enumerate(cats), repeat=2):
        try:
            want = key(oracle(C, D, ORACLE_BOUND))
        except SearchSpaceTooLarge:
            continue
        assert key(search(C, D)) == want, (i, j)
        compared += 1
    assert compared > 0.95 * len(cats) ** 2


def _sequence(functors):
    return [(F.object_map, F.mor) for F in functors]


def _found(F):
    return None if F is None else (F.object_map, F.mor)


def test_all_functors_matches_the_product_oracle(oracle_cats):
    _compare_with_oracle(oracle_cats, all_functors, _product_oracle, _sequence)


@pytest.mark.parametrize(
    "search, oracle",
    [(find_equivalence, _oracle_find_equivalence), (find_isomorphism, _oracle_find_isomorphism)],
)
def test_find_searches_match_the_product_oracle(oracle_cats, search, oracle):
    _compare_with_oracle(oracle_cats, search, oracle, _found)


def test_all_functors_from_a_presentation_matches_the_product_oracle(oracle_cats):
    for P, D in itertools.product(pool8(), oracle_cats):
        want = [(F.object_map, F.gen_map) for F in _product_oracle(P, D)]
        assert [(F.object_map, F.gen_map) for F in all_functors(P, D)] == want


def test_object_maps_are_lazy_and_charged_to_the_bound():
    disc8 = to_finite(discrete([f"o{i}" for i in range(8)]))
    tracemalloc.start()
    try:
        with pytest.raises(SearchSpaceTooLarge, match=r"visited 1001 nodes \(bound 1000\)"):
            for _ in all_functors(disc8, disc8, product_bound=1000):
                pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_searches_beyond_the_candidate_product_are_decided():
    # D12 (24 morphisms) and S5 (Coxeter A4, 120 morphisms) against
    # themselves: 24^23 and 120^119 candidates in the full product
    d12 = to_finite(_dihedral(12))
    assert find_isomorphism(d12, d12) is not None
    for G in (d12, to_finite(_coxeter_a(4), bound=120)):
        F = find_equivalence(G, G)
        assert F is not None and is_equivalence(F).verify()

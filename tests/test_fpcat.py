"""Presentations, completion, normal forms, finite backends, functors."""

import copy
import dataclasses
import gc
import itertools
import json
import random
import weakref
from collections import OrderedDict

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from catcw import (
    BudgetTooSmall,
    CatError,
    DanglingEndpoint,
    DuplicateName,
    FiniteCategory,
    FiniteFunctor,
    Functor,
    Generator,
    IncompleteSystem,
    IncompleteSystemWarning,
    NonParallelRelation,
    NotFinite,
    Path,
    PointedCategory,
    Quiver,
    build,
    chaotic,
    check_functor,
    clear_completion_cache,
    complete,
    completion_cache_info,
    compose_functors,
    cone_map,
    cw_classify,
    finite_to_fp,
    from_json,
    functor_from_json,
    functors_equal,
    identity_functor,
    irreducible_words,
    is_cofiber_sequence,
    is_contractible,
    is_groupoid_fp,
    k0_vanishing_witness,
    normalize,
    pushout,
    to_finite,
)
from catcw import fpcat
from catcw.fpcat import _critical_pairs, _encode, _interreduce, _normal_forms, _orient
from catcw.kernel import RuleTable
from conftest import (
    arrow_cat,
    c2_cat,
    c3_cat,
    groupoid_pool6,
    interval_cat,
    path2_cat,
    pool8,
    presentation_docs,
    random_pointed,
)


def z_cat():
    return build(["x"], [("a", "x", "x")], [], ["a"])


# ---------------------------------------------------------------------------
# Validation


def test_duplicate_object_rejected():
    with pytest.raises(DuplicateName):
        build(["x", "x"], [], [], [])


def test_generator_name_clash_rejected():
    with pytest.raises(DuplicateName):
        build(["x"], [("f", "x", "x"), ("f", "x", "x")], [], [])


def test_dangling_endpoint_rejected():
    with pytest.raises(DanglingEndpoint):
        build(["x"], [("f", "x", "nowhere")], [], [])


def test_non_parallel_relation_rejected():
    with pytest.raises(NonParallelRelation):
        build(
            ["a", "b"],
            [("f", "a", "b")],
            [(Path("a", ("f",)), Path("a"))],
            [],
        )


def test_invertible_unknown_generator_rejected():
    with pytest.raises(DanglingEndpoint):
        build(["x"], [], [], ["ghost"])


def test_mate_synthesis_adds_unit_relations():
    cat = z_cat()
    names = [g.name for g in cat.generators]
    assert names == ["a", "a^-1"]
    assert cat.inverses == {"a": "a^-1", "a^-1": "a"}
    assert len(cat.relations) == 2


def test_self_paired_mate_for_involution():
    cat = c2_cat()
    assert cat.inverses == {"t": "t"}
    assert len([g for g in cat.generators]) == 1


def test_declared_mate_is_reused():
    cat = build(
        ["x"],
        [("a", "x", "x"), ("b", "x", "x")],
        [
            (Path("x", ("a", "b")), Path("x")),
            (Path("x", ("b", "a")), Path("x")),
        ],
        ["a"],
    )
    assert cat.inverses == {"a": "b", "b": "a"}
    assert len(cat.generators) == 2


def _shared_mate_doc():
    """⟨a, b, c | ab = ba = ac = ca = 1⟩ with b and c marked invertible."""
    units = [
        (Path("x", (p, q)), Path("x")) for p, q in (("a", "b"), ("b", "a"), ("a", "c"), ("c", "a"))
    ]
    return ["x"], [("a", "x", "x"), ("b", "x", "x"), ("c", "x", "x")], units, ["b", "c"]


def test_a_generator_with_a_mate_is_not_taken_again():
    cat = build(*_shared_mate_doc())
    assert cat.inverses == {"b": "a", "a": "b", "c": "c^-1", "c^-1": "c"}
    assert [g.name for g in cat.generators] == ["a", "b", "c", "c^-1"]
    assert len(cat.relations) == 6
    again = from_json(cat.to_json())
    assert again.to_json() == cat.to_json() and again.inverses == cat.inverses


# ---------------------------------------------------------------------------
# Presentation intake against the list-scan oracle


def _build_oracle(objects, generators, relations, invertible):
    """``build`` and the checks of ``FpCategory`` as first written: every unit
    relation is looked for by scanning the relation list, and every mate
    candidate by scanning the generators that have no mate yet.  Returns the
    generators, the relations, the inverse table and the canonical JSON."""
    objects = tuple(objects)
    gens = [g if isinstance(g, Generator) else Generator(*g) for g in generators]
    rels = [(Path(*l), Path(*r)) for l, r in relations]
    wanted = list(dict.fromkeys(invertible))
    by_name = {g.name: g for g in gens}
    for name in wanted:
        if name not in by_name:
            raise DanglingEndpoint(f"invertible marking names unknown generator {name!r}")

    def has_unit(a, b):
        src = by_name[a].src
        want = (Path(src, (a, b)), Path(src))
        return want in rels or (want[1], want[0]) in rels

    inverses = {}
    for name in wanted:
        if name in inverses:
            continue
        g = by_name[name]
        mate = None
        for cand in gens:
            if cand.src == g.dst and cand.dst == g.src and cand.name not in inverses:
                if has_unit(name, cand.name) and has_unit(cand.name, name):
                    mate = cand.name
                    break
        if mate is None:
            mate = f"{name}^-1"
            if mate in by_name or mate in objects:
                raise DuplicateName(f"cannot synthesize mate {mate!r}: name in use")
            mg = Generator(mate, g.dst, g.src)
            gens.append(mg)
            by_name[mate] = mg
            rels.append((Path(g.src, (name, mate)), Path(g.src)))
            rels.append((Path(g.dst, (mate, name)), Path(g.dst)))
        inverses[name] = mate
        inverses[mate] = name

    quiver = Quiver(objects, gens)

    def path_dst(p):
        cur = p.at
        for name in p.gens:
            cur = quiver.gen_by_name[name].dst
        return cur

    for lhs, rhs in rels:
        quiver.check_path(lhs)
        quiver.check_path(rhs)
        if lhs.at != rhs.at or path_dst(lhs) != path_dst(rhs):
            raise NonParallelRelation(f"relation sides are not parallel: {lhs} vs {rhs}")
    for g, m in inverses.items():
        if inverses.get(m) != g:
            raise NonParallelRelation(f"inverse table is not symmetric at {g!r}")
        src = quiver.gen_by_name[g].src
        want = (Path(src, (g, m)), Path(src))
        if want not in rels and (want[1], want[0]) not in rels:
            raise NonParallelRelation(f"marked pair ({g!r}, {m!r}) lacks its unit relations")
    doc = {
        "objects": list(objects),
        "generators": [{"name": g.name, "src": g.src, "dst": g.dst} for g in gens],
        "relations": [{"lhs": l.to_json_obj(), "rhs": r.to_json_obj()} for l, r in rels],
        "invertible": [g.name for g in gens if g.name in inverses],
    }
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return tuple(gens), tuple(rels), inverses, text


@st.composite
def _intake_cases(draw):
    """1-3 objects, at most 6 generators (one may already be named ``a^-1``,
    one may repeat a name), unit relations either way round, self-mates, and
    invertible markings with repeats and, now and then, an unknown name."""
    rarely = st.sampled_from([False] * 5 + [True])
    objects = ["x", "y", "z"][: draw(st.integers(1, 3))]
    obj = st.sampled_from(objects)
    pool = ["a", "b", "c", "d", "a^-1", "b^-1"]
    names = draw(st.lists(st.sampled_from(pool), unique=True, min_size=1, max_size=6))
    if len(names) < 6 and draw(rarely):
        names.append(draw(st.sampled_from(names)))
    gens = [(n, draw(obj), draw(obj)) for n in names]
    ends = {n: (s, d) for n, s, d in gens}
    rels = []
    for _ in range(draw(st.integers(0, 8))):
        a = draw(st.sampled_from(names))
        back = [n for n in names if ends[n] == ends[a][::-1]]
        b = draw(st.sampled_from(back if back and draw(st.booleans()) else names))
        pairs = draw(st.sampled_from([[(a, b)], [(b, a)], [(a, b), (b, a)]]))
        for p, q in pairs:
            unit = ((ends[p][0], (p, q)), (ends[p][0], ()))
            rels.append(unit if draw(st.booleans()) else unit[::-1])
    invertible = draw(st.lists(st.sampled_from(names), max_size=4))
    if draw(rarely):
        invertible.insert(draw(st.integers(0, len(invertible))), "ghost")
    return objects, gens, rels, invertible


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_intake_cases())
def test_build_matches_the_list_scan_oracle(case):
    try:
        expected = _build_oracle(*case)
    except CatError as exc:
        with pytest.raises(type(exc)) as got:
            build(*case)
        assert str(got.value) == str(exc)
        return
    cat = build(*case)
    assert (cat.generators, cat.relations, cat.inverses, cat.to_json()) == expected


def test_presentation_intake_compares_paths_at_most_once_per_relation(monkeypatch):
    compared = 0
    path_eq = Path.__eq__

    def counting_eq(self, other):
        nonlocal compared
        compared += 1
        return path_eq(self, other)

    monkeypatch.setattr(Path, "__eq__", counting_eq)
    cat = chaotic([f"o{i}" for i in range(12)])
    assert (len(cat.generators), len(cat.relations)) == (132, 1452)
    assert compared <= len(cat.relations)  # 192,060 when every lookup scanned the list
    compared = 0
    doc = cat.to_json()
    again = from_json(doc)
    assert compared <= len(again.relations)
    assert again.to_json() == doc and again.inverses == cat.inverses


def test_warm_intake_hashes_and_compares_no_path(monkeypatch):
    doc = chaotic([f"o{i}" for i in range(5)]).to_json()
    from_json(doc).completion()  # warm the shared cache
    calls = {"hash": 0, "eq": 0}
    path_hash, path_eq = Path.__hash__, Path.__eq__

    def counting_hash(self):
        calls["hash"] += 1
        return path_hash(self)

    def counting_eq(self, other):
        calls["eq"] += 1
        return path_eq(self, other)

    monkeypatch.setattr(Path, "__hash__", counting_hash)
    monkeypatch.setattr(Path, "__eq__", counting_eq)
    hits = completion_cache_info().hits
    rs = from_json(doc).completion()
    assert completion_cache_info().hits == hits + 1 and rs.complete
    assert calls == {"hash": 0, "eq": 0}
    assert hash(Path("x")) == hash(("x", ())) and calls["hash"] == 1  # the wrapper counts


# The unit-relation lookup as first written: the full relation set, probed with
# the two orientations of ``g;m`` = the identity at ``src``.


def _has_unit_relation_oracle(relations, src, g, m):
    unit = (Path(src, (g, m)), Path(src))
    return unit in relations or (unit[1], unit[0]) in relations


class _UnitRelationOracle:
    """Stands in for ``fpcat._unit_index``: membership of ``(src, g, m)`` is
    a lookup of both unit relations in the set of all relations."""

    def __init__(self, relations):
        self.relations = set(relations)

    def __contains__(self, triple):
        return _has_unit_relation_oracle(self.relations, *triple)

    def update(self, triples):
        self.relations.update((Path(src, (g, m)), Path(src)) for src, g, m in triples)


@st.composite
def _unit_cases(draw):
    """At most 3 objects and 5 generators; relations that are unit relations
    either way round, unit relations rooted at the wrong object, units whose
    sides start at different objects, and length-2 relations that are not
    units; invertible markings that find a declared mate, synthesize one, or
    clash with a declared ``a^-1``; and an inverse table for ``FpCategory``."""
    objects = ["x", "y", "z"][: draw(st.integers(1, 3))]
    obj = st.sampled_from(objects)
    pool = ["a", "b", "c", "d", "a^-1"]
    names = draw(st.lists(st.sampled_from(pool), unique=True, min_size=1))
    gens = [(n, draw(obj), draw(obj)) for n in names]
    ends = {n: (s, d) for n, s, d in gens}
    name = st.sampled_from(names)
    rels = []
    for _ in range(draw(st.integers(0, 7))):
        p, q = draw(name), draw(name)
        kind = draw(st.sampled_from(["unit", "unit", "wrong-object", "split", "not-unit"]))
        at = ends[p][0] if kind != "wrong-object" else draw(obj)
        rhs = (at, (draw(name),)) if kind == "not-unit" else (at, ())
        if kind == "split":
            rhs = (draw(obj), ())
        lhs = (at, (p, q))
        rels.append((lhs, rhs) if draw(st.booleans()) else (rhs, lhs))
    invertible = draw(st.lists(name, max_size=3))
    pairs = draw(st.lists(st.tuples(name, name), max_size=2))
    inverses = {g: m for p in pairs for g, m in (p, p[::-1])}
    return objects, gens, rels, invertible, inverses


def _intake_outcome(case):
    """What ``build`` and ``FpCategory`` make of a case: their results, or the
    type and text of the error each raises."""
    objects, gens, rels, invertible, inverses = case
    out = []
    try:
        cat = build(objects, gens, rels, invertible)
        out.append((cat.generators, cat.relations, cat.inverses, cat.to_json()))
    except CatError as exc:
        out.append((type(exc), str(exc)))
    try:
        paths = [(Path(*l), Path(*r)) for l, r in rels]
        cat = fpcat.FpCategory(Quiver(objects, gens), paths, inverses)
        out.append((cat.relations, cat.inverses))
    except CatError as exc:
        out.append((type(exc), str(exc)))
    return out


_SPLIT_UNITS = (  # a;b and b;a run from x to the identity at y: not units of a
    ["x", "y"],
    [("a", "x", "x"), ("b", "x", "x"), ("a^-1", "x", "x")],
    [(("x", ("a", "b")), ("y", ())), (("y", ()), ("x", ("b", "a")))],
    ["a"],
    {},
)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_unit_cases())
@example(_SPLIT_UNITS)
def test_unit_index_matches_the_full_relation_set_oracle(case):
    got = _intake_outcome(case)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(fpcat, "_unit_index", _UnitRelationOracle)
        assert _intake_outcome(case) == got


@pytest.mark.parametrize(
    "path, message",
    [
        ({"at": 0, "gens": ["t"]}, "'at': expected a string, got int"),
        ({"at": 0}, "'at': expected a string, got int"),  # checked before gens is read
        ({"at": None, "gens": []}, "'at': expected a string, got NoneType"),
        ({"at": "x", "gens": "tt"}, "'gens': expected a list, got str"),
        ({"at": "x", "gens": {"t": 1}}, "'gens': expected a list, got dict"),
        ({"at": "x", "gens": ["t", 1]}, "'gens': expected a string, got int"),
        ({"at": "x", "gens": [["t"]]}, "'gens': expected a string, got list"),
    ],
)
def test_malformed_json_paths_keep_their_messages(path, message):
    with pytest.raises(TypeError) as exc:
        Path.from_json_obj(path)
    assert str(exc.value) == message
    obj = c2_cat().to_json_obj()
    obj["relations"][0]["lhs"] = path
    with pytest.raises(TypeError) as exc:
        from_json(obj)
    assert str(exc.value) == message


def test_json_paths_accept_tuples_and_give_tuples():
    assert Path.from_json_obj({"at": "x", "gens": ("t", "t")}) == Path("x", ("t", "t"))
    assert Path.from_json_obj({"at": "x", "gens": []}).gens == ()
    assert type(Path.from_json_obj({"at": "x", "gens": ["t"]}).gens) is tuple


def test_paths_and_generators_are_slotted_frozen_values():
    p, g = Path("x", ["a", "b"]), Generator("a", "x", "y")
    for value, field in ((p, "at"), (g, "name")):
        assert not hasattr(value, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, "y")
        # a name that is not a field: the frozen __setattr__ of a slotted
        # dataclass refers to the class before slots=True rebuilt it, so on
        # Python 3.11 this is a TypeError, not FrozenInstanceError
        with pytest.raises(TypeError, match=r"super\(type, obj\)"):
            setattr(value, "other", "y")
        assert not hasattr(value, "other")
    assert p.gens == ("a", "b") and type(p.gens) is tuple
    assert repr(p) == "Path(at='x', gens=('a', 'b'))"
    assert repr(g) == "Generator(name='a', src='x', dst='y')"
    assert repr(Path("x")) == "Path(at='x', gens=())"
    assert hash(p) == hash(("x", ("a", "b"))) and p != ("x", ("a", "b"))
    assert hash(g) == hash(("a", "x", "y")) and g != ("a", "x", "y")
    assert p == Path("x", ("a", "b")) and {p: 1}[Path("x", ("a", "b"))] == 1


# ---------------------------------------------------------------------------
# Completion and normal forms


def test_z_completion_is_the_two_unit_rules():
    rs = complete(z_cat())
    assert rs.complete
    rules = {(l.gens, r.gens) for l, r in rs.rules}
    assert rules == {(("a", "a^-1"), ()), (("a^-1", "a"), ())}


def test_c2_normal_forms():
    cat = c2_cat()
    rs = complete(cat)
    assert rs.complete
    assert normalize(cat, Path("x", ("t", "t", "t"))) == Path("x", ("t",))
    assert normalize(cat, Path("x", ("t", "t"))) == Path("x")


def test_c3_normalize_uses_inverse():
    cat = c3_cat()
    # t.t is shortlex-larger than the single-letter inverse
    assert normalize(cat, Path("x", ("t", "t"))) == Path("x", ("t^-1",))
    assert normalize(cat, Path("x", ("t", "t", "t", "t"))) == Path("x", ("t",))


def test_braid_relation_exhausts_budget_and_warns():
    # a b a = b a b diverges under shortlex completion
    braid = build(
        ["x"],
        [("a", "x", "x"), ("b", "x", "x")],
        [(Path("x", ("a", "b", "a")), Path("x", ("b", "a", "b")))],
        [],
    )
    rs = complete(braid, budget=2)
    assert not rs.complete
    with pytest.warns(IncompleteSystemWarning):
        rs.normalize(Path("x", ("b", "a", "b")))


def test_budget_below_relation_count_is_a_value_error():
    with pytest.raises(BudgetTooSmall) as exc:
        complete(c2_cat(), budget=0)
    assert isinstance(exc.value, ValueError)
    assert (exc.value.budget, exc.value.relations) == (0, 1)


# ---------------------------------------------------------------------------
# The shared completion cache


def _braid():
    return build(
        ["x"],
        [("a", "x", "x"), ("b", "x", "x")],
        [(Path("x", ("a", "b", "a")), Path("x", ("b", "a", "b")))],
    )


def _same_system(rs, cold):
    return rs.rules == cold.rules and rs.status == cold.status


def test_equal_presentations_share_one_completion():
    clear_completion_cache()
    a = c3_cat()
    b = from_json(a.to_json())
    assert a is not b
    ra, rb = a.completion(), b.completion()
    assert ra is rb and ra.quiver is a.quiver
    assert rb.status == "complete"
    assert b.completion() is rb  # every call asks the cache
    info = completion_cache_info()
    assert (info.hits, info.misses, info.entries) == (2, 1, 1)


def test_copies_of_equal_documents_get_one_system(monkeypatch):
    """One ``RewritingSystem`` per miss, handed to every equal presentation,
    so a table ``to_finite`` builds through one is the others' too."""
    clear_completion_cache()
    init, built = fpcat.RewritingSystem.__init__, []

    def spy(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(fpcat.RewritingSystem, "__init__", spy)
    a = c3_cat()
    doc = a.to_json()
    b = from_json(doc)
    assert a is not b and a.completion() is b.completion()
    assert from_json(doc) is b and b.completion() is a.completion()
    assert built == [a.completion()]
    assert completion_cache_info()[:2] == (4, 1)  # hits, misses
    assert b.completion().finite == []
    fin = to_finite(a)
    assert b.completion().finite == [3, fin] and to_finite(b) == fin
    c = from_json(doc)
    c.completion(100)
    assert len(built) == completion_cache_info().misses == 2


def test_presentations_differing_only_in_inverses_share_one_system():
    """The inverse table is not in the key, so the marked presentation and
    the plain one with its relations get one system: equal normal forms and
    the same error for a path with an unknown generator."""
    clear_completion_cache()
    marked = build(["x"], [("t", "x", "x")], [(Path("x", ("t",) * 3), Path("x"))], ["t"])
    plain = build(marked.objects, marked.generators, marked.relations)
    assert marked.inverses and not plain.inverses
    rs = plain.completion()
    assert marked.completion() is rs and completion_cache_info().hits == 1
    for gens in [(), ("t", "t"), ("t", "t^-1", "t^-1"), ("t^-1",) * 5]:
        p = Path("x", gens)
        assert normalize(marked, p) == normalize(plain, p)
    errors = []
    for cat in (marked, plain):
        with pytest.raises(DanglingEndpoint) as exc:
            normalize(cat, Path("x", ("t", "u")))
        errors.append(str(exc.value))
    assert errors == ["path uses unknown generator 'u'"] * 2


def test_copies_of_one_presentation_build_its_completion_key_once(monkeypatch):
    clear_completion_cache()
    doc = chaotic(["p", "q", "r"]).to_json()
    shared, keys = fpcat._shared_completion, []

    def spy(cat, budget):
        keys.append((cat._key, budget))
        return shared(cat, budget)

    monkeypatch.setattr(fpcat, "_shared_completion", spy)
    a, b = from_json(doc), from_json(doc)
    a.completion()
    b.completion()
    b.completion(100)
    # one key, its name tuples and its hash serve every copy and budget
    assert len(keys) == 3
    assert all(k[0] is keys[0][0] for k in keys)
    info = completion_cache_info()
    assert (info.hits, info.misses, info.entries) == (1, 2, 2)
    rules = len(a.completion().rules)
    assert rules == len(a.completion(100).rules)
    assert info.cost == 2 * (fpcat.COMPLETION_ENTRY_CHARGE + rules)


def test_completion_cache_key_is_budget_and_relation_order():
    clear_completion_cache()
    gens = [("a", "x", "x"), ("b", "x", "x")]
    rels = [
        (Path("x", ("a", "a")), Path("x")),
        (Path("x", ("b", "b")), Path("x")),
        (Path("x", ("b", "a")), Path("x", ("a", "b"))),
    ]
    cat = build(["x"], gens, rels)
    cat.completion(100)
    build(["x"], gens, rels).completion(200)
    build(["x"], gens, rels[::-1]).completion(100)
    info = completion_cache_info()
    assert (info.hits, info.misses, info.entries) == (0, 3, 3)
    # the inverse table is not part of the key: completion never reads it
    marked = build(["x"], gens, rels, ["a", "b"])
    assert marked.inverses and marked.relations == cat.relations
    assert marked.completion(100).rules is cat.completion(100).rules
    assert completion_cache_info().hits == 2
    # two documents that differ only in relation order: a miss, not a hit
    obj = chaotic(["p", "q", "r"]).to_json_obj()
    from_json(obj).completion()
    obj["relations"] = obj["relations"][::-1]
    from_json(obj).completion()
    info = completion_cache_info()
    assert (info.hits, info.misses, info.entries) == (2, 5, 5)


def test_incomplete_completion_is_shared_as_incomplete():
    clear_completion_cache()
    cold = complete(_braid(), budget=4)
    first, second = _braid().completion(4), _braid().completion(4)
    assert completion_cache_info().hits == 1
    for rs in (first, second):
        assert rs.status == "incomplete" and _same_system(rs, cold)


def test_completion_cache_holds_at_most_its_bound():
    clear_completion_cache()
    bound = completion_cache_info().bound
    assert bound == fpcat.COMPLETION_CACHE_BOUND == 65_536
    assert fpcat.COMPLETION_ENTRY_CHARGE == 128
    fits = bound // 128  # a one-object presentation has no rules
    for i in range(fits + 5):
        build([f"o{i}"]).completion()
        info = completion_cache_info()
        assert info.cost <= bound and info.cost == 128 * info.entries
    assert completion_cache_info()[2:] == (fits, bound, bound)  # entries, cost, bound
    build([f"o{fits + 4}"]).completion()  # the most recently used entry is kept
    assert completion_cache_info().hits == 1
    build(["o0"]).completion()  # the least recently used entry was dropped
    assert completion_cache_info().misses == fits + 6


def test_cached_completion_equals_a_cold_one():
    rng = random.Random(31)
    cases = [(cat, 500) for cat in pool8()]
    cases += [(random_pointed(rng).cat, 20) for _ in range(60)]
    clear_completion_cache()
    finite = 0
    for cat, budget in cases:
        cold = complete(cat, budget)
        doc = cat.to_json()
        for _ in range(2):  # a miss, then a hit
            rs = from_json(doc).completion(budget)
            assert _same_system(rs, cold), doc
        try:
            to_finite(cat, 32, budget)
            finite += 1
        except (IncompleteSystem, NotFinite):
            pass
    assert completion_cache_info().hits >= len(cases)
    assert finite >= 30  # pool8 and 26 of the 60 draws


def _cache_cases():
    """``(doc, budget, key, cold system, cold table or None)`` for pool8 at
    the default budget and 12 seeded ``random_pointed`` draws at budget 20;
    the table is None where ``to_finite`` raises at bound 32."""
    rng = random.Random(47)
    cats = [(cat, 500) for cat in pool8()]
    cats += [(random_pointed(rng).cat, 20) for _ in range(12)]
    cases = []
    for cat, budget in cats:
        clear_completion_cache()
        try:
            fin = to_finite(cat, 32, budget)
        except (IncompleteSystem, NotFinite):
            fin = None
        key = (cat._key, budget)
        cases.append((cat.to_json(), budget, key, complete(cat, budget), fin))
    clear_completion_cache()
    return cases


_CACHE_CASES = _cache_cases()


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    charge=st.integers(0, 8),
    bound=st.integers(4, 60),
    calls=st.lists(st.tuples(st.integers(0, len(_CACHE_CASES) - 1), st.booleans()), max_size=40),
)
def test_cost_bounded_cache_agrees_with_cold_runs_and_an_lru_model(charge, bound, calls):
    """Random ``completion`` and ``to_finite`` calls on the documents'
    shared presentations, under a small bound: every answer equals the cold
    one, the cost in use stays within the bound, and systems, costs, order
    and hits follow a reference LRU in which a system costs the charge, its
    rules and its table's cells.  Every call asks the cache, and no
    presentation keeps a system, so a table built in a system the cache did
    not keep is charged to nothing."""
    model = OrderedDict()  # key -> [cost, generation]
    filled = set()  # (key, generation) of the slots holding a table
    generations = itertools.count()
    hits = 0

    def charge_model(key, cost):
        model[key][0] += cost
        model.move_to_end(key)
        if model[key][0] > bound:
            del model[key]
        while sum(c for c, _ in model.values()) > bound:
            model.popitem(last=False)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fpcat, "COMPLETION_ENTRY_CHARGE", charge)
        mp.setattr(fpcat, "COMPLETION_CACHE_BOUND", bound)
        clear_completion_cache()
        for i, table in calls:
            doc, budget, key, cold, cold_fin = _CACHE_CASES[i]
            cat = from_json(doc)
            if key in model:
                model.move_to_end(key)
                gen = model[key][1]
                hits += 1
            else:
                gen = next(generations)
                model[key] = [0, gen]
                charge_model(key, charge + len(cold.rules))
            if not table:
                assert _same_system(cat.completion(budget), cold)
            elif cold_fin is None:
                with pytest.raises((IncompleteSystem, NotFinite)):
                    to_finite(cat, 32, budget)
            else:
                fin = to_finite(cat, 32, budget)
                assert list(fin.compose_table.items()) == list(cold_fin.compose_table.items())
                assert fin.paths == cold_fin.paths
                if (key, gen) not in filled:
                    filled.add((key, gen))
                    if key in model and model[key][1] == gen:
                        charge_model(key, len(cold_fin.compose_table))
            info = completion_cache_info()
            assert info.cost <= bound
            assert [k for k, _ in fpcat._completion_order.values()] == list(model)
            assert [c for _, c in fpcat._completion_order.values()] == [c for c, _ in model.values()]
            assert info.cost == sum(c for c, _ in model.values())
            assert (info.hits, info.entries, info.bound) == (hits, len(model), bound)
    clear_completion_cache()


def _cyclic(n):
    return build(["x"], [("t", "x", "x")], [(Path("x", ("t",) * n), Path("x"))])


def test_a_table_costlier_than_the_bound_is_returned_but_not_kept():
    """C257's table has 257 * 257 = 66,049 cells, past the bound of 65,536:
    it is returned, its entry is dropped, and the other entries stay."""
    clear_completion_cache()
    small = [_cyclic(n) for n in (2, 3, 4)]
    for cat in small:
        to_finite(cat)
    before = completion_cache_info()
    assert before.entries == 3
    big = _cyclic(257)
    fin = to_finite(big, 257)
    assert fin.n == 257 and len(fin.compose_table) == 66_049
    assert fin.compose(1, 256) == 0  # t;t^256 is the identity
    assert completion_cache_info()[1:] == (before.misses + 1, *before[2:])
    # no presentation keeps the dropped system: the next call completes and builds again
    again = to_finite(big, 257)
    assert again == fin and again.paths is not fin.paths
    assert completion_cache_info()[1:] == (before.misses + 2, *before[2:])
    assert _cyclic(257).completion().rules == big.completion().rules  # kept, with no table
    info = completion_cache_info()
    assert info.misses == before.misses + 3 and info.entries == 4
    for cat in small:
        assert from_json(cat.to_json()).completion().finite  # still cached, table and all
    clear_completion_cache()


def test_a_table_costlier_than_the_bound_is_freed_with_its_last_caller():
    """The cache drops C257's system once its 66,049 cells are charged, and
    no presentation keeps a system of its own: the kept table lives only
    while a caller holds it, although the presentation cache still holds
    the presentation it was built for."""
    clear_completion_cache()
    cat = from_json(_cyclic(257).to_json())
    kept = fpcat._finite(cat, 257, fpcat.DEFAULT_RULE_BUDGET)
    assert from_json(cat.to_json()) is cat
    table = weakref.ref(kept)
    del kept
    gc.collect()
    assert table() is None
    clear_completion_cache()


def test_a_system_costlier_than_the_bound_is_returned_but_not_kept(monkeypatch):
    clear_completion_cache()
    cat = chaotic(["p", "q", "r"])
    cold = complete(cat)
    monkeypatch.setattr(fpcat, "COMPLETION_CACHE_BOUND", 128 + len(cold.rules) - 1)
    build(["x"]).completion()
    assert _same_system(chaotic(["p", "q", "r"]).completion(), cold)
    assert completion_cache_info()[1:4] == (2, 1, 128)  # misses, entries, cost
    clear_completion_cache()


def test_a_document_completes_under_the_names_it_was_read_to(monkeypatch):
    """A document whose presentation needs no synthesized mate completes
    under a key equal to what ``_read_fields`` read of it, less
    ``invertible``; every copy completes under its presentation's one key."""
    clear_completion_cache()
    doc = c2_cat().to_json_obj()  # t is its own mate: t;t = id is declared
    read, shared = fpcat._read_fields, fpcat._shared_completion
    intake, completion = [], []

    def intake_spy(obj):
        intake.append(read(obj))
        return intake[-1]

    def completion_spy(cat, budget):
        completion.append((cat._key, budget))
        return shared(cat, budget)

    monkeypatch.setattr(fpcat, "_read_fields", intake_spy)
    monkeypatch.setattr(fpcat, "_shared_completion", completion_spy)
    cat = from_json(doc)
    assert cat._key == intake[0][:3]
    cat.completion()
    from_json(doc).completion()
    assert len(intake) == 2 and intake[1] == intake[0]
    assert len(completion) == 2
    assert all(k[0] is cat._key for k in completion)
    assert completion_cache_info()[:3] == (1, 1, 1)  # hits, misses, entries
    clear_completion_cache()


def test_a_synthesized_mate_builds_the_completion_key_from_its_relations():
    clear_completion_cache()
    obj = c3_cat().to_json_obj()
    obj["generators"] = obj["generators"][:1]  # t^-1 and its units are synthesized again
    obj["relations"] = obj["relations"][:1]
    obj["invertible"] = ["t"]
    intake = fpcat._read_fields(obj)
    cat = from_json(obj)
    assert len(cat.relations) == len(intake[2]) + 2
    key = cat._key
    assert key == (
        cat.quiver.objects,
        tuple((g.name, g.src, g.dst) for g in cat.quiver.generators),
        tuple((l.at, l.gens, r.at, r.gens) for l, r in cat.relations),
    )
    assert cat.completion().rules == complete(c3_cat()).rules
    clear_completion_cache()


# ---------------------------------------------------------------------------
# Intake shared between equal documents


def _intake_cache_info():
    return fpcat._shared_presentation.cache_info()


@st.composite
def _type_broken(draw, doc):
    """``doc`` with one part dropped, made an int or a string, an array made
    a tuple, or an object made an array of its values: missing keys, int
    names, ``gens`` as a string, tuple arrays and non-dict generators."""
    places = []

    def walk(node):
        for key in range(len(node)) if isinstance(node, list) else list(node):
            places.append((node, key))
            if isinstance(node[key], (list, dict)):
                walk(node[key])

    walk(doc)
    container, key = draw(st.sampled_from(places))
    part = container[key]
    breaks = ["int", "str"]
    if isinstance(container, dict):
        breaks.append("drop")
    if isinstance(part, list):
        breaks.append("tuple")
    if isinstance(part, dict):
        breaks.append("values")
    how = draw(st.sampled_from(breaks))
    if how == "drop":
        del container[key]
    elif how == "tuple":
        container[key] = tuple(part)
    elif how == "values":
        container[key] = list(part.values())
    else:
        container[key] = 1 if how == "int" else "a"
    return doc


@st.composite
def _intake_docs(draw):
    """A presentation document, half of them with one part dropped or
    retyped, and a well-formed twin that differs from the document as drawn
    only in ``invertible`` or in one relation's ``at``."""
    doc = draw(presentation_docs())
    twin = copy.deepcopy(doc)
    if twin["relations"] and draw(st.booleans()):
        side = twin["relations"][0][draw(st.sampled_from(["lhs", "rhs"]))]
        side["at"] = draw(st.sampled_from(["x", "y", "z"]))
    else:
        twin["invertible"] = draw(st.sampled_from([[], twin["invertible"][::-1], ["a"]]))
    if draw(st.booleans()):
        doc = draw(_type_broken(doc))
    return doc, twin


def _reference_side(obj):
    return Path(fpcat._json_str(obj["at"], "at"), fpcat._json_names(obj["gens"], "gens"))


def _reference_reader(obj):
    """A parsed document read field by field straight into ``build``, with
    no cache: the reader ``from_json`` must agree with, errors included."""
    return build(
        fpcat._json_names(obj["objects"], "objects"),
        [
            (
                fpcat._json_str(g["name"], "name"),
                fpcat._json_str(g["src"], "src"),
                fpcat._json_str(g["dst"], "dst"),
            )
            for g in fpcat._json_list(obj["generators"], "generators")
        ],
        [
            (_reference_side(r["lhs"]), _reference_side(r["rhs"]))
            for r in fpcat._json_list(obj["relations"], "relations")
        ],
        fpcat._json_names(obj.get("invertible", ()), "invertible"),
    )


def _reading(read, doc):
    """What ``read`` makes of ``doc``: its JSON and inverse table, or the
    type and text of its error."""
    try:
        cat = read(doc)
    except Exception as exc:
        return type(exc), str(exc)
    return cat.to_json(), cat.inverses


@settings(derandomize=True, max_examples=400, deadline=None)
@given(docs=_intake_docs())
@example(docs=({"objects": ["x"], "generators": [], "relations": []}, {"objects": ["x"]}))
@example(docs=(
    {"objects": ("x",), "generators": ({"name": "t", "src": "x", "dst": "x"},),
     "relations": ({"lhs": {"at": "x", "gens": ("t", "t")}, "rhs": {"at": "x", "gens": []}},),
     "invertible": ("t",)},
    {"objects": ["x"], "generators": [{"name": "t", "src": "x", "dst": "x"}],
     "relations": [{"lhs": {"at": "x", "gens": "tt"}, "rhs": {"at": "x", "gens": []}}]},
))
def test_shared_intake_reads_as_the_field_reader(docs):
    """A miss, a hit and a twin read right after them all read as the
    uncached field-by-field reader does, errors included."""
    doc, twin = docs
    clear_completion_cache()
    expected = _reading(_reference_reader, doc)
    assert _reading(from_json, doc) == expected  # a miss
    assert _reading(from_json, doc) == expected  # a hit, or a miss again after an error
    assert _reading(from_json, twin) == _reading(_reference_reader, twin)


def test_equal_documents_read_to_one_instance():
    """Equal documents read to the one shared presentation, whose inverse
    table cannot be edited; it equals a cold read in ``==`` and JSON."""
    clear_completion_cache()
    doc = c3_cat().to_json_obj()
    a, b = from_json(doc), from_json(doc)
    assert _intake_cache_info()[:2] == (1, 1)  # hits, misses
    assert a is b
    with pytest.raises(TypeError):
        b.inverses["t"] = "t"
    assert a.inverses == {"t": "t^-1", "t^-1": "t"}
    clear_completion_cache()
    cold = from_json(doc)
    assert cold is not a and cold == a and cold.to_json() == a.to_json()


def test_a_hit_builds_and_checks_nothing(monkeypatch):
    doc = chaotic(["p", "q", "r"]).to_json_obj()
    clear_completion_cache()
    from_json(doc)
    calls = {"init": 0, "check_path": 0}
    init, check_path = fpcat.FpCategory.__init__, Quiver.check_path

    def counting_init(self, *args, **kwargs):
        calls["init"] += 1
        init(self, *args, **kwargs)

    def counting_check_path(self, p):
        calls["check_path"] += 1
        return check_path(self, p)

    monkeypatch.setattr(fpcat.FpCategory, "__init__", counting_init)
    monkeypatch.setattr(Quiver, "check_path", counting_check_path)
    cat = from_json(doc)
    assert calls == {"init": 0, "check_path": 0}
    assert cat.to_json() == json.dumps(doc, sort_keys=True, separators=(",", ":"))
    doc["relations"] = doc["relations"][::-1]
    from_json(doc)  # a miss checks everything again
    assert calls == {"init": 1, "check_path": 2 * len(doc["relations"])}


def test_documents_differing_in_order_miss():
    clear_completion_cache()
    doc = build(["x"], [("a", "x", "x"), ("b", "x", "x")], [
        (Path("x", ("a", "a")), Path("x")),
        (Path("x", ("b", "a")), Path("x", ("a", "b"))),
    ], ["a", "b"]).to_json_obj()
    from_json(doc)
    from_json({**doc, "relations": doc["relations"][::-1]})
    from_json({**doc, "invertible": doc["invertible"][::-1]})
    assert _intake_cache_info()[:2] == (0, 3)
    from_json(json.dumps(doc))
    assert _intake_cache_info()[:2] == (1, 3)


def test_intake_cache_holds_at_most_its_bound_and_clears():
    clear_completion_cache()
    bound = fpcat.INTAKE_CACHE_SIZE
    assert bound == 128
    assert _intake_cache_info().maxsize == bound
    for i in range(bound + 5):
        from_json({"objects": [f"o{i}"], "generators": [], "relations": [], "invertible": []})
        assert _intake_cache_info().currsize <= bound
    assert _intake_cache_info().currsize == bound
    clear_completion_cache()
    assert _intake_cache_info() == (0, 0, bound, 0)


# ---------------------------------------------------------------------------
# Interreduction against the per-rule-table oracle


def _interreduce_oracle(rules):
    """Interreduction as first written: every rule of every pass is reduced
    by fresh tables of all the other rules.  Returns the rules and the number
    of rules rewritten."""

    def shortlex(rule):
        return ((len(rule[0]), rule[0]), (len(rule[1]), rule[1]))

    rules = sorted(set(rules), key=shortlex)
    rewritten = 0
    changed = True
    while changed:
        changed = False
        for i, (lhs, rhs) in enumerate(rules):
            others = rules[:i] + rules[i + 1 :]
            lhs2 = RuleTable(others).reduce(lhs) if others else lhs
            rhs2 = RuleTable(others).reduce(rhs) if others else rhs
            if lhs2 == lhs and rhs2 == rhs:
                continue
            rules.pop(i)
            oriented = _orient(lhs2, rhs2)
            if oriented is not None:
                rules.append(oriented)
                rules.sort(key=shortlex)
            rewritten += 1
            changed = True
            break
    return rules, rewritten


@st.composite
def _oriented_rules(draw, max_rules=14, max_len=5):
    letters = draw(st.integers(min_value=2, max_value=4))
    word = st.lists(st.integers(min_value=0, max_value=letters - 1), max_size=max_len).map(tuple)
    pairs = draw(st.lists(st.tuples(word, word), max_size=max_rules))
    return [r for r in (_orient(u, v) for u, v in pairs) if r is not None]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_oriented_rules())
def test_interreduce_matches_the_per_rule_table_oracle(rules):
    assert _interreduce(list(rules)) == _interreduce_oracle(list(rules))[0]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_oriented_rules(max_rules=40, max_len=7))
def test_interreduce_matches_the_oracle_on_longer_rule_lists(rules):
    assert _interreduce(list(rules)) == _interreduce_oracle(list(rules))[0]


# letters of the hand-built cases
_A, _B, _C, _D = range(4)


@pytest.mark.parametrize(
    "rules, expected",
    [
        # cbb -> dd becomes ca -> c, which sorts between bb -> a and dd -> c
        (
            [((_B, _B), (_A,)), ((_D, _D), (_C,)), ((_C, _B, _B), (_D, _D))],
            [((_B, _B), (_A,)), ((_C, _A), (_C,)), ((_D, _D), (_C,))],
        ),
        # ba -> a and ba -> b share their lhs: the first becomes b -> a,
        # which rewrites the second to aa -> a
        (
            [((_B, _A), (_A,)), ((_B, _A), (_B,))],
            [((_B,), (_A,)), ((_A, _A), (_A,))],
        ),
        # cbb -> d becomes ca -> d, whose lhs rewrites cad -> d, a rule the
        # scan had passed two rules earlier, to dd -> d
        (
            [
                ((_B, _B), (_A,)),
                ((_C, _A, _D), (_D,)),
                ((_C, _B, _A), (_D,)),
                ((_C, _B, _B), (_D,)),
            ],
            [((_B, _B), (_A,)), ((_C, _A), (_D,)), ((_D, _D), (_D,)), ((_C, _B, _A), (_D,))],
        ),
    ],
    ids=["reoriented-sorts-earlier", "shared-lhs", "new-lhs-reaches-back"],
)
def test_interreduce_hand_built_cases(rules, expected):
    assert _interreduce(list(rules)) == expected
    assert _interreduce_oracle(list(rules))[0] == expected


def test_interreduce_builds_no_rule_table(monkeypatch):
    cat = _apex_of_cones()
    sides = [(_encode(cat.quiver, l.gens), _encode(cat.quiver, r.gens)) for l, r in cat.relations]
    rules = [r for r in (_orient(u, v) for u, v in sides) if r is not None]
    built = 0

    class CountingTable(RuleTable):
        def __init__(self, rules):
            nonlocal built
            built += 1
            super().__init__(rules)

    monkeypatch.setattr(fpcat, "RuleTable", CountingTable)
    assert len(_interreduce(rules)) == 46
    assert built == 0
    # completion then builds one table per round, and the apex takes one round
    assert complete(cat).complete and built == 1


def _apex_of_cones():
    """The pushout of two cone maps, gluing chaotic(5) and chaotic(2) along
    chaotic(3): 4 objects, 22 generators, 88 relations, 46 rules."""
    A = build(["a0", "a1", "a2"])
    B = build(["a0", "a1", "a2", "b0", "b1"])
    C = chaotic(["c0", "c1"])
    f = Functor(A, B, {x: x for x in A.objects}, {})
    g = Functor(A, C, {"a0": "c0", "a1": "c1", "a2": "c0"}, {})
    cone = chaotic(A.objects)
    return pushout(
        cone_map(f, cone, chaotic(B.objects)), cone_map(g, cone, chaotic(C.objects))
    ).apex


def test_complete_matches_the_oracle_loop_on_a_corpus(monkeypatch):
    cases = [(chaotic([f"o{i}" for i in range(n)]), 500) for n in range(2, 8)]
    cases += [(coxeter(links), 500) for links in ([3, 3], [3, 3, 3], [4, 3], [5, 3])]
    cases += [(dihedral(12), 500), (abelian(4, 6), 500), (_apex_of_cones(), 500)]
    cases += [(_braid(), budget) for budget in range(3, 61)]
    rng = random.Random(41)
    cases += [(random_pointed(rng).cat, 20) for _ in range(60)]
    incomplete = 0
    for cat, budget in cases:
        rs = complete(cat, budget)
        with monkeypatch.context() as m:
            m.setattr(fpcat, "_interreduce", lambda rules: _interreduce_oracle(rules)[0])
            old = complete(cat, budget)
        assert (rs.rules, rs.status) == (old.rules, old.status), cat.to_json()
        incomplete += rs.status == "incomplete"
    assert incomplete >= 58  # every braid budget


def test_cold_completion_builds_a_rule_table_per_round_and_rewrite(monkeypatch):
    built = rounds = rewritten = 0

    class CountingTable(RuleTable):
        def __init__(self, rules):
            nonlocal built
            built += 1
            super().__init__(rules)

    def counting_pairs(rules):
        nonlocal rounds
        rounds += 1
        return _critical_pairs(rules)

    def counting_interreduce(rules):
        nonlocal rewritten
        rewritten += _interreduce_oracle(rules)[1]  # its tables are not counted
        return _interreduce(rules)

    monkeypatch.setattr(fpcat, "RuleTable", CountingTable)
    monkeypatch.setattr(fpcat, "_critical_pairs", counting_pairs)
    monkeypatch.setattr(fpcat, "_interreduce", counting_interreduce)
    rs = complete(_apex_of_cones())
    assert rs.complete and len(rs.rules) == 46
    assert 0 < built <= rounds + rewritten


def test_incomplete_system_names_its_budget_and_rules():
    with pytest.raises(IncompleteSystem) as exc:
        to_finite(_braid(), budget=4)
    assert str(exc.value) == (
        "completion exhausted its budget of 4 rules; results would be unreliable"
    )
    assert (exc.value.budget, exc.value.rules) == (4, 3)
    # b a a a b a = b a a b a b in the braid monoid, but two rules cannot join them
    src = build(
        ["s"],
        [("p", "s", "s"), ("q", "s", "s")],
        [(Path("s", tuple("qpppqp")), Path("s", tuple("qppqpq")))],
    )
    F = Functor(src, _braid(), {"s": "x"}, {"p": Path("x", ("a",)), "q": Path("x", ("b",))})
    with pytest.raises(IncompleteSystem) as exc:
        check_functor(F, budget=2)
    assert str(exc.value) == "cannot decide relation preservation under an incomplete system"
    assert (exc.value.budget, exc.value.rules) == (2, 2)


def test_irreducible_words_z_counts():
    cat = z_cat()
    for k in range(11):
        words = irreducible_words(cat, k)
        assert len(words[("x", "x")]) == 2 * k + 1


# ---------------------------------------------------------------------------
# Brute-force word-class oracle

def _brute_classes(cat, max_len, ambient):
    """Independent oracle: close words under two-sided relation moves.

    Words up to ``ambient`` length participate in the closure so that
    identifications needing slightly longer intermediates are still found;
    classes are then read off for words up to ``max_len``.
    """
    gens = {g.name: g for g in cat.quiver.generators}

    def endpoints(word, at):
        end = at
        for name in word:
            g = gens[name]
            if g.src != end:
                return None
            end = g.dst
        return end

    words = {}
    for x in cat.objects:
        frontier = [((), x)]
        words[(x, x)] = {()}
        while frontier:
            w, end = frontier.pop()
            if len(w) == ambient:
                continue
            for name, g in gens.items():
                if g.src == end:
                    w2 = w + (name,)
                    key = (x, g.dst)
                    if w2 not in words.setdefault(key, set()):
                        words[key].add(w2)
                        frontier.append((w2, g.dst))

    moves = []
    for lhs, rhs in cat.relations:
        moves.append((lhs.gens, rhs.gens, lhs.at))
        moves.append((rhs.gens, lhs.gens, lhs.at))

    parent = {}

    def root(w):
        while parent[w] != w:
            parent[w] = parent[parent[w]]
            w = parent[w]
        return w

    classes = {}
    for key, ws in words.items():
        for w in ws:
            parent[(key, w)] = (key, w)
    for key, ws in words.items():
        x = key[0]
        stable = False
        while not stable:
            stable = True
            for w in list(ws):
                for pat, rep, at in moves:
                    for i in range(len(w) - len(pat) + 1):
                        if w[i : i + len(pat)] == pat:
                            if endpoints(w[:i], x) != at:
                                continue
                            w2 = w[:i] + rep + w[i + len(pat) :]
                            if len(w2) > ambient:
                                continue
                            a, b = root((key, w)), root((key, w2))
                            if a != b:
                                parent[a] = b
                                stable = False
        classes[key] = ws
    return words, parent, root


@pytest.mark.parametrize("maker", [c3_cat, interval_cat, z_cat])
def test_normalize_agrees_with_brute_closure(maker):
    cat = maker()
    max_len = 4
    longest_side = max(
        max(len(l.gens), len(r.gens)) for l, r in cat.relations
    )
    words, parent, root = _brute_classes(cat, max_len, max_len + longest_side)
    for key, ws in words.items():
        ws = sorted(w for w in ws if len(w) <= max_len)
        for i, w1 in enumerate(ws):
            n1 = normalize(cat, Path(key[0], w1))
            for w2 in ws[i + 1 :]:
                n2 = normalize(cat, Path(key[0], w2))
                same_class = root((key, w1)) == root((key, w2))
                assert same_class == (n1 == n2), (key, w1, w2)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_normal_forms_agree_with_brute_closure(seed):
    """On seeded ``random_pointed`` draws with at most 4 generators that
    complete within budget 20, the words of length at most 3 in one
    brute-force class share one normal form."""
    cat = random_pointed(random.Random(seed)).cat
    assume(len(cat.generators) <= 4)
    rs = cat.completion(20)
    assume(rs.complete)
    longest_side = max((max(len(l.gens), len(r.gens)) for l, r in cat.relations), default=0)
    words, parent, root = _brute_classes(cat, 3, 3 + longest_side)
    forms = {}
    for key, ws in words.items():
        for w in ws:
            if len(w) <= 3:
                nf = rs.normalize(Path(key[0], w))
                assert forms.setdefault(root((key, w)), nf) == nf, (key, w)


# ---------------------------------------------------------------------------
# Finite backend


def test_to_finite_c2_tables():
    fin = to_finite(c2_cat())
    assert fin.n == 2
    assert fin.objects == ("x",)
    t = 1 - fin.identities["x"]
    assert fin.compose_table[(t, t)] == fin.identities["x"]
    assert fin.inverses()[t] == t
    fin.validate()


def test_to_finite_z_not_finite():
    with pytest.raises(NotFinite) as exc:
        to_finite(z_cat(), bound=10)
    err = exc.value
    assert (err.src, err.dst, err.bound) == ("x", "x", 10)
    assert len(err.forms) == 11
    assert str(err) == "hom(x, x) has more than 10 normal forms"
    # raised at the first form over the bound, before the level is finished
    with pytest.raises(NotFinite) as exc:
        to_finite(z_cat(), bound=1)
    assert exc.value.forms == (Path("x"), Path("x", ("a",)))
    assert (exc.value.bound, str(exc.value)) == (1, "hom(x, x) has more than 1 normal forms")


def test_to_finite_morphism_order():
    # identities in object order, then normal forms level by level
    assert to_finite(path2_cat()).labels == ("id_a", "id_b", "id_c", "f", "g", "f;g")
    assert to_finite(c3_cat()).labels == ("id_x", "t", "t^-1")


def test_to_finite_respects_relations_order_independent():
    fin = to_finite(c3_cat())
    assert fin.n == 3
    inv = fin.inverses()
    assert set(inv) == {0, 1, 2}


def _one_object(names, rels, invertible):
    return build(
        ["*"],
        [(g, "*", "*") for g in names],
        [(Path("*", lhs), Path("*", rhs)) for lhs, rhs in rels],
        invertible,
    )


def coxeter(links):
    """Coxeter group whose generators s0, s1, ... form a chain: ``links[i]``
    is the order of s_i s_(i+1), and non-adjacent generators commute."""
    names = [f"s{i}" for i in range(len(links) + 1)]
    rels = [((g, g), ()) for g in names]
    for i, a in enumerate(names):
        for j in range(i + 1, len(names)):
            m = links[i] if j == i + 1 else 2
            b = names[j]
            rels.append(((a, b) * (m // 2) + (a,) * (m % 2), (b, a) * (m // 2) + (b,) * (m % 2)))
    return _one_object(names, rels, names)


def dihedral(k):
    return _one_object(
        ["r", "f"],
        [(("r",) * k, ()), (("f", "f"), ()), (("r", "f"), ("f",) + ("r",) * (k - 1))],
        ["f"],
    )


def abelian(a, b):
    return _one_object(
        ["x", "y"], [(("x",) * a, ()), (("y",) * b, ()), (("y", "x"), ("x", "y"))], []
    )


def _table_per_pair_reduction(cat, budget):
    """The finite backend as first written: one reduction per composable pair."""
    rs = cat.completion(budget)
    names = tuple(g.name for g in cat.quiver.generators)
    forms = list(_normal_forms(cat, rs))  # finite: to_finite succeeded first
    word_id = {(src, word): i for i, (src, _, word) in enumerate(forms)}
    compose = {}
    for f, (fs, fd, fw) in enumerate(forms):
        for g, (gs, _, gw) in enumerate(forms):
            if gs == fd:
                compose[(f, g)] = word_id[(fs, rs.reduce_word(fw + gw))]
    idx = cat.quiver.gen_index
    return {
        "labels": tuple(
            ";".join(names[i] for i in w) if w else "id_" + s for s, _, w in forms
        ),
        "mor_src": tuple(s for s, _, _ in forms),
        "mor_dst": tuple(d for _, d, _ in forms),
        "paths": tuple(Path(s, tuple(names[i] for i in w)) for s, _, w in forms),
        "identities": {s: i for i, (s, _, w) in enumerate(forms) if not w},
        "gen_image": {
            g.name: word_id[(g.src, rs.reduce_word((idx[g.name],)))]
            for g in cat.quiver.generators
        },
        "compose_table": list(compose.items()),
    }


def _associative_all_triples(C):
    """The associativity check as first written: every composable triple."""
    mors_from = {x: [] for x in C.objects}
    for h in range(C.n):
        mors_from[C.mor_src[h]].append(h)
    table = C.compose_table
    return all(
        table[(fg, h)] == table[(f, table[(g, h)])]
        for (f, g), fg in table.items()
        for h in mors_from[C.mor_dst[g]]
    )


def _assert_matches_oracles(cat, bound=64, budget=500):
    fin = to_finite(cat, bound, budget)
    oracle = _table_per_pair_reduction(cat, budget)
    assert fin.labels == oracle["labels"]
    assert fin.mor_src == oracle["mor_src"]
    assert fin.mor_dst == oracle["mor_dst"]
    assert fin.paths == oracle["paths"]
    assert fin.identities == oracle["identities"]
    assert fin.gen_image == oracle["gen_image"]
    # insertion order too: callers iterate the table
    assert list(fin.compose_table.items()) == oracle["compose_table"]
    assert _associative_all_triples(fin)
    # Light's test ran over the generators, not over every morphism
    assert fin._generating_set() == sorted(
        {i for i in fin.gen_image.values() if not fin.is_identity(i)}
    )


ORACLE_CATS = {
    "A3": lambda: coxeter([3, 3]),
    "B3": lambda: coxeter([3, 4]),
    "D12": lambda: dihedral(12),
    "Z4xZ6": lambda: abelian(4, 6),
    "chaotic5": lambda: chaotic([f"o{i}" for i in range(5)]),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CATS))
def test_to_finite_matches_per_pair_oracle(name):
    cat = ORACLE_CATS[name]()
    _assert_matches_oracles(cat, bound=64, budget=2000)


def test_to_finite_matches_per_pair_oracle_on_pools():
    # the groupoids come back as multiplication-table presentations
    for cat in pool8() + [finite_to_fp(G) for G in groupoid_pool6()]:
        _assert_matches_oracles(cat, bound=64)


def test_internal_readers_leave_the_shared_table_as_the_oracle_builds_it():
    """``is_contractible``, ``is_groupoid_fp``, ``cw_classify``, the K0
    witness and its replay, and the cofiber fallback to finite backends read
    the table kept in the system's ``finite`` slot, not a copy; after all of
    them have run, each table they read is still the per-pair oracle's."""
    clear_completion_cache()
    read = []
    for cat in pool8():
        is_contractible(cat)
        is_groupoid_fp(cat)
        cw_classify(cat)
        read.append(cat)
    witness = k0_vanishing_witness(PointedCategory(path2_cat(), "a"))
    assert witness.replay()
    read += [witness.px, witness.psx, witness.s2x.cat]
    b, c = (build([x], [(t, x, x)], [(Path(x, (t,) * 16), Path(x))]) for x, t in ("xb", "yc"))
    i = Functor(build(["pt"]), b, {"pt": "x"}, {})
    q = Functor(b, c, {"x": "y"}, {"b": Path("y", ("c",) * 3)})
    cert = is_cofiber_sequence(i, q)
    assert cert.mode == "finite"
    read += [cert.comparison.source, c]
    for cat in read:
        if cat.completion().complete:
            assert cat.completion().finite  # the reader filled the shared slot
            _assert_matches_oracles(cat)
    clear_completion_cache()


def test_to_finite_matches_per_pair_oracle_on_random_pointed():
    rng = random.Random(2024)
    checked = 0
    for _ in range(80):
        cat = random_pointed(rng).cat
        try:
            to_finite(cat, 32, 20)
        except (IncompleteSystem, NotFinite):
            continue
        _assert_matches_oracles(cat, bound=32, budget=20)
        checked += 1
    assert checked >= 30


def _magma(gen_image):
    """A unital magma on id, a, b that is not associative.

    a;a = b;b = id and a;b = b;a = b, so (a;b);b = id but a;(b;b) = a.
    Every triple with a in the middle associates.
    """
    table = {(0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 0): 1, (2, 0): 2}
    table.update({(1, 1): 0, (1, 2): 2, (2, 1): 2, (2, 2): 0})
    return dict(
        objects=["x"], mor_src=["x"] * 3, mor_dst=["x"] * 3, compose=table,
        identities={"x": 0}, gen_image=gen_image,
    )


@pytest.mark.parametrize(
    "gen_image",
    [None, {"a": 1, "b": 2}, {"a": 1}],
    ids=["no_gen_image", "generating", "not_generating"],
)
def test_validate_rejects_non_associative_magma(gen_image):
    magma = _magma(gen_image)
    table = magma["compose"]
    # Light's test over {a} alone would pass: when gen_image names only a,
    # which does not generate, only the fallback to every morphism catches it
    assert all(
        table[(table[(x, 1)], y)] == table[(x, table[(1, y)])]
        for x in range(3)
        for y in range(3)
    )
    with pytest.raises(NonParallelRelation, match="associativity fails"):
        FiniteCategory(**magma)


def test_validate_rejects_partial_table():
    magma = _magma(None)
    del magma["compose"][(1, 2)]
    with pytest.raises(DanglingEndpoint, match="missing a composable pair"):
        FiniteCategory(**magma)


# ---------------------------------------------------------------------------
# Shared tables


def test_equal_presentations_share_one_build():
    clear_completion_cache()
    doc = c3_cat().to_json()
    fin = to_finite(from_json(doc))
    widest, shared = from_json(doc).completion().finite
    assert widest == 3 and shared == fin and shared is not fin
    with pytest.raises(TypeError):  # the kept table is read-only
        shared.compose_table[(0, 0)] = 0
    # the bound only decides NotFinite: every bound from the widest hom-set up
    # reads the one table, and each caller gets a copy of it
    for bound in (64, 3, 1000):
        again = to_finite(from_json(doc), bound)
        assert again == fin and again is not fin and again.paths is shared.paths
    assert from_json(doc).completion().finite[1] is shared
    with pytest.raises(NotFinite):
        to_finite(from_json(doc), bound=2)
    # the budget is part of the key: another completion builds its own table
    other = to_finite(from_json(doc), budget=100)
    assert other == fin and other.paths is not shared.paths


def test_editing_a_returned_table_leaves_the_shared_one_intact():
    clear_completion_cache()
    fin = to_finite(dihedral(5))
    a, b = sorted(fin.compose_table)[7], sorted(fin.compose_table)[11]
    fin.compose_table[a], fin.compose_table[b] = fin.compose_table[b], fin.compose_table[a]
    fin.identities["*"] = 1
    fin.gen_image["r"] = 0
    again = to_finite(dihedral(5))
    assert again != fin
    again.validate()
    _assert_matches_oracles(dihedral(5))
    clear_completion_cache()
    cold = to_finite(dihedral(5))
    assert cold == again and cold.gen_image == again.gen_image


def test_presentations_differing_only_in_inverses_share_one_table():
    clear_completion_cache()
    gens = [("a", "x", "x"), ("b", "x", "x")]
    rels = [
        (Path("x", ("a", "a")), Path("x")),
        (Path("x", ("b", "b")), Path("x")),
        (Path("x", ("b", "a")), Path("x", ("a", "b"))),
    ]
    plain, marked = build(["x"], gens, rels), build(["x"], gens, rels, ["a", "b"])
    assert marked.inverses and not plain.inverses and marked.relations == plain.relations
    assert to_finite(marked) == to_finite(plain)
    assert marked.completion().finite is plain.completion().finite


def test_to_finite_errors_are_raised_again():
    clear_completion_cache()
    a4 = coxeter([3, 3, 3])
    for cat in (a4, coxeter([3, 3, 3])):
        with pytest.raises(NotFinite):
            to_finite(cat, bound=10)
    for cat in (_braid(), _braid()):
        with pytest.raises(IncompleteSystem):
            to_finite(cat, budget=4)
    assert a4.completion().finite == []


def test_clearing_the_cache_drops_its_tables():
    clear_completion_cache()
    doc = c3_cat().to_json()
    held = from_json(doc)
    fin = to_finite(held)
    slot = held.completion().finite
    clear_completion_cache()
    fresh = from_json(doc)
    assert fresh is not held
    assert to_finite(fresh) == fin and fresh.completion().finite is not slot
    # what was handed out stays valid; an older instance reads the new table
    assert slot[1] == fin and fin.n == 3
    assert to_finite(held).paths is fresh.completion().finite[1].paths


def test_shared_table_equals_a_cold_one():
    rng = random.Random(31)
    cases = [(cat, 64, 500) for cat in pool8()]
    cases += [(random_pointed(rng).cat, 32, 20) for _ in range(60)]
    clear_completion_cache()
    shared = 0
    for cat, bound, budget in cases:
        doc = cat.to_json()
        try:
            cold = to_finite(from_json(doc), bound, budget)
        except (IncompleteSystem, NotFinite):
            continue
        assert from_json(doc).completion(budget).finite[1] == cold
        # a hit, field by field and in insertion order, against the per-pair oracle
        _assert_matches_oracles(from_json(doc), bound, budget)
        shared += 1
    assert shared >= 30


def test_finite_to_fp_round_trip():
    fin = to_finite(c3_cat())
    again = to_finite(finite_to_fp(fin), bound=16)
    assert again.n == fin.n
    assert len(again.objects) == len(fin.objects)


# ---------------------------------------------------------------------------
# Functors


def test_check_functor_accepts_quotient():
    z = z_cat()
    c2 = c2_cat()
    F = Functor(z, c2, {"x": "x"}, {"a": Path("x", ("t",)), "a^-1": Path("x", ("t",))})
    assert check_functor(F)


def test_check_functor_rejects_endpoint_mismatch():
    a = arrow_cat()
    F = Functor(a, a, {"a": "a", "b": "b"}, {"f": Path("b", ("f",))})
    assert not check_functor(F)


def test_check_functor_rejects_relation_violation():
    c2 = c2_cat()
    z = z_cat()
    F = Functor(c2, z, {"x": "x"}, {"t": Path("x", ("a",))})
    assert not check_functor(F)


def test_identity_and_composition():
    p2 = path2_cat()
    ida = identity_functor(p2)
    assert functors_equal(compose_functors(ida, ida), ida)
    fin = to_finite(p2)
    idf = identity_functor(fin)
    assert check_functor(idf)


def test_functor_json_round_trip():
    z = z_cat()
    c2 = c2_cat()
    F = Functor(z, c2, {"x": "x"}, {"a": Path("x", ("t",)), "a^-1": Path("x", ("t",))})
    doc = json.dumps(F.to_json_obj())
    G = functor_from_json(z, c2, json.loads(doc))
    assert functors_equal(F, G)


def test_finite_functor_json_round_trip():
    c3 = to_finite(c3_cat())
    flip = FiniteFunctor(c3, c3, {"x": "x"}, [0, 2, 1])
    assert flip.to_json_obj() == {"object_map": {"x": "x"}, "gen_map": {"1": 2, "2": 1}}
    ch2 = to_finite(chaotic(["p", "q"]))
    one = to_finite(build(["pt"]))
    functors = [
        flip,
        identity_functor(c3),
        FiniteFunctor(c3, c3, {"x": "x"}, [0, 0, 0]),
        FiniteFunctor(ch2, one, {"p": "pt", "q": "pt"}, [0] * ch2.n),
    ]
    for F in functors:
        G = functor_from_json(F.source, F.target, json.loads(json.dumps(F.to_json_obj())))
        assert isinstance(G, FiniteFunctor) and G == F
    with pytest.raises(DanglingEndpoint):
        functor_from_json(c3, c3, {"object_map": {"x": "x"}, "gen_map": {"1": 2}})


def test_finite_functor_rejects_bad_shapes():
    c3 = to_finite(c3_cat())
    with pytest.raises(DanglingEndpoint):
        FiniteFunctor(c3, c3, {"x": "x"}, [0, 2])
    with pytest.raises(DanglingEndpoint):
        FiniteFunctor(c3, c3, {"x": "x"}, [1, 2, 0])  # the identity goes to t
    with pytest.raises(DanglingEndpoint):
        FiniteFunctor(c3, c3, {"x": "y"}, [0, 2, 1])
    with pytest.raises(TypeError):
        FiniteFunctor(c3_cat(), c3, {"x": "x"}, [0, 2, 1])
    with pytest.raises(TypeError):
        FiniteFunctor(c3, c3_cat(), {"x": "x"}, [0, 2, 1])


def test_functor_rejects_a_finite_source():
    c3 = to_finite(c3_cat())
    with pytest.raises(TypeError):
        Functor(c3, c3, {"x": "x"}, {})
    with pytest.raises(TypeError):
        Functor(c3_cat(), None, {"x": "x"}, {"t": 1})


def test_check_functor_rejects_one_broken_table_cell():
    S = to_finite(path2_cat())
    T = to_finite(build(["a", "b", "c"], [("f", "a", "b"), ("g", "b", "c"), ("h", "a", "c")]))
    t_id = {label: i for i, label in enumerate(T.labels)}
    ident = {x: x for x in S.objects}
    assert check_functor(FiniteFunctor(S, T, ident, [t_id[label] for label in S.labels]))
    # sending f;g to h keeps every endpoint and every other cell, but breaks (f, g) -> f;g
    bent = [t_id["h" if label == "f;g" else label] for label in S.labels]
    assert not check_functor(FiniteFunctor(S, T, ident, bent))


def test_category_json_round_trip():
    for maker in (z_cat, c2_cat, c3_cat, arrow_cat, interval_cat, path2_cat):
        cat = maker()
        again = from_json(cat.to_json())
        assert again.to_json() == cat.to_json()
        assert again.inverses == cat.inverses


def test_json_lists_both_mates_and_loader_repairs():
    cat = z_cat()
    obj = cat.to_json_obj()
    assert set(obj["invertible"]) == {"a", "a^-1"}
    again = from_json(obj)
    assert again.inverses == {"a": "a^-1", "a^-1": "a"}
    assert len(again.relations) == len(cat.relations)


@pytest.mark.parametrize(
    "field, value",
    [
        ("objects", "xy"),
        ("generators", ""),
        ("relations", ""),
        ("invertible", "t"),
        ("gens", "tt"),
    ],
)
def test_from_json_rejects_a_string_for_a_list(field, value):
    obj = c2_cat().to_json_obj()
    if field == "gens":
        obj["relations"][0]["lhs"]["gens"] = value
    else:
        obj[field] = value
    with pytest.raises(TypeError, match=f"'{field}': expected a list, got str"):
        from_json(obj)


@pytest.mark.parametrize(
    "field, mutate",
    [
        ("objects", lambda obj: obj["objects"].append(3)),
        ("name", lambda obj: obj["generators"][0].update(name=7)),
        ("src", lambda obj: obj["generators"][0].update(src=None)),
        ("dst", lambda obj: obj["generators"][0].update(dst=["x"])),
        ("at", lambda obj: obj["relations"][0]["lhs"].update(at=0)),
        ("gens", lambda obj: obj["relations"][0]["rhs"]["gens"].append(1)),
        ("invertible", lambda obj: obj["invertible"].append(2)),
    ],
)
def test_from_json_rejects_a_non_string_name(field, mutate):
    obj = c2_cat().to_json_obj()
    mutate(obj)
    with pytest.raises(TypeError, match=f"'{field}': expected a string, got"):
        from_json(obj)


def test_randomized_normalize_is_idempotent():
    rng = random.Random(7)
    cat = c3_cat()
    gens = [g.name for g in cat.generators]
    for _ in range(100):
        word = tuple(rng.choice(gens) for _ in range(rng.randint(0, 8)))
        nf = normalize(cat, Path("x", word))
        assert normalize(cat, nf) == nf

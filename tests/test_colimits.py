"""Coproducts, pushouts (with a brute-force universal-property oracle),
chaotic categories, and cofibrant replacement."""

import hashlib
import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from catcw import colimits, fpcat
from catcw import (
    CoproductResult,
    EmptySet,
    FpCategory,
    Functor,
    GroupoidComponent,
    GroupoidPresentation,
    K0Witness,
    Path,
    PointedCategory,
    PushoutResult,
    build,
    build_two_complex,
    chaotic,
    check_functor,
    clear_completion_cache,
    cone_unit,
    cofibrant_replacement,
    compose_functors,
    coproduct,
    functors_equal,
    identity_functor,
    irreducible_words,
    is_cofibration,
    is_contractible,
    is_equivalence,
    k0_vanishing_witness,
    one_sided_homotopy_pushout,
    point_collapse,
    pushout,
    sphere,
    terminal,
    to_finite,
)
from conftest import (
    arrow_cat,
    assert_universal_property,
    c2_cat,
    discrete2,
    finite_form,
    interval_cat,
    path2_cat,
    pool8,
    random_cof_span,
    random_pointed,
    span_pool,
    terminal_cat,
)
from catcw.cli import _random_presentation, main


def test_coproduct_prefixes_and_injections():
    res = coproduct([terminal_cat(), arrow_cat()])
    assert res.apex.objects == ("0.pt", "1.a", "1.b")
    assert [g.name for g in res.apex.generators] == ["1.f"]
    for inj in res.injections:
        assert check_functor(inj)
        assert is_cofibration(inj)


def test_empty_coproduct_is_the_empty_category():
    res = coproduct([])
    assert res.apex.objects == ()
    assert res.injections == ()


def test_coproduct_keeps_inverses():
    res = coproduct([c2_cat(), interval_cat()])
    assert res.apex.inverses == {"0.t": "0.t", "1.f": "1.f^-1", "1.f^-1": "1.f"}


def test_chaotic_needs_an_object():
    with pytest.raises(EmptySet):
        chaotic([])


def test_names_equal_in_value_but_not_in_type_share_nothing():
    """``1 == True``, but a point or cone named ``True`` is spelled as a cold
    run spells it, after one named ``1``."""
    for make in (terminal, lambda name: chaotic(["a", name])):
        clear_completion_cache()
        cold = make(True).to_json()
        assert "true" in cold
        clear_completion_cache()
        make(1)
        assert make(True).to_json() == cold


def test_chaotic_is_contractible():
    for k in (1, 2, 3, 4):
        ch = chaotic([f"p{i}" for i in range(k)])
        assert is_contractible(ch)
        assert to_finite(ch).n == k * k


def test_pushout_square_commutes():
    for f, g in span_pool():
        po = pushout(f, g)
        assert po.verify()
        assert check_functor(po.inj_left) and check_functor(po.inj_right)


def test_pushout_glues_objects_to_earliest_representative():
    a2 = discrete2()
    one = terminal_cat()
    ident = Functor(a2, a2, {"x": "x", "y": "y"}, {})
    squash = Functor(a2, one, {"x": "pt", "y": "pt"}, {})
    po = pushout(ident, squash)
    assert len(po.apex.objects) == 1
    # left copy is declared first, so the representative carries its prefix
    assert po.apex.objects[0] == "L.x"
    assert po.inj_right.apply_obj("pt") == "L.x"


def test_circle_from_two_arcs():
    """Gluing two invertible arcs along both endpoints gives the two-vertex
    circle: loops are powers of going around (reduced words of even length,
    so 11 forms of length <= 10), and the two hom-sets between distinct
    vertices hold the odd-length words (10 forms of length <= 10 each)."""
    s0 = sphere(0)
    emb1 = Functor(s0, interval_cat(), {"0.pt": "a", "1.pt": "b"}, {})
    emb2 = Functor(s0, interval_cat(), {"0.pt": "a", "1.pt": "b"}, {})
    po = pushout(emb1, emb2)
    assert po.apex.objects == ("L.a", "L.b")
    assert len(po.apex.generators) == 4
    words = irreducible_words(po.apex, 10)
    assert len(words[("L.a", "L.a")]) == 11
    assert len(words[("L.b", "L.b")]) == 11
    assert len(words[("L.a", "L.b")]) == 10
    assert len(words[("L.b", "L.a")]) == 10


def test_pushout_universal_property_sample():
    targets = [to_finite(c) for c in (terminal_cat(), interval_cat(), c2_cat())]
    total = 0
    for f, g in span_pool()[:4]:
        po = pushout(f, g)
        for T in targets:
            total += assert_universal_property(po, f, g, T)
    assert total > 0


# ---------------------------------------------------------------------------
# Cofibrant replacement


def test_replacement_discrete_target():
    s0 = sphere(0)
    one = terminal_cat()
    g = Functor(s0, one, {"0.pt": "pt", "1.pt": "pt"}, {})
    incl, proj = cofibrant_replacement(g)
    assert is_cofibration(incl)
    assert functors_equal(compose_functors(incl, proj), g)
    assert is_equivalence(finite_form(proj))


def test_replacement_discrete_target_keeps_empty_fiber():
    one = terminal_cat()
    a2 = discrete2()
    g = Functor(one, a2, {"pt": "x"}, {})
    incl, proj = cofibrant_replacement(g)
    # the fiber over y is empty: the cylinder keeps a bare point for it
    assert len(incl.target.objects) == 2
    assert functors_equal(compose_functors(incl, proj), g)
    assert is_equivalence(finite_form(proj))


def test_replacement_general_target_is_mapping_cylinder():
    one = terminal_cat()
    c2 = c2_cat()
    g = Functor(one, c2, {"pt": "x"}, {})
    incl, proj = cofibrant_replacement(g)
    assert is_cofibration(incl)
    assert functors_equal(compose_functors(incl, proj), g)
    assert is_equivalence(finite_form(proj))


def test_one_sided_homotopy_pushout_circle():
    """Collapsing both points of the two-point discrete category through the
    homotopy pushout gives the free invertible loop, not the bare point."""
    s0 = sphere(0)
    one = terminal_cat()
    collapse = Functor(s0, one, {"0.pt": "pt", "1.pt": "pt"}, {})
    po = one_sided_homotopy_pushout(collapse, collapse)
    assert len(po.apex.objects) == 1
    x = po.apex.objects[0]
    words = irreducible_words(po.apex, 10)
    assert len(words[(x, x)]) == 21


# ---------------------------------------------------------------------------
# Guards: each apex is assembled once, and no name moves


@pytest.fixture()
def presentations_built(monkeypatch):
    """A list that records every ``FpCategory`` built while the test runs,
    which starts with no shared presentation."""
    clear_completion_cache()
    built = []
    init = FpCategory.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FpCategory, "__init__", counting_init)
    return built


def test_coproduct_builds_only_its_apex(presentations_built):
    cats = [c2_cat(), interval_cat(), path2_cat()]
    presentations_built.clear()
    res = coproduct(cats)
    assert presentations_built == [res.apex]


def test_a_repeated_pushout_builds_its_apex_once(presentations_built):
    for f, g in span_pool():
        presentations_built.clear()
        first, again = pushout(f, g), pushout(f, g)
        assert presentations_built == [first.apex]
        assert again.apex == first.apex and again.apex is not first.apex
        assert again.apex.to_json() == first.apex.to_json()


@pytest.fixture()
def pushouts_made(monkeypatch):
    """A list that records the key of every pushout computed rather than
    read from the cache, which starts empty."""
    clear_completion_cache()
    made = []
    parts = colimits._pushout_parts

    def counting_parts(*key):
        made.append(key)
        return parts(*key)

    monkeypatch.setattr(colimits, "_pushout_parts", counting_parts)
    return made


def _loop_span(images=("t",), source_objects=("a", "b"), mates=True):
    """A span A -> B, A -> C gluing a loop s of A to B's involution t (or to
    the word ``images``) and to C's loop u; A's second object b goes to
    B's one object and to C's second."""
    A = build(source_objects, [("s", "a", "a")])
    B = c2_cat() if mates else build(["x"], [("t", "x", "x")], [(Path("x", ("t", "t")), Path("x"))])
    C = build(["y", "z"], [("u", "y", "y")])
    f = Functor(A, B, {"a": "x", "b": "x"}, {"s": Path("x", images)})
    g = Functor(A, C, {"a": "y", "b": "z"}, {"s": Path("y", ("u",))})
    return f, g


def test_spans_that_differ_in_one_part_share_no_pushout(pushouts_made):
    """A target's mate table, one generator image or the order of the
    source's objects is part of the key: each such span is pushed out
    anew, and answers as a cold run does."""
    variants = [
        _loop_span(),
        _loop_span(mates=False),
        _loop_span(images=("t", "t", "t")),
        _loop_span(source_objects=("b", "a")),
    ]
    warm = [_answer(lambda f=f, g=g: pushout(f, g)) for f, g in variants]
    assert len(pushouts_made) == 4
    assert warm[1][2] == [] and warm[0][2] != []  # the mate tables differ
    assert warm[2][1] != warm[0][1]  # L.t;L.t;L.t = R.u, not L.t = R.u
    assert warm[3] == warm[0]  # same result, computed again
    for (f, g), answer in zip(variants, warm):
        clear_completion_cache()
        assert _answer(lambda: pushout(f, g)) == answer


def test_a_pushout_read_from_the_cache_is_its_own(pushouts_made):
    """A hit gives a new apex and new injections over it: editing one
    result's apex inverse table or injection maps does not show in the
    next, each result verifies, and ``from_span`` is the caller's legs."""
    for f, g in span_pool():
        pushouts_made.clear()
        first = pushout(f, g)
        cold = _answer(lambda: pushout(f, g))
        again = pushout(f, g)
        assert len(pushouts_made) == 1
        assert again.apex is not first.apex and again.apex == first.apex
        assert again.inj_left is not first.inj_left and again.inj_right is not first.inj_right
        assert again.inj_left.target is again.apex and again.inj_right.target is again.apex
        assert again.from_span[0] is f and again.from_span[1] is g
        assert again.verify()
        first.apex.inverses.clear()
        first.inj_left.gen_map.clear()
        first.inj_right.object_map.clear()
        assert _answer(lambda: pushout(f, g)) == cold


def test_a_second_k0_round_trip_pushes_nothing_out(pushouts_made):
    """The four suspension pushouts of a K0 round trip (witness, JSON,
    parsed copy, both replays) are read from the cache the second time."""
    X = PointedCategory(path2_cat(), "a")

    def round_trip():
        w = k0_vanishing_witness(X)
        again = K0Witness.from_json(w.to_json())
        assert w.replay() and again.replay()
        return again.to_json()

    first = round_trip()
    assert pushouts_made  # a cold round trip pushes its spans out
    pushouts_made.clear()
    assert round_trip() == first
    assert pushouts_made == []
    clear_completion_cache()


def test_discrete_cylinder_builds_only_its_apex(presentations_built):
    a2 = discrete2()
    collapse = Functor(
        path2_cat(), a2, {"a": "x", "b": "x", "c": "y"}, {"f": Path("x"), "g": Path("x")}
    )
    presentations_built.clear()
    incl, _proj = cofibrant_replacement(collapse)
    assert presentations_built == [incl.target]
    assert incl.target.objects == ("R.a", "R.b", "R.c")


def _digest(docs) -> str:
    text = json.dumps(docs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _cat_doc(cat):
    return {**cat.to_json_obj(), "inverses": cat.inverses}


def _cw_build_docs(capsys):
    docs = []
    for seed in range(20):
        assert main(["cw-build", "random", "--seed", str(seed), "--json"]) == 0
        docs.append(json.loads(capsys.readouterr().out))
    return docs


def _coproduct_doc():
    res = coproduct(pool8())
    return {"apex": _cat_doc(res.apex), "injections": [F.to_json_obj() for F in res.injections]}


def _cylinder_docs():
    docs = []
    for c in pool8():
        incl, proj = cofibrant_replacement(identity_functor(c))
        docs.append(
            {"cyl": _cat_doc(incl.target), "incl": incl.to_json_obj(), "proj": proj.to_json_obj()}
        )
    return docs


def test_constructions_keep_every_name(capsys):
    """Canonical JSON of the colimit-built constructions, pinned by digest,
    so that a refactor cannot rename an object or generator unnoticed."""
    got = {
        "spheres": _digest([_cat_doc(sphere(n)) for n in range(5)]),
        "two_complexes": _digest(_cw_build_docs(capsys)),
        "coproduct": _digest(_coproduct_doc()),
        "cylinders": _digest(_cylinder_docs()),
        "k0_witness": _digest(
            k0_vanishing_witness(PointedCategory(path2_cat(), "a")).to_json_obj()
        ),
    }
    assert got == PINNED_DIGESTS


# sha256 of the canonical JSON above; a new value means a name moved
PINNED_DIGESTS = {
    "spheres": "8892296ef2d657c2199833b8f9009bacee398aed304a31c87cd1f091fbaa3489",
    "two_complexes": "f67d1ef4f266d186750ee673d1c3aa6fd791cc27ead582fa581832b0608b57b3",
    "coproduct": "680e5bbe06486bb8b61c7a5c12b4f21cfcd6a103cb0745243b78463205d48cbc",
    "cylinders": "57336bd7fe4e54c4f50e61c379b8102b26c1e153aa4d8ec8faae119e682ebffc",
    "k0_witness": "212437c294f1c4a28efb0769be3ee43b669358917b4862937fb7ad46d6f46ba0",
}


# ---------------------------------------------------------------------------
# Shared presentations answer as cold ones


def _answer(make):
    """What ``make()`` gives, for comparison with a cold run: the
    presentation's JSON, the presentation itself (compared by ``==``), its
    inverse table in order and the injections' JSON; or the error's type
    and text."""
    try:
        out = make()
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(out, PushoutResult):
        cat, legs = out.apex, [out.inj_left, out.inj_right]
    elif isinstance(out, CoproductResult):
        cat, legs = out.apex, list(out.injections)
    else:
        cat, legs = out, []
    return cat.to_json(), cat, list(cat.inverses.items()), [F.to_json_obj() for F in legs]


def _varied(cat: FpCategory, change: str) -> FpCategory:
    """``cat``, or an equal quiver with its relations reversed or its mate
    table emptied: a presentation that must not share ``cat``'s entry."""
    if change == "relations":
        return FpCategory(cat.quiver, cat.relations[::-1], cat.inverses)
    out = cat.copy()
    if change == "mates":
        out.inverses.clear()
    return out


def _varied_span(f: Functor, g: Functor, change: str) -> tuple[Functor, Functor]:
    return tuple(
        Functor(F.source, _varied(F.target, change), F.object_map, F.gen_map) for F in (f, g)
    )


def _broken_leg(g: Functor, how: str, rng: random.Random) -> Functor:
    """``g`` with one generator sent to no arrow of its target (``"unknown"``),
    to no path at all (``"number"``), or to an identity at a random object
    (``"endpoints"``): a leg that is not a functor."""
    gens = g.source.quiver.generators
    if not gens:
        return g
    gen_map = dict(g.gen_map)
    at = rng.choice(g.target.objects)
    gen_map[gens[0].name] = {
        "unknown": Path(at, ("nope",)), "number": 5, "endpoints": Path(at)
    }[how]
    return Functor(g.source, g.target, g.object_map, gen_map)


def _random_two_complex(rng: random.Random, broken: str | None) -> GroupoidPresentation:
    gp = _random_presentation(rng.randrange(10**6))
    extra = {
        None: [],
        "token": [GroupoidComponent((), ("a",), (("b",),))],
        "object": [GroupoidComponent(("u", "u"), ("a",), ())],
    }[broken]
    return GroupoidPresentation(gp.components + tuple(extra))


def _constructions(kind, names, seed, change, broken):
    """``(make, variant)``: a construction and the same construction on an
    input that differs in relation order or mate table (or not at all)."""
    rng = random.Random(seed)
    if kind == "chaotic":
        return (lambda: chaotic(names)), (lambda: chaotic(names[::-1]))
    if kind == "terminal":
        name = names[0] if names else "pt"
        return (lambda: terminal(name)), (lambda: terminal(name + "'"))
    if kind == "coproduct":
        cats = [random_pointed(rng, max_obj=3, max_gens=4).cat for _ in range(rng.randint(0, 3))]
        cats += [chaotic(names)] if names and len(set(names)) == len(names) else []
        varied = [_varied(c, change) for c in cats]
        return (lambda: coproduct(cats)), (lambda: coproduct(varied))
    if kind == "two_complex":
        gp = _random_two_complex(rng, broken and ("token", "object")[seed % 2])
        rev = GroupoidPresentation(
            [GroupoidComponent(c.extra_objects, c.generators, c.relations[::-1]) for c in gp.components]
        )
        return (lambda: build_two_complex(gp)), (lambda: build_two_complex(rev))
    if kind == "pushout":
        f, g = random_cof_span(rng)
    else:  # the suspension span of a pointed category
        X = random_pointed(rng, max_obj=3, max_gens=4)
        f, g = cone_unit(X), point_collapse(X.cat)
    if broken:
        g = _broken_leg(g, broken, rng)
    f2, g2 = _varied_span(f, g, change)
    return (lambda: pushout(f, g)), (lambda: pushout(f2, g2))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["chaotic", "terminal", "coproduct", "two_complex", "pushout", "suspension"]),
    names=st.lists(st.sampled_from(["p", "q", "r", "*", "L.x"]), max_size=4),
    seed=st.integers(0, 10**6),
    change=st.sampled_from(["none", "relations", "mates"]),
    broken=st.sampled_from([None, None, "unknown", "number", "endpoints"]),
)
@example(kind="chaotic", names=[], seed=0, change="none", broken=None)
@example(kind="chaotic", names=["p", "q", "p"], seed=0, change="none", broken=None)
@example(kind="pushout", names=[], seed=3, change="mates", broken="unknown")
def test_shared_constructions_answer_as_cold_runs(kind, names, seed, change, broken):
    """After an equal or a varied input has filled the presentation cache,
    a construction answers as it does after ``clear_completion_cache()``:
    JSON, ``==``, inverse-table order, injections, or error type and text.
    Each call gets its own instance and inverse table; editing one does not
    show in the next call."""
    make, variant = _constructions(kind, names, seed, change, broken)
    clear_completion_cache()
    _answer(variant)
    first = _answer(make)
    hits = fpcat._shared_presentation.cache_info().hits
    warm = _answer(make)
    hit = fpcat._shared_presentation.cache_info().hits > hits
    clear_completion_cache()
    cold = _answer(make)
    assert first == cold and warm == cold
    if isinstance(cold[0], type):  # an error: raised again, never kept
        return
    assert hit
    a, b = _answer(make)[1], _answer(make)[1]
    assert a is not b and a.inverses is not b.inverses
    a.inverses.clear()
    a.inverses["junk"] = "junk"
    assert _answer(make) == cold

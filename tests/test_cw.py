"""Spheres, cell attachment, complex builders, and the CW dimension ladder."""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import arrow_cat, c2_cat, groupoid_pool6, pool8, random_pointed

from catcw import colimits, cw, fpcat, model_structure
from catcw import (
    CatError,
    DuplicateName,
    Functor,
    GroupoidComponent,
    GroupoidPresentation,
    MixedDimensions,
    NegativeDimension,
    NotDecided,
    NotFinite,
    Path,
    attach_cells,
    build,
    build_one_complex,
    build_two_complex,
    chaotic,
    clear_completion_cache,
    coproduct,
    cw_classify,
    find_equivalence,
    find_isomorphism,
    irreducible_words,
    is_contractible,
    is_groupoid,
    is_groupoid_fp,
    point_collapse,
    pushout,
    read_off_presentation,
    sphere,
    terminal,
    to_finite,
)


def loop_forms(cat, max_len):
    """Normal-form count on the unique hom-set of a one-object category."""
    (o,) = cat.objects
    return len(irreducible_words(cat, max_len, budget=2000)[(o, o)])


def test_sphere_zero_is_two_points():
    s0 = sphere(0)
    assert len(s0.objects) == 2
    assert not s0.quiver.generators
    assert to_finite(s0).n == 2


def test_sphere_one_is_free_loop():
    s1 = sphere(1)
    assert len(s1.objects) == 1
    gens = [g.name for g in s1.quiver.generators]
    assert len(gens) == 2
    a, b = gens
    assert s1.inverses[a] == b and s1.inverses[b] == a
    # no relations beyond the two unit laws for the mate pair
    o = s1.objects[0]
    units = {(Path(o, (a, b)), Path(o)), (Path(o, (b, a)), Path(o))}
    assert set(s1.relations) == units
    with pytest.raises(NotFinite):
        to_finite(s1, bound=10)
    for k in range(11):
        assert loop_forms(s1, k) == 2 * k + 1


def test_spheres_above_one_are_contractible():
    for n in (2, 3, 4):
        assert is_contractible(sphere(n))


def test_sphere_rejects_negative_dimension():
    with pytest.raises(ValueError):
        sphere(-1)
    with pytest.raises(NegativeDimension, match="nonnegative, got -2") as exc:
        sphere(-2)
    assert isinstance(exc.value, CatError) and exc.value.n == -2


def test_sphere_presentations_are_cached():
    assert sphere(3) is sphere(3)


def test_a_warm_sphere_builds_nothing(monkeypatch):
    """Spheres are shared by dimension: a repeated ``sphere(3)`` is one hit,
    with no ``build`` and no presentation made or checked."""
    sphere(3)
    made = []
    init = fpcat.FpCategory.__init__

    def counting_init(self, *args, **kwargs):
        made.append("FpCategory")
        init(self, *args, **kwargs)

    def counting_build(*args, **kwargs):
        made.append("build")
        return fpcat.build(*args, **kwargs)

    monkeypatch.setattr(fpcat.FpCategory, "__init__", counting_init)
    monkeypatch.setattr(colimits, "build", counting_build)
    before = fpcat.completion_cache_info()
    assert sphere(3) is sphere(3)
    after = fpcat.completion_cache_info()
    assert made == []
    assert (after.hits - before.hits, after.misses - before.misses) == (2, 0)
    clear_completion_cache()
    sphere(3)  # a cold sphere makes presentations, so the spies would see one
    assert "FpCategory" in made and "build" in made


def test_point_collapse_hits_the_point():
    for cat in pool8():
        p = point_collapse(cat)
        assert len(p.target.objects) == 1
        assert set(p.object_map.values()) == {p.target.objects[0]}


def test_attach_nothing_returns_base():
    base = arrow_cat()
    assert attach_cells(base, []) is base


def test_attach_rejects_mixed_dimensions():
    one = terminal()
    f = point_collapse(sphere(0), one)
    g = point_collapse(sphere(1), one)
    with pytest.raises(MixedDimensions):
        attach_cells(one, [(0, f), (1, g)])


def test_attach_zero_cell_to_point_gives_free_loop():
    out = attach_cells(terminal(), [(0, point_collapse(sphere(0)))])
    assert len(out.objects) == 1
    assert len(out.quiver.generators) == 2
    assert loop_forms(out, 10) == 21
    assert cw_classify(out).kind == "Dim1"


def test_attach_one_cell_squaring_the_loop():
    s1 = sphere(1)
    o = s1.objects[0]
    a = s1.quiver.generators[0].name
    ai = s1.inverses[a]
    sq = Functor(s1, s1, {o: o}, {a: Path(o, (a, a)), ai: Path(o, (ai, ai))})
    out = attach_cells(s1, [(1, sq)])
    fin = to_finite(out, bound=16)
    assert len(out.objects) == 1
    assert fin.n == 2
    assert find_isomorphism(fin, to_finite(c2_cat()))


def test_one_complex_single_loop():
    z = build_one_complex([(["a"], [])])
    assert len(z.objects) == 1
    assert loop_forms(z, 10) == 21
    assert cw_classify(z).kind == "Dim1"


def test_one_complex_extra_object_is_contractible():
    out = build_one_complex([([], ["t"])])
    assert len(out.objects) == 2
    assert to_finite(out).n == 4
    assert is_contractible(out)
    # equivalent to a discrete point, so the least dimension is zero
    assert cw_classify(out).kind == "Dim0"


def test_one_complex_two_bare_components():
    out = build_one_complex([([], []), ([], [])])
    assert find_isomorphism(to_finite(out), to_finite(sphere(0)))
    assert cw_classify(out).kind == "Dim0"


def test_one_complex_loop_with_tail_is_dim_one():
    out = build_one_complex([(["a"], ["t"])])
    v = cw_classify(out)
    assert v.kind == "Dim1"
    assert sum(len(free) for free in v.witness.values()) == 1


def test_two_complex_squared_generator():
    gp = GroupoidPresentation((GroupoidComponent((), ("a",), (("a", "a"),)),))
    fin = to_finite(build_two_complex(gp), bound=16)
    assert fin.n == 2
    assert find_isomorphism(fin, to_finite(c2_cat()))


def test_two_complex_without_cells_is_one_complex():
    gp = GroupoidPresentation((GroupoidComponent(("t",), (), ()),))
    out = build_two_complex(gp)
    assert len(out.objects) == 2
    assert to_finite(out).n == 4
    assert is_contractible(out)


def test_two_complex_commutator_gives_commuting_forms():
    gp = GroupoidPresentation(
        (GroupoidComponent((), ("a", "b"), (("a", "b", "a^-1", "b^-1"),)),)
    )
    out = build_two_complex(gp)
    assert len(out.objects) == 1
    # pairs (i, j) with |i| + |j| <= 3: 1 + 4 + 8 + 12
    assert loop_forms(out, 3) == 25
    v = cw_classify(out, bound=8)
    assert v.kind == "Dim2"
    assert v.note == "freeness not witnessed syntactically"


def test_two_complex_rejects_unknown_relation_token():
    gp = GroupoidPresentation((GroupoidComponent((), ("a",), (("q",),)),))
    with pytest.raises(CatError):
        build_two_complex(gp)


def test_random_two_complexes_are_groupoids():
    rng = random.Random(20260814)
    for _ in range(10):
        comps = []
        for _ in range(rng.randint(1, 2)):
            k = rng.randint(0, 2)
            gens = tuple(f"g{i}" for i in range(k))
            extra = tuple(f"t{i}" for i in range(rng.randint(0, 1)))
            rels = []
            for _ in range(rng.randint(0, 2)):
                if not gens:
                    break
                rels.append(
                    tuple(
                        rng.choice([g, g + "^-1"])
                        for g in (rng.choice(gens) for _ in range(rng.randint(1, 3)))
                    )
                )
            comps.append(GroupoidComponent(extra, gens, tuple(rels)))
        X = build_two_complex(GroupoidPresentation(tuple(comps)))
        assert is_groupoid_fp(X, budget=2000) is True


def test_presentation_json_round_trip():
    gp = GroupoidPresentation(
        (
            GroupoidComponent(("t",), ("a", "b"), (("a", "b^-1", "a"),)),
            GroupoidComponent((), (), ()),
        )
    )
    assert GroupoidPresentation.from_json(gp.to_json()) == gp


def test_read_off_rejects_non_groupoid():
    with pytest.raises(CatError):
        read_off_presentation(to_finite(arrow_cat()))


def test_groupoid_reconstruction_round_trip():
    for G in groupoid_pool6():
        gp = read_off_presentation(G)
        fin = to_finite(build_two_complex(gp), bound=64, budget=2000)
        assert find_equivalence(fin, G)


def test_classifier_arrow_is_not_cw():
    v = cw_classify(arrow_cat())
    assert v.kind == "NotCW"
    assert v.witness[1] == "f"


def test_classifier_free_groupoid_on_two_generators():
    free2 = build(["*"], [("a", "*", "*"), ("b", "*", "*")], invertible=["a", "b"])
    v = cw_classify(free2)
    assert v.kind == "Dim1"
    assert v.witness == {"*": ("a", "b")}


def test_classifier_infinite_cyclic():
    z = build(["*"], [("a", "*", "*")], invertible=["a"])
    assert cw_classify(z).kind == "Dim1"


def test_classifier_order_two_is_dim_two():
    v = cw_classify(c2_cat())
    assert v.kind == "Dim2"
    assert v.kind != "Dim1"


def test_classifier_discrete_is_dim_zero():
    assert cw_classify(build(["x", "y"])).kind == "Dim0"


def test_classifier_undecided_raises():
    braid = build(
        ["x"],
        [("a", "x", "x"), ("b", "x", "x")],
        [(Path("x", ("a", "b", "a")), Path("x", ("b", "a", "b")))],
    )
    with pytest.raises(NotDecided):
        cw_classify(braid, bound=8, budget=3)


def test_inverse_search_stops_at_its_candidate_cap(monkeypatch):
    """An infinite one-object draw (8 generators, one marked invertible)
    whose first generator has no inverse among 10,000 candidates."""
    rng = random.Random(7)
    for _ in range(11):
        X = random_pointed(rng)
    assert (len(X.cat.objects), len(X.cat.generators)) == (1, 8)
    drawn = []
    hom_words = model_structure._hom_words

    def counting_hom_words(*args):
        for w in hom_words(*args):
            drawn.append(w)
            yield w

    monkeypatch.setattr(model_structure, "_hom_words", counting_hom_words)
    t0 = time.monotonic()
    with pytest.raises(NotDecided, match="at most 10000 candidates per generator"):
        cw_classify(X.cat)
    assert time.monotonic() - t0 < 2.0  # 5.9 s without the cap
    assert len(drawn) == model_structure.INVERSE_CANDIDATES


def test_classifier_runs_to_finite_once(monkeypatch):
    """After the finite backend fails, the inverse-word search decides directly."""
    calls = []
    finite = fpcat._finite

    def counting_finite(*args):
        calls.append(args)
        return finite(*args)

    monkeypatch.setattr(model_structure, "_finite", counting_finite)
    monkeypatch.setattr(cw, "_finite", counting_finite)
    ab = build(
        ["*"],
        [("a", "*", "*"), ("b", "*", "*")],
        [(Path("*", ("a", "b")), Path("*")), (Path("*", ("b", "a")), Path("*"))],
    )
    # a and b are mutually inverse, so the search finds both inverses
    assert cw_classify(ab).kind != "NotCW"
    assert len(calls) == 1


def test_not_cw_iff_not_groupoid_on_finite_pool():
    for cat in pool8():
        fin = to_finite(cat)
        assert (cw_classify(fin).kind == "NotCW") == (not is_groupoid(fin))


# ---------------------------------------------------------------------------
# The one-pass builders against the colimit construction they write out.
# The oracles are the builders as first written: one-complexes as pushouts of
# sphere(0) coproducts into chaotic cylinders, cells glued by attach_cells.


def _one_complex_component_oracle(S, T):
    S = list(S)
    T = list(T)
    n = len(S) + len(T)
    base = build(["*"] + T)
    if n == 0:
        return base, "*", {}, {t: t for t in T}
    co_s0 = coproduct([sphere(0)] * n)
    co_cyl = coproduct([chaotic(["0.pt", "1.pt"])] * n)
    incl = Functor(co_s0.apex, co_cyl.apex, {x: x for x in co_s0.apex.objects}, {})
    obj_map = {}
    for i in range(n):
        obj_map[f"{i}.0.pt"] = "*"
        obj_map[f"{i}.1.pt"] = "*" if i < len(S) else T[i - len(S)]
    p = Functor(co_s0.apex, base, obj_map, {})
    po = pushout(p, incl)
    bp = po.inj_left.apply_obj("*")
    gen_for = {
        s: po.inj_right.gen_map[f"{i}.0.pt>1.pt"].gens[0] for i, s in enumerate(S)
    }
    obj_for = {t: po.inj_left.apply_obj(t) for t in T}
    return po.apex, bp, gen_for, obj_for


def _build_one_complex_oracle(components):
    return coproduct([_one_complex_component_oracle(S, T)[0] for S, T in components]).apex


def _build_two_complex_oracle(gp):
    z = build(["*"], [("z", "*", "*")], invertible=["z"])
    pieces = []
    for comp in gp.components:
        oc, bp, gen_for, _ = _one_complex_component_oracle(comp.generators, comp.extra_objects)
        cells = []
        for word in comp.relations:
            fwd = []
            for token in word:
                name = token.removesuffix("^-1")
                if name not in gen_for:
                    raise CatError(f"relation token {token!r} names no generator")
                g = gen_for[name]
                fwd.append(g if name == token else oc.inverses[g])
            bwd = [oc.inverses[g] for g in reversed(fwd)]
            gen_map = {"z": Path(bp, tuple(fwd)), "z^-1": Path(bp, tuple(bwd))}
            cells.append((2, Functor(z, oc, {"*": bp}, gen_map)))
        pieces.append(attach_cells(oc, cells))
    return coproduct(pieces).apex


def _outcome(builder, arg):
    """The presentation in every detail, or the error's type and text."""
    try:
        X = builder(arg)
    except CatError as exc:
        return type(exc), str(exc)
    return X.to_json(), list(X.inverses.items()), X


def assert_same_as_oracle(builder, oracle, arg):
    got, want = _outcome(builder, arg), _outcome(oracle, arg)
    assert got[:2] == want[:2]
    if len(got) == 3:
        assert got[2] == want[2]


GEN_NAMES = ["a", "b", "c", "d", "b^-1", "*"]
OBJ_NAMES = ["t", "u", "v", "L.*", "a"]


@st.composite
def groupoid_components(draw):
    """Mostly well formed; one draw in ten repeats or adds an object named
    ``*``, or may use a token that names no generator."""
    gens = draw(st.lists(st.sampled_from(GEN_NAMES), max_size=4, unique=True))
    extra = draw(st.lists(st.sampled_from(OBJ_NAMES), max_size=3, unique=True))
    if draw(st.integers(1, 10)) == 7:
        extra.insert(draw(st.integers(0, len(extra))), draw(st.sampled_from(["*", *extra])))
    known = [g + suffix for g in gens for suffix in ("", "^-1")]
    unknown = st.sampled_from(["q", "q^-1", "a^-1^-1", ""])
    if draw(st.integers(1, 10)) == 7:
        word = st.lists(st.one_of(st.sampled_from(known), unknown) if known else unknown)
    else:
        word = st.lists(st.sampled_from(known)) if known else st.just([])
    words = draw(st.lists(word.map(lambda w: w[:5]), max_size=3))
    if words and draw(st.booleans()):
        words.append(words[draw(st.integers(0, len(words) - 1))])
    return GroupoidComponent(tuple(extra), tuple(gens), tuple(map(tuple, words)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(comps=st.lists(groupoid_components(), max_size=3))
def test_two_complex_matches_cell_attachment(comps):
    assert_same_as_oracle(build_two_complex, _build_two_complex_oracle, GroupoidPresentation(comps))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    components=st.lists(
        st.tuples(
            st.lists(st.sampled_from(GEN_NAMES), max_size=4),
            st.lists(st.sampled_from(OBJ_NAMES), max_size=3, unique=True)
            | st.lists(st.sampled_from(OBJ_NAMES), max_size=3),
        ),
        max_size=3,
    )
)
def test_one_complex_matches_the_pushout_construction(components):
    assert_same_as_oracle(build_one_complex, _build_one_complex_oracle, components)


def _z4_read_off():
    z4 = build(["*"], [("a", "*", "*")], [(Path("*", ("a",) * 4), Path("*"))])
    return read_off_presentation(to_finite(z4))


def test_builders_match_the_oracle_on_edge_cases():
    two = [
        GroupoidPresentation(()),
        GroupoidPresentation((GroupoidComponent((), (), ()),)),
        GroupoidPresentation((GroupoidComponent((), (), ((),)),)),
        GroupoidPresentation((GroupoidComponent(("t",), (), ((), ())),)),
        GroupoidPresentation((GroupoidComponent(("t", "u"), ("a",), (("a^-1",), ("a", "a"))),)),
        GroupoidPresentation((GroupoidComponent((), (), (("a",),)),)),
        _z4_read_off(),
        *(read_off_presentation(G) for G in groupoid_pool6()),
    ]
    for gp in two:
        assert_same_as_oracle(build_two_complex, _build_two_complex_oracle, gp)
    for comps in ([], [([], [])], [(["a", "a"], ["t"])], [([], ["t", "t"])], [([], ["*"])]):
        assert_same_as_oracle(build_one_complex, _build_one_complex_oracle, comps)


def test_two_complex_names_the_first_malformed_part():
    """Objects, then generator names, then tokens, component by component;
    the messages name the declared names, not the prefixed ones.  Repeated
    generators were accepted once: relations bound to the last copy and the
    first became an extra free loop."""
    cases = [
        ([GroupoidComponent(("*",), ("a",), (("q",),))], "object '*' declared twice"),
        ([GroupoidComponent(("t", "t"), (), ())], "object 't' declared twice"),
        (
            [GroupoidComponent((), ("a",), (("q",),)), GroupoidComponent(("*",), (), ())],
            "relation token 'q' names no generator",
        ),
        ([GroupoidComponent((), ("a", "a"), (("a", "a"),))], "generator 'a' declared twice"),
        ([GroupoidComponent((), ("a", "a"), (("q",),))], "generator 'a' declared twice"),
        ([GroupoidComponent(("u", "u"), ("a", "a"), ())], "object 'u' declared twice"),
    ]
    for comps, message in cases:
        with pytest.raises(CatError) as exc:
            build_two_complex(GroupoidPresentation(comps))
        assert str(exc.value) == message
        assert isinstance(exc.value, DuplicateName) == message.endswith("declared twice")


def test_builders_build_one_presentation(monkeypatch):
    """The colimit construction builds 28 presentations for the Z/4 read-off
    and 6 for the one-complex below (once sphere(0) is cached); the builders
    build their result only, and a second call builds nothing and gets the
    same presentation."""
    gp = _z4_read_off()
    assert len(gp.components[0].generators) == 3
    assert len(gp.components[0].relations) == 9
    fpcat.clear_completion_cache()
    built = []
    init = fpcat.FpCategory.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(fpcat.FpCategory, "__init__", counting_init)
    X = build_two_complex(gp)
    assert len(built) == 1 and built[0] is X
    built.clear()
    Y = build_one_complex([(["a", "b"], ["t"])])
    assert len(built) == 1 and built[0] is Y
    built.clear()
    assert build_two_complex(gp) is X and build_one_complex([(["a", "b"], ["t"])]) is Y
    assert built == []

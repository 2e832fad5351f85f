"""Spheres, cell attachment, complex builders, and the CW dimension ladder."""

import random
import time

import pytest

from conftest import arrow_cat, c2_cat, groupoid_pool6, pool8, random_pointed

from catcw import cw, model_structure
from catcw import (
    CatError,
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
    cw_classify,
    find_equivalence,
    find_isomorphism,
    irreducible_words,
    is_contractible,
    is_groupoid,
    is_groupoid_fp,
    point_collapse,
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
    """After to_finite fails, the inverse-word search decides directly."""
    calls = []

    def counting_to_finite(*args, **kwargs):
        calls.append(args)
        return to_finite(*args, **kwargs)

    monkeypatch.setattr(model_structure, "to_finite", counting_to_finite)
    monkeypatch.setattr(cw, "to_finite", counting_to_finite)
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

"""Acceptance suite: one test per advertised guarantee.

Each test is self-contained and prints as a single pass/fail line under
``pytest -v``.  Stated runtime ceilings are asserted with a monotonic
clock so a regression that blows the budget fails loudly.
"""

import itertools
import random
import time

import pytest

from conftest import (
    arrow_cat,
    assert_universal_property,
    c2_cat,
    c3_cat,
    finite_form,
    groupoid_pool6,
    interval_cat,
    path2_cat,
    pool8,
    random_cof_span,
    random_pointed,
    span_pool,
    terminal_cat,
)

from catcw import (
    FiniteSpace,
    Functor,
    GroupoidComponent,
    GroupoidPresentation,
    IsoCertificate,
    K0Witness,
    Path,
    PointedCategory,
    UnitFailure,
    build,
    build_two_complex,
    chaotic,
    classify_cw_sheaf,
    clear_completion_cache,
    constantify,
    cone,
    cone_map,
    cone_unit,
    coproduct,
    cw_classify,
    find_equivalence,
    find_isomorphism,
    identity_functor,
    irreducible_words,
    is_cofibration,
    is_contractible,
    is_equivalence,
    is_groupoid_fp,
    k0_vanishing_witness,
    pushout,
    read_off_presentation,
    sheafify_constant,
    sphere,
    suspend,
    to_finite,
    unit_check,
)
from catcw.sheaftopos import (
    check_gluing,
    discrete_two_point,
    exotic_map_demo,
    pseudocircle_base,
    sierpinski,
)


@pytest.fixture(autouse=True)
def cold_completions():
    """Start each test with an empty completion cache, tables included.

    The runtime ceilings below then time cold completions and cold
    ``to_finite`` tables, not ones that earlier tests left in the cache.
    """
    clear_completion_cache()


def test_criterion_1_sphere_suite():
    t0 = time.monotonic()
    s0 = sphere(0)
    assert len(s0.objects) == 2
    assert to_finite(s0, 8).n == 2
    assert time.monotonic() - t0 < 1.0

    t0 = time.monotonic()
    s1 = sphere(1)
    o = s1.objects[0]
    for k in range(11):
        forms = irreducible_words(s1, k, budget=2000)[(o, o)]
        assert len(forms) == 2 * k + 1
    assert time.monotonic() - t0 < 1.0

    for n in (2, 3, 4):
        t0 = time.monotonic()
        assert is_contractible(sphere(n))
        assert time.monotonic() - t0 < 1.0


def test_criterion_2_pushout_universal_property():
    t0 = time.monotonic()
    targets = [to_finite(c) for c in pool8()]
    checked = 0
    for f, g in span_pool():
        po = pushout(f, g)
        for T in targets:
            checked += assert_universal_property(po, f, g, T)
    assert checked > 0
    assert time.monotonic() - t0 < 60.0


def test_criterion_3_cw_classifier():
    assert cw_classify(arrow_cat()).kind == "NotCW"

    free2 = build(["*"], [("a", "*", "*"), ("b", "*", "*")], invertible=["a", "b"])
    assert cw_classify(free2).kind == "Dim1"

    verdict = cw_classify(c2_cat())
    assert verdict.kind == "Dim2"
    assert verdict.kind != "Dim1"

    rng = random.Random(31415)
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
                        for g in (
                            rng.choice(gens) for _ in range(rng.randint(1, 3))
                        )
                    )
                )
            comps.append(GroupoidComponent(extra, gens, tuple(rels)))
        X = build_two_complex(GroupoidPresentation(tuple(comps)))
        assert is_groupoid_fp(X, budget=2000) is True


def test_criterion_4_groupoid_reconstruction():
    for G in groupoid_pool6():
        gp = read_off_presentation(G)
        rebuilt = to_finite(build_two_complex(gp), bound=64, budget=2000)
        assert find_equivalence(rebuilt, G)


def test_criterion_5_cone_suspension_suite():
    t0 = time.monotonic()
    rng = random.Random(50505)
    for _ in range(20):
        X = random_pointed(rng)
        assert is_contractible(cone(X).cat)
        assert is_cofibration(cone_unit(X))
        assert len(suspend(X).cat.objects) == 1
        w = k0_vanishing_witness(X)
        assert len(w.sx.cat.objects) == 1
        assert (
            len(w.s2x.cat.objects),
            len(w.s2x.cat.generators),
            w.s2x_morphisms,
        ) == (1, 0, 1)
        assert w.replay()
    assert time.monotonic() - t0 < 30.0


def test_criterion_6_cone_preserves_pushouts():
    rng = random.Random(60606)
    for _ in range(20):
        f, g = random_cof_span(rng)
        po = pushout(f, g)
        cone_of_apex = chaotic(po.apex.objects)
        src_cone = chaotic(f.source.objects)
        pf = cone_map(f, src_cone, chaotic(f.target.objects))
        pg = cone_map(g, src_cone, chaotic(g.target.objects))
        apex_of_cones = pushout(pf, pg).apex
        assert find_isomorphism(
            to_finite(cone_of_apex), to_finite(apex_of_cones, bound=16)
        )


def test_criterion_7_k0_witnesses_replay():
    z = build(["*"], [("a", "*", "*")], invertible=["a"])
    pool = [
        PointedCategory(sphere(0), "0.pt"),
        PointedCategory(arrow_cat(), "a"),
        PointedCategory(c2_cat(), "x"),
        PointedCategory(z, "*"),
    ]
    for X in pool:
        witness = k0_vanishing_witness(X)
        assert witness.replay()
        stored = witness.to_json()
        reread = K0Witness.from_json(stored)
        assert reread.replay()
        assert reread.to_json() == stored


def test_criterion_8_sheaf_suite():
    t0 = time.monotonic()
    sier = sierpinski()
    pseudo = pseudocircle_base()
    disc = discrete_two_point()

    finite_pool = [to_finite(c) for c in pool8()]
    for A in finite_pool:
        for space in (sier, pseudo):
            cert = unit_check(A, space)
            assert isinstance(cert, IsoCertificate)
            assert cert.verify()

    failure = unit_check(to_finite(sphere(0), 8), disc)
    assert isinstance(failure, UnitFailure)
    assert failure.reason == "object_count"
    assert failure.witness == (2, 4)

    _, verdict = exotic_map_demo("exotic")
    assert verdict is False
    assert exotic_map_demo("identity")[1] is True
    assert exotic_map_demo("constant")[1] is True

    table = [
        (to_finite(c2_cat()), True),
        (to_finite(c3_cat()), True),
        (to_finite(sphere(0), 8), True),
        (to_finite(terminal_cat()), True),
        (to_finite(arrow_cat()), False),
        (to_finite(path2_cat()), False),
    ]
    for A, expect_cw in table:
        verdict = classify_cw_sheaf(sheafify_constant(A, sier))
        assert (verdict.kind == "CW") is expect_cw

    assert time.monotonic() - t0 < 10.0


def test_criterion_9_left_properness():
    A = chaotic(["p", "q"])
    one = terminal_cat()
    ch3 = chaotic(["p", "q", "r"])
    ch4 = chaotic(["p", "q", "r", "s"])
    iv = interval_cat()
    pq = Path("p", ("p>q",))
    qp = Path("q", ("q>p",))
    incl = {"p>q": pq, "q>p": qp}

    equivalences = [
        identity_functor(A),
        Functor(A, A, {"p": "q", "q": "p"}, {"p>q": qp, "q>p": pq}),
        Functor(A, A, {"p": "p", "q": "p"}, {"p>q": Path("p"), "q>p": Path("p")}),
        Functor(A, one, {"p": "pt", "q": "pt"},
                {"p>q": Path("pt"), "q>p": Path("pt")}),
        Functor(A, ch3, {"p": "p", "q": "q"}, incl),
        Functor(A, ch3, {"p": "q", "q": "r"},
                {"p>q": Path("q", ("q>r",)), "q>p": Path("r", ("r>q",))}),
        Functor(A, ch4, {"p": "p", "q": "s"},
                {"p>q": Path("p", ("p>s",)), "q>p": Path("s", ("s>p",))}),
        Functor(A, iv, {"p": "a", "q": "b"},
                {"p>q": Path("a", ("f",)), "q>p": Path("b", ("f^-1",))}),
        Functor(A, iv, {"p": "b", "q": "a"},
                {"p>q": Path("b", ("f^-1",)), "q>p": Path("a", ("f",))}),
        Functor(A, iv, {"p": "a", "q": "a"}, {"p>q": Path("a"), "q>p": Path("a")}),
    ]

    tail = build(
        ["p", "q", "z"],
        [("p>q", "p", "q"), ("q>p", "q", "p"), ("t", "q", "z")],
        [
            (Path("p", ("p>q", "q>p")), Path("p")),
            (Path("q", ("q>p", "p>q")), Path("q")),
        ],
        ["p>q"],
    )
    cofibrations = [
        coproduct([A, one]).injections[0],
        Functor(A, tail, {"p": "p", "q": "q"}, incl),
        Functor(A, ch3, {"p": "p", "q": "q"}, incl),
        coproduct([A, c2_cat()]).injections[0],
        coproduct([A, interval_cat()]).injections[0],
    ]
    for f in cofibrations:
        assert is_cofibration(f)

    for g in equivalences:
        for f in cofibrations:
            po = pushout(f, g)
            assert is_equivalence(finite_form(po.inj_left, bound=64, budget=2000))


def _discrete_space(n):
    pts = [f"p{i}" for i in range(n)]
    return FiniteSpace(pts, [c for r in range(n + 1) for c in itertools.combinations(pts, r)])


def _chain_space(n):
    pts = [f"p{i}" for i in range(n)]
    return FiniteSpace(pts, [pts[:k] for k in range(n + 1)])


def test_criterion_10_sheaf_gluing_scales_past_powerset_covers():
    z2 = to_finite(c2_cat())
    r, f = ("r",), ("f",)
    d12 = to_finite(build(
        ["x"],
        [("r", "x", "x"), ("f", "x", "x")],
        [(Path("x", r * 12), Path("x")), (Path("x", f * 2), Path("x")),
         (Path("x", r + f), Path("x", f + r * 11))],
        ["r", "f"],
    ))
    assert d12.n == 24
    for A, space in ((z2, _discrete_space(4)), (z2, _discrete_space(5)), (d12, _chain_space(6))):
        t0 = time.monotonic()
        F = sheafify_constant(A, space)
        assert time.monotonic() - t0 < 1.0
        assert F.gluing_ok
    ok, witness = check_gluing(constantify(z2, _discrete_space(4)))
    assert not ok
    assert witness == ("morphisms", ["p0", "p1"], [["p0"], ["p1"]])

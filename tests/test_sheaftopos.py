"""Finite spaces, constant sheaves of categories, the unit isomorphism,
the exotic attaching map, and CW recognition for sheaves."""

import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import arrow_cat, c2_cat, c3_cat, discrete2, groupoid_pool6, pool8, terminal_cat

from catcw import (
    CatError,
    CatPresheaf,
    FiniteFunctor,
    FiniteSpace,
    IsoCertificate,
    NotAnOpen,
    NotConnected,
    SheafMap,
    UnitFailure,
    build,
    chaotic,
    check_functor,
    classify_cw_sheaf,
    connected_components,
    constantify,
    exotic_map_demo,
    find_equivalence,
    find_isomorphism,
    global_sections,
    identity_functor,
    is_connected,
    is_equivalence,
    is_groupoid,
    is_in_constant_image,
    sheafify_constant,
    sheafify_functor,
    space_from_json,
    sphere,
    to_finite,
    unit_check,
)
from catcw.model_structure import all_functors
from catcw import sheaftopos
from catcw.sheaftopos import (
    _product_functor,
    check_gluing,
    discrete_two_point,
    product_category,
    pseudocircle_base,
    sierpinski,
)


def discrete2_fin():
    return to_finite(build(["x", "y"]))


def test_space_rejects_duplicate_points():
    with pytest.raises(CatError):
        FiniteSpace(["u", "u"], [[], ["u"]])


def test_space_requires_empty_and_full():
    with pytest.raises(CatError):
        FiniteSpace(["u", "v"], [["u"], ["u", "v"]])


def test_space_requires_union_and_intersection_closure():
    with pytest.raises(CatError):
        FiniteSpace(["a", "b", "c"], [[], ["a"], ["b"], ["a", "b", "c"]])


def test_space_rejects_unknown_points_in_an_open():
    with pytest.raises(NotAnOpen):
        FiniteSpace(["u"], [[], ["u"], ["w"]])


def test_space_json_round_trip():
    s = pseudocircle_base()
    back = space_from_json(s.to_json())
    assert back.points == s.points
    assert back.opens == s.opens


@pytest.mark.parametrize(
    "field, value",
    [("points", "uv"), ("opens", "uv"), ("opens", [[], "u", ["u", "v"]])],
)
def test_space_from_json_rejects_a_string_for_a_list(field, value):
    obj = sierpinski().to_json_obj()
    obj[field] = value
    with pytest.raises(TypeError, match=f"'{field}': expected a list, got str"):
        space_from_json(obj)


@pytest.mark.parametrize(
    "field, value", [("points", ["u", 3]), ("opens", [[], ["u"], ["u", 4]])]
)
def test_space_from_json_rejects_a_non_string_name(field, value):
    obj = sierpinski().to_json_obj()
    obj[field] = value
    with pytest.raises(TypeError, match=f"'{field}': expected a string, got int"):
        space_from_json(obj)


def test_min_open_on_sierpinski():
    s = sierpinski()
    assert s.min_open("u") == frozenset(["u"])
    assert s.min_open("v") == frozenset(["u", "v"])


def test_connectivity_of_the_three_base_spaces():
    assert is_connected(sierpinski())
    assert is_connected(pseudocircle_base())
    assert not is_connected(discrete_two_point())
    assert is_connected(FiniteSpace(["p"], [[], ["p"]]))


def test_components_of_opens():
    disc = discrete_two_point()
    assert connected_components(disc, disc.full) == (("u",), ("v",))
    pseudo = pseudocircle_base()
    assert connected_components(pseudo, ["a", "b"]) == (("a",), ("b",))
    assert connected_components(pseudo, pseudo.full) == (("a", "b", "c"),)


def test_components_reject_non_opens():
    with pytest.raises(NotAnOpen):
        connected_components(sierpinski(), ["v"])


def test_product_category_squares_the_base():
    d2 = discrete2_fin()
    sq, meta = product_category(d2, (("u",), ("v",)))
    assert sq.objects == ("(x,x)", "(x,y)", "(y,x)", "(y,y)")
    assert sq.n == 4
    assert meta.obj_name[("x", "y")] == "(x,y)"


def test_products_validate_over_their_axis_morphisms():
    z3 = to_finite(c3_cat())
    cube, meta = product_category(z3, (("a",), ("b",), ("c",)))
    gens = cube._generating_set()
    assert len(gens) == 6
    assert all(sum(not z3.is_identity(m) for m in meta.mor_tuple[i]) == 1 for i in gens)


def _product_compose_oracle(base, k):
    """The composition table of A^k as first written: every pair of morphism
    tuples is tried, composable or not, in id order."""
    tuples = list(itertools.product(range(base.n), repeat=k))
    index = {t: i for i, t in enumerate(tuples)}
    table = {}
    for i, ft in enumerate(tuples):
        for j, gt in enumerate(tuples):
            if all(base.mor_dst[f] == base.mor_src[g] for f, g in zip(ft, gt)):
                table[(i, j)] = index[tuple(base.compose_table[(f, g)] for f, g in zip(ft, gt))]
    return list(table.items())


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_product_composes_exactly_the_pairs_of_the_all_pairs_oracle(k):
    bases = [to_finite(cat) for cat in pool8()] + list(groupoid_pool6())
    for base in bases:
        if base.n ** k > 400:
            continue
        prod, _ = product_category(base, tuple((f"p{i}",) for i in range(k)))
        # insertion order too: the table's order is the order of its JSON
        assert list(prod.compose_table.items()) == _product_compose_oracle(base, k)


def test_empty_product_is_terminal():
    one, _ = product_category(discrete2_fin(), ())
    assert one.objects == ("()",)
    assert one.n == 1


def test_constantify_is_a_presheaf_but_not_a_sheaf_when_disconnected():
    pre = constantify(discrete2_fin(), discrete_two_point())
    assert pre.validate()
    ok, witness = check_gluing(pre)
    assert not ok
    # the cover {u}, {v} of the whole space admits 4 compatible families
    assert witness[0] == "objects"
    assert witness[1] == ["u", "v"]


def test_constantify_of_terminal_always_glues():
    pre = constantify(to_finite(terminal_cat()), discrete_two_point())
    ok, _ = check_gluing(pre)
    assert ok


def test_sheafification_glues_everywhere():
    spaces = (sierpinski(), discrete_two_point(), pseudocircle_base())
    for space in spaces:
        for cat in pool8():
            F = sheafify_constant(to_finite(cat), space)
            assert F.validate()
            assert F.gluing_ok, (space, cat.objects)


def test_global_sections_count_components():
    F = sheafify_constant(discrete2_fin(), discrete_two_point())
    assert len(global_sections(F).objects) == 4
    G = sheafify_constant(to_finite(c2_cat()), sierpinski())
    assert find_isomorphism(global_sections(G), to_finite(c2_cat()))
    T = sheafify_constant(to_finite(terminal_cat()), discrete_two_point())
    assert global_sections(T).n == 1


def test_unit_is_isomorphism_on_connected_spaces():
    for space in (sierpinski(), pseudocircle_base()):
        for cat in pool8():
            cert = unit_check(to_finite(cat), space)
            assert isinstance(cert, IsoCertificate), (space, cat.objects)
            assert cert.verify()


def test_unit_fails_on_the_discrete_space():
    r = unit_check(discrete2_fin(), discrete_two_point())
    assert isinstance(r, UnitFailure)
    assert not r
    assert r.reason == "object_count"
    assert r.witness == (2, 4)


def sheafified_unit_check(A, space):
    """Oracle: the unit check that sheafifies cA at every open and then reads
    Γ(#(cA)) off the sheaf."""
    F = sheafify_constant(A, space)
    G = global_sections(F)
    meta = F.meta[space.full]
    k = len(meta.comps)
    obj_map = {x: meta.obj_name[(x,) * k] for x in A.objects}
    eta = FiniteFunctor(A, G, obj_map, [meta.mor_ix[(i,) * k] for i in range(A.n)])
    if not check_functor(eta):
        return UnitFailure("not_functorial")
    if len(A.objects) != len(G.objects):
        return UnitFailure("object_count", (len(A.objects), len(G.objects)))
    if A.n != G.n:
        return UnitFailure("morphism_count", (A.n, G.n))
    if sorted(eta.object_map.values()) != sorted(G.objects) or sorted(eta.mor) != list(range(G.n)):
        return UnitFailure("not_bijective")
    inv_mor = [0] * G.n
    for i, j in enumerate(eta.mor):
        inv_mor[j] = i
    inverse = FiniteFunctor(G, A, {v: x for x, v in obj_map.items()}, inv_mor)
    cert = IsoCertificate(eta, inverse)
    return cert if cert.verify() else UnitFailure("inverse_check")


def test_unit_degenerate_point_survives_disconnection():
    assert isinstance(
        unit_check(to_finite(terminal_cat()), discrete_two_point()), IsoCertificate
    )


def test_exotic_map_is_not_in_the_constant_image():
    xi, verdict = exotic_map_demo()
    assert xi.validate()
    assert verdict is False


def test_exotic_positive_controls():
    for variant in ("identity", "constant"):
        xi, verdict = exotic_map_demo(variant)
        assert xi.validate()
        assert verdict is True


def test_exotic_rejects_unknown_variant():
    with pytest.raises(CatError):
        exotic_map_demo("mystery")


def per_point_map(F, per_point, target=None):
    """Assemble the sheaf map F -> target (default F) acting by per_point[p]
    on each component, p its first point.  It is natural only when the
    functors agree along the specialization order."""
    T = F if target is None else target
    comps = {}
    for u in F.space.opens:
        ms, mt = F.meta[u], T.meta[u]
        coords = [(j, per_point[c[0]]) for j, c in enumerate(ms.comps)]
        comps[u] = _product_functor(F.values[u], ms, T.values[u], mt, coords)
    return SheafMap(F, T, comps)


def searched_constant_image(m):
    """Oracle: is some functor between the bases, found by trying every one,
    sheafified to m at every open?"""
    FS, FT = m.source, m.target
    return any(
        all(sheafify_functor(g, FS, FT).components[u] == m.components[u] for u in FS.space.opens)
        for g in all_functors(FS.base, FT.base)
    )


def test_constant_image_agrees_with_pointwise_oracle():
    """Over a discrete base, a per-point family is a single sheafified
    functor exactly when both points carry the same endofunctor."""
    d2 = discrete2_fin()
    F = sheafify_constant(d2, discrete_two_point())
    endos = [
        FiniteFunctor(d2, d2, {"x": ox, "y": oy}, [d2.identities[ox], d2.identities[oy]])
        for ox in ("x", "y")
        for oy in ("x", "y")
    ]
    for fu, fv in itertools.product(endos, repeat=2):
        m = per_point_map(F, {"u": fu, "v": fv})
        assert m.validate()
        assert is_in_constant_image(m) == (fu.object_map == fv.object_map)


def test_constant_image_verdicts_are_pinned():
    verdicts = [exotic_map_demo(v)[1] for v in ("exotic", "identity", "constant")]
    # per-point pairs of endofunctors over the discrete two-point space
    for A in (to_finite(c3_cat()), to_finite(chaotic(["p", "q"]))):
        endos = list(all_functors(A, A))
        S = sheafify_constant(A, discrete_two_point())
        for f, g in itertools.product(endos, repeat=2):
            verdicts.append(is_in_constant_image(per_point_map(S, {"u": f, "v": g})))
    # sheafified equivalences over two connected spaces
    pool = groupoid_pool6()[:4]
    for C, D in itertools.product(pool, repeat=2):
        F = find_equivalence(C, D)
        if F is not None:
            for space in (sierpinski(), pseudocircle_base()):
                FS, FT = sheafify_constant(C, space), sheafify_constant(D, space)
                verdicts.append(is_in_constant_image(sheafify_functor(F, FS, FT)))
    F, T = False, True
    assert verdicts == [F, T, T] + [
        T, F, F, F, T, F, F, F, T,
        T, F, F, F, F, T, F, F, F, F, T, F, F, F, F, T,
    ] + [T] * 8


def test_constant_image_over_a_point_recovers_the_functor():
    space = FiniteSpace(["p"], [[], ["p"]])
    d2 = discrete2_fin()
    F = sheafify_constant(d2, space)
    swap = FiniteFunctor(d2, d2, {"x": "y", "y": "x"}, [d2.identities["y"], d2.identities["x"]])
    m = sheafify_functor(swap, F, F)
    assert is_in_constant_image(m)


def test_constant_image_reads_a_stalk_without_searching(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("all_functors called on a space with points")

    monkeypatch.setattr(sheaftopos, "all_functors", no_search)
    for variant in ("exotic", "identity", "constant"):
        assert exotic_map_demo(variant)[1] is (variant != "exotic")
    c3 = to_finite(c3_cat())
    F = sheafify_constant(c3, pseudocircle_base())
    square = FiniteFunctor(c3, c3, {"x": "x"}, [0, 2, 1])
    assert is_in_constant_image(sheafify_functor(square, F, F))


def test_constant_image_rejects_a_family_that_is_not_a_functor():
    """Every map c3 -> c3 that sends the identity to the identity, applied at
    every point: sheafified open by open, but only the functors among them
    are in the constant image."""
    c3 = to_finite(c3_cat())
    maps = [FiniteFunctor(c3, c3, {"x": "x"}, [0, a, b]) for a in range(3) for b in range(3)]
    for space in (sierpinski(), discrete_two_point()):
        F = sheafify_constant(c3, space)
        verdicts = [is_in_constant_image(per_point_map(F, {p: g for p in space.points})) for g in maps]
        assert verdicts == [check_functor(g) for g in maps]
        assert verdicts.count(True) == 3


def test_constant_image_over_the_empty_space_asks_for_any_functor():
    empty_space = FiniteSpace([], [[]])
    none, one = to_finite(build([])), to_finite(terminal_cat())
    for A, B, expected in ((none, one, True), (one, none, False), (one, one, True)):
        FS, FT = sheafify_constant(A, empty_space), sheafify_constant(B, empty_space)
        only = frozenset()
        m = SheafMap(FS, FT, {only: FiniteFunctor(FS.values[only], FT.values[only], {"()": "()"}, [0])})
        assert is_in_constant_image(m) is expected
        assert searched_constant_image(m) is expected


def test_constant_image_rejects_plain_presheaves():
    space = sierpinski()
    pre = constantify(discrete2_fin(), space)
    ident = {
        u: FiniteFunctor(
            pre.values[u],
            pre.values[u],
            {x: x for x in pre.values[u].objects},
            range(pre.values[u].n),
        )
        for u in space.opens
    }
    with pytest.raises(CatError):
        is_in_constant_image(SheafMap(pre, pre, ident))


def test_sheaf_map_naturality_is_enforced():
    d2 = discrete2_fin()
    F = sheafify_constant(d2, sierpinski())
    ident = FiniteFunctor(d2, d2, {"x": "x", "y": "y"}, [d2.identities["x"], d2.identities["y"]])
    swap = FiniteFunctor(d2, d2, {"x": "y", "y": "x"}, [d2.identities["y"], d2.identities["x"]])
    m = sheafify_functor(ident, F, F)
    full = frozenset(["u", "v"])
    broken = dict(m.components)
    broken[full] = sheafify_functor(swap, F, F).components[full]
    with pytest.raises(CatError):
        SheafMap(F, F, broken).validate()


def test_sheafified_equivalence_is_equivalence_at_every_open():
    pseudo = pseudocircle_base()
    ch2 = to_finite(chaotic(["p", "q"]))
    one = to_finite(terminal_cat())
    g = FiniteFunctor(ch2, one, {"p": "pt", "q": "pt"}, [0] * ch2.n)
    FS = sheafify_constant(ch2, pseudo)
    FT = sheafify_constant(one, pseudo)
    m = sheafify_functor(g, FS, FT)
    assert m.validate()
    for u in pseudo.opens:
        assert is_equivalence(m.components[u])


def test_spheres_stay_spheres_at_connected_opens():
    s0 = to_finite(sphere(0))
    for space in (sierpinski(), pseudocircle_base()):
        F = sheafify_constant(s0, space)
        for u in space.opens:
            if not u:
                continue
            if len(connected_components(space, u)) == 1:
                assert find_isomorphism(F.value(u), s0)
    # the two-component open carries the product instead
    pseudo = pseudocircle_base()
    F = sheafify_constant(s0, pseudo)
    assert len(F.value(["a", "b"]).objects) == 4
    s2 = to_finite(sphere(2), bound=4)
    G = sheafify_constant(s2, pseudocircle_base())
    assert all(G.value(u).n == 1 for u in G.space.opens if u)


def hand_built_non_constant_presheaf():
    sier = sierpinski()
    c2f = to_finite(c2_cat())
    onef = to_finite(terminal_cat())
    e, u, full = frozenset(), frozenset(["u"]), sier.full
    ident_c2 = FiniteFunctor(c2f, c2f, {"x": "x"}, [0, 1])
    one_id = FiniteFunctor(onef, onef, {"pt": "pt"}, [0])
    values = {full: onef, u: c2f, e: onef}
    restrictions = {
        (full, full): one_id,
        (u, u): ident_c2,
        (e, e): one_id,
        (full, u): FiniteFunctor(onef, c2f, {"pt": "x"}, [0]),
        (full, e): one_id,
        (u, e): FiniteFunctor(c2f, onef, {"x": "pt"}, [0, 0]),
    }
    return CatPresheaf(sier, values, restrictions)


def test_classify_six_cases():
    sier = sierpinski()
    cw_bases = [c2_cat(), c3_cat(), sphere(0), terminal_cat()]
    for cat in cw_bases:
        v = classify_cw_sheaf(sheafify_constant(to_finite(cat), sier))
        assert v.kind == "CW" and bool(v)
    v = classify_cw_sheaf(sheafify_constant(to_finite(arrow_cat()), sier))
    assert v.kind == "NotCW"
    assert v.witness[0] == "not_groupoid"
    hand = hand_built_non_constant_presheaf()
    assert hand.validate()
    v = classify_cw_sheaf(hand)
    assert v.kind == "NotCW"
    assert v.witness == ("open", ["u"])


def test_classify_requires_connected_base():
    F = sheafify_constant(discrete2_fin(), discrete_two_point())
    with pytest.raises(NotConnected):
        classify_cw_sheaf(F)


def two_under_one():
    """Two open points p0, p1 below m; the opens are those of the pseudocircle."""
    return FiniteSpace(["p0", "p1", "m"], [[], ["p0"], ["p1"], ["p0", "p1"], ["p0", "p1", "m"]])


def test_classify_rejects_a_sheaf_whose_restriction_is_not_invertible():
    """Each F(U) is isomorphic to the constant sheaf's, and F glues, but the
    restriction to {p1} forgets Z/2, which no constant sheaf does."""
    space = two_under_one()
    A = to_finite(c2_cat())
    F = sheafify_constant(A, space)
    ident = identity_functor(A)
    trivial = FiniteFunctor(A, A, {"x": "x"}, [0, 0])
    full = space.full
    for v, coords in (("p1",), [(0, trivial)]), (("p0", "p1"), [(0, ident), (0, trivial)]):
        v = frozenset(v)
        F.restrictions[(full, v)] = _product_functor(
            F.values[full], F.meta[full], F.values[v], F.meta[v], coords
        )
    assert F.validate()
    assert check_gluing(F) == (True, None)
    v = classify_cw_sheaf(F)
    assert v.kind == "NotCW"
    assert v.witness == ("open", ["p1"])


def test_classify_reports_the_open_where_gluing_fails():
    pre = constantify(to_finite(c2_cat()), pseudocircle_base())
    v = classify_cw_sheaf(pre)
    assert v.kind == "NotCW"
    assert v.witness == ("open", ["a", "b"])


def exhaustive_gluing(F):
    """Oracle: the equalizer check over every cover of every open.

    Returns (ok, kind, failing open) for the first failing open and the
    first failing cover of it in powerset order.
    """
    for u in F.space.opens:
        members = [v for v in F.space.opens if v <= u]
        covers = (
            combo
            for r in range(len(members) + 1)
            for combo in itertools.combinations(members, r)
            if frozenset().union(*combo) == u
        )
        for cover in covers:
            pairs = list(itertools.combinations(range(len(cover)), 2))
            down = [F.restriction(u, v) for v in cover]
            for kind, elems, image in (
                ("objects", lambda c: c.objects, lambda r, a: r.object_map[a]),
                ("morphisms", lambda c: range(c.n), lambda r, m: r.mor[m]),
            ):
                fams = {
                    combo
                    for combo in itertools.product(*(elems(F.values[v]) for v in cover))
                    if all(
                        image(F.restriction(cover[i], cover[i] & cover[j]), combo[i])
                        == image(F.restriction(cover[j], cover[i] & cover[j]), combo[j])
                        for i, j in pairs
                    )
                }
                src = list(elems(F.values[u]))
                images = {tuple(image(r, a) for r in down) for a in src}
                if len(images) != len(src) or images != fams:
                    return False, kind, sorted(u)
    return True, None, None


@st.composite
def finite_topologies(draw, max_opens=6):
    """The down-sets of a random partial order on at most four points, when
    there are at most ``max_opens`` of them (the gluing oracle tries every
    cover, so it keeps the default six)."""
    n = draw(st.integers(min_value=1, max_value=4))
    pts = [f"p{i}" for i in range(n)]
    below = {x: {x} for x in pts}
    for i, j in itertools.combinations(range(n), 2):
        if draw(st.booleans()):
            below[pts[j]].add(pts[i])
    for k in pts:  # transitive closure, Warshall order
        for x in pts:
            if k in below[x]:
                below[x] |= below[k]
    opens = [
        combo
        for r in range(n + 1)
        for combo in itertools.combinations(pts, r)
        if all(below[x] <= set(combo) for x in combo)
    ]
    assume(len(opens) <= max_opens)
    return FiniteSpace(pts, opens)


GLUING_POOL = [to_finite(c) for c in (terminal_cat(), discrete2(), arrow_cat(), c2_cat(), c3_cat())]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(finite_topologies(), st.sampled_from(GLUING_POOL))
def test_minimal_cover_gluing_agrees_with_every_cover(space, A):
    """One minimal-open cover per open gives the oracle's verdict, kind and
    failing open, for sheaves and for constant presheaves that fail."""
    for F in (constantify(A, space), sheafify_constant(A, space)):
        assert F.validate()
        ok, witness = check_gluing(F)
        got = (ok, None, None) if ok else (ok, witness[0], witness[1])
        assert got == exhaustive_gluing(F)
        if not ok:
            cover = [frozenset(v) for v in witness[2]]
            assert frozenset().union(*cover) == frozenset(witness[1])
            assert all(v in {space.min_open(x) for x in witness[1]} for v in cover)


def twisted_constant_sheaf(A, space, T, e):
    """The constant sheaf on A with e applied, in each restriction U -> V, to
    the coordinate of every component of V inside T whose parent component in
    U is not inside T.  Such restrictions compose."""
    S = sheafify_constant(A, space)
    ident = identity_functor(A)
    restrictions = {}
    for u, v in S.restrictions:
        mu, mv = S.meta[u], S.meta[v]
        coords = []
        for c in mv.comps:
            p = next(i for i, d in enumerate(mu.comps) if set(c) <= set(d))
            twist = set(c) <= T and not set(mu.comps[p]) <= T
            coords.append((p, e if twist else ident))
        restrictions[(u, v)] = _product_functor(S.values[u], mu, S.values[v], mv, coords)
    return CatPresheaf(space, S.values, restrictions)


def _bijective_functors(C, D):
    return [
        f
        for f in all_functors(C, D)
        if sorted(f.object_map.values()) == sorted(D.objects) and sorted(f.mor) == list(range(D.n))
    ]


def compose_finite(f, g):
    """g ∘ f for finite functors."""
    return FiniteFunctor(
        f.source, g.target, {x: g.object_map[y] for x, y in f.object_map.items()},
        [g.mor[m] for m in f.mor],
    )


def natural_stalk_isomorphism_exists(F):
    """Oracle: Γ(F) is a groupoid and some isomorphisms φ_x: Γ(F) -> F(U_x)
    satisfy r ∘ φ_x = φ_y for every restriction r: F(U_x) -> F(U_y) between
    minimal opens, found by trying every family."""
    G = global_sections(F)
    if not is_groupoid(G):
        return False
    stalks = sorted({F.space.min_open(x) for x in F.space.points}, key=sorted)
    edges = [(i, j) for i, u in enumerate(stalks) for j, v in enumerate(stalks) if v < u]
    for phi in itertools.product(*(_bijective_functors(G, F.value(u)) for u in stalks)):
        if all(
            compose_finite(phi[i], F.restriction(stalks[i], stalks[j])) == phi[j]
            for i, j in edges
        ):
            return True
    return False


CLASSIFY_POOL = [
    to_finite(c) for c in (terminal_cat(), c2_cat(), c3_cat(), chaotic(["p", "q"]), arrow_cat())
]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(finite_topologies(max_opens=16), st.sampled_from(CLASSIFY_POOL), st.data())
def test_classify_agrees_with_a_natural_isomorphism_oracle(space, A, data):
    """The stalk check gives CW exactly when the twisted sheaf is naturally
    isomorphic, on minimal opens, to the constant sheaf on its sections."""
    assume(is_connected(space))
    T = data.draw(st.sampled_from(space.opens))
    e = data.draw(st.sampled_from(list(all_functors(A, A))))
    F = twisted_constant_sheaf(A, space, T, e)
    assert F.validate()
    assume(check_gluing(F)[0])
    assert bool(classify_cw_sheaf(F)) == natural_stalk_isomorphism_exists(F)


UNIT_POOL = GLUING_POOL + [to_finite(build([])), to_finite(chaotic(["p", "q"]))]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(finite_topologies(max_opens=16), st.sampled_from(UNIT_POOL))
def test_unit_check_agrees_with_the_sheafified_oracle(space, A):
    """Counting |A|^k and building only Γ gives the verdict, reason and
    witness of sheafifying every open, connected space or not."""
    got, want = unit_check(A, space), sheafified_unit_check(A, space)
    assert type(got) is type(want)
    if isinstance(want, UnitFailure):
        assert (got.reason, got.witness) == (want.reason, want.witness)
    else:
        assert got.verify() and want.verify()
        assert (got.functor, got.inverse) == (want.functor, want.inverse)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    finite_topologies(max_opens=16),
    st.sampled_from(GLUING_POOL),
    st.sampled_from(GLUING_POOL),
    st.data(),
)
def test_stalk_read_agrees_with_the_functor_search(space, A, B, data):
    """The candidate read off one stalk gives the search's verdict, for
    sheafified functors and for per-point families, natural or not."""
    functors = list(all_functors(A, B))
    assume(functors)
    FS, FT = sheafify_constant(A, space), sheafify_constant(B, space)
    if data.draw(st.booleans()):
        m = sheafify_functor(data.draw(st.sampled_from(functors)), FS, FT)
    else:
        per_point = {p: data.draw(st.sampled_from(functors)) for p in space.points}
        m = per_point_map(FS, per_point, FT)
    assert is_in_constant_image(m) == searched_constant_image(m)

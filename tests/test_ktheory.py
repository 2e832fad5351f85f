"""Cones, suspensions, cofiber recognition, and K0 vanishing witnesses."""

import dataclasses
import json
import pathlib
import random

import pytest

from conftest import (
    arrow_cat,
    c2_cat,
    finite_form,
    pool8,
    random_cof_span,
    random_pointed,
    terminal_cat,
)

from catcw import ktheory
from catcw import (
    K0_SCOPE_NOTE,
    CatError,
    CofiberCertificate,
    CofiberFailure,
    ContractibilityCertificate,
    FpCategory,
    Functor,
    K0Witness,
    Path,
    PointedCategory,
    build,
    chaotic,
    check_functor,
    clear_completion_cache,
    compose_functors,
    cone,
    cone_map,
    cone_unit,
    coproduct,
    find_isomorphism,
    identity_functor,
    irreducible_words,
    is_cofibration,
    is_cofiber_sequence,
    is_contractible,
    is_equivalence,
    k0_vanishing_witness,
    point_collapse,
    pushout,
    sphere,
    suspend,
    to_finite,
)
from catcw.fpcat import DEFAULT_RULE_BUDGET


def pointed_sphere_zero():
    s0 = sphere(0)
    return PointedCategory(s0, s0.objects[0])


def pointed_loop():
    return PointedCategory(build(["*"], [("a", "*", "*")], invertible=["a"]), "*")


def test_basepoint_must_be_an_object():
    with pytest.raises(CatError):
        PointedCategory(terminal_cat(), "nowhere")


def test_cone_of_two_points_is_connecting_isomorphism():
    px = cone(pointed_sphere_zero())
    assert px.cat.objects == ("0.pt", "1.pt")
    assert px.basepoint == "0.pt"
    assert to_finite(px.cat).n == 4
    assert is_contractible(px.cat)


def test_cone_of_point_is_point():
    px = cone(PointedCategory(terminal_cat(), "pt"))
    assert len(px.cat.objects) == 1
    assert not px.cat.generators


def test_cone_of_loop_is_point():
    px = cone(pointed_loop())
    assert len(px.cat.objects) == 1
    assert to_finite(px.cat).n == 1


def test_cone_unit_embeds_two_points():
    u = cone_unit(pointed_sphere_zero())
    assert is_cofibration(u)
    assert u.object_map == {"0.pt": "0.pt", "1.pt": "1.pt"}


def test_cone_unit_on_point_is_identity():
    X = PointedCategory(terminal_cat(), "pt")
    u = cone_unit(X)
    assert u.object_map == {"pt": "pt"}
    assert not u.gen_map


def test_cone_unit_sends_arrow_to_unique_connector():
    u = cone_unit(PointedCategory(arrow_cat(), "a"))
    assert is_cofibration(u)
    assert u.gen_map["f"] == Path("a", ("a>b",))


def test_suspend_of_two_points_is_free_loop():
    sx = suspend(pointed_sphere_zero())
    assert len(sx.cat.objects) == 1
    assert len(sx.cat.generators) == 2
    o = sx.cat.objects[0]
    assert len(irreducible_words(sx.cat, 10)[(o, o)]) == 21


def test_suspend_of_point_is_point():
    sx = suspend(PointedCategory(terminal_cat(), "pt"))
    assert len(sx.cat.objects) == 1
    assert to_finite(sx.cat).n == 1


def test_suspend_of_loop_is_point():
    sx = suspend(pointed_loop())
    assert len(sx.cat.objects) == 1
    assert not sx.cat.generators
    assert to_finite(sx.cat).n == 1


def test_double_suspension_certificates():
    for X in (
        pointed_sphere_zero(),
        PointedCategory(arrow_cat(), "a"),
        PointedCategory(terminal_cat(), "pt"),
    ):
        w = k0_vanishing_witness(X)
        assert len(w.sx.cat.objects) == 1
        assert (len(w.s2x.cat.objects), len(w.s2x.cat.generators)) == (1, 0)
        assert w.s2x_morphisms == 1
        assert w.replay()
        assert json.loads(w.to_json())["terminal_S2X"] == {
            "objects": 1,
            "generators": 0,
            "morphisms": 1,
        }


def test_cofiber_chain_from_cone_unit():
    X = pointed_sphere_zero()
    u = cone_unit(X)
    po = pushout(u, point_collapse(X.cat))
    cert = is_cofiber_sequence(u, po.inj_left)
    assert isinstance(cert, CofiberCertificate)
    assert cert.mode == "strict-inverse"
    assert cert.inverse is not None
    assert cert.verify()


def test_cofiber_certificate_json_round_trip():
    X = pointed_sphere_zero()
    u = cone_unit(X)
    po = pushout(u, point_collapse(X.cat))
    cert = is_cofiber_sequence(u, po.inj_left)
    again = CofiberCertificate.from_json(cert.to_json())
    assert again.to_json() == cert.to_json()
    assert again.verify()


def test_tampered_certificate_fails_verify():
    X = pointed_sphere_zero()
    u = cone_unit(X)
    po = pushout(u, point_collapse(X.cat))
    cert = is_cofiber_sequence(u, po.inj_left)
    assert not dataclasses.replace(cert, mode="finite").verify()
    assert not dataclasses.replace(cert, basepoint="1.pt").verify()


def test_identity_then_collapse_is_a_cofiber_sequence():
    c2 = c2_cat()
    cert = is_cofiber_sequence(identity_functor(c2), point_collapse(c2))
    assert isinstance(cert, CofiberCertificate)
    assert cert.verify()


def test_point_identity_against_foreign_collapse_is_not_composable():
    one = terminal_cat()
    r = is_cofiber_sequence(identity_functor(one), point_collapse(c2_cat()))
    assert isinstance(r, CofiberFailure)
    assert r.reason == "not_composable"
    assert not r


def test_non_injective_first_leg_fails():
    one = terminal_cat()
    fold = Functor(build(["x", "y"]), one, {"x": "pt", "y": "pt"}, {})
    r = is_cofiber_sequence(fold, identity_functor(one))
    assert isinstance(r, CofiberFailure)
    assert r.reason == "not_cofibration"
    assert r.witness == ("x", "y")


def test_second_leg_must_collapse_the_image():
    X = pointed_sphere_zero()
    u = cone_unit(X)
    r = is_cofiber_sequence(u, identity_functor(u.target))
    assert isinstance(r, CofiberFailure)
    assert r.reason == "not_collapsing"
    assert r.witness == ("1.pt",)


def _cyclic(obj: str, gen: str, order: int):
    """The cyclic group of the given order on one object, with no generator marked invertible."""
    return build([obj], [(gen, obj, obj)], [(Path(obj, (gen,) * order), Path(obj))])


def _cyclic_quotient(power: int) -> tuple[Functor, Functor]:
    """A = point -> B = <b | b^16> -> C = <c | c^16>, with q sending b to c^power."""
    B, C = _cyclic("x", "b", 16), _cyclic("y", "c", 16)
    i = Functor(build(["pt"]), B, {"pt": "x"}, {})
    q = Functor(B, C, {"x": "y"}, {"b": Path("y", ("c",) * power)})
    return i, q


def test_cofiber_certificate_falls_back_to_finite_backends():
    # c is the image of b^11, past the strict search's words of length 6
    i, q = _cyclic_quotient(3)
    cert = is_cofiber_sequence(i, q)
    assert isinstance(cert, CofiberCertificate)
    assert cert.mode == "finite"
    assert cert.inverse is None
    assert cert.hom_card == {"L.x|L.x": 16}
    assert cert.verify()
    again = CofiberCertificate.from_json(cert.to_json())
    assert again.to_json() == cert.to_json()
    assert again.verify()


def test_finite_mode_results_are_json_values():
    """``to_json_obj`` of a finite-mode certificate, and of a witness that
    holds one, built or read, is plain JSON: ``json.dumps`` writes the bytes
    of ``to_json``."""
    cert = is_cofiber_sequence(*_cyclic_quotient(3))
    assert cert.mode == "finite"
    w = dataclasses.replace(k0_vanishing_witness(pointed_sphere_zero()), cert1=cert)
    read = CofiberCertificate.from_json(cert.to_json()), K0Witness.from_json(w.to_json())
    for value in (cert, w, *read):
        assert json.dumps(value.to_json_obj(), sort_keys=True, separators=(",", ":")) == (
            value.to_json()
        )
    assert read[1].cert1.hom_card == {"L.x|L.x": 16}


def test_cofiber_finite_fallback_rejects_a_map_that_is_not_onto():
    i, q = _cyclic_quotient(2)
    r = is_cofiber_sequence(i, q)
    assert r == CofiberFailure("cofiber_mismatch", (16, 16))


def test_cone_suite_on_random_pointed_pool():
    rng = random.Random(424242)
    for _ in range(8):
        X = random_pointed(rng)
        px = cone(X)
        assert tuple(px.cat.objects) == tuple(X.cat.objects)
        assert px.basepoint == X.basepoint
        assert is_contractible(px.cat)
        assert is_cofibration(cone_unit(X))
        assert len(suspend(X).cat.objects) == 1
        w = k0_vanishing_witness(X)
        assert len(w.sx.cat.objects) == 1
        assert (len(w.s2x.cat.objects), len(w.s2x.cat.generators)) == (1, 0)
        assert w.s2x_morphisms == 1
        assert w.replay()


def test_cone_preserves_pushouts_along_cofibrations():
    rng = random.Random(99)
    for _ in range(6):
        f, g = random_cof_span(rng)
        po = pushout(f, g)
        pa = chaotic(po.apex.objects)
        src_cone = chaotic(f.source.objects)
        pf = cone_map(f, src_cone, chaotic(f.target.objects))
        pg = cone_map(g, src_cone, chaotic(g.target.objects))
        po_cones = pushout(pf, pg)
        assert find_isomorphism(to_finite(pa), to_finite(po_cones.apex, bound=16))


def test_cone_map_of_any_functor_is_an_equivalence():
    s0 = sphere(0)
    collapse = point_collapse(s0)
    pf = cone_map(collapse, chaotic(s0.objects), chaotic(collapse.target.objects))
    assert is_equivalence(finite_form(pf))


def k0_pool():
    return {
        "two points": pointed_sphere_zero(),
        "arrow": PointedCategory(arrow_cat(), "a"),
        "order two": PointedCategory(c2_cat(), "x"),
        "free loop": pointed_loop(),
    }


def test_k0_witnesses_assemble_and_replay():
    for X in k0_pool().values():
        w = k0_vanishing_witness(X)
        assert w.replay()


def test_k0_witness_assembly_does_not_replay(monkeypatch):
    """The cofiber certificates are checked once, as they are made, and not
    again by a replay of the whole witness."""
    calls = []
    original = CofiberCertificate.verify

    def counting_verify(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(CofiberCertificate, "verify", counting_verify)
    for X in k0_pool().values():
        k0_vanishing_witness(X)
    assert calls == []


def test_k0_witness_assembly_still_checks_the_cones(monkeypatch):
    monkeypatch.setattr(ContractibilityCertificate, "verify", lambda self, budget=0: False)
    with pytest.raises(CatError, match="freshly assembled witness failed to replay"):
        k0_vanishing_witness(pointed_sphere_zero())


def test_k0_witnesses_are_byte_stable():
    for X in k0_pool().values():
        first = k0_vanishing_witness(X).to_json()
        second = k0_vanishing_witness(X).to_json()
        assert first == second


def test_k0_witness_json_round_trip():
    for X in k0_pool().values():
        w = k0_vanishing_witness(X)
        back = K0Witness.from_json(w.to_json())
        assert back.replay()
        assert back.to_json() == w.to_json()


def test_k0_witness_shape_and_scope():
    w = k0_vanishing_witness(pointed_sphere_zero())
    doc = json.loads(w.to_json())
    assert doc["format"] == "catcw-k0-witness-2"
    assert doc["scope"] == K0_SCOPE_NOTE
    assert doc["terminal_S2X"] == {"objects": 1, "generators": 0, "morphisms": 1}
    # each stage is stored once; the certificates name the stages they use
    assert [doc["cert1"][k] for k in "ABC"] == ["X", "PX", "SX"]
    assert [doc["cert2"][k] for k in "ABC"] == ["SX", "PSX", "S2X"]
    assert doc["contract_PX"]["category"] == "PX"
    assert doc["contract_PSX"]["category"] == "PSX"
    # the suspension of two points is the free loop, two mate generators
    assert len(w.sx.cat.generators) == 2


def test_k0_witness_of_loop_suspends_to_point():
    w = k0_vanishing_witness(pointed_loop())
    assert not w.sx.cat.generators
    assert len(w.sx.cat.objects) == 1


def test_k0_witness_of_point_is_degenerate():
    w = k0_vanishing_witness(PointedCategory(terminal_cat(), "pt"))
    assert w.replay()
    for stage in (w.px, w.sx.cat, w.psx, w.s2x.cat):
        assert len(stage.objects) == 1
        assert not stage.generators


def test_tampered_witness_fails_replay():
    w = k0_vanishing_witness(pointed_sphere_zero())
    doc = json.loads(w.to_json())
    doc["terminal_S2X"]["morphisms"] = 2
    assert not K0Witness.from_json(doc).replay()


FORMAT1_Z2 = pathlib.Path(__file__).parent / "data" / "k0_witness_format1_z2.json"


def test_format1_witness_still_replays():
    doc = json.loads(FORMAT1_Z2.read_text())
    assert doc["format"] == "catcw-k0-witness-1"
    w = K0Witness.from_json(doc)
    assert w.replay()
    # rewritten, it is the format-2 witness of the same pointed category
    assert w.to_json() == k0_vanishing_witness(PointedCategory(c2_cat(), "x")).to_json()
    doc["terminal_S2X"]["morphisms"] = 2
    assert not K0Witness.from_json(doc).replay()


def test_stage_reference_to_the_wrong_stage_fails_replay():
    text = k0_vanishing_witness(pointed_sphere_zero()).to_json()
    assert json.loads(text)["cert1"]["B"] == "PX"
    for field, stage in (("B", "X"), ("C", "PSX")):
        doc = json.loads(text)
        doc["cert1"][field] = stage
        assert not K0Witness.from_json(doc).replay()
    # SX has one object, L.0.pt, so the stored i: X -> PX cannot land in it
    doc = json.loads(text)
    doc["cert1"]["B"] = "SX"
    with pytest.raises(CatError, match="not in the target"):
        K0Witness.from_json(doc)


def test_unknown_stage_reference_names_the_field():
    doc = json.loads(k0_vanishing_witness(pointed_sphere_zero()).to_json())
    doc["cert2"]["C"] = "S3X"
    with pytest.raises(CatError, match=r"cert2\.C"):
        K0Witness.from_json(doc)
    doc = json.loads(k0_vanishing_witness(pointed_sphere_zero()).to_json())
    doc["contract_PSX"]["category"] = "P"
    with pytest.raises(CatError, match=r"contract_PSX\.category"):
        K0Witness.from_json(doc)


def test_broken_chain_is_written_in_full_and_still_fails():
    w = k0_vanishing_witness(pointed_sphere_zero())
    other = chaotic(["p", "q"])
    broken = dataclasses.replace(w, px=other)
    assert broken.cert1.i.target != broken.px
    assert not broken.replay()
    doc = json.loads(broken.to_json())
    assert doc["cert1"]["B"] == w.px.to_json_obj()
    assert doc["contract_PX"]["category"] == w.px.to_json_obj()
    again = K0Witness.from_json(doc)
    assert again.px == other and again.cert1.i.target == w.px
    assert not again.replay()
    assert again.to_json() == broken.to_json()


def _json_string_verdict(cert):
    """``CofiberCertificate.verify`` as first written: compare JSON text."""
    fresh = is_cofiber_sequence(cert.i, cert.q, cert.basepoint)
    return isinstance(fresh, CofiberCertificate) and fresh.to_json() == cert.to_json()


def test_certificate_comparison_agrees_with_json_text():
    for X in k0_pool().values():
        w = k0_vanishing_witness(X)
        for cert in (w.cert1, w.cert2):
            assert cert.mode == "strict-inverse"
            assert cert.verify() is _json_string_verdict(cert) is True
            obj = cert.to_json_obj()
            for tamper in ({"mode": "finite"}, {"inverse": None}, {"hom_card": {}}):
                bad = CofiberCertificate.from_json({**obj, **tamper})
                assert bad.verify() is _json_string_verdict(bad) is False


def test_unknown_witness_format_is_rejected():
    w = k0_vanishing_witness(PointedCategory(terminal_cat(), "pt"))
    doc = json.loads(w.to_json())
    doc["format"] = "catcw-k0-witness-999"
    with pytest.raises(CatError):
        K0Witness.from_json(doc)


def _counting(monkeypatch, name: str) -> list:
    """Record the arguments of every call to ``ktheory.<name>``."""
    calls = []
    counted = getattr(ktheory, name)

    def counting(*args):
        calls.append(args)
        return counted(*args)

    monkeypatch.setattr(ktheory, name, counting)
    return calls


def test_k0_witness_pushes_each_suspension_out_once(monkeypatch):
    """The recognition reads each suspension's pushout instead of building
    it again, and so does each replay of a certificate that keeps it; the
    certificates are those is_cofiber_sequence gives.  A second build and a
    second read of the same text copy the witnesses kept by the first, and
    recognize nothing until they are replayed."""
    pushouts = _counting(monkeypatch, "pushout")
    searches = _counting(monkeypatch, "_strict_inverse")
    recognitions = _counting(monkeypatch, "_cofiber_sequence")
    for C in pool8():
        clear_completion_cache()
        pushouts.clear()
        X = PointedCategory(C, C.objects[0])
        w = k0_vanishing_witness(X)
        assert len(pushouts) == 2
        # one K0 round trip: a pushout per suspension as the witness is
        # assembled and again as its JSON copy is read; no search
        text = w.to_json()
        again = K0Witness.from_json(text)
        assert w.replay() and again.replay()
        assert len(pushouts) == 4
        assert searches == []
        for cert, stage in ((w.cert1, w.sx), (w.cert2, w.s2x)):
            fresh = is_cofiber_sequence(cert.i, cert.q, stage.basepoint)
            assert fresh.to_json() == cert.to_json()
            assert (fresh.comparison, fresh.inverse) == (cert.comparison, cert.inverse)
        pushouts.clear()
        recognitions.clear()
        w2 = k0_vanishing_witness(X)
        again2 = K0Witness.from_json(text)
        assert (pushouts, searches, recognitions) == ([], [], [])
        assert w2.to_json() == again2.to_json() == text
        assert w2.replay()
        assert len(recognitions) == 2
        assert again2.replay()
        assert len(recognitions) == 4
        assert (pushouts, searches) == ([], [])
    clear_completion_cache()


def test_a_second_k0_round_trip_builds_no_presentation(monkeypatch):
    """Cones, points, pushout apexes and parsed stages are shared by
    content, so a second K0 round trip of the same input (witness, JSON,
    parsed copy, both replays) builds and checks no presentation."""
    built = []
    init = FpCategory.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    X = PointedCategory(arrow_cat(), "a")

    def round_trip():
        w = k0_vanishing_witness(X)
        again = K0Witness.from_json(w.to_json())
        assert w.replay() and again.replay()
        return again.to_json()

    clear_completion_cache()
    monkeypatch.setattr(FpCategory, "__init__", counting_init)
    first = round_trip()
    assert built  # a cold round trip builds its stages
    built.clear()
    assert round_trip() == first
    assert built == []
    clear_completion_cache()


def test_a_certificate_with_another_first_leg_pushes_out_again(monkeypatch):
    """``replace(cert, i=...)`` keeps the old pushout, which ``verify`` then
    leaves alone: an equal leg still verifies, and a leg whose pushout is
    another category does not."""
    pushouts = _counting(monkeypatch, "pushout")
    w = k0_vanishing_witness(PointedCategory(arrow_cat(), "a"))
    cert = w.cert1
    pushouts.clear()
    same = Functor(cert.i.source, cert.i.target, dict(cert.i.object_map), dict(cert.i.gen_map))
    assert dataclasses.replace(cert, i=same).verify()
    assert len(pushouts) == 1
    # the basepoint alone: its pushout keeps both objects of PX apart, so the
    # kept one-object pushout would give the stored certificate back
    point = build(["pt"])
    other = Functor(point, cert.i.target, {"pt": "a"}, {})
    assert not dataclasses.replace(cert, i=other).verify()
    assert len(pushouts) == 2
    assert cert.verify()
    assert len(pushouts) == 2


def _identity_case_inputs() -> list:
    rng = random.Random(2001)
    two_arrows = build(["o0", "o1"], [("g0", "o0", "o1"), ("g1", "o0", "o1")])
    arrow_and_loop = build(
        ["o0", "o1"],
        [("g0", "o0", "o1"), ("t", "o1", "o1")],
        [(Path("o1", ("t",) * 3), Path("o1"))],
        ["t"],
    )
    return (
        [PointedCategory(C, C.objects[0]) for C in pool8()]
        + [random_pointed(rng) for _ in range(8)]
        + [
            PointedCategory(arrow_cat(), "b"),
            PointedCategory(two_arrows, "o1"),
            PointedCategory(arrow_and_loop, "o0"),
            pointed_loop(),
        ]
    )


def test_identity_comparisons_are_inverted_as_the_search_inverts_them(monkeypatch):
    """Each recognition in a witness, in its replay and in the replay of its
    JSON copy compares the pushout apex with itself, or with an equal parsed
    stage; its inverse is the one the normal-form search finds."""
    search = ktheory._strict_inverse
    searches = _counting(monkeypatch, "_strict_inverse")
    for X in _identity_case_inputs():
        w = k0_vanishing_witness(X)
        again = K0Witness.from_json(w.to_json())
        # the copy's apex is a pushout of its own, the parsed stage another object
        assert w.cert1.pushout.apex is w.sx.cat
        assert again.cert1.pushout.apex is not again.sx.cat
        for cert in (w.cert1, w.cert2, again.cert1, again.cert2):
            fresh = ktheory._cofiber_sequence(
                cert.i, cert.q, cert.basepoint, DEFAULT_RULE_BUDGET, cert.pushout
            )
            assert ktheory._is_identity(fresh.comparison)
            assert fresh.mode == "strict-inverse"
            assert fresh.inverse == search(fresh.comparison, DEFAULT_RULE_BUDGET)
            assert check_functor(fresh.inverse)
            assert fresh.to_json() == cert.to_json()
    assert searches == []


def test_a_comparison_that_is_no_identity_is_inverted_by_search(monkeypatch):
    search = ktheory._strict_inverse
    searches = _counting(monkeypatch, "_strict_inverse")
    # q sends b to c, or to c^3: the apex <L.b | L.b^16> is renamed, not equal
    for power, mode in ((1, "strict-inverse"), (3, "finite")):
        cert = is_cofiber_sequence(*_cyclic_quotient(power))
        assert not ktheory._is_identity(cert.comparison)
        assert cert.mode == mode
        assert cert.verify()
    assert len(searches) == 4
    # the suspension of two points with its apex renamed by a coproduct
    sx, po, unit = ktheory._suspension(pointed_sphere_zero())
    renamed = coproduct([po.apex])
    q = compose_functors(po.inj_left, renamed.injections[0])
    cert = is_cofiber_sequence(unit, q, "0." + sx.basepoint)
    assert not ktheory._is_identity(cert.comparison)
    assert cert.mode == "strict-inverse"
    assert len(searches) == 5
    assert cert.inverse == search(cert.comparison, DEFAULT_RULE_BUDGET)
    assert cert.verify()

"""Exit codes, report formats, and certificate round trips for the CLI."""

import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    arrow_cat,
    c2_cat,
    c3_cat,
    discrete2,
    interval_cat,
    path2_cat,
    presentation_docs,
    random_cof_span,
    terminal_cat,
)

import catcw
from catcw import Path, build
from catcw.cli import main
from catcw.sheaftopos import discrete_two_point, pseudocircle_base, sierpinski


def dump(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def cat_file(tmp_path, name, cat):
    return dump(tmp_path, name, cat.to_json_obj())


@pytest.fixture()
def z_file(tmp_path):
    z = build(["*"], [("a", "*", "*")], invertible=["a"])
    return cat_file(tmp_path, "z.json", z)


def test_check_reports_completion(tmp_path, capsys):
    path = cat_file(tmp_path, "c2.json", c2_cat())
    assert main(["check", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["complete"] is True
    assert doc["objects"] == 1


def test_check_pairs_each_generator_with_one_mate(tmp_path, capsys):
    # ⟨a, b, c | ab = ba = ac = ca = 1⟩: b takes a as its mate, so c gets c^-1
    doc = {
        "objects": ["x"],
        "generators": [{"name": n, "src": "x", "dst": "x"} for n in "abc"],
        "relations": [
            {"lhs": {"at": "x", "gens": list(pq)}, "rhs": {"at": "x", "gens": []}}
            for pq in ("ab", "ba", "ac", "ca")
        ],
        "invertible": ["b", "c"],
    }
    path = dump(tmp_path, "shared_mate.json", doc)
    assert main(["check", path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["complete"] is True


def test_check_to_finite_negative_verdict(tmp_path, capsys, z_file):
    assert main(["check", z_file, "--to-finite", "--bound", "5"]) == 1
    out = capsys.readouterr().out
    assert "NotFinite" in out


def test_check_missing_file_is_input_error(capsys):
    assert main(["check", "/nonexistent/nope.json"]) == 2
    assert "input error" in capsys.readouterr().err


def test_check_malformed_json_reports_position(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{"objects": [,]}')
    assert main(["check", str(p)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_sphere_one_not_finite_lists_forms(capsys):
    assert main(["sphere", "1", "--to-finite", "--bound", "10", "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["finite"] is False
    assert len(doc["forms"]) == 11


def test_sphere_zero_is_finite(capsys):
    assert main(["sphere", "0", "--to-finite", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"sphere": 0, "finite": True, "morphisms": 2}


def test_budget_below_relation_count_is_input_error(tmp_path, capsys):
    path = cat_file(tmp_path, "c2.json", c2_cat())
    assert main(["check", path, "--budget", "0"]) == 2
    assert "BudgetTooSmall" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["sphere", "-1"],
        ["sphere", "1", "--to-finite", "--bound", "-1"],
        ["sphere", "0", "--budget", "-1"],
        ["sphere", "0", "--to-finite", "--bound", "many"],
    ],
)
def test_out_of_range_counts_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error: argument" in capsys.readouterr().err


def test_equiv_positive_and_negative(tmp_path, capsys):
    a = cat_file(tmp_path, "a.json", c2_cat())
    b = cat_file(tmp_path, "b.json", c3_cat())
    with pytest.raises(SystemExit):
        main(["equiv", a])  # missing operand
    capsys.readouterr()
    assert main(["equiv", a, b]) == 1  # orders 2 and 3: no equivalence
    c = cat_file(tmp_path, "c.json", c2_cat())
    assert main(["equiv", a, c, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert doc["equivalent"] is True


def test_equiv_decides_z8_against_itself(tmp_path, capsys):
    z8 = build(["x"], [("t", "x", "x")], [(Path("x", ("t",) * 8), Path("x"))], ["t"])
    path = cat_file(tmp_path, "z8.json", z8)
    assert main(["equiv", path, path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"equivalent": True, "object_map": {"x": "x"}}
    assert main(["equiv", path, path, "--product-bound", "3"]) == 2
    err = capsys.readouterr().err
    assert "SearchSpaceTooLarge: functor search visited 4 nodes (bound 3)" in err


def test_pushout_with_square_verification(tmp_path, capsys):
    one = terminal_cat()
    arrow = arrow_cat()
    span = {
        "A": one.to_json_obj(),
        "B": arrow.to_json_obj(),
        "C": one.to_json_obj(),
        "f": {"object_map": {"pt": "a"}, "gen_map": {}},
        "g": {"object_map": {"pt": "pt"}, "gen_map": {}},
    }
    path = dump(tmp_path, "span.json", span)
    assert main(["pushout", path, "--verify", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["square_commutes"] is True
    assert len(doc["apex"]["objects"]) == 2


def test_pushout_rejects_incomplete_span(tmp_path, capsys):
    path = dump(tmp_path, "bad.json", {"A": terminal_cat().to_json_obj()})
    assert main(["pushout", path]) == 2
    assert "missing or malformed" in capsys.readouterr().err


def test_suspend_reports_single_object(tmp_path, capsys, z_file):
    assert main(["suspend", z_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["category"]["objects"]) == 1
    assert doc["category"]["generators"] == []


def test_cone_uses_declared_basepoint(tmp_path, capsys):
    path = cat_file(tmp_path, "d2.json", discrete2())
    assert main(["cone", path, "--basepoint", "y", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["basepoint"] == "y"
    assert len(doc["category"]["generators"]) == 2


def test_cone_rejects_unknown_basepoint(tmp_path, capsys):
    path = cat_file(tmp_path, "d2.json", discrete2())
    assert main(["cone", path, "--basepoint", "zzz"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["cone", "suspend", "k0-witness"])
def test_pointed_verbs_on_an_empty_category_name_the_missing_basepoint(tmp_path, capsys, verb):
    path = cat_file(tmp_path, "empty.json", build([]))
    assert main([verb, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    message = "the category has no object to serve as basepoint"
    assert captured.err == f"input error: {path}: {message}\n"


@pytest.mark.parametrize("verb", ["cone", "suspend"])
def test_cone_and_suspend_take_no_budget(capsys, z_file, verb):
    with pytest.raises(SystemExit) as exc:
        main([verb, z_file, "--budget", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --budget" in capsys.readouterr().err


def test_k0_witness_emit_and_replay(tmp_path, capsys):
    path = dump(
        tmp_path,
        "pointed.json",
        {"category": c2_cat().to_json_obj(), "basepoint": "x"},
    )
    out = str(tmp_path / "witness.json")
    assert main(["k0-witness", path, "-o", out]) == 0
    capsys.readouterr()
    assert main(["k0-witness", "--verify", out, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"replay": True}


def test_k0_witness_detects_tampering(tmp_path, capsys):
    path = cat_file(tmp_path, "one.json", terminal_cat())
    out = str(tmp_path / "w.json")
    assert main(["k0-witness", path, "-o", out]) == 0
    doc = json.loads((tmp_path / "w.json").read_text())
    doc["terminal_S2X"]["morphisms"] = 5
    tampered = dump(tmp_path, "tampered.json", doc)
    capsys.readouterr()
    assert main(["k0-witness", "--verify", tampered]) == 1
    assert "FAILED" in capsys.readouterr().out


def test_k0_witness_prints_one_line_of_canonical_json(tmp_path, capsys):
    path = dump(tmp_path, "pointed.json", {"category": c2_cat().to_json_obj(), "basepoint": "x"})
    runs = []
    for _ in range(2):
        assert main(["k0-witness", path]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]
    assert runs[0].count("\n") == 1 and runs[0].endswith("\n")
    doc = json.loads(runs[0])
    assert doc["format"] == "catcw-k0-witness-2"
    assert runs[0] == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    written = tmp_path / "w.json"
    written.write_text(runs[0])
    assert main(["k0-witness", "--verify", str(written)]) == 0


def test_k0_witness_unknown_stage_is_input_error(tmp_path, capsys):
    path = cat_file(tmp_path, "one.json", terminal_cat())
    out = str(tmp_path / "w.json")
    assert main(["k0-witness", path, "-o", out]) == 0
    doc = json.loads((tmp_path / "w.json").read_text())
    doc["cert1"]["B"] = "QX"
    tampered = dump(tmp_path, "tampered.json", doc)
    capsys.readouterr()
    assert main(["k0-witness", "--verify", tampered]) == 2
    assert "cert1.B" in capsys.readouterr().err


def test_k0_witness_verifies_format1_files(capsys):
    fixture = os.path.join(os.path.dirname(__file__), "data", "k0_witness_format1_z2.json")
    assert main(["k0-witness", "--verify", fixture, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"replay": True}


def test_k0_witness_needs_some_input(capsys):
    assert main(["k0-witness"]) == 2
    assert "input error" in capsys.readouterr().err


def test_cw_classify_ladder(tmp_path, capsys):
    arrow = cat_file(tmp_path, "arrow.json", arrow_cat())
    assert main(["cw-classify", arrow, "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["verdict"] == "NotCW"
    c2 = cat_file(tmp_path, "c2.json", c2_cat())
    assert main(["cw-classify", c2, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "Dim2"


def test_cw_classify_undecided(tmp_path, capsys):
    braid = cat_file(
        tmp_path,
        "braid.json",
        build(
            ["x"],
            [("a", "x", "x"), ("b", "x", "x")],
            [(Path("x", ("a", "b", "a")), Path("x", ("b", "a", "b")))],
        ),
    )
    assert main(["cw-classify", braid, "--bound", "8", "--budget", "3", "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {"verdict": "NotDecided"}


def test_cw_classify_reports_its_note(tmp_path, capsys):
    gp = {
        "components": [
            {
                "extra_objects": [],
                "generators": ["a", "b"],
                "relations": [["a", "b", "a^-1", "b^-1"]],
            }
        ]
    }
    assert main(["cw-build", dump(tmp_path, "gp.json", gp), "--json"]) == 0
    complex_file = dump(tmp_path, "complex.json", json.loads(capsys.readouterr().out)["complex"])
    assert main(["cw-classify", complex_file, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "Dim2"
    assert report["note"] == "freeness not witnessed syntactically"


def test_cw_build_from_file(tmp_path, capsys):
    gp = {
        "components": [
            {"extra_objects": [], "generators": ["a"], "relations": [["a", "a"]]}
        ]
    }
    path = dump(tmp_path, "gp.json", gp)
    assert main(["cw-build", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["presentation"]["components"][0]["generators"] == ["a"]
    assert len(doc["complex"]["objects"]) == 1


def test_cw_build_random_is_seed_deterministic(capsys):
    assert main(["cw-build", "random", "--seed", "7", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["cw-build", "random", "--seed", "7", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert main(["cw-build", "random", "--seed", "8", "--json"]) == 0
    assert capsys.readouterr().out != first


MALFORMED_GROUPOID_PRESENTATIONS = {
    "missing-field": ({"comps": []}, "'components'"),
    "top-level-array": ([], "'presentation': expected an object, got list"),
    "string-generators": (
        {"components": [{"extra_objects": [], "generators": "ab", "relations": []}]},
        "'generators': expected a list, got str",
    ),
    "non-string-relation-token": (
        {"components": [{"extra_objects": [], "generators": ["a"], "relations": [["a", 1]]}]},
        "'relations': expected a string, got int",
    ),
    "string-component": ({"components": ["a"]}, "'components': expected an object, got str"),
    "top-level-string": ("{}", "expected a JSON object, got a string"),
}


@pytest.mark.parametrize("doc", list(MALFORMED_GROUPOID_PRESENTATIONS))
def test_cw_build_malformed_presentation_is_input_error(tmp_path, capsys, doc):
    obj, field = MALFORMED_GROUPOID_PRESENTATIONS[doc]
    assert main(["cw-build", dump(tmp_path, "gp.json", obj), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input error" in captured.err and field in captured.err
    assert "Traceback" not in captured.err


def test_sheaf_unit_over_the_discrete_four_point_space(tmp_path, capsys):
    pts = ["p0", "p1", "p2", "p3"]
    opens = [list(c) for r in range(5) for c in itertools.combinations(pts, r)]
    space = dump(tmp_path, "disc4.json", {"points": pts, "opens": opens})
    assert main(["sheaf-unit", cat_file(tmp_path, "d2.json", discrete2()), space, "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"unit_iso": False, "reason": "object_count", "witness": "(2, 16)"}


def discrete_space(tmp_path, n):
    pts = [f"p{i}" for i in range(n)]
    opens = [list(c) for r in range(n + 1) for c in itertools.combinations(pts, r)]
    return dump(tmp_path, f"disc{n}.json", {"points": pts, "opens": opens})


def test_sheaf_unit_of_z3_over_the_discrete_five_point_space(tmp_path, capsys):
    space = discrete_space(tmp_path, 5)
    c3 = cat_file(tmp_path, "c3.json", c3_cat())
    t0 = time.monotonic()
    assert main(["sheaf-unit", c3, space, "--json"]) == 1
    assert time.monotonic() - t0 < 1.0
    assert capsys.readouterr().out == (
        '{"reason":"morphism_count","unit_iso":false,"witness":"(3, 243)"}\n'
    )


def test_sheaf_unit_exit_codes(tmp_path, capsys):
    c2 = cat_file(tmp_path, "c2.json", c2_cat())
    d2 = cat_file(tmp_path, "d2.json", discrete2())
    sier = dump(tmp_path, "sier.json", sierpinski().to_json_obj())
    disc = dump(tmp_path, "disc.json", discrete_two_point().to_json_obj())
    assert main(["sheaf-unit", c2, sier]) == 0
    capsys.readouterr()
    assert main(["sheaf-unit", d2, disc, "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["unit_iso"] is False
    assert doc["reason"] == "object_count"


def test_string_for_a_list_is_input_error(tmp_path, capsys):
    obj = c2_cat().to_json_obj()
    obj["objects"] = "x"
    bad_cat = dump(tmp_path, "bad_cat.json", obj)
    assert main(["check", bad_cat]) == 2
    assert "malformed field 'objects': expected a list, got str" in capsys.readouterr().err
    obj = sierpinski().to_json_obj()
    obj["points"] = "uv"
    bad_space = dump(tmp_path, "bad_space.json", obj)
    c2 = cat_file(tmp_path, "c2.json", c2_cat())
    for verb in ("sheaf-unit", "sheaf-classify"):
        assert main([verb, c2, bad_space]) == 2
        assert "malformed field 'points': expected a list, got str" in capsys.readouterr().err


def test_space_missing_field_is_input_error(tmp_path, capsys):
    c2 = cat_file(tmp_path, "c2.json", c2_cat())
    bad_space = dump(tmp_path, "bad_space.json", {"points": ["u"]})
    assert main(["sheaf-unit", c2, bad_space]) == 2
    assert "missing or malformed field 'opens'" in capsys.readouterr().err


MALFORMED_PRESENTATIONS = {
    "non-string-name": {"objects": ["x", 3], "generators": [], "relations": [], "invertible": []},
    "non-list-field": {"objects": "x", "generators": [], "relations": [], "invertible": []},
    "missing-field": {"objects": ["x"]},
    "top-level-array": [],
}
MALFORMED_SPACES = {
    "non-string-name": {"points": ["u", 3], "opens": [[], ["u", 3]]},
    "non-list-field": {"points": ["u"], "opens": "u"},
    "missing-field": {"points": ["u"]},
    "top-level-array": [],
}
SHEAF_VERBS = ["sheaf-unit", "sheaf-classify"]


@pytest.mark.parametrize("doc", list(MALFORMED_PRESENTATIONS))
@pytest.mark.parametrize(
    "verb",
    ["check", "check --to-finite", "cone", "suspend", "k0-witness", "cw-classify"] + SHEAF_VERBS,
)
def test_malformed_presentation_is_input_error(tmp_path, capsys, verb, doc):
    bad = dump(tmp_path, "bad.json", MALFORMED_PRESENTATIONS[doc])
    argv = [verb.split()[0], bad] + verb.split()[1:]
    if verb in SHEAF_VERBS:
        argv.append(dump(tmp_path, "sier.json", sierpinski().to_json_obj()))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "input error" in err and "Traceback" not in err


@pytest.mark.parametrize("doc", list(MALFORMED_SPACES))
@pytest.mark.parametrize("verb", SHEAF_VERBS)
def test_malformed_space_is_input_error(tmp_path, capsys, verb, doc):
    c2 = cat_file(tmp_path, "c2.json", c2_cat())
    assert main([verb, c2, dump(tmp_path, "bad.json", MALFORMED_SPACES[doc])]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and "Traceback" not in err


@pytest.mark.parametrize("leg", ["f", "g"])
def test_pushout_rejects_a_leg_that_is_not_a_functor(tmp_path, capsys, leg):
    # t;t = id in c2, but a;a is not the identity in Z
    c2 = c2_cat().to_json_obj()
    z = build(["*"], [("a", "*", "*")], invertible=["a"]).to_json_obj()
    bad = {"object_map": {"x": "*"}, "gen_map": {"t": {"at": "*", "gens": ["a"]}}}
    ident = {"object_map": {"x": "x"}, "gen_map": {"t": {"at": "x", "gens": ["t"]}}}
    span = {"A": c2, "B": c2, "C": c2, "f": ident, "g": ident}
    span[{"f": "B", "g": "C"}[leg]] = z
    span[leg] = bad
    assert main(["pushout", dump(tmp_path, "span.json", span), "--verify", "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "functor": False,
        "leg": leg,
        "witness": {
            "defect": "relation",
            "lhs": {"at": "x", "gens": ["t", "t"]},
            "rhs": {"at": "x", "gens": []},
        },
    }


NOT_FUNCTOR_LEGS = {
    # f -> unknown generator of the arrow category
    "image": (
        {"object_map": {"a": "a", "b": "b"}, "gen_map": {"f": {"at": "a", "gens": ["g"]}}},
        {"defect": "image", "generator": "f"},
        "NotFunctor: leg g sends generator 'f' to no arrow of its target",
    ),
    # f -> the identity at a, but f runs from a to b
    "endpoints": (
        {"object_map": {"a": "a", "b": "b"}, "gen_map": {"f": {"at": "a", "gens": []}}},
        {"defect": "endpoints", "generator": "f"},
        "NotFunctor: leg g sends generator 'f' to an arrow with the wrong endpoints",
    ),
}


@pytest.mark.parametrize("defect", list(NOT_FUNCTOR_LEGS))
def test_pushout_names_the_generator_a_leg_breaks(tmp_path, capsys, defect):
    arrow = arrow_cat().to_json_obj()
    good = {"object_map": {"a": "a", "b": "b"}, "gen_map": {"f": {"at": "a", "gens": ["f"]}}}
    leg, witness, line = NOT_FUNCTOR_LEGS[defect]
    span = dump(tmp_path, "span.json", {"A": arrow, "B": arrow, "C": arrow, "f": good, "g": leg})
    assert main(["pushout", span, "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "functor": False, "leg": "g", "witness": witness
    }
    assert main(["pushout", span]) == 1
    assert capsys.readouterr().out == line + "\n"


def test_pushout_names_the_relation_a_leg_breaks(tmp_path, capsys):
    c2 = c2_cat().to_json_obj()
    z = build(["*"], [("a", "*", "*")], invertible=["a"]).to_json_obj()
    bad = {"object_map": {"x": "*"}, "gen_map": {"t": {"at": "*", "gens": ["a"]}}}
    ident = {"object_map": {"x": "x"}, "gen_map": {"t": {"at": "x", "gens": ["t"]}}}
    span = {"A": c2, "B": z, "C": c2, "f": bad, "g": ident}
    assert main(["pushout", dump(tmp_path, "span.json", span)]) == 1
    assert capsys.readouterr().out == (
        "NotFunctor: leg f breaks the relation t;t = id_x of A\n"
    )


MALFORMED_LEGS = {
    "number-image": {"object_map": {"a": "a", "b": "b"}, "gen_map": {"f": 5}},
    "string-image": {"object_map": {"a": "a", "b": "b"}, "gen_map": {"f": "f"}},
    "list-image": {"object_map": {"a": "a", "b": "b"}, "gen_map": {"f": ["f"]}},
    "list-gen-map": {"object_map": {"a": "a", "b": "b"}, "gen_map": [["f", 5]]},
    "list-object-map": {"object_map": [["a", "a"]], "gen_map": {"f": 5}},
}


@pytest.mark.parametrize("leg", list(MALFORMED_LEGS))
def test_pushout_with_a_malformed_leg_is_input_error(tmp_path, capsys, leg):
    arrow = arrow_cat().to_json_obj()
    good = {"object_map": {"a": "a", "b": "b"}, "gen_map": {"f": {"at": "a", "gens": ["f"]}}}
    span = {"A": arrow, "B": arrow, "C": arrow, "f": good, "g": MALFORMED_LEGS[leg]}
    assert main(["pushout", dump(tmp_path, "span.json", span), "--json"]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and "Traceback" not in err
    if leg.endswith("image"):
        assert "'gen_map': expected an object" in err


def test_sheaf_exotic_variants(capsys):
    assert main(["sheaf-exotic", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"variant": "exotic", "in_constant_image": False}
    assert main(["sheaf-exotic", "--variant", "identity", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["in_constant_image"] is True
    assert main(["sheaf-exotic", "--variant", "constant"]) == 0


def test_sheaf_classify_exit_codes(tmp_path, capsys):
    sier = dump(tmp_path, "sier.json", sierpinski().to_json_obj())
    c2 = cat_file(tmp_path, "c2.json", c2_cat())
    arrow = cat_file(tmp_path, "arrow.json", arrow_cat())
    assert main(["sheaf-classify", c2, sier, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "CW"
    assert main(["sheaf-classify", arrow, sier, "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["verdict"] == "NotCW"


def test_sheaf_classify_decides_z3_over_the_pseudocircle(tmp_path, capsys):
    space = dump(tmp_path, "pc.json", pseudocircle_base().to_json_obj())
    c3 = cat_file(tmp_path, "c3.json", c3_cat())
    assert main(["sheaf-classify", c3, space]) == 0
    assert capsys.readouterr().out == "verdict: CW\n"


def test_sheaf_classify_decides_five_points_under_a_top_point(tmp_path, capsys):
    # 33 opens; the open of the five minimal points carries (Z/2)^5
    low = ["a", "b", "c", "d", "e"]
    opens = [list(c) for r in range(6) for c in itertools.combinations(low, r)]
    space = dump(tmp_path, "six.json", {"points": low + ["t"], "opens": opens + [low + ["t"]]})
    c2 = cat_file(tmp_path, "c2.json", c2_cat())
    t0 = time.monotonic()
    assert main(["sheaf-classify", c2, space, "--json"]) == 0
    assert time.monotonic() - t0 < 1.0
    assert capsys.readouterr().out == '{"verdict":"CW"}\n'


def test_sheaf_classify_of_a_non_groupoid_over_five_points_under_a_top_point(tmp_path, capsys):
    # the open of the five minimal points carries A^5 with 6^5 morphisms; only
    # its composable pairs are composed
    low = ["a", "b", "c", "d", "e"]
    opens = [list(c) for r in range(6) for c in itertools.combinations(low, r)]
    space = dump(tmp_path, "six.json", {"points": low + ["t"], "opens": opens + [low + ["t"]]})
    path2 = cat_file(tmp_path, "path2.json", path2_cat())
    t0 = time.monotonic()
    assert main(["sheaf-classify", path2, space, "--json"]) == 1
    assert time.monotonic() - t0 < 10.0
    assert capsys.readouterr().out == '{"verdict":"NotCW","witness":"(\'not_groupoid\', 3)"}\n'


def test_sheaf_classify_refuses_a_disconnected_space_before_sheafifying(tmp_path, capsys):
    space = discrete_space(tmp_path, 5)
    c3 = cat_file(tmp_path, "c3.json", c3_cat())
    t0 = time.monotonic()
    assert main(["sheaf-classify", c3, space, "--json"]) == 2
    assert time.monotonic() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: NotConnected: classification requires a connected base space\n"


def test_sheaf_classify_takes_no_product_bound(tmp_path, capsys):
    sier = dump(tmp_path, "sier.json", sierpinski().to_json_obj())
    c2 = cat_file(tmp_path, "c2.json", c2_cat())
    with pytest.raises(SystemExit) as exc:
        main(["sheaf-classify", c2, sier, "--product-bound", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --product-bound" in capsys.readouterr().err


def test_json_reports_are_byte_deterministic(tmp_path, capsys):
    path = cat_file(tmp_path, "c2.json", c2_cat())
    outputs = []
    for _ in range(2):
        assert main(["check", path, "--to-finite", "--json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_console_entry_point_runs():
    # the child imports the same catcw as this process, installed or not
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(catcw.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "catcw.cli", "sphere", "0", "--json"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["objects"] == ["0.pt", "1.pt"]


_JSON_LEAF = st.one_of(
    st.none(), st.booleans(), st.integers(-1, 2), st.sampled_from(["", "a", "{}"]), st.just({})
)
_NAME = st.sampled_from(["a", "b", "b^-1", "t", "u", "*"])


@st.composite
def _groupoid_component(draw):
    gens = draw(st.lists(_NAME, max_size=3, unique=draw(st.integers(1, 5)) != 3))
    tokens = [g + suffix for g in gens for suffix in ("", "^-1")]
    token = st.sampled_from(tokens) if tokens and draw(st.integers(1, 5)) != 3 else _NAME
    return {
        "extra_objects": draw(st.lists(_NAME, max_size=2, unique=draw(st.integers(1, 5)) != 3)),
        "generators": gens,
        "relations": draw(st.lists(st.lists(token, max_size=4), max_size=3)),
    }


def _mutated(draw, doc, leaves=_JSON_LEAF):
    """``doc`` with one part replaced by a leaf or dropped."""
    places = []  # (container, key) for every part of the document

    def walk(node):
        for key in range(len(node)) if isinstance(node, list) else list(node):
            places.append((node, key))
            if isinstance(node[key], (list, dict)):
                walk(node[key])

    walk(doc)
    container, key = draw(st.sampled_from(places))
    if isinstance(container, dict) and draw(st.booleans()):
        del container[key]
    else:
        container[key] = draw(leaves)
    return doc


@st.composite
def _groupoid_docs(draw):
    """A groupoid-presentation document; one in three has one part replaced
    by a JSON leaf or dropped.  Names may repeat or name nothing."""
    doc = {"components": draw(st.lists(_groupoid_component(), max_size=3))}
    if draw(st.integers(1, 3)) != 2:
        return doc
    return _mutated(draw, doc)


def _run_on(verb: list, *docs) -> tuple[int, str, str]:
    """``main`` on ``docs``, each written to a file: exit code, stdout, stderr."""
    with tempfile.TemporaryDirectory() as d:
        paths = [os.path.join(d, f"doc{i}.json") for i in range(len(docs))]
        for path, doc in zip(paths, docs):
            with open(path, "w") as fh:
                json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*verb, *paths])
    return code, out.getvalue(), err.getvalue()


def _assert_input_error(out: str, err: str) -> None:
    """Exit 2 prints one error line and no traceback."""
    assert out == ""
    assert err.startswith(("input error: ", "error: "))
    assert err.count("\n") == 1


@settings(derandomize=True, max_examples=300, deadline=None)
@given(doc=_groupoid_docs())
def test_cw_build_exits_0_or_2_on_any_document(doc):
    """A built complex exits 0; anything malformed exits 2 with one error
    line and no traceback."""
    code, out, err = _run_on(["cw-build", "--json"], doc)
    if code == 0:
        assert err == ""
        assert set(json.loads(out)) == {"presentation", "complex"}
    else:
        assert code == 2
        _assert_input_error(out, err)


def _span_texts() -> list[str]:
    """Pushout documents: random cofibration spans, and a span whose leg f
    breaks a relation."""
    rng = random.Random(11)
    texts = []
    for _ in range(4):
        f, g = random_cof_span(rng)
        cats = {"A": f.source, "B": f.target, "C": g.target}
        doc = {k: c.to_json_obj() for k, c in cats.items()}
        texts.append(json.dumps({**doc, "f": f.to_json_obj(), "g": g.to_json_obj()}))
    c2 = c2_cat().to_json_obj()
    z = build(["*"], [("a", "*", "*")], invertible=["a"]).to_json_obj()
    bad = {"object_map": {"x": "*"}, "gen_map": {"t": {"at": "*", "gens": ["a"]}}}
    ident = {"object_map": {"x": "x"}, "gen_map": {"t": {"at": "x", "gens": ["t"]}}}
    texts.append(json.dumps({"A": c2, "B": z, "C": c2, "f": bad, "g": ident}))
    return texts


_SPANS = _span_texts()


@st.composite
def _span_docs(draw):
    """A pushout document; two in three have one part replaced by a JSON
    leaf, nested strings included, or dropped."""
    doc = json.loads(draw(st.sampled_from(_SPANS)))
    if draw(st.integers(1, 3)) == 2:
        return doc
    return _mutated(draw, doc)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(doc=_span_docs())
@example(doc={"A": "", "B": {}, "C": {}, "f": {}, "g": {}})
@example(doc={**json.loads(_SPANS[0]), "C": "{}"})
def test_pushout_exits_0_1_or_2_on_any_document(doc):
    """A pushout exits 0, a leg that is no functor or a square that does not
    commute 1, anything malformed 2 with one error line; never a traceback."""
    code, out, err = _run_on(["pushout", "--verify", "--json"], doc)
    if code == 2:
        _assert_input_error(out, err)
    else:
        assert code in (0, 1)
        assert err == ""
        report = json.loads(out)
        assert report.get("square_commutes", report.get("functor")) is (code == 0)


_WITNESSES = [
    catcw.k0_vanishing_witness(catcw.PointedCategory(cat, cat.objects[0])).to_json()
    for cat in (terminal_cat(), discrete2(), arrow_cat(), c2_cat())
]


@st.composite
def _witness_docs(draw):
    """A K0 witness document; two in three have one part replaced by a JSON
    leaf or a stage name, or dropped."""
    doc = json.loads(draw(st.sampled_from(_WITNESSES)))
    if draw(st.integers(1, 3)) == 2:
        return doc
    return _mutated(draw, doc, st.one_of(_JSON_LEAF, st.sampled_from(["X", "SX", "PSX"])))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(doc=_witness_docs())
@example(doc={**json.loads(_WITNESSES[0]), "input": {"category": "x", "basepoint": "pt"}})
def test_k0_witness_verify_exits_0_1_or_2_on_any_document(doc):
    """A witness that replays exits 0, one that does not 1, anything
    malformed 2 with one error line; never a traceback."""
    code, out, err = _run_on(["k0-witness", "--json", "--verify"], doc)
    if code == 2:
        _assert_input_error(out, err)
    else:
        assert err == ""
        assert json.loads(out) == {"replay": code == 0}
        assert code in (0, 1)


_POINTED = [
    json.dumps({"category": cat.to_json_obj(), "basepoint": cat.objects[-1]})
    for cat in (terminal_cat(), discrete2(), arrow_cat(), c2_cat(), path2_cat())
]


@st.composite
def _pointed_docs(draw):
    """A pointed-category document; two in three have one part replaced by a
    JSON leaf or an object name, or dropped."""
    doc = json.loads(draw(st.sampled_from(_POINTED)))
    if draw(st.integers(1, 3)) == 2:
        return doc
    names = st.sampled_from(["x", "y", "z", "pt", "*"])
    return _mutated(draw, doc, st.one_of(_JSON_LEAF, names))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(doc=_pointed_docs(), verb=st.sampled_from(["cone", "suspend"]))
def test_cone_and_suspend_exit_0_or_2_on_any_document(doc, verb):
    """A cone or suspension exits 0, anything malformed 2 with one error
    line; never a traceback."""
    code, out, err = _run_on([verb, "--json"], doc)
    if code == 2:
        _assert_input_error(out, err)
    else:
        assert code == 0
        assert err == ""
        report = json.loads(out)
        assert report["basepoint"] in report["category"]["objects"]


@st.composite
def _presentation_files(draw):
    """A presentation document (names may repeat, dangle or clash); half
    have one part replaced by a JSON leaf or dropped."""
    doc = draw(presentation_docs())
    if draw(st.booleans()):
        return doc
    return _mutated(draw, doc)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(doc=_presentation_files(), to_finite=st.booleans())
def test_check_exits_0_1_or_2_on_any_document(doc, to_finite):
    """A report exits 0, a hom-set past the bound 1, anything malformed 2
    with one error line; never a traceback."""
    verb = ["check", "--json", "--bound", "8", "--budget", "40"]
    code, out, err = _run_on(verb + ["--to-finite"] * to_finite, doc)
    if code == 2:
        _assert_input_error(out, err)
    else:
        assert err == ""
        report = json.loads(out)
        assert code == (1 if report.get("finite") is False else 0)
        assert ("finite" in report) == (to_finite and report["complete"])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(doc=_presentation_files())
def test_cw_classify_exits_0_1_or_2_on_any_document(doc):
    """A CW dimension exits 0, ``NotCW`` or ``NotDecided`` 1, anything
    malformed 2 with one error line; never a traceback."""
    code, out, err = _run_on(["cw-classify", "--json", "--bound", "8", "--budget", "40"], doc)
    if code == 2:
        _assert_input_error(out, err)
    else:
        assert err == ""
        verdict = json.loads(out)["verdict"]
        assert code == (0 if verdict in ("Dim0", "Dim1", "Dim2") else 1)
        assert verdict in ("Dim0", "Dim1", "Dim2", "NotCW", "NotDecided")


_CATEGORIES = [
    cat.to_json()
    for cat in (
        terminal_cat(), discrete2(), arrow_cat(), interval_cat(), c2_cat(), c3_cat(),
        path2_cat(), build(["x"], [("t", "x", "x")]),  # the last is infinite
    )
]
_SPACES = [
    space.to_json() for space in (sierpinski(), discrete_two_point(), pseudocircle_base())
] + [json.dumps({"points": ["p"], "opens": [[], ["p"]]})]


@st.composite
def _two_docs(draw, firsts, seconds):
    """A pair of documents; one in two has one part of one of them replaced
    by a JSON leaf or a name, or dropped."""
    docs = [json.loads(draw(st.sampled_from(firsts))), json.loads(draw(st.sampled_from(seconds)))]
    if draw(st.booleans()):
        i = draw(st.integers(0, 1))
        names = st.sampled_from(["x", "t", "u", "a", "p"])
        docs[i] = _mutated(draw, docs[i], st.one_of(_JSON_LEAF, names))
    return docs


@settings(derandomize=True, max_examples=200, deadline=None)
@given(docs=_two_docs(_CATEGORIES, _CATEGORIES))
def test_equiv_exits_0_1_or_2_on_any_documents(docs):
    """An equivalence exits 0, none 1, anything malformed or past a bound 2
    with one error line; never a traceback."""
    verb = ["equiv", "--json", "--bound", "8", "--budget", "40", "--product-bound", "2000"]
    code, out, err = _run_on(verb, *docs)
    if code == 2:
        _assert_input_error(out, err)
    else:
        assert code in (0, 1)
        assert err == ""
        assert json.loads(out)["equivalent"] is (code == 0)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(docs=_two_docs(_CATEGORIES, _SPACES))
def test_sheaf_unit_exits_0_1_or_2_on_any_documents(docs):
    """A unit isomorphism exits 0, a failed one 1, anything malformed 2 with
    one error line; never a traceback."""
    code, out, err = _run_on(["sheaf-unit", "--json", "--bound", "8", "--budget", "40"], *docs)
    if code == 2:
        _assert_input_error(out, err)
    else:
        assert code in (0, 1)
        assert err == ""
        assert json.loads(out)["unit_iso"] is (code == 0)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(docs=_two_docs(_CATEGORIES, _SPACES))
def test_sheaf_classify_exits_0_1_or_2_on_any_documents(docs):
    """A CW sheaf exits 0, ``NotCW`` 1, anything malformed or a disconnected
    space 2 with one error line; never a traceback."""
    code, out, err = _run_on(["sheaf-classify", "--json", "--bound", "8", "--budget", "40"], *docs)
    if code == 2:
        _assert_input_error(out, err)
    else:
        assert err == ""
        verdict = json.loads(out)["verdict"]
        assert verdict in ("CW", "NotCW")
        assert code == (0 if verdict == "CW" else 1)

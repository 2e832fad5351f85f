"""The reference models give the known orders, and the generated
presentations hold in them.  Run: python3 -m pytest perfbench/tests -q"""

import math
import subprocess
import sys
from pathlib import Path

import pytest

import presentations as pres
from reference import (
    AbelianModel,
    ChaoticModel,
    DihedralModel,
    coxeter_model,
    model_for,
    space_is_connected,
)


@pytest.mark.parametrize(
    "kind, rank, order",
    [
        ("A", 3, math.factorial(4)),
        ("A", 4, math.factorial(5)),
        ("A", 5, math.factorial(6)),
        ("B", 3, 2**3 * math.factorial(3)),
        ("B", 4, 2**4 * math.factorial(4)),
        ("D", 4, 2**3 * math.factorial(4)),
        ("H", 3, 120),
    ],
)
def test_coxeter_orders(kind, rank, order):
    model = coxeter_model(kind, rank)
    assert model.order == order
    assert len(model.elements()) == order


@pytest.mark.parametrize("k", [3, 12, 40])
def test_dihedral_order(k):
    assert len(DihedralModel(k).elements()) == 2 * k


@pytest.mark.parametrize("a, b", [(2, 1), (4, 6), (8, 12)])
def test_abelian_order(a, b):
    assert len(AbelianModel(a, b).elements()) == a * b


@pytest.mark.parametrize("n", [2, 5, 9])
def test_chaotic_order(n):
    names = [f"o{i}" for i in range(n)]
    assert len(ChaoticModel(names).elements()) == n * n


PRESENTATIONS = [
    pres.coxeter("A", 4),
    pres.coxeter("B", 3, "t."),
    pres.coxeter("D", 4),
    pres.coxeter("H", 3),
    pres.dihedral(13, "d."),
    pres.abelian(4, 6),
    pres.chaotic(4, "c."),
]


@pytest.mark.parametrize("p", PRESENTATIONS, ids=lambda p: str(p["spec"]))
def test_relations_hold_in_the_model(p):
    model = model_for(p["spec"])
    for r in p["doc"]["relations"]:
        lhs = model.evaluate(r["lhs"]["at"], r["lhs"]["gens"])
        assert lhs == model.evaluate(r["rhs"]["at"], r["rhs"]["gens"])


def test_a_wrong_word_evaluates_differently():
    model = model_for(pres.coxeter("A", 3)["spec"])
    assert model.evaluate("*", ["s0", "s1"]) != model.evaluate("*", ["s1", "s0"])


def test_space_connectedness():
    assert space_is_connected(["u", "v"], [[], ["u"], ["u", "v"]])
    assert not space_is_connected(["u", "v"], [[], ["u"], ["v"], ["u", "v"]])
    # two points joined through a third, closed one
    assert space_is_connected(["a", "b", "c"], [[], ["a"], ["b"], ["a", "b"], ["a", "b", "c"]])


def test_reference_side_does_not_import_catcw():
    here = Path(__file__).resolve().parents[1]
    code = "import sys, reference, presentations, workloads; print('catcw' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], cwd=here, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"

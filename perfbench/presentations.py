"""Presentations the workloads draw from, as catcw JSON documents.

Each builder returns ``{"spec": ..., "doc": ...}``: ``doc`` is what catcw's
``from_json`` reads, ``spec`` names the family and parameters so that
``reference.model_for`` can rebuild an independent model.  A ``tag``
prefixes every object and generator name, which makes two presentations of
the same group differ as JSON without changing the work they cost.
"""

from __future__ import annotations

from reference import coxeter_matrix


def _rel(at: str, lhs, rhs) -> dict:
    return {"lhs": {"at": at, "gens": list(lhs)}, "rhs": {"at": at, "gens": list(rhs)}}


def _one_object(tag: str, names, rels, invertible) -> dict:
    at = tag + "*"
    return {
        "objects": [at],
        "generators": [{"name": tag + g, "src": at, "dst": at} for g in names],
        "relations": [
            _rel(at, [tag + g for g in lhs], [tag + g for g in rhs]) for lhs, rhs in rels
        ],
        "invertible": [tag + g for g in invertible],
    }


def coxeter(kind: str, rank: int, tag: str = "") -> dict:
    """Coxeter presentation: s_i s_i = 1 and the braid relations."""
    m = coxeter_matrix(kind, rank)
    names = [f"s{i}" for i in range(rank)]
    rels = [((g, g), ()) for g in names]
    for i in range(rank):
        for j in range(i + 1, rank):
            a, b = names[i], names[j]
            lhs = [(a, b)[t % 2] for t in range(m[i][j])]
            rhs = [(b, a)[t % 2] for t in range(m[i][j])]
            rels.append((lhs, rhs))
    spec = {"family": "coxeter", "kind": kind, "rank": rank, "tag": tag}
    return {"spec": spec, "doc": _one_object(tag, names, rels, names)}


def dihedral(k: int, tag: str = "") -> dict:
    """D_k of order 2k: r^k = 1, f f = 1, r f = f r^(k-1)."""
    rels = [(("r",) * k, ()), (("f", "f"), ()), (("r", "f"), ("f",) + ("r",) * (k - 1))]
    spec = {"family": "dihedral", "k": k, "tag": tag}
    return {"spec": spec, "doc": _one_object(tag, ["r", "f"], rels, ["f"])}


def abelian(a: int, b: int, tag: str = "") -> dict:
    """Z_a x Z_b: x^a = 1, y^b = 1, y x = x y."""
    rels = [(("x",) * a, ()), (("y",) * b, ()), (("y", "x"), ("x", "y"))]
    spec = {"family": "abelian", "a": a, "b": b, "tag": tag}
    return {"spec": spec, "doc": _one_object(tag, ["x", "y"], rels, [])}


def chaotic_doc(objs: list[str]) -> dict:
    """chaotic on ``objs``: every composable pair of generators collapses."""
    gens = [(f"{x}>{y}", x, y) for x in objs for y in objs if x != y]
    rels = []
    for name1, x, y in gens:
        for name2, y2, z in gens:
            if y2 == y:
                rels.append(_rel(x, [name1, name2], [] if x == z else [f"{x}>{z}"]))
    return {
        "objects": list(objs),
        "generators": [{"name": g, "src": s, "dst": d} for g, s, d in gens],
        "relations": rels,
        "invertible": [g for g, _, _ in gens],
    }


def chaotic(n: int, tag: str = "") -> dict:
    objs = [f"{tag}o{i}" for i in range(n)]
    return {"spec": {"family": "chaotic", "objects": objs, "tag": tag}, "doc": chaotic_doc(objs)}


def braid_monoid(tag: str = "") -> dict:
    """The positive braid monoid <a, b | aba = bab>.

    It has no finite complete rewriting system on {a, b} (Kapur and
    Narendran, 1985), so bounded completion must end undecided.
    """
    spec = {"family": "braid", "tag": tag}
    return {"spec": spec, "doc": _one_object(tag, ["a", "b"], [(("a", "b", "a"), ("b", "a", "b"))], [])}

"""One query per input: the calls into catcw, each inside a tracer span, and
the check of the verdict against the reference models.

``run_query`` returns "verdict" for a checked answer and "undecided" for an
answer that is correctly not decided within bounds; it raises
``WrongVerdict`` for a wrong answer and lets the typed undecided errors of
catcw (``UNDECIDED``) propagate for the caller to classify.
"""

from __future__ import annotations

import random

import catcw
from catcw import K0Witness, Path, PointedCategory

from reference import model_for, space_is_connected

UNDECIDED = (
    catcw.IncompleteSystem,
    catcw.NotDecided,
    catcw.SearchSpaceTooLarge,
    catcw.CompletionBudgetExceeded,
    catcw.NotFinite,
)
DEFAULT_BUDGET = 500  # catcw's default rule budget, so completions are shared
GROUPOID_BUDGET = 2000
TABLE_BOUND = 256
CELLS_CHECKED = 64


class WrongVerdict(Exception):
    """The program's answer disagrees with the reference."""


class Session:
    """What one phase of a run keeps between queries.

    ``systems`` maps a write's id to its completed rewriting system, its
    reference model and its presentation; reads look their target up here.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.systems: dict[str, tuple] = {}


def run_query(q: dict, s: Session) -> str:
    return _KINDS[q["kind"]](q, s)


def _complete(cat, budget: int, t):
    with t.span("fpcat.complete"):
        rs = cat.completion(budget)
    t.count("fpcat.complete.calls")
    t.count("fpcat.complete.rules", len(rs.rules))
    if not rs.complete:
        t.count("fpcat.complete.exhausted")
    return rs


def _to_finite(cat, bound: int, budget: int, t):
    with t.span("fpcat.to_finite"):
        fin = catcw.to_finite(cat, bound, budget)
    t.count("fpcat.to_finite.calls")
    t.count("fpcat.to_finite.morphisms", fin.n)
    t.count("fpcat.to_finite.cells", len(fin.compose_table))
    return fin


def _normalize(rs, path, t):
    with t.span("kernel.normalize"):
        nf = rs.normalize(path)
    t.count("kernel.normalize.calls")
    t.count("kernel.normalize.letters", len(path.gens))
    return nf


# ---------------------------------------------------------------------------
# finite_tables


def _table(q: dict, s: Session) -> str:
    t = s.tracer
    cat = catcw.from_json(q["pres"]["doc"])
    _complete(cat, q["budget"], t)
    fin = _to_finite(cat, TABLE_BOUND, q["budget"], t)
    if t.enabled:
        with t.span("fpcat.validate"):
            fin.validate()
    check_table(fin, model_for(q["pres"]["spec"]), q["check_seed"])
    return "verdict"


def check_table(fin, model, seed: int) -> None:
    """Size, distinct elements, identities and sampled cells of a table."""
    if fin.n != model.order:
        raise WrongVerdict(f"{fin.n} morphisms, expected {model.order}")
    elems = [model.evaluate(p.at, p.gens) for p in fin.paths]
    if len(set(elems)) != fin.n:
        raise WrongVerdict("two normal forms name the same morphism")
    for x, i in fin.identities.items():
        if elems[i] != model.identity(x):
            raise WrongVerdict(f"identity of {x!r} is not the identity")
    by_src: dict[str, list[int]] = {}
    for i in range(fin.n):
        by_src.setdefault(fin.mor_src[i], []).append(i)
    rng = random.Random(seed)
    for _ in range(CELLS_CHECKED):
        f = rng.randrange(fin.n)
        g = rng.choice(by_src[fin.mor_dst[f]])
        if elems[fin.compose(f, g)] != model.compose(elems[f], elems[g]):
            raise WrongVerdict(f"table cell ({f}, {g}) is wrong")


# ---------------------------------------------------------------------------
# word_problem

WRITE_CHECK_WORDS = 4
WRITE_CHECK_LEN = 24


def _walk(doc: dict, rng: random.Random, length: int) -> Path:
    """A seeded composable word of ``length`` generators."""
    out: dict[str, list[str]] = {}
    for g in doc["generators"]:
        out.setdefault(g["src"], []).append(g["name"])
    dst = {g["name"]: g["dst"] for g in doc["generators"]}
    at = rng.choice(doc["objects"])
    cur, word = at, []
    for _ in range(length):
        name = rng.choice(out[cur])
        word.append(name)
        cur = dst[name]
    return Path(at, tuple(word))


def _insert_loops(doc: dict, rng: random.Random, p: Path, count: int) -> Path:
    """``p`` with ``count`` relator loops (relation sides equal to an identity)
    spliced in where the walk passes their base object."""
    dst = {g["name"]: g["dst"] for g in doc["generators"]}
    loops: dict[str, list[list[str]]] = {}
    for r in doc["relations"]:
        if not r["rhs"]["gens"]:
            loops.setdefault(r["lhs"]["at"], []).append(r["lhs"]["gens"])
    word = list(p.gens)
    for _ in range(count):
        at = rng.randrange(len(word) + 1)
        obj = p.at
        for name in word[:at]:
            obj = dst[name]
        if obj in loops:
            word[at:at] = rng.choice(loops[obj])
    return Path(p.at, tuple(word))


def _write(q: dict, s: Session) -> str:
    t = s.tracer
    p = q["pres"]
    cat = catcw.from_json(p["doc"])
    rs = _complete(cat, q["budget"], t)
    if p["spec"]["family"] == "braid":
        if rs.complete:
            raise WrongVerdict("completed a monoid with no finite complete system")
        return "undecided"
    if not rs.complete:
        return "undecided"
    model = model_for(p["spec"])
    for lhs, rhs in rs.rules:
        if model.evaluate(lhs.at, lhs.gens) != model.evaluate(rhs.at, rhs.gens):
            raise WrongVerdict(f"rule {lhs} -> {rhs} does not hold")
    rng = random.Random(q["check_seed"])
    for _ in range(WRITE_CHECK_WORDS):
        w = _walk(p["doc"], rng, WRITE_CHECK_LEN)
        w2 = _insert_loops(p["doc"], rng, w, 3)
        nf = _normalize(rs, w, t)
        if _normalize(rs, w2, t) != nf:
            raise WrongVerdict(f"two words for one morphism normalize apart: {w.gens}")
        if model.evaluate(nf.at, nf.gens) != model.evaluate(w.at, w.gens):
            raise WrongVerdict(f"normal form of {w.gens} names another morphism")
    s.systems[q["id"]] = (rs, model, p)
    return "verdict"


def _read(q: dict, s: Session) -> str:
    t = s.tracer
    if q["of"] not in s.systems:  # a replayed read carries its presentation
        _write({"id": q["of"], "pres": q["pres"], "budget": DEFAULT_BUDGET, "check_seed": 0}, s)
    rs, model, _ = s.systems[q["of"]]
    w = Path(q["at"], tuple(q["word"]))
    nf = _normalize(rs, w, t)
    if _normalize(rs, Path(q["at"], tuple(q["word2"])), t) != nf:
        raise WrongVerdict("a word and its relator-padded copy normalize apart")
    if model.evaluate(nf.at, nf.gens) != model.evaluate(w.at, w.gens):
        raise WrongVerdict("normal form names another element")
    return "verdict"


# ---------------------------------------------------------------------------
# homotopy


def _k0(q: dict, s: Session) -> str:
    t = s.tracer
    cat = catcw.from_json(q["doc"])
    _complete(cat, DEFAULT_BUDGET, t)
    with t.span("ktheory.k0_witness"):
        w = catcw.k0_vanishing_witness(PointedCategory(cat, q["basepoint"]))
    with t.span("ktheory.replay"):
        stored = w.to_json()
        again = K0Witness.from_json(stored)
        ok = w.replay() and again.replay()
    if not ok:
        raise WrongVerdict("K0 witness does not replay")
    if again.to_json() != stored:
        raise WrongVerdict("K0 witness JSON round trip is not byte-identical")
    return "verdict"


def _cw(q: dict, s: Session) -> str:
    t = s.tracer
    with t.span("cw.build"):
        X = catcw.build_two_complex(catcw.GroupoidPresentation.from_json(q["gp"]))
    _complete(X, DEFAULT_BUDGET, t)
    with t.span("cw.classify"):
        v = catcw.cw_classify(X)
    if v.kind == "NotCW":
        raise WrongVerdict(f"a two-complex classified NotCW: {v.witness}")
    return "verdict"


def _groupoid(q: dict, s: Session) -> str:
    t = s.tracer
    P = catcw.from_json(q["pres"]["doc"])
    _complete(P, GROUPOID_BUDGET, t)
    G = _to_finite(P, 64, GROUPOID_BUDGET, t)
    if G.n != model_for(q["pres"]["spec"]).order:
        raise WrongVerdict(f"groupoid has {G.n} morphisms")
    with t.span("cw.build"):
        X = catcw.build_two_complex(catcw.read_off_presentation(G))
    _complete(X, GROUPOID_BUDGET, t)
    rebuilt = _to_finite(X, 64, GROUPOID_BUDGET, t)
    with t.span("model_structure.search"):
        found = catcw.find_equivalence(rebuilt, G)
    t.count("model_structure.search.calls")
    if found is None:
        raise WrongVerdict("rebuilt groupoid is not equivalent to the original")
    return "verdict"


def _span(q: dict, s: Session) -> str:
    t = s.tracer
    A, B, C = (catcw.from_json(q[k]) for k in "ABC")
    f = catcw.functor_from_json(A, B, q["f"])
    g = catcw.functor_from_json(A, C, q["g"])
    for cat in (A, B, C):
        _complete(cat, DEFAULT_BUDGET, t)
    with t.span("colimits.pushout"):
        po = catcw.pushout(f, g)
    with t.span("colimits.verify"):
        ok = po.verify()
    if not ok:
        raise WrongVerdict("pushout square does not commute")
    with t.span("colimits.pushout"):
        src_cone = catcw.chaotic(A.objects)
        pf = catcw.cone_map(f, src_cone, catcw.chaotic(B.objects))
        pg = catcw.cone_map(g, src_cone, catcw.chaotic(C.objects))
        apex_of_cones = catcw.pushout(pf, pg).apex
        cone_of_apex = catcw.chaotic(po.apex.objects)
    T1 = _to_finite(cone_of_apex, 64, DEFAULT_BUDGET, t)
    T2 = _to_finite(apex_of_cones, 16, DEFAULT_BUDGET, t)
    with t.span("model_structure.search"):
        iso = catcw.find_isomorphism(T1, T2)
    t.count("model_structure.search.calls")
    if iso is None:
        raise WrongVerdict("cone of the pushout is not the pushout of the cones")
    return "verdict"


def _unit(q: dict, s: Session) -> str:
    t = s.tracer
    cat = catcw.from_json(q["A"])
    _complete(cat, DEFAULT_BUDGET, t)
    A = _to_finite(cat, 64, DEFAULT_BUDGET, t)
    space = catcw.space_from_json(q["space"])
    with t.span("sheaftopos.unit_check"):
        r = catcw.unit_check(A, space)
    t.count("sheaftopos.unit_check.calls")
    t.count("sheaftopos.opens", len(space.opens))
    if space_is_connected(q["space"]["points"], q["space"]["opens"]):
        if not isinstance(r, catcw.IsoCertificate):
            raise WrongVerdict(f"connected space, but unit_check gave {r}")
    elif not (isinstance(r, catcw.UnitFailure) and r.reason == "object_count"):
        raise WrongVerdict(f"disconnected space, but unit_check gave {r}")
    return "verdict"


_KINDS = {
    "table": _table,
    "write": _write,
    "read": _read,
    "k0": _k0,
    "cw": _cw,
    "groupoid": _groupoid,
    "span": _span,
    "unit": _unit,
}

"""Spheres, cell attachment, explicit one- and two-complex builders, and the
CW classifier.

A zero-sphere is two bare points; higher spheres are iterated one-sided
homotopy pushouts of the collapse to a point.  Attaching cells of dimension n
pushes the base out along a coproduct of sphere collapses; the cofibrant
replacement inserts chaotic categories for the two-point fibers of dimension
zero and collapses directly in higher dimensions.  The complex builders write
out in one pass, names and orders included, what cell attachment gives; an
oracle in ``tests/test_cw.py`` pins that.  The classifier implements the
dimension ladder: not a groupoid means not CW at all, trivial automorphism
groups mean dimension 0, syntactically free ones mean dimension 1, and any
groupoid sits in dimension 2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from .colimits import coproduct, one_sided_homotopy_pushout
from .fpcat import (
    DEFAULT_HOM_BOUND,
    DEFAULT_RULE_BUDGET,
    CatError,
    DuplicateName,
    FiniteCategory,
    FpCategory,
    Functor,
    IncompleteSystem,
    NotFinite,
    Path,
    terminal,
    _canonical_json,
    _finite,
    _from_tuples,
    _json_list,
    _json_names,
    _json_object,
    _shared,
)
from .model_structure import (
    INVERSE_CANDIDATES,
    INVERSE_WORD_LEN,
    NotDecided,
    _inverses_found,
    groupoid_witness,
    is_groupoid,
)


class MixedDimensions(CatError):
    """attach_cells got cells of different dimensions in one call."""


class NegativeDimension(CatError, ValueError):
    """sphere() got a dimension below zero.

    A ``ValueError`` too, so callers that caught the untyped error still do.
    """

    def __init__(self, n: int):
        self.n = n
        super().__init__(f"sphere dimension must be nonnegative, got {n}")


_SPHERES: dict[int, FpCategory] = {}


def point_collapse(cat: FpCategory, pt: FpCategory | None = None) -> Functor:
    """The unique functor to the one-object category."""
    if pt is None:
        pt = terminal()
    name = pt.objects[0]
    return Functor(
        cat,
        pt,
        {x: name for x in cat.objects},
        {g.name: Path(name) for g in cat.quiver.generators},
    )


def sphere(n: int) -> FpCategory:
    """The n-sphere presentation (one fixed representative per dimension)."""
    if n < 0:
        raise NegativeDimension(n)
    got = _SPHERES.get(n)
    if got is not None:
        return got
    if n == 0:
        out = coproduct([terminal(), terminal()]).apex
    else:
        prev = sphere(n - 1)
        p = point_collapse(prev)
        out = one_sided_homotopy_pushout(p, p).apex
    _SPHERES[n] = out
    return out


def attach_cells(
    base: FpCategory, attachments: Sequence[tuple[int, Functor]]
) -> FpCategory:
    """Glue cells along their attaching functors (all of one dimension)."""
    if not attachments:
        return base
    dims = {d for d, _ in attachments}
    if len(dims) > 1:
        raise MixedDimensions(f"cell dimensions differ: {sorted(dims)}")
    sources = [F.source for _, F in attachments]
    co = coproduct(sources)
    object_map: dict[str, str] = {}
    gen_map: dict[str, Path] = {}
    for inj, (_, F) in zip(co.injections, attachments):
        for x in F.source.objects:
            object_map[inj.apply_obj(x)] = F.apply_obj(x)
        for g in F.source.quiver.generators:
            img = inj.gen_map[g.name]
            gen_map[img.gens[0]] = F.gen_map[g.name]
    attach = Functor(co.apex, base, object_map, gen_map)
    points = coproduct([terminal() for _ in attachments])
    collapse_obj = {}
    collapse_gen = {}
    for inj, pinj in zip(co.injections, points.injections):
        pt = pinj.apply_obj("pt")
        for x in inj.source.objects:
            collapse_obj[inj.apply_obj(x)] = pt
        for g in inj.source.quiver.generators:
            collapse_gen[inj.gen_map[g.name].gens[0]] = Path(pt)
    collapse = Functor(co.apex, points.apex, collapse_obj, collapse_gen)
    return one_sided_homotopy_pushout(attach, collapse).apex


def _check_distinct(names: Sequence[str], kind: str) -> None:
    seen: set[str] = set()
    for x in names:
        if x in seen:
            raise DuplicateName(f"{kind} {x!r} declared twice")
        seen.add(x)


def _assemble(parts: Sequence[tuple]) -> FpCategory:
    """The coproduct of two-complexes that cell attachment gives, in one pass.

    Part k is (S, T, words): at a basepoint ``*``, a loop per entry of S, an
    edge to each extra object in T, and a two-cell per word, relating the
    word and its inverse to the identity (an empty word relates nothing).
    ``words`` None means a one-complex, whose loop names are never read.  The
    names are the colimits': ``k.`` from the coproduct, ``L.`` from
    ``attach_cells`` when there are words, and the one-complex's own, a
    pushout of ``["*", *T]`` (``L.``) and a chaotic cylinder on ``e.0.pt``,
    ``e.1.pt`` per edge e (``R.``).  The result is shared between equal
    inputs (``fpcat._shared``), keyed by the plain tuples assembled here.
    """
    objects: list[str] = []
    gens: list[tuple[str, str, str]] = []
    rels: list[tuple] = []
    mates: list[tuple[str, str]] = []
    for k, (S, T, words) in enumerate(parts):
        _check_distinct(("*", *T), "object")
        if words is not None:
            _check_distinct(S, "generator")
        p = f"{k}.L." if words else f"{k}."
        bp = p + ("L.*" if S or T else "*")
        ends = [f"{p}L.{t}" for t in T]
        objects += [bp, *ends]
        names: list[str] = []  # edge e is names[2e], its mate names[2e + 1]
        for e, dst in enumerate([bp] * len(S) + ends):
            g, m = f"{p}R.{e}.0.pt>1.pt", f"{p}R.{e}.1.pt>0.pt"
            gens += ((g, bp, dst), (m, dst, bp))
            rels += ((bp, (g, m), bp, ()), (dst, (m, g), dst, ()))
            mates += ((g, m), (m, g))
            names += (g, m)
        letter = {s: 2 * e for e, s in enumerate(S)}
        for word in words or ():
            w = []
            for token in word:
                name = token.removesuffix("^-1")
                if name not in letter:
                    raise CatError(f"relation token {token!r} names no generator")
                w.append(letter[name] + (name != token))
            if w:
                rels.append((bp, tuple(names[a] for a in w), bp, ()))
                rels.append((bp, tuple(names[a ^ 1] for a in reversed(w)), bp, ()))
    return _shared(_from_tuples, tuple(objects), tuple(gens), tuple(rels), tuple(mates))


def build_one_complex(components: Sequence[tuple[Sequence[str], Sequence[str]]]) -> FpCategory:
    """Coproduct of free one-complexes, one per (S, T) component."""
    return _assemble([(S, tuple(T), None) for S, T in components])


@dataclass(frozen=True)
class GroupoidComponent:
    extra_objects: tuple[str, ...]
    generators: tuple[str, ...]
    relations: tuple[tuple[str, ...], ...]  # words in "a" / "a^-1" tokens

    def __post_init__(self):
        object.__setattr__(self, "extra_objects", tuple(self.extra_objects))
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "relations", tuple(tuple(w) for w in self.relations))


@dataclass(frozen=True)
class GroupoidPresentation:
    components: tuple[GroupoidComponent, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))

    def to_json_obj(self) -> dict:
        return {
            "components": [
                {
                    "extra_objects": list(c.extra_objects),
                    "generators": list(c.generators),
                    "relations": [list(w) for w in c.relations],
                }
                for c in self.components
            ]
        }

    def to_json(self) -> str:
        return _canonical_json(self.to_json_obj())

    @staticmethod
    def from_json(doc: Union[str, Mapping]) -> "GroupoidPresentation":
        obj = _json_object(json.loads(doc) if isinstance(doc, str) else doc, "presentation")
        comps = []
        for c in _json_list(obj["components"], "components"):
            c = _json_object(c, "components")
            comps.append(
                GroupoidComponent(
                    _json_names(c["extra_objects"], "extra_objects"),
                    _json_names(c["generators"], "generators"),
                    [_json_names(w, "relations") for w in _json_list(c["relations"], "relations")],
                )
            )
        return GroupoidPresentation(comps)


def build_two_complex(gp: GroupoidPresentation) -> FpCategory:
    """Free one-complex per component, then one relation cell per word."""
    return _assemble([(c.generators, c.extra_objects, c.relations) for c in gp.components])


def read_off_presentation(G: FiniteCategory) -> GroupoidPresentation:
    """Cayley-style presentation of a finite groupoid, component by component.

    Generators are all non-identity automorphisms of each component's first
    object; relations are the full multiplication table among them.
    """
    if not is_groupoid(G):
        raise CatError("read_off_presentation needs a groupoid")
    # in a groupoid the component of x is every object x has an arrow to
    placed: set[str] = set()
    comps: list[list[str]] = []
    for x in G.objects:
        if x in placed:
            continue
        members = [z for z in G.objects if z not in placed and G.hom(x, z)]
        placed.update(members)
        comps.append(members)
    out: list[GroupoidComponent] = []
    for members in comps:
        bp = members[0]
        extra = tuple(members[1:])
        auts = [i for i in G.hom(bp, bp) if not G.is_identity(i)]
        name = {i: f"g{i}" for i in auts}
        rels: list[tuple[str, ...]] = []
        for f in auts:
            for h in auts:
                c = G.compose_table[(f, h)]
                if G.is_identity(c):
                    rels.append((name[f], name[h]))
                else:
                    rels.append((name[f], name[h], name[c] + "^-1"))
        out.append(GroupoidComponent(extra, tuple(name[i] for i in auts), tuple(rels)))
    return GroupoidPresentation(tuple(out))


@dataclass
class CwVerdict:
    kind: str  # "NotCW" | "Dim0" | "Dim1" | "Dim2"
    witness: object = None
    note: str | None = None


def _classify_finite(C: FiniteCategory) -> CwVerdict:
    w = groupoid_witness(C)
    if w is not None:
        return CwVerdict("NotCW", witness=(w, C.labels[w]))
    if all(len(C.hom(x, x)) == 1 for x in C.objects):
        return CwVerdict("Dim0", witness="all automorphism groups trivial")
    return CwVerdict("Dim2", witness=dict(C.inverses()))


def _mate_pairs(cat: FpCategory) -> list[tuple[str, str]]:
    idx = cat.quiver.gen_index
    pairs = []
    for g in cat.quiver.generators:
        m = cat.inverses.get(g.name)
        if m is None:
            continue
        if idx[g.name] <= idx[m]:
            pairs.append((g.name, m))
    return pairs


def _syntactically_free(cat: FpCategory) -> dict[str, tuple[str, ...]] | None:
    """Spanning-forest freeness witness, or None when the check fails.

    The presentation is free-after-splitting-mates when every generator is
    half of a two-element mate pair and every relation is one of the pairs'
    unit relations.  The witness maps each component root to the loops left
    over once a spanning forest of mate-pair edges is removed.
    """
    pairs = _mate_pairs(cat)
    paired = set()
    for a, b in pairs:
        if a == b:
            return None  # a self-inverse generator is a genuine relation
        paired.add(a)
        paired.add(b)
    if paired != {g.name for g in cat.quiver.generators}:
        return None
    mates = {*pairs, *((b, a) for a, b in pairs)}
    for l, r in cat.relations:
        if (l.gens and r.gens) or (l.gens or r.gens) not in mates:
            return None
    adj: dict[str, list[tuple[str, tuple[str, str]]]] = {x: [] for x in cat.objects}
    for a, b in pairs:
        g = cat.quiver.gen_by_name[a]
        adj[g.src].append((g.dst, (a, b)))
        adj[g.dst].append((g.src, (a, b)))
    seen_obj: set[str] = set()
    tree_pairs: set[tuple[str, str]] = set()
    witness: dict[str, tuple[str, ...]] = {}
    for root in cat.objects:
        if root in seen_obj:
            continue
        seen_obj.add(root)
        frontier = [root]
        members = {root}
        while frontier:
            x = frontier.pop(0)
            for y, pair in adj[x]:
                if y not in members:
                    members.add(y)
                    seen_obj.add(y)
                    tree_pairs.add(pair)
                    frontier.append(y)
        free = tuple(
            a for a, b in pairs
            if (a, b) not in tree_pairs and cat.quiver.gen_by_name[a].src in members
        )
        witness[root] = free
    return witness


def cw_classify(
    C: Union[FpCategory, FiniteCategory],
    bound: int = DEFAULT_HOM_BOUND,
    budget: int = DEFAULT_RULE_BUDGET,
) -> CwVerdict:
    """Least CW dimension of a category, with a witness for the verdict."""
    if isinstance(C, FiniteCategory):
        return _classify_finite(C)
    try:
        return _classify_finite(_finite(C, bound, budget))
    except (NotFinite, IncompleteSystem):
        pass
    # no finite table was built, so only the inverse-word search can decide
    if not _inverses_found(C, budget):
        raise NotDecided(
            f"groupoid status undecided within bounds: rule budget {budget}, "
            f"inverse words of length at most {INVERSE_WORD_LEN}, "
            f"at most {INVERSE_CANDIDATES} candidates per generator"
        )
    free = _syntactically_free(C)
    if free is not None:
        if all(not v for v in free.values()):
            return CwVerdict("Dim0", witness=free)
        return CwVerdict("Dim1", witness=free)
    return CwVerdict(
        "Dim2",
        witness={g: m for g, m in C.inverses.items()},
        note="freeness not witnessed syntactically",
    )

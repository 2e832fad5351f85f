"""Colimits of presentations and the one-sided homotopy pushout.

Pushouts are computed on presentations: objects are merged by a union-find
over the span's object identifications, generators and relations are copied
with side prefixes (``L.`` for the left leg's target, ``R.`` for the right),
and each generator of the span's source contributes one identification
relation between its two images.  Callers recover names through the returned
injection functors rather than reconstructing prefixes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .fpcat import (
    DEFAULT_RULE_BUDGET,
    CatError,
    FpCategory,
    Functor,
    Path,
    _from_tuples,
    _is_str,
    _paths,
    build,
    check_functor,
    compose_functors,
    functors_equal,
    share,
)


class EmptySet(CatError):
    """chaotic() needs a nonempty object set."""


@dataclass(frozen=True)
class CoproductResult:
    apex: FpCategory
    injections: tuple[Functor, ...]


@dataclass(frozen=True)
class PushoutResult:
    """A pushout's apex, its injections and the span it was built from: a
    read-only value, kept inside K0 witnesses' certificates."""

    apex: FpCategory
    inj_left: Functor
    inj_right: Functor
    from_span: tuple[Functor, Functor]

    def verify(self, budget: int = DEFAULT_RULE_BUDGET) -> bool:
        """Re-check that the injections are functors and the square commutes."""
        f, g = self.from_span
        if not check_functor(self.inj_left, budget) or not check_functor(self.inj_right, budget):
            return False
        left = compose_functors(f, self.inj_left)
        right = compose_functors(g, self.inj_right)
        return functors_equal(left, right, budget)


def _renamed(cat: FpCategory, prefix: str) -> tuple[list, list, list, list]:
    """``cat``'s objects, generators, relations and mate pairs, every name
    prefixed, as the plain tuples ``_from_tuples`` reads."""

    def names(gens: tuple[str, ...]) -> tuple[str, ...]:
        return tuple(prefix + g for g in gens)

    return (
        [prefix + x for x in cat.objects],
        [(prefix + g.name, prefix + g.src, prefix + g.dst) for g in cat.quiver.generators],
        [
            (prefix + l.at, names(l.gens), prefix + r.at, names(r.gens))
            for l, r in cat.relations
        ],
        [(prefix + a, prefix + b) for a, b in cat.inverses.items()],
    )


def coproduct(cats: Sequence[FpCategory]) -> CoproductResult:
    """Disjoint union with numeric prefixes; injections are cofibrations.

    The apex is shared between equal inputs (``fpcat.share``)."""
    objects: list[str] = []
    gens: list = []
    rels: list = []
    mates: list = []
    for i, cat in enumerate(cats):
        o, g, r, m = _renamed(cat, f"{i}.")
        objects += o
        gens += g
        rels += r
        mates += m
    apex = share(_from_tuples, tuple(objects), tuple(gens), tuple(rels), tuple(mates))
    injections = tuple(
        Functor(
            cat,
            apex,
            {x: f"{i}.{x}" for x in cat.objects},
            {G.name: Path(f"{i}.{G.src}", (f"{i}.{G.name}",)) for G in cat.quiver.generators},
        )
        for i, cat in enumerate(cats)
    )
    return CoproductResult(apex, injections)


class _UnionFind:
    def __init__(self, items: Iterable[str]):
        self.parent = {x: x for x in items}

    def find(self, x: str) -> str:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def pushout(f: Functor, g: Functor) -> PushoutResult:
    """Pushout of the span B <-f- A -g-> C in presentations.

    ``inj_left`` embeds f's target, ``inj_right`` embeds g's target.  Equal
    spans share one result (``fpcat.share``), keyed by what
    the construction reads, as plain tuples: each target's presentation key
    and mate table, and the legs' images of A's objects and generators in
    A's order.  Every equal call gets the one read-only apex, with two new
    injections into it from the caller's B and C, and the caller's legs as
    ``from_span``.
    """
    if f.source != g.source:
        raise CatError("span legs must share their source")
    if not all(isinstance(c, FpCategory) for c in (f.source, f.target, g.target)):
        raise CatError("pushout works on presentations; convert finite inputs first")
    A, B, C = f.source, f.target, g.target
    objects = tuple((f.apply_obj(a), g.apply_obj(a)) for a in A.objects)
    images = []
    for G in A.quiver.generators:
        at, gens = _image(f.gen_map[G.name], "L.", B)  # f's before g's, as the construction reads them
        images.append((at, gens, *_image(g.gen_map[G.name], "R.", C)))
    apex, left, right = share(
        _pushout_parts,
        B._key,
        tuple(B.inverses.items()),
        C._key,
        tuple(C.inverses.items()),
        objects,
        tuple(images),
    )
    return PushoutResult(apex, Functor(B, apex, *left), Functor(C, apex, *right), (f, g))


def _image(p: Path, side: str, target: FpCategory) -> tuple[str, tuple[str, ...]]:
    """``(p.at, p.gens)`` for the key, or the error the construction raises
    on reading ``p`` with ``side`` prefixed: no ``at`` or ``gens``, an
    ``at`` that is no object of ``target``, or a name that is no string.
    Unknown generators and wrong endpoints are found when the apex is
    checked, after every image has been read."""
    at, gens = p.at, p.gens
    if not (_is_str(at) and target.quiver.has_object(at)):
        raise KeyError(side + at)
    if not all(map(_is_str, gens)):
        tuple(side + n for n in gens)  # the TypeError of the first name that is no string
    return at, gens


def _pushout_parts(b_key, b_mates, c_key, c_mates, objects, images):
    """The apex of a span given as ``pushout`` keys it, with each
    injection's object and generator maps.

    Objects are merged by a union-find over the ``(f(a), g(a))`` pairs, and
    each ``(f(a).at, f(a).gens, g(a).at, g(a).gens)`` image pair of a
    generator of A adds one relation unless its sides are equal.
    """
    (b_objects, b_gens, b_rels), (c_objects, c_gens, c_rels) = b_key, c_key
    b_objs = ["L." + x for x in b_objects]
    c_objs = ["R." + x for x in c_objects]
    uf = _UnionFind(b_objs + c_objs)
    for x, y in objects:
        uf.union("L." + x, "R." + y)

    # representative = earliest member in B-then-C declaration order
    first: dict[str, str] = {}
    rep = {name: first.setdefault(uf.find(name), name) for name in b_objs + c_objs}

    def map_path(at: str, gens: tuple[str, ...], side: str) -> tuple[str, tuple[str, ...]]:
        return rep[side + at], tuple(side + n for n in gens)

    gens = [("L." + n, rep["L." + s], rep["L." + d]) for n, s, d in b_gens]
    gens += [("R." + n, rep["R." + s], rep["R." + d]) for n, s, d in c_gens]
    rels = [(*map_path(la, lg, "L."), *map_path(ra, rg, "L.")) for la, lg, ra, rg in b_rels]
    rels += [(*map_path(la, lg, "R."), *map_path(ra, rg, "R.")) for la, lg, ra, rg in c_rels]
    for fa, fg, ga, gg in images:
        li = map_path(fa, fg, "L.")
        ri = map_path(ga, gg, "R.")
        if li != ri:
            rels.append((*li, *ri))
    mates = [("L." + k, "L." + v) for k, v in b_mates]
    mates += [("R." + k, "R." + v) for k, v in c_mates]

    apex = _from_tuples(
        tuple(name for name, r in rep.items() if r == name),
        tuple(gens),
        tuple(rels),
        tuple(mates),
    )
    left = (
        {x: rep["L." + x] for x in b_objects},
        {n: Path(rep["L." + s], ("L." + n,)) for n, s, _ in b_gens},
    )
    right = (
        {x: rep["R." + x] for x in c_objects},
        {n: Path(rep["R." + s], ("R." + n,)) for n, s, _ in c_gens},
    )
    return apex, left, right


def _chaotic_parts(names: Sequence[str]) -> tuple[list[tuple[str, str, str]], list]:
    """Generators ``x>y`` for distinct objects, and a relation collapsing
    every composable pair to the direct generator (or the identity)."""
    gens: list[tuple[str, str, str]] = []
    for x in names:
        for y in names:
            if x != y:
                gens.append((f"{x}>{y}", x, y))
    rels: list = []
    for g1 in gens:
        for g2 in gens:
            if g1[2] != g2[1]:
                continue
            x, z = g1[1], g2[2]
            lhs = Path(x, (g1[0], g2[0]))
            rhs = Path(x) if x == z else Path(x, (f"{x}>{z}",))
            rels.append((lhs, rhs))
    return gens, rels


def chaotic(names: Sequence[str]) -> FpCategory:
    """The chaotic category: one morphism between every ordered pair of objects.

    Generators ``x>y`` for distinct objects; every composable pair collapses
    to the direct generator (or the identity), and every generator is
    invertible with mate the reversed generator.  Equal name lists share
    one read-only presentation (``fpcat.share``).
    """
    return share(_chaotic, *names)


def _chaotic(*names: str) -> FpCategory:
    if not names:
        raise EmptySet("chaotic category needs at least one object")
    gens, rels = _chaotic_parts(names)
    return build(names, gens, rels, invertible=[g[0] for g in gens])


def cofibrant_replacement(g: Functor) -> tuple[Functor, Functor]:
    """Factor ``g: X -> Y`` as a cofibration into a cylinder followed by a
    collapse that is an equivalence surjective on objects.

    Returns ``(incl, proj)`` with ``proj . incl = g`` (on generators).  When
    Y is discrete the cylinder is the fiberwise chaotic category (empty
    fibers keep the bare point); otherwise it is the mapping cylinder of Y
    and X joined by invertible connecting generators with naturality
    relations.
    """
    X, Y = g.source, g.target
    if not Y.quiver.generators:
        fibers: dict[str, list[str]] = {y: [] for y in Y.objects}
        for x in X.objects:
            fibers[g.apply_obj(x)].append(x)
        objects: list[str] = []
        gens: list[tuple[str, str, str]] = []
        rels: list = []
        obj_img: dict[str, str] = {}
        proj_obj: dict[str, str] = {}
        for y in Y.objects:
            fib = fibers[y]
            if not fib:
                objects.append("L." + y)
                proj_obj["L." + y] = y
                continue
            names = ["R." + x for x in fib]
            part_gens, part_rels = _chaotic_parts(names)
            objects += names
            gens += part_gens
            rels += part_rels
            for x in fib:
                obj_img[x] = "R." + x
                proj_obj["R." + x] = y
        cyl = build(objects, gens, rels, invertible=[G[0] for G in gens])
        gen_img: dict[str, Path] = {}
        for G in X.quiver.generators:
            a, b = obj_img[G.src], obj_img[G.dst]
            gen_img[G.name] = Path(a) if a == b else Path(a, (f"{a}>{b}",))
        incl = Functor(X, cyl, obj_img, gen_img)
        proj = Functor(
            cyl,
            Y,
            proj_obj,
            {G.name: Path(proj_obj[G.src]) for G in cyl.quiver.generators},
        )
        return incl, proj

    y_objs, y_gens, y_rels, y_mates = _renamed(Y, "L.")
    x_objs, x_gens, x_rels, x_mates = _renamed(X, "R.")
    objects = y_objs + x_objs
    gens = y_gens + x_gens
    rels = _paths(y_rels + x_rels)
    invertible = [a for a, _ in y_mates + x_mates]
    conn: dict[str, str] = {}
    for x in X.objects:
        name = f"e.{x}"
        conn[x] = name
        gens.append((name, "R." + x, "L." + g.apply_obj(x)))
        invertible.append(name)
    for G in X.quiver.generators:
        img = g.gen_map[G.name]
        lhs = Path("R." + G.src, ("R." + G.name, conn[G.dst]))
        rhs = Path("R." + G.src, (conn[G.src],) + tuple("L." + n for n in img.gens))
        rels.append((lhs, rhs))
    cyl = build(objects, gens, rels, invertible=invertible)
    incl = Functor(
        X,
        cyl,
        {x: "R." + x for x in X.objects},
        {G.name: Path("R." + G.src, ("R." + G.name,)) for G in X.quiver.generators},
    )
    proj_gen: dict[str, Path] = {}
    for G in Y.quiver.generators:
        proj_gen["L." + G.name] = Path(G.src, (G.name,))
    for G in X.quiver.generators:
        proj_gen["R." + G.name] = g.gen_map[G.name]
    for x in X.objects:
        proj_gen[conn[x]] = Path(g.apply_obj(x))
        mate = cyl.inverses[conn[x]]
        proj_gen[mate] = Path(g.apply_obj(x))
    proj_obj = {("L." + y): y for y in Y.objects}
    proj_obj.update({("R." + x): g.apply_obj(x) for x in X.objects})
    proj = Functor(cyl, Y, proj_obj, proj_gen)
    return incl, proj


def one_sided_homotopy_pushout(f: Functor, g: Functor) -> PushoutResult:
    """Pushout of f along a cofibrant replacement of g.

    The right leg is replaced by the cylinder inclusion from
    ``cofibrant_replacement``, so the result computes the homotopy pushout
    whenever f's side needs no replacement.
    """
    incl, _proj = cofibrant_replacement(g)
    return pushout(f, incl)

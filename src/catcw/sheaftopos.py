"""Categories internal to sheaves on finite topological spaces.

Only constant presheaves are sheafified here: the sheafification of the
constant presheaf at a finite category A assigns to each open U the product
category A^{components(U)} (locally constant sections), with restrictions
induced by refinement of connected components.  That is enough to state and
check the unit isomorphism over connected spaces, to exhibit an exotic
attaching map over the discrete two-point space, and to recognize the sheaf
avatars of CW objects as the constant-groupoid sheaves.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Union

from .fpcat import (
    CatError,
    FiniteCategory,
    FiniteFunctor,
    check_functor,
    identity_functor,
    _canonical_json,
    _json_list,
    _json_names,
)
from .colimits import _UnionFind
from .model_structure import all_functors, groupoid_witness, is_groupoid

Open = frozenset


class NotAnOpen(CatError):
    pass


class NotConnected(CatError):
    pass


def _open_key(u: Open) -> tuple:
    return (len(u), tuple(sorted(u)))


class FiniteSpace:
    """A finite set of points with an explicitly listed topology."""

    def __init__(self, points: Sequence[str], opens: Iterable[Iterable[str]]):
        self.points = tuple(points)
        if len(set(self.points)) != len(self.points):
            raise CatError("duplicate point names")
        pset = frozenset(self.points)
        collected = {frozenset(u) for u in opens}
        for u in collected:
            if not u <= pset:
                raise NotAnOpen(f"open {sorted(u)} contains unknown points")
        if frozenset() not in collected or pset not in collected:
            raise CatError("topology must contain the empty set and the full set")
        for u in collected:
            for v in collected:
                if u | v not in collected or u & v not in collected:
                    raise CatError(
                        f"opens not closed under union/intersection: "
                        f"{sorted(u)}, {sorted(v)}"
                    )
        self.opens: tuple[Open, ...] = tuple(sorted(collected, key=_open_key))
        self._open_set = collected

    @property
    def full(self) -> Open:
        return frozenset(self.points)

    def is_open(self, u: Iterable[str]) -> bool:
        return frozenset(u) in self._open_set

    def min_open(self, x: str) -> Open:
        """The smallest open containing x (finite spaces always have one)."""
        if x not in self.points:
            raise CatError(f"unknown point {x!r}")
        out = self.full
        for u in self.opens:
            if x in u:
                out = out & u
        return out

    def to_json_obj(self) -> dict:
        return {
            "points": list(self.points),
            "opens": [sorted(u) for u in self.opens],
        }

    def to_json(self) -> str:
        return _canonical_json(self.to_json_obj())

    def __repr__(self):
        return f"FiniteSpace({len(self.points)} points, {len(self.opens)} opens)"


def space_from_json(doc: Union[str, Mapping]) -> FiniteSpace:
    obj = json.loads(doc) if isinstance(doc, str) else doc
    return FiniteSpace(
        _json_names(obj["points"], "points"),
        [_json_names(u, "opens") for u in _json_list(obj["opens"], "opens")],
    )


def sierpinski() -> FiniteSpace:
    return FiniteSpace(["u", "v"], [[], ["u"], ["u", "v"]])


def discrete_two_point() -> FiniteSpace:
    return FiniteSpace(["u", "v"], [[], ["u"], ["v"], ["u", "v"]])


def pseudocircle_base() -> FiniteSpace:
    """A 3-point connected non-trivial space: two open points under a join."""
    return FiniteSpace(
        ["a", "b", "c"], [[], ["a"], ["b"], ["a", "b"], ["a", "b", "c"]]
    )


def connected_components(space: FiniteSpace, u: Iterable[str]) -> tuple[tuple[str, ...], ...]:
    """Components of the open subspace, via the specialization preorder.

    Two points are linked when one lies in the minimal open of the other;
    components are the transitive closure classes.  Minimal opens inside an
    open subspace agree with those of the whole space.
    """
    uset = frozenset(u)
    if not space.is_open(uset):
        raise NotAnOpen(f"{sorted(uset)} is not an open")
    uf = _UnionFind(uset)
    for x in uset:
        for y in space.min_open(x):
            uf.union(x, y)
    classes: dict[str, list[str]] = {}
    for x in uset:
        classes.setdefault(uf.find(x), []).append(x)
    # by least point, so the output does not depend on the union order
    return tuple(sorted(tuple(sorted(c)) for c in classes.values()))


def is_connected(space: FiniteSpace) -> bool:
    return len(connected_components(space, space.full)) == 1


def require_connected(space: FiniteSpace) -> None:
    """Raise ``NotConnected`` unless the space is connected, as CW recognition needs."""
    if not is_connected(space):
        raise NotConnected("classification requires a connected base space")


# ---------------------------------------------------------------------------
# Product categories with tuple metadata


@dataclass
class ProductMeta:
    """Bookkeeping for A^k: tuple coordinates of every object and morphism."""

    comps: tuple[tuple[str, ...], ...]
    obj_name: dict[tuple, str]
    mor_ix: dict[tuple, int]
    mor_tuple: tuple[tuple, ...]


def _tuple_name(parts: tuple) -> str:
    return "(" + ",".join(parts) + ")"


def product_category(
    base: FiniteCategory, comps: tuple[tuple[str, ...], ...]
) -> tuple[FiniteCategory, ProductMeta]:
    """The product of one copy of ``base`` per connected component.

    Its ``gen_image`` names the axis morphisms, those with exactly one
    non-identity coordinate.  They generate A^k, so ``validate`` runs Light's
    test over k(n - 1) of them instead of every morphism.
    """
    k = len(comps)
    obj_tuples = list(itertools.product(base.objects, repeat=k))
    mor_tuples = list(itertools.product(range(base.n), repeat=k))
    obj_name = {t: _tuple_name(t) for t in obj_tuples}
    objects = [obj_name[t] for t in obj_tuples]
    mor_ix = {t: i for i, t in enumerate(mor_tuples)}
    src_tuples = [tuple(base.mor_src[m] for m in t) for t in mor_tuples]
    dst_tuples = [tuple(base.mor_dst[m] for m in t) for t in mor_tuples]
    mor_src = [obj_name[t] for t in src_tuples]
    mor_dst = [obj_name[t] for t in dst_tuples]
    labels = [_tuple_name(tuple(base.labels[m] for m in t)) for t in mor_tuples]
    # (id, tuple) of the morphisms leaving each object tuple, ids increasing:
    # f composes exactly with those leaving its target
    leaving: dict[tuple[str, ...], list[tuple[int, tuple[int, ...]]]] = {
        t: [] for t in obj_tuples
    }
    for j, (src, gt) in enumerate(zip(src_tuples, mor_tuples)):
        leaving[src].append((j, gt))
    compose = {}
    for i, (dst, ft) in enumerate(zip(dst_tuples, mor_tuples)):
        for j, gt in leaving[dst]:
            compose[(i, j)] = mor_ix[tuple(base.compose_table[fg] for fg in zip(ft, gt))]
    identities = {
        obj_name[t]: mor_ix[tuple(base.identities[x] for x in t)]
        for t in obj_tuples
    }
    axes = {
        labels[i]: i
        for i, t in enumerate(mor_tuples)
        if sum(not base.is_identity(m) for m in t) == 1
    }
    cat = FiniteCategory(objects, mor_src, mor_dst, compose, identities, labels, gen_image=axes)
    return cat, ProductMeta(comps, obj_name, mor_ix, tuple(mor_tuples))


def _product_functor(src: FiniteCategory, ms: ProductMeta, dst: FiniteCategory, md: ProductMeta,
                     coords: Sequence[tuple[int, FiniteFunctor]]) -> FiniteFunctor:
    """Send a family t in src to (f_j(t[p_j]))_j in dst, for coords = [(p_j, f_j)]."""
    obj_map = {
        name: md.obj_name[tuple(f.object_map[t[p]] for p, f in coords)]
        for t, name in ms.obj_name.items()
    }
    mor = [md.mor_ix[tuple(f.mor[t[p]] for p, f in coords)] for t in ms.mor_tuple]
    return FiniteFunctor(src, dst, obj_map, mor)


def _is_bijective(f: FiniteFunctor) -> bool:
    """Is f bijective on objects and on morphisms?"""
    return (
        len(f.source.objects) == len(set(f.object_map.values())) == len(f.target.objects)
        and f.source.n == len(set(f.mor)) == f.target.n
    )


# ---------------------------------------------------------------------------
# Presheaves and sheaves


class CatPresheaf:
    """An open-indexed family of finite categories with restriction functors.

    ``values`` is keyed by frozensets of points; ``restrictions`` holds a
    functor value(U) -> value(V) for every inclusion V ⊆ U of opens.
    """

    def __init__(
        self,
        space: FiniteSpace,
        values: Mapping[Open, FiniteCategory],
        restrictions: Mapping[tuple[Open, Open], FiniteFunctor],
    ):
        self.space = space
        self.values = dict(values)
        self.restrictions = dict(restrictions)
        for u in space.opens:
            if u not in self.values:
                raise CatError(f"no value assigned to open {sorted(u)}")

    def value(self, u: Iterable[str]) -> FiniteCategory:
        key = frozenset(u)
        if key not in self.values:
            raise NotAnOpen(f"{sorted(key)} is not an open")
        return self.values[key]

    def restriction(self, u: Iterable[str], v: Iterable[str]) -> FiniteFunctor:
        key = (frozenset(u), frozenset(v))
        if key not in self.restrictions:
            raise NotAnOpen(f"no restriction for {sorted(key[0])} -> {sorted(key[1])}")
        return self.restrictions[key]

    def validate(self) -> bool:
        """Identity and composition laws for the restriction functors."""
        opens = self.space.opens
        for u in opens:
            if self.restriction(u, u) != identity_functor(self.values[u]):
                raise CatError(f"restriction along identity of {sorted(u)} not identity")
        for u in opens:
            for v in opens:
                if not v <= u:
                    continue
                if not check_functor(self.restriction(u, v)):
                    raise CatError(f"restriction {sorted(u)} -> {sorted(v)} not a functor")
                for w in opens:
                    if not w <= v:
                        continue
                    ruv, rvw, ruw = (
                        self.restriction(u, v),
                        self.restriction(v, w),
                        self.restriction(u, w),
                    )
                    for x in self.values[u].objects:
                        if rvw.apply_obj(ruv.apply_obj(x)) != ruw.apply_obj(x):
                            raise CatError(
                                f"restrictions do not compose on objects: "
                                f"{sorted(u)} -> {sorted(v)} -> {sorted(w)}"
                            )
                    if any(rvw.mor[j] != k for j, k in zip(ruv.mor, ruw.mor)):
                        raise CatError(
                            f"restrictions do not compose on morphisms: "
                            f"{sorted(u)} -> {sorted(v)} -> {sorted(w)}"
                        )
        return True


def check_gluing(F: CatPresheaf) -> tuple[bool, object]:
    """Equalizer check of each open against its cover by minimal opens.

    Each open U is checked against one cover: the minimal opens U_x for x in
    U, less those lying strictly inside another.  The canonical map from F(U)
    into compatible families over that cover must be a bijection, on objects
    and on morphisms.  Every cover {V_i} of U is refined by this one, since
    x in V_i implies U_x ⊆ V_i; opens are visited smallest first, so when the
    restrictions compose (``CatPresheaf.validate``) the verdict and the
    first failing open are those of a check over every cover.  On failure
    the witness is (kind, U, cover), kind being "objects" or "morphisms".
    """
    for u in F.space.opens:
        cu = F.values[u]
        mins = {F.space.min_open(x) for x in u}
        cover = sorted((v for v in mins if not any(v < w for w in mins)), key=_open_key)
        # the two restrictions onto each pairwise overlap of the cover
        overlaps = [
            (i, j, F.restriction(v1, v1 & v2), F.restriction(v2, v1 & v2))
            for (i, v1), (j, v2) in itertools.combinations(enumerate(cover), 2)
        ]
        down = [F.restriction(u, v) for v in cover]
        # objects
        fams = {
            combo
            for combo in itertools.product(*(F.values[v].objects for v in cover))
            if all(
                r1.object_map[combo[i]] == r2.object_map[combo[j]]
                for i, j, r1, r2 in overlaps
            )
        }
        images = {tuple(r.object_map[a] for r in down): a for a in cu.objects}
        if len(images) != len(cu.objects) or set(images) != fams:
            return False, ("objects", sorted(u), [sorted(v) for v in cover])
        # morphisms
        mfams = {
            combo
            for combo in itertools.product(*(range(F.values[v].n) for v in cover))
            if all(r1.mor[combo[i]] == r2.mor[combo[j]] for i, j, r1, r2 in overlaps)
        }
        mimages = {tuple(r.mor[m] for r in down): m for m in range(cu.n)}
        if len(mimages) != cu.n or set(mimages) != mfams:
            return False, ("morphisms", sorted(u), [sorted(v) for v in cover])
    return True, None


class CatSheaf(CatPresheaf):
    """A presheaf together with its verified gluing verdict."""

    def __init__(self, space, values, restrictions, base: FiniteCategory | None = None,
                 meta: Mapping[Open, ProductMeta] | None = None):
        super().__init__(space, values, restrictions)
        self.base = base
        self.meta = dict(meta) if meta else None
        self.gluing_ok, self.gluing_witness = check_gluing(self)


@dataclass
class SheafMap:
    """Per-open functors commuting with the restriction functors."""

    source: CatPresheaf
    target: CatPresheaf
    components: dict[Open, FiniteFunctor]

    def component(self, u: Iterable[str]) -> FiniteFunctor:
        return self.components[frozenset(u)]

    def validate(self) -> bool:
        space = self.source.space
        for u in space.opens:
            comp = self.components[u]
            if not check_functor(comp):
                raise CatError(f"component at {sorted(u)} is not a functor")
            for v in space.opens:
                if not v <= u:
                    continue
                rs, rt = self.source.restriction(u, v), self.target.restriction(u, v)
                cv = self.components[v]
                for x in self.source.values[u].objects:
                    if rt.apply_obj(comp.apply_obj(x)) != cv.apply_obj(rs.apply_obj(x)):
                        raise CatError(
                            f"naturality fails on objects at {sorted(u)} -> {sorted(v)}"
                        )
                if any(rt.mor[j] != cv.mor[k] for j, k in zip(comp.mor, rs.mor)):
                    raise CatError(
                        f"naturality fails on morphisms at {sorted(u)} -> {sorted(v)}"
                    )
        return True


# ---------------------------------------------------------------------------
# Constantification and sheafification


def constantify(A: FiniteCategory, space: FiniteSpace) -> CatPresheaf:
    """The constant presheaf: A on every nonempty open, terminal on the empty one."""
    empty_cat, _ = product_category(A, ())
    values: dict[Open, FiniteCategory] = {}
    for u in space.opens:
        values[u] = A if u else empty_cat
    restrictions: dict[tuple[Open, Open], FiniteFunctor] = {}
    ident = identity_functor(A)
    to_empty = FiniteFunctor(A, empty_cat, {x: "()" for x in A.objects}, [0] * A.n)
    empty_ident = identity_functor(empty_cat)
    for u in space.opens:
        for v in space.opens:
            if not v <= u:
                continue
            if u and v:
                restrictions[(u, v)] = ident
            elif u and not v:
                restrictions[(u, v)] = to_empty
            else:
                restrictions[(u, v)] = empty_ident
    return CatPresheaf(space, values, restrictions)


def sheafify_constant(A: FiniteCategory, space: FiniteSpace) -> CatSheaf:
    """Locally constant sections: U ↦ A^{components(U)}.

    Restrictions send a family to its reindexing along the map that assigns
    to each component of the smaller open the component of the larger one
    containing it.
    """
    comps: dict[Open, tuple[tuple[str, ...], ...]] = {
        u: connected_components(space, u) for u in space.opens
    }
    built = {u: product_category(A, comps[u]) for u in space.opens}
    values = {u: cat for u, (cat, _) in built.items()}
    metas = {u: meta for u, (_, meta) in built.items()}
    ident = identity_functor(A)
    restrictions: dict[tuple[Open, Open], FiniteFunctor] = {}
    for u in space.opens:
        mu = metas[u]
        for v in space.opens:
            if not v <= u:
                continue
            mv = metas[v]
            coords = []
            for c in mv.comps:
                hits = [i for i, d in enumerate(mu.comps) if set(c) <= set(d)]
                if len(hits) != 1:
                    raise CatError("component refinement is not a function")
                coords.append((hits[0], ident))
            restrictions[(u, v)] = _product_functor(values[u], mu, values[v], mv, coords)
    return CatSheaf(space, values, restrictions, base=A, meta=metas)


def global_sections(F: CatPresheaf) -> FiniteCategory:
    return F.value(F.space.full)


def sheafify_functor(g: FiniteFunctor, FS: CatSheaf, FT: CatSheaf) -> SheafMap:
    """The componentwise image of g: A -> B between constant sheafifications."""
    if FS.base is None or FT.base is None or FS.space is not FT.space:
        raise CatError("both sheaves must be constant sheafifications over one space")
    components = {}
    for u in FS.space.opens:
        ms, mt = FS.meta[u], FT.meta[u]
        coords = [(j, g) for j in range(len(ms.comps))]
        components[u] = _product_functor(FS.values[u], ms, FT.values[u], mt, coords)
    return SheafMap(FS, FT, components)


def is_in_constant_image(m: SheafMap) -> bool:
    """Does a single functor between the bases sheafify to m, open by open?

    The minimal open U of a point is connected, so a functor g: A -> B that
    sheafifies to m is m's component at U read back through the one-coordinate
    products A^1 and B^1.  That candidate is the only one to check.  A space
    with no points has no stalk, and there any functor A -> B will do.
    """
    FS, FT = m.source, m.target
    if not isinstance(FS, CatSheaf) or FS.base is None:
        raise CatError("source is not a constant sheafification")
    if not isinstance(FT, CatSheaf) or FT.base is None:
        raise CatError("target is not a constant sheafification")
    A, B, space = FS.base, FT.base, FS.space
    if not space.points:
        return next(all_functors(A, B), None) is not None
    u = space.min_open(space.points[0])
    stalk, ms, mt = m.components[u], FS.meta[u], FT.meta[u]
    b_object = {name: t[0] for t, name in mt.obj_name.items()}
    g = FiniteFunctor(
        A, B, {x: b_object[stalk.object_map[ms.obj_name[(x,)]]] for x in A.objects}, stalk.mor
    )
    if not check_functor(g):
        return False
    image = sheafify_functor(g, FS, FT)
    return all(image.components[v] == m.components[v] for v in space.opens)


# ---------------------------------------------------------------------------
# Unit isomorphism and the exotic attaching map


@dataclass
class IsoCertificate:
    functor: FiniteFunctor
    inverse: FiniteFunctor

    def verify(self) -> bool:
        f, h = self.functor, self.inverse
        if not check_functor(f) or not check_functor(h):
            return False
        for x in f.source.objects:
            if h.apply_obj(f.apply_obj(x)) != x:
                return False
        for y in h.source.objects:
            if f.apply_obj(h.apply_obj(y)) != y:
                return False
        return all(h.mor[j] == i for i, j in enumerate(f.mor)) and all(
            f.mor[i] == j for j, i in enumerate(h.mor)
        )


@dataclass
class UnitFailure:
    reason: str
    witness: object = None

    def __bool__(self):
        return False


def unit_check(
    A: FiniteCategory, space: FiniteSpace
) -> Union[IsoCertificate, UnitFailure]:
    """Certify that A -> Γ(#(cA)) is an isomorphism of finite categories.

    The canonical comparison sends an object to the constant family over the
    k components of the space; it is invertible exactly when the space is
    connected (or A is degenerate enough not to notice).  Γ(#(cA)) is A^k,
    so the counts are compared before anything is built, and then only Γ is.
    """
    comps = connected_components(space, space.full)
    k = len(comps)
    if len(A.objects) != len(A.objects) ** k:
        return UnitFailure("object_count", (len(A.objects), len(A.objects) ** k))
    if A.n != A.n ** k:
        return UnitFailure("morphism_count", (A.n, A.n ** k))
    G, meta = product_category(A, comps)
    obj_map = {x: meta.obj_name[(x,) * k] for x in A.objects}
    eta = FiniteFunctor(A, G, obj_map, [meta.mor_ix[(i,) * k] for i in range(A.n)])
    if not check_functor(eta):
        return UnitFailure("not_functorial")
    if not _is_bijective(eta):
        return UnitFailure("not_bijective")
    inv_obj = {v: k2 for k2, v in obj_map.items()}
    inv_mor = [0] * G.n
    for i, j in enumerate(eta.mor):
        inv_mor[j] = i
    inverse = FiniteFunctor(G, A, inv_obj, inv_mor)
    cert = IsoCertificate(eta, inverse)
    if not cert.verify():
        return UnitFailure("inverse_check")
    return cert


def _discrete_two() -> FiniteCategory:
    objects = ["0.pt", "1.pt"]
    return FiniteCategory(
        objects, objects, objects, {(0, 0): 0, (1, 1): 1},
        {"0.pt": 0, "1.pt": 1}, labels=["id0", "id1"],
    )


def exotic_map_demo(variant: str = "exotic") -> tuple[SheafMap, bool]:
    """The attaching map over the discrete two-point space.

    The endomorphism of the sheafified two-object discrete category that is
    the identity over one point and constant over the other cannot arise by
    sheafifying any single endofunctor; the positive-control variants
    ("identity", "constant") can.
    """
    if variant not in ("exotic", "identity", "constant"):
        raise CatError(f"unknown variant {variant!r}")
    space = discrete_two_point()
    A = _discrete_two()
    F = sheafify_constant(A, space)
    ident = identity_functor(A)
    const0 = FiniteFunctor(A, A, {x: "0.pt" for x in A.objects}, [A.identities["0.pt"]] * A.n)
    if variant == "exotic":
        per_point = {"u": ident, "v": const0}
    elif variant == "identity":
        per_point = {"u": ident, "v": ident}
    else:
        per_point = {"u": const0, "v": const0}
    components = {}
    for u in space.opens:
        meta = F.meta[u]
        coords = [(j, per_point[c[0]]) for j, c in enumerate(meta.comps)]
        components[u] = _product_functor(F.values[u], meta, F.values[u], meta, coords)
    xi = SheafMap(F, F, components)
    xi.validate()
    return xi, is_in_constant_image(xi)


# ---------------------------------------------------------------------------
# CW recognition for sheaves


@dataclass
class CwSheafVerdict:
    kind: str
    witness: object = None

    def __bool__(self):
        return self.kind == "CW"


def classify_cw_sheaf(F: CatPresheaf) -> CwSheafVerdict:
    """A sheaf over a connected space is CW iff it is the constant sheafification
    of a groupoid: it glues, Γ(F) is a groupoid and every restriction
    Γ(F) -> F(U_x) to a stalk is bijective.  NotCW witnesses: ("not_groupoid",
    morphism), or ("open", U) for the open failing gluing or the first stalk
    U_x, in ``space.opens`` order, with a non-bijective restriction."""
    space = F.space
    require_connected(space)
    G = global_sections(F)
    if not is_groupoid(G):
        return CwSheafVerdict("NotCW", ("not_groupoid", groupoid_witness(G)))
    ok, witness = check_gluing(F)
    if not ok:
        return CwSheafVerdict("NotCW", ("open", witness[1]))
    stalks = {space.min_open(x) for x in space.points}
    for u in space.opens:
        if u in stalks and not _is_bijective(F.restriction(space.full, u)):
            return CwSheafVerdict("NotCW", ("open", sorted(u)))
    return CwSheafVerdict("CW")

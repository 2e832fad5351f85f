"""The three distinguished classes of functors, with checkable certificates.

Cofibrations are the functors injective on objects; weak equivalences are the
categorical equivalences (fully faithful and essentially surjective);
fibrations are the isofibrations.  Equivalence checks run on finite
categories and return either a certificate whose witnesses can be re-checked
independently, or a named counterexample.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

from .fpcat import (
    DEFAULT_HOM_BOUND,
    DEFAULT_RULE_BUDGET,
    CatError,
    FiniteCategory,
    FiniteFunctor,
    FpCategory,
    Functor,
    IncompleteSystem,
    NotFinite,
    _canonical_json,
    _finite,
    _hom_words,
)

DEFAULT_PRODUCT_BOUND = 10**6
# The inverse-word search of ``_inverses_found``: candidate words of length at
# most INVERSE_WORD_LEN, at most INVERSE_CANDIDATES of them per generator.
# ``ktheory._strict_inverse`` draws its candidates under the same length bound.
INVERSE_WORD_LEN = 6
INVERSE_CANDIDATES = 10_000


class NotDecided(CatError):
    """The question was not settled within the configured bounds."""


class SearchSpaceTooLarge(CatError):
    def __init__(self, bound: int):
        self.bound = bound
        super().__init__(f"functor search visited {bound + 1} nodes (bound {bound})")


def is_cofibration(F: Functor | FiniteFunctor) -> bool:
    """Injective on objects.  Assumes ``F`` is a valid functor."""
    images = list(F.object_map.values())
    return len(images) == len(set(images))


def iso_core(C: FiniteCategory) -> FiniteCategory:
    """The wide subcategory of invertible morphisms."""
    isos = C.inverses()
    keep = sorted(isos)
    new_id = {old: i for i, old in enumerate(keep)}
    compose = {
        (new_id[f], new_id[g]): new_id[h]
        for (f, g), h in C.compose_table.items()
        if f in isos and g in isos
    }
    return FiniteCategory(
        C.objects,
        [C.mor_src[i] for i in keep],
        [C.mor_dst[i] for i in keep],
        compose,
        {x: new_id[i] for x, i in C.identities.items()},
        labels=[C.labels[i] for i in keep],
        paths=[C.paths[i] for i in keep] if C.paths is not None else None,
    )


def is_isofibration(F: FiniteFunctor) -> bool:
    """Every iso in the target starting at an object's image lifts."""
    C: FiniteCategory = F.source
    D: FiniteCategory = F.target
    d_inv = D.inverses()
    c_inv = C.inverses()
    for x in C.objects:
        fx = F.apply_obj(x)
        for h in range(D.n):
            if h not in d_inv or D.mor_src[h] != fx:
                continue
            lifted = False
            for k in range(C.n):
                if k in c_inv and C.mor_src[k] == x and F.mor[k] == h:
                    lifted = True
                    break
            if not lifted:
                return False
    return True


@dataclass
class EquivalenceCertificate:
    """Re-checkable witnesses: per-hom bijections and iso hits per target object."""

    functor: FiniteFunctor
    fully_faithful: dict[tuple[str, str], tuple[tuple[int, int], ...]]
    essentially_surjective: dict[str, tuple[str, int, int]]

    def verify(self) -> bool:
        F = self.functor
        C: FiniteCategory = F.source
        D: FiniteCategory = F.target
        for (x, y), pairs in self.fully_faithful.items():
            fx, fy = F.apply_obj(x), F.apply_obj(y)
            srcs = [p[0] for p in pairs]
            tgts = [p[1] for p in pairs]
            if sorted(srcs) != sorted(C.hom(x, y)):
                return False
            if sorted(tgts) != sorted(D.hom(fx, fy)):
                return False
            if any(F.mor[f] != g for f, g in pairs):
                return False
        if set(self.fully_faithful) != {(x, y) for x in C.objects for y in C.objects}:
            return False
        d_inv = D.inverses()
        for y, (x, h, hinv) in self.essentially_surjective.items():
            if D.mor_src[h] != F.apply_obj(x) or D.mor_dst[h] != y:
                return False
            if d_inv.get(h) != hinv:
                return False
        return set(self.essentially_surjective) == set(D.objects)

    def to_json_obj(self) -> dict:
        return {
            "functor": self.functor.to_json_obj(),
            "fully_faithful": {
                f"{x}|{y}": [list(p) for p in pairs]
                for (x, y), pairs in sorted(self.fully_faithful.items())
            },
            "essentially_surjective": {
                y: list(w) for y, w in sorted(self.essentially_surjective.items())
            },
        }

    def to_json(self) -> str:
        return _canonical_json(self.to_json_obj())


@dataclass
class NotEquivalence:
    reason: str  # "not_full" | "not_faithful" | "not_essentially_surjective"
    witness: tuple

    def __bool__(self):
        return False


def is_equivalence(F: FiniteFunctor) -> Union[EquivalenceCertificate, NotEquivalence]:
    """Decide categorical equivalence for a functor between finite categories."""
    C: FiniteCategory = F.source
    D: FiniteCategory = F.target
    ff: dict[tuple[str, str], tuple[tuple[int, int], ...]] = {}
    for x in C.objects:
        for y in C.objects:
            fx, fy = F.apply_obj(x), F.apply_obj(y)
            pairs = tuple((f, F.mor[f]) for f in C.hom(x, y))
            images = [p[1] for p in pairs]
            if len(set(images)) < len(images):
                dup = next(g for g in images if images.count(g) > 1)
                clash = tuple(f for f, g in pairs if g == dup)
                return NotEquivalence("not_faithful", (x, y) + clash)
            missing = set(D.hom(fx, fy)) - set(images)
            if missing:
                return NotEquivalence("not_full", (x, y, min(missing)))
            ff[(x, y)] = pairs
    d_inv = D.inverses()
    es: dict[str, tuple[str, int, int]] = {}
    for y in D.objects:
        hit = None
        for x in C.objects:
            for h in D.hom(F.apply_obj(x), y):
                if h in d_inv:
                    hit = (x, h, d_inv[h])
                    break
            if hit:
                break
        if hit is None:
            return NotEquivalence("not_essentially_surjective", (y,))
        es[y] = hit
    return EquivalenceCertificate(F, ff, es)


def is_groupoid(C: FiniteCategory) -> bool:
    return len(C.inverses()) == C.n


def groupoid_witness(C: FiniteCategory) -> int | None:
    """A morphism id with no two-sided inverse, or None."""
    inv = C.inverses()
    for i in range(C.n):
        if i not in inv:
            return i
    return None


def is_groupoid_fp(
    cat: FpCategory,
    budget: int = DEFAULT_RULE_BUDGET,
    bound: int = DEFAULT_HOM_BOUND,
) -> bool | None:
    """Tri-state groupoid test on a presentation.

    True when every generator is either marked invertible or acquires a
    two-sided inverse provably; False with a definitive witness; None when
    the bounds ran out first.
    """
    if all(g.name in cat.inverses for g in cat.quiver.generators):
        return True
    try:
        return is_groupoid(_finite(cat, bound, budget))
    except NotFinite:
        # infinite (or too large): decide generator by generator
        return _inverses_found(cat, budget)
    except IncompleteSystem:
        return None


def _inverses_found(cat: FpCategory, budget: int) -> bool | None:
    """True when every generator not marked invertible has a two-sided
    inverse among the first ``INVERSE_CANDIDATES`` irreducible words of
    length at most ``INVERSE_WORD_LEN`` in its reverse hom-set, else None.

    Candidates are drawn one at a time, in ``irreducible_words`` order, and
    tested as reduced generator-index words.
    """
    pending = [g for g in cat.quiver.generators if g.name not in cat.inverses]
    if not pending:
        return True
    rs = cat.completion(budget)
    if not rs.complete:
        return None
    reduce = rs.reduce_word
    for g in pending:
        a = reduce((cat.quiver.gen_index[g.name],))
        words = _hom_words(cat, rs, g.dst, g.src, INVERSE_WORD_LEN)
        if not any(
            not reduce(a + w) and not reduce(w + a)
            for w in itertools.islice(words, INVERSE_CANDIDATES)
        ):
            return None
    return True


def is_contractible(
    C: Union[FpCategory, FiniteCategory], budget: int = DEFAULT_RULE_BUDGET
) -> bool:
    """Nonempty and exactly one morphism in every hom-set."""
    if isinstance(C, FiniteCategory):
        if not C.objects:
            return False
        return all(
            len(C.hom(x, y)) == 1 for x in C.objects for y in C.objects
        )
    if not C.objects:
        return False
    try:
        fin = _finite(C, 1, budget)
    except NotFinite:
        return False
    return is_contractible(fin)


def all_functors(
    src: FpCategory | FiniteCategory,
    dst: FiniteCategory,
    product_bound: int = DEFAULT_PRODUCT_BOUND,
    object_maps: Iterable[dict[str, str]] | None = None,
) -> Iterator[Functor | FiniteFunctor]:
    """Functors out of a presentation (``Functor``s) or a finite category
    (``FiniteFunctor``s), by backtracking with forward checking.

    Variables are the generators in declaration order, or the non-identity
    morphisms in id order, tried in ``dst.hom`` order under object maps in
    ``itertools.product`` order (or as given): functors come in the order of
    the full candidate product.  Relations and table cells are constraints
    ``(object, lhs, rhs)`` checked at their last variable, except that one
    whose rhs is a variable after all of lhs, as in ``f;g = h``, forces it
    (Haralick and Elliott, 1980; Froidure and Pin, 1997).  Raises
    SearchSpaceTooLarge past ``product_bound`` nodes: one per object map and
    one per value tried.
    """
    if isinstance(src, FiniteCategory):
        pos = {i: k for k, i in enumerate(i for i in range(src.n) if not src.is_identity(i))}
        ends = [(src.mor_src[i], src.mor_dst[i]) for i in pos]
        constraints = [
            (src.mor_src[f], (pos[f], pos[g]), (pos[h],) if h in pos else ())
            for (f, g), h in src.compose_table.items() if f in pos and g in pos
        ]

        def make(omap, ident, img):
            mor = [img[pos[i]] if i in pos else ident[x] for i, x in enumerate(src.mor_src)]
            return FiniteFunctor(src, dst, omap, mor)
    else:
        pos = {g.name: k for k, g in enumerate(src.generators)}
        ends = [(g.src, g.dst) for g in src.generators]
        constraints = [
            (lhs.at, tuple(pos[a] for a in lhs.gens), tuple(pos[a] for a in rhs.gens))
            for lhs, rhs in src.relations if lhs.gens or rhs.gens
        ]

        def make(omap, ident, img):
            return Functor(src, dst, omap, dict(zip(pos, img)))

    n = len(ends)
    forced: list[tuple | None] = [None] * n
    checks: list[list] = [[] for _ in ends]
    for x, lhs, rhs in constraints:
        last = max(lhs + rhs)
        if rhs == (last,) and last not in lhs and forced[last] is None:
            forced[last] = (x, lhs)
        else:
            checks[last].append((x, lhs, rhs))
    if object_maps is None:
        combos = itertools.product(dst.objects, repeat=len(src.objects))
        object_maps = (dict(zip(src.objects, c)) for c in combos)
    table, visits = dst.compose_table, itertools.count(1)

    def image(x, word):
        cur = ident[x]
        for v in word:
            cur = table[(cur, img[v])]
        return cur

    for omap in object_maps:
        if next(visits) > product_bound:
            raise SearchSpaceTooLarge(product_bound)
        ident = {x: dst.identities[y] for x, y in omap.items()}
        doms = [dst.hom(omap[s], omap[d]) for s, d in ends]
        img, its, k = [0] * n, [None] * n, 0 if all(doms) else -1
        while k >= 0:
            if k == n:
                yield make(omap, ident, img)
                k -= 1
                continue
            its[k] = its[k] or iter(doms[k] if forced[k] is None else (image(*forced[k]),))
            img[k] = next(its[k], -1)
            if img[k] < 0:
                its[k], k = None, k - 1
            elif next(visits) > product_bound:
                raise SearchSpaceTooLarge(product_bound)
            elif all(image(x, lhs) == image(x, rhs) for x, lhs, rhs in checks[k]):
                k += 1


def find_equivalence(
    C: FiniteCategory, D: FiniteCategory, product_bound: int = DEFAULT_PRODUCT_BOUND
) -> FiniteFunctor | None:
    """The first equivalence C -> D in ``all_functors`` order."""
    return next((F for F in all_functors(C, D, product_bound) if is_equivalence(F)), None)


def find_isomorphism(
    C: FiniteCategory, D: FiniteCategory, product_bound: int = DEFAULT_PRODUCT_BOUND
) -> FiniteFunctor | None:
    """The first functor C -> D bijective on objects and morphisms, in ``all_functors`` order."""
    if len(C.objects) != len(D.objects) or C.n != D.n:
        return None
    perms = (dict(zip(C.objects, p)) for p in itertools.permutations(D.objects))
    found = all_functors(C, D, product_bound, object_maps=perms)
    return next((F for F in found if len(set(F.mor)) == D.n), None)

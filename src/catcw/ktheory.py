"""Pointed categories, the cone functor, suspension, and K-zero vanishing
witnesses.

The cone of a pointed category is the chaotic category on its objects; the
unit is identity on objects, so it is always a cofibration.  Suspension is
the pushout of the cone unit along the collapse to a point and always has a
single object, which forces the double suspension to be literally terminal.
A vanishing witness materializes the whole argument as five replayable
certificates: two cofiber sequences, two contractibility checks, and the
terminality of the double suspension.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping, Union

from .colimits import PushoutResult, chaotic, pushout
from .cw import point_collapse
from .fpcat import (
    DEFAULT_HOM_BOUND,
    DEFAULT_RULE_BUDGET,
    CatError,
    FiniteCategory,
    FpCategory,
    Functor,
    Path,
    _canonical_json,
    _finite,
    _hom_words,
    _image_word,
    _image_words,
    _json_object,
    _keep,
    _lookup,
    _reduce_read_only,
    check_functor,
    finite_to_fp,
    from_json as category_from_json,
    functor_from_json,
    share,
)
from .model_structure import INVERSE_WORD_LEN, is_contractible

K0_SCOPE_NOTE = (
    "closure conditions are checked for the objects occurring in this witness only"
)

K0_FORMAT = "catcw-k0-witness-2"
K0_FORMATS_READ = ("catcw-k0-witness-1", K0_FORMAT)
K0_STAGES = ("X", "PX", "SX", "PSX", "S2X")


def _write_category(field: str, cat) -> dict:
    return cat.to_json_obj()


def _frozen(value):
    """A JSON value read from a document, made read-only: objects become
    read-only mappings and arrays tuples, which write the same JSON."""
    if isinstance(value, dict):
        return MappingProxyType({k: _frozen(v) for k, v in value.items()})
    if isinstance(value, list):
        return tuple(map(_frozen, value))
    return value


def _thawed(value):
    """A value ``_frozen`` made read-only, as the JSON value it was read
    from: mappings become dicts and tuples lists, so ``to_json_obj`` gives
    what ``json.dumps`` writes."""
    if isinstance(value, Mapping):
        return {k: _thawed(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return list(map(_thawed, value))
    return value


def _read_category(field: str, value) -> FpCategory:
    """A category from a JSON object; anything else, JSON text included, is
    a TypeError naming ``field``."""
    return category_from_json(_json_object(value, field))


class CompletionBudgetExceeded(CatError):
    """Kept for callers that catch it; catcw itself no longer raises it.

    Its one raiser, the double-suspension check, was deleted.  The
    benchmark's query runner still counts this class among the outcomes it
    treats as undecided, so the name stays exported.
    """


@dataclass(frozen=True)
class PointedCategory:
    cat: Union[FpCategory, FiniteCategory]
    basepoint: str

    def __post_init__(self):
        if self.basepoint not in self.cat.objects:
            raise CatError(f"basepoint {self.basepoint!r} is not an object")


def as_pointed_fp(X: PointedCategory) -> PointedCategory:
    if isinstance(X.cat, FpCategory):
        return X
    return PointedCategory(finite_to_fp(X.cat), X.basepoint)


def cone(X: PointedCategory) -> PointedCategory:
    """P(X): the chaotic category on X's objects, same basepoint."""
    X = as_pointed_fp(X)
    return PointedCategory(chaotic(X.cat.objects), X.basepoint)


def cone_unit(X: PointedCategory) -> Functor:
    """The identity-on-objects inclusion X -> P(X); a cofibration."""
    X = as_pointed_fp(X)
    target = cone(X).cat
    gen_map = {}
    for g in X.cat.quiver.generators:
        if g.src == g.dst:
            gen_map[g.name] = Path(g.src)
        else:
            gen_map[g.name] = Path(g.src, (f"{g.src}>{g.dst}",))
    return Functor(X.cat, target, {x: x for x in X.cat.objects}, gen_map)


def cone_map(f: Functor, source_cone: FpCategory, target_cone: FpCategory) -> Functor:
    """P(f): the induced functor between chaotic categories."""
    gen_map = {}
    for g in source_cone.quiver.generators:
        x, y = g.src, g.dst
        fx, fy = f.apply_obj(x), f.apply_obj(y)
        gen_map[g.name] = Path(fx) if fx == fy else Path(fx, (f"{fx}>{fy}",))
    return Functor(
        source_cone,
        target_cone,
        {x: f.apply_obj(x) for x in source_cone.objects},
        gen_map,
    )


def _suspension(X: PointedCategory) -> tuple[PointedCategory, PushoutResult, Functor]:
    X = as_pointed_fp(X)
    unit = cone_unit(X)
    po = pushout(unit, point_collapse(X.cat))
    if len(po.apex.objects) != 1:
        raise CatError("suspension did not collapse to one object")
    return PointedCategory(po.apex, po.apex.objects[0]), po, unit


def suspend(X: PointedCategory) -> PointedCategory:
    """ΣX = pushout of cone_unit(X) along the collapse X -> 1."""
    return _suspension(X)[0]


@dataclass
class CofiberFailure:
    reason: str
    witness: object = None

    def __bool__(self):
        return False


@dataclass(frozen=True)
class CofiberCertificate:
    """Witness that A -i-> B -q-> C exhibits C as the cofiber B ⊔_A 1.

    ``comparison`` is the induced functor from the recomputed pushout apex to
    C; ``inverse`` is a two-sided inverse (strict mode), found by bounded
    normal-form search or, when the comparison is an identity, read off the
    normal forms of C's generators; or None when the isomorphism was
    certified on finite backends (finite mode, with hom cardinalities
    recorded).

    ``pushout`` is the pushout of i along A -> 1 that the certificate was
    recognized against, kept so that ``verify`` need not build it again; it
    takes no part in ``==``, ``repr`` or the JSON.

    Certificates are read-only values, shared inside kept K0 witnesses:
    fields cannot be set, ``hom_card`` is a read-only mapping, and the
    values read from JSON are read-only too (``_frozen``); ``to_json_obj``
    writes them as plain JSON values again (``_thawed``).
    """

    i: Functor
    q: Functor
    basepoint: str
    mode: str
    comparison: Functor
    inverse: Functor | None
    hom_card: Mapping | None
    pushout: PushoutResult | None = dataclasses.field(default=None, compare=False, repr=False)

    __reduce__ = _reduce_read_only

    def to_json_obj(self, write_category: Callable = _write_category) -> dict:
        """``write_category(field, category)`` gives the value of ``A``, ``B``
        and ``C``; by default each category in full."""
        return {
            "A": write_category("A", self.i.source),
            "B": write_category("B", self.i.target),
            "C": write_category("C", self.q.target),
            "i": self.i.to_json_obj(),
            "q": self.q.to_json_obj(),
            "basepoint": _thawed(self.basepoint),
            "mode": _thawed(self.mode),
            "comparison": self.comparison.to_json_obj(),
            "inverse": self.inverse.to_json_obj() if self.inverse else None,
            "hom_card": _thawed(self.hom_card),
        }

    def to_json(self) -> str:
        return _canonical_json(self.to_json_obj())

    def verify(self, budget: int = DEFAULT_RULE_BUDGET) -> bool:
        """Re-run the full recognition and demand the identical certificate.

        The fresh certificate is recognized from this one's ``i``, ``q`` and
        ``basepoint``, so only the fields the recognition computes can
        differ; they are compared with ``==``, with no JSON built.  The kept
        pushout is read only while it is still the pushout of this ``i``.
        """
        po = self.pushout
        if po is not None and po.from_span[0] is not self.i:
            po = None
        fresh = _cofiber_sequence(self.i, self.q, self.basepoint, budget, po)
        return isinstance(fresh, CofiberCertificate) and (
            fresh.mode, fresh.basepoint, fresh.hom_card, fresh.comparison, fresh.inverse
        ) == (self.mode, self.basepoint, self.hom_card, self.comparison, self.inverse)

    @staticmethod
    def from_json(
        doc: Union[str, Mapping], read_category: Callable = _read_category
    ) -> "CofiberCertificate":
        """``read_category(field, value)`` turns the value of ``A``, ``B`` or
        ``C`` into a category; by default it parses a category in full."""
        obj = json.loads(doc) if isinstance(doc, str) else doc
        A = read_category("A", obj["A"])
        B = read_category("B", obj["B"])
        C = read_category("C", obj["C"])
        i = functor_from_json(A, B, obj["i"])
        q = functor_from_json(B, C, obj["q"])
        po = pushout(i, point_collapse(A))
        comparison = functor_from_json(po.apex, C, obj["comparison"])
        inverse = (
            functor_from_json(C, po.apex, obj["inverse"]) if obj["inverse"] else None
        )
        return CofiberCertificate(
            i,
            q,
            _frozen(obj["basepoint"]),
            _frozen(obj["mode"]),
            comparison,
            inverse,
            _frozen(obj["hom_card"]),
            po,
        )


def _strict_inverse(m: Functor, budget: int) -> Functor | None:
    """A two-sided inverse of m up to normalization, by normal-form search.

    ``m`` must be a functor.  Images are compared as reduced generator-index
    words, which is exact here: ``inv_obj`` inverts ``m.object_map``, so a
    candidate for a generator c lies in hom(inv_obj[c.src], inv_obj[c.dst])
    and its image starts at c.src, and each round trip starts at the object
    its generator does.  Objects are fixed by construction; words decide.
    """
    apex: FpCategory = m.source
    C: FpCategory = m.target
    rs_apex = apex.completion(budget)
    rs_c = C.completion(budget)
    if not (rs_apex.complete and rs_c.complete):
        return None
    inv_obj = {}
    for x, y in m.object_map.items():
        if y in inv_obj:
            return None
        inv_obj[y] = x
    if set(inv_obj) != set(C.objects):
        return None
    m_words = _image_words(m)
    m_img = [m_words[g.name] for g in apex.quiver.generators]  # by apex generator index
    c_forms = [rs_c.reduce_word((j,)) for j in range(len(C.quiver.generators))]
    n_img: list[tuple[int, ...]] = []  # by C generator index
    for c, want in zip(C.quiver.generators, c_forms):
        for w in _hom_words(apex, rs_apex, inv_obj[c.src], inv_obj[c.dst], INVERSE_WORD_LEN):
            if rs_c.reduce_word(_image_word(m_img, w)) == want:
                n_img.append(w)
                break
        else:
            return None
    names = tuple(g.name for g in apex.quiver.generators)
    gen_map = {
        c.name: Path(inv_obj[c.src], tuple(names[k] for k in w))
        for c, w in zip(C.quiver.generators, n_img)
    }
    n = Functor(C, apex, inv_obj, gen_map)
    if not check_functor(n, budget):
        return None
    for k, word in enumerate(m_img):
        if rs_apex.reduce_word(_image_word(n_img, word)) != rs_apex.reduce_word((k,)):
            return None
    for word, want in zip(n_img, c_forms):
        if rs_c.reduce_word(_image_word(m_img, word)) != want:
            return None
    return n


def _is_identity(m: Functor) -> bool:
    """Whether m is the identity of a presentation: its target is ``==`` its
    source, and it sends each object to itself and each generator g to (g,)."""
    S = m.source
    return (
        all(m.object_map.get(x) == x for x in S.objects)
        and all(m.gen_map.get(g.name) == Path(g.src, (g.name,)) for g in S.quiver.generators)
        and S == m.target
    )


def is_cofiber_sequence(
    i: Functor,
    q: Functor,
    basepoint: str | None = None,
    budget: int = DEFAULT_RULE_BUDGET,
) -> Union[CofiberCertificate, CofiberFailure]:
    """Recognize A -i-> B -q-> C as a cofiber sequence.

    Verifies i is a cofibration, q collapses A to the basepoint, and the
    comparison functor from pushout(i, A -> 1) to C is an isomorphism of
    presentations after completion.
    """
    return _cofiber_sequence(i, q, basepoint, budget, None)


def _cofiber_sequence(
    i: Functor,
    q: Functor,
    basepoint: str | None,
    budget: int,
    po: PushoutResult | None,
) -> Union[CofiberCertificate, CofiberFailure]:
    """``is_cofiber_sequence``, reading the pushout of i along A -> 1 from
    ``po`` when the caller holds it.

    When the comparison is the identity of a complete presentation it is
    inverted by normal forms, with no functor check and no search.
    """
    A, B, C = i.source, i.target, q.target
    if q.source != B:
        return CofiberFailure("not_composable")
    if not check_functor(i, budget) or not check_functor(q, budget):
        return CofiberFailure("invalid_functor")
    images: dict[str, str] = {}
    for x, y in i.object_map.items():
        if y in images:
            return CofiberFailure("not_cofibration", (images[y], x))
        images[y] = x
    if basepoint is None:
        if A.objects:
            basepoint = q.apply_obj(i.apply_obj(A.objects[0]))
        else:
            extra = [y for y in C.objects if y not in set(q.object_map.values())]
            if len(extra) != 1:
                return CofiberFailure("no_basepoint", tuple(extra))
            basepoint = extra[0]
    if basepoint not in C.objects:
        return CofiberFailure("no_basepoint", (basepoint,))
    rs_c = C.completion(budget)
    for a in A.objects:
        if q.apply_obj(i.apply_obj(a)) != basepoint:
            return CofiberFailure("not_collapsing", (a,))
    q_words = _image_words(q)
    for g in A.quiver.generators:
        if rs_c.reduce_word(_image_word(q_words, i.gen_map[g.name].gens)):
            return CofiberFailure("not_collapsing", (g.name,))

    if po is None:
        po = pushout(i, point_collapse(A))
    apex = po.apex
    obj_map: dict[str, str] = {}
    for b in B.objects:
        obj_map[po.inj_left.apply_obj(b)] = q.apply_obj(b)
    for c_obj in po.inj_right.object_map.values():
        obj_map.setdefault(c_obj, basepoint)
    gen_map: dict[str, Path] = {}
    for b in B.quiver.generators:
        gen_map[po.inj_left.gen_map[b.name].gens[0]] = q.gen_map[b.name]
    m = Functor(apex, C, obj_map, gen_map)
    if rs_c.complete and _is_identity(m):
        # m is an isomorphism whose inverse sends each generator to its
        # normal form: shortlex normal forms of a generator are irreducible
        # words of length at most 1, so they are the words _strict_inverse's
        # search would accept first
        gens = C.quiver.generators
        nf_map = {
            g.name: Path(g.src, tuple(gens[k].name for k in rs_c.reduce_word((j,))))
            for j, g in enumerate(gens)
        }
        n = Functor(C, apex, dict(obj_map), nf_map)
        return CofiberCertificate(i, q, basepoint, "strict-inverse", m, n, None, po)
    if not check_functor(m, budget):
        return CofiberFailure("comparison_not_functorial")
    vals = sorted(m.object_map.values())
    if vals != sorted(C.objects):
        return CofiberFailure("cofiber_mismatch", tuple(vals))

    n = _strict_inverse(m, budget)
    if n is not None:
        return CofiberCertificate(i, q, basepoint, "strict-inverse", m, n, None, po)

    # fall back to the finite backends
    try:
        apex_fin = _finite(apex, DEFAULT_HOM_BOUND, budget)
        c_fin = _finite(C, DEFAULT_HOM_BOUND, budget)
    except CatError:
        return CofiberFailure("iso_not_certified")
    c_form = {p: j for j, p in enumerate(c_fin.paths)}
    images = [c_form[rs_c.normalize(m.apply_path(p))] for p in apex_fin.paths]
    if apex_fin.n != c_fin.n or len(set(images)) != c_fin.n:
        return CofiberFailure("cofiber_mismatch", (apex_fin.n, c_fin.n))
    hom_card = MappingProxyType({
        f"{x}|{y}": len(apex_fin.hom(x, y))
        for x in apex_fin.objects
        for y in apex_fin.objects
    })
    return CofiberCertificate(i, q, basepoint, "finite", m, None, hom_card, po)


@dataclass(frozen=True)
class ContractibilityCertificate:
    category: FpCategory
    objects: int

    def verify(self, budget: int = DEFAULT_RULE_BUDGET) -> bool:
        return (
            len(self.category.objects) == self.objects
            and self.objects > 0
            and is_contractible(self.category, budget)
        )

    def to_json_obj(self, write_category: Callable = _write_category) -> dict:
        return {
            "category": write_category("category", self.category),
            "objects": _thawed(self.objects),
        }


@dataclass(frozen=True)
class K0Witness:
    """Replayable proof object that [X] = 0 in K₀.

    Chain: X -> PX -> ΣX and ΣX -> PΣX -> Σ²X are cofiber sequences, the two
    cones are contractible, and Σ²X is terminal; together these force the
    class of X to vanish in any admissible home for it.

    In the JSON (format 2) each stage category is written once, X under
    ``input`` and the others under ``stages``; a certificate's category field
    holds the name of the stage it is ``==`` to ("X", "PX", "SX", "PSX",
    "S2X"), and the category in full only when it is no such stage.
    Format-1 documents, which hold every category in full, still read.

    Witnesses are read-only values: one is kept per input and handed to
    every caller, so fields cannot be set, and every stage, functor and
    certificate in it is read-only too.
    """

    x: PointedCategory
    px: FpCategory
    sx: PointedCategory
    psx: FpCategory
    s2x: PointedCategory
    cert1: CofiberCertificate
    cert2: CofiberCertificate
    contract_px: ContractibilityCertificate
    contract_psx: ContractibilityCertificate
    s2x_morphisms: int

    def to_json_obj(self) -> dict:
        stages = dict(zip(K0_STAGES, (self.x.cat, self.px, self.sx.cat, self.psx, self.s2x.cat)))

        def refs(**expected: str) -> Callable:
            """Write each field as the name of its expected stage when it is that stage."""

            def write(field: str, cat) -> Union[str, dict]:
                name = expected[field]
                stage = stages[name]
                return name if cat is stage or cat == stage else cat.to_json_obj()

            return write

        return {
            "format": K0_FORMAT,
            "input": {
                "category": self.x.cat.to_json_obj(),
                "basepoint": self.x.basepoint,
            },
            "stages": {
                "PX": self.px.to_json_obj(),
                "SX": self.sx.cat.to_json_obj(),
                "SX_basepoint": self.sx.basepoint,
                "PSX": self.psx.to_json_obj(),
                "S2X": self.s2x.cat.to_json_obj(),
                "S2X_basepoint": self.s2x.basepoint,
            },
            "cert1": self.cert1.to_json_obj(refs(A="X", B="PX", C="SX")),
            "cert2": self.cert2.to_json_obj(refs(A="SX", B="PSX", C="S2X")),
            "contract_PX": self.contract_px.to_json_obj(refs(category="PX")),
            "contract_PSX": self.contract_psx.to_json_obj(refs(category="PSX")),
            "terminal_S2X": {
                "objects": len(self.s2x.cat.objects),
                "generators": len(self.s2x.cat.generators),
                "morphisms": _thawed(self.s2x_morphisms),
            },
            "scope": K0_SCOPE_NOTE,
        }

    def to_json(self) -> str:
        return _canonical_json(self.to_json_obj())

    def _size(self) -> int:
        """The generators and relations of the distinct stages."""
        stages = {id(c): c for c in (self.x.cat, self.px, self.sx.cat, self.psx, self.s2x.cat)}
        return sum(c._size() for c in stages.values())

    def _stages_hold(self, budget: int) -> bool:
        """The checks that building a witness does not already make: both
        cones are contractible, and Σ²X has one object, no generators and a
        stated count of one morphism."""
        return (
            self.contract_px.verify(budget)
            and self.contract_psx.verify(budget)
            and len(self.s2x.cat.objects) == 1
            and not self.s2x.cat.generators
            and self.s2x_morphisms == 1
        )

    def replay(self, budget: int = DEFAULT_RULE_BUDGET) -> bool:
        """Re-run all five checks on the stored data."""
        if not self.cert1.verify(budget) or not self.cert2.verify(budget):
            return False
        if not self._stages_hold(budget):
            return False
        # the chain must connect: stage categories appear in the certificates
        if self.cert1.i.source != self.x.cat or self.cert1.i.target != self.px:
            return False
        if self.cert1.q.target != self.sx.cat:
            return False
        if self.cert2.i.source != self.sx.cat or self.cert2.i.target != self.psx:
            return False
        if self.cert2.q.target != self.s2x.cat:
            return False
        if self.contract_px.category != self.px or self.contract_psx.category != self.psx:
            return False
        return _finite(self.s2x.cat, 4, budget).n == self.s2x_morphisms

    @staticmethod
    def from_json(doc: Union[str, Mapping]) -> "K0Witness":
        """Read format 2 or format 1; each stage is parsed once and shared.

        Only ``doc`` itself may be JSON text: a string nested where a
        category belongs is a stage name, or else an error naming its field.

        Text is read once per document: the witness read is kept in the
        cache of shared values, keyed by the text, and every call with that
        text gets that one read-only witness.  A parsed document is read
        each time.  Errors are not kept; they are raised again.
        """
        if not isinstance(doc, str):
            return _read_witness(doc)
        return share(_read_text, doc)


def _read_text(text: str) -> K0Witness:
    """``K0Witness.from_json`` of JSON text, which the cache keys by."""
    return _read_witness(json.loads(text))


def _read_witness(doc: Mapping) -> K0Witness:
    """``K0Witness.from_json`` of a parsed document."""
    obj = _json_object(doc, "witness")
    if obj.get("format") not in K0_FORMATS_READ:
        raise CatError("unrecognized witness format")
    doc_stages = _json_object(obj["stages"], "stages")
    stages = {"X": _read_category("input.category", obj["input"]["category"])}
    for name in K0_STAGES[1:]:
        stages[name] = _read_category(f"stages.{name}", doc_stages[name])

    def read(field: str, value) -> FpCategory:
        """A stage name reads as that stage, an object as a category."""
        if not isinstance(value, str):
            return _read_category(field, value)
        if value not in stages:
            raise CatError(f"{field}: unknown stage {value!r}")
        return stages[value]

    def within(cert: str) -> Callable:
        return lambda field, value: read(f"{cert}.{field}", value)

    return K0Witness(
        PointedCategory(stages["X"], obj["input"]["basepoint"]),
        stages["PX"],
        PointedCategory(stages["SX"], doc_stages["SX_basepoint"]),
        stages["PSX"],
        PointedCategory(stages["S2X"], doc_stages["S2X_basepoint"]),
        CofiberCertificate.from_json(_json_object(obj["cert1"], "cert1"), within("cert1")),
        CofiberCertificate.from_json(_json_object(obj["cert2"], "cert2"), within("cert2")),
        ContractibilityCertificate(
            read("contract_PX.category", obj["contract_PX"]["category"]),
            _frozen(obj["contract_PX"]["objects"]),
        ),
        ContractibilityCertificate(
            read("contract_PSX.category", obj["contract_PSX"]["category"]),
            _frozen(obj["contract_PSX"]["objects"]),
        ),
        _frozen(obj["terminal_S2X"]["morphisms"]),
    )


def k0_vanishing_witness(
    X: PointedCategory, budget: int = DEFAULT_RULE_BUDGET
) -> K0Witness:
    """Assemble and check the five-certificate vanishing witness for X.

    The two cofiber certificates were checked as they were made, and the
    stages chain by construction, so what ``replay`` would add is
    ``_stages_hold``: the two contractibility checks and that Σ²X is the
    terminal category.

    Each witness is assembled once per key: X's presentation key
    (``X.cat._key``), its mate table as ordered pairs, the basepoint and
    the budget.  The witness is kept in the cache of shared values once its
    checks pass, and every call with an equal key gets that one read-only
    witness, whose input stage is ``==`` to the caller's ``X``;
    ``_stages_hold`` runs on every witness returned.  Errors are not kept;
    they are raised again.
    """
    X = as_pointed_fp(X)
    key = (_assembled, X.cat._key, tuple(X.cat.inverses.items()), X.basepoint, budget)
    kept = _lookup(key)
    witness = _assembled(X, budget) if kept is None else kept
    if not witness._stages_hold(budget):
        raise CatError("freshly assembled witness failed to replay")
    return _keep(key, witness) if kept is None else witness


def _assembled(X: PointedCategory, budget: int) -> K0Witness:
    """The witness for X, before ``_stages_hold`` is checked."""
    sx, po1, unit1 = _suspension(X)
    cert1 = _cofiber_sequence(unit1, po1.inj_left, sx.basepoint, budget, po1)
    if not isinstance(cert1, CofiberCertificate):
        raise CatError(f"first cofiber sequence failed: {cert1.reason}")
    s2x, po2, unit2 = _suspension(sx)
    cert2 = _cofiber_sequence(unit2, po2.inj_left, s2x.basepoint, budget, po2)
    if not isinstance(cert2, CofiberCertificate):
        raise CatError(f"second cofiber sequence failed: {cert2.reason}")
    px, psx = unit1.target, unit2.target
    return K0Witness(
        X,
        px,
        sx,
        psx,
        s2x,
        cert1,
        cert2,
        ContractibilityCertificate(px, len(px.objects)),
        ContractibilityCertificate(psx, len(psx.objects)),
        _finite(s2x.cat, 4, budget).n,
    )


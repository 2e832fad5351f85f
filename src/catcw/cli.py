"""Command-line front end.

Verbs map one-to-one onto library operations; every verb can emit a
machine-readable report with --json (canonical key order, so identical
inputs give byte-identical output).  Exit status: 0 for a positive verdict,
1 for a negative verdict, 2 for input errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .colimits import pushout
from .cw import (
    GroupoidComponent,
    GroupoidPresentation,
    build_two_complex,
    cw_classify,
    sphere,
)
from .fpcat import (
    DEFAULT_HOM_BOUND,
    DEFAULT_RULE_BUDGET,
    CatError,
    FpCategory,
    NotFinite,
    Path,
    _canonical_json,
    _functor_defect,
    _json_object,
    from_json as category_from_json,
    functor_from_json,
    to_finite,
)
from .model_structure import (
    DEFAULT_PRODUCT_BOUND,
    NotDecided,
    find_equivalence,
)
from .ktheory import K0Witness, PointedCategory, cone, k0_vanishing_witness, suspend
from .sheaftopos import (
    IsoCertificate,
    classify_cw_sheaf,
    exotic_map_demo,
    require_connected,
    sheafify_constant,
    space_from_json,
    unit_check,
)


class InputError(Exception):
    pass


def _read_json(path: str):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if isinstance(obj, str):
        # the from_json readers take a string for JSON text and would parse it again
        raise InputError(f"{path}: expected a JSON object, got a string")
    return obj


def _category_field(obj, field: str) -> FpCategory:
    """The category in ``obj[field]``, which must be a JSON object: a nested
    string is no JSON text to parse again."""
    return category_from_json(_json_object(obj[field], field))


def _load(path: str, parse):
    obj = _read_json(path)
    try:
        return parse(obj)
    except (KeyError, TypeError) as exc:
        raise InputError(f"{path}: missing or malformed field {exc}")


def _load_category(path: str) -> FpCategory:
    return _load(path, category_from_json)


def _load_pointed(path: str, basepoint: str | None) -> PointedCategory:
    obj = _read_json(path)
    try:
        if isinstance(obj, dict) and "category" in obj:
            cat = _category_field(obj, "category")
            bp = basepoint or obj.get("basepoint")
        else:
            cat = category_from_json(obj)
            bp = basepoint
        if bp is None:
            if not cat.objects:
                raise InputError(f"{path}: empty category needs no basepoint")
            bp = cat.objects[0]
        return PointedCategory(cat, bp)
    except (KeyError, TypeError) as exc:
        raise InputError(f"{path}: missing or malformed field {exc}")


def _emit(report: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(_canonical_json(report))
    else:
        for line in lines:
            print(line)


def _word(path_obj) -> str:
    return ";".join(path_obj.gens) if path_obj.gens else f"id_{path_obj.at}"


def _defect_text(defect: dict) -> str:
    """A functor defect (``fpcat._functor_defect``) in words."""
    if defect["defect"] == "relation":
        lhs, rhs = (Path.from_json_obj(defect[side]) for side in ("lhs", "rhs"))
        return f"breaks the relation {_word(lhs)} = {_word(rhs)} of A"
    image = "no arrow of its target" if defect["defect"] == "image" else (
        "an arrow with the wrong endpoints"
    )
    return f"sends generator {defect['generator']!r} to {image}"


# ---------------------------------------------------------------------------
# Verb handlers


def _cmd_check(args) -> int:
    cat = _load_category(args.file)
    rs = cat.completion(args.budget)
    report = {
        "objects": len(cat.objects),
        "generators": len(cat.generators),
        "relations": len(cat.relations),
        "complete": rs.complete,
        "rules": len(rs.rules),
    }
    lines = [
        f"objects: {report['objects']}  generators: {report['generators']}  "
        f"relations: {report['relations']}",
        f"completion: {'complete' if rs.complete else 'budget exhausted'} "
        f"({report['rules']} rules)",
    ]
    status = 0
    if args.to_finite:
        try:
            fin = to_finite(cat, args.bound, args.budget)
            report["finite"] = True
            report["morphisms"] = fin.n
            lines.append(f"finite: yes ({fin.n} morphisms)")
        except NotFinite as exc:
            report["finite"] = False
            report["hom"] = [exc.src, exc.dst]
            report["forms"] = [_word(p) for p in exc.forms]
            lines.append(f"NotFinite: hom({exc.src}, {exc.dst}) exceeds bound {args.bound}")
            lines.extend(f"  {w}" for w in report["forms"])
            status = 1
    _emit(report, args.json, lines)
    return status


def _cmd_sphere(args) -> int:
    cat = sphere(args.n)
    report = cat.to_json_obj()
    lines = [
        f"sphere({args.n}): {len(cat.objects)} objects, "
        f"{len(cat.generators)} generators, {len(cat.relations)} relations"
    ]
    status = 0
    if args.to_finite:
        try:
            fin = to_finite(cat, args.bound, args.budget)
            report = {"sphere": args.n, "finite": True, "morphisms": fin.n}
            lines.append(f"finite: yes ({fin.n} morphisms)")
        except NotFinite as exc:
            forms = [_word(p) for p in exc.forms]
            report = {
                "sphere": args.n,
                "finite": False,
                "hom": [exc.src, exc.dst],
                "forms": forms,
            }
            lines.append(
                f"NotFinite: hom({exc.src}, {exc.dst}) exceeds bound {args.bound}; "
                f"normal forms found:"
            )
            lines.extend(f"  {w}" for w in forms)
            status = 1
    _emit(report, args.json, lines)
    return status


def _cmd_equiv(args) -> int:
    A = to_finite(_load_category(args.left), args.bound, args.budget)
    B = to_finite(_load_category(args.right), args.bound, args.budget)
    F = find_equivalence(A, B, args.product_bound)
    if F is None:
        _emit(
            {"equivalent": False},
            args.json,
            ["NotEquivalence: no equivalence found by exhaustive search"],
        )
        return 1
    report = {"equivalent": True, "object_map": dict(F.object_map)}
    _emit(report, args.json, ["equivalence found", f"  object map: {F.object_map}"])
    return 0


def _cmd_pushout(args) -> int:
    obj = _read_json(args.file)
    try:
        A, B, C = (_category_field(obj, field) for field in "ABC")
        f = functor_from_json(A, B, obj["f"])
        g = functor_from_json(A, C, obj["g"])
    except (KeyError, TypeError) as exc:
        raise InputError(f"{args.file}: missing or malformed field {exc}")
    for name, leg in (("f", f), ("g", g)):
        defect = _functor_defect(leg, args.budget)
        if defect is not None:
            _emit({"functor": False, "leg": name, "witness": defect}, args.json,
                  [f"NotFunctor: leg {name} {_defect_text(defect)}"])
            return 1
    po = pushout(f, g)
    report = {
        "apex": po.apex.to_json_obj(),
        "inj_left": po.inj_left.to_json_obj(),
        "inj_right": po.inj_right.to_json_obj(),
    }
    lines = [
        f"apex: {len(po.apex.objects)} objects, {len(po.apex.generators)} generators, "
        f"{len(po.apex.relations)} relations"
    ]
    if args.verify_square:
        ok = po.verify(args.budget)
        report["square_commutes"] = ok
        lines.append(f"square commutes: {ok}")
        if not ok:
            _emit(report, args.json, lines)
            return 1
    _emit(report, args.json, lines)
    return 0


def _cmd_suspend(args) -> int:
    X = _load_pointed(args.file, args.basepoint)
    sx = suspend(X)
    report = {"category": sx.cat.to_json_obj(), "basepoint": sx.basepoint}
    _emit(
        report,
        args.json,
        [
            f"suspension: {len(sx.cat.objects)} object(s), "
            f"{len(sx.cat.generators)} generators, basepoint {sx.basepoint}"
        ],
    )
    return 0


def _cmd_cone(args) -> int:
    X = _load_pointed(args.file, args.basepoint)
    px = cone(X)
    report = {"category": px.cat.to_json_obj(), "basepoint": px.basepoint}
    _emit(
        report,
        args.json,
        [
            f"cone: chaotic on {len(px.cat.objects)} object(s), "
            f"basepoint {px.basepoint}"
        ],
    )
    return 0


def _cmd_k0(args) -> int:
    if args.verify:
        doc = _read_json(args.verify)
        try:
            witness = K0Witness.from_json(doc)
        except (KeyError, TypeError, CatError) as exc:
            raise InputError(f"{args.verify}: {exc}")
        ok = witness.replay(args.budget)
        _emit(
            {"replay": ok},
            args.json,
            [f"witness replay: {'ok' if ok else 'FAILED'}"],
        )
        return 0 if ok else 1
    if not args.file:
        raise InputError("k0-witness needs an input file or --verify")
    X = _load_pointed(args.file, args.basepoint)
    witness = k0_vanishing_witness(X, args.budget)
    text = witness.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"witness written to {args.out}")
    else:
        print(text)
    return 0


def _cmd_cw_classify(args) -> int:
    cat = _load_category(args.file)
    try:
        verdict = cw_classify(cat, args.bound, args.budget)
    except NotDecided as exc:
        _emit({"verdict": "NotDecided"}, args.json, [f"NotDecided: {exc}"])
        return 1
    report = {"verdict": verdict.kind, "witness": repr(verdict.witness)}
    lines = [f"verdict: {verdict.kind}", f"witness: {verdict.witness}"]
    if verdict.note:
        report["note"] = verdict.note
        lines.append(f"note: {verdict.note}")
    _emit(report, args.json, lines)
    return 0 if verdict.kind in ("Dim0", "Dim1", "Dim2") else 1


def _random_presentation(seed: int) -> GroupoidPresentation:
    rng = random.Random(seed)
    comps = []
    for _ in range(rng.randint(1, 2)):
        k = rng.randint(1, 3)
        gens = tuple(f"g{i}" for i in range(k))
        rels = []
        for _ in range(rng.randint(0, 2)):
            length = rng.randint(1, 4)
            word = tuple(
                rng.choice(gens) + rng.choice(("", "^-1")) for _ in range(length)
            )
            rels.append(word)
        comps.append(GroupoidComponent((), gens, tuple(rels)))
    return GroupoidPresentation(tuple(comps))


def _cmd_cw_build(args) -> int:
    if args.file == "random":
        gp = _random_presentation(args.seed)
    else:
        gp = _load(args.file, GroupoidPresentation.from_json)
    cat = build_two_complex(gp)
    report = {"presentation": gp.to_json_obj(), "complex": cat.to_json_obj()}
    _emit(
        report,
        args.json,
        [
            f"two-complex: {len(cat.objects)} objects, {len(cat.generators)} "
            f"generators, {len(cat.relations)} relations"
        ],
    )
    return 0


def _cmd_sheaf_unit(args) -> int:
    A = to_finite(_load_category(args.category), args.bound, args.budget)
    space = _load(args.space, space_from_json)
    result = unit_check(A, space)
    if isinstance(result, IsoCertificate):
        _emit(
            {"unit_iso": True},
            args.json,
            ["unit is an isomorphism (verified with explicit inverse)"],
        )
        return 0
    _emit(
        {"unit_iso": False, "reason": result.reason, "witness": repr(result.witness)},
        args.json,
        [f"unit is not an isomorphism: {result.reason} {result.witness or ''}".rstrip()],
    )
    return 1


def _cmd_sheaf_exotic(args) -> int:
    xi, in_image = exotic_map_demo(args.variant)
    expected = args.variant != "exotic"
    lines = [
        "space: discrete {u,v}; object: sheafified 2-object discrete category",
        "map: identity over u, "
        + ("identity over v" if args.variant == "identity"
           else "constant at 0.pt over v" if args.variant == "exotic"
           else "constant at 0.pt over u and v"),
    ]
    for u in xi.source.space.opens:
        comp = xi.components[u]
        lines.append(f"  xi({sorted(u)}): {comp.object_map}")
    lines.append(
        "verdict: in constant image" if in_image else "verdict: not in constant image"
    )
    _emit(
        {"variant": args.variant, "in_constant_image": in_image},
        args.json,
        lines,
    )
    return 0 if in_image == expected else 1


def _cmd_sheaf_classify(args) -> int:
    A = to_finite(_load_category(args.category), args.bound, args.budget)
    space = _load(args.space, space_from_json)
    require_connected(space)
    verdict = classify_cw_sheaf(sheafify_constant(A, space))
    report = {"verdict": verdict.kind}
    lines = [f"verdict: {verdict.kind}"]
    if verdict.witness is not None:
        report["witness"] = repr(verdict.witness)
        lines.append(f"witness: {verdict.witness}")
    _emit(report, args.json, lines)
    return 0 if verdict.kind == "CW" else 1


# ---------------------------------------------------------------------------
# Parser


def _int_at_least(lo: int):
    """argparse type: an int no smaller than ``lo``, else a usage error (exit 2)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value

    return parse


def _add_common(p, bound=False, budget=False, product=False):
    if bound:
        p.add_argument("--bound", type=_int_at_least(1), default=DEFAULT_HOM_BOUND,
                       help="hom-set enumeration bound")
    if budget:
        p.add_argument("--budget", type=_int_at_least(0), default=DEFAULT_RULE_BUDGET,
                       help="completion rule budget")
    if product:
        p.add_argument("--product-bound", type=_int_at_least(1),
                       default=DEFAULT_PRODUCT_BOUND, help="functor search node cap")
    p.add_argument("--json", action="store_true", help="machine-readable report")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catcw",
        description="Finitely presented categories: model structure, CW "
        "classification, K-theory witnesses, sheaf checks",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("check", help="validate a presentation file")
    p.add_argument("file")
    p.add_argument("--to-finite", action="store_true", help="try hom enumeration")
    _add_common(p, bound=True, budget=True)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("sphere", help="emit the n-sphere presentation")
    p.add_argument("n", type=_int_at_least(0))
    p.add_argument("--to-finite", action="store_true")
    _add_common(p, bound=True, budget=True)
    p.set_defaults(handler=_cmd_sphere)

    p = sub.add_parser("equiv", help="search for an equivalence between two presentations")
    p.add_argument("left")
    p.add_argument("right")
    _add_common(p, bound=True, budget=True, product=True)
    p.set_defaults(handler=_cmd_equiv)

    p = sub.add_parser("pushout", help="pushout of a span file {A,B,C,f,g}")
    p.add_argument("file")
    p.add_argument("--verify", dest="verify_square", action="store_true",
                   help="re-check the square commutes")
    _add_common(p, budget=True)
    p.set_defaults(handler=_cmd_pushout)

    p = sub.add_parser("suspend", help="suspension of a pointed category")
    p.add_argument("file")
    p.add_argument("--basepoint")
    _add_common(p)
    p.set_defaults(handler=_cmd_suspend)

    p = sub.add_parser("cone", help="cone of a pointed category")
    p.add_argument("file")
    p.add_argument("--basepoint")
    _add_common(p)
    p.set_defaults(handler=_cmd_cone)

    p = sub.add_parser("k0-witness", help="emit or re-verify a K0 vanishing witness")
    p.add_argument("file", nargs="?")
    p.add_argument("--basepoint")
    p.add_argument("--verify", metavar="FILE", help="replay a stored witness")
    p.add_argument("-o", "--out", help="write the witness to a file")
    _add_common(p, budget=True)
    p.set_defaults(handler=_cmd_k0)

    p = sub.add_parser("cw-classify", help="CW dimension of a presentation")
    p.add_argument("file")
    _add_common(p, bound=True, budget=True)
    p.set_defaults(handler=_cmd_cw_classify)

    p = sub.add_parser("cw-build", help="two-complex of a groupoid presentation")
    p.add_argument("file", help="presentation JSON, or 'random' with --seed")
    p.add_argument("--seed", type=int, default=0, help="seed for 'random' input")
    _add_common(p)
    p.set_defaults(handler=_cmd_cw_build)

    p = sub.add_parser("sheaf-unit", help="unit isomorphism check over a space")
    p.add_argument("category")
    p.add_argument("space")
    _add_common(p, bound=True, budget=True)
    p.set_defaults(handler=_cmd_sheaf_unit)

    p = sub.add_parser("sheaf-exotic", help="the exotic attaching map demo")
    p.add_argument("--variant", choices=["exotic", "identity", "constant"],
                   default="exotic")
    _add_common(p)
    p.set_defaults(handler=_cmd_sheaf_exotic)

    p = sub.add_parser("sheaf-classify", help="CW recognition for a constant sheaf")
    p.add_argument("category")
    p.add_argument("space")
    _add_common(p, bound=True, budget=True)
    p.set_defaults(handler=_cmd_sheaf_classify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except CatError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

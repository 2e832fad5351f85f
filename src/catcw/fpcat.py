"""Finitely presented categories with a decidable-in-practice word problem.

A category is presented by a quiver (named objects and generating arrows)
together with path relations and a symmetric table of formally inverse
generator pairs.  Paths compose diagrammatically: ``Path("x", ("f", "g"))``
means "f then g".  The word problem is attacked by shortlex Knuth-Bendix
completion over generator words; generator order is declaration order.  When
completion halts the rewriting system is confluent and ``normalize`` computes
canonical forms, which powers hom-set enumeration (``to_finite``), functor
checking, and everything downstream.

>>> zc = build(["*"], [("a", "*", "*")], invertible=["a"])
>>> rs = complete(zc)
>>> rs.status
'complete'
>>> normalize(zc, Path("*", ("a", "a^-1", "a"))).gens
('a',)
"""

from __future__ import annotations

import bisect
import functools
import json
import warnings
from collections import Counter, OrderedDict, namedtuple
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .kernel import RuleTable

DEFAULT_RULE_BUDGET = 500
DEFAULT_HOM_BOUND = 64


class CatError(Exception):
    """Base class for domain errors."""


class DuplicateName(CatError):
    pass


class DanglingEndpoint(CatError):
    pass


class NonParallelRelation(CatError):
    pass


class BudgetTooSmall(CatError, ValueError):
    """The rule budget cannot even hold the presentation's relations.

    A ``ValueError`` too, so callers that caught the untyped error still do.
    """

    def __init__(self, budget: int, relations: int):
        self.budget = budget
        self.relations = relations
        super().__init__(f"rule budget {budget} is below the relation count {relations}")


class IncompleteSystem(CatError):
    """An operation needed a confluent rewriting system and did not get one.

    ``budget`` is the rule budget the completion ran under and ``rules`` the
    number of rules in the incomplete system it ended with.
    """

    def __init__(self, message: str, budget: int, rules: int):
        self.budget = budget
        self.rules = rules
        super().__init__(message)


class IncompleteSystemWarning(UserWarning):
    """normalize() was asked for canonical forms under a non-confluent system."""


class NotFinite(CatError):
    """Hom-set enumeration exceeded the bound.

    Carries the offending hom-set, the normal forms found there (one more
    than ``bound``) and the per-hom ``bound`` that ran out.
    """

    def __init__(self, src: str, dst: str, forms: Sequence["Path"], bound: int):
        self.src = src
        self.dst = dst
        self.forms = tuple(forms)
        self.bound = bound
        super().__init__(f"hom({src}, {dst}) has more than {bound} normal forms")


def _canonical_json(obj) -> str:
    """``obj`` as JSON with sorted keys and no spaces: the one spelling of
    every document and report catcw writes.

    Every such document is a tree just built, so the encoder is not asked to
    look for cycles, which it would do at every container."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), check_circular=False)


def _json_list(value, field: str) -> list | tuple:
    """``value`` if it is a JSON array; else a TypeError naming ``field``.

    A string would otherwise pass as a sequence of one-letter names.
    """
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"{field!r}: expected a list, got {type(value).__name__}")
    return value


def _json_str(value, field: str) -> str:
    """``value`` if it is a JSON string; else a TypeError naming ``field``."""
    if not isinstance(value, str):
        raise TypeError(f"{field!r}: expected a string, got {type(value).__name__}")
    return value


def _json_object(value, field: str) -> Mapping:
    """``value`` if it is a JSON object; else a TypeError naming ``field``.

    A ``dict`` passes without the ``Mapping`` ABC check, which costs more.
    """
    if type(value) is not dict and not isinstance(value, Mapping):
        raise TypeError(f"{field!r}: expected an object, got {type(value).__name__}")
    return value


_is_str = str.__instancecheck__  # isinstance(v, str) as a one-argument builtin


def _json_names(value, field: str) -> list[str]:
    """A JSON array of strings, checked entry by entry."""
    return [_json_str(v, field) for v in _json_list(value, field)]


def _names(value, field: str) -> tuple[str, ...]:
    """A JSON array of strings as a tuple; else a TypeError naming ``field``.

    A list of strings passes in one scan in C; anything else gets the checks
    of ``_json_names``, which name the field at fault.
    """
    if type(value) is list and all(map(_is_str, value)):
        return tuple(value)
    return tuple(_json_names(value, field))


@dataclass(frozen=True, slots=True)
class Generator:
    name: str
    src: str
    dst: str


@dataclass(frozen=True, slots=True)
class Path:
    """A composable word of generators starting at ``at``.

    ``gens`` empty means the identity at ``at``.  Composition is
    diagrammatic: the first entry is applied first.
    """

    at: str
    gens: tuple[str, ...] = ()

    def __post_init__(self):
        if type(self.gens) is not tuple:
            object.__setattr__(self, "gens", tuple(self.gens))

    @property
    def is_identity(self) -> bool:
        return not self.gens

    def to_json_obj(self) -> dict:
        return {"at": self.at, "gens": list(self.gens)}

    @staticmethod
    def from_json_obj(obj: Mapping) -> "Path":
        at = _json_str(obj["at"], "at")
        return Path(at, _names(obj["gens"], "gens"))

Relation = tuple[Path, Path]


class Quiver:
    """Named objects plus generating arrows; the shape datum of a presentation."""

    def __init__(self, objects: Iterable[str], generators: Iterable[Generator]):
        self.objects: tuple[str, ...] = tuple(objects)
        gens = []
        for g in generators:
            if not isinstance(g, Generator):
                g = Generator(*g)
            gens.append(g)
        self.generators: tuple[Generator, ...] = tuple(gens)
        seen: set[str] = set()
        for name in self.objects:
            if name in seen:
                raise DuplicateName(f"object {name!r} declared twice")
            seen.add(name)
        self._obj_set = frozenset(self.objects)
        self.gen_by_name: dict[str, Generator] = {}
        self.gen_index: dict[str, int] = {}
        for i, g in enumerate(self.generators):
            if g.name in seen or g.name in self.gen_by_name:
                raise DuplicateName(f"generator {g.name!r} clashes with an existing name")
            if g.src not in self._obj_set:
                raise DanglingEndpoint(f"generator {g.name!r} has unknown source {g.src!r}")
            if g.dst not in self._obj_set:
                raise DanglingEndpoint(f"generator {g.name!r} has unknown target {g.dst!r}")
            self.gen_by_name[g.name] = g
            self.gen_index[g.name] = i

    def has_object(self, name: str) -> bool:
        return name in self._obj_set

    def check_path(self, p: Path) -> str:
        """The object ``p`` ends at; raise unless it is a composable word
        rooted at a declared object."""
        if p.at not in self._obj_set:
            raise DanglingEndpoint(f"path starts at unknown object {p.at!r}")
        cur = p.at
        for name in p.gens:
            g = self.gen_by_name.get(name)
            if g is None:
                raise DanglingEndpoint(f"path uses unknown generator {name!r}")
            if g.src != cur:
                raise DanglingEndpoint(
                    f"generator {name!r} expects source {g.src!r}, path is at {cur!r}"
                )
            cur = g.dst
        return cur

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Quiver)
            and self.objects == other.objects
            and self.generators == other.generators
        )

    __hash__ = None  # type: ignore[assignment]


def _encode(quiver: Quiver, gens: Iterable[str]) -> tuple[int, ...]:
    """Generator names as their indices in ``quiver``."""
    return tuple(map(quiver.gen_index.__getitem__, gens))


def _unit_index(relations: Iterable[Relation]) -> set[tuple[str, str, str]]:
    """``(src, g, m)`` for every relation ``g;m`` = the identity at ``src``, either way round.

    Plain string triples, so a lookup hashes no ``Path``.
    """
    units = set()
    for lhs, rhs in relations:
        if lhs.at == rhs.at:
            if not rhs.gens and len(lhs.gens) == 2:
                units.add((lhs.at, *lhs.gens))
            elif not lhs.gens and len(rhs.gens) == 2:
                units.add((rhs.at, *rhs.gens))
    return units


class _PresentationKey(tuple):
    """A presentation's objects, ``(name, src, dst)`` generators and
    ``(lhs.at, lhs.gens, rhs.at, rhs.gens)`` relations: a tuple that hashes
    once.  Copies of a presentation share it, so the caches that key on it
    hash no name tuple again; it equals the plain tuple of its parts."""

    def __init__(self, parts):
        self._hash = tuple.__hash__(self)

    def __hash__(self):
        return self._hash


class FpCategory:
    """A presentation: quiver, path relations, and mate pairs of inverses."""

    def __init__(
        self,
        quiver: Quiver,
        relations: Iterable[Relation] = (),
        inverses: Mapping[str, str] | None = None,
    ):
        self.quiver = quiver
        rels, names = [], []
        for lhs, rhs in relations:
            lhs_dst = quiver.check_path(lhs)
            rhs_dst = quiver.check_path(rhs)
            if lhs.at != rhs.at or lhs_dst != rhs_dst:
                raise NonParallelRelation(f"relation sides are not parallel: {lhs} vs {rhs}")
            rels.append((lhs, rhs))
            names.append((lhs.at, lhs.gens, rhs.at, rhs.gens))
        self.relations: tuple[Relation, ...] = tuple(rels)
        # the key of the completion and pushout caches: objects, generators
        # and relations as names
        self._key = _PresentationKey((
            quiver.objects,
            tuple((g.name, g.src, g.dst) for g in quiver.generators),
            tuple(names),
        ))
        inv = dict(inverses or {})
        units = _unit_index(rels) if inv else set()
        for g, m in inv.items():
            if g not in quiver.gen_by_name or m not in quiver.gen_by_name:
                raise DanglingEndpoint(f"inverse pair ({g!r}, {m!r}) names unknown generators")
            if inv.get(m) != g:
                raise NonParallelRelation(f"inverse table is not symmetric at {g!r}")
            gg, mm = quiver.gen_by_name[g], quiver.gen_by_name[m]
            if gg.src != mm.dst or gg.dst != mm.src:
                raise NonParallelRelation(f"mates {g!r}, {m!r} have incompatible endpoints")
            if (gg.src, g, m) not in units:
                raise NonParallelRelation(f"marked pair ({g!r}, {m!r}) lacks its unit relations")
        self.inverses: dict[str, str] = inv
        self._completions: dict[int, "RewritingSystem"] = {}

    @property
    def objects(self) -> tuple[str, ...]:
        return self.quiver.objects

    @property
    def generators(self) -> tuple[Generator, ...]:
        return self.quiver.generators

    def copy(self) -> "FpCategory":
        """This presentation, not checked again, with its own inverse table and
        no completions yet; the quiver, relations and completion key are shared."""
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__)
        new.inverses = dict(self.inverses)
        new._completions = {}
        return new

    def identity(self, obj: str) -> Path:
        if not self.quiver.has_object(obj):
            raise DanglingEndpoint(f"unknown object {obj!r}")
        return Path(obj)

    def completion(self, budget: int = DEFAULT_RULE_BUDGET) -> "RewritingSystem":
        """The completed system, shared with every equal presentation.

        The first call per budget looks the presentation up by content in a
        process-wide cache of finished completions, and this instance keeps
        the system it gets.
        """
        rs = self._completions.get(budget)
        if rs is None:
            rs = self._completions[budget] = _shared_completion(self, budget)
        return rs

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FpCategory)
            and self.quiver == other.quiver
            and self.relations == other.relations
            and self.inverses == other.inverses
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self):
        return (
            f"FpCategory({len(self.objects)} objects, {len(self.generators)} generators, "
            f"{len(self.relations)} relations)"
        )

    def to_json_obj(self) -> dict:
        return {
            "objects": list(self.objects),
            "generators": [
                {"name": g.name, "src": g.src, "dst": g.dst} for g in self.generators
            ],
            "relations": [
                {"lhs": l.to_json_obj(), "rhs": r.to_json_obj()} for l, r in self.relations
            ],
            "invertible": [g.name for g in self.generators if g.name in self.inverses],
        }

    def to_json(self) -> str:
        return _canonical_json(self.to_json_obj())


def build(
    objects: Iterable[str],
    generators: Iterable[Generator | tuple[str, str, str]] = (),
    relations: Iterable[Relation | tuple] = (),
    invertible: Iterable[str] = (),
) -> FpCategory:
    """Assemble a presentation, expanding invertibility markings.

    Each name in ``invertible`` is paired with a mate: an existing generator
    that has no mate yet and is already tied to it by the two unit relations
    if one is declared (the first in declaration order, mates synthesized
    earlier counting as declared last), else a fresh ``<name>^-1`` generator
    with the unit relations appended.  The mate may be the generator itself
    when the presentation says it squares to an identity.  Unit relations are looked
    up in a set of name triples and candidates in a ``(src, dst)`` index, so
    intake is linear in the relations and generators.
    """
    objects = tuple(objects)
    gens: list[Generator] = []
    for g in generators:
        gens.append(g if isinstance(g, Generator) else Generator(*g))
    rels: list[Relation] = []
    for lhs, rhs in relations:
        if not isinstance(lhs, Path):
            lhs = Path(*lhs)
        if not isinstance(rhs, Path):
            rhs = Path(*rhs)
        rels.append((lhs, rhs))

    wanted = list(dict.fromkeys(invertible))
    by_name = {g.name: g for g in gens}
    for name in wanted:
        if name not in by_name:
            raise DanglingEndpoint(f"invertible marking names unknown generator {name!r}")

    units = _unit_index(rels) if wanted else set()
    # generator names by (src, dst) in declaration order, synthesized mates last
    by_ends: dict[tuple[str, str], list[str]] = {}
    for g in gens:
        by_ends.setdefault((g.src, g.dst), []).append(g.name)

    def has_unit(a: str, b: str) -> bool:
        return (by_name[a].src, a, b) in units

    inverses: dict[str, str] = {}
    for name in wanted:
        if name in inverses:
            continue
        g = by_name[name]
        mate = None
        for cand in by_ends.get((g.dst, g.src), ()):
            if cand not in inverses and has_unit(name, cand) and has_unit(cand, name):
                mate = cand
                break
        if mate is None:
            mate = f"{name}^-1"
            if mate in by_name or mate in objects:
                raise DuplicateName(f"cannot synthesize mate {mate!r}: name in use")
            mg = Generator(mate, g.dst, g.src)
            gens.append(mg)
            by_name[mate] = mg
            by_ends.setdefault((g.dst, g.src), []).append(mate)
            rels.append((Path(g.src, (name, mate)), Path(g.src)))
            rels.append((Path(g.dst, (mate, name)), Path(g.dst)))
            units.update([(g.src, name, mate), (g.dst, mate, name)])
        inverses[name] = mate
        inverses[mate] = name

    return FpCategory(Quiver(objects, gens), rels, inverses)


def _read_fields(obj) -> tuple:
    """Everything ``build`` reads from a parsed document, as plain tuples:
    ``(objects, ((name, src, dst), ...), ((lhs.at, lhs.gens, rhs.at,
    rhs.gens), ...), invertible)``.

    Fields are read and checked in that order.  A missing field is a
    KeyError; a list field that is not a JSON array, or a name that is not
    a JSON string, is a TypeError naming the field.  Well-formed parts pass
    the inline type checks; only the others reach the ``_json_*`` helpers,
    which raise or take a tuple for an array.
    """
    objects = _names(obj["objects"], "objects")
    generators = []
    gens = obj["generators"]
    for g in gens if type(gens) is list else _json_list(gens, "generators"):
        name = g["name"]
        if type(name) is not str:
            _json_str(name, "name")
        src = g["src"]
        if type(src) is not str:
            _json_str(src, "src")
        dst = g["dst"]
        if type(dst) is not str:
            _json_str(dst, "dst")
        generators.append((name, src, dst))
    relations = []
    rels = obj["relations"]
    for r in rels if type(rels) is list else _json_list(rels, "relations"):
        side = r["lhs"]
        lhs_at = side["at"]
        if type(lhs_at) is not str:
            _json_str(lhs_at, "at")
        lhs_gens = _names(side["gens"], "gens")
        side = r["rhs"]
        rhs_at = side["at"]
        if type(rhs_at) is not str:
            _json_str(rhs_at, "at")
        relations.append((lhs_at, lhs_gens, rhs_at, _names(side["gens"], "gens")))
    invertible = _names(obj.get("invertible", []), "invertible")
    return objects, tuple(generators), tuple(relations), invertible


def _built(
    objects: tuple[str, ...],
    generators: tuple[tuple[str, str, str], ...],
    relations: tuple[tuple[str, tuple[str, ...], str, tuple[str, ...]], ...],
    invertible: tuple[str, ...],
) -> FpCategory:
    """The presentation ``build`` makes of what ``_read_fields`` read."""
    return build(objects, generators, _paths(relations), invertible)


def from_json(doc: Union[str, Mapping]) -> FpCategory:
    """Read ``to_json`` output (text or a parsed object) back.

    ``_read_fields`` reads the document to plain tuples, which key the
    presentations read before: a presentation is built and checked only the
    first time its key is read.  Each call returns a ``copy()``, so equal
    documents share the quiver and relations but not the inverse table or
    the completions.  Errors are not kept; they are raised again.
    """
    obj = json.loads(doc) if isinstance(doc, str) else doc
    return _shared(_built, *_read_fields(obj))


def _from_tuples(
    objects: tuple[str, ...],
    generators: tuple[tuple[str, str, str], ...],
    relations: tuple[tuple[str, tuple[str, ...], str, tuple[str, ...]], ...],
    mates: tuple[tuple[str, str], ...],
) -> FpCategory:
    """The presentation of plain tuples: ``(name, src, dst)`` generators,
    ``(lhs.at, lhs.gens, rhs.at, rhs.gens)`` relations and the inverse
    table's items in order.  The constructions key their apexes by these
    tuples, so ``Generator`` and ``Path`` objects are made only on a miss."""
    return FpCategory(Quiver(objects, generators), _paths(relations), dict(mates))


def _paths(relations) -> list[Relation]:
    """``(lhs.at, lhs.gens, rhs.at, rhs.gens)`` tuples as pairs of paths."""
    return [(Path(la, lg), Path(ra, rg)) for la, lg, ra, rg in relations]


def discrete(names: Iterable[str]) -> FpCategory:
    return build(tuple(names))


def terminal(name: str = "pt") -> FpCategory:
    return _shared(_point, name)


def _point(name) -> FpCategory:
    return build((name,))


# ---------------------------------------------------------------------------
# Completion


class RewritingSystem:
    """Oriented, interreduced rules over a presentation's generator words.

    ``finite`` is empty until ``to_finite`` has built this system's table,
    then ``[largest hom-set size, table]``.
    """

    def __init__(self, quiver: Quiver, rules: Sequence[Relation], status: str, table: RuleTable):
        """``table`` is ``rules`` encoded over ``quiver``'s generators, in order."""
        self.quiver = quiver
        self.rules = tuple(rules)
        self.status = status  # "complete" | "incomplete"
        self._table = table
        self.finite: list = []
        self._names = tuple(g.name for g in quiver.generators)

    @property
    def complete(self) -> bool:
        return self.status == "complete"

    def reduce_word(self, word: tuple[int, ...]) -> tuple[int, ...]:
        return self._table.reduce(word)

    def normalize(self, p: Path) -> Path:
        self.quiver.check_path(p)
        if not self.complete:
            warnings.warn(
                "rewriting system is not confluent; returning a best-effort reduct",
                IncompleteSystemWarning,
                stacklevel=2,
            )
        idx = self.quiver.gen_index
        out = self._table.reduce(tuple(idx[n] for n in p.gens))
        return Path(p.at, tuple(self._names[i] for i in out))


def _shortlex_key(word: tuple[int, ...]) -> tuple:
    return (len(word), word)


def _orient(w1: tuple[int, ...], w2: tuple[int, ...]):
    k1, k2 = _shortlex_key(w1), _shortlex_key(w2)
    if k1 == k2:
        return None
    return (w1, w2) if k1 > k2 else (w2, w1)


def _rule_key(rule: tuple) -> tuple:
    return (_shortlex_key(rule[0]), _shortlex_key(rule[1]))


def _lhs_length(rule: tuple) -> int:
    return len(rule[0])


def _has_factor(words: Sequence[tuple], factors: Sequence[tuple]) -> bool:
    """True iff one of ``factors`` occurs in one of ``words``."""
    return any(
        w[s : s + len(f)] == f for f in factors for w in words for s in range(len(w) - len(f) + 1)
    )


def _interreduce(rules: list[tuple]) -> list[tuple]:
    """Reduce every rule by the others until none changes.

    The rules are kept in table order: sorted by (lhs, rhs) in shortlex
    order.  The scan walks them in that order and stops at the first rule
    that the other rules rewrite: that rule is reduced on both sides by the
    others, dropped, and put back re-oriented unless its sides met.  (A
    rule's own lhs can never match inside its rhs, shortlex, so this is a
    full interreduction.)  The rules come out as if every rule of every
    pass were reduced by a ``RuleTable`` of the others and each pass began
    again at the first rule, in the same order, but no table is built.

    Whether the others rewrite a rule, and to what, is asked of one index
    that lives for the whole call: each lhs with the rhs of its rules in
    table order, and the lhs lengths in use.
    A word is reducible by the others exactly when a factor of it is an lhs
    there, once the rule's own entry is set aside.  Its reduct follows
    ``RuleTable.reduce``: at the leftmost position where any lhs matches,
    the first matching rule in table order.  Table order is shortlex
    (lhs, rhs), so that rule has the shortest matching lhs, then the least
    rhs, and trying the lengths in use from the shortest finds it.

    After a rewrite the scan resumes instead of starting over.  A rule
    already found irreducible stays so until a new lhs is added, and only
    that lhs can make it reducible, so each rule keeps how many lhs had
    been added when it was last checked and is checked again for the later
    ones only; a rule whose lhs is shorter than the new one cannot contain
    it.  Only the rules of the input get the full check: a re-oriented
    rule's sides are reducts by the others, so it starts out irreducible.
    """
    rules = sorted(set(rules), key=_rule_key)
    index: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for lhs, rhs in rules:
        index.setdefault(lhs, []).append(rhs)
    lengths = sorted(set(map(len, index)))
    added: list[tuple[int, ...]] = []  # lhs of the re-oriented rules, in order
    checked = [-1] * len(rules)  # len(added) when each rule was last irreducible, -1: unchecked

    def reduct(word: tuple[int, ...], lhs: tuple[int, ...], rhs: tuple[int, ...]):
        """``word`` reduced by every indexed rule but one copy of lhs -> rhs."""
        back = lengths[-1] - 1
        p = 0
        while p < len(word):
            for k in lengths:
                f = word[p : p + k]
                if len(f) < k:  # no longer lhs fits here either
                    p += 1
                    break
                rhss = index.get(f)
                if rhss is None:
                    continue
                r = rhss[0]
                if f == lhs and r == rhs:
                    if len(rhss) == 1:
                        continue
                    r = rhss[1]
                word = word[:p] + r + word[p + k :]
                p = max(0, p - back)
                break
            else:
                p += 1
        return word

    pos = 0
    while pos < len(rules):
        lhs, rhs = rules[pos]
        since = checked[pos]
        if since < 0 or _has_factor((lhs, rhs), added[since:]):
            l2, r2 = reduct(lhs, lhs, rhs), reduct(rhs, lhs, rhs)
        else:
            l2, r2 = lhs, rhs
        if (l2, r2) == (lhs, rhs):
            checked[pos] = len(added)
            pos += 1
            continue
        del rules[pos], checked[pos]
        rhss = index[lhs]
        rhss.remove(rhs)
        if not rhss:
            del index[lhs]
            lengths = sorted(set(map(len, index)))
        oriented = _orient(l2, r2)
        if oriented is None:
            continue
        q = bisect.bisect_right(rules, _rule_key(oriented), key=_rule_key)
        lhs, rhs = oriented
        added.append(lhs)
        rules.insert(q, oriented)
        checked.insert(q, len(added))  # both sides are reducts by the others
        index[lhs] = [rhs]  # an lhs irreducible by the others is no lhs of theirs
        if len(lhs) not in lengths:
            bisect.insort(lengths, len(lhs))
        # a rule whose lhs is shorter than the new one cannot contain it
        pos = min(pos, bisect.bisect_left(rules, len(lhs), key=_lhs_length))
    return rules


def _critical_pairs(rules: Sequence[tuple]) -> Iterator[tuple[tuple, tuple]]:
    for (l1, r1) in rules:
        for (l2, r2) in rules:
            top = min(len(l1), len(l2))
            for k in range(1, top):
                if l1[-k:] == l2[:k]:
                    # overlap word l1 + l2[k:], rewritten two ways
                    yield (r1 + l2[k:], l1[:-k] + r2)


def complete(cat: FpCategory, budget: int = DEFAULT_RULE_BUDGET) -> RewritingSystem:
    """Shortlex Knuth-Bendix completion with a total rule-addition budget.

    Generator names determine endpoints, so typed words behave exactly like
    strings here; no extra composability bookkeeping is needed.
    """
    if budget < len(cat.relations):
        raise BudgetTooSmall(budget, len(cat.relations))
    idx = cat.quiver.gen_index
    rules: list[tuple] = []
    for lhs, rhs in cat.relations:
        oriented = _orient(
            tuple(idx[n] for n in lhs.gens), tuple(idx[n] for n in rhs.gens)
        )
        if oriented is not None:
            rules.append(oriented)
    added = len(rules)
    status = "complete"
    while True:
        rules = _interreduce(rules)
        table = RuleTable(rules)
        fresh: list[tuple] = []
        seen = set(rules)
        for c1, c2 in _critical_pairs(rules):
            n1, n2 = table.reduce(c1), table.reduce(c2)
            oriented = _orient(n1, n2)
            if oriented is not None and oriented not in seen:
                seen.add(oriented)
                fresh.append(oriented)
        if not fresh:
            break
        if added + len(fresh) > budget:
            room = budget - added
            rules.extend(fresh[:room])
            added = budget
            status = "incomplete"
            rules = _interreduce(rules)
            table = RuleTable(rules)
            break
        rules.extend(fresh)
        added += len(fresh)

    names = tuple(g.name for g in cat.quiver.generators)
    gens = cat.quiver.gen_by_name

    def decode(word: tuple[int, ...], at_hint: str) -> Path:
        if word:
            return Path(gens[names[word[0]]].src, tuple(names[i] for i in word))
        return Path(at_hint, ())

    out: list[Relation] = []
    for lhs, rhs in rules:
        at = gens[names[lhs[0]]].src
        out.append((decode(lhs, at), decode(rhs, at)))
    return RewritingSystem(cat.quiver, out, status, table)


# Presentations with equal objects, generators (in order) and relations (in
# order) complete to the same system under the same budget, and these are all
# that ``complete`` and ``to_finite`` read.  The inverse table is left out of
# the key on purpose: neither reads it (its unit relations are already among
# the relations), so presentations that differ only there share a system and
# its finite table.  The key spells generators and relations as tuples of
# names, which compare in C; ``FpCategory.__init__`` builds it while it checks
# the relations and hashes it once, and copies share it.
#
# The cache is bounded by cost, not by entries.  A system costs
# ``COMPLETION_ENTRY_CHARGE`` for its Python objects, plus one per rule, plus
# one per cell of the table ``to_finite`` later puts in its ``finite`` slot
# (charged when the slot fills).  Least recently used systems are dropped until
# the total is within ``COMPLETION_CACHE_BOUND``; a system that alone exceeds
# the bound is returned but not kept.  Many small systems stay cached while one
# large table (S6 has 518,400 cells) is not pinned.
COMPLETION_ENTRY_CHARGE = 128
COMPLETION_CACHE_BOUND = 65_536

_completion_systems: dict[tuple, RewritingSystem] = {}
# least recently used first, each system with ``[key, cost]``; systems hash by
# identity, so moving one to the recent end hashes none of the name tuples in
# its key
_completion_order: OrderedDict[RewritingSystem, list] = OrderedDict()
_completion_stats: Counter = Counter()  # hits, misses, cost

CompletionCacheInfo = namedtuple("CompletionCacheInfo", "hits misses entries cost bound")


def _shared_completion(cat: FpCategory, budget: int) -> RewritingSystem:
    """The one system of ``cat``'s completion, made on a miss by completing
    ``cat`` itself; it is returned even when it alone exceeds the bound and
    so is not kept.

    The key is ``cat._key`` and the budget.  The system keeps ``cat``'s
    quiver, which every presentation with that key has equal, and no
    reference to ``cat``.
    """
    key = (cat._key, budget)
    rs = _completion_systems.get(key)
    if rs is not None:
        _completion_order.move_to_end(rs)
        _completion_stats["hits"] += 1
        return rs
    _completion_stats["misses"] += 1
    rs = _completion_systems[key] = complete(cat, budget)
    _completion_order[rs] = [key, 0]
    _charge(rs, COMPLETION_ENTRY_CHARGE + len(rs.rules))
    return rs


def _charge(rs: RewritingSystem, cost: int) -> None:
    """Add ``cost`` to a cached system, which becomes the most recently used;
    drop it if it alone exceeds the bound, then the least recently used
    systems until the total is within it."""
    slot = _completion_order[rs]
    slot[1] += cost
    _completion_stats["cost"] += cost
    _completion_order.move_to_end(rs)
    if slot[1] > COMPLETION_CACHE_BOUND:
        _drop(rs)
    while _completion_stats["cost"] > COMPLETION_CACHE_BOUND:
        _drop(next(iter(_completion_order)))


def _drop(rs: RewritingSystem) -> None:
    key, cost = _completion_order.pop(rs)
    del _completion_systems[key]
    _completion_stats["cost"] -= cost


# One cache holds every presentation catcw would otherwise build again for
# equal input: the documents ``from_json`` reads, keyed by what ``_read_fields``
# reads (``build`` reads nothing else), and the constructions' presentations,
# keyed by the arguments of ``terminal`` and ``chaotic``, by the plain tuples
# ``_from_tuples`` reads, or, for ``colimits.pushout``, by its span's plain
# tuples, where the entry is the apex with its injections' maps.  The maker
# leads the key, so equal tuples from two makers do not meet.  The cached
# presentation is never handed out, only its copies.  These entries are small
# and uniform, so a count bounds them.  Keys are typed: names equal in value
# but not in type (``1`` and ``True``) do not meet.  Nested names are ``str``
# already: the reader checks them, and the constructions make them by
# concatenation.
INTAKE_CACHE_SIZE = 128


@functools.lru_cache(maxsize=INTAKE_CACHE_SIZE, typed=True)
def _shared_presentation(make, *key):
    """What ``make(*key)`` builds and checks, made once per key."""
    return make(*key)


def _shared(make, *key) -> FpCategory:
    """A ``copy()`` of the shared presentation ``make(*key)``: its own
    inverse table and no completions, the quiver, relations and completion
    key shared.  Errors are not kept; they are raised again."""
    return _shared_presentation(make, *key).copy()


def completion_cache_info() -> CompletionCacheInfo:
    """Hits, misses, entries, cost in use and cost bound of the cache behind
    ``FpCategory.completion``.

    Direct calls to ``complete`` bypass the cache and are not counted.  A
    system costs ``COMPLETION_ENTRY_CHARGE``, plus its rules, plus the cells
    of its finite table once ``to_finite`` has built it.

    >>> clear_completion_cache()
    >>> doc = build(["x"], [("t", "x", "x")], [(Path("x", ("t", "t")), Path("x"))]).to_json()
    >>> a, b = from_json(doc), from_json(doc)
    >>> a is not b and a.completion() is b.completion()
    True
    >>> completion_cache_info()
    CompletionCacheInfo(hits=1, misses=1, entries=1, cost=129, bound=65536)
    >>> to_finite(a).n  # a 2 x 2 table
    2
    >>> completion_cache_info()
    CompletionCacheInfo(hits=1, misses=1, entries=1, cost=133, bound=65536)
    >>> clear_completion_cache()
    >>> completion_cache_info()
    CompletionCacheInfo(hits=0, misses=0, entries=0, cost=0, bound=65536)
    """
    s = _completion_stats
    return CompletionCacheInfo(
        s["hits"], s["misses"], len(_completion_systems), s["cost"], COMPLETION_CACHE_BOUND
    )


def clear_completion_cache() -> None:
    """Forget every shared completion, the finite table built from each, and
    the presentations shared between equal documents and equal constructions.

    Instances keep the systems and tables they already hold, so a memoised
    presentation such as ``sphere(n)`` still answers from its old system.
    """
    _completion_systems.clear()
    _completion_order.clear()
    _completion_stats.clear()
    _shared_presentation.cache_clear()


def normalize(cat: FpCategory, p: Path, budget: int = DEFAULT_RULE_BUDGET) -> Path:
    """Canonical form of a path (warns when the system is not confluent)."""
    return cat.completion(budget).normalize(p)


def _require_complete(cat: FpCategory, budget: int) -> RewritingSystem:
    rs = cat.completion(budget)
    if not rs.complete:
        raise IncompleteSystem(
            f"completion exhausted its budget of {budget} rules; results would be unreliable",
            budget,
            len(rs.rules),
        )
    return rs


def _normal_forms(
    cat: FpCategory, rs: RewritingSystem
) -> Iterator[tuple[str, str, tuple[int, ...]]]:
    """Yield ``(src, dst, word)`` for every irreducible word, one at a time.

    Irreducible words form a factor-closed language, so breadth-first
    extension by single generators enumerates them exactly: the identities
    in object order, then each length level in the order its words extend
    the previous level.  The stream is infinite when the language is.
    """
    idx = cat.quiver.gen_index
    lhs_set = {l for l, _ in rs._table.rules}
    max_lhs = rs._table.max_lhs
    out_gens: dict[str, list[tuple[int, str]]] = {x: [] for x in cat.objects}
    for g in cat.quiver.generators:
        out_gens[g.src].append((idx[g.name], g.dst))

    level: list[tuple[str, str, tuple[int, ...]]] = [(x, x, ()) for x in cat.objects]
    yield from level
    while level:
        nxt: list[tuple[str, str, tuple[int, ...]]] = []
        for src, dst, word in level:
            for gi, gdst in out_gens[dst]:
                w2 = word + (gi,)
                # the prefix is irreducible, so only suffixes can be redexes
                for l in range(1, min(len(w2), max_lhs) + 1):
                    if w2[-l:] in lhs_set:
                        break
                else:
                    yield src, gdst, w2
                    nxt.append((src, gdst, w2))
        level = nxt


def _hom_words(
    cat: FpCategory, rs: RewritingSystem, src: str, dst: str, max_len: int
) -> Iterator[tuple[int, ...]]:
    """The irreducible words of hom(src, dst) of length <= max_len, lazily,
    in ``_normal_forms`` order."""
    for s, d, word in _normal_forms(cat, rs):
        if len(word) > max_len:
            return
        if s == src and d == dst:
            yield word


def irreducible_words(
    cat: FpCategory, max_len: int, budget: int = DEFAULT_RULE_BUDGET
) -> dict[tuple[str, str], list[Path]]:
    """All normal-form words of length <= max_len, grouped by hom-set."""
    rs = _require_complete(cat, budget)
    names = tuple(g.name for g in cat.quiver.generators)
    by_hom: dict[tuple[str, str], list[Path]] = {}
    for src, dst, word in _normal_forms(cat, rs):
        if len(word) > max_len:
            break
        by_hom.setdefault((src, dst), []).append(Path(src, tuple(names[i] for i in word)))
    return by_hom


# ---------------------------------------------------------------------------
# Finite backend


class FiniteCategory:
    """Explicit objects, morphisms, and a composition table.

    Morphisms are dense int ids.  ``compose(f, g)`` is diagrammatic (f then
    g), matching Path order.  Instances built by ``to_finite`` carry the
    normal-form ``paths`` and a ``gen_image`` map from generator names.

    ``copy()`` gives an instance with dicts of its own: ``to_finite`` keeps
    one table per completion and hands each caller a copy, so a caller that
    edits its table changes no other caller's.
    """

    def __init__(
        self,
        objects: Sequence[str],
        mor_src: Sequence[str],
        mor_dst: Sequence[str],
        compose: Mapping[tuple[int, int], int],
        identities: Mapping[str, int],
        labels: Sequence[str] | None = None,
        paths: Sequence[Path] | None = None,
        gen_image: Mapping[str, int] | None = None,
    ):
        self.objects = tuple(objects)
        self.mor_src = tuple(mor_src)
        self.mor_dst = tuple(mor_dst)
        self.compose_table = dict(compose)
        self.identities = dict(identities)
        self.labels = tuple(labels) if labels is not None else tuple(
            f"m{i}" for i in range(len(mor_src))
        )
        self.paths = tuple(paths) if paths is not None else None
        self.gen_image = dict(gen_image) if gen_image is not None else None
        self._hom: dict[tuple[str, str], tuple[int, ...]] = {}
        for s in self.objects:
            for d in self.objects:
                self._hom[(s, d)] = ()
        buckets: dict[tuple[str, str], list[int]] = {}
        for i in range(self.n):
            buckets.setdefault((self.mor_src[i], self.mor_dst[i]), []).append(i)
        for k, v in buckets.items():
            self._hom[k] = tuple(v)
        self._inverses: dict[int, int] | None = None
        self.validate()

    @property
    def n(self) -> int:
        return len(self.mor_src)

    def hom(self, src: str, dst: str) -> tuple[int, ...]:
        return self._hom[(src, dst)]

    def copy(self) -> "FiniteCategory":
        """This category with dicts of its own, not validated again; the tuples are shared."""
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__)
        new.compose_table = dict(self.compose_table)
        new.identities = dict(self.identities)
        if self.gen_image is not None:
            new.gen_image = dict(self.gen_image)
        new._inverses = None
        return new

    def compose(self, f: int, g: int) -> int:
        out = self.compose_table.get((f, g))
        if out is None:
            raise DanglingEndpoint(f"morphisms {f} and {g} are not composable")
        return out

    def is_identity(self, i: int) -> bool:
        return self.identities.get(self.mor_src[i]) == i and self.mor_src[i] == self.mor_dst[i]

    def validate(self) -> None:
        """Check identities, endpoints, totality and associativity of the table.

        Associativity uses Light's test (Clifford and Preston, *The Algebraic
        Theory of Semigroups* I (1961), section 1.2): once the identity laws
        hold, ``(x;a);y == x;(a;y)`` for every ``a`` in a generating set and
        all composable ``x`` and ``y`` implies it for every middle factor,
        because the middles that pass are closed under composition.  That is
        O(n^2 |gens|) lookups instead of O(n^3).  The generating set is the
        non-identity part of ``gen_image`` when a closure from the
        identities confirms that it generates, and otherwise every
        non-identity morphism, which is the full check.
        """
        seen = set()
        for x, i in self.identities.items():
            if x not in self.objects:
                raise DanglingEndpoint(f"identity declared at unknown object {x!r}")
            if self.mor_src[i] != x or self.mor_dst[i] != x:
                raise DanglingEndpoint(f"identity of {x!r} has wrong endpoints")
            seen.add(x)
        if seen != set(self.objects):
            raise DanglingEndpoint("missing identity morphism")
        for (f, g), h in self.compose_table.items():
            if self.mor_dst[f] != self.mor_src[g]:
                raise DanglingEndpoint("composition table pairs non-composable morphisms")
            if self.mor_src[h] != self.mor_src[f] or self.mor_dst[h] != self.mor_dst[g]:
                raise DanglingEndpoint("composite has wrong endpoints")
        into: dict[str, list[int]] = {x: [] for x in self.objects}
        out: dict[str, list[int]] = {x: [] for x in self.objects}
        for h in range(self.n):
            into[self.mor_dst[h]].append(h)
            out[self.mor_src[h]].append(h)
        # every key is a composable pair, so counting them shows the table is total
        if len(self.compose_table) != sum(len(into[x]) * len(out[x]) for x in self.objects):
            raise DanglingEndpoint("composition table is missing a composable pair")
        for f in range(self.n):
            if self.compose_table[(self.identities[self.mor_src[f]], f)] != f:
                raise NonParallelRelation("left identity law fails")
            if self.compose_table[(f, self.identities[self.mor_dst[f]])] != f:
                raise NonParallelRelation("right identity law fails")
        table = self.compose_table
        for a in self._generating_set():
            ys = out[self.mor_dst[a]]
            a_ys = [table[(a, y)] for y in ys]
            for x in into[self.mor_src[a]]:
                xa = table[(x, a)]
                if [table[(xa, y)] for y in ys] != [table[(x, ay)] for ay in a_ys]:
                    raise NonParallelRelation("associativity fails")

    def _generating_set(self) -> list[int]:
        """Non-identity ``gen_image`` morphisms if they generate, else all non-identities."""
        if self.gen_image is not None:
            gens = sorted({i for i in self.gen_image.values() if not self.is_identity(i)})
            gens_from: dict[str, list[int]] = {x: [] for x in self.objects}
            for a in gens:
                gens_from[self.mor_src[a]].append(a)
            reached = set(self.identities.values())
            frontier = list(reached)
            for x in frontier:  # grows while it is read: a breadth-first closure
                for a in gens_from[self.mor_dst[x]]:
                    y = self.compose_table[(x, a)]
                    if y not in reached:
                        reached.add(y)
                        frontier.append(y)
            if len(reached) == self.n:
                return gens
        return [i for i in range(self.n) if not self.is_identity(i)]

    def inverses(self) -> dict[int, int]:
        """Two-sided inverses, computed once: i -> j with i;j and j;i identities."""
        if self._inverses is None:
            inv: dict[int, int] = {}
            for f in range(self.n):
                for g in self._hom[(self.mor_dst[f], self.mor_src[f])]:
                    if (
                        self.compose_table[(f, g)] == self.identities[self.mor_src[f]]
                        and self.compose_table[(g, f)] == self.identities[self.mor_src[g]]
                    ):
                        inv[f] = g
                        break
            self._inverses = inv
        return self._inverses

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, FiniteCategory)
            and self.objects == other.objects
            and self.mor_src == other.mor_src
            and self.mor_dst == other.mor_dst
            and self.compose_table == other.compose_table
            and self.identities == other.identities
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self):
        return f"FiniteCategory({len(self.objects)} objects, {self.n} morphisms)"


def to_finite(
    cat: FpCategory, bound: int = DEFAULT_HOM_BOUND, budget: int = DEFAULT_RULE_BUDGET
) -> FiniteCategory:
    """Enumerate normal forms per hom-set, then fill the table from the Cayley graph.

    Every nonempty level adds at least one normal form to some hom-set, so
    with the per-hom bound this always terminates: either the language dries
    up (finite category) or some hom-set exceeds ``bound`` (NotFinite).

    The table then needs only the right action of the generators on the
    normal forms, ``right[f][a]`` = the normal form of ``f;a``: one short
    reduction per (morphism, generator) pair instead of one long one per
    composable pair (Froidure and Pin, "Algorithms for computing finite
    semigroups", 1997).  Irreducible words are factor-closed, so a normal
    form ``g = g'a`` has its prefix ``g'`` earlier in discovery order, and
    ``f;g = right[f;g'][a]`` costs one lookup per cell.

    The table is built once per completion and kept in its ``finite`` slot
    with its largest hom-set size; its cells are charged to the shared
    system in the completion cache, which may drop it.  The bound only
    decides whether ``NotFinite`` is raised, so any bound at least that size
    answers from the slot; a smaller one builds again and raises.  Each call returns a
    ``copy()``, so equal presentations share the work but not the dicts.
    Errors are not kept; they are raised again.

    >>> c3 = build(["x"], [("t", "x", "x")], [(Path("x", ("t",) * 3), Path("x"))], ["t"])
    >>> fin = to_finite(c3)
    >>> fin.labels
    ('id_x', 't', 't^-1')
    >>> [[fin.labels[fin.compose(f, g)] for g in range(fin.n)] for f in range(fin.n)]
    [['id_x', 't', 't^-1'], ['t', 't^-1', 'id_x'], ['t^-1', 'id_x', 't']]
    >>> again = to_finite(from_json(c3.to_json()))
    >>> again == fin, again is fin, again.paths is fin.paths
    (True, False, True)
    """
    return _finite(cat, bound, budget).copy()


def _finite(cat: FpCategory, bound: int, budget: int) -> FiniteCategory:
    """The table ``to_finite`` copies: the one kept in the system's
    ``finite`` slot, built there on first use.  catcw's own readers take it
    as it is and must not edit it."""
    rs = _require_complete(cat, budget)
    if rs.finite and bound >= rs.finite[0]:
        return rs.finite[1]
    idx = cat.quiver.gen_index
    names = tuple(g.name for g in cat.quiver.generators)
    words: list[tuple[str, tuple[int, ...]]] = []  # (src, word) in discovery order
    word_id: dict[tuple[str, tuple[int, ...]], int] = {}
    hom_forms: dict[tuple[str, str], list[tuple[int, ...]]] = {}
    mor_src: list[str] = []
    mor_dst: list[str] = []
    identities: dict[str, int] = {}
    for src, dst, word in _normal_forms(cat, rs):
        i = len(words)
        words.append((src, word))
        word_id[(src, word)] = i
        mor_src.append(src)
        mor_dst.append(dst)
        if not word:
            identities[src] = i
        forms = hom_forms.setdefault((src, dst), [])
        forms.append(word)
        if len(forms) > bound:
            raise NotFinite(
                src, dst, [Path(src, tuple(names[k] for k in w)) for w in forms], bound
            )

    gens_from: dict[str, list[int]] = {x: [] for x in cat.objects}
    for g in cat.quiver.generators:
        gens_from[g.src].append(idx[g.name])
    right = [
        {a: word_id[(s, rs.reduce_word(w + (a,)))] for a in gens_from[d]}
        for (s, w), d in zip(words, mor_dst)
    ]
    # per object, the forms g leaving it in discovery order, as (g, id of g', a)
    steps: dict[str, list[tuple[int, int, int]]] = {x: [] for x in cat.objects}
    for g, (s, w) in enumerate(words):
        steps[s].append((g, word_id[(s, w[:-1])], w[-1]) if w else (g, -1, -1))
    compose: dict[tuple[int, int], int] = {}
    f_then = [0] * len(words)  # f_then[g] = f;g for the current f
    for f, d in enumerate(mor_dst):
        for g, prefix, a in steps[d]:
            f_then[g] = h = right[f_then[prefix]][a] if prefix >= 0 else f
            compose[(f, g)] = h

    paths = [Path(s, tuple(names[i] for i in w)) for s, w in words]
    gen_image = {g.name: right[identities[g.src]][idx[g.name]] for g in cat.quiver.generators}
    fin = FiniteCategory(
        cat.objects,
        mor_src,
        mor_dst,
        compose,
        identities,
        labels=[("id_" + s) if not p.gens else ";".join(p.gens) for (s, _), p in zip(words, paths)],
        paths=paths,
        gen_image=gen_image,
    )
    rs.finite[:] = [max(map(len, hom_forms.values()), default=0), fin]
    if rs in _completion_order:  # a dropped or uncached system's table costs the cache nothing
        _charge(rs, len(compose))
    return fin


def finite_to_fp(C: FiniteCategory) -> FpCategory:
    """Multiplication-table presentation: one generator per non-identity morphism."""
    gen_name: dict[int, str] = {}
    gens: list[tuple[str, str, str]] = []
    for i in range(C.n):
        if not C.is_identity(i):
            gen_name[i] = f"m{i}"
            gens.append((f"m{i}", C.mor_src[i], C.mor_dst[i]))
    rels: list[Relation] = []
    for f in sorted(gen_name):
        for g in sorted(gen_name):
            if C.mor_dst[f] != C.mor_src[g]:
                continue
            h = C.compose_table[(f, g)]
            lhs = Path(C.mor_src[f], (gen_name[f], gen_name[g]))
            rhs = Path(C.mor_src[f], () if C.is_identity(h) else (gen_name[h],))
            rels.append((lhs, rhs))
    return build(C.objects, gens, rels)


# ---------------------------------------------------------------------------
# Functors


def _check_object_map(source, target, object_map: Mapping) -> None:
    """Every source object has an image, and every image is a target object."""
    for x in source.objects:
        if x not in object_map:
            raise DanglingEndpoint(f"object {x!r} has no image")
    tgt_objects = set(target.objects)
    for y in object_map.values():
        if y not in tgt_objects:
            raise DanglingEndpoint(f"object image {y!r} is not in the target")


class Functor:
    """A functor out of a presentation.

    ``gen_map`` sends each generator name to a Path (presentation target) or
    a morphism id (finite target).  Construction checks only shape; semantic
    validity is ``check_functor``.
    """

    def __init__(
        self, source: FpCategory, target: FpCategory | FiniteCategory,
        object_map: Mapping, gen_map: Mapping,
    ):
        if not isinstance(source, FpCategory):
            raise TypeError("Functor needs a presentation source; use FiniteFunctor")
        if not isinstance(target, (FpCategory, FiniteCategory)):
            raise TypeError(f"Functor target must be a category, got {type(target).__name__}")
        self.source = source
        self.target = target
        self.object_map = dict(object_map)
        self.gen_map = dict(gen_map)
        _check_object_map(source, target, self.object_map)
        for g in source.quiver.generators:
            if g.name not in self.gen_map:
                raise DanglingEndpoint(f"generator {g.name!r} has no image")

    def apply_obj(self, x: str) -> str:
        return self.object_map[x]

    def apply_path(self, p: Path):
        """Image of a source path: a Path (fp target) or morphism id (finite)."""
        if isinstance(self.target, FpCategory):
            gens: list[str] = []
            for name in p.gens:
                gens.extend(self.gen_map[name].gens)
            return Path(self.apply_obj(p.at), tuple(gens))
        C: FiniteCategory = self.target
        cur = C.identities[self.apply_obj(p.at)]
        for name in p.gens:
            cur = C.compose_table[(cur, self.gen_map[name])]
        return cur

    def __eq__(self, other):
        if not isinstance(other, Functor):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.object_map == other.object_map
            and self.gen_map == other.gen_map
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self):
        return f"Functor({self.source!r} -> {self.target!r})"

    def to_json_obj(self) -> dict:
        gm = {k: v.to_json_obj() if isinstance(v, Path) else v for k, v in self.gen_map.items()}
        return {"object_map": dict(self.object_map), "gen_map": gm}


class FiniteFunctor:
    """A functor between finite categories, dense on morphisms.

    ``mor[i]`` is the image of source morphism ``i``, identities included.
    Construction checks the object map, the length of ``mor`` and that
    identities go to identities; the rest of validity is ``check_functor``.
    """

    def __init__(
        self, source: FiniteCategory, target: FiniteCategory,
        object_map: Mapping, mor: Sequence[int],
    ):
        if not isinstance(source, FiniteCategory) or not isinstance(target, FiniteCategory):
            raise TypeError("FiniteFunctor needs finite source and target; use Functor")
        self.source = source
        self.target = target
        self.object_map = dict(object_map)
        self.mor = tuple(mor)
        _check_object_map(source, target, self.object_map)
        if len(self.mor) != source.n:
            raise DanglingEndpoint(
                f"{len(self.mor)} morphism images for {source.n} source morphisms"
            )
        for x, i in source.identities.items():
            if self.mor[i] != target.identities[self.object_map[x]]:
                raise DanglingEndpoint(f"identity of {x!r} is not sent to an identity")

    def apply_obj(self, x: str) -> str:
        return self.object_map[x]

    def __eq__(self, other):
        if not isinstance(other, FiniteFunctor):
            return NotImplemented
        return (
            self.mor == other.mor
            and self.object_map == other.object_map
            and self.source == other.source
            and self.target == other.target
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self):
        return f"FiniteFunctor({self.source!r} -> {self.target!r})"

    def to_json_obj(self) -> dict:
        """Non-identity images keyed by ``str(id)``, as ``functor_from_json`` reads."""
        gm = {str(i): j for i, j in enumerate(self.mor) if not self.source.is_identity(i)}
        return {"object_map": dict(self.object_map), "gen_map": gm}


def functor_from_json(source, target, obj: Mapping) -> Functor | FiniteFunctor:
    """Read ``to_json_obj`` output back; the source's kind picks the class.

    A ``gen_map`` image must be a path object for a presentation target; any
    other image is a TypeError naming ``gen_map``.
    """
    object_map = _json_object(obj["object_map"], "object_map")
    gen_map = _json_object(obj["gen_map"], "gen_map")
    if isinstance(source, FiniteCategory) and isinstance(target, FiniteCategory):
        _check_object_map(source, target, object_map)
        mor = {int(k): v for k, v in gen_map.items()}
        for x, i in source.identities.items():
            mor[i] = target.identities[object_map[x]]
        missing = [i for i in range(source.n) if i not in mor]
        if missing:
            raise DanglingEndpoint(f"morphism {missing[0]} has no image")
        return FiniteFunctor(source, target, object_map, [mor[i] for i in range(source.n)])
    if isinstance(target, FpCategory):
        gen_map = {k: Path.from_json_obj(_json_object(v, "gen_map")) for k, v in gen_map.items()}
    return Functor(source, target, object_map, gen_map)


def identity_functor(C: FpCategory | FiniteCategory) -> Functor | FiniteFunctor:
    objects = {x: x for x in C.objects}
    if isinstance(C, FpCategory):
        return Functor(C, C, objects, {g.name: Path(g.src, (g.name,)) for g in C.generators})
    return FiniteFunctor(C, C, objects, range(C.n))


def _image_words(F: Functor) -> dict[str, tuple[int, ...]]:
    """Each generator's image under ``F`` (a presentation target), encoded
    over the target's generators."""
    quiver = F.target.quiver
    return {name: _encode(quiver, p.gens) for name, p in F.gen_map.items()}


def _image_word(images: Mapping | Sequence, word: Iterable) -> tuple[int, ...]:
    """The image of a source word whose letters key ``images``: the letters'
    image words, concatenated."""
    return tuple(chain.from_iterable(map(images.__getitem__, word)))


def _functor_defect(F: Functor, budget: int) -> dict | None:
    """The first defect of a functor out of a presentation, as JSON, or None.

    A defect is a generator whose image is no arrow of the target
    (``"image"``) or has the wrong endpoints (``"endpoints"``), or else the
    first relation whose sides have different images (``"relation"``).
    Under a presentation target the images of a relation's sides are
    compared as reduced generator-index words; both sides start at the same
    object, so the words decide.  A mismatch under an incomplete system
    raises ``IncompleteSystem``.
    """
    src, tgt = F.source, F.target
    finite = isinstance(tgt, FiniteCategory)
    for g in src.quiver.generators:
        img = F.gen_map[g.name]
        if finite:
            if not isinstance(img, int) or not (0 <= img < tgt.n):
                return {"defect": "image", "generator": g.name}
            ends = (tgt.mor_src[img], tgt.mor_dst[img])
        else:
            if not isinstance(img, Path):
                return {"defect": "image", "generator": g.name}
            try:
                ends = (img.at, tgt.quiver.check_path(img))
            except CatError:
                return {"defect": "image", "generator": g.name}
        if ends != (F.apply_obj(g.src), F.apply_obj(g.dst)):
            return {"defect": "endpoints", "generator": g.name}
    if finite:
        image = F.apply_path
    else:
        rs = tgt.completion(budget)
        images = _image_words(F)

        def image(p: Path) -> tuple[int, ...]:
            return rs.reduce_word(_image_word(images, p.gens))

    for lhs, rhs in src.relations:
        if image(lhs) != image(rhs):
            if not finite and not rs.complete:
                raise IncompleteSystem(
                    "cannot decide relation preservation under an incomplete system",
                    budget,
                    len(rs.rules),
                )
            return {"defect": "relation", "lhs": lhs.to_json_obj(), "rhs": rhs.to_json_obj()}
    return None


def check_functor(F: Functor | FiniteFunctor, budget: int = DEFAULT_RULE_BUDGET) -> bool:
    """True iff object/endpoint compatibility and relation preservation hold.

    A finite functor must preserve endpoints and every cell of the source's
    composition table; a functor out of a presentation must send generators
    to arrows with the right endpoints and preserve every relation
    (``_functor_defect`` finds nothing).
    """
    src, tgt = F.source, F.target
    if isinstance(F, FiniteFunctor):
        mor = F.mor
        for i, img in enumerate(mor):
            if not isinstance(img, int) or not (0 <= img < tgt.n):
                return False
            if (
                tgt.mor_src[img] != F.object_map[src.mor_src[i]]
                or tgt.mor_dst[img] != F.object_map[src.mor_dst[i]]
            ):
                return False
        table = tgt.compose_table
        return all(table[(mor[f], mor[g])] == mor[h] for (f, g), h in src.compose_table.items())
    return _functor_defect(F, budget) is None


def compose_functors(F: Functor, G: Functor) -> Functor:
    """G after F, as a single functor (sources compose diagrammatically)."""
    if F.target is not G.source and F.target != G.source:
        raise DanglingEndpoint("functors are not composable")
    object_map = {x: G.apply_obj(y) for x, y in F.object_map.items()}
    gen_map = {g.name: G.apply_path(F.gen_map[g.name]) for g in F.source.generators}
    return Functor(F.source, G.target, object_map, gen_map)


def functors_equal(F: Functor, G: Functor, budget: int = DEFAULT_RULE_BUDGET) -> bool:
    """Equality of functors as morphism maps.

    Fp-target images are compared by start object and reduced
    generator-index word; each image must be a path of the target.
    """
    if F.source != G.source or F.target != G.target:
        return False
    if F.object_map != G.object_map:
        return False
    names = [g.name for g in F.source.quiver.generators]
    if isinstance(F.target, FiniteCategory):
        return all(F.gen_map[k] == G.gen_map[k] for k in names)
    rs = F.target.completion(budget)
    quiver = F.target.quiver
    for k in names:
        p, q = F.gen_map[k], G.gen_map[k]
        quiver.check_path(p)
        quiver.check_path(q)
        if p.at != q.at:
            return False
        if rs.reduce_word(_encode(quiver, p.gens)) != rs.reduce_word(_encode(quiver, q.gens)):
            return False
    return True

"""Seeded inputs for the three workloads.

``deck(workload, seed, d)`` returns the d-th deck of queries as plain JSON
data: the program under test sees nothing but these inputs.  Decks are made
on demand, each from its own seeded generator, so a run can use as many as
its time allows and deck d is the same whatever came before it.  Every deck
of a workload holds the same strata of queries (say, one large table, four
mid-sized ones), and the seed draws each stratum's members, their names,
their order within the deck and the words and cells used for checking.
Fixing the strata keeps the cost of a deck nearly the same for every seed,
so that runs at different seeds can be compared.

Each stratum is also placed so that the median and the tail of a run fall
inside a block of queries of one cost: the median among the mid-sized
queries, the tail (the query with ten slower ones beyond it) among many
copies of one fixed query.

``queries.run_query`` answers each query and checks its verdict.
"""

from __future__ import annotations

import random

import presentations as pres

WORKLOADS = ("finite_tables", "word_problem", "homotopy")
SETUP_DECKS = 4  # decks generated at set-up, and hashed into the fingerprint


def deck(workload: str, seed: int, d: int) -> list[dict]:
    make = {"finite_tables": _table_deck, "word_problem": _word_deck, "homotopy": _homotopy_deck}
    return make[workload](random.Random(f"{workload}:{seed}:{d}"), seed, d)


# ---------------------------------------------------------------------------
# finite_tables: completion plus to_finite, with repeats across decks


# Strata of presentations with close morphism counts and costs.  Names are
# not tagged, so a presentation repeats the JSON of every earlier copy.  The
# 120-morphism groups alternate from deck to deck (their costs differ by a
# fifth).  Per deck, five cheaper and five dearer queries surround six
# 48-morphism tables, two of each kind, so the median falls among the
# dihedral ones; chaotic(7), four per deck, sets the tail.  The smallest
# stratum is drawn with replacement.
TABLE_LARGE = [("coxeter", "A", 4), ("coxeter", "H", 3)]
TABLE_FIXED = [("chaotic", 7)] * 4 + [("chaotic", 6)] + [("coxeter", "B", 3), ("dihedral", 24), ("abelian", 6, 8)] * 2
TABLE_SMALL = (4, [("coxeter", "A", 3), ("dihedral", 12), ("abelian", 4, 6), ("abelian", 3, 8), ("chaotic", 5)])


def _presentation(member: tuple, tag: str = "") -> dict:
    family, *args = member
    if family == "coxeter":
        return pres.coxeter(args[0], args[1], tag)
    if family == "dihedral":
        return pres.dihedral(args[0], tag)
    if family == "abelian":
        return pres.abelian(args[0], args[1], tag)
    if family == "chaotic":
        return pres.chaotic(args[0], tag)
    if family == "braid":
        return pres.braid_monoid(tag)
    raise ValueError(f"unknown family {family!r}")


def _budget(p: dict) -> int:
    return max(500, 2 * len(p["doc"]["relations"]))


def _table_deck(rng: random.Random, seed: int, d: int) -> list[dict]:
    count, small = TABLE_SMALL
    members = [TABLE_LARGE[(seed + d) % 2], *TABLE_FIXED] + [rng.choice(small) for _ in range(count)]
    out = []
    for member in members:
        p = _presentation(member)
        out.append({"kind": "table", "pres": p, "budget": _budget(p), "check_seed": rng.getrandbits(32)})
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# word_problem: fresh completions (writes) and long-word normal forms (reads)

READ_LEN = 200
READS = (2, 8, 2)  # reads per deck on S6, S7 and S8
BRAID_BUDGET = 60


def _random_word(rng: random.Random, names: list[str], length: int) -> list[str]:
    return [rng.choice(names) for _ in range(length)]


def _with_relators(rng: random.Random, word: list[str], relators: list[list[str]], count: int):
    """``word`` with ``count`` relators (words equal to the identity) inserted."""
    out = list(word)
    for _ in range(count):
        at = rng.randrange(len(out) + 1)
        out[at:at] = rng.choice(relators)
    return out


def _relators(p: dict) -> list[list[str]]:
    """Words equal to the identity in a one-object group presentation."""
    rels = []
    for r in p["doc"]["relations"]:
        lhs, rhs = r["lhs"]["gens"], r["rhs"]["gens"]
        if not rhs:
            rels.append(list(lhs))
    return rels


def _word_deck(rng: random.Random, seed: int, deck: int) -> list[dict]:
    # two S8 completions per deck set the tail; reads go to S6, S7 and S8,
    # most of them to S7, so that the median falls among S7 reads
    writes = [
        ("chaotic", rng.randint(5, 7)),
        ("dihedral", rng.randint(12, 40)),
        ("coxeter", "A", 5),
        ("coxeter", "A", 6),
        ("coxeter", "A", 7),
        ("coxeter", "A", 7),
        ("braid",),
    ]
    out = []
    readable: dict[tuple, tuple] = {}  # the first write of each symmetric group
    for i, member in enumerate(writes):
        p = _presentation(member, tag=f"d{deck}w{i}.")
        wid = f"{deck}.{i}"
        out.append({"kind": "write", "id": wid, "pres": p, "budget": BRAID_BUDGET if member[0] == "braid" else _budget(p), "check_seed": rng.getrandbits(32)})
        if member[0] == "coxeter":
            readable.setdefault(member, (wid, p))
    reads = []
    for (wid, p), count in zip(readable.values(), READS):
        names = [g["name"] for g in p["doc"]["generators"]]
        for _ in range(count):
            word = _random_word(rng, names, READ_LEN)
            reads.append({
                "kind": "read", "of": wid, "at": p["doc"]["objects"][0], "word": word,
                "word2": _with_relators(rng, word, _relators(p), 6),
            })
    rng.shuffle(reads)
    # every read comes after the write it reads from
    return out + reads


# ---------------------------------------------------------------------------
# homotopy: many small presentations through the construction layers


def _acyclic_pointed(rng: random.Random) -> dict:
    """A random finite pointed presentation: one or two arrows between two
    objects, plus maybe a loop of order 2 or 3.  (One object alone, or no
    arrow, makes a witness that costs half as much, and a run's median
    would then fall in the gap between the two kinds.)"""
    objs = ["o0", "o1"]
    gens = [{"name": f"g{i}", "src": "o0", "dst": "o1"} for i in range(rng.randint(1, 2))]
    rels, inv = [], []
    if rng.random() < 0.5:
        at, k = rng.choice(objs), rng.randint(2, 3)
        gens.append({"name": "t", "src": at, "dst": at})
        rels.append({"lhs": {"at": at, "gens": ["t"] * k}, "rhs": {"at": at, "gens": []}})
        inv.append("t")
    doc = {"objects": objs, "generators": gens, "relations": rels, "invertible": inv}
    return {"doc": doc, "basepoint": rng.choice(objs)}


def _groupoid_presentation(rng: random.Random) -> dict:
    comps = []
    for _ in range(rng.randint(1, 2)):
        gens = [f"g{i}" for i in range(rng.randint(0, 2))]
        extra = [f"t{i}" for i in range(rng.randint(0, 1))]
        rels = []
        if gens:
            for _ in range(rng.randint(0, 2)):
                rels.append([rng.choice([g, g + "^-1"]) for g in (rng.choice(gens) for _ in range(rng.randint(1, 3)))])
        comps.append({"extra_objects": extra, "generators": gens, "relations": rels})
    return {"components": comps}


SMALL_GROUPOIDS = [("abelian", 2, 1), ("abelian", 3, 1), ("chaotic", 2), ("chaotic", 3)]
MID_GROUPOIDS = [("abelian", 4, 1), ("abelian", 2, 2)]


def _cof_span(rng: random.Random) -> dict:
    """B <-f- A -g-> C with f an inclusion and C chaotic, as in acceptance
    criterion 6 of the test suite."""
    n = rng.randint(1, 3)
    objs = [f"a{i}" for i in range(n)]
    gens = [(f"g{i}", rng.choice(objs), rng.choice(objs)) for i in range(rng.randint(0, 3))]
    extra_objs = [f"b{i}" for i in range(rng.randint(0, 2))]
    all_objs = objs + extra_objs
    extra_gens = [(f"h{i}", rng.choice(all_objs), rng.choice(all_objs)) for i in range(rng.randint(0, 2))]
    c_objs = [f"c{i}" for i in range(rng.randint(1, 2))]
    cmap = {x: rng.choice(c_objs) for x in objs}

    def quiver(o, g):
        return {"objects": o, "generators": [{"name": a, "src": s, "dst": d} for a, s, d in g], "relations": [], "invertible": []}

    gmap = {}
    for name, s, d in gens:
        cs, cd = cmap[s], cmap[d]
        gmap[name] = {"at": cs, "gens": [] if cs == cd else [f"{cs}>{cd}"]}
    return {
        "A": quiver(objs, gens),
        "B": quiver(all_objs, gens + extra_gens),
        "C": pres.chaotic_doc(c_objs),
        "f": {"object_map": {x: x for x in objs}, "gen_map": {a: {"at": s, "gens": [a]} for a, s, _ in gens}},
        "g": {"object_map": cmap, "gen_map": gmap},
    }


UNIT_CATEGORIES = [
    pres.chaotic_doc(["p", "q"]),
    {"objects": ["a", "b"], "generators": [{"name": "f", "src": "a", "dst": "b"}], "relations": [], "invertible": []},
    {"objects": ["a", "b"], "generators": [{"name": "f", "src": "a", "dst": "b"}], "relations": [], "invertible": ["f"]},
    {"objects": ["x", "y"], "generators": [], "relations": [], "invertible": []},
]


def _random_space(rng: random.Random, opens_wanted: int) -> dict:
    """A finite space with exactly ``opens_wanted`` opens.

    The topology is the down-sets of a random partial order on 2-4 points;
    redraws until the count of down-sets matches.
    """
    while True:
        k = rng.randint(2, 4)
        pts = [f"p{i}" for i in range(k)]
        below = {i: {i} for i in range(k)}
        for i in range(k):
            for j in range(i):
                if rng.random() < 0.4:
                    below[i].add(j)
        # transitive closure (j < i only, so one pass in index order suffices)
        for i in range(k):
            for j in sorted(below[i]):
                below[i] |= below[j]
        opens = []
        for mask in range(1 << k):
            members = {i for i in range(k) if mask >> i & 1}
            if all(below[i] <= members for i in members):
                opens.append(sorted(pts[i] for i in members))
        if len(opens) == opens_wanted:
            return {"points": pts, "opens": opens}


UNIT_OPENS = [3, 4, 5, 5]


def _heavy_space(tag: str) -> dict:
    """Sierpinski space beside a point: six opens, disconnected.  The shape
    and the order of the point names are fixed, because unit_check's cost
    on it moves with both; only the names change."""
    a, b, c = (f"{tag}p{i}" for i in range(3))
    return {"points": [a, b, c], "opens": [[], [a], [a, b], [c], [a, c], [a, b, c]]}


def _homotopy_deck(rng: random.Random, seed: int, deck: int) -> list[dict]:
    # the six K0 witnesses hold the median, with about as many cheaper
    # queries (CW, small groupoid, most spans, 3 and 4 opens) as dearer ones
    # (mid groupoids, 5 opens); the unit_check on six opens, one per deck,
    # sets the tail
    out = []
    for _ in range(6):
        out.append({"kind": "k0", **_acyclic_pointed(rng)})
    out.append({"kind": "cw", "gp": _groupoid_presentation(rng)})
    for stratum in (SMALL_GROUPOIDS, MID_GROUPOIDS, MID_GROUPOIDS):
        out.append({"kind": "groupoid", "pres": _presentation(rng.choice(stratum))})
    for _ in range(2):
        out.append({"kind": "span", **_cof_span(rng)})
    for opens in UNIT_OPENS:
        out.append({"kind": "unit", "A": rng.choice(UNIT_CATEGORIES), "space": _random_space(rng, opens)})
    out.append({"kind": "unit", "A": UNIT_CATEGORIES[0], "space": _heavy_space(f"d{deck}.")})
    rng.shuffle(out)
    return out

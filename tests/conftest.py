"""Shared builders for the test suite.

Everything is deterministic: randomized pools take an explicit
``random.Random`` and the seeds are fixed in the tests that use them.
"""

import random

from hypothesis import strategies as st

from catcw import (
    FiniteCategory,
    FiniteFunctor,
    Functor,
    Path,
    PointedCategory,
    build,
    chaotic,
    coproduct,
    normalize,
    to_finite,
)


def terminal_cat():
    return build(["pt"], [], [], [])


def discrete2():
    return build(["x", "y"], [], [], [])


def arrow_cat():
    return build(["a", "b"], [("f", "a", "b")], [], [])


def interval_cat():
    """Two objects joined by an invertible generator."""
    return build(["a", "b"], [("f", "a", "b")], [], ["f"])


def c2_cat():
    return build(["x"], [("t", "x", "x")], [(Path("x", ("t", "t")), Path("x"))], ["t"])


def c3_cat():
    return build(
        ["x"], [("t", "x", "x")], [(Path("x", ("t", "t", "t")), Path("x"))], ["t"]
    )


def path2_cat():
    """Three objects in a row: a -> b -> c plus the composite."""
    return build(["a", "b", "c"], [("f", "a", "b"), ("g", "b", "c")], [], [])


def pool8():
    """Eight small categories (at most 3 objects) for colimit oracles."""
    return [
        terminal_cat(),
        discrete2(),
        arrow_cat(),
        interval_cat(),
        c2_cat(),
        c3_cat(),
        chaotic(["p", "q"]),
        path2_cat(),
    ]


def groupoid_pool6():
    """Six finite groupoids, including a 2-component one."""
    two_comp = coproduct([c2_cat(), c3_cat()]).apex
    return [
        to_finite(c2_cat()),
        to_finite(c3_cat()),
        to_finite(discrete2()),
        to_finite(chaotic(["p", "q"])),
        to_finite(interval_cat()),
        to_finite(two_comp),
    ]


def finite_form(F, bound=32, budget=500):
    """The finite-level functor induced by an fp functor with finite ends."""
    src = to_finite(F.source, bound, budget)
    dst = to_finite(F.target, bound, budget)
    mor = []
    for i in range(src.n):
        nf = normalize(F.target, F.apply_path(src.paths[i]))
        mor.append(next(j for j in range(dst.n) if dst.paths[j] == nf))
    return FiniteFunctor(src, dst, {x: F.apply_obj(x) for x in src.objects}, mor)


def _walks(cat, max_len=3, cap=200):
    """Short composable words bucketed by endpoints, including identities."""
    buckets = {}
    level = []
    for x in cat.objects:
        buckets.setdefault((x, x), []).append(Path(x))
        level.append((x, Path(x)))
    total = len(level)
    for _ in range(max_len):
        nxt = []
        for end, w in level:
            for g in cat.quiver.generators:
                if g.src == end:
                    w2 = Path(w.at, w.gens + (g.name,))
                    buckets.setdefault((w.at, g.dst), []).append(w2)
                    nxt.append((g.dst, w2))
                    total += 1
                    if total >= cap:
                        return buckets
        level = nxt
    return buckets


def random_pointed(rng: random.Random, max_obj=4, max_gens=8, max_rels=4):
    """A random pointed presentation within the advertised size bounds."""
    n = rng.randint(1, max_obj)
    objs = [f"o{i}" for i in range(n)]
    k = rng.randint(0, max_gens)
    gen_specs = [
        (f"g{i}", rng.choice(objs), rng.choice(objs)) for i in range(k)
    ]
    skeleton = build(objs, gen_specs, [], [])
    buckets = _walks(skeleton)
    rels = []
    for _ in range(rng.randint(0, max_rels)):
        keys = [key for key, ws in buckets.items() if len(ws) >= 2]
        if not keys:
            break
        key = rng.choice(keys)
        lhs, rhs = rng.sample(buckets[key], 2)
        if lhs != rhs:
            rels.append((lhs, rhs))
    inv = [name for name, _, _ in gen_specs if rng.random() < 0.25]
    cat = build(objs, gen_specs, rels, inv)
    return PointedCategory(cat, rng.choice(objs))


def assert_universal_property(po, f, g, T, product_bound=500000):
    """Brute-force check of the pushout's universal property into finite T.

    Enumerates all cocones (p: B -> T, q: C -> T) agreeing on A, and all
    functors h: apex -> T; demands a bijection, with exactly one mediator
    restricting to each cocone.  Returns the number of cocones.
    """
    from catcw.model_structure import all_functors

    A, B, C = f.source, f.target, g.target
    ps = list(all_functors(B, T, product_bound))
    qs = list(all_functors(C, T, product_bound))
    cocones = []
    for p in ps:
        for q in qs:
            if all(
                p.apply_obj(f.apply_obj(a)) == q.apply_obj(g.apply_obj(a))
                for a in A.objects
            ) and all(
                p.apply_path(f.gen_map[gen.name])
                == q.apply_path(g.gen_map[gen.name])
                for gen in A.quiver.generators
            ):
                cocones.append((p, q))
    mediators = list(all_functors(po.apex, T, product_bound))
    assert len(mediators) == len(cocones), (len(mediators), len(cocones))
    for p, q in cocones:
        hits = [
            h
            for h in mediators
            if all(
                h.apply_obj(po.inj_left.apply_obj(x)) == p.apply_obj(x)
                for x in B.objects
            )
            and all(
                h.apply_path(po.inj_left.gen_map[gen.name]) == p.gen_map[gen.name]
                for gen in B.quiver.generators
            )
            and all(
                h.apply_obj(po.inj_right.apply_obj(x)) == q.apply_obj(x)
                for x in C.objects
            )
            and all(
                h.apply_path(po.inj_right.gen_map[gen.name]) == q.gen_map[gen.name]
                for gen in C.quiver.generators
            )
        ]
        assert len(hits) == 1, f"{len(hits)} mediators for one cocone"
    return len(cocones)


def span_pool():
    """Small spans (f: A -> B, g: A -> C) used by the pushout oracles."""
    from catcw import Functor, Path, chaotic, build

    one = terminal_cat()
    spans = []

    f = Functor(one, arrow_cat(), {"pt": "a"}, {})
    g = Functor(one, c2_cat(), {"pt": "x"}, {})
    spans.append((f, g))

    f = Functor(one, interval_cat(), {"pt": "a"}, {})
    g = Functor(one, interval_cat(), {"pt": "b"}, {})
    spans.append((f, g))

    a2 = discrete2()
    f = Functor(a2, arrow_cat(), {"x": "a", "y": "b"}, {})
    g = Functor(a2, chaotic(["p"]), {"x": "p", "y": "p"}, {})
    spans.append((f, g))

    f = Functor(one, c2_cat(), {"pt": "x"}, {})
    g = Functor(one, c2_cat(), {"pt": "x"}, {})
    spans.append((f, g))

    ar = arrow_cat()
    f = Functor(ar, interval_cat(), {"a": "a", "b": "b"}, {"f": Path("a", ("f",))})
    g = Functor(ar, terminal_cat(), {"a": "pt", "b": "pt"}, {"f": Path("pt")})
    spans.append((f, g))

    f = Functor(a2, discrete2(), {"x": "x", "y": "y"}, {})
    g = Functor(a2, terminal_cat(), {"x": "pt", "y": "pt"}, {})
    spans.append((f, g))

    return spans


def random_cof_span(rng: random.Random):
    """A span B <-f- A -g-> C with f an inclusion (hence a cofibration).

    A is a small random category, B adds fresh objects and generators on
    top of A, and C is a chaotic category so that any object assignment
    extends to a functor.
    """
    n = rng.randint(1, 3)
    objs = [f"a{i}" for i in range(n)]
    gen_specs = [
        (f"g{i}", rng.choice(objs), rng.choice(objs))
        for i in range(rng.randint(0, 3))
    ]
    A = build(objs, gen_specs, [], [])

    extra_objs = [f"b{i}" for i in range(rng.randint(0, 2))]
    all_objs = objs + extra_objs
    extra_gens = [
        (f"h{i}", rng.choice(all_objs), rng.choice(all_objs))
        for i in range(rng.randint(0, 2))
    ]
    B = build(all_objs, gen_specs + extra_gens, [], [])
    f = Functor(
        A, B, {x: x for x in objs},
        {name: Path(src, (name,)) for name, src, _ in gen_specs},
    )

    c_objs = [f"c{i}" for i in range(rng.randint(1, 2))]
    C = chaotic(c_objs)
    cmap = {x: rng.choice(c_objs) for x in objs}
    gmap = {}
    for name, src, dst in gen_specs:
        cs, cd = cmap[src], cmap[dst]
        gmap[name] = Path(cs) if cs == cd else Path(cs, (f"{cs}>{cd}",))
    g = Functor(A, C, cmap, gmap)
    return f, g


_DOC_OBJECTS = st.sampled_from(["x", "y", "z"])
# "x" clashes with an object and "a^-1" with the mate synthesized for "a"
_DOC_GENERATORS = st.sampled_from(["a", "b", "c", "a^-1", "x"])


@st.composite
def _doc_walk(draw, objects, gens):
    """A path document: a walk along ``gens`` from a drawn object, which is
    sometimes undeclared; a generator may be drawn from anywhere."""
    at = cur = draw(objects)
    word = []
    for _ in range(draw(st.integers(0, 3))):
        out = [(n, d) for n, s, d in gens if s == cur or draw(st.integers(0, 9)) == 0]
        if not out:
            break
        name, cur = draw(st.sampled_from(out))
        word.append(name)
    return {"at": at, "gens": word}


@st.composite
def presentation_docs(draw):
    """A presentation document, well-formed as JSON.  Names come from small
    pools, so they may repeat, dangle or clash with a synthesized ``^-1``
    mate, and relations may be non-parallel."""
    objects = draw(st.lists(_DOC_OBJECTS, min_size=1, max_size=3, unique=draw(st.booleans())))
    declared = st.sampled_from(objects) if draw(st.integers(0, 4)) else _DOC_OBJECTS
    gens = draw(st.lists(st.tuples(_DOC_GENERATORS, declared, declared), max_size=4))
    relations = []
    for _ in range(draw(st.integers(0, 3))):
        lhs = draw(_doc_walk(declared, gens))
        # a side equal to an identity may make a unit relation, tying mates
        rhs = {"at": lhs["at"], "gens": []} if draw(st.booleans()) else draw(_doc_walk(declared, gens))
        relations.append({"lhs": lhs, "rhs": rhs})
    names = [n for n, _, _ in gens] + (["q"] if draw(st.integers(0, 4)) == 0 else [])
    return {
        "objects": objects,
        "generators": [{"name": n, "src": s, "dst": d} for n, s, d in gens],
        "relations": relations,
        "invertible": draw(st.lists(st.sampled_from(names), max_size=3)) if names else [],
    }

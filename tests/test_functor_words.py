"""Functor checks on encoded words against their Path-level oracles.

``check_functor``, ``functors_equal`` and the strict-inverse search of
cofiber recognition compare reduced generator-index words.  The oracles
below are those checks as first written, normalizing ``Path`` images one at
a time; both sides must agree on random generator maps, on the structural
functors of ``pool8()`` and on each of those with one image letter tampered.
"""

import random
import warnings

from hypothesis import given, settings, strategies as st

from catcw import (
    CatError,
    Functor,
    IncompleteSystem,
    IncompleteSystemWarning,
    Path,
    PointedCategory,
    build,
    check_functor,
    cone_unit,
    identity_functor,
    irreducible_words,
    k0_vanishing_witness,
    normalize,
    point_collapse,
    pushout,
)
from catcw.fpcat import DEFAULT_RULE_BUDGET, RewritingSystem, functors_equal
from catcw.ktheory import _strict_inverse
from catcw.model_structure import INVERSE_WORD_LEN
from conftest import _walks, c2_cat, pool8, random_pointed


def _check_functor_oracle(F, budget=DEFAULT_RULE_BUDGET):
    """``check_functor`` for a presentation target, as first written."""
    src, tgt = F.source, F.target
    for g in src.quiver.generators:
        img = F.gen_map[g.name]
        if not isinstance(img, Path):
            return False
        try:
            img_dst = tgt.quiver.check_path(img)
        except CatError:
            return False
        if img.at != F.apply_obj(g.src) or img_dst != F.apply_obj(g.dst):
            return False
    rs = tgt.completion(budget)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IncompleteSystemWarning)
        for lhs, rhs in src.relations:
            if rs.normalize(F.apply_path(lhs)) != rs.normalize(F.apply_path(rhs)):
                if not rs.complete:
                    raise IncompleteSystem(
                        "cannot decide relation preservation under an incomplete system",
                        budget,
                        len(rs.rules),
                    )
                return False
    return True


def _functors_equal_oracle(F, G, budget=DEFAULT_RULE_BUDGET):
    """``functors_equal`` for a presentation target, as first written."""
    if F.source != G.source or F.target != G.target:
        return False
    if F.object_map != G.object_map:
        return False
    names = [g.name for g in F.source.quiver.generators]
    rs = F.target.completion(budget)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IncompleteSystemWarning)
        return all(rs.normalize(F.gen_map[k]) == rs.normalize(G.gen_map[k]) for k in names)


def _strict_inverse_oracle(m, budget=DEFAULT_RULE_BUDGET):
    """``ktheory._strict_inverse`` as first written."""
    apex, C = m.source, m.target
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
    words = irreducible_words(apex, INVERSE_WORD_LEN, budget)
    gen_map = {}
    for c in C.quiver.generators:
        want = rs_c.normalize(Path(c.src, (c.name,)))
        found = None
        for w in words.get((inv_obj[c.src], inv_obj[c.dst]), []):
            if rs_c.normalize(m.apply_path(w)) == want:
                found = w
                break
        if found is None:
            return None
        gen_map[c.name] = found
    n = Functor(C, apex, inv_obj, gen_map)
    if not _check_functor_oracle(n, budget):
        return None
    for g in apex.quiver.generators:
        back = n.apply_path(m.gen_map[g.name])
        if rs_apex.normalize(back) != rs_apex.normalize(Path(g.src, (g.name,))):
            return None
    for c in C.quiver.generators:
        forth = m.apply_path(n.gen_map[c.name])
        if rs_c.normalize(forth) != rs_c.normalize(Path(c.src, (c.name,))):
            return None
    return n


def _outcome(check, *args):
    """The value of ``check``, or the type and bounds of the error it raised."""
    try:
        return check(*args)
    except IncompleteSystem as exc:
        return ("IncompleteSystem", exc.budget, exc.rules)
    except CatError as exc:
        return type(exc).__name__


def _tampered(F, rng):
    """F with one letter of one image replaced (or, in an empty image, inserted)."""
    names = [g.name for g in F.target.quiver.generators]
    if not names or not F.gen_map:
        return F
    k = rng.choice(sorted(F.gen_map))
    img = F.gen_map[k]
    gens = list(img.gens)
    if gens:
        gens[rng.randrange(len(gens))] = rng.choice(names)
    else:
        gens.append(rng.choice(names))
    return Functor(F.source, F.target, F.object_map, {**F.gen_map, k: Path(img.at, tuple(gens))})


def _structural_functors():
    """Identity functors, cone units and suspension-pushout injections of pool8()."""
    out = []
    for C in pool8():
        X = PointedCategory(C, C.objects[0])
        unit = cone_unit(X)
        po = pushout(unit, point_collapse(C))
        out += [identity_functor(C), unit, po.inj_left, po.inj_right]
    return out


STRUCTURAL = _structural_functors()


@st.composite
def _random_maps(draw):
    """A generator map between random_pointed presentations: each image a walk
    with matching endpoints when there is one, else any walk."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    S = random_pointed(rng, max_gens=4).cat
    T = random_pointed(rng).cat
    omap = {x: rng.choice(T.objects) for x in S.objects}
    walks = _walks(T)
    every = [w for ws in walks.values() for w in ws]
    gen_map = {
        g.name: rng.choice(walks.get((omap[g.src], omap[g.dst])) or every)
        for g in S.generators
    }
    return Functor(S, T, omap, gen_map)


def _agree(F, G, budget):
    """Both sides give the same verdicts on F and G, and the same inverse of
    F when F is a functor (the search's precondition)."""
    verdict = _outcome(check_functor, F, budget)
    assert verdict == _outcome(_check_functor_oracle, F, budget)
    assert _outcome(functors_equal, F, G, budget) == _outcome(
        _functors_equal_oracle, F, G, budget
    )
    if verdict is True:
        assert _strict_inverse(F, budget) == _strict_inverse_oracle(F, budget)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_random_maps(), st.randoms(use_true_random=False))
def test_random_generator_maps_agree_with_the_oracles(F, rng):
    # budget 20 leaves some targets incomplete
    _agree(F, _tampered(F, rng), 20)
    _agree(_tampered(F, rng), F, 20)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from(STRUCTURAL), st.randoms(use_true_random=False), st.booleans())
def test_structural_functors_agree_with_the_oracles(F, rng, tamper):
    G = _tampered(F, rng)
    if tamper:
        F, G = G, F
    _agree(F, G, DEFAULT_RULE_BUDGET)


def test_every_structural_functor_agrees_with_the_oracles():
    found = 0
    for F in STRUCTURAL:
        assert check_functor(F) and _check_functor_oracle(F)
        assert functors_equal(F, F) and _functors_equal_oracle(F, F)
        n = _strict_inverse(F, DEFAULT_RULE_BUDGET)
        assert n == _strict_inverse_oracle(F)
        found += n is not None
    assert found >= len(pool8())  # at least every identity functor


def test_incomplete_target_raises_alike():
    braid = build(
        ["x"],
        [("a", "x", "x"), ("b", "x", "x")],
        [(Path("x", ("a", "b", "a")), Path("x", ("b", "a", "b")))],
    )
    assert not braid.completion(4).complete
    c2 = c2_cat()
    bad = Functor(c2, braid, {"x": "x"}, {"t": Path("x", ("a",))})
    raised = _outcome(check_functor, bad, 4)
    assert raised == _outcome(_check_functor_oracle, bad, 4)
    assert raised[0] == "IncompleteSystem" and raised[1] == 4
    ident = identity_functor(braid)
    assert check_functor(ident, 4) is _check_functor_oracle(ident, 4) is True
    swapped = Functor(braid, braid, {"x": "x"}, {"a": Path("x", ("b",)), "b": Path("x", ("a",))})
    assert functors_equal(ident, swapped, 4) is _functors_equal_oracle(ident, swapped, 4) is False
    assert _strict_inverse(ident, 4) is _strict_inverse_oracle(ident, 4) is None


def test_k0_witnesses_normalize_no_path(monkeypatch):
    calls = []
    original = RewritingSystem.normalize

    def counting_normalize(self, p):
        calls.append(p)
        return original(self, p)

    monkeypatch.setattr(RewritingSystem, "normalize", counting_normalize)
    for C in pool8():
        w = k0_vanishing_witness(PointedCategory(C, C.objects[0]))
        assert w.replay()
    assert calls == []
    normalize(c2_cat(), Path("x", ("t", "t")))  # the counter does count
    assert len(calls) == 1


def test_functors_equal_still_rejects_a_malformed_image():
    c2 = c2_cat()
    ident = identity_functor(c2)
    bad = Functor(c2, c2, {"x": "x"}, {"t": Path("x", ("s",))})
    assert _outcome(functors_equal, ident, bad, 500) == "DanglingEndpoint"
    assert _outcome(_functors_equal_oracle, ident, bad, 500) == "DanglingEndpoint"

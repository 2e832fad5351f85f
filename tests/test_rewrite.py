"""Kernel-level rewriting tests: fixed vectors for the reduction contract."""

import pytest

from catcw.kernel import RuleTable


def test_fixed_vectors_free_group():
    # a a^-1 -> empty, a^-1 a -> empty over the alphabet {0: a, 1: a^-1}
    rt = RuleTable([((0, 1), ()), ((1, 0), ())])
    assert rt.reduce((0, 1)) == ()
    assert rt.reduce((0, 0, 1, 1)) == ()
    assert rt.reduce((1, 0, 0)) == (0,)
    assert rt.reduce((0, 0, 0)) == (0, 0, 0)
    assert rt.reduce(()) == ()


def test_fixed_vectors_order_matters():
    # two overlapping rules: the first in table order wins at each site
    rt = RuleTable([((0, 0), (1,)), ((0, 1), ())])
    assert rt.reduce((0, 0, 1)) == (1, 1)
    assert rt.reduce((0, 0, 0)) == (1, 0)


def test_fixed_vectors_table_order_beats_lhs_length():
    # both rules match at position 0: table order decides, not lhs length
    assert RuleTable([((0, 1), (2,)), ((0,), (3,))]).reduce((0, 1)) == (2,)
    assert RuleTable([((0,), (3,)), ((0, 1), (2,))]).reduce((0, 1)) == (3, 1)


def test_fixed_vectors_leftmost_scan():
    rt = RuleTable([((1, 1), ())])
    assert rt.reduce((1, 1, 1)) == (1,)
    assert rt.reduce((0, 1, 1, 1, 1, 2)) == (0, 2)


def test_rejects_growing_rule():
    with pytest.raises(ValueError):
        RuleTable([((0,), (0, 0))])
    with pytest.raises(ValueError):
        RuleTable([((), (0,))])


def test_rules_attribute_round_trip():
    rules = [((0, 1), ()), ((2, 2), (2,))]
    rt = RuleTable(rules)
    assert tuple(rt.rules) == tuple((tuple(l), tuple(r)) for l, r in rules)

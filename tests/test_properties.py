"""Properties over seeded random presentations, drawn by hypothesis.

The draws are derandomized and fixed in number, so every run checks the
same seeds.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from catcw import IncompleteSystem, NotFinite, clear_completion_cache, from_json, to_finite
from conftest import random_pointed

BOUND, BUDGET = 32, 20


def _fields(fin):
    return (
        fin.objects, fin.labels, fin.mor_src, fin.mor_dst, fin.paths,
        list(fin.identities.items()), list(fin.gen_image.items()),
        list(fin.compose_table.items()),
    )


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_a_json_round_trip_reads_the_shared_table(seed):
    """JSON is read back exactly, and the table an equal presentation reads
    from the shared entry equals a cold build, whatever an earlier caller did
    to its own copy."""
    cat = random_pointed(random.Random(seed)).cat
    doc = cat.to_json()
    assert from_json(doc).to_json() == doc
    clear_completion_cache()
    try:
        first = to_finite(cat, BOUND, BUDGET)
    except (IncompleteSystem, NotFinite) as exc:
        with pytest.raises(type(exc)):  # errors are not kept
            to_finite(from_json(doc), BOUND, BUDGET)
        return
    first.compose_table.clear()
    first.identities.clear()
    warm = to_finite(from_json(doc), BOUND, BUDGET)
    clear_completion_cache()
    cold = to_finite(from_json(doc), BOUND, BUDGET)
    assert _fields(warm) == _fields(cold)

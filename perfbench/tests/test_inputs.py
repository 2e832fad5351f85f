"""Inputs are a pure function of workload and seed, and pinned by hash, so
that a change to them cannot pass unnoticed.  When a change to the inputs
is meant, update PINNED and say so: results before and after it are not
comparable."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from run import fingerprint
from workloads import WORKLOADS, deck

HERE = Path(__file__).resolve().parents[1]
PINNED = {
    "finite_tables": "a6c4888530338655c968e25441f56ec53f49992946ab66d8245cf5f4ec92f7da",
    "word_problem": "86ab2d23ca310809d94a6a8ec3b7875571c2249d422072461af9ed7ad872022f",
    "homotopy": "17e7386d0d243cd0de954f3faafba906b3e79185b84ef84980a7d318d71dc6f6",
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_fingerprint_is_pinned(workload):
    assert fingerprint(workload, 1) == PINNED[workload]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_hash_across_processes(workload):
    code = f"from run import fingerprint; print(fingerprint({workload!r}, 7))"
    hashes = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env, capture_output=True, text=True, check=True)
        hashes.add(out.stdout.strip())
    assert hashes == {fingerprint(workload, 7)}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seeds_differ(workload):
    assert fingerprint(workload, 1) != fingerprint(workload, 2)


def test_writes_never_repeat_and_reads_follow_their_write():
    seen = set()
    written = set()
    for d in range(6):
        for q in deck("word_problem", 3, d):
            if q["kind"] == "write":
                key = str(q["pres"]["doc"])
                assert key not in seen
                seen.add(key)
                written.add(q["id"])
            else:
                assert q["of"] in written


def test_tables_repeat():
    docs = [str(q["pres"]["doc"]) for d in range(3) for q in deck("finite_tables", 3, d)]
    assert len(set(docs)) < len(docs)

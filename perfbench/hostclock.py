"""Host speed, sampled by a short pure-Python reference loop.

The machines this benchmark runs on share their cores with other work, and
a core's speed for this process swings by tens of percent from one minute
to the next; catcw's run time moves with it.  The run therefore times
``reference_work`` between queries, once for every ``EVERY_S`` of wall time
that has passed, and scales every time it reports to a nominal host: wall
seconds times ``NOMINAL_S / mean reference``.  The mean is over the whole
phase, so all queries of a run are scaled alike.  The loop does the kind of
work catcw does (tuple slicing, dictionary updates, a small composition
table); it never runs inside a query and is not counted in any metric.
"""

from __future__ import annotations

import time

NOMINAL_S = 0.0026  # reference_work on the nominal host
EVERY_S = 0.05
CATCH_UP = 40


def reference_work() -> int:
    d: dict = {}
    word = tuple(range(24))
    for i in range(2500):
        k = word[i % 20 : i % 20 + 4]
        d[k] = d.get(k, 0) + (i & 7)
    # a small composition table, built and then read the way validate() does
    table = {(i, j): (i * j) % 60 for i in range(60) for j in range(60)}
    acc = 0
    for (i, j), ij in table.items():
        acc += table[(ij, j)]
    return len(d) + acc


class HostClock:
    def __init__(self):
        self.total = 0.0
        self.samples = 0
        self.last = float("-inf")

    def sample(self, force: bool = False) -> None:
        """Time the reference loop once per ``EVERY_S`` of wall time since the
        last sample (at most ``CATCH_UP`` times), so that the samples weigh
        each stretch of the run by its length."""
        due = 1 if force else min(CATCH_UP, int((time.perf_counter() - self.last) / EVERY_S))
        for _ in range(due):
            t0 = time.perf_counter()
            reference_work()
            self.last = time.perf_counter()
            self.total += self.last - t0
            self.samples += 1

    def factor(self) -> float:
        """Nominal seconds per wall second, from the samples so far."""
        return NOMINAL_S * self.samples / self.total

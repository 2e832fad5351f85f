"""Spans and counts recorded around the benchmark's calls into catcw.

A span has a name, a start and an end, the span that encloses it and the
query it belongs to.  Spans stay in memory until the run ends.  A layer's
self time is its spans' durations minus the parts their child spans cover.
With tracing off, ``span`` returns a shared do-nothing context manager.
"""

from __future__ import annotations

import time
from collections import Counter


class _Span:
    __slots__ = ("tracer", "name", "start", "end", "parent", "query")

    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        self.parent = t.stack[-1] if t.stack else None
        self.query = t.query
        t.stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        t = self.tracer
        t.stack.pop()
        t.spans.append(self)
        return False


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[_Span] = []
        self.stack: list[_Span] = []
        self.counts: Counter = Counter()
        self.query = None

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NO_SPAN

    def count(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self.counts[name] += n

    def self_times(self) -> dict[str, float]:
        """Wall seconds of self time per span name."""
        child = Counter()
        for sp in self.spans:
            if sp.parent is not None:
                child[id(sp.parent)] += sp.end - sp.start
        out: Counter = Counter()
        for sp in self.spans:
            out[sp.name] += sp.end - sp.start - child[id(sp)]
        return dict(out)

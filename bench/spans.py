"""Span recording and span arithmetic for the traced benchmark runs.

A span is (span_id, parent_id, name, start, end, job).  Spans stay in memory
and are written out once, when the traced process ends (see child.py).
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class SpanRecorder:
    """Records nested spans of one process; `job` tags every span it records."""

    def __init__(self, job: int = 0):
        self.job = job
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next = 1

    def wrap(self, fn, name: str):
        """A wrapper that records a span around every call of `fn` and returns
        or raises exactly what `fn` does."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else 0
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((span_id, parent, name, start, end, self.job))
        return traced

    def add(self, name: str, start: float, end: float) -> None:
        """Record a top-level span measured by the caller."""
        span_id = self._next
        self._next += 1
        self.spans.append((span_id, 0, name, start, end, self.job))


def load(paths) -> tuple[list[tuple], set[str]]:
    """Spans of several trace files, and the wrap targets they could not find.
    Span ids are unique per (job, span_id)."""
    spans, missing = [], set()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        spans.extend(tuple(s) for s in payload["spans"])
        missing.update(payload["missing"])
    return spans, missing


class SpanTree:
    """Index over spans, keyed by (job, span_id) so that jobs never mix."""

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {(s[5], s[0]): s for s in spans}
        self.children = defaultdict(list)
        self.by_name = defaultdict(list)
        for s in spans:
            self.by_name[s[2]].append(s)
            if s[1]:
                self.children[(s[5], s[1])].append(s)

    def ancestors(self, span):
        parent = span[1]
        while parent:
            up = self.by_id[(span[5], parent)]
            yield up
            parent = up[1]

    def outermost(self, name: str):
        """Spans of `name` with no ancestor of the same name, so that nested
        and recursive calls are not counted twice."""
        return [s for s in self.by_name[name]
                if all(a[2] != name for a in self.ancestors(s))]

    def total(self, name: str) -> float:
        return sum(s[4] - s[3] for s in self.outermost(name))

    def count(self, name: str) -> int:
        return len(self.by_name[name])

    def self_time(self, span) -> float:
        """Duration minus the part of it that child spans cover."""
        return (span[4] - span[3]) - covered(
            [(c[3], c[4]) for c in self.children[(span[5], span[0])]], span[3], span[4])

    def self_total(self, name: str) -> float:
        return sum(self.self_time(s) for s in self.outermost(name))

    def without_descendant(self, name: str, descendant: str) -> int:
        """How many `name` spans have no descendant span named `descendant`."""
        having = set()
        for s in self.by_name[descendant]:
            having.update((a[5], a[0]) for a in self.ancestors(s) if a[2] == name)
        return sum(1 for s in self.by_name[name] if (s[5], s[0]) not in having)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total

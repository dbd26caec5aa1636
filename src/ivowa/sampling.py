"""Deterministic sample grids, the small result record shared by all
sampled law checks, and the one memo that keeps their results.

A check never answers with a bare boolean: a failing check carries the first
violating tuple it met, so counterexamples double as fixtures.  Enumeration
order is fixed, which makes every verdict and witness reproducible.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import random
import sys
from array import array
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .intervals import Interval, leq_product, subseteq

SAMPLE_SEED = 20260808

# The tolerance table.  Exact laws compare binary64 values with no slack;
# identities through polynomial arithmetic (and weight sums) allow 1e-12, and
# identities through roots and fractional powers allow 1e-9.
EXACT = 0.0
POLY_TOLERANCE = 1e-12
ROOT_TOLERANCE = 1e-9

# Two-stage slope probe used by the continuity heuristics: (step, max jump).
CONTINUITY_STAGES: tuple[tuple[float, float], ...] = ((0.05, 0.2), (0.005, 0.02))


class SampledResult(NamedTuple):
    ok: bool
    witness: tuple | None
    samples: int


def first_violation(outcomes: Iterable[tuple | None]) -> SampledResult:
    """The verdict of a sampled law from one outcome per case, in enumeration
    order: ``None`` for a case that holds, the witness tuple for one that fails.

    Stops at the first witness; ``samples`` counts the cases consumed up to
    and including it, or all of them when every case holds.
    """
    count = 0
    for count, witness in enumerate(outcomes, 1):
        if witness is not None:
            return SampledResult(False, witness, count)
    return SampledResult(True, None, count)


# The one memo.  Sampled checks and operator validation are deterministic for
# fixed arguments, so their results are kept here, least recently used first
# out once MEMO_SIZE entries are held.  A full `verify theorems lattice` run
# holds 65.
MEMO_SIZE = 512
_MEMO: OrderedDict[tuple, object] = OrderedDict()


def memoized(fn: Callable) -> Callable:
    """Keep the results of a deterministic function in the one memo.

    The key is the function plus its arguments bound with their defaults
    applied, so ``f(m, o, grid)`` and ``f(m, o, grid=grid, tol=ROOT_TOLERANCE)``
    share one entry.  Operators hash by identity, so an entry pins the objects
    it was computed for.  A dict result is handed out as a copy, so callers
    cannot change what later calls get.
    """
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def cached(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        key = (fn, *bound.arguments.values())
        if key in _MEMO:
            _MEMO.move_to_end(key)
            result = _MEMO[key]
        else:
            result = _MEMO[key] = fn(*args, **kwargs)
            if len(_MEMO) > MEMO_SIZE:
                _MEMO.popitem(last=False)
        return dict(result) if isinstance(result, dict) else result

    return cached


@dataclass(frozen=True)
class SampleGrid:
    """Evenly spaced endpoint grid on [0, 1], boundaries always included.

    The step must be 1/n for an integer n so that grid points are generated
    as exact binary64 quotients i/n.
    """

    endpoint_step: float = 0.1

    def __post_init__(self) -> None:
        n = round(1.0 / self.endpoint_step)
        if n < 1 or abs(1.0 / n - self.endpoint_step) > 1e-12:
            raise ValueError(f"endpoint_step must be 1/n, got {self.endpoint_step}")

    @property
    def divisions(self) -> int:
        return round(1.0 / self.endpoint_step)

    def endpoints(self) -> list[float]:
        n = self.divisions
        return [i / n for i in range(n + 1)]

    def intervals(self) -> list[Interval]:
        """All valid intervals with endpoints on the grid, ascending lexicographic."""
        pts = self.endpoints()
        return [Interval(a, b) for i, a in enumerate(pts) for b in pts[i:]]


DEFAULT_GRID = SampleGrid(0.1)
REAL_GRID = SampleGrid(0.05)


def nested_pairs(intervals: Sequence[Interval]) -> list[tuple[Interval, Interval]]:
    """All (inner, outer) pairs with inner a subset of outer."""
    return [(a, b) for a in intervals for b in intervals if subseteq(a, b)]


def comparable_pairs(intervals: Sequence[Interval]) -> list[tuple[Interval, Interval]]:
    """All (x, y) pairs with x <= y in the product order."""
    return [(a, b) for a in intervals for b in intervals if leq_product(a, b)]


def interior_intervals(intervals: Sequence[Interval]) -> list[Interval]:
    return [x for x in intervals if 0.0 < x.lower and x.upper < 1.0]


class TupleSamples:
    """The deterministic n-tuples over items, generated on demand.

    Iterating yields the full cross product when it fits the budget,
    otherwise one constant tuple per item, the structured corner tuples and a
    seeded random fill up to the budget.  Each iteration starts the stream
    afresh, so a sample can be walked any number of times, and the fill
    draws only as far as the caller reads.  The fill equals, tuple for tuple,
    n calls of ``random.Random(seed).choice(items)`` per tuple.
    """

    def __init__(self, items: Sequence, n: int, budget: int, seed: int) -> None:
        self.items = items
        self.n = n
        self.budget = budget
        self.seed = seed
        self.exhaustive = len(items) ** n <= budget

    def __len__(self) -> int:
        size, n = len(self.items), self.n
        if self.exhaustive:
            return size ** n
        return max(self.budget, size + 6 * n)

    def __iter__(self) -> Iterator[tuple]:
        items, n = self.items, self.n
        if self.exhaustive:
            return itertools.product(items, repeat=n)
        head: list[tuple] = [(c,) * n for c in items]
        bottom, top = items[0], items[-1]
        for c in (items[0], items[len(items) // 2], items[-1]):
            for j in range(n):
                for special in (top, bottom):
                    t = [c] * n
                    t[j] = special
                    head.append(tuple(t))
        fill = zip(*[_choices(items, self.seed)] * n)
        return itertools.chain(head, itertools.islice(fill, max(0, self.budget - len(head))))


def _choices(items: Sequence, seed: int) -> Iterator:
    """The endless stream of ``random.Random(seed).choice(items)`` results,
    drawn in blocks of 32-bit words.

    ``choice`` takes the top ``len(items).bit_length()`` bits of one Mersenne
    Twister word per try and rejects values >= len(items); ``getrandbits(32 *
    k)`` returns k such words, least significant first, from the same
    generator.
    """
    rng = random.Random(seed)
    shift = 32 - len(items).bit_length()
    limit = len(items) << shift

    # Blocks start small because most failing checks stop within a few
    # samples; chain.from_iterable keeps the per-item walk out of Python.
    def blocks() -> Iterator[list]:
        words = 64
        while True:
            block = array("I", rng.getrandbits(32 * words).to_bytes(4 * words, "little"))
            if sys.byteorder == "big":
                block.byteswap()
            yield [items[w >> shift] for w in block if w < limit]
            words = min(2 * words, 1 << 14)

    return itertools.chain.from_iterable(blocks())


def tuple_samples(
    items: Sequence,
    n: int,
    budget: int = 300_000,
    seed: int = SAMPLE_SEED,
) -> TupleSamples:
    """Deterministic n-tuples over items: the full cross product when it fits
    the budget, otherwise structured corner tuples plus a seeded random fill.
    The result is a lazy, re-iterable sequence with a length.
    """
    return TupleSamples(items, n, budget, seed)


def max_jump(pts: list[float], rows: list[list[float]]) -> tuple[float, tuple]:
    """The largest jump between neighbouring cells of a value table
    ``rows[i][j] = f(pts[i], pts[j])``, and where it is."""
    worst, where = 0.0, ()
    m = len(pts)
    for i in range(m):
        for j in range(m):
            v = rows[i][j]
            if i + 1 < m:
                jump = abs(rows[i + 1][j] - v)
                if jump > worst:
                    worst, where = jump, (pts[i], pts[i + 1], pts[j])
            if j + 1 < m:
                jump = abs(rows[i][j + 1] - v)
                if jump > worst:
                    worst, where = jump, (pts[i], pts[j], pts[j + 1])
    return worst, where


def jump_probe(tables: Iterable[tuple[float, list[float], list[list[float]]]]) -> SampledResult:
    """The staged grid-jump probe over value tables ``(bound, pts, rows)``,
    one per stage; stops at the first stage whose largest jump reaches its
    bound.  Tables are read only as far as the probe gets."""
    total = 0
    for bound, pts, rows in tables:
        n = len(pts) - 1
        total += 2 * n * (n + 1)
        jump, where = max_jump(pts, rows)
        if jump >= bound:
            return SampledResult(False, (*where, jump), total)
    return SampledResult(True, None, total)


def continuity_probe(
    fn: Callable[[float, float], float],
    stages: tuple[tuple[float, float], ...] = CONTINUITY_STAGES,
) -> SampledResult:
    """Grid-jump continuity heuristic for a binary function on [0, 1]^2.

    A bounded jump between adjacent grid points is evidence of continuity,
    never a proof; a steep but continuous function can trip the probe.
    """

    def tables():
        for step, bound in stages:
            pts = SampleGrid(step).endpoints()
            yield bound, pts, [[fn(x, y) for y in pts] for x in pts]

    return jump_probe(tables())


def max_jump_nary(fn: Callable[..., float], arity: int, step: float) -> tuple[float, tuple]:
    pts = SampleGrid(step).endpoints()
    worst, where = 0.0, ()
    for args in itertools.product(pts, repeat=arity):
        base = fn(*args)
        for j in range(arity):
            k = pts.index(args[j])
            if k + 1 < len(pts):
                moved = list(args)
                moved[j] = pts[k + 1]
                jump = abs(fn(*moved) - base)
                if jump > worst:
                    worst, where = jump, (args, j)
    return worst, where

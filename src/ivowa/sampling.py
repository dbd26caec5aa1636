"""Deterministic sample grids, the small result record shared by all
sampled law checks, and the one memo that keeps their results.

A check never answers with a bare boolean: a failing check carries the first
violating tuple it met, so counterexamples double as fixtures.  Enumeration
order is fixed, which makes every verdict and witness reproducible.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import sys
from array import array
from collections import OrderedDict
from operator import ge, gt, or_, sub
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .intervals import Interval, SlottedValue

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


def first_violation_in_rows(rows: Iterable[int | Iterable[tuple | None]]) -> SampledResult:
    """The verdict of a sampled law walked a row at a time, in enumeration
    order.

    A row is either the number of its cases, when one pass has decided that
    they all hold, or its outcomes case by case: ``None`` for a case that
    holds, the witness tuple for one that fails.  Stops at the first
    witness; ``samples`` counts the cases up to and including it, or all of
    them when every case holds.
    """
    count = 0
    for row in rows:
        if isinstance(row, int):
            count += row
            continue
        for count, witness in enumerate(row, count + 1):
            if witness is not None:
                return SampledResult(False, witness, count)
    return SampledResult(True, None, count)


def first_violation(outcomes: Iterable[tuple | None]) -> SampledResult:
    """The verdict of a law walked case by case: its outcomes are one row."""
    return first_violation_in_rows((outcomes,))


def close_row(
    a_lo: Sequence[float],
    a_up: Sequence[float],
    b_lo: Sequence[float],
    b_up: Sequence[float],
    tol: float,
    witness: Callable[[int], tuple],
) -> tuple:
    """One row of the law ``abs(a - b) <= tol`` on both endpoints of each
    case, as items of `first_violation_in_rows`: the row's size when it
    holds, else the number of cases before its first failing case k, then
    ``witness(k)``.

    No difference between two rows exceeds their Euclidean distance, so a
    row whose two distances are within half the tolerance (the half leaves
    room for their rounding) holds, decided by one C call per endpoint.
    Any other row, NaN and infinite distances included, gets its per-case
    verdicts from C-level maps, with no Python frame per case.
    """
    size = len(a_lo)
    if math.dist(a_lo, b_lo) <= tol / 2 and math.dist(a_up, b_up) <= tol / 2:
        return (size,)
    return row_items(map(or_, map(gt, map(abs, map(sub, a_lo, b_lo)), itertools.repeat(tol)),
                         map(gt, map(abs, map(sub, a_up, b_up)), itertools.repeat(tol))),
                     size, witness)


def all_close(a_lo: Sequence[float], a_up: Sequence[float], b_lo: Sequence[float],
              b_up: Sequence[float], tol: float) -> bool:
    """Whether every case of a `close_row` row holds."""
    return close_row(a_lo, a_up, b_lo, b_up, tol, id) == (len(a_lo),)


def row_items(fails: Iterable[bool], size: int, witness: Callable[[int], tuple]) -> tuple:
    """One row of `size` cases as items of `first_violation_in_rows`, from
    its per-case failures in order (C-level maps, read by one C-level pass):
    the row's size when none fails, else the number of cases before the first
    failing case k, then ``witness(k)``."""
    k = next(itertools.compress(itertools.count(), fails), None)
    return (size,) if k is None else (k, (witness(k),))


class LazyRows(dict):
    """Rows built on first use: ``rows[key]`` is ``build(key)``, computed
    once.  A walk that fails early builds only the rows it reads."""

    def __init__(self, build: Callable) -> None:
        super().__init__()
        self.build = build

    def __missing__(self, key):
        row = self[key] = self.build(key)
        return row


# The one memo.  Sampled checks, operator validation, operator constructors
# and catalogs are deterministic for fixed arguments, so their results are
# kept here, least recently used first out once MEMO_SIZE entries are held.
# A full `verify theorems lattice` run in one process holds 111: verdicts,
# operators, catalogs and endpoint maps, and no value table, since the
# continuity probes stream theirs (`jump_probe`).
MEMO_SIZE = 512
_MEMO: OrderedDict[tuple, object] = OrderedDict()


def memo_key(fn: Callable, args: tuple, kwargs: dict) -> tuple | None:
    """The memo key of the call ``fn(*args, **kwargs)``: `fn`, then its
    arguments in parameter order, the defaults of ``fn.__defaults__`` filling
    the ones not passed; None when the call does not bind (an argument
    missing, unknown or given twice, or too many of them)."""
    names = fn.__code__.co_varnames[:fn.__code__.co_argcount]
    rest = names[len(args):]
    if len(args) > len(names) or kwargs.keys() - rest:
        return None
    defaults = dict(zip(reversed(names), reversed(fn.__defaults__ or ())))
    try:
        return (fn, *args, *[kwargs[name] if name in kwargs else defaults[name] for name in rest])
    except KeyError:  # a parameter without a default is missing
        return None


def memoized(fn: Callable) -> Callable:
    """Keep the results of a deterministic function in the one memo.

    The key is `memo_key`: the function plus its arguments in parameter
    order with their defaults applied, so ``f(m, o, grid)`` and ``f(m, o,
    grid=grid, tol=ROOT_TOLERANCE)`` share one entry.  It is read from the
    function's code object, so `fn` takes neither positional-only nor
    keyword-only parameters, ``*args`` nor ``**kwargs``.  A call that does
    not bind goes to `fn` unkeyed, to raise its own TypeError, and stores
    nothing.  Operators hash by identity, so an entry pins the objects it was
    computed for.  A dict result is handed out as a copy, so callers cannot
    change what later calls get.
    """
    code = fn.__code__
    if code.co_posonlyargcount or code.co_kwonlyargcount or code.co_flags & 0x0C:  # *args, **kwargs
        raise TypeError(f"memoized takes plain parameters only: {fn.__qualname__}")

    @functools.wraps(fn)
    def cached(*args, **kwargs):
        key = memo_key(fn, args, kwargs)
        if key is None:
            return fn(*args, **kwargs)
        if key in _MEMO:
            _MEMO.move_to_end(key)
            result = _MEMO[key]
        else:
            result = _MEMO[key] = fn(*args, **kwargs)
            if len(_MEMO) > MEMO_SIZE:
                _MEMO.popitem(last=False)
        return dict(result) if isinstance(result, dict) else result

    return cached


class SampleGrid(SlottedValue):
    """Evenly spaced endpoint grid on [0, 1], boundaries always included.

    The step must be 1/n for an integer n so that grid points are generated
    as exact binary64 quotients i/n, and n at most 200, the finest grid the
    library walks itself (the second continuity stage, 0.005).
    """

    __slots__ = ("endpoint_step",)

    endpoint_step: float

    def __init__(self, endpoint_step: float = 0.1) -> None:
        step = endpoint_step
        # A step that is not > 0, or whose reciprocal overflows, has no n.
        n = round(1.0 / step) if step > 0.0 and 1.0 / step < math.inf else 0
        if n < 1 or abs(1.0 / n - step) > 1e-12:
            raise ValueError(f"endpoint_step must be 1/n, got {endpoint_step}")
        if n > 200:
            raise ValueError(f"endpoint_step {step} gives {(n + 1) * (n + 2) // 2} grid intervals;"
                             " the finest step is 0.005 (1/200, 20301 intervals)")
        self._init(endpoint_step)

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


def grid_pairs(grid: SampleGrid, relation: Callable[[Interval, Interval], bool]
               ) -> list[tuple[int, int]]:
    """The index pairs (i, j) into ``grid.intervals()`` whose intervals stand
    in `relation`, ordered by i, then j: `leq_product` gives the comparable
    pairs, `subseteq` the (inner, outer) nested ones."""
    sample = grid.intervals()
    return [(i, j) for i, a in enumerate(sample) for j, b in enumerate(sample) if relation(a, b)]


def interior_intervals(intervals: Sequence[Interval]) -> list[Interval]:
    return [x for x in intervals if 0.0 < x.lower and x.upper < 1.0]


class TupleSamples:
    """The deterministic n-tuples over items, generated on demand.

    Iterating yields the full cross product when it fits the budget,
    otherwise one constant tuple per item, the structured corner tuples and a
    seeded random fill up to the budget, equal tuple for tuple to n calls of
    ``random.Random(SAMPLE_SEED).choice(items)``.  Each walk starts afresh
    and draws only as far as the caller reads.
    """

    def __init__(self, items: Sequence, n: int, budget: int) -> None:
        self.items = items
        self.n = n
        self.budget = budget
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
        fill = zip(*[_choices(items)] * n)
        return itertools.chain(head, itertools.islice(fill, max(0, self.budget - len(head))))


def _draws(size: int) -> Iterator[bytes | list[int]]:
    """The endless stream of ``random.Random(SAMPLE_SEED).choice(range(size))``
    results, in blocks decoded from 32-bit words.

    ``choice`` takes the top ``b = size.bit_length()`` bits of one Mersenne
    Twister word per try and rejects values >= size; ``getrandbits(32 * k)``
    returns k such words, least significant first, from the same generator.

    A pool of at most 255 items has ``b <= 8``, so those bits are the top
    byte of the word shifted right by ``8 - b``.  Written out little-endian,
    the top bytes of a block are every fourth byte from the fourth; one
    ``bytes.translate`` drops the rejected ones and shifts the rest into
    indices, so no Python frame runs per word, and the block is bytes.
    Larger pools decode the words one by one into a list.
    """
    rng = random.Random(SAMPLE_SEED)
    bits = size.bit_length()

    if bits <= 8:
        shift = 8 - bits
        table = bytes(v >> shift for v in range(256))
        rejected = bytes(v for v in range(256) if v >> shift >= size)

        def decode(raw: bytes) -> bytes:
            return raw[3::4].translate(table, rejected)
    else:
        shift = 32 - bits
        limit = size << shift

        def decode(raw: bytes) -> list[int]:
            block = array("I", raw)
            if sys.byteorder == "big":
                block.byteswap()
            return [w >> shift for w in block if w < limit]

    # Blocks start small because most failing checks stop within a few
    # samples, and stop growing at 2**14 words to bound a block's memory.
    words = 64
    while True:
        yield decode(rng.getrandbits(32 * words).to_bytes(4 * words, "little"))
        words = min(2 * words, 1 << 14)


def _choices(items: Sequence) -> Iterator:
    """``random.Random(SAMPLE_SEED).choice(items)`` forever: `_draws` chained in C."""
    indices = itertools.chain.from_iterable(_draws(len(items)))
    return indices if items == range(len(items)) else map(items.__getitem__, indices)


def tuple_samples(items: Sequence, n: int, budget: int = 300_000) -> TupleSamples:
    """Deterministic n-tuples over items: the full cross product when it fits
    the budget, otherwise structured corner tuples plus a random fill seeded
    with `SAMPLE_SEED`.  The result is a lazy, re-iterable sequence with a
    length.
    """
    return TupleSamples(items, n, budget)


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


def _reaches(row: Sequence[float], above: Sequence[float] | None, bound: float) -> bool:
    """Does a step along `row`, or from the row `above` it to `row`, reach
    `bound`?  C-level maps, no Python frame per step; a NaN jump reaches
    nothing, as in `max_jump`."""
    steps = map(sub, itertools.islice(row, 1, None), row)
    if above is not None:
        steps = itertools.chain(steps, map(sub, row, above))
    return any(map(ge, map(abs, steps), itertools.repeat(bound)))


def jump_probe(stages: Sequence[tuple[float, list[float], Callable[[], Iterable[tuple]]]]
               ) -> SampledResult:
    """The staged grid-jump probe of one or more ends of a function, over
    stages ``(bound, pts, rows)``: ``rows()`` yields the value table
    ``f(pts[i], pts[j])`` a row i at a time, as one tuple with a row per end.
    The probe takes each end's stages in turn, the first end's first, and
    stops at the first (end, stage) whose largest jump between neighbouring
    cells reaches its bound; `samples` sums ``2n(n+1)`` over the (end,
    stage) pairs probed, that one included.

    All ends of a stage are scanned in one pass over its rows, holding two
    rows: each row's steps along it and from the row above by C-level maps.
    An end stops being scanned once it fails, and the pass stops when the
    first end does.  An end whose rows have equalled the first end's rows so
    far shares its verdict, at one list compare per row.  Only the failing
    table is built whole, by a second pass over its stage, for `max_jump`
    to name the witness; that pass reads every row, as building the table
    before scanning would."""
    failed: dict[int, int] = {}  # end -> the stage it fails at
    for s, (bound, _, rows) in enumerate(stages):
        above, diverged = None, set()  # ends whose rows differed from the first end's
        for row in rows():
            for end, values in enumerate(row):
                if end in failed or (failed and end > min(failed)):
                    continue
                if end and end not in diverged:
                    if values == row[0]:
                        continue
                    diverged.add(end)
                if _reaches(values, above and above[end], bound):
                    failed[end] = s
            if 0 in failed:
                break
            above = row
    sizes = [2 * (len(pts) - 1) * len(pts) for _, pts, _ in stages]
    if not failed:
        return SampledResult(True, None, len(row) * sum(sizes))
    end = min(failed)
    s = failed[end]
    _, pts, rows = stages[s]
    jump, where = max_jump(pts, [row[end] for row in rows()])
    return SampledResult(False, (*where, jump), end * sum(sizes) + sum(sizes[:s + 1]))

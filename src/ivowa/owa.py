"""Interval-valued aggregation functions, interval weight vectors and the
ordered weighted averaging operator built on an interval overlap.

The operator sorts its inputs descending under an admissible order, combines
each input with its interval weight through the overlap, and aggregates the
results.  Construction enforces the three preconditions that make the
composition lawful: the weights aggregate to exactly [1,1], the overlap has
[1,1] as neutral element, and the aggregator distributes over the overlap on
the sample grid.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from operator import add, contains, getitem, itemgetter, mul, ne
from typing import Callable, Iterable, Iterator, Sequence

from .intervals import (
    AdmissibleOrder,
    BLOCK_ROWS,
    DEFAULT_ORDER,
    Interval,
    ONE,
    Slotted,
    SlottedValue,
    ZERO,
    format_interval,
)
from .iv_overlaps import (
    IVOverlap,
    _checked,
    interval_product,
    neutral_element_holds,
    separable_tables,
    value_row,
    value_table,
)
from .overlaps import _grid_columns
from .sampling import (
    DEFAULT_GRID,
    EXACT,
    LazyRows,
    ROOT_TOLERANCE,
    SampleGrid,
    SampledResult,
    all_close,
    close_row,
    first_violation,
    first_violation_in_rows,
    memoized,
    tuple_samples,
)


class WeightError(ValueError):
    """A weight vector fails a normalization or arity requirement."""


class GowaError(ValueError):
    """An operator construction precondition failed."""


class AggregatorKind(enum.Enum):
    MAX = "max"
    TRUNCATED_SUM = "tsum"
    GEOMETRIC_MEAN = "geomean"
    DIRAC = "dirac"


class IVAggregator(Slotted):
    """An n-ary interval aggregation function, stored as its map over many
    tuples in C-level maps, ``columns(lo_cols, up_cols) -> (lowers,
    uppers)``, ``lo_cols[i]`` holding input i's lower endpoints; a call is
    its one-tuple case.

    A binary aggregator is symmetric in binary64: swapping its two input
    columns gives the same floats, up to the sign of a zero.  The exhaustive
    n=2 walks of `check_distributivity` and `check_homogeneous_m` rely on
    it, deciding only the cases with x1 <= x2
    (`test_binary_aggregators_are_symmetric_bit_for_bit` pins it).

    `endwise` is the map over one end's input columns when the aggregator
    acts on each end on its own, ``columns(lo_cols, up_cols) ==
    (list(endwise(lo_cols)), list(endwise(up_cols)))``, as max, tsum and
    geomean do; None otherwise (both ends of dirac read the lowers).  The
    real distributivity walks take the `endwise` map of a MAX or
    TRUNCATED_SUM aggregator to be symmetric in all its inputs
    (`test_endwise_maps_are_symmetric_bit_for_bit` pins it at n = 3 and 4)."""

    __slots__ = ("columns", "arity", "kind", "name", "endwise")

    def __init__(self, columns: Callable[..., tuple[list[float], list[float]]], arity: int,
                 kind: AggregatorKind, name: str, endwise: Callable | None = None) -> None:
        self._init(columns, arity, kind, name, endwise)

    def __call__(self, values: Sequence[Interval]) -> Interval:
        if len(values) != self.arity:
            raise WeightError(f"{self.name} expects {self.arity} inputs, got {len(values)}")
        (lower,), (upper,) = self.columns([[v.lower] for v in values], [[v.upper] for v in values])
        return Interval(lower, upper)


class WeightVector(SlottedValue):
    """A tuple of interval weights."""

    __slots__ = ("weights",)

    weights: tuple[Interval, ...]

    def __init__(self, weights: Iterable[Interval]) -> None:
        weights = tuple(weights)
        if not weights:
            raise WeightError("weight vector must not be empty")
        self._init(weights)

    def __len__(self) -> int:
        return len(self.weights)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.weights)

    def __getitem__(self, i: int) -> Interval:
        return self.weights[i]

    @classmethod
    def of(cls, *pairs: Interval) -> "WeightVector":
        return cls(tuple(pairs))

    @classmethod
    def uniform(cls, n: int) -> "WeightVector":
        if n < 1:
            raise WeightError(f"uniform weight vector length must be >= 1, got {n}")
        w = Interval(1.0 / n, 1.0 / n)
        return cls((w,) * n)

    @classmethod
    def selector(cls, n: int, index: int) -> "WeightVector":
        """All [0,0] except [1,1] at the 1-based position."""
        if not 1 <= index <= n:
            raise WeightError(f"selector index {index} out of range 1..{n}")
        return cls(tuple(ONE if i == index - 1 else ZERO for i in range(n)))


@memoized
def builtin_aggregators(n: int) -> dict[str, IVAggregator]:
    """The aggregator catalog for a given arity, addressable by string id.

    No aggregator depends on an admissible order, so there is one catalog
    per arity.
    """
    if n < 1:
        raise WeightError(f"aggregator arity must be >= 1, got {n}")

    # An endpoint-wise aggregator runs `each`, a map over the input columns,
    # on both ends; it reads each column once, as the sampled walks pass
    # one-shot maps.
    def both(each: Callable[[Sequence[Iterable[float]]], Iterable[float]], kind: AggregatorKind,
             name: str) -> IVAggregator:
        return IVAggregator(lambda lo_cols, up_cols: (list(each(lo_cols)), list(each(up_cols))),
                            n, kind, name, each)

    root = 1.0 / n

    # [1,1] tops the product order, so it is the largest input under any order
    # that refines it exactly when it is an input (binary64 xuyager does not,
    # ROADMAP X); an input is [1,1] exactly when its lower endpoint is 1.
    def dirac_columns(lo_cols: Sequence[Iterable[float]], _) -> tuple[list[float], list[float]]:
        ends = list(map(float, map(contains, zip(*lo_cols), itertools.repeat(1.0))))
        return ends, ends

    entries = [
        both((lambda cols: map(max, *cols)) if n > 1 else itemgetter(0), AggregatorKind.MAX, "max"),
        both(lambda cols: map(min, itertools.repeat(1.0), map(math.fsum, zip(*cols))),
             AggregatorKind.TRUNCATED_SUM, "tsum"),
        # The product of the inputs, the left fold of `math.prod` (whose start
        # 1 multiplies exactly), raised to the n-th root.
        both(lambda cols: map(pow, functools.reduce(functools.partial(map, mul), cols),
                              itertools.repeat(root)),
             AggregatorKind.GEOMETRIC_MEAN, "geomean"),
        IVAggregator(dirac_columns, n, AggregatorKind.DIRAC, "dirac"),
    ]
    return {m.name: m for m in entries}


def is_weighted_vector(m: IVAggregator, w: WeightVector) -> bool:
    """True iff the aggregator maps the weights to exactly [1,1]."""
    if len(w) != m.arity:
        raise WeightError(f"weight count {len(w)} does not match aggregator arity {m.arity}")
    return m(w.weights) == ONE


def normalize_weights(m: IVAggregator, w: WeightVector) -> WeightVector:
    """Rescale weights so they aggregate to exactly [1,1].

    Defined for the truncated-sum aggregator (divide by the sum of lower
    endpoints, clamp uppers at 1) and for the max aggregator (divide by the
    largest upper endpoint and promote the attaining weight to [1,1]).
    Other kinds have no canonical normalization and are rejected.
    """
    if len(w) != m.arity:
        raise WeightError(f"weight count {len(w)} does not match aggregator arity {m.arity}")
    if m.kind is AggregatorKind.TRUNCATED_SUM:
        total = math.fsum(v.lower for v in w)
        if total <= 0.0:
            raise WeightError("cannot normalize: all lower endpoints are 0")
        lowers = [v.lower / total for v in w]
        uppers = [max(min(1.0, v.upper / total), lo) for v, lo in zip(w, lowers)]
        # binary64 fix-up: the divided lowers may sum a few ulp short of 1;
        # bump the largest one until the truncated sum is exactly 1.
        for _ in range(64):
            deficit = 1.0 - math.fsum(lowers)
            if deficit <= 0.0:
                break
            i = max(range(len(lowers)), key=lowers.__getitem__)
            bumped = min(1.0, lowers[i] + deficit)
            if bumped == lowers[i]:
                bumped = min(1.0, math.nextafter(lowers[i], math.inf))
            lowers[i] = bumped
            uppers[i] = max(uppers[i], bumped)
        result = WeightVector(tuple(Interval(lo, up) for lo, up in zip(lowers, uppers)))
    elif m.kind is AggregatorKind.MAX:
        top = max(v.upper for v in w)
        if top <= 0.0:
            raise WeightError("cannot normalize: all upper endpoints are 0")
        scaled = [Interval(v.lower / top, min(1.0, v.upper / top)) for v in w]
        attain = next(i for i, v in enumerate(w) if v.upper == top)
        scaled[attain] = ONE
        result = WeightVector(tuple(scaled))
    else:
        raise WeightError(f"no normalization defined for aggregator kind {m.kind.value!r}")
    if not is_weighted_vector(m, result):
        raise WeightError("normalization failed to produce an exactly weighted vector")
    return result


def non_saturating(uppers: Iterable[float]) -> bool:
    """Tuples whose upper endpoints sum within 1: the truncated sum never clamps.

    `check_distributivity`'s restriction, on the uppers of the inputs x1..xn.
    """
    return math.fsum(uppers) <= 1.0


def _blocks(cases: Iterable[tuple]) -> Iterator[list[tuple]]:
    """A stream of tuples (drawn cases, the xs rows of an exhaustive real
    walk, matrix rows) in blocks of 8, 16, ..., `BLOCK_ROWS`: most failing
    checks stop within a few blocks, and the cap bounds a block's memory."""
    stream, size = iter(cases), 8
    while block := list(itertools.islice(stream, size)):
        yield block
        size = min(2 * size, BLOCK_ROWS)


def _read(table: Sequence[Sequence[float]], rows: Iterable[int], cols: Iterable[int]) -> Iterator:
    """``table[r][c]`` for each pair of the two index columns."""
    return map(getitem, map(table.__getitem__, rows), cols)


@memoized
def check_distributivity(
    m: IVAggregator,
    o: IVOverlap,
    grid: SampleGrid = DEFAULT_GRID,
    tol: float = ROOT_TOLERANCE,
    restrict: bool = False,
    budget: int = 300_000,
) -> SampledResult:
    """Does the aggregator distribute over the overlap?

    Verifies M(O(X1,Y), ..., O(Xn,Y)) == O(M(X1..Xn), Y) on sampled tuples;
    `restrict` keeps the tuples whose X1..Xn are `non_saturating`.  The full
    cross product is walked a block of kept xs rows at a time (each xs asked
    once), y running over the grid in each row, ``max(1, BLOCK_ROWS //
    |grid|)`` rows to a block: one aggregator call gives the block's
    aggregates, one its left sides, and its right sides are the rows
    O(M(xs), .) joined end to end, decided by one `close_row`.  At n = 2 a
    block decides only its rows with x1 <= x2 (by grid index), and a block
    without one adds its size uncalled: M is symmetric (`IVAggregator`) and
    overlap values hold no NaN, so (b, a, y) holds exactly when (a, b, y),
    which comes first, does, and the first failure has x1 <= x2.  A sample is
    walked a block at a time too (`_blocks`), the restriction asked of each
    drawn tuple, and the right sides of a block are one column call of the
    overlap.

    This is the interval walk, of the arity given.  `make_gowa` runs it as
    the reduction walk over an overlap that is not separable, and to name
    the witness when a reduction walk fails (`_distributes`).
    """
    items = grid.intervals()
    lows = [x.lower for x in items]
    ups = [x.upper for x in items]
    pts = list(zip(lows, ups))
    index_of = {p: i for i, p in enumerate(pts)}
    # Tuples are walked as grid indices: the sample stream is the same (the
    # random fill only uses the pool's length).  The overlap's rows O(x, .)
    # are built on first use, since a sampled walk may stop within a few,
    # each filling one table of lower and one of upper endpoints.
    o_lo = LazyRows(lambda x: o_row(x)[0])
    o_up = LazyRows(lambda x: o_row(x)[1])

    def o_row(x):
        o_lo[x], o_up[x] = row = value_row(o, pts[x], pts)
        return row

    # The rows O(M(xs), .), once per distinct aggregate off the grid (895 of
    # geomean's 961 at n=2 and step 0.1); a grid aggregate's row is O(x, .).
    rhs_rows = LazyRows(lambda agg: (o_lo[index_of[agg]], o_up[index_of[agg]])
                        if agg in index_of else value_row(o, agg, pts))
    decode = items.__getitem__
    cases = tuple_samples(range(len(items)), m.arity + 1, budget)

    def kept(t: tuple) -> bool:
        return non_saturating(map(ups.__getitem__, t[:m.arity]))

    def rows():
        size, flat = len(items), itertools.chain.from_iterable
        xss = itertools.product(range(size), repeat=m.arity)
        xss = filter(kept, xss) if restrict else xss
        while chunk := list(itertools.islice(xss, max(1, BLOCK_ROWS // size))):
            # The block's rows to decide, by position: at n = 2 those with
            # x1 <= x2, as a row (b, a) holds exactly when (a, b) does; above
            # n = 2 all, as geomean's product is not symmetric there.
            at = [i for i, xs in enumerate(chunk) if m.arity != 2 or xs[0] <= xs[1]]
            if not at:
                yield len(chunk) * size
                continue
            decided = list(map(chunk.__getitem__, at))
            x_cols = list(zip(*decided))
            aggs = zip(*m.columns(*([map(side.__getitem__, xc) for xc in x_cols]
                                    for side in (lows, ups))))
            lhs = m.columns(*([flat(map(table.__getitem__, xc)) for xc in x_cols]
                              for table in (o_lo, o_up)))
            rhs = [list(flat(side)) for side in zip(*map(rhs_rows.__getitem__, aggs))]
            head, *witness = close_row(*lhs, *rhs, tol, lambda k: (
                *map(decode, decided[k // size]), items[k % size]))
            yield at[head // size] * size + head % size if witness else len(chunk) * size
            yield from witness

    def block_rows():
        for block in _blocks(filter(kept, cases) if restrict else cases):
            *x_cols, y_col = zip(*block)
            lhs = m.columns(*([_read(table, xc, y_col) for xc in x_cols] for table in (o_lo, o_up)))
            aggs = m.columns(*([map(side.__getitem__, xc) for xc in x_cols]
                               for side in (lows, ups)))
            rhs = _checked(*o.columns(*aggs, *(map(side.__getitem__, y_col)
                                               for side in (lows, ups))))
            yield from close_row(*lhs, *rhs, tol, lambda k: tuple(map(decode, block[k])))

    return first_violation_in_rows(rows() if cases.exhaustive else block_rows())


@memoized
def check_homogeneous_m(
    m: IVAggregator,
    grid: SampleGrid = DEFAULT_GRID,
    budget: int = 300_000,
) -> SampledResult:
    """First-order homogeneity: scaling every input scales the output,
    M(aX1, ..., aXn) == a M(X1..Xn).

    When the walk is exhaustive and `m` acts on each end on its own
    (`IVAggregator.endwise`), the real law m(ax1, ..., axn) == a m(x1..xn)
    over every real grid tuple decides a pass, counted as the interval
    walk's |grid|^(n+1) cases: an interval case holds at both endpoints
    exactly when its lower and its upper real case do, and every real case
    is both of a degenerate one.  Any other outcome runs the interval walk.

    That walks the full cross product a row at a time: one row per alpha,
    with x1..xn running over the grid's cross product, read from the value
    rows by index columns; at n = 2 a row decides only its cases with x1 <=
    x2, as `check_distributivity` does, and a failure is counted by its
    case's rank in product order.  A sample is walked a block at a time
    (`_blocks`).
    """
    cases = tuple_samples(range(len(grid.intervals())), m.arity + 1, budget)
    if cases.exhaustive and m.endwise is not None:
        a_col, *x_cols = zip(*itertools.product(grid.endpoints(), repeat=m.arity + 1))
        lhs = list(m.endwise([map(mul, a_col, xc) for xc in x_cols]))
        rhs = list(map(mul, a_col, m.endwise(x_cols)))
        if all_close(lhs, lhs, rhs, rhs, ROOT_TOLERANCE):
            return SampledResult(True, None, len(cases))
    return _interval_homogeneous_m(m, grid, cases)


def _interval_homogeneous_m(m: IVAggregator, grid: SampleGrid, cases) -> SampledResult:
    """`check_homogeneous_m`'s interval walk over the tuples `cases`."""
    items = grid.intervals()
    lows = [x.lower for x in items]
    ups = [x.upper for x in items]
    # Walked on grid indices like check_distributivity; the scaled inputs
    # [alpha.lower*x.lower, alpha.upper*x.upper] are the interval product.
    scaled_lo, scaled_up = value_table(interval_product(), list(zip(lows, ups)),
                                       list(zip(lows, ups)))
    decode = items.__getitem__
    size, n = len(items), m.arity

    def over(row_lo, row_up, x_cols):
        """M of the rows' entries at each index tuple of `x_cols`."""
        return m.columns(*([map(row.__getitem__, xc) for xc in x_cols] for row in (row_lo, row_up)))

    def rows():
        # The x1..xn to decide, in product order: at n = 2 those with
        # x1 <= x2, as (b, a) holds exactly when (a, b) does.
        xss = [xs for xs in itertools.product(range(size), repeat=n) if n != 2 or xs[0] <= xs[1]]
        x_cols = list(zip(*xss))
        base_lo, base_up = over(lows, ups, x_cols)
        for a, alpha in enumerate(items):
            head, *witness = close_row(
                *over(scaled_lo[a], scaled_up[a], x_cols),
                list(map(mul, itertools.repeat(lows[a]), base_lo)),
                list(map(mul, itertools.repeat(ups[a]), base_up)), ROOT_TOLERANCE,
                lambda k: (alpha, *map(decode, xss[k])))
            yield functools.reduce(lambda r, x: r * size + x, xss[head]) if witness else size ** n
            yield from witness

    def block_rows():
        for block in _blocks(cases):
            a_col, *x_cols = zip(*block)
            base_lo, base_up = m.columns(*([map(side.__getitem__, xc) for xc in x_cols]
                                           for side in (lows, ups)))
            yield from close_row(
                *m.columns(*([_read(table, a_col, xc) for xc in x_cols]
                             for table in (scaled_lo, scaled_up))),
                list(map(mul, map(lows.__getitem__, a_col), base_lo)),
                list(map(mul, map(ups.__getitem__, a_col), base_up)),
                ROOT_TOLERANCE, lambda k: tuple(map(decode, block[k])))

    return first_violation_in_rows(rows() if cases.exhaustive else block_rows())


def absorption_holds(m: IVAggregator) -> SampledResult:
    """A single input among [0,0] padding passes through unchanged, exactly."""
    pad = (ZERO,) * m.arity
    return first_violation((x, j) if m([*pad[:j], x, *pad[j + 1:]]) != x else None
                           for x in DEFAULT_GRID.intervals() for j in range(m.arity))


class GowaOperator(Slotted):
    """A validated ordered-weighted aggregation operator over intervals."""

    __slots__ = ("aggregator", "overlap", "weights", "order", "saturation_witness")

    def __init__(self, aggregator: IVAggregator, overlap: IVOverlap, weights: WeightVector,
                 order: AdmissibleOrder, saturation_witness: tuple | None = None) -> None:
        self._init(aggregator, overlap, weights, order, saturation_witness)

    @property
    def arity(self) -> int:
        return self.aggregator.arity

    def __call__(self, values: Sequence[Interval]) -> Interval:
        return next(self.aggregate_rows((values,)))

    def aggregate_rows(self, rows: Iterable[Sequence[Interval]]) -> Iterator[Interval]:
        """The operator at each row, in order, a block of rows at a time
        (`_blocks`) through `columns`.  A block is evaluated whole before its
        first aggregate is returned."""
        n = self.arity
        for block in _blocks(rows):
            short = next((row for row in block if len(row) != n), None)
            if short is not None:
                raise GowaError(f"operator expects {n} inputs, got {len(short)}")
            inputs = list(zip(*block))
            yield from map(Interval, *self.columns([[x.lower for x in col] for col in inputs],
                                                   [[x.upper for x in col] for col in inputs]))

    def columns(self, lo_cols: Sequence[Sequence[float]],
                up_cols: Sequence[Sequence[float]]) -> tuple[list[float], list[float]]:
        """The operator at many rows given as endpoint columns, ``lo_cols[j]``
        holding input j's lower endpoint in each row: each row's sort keys
        (`AdmissibleOrder.key_column`) sorted descending, stable as
        `ranks_descending`; O(W_k, X_(k)) over each rank column, one column
        call of the overlap with W_k repeated, checked by `_checked`; then the
        aggregator's `columns`; past `BLOCK_ROWS` rows, a slice of that many at a time."""
        if len(lo_cols[0]) > BLOCK_ROWS:
            cuts = [slice(i, i + BLOCK_ROWS) for i in range(0, len(lo_cols[0]), BLOCK_ROWS)]
            lo, up = zip(*(self.columns([c[cut] for c in lo_cols], [c[cut] for c in up_cols])
                           for cut in cuts))
            return list(itertools.chain.from_iterable(lo)), list(itertools.chain.from_iterable(up))
        o, key_lo, key_up = self.overlap.columns, *self.order.key_ends
        keys = map(self.order.key_column, lo_cols, up_cols)
        ranked = zip(*map(functools.partial(sorted, reverse=True), zip(*keys)))
        pieces = [_checked(*o(itertools.repeat(w.lower), itertools.repeat(w.upper),
                              map(key_lo, col), map(key_up, col)))
                  for w, col in zip(self.weights, ranked)]
        return self.aggregator.columns([lo for lo, _ in pieces], [up for _, up in pieces])


def _paired_values(op: GowaOperator, pairs: Iterable[tuple]) -> Iterator[tuple]:
    """Each pair of input rows with the operator at both, the rows of every
    pair evaluated in one stream (`GowaOperator.aggregate_rows`)."""
    pairs, rows = itertools.tee(pairs)
    values = op.aggregate_rows(itertools.chain.from_iterable(rows))
    return zip(pairs, values, values)


def _light_multisets(n: int, bound: int, low: int = 0) -> Iterator[tuple[int, ...]]:
    """The nondecreasing n-tuples of integers from `low` up that sum to at
    most `bound`, in lexicographic order: 139 of them for n >= 10 and bound
    10, where the nondecreasing n-tuples of 0..10 number 184,756 at n = 10."""
    if n == 0:
        yield ()
        return
    for first in range(low, bound // n + 1):
        for rest in _light_multisets(n - 1, bound - first, first):
            yield (first, *rest)


# The margin under the caller's tolerance at which an exhaustive geomean walk
# decides each multiset of inputs: every ordering of one multiset gives
# geomean values within 2^-50 of each other (README, "Walk shapes").
SLACK = 2.0 ** -40


@memoized
def _real_distributes(
    m: IVAggregator,
    o: IVOverlap,
    grid: SampleGrid = DEFAULT_GRID,
    tol: float = ROOT_TOLERANCE,
    restrict: bool = False,
) -> SampledResult:
    """The real laws m(g(x1, y), ..., g(xn, y)) == g(m(x1..xn), y) within
    `tol` on the grid's endpoints, for each endpoint map g of the separable
    overlap `o` (`IVOverlap.endwise`) in turn, one walk when one map serves
    both ends; `m` acts on one end of an endpoint-wise aggregator
    (`IVAggregator.endwise`).  `restrict` keeps the tuples whose x1..xn are
    `non_saturating`.  The witness is the first failing map's real tuple
    (x1..xn, y).  A pass stands only when every interval the interval walk
    can build from the points walked is shown valid (`separable_tables`,
    over the grid and the aggregates m(x1..xn) of every tuple walked or
    stood for, a sampled walk's own); otherwise the walk fails with no
    witness, so that the interval walk decides and raises what it raises.

    The walk reads positions in `pts`, the grid's endpoints in walk order:
    ascending for max and tsum, descending for geomean, whose failures show
    sooner among large inputs (it is 0 wherever an input is).  x1..xn are
    nondecreasing position tuples, one per multiset of inputs, a block of
    them at a time (`_blocks`), y running over the grid in each row: one
    call of m gives the block's aggregates, one its left sides, read as
    whole rows of the table g(x, .), and one call of g its right sides, all
    decided by one `close_row`.  max and tsum are symmetric in binary64, max
    selecting an input and fsum rounding the exact sum once, so a multiset
    stands for its orderings; under the restriction only those whose
    numerators sum to at most D are walked, since grid endpoints are exactly
    k/D and the others sum above 1.

    binary64 geomean is not symmetric, so its exhaustive walk (at most
    300,000 real tuples, n <= 4 on the 0.1 grid) decides each multiset
    within ``tol - SLACK`` of its own aggregate; then, once that holds for
    every map, each ordering's aggregate is computed (one call of m over
    `_grid_columns`) and each other distinct aggregate a of a multiset is
    decided against that multiset's left sides, |lhs - g(a, y)| <= ``tol -
    SLACK``.  Every ordering's left side is within 2^-50 of the multiset's,
    so a pass stands for every real tuple (README, "Walk shapes"): 12,397
    cases for 161,051 at n = 4.  At ``tol <= SLACK`` it cannot pass, and
    fails at once with no witness.  Above that budget geomean walks a sample of 100,000
    tuples, the interval walk's budget above n = 2 (`tuple_samples`), a
    block of drawn tuples at a time, at `tol`."""
    pts = grid.endpoints()
    size, n, each = len(pts), m.arity, m.endwise
    drawn, at = None, tol
    if m.kind not in (AggregatorKind.MAX, AggregatorKind.TRUNCATED_SUM):
        pts = pts[::-1]
        total = size ** (n + 1)
        drawn = tuple_samples(range(size), n + 1, total if total <= 300_000 else 100_000)
        if drawn.exhaustive:
            if tol <= SLACK:
                return SampledResult(False, None, 0)
            at = tol - SLACK
    value, flat = pts.__getitem__, itertools.chain.from_iterable
    firsts = set(pts)
    maps = dict.fromkeys(o.endwise)
    tables = LazyRows(lambda g: [list(g(itertools.repeat(x), pts)) for x in pts])

    def kept(t: tuple) -> bool:
        return non_saturating(map(value, t[:n]))

    def xs_rows() -> Iterable[tuple]:
        if drawn is None and restrict:
            return filter(kept, _light_multisets(n, grid.divisions))
        xss = itertools.combinations_with_replacement(range(size), n)
        return filter(kept, xss) if restrict else xss

    def decide(g: Callable, block: Sequence[tuple], aggs: Sequence[float],
               shown: Sequence[tuple]) -> tuple:
        """The rows of the xs in `block`, each against g(agg, .) at its
        aggregate in `aggs`; a failing case shows its row of `shown`."""
        lhs = list(each([flat(map(tables[g].__getitem__, xc)) for xc in zip(*block)]))
        rhs = list(g(flat(map(itertools.repeat, aggs, itertools.repeat(size))),
                     pts * len(block)))
        return close_row(lhs, lhs, rhs, rhs, at,
                         lambda k: (*map(value, shown[k // size]), pts[k % size]))

    def rows(g: Callable) -> Iterator:
        if drawn is not None and not drawn.exhaustive:
            for block in _blocks(filter(kept, drawn) if restrict else drawn):
                *x_cols, y_col = zip(*block)
                lhs = list(each([_read(tables[g], xc, y_col) for xc in x_cols]))
                aggs = list(each([map(value, xc) for xc in x_cols]))
                firsts.update(aggs)
                rhs = list(g(aggs, map(value, y_col)))
                yield from close_row(lhs, lhs, rhs, rhs, tol,
                                     lambda k: tuple(map(value, block[k])))
            return
        for block in _blocks(xs_rows()):
            aggs = list(each([map(value, xc) for xc in zip(*block)]))
            firsts.update(aggs)
            yield from decide(g, block, aggs, block)

    def other_rows() -> Iterator:
        # Each ordering's multiset key, the sum of (n+1)**p over its
        # positions p (one key per multiset, as no position repeats more than
        # n times), and its aggregate, in product order.  An ordering whose
        # aggregate is its multiset's own was decided above; each other pair
        # of a multiset and an aggregate is decided once, in the order of the
        # first ordering that reaches it, shown by the last.
        weights = [(n + 1) ** p for p in range(size)]
        multisets = list(xs_rows())
        own = dict(zip(map(sum, map(functools.partial(map, weights.__getitem__), multisets)),
                       each([map(value, xc) for xc in zip(*multisets)])))
        keys = list(functools.reduce(functools.partial(map, add), _grid_columns(weights, n, list)))
        aggs = list(each(_grid_columns(pts, n, list)))
        firsts.update(itertools.compress(aggs, map(own.__contains__, keys)) if restrict else aggs)
        last = {(keys[i], aggs[i]): i
                for i in itertools.compress(itertools.count(), map(ne, aggs, map(own.get, keys)))
                if keys[i] in own}
        shown = [tuple(i // size ** (n - 1 - j) % size for j in range(n)) for i in last.values()]
        others = [(tuple(sorted(xs)), agg, xs) for (_, agg), xs in zip(last, shown)]
        for g in maps:
            for block in _blocks(others):
                yield from decide(g, *zip(*block))

    walks = [rows(g) for g in maps]
    if drawn is not None and drawn.exhaustive:
        walks.append(other_rows())
    real = first_violation_in_rows(itertools.chain.from_iterable(walks))
    if not real.ok:
        return real
    return real._replace(ok=separable_tables(o, sorted(firsts), grid.endpoints()) is not None)


@memoized
def _distributes(m: IVAggregator, o: IVOverlap, tol: float) -> tuple[SampledResult, tuple | None]:
    """The distributivity verdict that admits the pair, and the witness found
    outside the kind's restriction, if any (None when nothing is restricted):
    the truncated sum is checked where it does not saturate.

    One rule.  A reduction walk, which can only decide a pass, runs first:
    the real walks of the endpoint maps (`_real_distributes`) when the
    overlap is separable (`IVOverlap.endwise`) and the aggregator acts on each
    end on its own (`IVAggregator.endwise`), otherwise the interval walk
    (`check_distributivity`).  `max` above n = 2 walks the binary `max` at
    tolerance 0; every other pair walks itself at `tol`.  A pass decides the
    pair: the interval law holds on every grid tuple exactly when the real
    laws hold on every real grid tuple, and a binary `max` pass at 0 is one
    at every arity, by induction on n (README, "How `make_gowa` decides
    distributivity", gives both arguments).  A failing
    reduction decides nothing, and the pair's own interval walk at `tol`
    names the witness, a memo hit when it was the reduction walk; its sample
    is the full cross product for binary aggregators, a bounded one above.
    A passing truncated sum then takes its unrestricted walk, whose witness
    is kept."""
    restrict = m.kind is AggregatorKind.TRUNCATED_SUM
    walk, walk_tol = ((builtin_aggregators(2)["max"], EXACT)
                      if m.kind is AggregatorKind.MAX and m.arity > 2 else (m, tol))

    def interval(agg: IVAggregator, at: float, kept: bool = restrict) -> SampledResult:
        return check_distributivity(agg, o, tol=at, restrict=kept,
                                    budget=300_000 if agg.arity <= 2 else 100_000)

    reduced = (_real_distributes(walk, o, tol=walk_tol, restrict=restrict)
               if m.endwise is not None and o.endwise is not None
               else interval(walk, walk_tol))
    dist = reduced if reduced.ok else interval(m, tol)
    return dist, interval(m, tol, False).witness if restrict and dist.ok else None


def make_gowa(
    m: IVAggregator,
    o: IVOverlap,
    w: WeightVector,
    order: AdmissibleOrder = DEFAULT_ORDER,
    tol: float = ROOT_TOLERANCE,
) -> GowaOperator:
    """Validate the (aggregator, overlap, weights) triple and build the operator.

    Rejections name the failed precondition.  Distributivity is decided by
    one rule (`_distributes`): a reduction walk that can only decide a pass,
    then, if it fails, the pair's own interval walk, which names the
    witness.  When a restriction narrows the distributivity sample, any
    witness found outside the restriction is kept on the operator as
    `saturation_witness` rather than silently dropped.
    The distributivity tolerance must be a number of at least 0: under NaN
    every case would hold, under a negative one none.
    """
    if not tol >= 0.0:
        raise GowaError(f"distributivity tolerance must be a number >= 0, got {tol!r}")
    if len(w) != m.arity:
        raise GowaError(f"weight count {len(w)} does not match aggregator arity {m.arity}")
    if not is_weighted_vector(m, w):
        raise GowaError(
            f"weights are not normalized for {m.name}: aggregate is {m(w.weights)}, not [1,1]"
        )
    neutral = neutral_element_holds(o)
    if not neutral.ok:
        raise GowaError(
            f"overlap {o.name} lacks the neutral element [1,1]; "
            f"witness {' '.join(map(format_interval, neutral.witness))}"
        )
    dist, saturation = _distributes(m, o, tol)
    if not dist.ok:
        raise GowaError(
            f"aggregator {m.name} does not distribute over {o.name}; "
            f"witness {' '.join(map(format_interval, dist.witness))}"
        )
    return GowaOperator(m, o, w, order, saturation)


def check_order_monotonicity(op: GowaOperator) -> SampledResult:
    """Is the operator monotone in its own admissible order, on the 0.25 grid?

    Nothing guarantees it, and some configurations genuinely fail, so this is
    an empirical per-configuration report, not an invariant.  Nor is the
    operator monotone in the product order: `max` over the product with
    weights ([1,1], [0.5,0.5]) under lex1 maps ([0,0], [0,0.5]) to [0,0.5],
    and ([0.25,0.25], [0,0.5]), above those inputs in the product order, to
    [0.25,0.25], which is not above [0,0.5] in it.
    """
    order = op.order
    items = SampleGrid(0.25).intervals()
    ordered = [(a, b) for a in items for b in items if a != b and order.leq(a, b)]
    pairs = (tuple(zip(*combo)) for combo in tuple_samples(ordered, op.arity, budget=20_000))
    return first_violation((*lo_vec, *hi_vec) if not order.leq(lo, hi) else None
                           for (lo_vec, hi_vec), lo, hi in _paired_values(op, pairs))


def projection_owa(
    m: IVAggregator,
    index: int,
    values: Sequence[Interval],
    order: AdmissibleOrder = DEFAULT_ORDER,
) -> Interval:
    """Select the index-th largest input (1-based) via a one-hot weight vector.

    Requires an aggregator through which a single input among [0,0] padding
    passes unchanged.
    """
    absorb = absorption_holds(m)
    if not absorb.ok:
        x, j = absorb.witness
        raise GowaError(f"aggregator {m.name} does not absorb zero padding: "
                        f"{format_interval(x)} at position {j + 1}")
    w = WeightVector.selector(m.arity, index)
    return make_gowa(m, interval_product(), w, order)(values)

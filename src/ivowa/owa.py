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
from operator import contains, getitem, mul
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
    value_row,
    value_table,
)
from .sampling import (
    DEFAULT_GRID,
    LazyRows,
    ROOT_TOLERANCE,
    SAMPLE_SEED,
    SampleGrid,
    SampledResult,
    close_row,
    first_violation,
    first_violation_in_rows,
    memoized,
    tuple_samples,
)

__all__ = [
    "AggregatorKind",
    "IVAggregator",
    "WeightVector",
    "WeightError",
    "GowaError",
    "builtin_aggregators",
    "is_weighted_vector",
    "normalize_weights",
    "check_distributivity",
    "check_homogeneous_m",
    "check_order_monotonicity",
    "absorption_holds",
    "GowaOperator",
    "make_gowa",
    "iv_gowa",
    "projection_owa",
    "non_saturating",
]


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
    its one-tuple case."""

    __slots__ = ("columns", "arity", "kind", "name")

    def __init__(self, columns: Callable[..., tuple[list[float], list[float]]], arity: int,
                 kind: AggregatorKind, name: str) -> None:
        self._init(columns, arity, kind, name)

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

    # A column map runs `each`, a map over the input tuples, on both ends.
    def both(each: Callable[[Iterator[tuple]], Iterable[float]]) -> Callable:
        return lambda lo_cols, up_cols: (list(each(zip(*lo_cols))), list(each(zip(*up_cols))))

    root = 1.0 / n

    # [1,1] tops the product order, so it is the largest input under any order
    # that refines it exactly when it is an input (binary64 xuyager does not,
    # ROADMAP X); an input is [1,1] exactly when its lower endpoint is 1.
    def dirac_columns(lo_cols: Sequence[Iterable[float]], _) -> tuple[list[float], list[float]]:
        ends = list(map(float, map(contains, zip(*lo_cols), itertools.repeat(1.0))))
        return ends, ends

    entries = [
        IVAggregator(both(lambda ts: map(max, ts)), n, AggregatorKind.MAX, "max"),
        IVAggregator(both(lambda ts: map(min, itertools.repeat(1.0), map(math.fsum, ts))),
                     n, AggregatorKind.TRUNCATED_SUM, "tsum"),
        # The product of the inputs, a left fold, raised to the n-th root.
        IVAggregator(both(lambda ts: map(pow, map(math.prod, ts), itertools.repeat(root))),
                     n, AggregatorKind.GEOMETRIC_MEAN, "geomean"),
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
    """A sample stream in blocks of 8, 16, ..., `BLOCK_ROWS` tuples: most failing
    checks stop within a few tuples, and the cap bounds a block's memory."""
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
    seed: int = SAMPLE_SEED,
) -> SampledResult:
    """Does the aggregator distribute over the overlap?

    Verifies M(O(X1,Y), ..., O(Xn,Y)) == O(M(X1..Xn), Y) on sampled tuples;
    `restrict` keeps the tuples whose X1..Xn are `non_saturating`.  The full
    cross product is walked a row per xs kept (asked once per xs), y running
    over the grid; a sample a block at a time (`_blocks`), screened first
    (`TupleSamples.screened`): grid upper endpoints are exactly k/D, so only
    tuples whose numerators k sum to at most D can be kept, and only they are
    asked.  The right side of a block is read from the overlap's value rows
    when every aggregate in it is a grid interval, as those of max and dirac
    always are; otherwise it is evaluated once per tuple.
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
    cases = tuple_samples(range(len(items)), m.arity + 1, budget, seed)

    def kept(t: tuple) -> bool:
        return non_saturating(map(ups.__getitem__, t[:m.arity]))

    def rows():
        xss = itertools.product(range(len(items)), repeat=m.arity)
        for xs in filter(kept, xss) if restrict else xss:
            (agg_lo,), (agg_up,) = m.columns([[lows[x]] for x in xs], [[ups[x]] for x in xs])
            yield from close_row(*m.columns([o_lo[x] for x in xs], [o_up[x] for x in xs]),
                                 *rhs_rows[agg_lo, agg_up], tol,
                                 lambda k: (*map(decode, xs), items[k]))

    def block_rows():
        screened = cases.screened([round(u * grid.divisions) for u in ups], grid.divisions, kept)
        for block in _blocks(screened if restrict else cases):
            *x_cols, y_col = zip(*block)
            lhs = m.columns(*([_read(table, xc, y_col) for xc in x_cols] for table in (o_lo, o_up)))
            agg_lo, agg_up = m.columns(*([map(side.__getitem__, xc) for xc in x_cols]
                                         for side in (lows, ups)))
            agg_at = list(map(index_of.get, zip(agg_lo, agg_up)))
            if None in agg_at:
                rhs = _checked(*o.columns(agg_lo, agg_up, map(lows.__getitem__, y_col),
                                          map(ups.__getitem__, y_col)))
            else:
                rhs = [list(_read(table, agg_at, y_col)) for table in (o_lo, o_up)]
            yield from close_row(*lhs, *rhs, tol, lambda k: tuple(map(decode, block[k])))

    return first_violation_in_rows(rows() if cases.exhaustive else block_rows())


@memoized
def check_homogeneous_m(
    m: IVAggregator,
    grid: SampleGrid = DEFAULT_GRID,
    budget: int = 300_000,
) -> SampledResult:
    """First-order homogeneity: scaling every input scales the output.

    The full cross product is walked a row at a time: one row per alpha,
    with x1..xn running over the grid's cross product; a sample is walked a
    block at a time (`_blocks`).
    """
    items = grid.intervals()
    lows = [x.lower for x in items]
    ups = [x.upper for x in items]
    # Walked on grid indices like check_distributivity; the scaled inputs
    # [alpha.lower*x.lower, alpha.upper*x.upper] are the interval product.
    scaled_lo, scaled_up = value_table(interval_product(), list(zip(lows, ups)),
                                       list(zip(lows, ups)))
    cases = tuple_samples(range(len(items)), m.arity + 1, budget, SAMPLE_SEED)
    decode = items.__getitem__
    size, n = len(items), m.arity

    def over_xs(row_lo, row_up):
        """M of the rows' entries at each x1..xn, in product order: column i
        repeats each entry size ** (n-1-i) times, size ** i times over."""
        return m.columns(*([list(itertools.chain.from_iterable(map(
            itertools.repeat, row, itertools.repeat(size ** (n - 1 - i))))) * size ** i
            for i in range(n)] for row in (row_lo, row_up)))

    def rows():
        base_lo, base_up = over_xs(lows, ups)
        for a, alpha in enumerate(items):
            yield from close_row(
                *over_xs(scaled_lo[a], scaled_up[a]),
                list(map(mul, itertools.repeat(lows[a]), base_lo)),
                list(map(mul, itertools.repeat(ups[a]), base_up)), ROOT_TOLERANCE, lambda k: (
                    alpha, *next(itertools.islice(itertools.product(items, repeat=n), k, None))))

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


@memoized
def _distributes(m: IVAggregator, o: IVOverlap, tol: float) -> tuple[SampledResult, tuple | None]:
    """The distributivity verdict that admits the pair, and the witness found
    outside the kind's restriction, if any (None when nothing is restricted):
    the truncated sum is checked where it does not saturate, and the sample is
    the full cross product for binary aggregators, a bounded one above."""
    restrict = m.kind is AggregatorKind.TRUNCATED_SUM
    budget = 300_000 if m.arity <= 2 else 100_000
    dist = check_distributivity(m, o, tol=tol, restrict=restrict, budget=budget)
    if not dist.ok or not restrict:
        return dist, None
    return dist, check_distributivity(m, o, tol=tol, budget=budget).witness


def make_gowa(
    m: IVAggregator,
    o: IVOverlap,
    w: WeightVector,
    order: AdmissibleOrder = DEFAULT_ORDER,
    tol: float = ROOT_TOLERANCE,
) -> GowaOperator:
    """Validate the (aggregator, overlap, weights) triple and build the operator.

    Rejections name the failed precondition; when a restriction narrows the
    distributivity sample, any witness found outside the restriction is kept
    on the operator as `saturation_witness` rather than silently dropped.
    """
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


def iv_gowa(
    m: IVAggregator,
    o: IVOverlap,
    w: WeightVector,
    order: AdmissibleOrder,
    values: Sequence[Interval],
) -> Interval:
    """One-shot form of the operator; precondition checks are cached per pair."""
    return make_gowa(m, o, w, order)(values)


def check_order_monotonicity(op: GowaOperator) -> SampledResult:
    """Is the operator monotone in its own admissible order, on the 0.25 grid?

    Guaranteed only for the product partial order; under a total order some
    configurations genuinely fail, so this is an empirical per-configuration
    report, not an invariant.
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
    return iv_gowa(m, interval_product(), w, order, values)

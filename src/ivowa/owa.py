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
import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable, Iterator, Sequence

from .intervals import (
    AdmissibleOrder,
    DEFAULT_ORDER,
    ExponentInterval,
    Interval,
    ONE,
    ZERO,
    join,
    power,
    product,
)
from .iv_overlaps import IVOverlap, interval_product, neutral_element_holds
from .sampling import (
    DEFAULT_GRID,
    SAMPLE_SEED,
    SampleGrid,
    SampledResult,
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

ROOT_TOLERANCE = 1e-9


class WeightError(ValueError):
    """A weight vector fails a normalization or arity requirement."""


class GowaError(ValueError):
    """An operator construction precondition failed."""


class AggregatorKind(enum.Enum):
    MAX = "max"
    TRUNCATED_SUM = "tsum"
    GEOMETRIC_MEAN = "geomean"
    DIRAC = "dirac"
    CUSTOM = "custom"


@dataclass(frozen=True, eq=False)
class IVAggregator:
    """An n-ary interval aggregation function."""

    fn: Callable[[Sequence[Interval]], Interval]
    arity: int
    kind: AggregatorKind
    name: str
    order: AdmissibleOrder = DEFAULT_ORDER

    def __call__(self, values: Sequence[Interval]) -> Interval:
        if len(values) != self.arity:
            raise WeightError(f"{self.name} expects {self.arity} inputs, got {len(values)}")
        return self.fn(values)


@dataclass(frozen=True)
class WeightVector:
    """A tuple of interval weights."""

    weights: tuple[Interval, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(self.weights))
        if not self.weights:
            raise WeightError("weight vector must not be empty")

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


@lru_cache(maxsize=None)
def builtin_aggregators(
    n: int,
    order: AdmissibleOrder = DEFAULT_ORDER,
) -> dict[str, IVAggregator]:
    """The aggregator catalog for a given arity, addressable by string id."""
    if n < 1:
        raise WeightError(f"aggregator arity must be >= 1, got {n}")

    def agg_max(values: Sequence[Interval]) -> Interval:
        return reduce(join, values)

    def agg_tsum(values: Sequence[Interval]) -> Interval:
        return Interval(
            min(1.0, math.fsum(v.lower for v in values)),
            min(1.0, math.fsum(v.upper for v in values)),
        )

    root = ExponentInterval.of(1.0 / n)

    def agg_geomean(values: Sequence[Interval]) -> Interval:
        return power(reduce(product, values), root)

    def agg_dirac(values: Sequence[Interval]) -> Interval:
        return ONE if order.largest(values) == ONE else ZERO

    entries = [
        IVAggregator(agg_max, n, AggregatorKind.MAX, "max", order),
        IVAggregator(agg_tsum, n, AggregatorKind.TRUNCATED_SUM, "tsum", order),
        IVAggregator(agg_geomean, n, AggregatorKind.GEOMETRIC_MEAN, "geomean", order),
        IVAggregator(agg_dirac, n, AggregatorKind.DIRAC, "dirac", order),
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


def non_saturating(xs: Sequence[Interval], y: Interval) -> bool:
    """Tuples whose upper endpoints sum within 1: the truncated sum never clamps."""
    return math.fsum(x.upper for x in xs) <= 1.0


# Restriction applied when a kind distributes only on part of the space.
DISTRIBUTIVITY_RESTRICTIONS: dict[AggregatorKind, Callable[[Sequence[Interval], Interval], bool]] = {
    AggregatorKind.TRUNCATED_SUM: non_saturating,
}

# Sampled checks are deterministic for a fixed configuration, so results are
# memoized; aggregators and overlaps hash by identity and the key pins them.
_SAMPLED_MEMO: dict[tuple, SampledResult] = {}


def check_distributivity(
    m: IVAggregator,
    o: IVOverlap,
    grid: SampleGrid = DEFAULT_GRID,
    tol: float = ROOT_TOLERANCE,
    restrict: Callable[[Sequence[Interval], Interval], bool] | None = None,
    budget: int = 300_000,
    seed: int = SAMPLE_SEED,
) -> SampledResult:
    """Does the aggregator distribute over the overlap?

    Verifies M(O(X1,Y), ..., O(Xn,Y)) == O(M(X1..Xn), Y) on sampled tuples;
    an optional restriction predicate narrows the tuples checked.
    """
    key = (m, o, grid.endpoint_step, tol, restrict, budget, seed)
    memo = _SAMPLED_MEMO.get(key)
    if memo is not None:
        return memo
    items = grid.intervals()
    size = len(items)
    n = m.arity
    m_fn = m.fn
    o_fn = o.fn
    # Tuples are walked as grid indices: the sample stream is the same (the
    # random fill only uses the pool's length), and both memos key on ints.
    o_table: list[list[Interval | None]] = [[None] * size for _ in range(size)]
    m_cache: dict[tuple[int, ...], Interval] = {}
    m_get = m_cache.get

    count = 0
    for t in tuple_samples(range(size), n + 1, budget, seed):
        xs, y = t[:-1], t[-1]
        xs_iv = tuple(map(items.__getitem__, xs))
        y_iv = items[y]
        if restrict is not None and not restrict(xs_iv, y_iv):
            continue
        count += 1
        o_row = o_table[y]
        pieces = []
        for x in xs:
            r = o_row[x]
            if r is None:
                r = o_row[x] = o_fn(items[x], y_iv)
            pieces.append(r)
        lhs = m_fn(pieces)
        agg = m_get(xs)
        if agg is None:
            agg = m_cache[xs] = m_fn(xs_iv)
        rhs = o_fn(agg, y_iv)
        if abs(lhs.lower - rhs.lower) > tol or abs(lhs.upper - rhs.upper) > tol:
            result = SampledResult(False, (*xs_iv, y_iv), count)
            _SAMPLED_MEMO[key] = result
            return result
    result = SampledResult(True, None, count)
    _SAMPLED_MEMO[key] = result
    return result


def check_homogeneous_m(
    m: IVAggregator,
    grid: SampleGrid = DEFAULT_GRID,
    tol: float = ROOT_TOLERANCE,
    budget: int = 300_000,
    seed: int = SAMPLE_SEED,
) -> SampledResult:
    """First-order homogeneity: scaling every input scales the output."""
    key = (m, "homogeneous", grid.endpoint_step, tol, budget, seed)
    memo = _SAMPLED_MEMO.get(key)
    if memo is not None:
        return memo
    items = grid.intervals()
    n = m.arity
    m_fn = m.fn
    m_cache: dict[tuple[Interval, ...], Interval] = {}
    m_get = m_cache.get
    count = 0
    result = None
    for t in tuple_samples(items, n + 1, budget, seed):
        alpha, xs = t[0], t[1:]
        count += 1
        al, au = alpha.lower, alpha.upper
        left = m_fn([Interval(al * x.lower, au * x.upper) for x in xs])
        base = m_get(xs)
        if base is None:
            base = m_fn(xs)
            m_cache[xs] = base
        if (abs(left.lower - al * base.lower) > tol
                or abs(left.upper - au * base.upper) > tol):
            result = SampledResult(False, (alpha, *xs), count)
            break
    if result is None:
        result = SampledResult(True, None, count)
    _SAMPLED_MEMO[key] = result
    return result


def absorption_holds(m: IVAggregator, grid: SampleGrid = DEFAULT_GRID) -> SampledResult:
    """A single input among [0,0] padding passes through unchanged, exactly."""
    count = 0
    for x in grid.intervals():
        for j in range(m.arity):
            count += 1
            args = [ZERO] * m.arity
            args[j] = x
            if m(args) != x:
                return SampledResult(False, (x, j), count)
    return SampledResult(True, None, count)


@dataclass(eq=False)
class GowaOperator:
    """A validated ordered-weighted aggregation operator over intervals."""

    aggregator: IVAggregator
    overlap: IVOverlap
    weights: WeightVector
    order: AdmissibleOrder
    saturation_witness: tuple | None = None

    @property
    def arity(self) -> int:
        return self.aggregator.arity

    def __call__(self, values: Sequence[Interval]) -> Interval:
        if len(values) != self.arity:
            raise GowaError(f"operator expects {self.arity} inputs, got {len(values)}")
        ranks = self.order.ranks_descending(values)
        pieces = [self.overlap.fn(w, values[i]) for w, i in zip(self.weights, ranks)]
        return self.aggregator(pieces)


_VALIDATION_CACHE: dict[tuple, tuple[SampledResult, tuple | None]] = {}


def make_gowa(
    m: IVAggregator,
    o: IVOverlap,
    w: WeightVector,
    order: AdmissibleOrder = DEFAULT_ORDER,
    grid: SampleGrid = DEFAULT_GRID,
    budget: int | None = None,
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
    neutral = _neutral_cached(o, grid)
    if not neutral.ok:
        raise GowaError(
            f"overlap {o.name} lacks the neutral element [1,1]; witness {neutral.witness}"
        )
    if budget is None:
        # Full cross product for binary aggregators; a bounded sample above.
        budget = 300_000 if m.arity <= 2 else 100_000
    key = (m, o, grid.endpoint_step, budget, tol)
    cached = _VALIDATION_CACHE.get(key)
    if cached is None:
        restrict = DISTRIBUTIVITY_RESTRICTIONS.get(m.kind)
        dist = check_distributivity(m, o, grid=grid, tol=tol, restrict=restrict, budget=budget)
        saturation = None
        if dist.ok and restrict is not None:
            unrestricted = check_distributivity(m, o, grid=grid, tol=tol, budget=budget)
            if not unrestricted.ok:
                saturation = unrestricted.witness
        _VALIDATION_CACHE[key] = (dist, saturation)
    else:
        dist, saturation = cached
    if not dist.ok:
        raise GowaError(
            f"aggregator {m.name} does not distribute over {o.name}; witness {dist.witness}"
        )
    return GowaOperator(m, o, w, order, saturation)


_NEUTRAL_CACHE: dict[tuple, SampledResult] = {}


def _neutral_cached(o: IVOverlap, grid: SampleGrid) -> SampledResult:
    key = (o, grid.endpoint_step)
    res = _NEUTRAL_CACHE.get(key)
    if res is None:
        res = neutral_element_holds(o, grid)
        _NEUTRAL_CACHE[key] = res
    return res


def iv_gowa(
    m: IVAggregator,
    o: IVOverlap,
    w: WeightVector,
    order: AdmissibleOrder,
    values: Sequence[Interval],
    **kwargs,
) -> Interval:
    """One-shot form of the operator; precondition checks are cached per pair."""
    return make_gowa(m, o, w, order, **kwargs)(values)


def check_order_monotonicity(
    op: GowaOperator,
    grid: SampleGrid = SampleGrid(0.25),
) -> SampledResult:
    """Is the operator monotone with respect to its own admissible order?

    Guaranteed only for the product partial order; under a total order some
    configurations genuinely fail, so this is an empirical per-configuration
    report, not an invariant.
    """
    order = op.order
    items = grid.intervals()
    ordered = [(a, b) for a in items for b in items if a != b and order.leq(a, b)]
    n = op.arity
    count = 0
    for combo in tuple_samples(ordered, n, budget=20_000):
        lo_vec = [pair[0] for pair in combo]
        hi_vec = [pair[1] for pair in combo]
        count += 1
        if not order.leq(op(lo_vec), op(hi_vec)):
            return SampledResult(False, (*lo_vec, *hi_vec), count)
    return SampledResult(True, None, count)


def projection_owa(
    m: IVAggregator,
    index: int,
    values: Sequence[Interval],
    order: AdmissibleOrder = DEFAULT_ORDER,
    overlap: IVOverlap | None = None,
) -> Interval:
    """Select the index-th largest input (1-based) via a one-hot weight vector.

    Requires an aggregator through which a single input among [0,0] padding
    passes unchanged.
    """
    absorb = absorption_holds(m)
    if not absorb.ok:
        raise GowaError(f"aggregator {m.name} does not absorb zero padding: {absorb.witness}")
    o = overlap if overlap is not None else interval_product()
    w = WeightVector.selector(m.arity, index)
    return iv_gowa(m, o, w, order, values)

"""Interval-valued overlap functions: constructors, projections and the
sampled law checks that characterize them.

Construction routes mirror the theory: a pair of real overlaps applied to the
endpoints (representable), two 4-ary aggregators over eight real overlaps
(semi-representable), a unary interval generator applied to the product
(migrative), and the midpoint-contraction example, which is an overlap that
is provably *not* representable and serves as the stock counterexample for
inclusion monotonicity.
"""

from __future__ import annotations

import functools
import itertools
from array import array
from itertools import repeat
from operator import add, and_, eq, gt, itemgetter, le, mul, ne, or_, truediv
from typing import Callable, Iterable, Iterator, Literal, NamedTuple, Sequence

from .intervals import (
    ExponentInterval,
    Interval,
    IntervalError,
    Slotted,
    endpoint_error,
    leq_product,
    subseteq,
    valid_columns,
)
from .overlaps import (
    RealAggregator,
    RealOverlap,
    _cut,
    _grid_columns,
    check_commutative_first_two,
    check_nary_continuity,
    check_pinned_component,
    pointwise_equal,
    pointwise_leq,
)
from .sampling import (
    CONTINUITY_STAGES,
    DEFAULT_GRID,
    LazyRows,
    POLY_TOLERANCE,
    REAL_GRID,
    ROOT_TOLERANCE,
    SampleGrid,
    SampledResult,
    all_close,
    close_row,
    first_violation,
    first_violation_in_rows,
    grid_pairs,
    jump_probe,
    memoized,
    row_items,
)


class ConstructionError(ValueError):
    """A constructor precondition failed; the message names the condition."""


def lifted(ends: Callable[..., tuple[float, float]]) -> Callable[..., tuple]:
    """The column map of an endpoint map of one argument pair (an overlap's,
    ``(xl, xu, yl, yu) -> (lower, upper)``) or of one interval (a generator's)."""

    def columns(*cols: Iterable[float]) -> tuple[Iterator[float], Iterator[float]]:
        values = list(map(ends, *cols))
        return map(itemgetter(0), values), map(itemgetter(1), values)

    return columns


class UnaryGenerator(Slotted):
    """A monotone interval map fixing [0,0] and [1,1] and preserving the interior.

    Stored as its map over endpoint columns, ``columns(lowers, uppers) ->
    (lowers', uppers')``, which a migrative overlap applies to the product's
    endpoint columns; calling the generator maps one `Interval`.  `endwise`
    is the pair of maps ``(f_l, f_u)`` over one endpoint column each when the
    generator maps each endpoint on its own, ``columns(lowers, uppers) ==
    (f_l(lowers), f_u(uppers))``, as the identity and the powers do; None for
    a generator given only as columns.
    """

    __slots__ = ("columns", "name", "endwise")

    def __init__(self, columns: Callable[..., tuple], name: str,
                 endwise: tuple[Callable, Callable] | None = None) -> None:
        self._init(columns, name, endwise)

    def __call__(self, x: Interval) -> Interval:
        (lo,), (up,) = self.columns((x.lower,), (x.upper,))
        # A fixed point returns its argument, so the identity builds nothing.
        return x if (lo, up) == (x.lower, x.upper) else Interval(lo, up)


def _power(e: float) -> Callable[[Iterable[float]], Iterator[float]]:
    """t -> t**e over one endpoint column."""
    es = repeat(e)
    return lambda col: map(pow, col, es)


def _power_generator(k: ExponentInterval, name: str) -> UnaryGenerator:
    """X -> X**K as a column map, with `power`'s exponent placement."""
    lower = _power(k.k2)
    upper = lower if k.k1 == k.k2 else _power(k.k1)
    return UnaryGenerator(lambda lo, up: (lower(lo), upper(up)), name, (lower, upper))


def _unchanged(col: Iterable[float]) -> Iterable[float]:
    return col


IDENTITY = UnaryGenerator(lambda lo, up: (lo, up), "identity", (_unchanged, _unchanged))
SQRT = _power_generator(ExponentInterval.of(0.5), "sqrt")
SQUARE = _power_generator(ExponentInterval.of(2.0), "square")


class Representable(NamedTuple):
    lower: RealOverlap
    upper: RealOverlap


class SemiRepresentable(NamedTuple):
    m_lower: RealAggregator
    m_upper: RealAggregator
    parts: tuple[RealOverlap, ...]


class Migrative(NamedTuple):
    generator: UnaryGenerator


class Transformed(NamedTuple):
    """`power_transform`: the base overlap at the arguments' endpoints raised
    to `exponent` (n for the power direction, 1/n for the root)."""

    base: "IVOverlap"
    exponent: float


class Opaque(NamedTuple):
    label: str


Provenance = Representable | SemiRepresentable | Migrative | Transformed | Opaque


class IVOverlap(Slotted):
    """A binary interval function, stored as its map over endpoint columns,
    ``columns(xl, xu, yl, yu) -> (lowers, uppers)``, plus how it was built.
    It carries no claims: the laws it satisfies are what `verify` reports.
    A fixed argument's columns may be `repeat`s; each column is read once,
    and the value columns may be lazy.  A call is the one-pair case.

    `endwise` is the pair of endpoint maps ``(g_l, g_u)`` of an
    endpoint-separable overlap, ``O(X, Y) = [g_l(x_l, y_l), g_u(x_u,
    y_u)]``, each a map over two real columns, ``g(xs, ys) -> values``,
    one map twice when both ends are one function; `columns` is built from
    them (`_separable`).  None for an overlap given only as columns: the
    law checks then take their interval walks."""

    __slots__ = ("columns", "name", "provenance", "endwise")

    def __init__(self, columns: Callable[..., tuple[Iterable[float], Iterable[float]]], name: str,
                 provenance: Provenance, endwise: tuple[Callable, Callable] | None = None) -> None:
        self._init(columns, name, provenance, endwise)

    def __call__(self, x: Interval, y: Interval) -> Interval:
        (lo,), (up,) = self.columns((x.lower,), (x.upper,), (y.lower,), (y.upper,))
        return Interval(lo, up)


def _checked(lows: Iterable[float], ups: Iterable[float], column: Callable = list) -> tuple:
    """Value columns built as two lists and held to the `Interval` invariant
    by `valid_columns` (the first value outside ``0 <= lower <= upper <= 1``
    raises the `IntervalError` that building it would), then packed into two
    `column`s, unless `column` is `list`.  A list is built from a lazy column
    in about half the time an array is, so value rows pack their arrays of
    doubles from checked lists."""
    lows, ups = list(lows), list(ups)
    if not valid_columns(lows, ups):
        for lo, up in zip(lows, ups):
            if not 0.0 <= lo <= up <= 1.0:
                raise endpoint_error(lo, up)
    return (lows, ups) if column is list else (column(lows), column(ups))


_doubles = functools.partial(array, "d")


def value_row(
    o: IVOverlap, x: tuple[float, float], ys: Sequence[tuple[float, float]]
) -> tuple[array, array]:
    """The lower and the upper endpoints of `o` at (x, y) for each endpoint
    pair y in ys, checked, as two arrays of doubles: one column call."""
    return _checked(*o.columns(repeat(x[0]), repeat(x[1]), map(itemgetter(0), ys),
                               map(itemgetter(1), ys)), _doubles)


def _value_column(
    o: IVOverlap, xs: Sequence[tuple[float, float]], y: tuple[float, float]
) -> tuple[array, array]:
    """`value_row` with the fixed pair in second place: the endpoints of `o`
    at (x, y) for each x in xs."""
    return _checked(*o.columns(map(itemgetter(0), xs), map(itemgetter(1), xs),
                               repeat(y[0]), repeat(y[1])), _doubles)


def value_table(
    o: IVOverlap,
    xs: Sequence[tuple[float, float]],
    ys: Sequence[tuple[float, float]],
) -> tuple[list[array], list[array]]:
    """The checked endpoints of `o` at each (xs[i], ys[j]), as ``lows[i][j]``
    and ``ups[i][j]``, a value row per x, as arrays of doubles: lists of
    floats would about triple a law walk's peak memory."""
    rows = [value_row(o, x, ys) for x in xs]
    return [lo for lo, _ in rows], [up for _, up in rows]


def _ends_of(intervals: Sequence[Interval]) -> list[tuple[float, float]]:
    return [(x.lower, x.upper) for x in intervals]


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


@memoized
def representable(g_lower: RealOverlap, g_upper: RealOverlap) -> IVOverlap:
    """Apply one real overlap to the lower endpoints and another to the upper.

    Requires g_lower <= g_upper pointwise (checked on `REAL_GRID`), otherwise
    the result would not be a valid interval everywhere.
    """
    order = pointwise_leq(g_lower, g_upper, REAL_GRID.endpoints())
    if not order.ok:
        x, y, lo, up = order.witness
        raise ConstructionError(
            f"lower component exceeds upper component at ({x!r}, {y!r}): {lo!r} > {up!r}"
        )
    return _separable((g_lower.columns, g_upper.columns), f"rep({g_lower.name},{g_upper.name})",
                      Representable(g_lower, g_upper))


def _separable(endwise: tuple[Callable, Callable], name: str, provenance: Provenance) -> IVOverlap:
    """The endpoint-separable overlap of its endpoint maps ``(g_l, g_u)``:
    its columns are ``(g_l(xl, yl), g_u(xu, yu))``."""
    g_l, g_u = endwise
    return IVOverlap(lambda xl, xu, yl, yu: (g_l(xl, yl), g_u(xu, yu)), name, provenance, endwise)


def semi_representable(
    m_lower: RealAggregator,
    m_upper: RealAggregator,
    parts: Sequence[RealOverlap],
    name: str | None = None,
) -> IVOverlap:
    """Eight real overlaps combined by two 4-ary aggregators.

    The lower endpoint aggregates the four cross evaluations
    (x1,y2), (x2,y1), (x1,y1), (x2,y2) of the first four overlaps; the upper
    endpoint does the same with the last four.  Preconditions are verified by
    sampling and a violation is rejected with the failed condition named.
    """
    return _semi_representable(m_lower, m_upper, tuple(parts), name)


@memoized
def _semi_representable(
    m_lower: RealAggregator,
    m_upper: RealAggregator,
    parts: tuple[RealOverlap, ...],
    name: str | None,
) -> IVOverlap:
    if len(parts) != 8:
        raise ConstructionError(f"component count: expected 8 real overlaps, got {len(parts)}")
    if m_lower.arity != 4 or m_upper.arity != 4:
        raise ConstructionError("aggregator arity: both aggregators must be 4-ary")
    pts = REAL_GRID.endpoints()
    for i in range(4):
        res = pointwise_leq(parts[i], parts[i + 4], pts)
        if not res.ok:
            raise ConstructionError(
                f"component order: part {i + 1} exceeds part {i + 5} at {res.witness[:2]}"
            )
    if not pointwise_equal(parts[0], parts[1], pts).ok:
        raise ConstructionError("commutativity: first two lower components must coincide")
    if not pointwise_equal(parts[4], parts[5], pts).ok:
        raise ConstructionError("commutativity: first two upper components must coincide")
    for m in (m_lower, m_upper):
        if not check_commutative_first_two(m).ok:
            raise ConstructionError(
                f"commutativity: aggregator {m.name} not commutative in its first two arguments"
            )
    if not any(check_pinned_component(m, 4, 0.0).ok for m in (m_lower, m_upper)):
        raise ConstructionError(
            "zero boundary: neither aggregator pins its fourth argument at value 0"
        )
    if not any(check_pinned_component(m, 3, 1.0).ok for m in (m_lower, m_upper)):
        raise ConstructionError(
            "one boundary: neither aggregator pins its third argument at value 1"
        )
    for m in (m_lower, m_upper):
        if not check_nary_continuity(m).ok:
            raise ConstructionError(f"continuity: aggregator {m.name} jumps on the probe grid")

    g1, g2, g3, g4, g5, g6, g7, g8 = parts

    def columns(*cols):
        xl, xu, yl, yu = _cut(cols)
        return (m_lower.columns(g1.columns(xl, yu), g2.columns(xu, yl), g3.columns(xl, yl),
                                g4.columns(xu, yu)),
                m_upper.columns(g5.columns(xl, yu), g6.columns(xu, yl), g7.columns(xl, yl),
                                g8.columns(xu, yu)))

    op = IVOverlap(columns, name or f"semi({m_lower.name},{m_upper.name})",
                   SemiRepresentable(m_lower, m_upper, parts))
    # The aggregated endpoints must be ordered on every reachable argument
    # tuple; literal pointwise comparison of the aggregators over [0,1]^4 is
    # the wrong test because their arguments are themselves ordered.  The
    # pairs of grid intervals are read as endpoint columns in product order,
    # and the first bad pair is looked for only when one is there.
    items = DEFAULT_GRID.intervals()
    (xl, yl), (xu, yu) = (_grid_columns(ends, 2) for ends in zip(*_ends_of(items)))
    lows, ups = map(list, op.columns(xl, xu, yl, yu))
    if not valid_columns(lows, ups):
        for (x, y), lo, up in zip(itertools.product(items, repeat=2), lows, ups):
            if not 0.0 <= lo <= up <= 1.0:
                raise ConstructionError(
                    f"endpoint order: aggregated lower exceeds upper at ({x}, {y})")
    return op


def _validate_generator(g: UnaryGenerator) -> None:
    """g fixes [0,0] and [1,1], the first and the last grid interval, is
    monotone and keeps the interior off them: one evaluation per interval."""
    sample = DEFAULT_GRID.intervals()
    images = list(zip(*_checked(*g.columns(*zip(*_ends_of(sample))))))
    if images[0] != (0.0, 0.0) or images[-1] != (1.0, 1.0):
        raise ConstructionError(f"generator boundary: {g.name} must fix [0,0] and [1,1]")
    for i, j in grid_pairs(DEFAULT_GRID, leq_product):
        if any(map(gt, images[i], images[j])):  # checked images hold no NaN
            raise ConstructionError(
                f"generator monotonicity: {g.name} decreases on ({sample[i]}, {sample[j]})")
    for x, image in zip(sample[1:-1], images[1:-1]):
        if image in ((0.0, 0.0), (1.0, 1.0)):
            raise ConstructionError(
                f"generator interior: {g.name} collapses {x} to a boundary value")


@memoized
def migrative_from_generator(g: UnaryGenerator, name: str | None = None) -> IVOverlap:
    """Build the migrative overlap X, Y -> g(XY) from a unary generator,
    separable when g maps each endpoint on its own (`UnaryGenerator.endwise`)."""
    _validate_generator(g)
    if g.endwise is not None:
        return _separable(_shared(*g.endwise, lambda f: lambda xs, ys: f(map(mul, xs, ys))),
                          name or f"mig({g.name})", Migrative(g))
    return IVOverlap(lambda xl, xu, yl, yu: g.columns(map(mul, xl, yl), map(mul, xu, yu)),
                     name or f"mig({g.name})", Migrative(g))


@memoized
def interval_product() -> IVOverlap:
    """The interval product as an overlap; migrative with the identity generator."""
    return migrative_from_generator(IDENTITY, name="product")


@memoized
def migrative_canonical(k: ExponentInterval) -> IVOverlap:
    """The unique migrative overlap homogeneous of a given exponent order:
    the product raised to half the exponent."""
    try:
        half = k.halved()
    except IntervalError:
        raise ConstructionError(f"exponent {k} has no half in binary64") from None
    return migrative_from_generator(_power_generator(half, f"pow:{half}"),
                                    name=f"canonical(K=[{k.k1!r},{k.k2!r}])")


@memoized
def power_transform(base: IVOverlap, n: int, direction: Literal["power", "root"]) -> IVOverlap:
    """Evaluate an overlap at n-th powers or n-th roots of its arguments.

    The power direction shrinks the overlap strictly, the root direction grows
    it strictly, which is what makes the overlap lattice unbounded.
    """
    if n < 2 or n != int(n):
        raise ConstructionError(f"transform degree must be an integer >= 2, got {n!r}")
    try:
        degree = float(n)
    except OverflowError:
        raise ConstructionError(f"transform degree n={n} exceeds the binary64 range") from None
    if direction == "power":
        k = degree
        name = f"pow({base.name},n={n})"
    elif direction == "root":
        k = 1.0 / degree
        name = f"root({base.name},n={n})"
    else:
        raise ConstructionError(f"unknown transform direction {direction!r}")
    ks = repeat(k)
    if base.endwise is not None:
        return _separable(_shared(*base.endwise, lambda g: lambda xs, ys: g(
            map(pow, xs, ks), map(pow, ys, ks))), name, Transformed(base, k))
    return IVOverlap(lambda xl, xu, yl, yu: base.columns(
        map(pow, xl, ks), map(pow, xu, ks), map(pow, yl, ks), map(pow, yu, ks)),
        name, Transformed(base, k))


def _shared(lower, upper, build: Callable) -> tuple:
    """``(build(lower), build(upper))``, one object twice when `lower` is `upper`."""
    built = build(lower)
    return built, built if upper is lower else build(upper)


def separable_tables(o: IVOverlap, xs: Sequence[float], ys: Sequence[float]
                     ) -> tuple[list[list[float]], list[list[float]]] | None:
    """The value tables of a separable overlap's endpoint maps over two
    ascending point lists, ``lows[j][i] = g_l(xs[i], ys[j])`` and ``ups``
    likewise of g_u (one table when one map serves both ends), when every
    interval an interval walk over these points can build is shown valid;
    None when `o` is not separable (`IVOverlap.endwise`) or that is not shown.

    Such a walk builds ``[g_l(x, y), g_u(x', y')]`` with x <= x' and y <= y'.
    The tables show it valid when every lower value lies in [0, 1] and at
    most the upper value at its own point, and the upper table, at most 1,
    does not fall along either axis: then g_l(x, y) <= g_u(x, y) <=
    g_u(x', y').  That is sufficient, not necessary, so an overlap whose
    upper map falls somewhere on these points keeps the interval walk.
    Checking each end on its own would miss a lower value above an upper
    one; a NaN fails."""
    if o.endwise is None:
        return None
    lows, ups = _shared(*o.endwise, lambda g: [list(g(xs, repeat(y))) for y in ys])
    return (lows, ups) if _valid_tables(lows, ups) else None


def _valid_tables(lows: Sequence[Sequence[float]], ups: Sequence[Sequence[float]]) -> bool:
    """`separable_tables`' validity check of two whole value tables."""
    return (all(valid_columns(lo, up) and up == sorted(up) for lo, up in zip(lows, ups))
            and all(all(map(le, up, above)) for up, above in zip(ups, ups[1:])))


@memoized
def midpoint_example() -> IVOverlap:
    """Overlap built from half-width contractions: each argument shrunk to
    half its width around its midpoint, then their componentwise minimum.

    A genuine interval overlap that is not inclusion monotonic, hence not
    representable by endpoint projections.
    """

    def halves(a: Iterable[float], b: Iterable[float]) -> Iterator[float]:
        return map(truediv, map(add, a, b), repeat(2.0))

    def columns(*cols):
        # Each argument's half-width contraction, then their endpoint minima.
        xl, xu, yl, yu = _cut(cols)
        xm, ym = list(halves(xl, xu)), list(halves(yl, yu))
        return (map(min, halves(xl, xm), halves(yl, ym)),
                map(min, halves(xu, xm), halves(yu, ym)))

    return IVOverlap(columns, "midpoint", Opaque("midpoint"))


def _pointwise(pick: Callable[[float, float], float], o1: IVOverlap, o2: IVOverlap,
               name: str) -> IVOverlap:
    """`pick` of the two overlaps' values, endpoint by endpoint.  Both read
    the argument columns, as tuples of one length: a `repeat` is cut."""

    def columns(*cols):
        cols = _cut(cols)
        (lo1, up1), (lo2, up2) = o1.columns(*cols), o2.columns(*cols)
        return map(pick, lo1, lo2), map(pick, up1, up2)

    return IVOverlap(columns, name, Opaque(name))


def iv_join(o1: IVOverlap, o2: IVOverlap) -> IVOverlap:
    return _pointwise(max, o1, o2, f"join({o1.name},{o2.name})")


def iv_meet(o1: IVOverlap, o2: IVOverlap) -> IVOverlap:
    return _pointwise(min, o1, o2, f"meet({o1.name},{o2.name})")


# ---------------------------------------------------------------------------
# Projections and sampled characterizations
# ---------------------------------------------------------------------------


def projections(o: IVOverlap, pts: Sequence[float]) -> tuple[list[array], list[array]]:
    """The lower and the upper projection of `o` over the points, as the two
    value tables at the degenerate pairs: ``lows[i][j]`` is the lower
    endpoint of o([p_i, p_i], [p_j, p_j])."""
    points = [(p, p) for p in pts]
    return value_table(o, points, points)


def projection_rows(o: IVOverlap, pts: Sequence[float]) -> Iterator[tuple[list, list]]:
    """The rows of `projections`, built on demand as two checked lists,
    ``(lows[i], ups[i])`` for each point p_i, from one column call."""
    return (_checked(*o.columns(repeat(p), repeat(p), pts, pts)) for p in pts)


@memoized
def reconstructs_from_projections(
    o: IVOverlap,
    grid: SampleGrid = DEFAULT_GRID,
    tol: float = POLY_TOLERANCE,
) -> SampledResult:
    """Does rebuilding from the projections reproduce the overlap?

    True exactly for the representable ones.  The projections are read from
    the degenerate cells of the value table: the lower projection at (a, b)
    is the lower endpoint of the value at ([a,a], [b,b]).
    """
    sample = grid.intervals()
    lows, ups = value_table(o, _ends_of(sample), _ends_of(sample))
    point = {x.lower: i for i, x in enumerate(sample) if x.degenerate}

    def rows():
        for x, row_lo, row_up in zip(sample, lows, ups):
            want_lo = [lows[point[x.lower]][point[y.lower]] for y in sample]
            want_up = [ups[point[x.upper]][point[y.upper]] for y in sample]
            yield from close_row(row_lo, row_up, want_lo, want_up, tol, lambda k: (
                x, sample[k], Interval(row_lo[k], row_up[k]), want_lo[k], want_up[k]))

    return first_violation_in_rows(rows())


def is_strongly_positive(o: IVOverlap, grid: SampleGrid = DEFAULT_GRID) -> SampledResult:
    """Whenever the value is [0, z] with z > 0, one argument must touch 0."""
    sample = grid.intervals()
    lows, ups = value_table(o, _ends_of(sample), _ends_of(sample))
    return first_violation(
        (x, y, Interval(lo, up))
        if lo == 0.0 and up > 0.0 and x.lower != 0.0 and y.lower != 0.0 else None
        for x, row_lo, row_up in zip(sample, lows, ups)
        for y, lo, up in zip(sample, row_lo, row_up)
    )


@memoized
def is_inclusion_monotonic(o: IVOverlap, grid: SampleGrid = DEFAULT_GRID) -> SampledResult:
    """Nested arguments must give nested values; witness is the first failure.

    A row is one nested pair of first arguments (xi, xo) against every
    nested pair of second arguments (yi, yo).  It holds exactly when, for
    each yi, the value at (xi, yi) contains the hull of the values at
    (xo, yo) over the yo that contain yi, so a row is decided from that
    hull, kept per grid row and built on first use, in one C-level pass
    over the grid.  The first row that fails is walked again case by case.
    """
    sample = grid.intervals()
    lows, ups = value_table(o, _ends_of(sample), _ends_of(sample))
    pairs = grid_pairs(grid, subseteq)
    around = [[j for i, j in pairs if i == inner] for inner in range(len(sample))]
    hulls = LazyRows(lambda r: (array("d", [max(map(lows[r].__getitem__, js)) for js in around]),
                                array("d", [min(map(ups[r].__getitem__, js)) for js in around])))

    def rows():
        for xi, xo in pairs:
            lo_in, up_in, (hull_lo, hull_up) = lows[xi], ups[xi], hulls[xo]
            if not (any(map(gt, hull_lo, lo_in)) or any(map(gt, up_in, hull_up))):
                yield len(pairs)
                continue
            lo_out, up_out = lows[xo], ups[xo]
            yield ((sample[xi], sample[xo], sample[yi], sample[yo])
                   if lo_out[yo] > lo_in[yi] or up_in[yi] > up_out[yo] else None
                   for yi, yo in pairs)

    return first_violation_in_rows(rows())


def _real_cases_hold(f: IVOverlap, grid: SampleGrid, tol: float,
                     blocks: Iterable[Iterable[tuple[tuple, tuple, tuple]]]) -> bool:
    """Whether a separable `f`'s endpoint maps satisfy g(p, q) == c * g(r, s)
    within `tol` at both ends, g_l with c_l and g_u with c_u, for each case
    ``((p, q), (r, s), (c_l, c_u))`` of points among the grid's endpoints
    scaled by each of them.  The values are read from one table per map
    over those points, every argument the homogeneity and migrativity walks
    evaluate, each row pair (g_l(p, .), g_u(p, .)) built on first use: the
    product form reads 11 of the 46 at step 0.1.  The cases come in blocks,
    each decided by C-level passes, and the first failing block decides.  A
    pass needs every case, and then the completed tables shown valid by
    `separable_tables`' check, which reads its rows along either axis.

    Exact for the interval laws (README, "How verify decides homogeneity
    and migrativity"): an interval case holds at both endpoints exactly
    when its lower and its upper real case hold, and every real case is
    the lower and the upper case of a degenerate grid-interval case."""
    if f.endwise is None:
        return False
    pts = grid.endpoints()
    points = sorted({a * x for a in pts for x in pts})
    rows = LazyRows(lambda p: _shared(*f.endwise, lambda g: list(g(repeat(p), points))))
    col = {p: i for i, p in enumerate(points)}

    def holds(block: Iterable[tuple[tuple, tuple, tuple]]) -> bool:
        cells = [(rows[p], col[q], rows[r], col[s], c) for (p, q), (r, s), c in block]
        return all_close([lo[q] for (lo, _), q, _, _, _ in cells],
                         [up[q] for (_, up), q, _, _, _ in cells],
                         [c_l * lo[s] for _, _, (lo, _), s, (c_l, _) in cells],
                         [c_u * up[s] for _, _, (_, up), s, (_, c_u) in cells], tol)

    return all(map(holds, blocks)) and _valid_tables(*zip(*map(rows.__getitem__, points)))


@memoized
def check_migrative(
    f: IVOverlap,
    grid: SampleGrid = DEFAULT_GRID,
    tol: float = ROOT_TOLERANCE,
) -> SampledResult:
    """Scalar factors migrate between arguments; also checks the equivalent
    product form f(X, Y) == f([1,1], XY).

    Over a separable overlap the real laws g(x, y) == g(1, xy) and
    g(ax, y) == g(x, ay) of both endpoint maps decide a pass, counted as the
    interval walk's |grid|^2 + |grid|^3 cases (`_real_cases_hold`).  Any
    other outcome runs the interval walk, which gives the witness.
    """
    pts = grid.endpoints()
    ones = (1.0, 1.0)
    if _real_cases_hold(f, grid, tol, itertools.chain(
            [[((x, y), (1.0, x * y), ones) for x in pts for y in pts]],
            ([((a * x, y), (x, a * y), ones) for x in pts for y in pts] for a in pts))):
        size = len(grid.intervals())
        return SampledResult(True, None, size ** 2 + size ** 3)
    return _interval_migrative(f, grid, tol)


def _interval_migrative(f: IVOverlap, grid: SampleGrid, tol: float) -> SampledResult:
    """`check_migrative`'s interval walk.

    The migration reads f with one scaled argument a*x and one grid
    argument, so each side is evaluated once per distinct scaled point p, on
    first use: ``first[p]`` is f(p, y) and ``second[p]`` is f(x, p) over the
    grid.  At step 0.1, a*x takes 961 distinct values over the 4,356 pairs.
    A point's rows are dropped after the last alpha that scales to it.
    """
    sample = grid.intervals()
    pts = _ends_of(sample)
    first = LazyRows(lambda p: value_row(f, p, pts))
    second = LazyRows(lambda p: _value_column(f, pts, p))
    retiring = [[] for _ in pts]
    for p, a in {(al * xl, au * xu): a for a, (al, au) in enumerate(pts) for xl, xu in pts}.items():
        retiring[a].append(p)

    def product_form():
        for x, (xl, xu) in zip(sample, pts):
            via = value_row(f, (1.0, 1.0), [(xl * yl, xu * yu) for yl, yu in pts])
            yield from close_row(*first[xl, xu], *via, tol, lambda k: (x, sample[k]))

    def migration():
        for a, (alpha, (al, au)) in enumerate(zip(sample, pts)):
            # The rows f(x, a*y) over y, one per x, from the columns.
            cols = [second[al * yl, au * yu] for yl, yu in pts]
            right = zip(zip(*[lo for lo, _ in cols]), zip(*[up for _, up in cols]))
            for x, (xl, xu), (r_lo, r_up) in zip(sample, pts, right):
                yield from close_row(*first[al * xl, au * xu], r_lo, r_up, tol,
                                     lambda k: (alpha, x, sample[k]))
            for p in retiring[a]:
                del first[p], second[p]

    return first_violation_in_rows(itertools.chain(product_form(), migration()))


@memoized
def check_homogeneous(
    f: IVOverlap,
    k: ExponentInterval,
    grid: SampleGrid = DEFAULT_GRID,
    tol: float = ROOT_TOLERANCE,
) -> SampledResult:
    """Scaling both arguments scales the value by the exponent power of the
    factor: f(aX, aY) == [a_l^k2, a_u^k1] * f(X, Y).

    Over a separable overlap the real laws g_l(ax, ay) == a^k2 g_l(x, y) and
    g_u(ax, ay) == a^k1 g_u(x, y) decide a pass, counted as the interval
    walk's |grid|^3 cases (`_real_cases_hold`).  Any other outcome runs the
    interval walk, which gives the witness.
    """
    pts = grid.endpoints()
    if _real_cases_hold(f, grid, tol, ([((a * x, a * y), (x, y), (a**k.k2, a**k.k1))
                                        for x in pts for y in pts] for a in pts)):
        return SampledResult(True, None, len(grid.intervals()) ** 3)
    return _interval_homogeneous(f, k, grid, tol)


def _interval_homogeneous(f: IVOverlap, k: ExponentInterval, grid: SampleGrid,
                          tol: float) -> SampledResult:
    """`check_homogeneous`'s interval walk."""
    sample = grid.intervals()
    pts = _ends_of(sample)
    base_lo, base_up = value_table(f, pts, pts)

    def rows():
        for alpha, (al, au) in zip(sample, pts):
            sl, su = al**k.k2, au**k.k1
            scaled = [(al * xl, au * xu) for xl, xu in pts]
            # f(a*x, a*y) over y, once per distinct a*x of this alpha.
            scaled_rows = LazyRows(lambda p, scaled=scaled: value_row(f, p, scaled))
            for x, p, b_lo, b_up in zip(sample, scaled, base_lo, base_up):
                yield from close_row(*scaled_rows[p], list(map(mul, repeat(sl), b_lo)),
                                     list(map(mul, repeat(su), b_up)), tol,
                                     lambda j: (alpha, x, sample[j]))

    return first_violation_in_rows(rows())


def check_idempotent(
    f: IVOverlap,
    grid: SampleGrid = DEFAULT_GRID,
    tol: float = ROOT_TOLERANCE,
) -> SampledResult:
    """f(X, X) == X, read from the diagonal of the value table."""
    sample = grid.intervals()
    diagonal = [x.lower for x in sample], [x.upper for x in sample]
    lows, ups = _checked(*f.columns(*diagonal, *diagonal))
    return first_violation_in_rows(close_row(lows, ups, *diagonal, tol, lambda k: (
        sample[k], Interval(lows[k], ups[k]))))


@memoized
def neutral_element_holds(f: IVOverlap, grid: SampleGrid = DEFAULT_GRID) -> SampledResult:
    """[1,1] acts as a neutral element, exactly: the [1,1] row and the [1,1]
    column of the value table are the grid itself.  The witness is the
    first failing X with f([1,1], X)."""
    sample = grid.intervals()
    pts = _ends_of(sample)
    left_lo, left_up = value_row(f, (1.0, 1.0), pts)
    right_lo, right_up = _value_column(f, pts, (1.0, 1.0))
    return first_violation(
        (x, Interval(lo, up)) if (lo, up) != p or (r_lo, r_up) != p else None
        for x, p, lo, up, r_lo, r_up in zip(sample, pts, left_lo, left_up, right_lo, right_up)
    )


@memoized
def check_associative(f: IVOverlap) -> SampledResult:
    """f(f(X, Y), Z) == f(X, f(Y, Z)) within `POLY_TOLERANCE`, a row per
    (X, Y) with Z running over the 0.2 grid.  The inner values f(X, Y) and
    f(Y, Z) are read from the value table; the outer sides are value rows,
    f(f(X, Y), .) once per distinct f(X, Y), and f(X, .) over the row f(Y, .)."""
    sample = SampleGrid(0.2).intervals()
    pts = _ends_of(sample)
    lows, ups = value_table(f, pts, pts)
    inner = [list(zip(lo, up)) for lo, up in zip(lows, ups)]
    outer = LazyRows(lambda p: value_row(f, p, pts))

    def rows():
        for x, p, xys in zip(sample, pts, inner):
            for y, xy, yzs in zip(sample, xys, inner):
                yield from close_row(*outer[xy], *value_row(f, p, yzs), POLY_TOLERANCE,
                                     lambda k: (x, y, sample[k]))

    return first_violation_in_rows(rows())


# ---------------------------------------------------------------------------
# Axiom suite
# ---------------------------------------------------------------------------


def _check_o5(o: IVOverlap, stages: tuple[tuple[float, float], ...]) -> SampledResult:
    """The continuity probe of the lower projection, then of the upper one:
    one `jump_probe` over the stages' projection rows, both ends of a row
    from one checked column call (`projection_rows`), two rows held at a
    time.  A value that is not an interval raises the `IntervalError` that
    building its stage's table whole would, whether or not the probe stops
    early: a failing stage is read whole again for its witness."""
    return jump_probe([(bound, pts, lambda pts=pts: projection_rows(o, pts))
                       for step, bound in stages for pts in [SampleGrid(step).endpoints()]])


@memoized
def verify_iv_axioms(
    o: IVOverlap,
    grid: SampleGrid = DEFAULT_GRID,
    stages: tuple[tuple[float, float], ...] = CONTINUITY_STAGES,
) -> dict[str, SampledResult]:
    """All five axiom checks; the continuity entry is a heuristic probe of the
    degenerate-input slices, not a proof.

    O1-O4 are decided a row of the value table at a time, row i holding the
    cases (sample[i], y) in enumeration order, each by C-level passes: O1
    against column i, O2 and O3 against the endpoint products, and O4 along
    the covering pairs (y, y'), y' being y with one endpoint a grid step
    higher.  Every comparable pair is a chain of covering pairs, and checked
    values hold no NaN, so `<=` is transitive and a row is monotone on its
    comparable pairs exactly when it is on its covering ones.  Only a row
    that fails is compared on its comparable pairs, for its first witness."""
    sample = grid.intervals()
    size = len(sample)
    lows, ups = value_table(o, _ends_of(sample), _ends_of(sample))
    cols_lo, cols_up = list(zip(*lows)), list(zip(*ups))
    lowers, uppers = [x.lower for x in sample], [x.upper for x in sample]

    def equal(value: float, column: Iterable[float]) -> Iterator[bool]:
        return map(eq, column, repeat(value))

    def cells(fails: Callable[[int], Iterator[bool]]) -> SampledResult:
        return first_violation_in_rows(item for i in range(size) for item in row_items(
            fails(i), size, lambda j: (sample[i], sample[j])))

    o1 = cells(lambda i: map(or_, map(ne, lows[i], cols_lo[i]), map(ne, ups[i], cols_up[i])))
    o2 = cells(lambda i: map(ne, map(and_, equal(0.0, lows[i]), equal(0.0, ups[i])),
                             equal(0.0, map(mul, repeat(uppers[i]), uppers))))
    o3 = cells(lambda i: map(ne, map(and_, equal(1.0, lows[i]), equal(1.0, ups[i])),
                             equal(1.0, map(mul, repeat(lowers[i]), lowers))))

    cmp_pairs = grid_pairs(grid, leq_product)
    rank = {p: r for r, p in enumerate(grid.endpoints())}
    steps = [rank[x.lower] + rank[x.upper] for x in sample]
    covering = list(zip(*[(j, k) for j, k in cmp_pairs if steps[k] - steps[j] == 1]))
    comparable = list(zip(*cmp_pairs))

    def falls(row_lo, row_up, js, ks):
        """Per pair (j, k) of the index columns: is the row's value at k below that at j?"""
        return map(or_, map(gt, map(row_lo.__getitem__, js), map(row_lo.__getitem__, ks)),
                   map(gt, map(row_up.__getitem__, js), map(row_up.__getitem__, ks)))

    def monotone_rows():
        for x, row_lo, row_up in zip(sample, lows, ups):
            if not any(falls(row_lo, row_up, *covering)):
                yield len(cmp_pairs)
                continue
            yield from row_items(falls(row_lo, row_up, *comparable), len(cmp_pairs), lambda n: (
                x, *map(sample.__getitem__, cmp_pairs[n])))

    o4 = first_violation_in_rows(monotone_rows())
    return {"o1": o1, "o2": o2, "o3": o3, "o4": o4, "o5": _check_o5(o, stages)}

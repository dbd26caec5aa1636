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

import itertools
from array import array
from dataclasses import dataclass, field
from typing import Callable, Literal, Sequence

from .intervals import (
    ExponentInterval,
    Interval,
    IntervalError,
    ONE,
    ZERO,
    leq_product,
    subseteq,
)
from .overlaps import (
    RealAggregator,
    RealOverlap,
    check_commutative_first_two,
    check_m3_component,
    check_m4_component,
    check_nary_continuity,
    pointwise_equal,
    pointwise_leq,
)
from .sampling import (
    CONTINUITY_STAGES,
    DEFAULT_GRID,
    POLY_TOLERANCE,
    REAL_GRID,
    ROOT_TOLERANCE,
    SampleGrid,
    SampledResult,
    comparable_pairs,
    first_violation,
    jump_probe,
    memoized,
)

__all__ = [
    "IVOverlap",
    "UnaryGenerator",
    "IDENTITY",
    "SQRT",
    "SQUARE",
    "Representable",
    "SemiRepresentable",
    "Migrative",
    "Opaque",
    "ConstructionError",
    "interval_product",
    "representable",
    "semi_representable",
    "migrative_from_generator",
    "migrative_canonical",
    "power_transform",
    "midpoint_example",
    "midpoint_closed_form",
    "iv_join",
    "iv_meet",
    "projections",
    "reconstructs_from_projections",
    "is_strongly_positive",
    "is_inclusion_monotonic",
    "check_migrative",
    "check_homogeneous",
    "neutral_element_holds",
    "verify_iv_axioms",
    "checked_ends",
    "value_table",
]


class ConstructionError(ValueError):
    """A constructor precondition failed; the message names the condition."""


@dataclass(frozen=True, eq=False)
class UnaryGenerator:
    """A monotone interval map fixing [0,0] and [1,1] and preserving the interior.

    `fn` maps endpoint pairs, ``(lower, upper) -> (lower', upper')``, so a
    migrative overlap applies it to the product's endpoints without building
    the product interval; calling the generator maps an `Interval`.
    """

    fn: Callable[[float, float], tuple[float, float]]
    name: str

    def __call__(self, x: Interval) -> Interval:
        ends = self.fn(x.lower, x.upper)
        # A fixed point returns its argument, so the identity builds nothing.
        return x if ends == (x.lower, x.upper) else Interval(*ends)


def _power_generator(k: ExponentInterval, name: str) -> UnaryGenerator:
    """X -> X**K as an endpoint map, with `power`'s exponent placement."""
    k_lower, k_upper = k.k2, k.k1
    return UnaryGenerator(lambda lo, up: (lo**k_lower, up**k_upper), name)


IDENTITY = UnaryGenerator(lambda lo, up: (lo, up), "identity")
SQRT = _power_generator(ExponentInterval.of(0.5), "sqrt")
SQUARE = _power_generator(ExponentInterval.of(2.0), "square")


@dataclass(frozen=True)
class Representable:
    lower: RealOverlap
    upper: RealOverlap


@dataclass(frozen=True)
class SemiRepresentable:
    m_lower: RealAggregator
    m_upper: RealAggregator
    parts: tuple[RealOverlap, ...]


@dataclass(frozen=True)
class Migrative:
    generator: UnaryGenerator


@dataclass(frozen=True)
class Opaque:
    label: str


Provenance = Representable | SemiRepresentable | Migrative | Opaque


@dataclass(frozen=True, eq=False)
class IVOverlap:
    """A binary interval function, stored as its endpoint map ``ends(xl, xu,
    yl, yu) -> (lower, upper)``, plus how it was built and what it claims."""

    ends: Callable[[float, float, float, float], tuple[float, float]]
    name: str
    provenance: Provenance
    claims: frozenset[str] = field(default_factory=frozenset)

    def __call__(self, x: Interval, y: Interval) -> Interval:
        return Interval(*self.ends(x.lower, x.upper, y.lower, y.upper))


def checked_ends(o: IVOverlap, xl: float, xu: float, yl: float, yu: float) -> tuple[float, float]:
    """``o.ends(xl, xu, yl, yu)``, held to the `Interval` invariant: a value
    outside ``0 <= lower <= upper <= 1`` raises the `IntervalError` that
    building it as an interval would."""
    lo, up = o.ends(xl, xu, yl, yu)
    if not 0.0 <= lo <= up <= 1.0:
        raise IntervalError(f"invalid interval endpoints [{lo}, {up}]")
    return lo, up


def value_table(
    o: IVOverlap,
    xs: Sequence[tuple[float, float]],
    ys: Sequence[tuple[float, float]],
) -> tuple[list[array], list[array]]:
    """``lows[i][j], ups[i][j] = checked_ends(o, *xs[i], *ys[j])`` over two
    sequences of endpoint pairs.  Rows are arrays of doubles: the finest
    continuity stage holds two 201 x 201 tables, which as lists of floats
    would raise the peak memory of a law-suite run.
    """
    lows, ups = [], []
    for xl, xu in xs:
        row = [checked_ends(o, xl, xu, yl, yu) for yl, yu in ys]
        lows.append(array("d", [lo for lo, _ in row]))
        ups.append(array("d", [up for _, up in row]))
    return lows, ups


def _ends_of(intervals: Sequence[Interval]) -> list[tuple[float, float]]:
    return [(x.lower, x.upper) for x in intervals]


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


@memoized
def representable(
    g_lower: RealOverlap,
    g_upper: RealOverlap,
    grid: SampleGrid = REAL_GRID,
    name: str | None = None,
) -> IVOverlap:
    """Apply one real overlap to the lower endpoints and another to the upper.

    Requires g_lower <= g_upper pointwise (checked on the grid), otherwise the
    result would not be a valid interval everywhere.
    """
    order = pointwise_leq(g_lower, g_upper, grid.endpoints())
    if not order.ok:
        x, y, lo, up = order.witness
        raise ConstructionError(
            f"lower component exceeds upper component at ({x!r}, {y!r}): {lo!r} > {up!r}"
        )
    claims = set()
    if {"neutral-1"} <= g_lower.claims and {"neutral-1"} <= g_upper.claims:
        claims.add("neutral-one")
    if {"associative"} <= g_lower.claims and {"associative"} <= g_upper.claims:
        claims.add("associative")

    def ends(xl: float, xu: float, yl: float, yu: float) -> tuple[float, float]:
        return g_lower.fn(xl, yl), g_upper.fn(xu, yu)

    return IVOverlap(ends, name or f"rep({g_lower.name},{g_upper.name})",
                     Representable(g_lower, g_upper), frozenset(claims))


def semi_representable(
    m_lower: RealAggregator,
    m_upper: RealAggregator,
    parts: Sequence[RealOverlap],
    grid: SampleGrid = REAL_GRID,
    name: str | None = None,
) -> IVOverlap:
    """Eight real overlaps combined by two 4-ary aggregators.

    The lower endpoint aggregates the four cross evaluations
    (x1,y2), (x2,y1), (x1,y1), (x2,y2) of the first four overlaps; the upper
    endpoint does the same with the last four.  Preconditions are verified by
    sampling and a violation is rejected with the failed condition named.
    """
    return _semi_representable(m_lower, m_upper, tuple(parts), grid, name)


@memoized
def _semi_representable(
    m_lower: RealAggregator,
    m_upper: RealAggregator,
    parts: tuple[RealOverlap, ...],
    grid: SampleGrid,
    name: str | None,
) -> IVOverlap:
    if len(parts) != 8:
        raise ConstructionError(f"component count: expected 8 real overlaps, got {len(parts)}")
    if m_lower.arity != 4 or m_upper.arity != 4:
        raise ConstructionError("aggregator arity: both aggregators must be 4-ary")
    pts = grid.endpoints()
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
    if not (check_m3_component(m_lower, 4).ok or check_m3_component(m_upper, 4).ok):
        raise ConstructionError(
            "zero boundary: neither aggregator pins its fourth argument at value 0"
        )
    if not (check_m4_component(m_lower, 3).ok or check_m4_component(m_upper, 3).ok):
        raise ConstructionError(
            "one boundary: neither aggregator pins its third argument at value 1"
        )
    for m in (m_lower, m_upper):
        if not check_nary_continuity(m).ok:
            raise ConstructionError(f"continuity: aggregator {m.name} jumps on the probe grid")

    g1, g2, g3, g4, g5, g6, g7, g8 = parts

    def ends(xl: float, xu: float, yl: float, yu: float) -> tuple[float, float]:
        return (m_lower(g1.fn(xl, yu), g2.fn(xu, yl), g3.fn(xl, yl), g4.fn(xu, yu)),
                m_upper(g5.fn(xl, yu), g6.fn(xu, yl), g7.fn(xl, yl), g8.fn(xu, yu)))

    op = IVOverlap(ends, name or f"semi({m_lower.name},{m_upper.name})",
                   SemiRepresentable(m_lower, m_upper, parts), frozenset())
    # The aggregated endpoints must be ordered on every reachable argument
    # tuple; literal pointwise comparison of the aggregators over [0,1]^4 is
    # the wrong test because their arguments are themselves ordered.
    sample = DEFAULT_GRID.intervals()
    for x in sample:
        for y in sample:
            try:
                op(x, y)
            except IntervalError:
                raise ConstructionError(
                    f"endpoint order: aggregated lower exceeds upper at ({x}, {y})"
                ) from None
    return op


def _validate_generator(g: UnaryGenerator, grid: SampleGrid) -> None:
    if g(ZERO) != ZERO or g(ONE) != ONE:
        raise ConstructionError(f"generator boundary: {g.name} must fix [0,0] and [1,1]")
    sample = grid.intervals()
    for a, b in comparable_pairs(sample):
        if not leq_product(g(a), g(b)):
            raise ConstructionError(f"generator monotonicity: {g.name} decreases on ({a}, {b})")
    for x in sample:
        if x in (ZERO, ONE):
            continue
        if g(x) in (ZERO, ONE):
            raise ConstructionError(
                f"generator interior: {g.name} collapses {x} to a boundary value"
            )


@memoized
def migrative_from_generator(
    g: UnaryGenerator,
    grid: SampleGrid = DEFAULT_GRID,
    name: str | None = None,
    claims: frozenset[str] = frozenset(),
) -> IVOverlap:
    """Build the migrative overlap X, Y -> g(XY) from a unary generator."""
    _validate_generator(g, grid)

    def ends(xl: float, xu: float, yl: float, yu: float) -> tuple[float, float]:
        return g.fn(xl * yl, xu * yu)

    return IVOverlap(ends, name or f"mig({g.name})", Migrative(g), claims)


@memoized
def interval_product() -> IVOverlap:
    """The interval product as an overlap; migrative with the identity generator."""
    return migrative_from_generator(
        IDENTITY, name="product", claims=frozenset({"associative", "neutral-one"})
    )


@memoized
def migrative_canonical(k: ExponentInterval) -> IVOverlap:
    """The unique migrative overlap homogeneous of a given exponent order:
    the product raised to half the exponent."""
    try:
        half = k.halved()
    except IntervalError:
        raise ConstructionError(f"exponent {k} has no half in binary64") from None
    g = _power_generator(half, f"pow:{half}")
    claims = set()
    if k.k1 == k.k2 == 2.0:
        claims.update({"associative", "neutral-one"})
    return migrative_from_generator(
        g, name=f"canonical(K=[{k.k1!r},{k.k2!r}])", claims=frozenset(claims)
    )


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

    def ends(xl: float, xu: float, yl: float, yu: float) -> tuple[float, float]:
        return base.ends(xl**k, xu**k, yl**k, yu**k)

    return IVOverlap(ends, name, Opaque(name), frozenset())


def midpoint_closed_form(x: Interval, y: Interval) -> Interval:
    """Closed form of the midpoint-contraction overlap: componentwise minima
    of the 3/4-1/4 endpoint blends."""
    a, b = 0.75, 0.25
    return Interval(
        min(a * x.lower + b * x.upper, a * y.lower + b * y.upper),
        min(b * x.lower + a * x.upper, b * y.lower + a * y.upper),
    )


@memoized
def midpoint_example() -> IVOverlap:
    """Overlap built from half-width contractions: meet(contract(X), contract(Y)).

    A genuine interval overlap that is not inclusion monotonic, hence not
    representable by endpoint projections.
    """

    def ends(xl: float, xu: float, yl: float, yu: float) -> tuple[float, float]:
        # `contract_half` of each argument, then their `meet`.
        xm = (xl + xu) / 2.0
        ym = (yl + yu) / 2.0
        return min((xl + xm) / 2.0, (yl + ym) / 2.0), min((xu + xm) / 2.0, (yu + ym) / 2.0)

    return IVOverlap(ends, "midpoint", Opaque("midpoint"), frozenset())


def iv_join(o1: IVOverlap, o2: IVOverlap) -> IVOverlap:
    name = f"join({o1.name},{o2.name})"
    return IVOverlap(lambda *xy: tuple(map(max, o1.ends(*xy), o2.ends(*xy))),
                     name, Opaque(name), frozenset())


def iv_meet(o1: IVOverlap, o2: IVOverlap) -> IVOverlap:
    name = f"meet({o1.name},{o2.name})"
    return IVOverlap(lambda *xy: tuple(map(min, o1.ends(*xy), o2.ends(*xy))),
                     name, Opaque(name), frozenset())


# ---------------------------------------------------------------------------
# Projections and sampled characterizations
# ---------------------------------------------------------------------------


def projections(o: IVOverlap) -> tuple[Callable[[float, float], float], Callable[[float, float], float]]:
    """Left and right projections: endpoint values on degenerate inputs."""

    def lower(x: float, y: float) -> float:
        return checked_ends(o, x, x, y, y)[0]

    def upper(x: float, y: float) -> float:
        return checked_ends(o, x, x, y, y)[1]

    return lower, upper


@memoized
def reconstructs_from_projections(
    o: IVOverlap,
    grid: SampleGrid = DEFAULT_GRID,
    tol: float = POLY_TOLERANCE,
) -> SampledResult:
    """Does rebuilding from the projections reproduce the overlap?

    True exactly for the representable ones.
    """
    lower, upper = projections(o)
    sample = grid.intervals()
    lows, ups = value_table(o, _ends_of(sample), _ends_of(sample))

    def outcomes():
        for x, row_lo, row_up in zip(sample, lows, ups):
            for y, got_lo, got_up in zip(sample, row_lo, row_up):
                lo = lower(x.lower, y.lower)
                up = upper(x.upper, y.upper)
                far = abs(got_lo - lo) > tol or abs(got_up - up) > tol
                yield (x, y, Interval(got_lo, got_up), lo, up) if far else None

    return first_violation(outcomes())


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
    """Nested arguments must give nested values; witness is the first failure."""
    sample = grid.intervals()
    lows, ups = value_table(o, _ends_of(sample), _ends_of(sample))
    pairs = [(i, j) for i, a in enumerate(sample) for j, b in enumerate(sample)
             if subseteq(a, b)]
    rows = [(xi, xo, lows[xi], ups[xi], lows[xo], ups[xo]) for xi, xo in pairs]
    return first_violation(
        (sample[xi], sample[xo], sample[yi], sample[yo])
        if lo_out[yo] > lo_in[yi] or up_in[yi] > up_out[yo] else None
        for xi, xo, lo_in, up_in, lo_out, up_out in rows for yi, yo in pairs
    )


@memoized
def check_migrative(
    f: IVOverlap,
    grid: SampleGrid = DEFAULT_GRID,
    tol: float = ROOT_TOLERANCE,
) -> SampledResult:
    """Scalar factors migrate between arguments; also checks the equivalent
    product form f(X, Y) == f([1,1], XY)."""
    sample = grid.intervals()
    pts = _ends_of(sample)

    def product_form():
        lows, ups = value_table(f, pts, pts)
        for x, (xl, xu), row_lo, row_up in zip(sample, pts, lows, ups):
            products = [(xl * yl, xu * yu) for yl, yu in pts]
            (via_lo,), (via_up,) = value_table(f, [(1.0, 1.0)], products)
            for y, lo, up, v_lo, v_up in zip(sample, row_lo, row_up, via_lo, via_up):
                yield (x, y) if abs(lo - v_lo) > tol or abs(up - v_up) > tol else None

    def migration():
        for alpha in sample:
            al, au = alpha.lower, alpha.upper
            scaled = [(al * xl, au * xu) for xl, xu in pts]
            left = value_table(f, scaled, pts)
            right = value_table(f, pts, scaled)
            for x, *rows in zip(sample, *left, *right):
                for y, left_lo, left_up, right_lo, right_up in zip(sample, *rows):
                    far = abs(left_lo - right_lo) > tol or abs(left_up - right_up) > tol
                    yield (alpha, x, y) if far else None

    return first_violation(itertools.chain(product_form(), migration()))


@memoized
def check_homogeneous(
    f: IVOverlap,
    k: ExponentInterval,
    grid: SampleGrid = DEFAULT_GRID,
    tol: float = ROOT_TOLERANCE,
) -> SampledResult:
    """Scaling both arguments scales the value by the exponent power of the factor."""
    sample = grid.intervals()
    pts = _ends_of(sample)
    base_lo, base_up = value_table(f, pts, pts)

    def outcomes():
        for alpha in sample:
            al, au = alpha.lower, alpha.upper
            sl, su = al**k.k2, au**k.k1
            scaled = [(al * xl, au * xu) for xl, xu in pts]
            lows, ups = value_table(f, scaled, scaled)
            for x, *rows in zip(sample, lows, ups, base_lo, base_up):
                for y, lo, up, b_lo, b_up in zip(sample, *rows):
                    far = abs(lo - sl * b_lo) > tol or abs(up - su * b_up) > tol
                    yield (alpha, x, y) if far else None

    return first_violation(outcomes())


def check_idempotent(
    f: IVOverlap,
    grid: SampleGrid = DEFAULT_GRID,
    tol: float = ROOT_TOLERANCE,
) -> SampledResult:
    return first_violation(
        (x, Interval(lo, up)) if abs(lo - x.lower) > tol or abs(up - x.upper) > tol else None
        for x in grid.intervals()
        for lo, up in [checked_ends(f, x.lower, x.upper, x.lower, x.upper)]
    )


@memoized
def neutral_element_holds(f: IVOverlap, grid: SampleGrid = DEFAULT_GRID) -> SampledResult:
    """[1,1] acts as a neutral element, exactly."""
    return first_violation(
        (x, Interval(*left)) if left != ends or checked_ends(f, *ends, 1.0, 1.0) != ends else None
        for x in grid.intervals() for ends in [(x.lower, x.upper)]
        for left in [checked_ends(f, 1.0, 1.0, *ends)]
    )


def check_associative(
    f: IVOverlap,
    grid: SampleGrid = SampleGrid(0.2),
    tol: float = POLY_TOLERANCE,
) -> SampledResult:
    sample = grid.intervals()

    def outcomes():
        for x in sample:
            for y in sample:
                xy = checked_ends(f, x.lower, x.upper, y.lower, y.upper)
                for z in sample:
                    left = checked_ends(f, *xy, z.lower, z.upper)
                    yz = checked_ends(f, y.lower, y.upper, z.lower, z.upper)
                    right = checked_ends(f, x.lower, x.upper, *yz)
                    far = abs(left[0] - right[0]) > tol or abs(left[1] - right[1]) > tol
                    yield (x, y, z) if far else None

    return first_violation(outcomes())


# ---------------------------------------------------------------------------
# Axiom suite
# ---------------------------------------------------------------------------


def _check_o5(o: IVOverlap, stages: tuple[tuple[float, float], ...]) -> SampledResult:
    """The continuity probe of the lower projection, then of the upper one.

    Each stage evaluates `o` once per degenerate grid point, and keeps the
    upper endpoints for the second probe.
    """
    upper_tables = []

    def lower_tables():
        for step, bound in stages:
            pts = SampleGrid(step).endpoints()
            points = [(p, p) for p in pts]
            lows, ups = value_table(o, points, points)
            upper_tables.append((bound, pts, ups))
            yield bound, pts, lows

    res = jump_probe(lower_tables())
    if not res.ok:
        return res
    # The lower probe passed every stage, so every upper table is built.
    res_up = jump_probe(upper_tables)
    return SampledResult(res_up.ok, res_up.witness, res.samples + res_up.samples)


@memoized
def verify_iv_axioms(
    o: IVOverlap,
    grid: SampleGrid = DEFAULT_GRID,
    stages: tuple[tuple[float, float], ...] = CONTINUITY_STAGES,
) -> dict[str, SampledResult]:
    """All five axiom checks; the continuity entry is a heuristic probe of the
    degenerate-input slices, not a proof."""
    sample = grid.intervals()
    cells = list(itertools.product(range(len(sample)), repeat=2))
    lows, ups = value_table(o, _ends_of(sample), _ends_of(sample))
    o1 = first_violation(
        (sample[i], sample[j]) if lows[i][j] != lows[j][i] or ups[i][j] != ups[j][i] else None
        for i, j in cells
    )
    o2 = first_violation(
        (sample[i], sample[j])
        if (lows[i][j] == 0.0 and ups[i][j] == 0.0) != (sample[i].upper * sample[j].upper == 0.0)
        else None
        for i, j in cells
    )
    o3 = first_violation(
        (sample[i], sample[j])
        if (lows[i][j] == 1.0 and ups[i][j] == 1.0) != (sample[i].lower * sample[j].lower == 1.0)
        else None
        for i, j in cells
    )
    cmp_pairs = [(j, k) for j, a in enumerate(sample) for k, b in enumerate(sample)
                 if leq_product(a, b)]
    o4 = first_violation(
        (x, sample[j], sample[k]) if row_lo[j] > row_lo[k] or row_up[j] > row_up[k] else None
        for x, row_lo, row_up in zip(sample, lows, ups) for j, k in cmp_pairs
    )
    return {"o1": o1, "o2": o2, "o3": o3, "o4": o4, "o5": _check_o5(o, stages)}

"""Real-valued overlap functions and aggregation functions on [0, 1].

The catalog ships the standard examples used throughout the library: the
product, the minimum, the min-max power family, the product-power family and
a polynomial migrative example, plus the Lukasiewicz t-norm.  The last one is
deliberately *not* an overlap function (it has zero divisors) and is kept in
the catalog as the stock counterexample for the zero-boundary axiom.

Axiom verification is a separate, named operation: registering a function
never implies it passes anything.
"""

from __future__ import annotations

import functools
import itertools
import math
from array import array
from itertools import repeat
from operator import add, and_, eq, ge, lt, mul, ne, sub, truediv
from typing import Callable, Iterable, Iterator, Sequence

from .intervals import Slotted
from .sampling import (
    CONTINUITY_STAGES,
    POLY_TOLERANCE,
    REAL_GRID,
    SampleGrid,
    SampledResult,
    first_violation,
    first_violation_in_rows,
    jump_probe,
    memoized,
    row_items,
)


class OverlapError(ValueError):
    """A construction precondition failed."""


class RealOverlap(Slotted):
    """A named binary function on [0,1], stored as its map over argument
    columns, ``columns(xs, ys) -> values``, as interval overlaps and
    generators are.  One argument's column may be a `repeat`; a map that
    reads a column twice cuts it to the other's length (`_cut`).  A call is
    the one-pair case.  It carries no claims: which axioms it satisfies is
    what `verify_overlap_axioms` reports."""

    __slots__ = ("columns", "name")

    def __init__(self, columns: Callable[[Iterable[float], Iterable[float]], Iterable[float]],
                 name: str) -> None:
        self._init(columns, name)

    def __call__(self, x: float, y: float) -> float:
        (value,) = self.columns((x,), (y,))
        return value


class RealAggregator(Slotted):
    """An n-ary aggregation function on [0,1], stored as its map over
    argument columns of one length, ``columns(*cols) -> values``, as real
    overlaps are.  A call is the one-tuple case.  Its `claims` are only the
    ``m3:argI`` and ``m4:argI`` pins, the component checks that
    `run_axiom_suite` runs besides M1 and M2."""

    __slots__ = ("columns", "arity", "name", "claims")

    def __init__(self, columns: Callable[..., Iterable[float]], arity: int, name: str,
                 claims: frozenset[str] = frozenset()) -> None:
        self._init(columns, arity, name, claims)

    def __call__(self, *xs: float) -> float:
        if len(xs) != self.arity:
            raise OverlapError(f"{self.name} expects {self.arity} arguments, got {len(xs)}")
        (value,) = self.columns(*((x,) for x in xs))
        return value


def _cut(cols: Sequence[Iterable[float]]) -> list[tuple[float, ...]]:
    """Argument columns as tuples of one length, for a column map that reads
    an argument column more than once: a `repeat` is cut to the others."""
    return list(zip(*zip(*cols))) or [()] * len(cols)


def _int_power(col: Sequence[float], p: int) -> Iterator[float]:
    # Repeated multiplication, t*t*...*t from the left, keeps the rounding
    # monotone and the grid comparisons in GO4 exact.
    powers = iter(col)
    for _ in range(p - 1):
        powers = map(mul, powers, col)
    return powers


def _minmax(p: int) -> Callable[[Iterable[float], Iterable[float]], Iterator[float]]:
    def columns(xs: Iterable[float], ys: Iterable[float]) -> Iterator[float]:
        xs, ys = _cut((xs, ys))
        return map(mul, map(min, xs, ys), map(max, _int_power(xs, p), _int_power(ys, p)))

    return columns


def _product_power(p: int) -> Callable[[Iterable[float], Iterable[float]], Iterator[float]]:
    def columns(xs: Iterable[float], ys: Iterable[float]) -> Iterator[float]:
        return _int_power(list(map(mul, xs, ys)), p)

    return columns


def _half_sum_poly(xs: Iterable[float], ys: Iterable[float]) -> Iterator[float]:
    t = list(map(mul, xs, ys))
    return map(mul, repeat(0.5), map(add, t, map(mul, t, t)))


def _lukasiewicz(xs: Iterable[float], ys: Iterable[float]) -> Iterator[float]:
    # Evaluated as max(0, min(x-(1-y), y-(1-x))) rather than max(0, x+y-1):
    # the symmetrized form stays exactly commutative and exactly below
    # min(x, y) in binary64, which the naive sum does not.
    xs, ys = _cut((xs, ys))
    ones = repeat(1.0)
    return map(max, repeat(0.0), map(min, map(sub, xs, map(sub, ones, ys)),
                                     map(sub, ys, map(sub, ones, xs))))


@memoized
def builtin_overlaps() -> dict[str, RealOverlap]:
    """The catalog of real binary functions, addressable by string id; built once."""
    entries = [
        # Builtins mapped in C where one will do: a representable overlap
        # maps its components over endpoint columns.
        RealOverlap(functools.partial(map, mul), "product"),
        RealOverlap(functools.partial(map, min), "min"),
        RealOverlap(_minmax(1), "minmax:p=1"),
        RealOverlap(_minmax(2), "minmax:p=2"),
        RealOverlap(_minmax(3), "minmax:p=3"),
        RealOverlap(_product_power(2), "xyp:p=2"),
        RealOverlap(_product_power(3), "xyp:p=3"),
        RealOverlap(_half_sum_poly, "mig:poly"),
        # Not an overlap: it has zero divisors, e.g. value 0 at (0.5, 0.5).
        RealOverlap(_lukasiewicz, "lukasiewicz"),
    ]
    return {g.name: g for g in entries}


def _pointwise(pick: Callable[[float, float], float], g1: RealOverlap, g2: RealOverlap,
               name: str) -> RealOverlap:
    """`pick` of the two functions' values.  Both read the argument columns,
    as tuples of one length: a `repeat` is cut."""

    def columns(xs: Iterable[float], ys: Iterable[float]) -> Iterator[float]:
        xs, ys = _cut((xs, ys))
        return map(pick, g1.columns(xs, ys), g2.columns(xs, ys))

    return RealOverlap(columns, name)


def lattice_join(g1: RealOverlap, g2: RealOverlap) -> RealOverlap:
    """Pointwise maximum; overlaps are closed under it."""
    return _pointwise(max, g1, g2, f"join({g1.name},{g2.name})")


def lattice_meet(g1: RealOverlap, g2: RealOverlap) -> RealOverlap:
    """Pointwise minimum; overlaps are closed under it."""
    return _pointwise(min, g1, g2, f"meet({g1.name},{g2.name})")


def convex_sum(w1: float, w2: float, g1: RealOverlap, g2: RealOverlap) -> RealOverlap:
    """Pointwise convex combination w1*g1 + w2*g2; overlaps are closed under it."""
    if not (0.0 <= w1 <= 1.0 and 0.0 <= w2 <= 1.0):
        raise OverlapError("convex weights must lie in [0, 1]")
    if abs((w1 + w2) - 1.0) > POLY_TOLERANCE:
        raise OverlapError(f"convex weights must sum to 1, got {w1 + w2!r}")

    def columns(xs: Iterable[float], ys: Iterable[float]) -> Iterator[float]:
        xs, ys = _cut((xs, ys))
        return map(add, map(mul, repeat(w1), g1.columns(xs, ys)),
                   map(mul, repeat(w2), g2.columns(xs, ys)))

    return RealOverlap(columns, f"convex({w1!r}*{g1.name}+{w2!r}*{g2.name})")


# ---------------------------------------------------------------------------
# Axiom checks (GO1-GO5) on a point grid.
# ---------------------------------------------------------------------------


def verify_overlap_axioms(
    g: RealOverlap,
    grid: SampleGrid = REAL_GRID,
    stages: tuple[tuple[float, float], ...] = CONTINUITY_STAGES,
) -> dict[str, SampledResult]:
    """GO1-GO5 of g, read from its value rows (`go_axioms`), one column call
    per row: GO5 streams the continuity stages' 201 x 201 tables, holding
    two rows at a time."""
    return go_axioms(lambda pts: (list(g.columns(repeat(x), pts)) for x in pts), grid, stages)


def go_axioms(
    value_rows: Callable[[list[float]], Iterable[Sequence[float]]],
    grid: SampleGrid = REAL_GRID,
    stages: tuple[tuple[float, float], ...] = CONTINUITY_STAGES,
    axioms: Sequence[str] = ("go1", "go2", "go3", "go4", "go5"),
) -> dict[str, SampledResult]:
    """GO1-GO5 of a binary function on [0, 1] given by its value rows,
    ``value_rows(pts)`` yielding ``[f(x, y) for y in pts]`` for each x in pts.
    GO1-GO4 read the grid's table (GO2 and GO3 as biconditionals: value 0
    exactly where the product is 0, value 1 exactly where it is 1; GO4 along
    adjacent grid steps).  GO5 is the grid-jump probe (`jump_probe`) over
    the continuity stages' rows, streamed as it reaches them: evidence of
    continuity, never a proof.  Only the named `axioms` are checked, so
    without GO5 no stage row is built."""
    pts = grid.endpoints()
    rows = list(value_rows(pts))
    cells = [(i, j, x, y) for i, x in enumerate(pts) for j, y in enumerate(pts)]
    walks = {
        "go1": lambda: first_violation((x, y) if rows[i][j] != rows[j][i] else None
                                       for i, j, x, y in cells),
        "go2": lambda: first_violation((x, y) if (rows[i][j] == 0.0) != (x * y == 0.0) else None
                                       for i, j, x, y in cells),
        "go3": lambda: first_violation((x, y) if (rows[i][j] == 1.0) != (x * y == 1.0) else None
                                       for i, j, x, y in cells),
        "go4": lambda: first_violation(
            (a, b, y) if rows[i][j] > rows[i + 1][j]
            else (y, a, b) if rows[j][i] > rows[j][i + 1]
            else None
            for i, (a, b) in enumerate(zip(pts, pts[1:])) for j, y in enumerate(pts)
        ),
        "go5": lambda: jump_probe([(bound, stage, lambda stage=stage: zip(value_rows(stage)))
                                   for step, bound in stages
                                   for stage in [SampleGrid(step).endpoints()]]),
    }
    return {axiom: walks[axiom]() for axiom in axioms}


def pointwise_leq(g1: RealOverlap, g2: RealOverlap, pts: Sequence[float]) -> SampledResult:
    return first_violation((x, y, a, b) if a > b else None for x in pts for y, a, b in zip(
        pts, g1.columns(repeat(x), pts), g2.columns(repeat(x), pts)))


def pointwise_equal(g1: RealOverlap, g2: RealOverlap, pts: Sequence[float]) -> SampledResult:
    return first_violation((x, y) if a != b else None for x in pts for y, a, b in zip(
        pts, g1.columns(repeat(x), pts), g2.columns(repeat(x), pts)))


# ---------------------------------------------------------------------------
# Four-ary aggregation helpers used by the eight-component construction.
# ---------------------------------------------------------------------------


def _positions(idx: tuple, shown: str) -> tuple[int, ...]:
    """`idx`, the 1-based argument positions of a 4-ary aggregator, refused
    unless each is an `int`, not a `bool`, in 1..4; `shown` names them."""
    for i in idx:
        if type(i) is not int:
            raise OverlapError(f"component index {i!r} is not an int")
    if any(not 1 <= i <= 4 for i in idx) or not idx:
        raise OverlapError(f"{shown} out of range 1..4")
    return idx


def projection_aggregator(index: int) -> RealAggregator:
    """4-ary aggregator picking its index-th argument (1-based)."""
    return _projection_aggregator(*_positions((index,), f"projection index {index}"))


@memoized
def _projection_aggregator(index: int) -> RealAggregator:
    return RealAggregator(lambda *cols: cols[index - 1], 4, f"pick:{index}",
                          frozenset({f"m3:arg{index}", f"m4:arg{index}"}))


def mean_of_components(indices: Sequence[int]) -> RealAggregator:
    """4-ary aggregator averaging the given (1-based) argument positions."""
    return _mean_of_components(_positions(tuple(indices), f"component indices {indices}"))


@memoized
def _mean_of_components(idx: tuple[int, ...]) -> RealAggregator:
    def columns(*cols: Iterable[float]) -> Iterator[float]:
        # A repeated index reads its column twice, so then the columns are cut.
        cols = _cut(cols) if len(set(idx)) < len(idx) else cols
        return map(truediv, map(math.fsum, zip(*(cols[i - 1] for i in idx))), repeat(len(idx)))

    return RealAggregator(columns, 4, "mean:" + "+".join(map(str, idx)),
                          frozenset(f"m{k}:arg{i}" for k in (3, 4) for i in idx))


def check_m1_boundary(m: RealAggregator) -> SampledResult:
    """m is 0 at the zero tuple and 1 at the ones: one column call."""
    values = tuple(m.columns(*[(0.0, 1.0)] * m.arity))
    ok = values == (0.0, 1.0)
    return SampledResult(ok, None if ok else values, 2)


def _grid_columns(pts: Sequence, n: int,
                  store: Callable[[Iterable], Sequence] = functools.partial(array, "d")
                  ) -> list[Iterator]:
    """The argument columns of the grid tuples ``itertools.product(pts,
    repeat=n)``, lazily, in C-level iterators: column j runs through the
    points, each ``len(pts) ** (n-1-j)`` times, and that block, held in one
    `store` (an array of doubles; a list keeps Python ints whole), ``len(pts)
    ** j`` times over.  No tuple is built."""
    return [itertools.chain.from_iterable(repeat(store(itertools.chain.from_iterable(
        map(repeat, pts, repeat(len(pts) ** (n - 1 - j))))), len(pts) ** j)) for j in range(n)]


def _first_step(
    m: RealAggregator,
    step: float,
    fails: Callable[[Sequence[float], Sequence[float]], Iterator[bool]],
) -> SampledResult:
    """The first step from a grid tuple to the next grid point in argument j,
    in product order and then argument order, where ``fails(moved, values)``,
    as the witness ``(args, j, jump)``; the sample count is the whole grid.

    m is evaluated by one column call over the grid, into one flat array in
    product order.  A step in argument j moves ``stride = len(pts) **
    (n-1-j)`` places, so a block of ``len(pts) * stride`` values is decided
    by one C-level pass."""
    pts = SampleGrid(step).endpoints()
    size, n = len(pts), m.arity
    values = array("d", m.columns(*_grid_columns(pts, n)))
    first = None
    for j in range(n):
        stride = size ** (n - 1 - j)
        block = size * stride
        for base in range(0, len(values), block):
            hit = next(itertools.compress(itertools.count(base), fails(
                values[base + stride:base + block], values[base:base + block - stride])), None)
            if hit is not None:
                if first is None or hit < first[0]:
                    first = (hit, j, abs(values[hit + stride] - values[hit]))
                break
    if first is None:
        return SampledResult(True, None, len(values))
    at, j, jump = first
    args = tuple(pts[at // size ** (n - 1 - i) % size] for i in range(n))
    return SampledResult(False, (args, j, jump), len(values))


def check_m2_monotone(m: RealAggregator) -> SampledResult:
    """Nondecreasing along each adjacent step of the 0.25 grid; the sample
    count is the whole grid, whether or not a decrease is found."""
    ok, witness, samples = _first_step(m, 0.25, lambda moved, values: map(lt, moved, values))
    return SampledResult(ok, witness and witness[:2], samples)


def _first_failing_tuple(m: RealAggregator, fails: Callable[[list], Iterator[bool]]
                         ) -> SampledResult:
    """The first tuple of the 0.25 grid at m's arity, in product order, that
    ``fails(cols)`` marks, as the witness; `fails` maps the tuples' argument
    columns `cols`, which it may read more than once, to per-tuple failures
    in C-level maps, read by one pass."""
    args = list(itertools.product(SampleGrid(0.25).endpoints(), repeat=m.arity))
    return first_violation_in_rows(row_items(fails(list(zip(*args))), len(args), args.__getitem__))


def check_pinned_component(m: RealAggregator, index: int, pin: float) -> SampledResult:
    """Value `pin` forces the index-th argument (1-based) to be `pin`, on the
    0.25 grid: M3 with pin 0, M4 with pin 1.  One column call."""
    return _first_failing_tuple(m, lambda cols: map(and_, map(eq, m.columns(*cols), repeat(pin)),
                                                    map(ne, cols[index - 1], repeat(pin))))


def check_commutative_first_two(m: RealAggregator) -> SampledResult:
    """m(x1, x2, ...) == m(x2, x1, ...) on the 0.25 grid: two column calls,
    the second with the first two columns swapped."""
    return _first_failing_tuple(m, lambda cols: map(
        ne, m.columns(*cols), m.columns(cols[1], cols[0], *cols[2:])))


def check_nary_continuity(m: RealAggregator) -> SampledResult:
    """Grid-jump continuity heuristic: no step to a neighbouring point of the
    0.1 grid jumps by 4 * 0.1 or more.  The witness is the first step that does."""
    bound = 4.0 * 0.1
    return _first_step(m, 0.1, lambda moved, values: map(
        ge, map(abs, map(sub, moved, values)), itertools.repeat(bound)))

"""The executable law suite: one named check per algebraic result.

Every check produces a `CheckReport` with a verdict, the first violating
tuple when it fails, the sample count and the tolerance it ran at.  Reports
are reproducible bit for bit for a fixed grid: enumeration order is fixed and
witness selection is first-violation.

Each theorem and lattice result is one row of a law table: a check id, a
tolerance and a generator of (target label, SampledResult) parts, which one
evaluator, `_fold`, turns into the report.  A row with no parts (its
precondition cannot be established on samples) is reported as skipped, never
as silently passing.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Container, Iterable, Iterator
from typing import NamedTuple

from .intervals import (
    DEFAULT_ORDER,
    ExponentInterval,
    Interval,
    ONE,
    ZERO,
    complement,
    leq_product,
    power,
    subseteq,
)
from .iv_overlaps import (
    IVOverlap,
    _ends_of,
    _value_column,
    check_associative,
    check_homogeneous,
    check_idempotent,
    check_migrative,
    interval_product,
    is_inclusion_monotonic,
    is_strongly_positive,
    iv_join,
    iv_meet,
    midpoint_example,
    migrative_canonical,
    neutral_element_holds,
    power_transform,
    projection_rows,
    projections,
    reconstructs_from_projections,
    representable,
    semi_representable,
    value_row,
    verify_iv_axioms,
)
from .overlaps import (
    RealAggregator,
    RealOverlap,
    builtin_overlaps,
    check_m1_boundary,
    check_m2_monotone,
    check_pinned_component,
    convex_sum,
    go_axioms,
    lattice_join,
    lattice_meet,
    mean_of_components,
    projection_aggregator,
    verify_overlap_axioms,
)
from .owa import (
    IVAggregator,
    WeightVector,
    _paired_values,
    builtin_aggregators,
    check_distributivity,
    check_homogeneous_m,
    is_weighted_vector,
    make_gowa,
)
from .registry import standard_migrative, standard_overlaps, standard_representable
from .sampling import (
    CONTINUITY_STAGES,
    DEFAULT_GRID,
    EXACT,
    LazyRows,
    POLY_TOLERANCE,
    REAL_GRID,
    ROOT_TOLERANCE,
    SampleGrid,
    SampledResult,
    close_row,
    first_violation,
    first_violation_in_rows,
    grid_pairs,
    interior_intervals,
    tuple_samples,
)


class CheckReport(NamedTuple):
    check_id: str
    target: str
    verdict: str  # "pass" | "fail" | "skipped"
    witness: tuple | None
    samples_used: int
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "target": self.target,
            "verdict": self.verdict,
            "witness": _serialize_witness(self.witness),
            "samples": self.samples_used,
            "tolerance": self.tolerance,
        }

    def format_line(self) -> str:
        head = f"{self.verdict.upper():7s} {self.check_id} [{self.target}]"
        tail = f" samples={self.samples_used} tol={self.tolerance!r}"
        if self.witness is not None:
            tail += f" witness={_witness_text(self.witness)}"
        return head + tail


def _serialize_witness(value):
    if value is None:
        return None
    if isinstance(value, Interval):
        return [value.lower, value.upper]
    if isinstance(value, (tuple, list)):
        return [_serialize_witness(v) for v in value]
    return value


def _witness_text(value) -> str:
    return json.dumps(_serialize_witness(value))


def _report(check_id: str, target: str, res: SampledResult, tol: float) -> CheckReport:
    verdict = "pass" if res.ok else "fail"
    return CheckReport(check_id, target, verdict, res.witness, res.samples, tol)


def _expect(ok: bool, witness: tuple | None, samples: int) -> SampledResult:
    return SampledResult(ok, None if ok else witness, samples)


# ---------------------------------------------------------------------------
# Axiom suites per target type
# ---------------------------------------------------------------------------


def overlap_property_reports(op: IVOverlap, grid: SampleGrid | None = None) -> list[CheckReport]:
    """Inclusion-monotonicity and strong-positivity reports for one overlap."""
    g = grid or DEFAULT_GRID
    return [
        _report("inclusion-monotonic", op.name, is_inclusion_monotonic(op, g), EXACT),
        _report("strongly-positive", op.name, is_strongly_positive(op, g), EXACT),
    ]


def run_axiom_suite(target, grid: SampleGrid | None = None) -> list[CheckReport]:
    """One report per applicable axiom of the target."""
    if isinstance(target, RealOverlap):
        results = verify_overlap_axioms(target, grid or REAL_GRID)
        return [_report(axiom, target.name, res, EXACT) for axiom, res in results.items()]
    if isinstance(target, IVOverlap):
        results = verify_iv_axioms(target, grid or DEFAULT_GRID)
        return [_report(axiom, target.name, res, EXACT) for axiom, res in results.items()]
    if isinstance(target, RealAggregator):
        reports = [
            _report("m1", target.name, check_m1_boundary(target), EXACT),
            _report("m2", target.name, check_m2_monotone(target), EXACT),
        ]
        pins = {"m3:arg": 0.0, "m4:arg": 1.0}
        for claim in sorted(target.claims):
            if claim[:6] in pins:
                res = check_pinned_component(target, int(claim[6:]), pins[claim[:6]])
                reports.append(_report(claim, target.name, res, EXACT))
        return reports
    if isinstance(target, IVAggregator):
        g = grid or DEFAULT_GRID
        return [
            _report("m1", target.name, _boundary(target, target.arity), EXACT),
            _report("m2", target.name, _iv_aggregator_monotone(target, g), EXACT),
        ]
    raise TypeError(f"no axiom suite for {type(target).__name__}")


def _boundary(f, arity: int) -> SampledResult:
    """f maps [0,0], ..., [0,0] to [0,0] and [1,1], ..., [1,1] to [1,1]."""
    zeros, ones = f([ZERO] * arity), f([ONE] * arity)
    return _expect(zeros == ZERO and ones == ONE, (zeros, ones), 2)


def _iv_aggregator_monotone(m: IVAggregator, grid: SampleGrid) -> SampledResult:
    contexts = [ZERO, ONE, Interval(0.2, 0.7), Interval(0.5, 0.5)]
    sample = grid.intervals()
    pairs = [(sample[i], sample[j]) for i, j in grid_pairs(grid, leq_product)]
    return first_violation(
        (ctx, j, lo, hi)
        if not leq_product(m([*pad[:j], lo, *pad[j + 1:]]), m([*pad[:j], hi, *pad[j + 1:]]))
        else None
        for ctx in contexts for pad in [[ctx] * m.arity]
        for j in range(m.arity) for lo, hi in pairs
    )


# ---------------------------------------------------------------------------
# The law table
# ---------------------------------------------------------------------------

Part = tuple[str, SampledResult]

_THEOREM_CHECKS: dict[str, Callable[[SampleGrid], CheckReport]] = {}
_LATTICE_CHECKS: dict[str, Callable[[SampleGrid], CheckReport]] = {}


def _fold(check_id: str, tol: float, parts: Iterable[Part]) -> CheckReport:
    """Skipped without parts; otherwise the first failing part names the
    witness, and the sample count sums every part."""
    parts = list(parts)
    if not parts:
        return CheckReport(check_id, "catalog", "skipped", None, 0, EXACT)
    samples = sum(res.samples for _, res in parts)
    for target, res in parts:
        if not res.ok:
            witness = (target, *(res.witness or ()))
            return CheckReport(check_id, "catalog", "fail", witness, samples, tol)
    return CheckReport(check_id, "catalog", "pass", None, samples, tol)


def _law(check_id: str, tol: float = EXACT, table: dict = _THEOREM_CHECKS):
    """Register a row (grid -> parts) as `check_id`, run in declaration order."""

    def register(row: Callable[[SampleGrid], Iterable[Part]]):
        table[check_id] = lambda grid: _fold(check_id, tol, row(grid))
        return row

    return register


def _axioms(ops: Iterable, grid: SampleGrid) -> Iterator[Part]:
    """Every axiom of each operator, labelled `name:axiom` (real ones on their own grid)."""
    for op in ops:
        results = (verify_iv_axioms(op, grid) if isinstance(op, IVOverlap)
                   else verify_overlap_axioms(op))
        for axiom, res in results.items():
            yield f"{op.name}:{axiom}", res


def _fixes(op: IVOverlap, x: Interval) -> SampledResult:
    """The point identity op(x, x) == x."""
    value = op(x, x)
    return _expect(value == x, (value,), 1)


def _semi_configs():
    """A collapsing and a blended upper aggregator over the pick3 lower one."""
    prod = builtin_overlaps()["product"]
    pick3 = projection_aggregator(3)
    uppers = (("pick4", projection_aggregator(4)), ("mean34", mean_of_components((3, 4))))
    return [semi_representable(pick3, m, (prod,) * 8, name=f"semi(pick3,{label})")
            for label, m in uppers]


_SEMI_IDS = {
    "o1": "semi-representable-commutativity",
    "o2": "semi-representable-zero-boundary",
    "o3": "semi-representable-one-boundary",
    "o4": "semi-representable-monotonicity",
    "o5": "semi-representable-continuity",
}


def _check_semi_items(grid: SampleGrid, axiom: str) -> CheckReport:
    """One axiom of both semi-representable overlaps, read from their memoized
    axiom walks: the five rows share one walk per overlap."""
    return _fold(_SEMI_IDS[axiom], EXACT,
                 ((op.name, verify_iv_axioms(op, grid)[axiom]) for op in _semi_configs()))


def _semi_row(axiom: str) -> Callable[[SampleGrid], CheckReport]:
    # Through the module's globals, so a wrapper bound there is the one called.
    return lambda grid: _check_semi_items(grid, axiom)


_THEOREM_CHECKS.update({check_id: _semi_row(axiom) for axiom, check_id in _SEMI_IDS.items()})


@_law("representable-construction")
def _representable_construction(grid):
    return _axioms(standard_representable(), grid)


@_law("projection-reconstruction", POLY_TOLERANCE)
def _projection_reconstruction(grid):
    for op in standard_representable():
        yield op.name, reconstructs_from_projections(op, grid, POLY_TOLERANCE)


@_law("inclusion-monotonicity-characterization")
def _inclusion_monotonicity(grid):
    for op in standard_representable():
        yield op.name, is_inclusion_monotonic(op, grid)
    mid = midpoint_example()
    res = is_inclusion_monotonic(mid, grid)
    yield "midpoint:expected-failure", _expect(not res.ok, ("no violation found",), res.samples)
    # The stock counterexample: [1,1] nested in [0,1] contracts to [0.25, 0.75].
    inner, outer = mid(ONE, ONE), mid(Interval(0.0, 1.0), Interval(0.0, 1.0))
    yield "midpoint:documented-witness", _expect(not subseteq(inner, outer), (inner, outer), 1)


@_law("no-self-duality")
def _no_self_duality(grid):
    # Zero-boundary overlaps cannot be self-dual: at ([0,0],[1,1]) the value
    # is [0,0] while the complement route forces [1,1].
    for op in standard_overlaps().values():
        lhs, rhs = op(ZERO, ONE), complement(op(complement(ZERO), complement(ONE)))
        yield op.name, _expect(lhs == ZERO and rhs == ONE and lhs != rhs, (lhs, rhs), 1)


@_law("migrative-commutativity")
def _migrative_commutativity(grid):
    # Row x of the walk: op(x, y) against op(y, x) for y from x on.
    sample = grid.intervals()
    pts = _ends_of(sample)
    for op in standard_migrative():
        yield op.name, first_violation_in_rows(
            item for i, p in enumerate(pts)
            for item in close_row(*value_row(op, p, pts[i:]), *_value_column(op, pts[i:], p),
                                  EXACT, lambda k: (sample[i], sample[i + k])))


@_law("homogeneous-zero-preservation")
def _homogeneous_zero(grid):
    for op in (migrative_canonical(ExponentInterval(1.0, 1.0)),
               migrative_canonical(ExponentInterval(1.0, 2.0)), interval_product()):
        yield op.name, _fixes(op, ZERO)


@_law("homogeneous-unit-idempotency", ROOT_TOLERANCE)
def _homogeneous_unit_idempotency(grid):
    unit = ExponentInterval(1.0, 1.0)
    op = migrative_canonical(unit)
    yield f"{op.name}:homogeneous", check_homogeneous(op, unit, grid, ROOT_TOLERANCE)
    yield f"{op.name}:unit", _fixes(op, ONE)
    yield f"{op.name}:idempotent", check_idempotent(op, grid, ROOT_TOLERANCE)


@_law("migrative-idempotent-homogeneity", ROOT_TOLERANCE)
def _migrative_idempotent_homogeneity(grid):
    unit = ExponentInterval(1.0, 1.0)
    op = migrative_canonical(unit)
    yield f"{op.name}:migrative", check_migrative(op, grid, ROOT_TOLERANCE)
    yield f"{op.name}:idempotent", check_idempotent(op, grid, ROOT_TOLERANCE)
    yield f"{op.name}:homogeneous", check_homogeneous(op, unit, grid, ROOT_TOLERANCE)


@_law("migrative-neutral-homogeneity", ROOT_TOLERANCE)
def _migrative_neutral_homogeneity(grid):
    op = interval_product()
    yield f"{op.name}:migrative", check_migrative(op, grid, ROOT_TOLERANCE)
    yield f"{op.name}:neutral", neutral_element_holds(op, grid)
    yield f"{op.name}:homogeneous-2", check_homogeneous(op, ExponentInterval(2.0, 2.0), grid,
                                                        ROOT_TOLERANCE)


@_law("canonical-family-uniqueness", ROOT_TOLERANCE)
def _canonical_uniqueness(grid):
    for k1, k2 in ((1.0, 1.0), (1.0, 2.0), (2.0, 2.0)):
        k = ExponentInterval(k1, k2)
        op = migrative_canonical(k)
        yield f"{op.name}:migrative", check_migrative(op, grid, ROOT_TOLERANCE)
        yield f"{op.name}:homogeneous", check_homogeneous(op, k, grid, ROOT_TOLERANCE)
        yield f"{op.name}:unit", _fixes(op, ONE)
        # The derivation pins the generator: evaluating at [1,1] must give
        # the half-exponent power of the argument.
        half = k.halved()
        sample = grid.intervals()
        lows, ups = value_row(op, (1.0, 1.0), _ends_of(sample))
        wants = [power(x, half) for x in sample]
        yield f"{op.name}:generator", first_violation_in_rows(close_row(
            lows, ups, [w.lower for w in wants], [w.upper for w in wants], ROOT_TOLERANCE,
            lambda j: (sample[j], Interval(lows[j], ups[j]), wants[j])))


# The standard overlaps expected to be associative, in catalog order: the
# one statement of that expectation, which both rows below check.
_ASSOCIATIVE = ("product", "rep(product,product)", "rep(product,min)", "rep(min,min)",
                "canonical(K=[2.0,2.0])")


def _associative_targets() -> list[IVOverlap]:
    ops = standard_overlaps()
    return [ops[name] for name in _ASSOCIATIVE]


@_law("generator-idempotent-contractive", POLY_TOLERANCE)
def _generator_laws(grid):
    sample = grid.intervals()
    for op in _associative_targets():
        yield f"{op.name}:associative", check_associative(op)
        # g(X) = op(X, [1,1]) and g(g(X)), a [1,1] column each.
        gx = list(zip(*_value_column(op, _ends_of(sample), (1.0, 1.0))))
        ggx = list(zip(*_value_column(op, gx, (1.0, 1.0))))
        yield f"{op.name}:generator-laws", first_violation(
            (x, Interval(*g), Interval(*gg))
            if abs(gg[0] - g[0]) > POLY_TOLERANCE or abs(gg[1] - g[1]) > POLY_TOLERANCE
            else (x, Interval(*g)) if not (x.lower <= g[0] and g[1] <= x.upper)
            else None
            for x, g, gg in zip(sample, gx, ggx)
        )


@_law("associative-neutral-element")
def _associative_neutral(grid):
    sample = grid.intervals()
    for op in _associative_targets():
        if not check_associative(op).ok:
            yield f"{op.name}:associative", SampledResult(False, ("claim failed",), 1)
            continue
        # Surjectivity of the generator is not decidable from samples; only
        # the inclusion-monotonic branch is checked, on the [1,1] column.
        image = list(map(Interval, *_value_column(op, _ends_of(sample), (1.0, 1.0))))
        nested = first_violation(
            (sample[inner], sample[outer]) if not subseteq(image[inner], image[outer]) else None
            for inner, outer in grid_pairs(grid, subseteq)
        )
        if nested.ok:
            yield f"{op.name}:neutral", neutral_element_holds(op, grid)
        else:
            yield f"{op.name}:skipped-branch", SampledResult(True, None, nested.samples)


@_law("migrative-implies-representable", POLY_TOLERANCE)
def _migrative_implies_representable(grid):
    for op in standard_migrative():
        yield f"{op.name}:inclusion", is_inclusion_monotonic(op, grid)
        yield f"{op.name}:reconstruction", reconstructs_from_projections(op, grid, POLY_TOLERANCE)


@_law("migrative-generator-form", ROOT_TOLERANCE)
def _migrative_generator_form(grid):
    for op in standard_migrative():
        yield f"{op.name}:migrative", check_migrative(op, grid, ROOT_TOLERANCE)
        gzero, gone = op(ZERO, ONE), op(ONE, ONE)
        yield f"{op.name}:boundary", _expect(gzero == ZERO and gone == ONE, (gzero, gone), 2)
        interior = interior_intervals(grid.intervals())
        yield f"{op.name}:interior", first_violation(
            (x, Interval(lo, up)) if (lo, up) in ((0.0, 0.0), (1.0, 1.0)) else None
            for x, lo, up in zip(interior, *value_row(op, (1.0, 1.0), _ends_of(interior)))
        )


@_law("homogeneous-projection-orders", ROOT_TOLERANCE)
def _homogeneous_projections(grid):
    # A projection at (a*x, a*y) against a**order times its value at (x, y):
    # a row per (a, x), read from the projection tables over the points
    # scaled by a, each built on first use.
    pts = REAL_GRID.endpoints()
    for k1, k2 in ((1.0, 1.0), (1.0, 2.0), (2.0, 2.0)):
        op = migrative_canonical(ExponentInterval(k1, k2))
        base = projections(op, pts)
        scaled = LazyRows(lambda a, op=op: projections(op, [a * p for p in pts]))
        for end, tag, order in ((0, "lower", k2), (1, "upper", k1)):
            # One endpoint, given to close_row as both endpoints of its rows.
            yield f"{op.name}:{tag}-order-{order}", first_violation_in_rows(
                item for a in pts for factor in [a**order]
                for x, got, row in zip(pts, scaled[a][end], base[end])
                for want in [[factor * v for v in row]]
                for item in close_row(got, got, want, want, ROOT_TOLERANCE,
                                      lambda j: (a, x, pts[j])))


@_law("strongly-positive-projections")
def _strongly_positive_projections(grid):
    cat = builtin_overlaps()
    positive = representable(cat["product"], cat["product"])
    yield f"{positive.name}:sp", is_strongly_positive(positive, grid)
    yield from _projection_axioms(positive)
    # Necessity: with a zero-divisor lower component the projection is not an
    # overlap and strong positivity fails.
    weak = representable(cat["lukasiewicz"], cat["min"])
    sp = is_strongly_positive(weak, grid)
    yield f"{weak.name}:expected-sp-failure", _expect(not sp.ok, ("no violation",), sp.samples)
    docked = weak(Interval(0.4, 0.6), Interval(0.4, 0.6))
    yield f"{weak.name}:documented-witness", _expect(docked.lower == 0.0 and docked.upper > 0.0,
                                                     (docked,), 1)
    go2 = go_axioms(lambda pts: (lo for lo, _ in projection_rows(weak, pts)),
                    axioms=("go2",))["go2"]
    yield f"{weak.name}:lower:expected-go2-failure", _expect(not go2.ok, ("no violation",),
                                                             go2.samples)


def _projection_axioms(o: IVOverlap, stages=CONTINUITY_STAGES) -> Iterator[Part]:
    """GO1-GO5 of the lower and of the upper projection of `o`, read from its
    projection rows (`projection_rows`), labelled `name:lower:axiom` and
    `name:upper:axiom`; GO5 streams each end's rows."""
    for end, tag in enumerate(("lower", "upper")):
        results = go_axioms(lambda pts: (row[end] for row in projection_rows(o, pts)),
                            stages=stages)
        for axiom, res in results.items():
            yield f"{o.name}:{tag}:{axiom}", res


@_law("real-lattice-closure")
def _real_lattice_closure(grid):
    cat = builtin_overlaps()
    pairs = ((cat["product"], cat["min"]), (cat["minmax:p=2"], cat["xyp:p=2"]))
    return _axioms((c for g1, g2 in pairs for c in (lattice_join(g1, g2), lattice_meet(g1, g2))),
                   grid)


@_law("real-convex-closure")
def _real_convex_closure(grid):
    cat = builtin_overlaps()
    return _axioms((convex_sum(0.5, 0.5, cat["product"], cat["min"]),
                    convex_sum(0.25, 0.75, cat["minmax:p=2"], cat["product"])), grid)


def _valid_gowa_configs():
    prod = interval_product()
    geo = builtin_aggregators(2)["geomean"]
    tsum = builtin_aggregators(2)["tsum"]
    mx = builtin_aggregators(3)["max"]
    return [
        make_gowa(geo, prod, WeightVector.of(ONE, ONE)),
        make_gowa(tsum, prod, WeightVector.uniform(2)),
        make_gowa(mx, prod, WeightVector.selector(3, 1)),
    ]


def _gowa_name(op) -> str:
    return f"gowa({op.aggregator.name},{op.overlap.name},n={op.arity})"


@_law("gowa-idempotency", POLY_TOLERANCE)
def _gowa_idempotency(grid):
    items = grid.intervals()
    for op in _valid_gowa_configs():
        yield _gowa_name(op), first_violation(
            (c, got) if abs(got.lower - c.lower) > POLY_TOLERANCE
            or abs(got.upper - c.upper) > POLY_TOLERANCE else None
            for c, got in zip(items, op.aggregate_rows([c] * op.arity for c in items))
        )


@_law("gowa-boundary-aggregation")
def _gowa_boundary(grid):
    items = SampleGrid(0.25).intervals()
    pairs = grid_pairs(SampleGrid(0.25), leq_product)
    for op in _valid_gowa_configs():
        name = _gowa_name(op)
        yield f"{name}:boundary", _boundary(op, op.arity)
        # Product-order monotonicity, on vector pairs whose descending sort
        # permutations agree: the permutation of each of the 225 vectors,
        # on first use.
        if op.arity == 2:
            ranks = LazyRows(lambda ab, order=op.order: order.ranks_descending(
                (items[ab[0]], items[ab[1]])))
            vector_pairs = (((items[a_lo], items[b_lo]), (items[a_hi], items[b_hi]))
                            for a_lo, a_hi in pairs for b_lo, b_hi in pairs
                            if ranks[a_lo, b_lo] == ranks[a_hi, b_hi])
            yield f"{name}:monotone", first_violation(
                (*low, *high) if not leq_product(lo, hi) else None
                for (low, high), lo, hi in _paired_values(op, vector_pairs)
            )


@_law("gowa-projection-selection")
def _gowa_projection(grid):
    prod = interval_product()
    vectors = list(tuple_samples(SampleGrid(0.25).intervals(), 3, budget=4000))
    # Each vector sorted descending in make_gowa's default order, once, for
    # all six selectors, on first use.
    descending = LazyRows(lambda k: sorted(vectors[k], key=DEFAULT_ORDER.sort_key, reverse=True))
    for kind in ("tsum", "max"):
        m = builtin_aggregators(3)[kind]
        for index in (1, 2, 3):
            op = make_gowa(m, prod, WeightVector.selector(3, index), DEFAULT_ORDER)
            yield f"select:{kind}:i={index}", first_violation(
                (*vec, got, want) if got != want else None
                for k, (vec, got) in enumerate(zip(vectors, op.aggregate_rows(vectors)))
                for want in [descending[k][index - 1]]
            )


@_law("gowa-arithmetic-mean", POLY_TOLERANCE)
def _gowa_arithmetic_mean(grid):
    prod = interval_product()
    for n in (2, 4):
        op = make_gowa(builtin_aggregators(n)["tsum"], prod, WeightVector.uniform(n))
        vectors = tuple_samples(SampleGrid(0.25).intervals(), n, budget=3000)
        yield f"tsum:n={n}", first_violation(
            (*vec, got)
            if abs(got.lower - math.fsum(v.lower for v in vec) / n) > POLY_TOLERANCE
            or abs(got.upper - math.fsum(v.upper for v in vec) / n) > POLY_TOLERANCE
            else None
            for vec, got in zip(vectors, op.aggregate_rows(vectors))
        )


@_law("aggregator-homogeneity-distributivity", ROOT_TOLERANCE)
def _aggregator_homogeneity_distributivity(grid):
    # First-order homogeneity of the aggregator is equivalent to
    # distributivity over the interval product; the two sampled verdicts must
    # coincide for every catalog aggregator, including the failing ones.
    prod = interval_product()
    for name, m in builtin_aggregators(2).items():
        hom = check_homogeneous_m(m, grid)
        dist = check_distributivity(m, prod, grid)
        yield f"{name}:equivalence", _expect(hom.ok == dist.ok, (hom.ok, dist.ok),
                                             hom.samples + dist.samples)


@_law("weighted-vector-characterizations")
def _weighted_vector_laws(grid):
    aggs = builtin_aggregators(2)
    ones = WeightVector.of(ONE, ONE)
    for name, m in aggs.items():
        yield f"{name}:all-ones", _expect(is_weighted_vector(m, ones), (name,), 1)
    sample = grid.intervals()
    # Each aggregator's closed form for "the weights aggregate to [1,1]".
    expectations = (
        ("max", lambda w1, w2: w1 == ONE or w2 == ONE),
        ("tsum", lambda w1, w2: math.fsum((w1.lower, w2.lower)) >= 1.0),
    )
    for name, expected in expectations:
        m = aggs[name]
        yield f"{name}:characterization", first_violation(
            (w1, w2) if is_weighted_vector(m, WeightVector.of(w1, w2)) != expected(w1, w2)
            else None
            for w1 in sample for w2 in sample
        )


@_law("iv-lattice-closure", table=_LATTICE_CHECKS)
def _iv_lattice_closure(grid):
    cat = builtin_overlaps()
    rep_pp = representable(cat["product"], cat["product"])
    rep_mm = representable(cat["min"], cat["min"])
    pairs = ((rep_pp, rep_mm), (interval_product(), midpoint_example()))
    return _axioms((c for o1, o2 in pairs for c in (iv_join(o1, o2), iv_meet(o1, o2))), grid)


@_law("power-transform-sandwich", table=_LATTICE_CHECKS)
def _power_transform_sandwich(grid):
    cat = builtin_overlaps()
    interior = interior_intervals(grid.intervals())
    pts = _ends_of(interior)
    for base in (interval_product(), representable(cat["min"], cat["min"])):
        for n in (2, 3):
            lowered = power_transform(base, n, "power")
            raised = power_transform(base, n, "root")
            # A row per x, from the three overlaps' value rows.
            yield f"{base.name}:n={n}", first_violation_in_rows(
                ((x, y, Interval(s_lo, s_up), Interval(m_lo, m_up), Interval(b_lo, b_up))
                 if not (s_lo < m_lo and s_up < m_up and m_lo < b_lo and m_up < b_up)
                 else None
                 for y, s_lo, s_up, m_lo, m_up, b_lo, b_up in zip(
                     interior, *value_row(lowered, p, pts), *value_row(base, p, pts),
                     *value_row(raised, p, pts)))
                for x, p in zip(interior, pts))
            for fixed in (ZERO, ONE):
                same = lowered(fixed, fixed) == base(fixed, fixed) == raised(fixed, fixed)
                yield f"{base.name}:n={n}:boundary-{fixed}", _expect(same, (fixed,), 1)


THEOREM_CHECK_IDS = tuple(sorted(_THEOREM_CHECKS))
LATTICE_CHECK_IDS = tuple(sorted(_LATTICE_CHECKS))

# The row ids of each suite.
SUITE_ROWS = {"theorems": _THEOREM_CHECKS.keys(), "lattice": _LATTICE_CHECKS.keys()}

# The rows `ivowa verify` runs in a forked worker while its own process runs
# the rest.  The memoized make_gowa validations, and the distributivity walks
# behind them, are shared by these rows and by no other;
# representable-construction and the lattice suite share only constructors
# and catalogs with anything, and even out the halves' times, as
# `tools/verify_rows.py` shows.  So the halves share constructors, catalogs
# and the product's neutral-element check (about 1 ms), and no memoized walk
# runs in both processes.
WORKER_ROWS = frozenset({
    "aggregator-homogeneity-distributivity",
    "weighted-vector-characterizations",
    "gowa-arithmetic-mean",
    "gowa-boundary-aggregation",
    "gowa-idempotency",
    "gowa-projection-selection",
    "representable-construction",
    "iv-lattice-closure",
    "power-transform-sandwich",
})


def sort_reports(reports: Iterable[CheckReport]) -> list[CheckReport]:
    """A suite's reports in output order: by check id, then target."""
    return sorted(reports, key=lambda r: (r.check_id, r.target))


def run_theorem_suite(grid: SampleGrid = DEFAULT_GRID,
                      rows: Container[str] | None = None) -> list[CheckReport]:
    """One report per implemented result; passes on the shipped catalog.
    With `rows`, only the reports of the rows named there."""
    return sort_reports(check(grid) for row, check in _THEOREM_CHECKS.items()
                        if rows is None or row in rows)


def lattice_order_checks(grid: SampleGrid = DEFAULT_GRID,
                         rows: Container[str] | None = None) -> list[CheckReport]:
    """Closure of the overlap lattice and the strict power-transform sandwich.
    With `rows`, only the reports of the rows named there."""
    return sort_reports(check(grid) for row, check in _LATTICE_CHECKS.items()
                        if rows is None or row in rows)


def report_lines(reports: list[CheckReport]) -> list[str]:
    return [r.format_line() for r in reports]


def reports_to_json(reports: list[CheckReport]) -> list[str]:
    return [json.dumps(r.to_dict(), sort_keys=True) for r in reports]

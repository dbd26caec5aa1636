"""The executable law suite: one named check per algebraic result.

Every check produces a `CheckReport` with a verdict, the first violating
tuple when it fails, the sample count and the tolerance it ran at.  Reports
are reproducible bit for bit for a fixed grid: enumeration order is fixed and
witness selection is first-violation.

A check whose precondition cannot be established on samples is reported as
skipped, never as silently passing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .intervals import (
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
    projections,
    reconstructs_from_projections,
    representable,
    semi_representable,
    verify_iv_axioms,
)
from .overlaps import (
    RealAggregator,
    RealOverlap,
    check_m1_boundary,
    check_m2_monotone,
    check_m3_component,
    check_m4_component,
    convex_sum,
    lattice_join,
    lattice_meet,
    mean_of_components,
    projection_aggregator,
    verify_overlap_axioms,
)
from .owa import (
    IVAggregator,
    WeightVector,
    builtin_aggregators,
    check_distributivity,
    check_homogeneous_m,
    is_weighted_vector,
    make_gowa,
)
from .registry import (
    real_catalog,
    standard_migrative,
    standard_overlaps,
    standard_representable,
)
from .sampling import (
    DEFAULT_GRID,
    EXACT,
    POLY_TOLERANCE,
    ROOT_TOLERANCE,
    SampleGrid,
    SampledResult,
    comparable_pairs,
    first_violation,
    interior_intervals,
    nested_pairs,
    tuple_samples,
)

__all__ = [
    "CheckReport",
    "run_axiom_suite",
    "run_theorem_suite",
    "lattice_order_checks",
    "overlap_property_reports",
    "report_lines",
    "reports_to_json",
    "THEOREM_CHECK_IDS",
    "LATTICE_CHECK_IDS",
]


@dataclass(frozen=True)
class CheckReport:
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


def _skipped(check_id: str, target: str) -> CheckReport:
    return CheckReport(check_id, target, "skipped", None, 0, EXACT)


def _combined(check_id: str, parts: list[tuple[str, SampledResult]], tol: float) -> CheckReport:
    """Fold per-target results into one report; the witness names the target."""
    samples = sum(r.samples for _, r in parts)
    for target, res in parts:
        if not res.ok:
            witness = (target, *(res.witness or ()))
            return CheckReport(check_id, "catalog", "fail", witness, samples, tol)
    return CheckReport(check_id, "catalog", "pass", None, samples, tol)


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
        results = verify_overlap_axioms(target, grid or SampleGrid(0.05))
        return [_report(axiom, target.name, res, EXACT) for axiom, res in results.items()]
    if isinstance(target, IVOverlap):
        results = verify_iv_axioms(target, grid or DEFAULT_GRID)
        return [_report(axiom, target.name, res, EXACT) for axiom, res in results.items()]
    if isinstance(target, RealAggregator):
        reports = [
            _report("m1", target.name, check_m1_boundary(target), EXACT),
            _report("m2", target.name, check_m2_monotone(target), EXACT),
        ]
        for claim in sorted(target.claims):
            if claim.startswith("m3:arg"):
                res = check_m3_component(target, int(claim.removeprefix("m3:arg")))
                reports.append(_report(claim, target.name, res, EXACT))
            elif claim.startswith("m4:arg"):
                res = check_m4_component(target, int(claim.removeprefix("m4:arg")))
                reports.append(_report(claim, target.name, res, EXACT))
        return reports
    if isinstance(target, IVAggregator):
        g = grid or DEFAULT_GRID
        return [
            _report("m1", target.name, _iv_aggregator_boundary(target), EXACT),
            _report("m2", target.name, _iv_aggregator_monotone(target, g), EXACT),
        ]
    raise TypeError(f"no axiom suite for {type(target).__name__}")


def _iv_aggregator_boundary(m: IVAggregator) -> SampledResult:
    zeros = [ZERO] * m.arity
    ones = [ONE] * m.arity
    ok = m(zeros) == ZERO and m(ones) == ONE
    return _expect(ok, (m(zeros), m(ones)), 2)


def _iv_aggregator_monotone(m: IVAggregator, grid: SampleGrid) -> SampledResult:
    contexts = [ZERO, ONE, Interval(0.2, 0.7), Interval(0.5, 0.5)]
    pairs = comparable_pairs(grid.intervals())
    return first_violation(
        (ctx, j, lo, hi)
        if not leq_product(m([*pad[:j], lo, *pad[j + 1:]]), m([*pad[:j], hi, *pad[j + 1:]]))
        else None
        for ctx in contexts for pad in [[ctx] * m.arity]
        for j in range(m.arity) for lo, hi in pairs
    )


# ---------------------------------------------------------------------------
# Theorem checks
# ---------------------------------------------------------------------------


def _semi_configs():
    cat = real_catalog()
    prod = cat["product"]
    pick3 = projection_aggregator(3)
    pick4 = projection_aggregator(4)
    mean34 = mean_of_components((3, 4))
    collapsing = semi_representable(pick3, pick4, (prod,) * 8, name="semi(pick3,pick4)")
    blended = semi_representable(pick3, mean34, (prod,) * 8, name="semi(pick3,mean34)")
    return [collapsing, blended]


def _check_representable_construction(grid: SampleGrid) -> CheckReport:
    parts = []
    for op in standard_representable():
        for axiom, res in verify_iv_axioms(op, grid).items():
            parts.append((f"{op.name}:{axiom}", res))
    return _combined("representable-construction", parts, EXACT)


def _check_projection_reconstruction(grid: SampleGrid) -> CheckReport:
    parts = [(op.name, reconstructs_from_projections(op, grid, POLY_TOLERANCE))
             for op in standard_representable()]
    return _combined("projection-reconstruction", parts, POLY_TOLERANCE)


def _check_inclusion_monotonicity(grid: SampleGrid) -> CheckReport:
    parts = []
    for op in standard_representable():
        parts.append((op.name, is_inclusion_monotonic(op, grid)))
    mid = midpoint_example()
    res = is_inclusion_monotonic(mid, grid)
    parts.append(("midpoint:expected-failure", _expect(not res.ok, ("no violation found",), res.samples)))
    # The stock counterexample: [1,1] nested in [0,1] contracts to [0.25, 0.75].
    inner = mid.fn(ONE, ONE)
    outer = mid.fn(Interval(0.0, 1.0), Interval(0.0, 1.0))
    parts.append(("midpoint:documented-witness",
                  _expect(not subseteq(inner, outer), (inner, outer), 1)))
    return _combined("inclusion-monotonicity-characterization", parts, EXACT)


def _check_semi_items(grid: SampleGrid) -> list[CheckReport]:
    configs = _semi_configs()
    axioms = {"o1": [], "o2": [], "o3": [], "o4": [], "o5": []}
    for op in configs:
        for axiom, res in verify_iv_axioms(op, grid).items():
            axioms[axiom].append((op.name, res))
    names = {
        "o1": "semi-representable-commutativity",
        "o2": "semi-representable-zero-boundary",
        "o3": "semi-representable-one-boundary",
        "o4": "semi-representable-monotonicity",
        "o5": "semi-representable-continuity",
    }
    return [_combined(names[a], parts, EXACT) for a, parts in axioms.items()]


def _check_no_self_duality(grid: SampleGrid) -> CheckReport:
    # Zero-boundary overlaps cannot be self-dual: at ([0,0],[1,1]) the value
    # is [0,0] while the complement route forces [1,1].
    parts = []
    for op in standard_overlaps().values():
        lhs = op.fn(ZERO, ONE)
        rhs = complement(op.fn(complement(ZERO), complement(ONE)))
        parts.append((op.name, _expect(lhs == ZERO and rhs == ONE and lhs != rhs,
                                       (lhs, rhs), 1)))
    return _combined("no-self-duality", parts, EXACT)


def _check_migrative_commutativity(grid: SampleGrid) -> CheckReport:
    sample = grid.intervals()
    parts = [(op.name, first_violation((x, y) if op.fn(x, y) != op.fn(y, x) else None
                                       for i, x in enumerate(sample) for y in sample[i:]))
             for op in standard_migrative()]
    return _combined("migrative-commutativity", parts, EXACT)


def _check_homogeneous_zero(grid: SampleGrid) -> CheckReport:
    targets = [
        migrative_canonical(ExponentInterval(1.0, 1.0)),
        migrative_canonical(ExponentInterval(1.0, 2.0)),
        interval_product(),
    ]
    parts = [(op.name, _expect(op.fn(ZERO, ZERO) == ZERO, (op.fn(ZERO, ZERO),), 1))
             for op in targets]
    return _combined("homogeneous-zero-preservation", parts, EXACT)


def _check_homogeneous_unit_idempotency(grid: SampleGrid) -> CheckReport:
    op = migrative_canonical(ExponentInterval(1.0, 1.0))
    unit = ExponentInterval(1.0, 1.0)
    parts = [
        (f"{op.name}:homogeneous", check_homogeneous(op, unit, grid, ROOT_TOLERANCE)),
        (f"{op.name}:unit", _expect(op.fn(ONE, ONE) == ONE, (op.fn(ONE, ONE),), 1)),
        (f"{op.name}:idempotent", check_idempotent(op, grid, ROOT_TOLERANCE)),
    ]
    return _combined("homogeneous-unit-idempotency", parts, ROOT_TOLERANCE)


def _check_migrative_idempotent_homogeneity(grid: SampleGrid) -> CheckReport:
    op = migrative_canonical(ExponentInterval(1.0, 1.0))
    unit = ExponentInterval(1.0, 1.0)
    parts = [
        (f"{op.name}:migrative", check_migrative(op, grid, ROOT_TOLERANCE)),
        (f"{op.name}:idempotent", check_idempotent(op, grid, ROOT_TOLERANCE)),
        (f"{op.name}:homogeneous", check_homogeneous(op, unit, grid, ROOT_TOLERANCE)),
    ]
    return _combined("migrative-idempotent-homogeneity", parts, ROOT_TOLERANCE)


def _check_migrative_neutral_homogeneity(grid: SampleGrid) -> CheckReport:
    op = interval_product()
    two = ExponentInterval(2.0, 2.0)
    parts = [
        (f"{op.name}:migrative", check_migrative(op, grid, ROOT_TOLERANCE)),
        (f"{op.name}:neutral", neutral_element_holds(op, grid)),
        (f"{op.name}:homogeneous-2", check_homogeneous(op, two, grid, ROOT_TOLERANCE)),
    ]
    return _combined("migrative-neutral-homogeneity", parts, ROOT_TOLERANCE)


def _check_canonical_uniqueness(grid: SampleGrid) -> CheckReport:
    parts = []
    for k1, k2 in ((1.0, 1.0), (1.0, 2.0), (2.0, 2.0)):
        k = ExponentInterval(k1, k2)
        op = migrative_canonical(k)
        parts.append((f"{op.name}:migrative", check_migrative(op, grid, ROOT_TOLERANCE)))
        parts.append((f"{op.name}:homogeneous", check_homogeneous(op, k, grid, ROOT_TOLERANCE)))
        parts.append((f"{op.name}:unit", _expect(op.fn(ONE, ONE) == ONE, (op.fn(ONE, ONE),), 1)))
        # The derivation pins the generator: evaluating at [1,1] must give
        # the half-exponent power of the argument.
        half = k.halved()
        generator = first_violation(
            (x, got, want)
            if abs(got.lower - want.lower) > ROOT_TOLERANCE
            or abs(got.upper - want.upper) > ROOT_TOLERANCE
            else None
            for x in grid.intervals() for got, want in [(op.fn(ONE, x), power(x, half))]
        )
        parts.append((f"{op.name}:generator", generator))
    return _combined("canonical-family-uniqueness", parts, ROOT_TOLERANCE)


def _associative_targets() -> list[IVOverlap]:
    return [op for op in standard_overlaps().values() if "associative" in op.claims]


def _check_generator_laws(grid: SampleGrid) -> CheckReport:
    targets = _associative_targets()
    if not targets:
        return _skipped("generator-idempotent-contractive", "catalog")
    parts = []
    for op in targets:
        parts.append((f"{op.name}:associative", check_associative(op)))
        laws = first_violation(
            (x, gx, ggx)
            if abs(ggx.lower - gx.lower) > POLY_TOLERANCE
            or abs(ggx.upper - gx.upper) > POLY_TOLERANCE
            else (x, gx) if not subseteq(gx, x)
            else None
            for x in grid.intervals() for gx in [op.fn(x, ONE)] for ggx in [op.fn(gx, ONE)]
        )
        parts.append((f"{op.name}:generator-laws", laws))
    return _combined("generator-idempotent-contractive", parts, POLY_TOLERANCE)


def _check_associative_neutral(grid: SampleGrid) -> CheckReport:
    targets = _associative_targets()
    if not targets:
        return _skipped("associative-neutral-element", "catalog")
    parts = []
    for op in targets:
        if not check_associative(op).ok:
            parts.append((f"{op.name}:associative", SampledResult(False, ("claim failed",), 1)))
            continue
        # Surjectivity of the generator is not decidable from samples; only
        # the inclusion-monotonic branch of the result is checked.
        nested = first_violation(
            (inner, outer) if not subseteq(op.fn(inner, ONE), op.fn(outer, ONE)) else None
            for inner, outer in nested_pairs(grid.intervals())
        )
        if not nested.ok:
            parts.append((f"{op.name}:skipped-branch", SampledResult(True, None, nested.samples)))
            continue
        parts.append((f"{op.name}:neutral", neutral_element_holds(op, grid)))
    return _combined("associative-neutral-element", parts, EXACT)


def _check_migrative_implies_representable(grid: SampleGrid) -> CheckReport:
    parts = []
    for op in standard_migrative():
        parts.append((f"{op.name}:inclusion", is_inclusion_monotonic(op, grid)))
        parts.append((f"{op.name}:reconstruction",
                      reconstructs_from_projections(op, grid, POLY_TOLERANCE)))
    return _combined("migrative-implies-representable", parts, POLY_TOLERANCE)


def _check_migrative_generator_form(grid: SampleGrid) -> CheckReport:
    parts = []
    for op in standard_migrative():
        parts.append((f"{op.name}:migrative", check_migrative(op, grid, ROOT_TOLERANCE)))
        gzero = op.fn(ZERO, ONE)
        gone = op.fn(ONE, ONE)
        parts.append((f"{op.name}:boundary",
                      _expect(gzero == ZERO and gone == ONE, (gzero, gone), 2)))
        interior = first_violation((x, gx) if gx == ZERO or gx == ONE else None
                                   for x in interior_intervals(grid.intervals())
                                   for gx in [op.fn(ONE, x)])
        parts.append((f"{op.name}:interior", interior))
    return _combined("migrative-generator-form", parts, ROOT_TOLERANCE)


def _real_homogeneous(fn, order: float, pts: list[float], tol: float) -> SampledResult:
    return first_violation((a, x, y) if abs(fn(a * x, a * y) - a**order * fn(x, y)) > tol else None
                           for a in pts for x in pts for y in pts)


def _check_homogeneous_projections(grid: SampleGrid) -> CheckReport:
    pts = SampleGrid(0.05).endpoints()
    parts = []
    for k1, k2 in ((1.0, 1.0), (1.0, 2.0), (2.0, 2.0)):
        op = migrative_canonical(ExponentInterval(k1, k2))
        lower, upper = projections(op)
        parts.append((f"{op.name}:lower-order-{k2}",
                      _real_homogeneous(lower, k2, pts, ROOT_TOLERANCE)))
        parts.append((f"{op.name}:upper-order-{k1}",
                      _real_homogeneous(upper, k1, pts, ROOT_TOLERANCE)))
    return _combined("homogeneous-projection-orders", parts, ROOT_TOLERANCE)


def _check_strongly_positive_projections(grid: SampleGrid) -> CheckReport:
    cat = real_catalog()
    parts = []
    positive = representable(cat["product"], cat["product"])
    parts.append((f"{positive.name}:sp", is_strongly_positive(positive, grid)))
    lower, upper = projections(positive)
    for tag, fn in (("lower", lower), ("upper", upper)):
        axioms = verify_overlap_axioms(RealOverlap(fn, f"{positive.name}:{tag}"))
        for axiom, res in axioms.items():
            parts.append((f"{positive.name}:{tag}:{axiom}", res))
    # Necessity: with a zero-divisor lower component the projection is not an
    # overlap and strong positivity fails.
    weak = representable(cat["lukasiewicz"], cat["min"])
    sp = is_strongly_positive(weak, grid)
    parts.append((f"{weak.name}:expected-sp-failure", _expect(not sp.ok, ("no violation",), sp.samples)))
    docked = weak.fn(Interval(0.4, 0.6), Interval(0.4, 0.6))
    parts.append((f"{weak.name}:documented-witness",
                  _expect(docked.lower == 0.0 and docked.upper > 0.0, (docked,), 1)))
    weak_lower, _ = projections(weak)
    go2 = verify_overlap_axioms(RealOverlap(weak_lower, f"{weak.name}:lower"))["go2"]
    parts.append((f"{weak.name}:lower:expected-go2-failure",
                  _expect(not go2.ok, ("no violation",), go2.samples)))
    return _combined("strongly-positive-projections", parts, EXACT)


def _check_real_lattice_closure(grid: SampleGrid) -> CheckReport:
    cat = real_catalog()
    pairs = ((cat["product"], cat["min"]), (cat["minmax:p=2"], cat["xyp:p=2"]))
    parts = []
    for g1, g2 in pairs:
        for combined in (lattice_join(g1, g2), lattice_meet(g1, g2)):
            for axiom, res in verify_overlap_axioms(combined).items():
                parts.append((f"{combined.name}:{axiom}", res))
    return _combined("real-lattice-closure", parts, EXACT)


def _check_real_convex_closure(grid: SampleGrid) -> CheckReport:
    cat = real_catalog()
    sums = (
        convex_sum(0.5, 0.5, cat["product"], cat["min"]),
        convex_sum(0.25, 0.75, cat["minmax:p=2"], cat["product"]),
    )
    parts = []
    for combined in sums:
        for axiom, res in verify_overlap_axioms(combined).items():
            parts.append((f"{combined.name}:{axiom}", res))
    return _combined("real-convex-closure", parts, EXACT)


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


def _check_gowa_idempotency(grid: SampleGrid) -> CheckReport:
    parts = []
    for op in _valid_gowa_configs():
        res = first_violation(
            (c, got)
            if abs(got.lower - c.lower) > POLY_TOLERANCE
            or abs(got.upper - c.upper) > POLY_TOLERANCE
            else None
            for c in grid.intervals() for got in [op([c] * op.arity)]
        )
        parts.append((f"gowa({op.aggregator.name},{op.overlap.name},n={op.arity})", res))
    return _combined("gowa-idempotency", parts, POLY_TOLERANCE)


def _check_gowa_boundary(grid: SampleGrid) -> CheckReport:
    parts = []
    coarse = SampleGrid(0.25)
    pairs = comparable_pairs(coarse.intervals())
    for op in _valid_gowa_configs():
        name = f"gowa({op.aggregator.name},{op.overlap.name},n={op.arity})"
        zeros = op([ZERO] * op.arity)
        ones = op([ONE] * op.arity)
        parts.append((f"{name}:boundary",
                      _expect(zeros == ZERO and ones == ONE, (zeros, ones), 2)))
        # Product-order monotonicity, on vector pairs whose descending sort
        # permutations agree.
        if op.arity == 2:
            ranks = op.order.ranks_descending
            vector_pairs = (((a_lo, b_lo), (a_hi, b_hi))
                            for a_lo, a_hi in pairs for b_lo, b_hi in pairs)
            monotone = first_violation(
                (*low, *high) if not leq_product(op(low), op(high)) else None
                for low, high in vector_pairs if ranks(low) == ranks(high)
            )
            parts.append((f"{name}:monotone", monotone))
    return _combined("gowa-boundary-aggregation", parts, EXACT)


def _check_gowa_projection(grid: SampleGrid) -> CheckReport:
    prod = interval_product()
    coarse = SampleGrid(0.25)
    vectors = tuple_samples(coarse.intervals(), 3, budget=4000)
    parts = []
    for kind in ("tsum", "max"):
        m = builtin_aggregators(3)[kind]
        for index in (1, 2, 3):
            op = make_gowa(m, prod, WeightVector.selector(3, index))
            res = first_violation(
                (*vec, got, want) if got != want else None
                for vec in vectors for got, want in
                [(op(vec), sorted(vec, key=op.order.sort_key, reverse=True)[index - 1])]
            )
            parts.append((f"select:{kind}:i={index}", res))
    return _combined("gowa-projection-selection", parts, EXACT)


def _check_gowa_arithmetic_mean(grid: SampleGrid) -> CheckReport:
    prod = interval_product()
    parts = []
    for n in (2, 4):
        m = builtin_aggregators(n)["tsum"]
        op = make_gowa(m, prod, WeightVector.uniform(n))
        vectors = tuple_samples(SampleGrid(0.25).intervals(), n, budget=3000)
        res = first_violation(
            (*vec, got)
            if abs(got.lower - math.fsum(v.lower for v in vec) / n) > POLY_TOLERANCE
            or abs(got.upper - math.fsum(v.upper for v in vec) / n) > POLY_TOLERANCE
            else None
            for vec in vectors for got in [op(vec)]
        )
        parts.append((f"tsum:n={n}", res))
    return _combined("gowa-arithmetic-mean", parts, POLY_TOLERANCE)


def _check_aggregator_homogeneity_distributivity(grid: SampleGrid) -> CheckReport:
    # First-order homogeneity of the aggregator is equivalent to
    # distributivity over the interval product; the two sampled verdicts must
    # coincide for every catalog aggregator, including the failing ones.
    prod = interval_product()
    parts = []
    for name, m in builtin_aggregators(2).items():
        hom = check_homogeneous_m(m, grid)
        dist = check_distributivity(m, prod, grid)
        agree = hom.ok == dist.ok
        parts.append((f"{name}:equivalence",
                      _expect(agree, (hom.ok, dist.ok), hom.samples + dist.samples)))
    return _combined("aggregator-homogeneity-distributivity", parts, ROOT_TOLERANCE)


def _check_weighted_vector_laws(grid: SampleGrid) -> CheckReport:
    parts = []
    aggs = builtin_aggregators(2)
    ones = WeightVector.of(ONE, ONE)
    for name, m in aggs.items():
        parts.append((f"{name}:all-ones", _expect(is_weighted_vector(m, ones), (name,), 1)))
    sample = grid.intervals()
    # Each aggregator's closed form for "the weights aggregate to [1,1]".
    expectations = (
        ("max", lambda w1, w2: w1 == ONE or w2 == ONE),
        ("tsum", lambda w1, w2: math.fsum((w1.lower, w2.lower)) >= 1.0),
    )
    for name, expected in expectations:
        m = aggs[name]
        res = first_violation(
            (w1, w2) if is_weighted_vector(m, WeightVector.of(w1, w2)) != expected(w1, w2)
            else None
            for w1 in sample for w2 in sample
        )
        parts.append((f"{name}:characterization", res))
    return _combined("weighted-vector-characterizations", parts, EXACT)


_THEOREM_CHECKS = {
    "representable-construction": _check_representable_construction,
    "projection-reconstruction": _check_projection_reconstruction,
    "inclusion-monotonicity-characterization": _check_inclusion_monotonicity,
    "no-self-duality": _check_no_self_duality,
    "migrative-commutativity": _check_migrative_commutativity,
    "homogeneous-zero-preservation": _check_homogeneous_zero,
    "homogeneous-unit-idempotency": _check_homogeneous_unit_idempotency,
    "migrative-idempotent-homogeneity": _check_migrative_idempotent_homogeneity,
    "migrative-neutral-homogeneity": _check_migrative_neutral_homogeneity,
    "canonical-family-uniqueness": _check_canonical_uniqueness,
    "generator-idempotent-contractive": _check_generator_laws,
    "associative-neutral-element": _check_associative_neutral,
    "migrative-implies-representable": _check_migrative_implies_representable,
    "migrative-generator-form": _check_migrative_generator_form,
    "homogeneous-projection-orders": _check_homogeneous_projections,
    "strongly-positive-projections": _check_strongly_positive_projections,
    "real-lattice-closure": _check_real_lattice_closure,
    "real-convex-closure": _check_real_convex_closure,
    "gowa-idempotency": _check_gowa_idempotency,
    "gowa-boundary-aggregation": _check_gowa_boundary,
    "gowa-projection-selection": _check_gowa_projection,
    "gowa-arithmetic-mean": _check_gowa_arithmetic_mean,
    "aggregator-homogeneity-distributivity": _check_aggregator_homogeneity_distributivity,
    "weighted-vector-characterizations": _check_weighted_vector_laws,
}

THEOREM_CHECK_IDS = tuple(sorted(_THEOREM_CHECKS)) + (
    "semi-representable-commutativity",
    "semi-representable-zero-boundary",
    "semi-representable-one-boundary",
    "semi-representable-monotonicity",
    "semi-representable-continuity",
)
THEOREM_CHECK_IDS = tuple(sorted(THEOREM_CHECK_IDS))

LATTICE_CHECK_IDS = ("iv-lattice-closure", "power-transform-sandwich")


def run_theorem_suite(grid: SampleGrid = DEFAULT_GRID) -> list[CheckReport]:
    """One report per implemented result; passes on the shipped catalog."""
    reports = [fn(grid) for fn in _THEOREM_CHECKS.values()]
    reports.extend(_check_semi_items(grid))
    return sorted(reports, key=lambda r: (r.check_id, r.target))


def lattice_order_checks(grid: SampleGrid = DEFAULT_GRID) -> list[CheckReport]:
    """Closure of the overlap lattice and the strict power-transform sandwich."""
    cat = real_catalog()
    rep_pp = representable(cat["product"], cat["product"])
    rep_mm = representable(cat["min"], cat["min"])
    mid = midpoint_example()
    prod = interval_product()
    parts = []
    for o1, o2 in ((rep_pp, rep_mm), (prod, mid)):
        for combined in (iv_join(o1, o2), iv_meet(o1, o2)):
            for axiom, res in verify_iv_axioms(combined, grid).items():
                parts.append((f"{combined.name}:{axiom}", res))
    closure = _combined("iv-lattice-closure", parts, EXACT)

    sandwich_parts = []
    interior = interior_intervals(grid.intervals())
    for base in (prod, rep_mm):
        for n in (2, 3):
            lowered = power_transform(base, n, "power")
            raised = power_transform(base, n, "root")
            strict = first_violation(
                (x, y, small, mid_v, big)
                if not (small.lower < mid_v.lower and small.upper < mid_v.upper
                        and mid_v.lower < big.lower and mid_v.upper < big.upper)
                else None
                for x in interior for y in interior
                for small, mid_v, big in [(lowered.fn(x, y), base.fn(x, y), raised.fn(x, y))]
            )
            sandwich_parts.append((f"{base.name}:n={n}", strict))
            for fixed in (ZERO, ONE):
                same = (lowered.fn(fixed, fixed) == base.fn(fixed, fixed) == raised.fn(fixed, fixed))
                sandwich_parts.append((f"{base.name}:n={n}:boundary-{fixed}",
                                       _expect(same, (fixed,), 1)))
    sandwich = _combined("power-transform-sandwich", sandwich_parts, EXACT)
    return sorted([closure, sandwich], key=lambda r: (r.check_id, r.target))


def report_lines(reports: list[CheckReport]) -> list[str]:
    return [r.format_line() for r in reports]


def reports_to_json(reports: list[CheckReport]) -> list[str]:
    return [json.dumps(r.to_dict(), sort_keys=True) for r in reports]

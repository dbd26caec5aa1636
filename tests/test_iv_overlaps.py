import itertools
import json
import math
import random
import tracemalloc
from array import array
from collections import OrderedDict
from itertools import repeat
from operator import ge, sub
from pathlib import Path

import pytest
from hypothesis import given, settings

from conftest import assert_interval_close, intervals, midpoint_closed_form
from ivowa import iv_overlaps, sampling
from ivowa.checks import _projection_axioms, _semi_configs
from ivowa.intervals import (
    DEFAULT_ORDER,
    ExponentInterval,
    Interval,
    IntervalError,
    ONE,
    ZERO,
    endpoint_error,
    leq_product,
    power,
    subseteq,
)
from ivowa.iv_overlaps import (
    IDENTITY,
    SQRT,
    SQUARE,
    ConstructionError,
    IVOverlap,
    Migrative,
    Opaque,
    Representable,
    UnaryGenerator,
    check_associative,
    check_homogeneous,
    check_idempotent,
    check_migrative,
    interval_product,
    is_inclusion_monotonic,
    is_strongly_positive,
    iv_join,
    iv_meet,
    lifted,
    midpoint_example,
    migrative_canonical,
    migrative_from_generator,
    neutral_element_holds,
    power_transform,
    projections,
    reconstructs_from_projections,
    representable,
    semi_representable,
    value_row,
    value_table,
    verify_iv_axioms,
)
from ivowa.overlaps import (
    RealOverlap,
    builtin_overlaps,
    mean_of_components,
    projection_aggregator,
    verify_overlap_axioms,
)
from ivowa.owa import GowaOperator, WeightVector, builtin_aggregators, check_distributivity
from ivowa.registry import generator_catalog, resolve_iv_overlap, standard_overlaps
from ivowa.sampling import (
    CONTINUITY_STAGES,
    DEFAULT_GRID,
    LazyRows,
    SampleGrid,
    SampledResult,
    first_violation,
    max_jump,
)

CAT = builtin_overlaps()
SAMPLE = DEFAULT_GRID.intervals()


class TestRepresentable:
    def test_example_value(self):
        op = representable(CAT["product"], CAT["product"])
        assert_interval_close(op(Interval(0.2, 0.5), Interval(0.4, 0.8)), 0.08, 0.40)
        assert op(ONE, ONE) == ONE
        assert op(ZERO, Interval(0.3, 0.9)) == ZERO

    def test_component_order_enforced(self):
        with pytest.raises(ConstructionError):
            representable(CAT["min"], CAT["product"])

    def test_instances_are_cached(self):
        assert representable(CAT["product"], CAT["min"]) is representable(
            CAT["product"], CAT["min"]
        )

    def test_axioms(self):
        results = verify_iv_axioms(representable(CAT["product"], CAT["product"]))
        assert all(res.ok for res in results.values())

    def test_zero_divisor_lower_component_still_an_overlap(self):
        # With min on the upper endpoints the zero boundary survives even
        # though the lower component has zero divisors; what breaks is
        # strong positivity, and with it the lower projection.
        weak = representable(CAT["lukasiewicz"], CAT["min"])
        results = verify_iv_axioms(weak)
        assert all(res.ok for res in results.values())
        assert not is_strongly_positive(weak).ok

    def test_zero_divisors_on_both_endpoints_break_zero_boundary(self):
        broken = representable(CAT["lukasiewicz"], CAT["lukasiewicz"])
        results = verify_iv_axioms(broken)
        assert not results["o2"].ok
        assert results["o1"].ok


class TestProjections:
    def test_projection_values(self):
        # Points 0.0, 0.4, 0.6, 0.9, 1.0: lows[i][j] is the lower endpoint at
        # ([p_i, p_i], [p_j, p_j]).
        lows, ups = projections(representable(CAT["product"], CAT["min"]),
                                [0.0, 0.4, 0.6, 0.9, 1.0])
        assert lows[1][2] == pytest.approx(0.24, abs=1e-12)
        assert ups[1][2] == pytest.approx(0.4, abs=1e-12)
        assert lows[0][3] == 0.0
        assert ups[4][4] == 1.0

    # The catalog, and the zero-divisor overlap whose lower projection fails GO2.
    @pytest.mark.parametrize("o", [*standard_overlaps().values(),
                                   representable(CAT["lukasiewicz"], CAT["min"])],
                             ids=lambda o: o.name)
    def test_projection_axioms_equal_the_one_pair_reference(self, o):
        # GO1-GO5 read from the projection tables, against the real-overlap
        # walk over one call per degenerate pair; one continuity stage keeps
        # it cheap.
        stages = ((0.05, 0.2),)
        want = {}
        for tag in ("lower", "upper"):
            end = RealOverlap(lambda xs, ys, tag=tag: map(
                lambda x, y: getattr(o(Interval(x, x), Interval(y, y)), tag), xs, ys),
                f"{o.name}:{tag}")
            for axiom, res in verify_overlap_axioms(end, stages=stages).items():
                want[f"{end.name}:{axiom}"] = res
        assert dict(_projection_axioms(o, stages)) == want

    def test_reconstruction_for_representable(self):
        assert reconstructs_from_projections(representable(CAT["product"], CAT["min"])).ok

    def test_reconstruction_fails_for_midpoint(self):
        assert not reconstructs_from_projections(midpoint_example()).ok


class TestStrongPositivity:
    def test_positive_representable(self):
        assert is_strongly_positive(representable(CAT["product"], CAT["product"])).ok

    def test_zero_divisor_counterexample(self):
        weak = representable(CAT["lukasiewicz"], CAT["min"])
        res = is_strongly_positive(weak)
        assert not res.ok
        x, y, value = res.witness
        assert value.lower == 0.0 and value.upper > 0.0
        assert x.lower > 0.0 and y.lower > 0.0
        # The documented violating pair behaves the same way.
        docked = weak(Interval(0.4, 0.6), Interval(0.4, 0.6))
        assert docked.lower == 0.0 and docked.upper > 0.0


class TestInclusionMonotonicity:
    def test_representable_is_inclusion_monotonic(self):
        assert is_inclusion_monotonic(representable(CAT["product"], CAT["product"])).ok

    def test_midpoint_is_not(self):
        res = is_inclusion_monotonic(midpoint_example())
        assert not res.ok
        x_in, x_out, y_in, y_out = res.witness
        assert subseteq(x_in, x_out) and subseteq(y_in, y_out)
        mid = midpoint_example()
        assert not subseteq(mid(x_in, y_in), mid(x_out, y_out))

    def test_documented_nesting_violates(self):
        mid = midpoint_example()
        wide = Interval(0.0, 1.0)
        assert not subseteq(mid(ONE, ONE), mid(wide, wide))


class TestSemiRepresentable:
    def test_collapsing_config_matches_representable(self):
        op = semi_representable(
            projection_aggregator(3), projection_aggregator(4), (CAT["product"],) * 8
        )
        rep = representable(CAT["product"], CAT["product"])
        for x in SAMPLE[::5]:
            for y in SAMPLE[::5]:
                assert op(x, y) == rep(x, y)

    def test_blended_config_is_overlap_but_not_representable(self):
        op = semi_representable(
            projection_aggregator(3), mean_of_components((3, 4)), (CAT["product"],) * 8
        )
        assert_interval_close(op(Interval(0.2, 0.4), Interval(0.5, 1.0)), 0.1, 0.25)
        assert all(res.ok for res in verify_iv_axioms(op).values())
        assert not reconstructs_from_projections(op).ok

    def test_equal_specs_return_one_operator(self):
        def build():
            return semi_representable(
                projection_aggregator(3), projection_aggregator(4), (CAT["product"],) * 8
            )

        assert build() is build()

    def test_swapped_aggregators_rejected(self):
        with pytest.raises(ConstructionError, match="endpoint order"):
            semi_representable(
                projection_aggregator(4), projection_aggregator(3), (CAT["product"],) * 8
            )

    def test_wrong_component_count_rejected(self):
        with pytest.raises(ConstructionError, match="component count"):
            semi_representable(
                projection_aggregator(3), projection_aggregator(4), (CAT["product"],) * 7
            )

    def test_mismatched_symmetric_components_rejected(self):
        parts = (CAT["product"], CAT["min"]) + (CAT["min"],) * 6
        with pytest.raises(ConstructionError, match="commutativity"):
            semi_representable(projection_aggregator(3), projection_aggregator(4), parts)

    def test_mismatched_upper_pair_rejected(self):
        parts = (CAT["product"],) * 4 + (CAT["min"], CAT["product"], CAT["min"], CAT["min"])
        with pytest.raises(ConstructionError, match="upper components"):
            semi_representable(projection_aggregator(3), projection_aggregator(4), parts)

    def test_missing_zero_boundary_rejected(self):
        with pytest.raises(ConstructionError, match="zero boundary"):
            semi_representable(
                mean_of_components((3,)), mean_of_components((3,)), (CAT["product"],) * 8
            )

    def test_component_domination_rejected(self):
        parts = (CAT["min"],) * 4 + (CAT["product"],) * 4
        with pytest.raises(ConstructionError, match="component order"):
            semi_representable(projection_aggregator(3), projection_aggregator(4), parts)


class TestMigrative:
    def test_sqrt_generator_example(self):
        op = migrative_from_generator(generator_catalog()["sqrt"])
        assert op(ONE, Interval(0.25, 0.25)) == Interval(0.5, 0.5)
        assert op(ZERO, Interval(0.7, 0.9)) == ZERO

    def test_identity_generator_is_product(self):
        prod = interval_product()
        x, y = Interval(0.2, 0.5), Interval(0.4, 0.8)
        assert prod(x, y) == prod(y, x)
        assert_interval_close(prod(x, y), 0.08, 0.4)

    def test_invalid_generator_rejected(self):
        collapsing = UnaryGenerator(lifted(lambda lo, up: (1.0, 1.0)), "always-one")
        with pytest.raises(ConstructionError, match="boundary"):
            migrative_from_generator(collapsing)

        def collapse_interior(lo, up):
            return (lo, up) if (lo, up) in ((0.0, 0.0), (1.0, 1.0)) else (lo * 0.0, up * 0.0)

        shrinking = UnaryGenerator(lifted(collapse_interior), "collapse-interior")
        with pytest.raises(ConstructionError, match="interior"):
            migrative_from_generator(shrinking)

    def test_generator_maps_intervals_through_its_endpoint_map(self):
        assert generator_catalog()["square"](Interval(0.5, 0.9)) == Interval(0.25, 0.9**2.0)
        x = Interval(0.2, 0.3)
        assert IDENTITY(x) is x

    @pytest.mark.parametrize("op_id,k", [
        ("product", None),
        ("mig(sqrt)", ExponentInterval.of(0.5)),
        ("mig(square)", ExponentInterval.of(2.0)),
        ("canonical(K=[1,1])", ExponentInterval(0.5, 0.5)),
        ("canonical(K=[1,2])", ExponentInterval(0.5, 1.0)),
        ("canonical(K=[2,2])", ExponentInterval(1.0, 1.0)),
    ])
    def test_catalog_migrative_equals_generator_of_product(self, op_id, k):
        # The reference is the composed form g(XY); the endpoint-map form must
        # give the same bits, not just close values.
        op = resolve_iv_overlap(op_id)
        for x in SAMPLE:
            for y in SAMPLE:
                want = _product(x, y) if k is None else power(_product(x, y), k)
                got = op(x, y)
                assert (got.lower.hex(), got.upper.hex()) == (want.lower.hex(), want.upper.hex())

    def test_canonical_k22_is_product(self):
        op = migrative_canonical(ExponentInterval(2, 2))
        prod = interval_product()
        for x in SAMPLE[::7]:
            for y in SAMPLE[::7]:
                got, want = op(x, y), prod(x, y)
                assert_interval_close(got, want.lower, want.upper)

    def test_canonical_k11_idempotent(self):
        op = migrative_canonical(ExponentInterval(1, 1))
        assert_interval_close(op(Interval(0.25, 0.25), Interval(0.25, 0.25)), 0.25, 0.25)
        assert check_idempotent(op).ok
        assert op(ONE, ONE) == ONE

    def test_check_migrative_on_product(self):
        assert check_migrative(interval_product()).ok

    def test_min_representable_not_migrative(self):
        res = check_migrative(representable(CAT["min"], CAT["min"]))
        assert not res.ok
        # Documented counterexample values.
        op = representable(CAT["min"], CAT["min"])
        alpha, x, y = Interval(0.5, 0.5), ONE, Interval(0.2, 0.2)
        prod = interval_product()
        left = op(prod(alpha, x), y)
        right = op(x, prod(alpha, y))
        assert left == Interval(0.2, 0.2)
        assert right == Interval(0.1, 0.1)

    def test_homogeneity_orders(self):
        assert check_homogeneous(interval_product(), ExponentInterval(2, 2)).ok
        assert not check_homogeneous(interval_product(), ExponentInterval(1, 1)).ok
        assert check_homogeneous(
            migrative_canonical(ExponentInterval(1, 1)), ExponentInterval(1, 1)
        ).ok

    def test_neutral_element(self):
        assert neutral_element_holds(interval_product()).ok
        assert not neutral_element_holds(migrative_canonical(ExponentInterval(1, 1))).ok

    def test_provenance_tags(self):
        assert isinstance(interval_product().provenance, Migrative)
        assert isinstance(representable(CAT["min"], CAT["min"]).provenance, Representable)


class TestPowerTransform:
    def test_example_values(self):
        prod = interval_product()
        half = Interval(0.5, 0.5)
        squared = power_transform(prod, 2, "power")
        assert_interval_close(squared(half, half), 0.0625, 0.0625)
        rooted = power_transform(prod, 2, "root")
        assert_interval_close(rooted(half, half), 0.5, 0.5)

    def test_boundaries_fixed(self):
        prod = interval_product()
        for direction in ("power", "root"):
            op = power_transform(prod, 3, direction)
            assert op(ZERO, ZERO) == ZERO
            assert op(ONE, ONE) == ONE

    def test_degree_validation(self):
        with pytest.raises(ConstructionError):
            power_transform(interval_product(), 1, "power")
        with pytest.raises(ConstructionError):
            power_transform(interval_product(), 2, "sideways")


class TestMidpointExample:
    def test_value_and_closed_form_agree(self):
        mid = midpoint_example()
        wide = Interval(0.0, 1.0)
        assert mid(wide, wide) == Interval(0.25, 0.75)
        assert mid(ONE, ONE) == ONE
        for x in SAMPLE[::3]:
            for y in SAMPLE[::3]:
                got = mid(x, y)
                want = midpoint_closed_form(x, y)
                assert_interval_close(got, want.lower, want.upper)

    def test_axioms_pass(self):
        assert all(res.ok for res in verify_iv_axioms(midpoint_example()).values())


def _rep_formula(g1, g2):
    return lambda x, y: Interval(g1(x.lower, y.lower), g2(x.upper, y.upper))


def _semi_formula(m1, m2, parts):
    g1, g2, g3, g4, g5, g6, g7, g8 = parts
    return lambda x, y: Interval(
        m1(g1(x.lower, y.upper), g2(x.upper, y.lower), g3(x.lower, y.lower), g4(x.upper, y.upper)),
        m2(g5(x.lower, y.upper), g6(x.upper, y.lower), g7(x.lower, y.lower), g8(x.upper, y.upper)),
    )


def _product(x, y):
    """The interval product's formula, [x_l * y_l, x_u * y_u]."""
    return Interval(x.lower * y.lower, x.upper * y.upper)


def _endwise(pick, x, y):
    """`pick` of two intervals, endpoint by endpoint."""
    return Interval(pick(x.lower, y.lower), pick(x.upper, y.upper))


def _contracted(x):
    """x shrunk to half its width around its midpoint."""
    m = (x.lower + x.upper) / 2.0
    return Interval((x.lower + m) / 2.0, (x.upper + m) / 2.0)


def _power_of_product(k):
    return lambda x, y: power(_product(x, y), k)


def _ends_cases():
    """(overlap, the interval formula its column map must reproduce) for
    every constructor."""
    prod, mid = interval_product(), midpoint_example()
    rep_pp = representable(CAT["product"], CAT["product"])
    rep_mm = representable(CAT["min"], CAT["min"])
    pick3, pick4 = projection_aggregator(3), projection_aggregator(4)
    mean34 = mean_of_components((3, 4))
    parts = (CAT["product"],) * 8
    two, third = ExponentInterval.of(2.0), ExponentInterval.of(1.0 / 3.0)
    cases = [(representable(CAT[a], CAT[b]), _rep_formula(CAT[a], CAT[b]))
             for a, b in (("product", "product"), ("product", "min"), ("min", "min"),
                          ("xyp:p=2", "product"), ("lukasiewicz", "min"),
                          ("lukasiewicz", "lukasiewicz"))]
    return cases + [
        (prod, _product),
        (migrative_from_generator(IDENTITY), _product),
        (migrative_from_generator(SQRT), _power_of_product(ExponentInterval.of(0.5))),
        (migrative_from_generator(SQUARE), _power_of_product(two)),
        *[(migrative_canonical(k), _power_of_product(k.halved()))
          for k in (ExponentInterval(1.0, 1.0), ExponentInterval(1.0, 2.0), two)],
        (semi_representable(pick3, pick4, parts), _semi_formula(pick3, pick4, parts)),
        (semi_representable(pick3, mean34, parts), _semi_formula(pick3, mean34, parts)),
        (mid, lambda x, y: _endwise(min, _contracted(x), _contracted(y))),
        (power_transform(prod, 2, "power"), lambda x, y: prod(power(x, two), power(y, two))),
        (power_transform(rep_mm, 3, "root"),
         lambda x, y: rep_mm(power(x, third), power(y, third))),
        (power_transform(mid, 3, "root"), lambda x, y: mid(power(x, third), power(y, third))),
        (iv_join(rep_pp, rep_mm), lambda x, y: _endwise(max, rep_pp(x, y), rep_mm(x, y))),
        (iv_meet(rep_pp, rep_mm), lambda x, y: _endwise(min, rep_pp(x, y), rep_mm(x, y))),
        (iv_join(prod, mid), lambda x, y: _endwise(max, prod(x, y), mid(x, y))),
        (iv_meet(prod, mid), lambda x, y: _endwise(min, prod(x, y), mid(x, y))),
    ]


ENDS_CASES = _ends_cases()


def _hex(columns):
    return list(zip(*(map(float.hex, col) for col in columns)))


@pytest.mark.parametrize("op,formula", ENDS_CASES, ids=[op.name for op, _ in ENDS_CASES])
def test_ends_equal_the_interval_formula(op, formula):
    # The same bits, not just close values: each column map keeps the float
    # operations of its interval formula, in the same order, over the whole
    # grid product in one call, and a row at a time with the first argument
    # repeated and the second read once, as the operator kernel passes its
    # weight and a rank column; the one-pair call agrees.
    pairs = list(itertools.product(SAMPLE, repeat=2))
    want = [(v.lower.hex(), v.upper.hex()) for v in itertools.starmap(formula, pairs)]
    xs, ys = zip(*pairs)
    assert _hex(op.columns(*([getattr(v, end) for v in side]
                             for side in (xs, ys) for end in ("lower", "upper")))) == want
    y_lo, y_up = [y.lower for y in SAMPLE], [y.upper for y in SAMPLE]
    assert [value for x in SAMPLE for value in _hex(op.columns(
        itertools.repeat(x.lower), itertools.repeat(x.upper), iter(y_lo), iter(y_up)))] == want
    assert [(v.lower.hex(), v.upper.hex()) for v in itertools.starmap(op, pairs)] == want


def _semi_pairs(m_lower, m_upper, parts):
    """The semi-representable endpoint map of one argument pair."""
    g1, g2, g3, g4, g5, g6, g7, g8 = parts

    def ends(xl, xu, yl, yu):
        return (m_lower(g1(xl, yu), g2(xu, yl), g3(xl, yl), g4(xu, yu)),
                m_upper(g5(xl, yu), g6(xu, yl), g7(xl, yl), g8(xu, yu)))

    return ends


def _midpoint_pairs(xl, xu, yl, yu):
    """The midpoint overlap's endpoint map of one argument pair."""
    xm = (xl + xu) / 2.0
    ym = (yl + yu) / 2.0
    return min((xl + xm) / 2.0, (yl + ym) / 2.0), min((xu + xm) / 2.0, (yu + ym) / 2.0)


def _column_map_cases():
    ops = _semi_configs()
    return [*((op, lifted(_semi_pairs(*op.provenance))) for op in ops),
            (midpoint_example(), lifted(_midpoint_pairs))]


def _argument_columns(points):
    """Makers of argument columns over every pair of `points`, each call a
    fresh set: whole columns, a row at a time with the first pair repeated, a
    column at a time with the second pair repeated, and empty columns with
    and without a repeated side."""
    pairs = list(itertools.product(points, repeat=2))
    whole = [[p[i] for p in side] for side in zip(*pairs) for i in (0, 1)]
    yield lambda: map(iter, whole)
    lows, ups = [p[0] for p in points], [p[1] for p in points]
    for lo, up in points:
        yield lambda lo=lo, up=up: (repeat(lo), repeat(up), iter(lows), iter(ups))
        yield lambda lo=lo, up=up: (iter(lows), iter(ups), repeat(lo), repeat(up))
    yield lambda: ((), (), (), ())
    yield lambda: (repeat(0.5), repeat(1.0), (), ())
    yield lambda: ((), (), repeat(0.5), repeat(1.0))


COLUMN_MAP_CASES = _column_map_cases()


@pytest.mark.parametrize("op,pairs", COLUMN_MAP_CASES, ids=[op.name for op, _ in COLUMN_MAP_CASES])
@pytest.mark.parametrize("points", [
    [(x.lower, x.upper) for x in SAMPLE],
    [(p, p) for p in SampleGrid(CONTINUITY_STAGES[-1][0]).endpoints()],
], ids=["grid-pairs", "finest-degenerate-points"])
def test_column_maps_equal_their_pair_maps(op, pairs, points):
    # Bit for bit: the column maps of the semi-representable and midpoint
    # overlaps keep the float operations of their one-pair endpoint maps, in
    # the same order, on the 66 x 66 grid pairs and the 201 x 201 degenerate
    # points of the finest continuity stage.
    for columns in _argument_columns(points):
        got = [array("d", col).tobytes() for col in op.columns(*columns())]
        assert got == [array("d", col).tobytes() for col in pairs(*columns())]


def _table_overlap(table, name):
    """The overlap whose value at an argument pair is ``table[pair]``, the
    product's off the table."""

    def columns(*cols):
        values = [table.get(args) or (args[0] * args[2], args[1] * args[3])
                  for args in zip(*cols)]
        return [lo for lo, _ in values], [up for _, up in values]

    return IVOverlap(columns, name, Opaque(name))


def _random_table(seed):
    """A seeded value table on the grid pairs: random in every cell when the
    seed is a multiple of 7; else monotone in the second argument (a
    nondecreasing lower and upper endpoint per row, with ties), and, unless
    the seed is a multiple of 4, with one to three cells set at random and,
    at even odds, one lower endpoint moved a single ulp down."""
    rng = random.Random(seed)
    rank = {p: r for r, p in enumerate(DEFAULT_GRID.endpoints())}
    table = {}
    for x in SAMPLE:
        lows = sorted(rng.choice((0.0, 0.1, 0.25, 0.5)) for _ in rank)
        ups = sorted(rng.choice((0.5, 0.75, 0.9, 1.0)) for _ in rank)
        for y in SAMPLE:
            table[x.lower, x.upper, y.lower, y.upper] = lows[rank[y.lower]], ups[rank[y.upper]]
    cells = list(table)
    if seed % 7 == 0:
        return {cell: tuple(sorted((rng.random(), rng.random()))) for cell in cells}
    if seed % 4:
        for cell in rng.sample(cells, rng.randint(1, 3)):
            table[cell] = tuple(sorted((rng.random(), rng.random())))
        cell = rng.choice(cells)
        lo, up = table[cell]
        if rng.random() < 0.5 and lo > 0.0:
            table[cell] = math.nextafter(lo, 0.0), up
    return table


def comparable_pair_o4(o):
    """O4 walked case by case: for each x, the value rows at every product
    comparable pair (y, y') of the grid, in enumeration order."""
    ends = [(x.lower, x.upper) for x in SAMPLE]
    lows, ups = value_table(o, ends, ends)
    pairs = [(j, k) for j, a in enumerate(SAMPLE) for k, b in enumerate(SAMPLE)
             if leq_product(a, b)]
    return first_violation(
        (x, SAMPLE[j], SAMPLE[k]) if row_lo[j] > row_lo[k] or row_up[j] > row_up[k] else None
        for x, row_lo, row_up in zip(SAMPLE, lows, ups) for j, k in pairs)


@pytest.mark.parametrize("seed", range(24))
def test_o4_covering_pairs_decide_as_the_comparable_pairs(seed):
    # A row is decided on its covering pairs and walked on its comparable
    # pairs only when it fails: the same verdict, witness and sample count.
    o = _table_overlap(_random_table(seed), f"table-{seed}")
    assert verify_iv_axioms(o, stages=((1.0, 1.0),))["o4"] == comparable_pair_o4(o)


def test_o1_to_o4_of_the_product_walk_no_row_case_by_case(monkeypatch):
    # Each row of the value table is decided by C-level passes, so an overlap
    # that holds O1-O4 hands the first-violation loop case counts only.  A
    # memo of its own, so the axioms are walked.
    monkeypatch.setattr(sampling, "_MEMO", OrderedDict())
    rows, walk = [], iv_overlaps.first_violation_in_rows
    monkeypatch.setattr(iv_overlaps, "first_violation_in_rows",
                        lambda items: walk(rows.append(row) or row for row in items))
    results = verify_iv_axioms(interval_product())
    assert all(results[axiom].ok for axiom in ("o1", "o2", "o3", "o4"))
    assert rows and all(isinstance(row, int) for row in rows)


def _inverted_at(o, x, y):
    """`o` with its two endpoints swapped at the one argument pair (x, y)."""
    cell = (x.lower, x.upper, y.lower, y.upper)

    def ends(xl, xu, yl, yu):
        (lo,), (up,) = o.columns((xl,), (xu,), (yl,), (yu,))
        return (up, lo) if (xl, xu, yl, yu) == cell else (lo, up)

    return IVOverlap(lifted(ends), f"inverted({o.name})", Opaque("inverted"))


def _ranking_first(o):
    """The max operator over `o` whose first weight is [0.2,0.6]: a row whose
    largest input is [0.3,0.9] evaluates `o` at the default cell below."""
    return GowaOperator(builtin_aggregators(2)["max"], o,
                        WeightVector.of(Interval(0.2, 0.6), ONE), DEFAULT_ORDER)


_LOW, _TOP = Interval(0.1, 0.2), Interval(0.3, 0.9)


# The default cell is read by every walk on the 0.1 grid; the others sit where
# the associativity walk (0.2 grid), the [1,1] row and column of the neutral
# element, and the diagonal of idempotency read them.
@pytest.mark.parametrize("check, cell", [
    (verify_iv_axioms, None),
    (lambda o: check_distributivity(builtin_aggregators(2)["max"], o), None),
    (is_inclusion_monotonic, None),
    (is_strongly_positive, None),
    (reconstructs_from_projections, None),
    (check_migrative, None),
    (lambda o: check_homogeneous(o, ExponentInterval.of(2.0)), None),
    (check_associative, ((0.2, 0.6), (0.4, 0.8))),
    (neutral_element_holds, ((1.0, 1.0), (0.3, 0.9))),
    (neutral_element_holds, ((0.3, 0.9), (1.0, 1.0))),
    (check_idempotent, ((0.0, 0.1), (0.0, 0.1))),
    (lambda o: _ranking_first(o).columns([[0.1], [0.3]], [[0.2], [0.9]]), None),
    # The failing row sits mid-block.
    (lambda o: list(_ranking_first(o).aggregate_rows(
        [(_LOW, ZERO)] * 9 + [(_LOW, _TOP)] + [(ZERO, _LOW)] * 9)), None),
    (lambda o: _ranking_first(o)((_TOP, ZERO)), None),
    (lambda o: value_row(o, (0.2, 0.6), [(0.0, 0.1), (0.3, 0.9)]), None),
    (lambda o: o(Interval(0.2, 0.6), _TOP), None),
], ids=["axioms", "distributivity", "inclusion", "strong-positivity", "reconstruction",
        "migrative", "homogeneous", "associative", "neutral-row", "neutral-column", "idempotent",
        "operator-columns", "operator-rows", "operator-call", "value-row", "call"])
def test_law_checks_raise_on_a_value_that_is_not_an_interval(check, cell):
    # Column maps build no Interval, so the column check applies its invariant:
    # one inverted grid cell is enough to raise, with the message building
    # that value as an interval gives, on every path that evaluates it.
    (xl, xu), (yl, yu) = cell or ((0.2, 0.6), (0.3, 0.9))
    bad = _inverted_at(interval_product(), Interval(xl, xu), Interval(yl, yu))
    with pytest.raises(IntervalError) as caught:
        check(bad)
    assert str(caught.value) == str(endpoint_error(xu * yu, xl * yl))


def two_probe_o5(o, stages=CONTINUITY_STAGES):
    """Reference O5: the continuity probe of the lower projection, then of
    the upper one, each evaluating `o` afresh on every degenerate grid point."""

    def probe(end):
        total = 0
        for step, bound in stages:
            pts = SampleGrid(step).endpoints()
            rows = [[getattr(o(Interval(x, x), Interval(y, y)), end) for y in pts] for x in pts]
            n = len(pts) - 1
            total += 2 * n * (n + 1)
            worst, where = 0.0, ()
            for i in range(n + 1):
                for j in range(n + 1):
                    if i < n and abs(rows[i + 1][j] - rows[i][j]) > worst:
                        worst, where = abs(rows[i + 1][j] - rows[i][j]), (pts[i], pts[i + 1], pts[j])
                    if j < n and abs(rows[i][j + 1] - rows[i][j]) > worst:
                        worst, where = abs(rows[i][j + 1] - rows[i][j]), (pts[i], pts[j], pts[j + 1])
            if worst >= bound:
                return SampledResult(False, (*where, worst), total)
        return SampledResult(True, None, total)

    res = probe("lower")
    if not res.ok:
        return res
    res_up = probe("upper")
    return SampledResult(res_up.ok, res_up.witness, res.samples + res_up.samples)


def lattice_overlaps():
    rep_pp = representable(CAT["product"], CAT["product"])
    rep_mm = representable(CAT["min"], CAT["min"])
    return [combine(o1, o2) for o1, o2 in ((rep_pp, rep_mm), (interval_product(), midpoint_example()))
            for combine in (iv_join, iv_meet)]


O5_TARGETS = [*standard_overlaps().values(), *lattice_overlaps()]
# A flat lower projection lets the upper probe decide.
FLAT_LOWER = IVOverlap(lifted(lambda xl, xu, yl, yu: (0.0, xu * yu)),
                       "flat-lower", Opaque("flat-lower"))
EARLY_EXIT_TARGETS = [interval_product(), FLAT_LOWER, representable(CAT["product"], CAT["min"])]


# `two_probe_o5` on each of O5_TARGETS, recorded once: the reference takes
# seconds per target, as it evaluates every grid point afresh.  The witness
# (x, x', y, jump) is a list of floats, which JSON keeps exactly.
O5_GOLDEN = Path(__file__).resolve().parent / "golden" / "continuity_o5.jsonl"
O5_PINNED = {rec["id"]: rec for rec in map(json.loads, O5_GOLDEN.read_text().splitlines())}


class TestContinuityAxiom:
    def test_every_target_is_pinned(self):
        assert list(O5_PINNED) == [o.name for o in O5_TARGETS]

    @pytest.mark.parametrize("o", O5_TARGETS, ids=lambda o: o.name)
    def test_equals_two_probe_reference(self, o):
        rec = O5_PINNED[o.name]
        witness = None if rec["witness"] is None else tuple(rec["witness"])
        assert verify_iv_axioms(o)["o5"] == SampledResult(rec["ok"], witness, rec["samples"])

    @pytest.mark.parametrize("stages", [
        ((0.1, 0.05),),
        ((0.1, 1.0), (0.05, 0.01)),
        ((0.1, 1.0), (0.05, 1.0)),
    ], ids=["first-stage", "second-stage", "passes"])
    @pytest.mark.parametrize("o", EARLY_EXIT_TARGETS, ids=lambda o: o.name)
    def test_early_exits_equal_two_probe_reference(self, o, stages):
        assert verify_iv_axioms(o, stages=stages)["o5"] == two_probe_o5(o, stages)


def _full_table_probe(tables):
    """Reference probe over whole value tables ``(bound, pts, rows)``: each
    table scanned by one pass of C-level maps, and `max_jump` naming the
    witness of the first table that reaches its bound."""
    total = 0
    for bound, pts, rows in tables:
        n = len(pts) - 1
        total += 2 * n * (n + 1)
        steps = itertools.chain(
            (map(sub, below, row) for row, below in zip(rows, rows[1:])),
            (map(sub, itertools.islice(row, 1, None), row) for row in rows),
        )
        if any(map(ge, map(abs, itertools.chain.from_iterable(steps)), repeat(bound))):
            jump, where = max_jump(pts, rows)
            return SampledResult(False, (*where, jump), total)
    return SampledResult(True, None, total)


def _full_table_o5(o, stages):
    """Reference O5: the lower projection's stage tables, then the upper
    one's, each stage's two tables built whole, once, on first use."""
    tables = LazyRows(lambda step: projections(o, SampleGrid(step).endpoints()))
    return _full_table_probe((bound, SampleGrid(step).endpoints(), tables[step][end])
                             for end in (0, 1) for step, bound in stages)


def _full_table_go5(g, stages):
    """Reference GO5 of a real function over its whole stage tables."""
    return _full_table_probe(
        (bound, pts, [list(g.columns(repeat(x), pts)) for x in pts])
        for step, bound in stages for pts in [SampleGrid(step).endpoints()])


def _outcome(probe):
    try:
        return probe()
    except IntervalError as error:
        return str(error)


def _step(t, at, size):
    return size if t > at else 0.0


def _with_cell(ends, cell, value):
    """`ends` with `value` at the one point pair `cell`."""
    return lambda x, y: value if (x, y) == cell else ends(x, y)


# The sample counts of the stages, 2n(n+1): 840 on the 0.05 grid and
# 80,400 on the 0.005 grid.
S1, S2 = 840, 80_400
INVALID = "invalid interval endpoints [1.0, 0.5]"
# Endpoint pairs (lower, upper) of an overlap at the degenerate arguments
# ([x, x], [y, y]), the cells its projections read, with the (verdict,
# samples) of their probe, or the message it raises.
PROBE_CASES = {
    "passes": (lambda x, y: (x * y, min(x, y)), (True, 2 * (S1 + S2))),
    "lower-stage-1": (lambda x, y: (_step(x, 0.5, 0.5), 1.0), (False, S1)),
    "lower-stage-2": (lambda x, y: (_step(x, 0.5, 0.05), 1.0), (False, S1 + S2)),
    "upper-stage-1": (lambda x, y: (x * y / 2, x * y / 2 + _step(x, 0.5, 0.5)),
                      (False, S1 + S2 + S1)),
    "upper-stage-2": (lambda x, y: (x * y / 2, x * y / 2 + _step(y, 0.5, 0.05)),
                      (False, 2 * (S1 + S2))),
    "both-stage-1": (lambda x, y: (_step(x, 0.5, 0.5), _step(x, 0.5, 0.5)), (False, S1)),
    "upper-stage-1-lower-stage-2": (lambda x, y: (
        x * y / 4 + _step(y, 0.5, 0.05), x * y / 4 + _step(y, 0.5, 0.05) + _step(x, 0.25, 0.5)),
        (False, S1 + S2)),
    "equal-then-diverging-by-a-jump": (lambda x, y: (
        x * y / 2, x * y / 2 + (0.3 if x > 0.5 and y > 0.5 else 0.0)), (False, S1 + S2 + S1)),
    "equal-then-diverging-smoothly": (lambda x, y: (
        x * y / 2, x * y / 2 + max(0.0, x - 0.5) / 4), (True, 2 * (S1 + S2))),
    "diverging-then-equal-by-a-jump": (lambda x, y: (
        x * y / 2, x * y / 2 + _step(0.5, x, 0.3)), (False, S1 + S2 + S1)),
    "diverging-then-equal-smoothly": (lambda x, y: (
        x * y / 2, x * y / 2 + max(0.0, 0.5 - x) / 4), (True, 2 * (S1 + S2))),
    "invalid-after-reaching-stage-1": (_with_cell(lambda x, y: (_step(x, 0.25, 0.5), 1.0),
                                                  (0.9, 0.9), (1.0, 0.5)), INVALID),
    "invalid-after-reaching-stage-2": (_with_cell(lambda x, y: (_step(x, 0.25, 0.05), 1.0),
                                                  (0.905, 0.905), (1.0, 0.5)), INVALID),
    "invalid-in-a-passing-probe": (_with_cell(lambda x, y: (x * y, 1.0), (0.5, 0.5), (1.0, 0.5)),
                                   INVALID),
}


@pytest.mark.parametrize("name", PROBE_CASES)
def test_streamed_o5_equals_the_full_table_probe(name):
    # Verdict, witness and sample count, or the message of the first
    # invalid value, which the streamed probe raises even after it has
    # stopped at a reaching row.
    ends, expected = PROBE_CASES[name]
    o = IVOverlap(lifted(lambda xl, xu, yl, yu: ends(xl, yl)), name, Opaque(name))
    got = _outcome(lambda: iv_overlaps._check_o5(o, CONTINUITY_STAGES))
    assert got == _outcome(lambda: _full_table_o5(o, CONTINUITY_STAGES))
    assert (got if isinstance(got, str) else (got.ok, got.samples)) == expected


def _nan_at(cells, f):
    return lambda x, y: math.nan if (x, y) in cells else f(x, y)


# Real functions, whose values are not checked: a NaN jump reaches nothing.
REAL_PROBE_CASES = {
    "nan-passes": _nan_at({(0.5, 0.5)}, lambda x, y: x * y),
    "nan-leading-the-last-row-and-its-jump": _nan_at(
        {(1.0, 0.0)}, lambda x, y: x * y + (0.5 if x == 1.0 and y > 0.75 else 0.0)),
    "nan-then-jump": _nan_at({(0.25, 0.25)}, lambda x, y: x * y + _step(x, 0.5, 0.5)),
    "nan-row-then-small-jump": _nan_at({(0.1, y) for y in SampleGrid(0.005).endpoints()},
                                       lambda x, y: _step(y, 0.5, 0.05)),
}


@pytest.mark.parametrize("name", REAL_PROBE_CASES)
def test_streamed_go5_equals_the_full_table_probe(name):
    g = RealOverlap(lambda xs, ys: map(REAL_PROBE_CASES[name], xs, ys), name)
    assert verify_overlap_axioms(g)["go5"] == _full_table_go5(g, CONTINUITY_STAGES)


class TestLatticeOps:
    def test_join_meet_values(self):
        a = representable(CAT["product"], CAT["product"])
        b = representable(CAT["min"], CAT["min"])
        x, y = Interval(0.4, 0.6), Interval(0.5, 0.7)
        assert iv_join(a, b)(x, y) == b(x, y)
        assert iv_meet(a, b)(x, y) == a(x, y)

    def test_join_is_overlap_within_a_traced_bound(self):
        # The continuity probe streams the projections' 201 x 201 stage
        # tables, two rows at a time: the walk peaks near 0.53 MB, where it
        # peaked near 1.17 MB holding each stage's two tables as doubles.
        o = iv_join(interval_product(), midpoint_example())
        tracemalloc.start()
        try:
            results = verify_iv_axioms(o)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(res.ok for res in results.values())
        assert peak < 1_150_000


class TestRandomizedLaws:
    @given(intervals(), intervals(), intervals())
    @settings(max_examples=200)
    def test_product_migrates_factors(self, alpha, x, y):
        prod = interval_product()
        left = prod(prod(alpha, x), y)
        right = prod(x, prod(alpha, y))
        assert left.lower == pytest.approx(right.lower, abs=1e-9)
        assert left.upper == pytest.approx(right.upper, abs=1e-9)

    @given(intervals(), intervals(), intervals(), intervals())
    @settings(max_examples=200)
    def test_representable_nests_on_random_nestings(self, a, b, c, d):
        op = representable(CAT["product"], CAT["min"])
        # Nested pairs by construction: each first interval sits inside the
        # hull it forms with the second.
        outer_x = Interval(min(a.lower, b.lower), max(a.upper, b.upper))
        outer_y = Interval(min(c.lower, d.lower), max(c.upper, d.upper))
        assert subseteq(op(a, c), op(outer_x, outer_y))

    @given(intervals())
    @settings(max_examples=100)
    def test_midpoint_forms_agree_on_random_inputs(self, x):
        mid = midpoint_example()
        got = mid(x, x)
        want = midpoint_closed_form(x, x)
        assert got.lower == pytest.approx(want.lower, abs=1e-12)
        assert got.upper == pytest.approx(want.upper, abs=1e-12)

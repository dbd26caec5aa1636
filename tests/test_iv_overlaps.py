import pytest
from hypothesis import given, settings

from conftest import assert_interval_close, intervals
from ivowa.intervals import ExponentInterval, Interval, ONE, ZERO, power, product, subseteq
from ivowa.iv_overlaps import (
    IDENTITY,
    ConstructionError,
    IVOverlap,
    Migrative,
    Opaque,
    Representable,
    UnaryGenerator,
    check_homogeneous,
    check_idempotent,
    check_migrative,
    interval_product,
    is_inclusion_monotonic,
    is_strongly_positive,
    iv_join,
    iv_meet,
    midpoint_closed_form,
    midpoint_example,
    migrative_canonical,
    migrative_from_generator,
    neutral_element_holds,
    power_transform,
    projections,
    reconstructs_from_projections,
    representable,
    semi_representable,
    verify_iv_axioms,
)
from ivowa.overlaps import mean_of_components, projection_aggregator
from ivowa.registry import generator_catalog, real_catalog, resolve_iv_overlap, standard_overlaps
from ivowa.sampling import CONTINUITY_STAGES, DEFAULT_GRID, SampleGrid, SampledResult

CAT = real_catalog()
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
        lower, upper = projections(representable(CAT["product"], CAT["min"]))
        assert lower(0.4, 0.6) == pytest.approx(0.24, abs=1e-12)
        assert upper(0.4, 0.6) == pytest.approx(0.4, abs=1e-12)
        assert lower(0.0, 0.9) == 0.0
        assert upper(1.0, 1.0) == 1.0

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
        collapsing = UnaryGenerator(lambda lo, up: (1.0, 1.0), "always-one")
        with pytest.raises(ConstructionError, match="boundary"):
            migrative_from_generator(collapsing)

        def collapse_interior(lo, up):
            return (lo, up) if (lo, up) in ((0.0, 0.0), (1.0, 1.0)) else (lo * 0.0, up * 0.0)

        shrinking = UnaryGenerator(collapse_interior, "collapse-interior")
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
                want = product(x, y) if k is None else power(product(x, y), k)
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
        from ivowa.intervals import product as iv_product

        left = op(iv_product(alpha, x), y)
        right = op(x, iv_product(alpha, y))
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


def two_probe_o5(o, stages=CONTINUITY_STAGES):
    """Reference O5: the continuity probe of the lower projection, then of
    the upper one, each evaluating `o` afresh on every degenerate grid point."""

    def probe(end):
        total = 0
        for step, bound in stages:
            pts = SampleGrid(step).endpoints()
            rows = [[getattr(o.fn(Interval(x, x), Interval(y, y)), end) for y in pts] for x in pts]
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
FLAT_LOWER = IVOverlap(lambda x, y: Interval(0.0, x.upper * y.upper),
                       "flat-lower", Opaque("flat-lower"))
EARLY_EXIT_TARGETS = [interval_product(), FLAT_LOWER, representable(CAT["product"], CAT["min"])]


class TestContinuityAxiom:
    @pytest.mark.parametrize("o", O5_TARGETS, ids=lambda o: o.name)
    def test_equals_two_probe_reference(self, o):
        assert verify_iv_axioms(o)["o5"] == two_probe_o5(o)

    @pytest.mark.parametrize("stages", [
        ((0.1, 0.05),),
        ((0.1, 1.0), (0.05, 0.01)),
        ((0.1, 1.0), (0.05, 1.0)),
    ], ids=["first-stage", "second-stage", "passes"])
    @pytest.mark.parametrize("o", EARLY_EXIT_TARGETS, ids=lambda o: o.name)
    def test_early_exits_equal_two_probe_reference(self, o, stages):
        assert verify_iv_axioms(o, stages=stages)["o5"] == two_probe_o5(o, stages)


class TestLatticeOps:
    def test_join_meet_values(self):
        a = representable(CAT["product"], CAT["product"])
        b = representable(CAT["min"], CAT["min"])
        x, y = Interval(0.4, 0.6), Interval(0.5, 0.7)
        assert iv_join(a, b)(x, y) == b(x, y)
        assert iv_meet(a, b)(x, y) == a(x, y)


class TestRandomizedLaws:
    @given(intervals(), intervals(), intervals())
    @settings(max_examples=200)
    def test_product_migrates_factors(self, alpha, x, y):
        prod = interval_product()
        from ivowa.intervals import product as iv_product

        left = prod(iv_product(alpha, x), y)
        right = prod(x, iv_product(alpha, y))
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

import math
import random

import pytest

from conftest import assert_interval_close, random_interval
from ivowa.intervals import (
    AdmissibleOrder,
    ExponentInterval,
    Interval,
    ONE,
    ZERO,
    format_interval,
    leq_product,
)
from ivowa.iv_overlaps import interval_product, migrative_canonical, representable
from ivowa.owa import (
    GowaError,
    WeightError,
    WeightVector,
    absorption_holds,
    builtin_aggregators,
    check_distributivity,
    check_homogeneous_m,
    check_order_monotonicity,
    is_weighted_vector,
    iv_gowa,
    make_gowa,
    non_saturating,
    normalize_weights,
    projection_owa,
)
from ivowa.registry import real_catalog, resolve_iv_overlap
from ivowa.sampling import DEFAULT_GRID

AGG2 = builtin_aggregators(2)
PRODUCT = interval_product()


class TestAggregators:
    def test_truncated_sum_saturates(self):
        got = AGG2["tsum"]([Interval(0.5, 0.7), Interval(0.6, 0.8)])
        assert got == ONE

    def test_max_identity_for_single_input(self):
        one_ary = builtin_aggregators(1)["max"]
        x = Interval(0.3, 0.9)
        assert one_ary([x]) == x

    def test_geometric_mean_example(self):
        got = AGG2["geomean"]([Interval(0.1, 0.2), Interval(0.4, 0.9)])
        assert_interval_close(got, 0.2, 0.4242640687119285, tol=1e-12)

    def test_dirac_values(self):
        assert AGG2["dirac"]([ONE, Interval(0.2, 0.4)]) == ONE
        assert AGG2["dirac"]([Interval(0.9, 1.0), Interval(0.2, 0.4)]) == ZERO

    def test_arity_enforced(self):
        with pytest.raises(WeightError):
            AGG2["max"]([ONE])


class TestWeightedVectors:
    def test_all_ones_weighted_for_every_kind(self):
        ones = WeightVector.of(ONE, ONE)
        for m in AGG2.values():
            assert is_weighted_vector(m, ones), m.name

    def test_max_characterization(self):
        assert is_weighted_vector(AGG2["max"], WeightVector.of(ONE, Interval(0.1, 0.4)))
        assert not is_weighted_vector(AGG2["max"], WeightVector.of(Interval(0.5, 1.0), Interval(0.1, 0.4)))

    def test_tsum_characterization(self):
        assert is_weighted_vector(AGG2["tsum"], WeightVector.of(Interval(0.5, 0.5), Interval(0.5, 0.9)))
        assert not is_weighted_vector(AGG2["tsum"], WeightVector.of(Interval(0.4, 0.5), Interval(0.5, 0.9)))

    def test_arity_mismatch(self):
        with pytest.raises(WeightError):
            is_weighted_vector(AGG2["max"], WeightVector.of(ONE))

    def test_empty_vector_rejected(self):
        with pytest.raises(WeightError):
            WeightVector(())


class TestNormalization:
    def test_tsum_example(self):
        w = WeightVector.of(Interval(0.25, 0.3), Interval(0.25, 0.4))
        normalized = normalize_weights(AGG2["tsum"], w)
        assert_interval_close(normalized[0], 0.5, 0.6)
        assert_interval_close(normalized[1], 0.5, 0.8)
        assert is_weighted_vector(AGG2["tsum"], normalized)

    def test_idempotent(self):
        w = WeightVector.of(Interval(0.25, 0.3), Interval(0.25, 0.4))
        once = normalize_weights(AGG2["tsum"], w)
        twice = normalize_weights(AGG2["tsum"], once)
        for a, b in zip(once, twice):
            assert_interval_close(a, b.lower, b.upper)

    def test_binary64_deficit_fixup(self):
        # Dividing these lowers by their sum leaves the quotient sum one ulp
        # short of 1; normalization must still produce an exact weight vector.
        lowers = (0.5406858855321425, 0.5709136896467344, 0.5602572770128127)
        total = math.fsum(lowers)
        assert math.fsum(v / total for v in lowers) < 1.0
        m3 = builtin_aggregators(3)["tsum"]
        w = WeightVector.of(*(Interval(v, v) for v in lowers))
        assert is_weighted_vector(m3, normalize_weights(m3, w))

    def test_normalize_uniform_thirds(self):
        third = Interval(1.0 / 3.0, 1.0 / 3.0)
        m3 = builtin_aggregators(3)["tsum"]
        normalized = normalize_weights(m3, WeightVector.of(third, third, third))
        assert is_weighted_vector(m3, normalized)

    def test_max_normalization(self):
        m = AGG2["max"]
        w = WeightVector.of(Interval(0.1, 0.4), Interval(0.2, 0.8))
        normalized = normalize_weights(m, w)
        assert normalized[1] == ONE
        assert_interval_close(normalized[0], 0.125, 0.5)
        assert is_weighted_vector(m, normalized)

    def test_rejections(self):
        with pytest.raises(WeightError):
            normalize_weights(AGG2["tsum"], WeightVector.of(ZERO, ZERO))
        with pytest.raises(WeightError):
            normalize_weights(AGG2["geomean"], WeightVector.of(ONE, ONE))
        with pytest.raises(WeightError):
            normalize_weights(AGG2["dirac"], WeightVector.of(ONE, ONE))


class TestDistributivity:
    def test_geometric_mean_with_product(self):
        assert check_distributivity(AGG2["geomean"], PRODUCT).ok

    def test_max_with_product(self):
        assert check_distributivity(AGG2["max"], PRODUCT).ok

    def test_dirac_fails_with_any_overlap(self):
        res = check_distributivity(AGG2["dirac"], PRODUCT)
        assert not res.ok
        *xs, y = res.witness
        assert any(x == ONE for x in xs)

    def test_tsum_saturation(self):
        unrestricted = check_distributivity(AGG2["tsum"], PRODUCT)
        assert not unrestricted.ok
        restricted = check_distributivity(AGG2["tsum"], PRODUCT, restrict=non_saturating)
        assert restricted.ok
        assert restricted.samples > 0


class TestHomogeneity:
    def test_verdicts(self):
        assert check_homogeneous_m(AGG2["max"]).ok
        assert check_homogeneous_m(AGG2["geomean"]).ok
        assert not check_homogeneous_m(AGG2["tsum"]).ok
        assert not check_homogeneous_m(AGG2["dirac"]).ok

    def test_dirac_documented_witness(self):
        m = AGG2["dirac"]
        alpha = Interval(0.5, 0.5)
        scaled = m([Interval(0.5, 0.5), Interval(0.5, 0.5)])
        assert scaled == ZERO
        from ivowa.intervals import product

        assert product(alpha, m([ONE, ONE])) == alpha


class TestGowaOperator:
    def test_truncated_sum_example(self):
        op = make_gowa(AGG2["tsum"], PRODUCT, WeightVector.uniform(2))
        got = op([Interval(0.2, 0.4), Interval(0.6, 0.8)])
        assert_interval_close(got, 0.4, 0.6)
        assert op.saturation_witness is not None

    def test_geometric_mean_example(self):
        op = make_gowa(AGG2["geomean"], PRODUCT, WeightVector.of(ONE, ONE))
        got = op([Interval(0.1, 0.2), Interval(0.4, 0.9)])
        assert_interval_close(got, 0.2, 0.4242640687119285)

    def test_idempotent_on_sample(self):
        op = make_gowa(AGG2["geomean"], PRODUCT, WeightVector.of(ONE, ONE))
        for c in DEFAULT_GRID.intervals()[::5]:
            assert_interval_close(op([c, c]), c.lower, c.upper)

    def test_boundary_vectors(self):
        op = make_gowa(AGG2["tsum"], PRODUCT, WeightVector.uniform(2))
        assert op([ZERO, ZERO]) == ZERO
        assert op([ONE, ONE]) == ONE

    def test_iv_gowa_one_shot(self):
        xs = [Interval(0.2, 0.4), Interval(0.6, 0.8)]
        got = iv_gowa(AGG2["tsum"], PRODUCT, WeightVector.uniform(2),
                      AdmissibleOrder.LEX1, xs)
        assert_interval_close(got, 0.4, 0.6)

    def test_rejects_unnormalized_weights(self):
        with pytest.raises(GowaError, match="not normalized"):
            make_gowa(AGG2["tsum"], PRODUCT, WeightVector.of(Interval(0.1, 0.2), Interval(0.1, 0.3)))

    def test_rejects_overlap_without_neutral_element(self):
        sqrt_overlap = migrative_canonical(ExponentInterval(1, 1))
        with pytest.raises(GowaError, match="neutral"):
            make_gowa(AGG2["geomean"], sqrt_overlap, WeightVector.of(ONE, ONE))

    def test_rejects_non_distributive_pair(self):
        cat = real_catalog()
        min_overlap = representable(cat["min"], cat["min"])
        with pytest.raises(GowaError, match="distribute"):
            make_gowa(AGG2["geomean"], min_overlap, WeightVector.of(ONE, ONE))

    def test_rejects_dirac_configuration(self):
        with pytest.raises(GowaError, match="distribute"):
            make_gowa(AGG2["dirac"], PRODUCT, WeightVector.of(ONE, Interval(0.2, 0.5)))

    def test_arity_mismatch(self):
        op = make_gowa(AGG2["tsum"], PRODUCT, WeightVector.uniform(2))
        with pytest.raises(GowaError):
            op([ONE])

    def test_monotone_when_permutations_agree(self):
        op = make_gowa(AGG2["tsum"], PRODUCT, WeightVector.uniform(2))
        rng = random.Random(99)
        for _ in range(300):
            lo = [random_interval(rng), random_interval(rng)]
            hi = [Interval(min(x.lower + 0.1, 1.0), min(x.upper + 0.1, 1.0)) for x in lo]
            if op.order.ranks_descending(lo) != op.order.ranks_descending(hi):
                continue
            assert leq_product(op(lo), op(hi))


class TestProjectionOwa:
    def test_selects_largest(self):
        m3 = builtin_aggregators(3)["tsum"]
        xs = [Interval(0.3, 0.3), Interval(0.7, 0.9), Interval(0.1, 0.5)]
        assert projection_owa(m3, 1, xs) == Interval(0.7, 0.9)
        assert projection_owa(m3, 3, xs) == Interval(0.1, 0.5)

    def test_single_input(self):
        m1 = builtin_aggregators(1)["tsum"]
        x = Interval(0.42, 0.9)
        assert projection_owa(m1, 1, [x]) == x

    def test_ties_keep_input_order(self):
        m2 = AGG2["max"]
        tie = Interval(0.5, 0.5)
        assert absorption_holds(m2).ok
        assert projection_owa(m2, 1, [tie, tie]) == tie

    def test_rejects_non_absorbing_aggregator(self):
        with pytest.raises(GowaError, match="absorb"):
            projection_owa(AGG2["geomean"], 1, [ONE, ONE])

    def test_respects_order_parameter(self):
        m2 = AGG2["tsum"]
        xs = [Interval(0.1, 0.9), Interval(0.3, 0.4)]
        # Lower-first order ranks [0.3,0.4] on top; upper-first the other one.
        assert projection_owa(m2, 1, xs, AdmissibleOrder.LEX1) == Interval(0.3, 0.4)
        assert projection_owa(m2, 1, xs, AdmissibleOrder.LEX2) == Interval(0.1, 0.9)


class TestAbsorption:
    def test_verdicts(self):
        assert absorption_holds(AGG2["tsum"]).ok
        assert absorption_holds(AGG2["max"]).ok
        assert not absorption_holds(AGG2["geomean"]).ok
        assert not absorption_holds(AGG2["dirac"]).ok


class TestOrderMonotonicityReport:
    def test_mean_configuration_is_order_monotone(self):
        op = make_gowa(AGG2["tsum"], PRODUCT, WeightVector.uniform(2))
        assert check_order_monotonicity(op).ok

    def test_geomean_configuration_is_not(self):
        # Total-order monotonicity genuinely fails here: a zero lower
        # endpoint hides the upper endpoints from the lower-first comparison.
        op = make_gowa(AGG2["geomean"], PRODUCT, WeightVector.of(ONE, ONE))
        res = check_order_monotonicity(op)
        assert not res.ok
        lo_vec, hi_vec = list(res.witness[:2]), list(res.witness[2:])
        assert all(op.order.leq(a, b) for a, b in zip(lo_vec, hi_vec))
        assert not op.order.leq(op(lo_vec), op(hi_vec))


# (aggregator, arity, overlap, restriction, ok, witness, samples) as the eager
# sampler produced them; make_gowa's budgets: 300k at n=2, 100k above.
DISTRIBUTIVITY_PINS = [
    ('max', 2, 'product', None, True, None, 287496),
    ('tsum', 2, 'product', None, False, '[0.0,0.1] [0.0,1.0] [0.0,0.1]', 5018),
    ('tsum', 2, 'product', 'non_saturating', True, None, 66066),
    ('geomean', 2, 'product', None, True, None, 287496),
    ('dirac', 2, 'product', None, False, '[0.0,0.0] [1.0,1.0] [0.0,0.1]', 4292),
    ('max', 2, 'rep(min,min)', None, True, None, 287496),
    ('tsum', 2, 'rep(min,min)', None, False, '[0.0,0.1] [0.0,0.1] [0.0,0.1]', 4424),
    ('tsum', 2, 'rep(min,min)', 'non_saturating', False, '[0.0,0.1] [0.0,0.1] [0.0,0.1]', 4424),
    ('geomean', 2, 'rep(min,min)', None, False, '[0.0,0.1] [0.0,0.3] [0.0,0.2]', 4557),
    ('dirac', 2, 'rep(min,min)', None, False, '[0.0,0.0] [1.0,1.0] [0.0,0.1]', 4292),
    ('max', 2, 'rep(product,min)', None, True, None, 287496),
    ('tsum', 2, 'rep(product,min)', None, False, '[0.0,0.1] [0.0,0.1] [0.0,0.1]', 4424),
    ('tsum', 2, 'rep(product,min)', 'non_saturating', False, '[0.0,0.1] [0.0,0.1] [0.0,0.1]', 4424),
    ('geomean', 2, 'rep(product,min)', None, False, '[0.0,0.1] [0.0,0.3] [0.0,0.2]', 4557),
    ('dirac', 2, 'rep(product,min)', None, False, '[0.0,0.0] [1.0,1.0] [0.0,0.1]', 4292),
    ('max', 3, 'product', None, True, None, 100000),
    ('tsum', 3, 'product', None, False, '[0.0,0.4] [0.0,0.4] [0.0,0.4] [0.0,0.4]', 5),
    ('tsum', 3, 'product', 'non_saturating', True, None, 2821),
    ('geomean', 3, 'product', None, True, None, 100000),
    ('dirac', 3, 'product', None, False, '[1.0,1.0] [0.3,0.6] [0.3,0.6] [0.3,0.6]', 75),
    ('max', 3, 'rep(min,min)', None, True, None, 100000),
    ('tsum', 3, 'rep(min,min)', None, False, '[0.0,0.1] [0.0,0.1] [0.0,0.1] [0.0,0.1]', 2),
    ('tsum', 3, 'rep(min,min)', 'non_saturating', False, '[0.0,0.1] [0.0,0.1] [0.0,0.1] [0.0,0.1]', 2),
    ('geomean', 3, 'rep(min,min)', None, False, '[0.7,1.0] [0.1,0.7] [0.0,1.0] [0.9,0.9]', 93),
    ('dirac', 3, 'rep(min,min)', None, False, '[1.0,1.0] [0.3,0.6] [0.3,0.6] [0.3,0.6]', 75),
    ('max', 3, 'rep(product,min)', None, True, None, 100000),
    ('tsum', 3, 'rep(product,min)', None, False, '[0.0,0.1] [0.0,0.1] [0.0,0.1] [0.0,0.1]', 2),
    ('tsum', 3, 'rep(product,min)', 'non_saturating', False, '[0.0,0.1] [0.0,0.1] [0.0,0.1] [0.0,0.1]', 2),
    ('geomean', 3, 'rep(product,min)', None, False, '[0.7,1.0] [0.1,0.7] [0.0,1.0] [0.9,0.9]', 93),
    ('dirac', 3, 'rep(product,min)', None, False, '[1.0,1.0] [0.3,0.6] [0.3,0.6] [0.3,0.6]', 75),
    ('max', 6, 'product', None, True, None, 100000),
    ('tsum', 6, 'product', None, False, '[0.0,0.2] [0.0,0.2] [0.0,0.2] [0.0,0.2] [0.0,0.2] [0.0,0.2] [0.0,0.2]', 3),
    ('tsum', 6, 'product', 'non_saturating', True, None, 17),
    ('geomean', 6, 'product', None, True, None, 100000),
    ('dirac', 6, 'product', None, False, '[1.0,1.0] [0.3,0.6] [0.3,0.6] [0.3,0.6] [0.3,0.6] [0.3,0.6] [0.3,0.6]', 81),
    ('max', 6, 'rep(min,min)', None, True, None, 100000),
    ('tsum', 6, 'rep(min,min)', None, False, '[0.0,0.1] [0.0,0.1] [0.0,0.1] [0.0,0.1] [0.0,0.1] [0.0,0.1] [0.0,0.1]', 2),
    ('tsum', 6, 'rep(min,min)', 'non_saturating', False, '[0.0,0.1] [0.0,0.1] [0.0,0.1] [0.0,0.1] [0.0,0.1] [0.0,0.1] [0.0,0.1]', 2),
    ('geomean', 6, 'rep(min,min)', None, False, '[0.0,0.4] [0.4,1.0] [0.1,0.7] [0.0,0.3] [0.3,0.4] [0.9,0.9] [0.2,0.7]', 109),
    ('dirac', 6, 'rep(min,min)', None, False, '[1.0,1.0] [0.3,0.6] [0.3,0.6] [0.3,0.6] [0.3,0.6] [0.3,0.6] [0.3,0.6]', 81),
    ('max', 6, 'rep(product,min)', None, True, None, 100000),
    ('tsum', 6, 'rep(product,min)', None, False, '[0.0,0.1] [0.0,0.1] [0.0,0.1] [0.0,0.1] [0.0,0.1] [0.0,0.1] [0.0,0.1]', 2),
    ('tsum', 6, 'rep(product,min)', 'non_saturating', False, '[0.0,0.1] [0.0,0.1] [0.0,0.1] [0.0,0.1] [0.0,0.1] [0.0,0.1] [0.0,0.1]', 2),
    ('geomean', 6, 'rep(product,min)', None, False, '[0.0,0.4] [0.4,1.0] [0.1,0.7] [0.0,0.3] [0.3,0.4] [0.9,0.9] [0.2,0.7]', 109),
    ('dirac', 6, 'rep(product,min)', None, False, '[1.0,1.0] [0.3,0.6] [0.3,0.6] [0.3,0.6] [0.3,0.6] [0.3,0.6] [0.3,0.6]', 81),
]
PIN_OVERLAPS = {
    oid: resolve_iv_overlap(oid) for oid in ("product", "rep(min,min)", "rep(product,min)")
}


@pytest.mark.parametrize("name,n,overlap,restriction,ok,witness,samples", DISTRIBUTIVITY_PINS)
def test_distributivity_verdicts_are_pinned(name, n, overlap, restriction, ok, witness, samples):
    m = builtin_aggregators(n)[name]
    restrict = {None: None, "non_saturating": non_saturating}[restriction]
    res = check_distributivity(m, PIN_OVERLAPS[overlap], restrict=restrict,
                               budget=300_000 if n <= 2 else 100_000)
    got = None if res.witness is None else " ".join(map(format_interval, res.witness))
    assert (res.ok, got, res.samples) == (ok, witness, samples)

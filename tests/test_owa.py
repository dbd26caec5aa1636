import csv
import io
import itertools
import json
import math
import random
import tracemalloc
from array import array
from collections import OrderedDict
from operator import mul
from pathlib import Path

import pytest

from conftest import assert_interval_close, nudged_at, opaque, random_interval
from ivowa.intervals import (
    AdmissibleOrder,
    ExponentInterval,
    Interval,
    IntervalError,
    ONE,
    ZERO,
    format_interval,
    leq_product,
    parse_interval,
)
from ivowa import checks, iv_overlaps, owa, sampling
from ivowa.cli import RunConfig, rank_matrix
from ivowa.matrix import parse_matrix_text
from ivowa.iv_overlaps import (
    IVOverlap,
    UnaryGenerator,
    check_homogeneous,
    check_migrative,
    endpoint_maps,
    interval_product,
    iv_join,
    lifted,
    midpoint_example,
    migrative_canonical,
    migrative_from_generator,
    representable,
    separable_tables,
)
from ivowa.overlaps import RealOverlap, builtin_overlaps
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
    make_gowa,
    normalize_weights,
    projection_owa,
)
from ivowa.registry import resolve_aggregator, resolve_iv_overlap, standard_overlaps
from ivowa.sampling import (
    DEFAULT_GRID,
    REAL_GRID,
    ROOT_TOLERANCE,
    SAMPLE_SEED,
    SampleGrid,
    SampledResult,
    tuple_samples,
)

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

    @pytest.mark.parametrize("order", AdmissibleOrder, ids=lambda order: order.value)
    def test_dirac_values(self, order):
        dirac = resolve_aggregator("dirac", 2, order)
        assert dirac([ONE, Interval(0.2, 0.4)]) == ONE
        assert dirac([Interval(0.9, 1.0), Interval(0.2, 0.4)]) == ZERO
        # [1,1] is the largest input under every admissible order exactly
        # when it is an input.
        for v in itertools.product(DEFAULT_GRID.intervals(), repeat=2):
            by_order = ONE if max(v, key=order.sort_key) == ONE else ZERO
            assert dirac(v) == (ONE if ONE in v else ZERO) == by_order, v

    def test_arity_enforced(self):
        with pytest.raises(WeightError):
            AGG2["max"]([ONE])


AGGREGATOR_FORMULAS = {
    "max": lambda v: Interval(max(x.lower for x in v), max(x.upper for x in v)),
    "tsum": lambda v: Interval(min(1.0, math.fsum(x.lower for x in v)),
                               min(1.0, math.fsum(x.upper for x in v))),
    # The left fold of the endpoint products, raised to the n-th root.
    "geomean": lambda v: Interval(math.prod(x.lower for x in v) ** (1.0 / len(v)),
                                  math.prod(x.upper for x in v) ** (1.0 / len(v))),
    "dirac": lambda v: ONE if ONE in v else ZERO,
}


def _aggregator_inputs(n):
    """The n-tuples of both input sets: every grid tuple up to n = 3 (287,496
    of them at n = 3) and, above, the corner tuples and a seeded fill, as the
    sampled law walks read them; then, at n = 3..10, 500 seeded tuples drawn
    from the grid and from random intervals."""
    grid = DEFAULT_GRID.intervals()
    if n in (1, 2, 3, 6, 10):
        yield from tuple_samples(grid, n, budget=300_000 if n <= 3 else 20_000)
    rng = random.Random(SAMPLE_SEED)
    pool = grid + [random_interval(rng) for _ in grid]
    for arity in range(3, 11):
        for _ in range(500):
            t = tuple(rng.choice(pool) for _ in range(arity))
            if arity == n:
                yield t


def _first_difference(tuples, lowers, uppers, want):
    """The first tuple whose result differs from the wanted interval in any
    bit, with both as float hex, or None."""
    if (array("d", lowers).tobytes(), array("d", uppers).tobytes()) == (
            array("d", [w.lower for w in want]).tobytes(),
            array("d", [w.upper for w in want]).tobytes()):
        return None
    return next((t, (lo.hex(), up.hex()), (w.lower.hex(), w.upper.hex()))
                for t, lo, up, w in zip(tuples, lowers, uppers, want)
                if (lo.hex(), up.hex()) != (w.lower.hex(), w.upper.hex()))


@pytest.mark.parametrize("n", range(1, 11))
@pytest.mark.parametrize("name", AGGREGATOR_FORMULAS)
def test_aggregator_columns_equal_the_interval_formula(name, n):
    # The same bits: each column map keeps the float operations of its
    # interval formula, in the same order, over many tuples at once and in
    # the one-tuple call.
    m = builtin_aggregators(n)[name]
    tuples = list(_aggregator_inputs(n))
    want = list(map(AGGREGATOR_FORMULAS[name], tuples))
    got = m.columns([[x.lower for x in col] for col in zip(*tuples)],
                    [[x.upper for x in col] for col in zip(*tuples)])
    assert _first_difference(tuples, *got, want) is None
    calls = [m(t) for t in tuples]
    assert _first_difference(tuples, [x.lower for x in calls], [x.upper for x in calls],
                             want) is None
    # The sampled walks pass one-shot maps, so a column map reads each
    # column once.
    once = m.columns([iter([x.lower for x in col]) for col in zip(*tuples)],
                     [iter([x.upper for x in col]) for col in zip(*tuples)])
    assert _first_difference(tuples, *once, want) is None


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
        restricted = check_distributivity(AGG2["tsum"], PRODUCT, restrict=True)
        assert restricted.ok
        assert restricted.samples > 0


def _fresh_product() -> IVOverlap:
    """The interval product under a new identity, so no memo entry holds it."""
    return IVOverlap(PRODUCT.columns, PRODUCT.name, PRODUCT.provenance)


def _count_tuple_samples(monkeypatch) -> list[int]:
    calls = [0]
    draw = owa.tuple_samples

    def counted(*args, **kwargs):
        calls[0] += 1
        return draw(*args, **kwargs)

    monkeypatch.setattr(owa, "tuple_samples", counted)
    return calls


class TestValidationMemo:
    def test_keyword_form_with_defaults_shares_the_entry(self, monkeypatch):
        calls = _count_tuple_samples(monkeypatch)
        o = _fresh_product()
        first = check_distributivity(AGG2["dirac"], o, DEFAULT_GRID)
        assert calls[0] == 1
        again = check_distributivity(AGG2["dirac"], o, grid=DEFAULT_GRID, tol=ROOT_TOLERANCE,
                                     restrict=False, budget=300_000)
        assert calls[0] == 1
        assert again == first

    def test_both_orders_validate_once(self, monkeypatch):
        calls = _count_tuple_samples(monkeypatch)
        o = _fresh_product()
        w = normalize_weights(builtin_aggregators(3)["tsum"], WeightVector.uniform(3))
        lex = make_gowa(resolve_aggregator("tsum", 3, AdmissibleOrder.LEX1), o, w,
                        AdmissibleOrder.LEX1)
        drawn = calls[0]
        assert drawn > 0
        xu = make_gowa(resolve_aggregator("tsum", 3, AdmissibleOrder.XU_YAGER), o, w,
                       AdmissibleOrder.XU_YAGER)
        assert calls[0] == drawn
        assert xu.saturation_witness == lex.saturation_witness


def test_max_is_decided_by_one_binary_walk(monkeypatch):
    # `max` passes the binary walk at tolerance 0 over the product, which
    # decides it at every arity above 2: one walk, shared by n = 3..10.  Over
    # the separable product it is one real walk; over the same columns under
    # an opaque provenance, one interval walk.  n = 2 walks itself, at the
    # caller's tolerance: one more walk over each.
    monkeypatch.setattr(sampling, "_MEMO", OrderedDict())
    drawn = _count_tuple_samples(monkeypatch)
    hidden, m2 = opaque(PRODUCT), builtin_aggregators(2)["max"]

    def walks():
        return tuple([key[1:] for key in sampling._MEMO if key[0] is fn.__wrapped__]
                     for fn in (check_distributivity, owa._real_distributes))

    for n in (*range(3, 11), 2):
        for o in (PRODUCT, hidden):
            make_gowa(builtin_aggregators(n)["max"], o, WeightVector.selector(n, 1))
        if n == 10:
            assert walks() == ([(m2, hidden, DEFAULT_GRID, 0.0, False, 300_000)],
                               [(m2, PRODUCT, DEFAULT_GRID, 0.0, False)])
            assert drawn[0] == 1
    assert walks() == ([(m2, hidden, DEFAULT_GRID, tol, False, 300_000)
                        for tol in (0.0, ROOT_TOLERANCE)],
                       [(m2, PRODUCT, DEFAULT_GRID, tol, False) for tol in (0.0, ROOT_TOLERANCE)])
    assert drawn[0] == 2


# The product nudged at the upper endpoint of O([0.3,0.7], [0.5,0.6]).  By
# 1e-6, the binary `max` walk fails at ([0.0,0.7], [0.3,0.3], [0.5,0.6]) and
# the sampled walks above n = 2 fail too, on these witnesses; by 1e-12,
# within ROOT_TOLERANCE, it fails at tolerance 0 only.
MAX_NUDGE = (Interval(0.3, 0.7), Interval(0.5, 0.6), 1)
MAX_REJECTIONS = {
    3: "[0.3,0.7] [0.5,0.6] [0.4,0.6] [0.5,0.6]",
    10: "[0.5,0.5] [0.4,0.7] [0.0,0.7] [0.5,0.6] [0.6,0.6] [0.3,0.7] [0.1,0.1] [0.0,0.6] "
        "[0.5,0.5] [0.2,0.5] [0.5,0.6]",
}


@pytest.mark.parametrize("n", MAX_REJECTIONS)
def test_max_failing_the_binary_walk_is_rejected_by_its_own_walk(n):
    o = nudged_at(PRODUCT, *MAX_NUDGE, 1e-6)
    binary = check_distributivity(AGG2["max"], o, tol=0.0)
    assert " ".join(map(format_interval, binary.witness)) == "[0.0,0.7] [0.3,0.3] [0.5,0.6]"
    m = builtin_aggregators(n)["max"]
    with pytest.raises(GowaError) as rejected:
        make_gowa(m, o, WeightVector.selector(n, 1))
    assert str(rejected.value) == ("aggregator max does not distribute over nudged(product); "
                                   f"witness {MAX_REJECTIONS[n]}")
    # The binary witness (A, B, Y) lifts to the n-ary case (A, B, ..., B, Y):
    # the same max of the same values.
    a, b, y = binary.witness
    xs = [a, *[b] * (n - 1)]
    lhs, rhs = m([o(x, y) for x in xs]), o(m(xs), y)
    assert max(abs(lhs.lower - rhs.lower), abs(lhs.upper - rhs.upper)) > ROOT_TOLERANCE


@pytest.mark.parametrize("n", [2, 3, 10])
def test_max_within_the_tolerance_is_accepted_by_its_own_walk(n):
    o = nudged_at(PRODUCT, *MAX_NUDGE, 1e-12)
    assert not check_distributivity(AGG2["max"], o, tol=0.0).ok
    make_gowa(builtin_aggregators(n)["max"], o, WeightVector.selector(n, 1))


@pytest.mark.parametrize("overlap", ["midpoint", "nudged"])
def test_binary_max_failing_at_its_tolerance_is_walked_once(monkeypatch, overlap):
    # Binary `max` is walked at the caller's tolerance: the failing reduction
    # walk is the walk that names the witness, so there is no second walk.
    monkeypatch.setattr(sampling, "_MEMO", OrderedDict())
    m = builtin_aggregators(2)["max"]
    o = nudged_at(PRODUCT, *MAX_NUDGE, 1e-6) if overlap == "nudged" else resolve_iv_overlap(overlap)
    dist, saturation = owa._distributes(m, o, ROOT_TOLERANCE)
    walks = [key[1:] for key in sampling._MEMO if key[0] is check_distributivity.__wrapped__]
    assert walks == [(m, o, DEFAULT_GRID, ROOT_TOLERANCE, False, 300_000)]
    assert (dist, saturation) == (check_distributivity(m, o), None)
    assert not dist.ok


@pytest.mark.parametrize("tol", [math.nan, -1.0, -1e-300])
def test_a_nan_or_negative_tolerance_is_refused(tol):
    # Under NaN every distributivity case would hold, so dirac, which cannot
    # distribute over the product (README), was accepted; under a negative
    # tolerance every aggregator was rejected as not distributing.
    with pytest.raises(GowaError, match=f"tolerance must be a number >= 0, got {tol!r}"):
        make_gowa(AGG2["dirac"], PRODUCT, WeightVector.of(ONE, Interval(0.2, 0.5)), tol=tol)


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
        assert PRODUCT(alpha, m([ONE, ONE])) == alpha


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

    def test_rejects_unnormalized_weights(self):
        with pytest.raises(GowaError, match="not normalized"):
            make_gowa(AGG2["tsum"], PRODUCT, WeightVector.of(Interval(0.1, 0.2), Interval(0.1, 0.3)))

    def test_rejects_overlap_without_neutral_element(self):
        sqrt_overlap = migrative_canonical(ExponentInterval(1, 1))
        with pytest.raises(GowaError, match=r"neutral element \[1,1\]; witness \[0.0,0.1\] \["):
            make_gowa(AGG2["geomean"], sqrt_overlap, WeightVector.of(ONE, ONE))

    def test_rejects_non_distributive_pair(self):
        cat = builtin_overlaps()
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


# Weights that each catalog aggregator at n = 3 maps to exactly [1,1], and
# the (aggregator, overlap) pairs among these overlaps that make_gowa accepts.
GOWA_WEIGHTS = {
    "max": WeightVector.of(Interval(0.2, 0.5), ONE, Interval(0.4, 0.7)),
    "tsum": WeightVector.of(Interval(0.5, 0.6), Interval(0.25, 0.5), Interval(0.25, 0.25)),
    "geomean": WeightVector.of(ONE, ONE, ONE),
    "dirac": WeightVector.of(Interval(0.2, 0.5), ONE, ZERO),
}
GOWA_OVERLAPS = ("product", "rep(min,min)", "rep(product,min)")
GOWA_ACCEPTED = [("max", "product"), ("max", "rep(min,min)"), ("max", "rep(product,min)"),
                 ("tsum", "product"), ("geomean", "product")]


def test_make_gowa_accepts_exactly_the_differential_pairs():
    accepted = []
    for name, oid in itertools.product(GOWA_WEIGHTS, GOWA_OVERLAPS):
        try:
            make_gowa(builtin_aggregators(3)[name], resolve_iv_overlap(oid), GOWA_WEIGHTS[name])
        except GowaError:
            continue
        accepted.append((name, oid))
    assert accepted == GOWA_ACCEPTED


def _gowa_rows(count):
    """Seeded 3-input rows over a pool of 30 intervals, [0,0] and [1,1]
    among them, so that rows repeat inputs."""
    rng = random.Random(count)
    pool = SampleGrid(0.25).intervals() + [random_interval(rng) for _ in range(15)]
    return [[rng.choice(pool) for _ in range(3)] for _ in range(count)]


def _hexes(values):
    return [(x.lower.hex(), x.upper.hex()) for x in values]


@pytest.mark.parametrize("order", AdmissibleOrder, ids=lambda order: order.value)
@pytest.mark.parametrize("name,oid", GOWA_ACCEPTED)
def test_aggregate_rows_equal_the_interval_reference(name, oid, order):
    # Bit for bit against the operator written with intervals: each row
    # sorted descending, O(W_k, X_(k)) by the overlap's call, and the
    # aggregator's interval formula.  The row counts cross block boundaries
    # (blocks of 8, 16, ...).
    op = make_gowa(builtin_aggregators(3)[name], resolve_iv_overlap(oid), GOWA_WEIGHTS[name],
                   order)
    formula = AGGREGATOR_FORMULAS[name]

    def reference(row):
        ranked = sorted(row, key=order.sort_key, reverse=True)
        return formula([op.overlap(w, x) for w, x in zip(op.weights, ranked)])

    for count in (0, 1, 7, 8, 9, 1000):
        rows = _gowa_rows(count)
        want = _hexes(map(reference, rows))
        assert _hexes(op.aggregate_rows(rows)) == want, count
    assert _hexes(map(op, rows[:100])) == want[:100]


@pytest.mark.parametrize("order", AdmissibleOrder, ids=lambda order: order.value)
@pytest.mark.parametrize("name", ["max", "tsum", "geomean"])
def test_operator_columns_equal_aggregate_rows_across_blocks(name, order):
    # 1,300 rows cross two 512-row block edges of the kernel; every 50th row
    # holds keys that tie but for the sign of a zero endpoint.
    op = make_gowa(builtin_aggregators(3)[name], PRODUCT, GOWA_WEIGHTS[name], order)
    rows = _gowa_rows(1300)
    for i in range(0, 1300, 50):
        rows[i] = [Interval(-0.0, 0.3), Interval(0.0, 0.3), rows[i][2]]
    cols = list(zip(*rows))
    lowers, uppers = op.columns([[x.lower for x in col] for col in cols],
                                [[x.upper for x in col] for col in cols])
    assert list(zip(map(float.hex, lowers), map(float.hex, uppers))) == _hexes(
        op.aggregate_rows(rows))


def _matrix_text(count):
    """A seeded CSV matrix of three criteria over a pool of 31 cells, so that
    cells and rows repeat; the pool holds [0,0] and [1,1], two cells that tie
    under every order but for the sign of a zero, and two whose xuyager sum
    and width collide.  A degenerate cell is now and then a bare number."""
    rng = random.Random(count)
    pool = SampleGrid(0.25).intervals() + [random_interval(rng) for _ in range(12)] + [
        Interval(-0.0, 0.3), Interval(0.0, 0.3), Interval(0.22, 0.78),
        Interval(0.22000000000000003, 0.78)]
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["alternative", "c1", "c2", "c3"])
    for i in range(count):
        cells = [rng.choice(pool) for _ in range(3)]
        writer.writerow([f"a{i}", *(repr(x.lower) if x.degenerate and rng.random() < 0.5
                                    else format_interval(x) for x in cells)])
    return out.getvalue()


@pytest.mark.parametrize("order", AdmissibleOrder, ids=lambda order: order.value)
@pytest.mark.parametrize("name,oid", GOWA_ACCEPTED)
def test_rank_matrix_equals_the_interval_reference(name, oid, order):
    # Bit for bit against a ranking written with intervals: each cell read by
    # parse_interval, each row sorted descending, O(W_k, X_(k)) by the
    # overlap's call, the aggregator's interval formula, then the aggregates
    # sorted descending (stable, so ties keep matrix order).
    config = RunConfig(name, oid, GOWA_WEIGHTS[name], order)
    overlap, formula = resolve_iv_overlap(oid), AGGREGATOR_FORMULAS[name]

    def hexes(rank, label, x, key):
        return rank, label, x.lower.hex(), x.upper.hex(), [k.hex() for k in key]

    for count in (1, 8, 9, 513):
        text = _matrix_text(count)
        rows = list(csv.reader(io.StringIO(text)))[1:]
        aggregates = [formula([overlap(w, x) for w, x in zip(
            config.weights, sorted(map(parse_interval, row[1:]), key=order.sort_key,
                                   reverse=True))]) for row in rows]
        ranks = sorted(range(count), key=lambda i: order.sort_key(aggregates[i]), reverse=True)
        want = [hexes(pos + 1, rows[i][0], aggregates[i], order.sort_key(aggregates[i]))
                for pos, i in enumerate(ranks)]
        ranking, _ = rank_matrix(config, parse_matrix_text(text, "csv"))
        assert [hexes(r.rank, r.alternative, r.aggregate, r.key) for r in ranking] == want, count


def test_parse_and_rank_hold_one_block_of_rows_at_a_time():
    # A 5,000 x 10 tsum x product xuyager job, validated first.  The reader
    # holds one block of csv rows and the kernel one block of keys and sorted
    # rows, not the whole matrix's: whole-matrix forms peaked at 11.1 MB in
    # the parse and 13.0 MB in the rank.
    rng = random.Random(5000)

    def cell():
        a, b = sorted(round(rng.random(), 3) for _ in range(2))
        return repr(a) if rng.random() < 0.15 else f'"[{a!r},{b!r}]"'

    lines = ["alternative," + ",".join(f"c{j}" for j in range(10))]
    lines += [",".join([f"a{i}", *(cell() for _ in range(10))]) for i in range(5000)]
    text = "\n".join(lines) + "\n"
    config = RunConfig("tsum", "product", WeightVector.uniform(10), AdmissibleOrder.XU_YAGER,
                       normalize=True)
    rank_matrix(config, parse_matrix_text("\n".join(lines[:3]), "csv"))
    tracemalloc.start()
    try:
        matrix = parse_matrix_text(text, "csv")
        parse_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        ranking, _ = rank_matrix(config, matrix)
        rank_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ranking) == 5000
    assert parse_peak <= 9_000_000
    assert rank_peak <= 8_000_000


def test_aggregate_rows_rejects_a_row_of_the_wrong_length_in_its_block():
    op = make_gowa(AGG2["tsum"], PRODUCT, WeightVector.uniform(2))
    values = op.aggregate_rows([[ONE, ONE]] * 9 + [[ONE]])
    # The first block (8 rows) holds only good rows; the second holds the bad one.
    assert list(itertools.islice(values, 8)) == [ONE] * 8
    with pytest.raises(GowaError, match=r"^operator expects 2 inputs, got 1$"):
        next(values)
    with pytest.raises(GowaError, match=r"^operator expects 2 inputs, got 3$"):
        op([ONE, ONE, ONE])


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
        with pytest.raises(GowaError, match=r"absorb zero padding: \[0.0,0.1\] at position 1"):
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


RANK_REVERSAL_WEIGHTS = WeightVector.of(Interval(0.2, 0.3), ONE, Interval(0.0, 0.5))


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

    @pytest.mark.parametrize("order", AdmissibleOrder, ids=lambda order: order.value)
    def test_product_order_monotonicity_is_not_guaranteed(self, order):
        # Raising the first input from [0,0] to [0.25,0.25] moves it ahead of
        # [0,0.5] under lex1, so [0,0.5] meets the weight [0.5,0.5]: the value
        # falls from [0,0.5] to [0.25,0.25], not above it in the product
        # order.  lex2 and xuyager rank [0,0.5] first either way.
        op = make_gowa(AGG2["max"], PRODUCT, WeightVector.of(ONE, Interval(0.5, 0.5)), order)
        low, high = [ZERO, Interval(0.0, 0.5)], [Interval(0.25, 0.25), Interval(0.0, 0.5)]
        assert all(map(leq_product, low, high))
        got = op(low), op(high)
        if order is AdmissibleOrder.LEX1:
            assert got == (Interval(0.0, 0.5), Interval(0.25, 0.25))
            assert not leq_product(*got)
        else:
            assert leq_product(*got)

    @pytest.mark.parametrize("order", AdmissibleOrder, ids=lambda order: order.value)
    def test_raising_an_input_can_lower_the_aggregate_at_n3(self, order):
        # Raising the third input from [0,0] to [0.1,0.1] moves it ahead of
        # [0,0.4] under lex1, so [0,0.4] meets the weight [0,0.5] in place of
        # [1,1]: the aggregate falls from [0.1,0.4] to [0.1,0.21].  lex2 and
        # xuyager rank [0,0.4] second either way.
        op = make_gowa(builtin_aggregators(3)["max"], PRODUCT, RANK_REVERSAL_WEIGHTS, order)
        low, high = ([Interval(0.5, 0.7), Interval(0.0, 0.4), x]
                     for x in (ZERO, Interval(0.1, 0.1)))
        assert all(map(leq_product, low, high))
        want = Interval(0.1, 0.21) if order is AdmissibleOrder.LEX1 else Interval(0.1, 0.4)
        assert (op(low), op(high)) == (Interval(0.1, 0.4), want)

    @pytest.mark.parametrize("order", AdmissibleOrder, ids=lambda order: order.value)
    def test_the_dominating_row_ranks_second_under_lex1(self, order):
        # The same pair as a matrix, the dominating row first: it ties under
        # lex2 and xuyager, keeping matrix order, and ranks second under lex1.
        text = ('alternative,c1,c2,c3\n'
                'raised,"[0.5,0.7]","[0,0.4]",0.1\nbase,"[0.5,0.7]","[0,0.4]",0\n')
        ranking, _ = rank_matrix(RunConfig("max", "product", RANK_REVERSAL_WEIGHTS, order),
                                 parse_matrix_text(text, "csv"))
        got = [(r.alternative, format_interval(r.aggregate)) for r in ranking]
        if order is AdmissibleOrder.LEX1:
            assert got == [("base", "[0.1,0.4]"), ("raised", "[0.1,0.21]")]
        else:
            assert got == [("raised", "[0.1,0.4]"), ("base", "[0.1,0.4]")]


# The sampled checks walk grid indices; this reference predicate is the
# Interval form it replaced, kept as an oracle.
def interval_non_saturating(xs, y):
    return math.fsum(x.upper for x in xs) <= 1.0


def assert_restriction_keeps_what_the_interval_predicate_kept(monkeypatch, grid, n, budget):
    # A memo of its own, so the walk runs rather than hitting an entry.
    monkeypatch.setattr(sampling, "_MEMO", OrderedDict())
    asked, walked = [], []
    predicate, blocks = owa.non_saturating, owa._blocks
    monkeypatch.setattr(owa, "non_saturating",
                        lambda uppers: asked.append(predicate(uppers)) or asked[-1])
    monkeypatch.setattr(owa, "_blocks",
                        lambda cases: (walked.extend(b) or b for b in blocks(cases)))
    res = check_distributivity(builtin_aggregators(n)["tsum"], PRODUCT, grid=grid,
                               restrict=True, budget=budget)
    items = grid.intervals()
    cases = tuple_samples(items, n + 1, budget)
    if cases.exhaustive:
        # The restriction reads x1..xn only: it is asked once per xs, in
        # product order, and keeps or drops the whole row of ys.
        want = [interval_non_saturating(xs, None)
                for xs in itertools.product(items, repeat=n)]
        assert asked == want
        assert res == SampledResult(True, None, sum(want) * len(items))
    else:
        kept = [t for t in cases if interval_non_saturating(t[:-1], t[-1])]
        assert [tuple(map(items.__getitem__, t)) for t in walked] == kept
        assert res == SampledResult(True, None, len(kept))


@pytest.mark.parametrize("grid", [DEFAULT_GRID, REAL_GRID], ids=["0.1", "0.05"])
@pytest.mark.parametrize("n", range(2, 11))
def test_restriction_keeps_the_tuples_the_interval_predicate_kept(monkeypatch, grid, n):
    budget = 300_000 if n <= 2 else 100_000
    assert_restriction_keeps_what_the_interval_predicate_kept(monkeypatch, grid, n, budget)


# Long tuples (n = 26 at step 0.1), and the 351 intervals of the 0.04 grid,
# which are drawn as index lists, not bytes.
@pytest.mark.parametrize("grid,n,budget", [
    (DEFAULT_GRID, 26, 3_000),
    (SampleGrid(1 / 25), 3, 20_000),
    (SampleGrid(1 / 25), 9, 5_000),
])
def test_restriction_on_long_tuples_and_large_pools(monkeypatch, grid, n, budget):
    assert_restriction_keeps_what_the_interval_predicate_kept(monkeypatch, grid, n, budget)


def test_failing_restricted_walk_draws_at_most_one_fill_block(monkeypatch):
    # rep(min,min) fails the restricted tsum walk on its second tuple, which
    # the head holds: the restricted walk must not draw the fill ahead of it.
    monkeypatch.setattr(sampling, "_MEMO", OrderedDict())
    drawn, draws = [], sampling._draws
    monkeypatch.setattr(sampling, "_draws",
                        lambda *args: (drawn.append(b) or b for b in draws(*args)))
    res = check_distributivity(builtin_aggregators(6)["tsum"], resolve_iv_overlap("rep(min,min)"),
                               restrict=True, budget=100_000)
    assert (res.ok, res.samples) == (False, 2)
    assert len(drawn) <= 1


# The verdicts of the Interval form of the homogeneity walk, recorded once:
# over each drawn (alpha, x1..xn), M([alpha.lower * x.lower, alpha.upper *
# x.upper] for each x) against alpha times M(x1..xn), endpoint by endpoint,
# within ROOT_TOLERANCE; the witness is the first tuple outside it, as
# endpoint pairs, which JSON keeps exactly.  n=2 walks the whole cross
# product; n=3 a sample, at a smaller budget.
HOMOGENEITY_GOLDEN = Path(__file__).resolve().parent / "golden" / "homogeneity_m.jsonl"
HOMOGENEITY_PINNED = {rec["id"]: rec for rec in map(json.loads,
                                                     HOMOGENEITY_GOLDEN.read_text().splitlines())}
HOMOGENEITY_CASES = [(name, n, budget) for n, budget in [(2, 300_000), (3, 30_000)]
                     for name in ["max", "tsum", "geomean", "dirac"]]


def test_every_homogeneity_case_is_pinned():
    assert list(HOMOGENEITY_PINNED) == [f"{name}/n={n}/budget={budget}"
                                        for name, n, budget in HOMOGENEITY_CASES]


@pytest.mark.parametrize("name,n,budget", HOMOGENEITY_CASES)
def test_homogeneity_matches_the_interval_walk(name, n, budget):
    rec = HOMOGENEITY_PINNED[f"{name}/n={n}/budget={budget}"]
    witness = None if rec["witness"] is None else tuple(Interval(*x) for x in rec["witness"])
    m = builtin_aggregators(n)[name]
    assert check_homogeneous_m(m, budget=budget) == SampledResult(rec["ok"], witness,
                                                                  rec["samples"])


def test_sampled_homogeneity_walk_stores_no_aggregate_per_tuple(monkeypatch):
    # A sampled walk seldom meets an xs twice, so keeping one aggregate per
    # drawn xs held about 13 MB at this budget; only the exhaustive walk keeps
    # them.  A memo of its own, so the walk runs rather than hitting an entry.
    monkeypatch.setattr(sampling, "_MEMO", OrderedDict())
    m = builtin_aggregators(3)["max"]
    tracemalloc.start()
    try:
        res = check_homogeneous_m(m, budget=100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res == SampledResult(True, None, 100_000)
    assert peak < 5_000_000


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
    res = check_distributivity(m, PIN_OVERLAPS[overlap], restrict=restriction is not None,
                               budget=300_000 if n <= 2 else 100_000)
    got = None if res.witness is None else " ".join(map(format_interval, res.witness))
    assert (res.ok, got, res.samples) == (ok, witness, samples)


# The n=2 walks decide only their cases with x1 <= x2.  The reference decides
# every case, one at a time in product order, with lone calls.
GRID_25 = SampleGrid(0.25)
NUDGES_25 = [
    ((0.0, 0.25), (0.5, 1.0), 1, 1e-6),
    ((0.25, 0.5), (0.0, 0.25), 0, 1e-6),
    ((0.5, 0.75), (1.0, 1.0), 1, -1e-6),
    ((0.75, 1.0), (0.25, 0.75), 0, 1e-6),
    ((1.0, 1.0), (0.5, 0.5), 0, -1e-6),
    ((0.0, 0.5), (0.0, 0.0), 1, 1e-6),
]
OVERLAPS_25 = {
    **standard_overlaps(),
    **{f"nudged@{x}x{y}:{'lu'[end]}{delta:+}":
       nudged_at(PRODUCT, Interval(*x), Interval(*y), end, delta)
       for x, y, end, delta in NUDGES_25},
}


def first_failure_by_case(cases, fails):
    """The verdict of a walk that decides every case in order."""
    count = 0
    for count, case in enumerate(cases, 1):
        if fails(case):
            return SampledResult(False, case, count)
    return SampledResult(True, None, count)


def outside(lhs, rhs, tol=ROOT_TOLERANCE):
    return abs(lhs.lower - rhs.lower) > tol or abs(lhs.upper - rhs.upper) > tol


@pytest.mark.parametrize("overlap", OVERLAPS_25)
@pytest.mark.parametrize("name,restrict", [("max", False), ("tsum", False), ("tsum", True),
                                           ("geomean", False), ("dirac", False)])
def test_binary_distributivity_equals_the_walk_of_every_case(name, restrict, overlap):
    m, o = AGG2[name], OVERLAPS_25[overlap]
    cases = (case for case in itertools.product(GRID_25.intervals(), repeat=3)
             if not restrict or interval_non_saturating(case[:2], None))
    want = first_failure_by_case(cases, lambda case: outside(
        m([o(case[0], case[2]), o(case[1], case[2])]), o(m(case[:2]), case[2])))
    assert check_distributivity(m, o, grid=GRID_25, restrict=restrict) == want


# The product of the two inputs, symmetric and homogeneous of order 2: its
# walk first fails on the diagonal, at x1 = x2 = [0,0.25].
PRODUCT_AGGREGATOR = owa.IVAggregator(lambda lo, up: (list(map(mul, *lo)), list(map(mul, *up))),
                                      2, owa.AggregatorKind.GEOMETRIC_MEAN, "product")


@pytest.mark.parametrize("name", [*AGG2, "product"])
def test_binary_homogeneity_equals_the_walk_of_every_case(name):
    m = AGG2.get(name, PRODUCT_AGGREGATOR)

    def fails(case):
        alpha, *xs = case
        base = m(xs)
        return outside(m([PRODUCT(alpha, x) for x in xs]),
                       Interval(alpha.lower * base.lower, alpha.upper * base.upper))

    want = first_failure_by_case(itertools.product(GRID_25.intervals(), repeat=3), fails)
    assert check_homogeneous_m(m, grid=GRID_25) == want


def test_binary_aggregators_are_symmetric_bit_for_bit():
    # Over every pair of 0.1-grid intervals and of intervals with a signed
    # zero endpoint: swapping the inputs gives the same floats, `max` up to
    # the sign of a zero, which the walks cannot see.
    pool = [*DEFAULT_GRID.intervals(), Interval(-0.0, -0.0), Interval(-0.0, 0.5)]
    firsts, seconds = zip(*itertools.product(pool, repeat=2))
    ends = [([x.lower for x in col], [x.upper for x in col]) for col in (firsts, seconds)]
    for name, m in AGG2.items():
        (lo1, up1), (lo2, up2) = ends
        got = m.columns([lo1, lo2], [up1, up2])
        swapped = m.columns([lo2, lo1], [up2, up1])
        for a, b in zip(itertools.chain(*got), itertools.chain(*swapped)):
            assert a.hex() == b.hex() or (name == "max" and a == b == 0.0), (name, a, b)


@pytest.mark.parametrize("name", ["max", "geomean"])
def test_binary_walks_decide_only_their_x1_le_x2_rows(monkeypatch, name):
    # Binary aggregators are symmetric, so the exhaustive n=2 walk decides the
    # 2,211 xs rows with x1 <= x2 of the 4,356 on the 0.1 grid, 66 cases
    # each, and counts the others as the passes they must be.  A memo of its
    # own, so the walk runs.
    monkeypatch.setattr(sampling, "_MEMO", OrderedDict())
    decided, close = [], owa.close_row
    monkeypatch.setattr(owa, "close_row",
                        lambda a_lo, *rest: decided.append(len(a_lo)) or close(a_lo, *rest))
    assert check_distributivity(AGG2[name], PRODUCT) == (True, None, 287_496)
    assert sum(decided) == 145_926


@pytest.mark.parametrize("n, step", [(3, 0.1), (4, 0.25)])
@pytest.mark.parametrize("name", ["max", "tsum"])
def test_endwise_maps_are_symmetric_bit_for_bit(name, n, step):
    # The real distributivity walks of max and tsum take only nondecreasing
    # index tuples.  Every permutation of a tuple of grid endpoints, a signed
    # zero among them, gives the same floats, up to the sign of a zero.
    # geomean is not symmetric at n = 3, and its real walk is not limited so.
    endwise = builtin_aggregators(n)[name].endwise
    cols = list(zip(*itertools.product([-0.0, *SampleGrid(step).endpoints()], repeat=n)))
    want = list(endwise(cols))
    for order in itertools.permutations(range(n)):
        got = list(endwise([cols[i] for i in order]))
        assert all(a.hex() == b.hex() or a == b == 0.0
                   for a, b in zip(got, want, strict=True)), order


# The endpoint-separable overlaps: the catalog's, and transforms of separable
# bases.  The others keep the interval walks.
SEPARABLE = {
    **{name: o for name, o in standard_overlaps().items() if name != "midpoint"},
    **{token: resolve_iv_overlap(token)
       for token in ("pow(product,n=2)", "root(rep(min,min),n=3)")},
}
ONE_MAP = {"product", "rep(product,product)", "rep(min,min)", "mig(sqrt)", "mig(square)",
           "canonical(K=[1.0,1.0])", "canonical(K=[2.0,2.0])", "pow(product,n=2)",
           "root(rep(min,min),n=3)"}


def _not_separable():
    lifted_identity = UnaryGenerator(lifted(lambda lo, up: (lo, up)), "lifted-identity")
    return [midpoint_example(), resolve_iv_overlap("pow(midpoint,n=2)"),
            iv_join(PRODUCT, PRODUCT), opaque(PRODUCT), nudged_at(PRODUCT, *MAX_NUDGE, 1e-6),
            migrative_from_generator(lifted_identity), checks._semi_configs()[0]]


def test_separability_is_decided_by_construction():
    assert all(endpoint_maps(o) is not None for o in SEPARABLE.values())
    assert {name for name, o in SEPARABLE.items() if len(set(endpoint_maps(o))) == 1} == ONE_MAP
    assert [endpoint_maps(o) for o in _not_separable()] == [None] * 7


@pytest.mark.parametrize("overlap", SEPARABLE)
def test_endpoint_maps_compute_the_overlaps_own_floats(overlap):
    # Bit for bit, on the 0.05 grid and off it.
    o, rng = SEPARABLE[overlap], random.Random(overlap)
    pool = REAL_GRID.intervals() + [random_interval(rng) for _ in range(200)]
    xs, ys = zip(*(rng.sample(pool, 2) for _ in range(2000)))
    xl, xu, yl, yu = ([getattr(v, end) for v in side]
                      for side in (xs, ys) for end in ("lower", "upper"))
    g_l, g_u = endpoint_maps(o)
    lows, ups = o.columns(xl, xu, yl, yu)
    assert list(map(float.hex, lows)) == list(map(float.hex, g_l(xl, yl)))
    assert list(map(float.hex, ups)) == list(map(float.hex, g_u(xu, yu)))


@pytest.mark.parametrize("grid,n", [(DEFAULT_GRID, 2), (GRID_25, 3)], ids=["n2-0.1", "n3-0.25"])
@pytest.mark.parametrize("restrict", [False, True], ids=["all", "restricted"])
@pytest.mark.parametrize("name,tol", [("max", 0.0), ("tsum", ROOT_TOLERANCE),
                                      ("geomean", ROOT_TOLERANCE)])
@pytest.mark.parametrize("overlap", SEPARABLE)
def test_real_walks_agree_with_the_exhaustive_interval_walk(overlap, name, tol, restrict, grid, n):
    m, o = builtin_aggregators(n)[name], SEPARABLE[overlap]
    assert len(grid.intervals()) ** (n + 1) <= 300_000
    interval = check_distributivity(m, o, grid, tol, restrict)
    assert owa._real_distributes(m, o, grid, tol, restrict).ok == interval.ok


def test_a_nudged_product_keeps_the_interval_walk_and_its_witness(monkeypatch):
    monkeypatch.setattr(sampling, "_MEMO", OrderedDict())
    o = nudged_at(PRODUCT, *MAX_NUDGE, 1e-6)
    assert endpoint_maps(o) is None
    with pytest.raises(GowaError) as rejected:
        make_gowa(builtin_aggregators(3)["max"], o, WeightVector.selector(3, 1))
    assert str(rejected.value).endswith(f"witness {MAX_REJECTIONS[3]}")
    assert not [key for key in sampling._MEMO if key[0] is owa._real_distributes.__wrapped__]


@pytest.mark.parametrize("name,n", [("geomean", 3), ("geomean", 6), ("tsum", 3), ("tsum", 10)])
def test_a_failing_real_walk_stops_at_its_first_failing_case(monkeypatch, name, n):
    # The real walk over rep(min,min)'s one map fails, in the block of its
    # first failing case; then the interval walk names today's witness.
    monkeypatch.setattr(sampling, "_MEMO", OrderedDict())
    sizes, blocks = [], owa._blocks
    monkeypatch.setattr(owa, "_blocks",
                        lambda cases: (sizes.append(len(b)) or b for b in blocks(cases)))
    m, o, restrict = builtin_aggregators(n)[name], resolve_iv_overlap("rep(min,min)"), name == "tsum"
    pts = DEFAULT_GRID.endpoints()
    if restrict:
        xss = (xs for xs in itertools.combinations_with_replacement(pts, n) if math.fsum(xs) <= 1.0)
        cases = ((*xs, y) for xs in xss for y in pts)
    else:
        cases = tuple_samples(pts[::-1], n + 1, 300_000)

    def fails(case):
        *xs, y = (Interval(v, v) for v in case)
        return outside(m([o(x, y) for x in xs]), o(m(xs), y))

    want = first_failure_by_case(cases, fails)
    real = owa._real_distributes(m, o, restrict=restrict)
    assert not want.ok and real == want
    # An exhaustive walk blocks xs rows of |grid| cases each, a sample its cases.
    width = len(pts) if restrict or cases.exhaustive else 1
    assert sum(sizes[:-1]) * width < real.samples <= sum(sizes) * width
    dist, _ = owa._distributes(m, o, ROOT_TOLERANCE)
    assert dist == check_distributivity(m, o, restrict=restrict, budget=100_000) and not dist.ok


def real_walk_by_case(m, o, grid, tol=ROOT_TOLERANCE):
    """`owa._real_distributes` of a geomean, restated one case at a time: each
    endpoint map's real law over every real tuple from the top of the grid
    down, then the tables over the grid and every aggregate shown valid."""
    pts, n, samples = grid.endpoints(), m.arity, 0

    def agg(xs):
        return next(iter(m.endwise([[x] for x in xs])))

    for g in dict.fromkeys(endpoint_maps(o)):
        def fails(case, g=g):
            *xs, y = case
            left = agg([next(iter(g([x], [y]))) for x in xs])
            return abs(left - next(iter(g([agg(xs)], [y])))) > tol

        res = first_failure_by_case(itertools.product(pts[::-1], repeat=n + 1), fails)
        samples += res.samples
        if not res.ok:
            return res._replace(samples=samples)
    firsts = set(pts) | set(map(agg, itertools.product(pts, repeat=n)))
    return SampledResult(separable_tables(o, sorted(firsts), pts) is not None, None, samples)


@pytest.mark.parametrize("grid,n", [(GRID_25, 4), (DEFAULT_GRID, 3)], ids=["n4-0.25", "n3-0.1"])
@pytest.mark.parametrize("overlap", ["product", "rep(min,min)", "rep(product,min)"])
def test_the_geomean_row_walk_equals_the_walk_of_every_case(monkeypatch, overlap, grid, n):
    monkeypatch.setattr(sampling, "_MEMO", OrderedDict())
    m, o = builtin_aggregators(n)["geomean"], resolve_iv_overlap(overlap)
    assert owa._real_distributes(m, o, grid) == real_walk_by_case(m, o, grid)


@pytest.mark.parametrize("name,n,restrict", [("geomean", 3, False), ("geomean", 4, False),
                                             ("max", 3, False), ("tsum", 4, True)])
def test_a_passing_real_walk_checks_the_tables_of_every_aggregate(monkeypatch, name, n, restrict):
    monkeypatch.setattr(sampling, "_MEMO", OrderedDict())
    handed, tables = [], owa.separable_tables
    monkeypatch.setattr(owa, "separable_tables",
                        lambda o, xs, ys: handed.append((xs, ys)) or tables(o, xs, ys))
    m, pts = builtin_aggregators(n)[name], DEFAULT_GRID.endpoints()
    assert owa._real_distributes(m, PRODUCT, restrict=restrict).ok
    xss = [xs for xs in itertools.product(pts, repeat=n) if not restrict or math.fsum(xs) <= 1.0]
    assert handed == [(sorted(set(pts) | set(m.endwise(list(zip(*xss))))), pts)]


def test_the_geomean_walk_hands_its_blocks_xs_rows(monkeypatch):
    # 161,051 cases at n = 4, walked as 14,641 rows of the 11 grid points.
    monkeypatch.setattr(sampling, "_MEMO", OrderedDict())
    handed, blocks = [], owa._blocks
    monkeypatch.setattr(owa, "_blocks", lambda rows: (handed.extend(b) or b for b in blocks(rows)))
    real = owa._real_distributes(builtin_aggregators(4)["geomean"], PRODUCT)
    assert real == SampledResult(True, None, 161_051)
    assert handed == list(itertools.product(range(11), repeat=4))


def test_a_failing_real_law_walk_builds_only_the_rows_it_reads():
    # The product form g(x, y) == g(1, xy) reads the rows g(x, .) of the 11
    # grid points, and min fails it there; the 46 scaled points' rows and
    # their validity check wait for a pass.
    calls = []
    counted = RealOverlap(lambda xs, ys: calls.append(1) or map(min, xs, ys), "counted-min")
    o, pts = representable(counted, counted), DEFAULT_GRID.endpoints()
    calls.clear()
    product_form = [[((x, y), (1.0, x * y), (1.0, 1.0)) for x in pts for y in pts]]
    assert not iv_overlaps._real_cases_hold(o, DEFAULT_GRID, ROOT_TOLERANCE, product_form)
    assert len(calls) == len(pts)


def test_separable_validation_makes_no_passing_interval_walk(monkeypatch):
    # One real walk per pair decides it.  Only tsum's unrestricted saturation
    # walk is an interval walk, and it fails within its first block of 8
    # tuples.
    monkeypatch.setattr(sampling, "_MEMO", OrderedDict())
    for name, n in [*(("tsum", n) for n in range(3, 11)), ("geomean", 2), ("geomean", 3)]:
        m = builtin_aggregators(n)[name]
        w = WeightVector((ONE,) * n) if name == "geomean" else WeightVector.uniform(n)
        assert make_gowa(m, PRODUCT, w).saturation_witness is not None or name == "geomean"
    walks = [(key[1:], res) for key, res in sampling._MEMO.items()
             if key[0] is check_distributivity.__wrapped__]
    assert len(walks) == 8
    for (m, o, grid, tol, restrict, budget), res in walks:
        assert (m.name, o, restrict, res.ok) == ("tsum", PRODUCT, False, False)
        assert res.samples <= 8
    assert len([key for key in sampling._MEMO if key[0] is owa._real_distributes.__wrapped__]) == 10


def test_the_rule_has_the_verdicts_and_witnesses_of_the_interval_walk():
    # `_distributes` against the pair's own interval walk, over separable
    # overlaps with a neutral element (real reduction walks) and over
    # overlaps that are not separable (interval reduction walks).  A walk
    # that passes at tolerance 0 passes at every larger one, since each case
    # asks `abs(a - b) > tol`; so a pass at 0 stands for the walk at 1e-9,
    # which is not walked again.
    nudged = [nudged_at(PRODUCT, *MAX_NUDGE, delta) for delta in (1e-6, 1e-12)]
    overlaps = [*map(resolve_iv_overlap, ("product", "rep(product,product)", "rep(product,min)",
                                          "rep(min,min)", "canonical(K=[2,2])")),
                opaque(PRODUCT), *nudged, iv_join(*nudged)]
    verdicts = set()
    for o, name, n in itertools.product(overlaps, ("max", "tsum", "geomean", "dirac"), (2, 3)):
        m, restrict = builtin_aggregators(n)[name], name == "tsum"
        budget, want = 300_000 if n == 2 else 100_000, None
        for tol in (0.0, ROOT_TOLERANCE):
            dist, saturation = owa._distributes(m, o, tol)
            if want is None or not want.ok:
                want = check_distributivity(m, o, tol=tol, restrict=restrict, budget=budget)
            assert (dist.ok, dist.witness) == (want.ok, want.witness), (o.name, name, n, tol)
            assert saturation == (check_distributivity(m, o, tol=tol, budget=budget).witness
                                  if restrict and want.ok else None), (o.name, name, n, tol)
            verdicts.add((endpoint_maps(o) is not None, dist.ok, saturation is not None))
    assert verdicts == {(True, True, True), (True, True, False), (True, False, False),
                        (False, True, True), (False, True, False), (False, False, False)}


# The homogeneity and migrativity laws: over a separable overlap a pass of
# the real walks stands for the interval walk's pass, with its count, and
# any other outcome is the interval walk's own.  The interval side is the
# same columns under an `Opaque` provenance.
OVERLAP_LAWS = {
    **{f"homogeneous-[{k1},{k2}]": lambda o, grid, k=ExponentInterval(k1, k2):
       check_homogeneous(o, k, grid) for k1, k2 in ((1.0, 1.0), (1.0, 2.0), (2.0, 2.0))},
    "migrative": check_migrative,
}


@pytest.mark.parametrize("grid", [DEFAULT_GRID, GRID_25], ids=["0.1", "0.25"])
@pytest.mark.parametrize("law", OVERLAP_LAWS)
@pytest.mark.parametrize("overlap", SEPARABLE)
def test_real_law_walks_have_the_interval_walks_results(overlap, law, grid):
    o = SEPARABLE[overlap]
    assert OVERLAP_LAWS[law](o, grid) == OVERLAP_LAWS[law](opaque(o), grid)


@pytest.mark.parametrize("grid,n", [(DEFAULT_GRID, 2), (GRID_25, 3)], ids=["n2-0.1", "n3-0.25"])
@pytest.mark.parametrize("name", ["max", "tsum", "geomean"])
def test_real_aggregator_homogeneity_has_the_interval_walks_result(name, grid, n):
    # The interval side is a copy of the aggregator with no `endwise` map.
    m = builtin_aggregators(n)[name]
    columns_only = owa.IVAggregator(m.columns, m.arity, m.kind, m.name)
    assert m.endwise is not None and columns_only.endwise is None
    assert tuple_samples(grid.intervals(), n + 1).exhaustive
    assert check_homogeneous_m(m, grid) == check_homogeneous_m(columns_only, grid)


# The product's lower map, and an upper map that is the product on the 1/20
# grid and 1e-12 below it off the grid: each end's real law holds within
# 1e-9, but off the grid an upper value falls below its lower one, so the
# interval walks build an invalid interval.
ON_GRID = frozenset(REAL_GRID.endpoints())
SHADED = representable(builtin_overlaps()["product"], RealOverlap(lambda xs, ys: map(
    lambda x, y: x * y if x in ON_GRID and y in ON_GRID else x * y * (1 - 1e-12), xs, ys),
    "shaded"))


@pytest.mark.parametrize("law", [
    lambda o: check_homogeneous(o, ExponentInterval(2.0, 2.0)),
    check_migrative,
    lambda o: make_gowa(AGG2["tsum"], o, WeightVector.uniform(2)),
], ids=["homogeneous-[2,2]", "migrative", "make_gowa-tsum"])
def test_ends_that_cross_off_the_grid_raise_on_both_paths(law):
    errors = []
    for o in (SHADED, opaque(SHADED)):
        with pytest.raises(IntervalError) as raised:
            law(o)
        errors.append(str(raised.value))
    assert errors[0] == errors[1]
    assert errors[0].startswith("invalid interval endpoints [")

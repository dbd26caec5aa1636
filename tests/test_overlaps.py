import itertools
import math
import tracemalloc
from array import array
from itertools import repeat

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ivowa.overlaps import (
    OverlapError,
    RealOverlap,
    builtin_overlaps,
    check_commutative_first_two,
    check_m3_component,
    check_m4_component,
    convex_sum,
    lattice_join,
    lattice_meet,
    mean_of_components,
    pointwise_leq,
    projection_aggregator,
    real_owa,
    verify_overlap_axioms,
)
from ivowa.sampling import REAL_GRID, SampleGrid

CATALOG = builtin_overlaps()
GRID_PTS = REAL_GRID.endpoints()


class TestCatalog:
    def test_expected_ids(self):
        assert set(CATALOG) == {
            "product", "min", "minmax:p=1", "minmax:p=2", "minmax:p=3",
            "xyp:p=2", "xyp:p=3", "mig:poly", "lukasiewicz",
        }

    def test_lukasiewicz_flagged_not_overlap(self):
        # The one catalog entry that fails an overlap axiom, as the check reports it.
        failing = [k for k, g in CATALOG.items()
                   if not all(res.ok for res in verify_overlap_axioms(g).values())]
        assert failing == ["lukasiewicz"]

    def test_pointwise_examples(self):
        assert CATALOG["minmax:p=2"](0.5, 1.0) == 0.5
        assert CATALOG["product"](1.0, 1.0) == 1.0
        assert CATALOG["lukasiewicz"](0.5, 0.5) == 0.0

    @pytest.mark.parametrize("name", [k for k in CATALOG if k != "lukasiewicz"])
    def test_axioms_hold(self, name):
        results = verify_overlap_axioms(CATALOG[name])
        failed = {axiom for axiom, res in results.items() if not res.ok}
        assert not failed, (name, failed, {a: results[a].witness for a in failed})

    def test_lukasiewicz_fails_exactly_the_zero_boundary(self):
        results = verify_overlap_axioms(CATALOG["lukasiewicz"])
        assert not results["go2"].ok
        x, y = results["go2"].witness
        value = CATALOG["lukasiewicz"](x, y)
        assert (value == 0.0) != (x * y == 0.0)
        for axiom in ("go1", "go3", "go4", "go5"):
            assert results[axiom].ok, axiom

    def test_minmax_p1_equals_product_pointwise(self):
        g, h = CATALOG["minmax:p=1"], CATALOG["product"]
        for x in GRID_PTS:
            for y in GRID_PTS:
                assert g(x, y) == h(x, y)


def _int_power(t, p):
    r = t
    for _ in range(p - 1):
        r *= t
    return r


# The scalar formula of each real catalog entry and of the combinators, in
# the float operation order their column maps keep.
REAL_FORMULAS = {
    "product": lambda x, y: x * y,
    "min": min,
    **{f"minmax:p={p}": lambda x, y, p=p: min(x, y) * max(_int_power(x, p), _int_power(y, p))
       for p in (1, 2, 3)},
    **{f"xyp:p={p}": lambda x, y, p=p: _int_power(x * y, p) for p in (2, 3)},
    "mig:poly": lambda x, y: 0.5 * (x * y + (x * y) * (x * y)),
    "lukasiewicz": lambda x, y: max(0.0, min(x - (1.0 - y), y - (1.0 - x))),
}
COMBINED = [
    (lattice_join(CATALOG["product"], CATALOG["min"]), lambda x, y: max(x * y, min(x, y))),
    (lattice_meet(CATALOG["minmax:p=2"], CATALOG["xyp:p=2"]),
     lambda x, y: min(REAL_FORMULAS["minmax:p=2"](x, y), REAL_FORMULAS["xyp:p=2"](x, y))),
    (convex_sum(0.25, 0.75, CATALOG["minmax:p=2"], CATALOG["product"]),
     lambda x, y: 0.25 * REAL_FORMULAS["minmax:p=2"](x, y) + 0.75 * (x * y)),
]
MAP_CASES = [*((CATALOG[name], formula) for name, formula in REAL_FORMULAS.items()), *COMBINED]
# The finest grid the library walks, and a negative zero.
MAP_POINTS = [*SampleGrid(0.005).endpoints(), -0.0]


def _bits(values):
    return array("d", values).tobytes()


def test_every_catalog_entry_has_a_formula():
    assert REAL_FORMULAS.keys() == CATALOG.keys()


@pytest.mark.parametrize("g,formula", MAP_CASES, ids=[g.name for g, _ in MAP_CASES])
def test_column_maps_equal_their_scalar_formulas(g, formula):
    # Bit for bit over every pair of points: whole list columns, a row at a
    # time with the first argument repeated, a column at a time with the
    # second repeated, and the one-pair call.
    pairs = list(itertools.product(MAP_POINTS, repeat=2))
    want = _bits(itertools.starmap(formula, pairs))
    xs, ys = map(list, zip(*pairs))
    assert _bits(g.columns(xs, ys)) == want
    assert b"".join(_bits(g.columns(repeat(x), list(MAP_POINTS))) for x in MAP_POINTS) == want
    columns = [_bits(g.columns(list(MAP_POINTS), repeat(y))) for y in MAP_POINTS]
    assert columns == [_bits(formula(x, y) for x in MAP_POINTS) for y in MAP_POINTS]
    assert _bits(itertools.starmap(g, pairs)) == want


class TestCombinators:
    def test_join_meet_values(self):
        j = lattice_join(CATALOG["product"], CATALOG["min"])
        assert j(0.4, 0.6) == pytest.approx(0.4, abs=1e-12)
        assert j(0.0, 0.9) == 0.0
        m = lattice_meet(CATALOG["product"], CATALOG["min"])
        assert m(0.4, 0.6) == pytest.approx(0.24, abs=1e-12)

    def test_join_meet_are_overlaps(self):
        for combined in (
            lattice_join(CATALOG["product"], CATALOG["min"]),
            lattice_meet(CATALOG["minmax:p=2"], CATALOG["xyp:p=2"]),
        ):
            results = verify_overlap_axioms(combined)
            assert all(res.ok for res in results.values()), combined.name

    def test_lattice_laws_pointwise(self):
        g1, g2, g3 = CATALOG["product"], CATALOG["min"], CATALOG["minmax:p=2"]
        j12 = lattice_join(g1, g2)
        for x in GRID_PTS[::4]:
            for y in GRID_PTS[::4]:
                assert j12(x, y) == lattice_join(g2, g1)(x, y)
                assert lattice_join(g1, lattice_join(g2, g3))(x, y) == \
                    lattice_join(j12, g3)(x, y)
                assert lattice_join(g1, g1)(x, y) == g1(x, y)
                assert lattice_meet(g1, g1)(x, y) == g1(x, y)
                assert lattice_meet(g1, j12)(x, y) == g1(x, y)

    def test_convex_sum_value(self):
        c = convex_sum(0.5, 0.5, CATALOG["product"], CATALOG["min"])
        assert c(0.4, 0.6) == pytest.approx(0.32, abs=1e-12)
        assert c(1.0, 1.0) == 1.0
        first_only = convex_sum(1.0, 0.0, CATALOG["product"], CATALOG["min"])
        for x in GRID_PTS[::2]:
            for y in GRID_PTS[::2]:
                assert first_only(x, y) == CATALOG["product"](x, y)

    def test_convex_sum_is_overlap(self):
        # The continuity probe streams its 201 x 201 stage tables, holding
        # two rows at a time: the walk peaks near 0.09 MB on a first call in
        # a process, where a whole table of doubles peaked near 0.4 MB.
        c = convex_sum(0.25, 0.75, CATALOG["minmax:p=2"], CATALOG["product"])
        tracemalloc.start()
        try:
            results = verify_overlap_axioms(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(res.ok for res in results.values())
        assert peak < 200_000

    @pytest.mark.parametrize("w1,w2", [(0.5, 0.6), (0.9, 0.0), (-0.1, 1.1)])
    def test_convex_sum_rejects_bad_weights(self, w1, w2):
        with pytest.raises(OverlapError):
            convex_sum(w1, w2, CATALOG["product"], CATALOG["min"])

    def test_pointwise_leq(self):
        assert pointwise_leq(CATALOG["product"], CATALOG["min"], GRID_PTS).ok
        assert not pointwise_leq(CATALOG["min"], CATALOG["product"], GRID_PTS).ok


class TestRealOwa:
    def test_examples(self):
        assert real_owa((1.0, 0.0), (0.3, 0.8)) == 0.8
        assert real_owa((0.5, 0.5), (0.3, 0.8)) == pytest.approx(0.55, abs=1e-12)
        assert real_owa((0.0, 0.0, 1.0), (0.9, 0.2, 0.5)) == 0.2

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6))
    def test_uniform_weights_give_mean(self, xs):
        n = len(xs)
        got = real_owa([1.0 / n] * n, xs)
        assert got == pytest.approx(math.fsum(xs) / n, abs=1e-12)

    def test_rejects_bad_weights(self):
        with pytest.raises(OverlapError):
            real_owa((0.4, 0.4), (0.1, 0.2))
        with pytest.raises(OverlapError):
            real_owa((1.5, -0.5), (0.1, 0.2))
        with pytest.raises(OverlapError):
            real_owa((1.0,), (0.1, 0.2))


class TestFourAryAggregators:
    def test_projection_picks_component(self):
        pick = projection_aggregator(3)
        assert pick(0.1, 0.2, 0.3, 0.4) == 0.3
        assert check_m3_component(pick, 3).ok
        assert check_m4_component(pick, 3).ok
        assert check_commutative_first_two(pick).ok
        assert not check_m3_component(pick, 4).ok

    def test_mean_of_components(self):
        mean34 = mean_of_components((3, 4))
        assert mean34(0.0, 1.0, 0.2, 0.4) == pytest.approx(0.3, abs=1e-12)
        assert check_m3_component(mean34, 4).ok
        assert check_m4_component(mean34, 3).ok

    def test_index_bounds(self):
        with pytest.raises(OverlapError):
            projection_aggregator(5)
        with pytest.raises(OverlapError):
            mean_of_components((0, 2))
        with pytest.raises(OverlapError, match=r"^component indices \[0, 5\] out of range 1\.\.4$"):
            mean_of_components([0, 5])

    def test_equal_specs_return_one_aggregator(self):
        assert projection_aggregator(3) is projection_aggregator(3)
        assert mean_of_components([3, 4]) is mean_of_components((3, 4))

    def test_arity_enforced(self):
        pick = projection_aggregator(1)
        with pytest.raises(OverlapError):
            pick(0.1, 0.2)

    def test_registering_unverified_function_is_allowed(self):
        bogus = RealOverlap(lambda xs, ys: [0.5 for _ in zip(xs, ys)], "constant-half")
        results = verify_overlap_axioms(bogus)
        assert not results["go2"].ok and not results["go3"].ok

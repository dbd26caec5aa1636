import copy
import dataclasses
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_interval_close, intervals, random_interval
from ivowa import intervals as intervals_module
from ivowa.intervals import (
    AdmissibleOrder,
    ExponentInterval,
    Interval,
    IntervalError,
    ONE,
    Ordering,
    ZERO,
    complement,
    contract_half,
    format_interval,
    join,
    leq_product,
    meet,
    midpoint,
    parse_interval,
    power,
    product,
    subseteq,
)


class TestConstruction:
    def test_valid(self):
        x = Interval(0.25, 0.75)
        assert x.lower == 0.25 and x.upper == 0.75
        assert not x.degenerate
        assert Interval(0.5, 0.5).degenerate

    def test_int_endpoints_coerced(self):
        x = Interval(0, 1)
        assert x == Interval(0.0, 1.0)
        assert type(x.lower) is float and type(x.upper) is float

    @pytest.mark.parametrize("lo,up", [(0.6, 0.2), (-0.1, 0.5), (0.5, 1.2), (float("nan"), 0.5)])
    def test_invalid_rejected(self, lo, up):
        with pytest.raises(IntervalError):
            Interval(lo, up)

    def test_exponent_interval(self):
        k = ExponentInterval(1.0, 2.0)
        assert k.halved() == ExponentInterval(0.5, 1.0)
        with pytest.raises(IntervalError):
            ExponentInterval(0.0, 1.0)
        with pytest.raises(IntervalError):
            ExponentInterval(2.0, 1.0)


class TestValueContract:
    def test_assignment_and_deletion_raise(self):
        x = Interval(0.25, 0.75)
        with pytest.raises(dataclasses.FrozenInstanceError):
            x.lower = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            x.extra = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            del x.upper
        assert (x.lower, x.upper) == (0.25, 0.75)

    def test_hash_is_the_endpoint_tuple_hash(self):
        # Memo keys and set iteration order depend on this value.
        for x in (ZERO, ONE, Interval(0.1, 0.7), Interval(0, 1)):
            assert hash(x) == hash((x.lower, x.upper))

    def test_equality_is_by_endpoints_and_only_between_intervals(self):
        assert Interval(0.2, 0.4) == Interval(0.2, 0.4)
        assert Interval(0.2, 0.4) != Interval(0.2, 0.5)
        assert Interval(0, 1) != (0.0, 1.0)
        assert (0.0, 1.0) != Interval(0, 1)
        assert Interval(0.2, 0.4).__eq__("[0.2,0.4]") is NotImplemented

    def test_repr(self):
        assert repr(Interval(0.1, 1)) == "Interval(lower=0.1, upper=1.0)"

    def test_copy_and_pickle_round_trip(self):
        x = Interval(0.1, 0.7)
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert y == x and type(y) is Interval
            assert (y.lower, y.upper) == (0.1, 0.7)

    def test_post_init_runs_once_per_construction(self, monkeypatch):
        # The benchmark counts constructed intervals through this hook.
        calls = []
        original = Interval.__post_init__

        def counted(self):
            calls.append(self)
            return original(self)

        k = ExponentInterval(1.0, 2.0)
        monkeypatch.setattr(Interval, "__post_init__", counted)
        x = Interval(0.2, 0.5)
        p = product(x, x)
        q = power(x, k)
        assert len(calls) == 3
        assert all(c is o for c, o in zip(calls, (x, p, q)))


class TestProduct:
    def test_example(self):
        assert_interval_close(product(Interval(0.2, 0.5), Interval(0.4, 0.8)), 0.08, 0.40)

    def test_one_neutral_zero_absorbing(self):
        x = Interval(0.3, 0.7)
        assert product(ONE, x) == x
        assert product(ZERO, x) == ZERO

    @given(intervals(), intervals())
    def test_commutative(self, x, y):
        assert product(x, y) == product(y, x)

    @given(intervals(), intervals(), intervals())
    def test_associative(self, x, y, z):
        a = product(product(x, y), z)
        b = product(x, product(y, z))
        assert_interval_close(a, b.lower, b.upper)

    @given(intervals(), intervals(), intervals())
    def test_monotone(self, x, y, z):
        if leq_product(y, z):
            assert leq_product(product(x, y), product(x, z))


class TestPower:
    def test_sqrt_of_quarter(self):
        assert power(Interval(0.25, 0.25), ExponentInterval(0.5, 0.5)) == Interval(0.5, 0.5)

    def test_endpoints_fixed(self):
        assert power(Interval(0, 1), ExponentInterval(1, 2)) == Interval(0, 1)

    @given(intervals())
    def test_unit_exponent_identity(self, x):
        assert power(x, ExponentInterval(1, 1)) == x

    @given(intervals(), st.sampled_from([0.5, 1.0, 2.0, 3.0]), st.sampled_from([0.5, 1.0, 2.0]))
    def test_composition(self, x, a, b):
        once = power(power(x, ExponentInterval(a, a)), ExponentInterval(b, b))
        direct = power(x, ExponentInterval(a * b, a * b))
        assert_interval_close(once, direct.lower, direct.upper)


class TestComplement:
    def test_examples(self):
        assert_interval_close(complement(Interval(0.3, 0.7)), 0.3, 0.7)
        assert complement(ZERO) == ONE
        assert complement(Interval(0.1, 0.4)) == Interval(0.6, 0.9)

    @given(intervals())
    def test_involution(self, x):
        back = complement(complement(x))
        assert_interval_close(back, x.lower, x.upper)

    @given(intervals(), intervals())
    def test_order_reversing(self, x, y):
        if leq_product(x, y):
            assert leq_product(complement(y), complement(x))


class TestMidpointContraction:
    def test_examples(self):
        assert contract_half(Interval(0, 1)) == Interval(0.25, 0.75)
        assert contract_half(Interval(0.4, 0.4)) == Interval(0.4, 0.4)
        assert midpoint(Interval(0.2, 0.6)) == pytest.approx(0.4, abs=1e-12)

    @given(intervals())
    def test_contracts_into_argument(self, x):
        c = contract_half(x)
        assert subseteq(c, x)
        if not x.degenerate:
            assert c != x
        assert midpoint(c) == pytest.approx(midpoint(x), abs=1e-12)


class TestPartialOrders:
    def test_examples(self):
        assert leq_product(Interval(0.1, 0.3), Interval(0.2, 0.5))
        assert not leq_product(Interval(0.1, 0.9), Interval(0.2, 0.5))
        assert subseteq(Interval(0.5, 0.5), Interval(0, 1))

    def test_join_meet_examples(self):
        assert join(Interval(0.1, 0.5), Interval(0.3, 0.4)) == Interval(0.3, 0.5)
        x = Interval(0.2, 0.8)
        assert meet(x, x) == x
        assert meet(ZERO, x) == ZERO

    @given(intervals(), intervals(), intervals())
    def test_lattice_laws(self, x, y, z):
        assert join(x, y) == join(y, x)
        assert meet(x, y) == meet(y, x)
        assert join(x, join(y, z)) == join(join(x, y), z)
        assert meet(x, meet(y, z)) == meet(meet(x, y), z)
        assert join(x, x) == x and meet(x, x) == x
        assert join(x, meet(x, y)) == x
        assert meet(x, join(x, y)) == x


class TestAdmissibleOrders:
    def test_lex1_example(self):
        order = AdmissibleOrder.LEX1
        assert order.compare(Interval(0.2, 0.5), Interval(0.2, 0.9)) is Ordering.LESS

    def test_xu_yager_example(self):
        order = AdmissibleOrder.XU_YAGER
        assert order.compare(Interval(0.3, 0.6), Interval(0.2, 0.9)) is Ordering.LESS

    @pytest.mark.parametrize("order", list(AdmissibleOrder))
    def test_reflexive_equal(self, order):
        x = Interval(0.3, 0.8)
        assert order.compare(x, x) is Ordering.EQUAL

    @pytest.mark.parametrize("order", list(AdmissibleOrder))
    def test_laws_on_sampled_triples(self, order):
        rng = random.Random(424242)
        for _ in range(2000):
            x, y, z = (random_interval(rng) for _ in range(3))
            cxy = order.compare(x, y)
            cyx = order.compare(y, x)
            assert (cxy is Ordering.EQUAL) == (x == y)
            if cxy is Ordering.LESS:
                assert cyx is Ordering.GREATER
            if order.leq(x, y) and order.leq(y, z):
                assert order.leq(x, z)

    @pytest.mark.parametrize("order", list(AdmissibleOrder))
    @given(data=st.data())
    @settings(max_examples=200)
    def test_refines_product_order(self, order, data):
        x = data.draw(intervals())
        y = data.draw(intervals())
        if leq_product(x, y):
            assert order.leq(x, y)

    def test_ranks_descending_stable_on_ties(self):
        tie = Interval(0.4, 0.6)
        values = [tie, Interval(0.9, 0.9), tie]
        assert AdmissibleOrder.LEX1.ranks_descending(values) == [1, 0, 2]


class TestTextForm:
    def test_parse_pair_and_shorthand(self):
        assert parse_interval("[0.25,0.75]") == Interval(0.25, 0.75)
        assert parse_interval("0.4") == Interval(0.4, 0.4)
        assert parse_interval(" [0 , 1] ") == Interval(0, 1)

    @pytest.mark.parametrize("text", ["[0.6,0.2]", "[1,2]", "[0.1]", "[a,b]", "oops", "[0.1,0.2", ""])
    def test_malformed_rejected(self, text):
        with pytest.raises(IntervalError):
            parse_interval(text)

    @given(intervals())
    def test_round_trip_exact(self, x):
        assert parse_interval(format_interval(x)) == x

    @pytest.mark.parametrize("bad", [{1023: "x"}, {3: "[0.3,0.1]", 700: "y"}])
    def test_refused_column_is_halved_to_its_first_bad_cell(self, monkeypatch, bad):
        # A refused column is split in halves down to its first bad cell, so a
        # 1,024-cell column takes at most 21 calls, not one per cell (1,025).
        texts = ["[0.1,0.2]"] * 1024
        for i, text in bad.items():
            texts[i] = text
        with pytest.raises(IntervalError) as first:
            parse_interval(texts[min(bad)])
        calls, parse = [], intervals_module.parse_interval_columns
        monkeypatch.setattr(intervals_module, "parse_interval_columns",
                            lambda texts: calls.append(len(texts)) or parse(texts))
        with pytest.raises(IntervalError) as column:
            intervals_module.parse_interval_columns(texts)
        assert str(column.value) == str(first.value)
        assert len(calls) <= 21

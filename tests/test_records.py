"""The value contract of the library's record and operator classes.

Value records and validated values compare and hash by their fields;
operators (overlaps, aggregators, generators, the OWA operator) compare and
hash by identity, so a memo entry pins the very object it was computed for.
Every class builds positionally and by keyword with the same defaults, has a
field-by-field repr, copies, and pickles when its fields do.  All of them
refuse assignment and deletion of their fields.
"""

import copy
import dataclasses
import importlib
import pickle
import pkgutil

import pytest

import ivowa
from ivowa.checks import CheckReport
from ivowa.cli import RunConfig
from ivowa.intervals import (
    DEFAULT_ORDER, ONE, ZERO, AdmissibleOrder, ExponentInterval, Interval, IntervalError, Slotted,
)
from ivowa.iv_overlaps import (
    IVOverlap, Migrative, Opaque, Representable, SemiRepresentable, Transformed, UnaryGenerator,
    interval_product,
)
from ivowa.matrix import DecisionMatrix
from ivowa.overlaps import RealAggregator, RealOverlap, builtin_overlaps
from ivowa.owa import (
    AggregatorKind, GowaOperator, IVAggregator, WeightError, WeightVector, builtin_aggregators, make_gowa,
)
from ivowa.registry import resolve_iv_overlap
from ivowa.sampling import SampleGrid


def _min_columns(xs, ys):
    return map(min, xs, ys)


# Builtin and module-level callables keep every record picklable.
_REAL_MIN = RealOverlap(_min_columns, "min")
_REAL_MAX = RealAggregator(max, 2, "max")
_OVERLAP = IVOverlap(max, "o", Opaque("x"))
_AGGREGATOR = IVAggregator(min, 2, AggregatorKind.MAX, "max")
_WEIGHTS = WeightVector((ONE, ZERO))

# (class, identity or value, field names, arguments, defaults of the fields
# the arguments leave out)
RECORDS = [
    (CheckReport, "value", ("check_id", "target", "verdict", "witness", "samples_used", "tolerance"),
     ("gowa-idempotency", "max", "fail", (ONE, 0.5), 3, 1e-9), {}),
    (RunConfig, "value", ("aggregator_id", "overlap_id", "weights", "order", "normalize", "tolerances"),
     ("tsum", "product", _WEIGHTS),
     {"order": DEFAULT_ORDER, "normalize": False, "tolerances": None}),
    (DecisionMatrix, "value", ("alternatives", "criteria", "lowers", "uppers"),
     (("a1", "a2"), ("c1",), ([0.1, 0.2],), ([0.3, 0.4],)), {}),
    (Representable, "value", ("lower", "upper"), (_REAL_MIN, _REAL_MIN), {}),
    (SemiRepresentable, "value", ("m_lower", "m_upper", "parts"),
     (_REAL_MAX, _REAL_MAX, (_REAL_MIN,)), {}),
    (Migrative, "value", ("generator",), (UnaryGenerator(abs, "g"),), {}),
    (Transformed, "value", ("base", "exponent"), (_OVERLAP, 2.0), {}),
    (Opaque, "value", ("label",), ("inverted",), {}),
    (ExponentInterval, "value", ("k1", "k2"), (0.5, 2.0), {}),
    (SampleGrid, "value", ("endpoint_step",), (), {"endpoint_step": 0.1}),
    (WeightVector, "value", ("weights",), ((ONE, ZERO),), {}),
    (IVOverlap, "identity", ("columns", "name", "provenance", "endwise"), (max, "o", Opaque("x")),
     {"endwise": None}),
    (IVAggregator, "identity", ("columns", "arity", "kind", "name", "endwise"),
     (min, 2, AggregatorKind.MAX, "max"), {"endwise": None}),
    (RealOverlap, "identity", ("columns", "name"), (_min_columns, "min"), {}),
    (RealAggregator, "identity", ("columns", "arity", "name", "claims"), (max, 2, "max"),
     {"claims": frozenset()}),
    (UnaryGenerator, "identity", ("columns", "name", "endwise"), (abs, "g"), {"endwise": None}),
    (GowaOperator, "identity", ("aggregator", "overlap", "weights", "order", "saturation_witness"),
     (_AGGREGATOR, _OVERLAP, _WEIGHTS, AdmissibleOrder.XU_YAGER), {"saturation_witness": None}),
]
CLASSES = {cls: fields for cls, _, fields, _, _ in RECORDS}


def _same(a, b):
    """Equal, or the same shape with equal leaves: identity objects compare
    field by field, so a copy or an unpickled record matches its original."""
    if type(a) is not type(b):
        return False
    if type(a) in CLASSES:
        return all(_same(getattr(a, f), getattr(b, f)) for f in CLASSES[type(a)])
    if type(a) is tuple:
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def _fields(obj, fields):
    return tuple(getattr(obj, f) for f in fields)


@pytest.mark.parametrize("cls, kind, fields, args, defaults", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, kind, fields, args, defaults):
    a = cls(*args)
    b = cls(**dict(zip(fields, args)))
    want = (*args, *defaults.values())
    assert _fields(a, fields) == _fields(b, fields) == want
    assert type(a) is cls
    assert repr(a) == f"{cls.__name__}({', '.join(f'{f}={v!r}' for f, v in zip(fields, want))})"

    if kind == "value":
        assert a == b and not a != b
        if cls is DecisionMatrix:  # its endpoint columns are lists
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)
    else:
        assert a != b and a == a
        assert hash(a) == object.__hash__(a)
    assert a != object()

    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert _fields(a, fields) == want

    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is cls and _same(twin, a)
        assert (twin == a) is (kind == "value" and _fields(twin, fields) == _fields(a, fields))
    shallow = copy.copy(a)
    assert all(x is y for x, y in zip(_fields(shallow, fields), _fields(a, fields)))


def test_interval_assignment_raises_frozen_instance_error():
    x = Interval(0.25, 0.75)
    with pytest.raises(dataclasses.FrozenInstanceError):
        x.lower = 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        del x.upper


@pytest.mark.parametrize("field", CLASSES[GowaOperator])
def test_a_validated_operator_is_frozen(field):
    # Its weights, overlap and aggregator were validated together by make_gowa,
    # so none of them can be swapped for one that was not.
    op = make_gowa(builtin_aggregators(2)["max"], interval_product(), WeightVector.of(ONE, ZERO))
    before = getattr(op, field)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(op, field, WeightVector.of(ZERO, ZERO))
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(op, field)
    assert getattr(op, field) is before


def test_no_slotted_class_reopens_assignment():
    # Every `Slotted` class of the package, listed above or not, inherits the
    # refusal of assignment and deletion.
    for info in pkgutil.iter_modules(ivowa.__path__):
        importlib.import_module(f"ivowa.{info.name}")
    classes, found = [Slotted], []
    while classes:
        cls = classes.pop()
        classes.extend(cls.__subclasses__())
        found += [f"{cls.__qualname__}.{name}" for name in ("__setattr__", "__delattr__")
                  if getattr(cls, name) is not getattr(Slotted, name)]
    assert not found


def test_real_overlaps_are_built_once_and_overlaps_carry_no_claims():
    # Operators built from the catalog's overlaps share memo entries with the
    # ids that name them.  What an overlap satisfies is what `verify` reports.
    assert all(a is b for a, b in zip(builtin_overlaps().values(), builtin_overlaps().values()))
    assert "claims" not in IVOverlap.__slots__ and "claims" not in RealOverlap.__slots__


def test_resolving_a_canonical_overlap_twice_gives_one_object():
    # The memo keys on the exponent interval by value.
    assert resolve_iv_overlap("canonical(K=[1.0,2.0])") is resolve_iv_overlap("canonical(K=[1.0,2.0])")
    assert ExponentInterval(1, 2) == ExponentInterval(1.0, 2.0)


def test_validated_values_convert_their_fields():
    k = ExponentInterval(1, 2)
    assert (type(k.k1), type(k.k2)) == (float, float)
    assert str(k) == "[1.0,2.0]" and k.halved() == ExponentInterval(0.5, 1.0)
    assert ExponentInterval.of(3) == ExponentInterval(3.0, 3.0)
    w = WeightVector([ONE, ZERO])
    assert w.weights == (ONE, ZERO) and len(w) == 2 and list(w) == [ONE, ZERO] and w[1] == ZERO
    grid = SampleGrid(0.25)
    assert grid.divisions == 4 and grid.endpoints() == [0.0, 0.25, 0.5, 0.75, 1.0]


@pytest.mark.parametrize("build, error, message", [
    (lambda: SampleGrid(0.3), ValueError, "endpoint_step must be 1/n, got 0.3"),
    (lambda: SampleGrid(0.0), ValueError, "endpoint_step must be 1/n, got 0.0"),
    (lambda: SampleGrid(-0.5), ValueError, "endpoint_step must be 1/n, got -0.5"),
    (lambda: SampleGrid(1e-320), ValueError, "endpoint_step must be 1/n, got 1e-320"),
    (lambda: SampleGrid(0.001), ValueError,
     "endpoint_step 0.001 gives 501501 grid intervals; the finest step is 0.005 (1/200, 20301 intervals)"),
    (lambda: ExponentInterval(0, 1), IntervalError, "invalid exponent interval [0, 1]"),
    (lambda: ExponentInterval(2, 1.5), IntervalError, "invalid exponent interval [2, 1.5]"),
    (lambda: ExponentInterval(1, float("inf")), IntervalError, "invalid exponent interval [1, inf]"),
    (lambda: ExponentInterval(float("nan"), 1), IntervalError, "invalid exponent interval [nan, 1]"),
    (lambda: ExponentInterval("x", 1), ValueError, "could not convert string to float: 'x'"),
    (lambda: WeightVector(()), WeightError, "weight vector must not be empty"),
    (lambda: WeightVector([]), WeightError, "weight vector must not be empty"),
    (lambda: WeightVector.of(), WeightError, "weight vector must not be empty"),
    (lambda: WeightVector.uniform(0), WeightError, "uniform weight vector length must be >= 1, got 0"),
    (lambda: WeightVector.uniform(-2), WeightError,
     "uniform weight vector length must be >= 1, got -2"),
], ids=["grid-not-reciprocal", "grid-zero", "grid-negative", "grid-overflow", "grid-too-fine",
        "exponent-zero", "exponent-inverted", "exponent-infinite", "exponent-nan",
        "exponent-not-a-number", "weights-empty-tuple", "weights-empty-list", "weights-of-nothing",
        "weights-uniform-zero", "weights-uniform-negative"])
def test_constructor_errors(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error and str(caught.value) == message

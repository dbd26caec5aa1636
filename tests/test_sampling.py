"""The lazy sample stream against the eager list it replaced, the
first-violation policy every sampled check shares, and the one memo."""

import importlib
import inspect
import itertools
import random
import re
from collections import OrderedDict
from pathlib import Path

import pytest

import ivowa
from conftest import source_lines
from ivowa import sampling
from ivowa.intervals import leq_product, subseteq
from ivowa.cli import RunConfig, rank_matrix
from ivowa.iv_overlaps import representable, verify_iv_axioms
from ivowa.matrix import parse_matrix_text
from ivowa.overlaps import builtin_overlaps
from ivowa.owa import GowaError, WeightVector, builtin_aggregators
from ivowa.registry import resolve_iv_overlap
from ivowa.sampling import (
    SAMPLE_SEED,
    SampledResult,
    SampleGrid,
    first_violation,
    grid_pairs,
    tuple_samples,
)


def reference_samples(items, n, budget, seed=SAMPLE_SEED):
    """The original eager algorithm: the full cross product when it fits,
    otherwise constant and corner tuples, then one ``rng.choice`` per slot."""
    if len(items) ** n <= budget:
        return list(itertools.product(items, repeat=n))
    out = [(c,) * n for c in items]
    bottom, top = items[0], items[-1]
    for c in (items[0], items[len(items) // 2], items[-1]):
        for j in range(n):
            for special in (top, bottom):
                t = [c] * n
                t[j] = special
                out.append(tuple(t))
    rng = random.Random(seed)
    while len(out) < budget:
        out.append(tuple(rng.choice(items) for _ in range(n)))
    return out


# 66, 231 and 351 are the interval pools of the 0.1, 0.05 and 0.04 grids;
# 128/129 sit on either side of a power of two, where the rejection rate of a
# draw jumps.  Pools of up to 255 items are decoded from the top byte of each
# word, larger ones word by word: 255/256/257 straddle that switch.
POOL_SIZES = (1, 2, 15, 66, 105, 128, 129, 231, 255, 256, 257, 351)


def pool(size):
    # Items distinct from their indices, so an index leaking out would show.
    return [f"item{k}" for k in range(size)]


def assert_same_stream(items, n, budget):
    want = reference_samples(items, n, budget)
    samples = tuple_samples(items, n, budget)
    assert len(samples) == len(want)
    assert list(samples) == want
    assert list(samples) == want  # a second walk restarts the stream


@pytest.mark.parametrize("size", POOL_SIZES)
def test_small_budget_every_arity(size):
    for n in range(2, 12):
        assert_same_stream(pool(size), n, 4000)


@pytest.mark.parametrize("size", POOL_SIZES)
def test_index_pool_draws_the_same_positions(size):
    # The sampled law checks walk grid indices through a range pool.
    for n in (2, 3, 7):
        assert_same_stream(range(size), n, 4000)


# The larger budgets cost about a second per million reference draws, so each
# pool size is paired with one arity, covering 2-11 between them.
@pytest.mark.parametrize("size,n,budget", [
    (1, 11, 100_000),
    (2, 11, 100_000),
    (15, 9, 100_000),
    (66, 3, 300_000),
    (66, 4, 100_000),
    (66, 7, 100_000),
    (105, 2, 300_000),
    (128, 6, 100_000),
    (129, 10, 100_000),
    (231, 5, 100_000),
    (255, 4, 100_000),
    (257, 2, 300_000),
    (351, 3, 300_000),
    (351, 8, 100_000),
])
def test_large_budgets(size, n, budget):
    assert_same_stream(pool(size), n, budget)


def test_budget_smaller_than_corners_keeps_every_corner():
    assert_same_stream(pool(66), 3, 10)


def test_draws_only_as_far_as_the_caller_reads(monkeypatch):
    drawn = []

    class CountingRandom(random.Random):
        def getrandbits(self, k):
            drawn.append(k)
            return super().getrandbits(k)

    monkeypatch.setattr(sampling.random, "Random", CountingRandom)
    items = pool(351)
    head = list(itertools.islice(tuple_samples(items, 11, 300_000), 500))
    monkeypatch.undo()
    assert head == reference_samples(items, 11, 500)
    # 83 fill tuples need about 1 300 words; the whole fill would need 4.8M.
    assert 0 < sum(drawn) // 32 < 10_000


def test_first_violation_counts_cases_up_to_the_first_witness():
    consumed = []

    def outcomes():
        for case in range(10):
            consumed.append(case)
            yield (case,) if case in (3, 7) else None

    assert first_violation(outcomes()) == SampledResult(False, (3,), 4)
    assert consumed == [0, 1, 2, 3]
    assert first_violation(iter([None] * 5)) == SampledResult(True, None, 5)
    assert first_violation(iter([])) == SampledResult(True, None, 0)


@pytest.mark.parametrize("step", [1e-13, 1 / 201])
def test_grid_finer_than_200_divisions_is_refused(step):
    # 1e-13 would give about 5e25 grid intervals.
    with pytest.raises(ValueError, match=rf"^endpoint_step {step} gives \d+ grid intervals; "):
        SampleGrid(step)


def test_finest_continuity_stage_is_the_finest_grid():
    grid = SampleGrid(0.005)
    assert grid.divisions == 200 and len(grid.endpoints()) == 201


@pytest.mark.parametrize("step", [0.5, 0.25, 0.1])
def test_grid_pairs_are_the_related_pairs_in_product_order(step):
    # Brute force on endpoint indices: interval k is (i, j) with i <= j.
    grid = SampleGrid(step)
    ends = [(i, j) for i in range(grid.divisions + 1) for j in range(i, grid.divisions + 1)]
    pairs = list(itertools.product(range(len(ends)), repeat=2))
    comparable = [(a, b) for a, b in pairs
                  if ends[a][0] <= ends[b][0] and ends[a][1] <= ends[b][1]]
    nested = [(a, b) for a, b in pairs if ends[b][0] <= ends[a][0] and ends[a][1] <= ends[b][1]]
    assert grid_pairs(grid, leq_product) == comparable
    assert grid_pairs(grid, subseteq) == nested


def test_every_grid_upper_endpoint_is_an_exact_quotient():
    # The restricted real walks of tsum and max enumerate x1..xn by the
    # numerators k of the endpoints k/D of a SampleGrid(1/D).
    for divisions in range(1, 201):
        grid = SampleGrid(1 / divisions)
        assert grid.divisions == divisions
        uppers = {x.upper for x in grid.intervals()}
        assert uppers == {k / divisions for k in range(divisions + 1)}
        assert all(round(u * divisions) / divisions == u for u in uppers)


def test_memo_hands_out_copies_of_dict_results():
    op = representable(builtin_overlaps()["product"], builtin_overlaps()["min"])
    before = verify_iv_axioms(op)
    expected = dict(before)
    before["o1"] = SampledResult(False, ("changed",), 0)
    del before["o5"]
    assert verify_iv_axioms(op) == expected


def test_memo_stays_within_its_cap(monkeypatch):
    # A memo of its own, so the catalogs below evict nothing other tests use.
    # Each arity's aggregator catalog is one more entry.
    monkeypatch.setattr(sampling, "_MEMO", OrderedDict())
    for n in range(1, sampling.MEMO_SIZE + 51):
        builtin_aggregators(n)
        assert len(sampling._MEMO) <= sampling.MEMO_SIZE
    assert len(sampling._MEMO) == sampling.MEMO_SIZE
    # Keys hold the undecorated function; the oldest arities were evicted.
    assert (builtin_aggregators.__wrapped__, sampling.MEMO_SIZE + 50) in sampling._MEMO
    assert (builtin_aggregators.__wrapped__, 50) not in sampling._MEMO


def _memoized_functions():
    """Every function the package decorates with `memoized`, found in its source."""
    for path in sorted(Path(ivowa.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"ivowa.{path.stem}") if path.stem != "__init__" else ivowa
        for name in re.findall(r"^@memoized\ndef (\w+)", path.read_text(encoding="utf-8"), re.M):
            yield getattr(module, name)


MEMOIZED = list(_memoized_functions())


def test_every_memoized_function_is_found():
    sources = Path(ivowa.__file__).parent.glob("*.py")
    assert len(MEMOIZED) == sum(p.read_text(encoding="utf-8").count("@memoized") for p in sources) == 23


def test_every_cache_is_the_memo():
    # Every cache goes through `memoized`, one memo held to MEMO_SIZE; a
    # functools cache would hold its entries apart from it.
    assert not source_lines(r"lru_cache|functools\.cache|from functools import .*\bcache\b")


def _inspect_key(raw, args, kwargs):
    bound = inspect.signature(raw).bind(*args, **kwargs)
    bound.apply_defaults()
    return (raw, *bound.arguments.values())


@pytest.mark.parametrize("fn", MEMOIZED, ids=lambda fn: fn.__name__)
def test_memo_key_equals_the_signature_binding(fn):
    raw = fn.__wrapped__
    params = list(inspect.signature(raw).parameters.values())
    values = [object() for _ in params]
    names = [p.name for p in params]
    required = sum(p.default is p.empty for p in params)
    calls = [
        (values, {}),
        ([], dict(zip(names, values))),
        (values[:required], {}),
        (values[:1], dict(zip(names[1:required], values[1:required]))),
        # The defaulted parameters by keyword, in reverse order.
        (values[:required], dict(reversed(list(zip(names[required:], values[required:]))))),
    ]
    calls += [(values[:required], {names[k]: values[k]}) for k in range(required, len(params))]
    for args, kwargs in calls:
        assert sampling.memo_key(raw, tuple(args), kwargs) == _inspect_key(raw, args, kwargs)


@pytest.mark.parametrize("fn", MEMOIZED, ids=lambda fn: fn.__name__)
def test_a_call_that_does_not_bind_raises_the_functions_own_error(fn, monkeypatch):
    monkeypatch.setattr(sampling, "_MEMO", OrderedDict())
    raw = fn.__wrapped__
    params = list(inspect.signature(raw).parameters.values())
    values = [object() for _ in params]
    required = sum(p.default is p.empty for p in params)
    calls = [((*values, object()), {}), (values[:required], {"unknown": 1})]
    if required:
        calls += [(values[:required - 1], {}), (values[:required], {params[0].name: values[0]})]
    for args, kwargs in calls:
        assert sampling.memo_key(raw, tuple(args), kwargs) is None
        with pytest.raises(TypeError) as own:
            raw(*args, **kwargs)
        with pytest.raises(TypeError) as got:
            fn(*args, **kwargs)
        assert str(got.value) == str(own.value)
    assert not sampling._MEMO


def _kw_only(a, *, b):
    return a


def _positional_only(a, /):
    return a


@pytest.mark.parametrize("fn", [lambda *a: a, lambda **k: k, _kw_only, _positional_only],
                         ids=["var-positional", "var-keyword", "keyword-only", "positional-only"])
def test_memoized_refuses_parameters_its_key_cannot_bind(fn):
    with pytest.raises(TypeError, match="memoized takes plain parameters only"):
        sampling.memoized(fn)


@pytest.mark.parametrize("token", ["pow(product,n=2)", "root(rep(product,min),n=3)"])
def test_transform_ids_resolve_to_one_operator(token):
    assert resolve_iv_overlap(token) is resolve_iv_overlap(token)


def test_repeated_transform_job_validates_once(monkeypatch):
    monkeypatch.setattr(sampling, "_MEMO", OrderedDict())
    config = RunConfig("max", "pow(product,n=2)", WeightVector.selector(2, 1))
    matrix = parse_matrix_text('alternative,c1,c2\na1,"[0.2,0.4]",0.5\n', "csv")
    with pytest.raises(GowaError, match="neutral element"):
        rank_matrix(config, matrix)
    held = list(sampling._MEMO)
    with pytest.raises(GowaError, match="neutral element"):
        rank_matrix(config, matrix)
    assert sorted(map(repr, sampling._MEMO)) == sorted(map(repr, held))

"""The lazy sample stream against the eager list it replaced."""

import itertools
import random

import pytest

from ivowa import sampling
from ivowa.sampling import SAMPLE_SEED, tuple_samples


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


# 66 and 351 are the interval pools of the 0.1 and 0.04 grids; 128/129 sit on
# either side of a power of two, where the rejection rate of a draw jumps.
POOL_SIZES = (1, 2, 15, 66, 105, 128, 129, 231, 351)


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

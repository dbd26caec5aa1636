import random

import pytest
from hypothesis import strategies as st

from ivowa.intervals import Interval

unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def intervals(draw):
    a = draw(unit_floats)
    b = draw(unit_floats)
    lo, hi = (a, b) if a <= b else (b, a)
    return Interval(lo, hi)


def assert_interval_close(got: Interval, lo: float, up: float, tol: float = 1e-12) -> None:
    assert got.lower == pytest.approx(lo, abs=tol), got
    assert got.upper == pytest.approx(up, abs=tol), got


def random_interval(rng: random.Random) -> Interval:
    a, b = sorted((rng.random(), rng.random()))
    return Interval(a, b)


def nested_transform(head: str, depth: int) -> str:
    """`product` under `depth` nested `head(...,n=2)` transforms."""
    token = "product"
    for _ in range(depth):
        token = f"{head}({token},n=2)"
    return token

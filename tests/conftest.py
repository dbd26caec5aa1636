import random
import re
from pathlib import Path

import pytest
from hypothesis import strategies as st

import ivowa
from ivowa.intervals import Interval
from ivowa.iv_overlaps import IVOverlap, Opaque

unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

SOURCE = Path(ivowa.__file__).resolve().parent


def source_lines(pattern: str, *modules: str) -> list[str]:
    """``module:line: text`` of each line of the named package modules, or of
    every module when none is named, that the regular expression matches."""
    paths = [SOURCE / module for module in modules] or sorted(SOURCE.rglob("*.py"))
    return [f"{path.name}:{number}: {line}" for path in paths
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if re.search(pattern, line)]


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


def opaque(o: IVOverlap) -> IVOverlap:
    """`o`'s columns under an `Opaque` provenance: not separable by
    construction, so the law checks take their interval walks."""
    return IVOverlap(o.columns, o.name, Opaque(o.name))


def nudged_at(o, x, y, end, delta):
    """`o` with one endpoint (0 lower, 1 upper) moved by `delta` at the one
    argument pair (x, y).  `o` evaluates the whole columns, cut to one length
    as `iv_join` cuts them, and the pair is patched where it occurs."""
    cell = (x.lower, x.upper, y.lower, y.upper)

    def columns(*cols):
        cols = list(zip(*zip(*cols))) or [()] * 4
        values = tuple(map(list, o.columns(*cols)))
        for k, args in enumerate(zip(*cols)):
            if args == cell:
                values[end][k] += delta
        return values

    return IVOverlap(columns, f"nudged({o.name})", Opaque("nudged"))

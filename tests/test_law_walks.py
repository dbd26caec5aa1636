"""The exhaustive law walks, pinned on their failure paths as well as their
passes.

`golden/law_walks.jsonl` holds ``(ok, witness, samples)`` for inclusion
monotonicity, migrativity, homogeneity of order [2,2] and n=2 distributivity
(every catalog aggregator, and `tsum` under its restriction too) on every
catalog overlap, n=2 homogeneity of every catalog aggregator, and the
interval product nudged by 1e-6 at one cell.  The nudged cells make a walk
fail on the first case of a row, in the middle of one, and on the last case
of the latest row that can fail: every one of these walks ends on a case that
compares a value with itself.
"""

import json
import tracemalloc
from collections import OrderedDict
from pathlib import Path

import pytest

from ivowa import sampling
from ivowa.intervals import ExponentInterval, Interval, format_interval
from ivowa.iv_overlaps import (
    IVOverlap,
    Opaque,
    check_homogeneous,
    check_migrative,
    interval_product,
    is_inclusion_monotonic,
)
from ivowa.owa import builtin_aggregators, check_distributivity, check_homogeneous_m, non_saturating
from ivowa.registry import standard_overlaps

GOLDEN = Path(__file__).resolve().parent / "golden" / "law_walks.jsonl"
AGGREGATORS = builtin_aggregators(2)
K2 = ExponentInterval(2.0, 2.0)


def _nudged_at(o, x, y, end, delta):
    """`o` with one endpoint (0 lower, 1 upper) moved by `delta` at the one
    argument pair (x, y)."""
    cell = (x.lower, x.upper, y.lower, y.upper)

    def ends(xl, xu, yl, yu):
        lo, up = o.ends(xl, xu, yl, yu)
        if (xl, xu, yl, yu) == cell:
            return (lo + delta, up) if end == 0 else (lo, up + delta)
        return lo, up

    return IVOverlap(ends, f"nudged({o.name})", Opaque("nudged"))


OVERLAP_CHECKS = {
    "inclusion": is_inclusion_monotonic,
    "migrative": check_migrative,
    "homogeneous-2": lambda o: check_homogeneous(o, K2),
    **{f"distributivity-{name}": (lambda o, m=m: check_distributivity(m, o))
       for name, m in AGGREGATORS.items()},
    "distributivity-tsum-restricted":
        lambda o: check_distributivity(AGGREGATORS["tsum"], o, restrict=non_saturating),
}

# The product times 0.9 * 0.9 is off the grid: only the migration and the
# homogeneity walk read it, at alpha = x = [0.9,0.9].
_OFF = 0.9 * 0.9
# (check, x, y, endpoint, delta): first case of a row, middle, last case.
NUDGES = [
    ("inclusion", (1.0, 1.0), (0.0, 0.0), 1, 1e-6),
    ("inclusion", (0.4, 0.7), (0.1, 0.9), 1, 1e-6),
    ("inclusion", (0.9, 0.9), (1.0, 1.0), 0, -1e-6),
    # The product form f(X, Y) == f([1,1], XY), on the grid.
    ("migrative", (0.9, 1.0), (0.0, 0.0), 1, 1e-6),
    ("migrative", (0.4, 0.7), (0.1, 0.9), 1, 1e-6),
    ("migrative", (0.9, 1.0), (1.0, 1.0), 0, -1e-6),
    # The migration f(aX, Y) == f(X, aY), off the grid.
    ("migrative", (_OFF, _OFF), (0.0, 0.0), 1, 1e-6),
    ("migrative", (_OFF, _OFF), (0.4, 0.7), 1, 1e-6),
    ("migrative", (_OFF, _OFF), (1.0, 1.0), 0, -1e-6),
    ("homogeneous-2", (1.0, 1.0), (0.0, 0.0), 1, 1e-6),
    ("homogeneous-2", (0.6, 1.0), (0.6, 0.8), 0, 1e-6),
    ("homogeneous-2", (1.0, 1.0), (1.0, 1.0), 0, -1e-6),
    ("homogeneous-2", (_OFF, _OFF), (0.0, 0.0), 1, 1e-6),
    ("homogeneous-2", (_OFF, _OFF), (0.9 * 0.4, 0.9 * 0.7), 1, 1e-6),
    ("homogeneous-2", (_OFF, _OFF), (0.9, 0.9), 0, -1e-6),
    ("distributivity-max", (0.9, 1.0), (0.0, 0.0), 1, 1e-6),
    ("distributivity-max", (0.6, 1.0), (0.6, 0.8), 0, 1e-6),
    ("distributivity-max", (0.9, 0.9), (1.0, 1.0), 0, -1e-6),
]


def _cases():
    cases = {}
    for name, o in standard_overlaps().items():
        for check, run in OVERLAP_CHECKS.items():
            cases[f"{check}/{name}"] = lambda run=run, o=o: run(o)
    for name, m in AGGREGATORS.items():
        cases[f"homogeneous-m/{name}"] = lambda m=m: check_homogeneous_m(m)
    for check, x, y, end, delta in NUDGES:
        x, y = Interval(*x), Interval(*y)
        label = f"{check}/nudged@{format_interval(x)}x{format_interval(y)}:{'lu'[end]}{delta:+}"
        cases[label] = (lambda check=check, x=x, y=y, end=end, delta=delta:
                        OVERLAP_CHECKS[check](_nudged_at(interval_product(), x, y, end, delta)))
    return cases


CASES = _cases()


def law_walk_record(case_id):
    res = CASES[case_id]()
    witness = None if res.witness is None else " ".join(map(format_interval, res.witness))
    return {"id": case_id, "ok": res.ok, "witness": witness, "samples": res.samples}


PINNED = {rec["id"]: rec for rec in map(json.loads, GOLDEN.read_text().splitlines())}


def test_every_case_is_pinned():
    assert list(PINNED) == list(CASES)


@pytest.mark.parametrize("case_id", CASES)
def test_law_walk_matches_the_pinned_verdict(case_id):
    assert law_walk_record(case_id) == PINNED[case_id]


def test_law_walks_keep_their_rows_as_arrays(monkeypatch):
    # The rows a walk keeps (one row and one column of values per distinct
    # scaled point, the hulls of each grid row) are arrays of doubles: the
    # migration peaks near 1.7 MB, and about 5.5 MB with lists of floats.
    # A memo of its own, so the walks run.
    monkeypatch.setattr(sampling, "_MEMO", OrderedDict())
    o = interval_product()
    for check, want in ((check_migrative, 291_852), (is_inclusion_monotonic, 1_002_001)):
        tracemalloc.start()
        try:
            res = check(o)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res == (True, None, want)
        assert peak < 3_000_000, check.__name__

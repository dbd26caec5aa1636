"""The exhaustive law walks, pinned on their failure paths as well as their
passes.

`golden/law_walks.jsonl` holds ``(ok, witness, samples)`` for inclusion
monotonicity, migrativity, homogeneity of order [2,2] and n=2 distributivity
(every catalog aggregator, and `tsum` under its restriction too) on every
catalog overlap, n=2 homogeneity of every catalog aggregator, and the
interval product nudged by 1e-6 at one cell.  The nudged cells make a walk
fail on the first case of a row, in the middle of one, and on the last case
of the latest row that can fail: every one of these walks ends on a case that
compares a value with itself.  The n=2 distributivity walks of `max`,
`geomean` and restricted `tsum` decide a block of xs rows at a time, so
their nudges also land on the first case that can fail, on both sides of a
block boundary, and on the last case that can fail; and on a witness row
after rows with x1 > x2 (by grid index) in its block, after a block of only
such rows, and on the diagonal x1 = x2.

It also pins, on every catalog overlap, associativity, the reconstruction
from the projections, the neutral element, idempotency, O1-O5 and strong
positivity; GO1-GO5 on every real catalog overlap; the pointwise order and
equality of real catalog pairs; the aggregator laws of the semi-representable
construction on its aggregators and on aggregators with one dip; and
associativity and reconstruction on the product nudged at one cell.

Last, it pins the sampled walks that `make_gowa` runs above n = 2, at its
budget: distributivity at n = 3 and n = 6 on every catalog overlap, n = 3
homogeneity of every catalog aggregator, and the product nudged at one cell
so that the first failure lands on the first tuple of a block of the sample
stream, on the last one, and on the first tuple of the next block.

Then it pins whole rows of the law table, each run with one overlap nudged
where the row builds it: the grid walks of migrative-commutativity,
homogeneous-projection-orders, strongly-positive-projections (GO1-GO4 on the
0.05 grid, GO5 on its 0.005 stage) and power-transform-sandwich, and the
`:generator`, `:generator-laws` and `:interior` walks of
canonical-family-uniqueness, generator-idempotent-contractive and
migrative-generator-form, and the operator walks of gowa-boundary-aggregation
and gowa-projection-selection, with the product nudged where `make_gowa`
does not read it.  Each walk fails on its first case that can fail, in the
middle and on its last case that can fail; a record is the row's report, so
a walk that fails after an earlier part of its row shows in the row's sample
count.

Last, it pins O1-O4 on the product nudged at one or two argument pairs, on
the first case that can fail, at the start or in the middle of a later row,
and on the last case that can fail; one O4 walk first fails on a comparable
pair that is not a covering pair.
"""

import functools
import itertools
import json
import tracemalloc
from collections import OrderedDict
from pathlib import Path

import pytest

from conftest import nudged_at, opaque
from ivowa import checks, sampling
from ivowa.intervals import ExponentInterval, Interval, format_interval
from ivowa.iv_overlaps import (
    check_associative,
    check_homogeneous,
    check_idempotent,
    check_migrative,
    interval_product,
    is_inclusion_monotonic,
    is_strongly_positive,
    neutral_element_holds,
    reconstructs_from_projections,
    verify_iv_axioms,
)
from ivowa.overlaps import (
    RealAggregator,
    builtin_overlaps,
    check_commutative_first_two,
    check_m2_monotone,
    check_nary_continuity,
    check_pinned_component,
    mean_of_components,
    pointwise_equal,
    pointwise_leq,
    projection_aggregator,
    verify_overlap_axioms,
)
from ivowa.owa import builtin_aggregators, check_distributivity, check_homogeneous_m
from ivowa.registry import standard_overlaps
from ivowa.sampling import DEFAULT_GRID, REAL_GRID

GOLDEN = Path(__file__).resolve().parent / "golden" / "law_walks.jsonl"
AGGREGATORS = builtin_aggregators(2)
K2 = ExponentInterval(2.0, 2.0)


OVERLAP_CHECKS = {
    "inclusion": is_inclusion_monotonic,
    "migrative": check_migrative,
    "homogeneous-2": lambda o: check_homogeneous(o, K2),
    **{f"distributivity-{name}": (lambda o, m=m: check_distributivity(m, o))
       for name, m in AGGREGATORS.items()},
    "distributivity-tsum-restricted":
        lambda o: check_distributivity(AGGREGATORS["tsum"], o, restrict=True),
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
    # The n=2 walks decide 7 xs rows (462 cases) at a time.  Each first fails
    # on its first case that can fail, on the last case of a block and on the
    # first case of the next one, and on its last case that can fail.  Rows
    # whose xs all hold [0,0] (the first 66 kept rows) fail, if at all, on
    # their first row, and no block boundary of the `max` walk is both the
    # last and the first case that can fail: its nudges take the first block
    # whose last case can fail (the 29th) and the first block whose first
    # case can (the 43rd).  geomean and tsum fail last off the grid, on a
    # right side O(M(xs), y) of the aggregate [sqrt(0.9),1] and [0.2+0.4,0.9].
    ("distributivity-max", (0.0, 0.0), (0.0, 0.0), 1, 1e-6),
    ("distributivity-max", (0.0, 0.3), (1.0, 1.0), 0, 1e-6),
    ("distributivity-max", (0.3, 0.3), (0.0, 0.0), 1, 1e-6),
    ("distributivity-max", (1.0, 1.0), (0.9, 1.0), 1, -1e-6),
    ("distributivity-geomean", (0.0, 0.0), (0.0, 0.0), 1, 1e-6),
    ("distributivity-geomean", (0.0, 0.3), (1.0, 1.0), 1, 1e-6),
    ("distributivity-geomean", (0.0, 0.2), (0.0, 0.0), 1, 1e-6),
    ("distributivity-geomean", (0.9 ** 0.5, 1.0), (1.0, 1.0), 0, 1e-6),
    ("distributivity-tsum-restricted", (0.0, 0.0), (0.0, 0.0), 1, 1e-6),
    ("distributivity-tsum-restricted", (0.0, 0.3), (1.0, 1.0), 0, 1e-6),
    ("distributivity-tsum-restricted", (0.0, 0.5), (0.0, 0.0), 1, 1e-6),
    ("distributivity-tsum-restricted", (0.2 + 0.4, 0.9), (1.0, 1.0), 0, 1e-6),
    # Rows with x1 > x2 (by grid index) come before the witness row in its
    # block, or fill the whole block before the witness's block: the first
    # `max` nudge fails at (7, 8) after the block of rows (7, 0..6), the
    # second at (9, 11) after the block (9, 1..7) and the row (9, 8) of its
    # own; tsum fails on the diagonal (1, 1), after the row (1, 0), on its
    # right side O([0,0.2], y).  No single-cell nudge makes max or geomean
    # fail on the diagonal: max(x, x) = x, geomean(x, x) = x on this grid, so
    # both sides read the same cell.
    ("distributivity-max", (0.0, 0.7), (0.0, 0.0), 1, 1e-6),
    ("distributivity-max", (0.0, 0.9), (1.0, 1.0), 1, 1e-6),
    ("distributivity-tsum-restricted", (0.0, 0.2), (1.0, 1.0), 1, 1e-6),
]


GRID_CHECKS = {
    "associative": check_associative,
    "reconstruction": reconstructs_from_projections,
    "neutral": neutral_element_holds,
    "idempotent": check_idempotent,
    **{axiom: (lambda o, axiom=axiom: verify_iv_axioms(o)[axiom])
       for axiom in ("o1", "o2", "o3", "o4", "o5")},
    "strongly-positive": is_strongly_positive,
}

# The first failing case of each nudged walk: associativity on the first, a
# middle and the last z of a row (x, y); the reconstruction on the first, a
# middle and the last y of a row x, and, nudged where a projection is read,
# on every case whose endpoints meet that degenerate cell.
GRID_NUDGES = [
    ("associative", (0.4, 0.6), (0.0, 0.0), 1, 1e-6),
    ("associative", (0.4, 0.6), (0.2, 0.8), 1, 1e-6),
    ("associative", (0.4, 0.6), (1.0, 1.0), 0, -1e-6),
    ("reconstruction", (0.4, 0.7), (0.0, 0.0), 1, 1e-6),
    ("reconstruction", (0.4, 0.7), (0.1, 0.9), 1, 1e-6),
    ("reconstruction", (0.4, 0.7), (1.0, 1.0), 0, -1e-6),
    ("reconstruction", (0.4, 0.4), (0.1, 0.1), 1, 1e-6),
]


def _dip(at):
    """A monotone 4-ary function, (x1 + x2 + x3 + x4 + 1) / 5, except for the
    value 0 at the one argument tuple `at`, as a column map."""
    return RealAggregator(lambda *cols: (0.0 if xs == at else (sum(xs) + 1.0) / 5.0
                                         for xs in zip(*cols)), 4, f"dip@{at}")


# The aggregators of the semi-representable construction, then dips whose
# first decrease moves the first, the third and the last argument.
AGGREGATOR_TARGETS = [
    *(projection_aggregator(i) for i in (1, 2, 3, 4)),
    mean_of_components((3, 4)),
    _dip((1.0, 1.0, 1.0, 1.0)),
    _dip((0.0, 0.0, 0.5, 0.5)),
    _dip((0.0, 0.0, 0.0, 0.5)),
]
AGGREGATOR_CHECKS = {
    "m2": check_m2_monotone,
    **{f"m3:arg{i}": (lambda m, i=i: check_pinned_component(m, i, 0.0)) for i in (1, 2, 3, 4)},
    **{f"m4:arg{i}": (lambda m, i=i: check_pinned_component(m, i, 1.0)) for i in (1, 2, 3, 4)},
    "commutative-first-two": check_commutative_first_two,
    # Only the verdict and the sample count of the continuity probe.
    "nary-continuity": lambda m: check_nary_continuity(m)._replace(witness=None),
}


# make_gowa's distributivity budget above n = 2.
SAMPLED_BUDGET = 100_000


def _sampled_checks(n):
    aggregators = builtin_aggregators(n)
    return {
        **{f"distributivity-{name}-n{n}":
           (lambda o, m=m: check_distributivity(m, o, budget=SAMPLED_BUDGET))
           for name, m in aggregators.items()},
        f"distributivity-tsum-restricted-n{n}": lambda o: check_distributivity(
            aggregators["tsum"], o, restrict=True, budget=SAMPLED_BUDGET),
    }


SAMPLED_CHECKS = {**_sampled_checks(3), **_sampled_checks(6)}

# The sample stream is decided in blocks of 8, 16, ..., 512 tuples, which
# start at tuples 0, 8, 24, 56, 120, 248, 504, 1016, 1528, ...  The first
# failure lands on tuple 120, 247 and 248 of the `max` walk, whose right side
# is read from the value table, and on tuple 1016, 1527 and 1528 of the
# `geomean` walk, whose right side is evaluated off the grid.
SAMPLED_NUDGES = [
    ("distributivity-max-n3", (0.3, 0.7), (0.5, 0.6), 1, 1e-6),
    ("distributivity-max-n3", (0.1, 0.6), (0.0, 0.9), 0, 1e-6),
    ("distributivity-max-n3", (0.6, 1.0), (0.5, 0.9), 1, -1e-6),
    ("distributivity-geomean-n3", (0.7, 0.8), (0.1, 0.1), 0, 1e-6),
    ("distributivity-geomean-n3", (0.1, 0.5), (0.4, 0.7), 1, 1e-6),
    ("distributivity-geomean-n3", (0.4, 0.5), (0.3, 0.7), 0, 1e-6),
]


# Rows of the law table whose grid walks evaluate an overlap they build
# themselves, run with the overlap named `target` nudged where their source
# (a name in `checks`) builds it: (row, source, target, nudges).  A nudge is
# one or more (x, y, endpoint, delta) moves at one argument pair each.  Each
# walk fails on its first case that can fail, in the middle and on its last
# case that can fail; a walk that runs after a failing part of its row is
# pinned by the row's sample count.
_P55, _P95 = 0.55 * 0.55, 0.95 * 0.95
ROW_NUDGES = [
    ("migrative-commutativity", "standard_migrative", "product",
     (((0.0, 0.0), (0.0, 0.1), 1, 1e-6),)),
    ("migrative-commutativity", "standard_migrative", "product",
     (((0.4, 0.7), (0.1, 0.9), 1, 1e-6),)),
    ("migrative-commutativity", "standard_migrative", "product",
     (((1.0, 1.0), (0.9, 1.0), 0, -1e-6),)),
    # The projections at (a*x, a*y) over the 0.05 grid, a = x = y = 0 first.
    ("homogeneous-projection-orders", "migrative_canonical", "canonical(K=[1.0,1.0])",
     (((0.0, 0.0), (0.0, 0.0), 1, 2e-6), ((0.0, 0.0), (0.0, 0.0), 0, 1e-6))),
    ("homogeneous-projection-orders", "migrative_canonical", "canonical(K=[1.0,1.0])",
     (((_P55, _P55), (0.55 * 0.35, 0.55 * 0.35), 0, -1e-6),)),
    ("homogeneous-projection-orders", "migrative_canonical", "canonical(K=[1.0,2.0])",
     (((0.95, 0.95), (_P95, _P95), 1, 1e-6),)),
    # GO2 on the first cell, GO1 inside the 0.05 grid, and GO5 on the 0.005
    # stage only, of the lower and of the upper projection.
    ("strongly-positive-projections", "representable", "rep(product,product)",
     (((0.0, 0.0), (0.0, 0.0), 1, 1e-6),)),
    ("strongly-positive-projections", "representable", "rep(product,product)",
     (((0.3, 0.3), (0.65, 0.65), 0, -1e-6),)),
    ("strongly-positive-projections", "representable", "rep(product,product)",
     (((0.5, 0.5), (0.505, 0.505), 0, -0.05),)),
    ("strongly-positive-projections", "representable", "rep(product,product)",
     (((0.995, 0.995), (0.9, 0.9), 1, 0.03),)),
    # The sandwich: the base, the lowered and the raised overlap.
    ("power-transform-sandwich", "interval_product", "product",
     (((0.1, 0.1), (0.1, 0.1), 1, 0.1),)),
    ("power-transform-sandwich", "interval_product", "product",
     (((0.3, 0.6), (0.5, 0.8), 0, -0.14),)),
    ("power-transform-sandwich", "interval_product", "product",
     (((0.9, 0.9), (0.9, 0.9), 0, -0.2),)),
    ("power-transform-sandwich", "power_transform", "pow(product,n=2)",
     (((0.1, 0.9), (0.1, 0.9), 0, 0.01),)),
    ("power-transform-sandwich", "power_transform", "root(rep(min,min),n=3)",
     (((0.9, 0.9), (0.9, 0.9), 0, -0.1),)),
    # The generator at [1,1] beside a failing migration.
    ("canonical-family-uniqueness", "migrative_canonical", "canonical(K=[1.0,2.0])",
     (((1.0, 1.0), (0.0, 0.0), 1, 1e-6),)),
    ("canonical-family-uniqueness", "migrative_canonical", "canonical(K=[1.0,2.0])",
     (((1.0, 1.0), (0.3, 0.7), 1, 1e-6),)),
    ("canonical-family-uniqueness", "migrative_canonical", "canonical(K=[1.0,2.0])",
     (((1.0, 1.0), (1.0, 1.0), 0, -1e-6),)),
    # g(X) = X * [1,1] outside X, and g(g(X)) away from g(X).
    ("generator-idempotent-contractive", "_associative_targets", "product",
     (((0.0, 0.0), (1.0, 1.0), 1, 1e-6),)),
    ("generator-idempotent-contractive", "_associative_targets", "product",
     (((0.3, 0.7), (1.0, 1.0), 1, -1e-6), ((0.3, 0.7 - 1e-6), (1.0, 1.0), 1, -1e-6))),
    ("generator-idempotent-contractive", "_associative_targets", "product",
     (((1.0, 1.0), (1.0, 1.0), 0, -1e-6),)),
    # An interior X that [1,1] * X sends to [0,0] or to [1,1].
    ("migrative-generator-form", "standard_migrative", "product",
     (((1.0, 1.0), (0.1, 0.1), 1, -0.1), ((1.0, 1.0), (0.1, 0.1), 0, -0.1))),
    ("migrative-generator-form", "standard_migrative", "product",
     (((1.0, 1.0), (0.4, 0.6), 1, 0.4), ((1.0, 1.0), (0.4, 0.6), 0, 0.6))),
    ("migrative-generator-form", "standard_migrative", "product",
     (((1.0, 1.0), (0.9, 0.9), 1, -0.9), ((1.0, 1.0), (0.9, 0.9), 0, -0.9))),
    # The operators' values O(W_k, X) at 0.25-grid X off the 0.1 grid, which
    # `make_gowa` does not read: geomean's [1,1] weights first, tsum's [0.5,0.5].
    ("gowa-boundary-aggregation", "interval_product", "product",
     (((1.0, 1.0), (0.0, 0.75), 1, 0.1),)),
    ("gowa-boundary-aggregation", "interval_product", "product",
     (((1.0, 1.0), (0.25, 0.5), 0, -0.1),)),
    ("gowa-boundary-aggregation", "interval_product", "product",
     (((0.5, 0.5), (0.0, 0.25), 1, 0.1),)),
    ("gowa-boundary-aggregation", "interval_product", "product",
     (((0.5, 0.5), (0.75, 1.0), 1, 0.1),)),
    # The selected input (weight [1,1]) and a dropped one (weight [0,0]); the
    # last holds in the first selector's walk and fails in the second's.
    ("gowa-projection-selection", "interval_product", "product",
     (((1.0, 1.0), (0.0, 0.25), 1, 0.1),)),
    ("gowa-projection-selection", "interval_product", "product",
     (((0.0, 0.0), (0.25, 0.5), 1, 0.1),)),
    ("gowa-projection-selection", "interval_product", "product",
     (((0.0, 0.0), (0.75, 1.0), 1, 0.1),)),
]

# O1-O4 of the product nudged at one or two argument pairs: each fails on its
# first case that can fail, on the first case of a later row or in the middle
# of one, and on its last case that can fail.  O1 fails first at the mirror
# case of the earlier row, and the third O4 nudge fails first on a comparable
# pair two grid steps apart, past the covering pairs of its row.
AXIOM_NUDGES = [
    ("o1", (((0.0, 0.0), (0.0, 0.1), 1, 1e-6),)),
    ("o1", (((0.4, 0.7), (0.1, 0.9), 1, 1e-6),)),
    ("o1", (((0.9, 1.0), (1.0, 1.0), 0, -1e-6),)),
    ("o2", (((0.0, 0.0), (0.0, 0.0), 1, 1e-6),)),
    ("o2", (((0.4, 0.7), (0.0, 0.0), 1, 1e-6),)),
    ("o2", (((0.0, 0.0), (0.4, 0.7), 1, 1e-6),)),
    ("o2", (((1.0, 1.0), (1.0, 1.0), 0, -1.0), ((1.0, 1.0), (1.0, 1.0), 1, -1.0))),
    ("o3", (((0.0, 0.0), (0.0, 0.0), 1, 1.0), ((0.0, 0.0), (0.0, 0.0), 0, 1.0))),
    ("o3", (((0.5, 1.0), (0.0, 0.0), 1, 1.0), ((0.5, 1.0), (0.0, 0.0), 0, 1.0))),
    ("o3", (((0.5, 1.0), (0.5, 1.0), 0, 0.75),)),
    ("o3", (((1.0, 1.0), (1.0, 1.0), 0, -1e-6),)),
    ("o4", (((0.0, 0.0), (0.0, 0.0), 1, 1e-6),)),
    ("o4", (((0.4, 0.7), (0.0, 0.0), 1, 0.1),)),
    ("o4", (((0.4, 0.7), (0.5, 0.7), 0, -1e-6),)),
    ("o4", (((0.4, 0.7), (0.5, 0.6), 0, -1e-6),)),
    ("o4", (((1.0, 1.0), (1.0, 1.0), 0, -0.05), ((1.0, 1.0), (0.9, 1.0), 0, 0.06))),
]


def _nudged(o, nudges):
    """`o` nudged by each (x, y, endpoint, delta) move in turn."""
    for x, y, end, delta in nudges:
        o = nudged_at(o, Interval(*x), Interval(*y), end, delta)
    return o


def _swapped(source, target, nudges):
    """`source` with the overlap named `target`, or each such one among the
    overlaps it lists, nudged."""

    def nudge(o):
        return _nudged(o, nudges) if o.name == target else o

    def swapped(*args):
        got = source(*args)
        return list(map(nudge, got)) if isinstance(got, list) else nudge(got)

    return swapped


def _row_report(row, source, target, nudges):
    """The report of one row of the law table, with its source swapped, as a
    result: its verdict, its witness (the failing part first) and its
    sample count."""
    table = checks._THEOREM_CHECKS if row in checks._THEOREM_CHECKS else checks._LATTICE_CHECKS
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(checks, source, _swapped(getattr(checks, source), target, nudges))
        report = table[row](DEFAULT_GRID)
    return sampling.SampledResult(report.verdict == "pass", report.witness, report.samples_used)


def _moves(nudges):
    return "+".join(f"{format_interval(Interval(*x))}x{format_interval(Interval(*y))}"
                    f":{'lu'[end]}{delta:+}" for x, y, end, delta in nudges)


def _row_label(row, target, nudges):
    return f"row:{row}/{target}/nudged@{_moves(nudges)}"


@functools.cache
def _real_axioms(name):
    return verify_overlap_axioms(builtin_overlaps()[name])


def _nudge_label(check, x, y, end, delta):
    return f"{check}/nudged@{format_interval(x)}x{format_interval(y)}:{'lu'[end]}{delta:+}"


def _cases():
    cases = {}
    for name, o in standard_overlaps().items():
        for check, run in OVERLAP_CHECKS.items():
            cases[f"{check}/{name}"] = lambda run=run, o=o: run(o)
    for name, m in AGGREGATORS.items():
        cases[f"homogeneous-m/{name}"] = lambda m=m: check_homogeneous_m(m)
    for check, x, y, end, delta in NUDGES:
        x, y = Interval(*x), Interval(*y)
        cases[_nudge_label(check, x, y, end, delta)] = (
            lambda check=check, x=x, y=y, end=end, delta=delta:
            OVERLAP_CHECKS[check](nudged_at(interval_product(), x, y, end, delta)))
    for name, o in standard_overlaps().items():
        for check, run in GRID_CHECKS.items():
            cases[f"{check}/{name}"] = lambda run=run, o=o: run(o)
    reals = builtin_overlaps()
    for name in reals:
        for axiom in ("go1", "go2", "go3", "go4", "go5"):
            cases[f"{axiom}/{name}"] = lambda name=name, axiom=axiom: _real_axioms(name)[axiom]
    pts = REAL_GRID.endpoints()
    for (i, a), (j, b) in itertools.product(enumerate(reals.values()), repeat=2):
        if i != j:
            cases[f"pointwise-leq/{a.name}<={b.name}"] = lambda a=a, b=b: pointwise_leq(a, b, pts)
        if i < j:
            cases[f"pointwise-equal/{a.name}={b.name}"] = (
                lambda a=a, b=b: pointwise_equal(a, b, pts))
    for m in AGGREGATOR_TARGETS:
        for check, run in AGGREGATOR_CHECKS.items():
            cases[f"{check}/{m.name}"] = lambda run=run, m=m: run(m)
    for check, x, y, end, delta in GRID_NUDGES:
        x, y = Interval(*x), Interval(*y)
        cases[_nudge_label(check, x, y, end, delta)] = (
            lambda check=check, x=x, y=y, end=end, delta=delta:
            GRID_CHECKS[check](nudged_at(interval_product(), x, y, end, delta)))
    for name, o in standard_overlaps().items():
        for check, run in SAMPLED_CHECKS.items():
            cases[f"{check}/{name}"] = lambda run=run, o=o: run(o)
    for name, m in builtin_aggregators(3).items():
        cases[f"homogeneous-m-n3/{name}"] = lambda m=m: check_homogeneous_m(m)
    for check, x, y, end, delta in SAMPLED_NUDGES:
        x, y = Interval(*x), Interval(*y)
        cases[_nudge_label(check, x, y, end, delta)] = (
            lambda check=check, x=x, y=y, end=end, delta=delta:
            SAMPLED_CHECKS[check](nudged_at(interval_product(), x, y, end, delta)))
    for row, source, target, nudges in ROW_NUDGES:
        cases[_row_label(row, target, nudges)] = functools.partial(
            _row_report, row, source, target, nudges)
    for axiom, nudges in AXIOM_NUDGES:
        cases[f"{axiom}/nudged@{_moves(nudges)}"] = (
            lambda axiom=axiom, nudges=nudges:
            GRID_CHECKS[axiom](_nudged(interval_product(), nudges)))
    return cases


CASES = _cases()


def _text(item):
    """An interval in its ``[a,b]`` form, a tuple as its items in
    parentheses, anything else by its repr."""
    if isinstance(item, Interval):
        return format_interval(item)
    if isinstance(item, tuple):
        return "(" + ",".join(map(_text, item)) + ")"
    return repr(item)


def law_walk_record(case_id):
    res = CASES[case_id]()
    witness = None if res.witness is None else " ".join(map(_text, res.witness))
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
    # A memo of its own, so the walks run, and the product's columns under
    # an `Opaque` provenance, so the migration is the interval walk.
    monkeypatch.setattr(sampling, "_MEMO", OrderedDict())
    o = opaque(interval_product())
    for check, want in ((check_migrative, 291_852), (is_inclusion_monotonic, 1_002_001)):
        tracemalloc.start()
        try:
            res = check(o)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res == (True, None, want)
        assert peak < 3_000_000, check.__name__

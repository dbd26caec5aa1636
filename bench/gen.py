"""Seeded inputs for the benchmark workloads.

The same seed gives byte-identical configs and matrices.  Each workload has a
fixed composition (which aggregator, overlap and arity each job uses, and the
multiset of matrix sizes); the seed chooses the admissible orders, weights,
file formats, cell values and the job order.  Fixing the composition keeps
the cost of a run independent of the seed, so that run-to-run spread measures
the program and the machine rather than the luck of the draw.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

ORDERS = ("lex1", "lex2", "xuyager")

# rank-cold: (aggregator, overlap, arity, expected exit code).  Arities span
# 2..10 weighted toward 3..6; three of sixteen jobs are rejected
# configurations (distributivity witnesses and a missing neutral element).
# The tsum jobs climb in cost with their arity, from below to above the
# deck's median, so the median job time falls between two jobs of nearly
# equal cost and does not jump when noise reorders them.
COLD_DECK = (
    ("max", "product", 3, 0),
    ("max", "rep(product,min)", 2, 0),
    ("max", "rep(min,min)", 4, 0),
    ("tsum", "product", 3, 0),
    ("tsum", "product", 4, 0),
    ("tsum", "product", 5, 0),
    ("tsum", "product", 6, 0),
    ("tsum", "product", 7, 0),
    ("tsum", "product", 8, 0),
    ("tsum", "product", 9, 0),
    ("tsum", "product", 10, 0),
    ("geomean", "product", 2, 0),
    ("geomean", "product", 3, 0),
    ("geomean", "rep(min,min)", 3, 1),
    ("geomean", "rep(min,min)", 6, 1),
    ("tsum", "midpoint", 4, 1),
)
# Heights of the thirteen valid jobs' matrices.
COLD_ROWS = (10, 13, 17, 20, 23, 27, 30, 33, 37, 40, 43, 47, 50)

# What a rejected configuration must name on stderr.
REJECTION_TEXT = {
    ("geomean", "rep(min,min)"): "does not distribute",
    ("tsum", "midpoint"): "lacks the neutral element",
}

# rank-warm: the spec pool validated at set-up.  The (tsum, product, 3)
# triple appears under two orders: the aggregator objects differ per order,
# so identity-keyed validation caches validate it twice.
WARM_POOL = (
    ("tsum", "product", 3, "lex1"),
    ("tsum", "product", 3, "xuyager"),
    ("max", "rep(min,min)", 3, "lex2"),
    ("geomean", "product", 4, "lex1"),
    ("tsum", "product", 6, "lex2"),
    ("tsum", "product", 10, "xuyager"),
)
# Eighteen matrix heights, geometric from 500 to 5000 rows.
WARM_ROWS = tuple(round(500 * 10 ** (i / 17)) for i in range(18))


@dataclass(frozen=True)
class Job:
    """One ranking job: a run configuration and a decision matrix."""

    aggregator: str
    overlap: str
    order: str
    normalize: bool
    weights: tuple[tuple[float, float], ...]
    fmt: str  # "csv" or "json"
    alternatives: tuple[str, ...]
    cells: tuple[tuple[tuple[float, float], ...], ...]
    expect_exit: int = 0

    @property
    def arity(self) -> int:
        return len(self.weights)

    @property
    def rows(self) -> int:
        return len(self.alternatives)

    def config_text(self) -> str:
        payload = {
            "aggregator": self.aggregator,
            "overlap": self.overlap,
            "weights": [list(w) for w in self.weights],
            "order": self.order,
            "normalize": self.normalize,
        }
        return json.dumps(payload, indent=2) + "\n"

    def matrix_text(self) -> str:
        criteria = [f"c{j + 1}" for j in range(self.arity)]
        if self.fmt == "json":
            payload = {
                "alternatives": list(self.alternatives),
                "criteria": criteria,
                "cells": [[lo if lo == up else [lo, up] for lo, up in row] for row in self.cells],
            }
            return json.dumps(payload) + "\n"
        lines = [",".join(["alternative", *criteria])]
        for label, row in zip(self.alternatives, self.cells):
            lines.append(",".join([label, *(_csv_cell(lo, up) for lo, up in row)]))
        return "\n".join(lines) + "\n"


def _csv_cell(lo: float, up: float) -> str:
    return repr(lo) if lo == up else f'"[{lo!r},{up!r}]"'


def _unit(rng: random.Random) -> float:
    """A score on [0, 1] with three decimals; the bounds occur now and then."""
    r = rng.random()
    if r < 0.02:
        return 0.0
    if r < 0.04:
        return 1.0
    return round(rng.random(), 3)


def _cells(rng: random.Random, rows: int, n: int):
    out = []
    for _ in range(rows):
        row = []
        for _ in range(n):
            a = _unit(rng)
            b = a if rng.random() < 0.15 else _unit(rng)
            row.append((min(a, b), max(a, b)))
        out.append(tuple(row))
    return tuple(out)


def _weights(rng: random.Random, aggregator: str, n: int):
    """Weights that make the configuration valid for the aggregator.

    max: one weight is [1,1].  geomean: every weight is [1,1], the only
    vector whose geometric mean is [1,1].  tsum: arbitrary lowers rescaled to
    a total in [0.5, 1.5] and normalized by the program; when the total is
    below 1 some upper endpoints saturate at 1 after normalization.
    """
    if aggregator == "geomean":
        return ((1.0, 1.0),) * n
    if aggregator == "max":
        ws = []
        for _ in range(n):
            lo = round(rng.uniform(0.0, 0.9), 3)
            ws.append((lo, round(rng.uniform(lo, 0.95), 3)))
        ws[rng.randrange(n)] = (1.0, 1.0)
        return tuple(ws)
    raw = [rng.uniform(0.1, 1.0) for _ in range(n)]
    scale = rng.uniform(0.5, 1.5) / sum(raw)
    ws = []
    for r in raw:
        lo = max(0.001, round(r * scale, 4))
        ws.append((lo, round(min(1.0, lo + rng.uniform(0.0, 0.6)), 4)))
    return tuple(ws)


def _job(rng, aggregator, overlap, n, order, rows, fmt, expect_exit=0) -> Job:
    return Job(
        aggregator=aggregator,
        overlap=overlap,
        order=order,
        normalize=aggregator == "tsum",
        weights=_weights(rng, aggregator, n),
        fmt=fmt,
        alternatives=tuple(f"a{i + 1}" for i in range(rows)),
        cells=_cells(rng, rows, n),
        expect_exit=expect_exit,
    )


def cold_jobs(seed: int) -> list[Job]:
    """The rank-cold deck: every COLD_DECK entry once, in seeded order.  The
    valid jobs share out COLD_ROWS, so every deck ranks the same number of
    rows."""
    rng = random.Random(f"rank-cold:{seed}")
    valid = [i for i, entry in enumerate(COLD_DECK) if entry[3] == 0]
    rows = list(COLD_ROWS)
    orders = [ORDERS[i % len(ORDERS)] for i in range(len(COLD_DECK))]
    formats = [("csv", "json")[i % 2] for i in range(len(COLD_DECK))]
    for seq in (rows, orders, formats):
        rng.shuffle(seq)
    heights = dict(zip(valid, rows))
    jobs = [
        _job(rng, agg, ov, n, order, heights.get(i) or rng.randint(10, 50), fmt, expect)
        for i, ((agg, ov, n, expect), order, fmt) in enumerate(zip(COLD_DECK, orders, formats))
    ]
    rng.shuffle(jobs)
    return jobs


def warm_jobs(seed: int) -> list[Job]:
    """The rank-warm deck: matrix heights go to pool specs in a fixed rotation,
    so the deck's cost does not depend on the seed; the job order does."""
    rng = random.Random(f"rank-warm:{seed}")
    jobs = []
    for i, rows in enumerate(WARM_ROWS):
        agg, ov, n, order = WARM_POOL[i % len(WARM_POOL)]
        jobs.append(_job(rng, agg, ov, n, order, rows, "csv"))
    rng.shuffle(jobs)
    return jobs

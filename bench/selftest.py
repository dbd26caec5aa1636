"""Self-tests of the benchmark's own parts.

    python3 bench/selftest.py      (from the root of a checkout)

Checks generator determinism, the reference evaluator against the README
examples (and against the program on the CSV example), self-time arithmetic
on a synthetic span nest and the host-speed normalisation on synthetic
probes.  Exits 0 when every check passes.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import gen
from reference import check_ranking, evaluate
from spans import SpanTree, covered
from speed import LEAST_SAMPLES, REFERENCE_S, normalise


def test_generator_determinism():
    for make in (gen.cold_jobs, gen.warm_jobs):
        first = [(j.config_text(), j.matrix_text()) for j in make(7)]
        again = [(j.config_text(), j.matrix_text()) for j in make(7)]
        other = [(j.config_text(), j.matrix_text()) for j in make(8)]
        assert first == again, f"{make.__name__}: same seed, different inputs"
        assert first != other, f"{make.__name__}: seed has no effect"
    # The composition is fixed: only orders, weights, formats and values move.
    for seed in (1, 2):
        deck = sorted((j.aggregator, j.overlap, j.arity, j.expect_exit) for j in gen.cold_jobs(seed))
        assert deck == sorted(gen.COLD_DECK)
        valid_rows = sorted(j.rows for j in gen.cold_jobs(seed) if not j.expect_exit)
        assert valid_rows == sorted(gen.COLD_ROWS)
        warm = sorted((j.aggregator, j.overlap, j.arity, j.order, j.rows) for j in gen.warm_jobs(seed))
        assert warm == sorted((*gen.WARM_POOL[i % len(gen.WARM_POOL)], r)
                              for i, r in enumerate(gen.WARM_ROWS))


def _job(aggregator, overlap, weights, cells, order="lex1", normalize=False):
    return gen.Job(aggregator, overlap, order, normalize, weights, "csv",
                   tuple(f"a{i + 1}" for i in range(len(cells))), cells)


def test_reference_library_example():
    # README: tsum, uniform weights, [0.2,0.4] and [0.6,0.8] give [0.4,0.6].
    job = _job("tsum", "product", ((0.5, 0.5), (0.5, 0.5)), (((0.2, 0.4), (0.6, 0.8)),))
    lo, up = evaluate(job, job.cells[0])
    assert abs(lo - 0.4) <= 1e-12 and abs(up - 0.6) <= 1e-12, (lo, up)


README_CSV = (((0.2, 0.5), (0.4, 0.8)), ((0.1, 0.2), (0.4, 0.9)), ((0.6, 0.6), (0.3, 0.7)))


def test_reference_csv_example():
    # README CSV example under the README config (geomean, product, [1,1]
    # weights, lex1): each aggregate is the endpoint-wise geometric mean.
    job = _job("geomean", "product", ((1.0, 1.0), (1.0, 1.0)), README_CSV)
    want = [(math.sqrt(0.2 * 0.4), math.sqrt(0.5 * 0.8)),
            (math.sqrt(0.1 * 0.4), math.sqrt(0.2 * 0.9)),
            (math.sqrt(0.6 * 0.3), math.sqrt(0.6 * 0.7))]
    for row, (lo, up) in zip(job.cells, want):
        got = evaluate(job, row)
        assert abs(got[0] - lo) <= 1e-12 and abs(got[1] - up) <= 1e-12, (got, lo, up)
    ranked = sorted(zip(job.alternatives, want), key=lambda p: p[1], reverse=True)
    assert [label for label, _ in ranked] == ["a3", "a1", "a2"]
    assert check_ranking(job, [(a, lo, up) for a, (lo, up) in ranked]) is None
    swapped = [ranked[1], ranked[0], ranked[2]]
    assert check_ranking(job, [(a, lo, up) for a, (lo, up) in swapped]) is not None

    # The program ranks the same matrix the same way.
    sys.path.insert(0, str(Path.cwd() / "src"))
    from ivowa.cli import RunConfig, rank_matrix
    from ivowa.intervals import ONE
    from ivowa.matrix import parse_matrix_text
    from ivowa.owa import WeightVector

    matrix = parse_matrix_text(job.matrix_text(), "csv")
    ranking, _ = rank_matrix(RunConfig("geomean", "product", WeightVector((ONE, ONE))), matrix)
    got = [(r.alternative, r.aggregate.lower, r.aggregate.upper) for r in ranking]
    assert check_ranking(job, got) is None, got


def test_self_time():
    # job 1: root [0,10] with children [1,3] and [2,5] (overlapping) and
    # [8,9]; child [2,5] has a grandchild [3,4].  A same-named nested span
    # is not counted twice.  job 2 reuses span ids without mixing.
    spans = [
        (1, 0, "root", 0.0, 10.0, 1),
        (2, 1, "a", 1.0, 3.0, 1),
        (3, 1, "b", 2.0, 5.0, 1),
        (4, 3, "c", 3.0, 4.0, 1),
        (5, 1, "a", 8.0, 9.0, 1),
        (6, 5, "a", 8.2, 8.5, 1),
        (1, 0, "root", 20.0, 21.0, 2),
    ]
    tree = SpanTree(spans)
    assert covered([(1.0, 3.0), (2.0, 5.0), (8.0, 9.0)], 0.0, 10.0) == 5.0
    assert covered([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == 3.0
    assert tree.self_time(spans[0]) == 5.0
    assert tree.self_time(spans[2]) == 2.0
    assert tree.self_total("root") == 6.0
    assert tree.total("a") == 3.0
    assert tree.count("a") == 3
    assert tree.without_descendant("root", "c") == 1


def test_speed_normalisation():
    # Probes at t = 0..9 s; those at 4 and 5 s took twice the reference time.
    assert LEAST_SAMPLES == 8
    ref = REFERENCE_S
    starts = [float(t) for t in range(10)]
    samples = [starts, [2 * ref if t in (4, 5) else ref for t in range(10)]]
    # The whole run: mean speed 9/10, all ten probes taken off the wall.
    want = (10.0 - 12 * ref) * 0.9
    assert math.isclose(normalise(samples, 10.0), want), normalise(samples, 10.0)
    # [4, 5] holds two probes, so its speed comes from the eight nearest to
    # 4.5 s (1 to 8 s), but only its own two are taken off the wall.
    want = (1.0 - 4 * ref) * 7 / 8
    assert math.isclose(normalise(samples, 1.0, 4.0, 5.0), want)
    # A host at full speed leaves the wall minus the probe time.
    flat = [starts, [ref] * 10]
    assert math.isclose(normalise(flat, 9.0, 0.0, 8.0), 9.0 - 9 * ref)


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok    {name}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL  {name}: {exc}")
    print(f"{len(tests) - failed} of {len(tests)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""The ivowa benchmark: three seeded workloads, every output checked.

    python3 bench/run.py --workload rank-cold|rank-warm|verify \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is the tree under src/, run
through child.py with PYTHONPATH=src.  Every measured program runs as a
child process, one at a time, and every end-to-end time is given in
reference-speed seconds (see speed.py).  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
per-layer ones, from a timed span pass and two count-only passes (see
instrument.py), plus the tracing overhead.  The lines before it are a
readable report with units and sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import speed
from reference import check_cold_output, check_ranking, check_verify_output
from spans import SpanTree, load

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PY = sys.executable
CHILD = str(BENCH / "child.py")
ENV = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")

IMPORT_PROBES = 11  # fresh-process imports of ivowa.cli per set-up measurement
WARM_PROCESSES = 2  # rank-warm set-ups per run, each followed by half of the timed phase
WARM_DECKS = 4  # least decks per rank-warm process: a run has at least 144 jobs

GOLDEN_VERIFY = BENCH / "golden" / "verify.jsonl"
VERIFY_ARGS = ["verify", "theorems", "lattice", "--json"]

THEOREM_CHECK_IDS = (
    "aggregator-homogeneity-distributivity",
    "associative-neutral-element",
    "canonical-family-uniqueness",
    "generator-idempotent-contractive",
    "gowa-arithmetic-mean",
    "gowa-boundary-aggregation",
    "gowa-idempotency",
    "gowa-projection-selection",
    "homogeneous-projection-orders",
    "homogeneous-unit-idempotency",
    "homogeneous-zero-preservation",
    "inclusion-monotonicity-characterization",
    "migrative-commutativity",
    "migrative-generator-form",
    "migrative-idempotent-homogeneity",
    "migrative-implies-representable",
    "migrative-neutral-homogeneity",
    "no-self-duality",
    "projection-reconstruction",
    "real-convex-closure",
    "real-lattice-closure",
    "representable-construction",
    "strongly-positive-projections",
    "weighted-vector-characterizations",
)

# Per-layer time metrics: metric name -> span name (inclusive time of the
# outermost spans of that name).
SPAN_TIMES = {
    "owa.make_gowa_s": "owa.make_gowa",
    "owa.distributivity_s": "owa.distributivity",
    "iv_overlaps.neutral_s": "iv_overlaps.neutral",
    "owa.operator_s": "owa.operator",
    "matrix.parse_s": "matrix.parse",
    "cli.rank_s": "cli.rank",
    "cli.import_s": "cli.import",
    "registry.resolve_s": "registry.resolve",
    "checks.theorems_s": "checks.theorems",
    "checks.lattice_s": "checks.lattice",
    **{f"checks.{cid}_s": f"checks.{cid}" for cid in THEOREM_CHECK_IDS},
    "checks.semi-representable_s": "checks.semi-representable",
    "iv_overlaps.verify_axioms_s": "iv_overlaps.verify_axioms",
    "overlaps.verify_axioms_s": "overlaps.verify_axioms",
    "sampling.tuple_samples_s": "sampling.tuple_samples",
}
SPAN_COUNTS = {
    "owa.make_gowa_calls": "owa.make_gowa",
    "owa.distributivity_calls": "owa.distributivity",
}


class Outcome:
    """What one run measured and how many of its jobs or checks were wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, tuple[float, str, str]] = {}  # name -> (value, unit, note)
        self.notes: list[str] = []

    def check(self, problem: str | None, weight: int = 1) -> None:
        self.attempted += weight
        if problem:
            self.failed += weight
            self.problems.append(problem)

    def metric(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = (value, unit, note)


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def _finish(proc, t0: float):
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def run_child(argv, out_path: Path):
    """Run one program to completion; returns (wall s, exit code, peak RSS MB,
    stdout, stderr)."""
    err_path = out_path.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=ENV, cwd=ROOT)
        wall, code, rss = _finish(proc, t0)
    return (wall, code, rss, out_path.read_text(encoding="utf-8"),
            err_path.read_text(encoding="utf-8"))


def run_pair(argvs, work: Path, tag: str):
    """Run two unmeasured programs side by side (the count-only passes);
    returns their exit codes."""
    procs, files = [], []
    try:
        for i, argv in enumerate(argvs):
            out = open(work / f"{tag}.{i}.out", "wb")
            files.append(out)
            procs.append(subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                          env=ENV, cwd=ROOT))
    finally:
        codes = [_finish(p, time.perf_counter())[1] for p in procs]
        for fh in files:
            fh.close()
    return codes


def speed_samples(work: Path, tag: str):
    with open(work / f"{tag}.speed.json", encoding="utf-8") as fh:
        return json.load(fh)["speed"]


def run_plain(args, work: Path, tag: str):
    """Run one uninstrumented child.py program to completion, its speed
    probes going to work/<tag>.speed.json; returns (wall s, reference-speed
    s, exit code, peak RSS MB, stdout, stderr)."""
    argv = [PY, CHILD, "plain", str(work / f"{tag}.speed.json"), "0", *args]
    wall, code, rss, out, err = run_child(argv, work / f"{tag}.out")
    return wall, speed.normalise(speed_samples(work, tag), wall), code, rss, out, err


def raw_note(walls) -> str:
    return f"wall median {statistics.median(walls):.4f} s"


def import_setup(outcome: Outcome, work: Path) -> None:
    """setup_s for workloads whose users start a fresh process per job."""
    walls, refs = [], []
    for i in range(IMPORT_PROBES):
        wall, ref, code, _, _, err = run_plain(["import"], work, f"import{i}")
        outcome.check(f"import failed: {err.strip()[-200:]}" if code else None)
        walls.append(wall)
        refs.append(ref)
    outcome.metric("setup_s", statistics.median(refs), "s",
                   f"median of {len(refs)} fresh-process imports of ivowa.cli; "
                   + raw_note(walls))


def read_counts(paths) -> tuple[dict, set]:
    total, missing = {}, set()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        for name, value in payload["counts"].items():
            total[name] = total.get(name, 0) + value
        missing.update(payload["missing"])
    return total, missing


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _write_cold(jobs, work: Path):
    paths = []
    for i, job in enumerate(jobs):
        config = work / f"job{i}.json"
        matrix = work / f"job{i}.matrix.{job.fmt}"
        config.write_text(job.config_text(), encoding="utf-8")
        matrix.write_text(job.matrix_text(), encoding="utf-8")
        paths.append(["aggregate", "--config", str(config), "--matrix", str(matrix), "--json"])
    return paths


def _cold_deck(outcome, jobs, argvs, work, tag, prefix=None):
    """One pass over the rank-cold deck, uninstrumented unless `prefix` is
    given; returns (walls, reference-speed walls, rows ranked, peak RSS)."""
    walls, refs, rows, rss = [], [], 0, 0.0
    for i, (job, args) in enumerate(zip(jobs, argvs)):
        if prefix is None:
            wall, ref, code, peak, out, err = run_plain(["cli", *args], work, f"{tag}{i}")
            refs.append(ref)
        else:
            wall, code, peak, out, err = run_child(prefix(i) + args, work / f"{tag}{i}.out")
        problem = check_cold_output(job, code, out, err)
        outcome.check(problem and f"{tag} job {i}: {problem}")
        walls.append(wall)
        rss = max(rss, peak)
        if code == 0:
            rows += job.rows
    return walls, refs, rows, rss


def rank_cold(outcome: Outcome, seed: int, seconds: float, trace: bool, work: Path) -> None:
    jobs = gen.cold_jobs(seed)
    argvs = _write_cold(jobs, work)
    if trace:
        walls, _, _, _ = _cold_deck(outcome, jobs, argvs, work, "plain")
        span_walls, _, _, _ = _cold_deck(
            outcome, jobs, argvs, work, "span",
            lambda i: [PY, CHILD, "span", str(work / f"spans{i}.json"), str(i), "cli"])
        pairs = []
        for i, args in enumerate(argvs):
            paths = [work / f"counts{i}.{p}.json" for p in range(2)]
            codes = run_pair([[PY, CHILD, "count", str(path), str(i), "cli", *args]
                              for path in paths], work, f"count{i}")
            outcome.check(None if codes == [jobs[i].expect_exit] * 2
                          else f"count pass job {i} exited {codes}")
            pairs.append(paths)
        trace_metrics(outcome, [work / f"spans{i}.json" for i in range(len(jobs))],
                      [[p[k] for p in pairs] for k in range(2)], sum(span_walls) - sum(walls),
                      sum(walls))
        return
    import_setup(outcome, work)
    walls, refs, rows, rss = [], [], 0, 0.0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        w, ref, r, peak = _cold_deck(outcome, jobs, argvs, work, "job")
        walls += w
        refs += ref
        rows += r
        rss = max(rss, peak)
    n, busy = len(refs), sum(refs)
    outcome.metric("job_s_p50", statistics.median(refs), "s",
                   f"median of {n} jobs, spawn to exit; " + raw_note(walls))
    outcome.metric("jobs_per_s", n / busy, "1/s",
                   f"{n} jobs in {busy:.2f} s, one client; wall {sum(walls):.2f} s")
    outcome.metric("items_per_s", rows / busy, "1/s",
                   f"matrix rows ranked: {rows} rows of 10-50-row matrices")
    outcome.metric("peak_rss_mb", rss, "MB", f"largest of {n} job processes")


def _write_warm(jobs, work: Path) -> Path:
    deck = {"pool": gen.WARM_POOL, "jobs": []}
    for i, job in enumerate(jobs):
        matrix = work / f"warm{i}.csv"
        matrix.write_text(job.matrix_text(), encoding="utf-8")
        deck["jobs"].append({
            "matrix": str(matrix), "aggregator": job.aggregator, "overlap": job.overlap,
            "weights": job.weights, "order": job.order, "normalize": job.normalize,
            "rows": job.rows,
        })
    path = work / "deck.json"
    path.write_text(json.dumps(deck), encoding="utf-8")
    return path


def _warm_process(mode: str, deck: Path, seconds: float, decks: int, work: Path, tag: str,
                  out: Path | None = None):
    """Start one rank-warm process; returns (set-up s, wall s, peak RSS MB,
    result).  A plain process writes its speed probes to work/<tag>.speed.json."""
    result = work / f"{tag}.result.json"
    out = out or work / f"{tag}.speed.json"
    argv = [PY, CHILD, mode, str(out), "0", "warm", str(deck), str(seconds), str(decks),
            str(result)]
    with open(work / f"{tag}.err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=ENV, cwd=ROOT)
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        proc.stdout.read()
        proc.stdout.close()
        wall, code, rss = _finish(proc, t0)
    if ready.strip() != b"ready" or code != 0 or not result.exists():
        detail = (work / f"{tag}.err").read_text(encoding="utf-8").strip()[-300:]
        raise RuntimeError(f"rank-warm process {tag} failed (exit {code}): {detail}")
    return setup, wall, rss, json.loads(result.read_text(encoding="utf-8"))


def _check_warm(outcome, jobs, result, reference_rankings) -> None:
    """Each timed job counts once; a deck's first pass is checked against the
    reference (or against an already checked identical pass), later passes
    against the first."""
    runs = len(result["timings"])
    repeats = runs - len(jobs)
    for i, (job, ranking) in enumerate(zip(jobs, result["rankings"])):
        ranking = [tuple(r) for r in ranking]
        if reference_rankings is None:
            problem = check_ranking(job, ranking)
        else:
            problem = None if ranking == reference_rankings[i] else "differs from a checked pass"
        outcome.check(problem and f"warm job {i}: {problem}")
    outcome.check(f"{result['mismatches']} repeated jobs changed their ranking"
                  if result["mismatches"] else None, weight=repeats)


def rank_warm(outcome: Outcome, seed: int, seconds: float, trace: bool, work: Path) -> None:
    jobs = gen.warm_jobs(seed)
    deck = _write_warm(jobs, work)
    checked = None

    def check(result):
        nonlocal checked
        _check_warm(outcome, jobs, result, checked)
        if checked is None:
            checked = [[tuple(r) for r in ranking] for ranking in result["rankings"]]

    if trace:
        _, plain_wall, _, result = _warm_process("plain", deck, 0, 1, work, "plain")
        check(result)
        spans_path = work / "spans.json"
        _, span_wall, _, result = _warm_process("span", deck, 0, 1, work, "span", spans_path)
        check(result)
        paths = [work / f"counts.{p}.json" for p in range(2)]
        results = [work / f"count{k}.result.json" for k in range(2)]
        codes = run_pair([[PY, CHILD, "count", str(p), "0", "warm", str(deck), "0", "1", str(r)]
                          for p, r in zip(paths, results)], work, "count")
        outcome.check(None if codes == [0, 0] else f"count passes exited {codes}")
        for r in results:
            if r.exists():
                check(json.loads(r.read_text(encoding="utf-8")))
        trace_metrics(outcome, [spans_path], [[paths[0]], [paths[1]]],
                      span_wall - plain_wall, plain_wall)
        return
    setups, raw_setups, times, raw_times, rows, rss = [], [], [], [], 0, 0.0
    for k in range(WARM_PROCESSES):
        setup, _, peak, result = _warm_process("plain", deck, seconds / WARM_PROCESSES,
                                               WARM_DECKS, work, f"warm{k}")
        check(result)
        samples = speed_samples(work, f"warm{k}")
        setups.append(speed.normalise(samples, setup, None, result["ready"]))
        raw_setups.append(setup)
        for t0, dt, r in result["timings"]:
            times.append(speed.normalise(samples, dt, t0, t0 + dt))
            raw_times.append(dt)
            rows += r
        rss = max(rss, peak)
    times.sort()
    busy = sum(times)
    n = len(times)
    outcome.metric("setup_s", statistics.median(setups), "s",
                   f"median of {len(setups)} processes: import, resolve and cold-validate "
                   f"{len(gen.WARM_POOL)} pool specs; " + raw_note(raw_setups))
    outcome.metric("job_s_p50", statistics.median(times), "s",
                   f"median of {n} parse+rank jobs, 500-5000 rows x 3-10 criteria; "
                   + raw_note(raw_times))
    outcome.metric("jobs_per_s", n / busy, "1/s",
                   f"{n} jobs in {busy:.2f} s of ranking; wall {sum(raw_times):.2f} s")
    outcome.metric("items_per_s", rows / busy, "1/s", f"matrix rows ranked: {rows} rows")
    outcome.metric("peak_rss_mb", rss, "MB", f"largest of {WARM_PROCESSES} processes")
    if n >= 100:
        outcome.notes.append(f"job_s_p90 {statistics.quantiles(times, n=10)[-1]:.6f} s "
                             f"({n} jobs, {n - int(0.9 * n)} beyond)")
    else:
        outcome.notes.append(f"job_s_p90 not reported: {n} jobs, fewer than 100")


def verify(outcome: Outcome, seed: int, seconds: float, trace: bool, work: Path) -> None:
    # The law suite takes no input, so the seed changes nothing here.
    expected = GOLDEN_VERIFY.read_text(encoding="utf-8").splitlines()
    samples = sum(json.loads(line)["samples"] for line in expected if line.strip())

    def run(tag, prefix=None):
        if prefix is None:
            wall, ref, code, rss, out, err = run_plain(["cli", *VERIFY_ARGS], work, tag)
        else:
            wall, code, rss, out, err = run_child(prefix + VERIFY_ARGS, work / f"{tag}.out")
            ref = None
        problems = check_verify_output(expected, out)
        if code != 0:
            problems.append(f"exit {code}: {err.strip()[-200:]}")
        outcome.attempted += len(expected)
        outcome.failed += min(len(problems), len(expected))
        outcome.problems += problems
        return wall, ref, rss

    if trace:
        plain_wall, _, _ = run("plain")
        spans_path = work / "spans.json"
        span_wall, _, _ = run("span", [PY, CHILD, "span", str(spans_path), "0", "cli"])
        paths = [work / f"counts.{p}.json" for p in range(2)]
        codes = run_pair([[PY, CHILD, "count", str(p), "0", "cli", *VERIFY_ARGS]
                          for p in paths], work, "count")
        outcome.check(None if codes == [0, 0] else f"count passes exited {codes}")
        trace_metrics(outcome, [spans_path], [[paths[0]], [paths[1]]],
                      span_wall - plain_wall, plain_wall)
        return
    import_setup(outcome, work)
    walls, refs, rss = [], [], 0.0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, ref, peak = run(f"verify{len(walls)}")
        walls.append(wall)
        refs.append(ref)
        rss = max(rss, peak)
    n, busy = len(refs), sum(refs)
    outcome.metric("job_s_p50", statistics.median(refs), "s",
                   f"verify_s: median of {n} runs of `ivowa verify theorems lattice --json`; "
                   + raw_note(walls))
    outcome.metric("jobs_per_s", n / busy, "1/s", f"{n} suite runs in {busy:.2f} s")
    outcome.metric("items_per_s", n * samples / busy, "1/s",
                   f"law-check samples: {samples} per suite run")
    outcome.metric("peak_rss_mb", rss, "MB", f"largest of {n} suite processes")


WORKLOADS = {"rank-cold": rank_cold, "rank-warm": rank_warm, "verify": verify}


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def trace_metrics(outcome: Outcome, span_paths, count_passes, overhead: float,
                  untraced: float) -> None:
    spans, missing = load(span_paths)
    tree = SpanTree(spans)
    for metric, name in SPAN_TIMES.items():
        outcome.metric(metric, tree.total(name), "s", f"{len(tree.outermost(name))} spans")
    for metric, name in SPAN_COUNTS.items():
        outcome.metric(metric, tree.count(name), "count")
    calls = tree.count("owa.make_gowa")
    hits = tree.without_descendant("owa.make_gowa", "owa.distributivity")
    outcome.metric("owa.validation_hit_ratio", hits / calls if calls else 0.0, "ratio",
                   f"{hits} of {calls} make_gowa calls ran no distributivity check")
    ops = tree.count("owa.operator")
    outcome.metric("owa.row_us", tree.total("owa.operator") / ops * 1e6 if ops else 0.0, "us",
                   f"{ops} operator calls")
    outcome.metric("cli.rank_self_s", tree.self_total("cli.rank"), "s",
                   "rank_matrix minus its child spans")
    first, first_missing = read_counts(count_passes[0])
    second, second_missing = read_counts(count_passes[1])
    outcome.check(None if first == second else f"count passes differ: {first} != {second}")
    for name, value in first.items():
        outcome.metric(name, value, "count", "count-only pass, repeated identically"
                       if first == second else "count-only passes DIFFER")
    outcome.metric("trace.overhead_s", overhead, "s", "span pass wall minus untraced wall")
    outcome.metric("trace.overhead_ratio", overhead / untraced, "ratio",
                   f"of the untraced wall {untraced:.3f} s")
    for target in sorted(missing | first_missing | second_missing):
        outcome.notes.append(f"not instrumented (not found in the program): {target}")


# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ivowa" / "cli.py").is_file():
        print(f"error: no program to measure: {SRC / 'ivowa' / 'cli.py'} is missing; "
              "run from the root of an ivowa checkout", file=sys.stderr)
        return 2
    build = subprocess.run([PY, "-m", "compileall", "-q", str(SRC)], env=ENV, cwd=ROOT)
    if build.returncode != 0:
        print("error: compiling src/ failed", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    outcome = Outcome()
    try:
        WORKLOADS[args.workload](outcome, args.seed, args.seconds, bool(args.trace), work)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for name, (value, unit, note) in outcome.metrics.items():
        print(f"  {name:<48} {value:>14.6f} {unit:<6} {note}")
    for note in outcome.notes:
        print(f"  {note}")
    ratio = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    print(f"  fail_ratio {ratio:.6f} ({outcome.failed} of {outcome.attempted} "
          "jobs, records or checks)")
    for problem in outcome.problems[:20]:
        print(f"  FAILED: {problem}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in outcome.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

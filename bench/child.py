"""A measured program run, started by run.py as a child process with
PYTHONPATH=src.

    python bench/child.py MODE OUT JOB cli ARGS...
    python bench/child.py MODE OUT JOB import
    python bench/child.py MODE OUT JOB warm DECK SECONDS DECKS RESULT

MODE is `plain` (no instrumentation), `span` (timed trace, spans written to
OUT) or `count` (count-only wrappers, counts written to OUT).  In every mode
the host-speed probe (speed.py) runs from the start of main() to its end,
and its samples are written to OUT too.  JOB tags the spans.  `cli` runs `ivowa.cli.main(ARGS)`
and exits with its code; `import` only imports `ivowa.cli`.  `warm` is the
rank-warm process: it validates the spec pool named in DECK, prints `ready`
once set-up is done, then ranks the deck's matrices, whole decks at a time,
until SECONDS have passed and at least DECKS decks are done, and writes its
timings and the first deck's rankings to RESULT.
"""

from __future__ import annotations

import json
import sys
import time

import instrument
from spans import SpanRecorder
from speed import Sampler


def _warm(deck_path: str, seconds: float, decks: int, result_path: str) -> int:
    from ivowa.cli import RunConfig, rank_matrix
    from ivowa.intervals import ONE, Interval
    from ivowa.matrix import parse_matrix_text
    from ivowa.owa import WeightVector, make_gowa, normalize_weights
    from ivowa.registry import resolve_aggregator, resolve_iv_overlap, resolve_order

    with open(deck_path, encoding="utf-8") as fh:
        deck = json.load(fh)
    for agg_id, overlap_id, n, order_id in deck["pool"]:
        order = resolve_order(order_id)
        m = resolve_aggregator(agg_id, n, order)
        o = resolve_iv_overlap(overlap_id)
        if agg_id == "tsum":
            w = normalize_weights(m, WeightVector.uniform(n))
        elif agg_id == "max":
            w = WeightVector.selector(n, 1)
        else:
            w = WeightVector((ONE,) * n)
        make_gowa(m, o, w, order)
    ready = time.perf_counter()
    print("ready", flush=True)

    jobs = []
    for job in deck["jobs"]:
        with open(job["matrix"], encoding="utf-8") as fh:
            text = fh.read()
        config = RunConfig(
            aggregator_id=job["aggregator"],
            overlap_id=job["overlap"],
            weights=WeightVector(tuple(Interval(lo, up) for lo, up in job["weights"])),
            order=resolve_order(job["order"]),
            normalize=job["normalize"],
        )
        jobs.append((text, config, job["rows"]))

    timings, first, mismatches = [], [], 0
    start = time.perf_counter()
    deck_no = 0
    while deck_no < decks or time.perf_counter() - start < seconds:
        for i, (text, config, rows) in enumerate(jobs):
            t0 = time.perf_counter()
            ranking, _ = rank_matrix(config, parse_matrix_text(text, "csv"))
            timings.append((t0, time.perf_counter() - t0, rows))
            out = [(r.alternative, r.aggregate.lower, r.aggregate.upper) for r in ranking]
            if deck_no == 0:
                first.append(out)
            elif out != first[i]:
                mismatches += 1
        deck_no += 1
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"ready": ready, "timings": timings, "rankings": first,
                   "mismatches": mismatches}, fh)
    return 0


def main(argv: list[str]) -> int:
    sampler = Sampler().start()
    mode, out_path, job, kind, *rest = argv
    t0 = time.perf_counter()
    import ivowa.cli
    t1 = time.perf_counter()
    recorder = counts = None
    if mode == "span":
        recorder = SpanRecorder(int(job))
        recorder.add("cli.import", t0, t1)
        missing = instrument.install_spans(recorder)
    elif mode == "count":
        counts, missing = instrument.install_counts()
    else:
        missing = []
    try:
        if kind == "import":
            return 0
        if kind == "cli":
            try:
                return ivowa.cli.main(rest)
            except SystemExit as exc:
                return exc.code if isinstance(exc.code, int) else 2
        deck_path, seconds, decks, result_path = rest
        return _warm(deck_path, float(seconds), int(decks), result_path)
    finally:
        sampler.stop()
        sys.stdout.flush()
        payload = {"missing": missing, "speed": sampler.to_json()}
        if recorder is not None:
            payload["spans"] = recorder.spans
        if counts is not None:
            payload["counts"] = counts
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""An independent reference evaluator for ranking jobs, and the output checks
that feed the benchmark's failure count.

It shares no code with the program: it works on (lower, upper) float pairs,
sorts descending by the order's key, combines weight and value per endpoint
through the overlap, and aggregates.
"""

from __future__ import annotations

import json
import math

from gen import REJECTION_TEXT

TOL = 1e-12

_KEYS = {
    "lex1": lambda v: (v[0], v[1]),
    "lex2": lambda v: (v[1], v[0]),
    "xuyager": lambda v: (v[0] + v[1], v[1] - v[0], v[0], v[1]),
}

_OVERLAPS = {
    "product": (lambda a, b: a * b, lambda a, b: a * b),
    "rep(product,min)": (lambda a, b: a * b, min),
    "rep(min,min)": (min, min),
}


def _aggregate(kind: str, pieces):
    lows = [p[0] for p in pieces]
    ups = [p[1] for p in pieces]
    if kind == "max":
        return max(lows), max(ups)
    if kind == "tsum":
        return min(1.0, math.fsum(lows)), min(1.0, math.fsum(ups))
    if kind == "geomean":
        n = len(pieces)
        return math.prod(lows) ** (1.0 / n), math.prod(ups) ** (1.0 / n)
    raise ValueError(f"no reference for aggregator {kind!r}")


def normalized_weights(job):
    """tsum normalization: divide by the sum of lower endpoints, clamp uppers at 1."""
    if not job.normalize:
        return job.weights
    total = math.fsum(lo for lo, _ in job.weights)
    return tuple((lo / total, max(min(1.0, up / total), lo / total)) for lo, up in job.weights)


def evaluate(job, values):
    """The operator applied to one row of (lower, upper) pairs."""
    key = _KEYS[job.order]
    lo_fn, up_fn = _OVERLAPS[job.overlap]
    ranked = sorted(values, key=key, reverse=True)
    pieces = [(lo_fn(w[0], v[0]), up_fn(w[1], v[1]))
              for w, v in zip(normalized_weights(job), ranked)]
    return _aggregate(job.aggregator, pieces)


def check_ranking(job, ranking) -> str | None:
    """Compare a ranking, as (alternative, lower, upper) in rank order, with the
    reference.  Returns None when it agrees, else a description of the first
    disagreement.

    Intervals must agree with the reference within TOL, and the ranking must
    sort the reported intervals descending by the order's key.  A ranking can
    then differ from the reference's only where reference keys tie within
    TOL; an exact binary64 near-tie (say two lowers one ulp apart) is ranked
    as the program computed it.
    """
    want = {label: evaluate(job, row) for label, row in zip(job.alternatives, job.cells)}
    if sorted(label for label, _, _ in ranking) != sorted(want):
        return "ranking does not list each alternative exactly once"
    for label, lo, up in ranking:
        ref = want[label]
        if abs(lo - ref[0]) > TOL or abs(up - ref[1]) > TOL:
            return f"{label}: got [{lo!r},{up!r}], reference [{ref[0]!r},{ref[1]!r}]"
    key = _KEYS[job.order]
    keys = [key((lo, up)) for _, lo, up in ranking]
    for pos in range(1, len(keys)):
        if keys[pos] > keys[pos - 1]:
            return f"rank {pos}: {ranking[pos - 1][0]} is ranked above {ranking[pos][0]}"
    return None


def check_cold_output(job, exit_code: int, stdout: str, stderr: str) -> str | None:
    """Check one `ivowa aggregate --json` process against the reference."""
    if exit_code != job.expect_exit:
        return f"exit {exit_code}, expected {job.expect_exit}: {stderr.strip()[-200:]}"
    if job.expect_exit:
        needle = REJECTION_TEXT[(job.aggregator, job.overlap)]
        if "precondition failed" not in stderr or needle not in stderr:
            return f"rejection does not name the precondition {needle!r}: {stderr.strip()[-200:]}"
        return None
    try:
        payload = json.loads(stdout)
        ranking = [(r["alternative"], r["interval"][0], r["interval"][1])
                   for r in payload["ranking"]]
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc}"
    if payload.get("order") != job.order:
        return f"output order {payload.get('order')!r}, expected {job.order!r}"
    return check_ranking(job, ranking)


# Fields of a `verify --json` record that must match the recorded output.
VERIFY_FIELDS = ("check_id", "target", "verdict", "samples", "witness")


def check_verify_output(expected_lines, stdout: str) -> list[str]:
    """Compare `verify --json` records with the expected ones.  Returns one
    problem per record that is missing, extra or different; new fields are
    ignored."""
    def load(lines):
        out = {}
        for line in lines:
            if line.strip():
                rec = json.loads(line)
                out[(rec["check_id"], rec["target"])] = {f: rec.get(f) for f in VERIFY_FIELDS}
        return out

    want = load(expected_lines)
    try:
        got = load(stdout.splitlines())
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc}"] * len(want)
    problems = [f"missing record {k}" for k in want if k not in got]
    problems += [f"unexpected record {k}" for k in got if k not in want]
    problems += [f"record {k} differs: {got[k]} != {want[k]}"
                 for k in want if k in got and got[k] != want[k]]
    return problems

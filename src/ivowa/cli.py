"""Command-line interface: rank alternatives from an interval decision matrix
and run the verification suites.

Exit codes: 0 success, 1 a check or precondition failed, 2 usage/parse error,
141 standard output was closed early (as a process ended by SIGPIPE reports).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable, Container
from typing import BinaryIO, NamedTuple

from .checks import (
    SUITE_ROWS,
    WORKER_ROWS,
    CheckReport,
    lattice_order_checks,
    overlap_property_reports,
    report_lines,
    reports_to_json,
    run_axiom_suite,
    run_theorem_suite,
    sort_reports,
)
from .intervals import AdmissibleOrder, DEFAULT_ORDER, Interval, IntervalError, format_interval
from .iv_overlaps import ConstructionError
from .matrix import DecisionMatrix, MatrixError, parse_matrix, read_json_number, unique_keys
from .overlaps import builtin_overlaps
from .owa import GowaError, WeightError, WeightVector, make_gowa, normalize_weights
from .registry import (
    AGGREGATOR_IDS,
    ORDER_IDS,
    RegistryError,
    generator_catalog,
    resolve_aggregator,
    resolve_iv_overlap,
    resolve_order,
    standard_overlaps,
)
from .sampling import ROOT_TOLERANCE, SampleGrid


class RunConfig(NamedTuple):
    aggregator_id: str
    overlap_id: str
    weights: WeightVector
    order: AdmissibleOrder = DEFAULT_ORDER
    normalize: bool = False
    tolerances: dict | None = None


class ConfigError(ValueError):
    pass


CONFIG_KEYS = ("aggregator", "overlap", "weights", "order", "normalize", "tolerances")
TOLERANCE_KEYS = ("distributivity",)


def _reject_unknown_keys(data: dict, known: tuple[str, ...], where: str) -> None:
    for key in data:
        if key not in known:
            raise ConfigError(f"{where} has unknown key {key!r}; known: {', '.join(known)}")


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=unique_keys("config"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config {path!r} must be a JSON object")
    _reject_unknown_keys(data, CONFIG_KEYS, f"config {path!r}")
    for key in ("aggregator", "overlap", "weights"):
        if key not in data:
            raise ConfigError(f"config {path!r} is missing key {key!r}")
    for key in ("aggregator", "overlap", "order"):
        if key in data and not isinstance(data[key], str):
            raise ConfigError(f"config key {key!r} must be a string, got {data[key]!r}")
    tolerances = data.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ConfigError(f"config key 'tolerances' must be an object, got {tolerances!r}")
    _reject_unknown_keys(tolerances, TOLERANCE_KEYS, "config key 'tolerances'")
    raw_weights = data["weights"]
    if not isinstance(raw_weights, list) or not raw_weights:
        raise ConfigError("config weights must be a non-empty array of [a,b] pairs")
    pairs = []
    for i, raw in enumerate(raw_weights):
        if not (isinstance(raw, list) and len(raw) == 2):
            raise ConfigError(f"weight {i + 1} must be a two-element array")
        ends = [read_json_number(v, f"weight {i + 1}", ConfigError) for v in raw]
        try:
            pairs.append(Interval(*ends))
        except IntervalError as exc:
            raise ConfigError(f"weight {i + 1}: {exc}") from None
    try:
        order = resolve_order(data.get("order", DEFAULT_ORDER.value))
    except RegistryError as exc:
        raise ConfigError(str(exc)) from None
    normalize = data.get("normalize", False)
    if not isinstance(normalize, bool):
        raise ConfigError(f"config key 'normalize' must be true or false, got {normalize!r}")
    return RunConfig(
        aggregator_id=data["aggregator"],
        overlap_id=data["overlap"],
        weights=WeightVector(tuple(pairs)),
        order=order,
        normalize=normalize,
        tolerances=tolerances,
    )


class RankedAlternative(NamedTuple):
    rank: int
    alternative: str
    aggregate: Interval
    key: tuple[float, ...]


def rank_matrix(config: RunConfig, matrix: DecisionMatrix):
    """Aggregate every row and rank the alternatives descending.

    Ties keep the matrix row order.  Returns the ranking and the operator
    (whose saturation witness, if any, callers may surface).
    """
    n = len(matrix.criteria)
    try:
        aggregator = resolve_aggregator(config.aggregator_id, n)
        overlap = resolve_iv_overlap(config.overlap_id)
    except (RegistryError, ConstructionError) as exc:
        raise ConfigError(str(exc)) from None
    weights = config.weights
    if len(weights) != n:
        raise ConfigError(f"{len(weights)} weights for {n} criteria")
    if config.normalize:
        weights = normalize_weights(aggregator, weights)
    overrides = config.tolerances or {}
    tol = read_json_number(overrides.get("distributivity", ROOT_TOLERANCE),
                           "tolerances.distributivity", ConfigError)
    if tol < 0.0:
        raise ConfigError(f"tolerances.distributivity must be >= 0, got {tol!r}")
    operator = make_gowa(aggregator, overlap, weights, config.order, tol=tol)
    lowers, uppers = operator.columns(matrix.lowers, matrix.uppers)
    keys = list(config.order.key_column(lowers, uppers))
    # Descending and stable, as `ranks_descending`: ties keep matrix order.
    order_desc = sorted(range(len(keys)), key=keys.__getitem__, reverse=True)
    ranking = [
        RankedAlternative(pos + 1, matrix.alternatives[i], Interval(lowers[i], uppers[i]), keys[i])
        for pos, i in enumerate(order_desc)
    ]
    return ranking, operator


def _cmd_aggregate(args) -> int:
    try:
        config = load_config(args.config)
        ranking, operator = rank_matrix(config, parse_matrix(args.matrix, args.format))
    except (ConfigError, MatrixError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GowaError, WeightError) as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 1
    if args.json:
        records = [
            {
                "rank": r.rank,
                "alternative": r.alternative,
                "interval": [r.aggregate.lower, r.aggregate.upper],
                "key": list(r.key),
            }
            for r in ranking
        ]
        print(json.dumps({"order": config.order.value, "ranking": records}, indent=2))
    else:
        label_width = max(len(r.alternative) for r in ranking)
        label_width = max(label_width, len("alternative"))
        print(f"{'rank':<5} {'alternative':<{label_width}} aggregate")
        for r in ranking:
            print(f"{r.rank:<5} {r.alternative:<{label_width}} {format_interval(r.aggregate)}"
                  f"  key={tuple(r.key)}")
        if operator.saturation_witness is not None:
            witness = " ".join(map(format_interval, operator.saturation_witness))
            print("note: distributivity holds on the non-saturating sample only; "
                  f"witness outside it: {witness}", file=sys.stderr)
    return 0


def _verify_one(target_id: str, grid: SampleGrid,
                rows: Container[str] | None = None) -> list[CheckReport]:
    """The reports of one target; of a suite, only those of `rows` if given."""
    if target_id == "theorems":
        return run_theorem_suite(grid, rows)
    if target_id == "lattice":
        return lattice_order_checks(grid, rows)
    real = builtin_overlaps()
    if target_id in real:  # walked on its own point grid, not `grid`
        return run_axiom_suite(real[target_id])
    if target_id in AGGREGATOR_IDS:
        return run_axiom_suite(resolve_aggregator(target_id, 2), grid)
    op = resolve_iv_overlap(target_id)
    reports = run_axiom_suite(op, grid)
    reports.extend(overlap_property_reports(op, grid))
    return reports


def _fork(run: Callable[[], object]) -> tuple[int, BinaryIO] | None:
    """Call `run` in a forked process: its pid and the pipe to read from, or
    None when the fork fails.

    The child pickles what `run` returns to the pipe and exits 0, or exits 1
    having written nothing.  It leaves through os._exit, so none of this
    process's exit handlers run twice.  The command runs no threads, so
    forking it is safe.
    """
    import pickle  # before the fork, and only on this path

    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to be had
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            data = pickle.dumps(run())
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


def _cmd_verify(args) -> int:
    try:
        grid = SampleGrid(args.step)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def worker_parts() -> list[list[CheckReport]]:
        return [_verify_one(target, grid, WORKER_ROWS) if target in SUITE_ROWS else []
                for target in args.targets]

    # When the requested suites have rows on both sides of WORKER_ROWS and a
    # second CPU is there, a forked worker runs the WORKER_ROWS and this
    # process the rest, and the worker's reports are merged into each suite
    # in the suite's order.  A worker that fails in any way has its rows run
    # again here, so its failure leaves the output, exit code and message
    # those of one process: the split is only a speed-up.
    rows = set().union(*(SUITE_ROWS.get(target, ()) for target in args.targets))
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    worker = (_fork(worker_parts) if rows & WORKER_ROWS and rows - WORKER_ROWS
              and hasattr(os, "fork") and cpus > 1 else None)
    try:
        parts = [_verify_one(target_id, grid, None if worker is None else rows - WORKER_ROWS)
                 for target_id in args.targets]
        if worker is not None:
            import pickle

            pid, pipe = worker
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)  # 0 only after exit status 0
            worker = None
            theirs = pickle.loads(data) if status == 0 else worker_parts()
            parts = [sort_reports(mine + other) if other else mine
                     for mine, other in zip(parts, theirs)]
    except (RegistryError, ConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if worker is not None:  # its reports are never read
            import signal

            os.kill(worker[0], signal.SIGKILL)
            os.waitpid(worker[0], 0)
            worker[1].close()
    reports = [report for part in parts for report in part]
    if args.json:
        for line in reports_to_json(reports):
            print(line)
    else:
        for line in report_lines(reports):
            print(line)
        failed = sum(1 for r in reports if r.verdict == "fail")
        skipped = sum(1 for r in reports if r.verdict == "skipped")
        print(f"{len(reports)} checks: {len(reports) - failed - skipped} passed, "
              f"{failed} failed, {skipped} skipped")
    return 1 if any(r.verdict == "fail" for r in reports) else 0


def _cmd_catalog(args) -> int:
    print("real overlaps:")
    for name in builtin_overlaps():
        print(f"  {name}")
    print("interval overlaps:")
    for name in standard_overlaps():
        print(f"  {name}")
    print("  rep(<real>,<real>) | mig(<generator>) | canonical(K=[k1,k2])"
          " | pow(<id>,n=<k>) | root(<id>,n=<k>)")
    print("generators:")
    for name in generator_catalog():
        print(f"  {name}")
    print("aggregators:")
    for name in AGGREGATOR_IDS:
        print(f"  {name}")
    print("orders:")
    for name in ORDER_IDS:
        print(f"  {name}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ivowa",
        description="Interval-valued overlap functions and OWA aggregation with interval weights.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_agg = sub.add_parser("aggregate", help="rank a decision matrix")
    p_agg.add_argument("--config", required=True, help="JSON run configuration")
    p_agg.add_argument("--matrix", required=True, help="decision matrix file (CSV or JSON)")
    p_agg.add_argument("--format", choices=("csv", "json"), default=None,
                       help="matrix format; defaults from the file suffix")
    p_agg.add_argument("--json", action="store_true", help="emit machine-readable output")
    p_agg.set_defaults(fn=_cmd_aggregate)

    p_ver = sub.add_parser("verify", help="run law checks for operator ids")
    p_ver.add_argument("targets", nargs="+",
                       help="operator ids, or the suite ids 'theorems' / 'lattice'")
    p_ver.add_argument("--step", type=float, default=0.1,
                       help="endpoint step of the interval sample grid (default 0.1); "
                       "real-overlap targets walk their own 0.05 point grid")
    p_ver.add_argument("--json", action="store_true", help="emit one JSON record per check")
    p_ver.set_defaults(fn=_cmd_verify)

    p_cat = sub.add_parser("catalog", help="list operator ids")
    p_cat.set_defaults(fn=_cmd_catalog)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (`ivowa catalog | head -1`).  Point
        # stdout at devnull so the flush at interpreter exit cannot fail too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())

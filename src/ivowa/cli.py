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
from dataclasses import dataclass

from .checks import (
    CheckReport,
    lattice_order_checks,
    overlap_property_reports,
    report_lines,
    reports_to_json,
    run_axiom_suite,
    run_theorem_suite,
)
from .intervals import AdmissibleOrder, DEFAULT_ORDER, Interval, IntervalError, format_interval
from .iv_overlaps import ConstructionError
from .matrix import DecisionMatrix, MatrixError, parse_matrix
from .owa import GowaError, WeightError, WeightVector, make_gowa, normalize_weights
from .registry import (
    AGGREGATOR_IDS,
    ORDER_IDS,
    RegistryError,
    generator_catalog,
    real_catalog,
    resolve_aggregator,
    resolve_iv_overlap,
    resolve_order,
    standard_overlaps,
)
from .sampling import SampleGrid

__all__ = ["main", "RunConfig", "load_config", "aggregate", "rank_matrix"]


@dataclass(frozen=True)
class RunConfig:
    aggregator_id: str
    overlap_id: str
    weights: WeightVector
    order: AdmissibleOrder = DEFAULT_ORDER
    normalize: bool = False
    tolerances: dict | None = None


class ConfigError(ValueError):
    pass


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config {path!r} must be a JSON object")
    for key in ("aggregator", "overlap", "weights"):
        if key not in data:
            raise ConfigError(f"config {path!r} is missing key {key!r}")
    raw_weights = data["weights"]
    if not isinstance(raw_weights, list) or not raw_weights:
        raise ConfigError("config weights must be a non-empty array of [a,b] pairs")
    pairs = []
    for i, raw in enumerate(raw_weights):
        if not (isinstance(raw, list) and len(raw) == 2):
            raise ConfigError(f"weight {i + 1} must be a two-element array")
        try:
            pairs.append(Interval(float(raw[0]), float(raw[1])))
        except (TypeError, ValueError, IntervalError) as exc:
            raise ConfigError(f"weight {i + 1}: {exc}") from None
    try:
        order = resolve_order(data.get("order", DEFAULT_ORDER.value))
    except RegistryError as exc:
        raise ConfigError(str(exc)) from None
    normalize = data.get("normalize", False)
    if not isinstance(normalize, bool):
        raise ConfigError(f"config key 'normalize' must be true or false, got {normalize!r}")
    return RunConfig(
        aggregator_id=str(data["aggregator"]),
        overlap_id=str(data["overlap"]),
        weights=WeightVector(tuple(pairs)),
        order=order,
        normalize=normalize,
        tolerances=data.get("tolerances"),
    )


@dataclass(frozen=True)
class RankedAlternative:
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
        aggregator = resolve_aggregator(config.aggregator_id, n, config.order)
        overlap = resolve_iv_overlap(config.overlap_id)
    except (RegistryError, ConstructionError) as exc:
        raise ConfigError(str(exc)) from None
    weights = config.weights
    if len(weights) != n:
        raise ConfigError(f"{len(weights)} weights for {n} criteria")
    if config.normalize:
        weights = normalize_weights(aggregator, weights)
    overrides = config.tolerances or {}
    try:
        tol = float(overrides.get("distributivity", 1e-9))
    except (TypeError, ValueError):
        raise ConfigError("tolerances.distributivity must be a number") from None
    operator = make_gowa(aggregator, overlap, weights, config.order, tol=tol)
    aggregates = [operator(matrix.row(i)) for i in range(len(matrix.alternatives))]
    order_desc = config.order.ranks_descending(aggregates)
    ranking = [
        RankedAlternative(
            rank=pos + 1,
            alternative=matrix.alternatives[i],
            aggregate=aggregates[i],
            key=config.order.sort_key(aggregates[i]),
        )
        for pos, i in enumerate(order_desc)
    ]
    return ranking, operator


def aggregate(config: RunConfig, matrix: DecisionMatrix):
    ranking, _ = rank_matrix(config, matrix)
    return ranking


def _cmd_aggregate(args) -> int:
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        matrix = parse_matrix(args.matrix, args.format)
    except (MatrixError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        ranking, operator = rank_matrix(config, matrix)
    except ConfigError as exc:
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


def _verify_one(target_id: str, grid: SampleGrid) -> list[CheckReport]:
    if target_id == "theorems":
        return run_theorem_suite(grid)
    if target_id == "lattice":
        return lattice_order_checks(grid)
    real = real_catalog()
    if target_id in real:
        return run_axiom_suite(real[target_id])
    if target_id in AGGREGATOR_IDS:
        return run_axiom_suite(resolve_aggregator(target_id, 2), grid)
    op = resolve_iv_overlap(target_id)
    reports = run_axiom_suite(op, grid)
    reports.extend(overlap_property_reports(op, grid))
    return reports


def _cmd_verify(args) -> int:
    try:
        grid = SampleGrid(args.step)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reports: list[CheckReport] = []
    for target_id in args.targets:
        try:
            reports.extend(_verify_one(target_id, grid))
        except (RegistryError, ConstructionError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
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
    for name in real_catalog():
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
                       help="endpoint step of the interval sample grid (default 0.1)")
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

"""Decision matrices of interval scores: CSV/JSON parsing and emission.

Rows are alternatives, columns are criteria.  CSV cells use the ``[a,b]``
text form (quoted, since it contains a comma) or a bare number for a
degenerate interval; JSON cells are two-element arrays.  Parse errors name
the offending cell.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path

from .intervals import Interval, IntervalError, format_interval, parse_interval

__all__ = [
    "DecisionMatrix",
    "MatrixError",
    "parse_matrix",
    "parse_matrix_text",
    "emit_matrix_text",
]


class MatrixError(ValueError):
    """The matrix file is malformed; the message locates the problem."""


@dataclass(frozen=True)
class DecisionMatrix:
    alternatives: tuple[str, ...]
    criteria: tuple[str, ...]
    cells: tuple[tuple[Interval, ...], ...]

    def __post_init__(self) -> None:
        if len(self.cells) != len(self.alternatives):
            raise MatrixError("one cell row per alternative required")
        for label, row in zip(self.alternatives, self.cells):
            if len(row) != len(self.criteria):
                raise MatrixError(
                    f"row {label!r} has {len(row)} cells for {len(self.criteria)} criteria"
                )

    def row(self, index: int) -> tuple[Interval, ...]:
        return self.cells[index]


def _cell(value: str, row_label: str, col_label: str) -> Interval:
    try:
        return parse_interval(value)
    except IntervalError as exc:
        raise MatrixError(f"cell ({row_label!r}, {col_label!r}): {exc}") from None


def parse_matrix_text(text: str, fmt: str) -> DecisionMatrix:
    if fmt == "csv":
        return _parse_csv(text)
    if fmt == "json":
        return _parse_json(text)
    raise MatrixError(f"unknown matrix format {fmt!r}; expected csv or json")


def parse_matrix(path: str | Path, fmt: str | None = None) -> DecisionMatrix:
    """Read a matrix file; the format defaults from the file suffix."""
    p = Path(path)
    if fmt is None:
        fmt = "json" if p.suffix.lower() == ".json" else "csv"
    return parse_matrix_text(p.read_text(encoding="utf-8"), fmt)


def _parse_csv(text: str) -> DecisionMatrix:
    rows = list(csv.reader(io.StringIO(text)))
    rows = [r for r in rows if r]
    if len(rows) < 2:
        raise MatrixError("matrix needs a header row and at least one alternative row")
    header = rows[0]
    if len(header) < 2:
        raise MatrixError("header row needs at least one criterion label")
    criteria = tuple(label.strip() for label in header[1:])
    alternatives: list[str] = []
    cells: list[tuple[Interval, ...]] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise MatrixError(
                f"row {lineno} has {len(row) - 1} cells for {len(criteria)} criteria"
            )
        label = row[0].strip()
        if not label:
            raise MatrixError(f"row {lineno} is missing an alternative label")
        alternatives.append(label)
        cells.append(tuple(
            _cell(value, label, criteria[j]) for j, value in enumerate(row[1:])
        ))
    return DecisionMatrix(tuple(alternatives), criteria, tuple(cells))


def _parse_json(text: str) -> DecisionMatrix:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise MatrixError("matrix JSON must be an object")
    for key in ("alternatives", "criteria", "cells"):
        if key not in data:
            raise MatrixError(f"missing key {key!r}")
        if not isinstance(data[key], list):
            raise MatrixError(f"key {key!r} must be an array")
    alternatives = tuple(str(a) for a in data["alternatives"])
    criteria = tuple(str(c) for c in data["criteria"])
    raw_rows = data["cells"]
    if len(raw_rows) != len(alternatives):
        raise MatrixError("one cell row per alternative required")
    cells = []
    for label, raw_row in zip(alternatives, raw_rows):
        if not isinstance(raw_row, list) or len(raw_row) != len(criteria):
            count = len(raw_row) if isinstance(raw_row, list) else "no"
            raise MatrixError(
                f"row {label!r} has {count} cells for {len(criteria)} criteria"
            )
        row = []
        for col_label, raw in zip(criteria, raw_row):
            if isinstance(raw, (int, float)):
                raw_pair = [raw, raw]
            elif isinstance(raw, list) and len(raw) == 2:
                raw_pair = raw
            else:
                raise MatrixError(
                    f"cell ({label!r}, {col_label!r}): expected a two-element array"
                )
            try:
                row.append(Interval(float(raw_pair[0]), float(raw_pair[1])))
            except (TypeError, ValueError, IntervalError) as exc:
                raise MatrixError(f"cell ({label!r}, {col_label!r}): {exc}") from None
        cells.append(tuple(row))
    return DecisionMatrix(alternatives, criteria, tuple(cells))


def emit_matrix_text(matrix: DecisionMatrix, fmt: str) -> str:
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(("alternative", *matrix.criteria))
        for label, row in zip(matrix.alternatives, matrix.cells):
            writer.writerow((label, *(format_interval(c) for c in row)))
        return out.getvalue()
    if fmt == "json":
        payload = {
            "alternatives": list(matrix.alternatives),
            "criteria": list(matrix.criteria),
            "cells": [[[c.lower, c.upper] for c in row] for row in matrix.cells],
        }
        return json.dumps(payload, indent=2) + "\n"
    raise MatrixError(f"unknown matrix format {fmt!r}; expected csv or json")

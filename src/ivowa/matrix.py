"""Decision matrices of interval scores: CSV/JSON parsing and emission.

Rows are alternatives, columns are criteria; a matrix is held as endpoint
columns.  CSV cells are ``[a,b]`` (quoted strictly) or a bare number for a
degenerate interval, JSON cells two-element arrays.  Errors name the first bad
label, row (by the CSV line it starts on) or cell in row-major order.
"""

from __future__ import annotations

import csv
import io
import json
import math
from itertools import compress, count, islice
from operator import itemgetter
from pathlib import Path
from typing import Callable, NamedTuple

from .intervals import BLOCK_ROWS, Interval, IntervalError, endpoint_error, parse_interval_columns

__all__ = [
    "DecisionMatrix",
    "MatrixError",
    "parse_matrix",
    "parse_matrix_text",
    "emit_matrix_text",
    "read_json_number",
    "unique_keys",
]


class MatrixError(ValueError):
    """The matrix file is malformed; the message locates the problem."""


class DecisionMatrix(NamedTuple):
    """Alternatives scored on criteria, held as endpoint columns:
    ``lowers[j][i]`` and ``uppers[j][i]`` bound alternative i's score on
    criterion j."""

    alternatives: tuple[str, ...]
    criteria: tuple[str, ...]
    lowers: tuple[list[float], ...]
    uppers: tuple[list[float], ...]

    @property
    def cells(self) -> tuple[tuple[Interval, ...], ...]:
        """The cells as intervals, row by row."""
        return tuple(zip(*(map(Interval, lo, up) for lo, up in zip(self.lowers, self.uppers))))


def read_json_number(raw: object, where: str, error: type[ValueError]) -> float:
    """A JSON number as a finite float; anything else raises `error`, whose
    message starts with `where`.

    Only JSON ints and floats are numbers: ``true`` and ``"1"`` are not.
    """
    if type(raw) not in (int, float):
        raise error(f"{where} must be a number, got {raw!r}")
    try:
        value = float(raw)
    except OverflowError:
        raise error(f"{where} does not fit a binary64 number") from None
    if not math.isfinite(value):
        raise error(f"{where} must be finite, got {raw!r}")
    return value


def unique_keys(where: str) -> Callable[[list[tuple[str, object]]], dict]:
    """`json.load`'s ``object_pairs_hook`` for the `where` text (config or matrix):
    a key given twice, which `json` reads as its last value, raises a ValueError."""
    def hook(pairs: list[tuple[str, object]]) -> dict:
        data = dict(pairs)
        if len(data) < len(pairs):
            seen = set()
            key = next(key for key, _ in pairs if key in seen or seen.add(key))
            raise ValueError(f"repeated key {key!r} in the {where}")
        return data

    return hook


def _first_use(seen: dict, label: str, at: int, where: Callable[[int], str], kind: str) -> None:
    """Record `label` as used at `at`; a label used before raises, naming both
    places by `where`."""
    first = seen.setdefault(label, at)
    if first != at:
        raise MatrixError(f"{where(at)} repeats the {kind} label {label!r} of {where(first)}")


def _check_criteria(labels: tuple[str, ...], where: Callable[[int], str]) -> None:
    """No criterion label is blank or repeats an earlier one."""
    seen = {}
    for i, label in enumerate(labels):
        if not label.strip():
            raise MatrixError(f"{where(i)} is missing a criterion label")
        _first_use(seen, label, i, where, "criterion")


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
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise MatrixError(f"matrix {str(p)!r} is not UTF-8 text: {exc}") from None
    return parse_matrix_text(text, fmt)


def _parse_csv(text: str) -> DecisionMatrix:
    """Rows are read `BLOCK_ROWS` at a time; each column of a block's rows before
    its first ragged row is parsed in one call.  After a defect (the file's row
    `bad`) the rest is read, not parsed, so a later CSV syntax error still wins."""
    reader = csv.reader(io.StringIO(text), strict=True)
    rows = filter(None, reader)
    alternatives, total, bad = [], 0, None
    try:
        header = next(rows, [])
        ends = [([], []) for _ in header[1:]]
        for block in iter(lambda: list(islice(rows, BLOCK_ROWS)), []):
            if bad is None:
                shaped = next(compress(count(), map(len(header).__ne__, map(len, block))),
                              len(block))
                columns = list(zip(*block[:shaped]))
                for (lows, ups), column in zip(ends, columns[1:]):
                    try:
                        lo, up = parse_interval_columns(column)
                    except IntervalError as exc:
                        shaped = min(shaped, exc.cell)
                    else:
                        lows += lo
                        ups += up
                alternatives += map(str.strip, columns[0]) if columns else ()
                bad = total + shaped if shaped < len(block) else None
            total += len(block)
    except csv.Error as exc:
        raise MatrixError(f"CSV line {reader.line_num}: {exc}") from None
    if not total:
        raise MatrixError("matrix needs a header row and at least one alternative row")
    if len(header) < 2:
        raise MatrixError("header row needs at least one criterion label")
    criteria = tuple(label.strip() for label in header[1:])
    _check_criteria(criteria, lambda i: f"header column {i + 2}")
    if bad is None and all(alternatives) and len(set(alternatives)) == total:
        return DecisionMatrix(tuple(alternatives), criteria, *zip(*ends))
    # A defect: raise the error of the first bad row or cell in row-major
    # order, a row's length checked first, then its label, then its cells,
    # which are parsed only in row `bad`.
    reader = csv.reader(io.StringIO(text), strict=True)
    next(filter(None, reader))  # the header
    seen, start, index = {}, reader.line_num + 1, 0
    for row in reader:
        lineno, start = start, reader.line_num + 1  # the CSV line the row starts on
        if not row:
            continue
        if len(row) != len(header):
            raise MatrixError(
                f"row {lineno} has {len(row) - 1} cells for {len(criteria)} criteria"
            )
        label = row[0].strip()
        if not label:
            raise MatrixError(f"row {lineno} is missing an alternative label")
        _first_use(seen, label, lineno, "row {}".format, "alternative")
        if index == bad:
            for col_label, value in zip(criteria, row[1:]):
                try:
                    parse_interval_columns((value,))
                except IntervalError as exc:
                    raise MatrixError(f"cell ({label!r}, {col_label!r}): {exc}") from None
        index += 1
    raise AssertionError("a matrix the column pass refused has no defect")


def _json_labels(data: dict, key: str) -> tuple[str, ...]:
    """The labels under `key`, which must be JSON strings, at least one."""
    if not data[key]:
        raise MatrixError(f"key {key!r} must not be empty")
    for i, label in enumerate(data[key]):
        if not isinstance(label, str):
            raise MatrixError(f"{key}[{i}] must be a string, got {label!r}")
    return tuple(data[key])


def _parse_json(text: str) -> DecisionMatrix:
    try:
        data = json.loads(text, object_pairs_hook=unique_keys("matrix"))
    except (ValueError, RecursionError) as exc:
        raise MatrixError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise MatrixError("matrix JSON must be an object")
    for key in ("alternatives", "criteria", "cells"):
        if key not in data:
            raise MatrixError(f"missing key {key!r}")
        if not isinstance(data[key], list):
            raise MatrixError(f"key {key!r} must be an array")
    alternatives = _json_labels(data, "alternatives")
    criteria = _json_labels(data, "criteria")
    _check_criteria(criteria, "criteria[{}]".format)
    raw_rows = data["cells"]
    if len(raw_rows) != len(alternatives):
        raise MatrixError("one cell row per alternative required")
    pairs = []  # each cell's endpoints, row by row
    seen = {}
    for i, (label, raw_row) in enumerate(zip(alternatives, raw_rows)):
        if not isinstance(raw_row, list) or len(raw_row) != len(criteria):
            count = len(raw_row) if isinstance(raw_row, list) else "no"
            raise MatrixError(
                f"row {label!r} has {count} cells for {len(criteria)} criteria"
            )
        if not label.strip():
            raise MatrixError(f"alternatives[{i}] is missing an alternative label")
        _first_use(seen, label, i, "alternatives[{}]".format, "alternative")
        for col_label, raw in zip(criteria, raw_row):
            where = f"cell ({label!r}, {col_label!r})"
            if not isinstance(raw, list):
                raw = [raw, raw]
            if len(raw) != 2:
                raise MatrixError(f"{where}: expected a number or a two-element array")
            lower, upper = ends = [read_json_number(v, where, MatrixError) for v in raw]
            if not 0.0 <= lower <= upper <= 1.0:
                raise MatrixError(f"{where}: {endpoint_error(lower, upper)}")
            pairs.append(ends)
    n = len(criteria)
    lowers = tuple(list(map(itemgetter(0), pairs[j::n])) for j in range(n))
    uppers = tuple(list(map(itemgetter(1), pairs[j::n])) for j in range(n))
    return DecisionMatrix(alternatives, criteria, lowers, uppers)


def emit_matrix_text(matrix: DecisionMatrix, fmt: str) -> str:
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(("alternative", *matrix.criteria))
        # Each cell in the text form of `format_interval`, a column at a time.
        texts = (map("[{!r},{!r}]".format, lo, up) for lo, up in zip(matrix.lowers, matrix.uppers))
        writer.writerows(zip(matrix.alternatives, *texts))
        return out.getvalue()
    if fmt == "json":
        payload = {
            "alternatives": list(matrix.alternatives),
            "criteria": list(matrix.criteria),
            "cells": [list(map(list, row))
                      for row in zip(*map(zip, matrix.lowers, matrix.uppers))],
        }
        return json.dumps(payload, indent=2) + "\n"
    raise MatrixError(f"unknown matrix format {fmt!r}; expected csv or json")

"""Fuzzing the three readers of user input: matrix text, config files and
overlap ids.  Each input is read, or it is refused with the reader's own
error, never with another exception."""

import csv
import io
import json
from collections import OrderedDict

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from ivowa import sampling
from ivowa.cli import CONFIG_KEYS, ConfigError, RunConfig, load_config
from ivowa.intervals import IntervalError, parse_interval, parse_interval_columns
from ivowa.iv_overlaps import ConstructionError, IVOverlap
from ivowa.matrix import DecisionMatrix, MatrixError, parse_matrix_text
from ivowa.registry import RegistryError, resolve_iv_overlap

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

json_scalars = (st.none() | st.booleans() | st.floats() | st.text(max_size=6)
                | st.integers(min_value=-10**400, max_value=10**400))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=12,
)
numbers = st.one_of(st.floats(), st.integers(min_value=-2, max_value=3),
                    st.integers(min_value=10**300, max_value=10**400), st.booleans(),
                    st.text(alphabet="0123456789.-e", max_size=5))
cells = st.one_of(numbers, st.lists(numbers, min_size=1, max_size=3), json_values)
cell_texts = st.one_of(
    st.builds("[{},{}]".format, numbers, numbers),
    numbers.map(str),
    st.text(max_size=8),
)


def _csv_row(label: str, texts: list[str]) -> str:
    return ",".join([label, *(f'"{t}"' if "," in t else t for t in texts)])


csv_texts = st.one_of(
    st.text(),
    st.builds(
        lambda header, rows: "\n".join([_csv_row("alternative", header),
                                        *(_csv_row(f"a{i}", r) for i, r in enumerate(rows))]),
        st.lists(st.text(alphabet="abc", min_size=1, max_size=3), min_size=0, max_size=3),
        st.lists(st.lists(cell_texts, max_size=4), max_size=3),
    ),
)
matrix_payloads = st.fixed_dictionaries(
    {},
    optional={
        "alternatives": st.lists(json_scalars, max_size=3) | json_values,
        "criteria": st.lists(json_scalars, max_size=3) | json_values,
        "cells": st.lists(st.lists(cells, max_size=3), max_size=3) | json_values,
    },
)
json_texts = st.one_of(st.text(), matrix_payloads.map(json.dumps), json_values.map(json.dumps))

config_payloads = st.fixed_dictionaries(
    {},
    optional={
        **{key: json_values for key in CONFIG_KEYS + ("ordr",)},
        "aggregator": st.sampled_from(["max", "tsum", "geomean", "dirac"]) | json_values,
        "overlap": st.sampled_from(["product", "rep(min,min)"]) | json_values,
        "weights": st.lists(st.lists(numbers, min_size=1, max_size=3), max_size=3) | json_values,
        "order": st.sampled_from(["lex1", "lex2", "xuyager", "LEX1 ", "alpha"]) | json_values,
        "normalize": st.booleans() | json_values,
        "tolerances": st.dictionaries(st.sampled_from(["distributivity", "poly"]), numbers)
        | json_values,
    },
)
config_texts = st.one_of(st.text(), config_payloads.map(json.dumps), json_values.map(json.dumps))

real_ids = st.sampled_from(["product", "min", "minmax:p=2", "xyp:p=3", "mig:poly",
                            "lukasiewicz", "nope", ""])
generator_ids = st.sampled_from(["identity", "sqrt", "square", "cosine", ""])
leaf_ids = st.one_of(
    st.sampled_from(["product", "midpoint", "pow(product)", "rep(product)"]),
    st.builds("rep({},{})".format, real_ids, real_ids),
    st.builds("mig({})".format, generator_ids),
    st.builds("canonical(K=[{},{}])".format, numbers, numbers),
    st.text(alphabet="powrtepmigcanl(),=[]Kn0123456789. ", max_size=24),
)
degrees = st.one_of(
    st.builds("n={}".format, st.integers(min_value=-3, max_value=12)),
    st.builds("n={}".format, st.integers(min_value=10**300, max_value=10**400)),
    st.builds("n={}".format, numbers),
    st.text(max_size=6),
)
overlap_ids = st.recursive(
    leaf_ids,
    lambda inner: st.builds("{}({},{})".format, st.sampled_from(["pow", "root"]), inner, degrees),
    max_leaves=3,
)


@FUZZ
@given(text=csv_texts)
def test_csv_matrix_parses_or_raises_matrix_error(text):
    try:
        assert isinstance(parse_matrix_text(text, "csv"), DecisionMatrix)
    except MatrixError:
        pass


@FUZZ
@given(text=json_texts)
def test_json_matrix_parses_or_raises_matrix_error(text):
    try:
        assert isinstance(parse_matrix_text(text, "json"), DecisionMatrix)
    except MatrixError:
        pass


# Texts near the cell language: brackets, commas, padding and the words and
# digit forms `float` reads, a non-ASCII digit among them; NULs, which the
# column parser joins cells with; newlines, which a quoted CSV cell may hold;
# and whitespace-only cells.
cell_language = st.one_of(
    cell_texts,
    st.text(alphabet="[], \t\n\x00.0123456789\u0665e-+_naifINF", max_size=12),
    st.builds("[{},{}]".format, st.text(alphabet=" \n\x00.015\u0665e-_", max_size=5),
              st.text(alphabet=" \n\x00.015\u0665e-_", max_size=5)),
    st.text(alphabet=" \t\n\r\x0b\x0c\x1c\u3000", max_size=3),
)
LANGUAGE_EXAMPLES = ["[0.1,0.2", "[1,2,3]", "[]", "nan", "1e-400", "[ 0 , 1 ]", "-0.0",
                     "[0.6,0.2]", " [0.2 , 0.5] ", "0.2_5", "", "[", "]", "[,]", "1,0"]
MIXED_COLUMN = ["0.3", "[0.1,0.2]", " 0.5 ", "[ 0 , 1 ]", "\u0665e-1", "[0.2,\n0.4]", "1"]


def _reference_cell(text):
    """The cell language read one cell at a time, with `float` on each part:
    the endpoints in float hex, or the message refusing the cell."""
    s, malformed = text.strip(), f"malformed interval text {text!r}"
    if s.startswith("["):
        parts = s[1:-1].split(",")
        if not s.endswith("]") or len(parts) != 2:
            return malformed
    else:
        parts = [s, s]
    try:
        lo, up = map(float, parts)
    except ValueError:
        return malformed
    if not 0.0 <= lo <= up <= 1.0:
        return f"invalid interval endpoints [{lo}, {up}]"
    return lo.hex(), up.hex()


def _outcome(text):
    """parse_interval on one text: its endpoints in float hex, or its message."""
    try:
        x = parse_interval(text)
    except IntervalError as exc:
        return str(exc)
    return x.lower.hex(), x.upper.hex()


@FUZZ
@given(texts=st.lists(cell_language, min_size=1, max_size=6))
@example(texts=LANGUAGE_EXAMPLES)
@example(texts=LANGUAGE_EXAMPLES[::-1])
@example(texts=["0.1\x000.2"])
@example(texts=["[0.1,0.2]", "0.3\x00[0.1,0.2]"])
@example(texts=["[0.1,\n0.2]"])
@example(texts=MIXED_COLUMN)
@example(texts=["0.5", "[0.9,0.1]", "0.2", "x", "0.4"])
@example(texts=["0.5", "0.2", "[0.4", "0.1", "[0.9,0.1]"])
def test_column_parser_reads_the_cell_language_of_parse_interval(texts):
    # parse_interval reads each cell as the reference does; a column of
    # cells, parsed at once and through a one-column CSV matrix, gives the
    # endpoints parse_interval gives each cell, bit for bit, or the message
    # of the first cell it refuses.  The column is parsed at once whether or
    # not csv can echo it.
    want = list(map(_outcome, texts))
    assert want == list(map(_reference_cell, texts))
    bad = next((w for w in want if isinstance(w, str)), None)
    try:
        lowers, uppers = parse_interval_columns(texts)
    except IntervalError as exc:
        assert str(exc) == bad
    else:
        assert bad is None
        assert list(zip(map(float.hex, lowers), map(float.hex, uppers))) == want
    rows = [[f"a{i}", text] for i, text in enumerate(texts)]
    out = io.StringIO()
    try:
        # Before Python 3.11, csv neither writes nor reads a NUL.
        csv.writer(out).writerows([["alternative", "c1"], *rows])
        echoed = list(csv.reader(io.StringIO(out.getvalue())))[1:]
    except csv.Error:
        echoed = None
    assume(echoed == rows)
    try:
        m = parse_matrix_text(out.getvalue(), "csv")
    except MatrixError as exc:
        i = want.index(bad)
        assert str(exc) == f"cell ('a{i}', 'c1'): {bad}"
    else:
        assert bad is None
        assert list(zip(map(float.hex, *m.lowers), map(float.hex, *m.uppers))) == want


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "config.json"


@FUZZ
@given(text=config_texts)
def test_config_loads_or_raises_config_error(config_path, text):
    config_path.write_text(text, encoding="utf-8", errors="surrogatepass")
    try:
        assert isinstance(load_config(str(config_path)), RunConfig)
    except ConfigError:
        pass


@FUZZ
@given(token=overlap_ids)
@example(token="canonical(K=[5e-324,5e-324])")
def test_overlap_id_resolves_or_raises_its_own_error(monkeypatch, token):
    # A memo of its own: the fuzzed constructions evict nothing other tests use.
    monkeypatch.setattr(sampling, "_MEMO", OrderedDict())
    try:
        assert isinstance(resolve_iv_overlap(token), IVOverlap)
    except (RegistryError, ConstructionError):
        pass

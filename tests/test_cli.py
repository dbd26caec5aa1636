import errno
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ivowa
from conftest import emit_matrix_text, nested_transform, source_lines
from ivowa import checks
from ivowa import intervals as intervals_module
from ivowa import matrix as matrix_module
from ivowa.checks import lattice_order_checks, reports_to_json, run_theorem_suite
from ivowa.cli import main
from ivowa.intervals import Interval
from ivowa.iv_overlaps import ConstructionError
from ivowa.matrix import DecisionMatrix, MatrixError, parse_matrix_text

CONFIG_GEOMEAN = {
    "aggregator": "geomean",
    "overlap": "product",
    "weights": [[1, 1], [1, 1]],
    "order": "lex1",
    "normalize": False,
}

MATRIX_CSV = (
    "alternative,c1,c2\n"
    'a1,"[0.2,0.5]","[0.4,0.8]"\n'
    'a2,"[0.1,0.2]","[0.4,0.9]"\n'
    'a3,0.6,"[0.3,0.7]"\n'
)


# `aggregate --json` on MATRIX_CSV, pinned byte for byte in
# golden/aggregate.jsonl: five ranking configs under each order, then four
# rejections (two neutral-element, two distributivity).
AGGREGATE_RANKINGS = [
    {"aggregator": "geomean", "overlap": "product", "weights": [[1, 1], [1, 1]]},
    {"aggregator": "max", "overlap": "rep(product,min)", "weights": [[1, 1], [0.3, 0.6]]},
    {"aggregator": "tsum", "overlap": "product", "weights": [[0.25, 0.3], [0.25, 0.4]],
     "normalize": True},
    {"aggregator": "geomean", "overlap": "canonical(K=[2,2])", "weights": [[1, 1], [1, 1]]},
    {"aggregator": "max", "overlap": "rep(min,min)", "weights": [[0.4, 0.7], [1, 1]]},
]
AGGREGATE_REJECTIONS = [
    {"aggregator": "tsum", "overlap": "midpoint", "weights": [[0.5, 0.5], [0.5, 0.5]]},
    {"aggregator": "geomean", "overlap": "pow(product,n=2)", "weights": [[1, 1], [1, 1]]},
    {"aggregator": "dirac", "overlap": "product", "weights": [[1, 1], [0, 0]]},
    {"aggregator": "geomean", "overlap": "rep(min,min)", "weights": [[1, 1], [1, 1]]},
]
ORDERS = ("lex1", "lex2", "xuyager")
AGGREGATE_CASES = [
    {"config": {**config, "order": order}} for config in AGGREGATE_RANKINGS for order in ORDERS
] + [{"config": config} for config in AGGREGATE_REJECTIONS]

# Then matrices of their own, in the golden's later records.  `max` with the
# weights [1,1],[0,0] ranks each row by its largest cell, bit for bit.
TOP_CELL = {"aggregator": "max", "overlap": "product", "weights": [[1, 1], [0, 0]]}
# Equal aggregates from permuted rows, and (under TOP_CELL) from rows that share
# their largest cell; [-0.0,0.3] and [0.0,0.3] tie under every order, so the
# sign of a zero shows which of two tied cells a row ranked first.
TIES_CSV = (
    "alternative,c1,c2\n"
    'b,"[0.2,0.5]","[0.4,0.8]"\n'
    'a,"[0.4,0.8]","[0.2,0.5]"\n'
    'c,0.3,"[0.1,0.9]"\n'
    'd,"[0.1,0.9]",0.3\n'
    'e,"[0.4,0.8]",0.1\n'
    'f,"[-0.0,0.3]","[0.0,0.3]"\n'
    'g,"[0.0,0.3]","[-0.0,0.3]"\n'
    'h,"[0.2,0.5]","[0.4,0.8]"\n'
)
# Intervals whose xuyager sum and width collide in binary64, so that only the
# trailing endpoints of the key order them: 0.22+0.78 and
# 0.22000000000000003+0.78 are both 1.0, and their widths both 0.56.
COLLISIONS_CSV = (
    "alternative,c1,c2\n"
    'p,"[0.22,0.78]",0.1\n'
    'q,"[0.22000000000000003,0.78]",0.1\n'
    'r,"[0.01,0.55]",0.0\n'
    's,"[0.010000000000000005,0.55]",0.0\n'
    't,"[0.010000000000000002,0.55]","[0.01,0.55]"\n'
    'u,"[0.22,0.78]","[0.22000000000000003,0.78]"\n'
)
# [0,0] and [1,1] cells, and cell texts that parse_interval reads: padding
# inside and around the brackets, digit separators, exponents, signed zeros.
EDGES_CSV = (
    "alternative,c1,c2,c3\n"
    'z,"[0,0]",0,-0.0\n'
    'o,"[1,1]",1,"[ 1.0 , 1 ]"\n'
    'w," [0.2 , 0.5] ",0.2_5," 1e-1 "\n'
    'x,"[0.2,0.5]",0.25,0.1\n'
    'y,"[-0,1e-400]","[0.0_1,1_0e-1]",  0.75  \n'
)
EDGES_JSON = json.dumps({
    "alternatives": ["j1", "j2", "j3", "j4"],
    "criteria": ["c1", "c2"],
    "cells": [[[0.2, 0.5], 0.25], [0, [1, 1]], [[0.4, 0.8], [0.2, 0.5]],
              [[0.2, 0.5], [0.4, 0.8]]],
})


def _big_matrix_csv(rows: int) -> str:
    """A seeded matrix of three criteria over a pool of twelve cells, so that
    cells and whole rows repeat."""
    rng = random.Random(513)
    pool = ["[0,0]", "[1,1]", "0.5", "[0.25,0.5]", "[0.5,0.75]", "[0.125,0.875]",
            "[0.3,0.6]", "[0.6,0.9]", "0.1", "[0.2,0.4]", "[0.7,0.7]", "[0.05,0.95]"]
    lines = ["alternative,c1,c2,c3"]
    for i in range(rows):
        lines.append(",".join([f"r{i}", *(f'"{rng.choice(pool)}"' for _ in range(3))]))
    return "\n".join(lines) + "\n"


BIG_CONFIG = {"aggregator": "max", "overlap": "rep(product,min)",
              "weights": [[1, 1], [0.3, 0.6], [0.2, 0.4]]}
GEOMEAN3 = {"aggregator": "geomean", "overlap": "product", "weights": [[1, 1]] * 3}
# Matrices with two defects: the first in row-major order (row by row; in a
# row its length, then its label, then its cells left to right) is named.
TWO_DEFECTS_CSV = [
    # a bad cell in row 2, a ragged row 5
    'alternative,c1,c2\na1,"[0.6,0.2]",0.5\na2,0.1,0.2\na3,0.1,0.2\na4,0.1\n',
    # bad cells in both columns of one row, each order of the two kinds
    'alternative,c1,c2\na1,0.1,0.2\na2,x,"[0.6,0.2]"\n',
    'alternative,c1,c2\na1,0.1,0.2\na2,"[0.6,0.2]",x\n',
    # a bad cell in the last column of row 3, one in the first column of row 4
    'alternative,c1,c2,c3\na1,0.1,0.2,0.3\na2,0.1,0.2,"[0.1,0.2"\na3,nan,0.2,0.3\n',
    # a ragged row 3, a bad cell in row 4
    'alternative,c1,c2\na1,0.1,0.2\na2,0.1,0.2,0.3\na3,1.5,0.2\n',
    # a row with no label and a bad cell, then a ragged row
    'alternative,c1,c2\na1,0.1,0.2\n ,"[1,2,3]",0.2\na3,0.1\n',
    # a bad cell in row 2, a row with no label in row 3
    'alternative,c1,c2\na1,0.1,"[]"\n,0.1,0.2\n',
    # a ragged row with no label
    'alternative,c1,c2\na1,0.1,0.2\n,0.1\n',
]
TWO_DEFECTS_JSON = [
    {"alternatives": ["a1", "a2"], "criteria": ["c1", "c2"],
     "cells": [[0.1, [0.6, 0.2]], [2, 0.5]]},
    {"alternatives": ["a1", "a2"], "criteria": ["c1", "c2"],
     "cells": [[[0.1], 0.2], [0.1]]},
    {"alternatives": ["a1", "a2"], "criteria": ["c1", "c2"],
     "cells": [[0.1, 0.2], [True, [0.1, 0.2, 0.3]]]},
]
AGGREGATE_MATRIX_CASES = [
    *({"config": {**config, "order": order}, "matrix": TIES_CSV, "format": "csv"}
      for config in (AGGREGATE_RANKINGS[0], AGGREGATE_RANKINGS[1], TOP_CELL)
      for order in ORDERS),
    *({"config": {**TOP_CELL, "order": order}, "matrix": COLLISIONS_CSV, "format": "csv"}
      for order in ORDERS),
    *({"config": {**config, "order": order}, "matrix": EDGES_CSV, "format": "csv"}
      for config in (GEOMEAN3, {**BIG_CONFIG, "overlap": "product"}) for order in ORDERS),
    *({"config": {**config, "order": order}, "matrix": EDGES_JSON, "format": "json"}
      for config in (AGGREGATE_RANKINGS[0], TOP_CELL) for order in ORDERS),
    {"config": {**BIG_CONFIG, "order": "xuyager"}, "matrix": _big_matrix_csv(513),
     "format": "csv"},
    *({"config": AGGREGATE_RANKINGS[0], "matrix": text, "format": "csv"}
      for text in TWO_DEFECTS_CSV),
    *({"config": AGGREGATE_RANKINGS[0], "matrix": json.dumps(payload), "format": "json"}
      for payload in TWO_DEFECTS_JSON),
]
AGGREGATE_GOLDEN = Path(__file__).resolve().parent / "golden" / "aggregate.jsonl"


def run_aggregate(tmp_path, case: dict, capsys) -> dict:
    """`ivowa aggregate --json` on one case, as one record: the case's config,
    on the case's matrix (MATRIX_CSV when it names none)."""
    config_path = tmp_path / "case.json"
    config_path.write_text(json.dumps(case["config"]))
    matrix_path = tmp_path / f"matrix.{case.get('format', 'csv')}"
    matrix_path.write_text(case.get("matrix", MATRIX_CSV))
    capsys.readouterr()
    code = main(["aggregate", "--config", str(config_path),
                 "--matrix", str(matrix_path), "--json"])
    out, err = capsys.readouterr()
    return {**case, "exit": code, "stdout": out, "stderr": err}


@pytest.fixture
def workdir(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG_GEOMEAN))
    matrix = tmp_path / "matrix.csv"
    matrix.write_text(MATRIX_CSV)
    return tmp_path


class TestMatrixParsing:
    def test_csv_cells(self):
        m = parse_matrix_text(MATRIX_CSV, "csv")
        assert m.alternatives == ("a1", "a2", "a3")
        assert m.criteria == ("c1", "c2")
        assert (m.lowers[0][0], m.uppers[0][0]) == (0.2, 0.5)
        assert (m.lowers[0][2], m.uppers[0][2]) == (0.6, 0.6)

    def test_matrices_are_read_and_ranked_as_endpoint_columns(self, monkeypatch):
        # An `Interval` per cell cost more than half of a parse-and-rank job.
        # So cli.py neither reads a row of intervals (`matrix.row`) nor ranks
        # interval objects, the readers build no `Interval`, and the CSV
        # reader parses each column of a 512-row block in one call.
        assert not source_lines(r"matrix\.row\b|ranks_descending\(", "cli.py")
        built, check = [], Interval.__post_init__
        monkeypatch.setattr(Interval, "__post_init__", lambda self: built.append(self) or check(self))
        calls, parse = [], intervals_module.parse_interval_columns
        counted = lambda texts: calls.append(len(texts)) or parse(texts)
        monkeypatch.setattr(intervals_module, "parse_interval_columns", counted)
        monkeypatch.setattr(matrix_module, "parse_interval_columns", counted)
        m = parse_matrix_text('alternative,c1,c2,c3\na1,"[0.2,0.5]",0.4, 1 \n'
                              'a2,0," [0.1,\n1] ","[ 0 , 0.5 ]"\n', "csv")
        assert (m.uppers, calls) == (([0.5, 0.0], [0.4, 1.0], [1.0, 0.5]), [2, 2, 2])
        parse_matrix_text('{"alternatives": ["a1"], "criteria": ["c1", "c2"], '
                          '"cells": [[[0.2, 0.5], 0.4]]}', "json")
        calls.clear()
        m = parse_matrix_text("alternative,c1,c2\n" + "".join(
            f'a{i},"[0.2,0.5]",0.4\n' for i in range(1025)), "csv")
        assert (len(m.alternatives), calls) == (1025, [512, 512, 512, 512, 1, 1])
        assert not built

    def test_inverted_cell_named(self):
        bad = MATRIX_CSV.replace("[0.4,0.9]", "[0.6,0.2]")
        with pytest.raises(MatrixError, match="'a2'.*'c2'"):
            parse_matrix_text(bad, "csv")

    def test_ragged_row_rejected(self):
        with pytest.raises(MatrixError, match="row 3"):
            parse_matrix_text('alternative,c1,c2\na1,"[0,1]","[0,1]"\na2,"[0,1]"\n', "csv")

    @pytest.mark.parametrize("edits, needle", [
        pytest.param({(1023, 1): "x"}, "cell ('a1023', 'c1'): malformed interval text 'x'",
                     id="last-cell"),
        pytest.param({(700, 1): "x", (3, 2): '"[0.3,0.1]"'},
                     "cell ('a3', 'c2'): invalid interval endpoints [0.3, 0.1]", id="two-columns"),
        pytest.param({(500, 2): "x", (500, 1): "y", (900, 1): "z"},
                     "cell ('a500', 'c1'): malformed interval text 'y'", id="row-major-in-a-row"),
        pytest.param({(900, 2): None, (1000, 1): "x"}, "row 902 has 1 cells for 2 criteria",
                     id="ragged-before-cell"),
        pytest.param({(10, 1): "x", (900, 2): None}, "cell ('a10', 'c1')", id="cell-before-ragged"),
        pytest.param({(10, 0): " ", (20, 1): "x"}, "row 12 is missing an alternative label",
                     id="label-before-cell"),
    ])
    def test_refused_csv_columns_are_halved_to_their_first_bad_row(self, monkeypatch, edits,
                                                                    needle):
        # Each refused column is halved to its first bad row (about 2 log2
        # 1,024 calls), and cells are parsed one by one only in the earliest
        # such row: not one call per cell before it.
        rows = [[f"a{i}", '"[0.1,0.2]"', "0.5"] for i in range(1024)]
        for (i, j), cell in edits.items():
            rows[i][j:j + 1] = [] if cell is None else [cell]
        text = "alternative,c1,c2\n" + "".join(",".join(row) + "\n" for row in rows)
        calls, parse = [], intervals_module.parse_interval_columns
        counted = lambda texts: calls.append(len(texts)) or parse(texts)
        monkeypatch.setattr(intervals_module, "parse_interval_columns", counted)
        monkeypatch.setattr(matrix_module, "parse_interval_columns", counted)
        with pytest.raises(MatrixError, match=re.escape(needle)):
            parse_matrix_text(text, "csv")
        assert len(calls) <= 2 * (2 * 10 + 1) + 2

    @pytest.mark.parametrize("count, edits, needle", [
        pytest.param(1100, {1: "a1,x,0.5", 898: '"a898"x,0.1,0.5'},
                     "CSV line 900: ',' expected after '\"'", id="quote-error-after-cell"),
        pytest.param(1100, {10: "a10,x,0.5", 600: "a600,0.1"},
                     "cell ('a10', 'c1'): malformed interval text 'x'",
                     id="cell-in-block-1-before-ragged-in-block-2"),
        pytest.param(1100, {512: 'a512,0.1,"[0.3,0.1]"', 700: "a700,y,0.5"},
                     "cell ('a512', 'c2'): invalid interval endpoints [0.3, 0.1]",
                     id="cell-in-first-row-of-block-2"),
        pytest.param(1100, {700: "a5,0.1,0.5"},
                     "row 702 repeats the alternative label 'a5' of row 7",
                     id="label-in-block-2-repeats-block-1"),
        pytest.param(1100, {511: "\na511,0.1,0.5", 513: "\n\na513,0.1,0.5", 520: " ,x,0.5"},
                     "row 525 is missing an alternative label", id="blank-lines-straddle-block-edge"),
        pytest.param(1100, {511: "\na511,0.1,0.5", 513: "\n\na513,0.1,0.5", 530: "a3,x,0.5"},
                     "row 535 repeats the alternative label 'a3' of row 5",
                     id="blank-lines-then-repeat-with-bad-cell"),
        pytest.param(1536, {1300: "a1300,0.1,x"}, "cell ('a1300', 'c2'): malformed interval text 'x'",
                     id="cell-in-block-3"),
    ])
    def test_csv_defect_order_across_blocks(self, monkeypatch, count, edits, needle):
        # Whichever 512-row blocks hold the defects, the first in row-major
        # order is named, a row by the line it starts on; a CSV syntax error
        # anywhere wins over a bad cell before it; a refused column is still
        # halved to its first bad row.
        lines = [f'a{i},"[0.1,0.2]",0.5' for i in range(count)]
        for i, line in edits.items():
            lines[i] = line
        text = "alternative,c1,c2\n" + "".join(line + "\n" for line in lines)
        calls, parse = [], intervals_module.parse_interval_columns
        counted = lambda texts: calls.append(len(texts)) or parse(texts)
        monkeypatch.setattr(intervals_module, "parse_interval_columns", counted)
        monkeypatch.setattr(matrix_module, "parse_interval_columns", counted)
        with pytest.raises(MatrixError, match=f"^{re.escape(needle)}$"):
            parse_matrix_text(text, "csv")
        assert len(calls) <= 2 * (2 * (count - 1).bit_length() + 1) + 2

    def test_json_round_trip_exact(self):
        m = parse_matrix_text(MATRIX_CSV, "csv")
        again = parse_matrix_text(emit_matrix_text(m, "json"), "json")
        assert again == m

    def test_csv_round_trip_exact(self):
        m = parse_matrix_text(MATRIX_CSV, "csv")
        again = parse_matrix_text(emit_matrix_text(m, "csv"), "csv")
        assert again == m

    def test_json_requires_pairs(self):
        payload = {"alternatives": ["a"], "criteria": ["c"], "cells": [[[0.1, 0.2, 0.3]]]}
        with pytest.raises(MatrixError, match="two-element"):
            parse_matrix_text(json.dumps(payload), "json")

    @pytest.mark.parametrize("payload", [
        [1, 2, 3],
        {"alternatives": "a", "criteria": ["c"], "cells": []},
        {"alternatives": ["a"], "criteria": ["c"], "cells": [0.5]},
    ])
    def test_json_shape_validated(self, payload):
        with pytest.raises(MatrixError):
            parse_matrix_text(json.dumps(payload), "json")


class TestAggregateCommand:
    def test_ranking(self, workdir, capsys):
        code = main([
            "aggregate", "--config", str(workdir / "config.json"),
            "--matrix", str(workdir / "matrix.csv"), "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        names = [r["alternative"] for r in payload["ranking"]]
        assert names == ["a3", "a1", "a2"]
        top = payload["ranking"][0]["interval"]
        assert top[0] == pytest.approx(0.4242640687119285, abs=1e-12)
        assert top[1] == pytest.approx(0.648074069840786, abs=1e-12)

    def test_table_output(self, workdir, capsys):
        code = main([
            "aggregate", "--config", str(workdir / "config.json"),
            "--matrix", str(workdir / "matrix.csv"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "rank" in out and "a3" in out

    def test_json_matrix_file(self, workdir, capsys):
        m = parse_matrix_text(MATRIX_CSV, "csv")
        path = workdir / "matrix.json"
        path.write_text(emit_matrix_text(m, "json"))
        code = main(["aggregate", "--config", str(workdir / "config.json"),
                     "--matrix", str(path), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["alternative"] for r in payload["ranking"]] == ["a3", "a1", "a2"]

    def test_saturation_note_on_stderr(self, workdir, capsys):
        config = workdir / "tsum-uniform.json"
        config.write_text(json.dumps({
            "aggregator": "tsum",
            "overlap": "product",
            "weights": [[0.5, 0.5], [0.5, 0.5]],
        }))
        code = main(["aggregate", "--config", str(config),
                     "--matrix", str(workdir / "matrix.csv")])
        assert code == 0
        err = capsys.readouterr().err
        assert "non-saturating" in err
        assert "witness outside it: [0.0,0.1] [0.0,1.0] [0.0,0.1]" in err

    def test_row_permutation_invariance(self, workdir, capsys):
        main(["aggregate", "--config", str(workdir / "config.json"),
              "--matrix", str(workdir / "matrix.csv"), "--json"])
        base = json.loads(capsys.readouterr().out)

        swapped = (workdir / "swapped.csv")
        lines = MATRIX_CSV.strip().splitlines()
        swapped.write_text("\n".join([lines[0], lines[3], lines[1], lines[2]]) + "\n")
        main(["aggregate", "--config", str(workdir / "config.json"),
              "--matrix", str(swapped), "--json"])
        shuffled = json.loads(capsys.readouterr().out)
        assert [r["alternative"] for r in base["ranking"]] == \
            [r["alternative"] for r in shuffled["ranking"]]
        assert [r["interval"] for r in base["ranking"]] == \
            [r["interval"] for r in shuffled["ranking"]]

    def test_column_permutation_invariance(self, workdir, capsys):
        main(["aggregate", "--config", str(workdir / "config.json"),
              "--matrix", str(workdir / "matrix.csv"), "--json"])
        base = json.loads(capsys.readouterr().out)

        m = parse_matrix_text(MATRIX_CSV, "csv")
        flipped = DecisionMatrix(m.alternatives, m.criteria[::-1], m.lowers[::-1], m.uppers[::-1])
        path = workdir / "flipped.csv"
        path.write_text(emit_matrix_text(flipped, "csv"))
        main(["aggregate", "--config", str(workdir / "config.json"),
              "--matrix", str(path), "--json"])
        other = json.loads(capsys.readouterr().out)
        assert base["ranking"] == other["ranking"]

    def test_single_alternative_with_equal_cells(self, workdir, capsys):
        path = workdir / "single.csv"
        path.write_text('alternative,c1,c2\nonly,"[0.3,0.6]","[0.3,0.6]"\n')
        main(["aggregate", "--config", str(workdir / "config.json"),
              "--matrix", str(path), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["ranking"]) == 1
        got = payload["ranking"][0]["interval"]
        assert got[0] == pytest.approx(0.3, abs=1e-12)
        assert got[1] == pytest.approx(0.6, abs=1e-12)

    def test_tie_keeps_input_order(self, workdir, capsys):
        path = workdir / "ties.csv"
        path.write_text(
            "alternative,c1,c2\n"
            'b,"[0.5,0.5]","[0.5,0.5]"\n'
            'a,"[0.5,0.5]","[0.5,0.5]"\n'
        )
        main(["aggregate", "--config", str(workdir / "config.json"),
              "--matrix", str(path), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert [r["alternative"] for r in payload["ranking"]] == ["b", "a"]

    def test_normalize_path(self, workdir, capsys):
        config = workdir / "tsum.json"
        config.write_text(json.dumps({
            "aggregator": "tsum",
            "overlap": "product",
            "weights": [[0.25, 0.3], [0.25, 0.4]],
            "order": "lex1",
            "normalize": True,
        }))
        code = main(["aggregate", "--config", str(config),
                     "--matrix", str(workdir / "matrix.csv"), "--json"])
        assert code == 0

    def test_tolerance_override_accepted(self, workdir, capsys):
        config = workdir / "tol.json"
        config.write_text(json.dumps({
            "aggregator": "geomean",
            "overlap": "product",
            "weights": [[1, 1], [1, 1]],
            "tolerances": {"distributivity": 1e-6},
        }))
        assert main(["aggregate", "--config", str(config),
                     "--matrix", str(workdir / "matrix.csv"), "--json"]) == 0

    def test_unnormalized_without_flag_fails(self, workdir, capsys):
        config = workdir / "bad.json"
        config.write_text(json.dumps({
            "aggregator": "tsum",
            "overlap": "product",
            "weights": [[0.25, 0.3], [0.25, 0.4]],
            "normalize": False,
        }))
        code = main(["aggregate", "--config", str(config),
                     "--matrix", str(workdir / "matrix.csv")])
        assert code == 1
        assert "not normalized" in capsys.readouterr().err

    def test_distributivity_rejection_prints_interval_text(self, workdir, capsys):
        config = workdir / "geomean-min.json"
        config.write_text(json.dumps({
            "aggregator": "geomean",
            "overlap": "rep(min,min)",
            "weights": [[1, 1], [1, 1], [1, 1]],
        }))
        matrix = workdir / "three.csv"
        matrix.write_text('alternative,c1,c2,c3\na1,"[0.2,0.5]","[0.4,0.8]",0.3\n')
        code = main(["aggregate", "--config", str(config), "--matrix", str(matrix)])
        assert code == 1
        err = capsys.readouterr().err
        assert ("does not distribute over rep(min,min); "
                "witness [0.7,1.0] [0.1,0.7] [0.0,1.0] [0.9,0.9]") in err

    def test_uniform_tsum_matches_interval_means(self, workdir, capsys):
        config = workdir / "mean.json"
        config.write_text(json.dumps({
            "aggregator": "tsum",
            "overlap": "product",
            "weights": [[0.5, 0.5], [0.5, 0.5]],
        }))
        main(["aggregate", "--config", str(config),
              "--matrix", str(workdir / "matrix.csv"), "--json"])
        payload = json.loads(capsys.readouterr().out)
        by_name = {r["alternative"]: r["interval"] for r in payload["ranking"]}
        assert by_name["a1"][0] == pytest.approx((0.2 + 0.4) / 2, abs=1e-12)
        assert by_name["a1"][1] == pytest.approx((0.5 + 0.8) / 2, abs=1e-12)

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_non_boolean_normalize_exits_2(self, workdir, capsys, value):
        config = workdir / "loose.json"
        config.write_text(json.dumps({
            "aggregator": "tsum",
            "overlap": "product",
            "weights": [[0.2, 0.2], [0.2, 0.2]],
            "normalize": value,
        }))
        assert main(["aggregate", "--config", str(config),
                     "--matrix", str(workdir / "matrix.csv")]) == 2
        assert "'normalize'" in capsys.readouterr().err

    def test_bad_config_exits_2(self, workdir, capsys):
        config = workdir / "broken.json"
        config.write_text("{not json")
        assert main(["aggregate", "--config", str(config),
                     "--matrix", str(workdir / "matrix.csv")]) == 2

    def test_unknown_aggregator_exits_2(self, workdir, capsys):
        config = workdir / "unknown.json"
        config.write_text(json.dumps({
            "aggregator": "median", "overlap": "product", "weights": [[1, 1], [1, 1]],
        }))
        assert main(["aggregate", "--config", str(config),
                     "--matrix", str(workdir / "matrix.csv")]) == 2

    def test_malformed_matrix_exits_2(self, workdir, capsys):
        path = workdir / "bad.csv"
        path.write_text('alternative,c1,c2\na1,"[0.6,0.2]","[0,1]"\n')
        assert main(["aggregate", "--config", str(workdir / "config.json"),
                     "--matrix", str(path)]) == 2


BIG = "9" * 400
HUGE = "9" * 5000


def run_config_text(workdir, capsys, text: str, matrix: str = "matrix.csv"):
    """`ivowa aggregate` under a config given as raw JSON text: (exit, stderr)."""
    path = workdir / "strict.json"
    path.write_text(text)
    code = main(["aggregate", "--config", str(path), "--matrix", str(workdir / matrix)])
    return code, capsys.readouterr().err


def json_matrix_text(cell: str) -> str:
    """A one-row JSON matrix whose first cell is the raw JSON text `cell`."""
    return ('{"alternatives": ["a1"], "criteria": ["c1", "c2"], '
            f'"cells": [[{cell}, [0.4, 0.8]]]}}')


class TestStrictInput:
    """Malformed configs and matrices exit 2 with a message that says where."""

    @pytest.mark.parametrize("tail, needle", [
        pytest.param('[[1, 1], [1, 1]], "ordr": "lex2"', "unknown key 'ordr'", id="ordr"),
        pytest.param('[[1, 1], [1, 1]], "tolerances": {"distributivty": 1e-6}',
                     "unknown key 'distributivty'", id="distributivty"),
        pytest.param('[[1, 1], [1, 1]], "tolerances": [1]', "'tolerances' must be an object",
                     id="tolerances-array"),
        pytest.param('[[1, 1], [1, 1]], "order": 5', "'order' must be a string", id="order-5"),
        pytest.param('[[1, 1], [1, 1]], "overlap": ["product"]', "'overlap' must be a string",
                     id="overlap-array"),
        pytest.param('[[true, true], [1, 1]]', "weight 1 must be a number, got True",
                     id="weight-true"),
        pytest.param('[[1, 1], ["1", "1"]]', "weight 2 must be a number, got '1'",
                     id="weight-string"),
        pytest.param('[[1, NaN], [1, 1]]', "weight 1 must be finite", id="weight-nan"),
        pytest.param(f'[[{BIG}, 1], [1, 1]]', "weight 1 does not fit a binary64 number",
                     id="weight-400-digits"),
        pytest.param(f'[[{HUGE}, 1], [1, 1]]', "is not valid JSON", id="weight-5000-digits"),
    ])
    def test_config_defect_exits_2(self, workdir, capsys, tail, needle):
        # The overlap is "product" unless `tail` gives one: a key may not repeat.
        overlap = "" if '"overlap"' in tail else ', "overlap": "product"'
        text = '{"aggregator": "geomean", "weights": %s%s}' % (tail, overlap)
        code, err = run_config_text(workdir, capsys, text)
        assert code == 2
        assert needle in err

    @pytest.mark.parametrize("config, matrix, message", [
        pytest.param('{"aggregator": "max", "overlap": "product", "weights": [[1, 1], [0, 0]], '
                     '"weights": [[0, 0], [1, 1]]}', "matrix.csv",
                     "repeated key 'weights' in the config", id="config-top-level"),
        pytest.param('{"aggregator": "max", "overlap": "product", "weights": [[1, 1], [0, 0]], '
                     '"tolerances": {"distributivity": 1e-9, "distributivity": 1}}', "matrix.csv",
                     "repeated key 'distributivity' in the config", id="config-tolerances"),
        pytest.param(json.dumps(TOP_CELL), "repeated.json",
                     "repeated key 'cells' in the matrix", id="matrix"),
    ])
    def test_repeated_json_key_exits_2(self, workdir, capsys, config, matrix, message):
        # A JSON reader keeps a repeated key's last value, which would change
        # the weights, a tolerance or the cells without a word.
        (workdir / "repeated.json").write_text(
            '{"alternatives": ["a1"], "criteria": ["c1", "c2"], "cells": [[0.1, 0.2]], '
            '"cells": [[0.2, 0.1]]}')
        code, err = run_config_text(workdir, capsys, config, matrix)
        assert code == 2
        assert err.endswith(f"{message}\n")

    def test_deeply_nested_config_exits_2(self, workdir, capsys):
        code, err = run_config_text(workdir, capsys, "[" * 100_000)
        assert code == 2
        assert "is not valid JSON" in err
        with pytest.raises(MatrixError, match="invalid JSON"):
            parse_matrix_text("[" * 100_000, "json")

    @pytest.mark.parametrize("value", [
        "NaN", "Infinity", "-Infinity", "true", '"0.5"', "-1", "null",
        pytest.param(BIG, id="400-digits"),
    ])
    def test_distributivity_tolerance_is_a_finite_number_at_least_0(self, workdir, capsys,
                                                                    value):
        # Under the default tolerance geomean x rep(min,min) is rejected; no
        # tolerance value may turn that into a ranking.
        code, err = run_config_text(workdir, capsys, (
            '{"aggregator": "geomean", "overlap": "rep(min,min)", '
            '"weights": [[1, 1], [1, 1]], "tolerances": {"distributivity": %s}}' % value))
        assert code == 2
        assert "tolerances.distributivity" in err

    def test_huge_tolerance_exits_2(self, workdir, capsys):
        code, err = run_config_text(workdir, capsys, (
            '{"aggregator": "geomean", "overlap": "product", '
            '"weights": [[1, 1], [1, 1]], "tolerances": {"distributivity": %s}}' % HUGE))
        assert code == 2
        assert "is not valid JSON" in err

    @pytest.mark.parametrize("cell, needle", [
        ("true", "cell ('a1', 'c1') must be a number, got True"),
        ('"0.5"', "cell ('a1', 'c1') must be a number, got '0.5'"),
        ("[0.1, false]", "cell ('a1', 'c1') must be a number, got False"),
        ("[0.1, NaN]", "cell ('a1', 'c1') must be finite"),
        pytest.param(BIG, "cell ('a1', 'c1') does not fit a binary64 number", id="400-digits"),
        pytest.param(HUGE, "invalid JSON", id="5000-digits"),
    ])
    def test_json_matrix_cell_defect_exits_2(self, workdir, capsys, cell, needle):
        (workdir / "cells.json").write_text(json_matrix_text(cell))
        code, err = run_config_text(workdir, capsys, json.dumps(CONFIG_GEOMEAN), "cells.json")
        assert code == 2
        assert needle in err

    @pytest.mark.parametrize("key, labels, needle", [
        ("alternatives", [1], "alternatives[0] must be a string, got 1"),
        ("alternatives", [True], "alternatives[0] must be a string, got True"),
        ("alternatives", [None], "alternatives[0] must be a string, got None"),
        ("criteria", ["c1", {"a": 1}], "criteria[1] must be a string, got {'a': 1}"),
        ("criteria", [["c1"], "c2"], "criteria[0] must be a string, got ['c1']"),
        ("alternatives", ["", " "], "alternatives[0] is missing an alternative label"),
        ("alternatives", ["a1", " \t"], "alternatives[1] is missing an alternative label"),
    ])
    def test_json_matrix_label_defect_exits_2(self, workdir, capsys, key, labels, needle):
        # One cell row per alternative, so that the label is the one defect.
        payload = json.loads(json_matrix_text("[0.1, 0.2]"))
        payload[key] = labels
        if key == "alternatives":
            payload["cells"] *= len(labels)
        (workdir / "labels.json").write_text(json.dumps(payload))
        code, err = run_config_text(workdir, capsys, json.dumps(CONFIG_GEOMEAN), "labels.json")
        assert code == 2
        assert needle in err

    # Header defects come first; a repeated alternative label is its row's
    # label defect, after the row's length and before its cells.
    @pytest.mark.parametrize("matrix, fmt, needle", [
        pytest.param('alternative,c1,c1\na1,0.1,0.2\na1,0.3,0.4\n', "csv",
                     "header column 3 repeats the criterion label 'c1' of header column 2",
                     id="csv-repeated-criterion"),
        pytest.param('alternative,,\na1,0.1,0.2\n', "csv",
                     "header column 2 is missing a criterion label", id="csv-blank-criteria"),
        pytest.param('alternative,c1, \na1,0.1,0.2,0.3\n', "csv",
                     "header column 3 is missing a criterion label", id="csv-blank-then-ragged"),
        pytest.param('alternative,c1,c2\na1,0.1,0.2\na2,0.1,0.2\n a1 ,x,0.4\n', "csv",
                     "row 4 repeats the alternative label 'a1' of row 2",
                     id="csv-repeated-alternative"),
        pytest.param('alternative,c1,c2\na1,x,0.2\na1,0.3,0.4\n', "csv",
                     "cell ('a1', 'c1'): malformed interval text 'x'", id="csv-cell-then-repeat"),
        pytest.param('alternative,c1,c2\na1,0.1,0.2\na1,0.3\n', "csv",
                     "row 3 has 1 cells for 2 criteria", id="csv-ragged-repeat"),
        # A CSV row is named by the line it starts on, past blank lines and
        # newlines inside quoted cells.
        pytest.param('alternative,c1\n\na1,0.2\na2\n', "csv",
                     "row 4 has 0 cells for 1 criteria", id="csv-ragged-after-blank-line"),
        pytest.param('alternative,c1\na1,"[0.1,\n0.2]"\n\na1,0.3\n', "csv",
                     "row 5 repeats the alternative label 'a1' of row 2",
                     id="csv-repeat-after-quoted-newline"),
        pytest.param({"alternatives": ["a1", "a2"], "criteria": ["c1", "c1"],
                      "cells": [[0.1, 0.2], [0.3]]}, "json",
                     "criteria[1] repeats the criterion label 'c1' of criteria[0]",
                     id="json-repeated-criterion"),
        pytest.param({"alternatives": ["a1"], "criteria": [" "], "cells": [[0.1]]}, "json",
                     "criteria[0] is missing a criterion label", id="json-blank-criterion"),
        pytest.param({"alternatives": ["", "a2"], "criteria": ["c1", "c1"],
                      "cells": [[0.1, 0.2], [0.3, 0.4]]}, "json",
                     "criteria[1] repeats the criterion label 'c1' of criteria[0]",
                     id="json-criterion-before-blank-alternative"),
        pytest.param({"alternatives": ["a1", "a2", "a1"], "criteria": ["c1"],
                      "cells": [[0.1], [0.2], [True]]}, "json",
                     "alternatives[2] repeats the alternative label 'a1' of alternatives[0]",
                     id="json-repeated-alternative"),
        pytest.param({"alternatives": ["a1", "a1"], "criteria": ["c1"],
                      "cells": [[True], [0.2]]}, "json",
                     "cell ('a1', 'c1') must be a number, got True", id="json-cell-then-repeat"),
        pytest.param({"alternatives": ["a1", "a1"], "criteria": ["c1"],
                      "cells": [[0.1], []]}, "json",
                     "row 'a1' has 0 cells for 1 criteria", id="json-ragged-repeat"),
        # Row-major in both readers: the bad cell of row 2 before the blank
        # label of row 3.
        pytest.param('alternative,c1\na1,true\n,0.2\n', "csv",
                     "cell ('a1', 'c1'): malformed interval text 'true'",
                     id="csv-cell-then-blank-alternative"),
        pytest.param({"alternatives": ["a1", ""], "criteria": ["c1"],
                      "cells": [[True], [0.2]]}, "json",
                     "cell ('a1', 'c1') must be a number, got True",
                     id="json-cell-then-blank-alternative"),
    ])
    def test_defective_matrix_labels_exit_2(self, workdir, capsys, matrix, fmt, needle):
        (workdir / f"labels.{fmt}").write_text(matrix if fmt == "csv" else json.dumps(matrix))
        code, err = run_config_text(workdir, capsys, json.dumps(CONFIG_GEOMEAN), f"labels.{fmt}")
        assert code == 2
        assert f"error: {needle}\n" in err

    @pytest.mark.parametrize("payload, needle", [
        pytest.param({"alternatives": [], "criteria": ["c1", "c2"], "cells": []},
                     "key 'alternatives' must not be empty", id="no-alternatives"),
        pytest.param({"alternatives": ["a1"], "criteria": [], "cells": [[]]},
                     "key 'criteria' must not be empty", id="no-criteria"),
    ])
    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_empty_json_matrix_exits_2(self, workdir, capsys, payload, needle, flags):
        (workdir / "empty.json").write_text(json.dumps(payload))
        (workdir / "strict.json").write_text(json.dumps(CONFIG_GEOMEAN))
        code = main(["aggregate", "--config", str(workdir / "strict.json"),
                     "--matrix", str(workdir / "empty.json"), *flags])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert needle in err

    @pytest.mark.parametrize("data, needle", [
        pytest.param(b'alternative,c1,c2\na1,"' + b"y" * 200_000 + b'",0.5\n', "CSV line 2",
                     id="field-over-csv-limit"),
        pytest.param(b"alternative,c1,c2\na1,0.5,\xff\n", "not UTF-8 text", id="not-utf8"),
        # Quoting is strict: text after a closing quote, or a quote still
        # open at the end of the file, is a defect, not part of the field.
        pytest.param(b'alternative,c1\n"a1"x,0.2\n', "CSV line 2: ',' expected after '\"'",
                     id="text-after-closing-quote"),
        pytest.param(b'alternative,c1\na1,"0.2\n', "CSV line 2: unexpected end of data",
                     id="unterminated-quote"),
    ])
    def test_csv_matrix_defect_exits_2(self, workdir, capsys, data, needle):
        (workdir / "bad.csv").write_bytes(data)
        code, err = run_config_text(workdir, capsys, json.dumps(CONFIG_GEOMEAN), "bad.csv")
        assert code == 2
        assert needle in err

    def test_weights_and_tolerance_still_read_ints_and_floats(self, workdir, capsys):
        code, err = run_config_text(workdir, capsys, (
            '{"aggregator": "geomean", "overlap": "product", "weights": [[1, 1.0], [1.0, 1]], '
            '"tolerances": {"distributivity": 1}}'))
        assert (code, err) == (0, "")


def test_aggregate_matches_golden(tmp_path, capsys):
    records = [json.loads(line) for line in AGGREGATE_GOLDEN.read_text().splitlines()]
    cases = AGGREGATE_CASES + AGGREGATE_MATRIX_CASES
    assert [{k: r[k] for k in ("config", "matrix", "format") if k in r}
            for r in records] == cases
    assert [r["exit"] for r in records] == [0] * 15 + [1] * 4 + [0] * 25 + [2] * 11
    for record in records:
        case = {k: record[k] for k in ("config", "matrix", "format") if k in record}
        assert run_aggregate(tmp_path, case, capsys) == record


class TestVerifyCommand:
    def test_sound_overlap_exits_0(self, capsys):
        assert main(["verify", "rep(product,product)"]) == 0
        out = capsys.readouterr().out
        assert "inclusion-monotonic" in out

    def test_midpoint_exits_1_with_inclusion_failure(self, capsys):
        assert main(["verify", "midpoint"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "inclusion-monotonic" in out

    def test_empty_target_list_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify"])
        assert exc.value.code == 2

    def test_unknown_id_exits_2(self, capsys):
        assert main(["verify", "rep(nope,product)"]) == 2

    def test_invalid_construction_exits_2(self, capsys):
        assert main(["verify", "rep(min,product)"]) == 2
        assert "exceeds" in capsys.readouterr().err

    def test_json_stream(self, capsys):
        assert main(["verify", "product", "--json"]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert all(set(r) == {"check_id", "target", "verdict", "witness",
                              "samples", "tolerance"} for r in records)

    def test_real_overlap_target(self, capsys):
        assert main(["verify", "lukasiewicz"]) == 1
        assert "go2" in capsys.readouterr().out

    @pytest.mark.parametrize("head", ["pow", "root"])
    def test_transform_degree_beyond_binary64_exits_2(self, capsys, head):
        assert main(["verify", f"{head}(product,n={BIG})"]) == 2
        assert f"transform degree n={BIG} exceeds the binary64 range" in capsys.readouterr().err

    def test_id_nested_1000_deep_exits_2(self, capsys):
        assert main(["verify", nested_transform("pow", 1000)]) == 2
        assert "nests 1000 levels deep; at most 32 are allowed" in capsys.readouterr().err

    def test_step_override(self, capsys):
        # An interval target walks the step's grid: 6 intervals at step 0.5,
        # so O1 decides 36 cases where the default grid gives 4,356.
        assert main(["verify", "rep(product,min)", "--step", "0.5", "--json"]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [r["samples"] for r in records if r["check_id"] == "o1"] == [36]
        # A real-overlap target walks its own 0.05 point grid at any step.
        outputs = []
        for step in ("0.1", "0.2", "0.5"):
            assert main(["verify", "product", "--step", step, "--json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[1:] == outputs[:1] * 2
        assert '"check_id": "go1", "samples": 441,' in outputs[0]
        assert main(["verify", "product", "--step", "0.17"]) == 2

    @pytest.mark.parametrize("step", ["0", "-0", "5e-324"])
    def test_step_without_a_reciprocal_is_usage_error(self, capsys, step):
        assert main(["verify", "product", f"--step={step}"]) == 2
        assert capsys.readouterr().err.startswith("error: endpoint_step must be 1/n, got ")

    def test_step_finer_than_the_finest_grid_is_usage_error(self, capsys):
        # The grid is refused before any walk starts enumerating it.
        assert main(["verify", "product", "--step", "1e-13"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: endpoint_step 1e-13 gives 50000000000015000000000001 grid intervals; ")

    def test_aggregator_target(self, capsys):
        assert main(["verify", "dirac"]) == 0
        out = capsys.readouterr().out
        assert "m1" in out and "m2" in out

    def test_catalog_matches_golden(self, capsys):
        # Recorded from an earlier commit; unlike the theorem suite, the
        # catalog includes failing checks, so it pins first-failure witnesses
        # and their sample counts.
        targets = [
            "product", "min", "minmax:p=1", "minmax:p=2", "minmax:p=3", "xyp:p=2", "xyp:p=3",
            "mig:poly", "lukasiewicz", "max", "tsum", "geomean", "dirac", "midpoint",
            "rep(product,min)", "rep(min,min)", "rep(lukasiewicz,lukasiewicz)",
            "rep(xyp:p=2,product)", "mig(sqrt)", "mig(square)", "canonical(K=[1.0,2.0])",
            "pow(product,n=2)", "root(midpoint,n=3)",
        ]
        assert main(["verify", *targets, "--json"]) == 1
        golden = Path(__file__).resolve().parent / "golden" / "verify_catalog.jsonl"
        assert capsys.readouterr().out.encode() == golden.read_bytes()


class TestVerifySplit:
    """`verify` runs the WORKER_ROWS of the requested suites in a forked
    worker and the rest in its own process, with the serial path's output."""

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        # A case that waits on its worker for two minutes fails instead.
        def timeout(signum, frame):
            raise TimeoutError("verify still runs after 120 s")

        handler = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(120)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, handler)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.fixture
    def forks(self, monkeypatch):
        """Two CPUs to run on, and the pids of the workers forked."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        pids, fork = [], os.fork

        def counted_fork():
            pid = fork()
            pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted_fork)
        return pids

    @pytest.fixture
    def stub_rows(self, monkeypatch):
        """Every theorem row replaced by one passing report, so a case runs in
        milliseconds; returns a function that replaces one row."""
        for row in checks._THEOREM_CHECKS:
            report = checks.CheckReport(row, "catalog", "pass", None, 1, 0.0)
            monkeypatch.setitem(checks._THEOREM_CHECKS, row, lambda grid, report=report: report)
        return lambda row, fn: monkeypatch.setitem(checks._THEOREM_CHECKS, row, fn)

    def run(self, capsys, *targets):
        try:
            code = main(["verify", *targets, "--json"])
        except RuntimeError as exc:
            code = repr(exc)
        out, err = capsys.readouterr()
        return code, out, err

    @pytest.fixture(scope="class")
    def in_process(self):
        return {"theorems": reports_to_json(run_theorem_suite()),
                "lattice": reports_to_json(lattice_order_checks())}

    @pytest.mark.parametrize("targets", [["theorems"], ["lattice"], ["theorems", "lattice"]])
    def test_records_equal_the_in_process_suites(self, capsys, forks, in_process, targets):
        expected = [line for target in targets for line in in_process[target]]
        code, out, err = self.run(capsys, *targets)
        assert (code, out.splitlines(), err) == (0, expected, "")
        # The lattice suite alone is all worker rows: nothing is left to
        # share, so it runs in this process.
        assert len(forks) == ("theorems" in targets)

    @pytest.mark.parametrize("unavailable", ["one-cpu", "no-fork", "fork-fails"])
    def test_serial_without_a_second_cpu_or_fork(self, capsys, monkeypatch, forks, stub_rows,
                                                 unavailable):
        split = self.run(capsys, "theorems")
        assert len(forks) == 1
        if unavailable == "one-cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
        elif unavailable == "no-fork":
            monkeypatch.delattr(os, "fork")
        else:
            def fork_fails():
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

            monkeypatch.setattr(os, "fork", fork_fails)
        assert self.run(capsys, "theorems") == split
        assert len(forks) == 1

    @pytest.mark.parametrize("error", [ConstructionError("no such row"), RuntimeError("boom")],
                             ids=["construction-error", "runtime-error"])
    def test_worker_row_error_matches_the_serial_path(self, capsys, monkeypatch, forks,
                                                      stub_rows, error):
        assert "gowa-idempotency" in checks.WORKER_ROWS

        def fails(grid):
            raise error

        stub_rows("gowa-idempotency", fails)
        split = self.run(capsys, "theorems", "lattice")
        assert len(forks) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert self.run(capsys, "theorems", "lattice") == split
        assert len(forks) == 1
        assert split[0] == (2 if isinstance(error, ConstructionError) else repr(error))

    @pytest.mark.parametrize("death", [
        lambda: os._exit(3),
        lambda: os.kill(os.getpid(), signal.SIGKILL),
        lambda: 1 / 0,
    ], ids=["exit-3", "sigkill", "raises"])
    def test_failed_worker_rows_run_again_here(self, capsys, monkeypatch, forks, stub_rows,
                                               death):
        parent, ran_here = os.getpid(), []

        def dies_in_the_worker(grid):
            if os.getpid() != parent:
                death()
            ran_here.append(grid)
            return checks.CheckReport("gowa-idempotency", "catalog", "fail",
                                      (Interval(0.0, 1.0),), 1, 0.0)

        stub_rows("gowa-idempotency", dies_in_the_worker)
        split = self.run(capsys, "theorems", "lattice")
        assert len(forks) == 1 and len(ran_here) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        serial = self.run(capsys, "theorems", "lattice")
        assert len(forks) == 1 and len(ran_here) == 2
        assert split == serial
        assert split[0] == 1 and split[2] == "" and '"gowa-idempotency"' in split[1]

    def test_worker_is_reaped_when_this_process_fails(self, capsys, forks, stub_rows):
        stub_rows("gowa-idempotency", lambda grid: time.sleep(60))
        code, out, err = self.run(capsys, "theorems", "rep(nope,product)")
        assert (code, out) == (2, "") and err.startswith("error: ")
        assert len(forks) == 1

    def test_partition_names_rows_of_both_sides(self):
        rows = set().union(*checks.SUITE_ROWS.values())
        assert checks.SUITE_ROWS == {
            "theorems": checks._THEOREM_CHECKS.keys(),
            "lattice": checks._LATTICE_CHECKS.keys(),
        }
        assert checks.WORKER_ROWS <= rows
        # The semi-representable rows share their two axiom walks, so they
        # run on one side.
        assert not checks.WORKER_ROWS & set(checks._SEMI_IDS.values())
        # Each process keeps at least one theorem row.
        assert checks.WORKER_ROWS & checks.SUITE_ROWS["theorems"]
        assert checks.SUITE_ROWS["theorems"] - checks.WORKER_ROWS


def test_import_loads_no_dataclasses_inspect_or_pickle():
    # Importing dataclasses pulls in inspect, ast, dis and tokenize, and each
    # @dataclass execs its generated methods: about 14 ms of every fresh
    # process.  Records are NamedTuples or `Slotted` classes, the memo reads
    # its key from the function's code object, not from inspect.signature,
    # and `verify` imports pickle only when it forks its worker.
    assert not source_lines("@dataclass")
    env = dict(os.environ, PYTHONPATH=str(Path(ivowa.__file__).resolve().parents[1]))
    code = ("import sys\n"
            "for module in ('ivowa', 'ivowa.cli'):\n"
            "    __import__(module)\n"
            "    print(module, sorted({'dataclasses', 'inspect', 'pickle', 'multiprocessing'}"
            " & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120)
    assert (proc.stdout, proc.stderr) == ("ivowa []\nivowa.cli []\n", "")


class TestCatalogCommand:
    def test_lists_ids(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        for needle in ("product", "midpoint", "tsum", "lex1", "sqrt"):
            assert needle in out


@pytest.mark.parametrize("argv", [["catalog"], ["verify", "product", "--step", "0.5"]])
def test_closed_stdout_exits_quietly(argv):
    # The reading end is closed before the program writes, as when
    # `ivowa catalog | head -1` has already exited.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(ivowa.__file__).resolve().parents[1]))
    try:
        proc = subprocess.run([sys.executable, "-m", "ivowa.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""

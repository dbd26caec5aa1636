import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ivowa
from ivowa.cli import main
from ivowa.intervals import Interval
from ivowa.matrix import (
    DecisionMatrix,
    MatrixError,
    emit_matrix_text,
    parse_matrix_text,
)

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
        assert m.cells[0][0] == Interval(0.2, 0.5)
        assert m.cells[2][0] == Interval(0.6, 0.6)

    def test_inverted_cell_named(self):
        bad = MATRIX_CSV.replace("[0.4,0.9]", "[0.6,0.2]")
        with pytest.raises(MatrixError, match="'a2'.*'c2'"):
            parse_matrix_text(bad, "csv")

    def test_ragged_row_rejected(self):
        with pytest.raises(MatrixError, match="row 3"):
            parse_matrix_text('alternative,c1,c2\na1,"[0,1]","[0,1]"\na2,"[0,1]"\n', "csv")

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
        flipped = DecisionMatrix(
            m.alternatives,
            (m.criteria[1], m.criteria[0]),
            tuple((row[1], row[0]) for row in m.cells),
        )
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

    def test_step_override(self, capsys):
        assert main(["verify", "product", "--step", "0.2"]) == 0
        assert main(["verify", "product", "--step", "0.17"]) == 2

    def test_aggregator_target(self, capsys):
        assert main(["verify", "dirac"]) == 0
        out = capsys.readouterr().out
        assert "m1" in out and "m2" in out


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

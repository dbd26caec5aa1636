import json
from collections import OrderedDict
from pathlib import Path

import pytest

from ivowa.checks import (
    CheckReport,
    LATTICE_CHECK_IDS,
    THEOREM_CHECK_IDS,
    lattice_order_checks,
    report_lines,
    reports_to_json,
    run_axiom_suite,
    run_theorem_suite,
)
from conftest import source_lines
from ivowa import checks, iv_overlaps, owa, sampling
from ivowa.intervals import Interval
from ivowa.iv_overlaps import (
    IVOverlap,
    check_associative,
    midpoint_example,
    representable,
)
from ivowa.overlaps import RealAggregator, RealOverlap, builtin_overlaps, projection_aggregator
from ivowa.owa import builtin_aggregators
from ivowa.registry import standard_overlaps
from ivowa.sampling import DEFAULT_GRID, POLY_TOLERANCE, SampledResult

CAT = builtin_overlaps()

# `verify theorems lattice --json` as recorded by the benchmark; read only.
VERIFY_GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden" / "verify.jsonl"


@pytest.fixture(scope="module")
def law_suite():
    """`verify theorems lattice` in this process, from an empty memo as in a
    fresh one: the theorem reports, the lattice reports, the number of
    overlap calls the run made on lone pairs, and the homogeneity and
    migrativity interval walks it made, as (walk, target, result).  The
    run's memo entries then join the memo the other tests share."""
    held, calls, call, walks = sampling._MEMO, [], IVOverlap.__call__, []

    def recorded(walk):
        def run(target, *args):
            result = walk(target, *args)
            walks.append((walk.__name__, target, result))
            return result
        return run

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sampling, "_MEMO", OrderedDict())
        patch.setattr(IVOverlap, "__call__", lambda self, x, y: calls.append(1) or call(self, x, y))
        for module, name in ((iv_overlaps, "_interval_homogeneous"),
                             (iv_overlaps, "_interval_migrative"), (owa, "_interval_homogeneous_m")):
            patch.setattr(module, name, recorded(getattr(module, name)))
        theorems, lattice = run_theorem_suite(), lattice_order_checks()
        run = sampling._MEMO
    for key, value in run.items():
        held.setdefault(key, value)
    while len(held) > sampling.MEMO_SIZE:
        held.popitem(last=False)
    return theorems, lattice, len(calls), walks


@pytest.fixture(scope="module")
def theorem_reports(law_suite):
    return law_suite[0]


@pytest.fixture(scope="module")
def lattice_reports(law_suite):
    return law_suite[1]


class TestAxiomSuite:
    def test_real_overlap_all_pass(self):
        reports = run_axiom_suite(CAT["product"])
        assert [r.check_id for r in reports] == ["go1", "go2", "go3", "go4", "go5"]
        assert all(r.verdict == "pass" for r in reports)

    def test_lukasiewicz_zero_boundary_fails_with_witness(self):
        reports = {r.check_id: r for r in run_axiom_suite(CAT["lukasiewicz"])}
        assert reports["go2"].verdict == "fail"
        assert reports["go2"].witness is not None
        assert reports["go1"].verdict == "pass"

    def test_iv_overlap_suite(self):
        reports = run_axiom_suite(representable(CAT["product"], CAT["product"]))
        assert [r.check_id for r in reports] == ["o1", "o2", "o3", "o4", "o5"]
        assert all(r.verdict == "pass" for r in reports)

    def test_midpoint_axioms_pass(self):
        reports = run_axiom_suite(midpoint_example())
        assert all(r.verdict == "pass" for r in reports)

    def test_real_aggregator_suite_includes_claims(self):
        reports = run_axiom_suite(projection_aggregator(3))
        ids = [r.check_id for r in reports]
        assert ids[:2] == ["m1", "m2"]
        assert "m3:arg3" in ids and "m4:arg3" in ids
        assert all(r.verdict == "pass" for r in reports)

    def test_iv_aggregator_suite(self):
        for name, m in builtin_aggregators(2).items():
            reports = run_axiom_suite(m)
            assert [r.check_id for r in reports] == ["m1", "m2"]
            assert all(r.verdict == "pass" for r in reports), name

    def test_unknown_target_type(self):
        with pytest.raises(TypeError):
            run_axiom_suite(object())


class TestTheoremSuite:
    def test_all_pass_on_shipped_catalog(self, theorem_reports):
        bad = [(r.check_id, r.verdict, r.witness) for r in theorem_reports if r.verdict != "pass"]
        assert not bad, bad

    def test_coverage_is_complete(self, theorem_reports):
        assert tuple(sorted(r.check_id for r in theorem_reports)) == THEOREM_CHECK_IDS

    def test_reports_sorted_and_deterministic(self, theorem_reports, lattice_reports):
        # The golden file was written by an earlier commit, so this pins
        # verdicts, witnesses and sample counts byte for byte across commits.
        lines = reports_to_json(theorem_reports + lattice_reports)
        assert "".join(f"{line}\n" for line in lines).encode() == VERIFY_GOLDEN.read_bytes()
        ids = [json.loads(line)["check_id"] for line in reports_to_json(theorem_reports)]
        assert ids == sorted(ids)

    def test_lattice_checks(self, lattice_reports):
        assert tuple(r.check_id for r in lattice_reports) == LATTICE_CHECK_IDS
        assert all(r.verdict == "pass" for r in lattice_reports)

    def test_every_row_reports_under_its_own_id(self, theorem_reports, lattice_reports):
        # The rows after the suite ran: each returns one report, the suite's.
        by_id = {r.check_id: r for r in theorem_reports + lattice_reports}
        for table in (checks._THEOREM_CHECKS, checks._LATTICE_CHECKS):
            for row, check in table.items():
                assert check(DEFAULT_GRID) == by_id[row]

    def test_a_semi_representable_row_runs_alone(self, theorem_reports):
        row = "semi-representable-continuity"
        assert run_theorem_suite(rows={row}) == [r for r in theorem_reports if r.check_id == row]

    def test_associative_list_names_the_associative_standard_overlaps(self):
        # Both ways: a listed overlap that stopped being associative, or an
        # associative one left off the list, fails here and not silently.
        passing = tuple(name for name, op in standard_overlaps().items()
                        if check_associative(op).ok)
        assert checks._ASSOCIATIVE == passing

    def test_semi_representable_rows_share_their_overlaps(self):
        assert all(a is b for a, b in zip(checks._semi_configs(), checks._semi_configs()))

    def test_witness_present_exactly_on_failure(self, theorem_reports, lattice_reports):
        reports = (theorem_reports + lattice_reports
                   + run_axiom_suite(CAT["lukasiewicz"])
                   + run_axiom_suite(representable(CAT["lukasiewicz"], CAT["lukasiewicz"])))
        for r in reports:
            assert (r.verdict == "fail") == (r.witness is not None), r

    def test_grid_laws_read_value_tables(self, law_suite):
        # A grid law evaluates its operator once per grid point, into a value
        # table, and a sampled law walk decides its tuples a block at a time.
        # Aggregators and overlaps are stored once, as their column maps,
        # with no per-tuple or per-pair map beside them, and there is no
        # one-pair path: GO1-GO5 of a real overlap and of a projection are one
        # walk over value tables, and the n-ary continuity probe shares the m2
        # neighbour walk.  So the suite calls an overlap on a lone pair only
        # at fixed points (no-self-duality, `_fixes`, the generator and
        # sandwich boundaries, the documented witnesses), where a grid walk
        # would make thousands of calls.
        for pattern, modules in [
            (r"lifted\(ends\)|max_jump_nary|def _split\(|checked_ends|continuity_probe", ()),
            (r"def outcomes|def agg_|^    ends:", ("owa.py",)),
            (r"^    ends:", ("iv_overlaps.py",)),
            # A separable overlap's endpoint maps are its `endwise` field, and
            # an aggregator has no per-tuple function.
            (r"\.fn\b|def endpoint_maps", ()),
        ]:
            assert not source_lines(pattern, *modules)
        assert RealOverlap.__slots__ == ("columns", "name")
        assert RealAggregator.__slots__ == ("columns", "arity", "name", "claims")
        assert law_suite[2] <= 68

    def test_separable_laws_make_no_passing_interval_walk(self, law_suite):
        # Homogeneity and migrativity over a separable overlap, and the
        # exhaustive homogeneity of an endpoint-wise aggregator, pass by
        # their real walks: an interval walk runs only to fail, or over a
        # target that is neither.  In this suite only the two failing binary
        # aggregators make one: tsum saturates and dirac is not endpoint-wise.
        walks = law_suite[3]
        for walk, target, result in walks:
            assert not (target.endwise is not None and result.ok), (walk, target.name)
        assert sorted((walk, target.name, result.ok) for walk, target, result in walks) == [
            ("_interval_homogeneous_m", "dirac", False), ("_interval_homogeneous_m", "tsum", False)]


def _row_report(parts, tol=POLY_TOLERANCE):
    """The report of a one-off row with these parts, registered and folded
    exactly as a shipped row is."""
    table = {}
    checks._law("toy-law", tol, table)(lambda grid: iter(parts))
    return table["toy-law"](DEFAULT_GRID)


class TestFold:
    # Every shipped row passes, so the goldens pin only the pass path.
    X = Interval(0.2, 0.4)

    def test_a_failing_part_names_the_witness_and_every_part_counts(self):
        report = _row_report([
            ("first", SampledResult(True, None, 3)),
            ("second", SampledResult(False, (self.X, 0.5), 5)),
            ("third", SampledResult(True, None, 7)),
        ])
        assert report == CheckReport("toy-law", "catalog", "fail", ("second", self.X, 0.5),
                                     15, POLY_TOLERANCE)

    def test_the_first_failing_part_names_the_witness(self):
        report = _row_report([
            ("first", SampledResult(True, None, 2)),
            ("second", SampledResult(False, (self.X,), 4)),
            ("third", SampledResult(False, (0.9,), 6)),
        ])
        assert report.verdict == "fail"
        assert report.witness == ("second", self.X)
        assert report.samples_used == 12

    def test_a_row_without_parts_is_skipped(self):
        report = _row_report([])
        assert report == CheckReport("toy-law", "catalog", "skipped", None, 0, 0.0)


class TestReportSerialization:
    def test_json_fields(self):
        reports = run_axiom_suite(CAT["lukasiewicz"])
        records = [json.loads(line) for line in reports_to_json(reports)]
        for record in records:
            assert set(record) == {"check_id", "target", "verdict", "witness",
                                   "samples", "tolerance"}
        failing = next(r for r in records if r["verdict"] == "fail")
        assert isinstance(failing["witness"], list)

    def test_witness_intervals_serialized_as_pairs(self):
        # Lukasiewicz on both endpoints has zero divisors, so the zero
        # boundary biconditional fails with an interval witness.
        reports = run_axiom_suite(representable(CAT["lukasiewicz"], CAT["lukasiewicz"]))
        record = next(json.loads(line) for line in reports_to_json(reports)
                      if json.loads(line)["verdict"] == "fail")
        assert all(isinstance(w, list) and len(w) == 2 for w in record["witness"])

    def test_text_lines(self):
        lines = report_lines(run_axiom_suite(CAT["product"]))
        assert all(line.startswith("PASS") for line in lines)
        assert "go1" in lines[0]

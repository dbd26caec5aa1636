"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with ``pytest tests/test_acceptance.py -s``
to see all lines).
"""

import json
import math
import random

from conftest import emit_matrix_text, midpoint_closed_form, random_interval
from ivowa.cli import main
from ivowa.intervals import (
    AdmissibleOrder,
    ExponentInterval,
    Interval,
    ONE,
    Ordering,
    ZERO,
    leq_product,
    subseteq,
)
from ivowa.iv_overlaps import (
    check_homogeneous,
    check_idempotent,
    check_migrative,
    interval_product,
    is_inclusion_monotonic,
    midpoint_example,
    migrative_canonical,
    reconstructs_from_projections,
    representable,
    verify_iv_axioms,
)
from ivowa.matrix import parse_matrix_text
from ivowa.overlaps import builtin_overlaps, verify_overlap_axioms
from ivowa.owa import (
    WeightVector,
    builtin_aggregators,
    check_distributivity,
    make_gowa,
)
from ivowa.registry import standard_migrative, standard_overlaps
from ivowa.sampling import DEFAULT_GRID

POLY = 1e-12
ROOT = 1e-9
SEED = 20260808


def _record(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _close(a: Interval, lo: float, up: float, tol: float) -> bool:
    return abs(a.lower - lo) <= tol and abs(a.upper - up) <= tol


def test_criterion_1_real_overlap_axioms():
    catalog = builtin_overlaps()
    problems = []
    for name, g in catalog.items():
        results = verify_overlap_axioms(g)
        if name == "lukasiewicz":
            if results["go2"].ok:
                problems.append("lukasiewicz unexpectedly satisfies go2")
            if g(0.5, 0.5) != 0.0 or 0.5 * 0.5 == 0.0:
                problems.append("documented witness (0.5, 0.5) does not yield 0")
            continue
        for axiom in ("go1", "go2", "go3", "go4"):
            if not results[axiom].ok:
                problems.append(f"{name} fails {axiom} at {results[axiom].witness}")
    _record("1 real-overlap axiom suite", not problems, "; ".join(problems))


def test_criterion_2_representability():
    catalog = builtin_overlaps()
    op = representable(catalog["product"], catalog["product"])
    axioms = verify_iv_axioms(op)
    axiom_ok = all(res.ok for res in axioms.values())
    inclusion_ok = is_inclusion_monotonic(op).ok
    reconstruction_ok = reconstructs_from_projections(op, tol=POLY).ok
    detail = f"axioms={axiom_ok} inclusion={inclusion_ok} reconstruction={reconstruction_ok}"
    _record("2 representability", axiom_ok and inclusion_ok and reconstruction_ok, detail)


def test_criterion_3_non_representable_oracle():
    mid = midpoint_example()
    wide = Interval(0.0, 1.0)
    contraction = mid(wide, wide)
    closed = midpoint_closed_form(wide, wide)
    value_ok = (_close(contraction, 0.25, 0.75, POLY)
                and abs(contraction.lower - closed.lower) <= POLY
                and abs(contraction.upper - closed.upper) <= POLY)
    res = is_inclusion_monotonic(mid)
    witness_ok = not res.ok and not subseteq(mid(ONE, ONE), mid(wide, wide))
    if not res.ok:
        x_in, x_out, y_in, y_out = res.witness
        witness_ok = witness_ok and subseteq(x_in, x_out) and subseteq(y_in, y_out) \
            and not subseteq(mid(x_in, y_in), mid(x_out, y_out))
    _record("3 non-representable oracle", value_ok and witness_ok,
            f"value={contraction} closed={closed} inclusion-fails={not res.ok}")


def test_criterion_4_migrativity_homogeneity():
    catalog = builtin_overlaps()
    prod = interval_product()
    prod_ok = (check_migrative(prod, tol=ROOT).ok
               and check_homogeneous(prod, ExponentInterval(2, 2), tol=ROOT).ok)
    canonical = migrative_canonical(ExponentInterval(1, 1))
    canonical_ok = (check_idempotent(canonical, tol=ROOT).ok
                    and check_homogeneous(canonical, ExponentInterval(1, 1), tol=ROOT).ok)
    min_rep = representable(catalog["min"], catalog["min"])
    res = check_migrative(min_rep, tol=ROOT)
    alpha, x, y = Interval(0.5, 0.5), ONE, Interval(0.2, 0.2)
    left = min_rep(prod(alpha, x), y)
    right = min_rep(x, prod(alpha, y))
    witness_ok = (not res.ok and left == Interval(0.2, 0.2) and right == Interval(0.1, 0.1))
    _record("4 migrativity and homogeneity", prod_ok and canonical_ok and witness_ok,
            f"product={prod_ok} canonical={canonical_ok} min-witness={witness_ok}")


def test_criterion_5_migrative_implies_representable():
    problems = []
    for op in standard_migrative():
        if not is_inclusion_monotonic(op).ok:
            problems.append(f"{op.name} not inclusion monotonic")
        if not reconstructs_from_projections(op, tol=POLY).ok:
            problems.append(f"{op.name} fails projection reconstruction")
    _record("5 migrative operators are representable", not problems, "; ".join(problems))


def test_criterion_6_gowa_laws():
    prod = interval_product()
    aggs = builtin_aggregators(2)
    geomean_ok = check_distributivity(aggs["geomean"], prod, tol=ROOT).ok

    dirac_failures = []
    for name, op in standard_overlaps().items():
        res = check_distributivity(aggs["dirac"], op, tol=ROOT)
        if not res.ok:
            witness = "(" + ", ".join(str(w) for w in res.witness) + ")"
            dirac_failures.append(f"{name} at {witness}")
    dirac_ok = not dirac_failures

    configs = [
        make_gowa(aggs["geomean"], prod, WeightVector.of(ONE, ONE)),
        make_gowa(aggs["tsum"], prod, WeightVector.uniform(2)),
        make_gowa(builtin_aggregators(3)["max"], prod, WeightVector.selector(3, 1)),
    ]
    idempotent_ok = all(
        _close(op([c] * op.arity), c.lower, c.upper, POLY)
        for op in configs
        for c in DEFAULT_GRID.intervals()
    )
    boundary_ok = all(
        op([ZERO] * op.arity) == ZERO and op([ONE] * op.arity) == ONE for op in configs
    )
    detail = (f"geomean-distributivity={geomean_ok} "
              f"dirac-distributivity={dirac_ok} "
              f"idempotency={idempotent_ok} boundary={boundary_ok}")
    if dirac_failures:
        detail += f"; first dirac witness: {dirac_failures[0]}"
    _record("6 ordered-weighted aggregation laws",
            geomean_ok and dirac_ok and idempotent_ok and boundary_ok, detail)


def test_criterion_7_arithmetic_mean_reproduction():
    prod = interval_product()
    rng = random.Random(SEED)
    problems = 0
    checked = 0
    for n in (2, 4, 5, 8):
        op = make_gowa(builtin_aggregators(n)["tsum"], prod, WeightVector.uniform(n))
        for _ in range(250):
            xs = [random_interval(rng) for _ in range(n)]
            got = op(xs)
            want_lo = math.fsum(x.lower for x in xs) / n
            want_up = math.fsum(x.upper for x in xs) / n
            checked += 1
            if not _close(got, want_lo, want_up, POLY):
                problems += 1
    _record("7 arithmetic-mean reproduction", problems == 0,
            f"{checked} random vectors, {problems} mismatches")


def test_criterion_8_projection_owa():
    prod = interval_product()
    rng = random.Random(SEED + 1)
    n = 4
    operators = {
        (order, index): make_gowa(builtin_aggregators(n)["tsum"], prod,
                                  WeightVector.selector(n, index), order)
        for order in AdmissibleOrder
        for index in range(1, n + 1)
    }
    problems = 0
    for order in AdmissibleOrder:
        for _ in range(1000):
            xs = [random_interval(rng) for _ in range(n)]
            index = rng.randrange(1, n + 1)
            got = operators[(order, index)](xs)
            want = sorted(xs, key=order.sort_key, reverse=True)[index - 1]
            if got != want:
                problems += 1
    _record("8 projection selection", problems == 0,
            f"3 orders x 1000 vectors, {problems} mismatches")


def test_criterion_9_admissible_order_laws():
    rng = random.Random(SEED + 2)
    problems = []
    for order in AdmissibleOrder:
        for _ in range(10_000):
            x, y, z = (random_interval(rng) for _ in range(3))
            cxy, cyx = order.compare(x, y), order.compare(y, x)
            if (cxy is Ordering.EQUAL) != (x == y):
                problems.append(f"{order.value}: equality mismatch")
                break
            if cxy is Ordering.LESS and cyx is not Ordering.GREATER:
                problems.append(f"{order.value}: antisymmetry")
                break
            if order.leq(x, y) and order.leq(y, z) and not order.leq(x, z):
                problems.append(f"{order.value}: transitivity")
                break
        for _ in range(2000):
            x = random_interval(rng)
            y_up = x.upper + rng.random() * (1.0 - x.upper)
            y_lo = x.lower + rng.random() * (min(y_up, 1.0) - x.lower)
            y = Interval(y_lo, y_up)
            if leq_product(x, y) and not order.leq(x, y):
                problems.append(f"{order.value}: refinement at ({x}, {y})")
                break
    _record("9 admissible-order laws", not problems, "; ".join(problems))


def test_criterion_10_cli_end_to_end(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "aggregator": "geomean",
        "overlap": "product",
        "weights": [[1, 1], [1, 1]],
        "order": "lex1",
        "normalize": False,
    }))
    matrix_text = (
        "alternative,c1,c2\n"
        'a1,"[0.2,0.5]","[0.4,0.8]"\n'
        'a2,"[0.1,0.2]","[0.4,0.9]"\n'
        'a3,0.6,"[0.3,0.7]"\n'
    )
    matrix_path = tmp_path / "matrix.csv"
    matrix_path.write_text(matrix_text)

    code = main(["aggregate", "--config", str(config), "--matrix", str(matrix_path), "--json"])
    payload = json.loads(capsys.readouterr().out)
    names = [r["alternative"] for r in payload["ranking"]]
    # Hand-derived: row geometric means sqrt([0.18,0.42]) > sqrt([0.08,0.40])
    # > sqrt([0.04,0.18]), ranked by the lower-endpoint-first order.
    expected = {
        "a1": (math.sqrt(0.2 * 0.4), math.sqrt(0.5 * 0.8)),
        "a2": (math.sqrt(0.1 * 0.4), math.sqrt(0.2 * 0.9)),
        "a3": (math.sqrt(0.6 * 0.3), math.sqrt(0.6 * 0.7)),
    }
    values_ok = all(
        abs(r["interval"][0] - expected[r["alternative"]][0]) <= POLY
        and abs(r["interval"][1] - expected[r["alternative"]][1]) <= POLY
        for r in payload["ranking"]
    )
    ranking_ok = names == ["a3", "a1", "a2"] and code == 0

    parsed = parse_matrix_text(matrix_text, "csv")
    round_trip_ok = (
        parse_matrix_text(emit_matrix_text(parsed, "csv"), "csv") == parsed
        and parse_matrix_text(emit_matrix_text(parsed, "json"), "json") == parsed
    )
    _record("10 command-line end to end", ranking_ok and values_ok and round_trip_ok,
            f"ranking={names} values={values_ok} round-trip={round_trip_ok}")

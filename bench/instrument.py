"""Wrappers installed into the program for the traced and the count-only
passes.  Nothing under src/ is edited: each public function is replaced at
every binding site, that is, in every ivowa module whose globals hold it
(`make_gowa` is imported by name into cli and checks; `check_distributivity`
is called through owa's globals and imported into checks).

Import this module before ivowa; it imports ivowa only when installing.
"""

from __future__ import annotations

import importlib
import sys

# (module, attribute, span name).  Several functions share one span name when
# they form one layer step; totals count only the outermost of nested spans.
SPAN_TARGETS = (
    ("ivowa.cli", "rank_matrix", "cli.rank"),
    ("ivowa.matrix", "parse_matrix", "matrix.parse"),
    ("ivowa.matrix", "parse_matrix_text", "matrix.parse"),
    ("ivowa.registry", "resolve_aggregator", "registry.resolve"),
    ("ivowa.registry", "resolve_iv_overlap", "registry.resolve"),
    ("ivowa.registry", "resolve_order", "registry.resolve"),
    ("ivowa.registry", "resolve_real_overlap", "registry.resolve"),
    ("ivowa.registry", "resolve_generator", "registry.resolve"),
    ("ivowa.owa", "make_gowa", "owa.make_gowa"),
    ("ivowa.owa", "check_distributivity", "owa.distributivity"),
    ("ivowa.iv_overlaps", "neutral_element_holds", "iv_overlaps.neutral"),
    ("ivowa.iv_overlaps", "verify_iv_axioms", "iv_overlaps.verify_axioms"),
    ("ivowa.overlaps", "verify_overlap_axioms", "overlaps.verify_axioms"),
    ("ivowa.sampling", "tuple_samples", "sampling.tuple_samples"),
    ("ivowa.checks", "run_theorem_suite", "checks.theorems"),
    ("ivowa.checks", "lattice_order_checks", "checks.lattice"),
    # The five semi-representable reports come from this one call.
    ("ivowa.checks", "_check_semi_items", "checks.semi-representable"),
)
OPERATOR_SPAN = "owa.operator"


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _rebind(original, replacement) -> None:
    """Replace every module-level binding of `original` in the ivowa package."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "ivowa" or name.startswith("ivowa.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _gowa_operator():
    owa = _module("ivowa.owa")
    return getattr(owa, "GowaOperator", None)


def install_spans(recorder) -> list[str]:
    """Wrap every span target with `recorder`; returns the targets not found."""
    missing = []
    for mod_name, attr, span in SPAN_TARGETS:
        fn = getattr(_module(mod_name), attr, None)
        if fn is None:
            missing.append(f"{mod_name}.{attr}")
            continue
        _rebind(fn, recorder.wrap(fn, span))
    checks = _module("ivowa.checks")
    table = getattr(checks, "_THEOREM_CHECKS", None)
    if isinstance(table, dict):
        for check_id, fn in table.items():
            table[check_id] = recorder.wrap(fn, f"checks.{check_id}")
    else:
        missing.append("ivowa.checks._THEOREM_CHECKS")
    op = _gowa_operator()
    if op is None:
        missing.append("ivowa.owa.GowaOperator")
    else:
        op.__call__ = recorder.wrap(op.__call__, OPERATOR_SPAN)
    return missing


COUNT_NAMES = (
    "intervals.objects",
    "sampling.tuples",
    "owa.distributivity_samples",
    "owa.operator_calls",
    "matrix.cells",
)


def install_counts() -> tuple[dict, list[str]]:
    """Count-only wrappers; returns the live counters and the targets not found.

    `owa.distributivity_samples` adds a result's sample count only when the
    call generated tuples, so memo hits add nothing.
    """
    counts = dict.fromkeys(COUNT_NAMES, 0)
    missing = []
    tuple_calls = [0]

    interval = getattr(_module("ivowa.intervals"), "Interval", None)
    post_init = getattr(interval, "__post_init__", None)
    if post_init is None:
        missing.append("ivowa.intervals.Interval.__post_init__")
    else:
        def counted_post_init(self):
            counts["intervals.objects"] += 1
            return post_init(self)
        interval.__post_init__ = counted_post_init

    sampling = _module("ivowa.sampling")
    tuple_samples = getattr(sampling, "tuple_samples", None)
    if tuple_samples is None:
        missing.append("ivowa.sampling.tuple_samples")
    else:
        def counted_tuple_samples(*args, **kwargs):
            out = tuple_samples(*args, **kwargs)
            tuple_calls[0] += 1
            counts["sampling.tuples"] += len(out)
            return out
        _rebind(tuple_samples, counted_tuple_samples)

    distributivity = getattr(_module("ivowa.owa"), "check_distributivity", None)
    if distributivity is None:
        missing.append("ivowa.owa.check_distributivity")
    else:
        def counted_distributivity(*args, **kwargs):
            before = tuple_calls[0]
            res = distributivity(*args, **kwargs)
            if tuple_calls[0] != before:
                counts["owa.distributivity_samples"] += res.samples
            return res
        _rebind(distributivity, counted_distributivity)

    op = _gowa_operator()
    if op is None:
        missing.append("ivowa.owa.GowaOperator")
    else:
        call = op.__call__

        def counted_call(self, values):
            counts["owa.operator_calls"] += 1
            return call(self, values)
        op.__call__ = counted_call

    parse = getattr(_module("ivowa.matrix"), "parse_matrix_text", None)
    if parse is None:
        missing.append("ivowa.matrix.parse_matrix_text")
    else:
        def counted_parse(*args, **kwargs):
            out = parse(*args, **kwargs)
            counts["matrix.cells"] += len(out.alternatives) * len(out.criteria)
            return out
        _rebind(parse, counted_parse)
    return counts, missing

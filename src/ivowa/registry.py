"""Catalogs of named operators and the structured id grammar used by the CLI.

Ids:
  real overlaps     product | min | minmax:p=2 | xyp:p=3 | mig:poly | lukasiewicz
  interval overlaps product | midpoint | rep(<real>,<real>) | mig(<generator>)
                    | canonical(K=[a,b]) | pow(<iv>,n=2) | root(<iv>,n=2)
  generators        identity | sqrt | square
  aggregators       max | tsum | geomean | dirac
  orders            lex1 | lex2 | xuyager
"""

from __future__ import annotations

from .intervals import AdmissibleOrder, ExponentInterval
from .iv_overlaps import (
    IDENTITY,
    SQRT,
    SQUARE,
    IVOverlap,
    Migrative,
    Representable,
    UnaryGenerator,
    interval_product,
    midpoint_example,
    migrative_canonical,
    migrative_from_generator,
    power_transform,
    representable,
)
from .overlaps import RealOverlap, builtin_overlaps
from .owa import AggregatorKind, IVAggregator, builtin_aggregators
from .sampling import memoized

__all__ = [
    "RegistryError",
    "generator_catalog",
    "standard_overlaps",
    "resolve_real_overlap",
    "resolve_generator",
    "resolve_iv_overlap",
    "resolve_aggregator",
    "resolve_order",
    "AGGREGATOR_IDS",
    "ORDER_IDS",
]

AGGREGATOR_IDS = tuple(kind.value for kind in AggregatorKind)
ORDER_IDS = tuple(order.value for order in AdmissibleOrder)

# The deepest parenthesis nesting an interval-overlap id may have.  Resolving
# recurses once per level and each pow/root overlap calls its base, so a far
# deeper id would exhaust the interpreter's stack.
MAX_ID_DEPTH = 32


class RegistryError(ValueError):
    """An operator id does not resolve."""


def generator_catalog() -> dict[str, UnaryGenerator]:
    return {g.name: g for g in (IDENTITY, SQRT, SQUARE)}


@memoized
def standard_overlaps() -> dict[str, IVOverlap]:
    """The shipped interval-overlap instances exercised by the law suite."""
    cat = builtin_overlaps()
    gens = generator_catalog()
    ops = [
        interval_product(),
        representable(cat["product"], cat["product"]),
        representable(cat["product"], cat["min"]),
        representable(cat["min"], cat["min"]),
        representable(cat["xyp:p=2"], cat["product"]),
        migrative_from_generator(gens["sqrt"]),
        migrative_from_generator(gens["square"]),
        migrative_canonical(ExponentInterval(1.0, 1.0)),
        migrative_canonical(ExponentInterval(1.0, 2.0)),
        migrative_canonical(ExponentInterval(2.0, 2.0)),
        midpoint_example(),
    ]
    return {o.name: o for o in ops}


def standard_migrative() -> list[IVOverlap]:
    return [o for o in standard_overlaps().values() if isinstance(o.provenance, Migrative)]


def standard_representable() -> list[IVOverlap]:
    return [o for o in standard_overlaps().values() if isinstance(o.provenance, Representable)]


def _split_top(text: str) -> list[str]:
    """Split on commas that are not nested inside parentheses or brackets."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return [p.strip() for p in parts]


def _lookup(catalog: dict, token: str, kind: str):
    if token.strip() not in catalog:
        raise RegistryError(f"unknown {kind} id {token!r}; known: {', '.join(catalog)}")
    return catalog[token.strip()]


def resolve_real_overlap(token: str) -> RealOverlap:
    return _lookup(builtin_overlaps(), token, "real overlap")


def resolve_generator(token: str) -> UnaryGenerator:
    return _lookup(generator_catalog(), token, "generator")


def _parse_exponent(text: str) -> ExponentInterval:
    body = text.strip()
    nums = body[3:-1].split(",")
    if not (body.startswith("K=[") and body.endswith("]")) or len(nums) != 2:
        raise RegistryError(f"malformed exponent spec {text!r}; expected K=[k1,k2]")
    try:
        return ExponentInterval(float(nums[0]), float(nums[1]))
    except ValueError as exc:
        raise RegistryError(f"malformed exponent spec {text!r}: {exc}") from None


def _parse_degree(text: str) -> int:
    body = text.strip()
    if not body.startswith("n="):
        raise RegistryError(f"malformed transform degree {text!r}; expected n=<integer>")
    try:
        return int(body[2:])
    except ValueError:
        raise RegistryError(f"malformed transform degree {text!r}") from None


def _nesting_depth(text: str) -> int:
    depth = deepest = 0
    for ch in text:
        if ch == "(":
            depth += 1
            deepest = max(deepest, depth)
        elif ch == ")":
            depth -= 1
    return deepest


def resolve_iv_overlap(token: str) -> IVOverlap:
    """Resolve an interval-overlap id, constructing composite forms on demand."""
    key = token.strip()
    depth = _nesting_depth(key)
    if depth > MAX_ID_DEPTH:
        raise RegistryError(
            f"interval overlap id nests {depth} levels deep; at most {MAX_ID_DEPTH} are allowed"
        )
    if key == "product":
        return interval_product()
    if key == "midpoint":
        return midpoint_example()
    # A composite id is head(inner): the head ends at the first "(", the call at the last ")".
    head, paren, inner = key[:-1].partition("(")
    if paren and key.endswith(")"):
        if head == "rep":
            parts = _split_top(inner)
            if len(parts) != 2:
                raise RegistryError(f"rep(...) takes two real overlap ids, got {token!r}")
            return representable(resolve_real_overlap(parts[0]), resolve_real_overlap(parts[1]))
        if head == "mig":
            return migrative_from_generator(resolve_generator(inner))
        if head == "canonical":
            return migrative_canonical(_parse_exponent(inner))
        if head in ("pow", "root"):
            parts = _split_top(inner)
            if len(parts) != 2:
                raise RegistryError(f"{head}(...) takes an overlap id and n=<k>, got {token!r}")
            direction = "power" if head == "pow" else "root"
            return power_transform(resolve_iv_overlap(parts[0]), _parse_degree(parts[1]), direction)
    raise RegistryError(f"unknown interval overlap id {token!r}")


def resolve_aggregator(token: str, n: int, order: AdmissibleOrder | None = None) -> IVAggregator:
    """The catalog aggregator of a given arity.  The catalog does not depend on
    the admissible order; `order` is accepted for callers that pass one."""
    key = token.strip()
    if key not in AGGREGATOR_IDS:
        raise RegistryError(f"unknown aggregator id {token!r}; known: {', '.join(AGGREGATOR_IDS)}")
    return builtin_aggregators(n)[key]


def resolve_order(token: str) -> AdmissibleOrder:
    key = token.strip().lower()
    for member in AdmissibleOrder:
        if member.value == key:
            return member
    raise RegistryError(f"unknown order id {token!r}; known: {', '.join(ORDER_IDS)}")

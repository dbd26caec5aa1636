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

from functools import lru_cache

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
from .owa import IVAggregator, builtin_aggregators

__all__ = [
    "RegistryError",
    "real_catalog",
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

AGGREGATOR_IDS = ("max", "tsum", "geomean", "dirac")
ORDER_IDS = ("lex1", "lex2", "xuyager")


class RegistryError(ValueError):
    """An operator id does not resolve."""


@lru_cache(maxsize=1)
def real_catalog() -> dict[str, RealOverlap]:
    return builtin_overlaps()


@lru_cache(maxsize=1)
def generator_catalog() -> dict[str, UnaryGenerator]:
    return {g.name: g for g in (IDENTITY, SQRT, SQUARE)}


@lru_cache(maxsize=1)
def standard_overlaps() -> dict[str, IVOverlap]:
    """The shipped interval-overlap instances exercised by the law suite."""
    cat = real_catalog()
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


def resolve_real_overlap(token: str) -> RealOverlap:
    cat = real_catalog()
    key = token.strip()
    if key not in cat:
        raise RegistryError(f"unknown real overlap id {token!r}; known: {', '.join(cat)}")
    return cat[key]


def resolve_generator(token: str) -> UnaryGenerator:
    gens = generator_catalog()
    key = token.strip()
    if key not in gens:
        raise RegistryError(f"unknown generator id {token!r}; known: {', '.join(gens)}")
    return gens[key]


def _parse_call(token: str, head: str) -> str | None:
    if token.startswith(head + "(") and token.endswith(")"):
        return token[len(head) + 1 : -1]
    return None


def _parse_exponent(text: str) -> ExponentInterval:
    body = text.strip()
    if not (body.startswith("K=[") and body.endswith("]")):
        raise RegistryError(f"malformed exponent spec {text!r}; expected K=[k1,k2]")
    nums = body[3:-1].split(",")
    if len(nums) != 2:
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


def resolve_iv_overlap(token: str) -> IVOverlap:
    """Resolve an interval-overlap id, constructing composite forms on demand."""
    key = token.strip()
    if key == "product":
        return interval_product()
    if key == "midpoint":
        return midpoint_example()
    inner = _parse_call(key, "rep")
    if inner is not None:
        parts = _split_top(inner)
        if len(parts) != 2:
            raise RegistryError(f"rep(...) takes two real overlap ids, got {token!r}")
        return representable(resolve_real_overlap(parts[0]), resolve_real_overlap(parts[1]))
    inner = _parse_call(key, "mig")
    if inner is not None:
        return migrative_from_generator(resolve_generator(inner))
    inner = _parse_call(key, "canonical")
    if inner is not None:
        return migrative_canonical(_parse_exponent(inner))
    for head, direction in (("pow", "power"), ("root", "root")):
        inner = _parse_call(key, head)
        if inner is not None:
            parts = _split_top(inner)
            if len(parts) != 2:
                raise RegistryError(f"{head}(...) takes an overlap id and n=<k>, got {token!r}")
            base = resolve_iv_overlap(parts[0])
            return power_transform(base, _parse_degree(parts[1]), direction)
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

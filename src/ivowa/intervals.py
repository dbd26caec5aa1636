"""Closed subintervals of the unit interval: arithmetic, partial orders and
admissible total orders.

Every type here is an immutable value and every operation is a pure function,
so the module is safe to use from any number of threads without locking.
Endpoints are binary64 throughout; order comparisons are exact (no epsilon),
floating-point slack belongs in tests, not in the semantics.
"""

from __future__ import annotations

import enum
import math
from dataclasses import FrozenInstanceError, dataclass

__all__ = [
    "Interval",
    "ExponentInterval",
    "IntervalError",
    "Ordering",
    "AdmissibleOrder",
    "DEFAULT_ORDER",
    "ZERO",
    "ONE",
    "product",
    "power",
    "complement",
    "midpoint",
    "contract_half",
    "leq_product",
    "subseteq",
    "join",
    "meet",
    "parse_interval",
    "format_interval",
]


class IntervalError(ValueError):
    """Endpoints violate an interval invariant, or a domain restriction."""


class Interval:
    """A closed subinterval [lower, upper] of [0, 1].

    Invariant: 0 <= lower <= upper <= 1.  An interval with lower == upper is
    *degenerate* and embeds an ordinary real number of the unit interval.

    A slotted immutable value: the law checks build tens of millions of
    intervals, and a hand-written class costs less per construction than a
    frozen dataclass while keeping its value semantics (equality and hash by
    endpoints, assignment raising ``FrozenInstanceError``).
    """

    __slots__ = ("lower", "upper")

    lower: float
    upper: float

    def __init__(self, lower: float, upper: float) -> None:
        _set_lower(self, lower)
        _set_upper(self, upper)
        # The check stays a separate hook, called once per construction:
        # bench/instrument.py counts constructed intervals by wrapping it.
        self.__post_init__()

    def __post_init__(self) -> None:
        lo = self.lower
        up = self.upper
        if type(lo) is not float:
            lo = float(lo)
            _set_lower(self, lo)
        if type(up) is not float:
            up = float(up)
            _set_upper(self, up)
        if not (0.0 <= lo <= up <= 1.0):
            raise IntervalError(f"invalid interval endpoints [{self.lower}, {self.upper}]")

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Interval):
            return self.lower == other.lower and self.upper == other.upper
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.lower, self.upper))

    def __repr__(self) -> str:
        return f"Interval(lower={self.lower!r}, upper={self.upper!r})"

    def __reduce__(self) -> tuple:
        return (Interval, (self.lower, self.upper))

    @property
    def degenerate(self) -> bool:
        return self.lower == self.upper

    def __str__(self) -> str:
        return format_interval(self)


_set_lower = Interval.lower.__set__
_set_upper = Interval.upper.__set__


@dataclass(frozen=True, slots=True)
class ExponentInterval:
    """An interval exponent [k1, k2] with 0 < k1 <= k2."""

    k1: float
    k2: float

    def __post_init__(self) -> None:
        a = float(self.k1)
        b = float(self.k2)
        if not (0.0 < a <= b) or math.isinf(b):
            raise IntervalError(f"invalid exponent interval [{self.k1}, {self.k2}]")
        object.__setattr__(self, "k1", a)
        object.__setattr__(self, "k2", b)

    @classmethod
    def of(cls, k: float) -> "ExponentInterval":
        return cls(k, k)

    def halved(self) -> "ExponentInterval":
        return ExponentInterval(self.k1 / 2.0, self.k2 / 2.0)

    def __str__(self) -> str:
        return f"[{self.k1!r},{self.k2!r}]"


ZERO = Interval(0.0, 0.0)
ONE = Interval(1.0, 1.0)


def product(x: Interval, y: Interval) -> Interval:
    """Componentwise interval product [x1*y1, x2*y2]."""
    return Interval(x.lower * y.lower, x.upper * y.upper)


def power(x: Interval, k: ExponentInterval) -> Interval:
    """Interval exponentiation [lower**k2, upper**k1].

    The larger exponent lands on the lower endpoint because t**k is
    decreasing in k for t in [0, 1]; 0**k is 0 for every k > 0.
    """
    return Interval(x.lower**k.k2, x.upper**k.k1)


def complement(x: Interval) -> Interval:
    """Standard complement [1 - upper, 1 - lower]; order-reversing involution."""
    return Interval(1.0 - x.upper, 1.0 - x.lower)


def midpoint(x: Interval) -> float:
    return (x.lower + x.upper) / 2.0


def contract_half(x: Interval) -> Interval:
    """Shrink an interval to half its width around its midpoint.

    Always a subset of the input; degenerate intervals are fixed points.
    """
    m = midpoint(x)
    return Interval((x.lower + m) / 2.0, (x.upper + m) / 2.0)


def leq_product(x: Interval, y: Interval) -> bool:
    """Product (componentwise) partial order."""
    return x.lower <= y.lower and x.upper <= y.upper


def subseteq(x: Interval, y: Interval) -> bool:
    """Inclusion partial order: x nested inside y."""
    return y.lower <= x.lower and x.upper <= y.upper


def join(x: Interval, y: Interval) -> Interval:
    """Supremum for the product order: componentwise max."""
    return Interval(max(x.lower, y.lower), max(x.upper, y.upper))


def meet(x: Interval, y: Interval) -> Interval:
    """Infimum for the product order: componentwise min."""
    return Interval(min(x.lower, y.lower), min(x.upper, y.upper))


class Ordering(enum.Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"


class AdmissibleOrder(enum.Enum):
    """Total orders on intervals refining the product order.

    LEX1 compares lower endpoints first, LEX2 upper endpoints first, and
    XU_YAGER compares the endpoint sum first and breaks ties by width.
    """

    LEX1 = "lex1"
    LEX2 = "lex2"
    XU_YAGER = "xuyager"

    def sort_key(self, x: Interval) -> tuple[float, ...]:
        if self is AdmissibleOrder.LEX1:
            return (x.lower, x.upper)
        if self is AdmissibleOrder.LEX2:
            return (x.upper, x.lower)
        # The trailing endpoints only break binary64 collisions of the sum
        # and width keys, keeping the key injective (hence the order total).
        return (x.lower + x.upper, x.upper - x.lower, x.lower, x.upper)

    def compare(self, x: Interval, y: Interval) -> Ordering:
        if x == y:
            return Ordering.EQUAL
        return Ordering.LESS if self.sort_key(x) < self.sort_key(y) else Ordering.GREATER

    def leq(self, x: Interval, y: Interval) -> bool:
        return self.compare(x, y) is not Ordering.GREATER

    def ranks_descending(self, values) -> list[int]:
        """Indices of the values sorted descending; stable on exact ties."""
        return sorted(range(len(values)), key=lambda i: self.sort_key(values[i]), reverse=True)


DEFAULT_ORDER = AdmissibleOrder.LEX1


def format_interval(x: Interval) -> str:
    """Canonical text form ``[a,b]``; floats printed with round-trip repr."""
    return f"[{x.lower!r},{x.upper!r}]"


def parse_interval(text: str) -> Interval:
    """Parse the ``[a,b]`` text form; a bare number is read as degenerate."""
    s = text.strip()
    if s.startswith("["):
        if not s.endswith("]"):
            raise IntervalError(f"malformed interval text {text!r}")
        parts = s[1:-1].split(",")
        if len(parts) != 2:
            raise IntervalError(f"malformed interval text {text!r}")
        try:
            lo, up = float(parts[0]), float(parts[1])
        except ValueError:
            raise IntervalError(f"malformed interval text {text!r}") from None
        return Interval(lo, up)
    try:
        v = float(s)
    except ValueError:
        raise IntervalError(f"malformed interval text {text!r}") from None
    return Interval(v, v)

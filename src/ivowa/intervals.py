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
import re
from contextlib import suppress
from itertools import compress
from operator import add, itemgetter, le, sub
from typing import Iterator, Sequence


class IntervalError(ValueError):
    """Endpoints violate an interval invariant, or a domain restriction."""

    cell = 0  # the refused cell's index among the texts of `parse_interval_columns`


class Slotted:
    """Base of the hand-written slotted classes: a subclass's fields are its
    ``__slots__``, set once by its ``__init__`` (`_init`).  Repr, copies and
    pickles go by those fields, equality and hash by identity, and assignment
    or deletion raises ``FrozenInstanceError``, as on a frozen dataclass."""

    __slots__ = ()

    def _init(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError  # only on this error path
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return (type(self), tuple(map(self.__getattribute__, self.__slots__)))


class SlottedValue(Slotted):
    """A `Slotted` class equal to one of its own class with equal fields, and hashed by them."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.__reduce__()[1] == other.__reduce__()[1]
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.__reduce__()[1])


class Interval(Slotted):
    """A closed subinterval [lower, upper] of [0, 1].

    Invariant: 0 <= lower <= upper <= 1.  An interval with lower == upper is
    *degenerate* and embeds an ordinary real number of the unit interval.

    A `Slotted` value with equality and hash by endpoints.  Built once per
    value, it sets its endpoints through their slot descriptors, not `_init`,
    which costs less per construction.
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
            raise endpoint_error(lo, up)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Interval):
            return self.lower == other.lower and self.upper == other.upper
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.lower, self.upper))

    @property
    def degenerate(self) -> bool:
        return self.lower == self.upper

    def __str__(self) -> str:
        return format_interval(self)


_set_lower = Interval.lower.__set__
_set_upper = Interval.upper.__set__


def endpoint_error(lower: float, upper: float) -> IntervalError:
    return IntervalError(f"invalid interval endpoints [{lower}, {upper}]")


def valid_columns(lowers: Sequence[float], uppers: Sequence[float]) -> bool:
    """Whether every pair of two endpoint columns keeps the `Interval` invariant
    ``0 <= lower <= upper <= 1`` (a NaN fails it), decided by C-level passes."""
    return (all(map(le, lowers, uppers))
            and min(lowers, default=0.0) >= 0.0 and max(uppers, default=1.0) <= 1.0)


class ExponentInterval(SlottedValue):
    """An interval exponent [k1, k2] with 0 < k1 <= k2."""

    __slots__ = ("k1", "k2")

    k1: float
    k2: float

    def __init__(self, k1: float, k2: float) -> None:
        a, b = float(k1), float(k2)
        if not (0.0 < a <= b) or math.isinf(b):
            raise IntervalError(f"invalid exponent interval [{k1}, {k2}]")
        self._init(a, b)

    @classmethod
    def of(cls, k: float) -> "ExponentInterval":
        return cls(k, k)

    def halved(self) -> "ExponentInterval":
        return ExponentInterval(self.k1 / 2.0, self.k2 / 2.0)

    def __str__(self) -> str:
        return f"[{self.k1!r},{self.k2!r}]"


ZERO = Interval(0.0, 0.0)
ONE = Interval(1.0, 1.0)


def power(x: Interval, k: ExponentInterval) -> Interval:
    """Interval exponentiation [lower**k2, upper**k1].

    The larger exponent lands on the lower endpoint because t**k is
    decreasing in k for t in [0, 1]; 0**k is 0 for every k > 0.
    """
    return Interval(x.lower**k.k2, x.upper**k.k1)


def complement(x: Interval) -> Interval:
    """Standard complement [1 - upper, 1 - lower]; order-reversing involution."""
    return Interval(1.0 - x.upper, 1.0 - x.lower)


def leq_product(x: Interval, y: Interval) -> bool:
    """Product (componentwise) partial order."""
    return x.lower <= y.lower and x.upper <= y.upper


def subseteq(x: Interval, y: Interval) -> bool:
    """Inclusion partial order: x nested inside y."""
    return y.lower <= x.lower and x.upper <= y.upper


class Ordering(enum.Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"


class AdmissibleOrder(enum.Enum):
    """Total orders on intervals.

    LEX1 compares lower endpoints first, LEX2 upper endpoints first, and
    XU_YAGER compares the endpoint sum first and breaks ties by width.  LEX1
    and LEX2 refine the product order.  XU_YAGER does on exact sums but not
    in binary64: x = [0.9999999999999999,1.0] is below y = [1,1] in the
    product order, yet both sums round to 2.0 and x's larger width ranks it
    above y, so `XU_YAGER.leq(x, y)` is False (ROADMAP X).
    """

    LEX1 = "lex1"
    LEX2 = "lex2"
    XU_YAGER = "xuyager"

    def sort_key(self, x: Interval) -> tuple[float, ...]:
        """The key of one interval: `key_column` of a one-row column."""
        return next(self.key_column((x.lower,), (x.upper,)))

    def key_column(self, lowers: Sequence[float], uppers: Sequence[float]) -> Iterator[tuple]:
        """The sort key of each interval of two endpoint columns, built by
        C-level maps; `key_ends` gets the endpoints back from a key."""
        if self is AdmissibleOrder.LEX1:
            return zip(lowers, uppers)
        if self is AdmissibleOrder.LEX2:
            return zip(uppers, lowers)
        # The trailing endpoints only break binary64 collisions of the sum
        # and width keys, keeping the key injective (hence the order total)
        # up to the sign of a zero endpoint.
        return zip(map(add, lowers, uppers), map(sub, uppers, lowers), lowers, uppers)

    @property
    def key_ends(self) -> tuple[itemgetter, itemgetter]:
        """Getters of the lower and the upper endpoint from a sort key."""
        return tuple(map(itemgetter, (1, 0) if self is AdmissibleOrder.LEX2 else (-2, -1)))

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
    """Parse the ``[a,b]`` text form; a bare number is read as degenerate.
    The one-cell case of `parse_interval_columns`."""
    (lower,), (upper,) = parse_interval_columns((text,))
    return Interval(lower, upper)


# Rows per block where many rows are worked on as columns (the CSV reader, the
# operator kernel, the sampled walks' cap, and the real distributivity walk's
# xs rows, each a row of |grid| cases): a block's objects stay in cache.
BLOCK_ROWS = 512

# The column's texts joined at NULs, each `[B,B]` or a bare `B`.
_CELLS = re.compile(r"(?:\[B,B\]|B)(?:\x00(?:\[B,B\]|B))*".replace("B", r"[^\[\],\x00]*"))
_TO_ENDS = str.maketrans("\x00", ",", "[]")
_SEPARATORS = bytes.maketrans(b"\x00,", b"\x01\x00"), bytes(set(range(256)) - {0, 44})


def parse_interval_columns(texts: Sequence[str]) -> tuple[list[float], list[float]]:
    """The endpoints of many cells in the text form of `parse_interval`, read as
    one string: texts stripped, joined at NULs (`float` refuses one), held to the
    shape, split once, read by `float` and picked by a byte mask of joiners and
    commas (in no multi-byte UTF-8 character).  The first bad cell raises its error."""
    if not texts:
        return [], []
    joined = "\x00".join(map(str.strip, texts))
    lowers = uppers = None
    if joined.count("\x00") == len(texts) - 1 and _CELLS.fullmatch(joined):
        with suppress(ValueError):
            ends = list(map(float, joined.translate(_TO_ENDS).split(",")))
            seps = joined.encode().translate(*_SEPARATORS)
            lowers = list(compress(ends, b"\x01" + seps))
            uppers = list(compress(ends, seps + b"\x01"))
    if uppers is not None and valid_columns(lowers, uppers):
        return lowers, uppers
    if len(texts) != 1:
        # A refusal is per cell, so the first refused half holds the first bad cell.
        half = len(texts) // 2
        parse_interval_columns(texts[:half])
        try:
            parse_interval_columns(texts[half:])
        except IntervalError as exc:
            exc.cell += half
            raise
    if uppers is None:
        raise IntervalError(f"malformed interval text {texts[0]!r}")
    raise endpoint_error(lowers[0], uppers[0])

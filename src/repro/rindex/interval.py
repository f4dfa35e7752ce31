"""Typed intervals and boxes for indexing condition predicates.

A variable-free condition element is a conjunction of per-attribute
restrictions, i.e. a hyper-rectangle over the class's attribute space —
which is why the paper proposes R-trees/R+-trees over COND relations
(§2.3, §4.2.3).  Attribute values are dynamically typed, so interval
endpoints are *sortable keys* ``(type rank, value)`` with rank
None < numbers < strings; ``KEY_MIN``/``KEY_MAX`` are the open ends.

R-tree heuristics (area enlargement) need numbers, not keys, so each key
also has an order-consistent float approximation: numbers map to
themselves, strings to a base-256 fraction of their first characters.
Approximations steer the tree shape only; containment checks are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import IndexError_
from repro.storage.schema import Value

#: Sortable key: (rank, payload).  Ranks: 0 None, 1 numbers, 2 strings.
Key = tuple

KEY_MIN: Key = (-1, 0)
KEY_MAX: Key = (3, 0)

_FLOAT_MIN = -1e18
_FLOAT_MAX = 1e18


def key_of(value: Value) -> Key:
    """The sortable key of one attribute value."""
    if value is None:
        return (0, 0)
    if isinstance(value, (int, float)):
        return (1, value)
    if isinstance(value, str):
        return (2, value)
    raise IndexError_(f"cannot index value {value!r}")


def approx(key: Key) -> float:
    """Order-consistent float approximation of a key (for heuristics)."""
    rank, payload = key
    if rank == -1:
        return _FLOAT_MIN
    if rank == 3:
        return _FLOAT_MAX
    if rank == 0:
        return _FLOAT_MIN / 2
    if rank == 1:
        return float(max(min(payload, _FLOAT_MAX / 4), _FLOAT_MIN / 4))
    # Strings: base-256 fraction of the first 8 characters, offset into a
    # band above all numbers.
    fraction = 0.0
    scale = 1.0
    for char in str(payload)[:8]:
        scale /= 256.0
        fraction += min(ord(char), 255) * scale
    return _FLOAT_MAX / 2 + fraction * (_FLOAT_MAX / 4)


@dataclass(frozen=True)
class Interval:
    """A closed interval of keys, ``[low, high]``; KEY_MIN/KEY_MAX ends."""

    low: Key = KEY_MIN
    high: Key = KEY_MAX

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise IndexError_(f"empty interval {self.low!r}..{self.high!r}")

    def contains_key(self, key: Key) -> bool:
        return self.low <= key <= self.high

    def intersects(self, other: "Interval") -> bool:
        return self.low <= other.high and other.low <= self.high

    def union(self, other: "Interval") -> "Interval":
        return Interval(min(self.low, other.low), max(self.high, other.high))

    def span(self) -> float:
        """Approximate length (heuristics only)."""
        return max(approx(self.high) - approx(self.low), 0.0)


FULL_INTERVAL = Interval()


def interval_for(op: str, value: Value) -> Interval:
    """The interval of values satisfying ``attribute op value``.

    ``<>`` cannot be represented as one interval; it maps to the full
    interval (the residual test still applies at match time — the index is
    allowed to over-approximate, never to under-approximate).
    """
    key = key_of(value)
    if op == "=":
        return Interval(key, key)
    if op == "<>":
        return FULL_INTERVAL
    if op in ("<", "<="):
        return Interval(KEY_MIN, key)
    if op in (">", ">="):
        return Interval(key, KEY_MAX)
    raise IndexError_(f"unknown operator {op!r}")


#: A hyper-rectangle: one interval per attribute.
Box = tuple[Interval, ...]


def full_box(dimensions: int) -> Box:
    """The box covering everything."""
    return tuple(FULL_INTERVAL for _ in range(dimensions))


def box_contains_point(box: Box, point: tuple[Key, ...]) -> bool:
    """Exact point-in-box test."""
    return all(
        interval.contains_key(key) for interval, key in zip(box, point)
    )


def boxes_intersect(left: Box, right: Box) -> bool:
    """Exact box-overlap test."""
    return all(a.intersects(b) for a, b in zip(left, right))


def box_union(left: Box, right: Box) -> Box:
    """Smallest box covering both."""
    return tuple(a.union(b) for a, b in zip(left, right))


def box_area(box: Box) -> float:
    """Approximate volume (heuristics only)."""
    area = 1.0
    for interval in box:
        area *= 1.0 + interval.span()
    return area


def enlargement(box: Box, addition: Box) -> float:
    """Area growth if *addition* were merged into *box*."""
    return box_area(box_union(box, addition)) - box_area(box)

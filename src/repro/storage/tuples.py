"""Stored tuples.

A :class:`StoredTuple` is an immutable row plus the bookkeeping the paper's
algorithms need: a stable tuple id (for deletes and for locking at tuple
granularity, §5.2) and an OPS5-style *timetag* (monotone insertion counter,
used by the LEX/MEA conflict-resolution strategies).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.storage.schema import RelationSchema, Value


@dataclass(frozen=True, slots=True)
class StoredTuple:
    """One immutable row of a relation.

    Attributes:
        relation: Name of the owning relation (WM class).
        tid: Tuple id, unique within the relation, never reused.
        timetag: Global insertion counter (OPS5 recency).
        values: The attribute values, in schema order.
    """

    relation: str
    tid: int
    timetag: int
    values: tuple[Value, ...]

    def as_mapping(self, schema: RelationSchema) -> dict[str, Value]:
        """Return ``{attribute: value}`` for display and debugging."""
        return dict(zip(schema.attributes, self.values))

    def __str__(self) -> str:
        inner = ", ".join(repr(v) for v in self.values)
        return f"{self.relation}#{self.tid}({inner})"

"""Table interface and the in-memory backend.

A :class:`Table` is the storage abstraction every higher layer builds on:
WM relations, the LEFT/RIGHT memories of the DBMS Rete (§3.2), and the COND
relations of §4.1/§4.2 are all Tables.  The in-memory backend keeps rows in
a dict keyed by tuple id and maintains optional hash indexes per attribute;
:mod:`repro.storage.sqlite_backend` provides the same interface on SQLite.

Tables also carry per-tuple *marker* sets, the mechanism behind the Basic
Locking rule-indexing scheme the paper contrasts with (§2.3, [STON86a]):
markers name the conditions whose read set includes the tuple.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.errors import StorageError
from repro.instrument import Counters
from repro.obs import Observability
from repro.storage.predicate import Predicate, compile_predicate
from repro.storage.schema import RelationSchema, Value
from repro.storage.tuples import StoredTuple


class TimetagClock:
    """Monotone counter handing out OPS5 timetags across relations."""

    def __init__(self) -> None:
        self._next = 0

    def tick(self) -> int:
        """Return the next timetag."""
        self._next += 1
        return self._next

    def advance_to(self, value: int) -> None:
        """Ensure future timetags exceed *value* (persistent reopen)."""
        self._next = max(self._next, value)

    @property
    def current(self) -> int:
        """The most recently issued timetag (0 before any tick)."""
        return self._next


class Table:
    """Abstract table; subclasses implement the storage primitives."""

    def __init__(
        self,
        schema: RelationSchema,
        clock: TimetagClock | None = None,
        counters: Counters | None = None,
        obs: Observability | None = None,
    ) -> None:
        self.schema = schema
        self.clock = clock or TimetagClock()
        self.counters = counters or Counters()
        #: Optional :class:`repro.obs.Observability`; backends that issue
        #: per-statement calls (SQLite) trace through it when enabled.
        self.obs = obs

    # -- primitives every backend implements -------------------------------

    def insert_at(self, values: tuple[Value, ...], timetag: int) -> StoredTuple:
        """Store a new row under an explicit *timetag*; return it.

        Batch paths pre-assign timetags in operation order (recency must
        follow the caller's logical order even when rows are regrouped per
        relation for the backend), so the timetag is a parameter of the
        storage primitive rather than drawn inside it.
        """
        raise NotImplementedError

    def insert(self, values: tuple[Value, ...]) -> StoredTuple:
        """Store a new row; return it with fresh tid and timetag."""
        return self.insert_at(values, self.clock.tick())

    def reserve_tid(self) -> int:
        """Claim the next tuple id without storing a row.

        The staged-write path of :class:`repro.engine.wm.WorkingMemory`
        (and crash recovery) must hand out real tuple identities *before*
        the storage write happens, and those identities must be the same
        ones an immediate write would have produced.  A reserved tid is
        consumed whether or not a row is ever stored under it — tids are
        never reused.
        """
        raise NotImplementedError

    def insert_prepared(self, rows: list[StoredTuple]) -> None:
        """Store rows that already carry their tid and timetag.

        The batch counterpart of :meth:`reserve_tid`: callers that staged
        rows (WM batch scopes) or replay a log (crash recovery) persist
        them here.  Rows must belong to this relation; tids must be unused.
        """
        raise NotImplementedError

    def tid_high_water(self) -> int:
        """The highest tuple id ever issued (0 for a virgin table).

        Reserved-but-never-stored tids count: the mark tracks identity
        allocation, not storage contents, so crash recovery can restore it
        exactly even when a staged batch netted rows away.
        """
        raise NotImplementedError

    def advance_tid(self, tid: int) -> None:
        """Ensure future allocations start above *tid* (recovery restore).

        A no-op when the table has already issued *tid* or higher.
        """
        raise NotImplementedError

    def delete(self, tid: int) -> StoredTuple:
        """Remove and return the row with id *tid*."""
        raise NotImplementedError

    def get(self, tid: int) -> StoredTuple:
        """Return the row with id *tid*."""
        raise NotImplementedError

    def scan(self) -> Iterator[StoredTuple]:
        """Yield every stored row (order unspecified but deterministic)."""
        raise NotImplementedError

    def live_tids(self, tids) -> set[int]:
        """The subset of *tids* naming stored rows.

        A liveness probe, not a data access: no tuple read is counted.
        """
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def create_index(self, attribute: str) -> None:
        """Build (or re-build) an equality index on *attribute*."""
        raise NotImplementedError

    def indexed_attributes(self) -> set[str]:
        """Attributes with an equality index available."""
        raise NotImplementedError

    def lookup(self, attribute: str, value: Value) -> Iterator[StoredTuple]:
        """Yield rows whose *attribute* equals *value*.

        Uses the index when one exists, otherwise scans.
        """
        raise NotImplementedError

    # -- markers (Basic Locking, §2.3) --------------------------------------

    def add_marker(self, tid: int, marker: str) -> None:
        """Attach *marker* (a condition id) to tuple *tid*."""
        raise NotImplementedError

    def remove_marker(self, tid: int, marker: str) -> None:
        """Detach *marker* from tuple *tid* (no-op when absent)."""
        raise NotImplementedError

    def markers(self, tid: int) -> frozenset[str]:
        """Return the marker set of tuple *tid*."""
        raise NotImplementedError

    def marker_count(self) -> int:
        """Total marker entries across all tuples (space accounting)."""
        raise NotImplementedError

    # -- batch operations (set-at-a-time delta pipeline) ---------------------

    def insert_many(
        self,
        rows: list[tuple[Value, ...]],
        timetags: list[int] | None = None,
    ) -> list[StoredTuple]:
        """Store several rows; return them in input order.

        *timetags*, when given, must parallel *rows*; otherwise fresh ones
        are drawn per row.  Rows are validated up front so a malformed row
        anywhere in the batch stores nothing.  Backends override this to
        amortize per-call costs (the SQLite backend issues a single
        ``executemany``).
        """
        rows = [tuple(row) for row in rows]
        for row in rows:
            self.schema.validate_row(row)
        if timetags is None:
            timetags = [self.clock.tick() for _ in rows]
        return [
            self.insert_at(row, timetag)
            for row, timetag in zip(rows, timetags)
        ]

    def delete_many(self, tids: list[int]) -> list[StoredTuple]:
        """Remove several rows by id; return them in input order."""
        return [self.delete(tid) for tid in tids]

    # -- derived operations shared by all backends --------------------------

    def insert_mapping(self, mapping: dict[str, Value]) -> StoredTuple:
        """Insert a row given ``{attribute: value}``."""
        return self.insert(self.schema.row_from_mapping(mapping))

    def select(self, predicate: Predicate) -> Iterator[StoredTuple]:
        """Yield rows satisfying *predicate* (naive scan fallback)."""
        self.counters.scans += 1
        check = compile_predicate(predicate, self.schema)
        for row in self.scan():
            self.counters.comparisons += 1
            if check(row.values):
                yield row

    def select_eq(self, pairs: dict[str, Value]) -> Iterator[StoredTuple]:
        """Yield rows matching every ``attribute = value`` in *pairs*.

        Prefers the most selective available index, then filters the rest.
        """
        if not pairs:
            yield from self.scan()
            return
        indexed = [a for a in pairs if a in self.indexed_attributes()]
        if indexed:
            probe = indexed[0]
            rest = {a: v for a, v in pairs.items() if a != probe}
            candidates: Iterable[StoredTuple] = self.lookup(probe, pairs[probe])
        else:
            rest = dict(pairs)
            self.counters.scans += 1
            candidates = self.scan()
        positions = {a: self.schema.position(a) for a in rest}
        for row in candidates:
            self.counters.comparisons += len(rest)
            if all(row.values[positions[a]] == v for a, v in rest.items()):
                yield row

    def clear(self) -> None:
        """Delete every row."""
        for row in list(self.scan()):
            self.delete(row.tid)


class MemoryTable(Table):
    """Dict-backed table with per-attribute hash indexes."""

    def __init__(
        self,
        schema: RelationSchema,
        clock: TimetagClock | None = None,
        counters: Counters | None = None,
    ) -> None:
        super().__init__(schema, clock, counters)
        self._rows: dict[int, StoredTuple] = {}
        self._next_tid = 0
        self._indexes: dict[str, dict[Value, set[int]]] = {}
        self._markers: dict[int, set[str]] = {}
        self._marker_total = 0

    def insert_at(self, values: tuple[Value, ...], timetag: int) -> StoredTuple:
        self.schema.validate_row(values)
        self._next_tid += 1
        row = StoredTuple(
            relation=self.schema.name,
            tid=self._next_tid,
            timetag=timetag,
            values=tuple(values),
        )
        self._store_row(row)
        return row

    def _store_row(self, row: StoredTuple) -> None:
        self._rows[row.tid] = row
        for attribute, index in self._indexes.items():
            pos = self.schema.position(attribute)
            index.setdefault(row.values[pos], set()).add(row.tid)
        self.counters.tuple_writes += 1

    def reserve_tid(self) -> int:
        self._next_tid += 1
        return self._next_tid

    def tid_high_water(self) -> int:
        return self._next_tid

    def advance_tid(self, tid: int) -> None:
        self._next_tid = max(self._next_tid, tid)

    def insert_prepared(self, rows: list[StoredTuple]) -> None:
        for row in rows:
            if row.relation != self.schema.name:
                raise StorageError(
                    f"row for {row.relation!r} offered to "
                    f"{self.schema.name!r}"
                )
            self.schema.validate_row(row.values)
            if row.tid in self._rows:
                raise StorageError(
                    f"relation {self.schema.name!r} already has tuple "
                    f"#{row.tid}"
                )
        for row in rows:
            self._store_row(row)
            # Recovery replays rows with externally assigned tids; keep
            # fresh allocations above them.
            self._next_tid = max(self._next_tid, row.tid)

    def delete(self, tid: int) -> StoredTuple:
        try:
            row = self._rows.pop(tid)
        except KeyError:
            raise StorageError(
                f"relation {self.schema.name!r} has no tuple #{tid}"
            ) from None
        for attribute, index in self._indexes.items():
            pos = self.schema.position(attribute)
            bucket = index.get(row.values[pos])
            if bucket is not None:
                bucket.discard(tid)
                if not bucket:
                    del index[row.values[pos]]
        dropped = self._markers.pop(tid, None)
        if dropped:
            self._marker_total -= len(dropped)
        self.counters.tuple_writes += 1
        return row

    def get(self, tid: int) -> StoredTuple:
        try:
            row = self._rows[tid]
        except KeyError:
            raise StorageError(
                f"relation {self.schema.name!r} has no tuple #{tid}"
            ) from None
        self.counters.tuple_reads += 1
        return row

    def scan(self) -> Iterator[StoredTuple]:
        for row in list(self._rows.values()):
            self.counters.tuple_reads += 1
            yield row

    def live_tids(self, tids) -> set[int]:
        rows = self._rows
        return {tid for tid in tids if tid in rows}

    def __len__(self) -> int:
        return len(self._rows)

    def create_index(self, attribute: str) -> None:
        pos = self.schema.position(attribute)
        index: dict[Value, set[int]] = {}
        for row in self._rows.values():
            index.setdefault(row.values[pos], set()).add(row.tid)
        self._indexes[attribute] = index

    def indexed_attributes(self) -> set[str]:
        return set(self._indexes)

    def lookup(self, attribute: str, value: Value) -> Iterator[StoredTuple]:
        index = self._indexes.get(attribute)
        if index is None:
            pos = self.schema.position(attribute)
            self.counters.scans += 1
            for row in list(self._rows.values()):
                self.counters.tuple_reads += 1
                self.counters.comparisons += 1
                if row.values[pos] == value:
                    yield row
            return
        self.counters.index_lookups += 1
        for tid in sorted(index.get(value, ())):
            row = self._rows.get(tid)
            if row is not None:
                self.counters.tuple_reads += 1
                yield row

    def add_marker(self, tid: int, marker: str) -> None:
        if tid not in self._rows:
            raise StorageError(
                f"relation {self.schema.name!r} has no tuple #{tid}"
            )
        bucket = self._markers.setdefault(tid, set())
        if marker not in bucket:
            bucket.add(marker)
            self._marker_total += 1

    def remove_marker(self, tid: int, marker: str) -> None:
        bucket = self._markers.get(tid)
        if bucket and marker in bucket:
            bucket.discard(marker)
            self._marker_total -= 1

    def markers(self, tid: int) -> frozenset[str]:
        return frozenset(self._markers.get(tid, ()))

    def marker_count(self) -> int:
        return self._marker_total

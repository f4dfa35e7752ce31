"""Working memory: the WM relations of the paper, with change notification.

Working memory is a set of relations (one per literalized class) stored in a
:class:`~repro.storage.catalog.Catalog`, so it can live in memory or in
SQLite.  Every insert/delete is announced to registered listeners — the
match strategies — which is exactly Figure 2 of the paper: "Changes to
Working Memory → propagate → Rete Network".

A *modify* is a delete followed by an insert (§3.1), so the new element gets
a fresh timetag, as in OPS5.

Two change-propagation granularities exist (§4.2.3's set-orientation):

* tuple-at-a-time — :meth:`WorkingMemory.insert` / :meth:`remove` notify
  listeners immediately, as the seed implementation always did;
* set-at-a-time — :meth:`apply_batch` applies a whole operation list to
  storage first (grouped per relation, one backend transaction) and then
  notifies each listener *once* with a :class:`~repro.delta.DeltaBatch`;
  :meth:`begin_batch`/:meth:`flush_batch`/:meth:`end_batch` buffer both
  the notifications *and the storage writes* of ordinary mutations the
  same way (used by the act phase and the transaction layer).

Batch scopes *stage* their writes: an insert reserves a real tuple id and
timetag immediately (so the returned element is identical to what an
eager write would produce) but the row only reaches the backend at flush,
grouped per relation through ``delete_many``/``insert_prepared`` inside
one backend transaction.  Inside a scope, point reads through
:meth:`WorkingMemory.get` consult the staged overlay, so RHS actions and
the engine's liveness check observe their own writes; raw table scans see
the pre-batch storage state until the flush.  Insert/delete pairs netted
away by :meth:`~repro.delta.DeltaBatch.net` never reach storage at all
(their tid and timetag stay consumed, exactly as under eager writes).

Listeners that implement ``on_delta(batch)`` receive the batch whole;
anything else gets the classic per-tuple callbacks in batch order.

When a write-ahead log is attached (``wm.wal``, see
:mod:`repro.recovery.wal`), every delivered batch — and every
tuple-at-a-time mutation — is appended to the log *after* the listeners
(the maintenance process) have consumed it, matching §5's
commit-after-maintenance discipline.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from contextlib import contextmanager
from typing import Protocol

from repro.delta import DELETE, INSERT, Delta, DeltaBatch
from repro.errors import MatchError, StorageError
from repro.instrument import Counters
from repro.obs import Observability
from repro.storage.catalog import Catalog
from repro.storage.schema import RelationSchema, Value
from repro.storage.table import Table
from repro.storage.tuples import StoredTuple


class WMListener(Protocol):
    """Anything notified of WM changes (match strategies, the trace emitter).

    Implementing ``on_delta(batch: DeltaBatch)`` is optional; listeners
    that do are handed change batches whole on the set-at-a-time path.
    """

    def on_insert(self, wme: StoredTuple) -> None:
        """Called after *wme* is stored."""

    def on_delete(self, wme: StoredTuple) -> None:
        """Called after *wme* is removed."""


class WorkingMemory:
    """The WM relations plus listener fan-out."""

    def __init__(
        self,
        schemas: dict[str, RelationSchema],
        backend: str = "memory",
        counters: Counters | None = None,
        path: str | None = None,
        obs: Observability | None = None,
    ) -> None:
        self.counters = counters or Counters()
        self.obs = obs or Observability()
        self.catalog = Catalog(
            backend=backend, counters=self.counters, path=path, obs=self.obs
        )
        self.schemas = dict(schemas)
        for schema in schemas.values():
            self.catalog.create(schema)
        self._listeners: list[WMListener] = []
        self._pending: list[Delta] | None = None
        #: Staged-row overlay, non-None exactly while a batch scope is
        #: open: ``(relation, tid) -> StoredTuple`` for rows inserted but
        #: not yet flushed, ``-> None`` for rows deleted in this scope.
        self._staged: dict[tuple[str, int], StoredTuple | None] | None = None
        #: Optional write-ahead log (:class:`repro.recovery.wal.WalWriter`
        #: or anything with ``log_batch(DeltaBatch)``); when attached,
        #: every delivered batch is appended after listener fan-out.
        self.wal = None

    # -- listeners ------------------------------------------------------------

    def add_listener(self, listener: WMListener) -> None:
        """Register *listener* for subsequent WM changes."""
        self._listeners.append(listener)

    def remove_listener(self, listener: WMListener) -> None:
        """Unregister *listener*."""
        self._listeners.remove(listener)

    # -- access ----------------------------------------------------------------

    def relation(self, class_name: str) -> Table:
        """Return the WM relation for *class_name*."""
        if class_name not in self.schemas:
            raise MatchError(f"unknown WM class {class_name!r}")
        return self.catalog.get(class_name)

    def schema(self, class_name: str) -> RelationSchema:
        """Return the schema of *class_name*."""
        try:
            return self.schemas[class_name]
        except KeyError:
            raise MatchError(f"unknown WM class {class_name!r}") from None

    def tuples(self, class_name: str) -> Iterator[StoredTuple]:
        """Iterate over the current elements of *class_name*."""
        return self.relation(class_name).scan()

    def get(self, class_name: str, tid: int) -> StoredTuple:
        """Fetch one element by tuple id.

        Inside a batch scope the staged overlay answers first, so callers
        observe the scope's own not-yet-flushed writes (and deletes).
        """
        staged = self._staged
        if staged is not None:
            key = (class_name, tid)
            if key in staged:
                entry = staged[key]
                if entry is None:
                    raise StorageError(
                        f"relation {class_name!r} has no tuple #{tid}"
                    )
                return entry
        return self.relation(class_name).get(tid)

    def size(self) -> int:
        """Total number of WM elements across all classes."""
        return sum(len(self.relation(name)) for name in self.schemas)

    def tid_marks(self) -> dict[str, int]:
        """Per-relation tuple-id high-water marks (identity allocation).

        Recorded at WAL boundaries: reserved tids whose rows were netted
        away never reach storage, so the marks — not ``MAX(tid)`` — are
        what recovery must restore for a resumed run to allocate the same
        identities the uninterrupted run would have.
        """
        return {
            name: self.relation(name).tid_high_water()
            for name in self.schemas
        }

    def restore_tid_marks(self, marks: dict[str, int]) -> None:
        """Push every relation's allocation mark to at least *marks*."""
        for name, tid in marks.items():
            if name in self.schemas:
                self.relation(name).advance_tid(tid)

    # -- mutation ----------------------------------------------------------------

    def insert(
        self, class_name: str, values: tuple[Value, ...] | dict[str, Value]
    ) -> StoredTuple:
        """Insert a WM element and notify listeners; returns the element.

        Inside a batch scope the notification is buffered and the storage
        write staged: the element gets its real tid and timetag now (so it
        is bit-identical to an eager write) but reaches the backend only
        at the next flush, batched per relation.
        """
        table = self.relation(class_name)
        if isinstance(values, dict):
            values = table.schema.row_from_mapping(values)
        if self._staged is not None:
            values = tuple(values)
            table.schema.validate_row(values)
            wme = StoredTuple(
                relation=class_name,
                tid=table.reserve_tid(),
                timetag=self.catalog.clock.tick(),
                values=values,
            )
            self._staged[(class_name, wme.tid)] = wme
            self._pending.append(Delta(INSERT, wme))
            return wme
        wme = table.insert(tuple(values))
        self._notify(Delta(INSERT, wme))
        return wme

    def remove(self, wme: StoredTuple) -> StoredTuple:
        """Delete a WM element and notify listeners; returns the element."""
        table = self.relation(wme.relation)
        staged = self._staged
        if staged is not None:
            key = (wme.relation, wme.tid)
            if key in staged:
                removed = staged[key]
                if removed is None:
                    raise StorageError(
                        f"relation {wme.relation!r} has no tuple #{wme.tid}"
                    )
            else:
                removed = table.get(wme.tid)
            staged[key] = None
            self._pending.append(Delta(DELETE, removed))
            return removed
        removed = table.delete(wme.tid)
        self._notify(Delta(DELETE, removed))
        return removed

    def _notify(self, delta: Delta) -> None:
        """Tuple-at-a-time fan-out (no batch scope open), then the WAL."""
        for listener in list(self._listeners):
            if delta.op == INSERT:
                listener.on_insert(delta.wme)
            else:
                listener.on_delete(delta.wme)
        if self.wal is not None:
            self.wal.log_batch(DeltaBatch([delta]))

    def modify(
        self, wme: StoredTuple, changes: dict[str, Value]
    ) -> StoredTuple:
        """Update fields of *wme*: delete + insert with a fresh timetag."""
        schema = self.schema(wme.relation)
        new_values = list(wme.values)
        for attribute, value in changes.items():
            new_values[schema.position(attribute)] = value
        self.remove(wme)
        return self.insert(wme.relation, tuple(new_values))

    # -- set-at-a-time mutation (the delta pipeline) ----------------------------

    @property
    def batching(self) -> bool:
        """True while a batch scope is buffering notifications."""
        return self._pending is not None

    def pending_deltas(self) -> int:
        """Number of buffered, not-yet-delivered deltas."""
        return len(self._pending) if self._pending is not None else 0

    def begin_batch(self) -> None:
        """Start buffering change notifications (and storage writes)."""
        if self._pending is not None:
            raise MatchError("a WM batch is already open")
        self._pending = []
        self._staged = {}

    def flush_batch(self) -> DeltaBatch:
        """Flush staged writes and deliver buffered deltas as one batch;
        stay in batch mode."""
        if self._pending is None:
            raise MatchError("no WM batch is open")
        batch = DeltaBatch(self._pending).net()
        self._pending = []
        self._staged = {}
        if batch:
            observing = self.obs.enabled
            started = time.perf_counter() if observing else 0.0
            logged = self._apply_storage(batch, log_wal=True)
            self._deliver(batch)
            if self.wal is not None and not logged:
                self.wal.log_batch(batch)
            if observing:
                self.obs.metrics.log2_histogram("wm.flush_us").observe(
                    (time.perf_counter() - started) * 1e6
                )
        return batch

    def end_batch(self) -> DeltaBatch:
        """Deliver buffered deltas and leave batch mode."""
        batch = self.flush_batch()
        self._pending = None
        self._staged = None
        return batch

    def _apply_storage(self, batch: DeltaBatch, log_wal: bool = False)  \
            -> bool:
        """Persist one netted staged batch: deletes then inserts, grouped
        per relation, in a single backend transaction.

        Rows already carry their reserved tid and timetag, so inserts go
        through ``insert_prepared``; netted insert/delete pairs are gone
        from *batch* and never touch the backend.

        With *log_wal* and a WAL attached, the batch's log record is
        appended *and fsynced* inside the transaction's pre-commit hook —
        write-ahead in the strict sense: the backend COMMIT waits on the
        WAL fsync, so a crash between the two leaves the database behind
        the log (recovery's replay direction), never ahead of it.
        Returns True when the hook logged the batch (the caller must not
        log it again); False on the memory backend and in nested scopes,
        where there is no commit to order against.
        """
        logged = False
        pre_commit = None
        if log_wal and self.wal is not None:
            def pre_commit() -> bool:
                nonlocal logged
                logged = True
                self.wal.log_batch(batch)
                self.wal.sync()
                return not self.wal.dead
        deletes = batch.deletes
        inserts = batch.inserts
        with self.catalog.transaction(pre_commit=pre_commit):
            if deletes:
                groups: dict[str, list[int]] = {}
                for delta in deletes:
                    groups.setdefault(delta.relation, []).append(delta.tid)
                for relation, tids in groups.items():
                    self.relation(relation).delete_many(tids)
            if inserts:
                rows: dict[str, list[StoredTuple]] = {}
                for delta in inserts:
                    rows.setdefault(delta.relation, []).append(delta.wme)
                for relation, staged_rows in rows.items():
                    self.relation(relation).insert_prepared(staged_rows)
        return logged

    @contextmanager
    def batch(self):
        """Scope mutations as one delta batch (re-entrant: nested scopes
        join the outer batch rather than flushing early)."""
        if self._pending is not None:
            yield self
            return
        self.begin_batch()
        try:
            yield self
        finally:
            self.end_batch()

    def apply_batch(
        self, ops: list[tuple]
    ) -> DeltaBatch:
        """Apply an operation list set-at-a-time; notify listeners once.

        Each op is ``("insert", class_name, values)``,
        ``("delete", wme)`` or ``("modify", wme, changes)`` (the latter
        expands to delete + insert, §3.1).  Storage writes are grouped per
        relation (``delete_many``/``insert_many``) inside a single backend
        transaction; timetags are pre-assigned in op order so recency
        agrees with sequential application.  Deletes must reference
        elements stored before this batch.  The returned batch lists the
        realized deltas in op order.
        """
        if self._pending is not None:
            raise MatchError("apply_batch cannot run inside an open WM batch")
        expanded: list[tuple] = []
        for op in ops:
            kind = op[0]
            if kind == "insert":
                _, class_name, values = op
                schema = self.schema(class_name)
                if isinstance(values, dict):
                    values = schema.row_from_mapping(values)
                expanded.append((INSERT, class_name, tuple(values)))
            elif kind == "delete":
                expanded.append((DELETE, op[1]))
            elif kind == "modify":
                _, wme, changes = op
                schema = self.schema(wme.relation)
                new_values = list(wme.values)
                for attribute, value in changes.items():
                    new_values[schema.position(attribute)] = value
                expanded.append((DELETE, wme))
                expanded.append((INSERT, wme.relation, tuple(new_values)))
            else:
                raise MatchError(f"unknown batch op kind {kind!r}")

        clock = self.catalog.clock
        deltas: list[Delta | None] = [None] * len(expanded)
        delete_groups: dict[str, tuple[list[int], list[int]]] = {}
        insert_groups: dict[
            str, tuple[list[int], list[tuple], list[int]]
        ] = {}
        for position, op in enumerate(expanded):
            if op[0] == DELETE:
                wme = op[1]
                positions, tids = delete_groups.setdefault(
                    wme.relation, ([], [])
                )
                positions.append(position)
                tids.append(wme.tid)
            else:
                _, class_name, values = op
                positions, rows, timetags = insert_groups.setdefault(
                    class_name, ([], [], [])
                )
                positions.append(position)
                rows.append(values)
                timetags.append(clock.tick())

        batch = DeltaBatch()
        logged = False
        pre_commit = None
        if self.wal is not None:
            def pre_commit() -> bool:
                # Write-ahead: the realized batch is logged and fsynced
                # before the backend COMMIT (see ``_apply_storage``).
                nonlocal logged
                logged = True
                if batch:
                    self.wal.log_batch(batch)
                    self.wal.sync()
                return not self.wal.dead
        with self.catalog.transaction(pre_commit=pre_commit):
            for class_name, (positions, tids) in delete_groups.items():
                removed = self.relation(class_name).delete_many(tids)
                for position, row in zip(positions, removed):
                    deltas[position] = Delta(DELETE, row)
            for class_name, (positions, rows, timetags) in (
                insert_groups.items()
            ):
                stored = self.relation(class_name).insert_many(rows, timetags)
                for position, row in zip(positions, stored):
                    deltas[position] = Delta(INSERT, row)
            batch = DeltaBatch(d for d in deltas if d is not None)

        if batch:
            self._deliver(batch)
            if self.wal is not None and not logged:
                self.wal.log_batch(batch)
        return batch

    def restore_batch(self, batch: DeltaBatch) -> None:
        """Re-apply one committed batch during crash recovery.

        Rows keep the exact tid and timetag recorded in the log
        (``insert_prepared``), the shared clock is advanced past every
        replayed timetag, and listeners are notified once — replaying the
        maintenance process.  Never logged to the WAL (the records came
        *from* it).
        """
        if self._pending is not None:
            raise MatchError("restore_batch cannot run inside an open WM batch")
        self._apply_storage(batch)
        for delta in batch:
            self.catalog.clock.advance_to(delta.wme.timetag)
        if batch:
            self._deliver(batch)

    def _deliver(self, batch: DeltaBatch) -> None:
        """Fan one batch out to every listener, preferring ``on_delta``."""
        for listener in list(self._listeners):
            on_delta = getattr(listener, "on_delta", None)
            if on_delta is not None:
                on_delta(batch)
                continue
            for delta in batch:
                if delta.op == INSERT:
                    listener.on_insert(delta.wme)
                else:
                    listener.on_delete(delta.wme)

"""SQLite-backed tables.

§3.2 of the paper argues that a "straightforward implementation" of the Rete
network in a DBMS offers "simplicity and re-usability of existing
technology".  This backend demonstrates exactly that path: the same
:class:`~repro.storage.table.Table` interface realized on the stdlib
``sqlite3`` module, so any match strategy can persist its WM relations and
memories in a real relational engine.

Values are stored natively (SQLite is dynamically typed like OPS5 working
memory); ``None`` maps to SQL NULL.  Because SQL's NULL never compares equal
while OPS5's ``nil`` does, equality probes against ``None`` use ``IS NULL``.
"""

from __future__ import annotations

import sqlite3
import time
from collections.abc import Iterator

from repro.errors import StorageError
from repro.instrument import Counters
from repro.obs import Observability
from repro.storage.schema import RelationSchema, Value
from repro.storage.table import Table, TimetagClock
from repro.storage.tuples import StoredTuple

_SQL_IDENT_OK = set("abcdefghijklmnopqrstuvwxyz0123456789_")


def _quote_ident(name: str) -> str:
    """Return *name* as a safe, quoted SQL identifier."""
    if '"' in name:
        raise StorageError(f"identifier {name!r} contains a double quote")
    return f'"{name}"'


class SqliteTable(Table):
    """A table stored in a SQLite database (one SQL table + marker table)."""

    def __init__(
        self,
        schema: RelationSchema,
        clock: TimetagClock | None = None,
        counters: Counters | None = None,
        connection: sqlite3.Connection | None = None,
        obs: Observability | None = None,
    ) -> None:
        super().__init__(schema, clock, counters, obs=obs)
        self._conn = connection or sqlite3.connect(
            ":memory:", isolation_level=None
        )
        self._owns_connection = connection is None
        self._table = _quote_ident(f"t_{schema.name}")
        self._table_name = f"t_{schema.name}"
        self._marker_table = _quote_ident(f"m_{schema.name}")
        #: Cache of the highest tid ever issued (AUTOINCREMENT sequence);
        #: populated lazily by :meth:`reserve_tid` and kept coherent by
        #: every insert path so reserved and auto-assigned tids interleave
        #: exactly like the memory backend's counter.
        self._next_tid: int | None = None
        self._columns = [_quote_ident(f"a_{a}") for a in schema.attributes]
        self._indexed: set[str] = set()
        columns_sql = ", ".join(f"{c} BLOB" for c in self._columns)
        self._conn.execute(
            f"CREATE TABLE IF NOT EXISTS {self._table} "
            f"(tid INTEGER PRIMARY KEY AUTOINCREMENT, "
            f"timetag INTEGER, {columns_sql})"
        )
        self._conn.execute(
            f"CREATE TABLE IF NOT EXISTS {self._marker_table} "
            "(tid INTEGER, marker TEXT, PRIMARY KEY (tid, marker))"
        )

    # -- helpers ------------------------------------------------------------

    def _execute(self, sql: str, params: tuple = ()) -> sqlite3.Cursor:
        """Run one statement, tracing it when observability is enabled.

        Each backend call becomes a ``storage.sql`` span carrying the
        statement verb and target relation, plus a per-statement counter
        and latency histogram — the paper's "straightforward
        implementation ... in a DBMS" made visible statement by statement.
        """
        obs = self.obs
        if obs is None or not obs.enabled:
            return self._conn.execute(sql, params)
        started = time.perf_counter()
        with obs.span(
            "storage.sql",
            verb=sql.split(None, 1)[0].upper(),
            relation=self.schema.name,
        ):
            cursor = self._conn.execute(sql, params)
        metrics = obs.metrics
        metrics.counter("storage.sql_statements").inc()
        metrics.histogram("storage.sql_us").observe(
            (time.perf_counter() - started) * 1e6
        )
        return cursor

    def _executemany(
        self, sql: str, rows: list[tuple]
    ) -> sqlite3.Cursor:
        """Run one statement over many parameter rows.

        The whole batch counts as a single ``storage.sql_statements`` tick
        (that is the point: N per-row round trips collapse into one), with
        the row count recorded separately as ``storage.sql_batched_rows``.
        """
        obs = self.obs
        if obs is None or not obs.enabled:
            return self._conn.executemany(sql, rows)
        started = time.perf_counter()
        with obs.span(
            "storage.sql",
            verb=sql.split(None, 1)[0].upper(),
            relation=self.schema.name,
            rows=len(rows),
        ):
            cursor = self._conn.executemany(sql, rows)
        metrics = obs.metrics
        metrics.counter("storage.sql_statements").inc()
        metrics.counter("storage.sql_batched_rows").inc(len(rows))
        metrics.histogram("storage.sql_us").observe(
            (time.perf_counter() - started) * 1e6
        )
        return cursor

    def _row_from_sql(self, record: tuple) -> StoredTuple:
        tid, timetag, *values = record
        self.counters.tuple_reads += 1
        return StoredTuple(
            relation=self.schema.name,
            tid=tid,
            timetag=timetag,
            values=tuple(values),
        )

    def _column(self, attribute: str) -> str:
        self.schema.position(attribute)  # validates the name
        return _quote_ident(f"a_{attribute}")

    # -- Table primitives ----------------------------------------------------

    def insert_at(self, values: tuple[Value, ...], timetag: int) -> StoredTuple:
        self.schema.validate_row(values)
        cursor = self._execute(self._insert_sql(), (timetag, *values))
        self.counters.tuple_writes += 1
        if self._next_tid is not None:
            self._next_tid = max(self._next_tid, cursor.lastrowid)
        return StoredTuple(
            relation=self.schema.name,
            tid=cursor.lastrowid,
            timetag=timetag,
            values=tuple(values),
        )

    def reserve_tid(self) -> int:
        # Push the AUTOINCREMENT sequence forward as well: a reservation
        # held only in the Python-side cache would be re-issued by a later
        # auto-assigned insert if the reserved row nets out of its batch
        # and never reaches storage.
        tid = self.tid_high_water() + 1
        self.advance_tid(tid)
        return tid

    def tid_high_water(self) -> int:
        if self._next_tid is None:
            # AUTOINCREMENT's high-water mark lives in sqlite_sequence
            # (created on the first auto insert); it never shrinks on
            # deletes, so it dominates MAX(tid).
            try:
                record = self._conn.execute(
                    "SELECT seq FROM sqlite_sequence WHERE name = ?",
                    (self._table_name,),
                ).fetchone()
            except sqlite3.OperationalError:
                record = None
            sequence = record[0] if record else 0
            (highest,) = self._conn.execute(
                f"SELECT COALESCE(MAX(tid), 0) FROM {self._table}"
            ).fetchone()
            self._next_tid = max(sequence, highest)
        return self._next_tid

    def advance_tid(self, tid: int) -> None:
        if self.tid_high_water() >= tid:
            return
        # Auto-assigned rowids must also start above the mark, so push the
        # AUTOINCREMENT sequence forward alongside the cache.
        updated = self._conn.execute(
            "UPDATE sqlite_sequence SET seq = ? WHERE name = ? AND seq < ?",
            (tid, self._table_name, tid),
        )
        if updated.rowcount == 0:
            exists = self._conn.execute(
                "SELECT 1 FROM sqlite_sequence WHERE name = ?",
                (self._table_name,),
            ).fetchone()
            if exists is None:
                self._conn.execute(
                    "INSERT INTO sqlite_sequence (name, seq) VALUES (?, ?)",
                    (self._table_name, tid),
                )
        self._next_tid = tid

    def insert_prepared(self, rows: list[StoredTuple]) -> None:
        for row in rows:
            if row.relation != self.schema.name:
                raise StorageError(
                    f"row for {row.relation!r} offered to "
                    f"{self.schema.name!r}"
                )
            self.schema.validate_row(row.values)
        if not rows:
            return
        placeholders = ", ".join("?" for _ in range(self.schema.arity + 2))
        # Explicit tids advance the AUTOINCREMENT sequence, so later auto
        # inserts continue above the staged range.
        self._executemany(
            f"INSERT INTO {self._table} "
            f"(tid, timetag, {', '.join(self._columns)}) "
            f"VALUES ({placeholders})",
            [(row.tid, row.timetag, *row.values) for row in rows],
        )
        self.counters.tuple_writes += len(rows)
        highest = max(row.tid for row in rows)
        if self._next_tid is not None:
            self._next_tid = max(self._next_tid, highest)

    def _insert_sql(self) -> str:
        placeholders = ", ".join("?" for _ in range(self.schema.arity + 1))
        return (
            f"INSERT INTO {self._table} "
            f"(timetag, {', '.join(self._columns)}) VALUES ({placeholders})"
        )

    def insert_many(
        self,
        rows: list[tuple[Value, ...]],
        timetags: list[int] | None = None,
    ) -> list[StoredTuple]:
        rows = [tuple(row) for row in rows]
        for row in rows:
            self.schema.validate_row(row)
        if not rows:
            return []
        if timetags is None:
            timetags = [self.clock.tick() for _ in rows]
        own_txn = not self._conn.in_transaction
        if own_txn:
            self._conn.execute("BEGIN")
        try:
            self._executemany(
                self._insert_sql(),
                [(timetag, *row) for timetag, row in zip(timetags, rows)],
            )
            # AUTOINCREMENT rowids are strictly increasing by one per insert
            # on a single connection, so the batch occupies a contiguous
            # range ending at last_insert_rowid().
            (last,) = self._execute("SELECT last_insert_rowid()").fetchone()
        except BaseException:
            if own_txn:
                self._conn.execute("ROLLBACK")
            raise
        if own_txn:
            self._conn.execute("COMMIT")
        self.counters.tuple_writes += len(rows)
        if self._next_tid is not None:
            self._next_tid = max(self._next_tid, last)
        first = last - len(rows) + 1
        return [
            StoredTuple(
                relation=self.schema.name,
                tid=first + offset,
                timetag=timetag,
                values=row,
            )
            for offset, (timetag, row) in enumerate(zip(timetags, rows))
        ]

    def delete(self, tid: int) -> StoredTuple:
        row = self.get(tid)
        self._execute(f"DELETE FROM {self._table} WHERE tid = ?", (tid,))
        self._execute(
            f"DELETE FROM {self._marker_table} WHERE tid = ?", (tid,)
        )
        self.counters.tuple_writes += 1
        return row

    #: Parameter-list chunk size for IN (...) batch statements, comfortably
    #: under SQLite's host-parameter limit.
    _IN_CHUNK = 500

    def delete_many(self, tids: list[int]) -> list[StoredTuple]:
        tids = list(tids)
        if not tids:
            return []
        own_txn = not self._conn.in_transaction
        if own_txn:
            self._conn.execute("BEGIN")
        try:
            fetched: dict[int, StoredTuple] = {}
            for start in range(0, len(tids), self._IN_CHUNK):
                chunk = tids[start:start + self._IN_CHUNK]
                marks = ", ".join("?" for _ in chunk)
                cursor = self._execute(
                    f"SELECT tid, timetag, {', '.join(self._columns)} "
                    f"FROM {self._table} WHERE tid IN ({marks})",
                    tuple(chunk),
                )
                for record in cursor.fetchall():
                    row = self._row_from_sql(record)
                    fetched[row.tid] = row
                missing = [tid for tid in chunk if tid not in fetched]
                if missing:
                    raise StorageError(
                        f"relation {self.schema.name!r} has no tuple "
                        f"#{missing[0]}"
                    )
                self._execute(
                    f"DELETE FROM {self._table} WHERE tid IN ({marks})",
                    tuple(chunk),
                )
                self._execute(
                    f"DELETE FROM {self._marker_table} "
                    f"WHERE tid IN ({marks})",
                    tuple(chunk),
                )
        except BaseException:
            if own_txn:
                self._conn.execute("ROLLBACK")
            raise
        if own_txn:
            self._conn.execute("COMMIT")
        self.counters.tuple_writes += len(tids)
        return [fetched[tid] for tid in tids]

    def get(self, tid: int) -> StoredTuple:
        record = self._execute(
            f"SELECT tid, timetag, {', '.join(self._columns)} "
            f"FROM {self._table} WHERE tid = ?",
            (tid,),
        ).fetchone()
        if record is None:
            raise StorageError(
                f"relation {self.schema.name!r} has no tuple #{tid}"
            )
        return self._row_from_sql(record)

    def scan(self) -> Iterator[StoredTuple]:
        cursor = self._execute(
            f"SELECT tid, timetag, {', '.join(self._columns)} "
            f"FROM {self._table} ORDER BY tid"
        )
        for record in cursor.fetchall():
            yield self._row_from_sql(record)

    def live_tids(self, tids) -> set[int]:
        stored = self._execute(f"SELECT tid FROM {self._table}").fetchall()
        return {tid for (tid,) in stored}.intersection(tids)

    def __len__(self) -> int:
        (count,) = self._execute(
            f"SELECT COUNT(*) FROM {self._table}"
        ).fetchone()
        return count

    def create_index(self, attribute: str) -> None:
        column = self._column(attribute)
        index_name = _quote_ident(f"ix_{self.schema.name}_{attribute}")
        self._execute(
            f"CREATE INDEX IF NOT EXISTS {index_name} "
            f"ON {self._table} ({column})"
        )
        self._indexed.add(attribute)

    def indexed_attributes(self) -> set[str]:
        return set(self._indexed)

    def lookup(self, attribute: str, value: Value) -> Iterator[StoredTuple]:
        column = self._column(attribute)
        self.counters.index_lookups += 1
        if value is None:
            where, params = f"{column} IS NULL", ()
        else:
            where, params = f"{column} = ?", (value,)
        cursor = self._execute(
            f"SELECT tid, timetag, {', '.join(self._columns)} "
            f"FROM {self._table} WHERE {where} ORDER BY tid",
            params,
        )
        for record in cursor.fetchall():
            row = self._row_from_sql(record)
            # SQLite compares 1 and 1.0 equal and is case-sensitive for
            # text, matching repro semantics; but it also treats the blob
            # b'x' distinctly, which we never store.  A str/number probe
            # mismatch cannot match in SQLite, so no post-filter is needed.
            yield row

    # -- markers -------------------------------------------------------------

    def add_marker(self, tid: int, marker: str) -> None:
        self.get(tid)
        self._execute(
            f"INSERT OR IGNORE INTO {self._marker_table} (tid, marker) "
            "VALUES (?, ?)",
            (tid, marker),
        )

    def remove_marker(self, tid: int, marker: str) -> None:
        self._execute(
            f"DELETE FROM {self._marker_table} WHERE tid = ? AND marker = ?",
            (tid, marker),
        )

    def markers(self, tid: int) -> frozenset[str]:
        rows = self._execute(
            f"SELECT marker FROM {self._marker_table} WHERE tid = ?", (tid,)
        ).fetchall()
        return frozenset(marker for (marker,) in rows)

    def marker_count(self) -> int:
        (count,) = self._execute(
            f"SELECT COUNT(*) FROM {self._marker_table}"
        ).fetchone()
        return count

    def close(self) -> None:
        """Close the connection when this table owns it."""
        if self._owns_connection:
            self._conn.close()

"""The write-ahead log: append-only JSONL with checksums and fsync batching.

One log records one run.  Each line is a JSON object::

    {"seq": 3, "kind": "batch", "body": {...}, "crc": 2468133518}

* ``seq`` — 1-based, strictly consecutive; a gap means a damaged log.
* ``kind`` — ``"meta"`` (first record: program text + run configuration),
  ``"batch"`` (one committed, netted :class:`~repro.delta.DeltaBatch`,
  appended *after* the maintenance process consumed it), or
  ``"boundary"`` (a commit point: end of an engine cycle, an op-script
  position, or end-of-setup — the atomic units of recovery).
* ``crc`` — CRC-32 of the canonical JSON of ``[seq, kind, body]``.

Durability model: appends are buffered in the writer and reach the file
only at :meth:`WalWriter.sync` (explicit, every ``fsync_every`` records,
or at a boundary via :meth:`WalWriter.commit`, which always syncs —
boundary records *are* the commit points of §5, written after the
maintenance process).  A crash loses at most the unsynced suffix;
recovery replays batch records only up to the last durable boundary, so a
cycle is atomic: either its boundary record survived and the cycle is
replayed exactly, or the whole cycle is re-executed from the previous
boundary (determinism makes the re-execution bit-identical).

Reading classifies damage: a torn *tail* (the final record truncated
mid-write) is expected crash debris and the log is readable up to it; a
bad checksum or sequence gap *followed by further valid records* means
the log was damaged in place, and :class:`~repro.errors.WalCorruptError`
refuses it loudly.

Segmented logs: with ``rotate_bytes > 0`` the writer archives the active
file as ``<path>.<first>-<last>.seg`` whenever a completed sync pushed it
past the budget, after persisting the run's ``meta`` record into a
checksummed ``<path>.walmeta`` sidecar (so the meta survives deletion of
segment one).  :func:`read_wal_chain` reads the archived segments plus
the active file as one contiguous record stream, and
:meth:`WalWriter.compact` deletes archived segments wholly superseded by
a checkpoint — the sequence numbers of the surviving records then start
past 1, and recovery demands the checkpoint that justified the deletion.

Group commit: several writers (one per tenant in ``repro.serve``) can
share a :class:`GroupCommit`; their boundary records then enlist for a
deferred fsync instead of syncing one by one, and a single
:meth:`GroupCommit.flush` makes every enlisted log durable at one
barrier.  Nothing is acknowledged to a client before the flush covering
its boundary returns.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
import zlib
from dataclasses import dataclass, field

from repro.delta import Delta, DeltaBatch
from repro.errors import RecoveryError, WalCorruptError
from repro.storage.tuples import StoredTuple

#: Wire form of one delta: [op, relation, tid, timetag, [values...]].
DeltaJson = list

#: Default number of buffered records between automatic fsyncs.
DEFAULT_FSYNC_EVERY = 64


def encode_delta(delta: Delta) -> DeltaJson:
    wme = delta.wme
    return [delta.op, wme.relation, wme.tid, wme.timetag, list(wme.values)]


def decode_delta(data: DeltaJson) -> Delta:
    op, relation, tid, timetag, values = data
    return Delta(
        op,
        StoredTuple(
            relation=relation,
            tid=int(tid),
            timetag=int(timetag),
            values=tuple(values),
        ),
    )


def encode_batch(batch: DeltaBatch) -> dict:
    return {"deltas": [encode_delta(delta) for delta in batch]}


def decode_batch(body: dict) -> DeltaBatch:
    return DeltaBatch(decode_delta(data) for data in body["deltas"])


def encode_key(key) -> list:
    """Wire form of an instantiation identity key:
    ``[rule, [[relation, tid] | null, ...]]``."""
    rule_name, slots = key
    return [
        rule_name,
        [list(slot) if slot is not None else None for slot in slots],
    ]


def decode_key(data) -> tuple:
    rule_name, slots = data
    return (
        rule_name,
        tuple(
            (slot[0], int(slot[1])) if slot is not None else None
            for slot in slots
        ),
    )


def encode_fired(triple) -> list:
    """Wire form of one firing: ``[cycle, rule, key]``."""
    cycle, rule_name, key = triple
    return [cycle, rule_name, encode_key(key)]


def decode_fired(data) -> tuple:
    cycle, rule_name, key = data
    return (int(cycle), rule_name, decode_key(key))


def fold_fired(digest: str, entries) -> str:
    """Chain wire-encoded firings onto a fired-history *digest*.

    The empty history's digest is ``""``; each entry folds in as the
    BLAKE2b of the previous digest plus the entry's compact JSON.  The
    fold of a list equals folding any split of it in order, so a
    boundary folds its own ``fired`` delta, a checkpoint stores the
    running value, and recovery continues the chain from there.
    """
    for entry in entries:
        digest = hashlib.blake2b(
            (digest + json.dumps(entry, separators=(",", ":"))).encode(),
            digest_size=16,
        ).hexdigest()
    return digest


def _crc(seq: int, kind: str, body: dict) -> int:
    canonical = json.dumps(
        [seq, kind, body], sort_keys=True, separators=(",", ":")
    )
    return zlib.crc32(canonical.encode("utf-8"))


def encode_record(seq: int, kind: str, body: dict) -> str:
    """One log line for a record, *body* encoded once.

    Byte for byte what dumping ``{"seq", "kind", "body", "crc"}`` with
    sorted keys gives, ``crc`` being :func:`_crc` of the same record.
    """
    payload = json.dumps(body, sort_keys=True, separators=(",", ":"))
    name = json.dumps(kind)
    crc = zlib.crc32(f"[{seq},{name},{payload}]".encode("utf-8"))
    return f'{{"body":{payload},"crc":{crc},"kind":{name},"seq":{seq}}}\n'


@dataclass(frozen=True)
class WalRecord:
    """One parsed log record plus its end offset in the file."""

    seq: int
    kind: str
    body: dict
    end_offset: int


@dataclass
class WalReadResult:
    """Outcome of :func:`read_wal`."""

    records: list[WalRecord]
    #: True when the file ended in a truncated (torn) record — expected
    #: after a crash; the readable prefix is still trustworthy.
    torn: bool
    #: Byte offset just past the last valid record (truncation point for
    #: a writer continuing this log).
    durable_offset: int
    #: Sequence number preceding the file's first record (0 for a whole
    #: log; the previous segment's last seq when reading a chain).
    base_seq: int = 0

    @property
    def next_seq(self) -> int:
        return self.records[-1].seq + 1 if self.records else self.base_seq + 1


def read_wal(path: str, base_seq: int = 0) -> WalReadResult:
    """Parse *path*, tolerating a torn tail but refusing inner damage.

    A record counts as durable only when its terminating newline made it
    to disk; a parseable final line without one is still treated as torn
    (a writer continuing the log must be able to append cleanly).
    *base_seq* is the last sequence number before this file — 0 for a
    whole log, the previous segment's last record when reading a chain.
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    records: list[WalRecord] = []
    torn = False
    position = 0
    size = len(raw)
    while position < size:
        newline = raw.find(b"\n", position)
        complete = newline != -1
        end = (newline + 1) if complete else size
        line = raw[position:newline] if complete else raw[position:]
        parsed = (
            _parse_line(line, expect_seq=base_seq + len(records) + 1)
            if complete
            else None
        )
        if parsed is None:
            if any(
                _parse_line(later, expect_seq=None) is not None
                for later in raw[end:].split(b"\n")
            ):
                raise WalCorruptError(
                    f"damaged WAL record at byte {position} of {path} "
                    "with valid records after it"
                )
            torn = True
            break
        records.append(
            WalRecord(parsed[0], parsed[1], parsed[2], end_offset=end)
        )
        position = end
    durable = records[-1].end_offset if records else 0
    return WalReadResult(
        records=records, torn=torn, durable_offset=durable, base_seq=base_seq
    )


# -- segmented logs ------------------------------------------------------------

#: Archived-segment filename suffix: ``<path>.<first>-<last>.seg``.
_SEGMENT_RE = re.compile(r"\.(\d+)-(\d+)\.seg$")

#: Sidecar filename suffix carrying the run's meta record body.
META_SIDECAR_SUFFIX = ".walmeta"


def segment_path(path: str, first: int, last: int) -> str:
    return f"{path}.{first:08d}-{last:08d}.seg"


def list_segments(path: str) -> list[tuple[int, int, str]]:
    """Archived segments of *path* as sorted ``(first, last, file)``."""
    directory = os.path.dirname(path) or "."
    prefix = os.path.basename(path) + "."
    found = []
    for name in os.listdir(directory):
        if not name.startswith(prefix):
            continue
        match = _SEGMENT_RE.search(name)
        if match is None:
            continue
        found.append(
            (
                int(match.group(1)),
                int(match.group(2)),
                os.path.join(directory, name),
            )
        )
    found.sort()
    return found


def write_meta_sidecar(path: str, meta: dict) -> str:
    """Persist *meta* next to *path* (idempotent, checksummed, fsynced)."""
    sidecar = path + META_SIDECAR_SUFFIX
    if os.path.exists(sidecar):
        return sidecar
    payload = {"version": 1, "meta": meta, "crc": _crc(0, "meta", meta)}
    temp = sidecar + ".tmp"
    with open(temp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, sidecar)
    return sidecar


def _read_sidecar_payload(path: str) -> dict | None:
    sidecar = path + META_SIDECAR_SUFFIX
    if not os.path.exists(sidecar):
        return None
    try:
        with open(sidecar, encoding="utf-8") as handle:
            payload = json.load(handle)
        meta = payload["meta"]
        if _crc(0, "meta", meta) != payload["crc"]:
            raise WalCorruptError(f"meta sidecar {sidecar!r} fails its CRC")
    except WalCorruptError:
        raise
    except Exception as exc:
        raise WalCorruptError(f"unreadable meta sidecar {sidecar!r}") from exc
    return payload


def read_meta_sidecar(path: str) -> dict | None:
    """The meta body persisted by :func:`write_meta_sidecar`, or None."""
    payload = _read_sidecar_payload(path)
    return None if payload is None else payload["meta"]


def read_sidecar_base(path: str) -> int:
    """The compacted-prefix high seq recorded in the sidecar (0 if none).

    Every record at or below this seq was deleted by
    :meth:`WalWriter.compact` after a checkpoint superseded it; the
    segment chain (or, once fully compacted, the active file itself)
    logically starts at the next seq.
    """
    payload = _read_sidecar_payload(path)
    if payload is None:
        return 0
    base = payload.get("base_seq", 0)
    if not isinstance(base, int) or base < 0:
        raise WalCorruptError(
            f"meta sidecar of {path!r} carries invalid base_seq {base!r}"
        )
    return base


def bump_sidecar_base(path: str, base_seq: int) -> None:
    """Record that records ``<= base_seq`` were compacted away.

    Rewritten atomically; the base only ever grows.  Without this marker
    a fully compacted chain (no archived segments left) would lose track
    of where the active file's sequence numbers start.
    """
    payload = _read_sidecar_payload(path)
    if payload is None or payload.get("base_seq", 0) >= base_seq:
        return
    payload["base_seq"] = base_seq
    sidecar = path + META_SIDECAR_SUFFIX
    temp = sidecar + ".tmp"
    with open(temp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, sidecar)


@dataclass
class WalChainResult:
    """Outcome of :func:`read_wal_chain`: the log as one record stream."""

    records: list[WalRecord] = field(default_factory=list)
    #: True when the *last* file of the chain ended in a torn record.
    torn: bool = False
    #: The run's meta body — from the first record when segment one
    #: survives, otherwise from the ``.walmeta`` sidecar; None when
    #: neither is durable.
    meta: dict | None = None
    #: Sequence number of the first available record (> 1 after
    #: compaction deleted the log prefix; 1, or 0 when empty, otherwise).
    first_seq: int = 0
    #: Sequence number the active file starts at (records below it live
    #: in archived segments).
    active_base_seq: int = 1
    #: False when the active file is missing — the torn-rotation window
    #: (a crash between archiving the old segment and creating the new
    #: active file); the archived chain is still fully durable.
    active_exists: bool = True
    #: Archived segment files, in sequence order.
    segments: list[str] = field(default_factory=list)

    @property
    def next_seq(self) -> int:
        return self.records[-1].seq + 1 if self.records else self.first_seq

    def active_offset(self, upto_seq: int) -> int:
        """Truncation offset *within the active file* keeping records up
        to *upto_seq* (0 when none of them live in the active file)."""
        offset = 0
        for record in self.records:
            if record.seq > upto_seq:
                break
            if record.seq >= self.active_base_seq:
                offset = record.end_offset
        return offset


def read_wal_chain(path: str) -> WalChainResult:
    """Read archived segments plus the active file as one contiguous log.

    Archived segments were fully synced before they were renamed, so any
    tear or truncation *inside* one is real damage and refuses loudly;
    only the final file of the chain (normally the active file) may end
    torn.  A missing active file is tolerated as the torn-rotation
    window.  Sequence continuity is enforced across file boundaries.
    """
    segments = list_segments(path)
    result = WalChainResult(segments=[file for _, _, file in segments])
    compacted = read_sidecar_base(path)
    expected = segments[0][0] - 1 if segments else compacted
    if segments and compacted and segments[0][0] != compacted + 1:
        raise WalCorruptError(
            f"first segment of {path!r} starts at seq {segments[0][0]} "
            f"but compaction recorded seqs <= {compacted} deleted — "
            "a segment is missing"
        )
    for first, last, file in segments:
        if first != expected + 1:
            raise WalCorruptError(
                f"segment {file!r} starts at seq {first}, "
                f"expected {expected + 1} — a segment is missing"
            )
        part = read_wal(file, base_seq=first - 1)
        if part.torn or not part.records or part.records[-1].seq != last:
            raise WalCorruptError(
                f"archived segment {file!r} is damaged or truncated "
                f"(expected records {first}..{last})"
            )
        result.records.extend(part.records)
        expected = last
    result.active_base_seq = expected + 1
    if os.path.exists(path):
        active = read_wal(path, base_seq=expected)
        result.records.extend(active.records)
        result.torn = active.torn
    else:
        result.active_exists = False
        if not segments:
            raise FileNotFoundError(path)
    if result.records:
        result.first_seq = result.records[0].seq
    if result.first_seq == 1 and result.records[0].kind == "meta":
        result.meta = result.records[0].body
    else:
        result.meta = read_meta_sidecar(path)
    return result


class GroupCommit:
    """Coalesces the fsyncs of many writers into one flush barrier.

    A writer constructed with ``group=`` enlists itself at every
    :meth:`WalWriter.commit` instead of syncing; :meth:`flush` then syncs
    every enlisted writer once, in enlistment order.  The caller must not
    acknowledge a commit before the flush covering it returns — this is
    the cross-tenant group-commit point of ``repro.serve``.
    """

    def __init__(self, obs=None) -> None:
        self.obs = obs
        self._dirty: list[WalWriter] = []
        self.flushes = 0
        self.enlisted_total = 0

    @property
    def pending(self) -> int:
        """Writers with a deferred (not yet durable) commit."""
        return len(self._dirty)

    def enlist(self, writer: "WalWriter") -> None:
        if writer not in self._dirty:
            self._dirty.append(writer)
            self.enlisted_total += 1

    def flush(self) -> int:
        """Make every enlisted writer durable; returns how many synced."""
        dirty, self._dirty = self._dirty, []
        for writer in dirty:
            writer.sync()
        if dirty:
            self.flushes += 1
            if self.obs is not None and self.obs.enabled:
                metrics = self.obs.metrics
                metrics.counter("serve.group_commits").inc()
                metrics.counter("serve.group_commit_members").inc(len(dirty))
        return len(dirty)


def _parse_line(line: bytes, expect_seq: int | None):
    """``(seq, kind, body)`` when *line* is a valid record, else None."""
    try:
        data = json.loads(line.decode("utf-8"))
        seq = data["seq"]
        kind = data["kind"]
        body = data["body"]
        crc = data["crc"]
    except Exception:
        return None
    if not isinstance(seq, int) or not isinstance(kind, str):
        return None
    if _crc(seq, kind, body) != crc:
        return None
    if expect_seq is not None and seq != expect_seq:
        return None
    return (seq, kind, body)


class WalWriter:
    """Appends records to one log file with batched fsyncs.

    Construct with :meth:`create` for a fresh run or :meth:`continue_log`
    to resume an existing log (the non-durable suffix is physically
    truncated first, so the file never holds records a previous recovery
    decided to discard).

    The optional :class:`~repro.recovery.crashpoints.Crashpoints`
    registry is consulted at every named site; after it fires, the writer
    plays dead — buffered records are dropped and all further operations
    are silent no-ops, modelling the process death the registry simulates.
    """

    def __init__(
        self,
        path: str,
        crashpoints=None,
        obs=None,
        fsync_every: int = DEFAULT_FSYNC_EVERY,
        rotate_bytes: int = 0,
        wal_meta: dict | None = None,
        group: "GroupCommit | None" = None,
        tap: "object | None" = None,
        _mode: str = "w",
        _next_seq: int = 1,
        _start_offset: int = 0,
        _segment_first_seq: int = 1,
    ) -> None:
        self.path = path
        self.crashpoints = crashpoints
        self.obs = obs
        self.fsync_every = max(1, fsync_every)
        #: Segment budget: > 0 archives the active file once a completed
        #: sync pushed it past this many bytes (0 = never rotate).
        self.rotate_bytes = rotate_bytes
        #: The run's meta body, persisted to the ``.walmeta`` sidecar at
        #: the first rotation; rotation is skipped when unknown.
        self.wal_meta = wal_meta
        #: Optional :class:`GroupCommit` this writer's boundaries enlist
        #: with instead of syncing eagerly.
        self.group = group
        #: Sync tap: ``tap(first_seq, lines)`` is called after every
        #: completed fsync with the raw serialized record lines that just
        #: became durable (``first_seq`` is the seq of ``lines[0]``).
        #: ``repro.replica`` hangs its log shipper here — only records
        #: that are durable on the primary are ever shipped.
        self.tap = tap
        self._handle = open(path, _mode, encoding="utf-8")
        self._buffer: list[str] = []
        self._next_seq = _next_seq
        self._closed = False
        #: Bytes durably on disk (past the last completed sync).
        self.synced_bytes = _start_offset
        self.records_written = 0
        self.syncs = 0
        #: First sequence number of the current active segment and the
        #: durable bytes already inside it (drives rotation).
        self._segment_first_seq = _segment_first_seq
        self._segment_bytes = _start_offset
        self.rotations = 0
        self.segments_deleted = 0

    # -- construction ---------------------------------------------------------

    @classmethod
    def create(cls, path: str, **kwargs) -> "WalWriter":
        """Start a fresh log at *path* (truncates any existing file)."""
        return cls(path, **kwargs)

    @classmethod
    def continue_log(
        cls, path: str, durable_offset: int, next_seq: int, **kwargs
    ) -> "WalWriter":
        """Append to an existing log after truncating its dead suffix.

        *durable_offset* / *next_seq* come from :func:`read_wal` (or from
        the recovery pass that decided how much of the log to keep); the
        bytes past the offset are crash debris and are removed so they can
        never shadow the records a resumed run appends.  A missing active
        file (the torn-rotation window) is recreated empty, provided the
        offset agrees nothing durable lived in it.
        """
        kwargs.setdefault("_segment_first_seq", next_seq)
        if not os.path.exists(path):
            if durable_offset:
                raise RecoveryError(
                    f"durable offset {durable_offset} but {path!r} is missing"
                )
            return cls(path, _mode="w", _next_seq=next_seq, **kwargs)
        size = os.path.getsize(path)
        if durable_offset > size:
            raise RecoveryError(
                f"durable offset {durable_offset} beyond end of {path!r}"
            )
        if durable_offset < size:
            with open(path, "r+b") as handle:
                handle.truncate(durable_offset)
        return cls(
            path,
            _mode="a",
            _next_seq=next_seq,
            _start_offset=durable_offset,
            **kwargs,
        )

    # -- state ----------------------------------------------------------------

    @property
    def last_seq(self) -> int:
        """Sequence number of the last appended record (0 = none yet).

        Lineage capture (:mod:`repro.obs.xray`) stamps this on every
        conflict-set instantiation so provenance questions can be answered
        against the durable log.
        """
        return self._next_seq - 1

    @property
    def pending_records(self) -> int:
        """Appended records not yet durable (the WAL lag ``repro top`` shows)."""
        return len(self._buffer)

    @property
    def dead(self) -> bool:
        """True once a simulated crash fired or the writer was closed."""
        if self._closed:
            return True
        return (
            self.crashpoints is not None
            and self.crashpoints.crashed is not None
        )

    def _hit(self, site: str) -> None:
        if self.crashpoints is not None:
            self.crashpoints.hit(site)

    # -- appending -------------------------------------------------------------

    def append(self, kind: str, body: dict) -> int:
        """Buffer one record; returns its sequence number.

        Auto-syncs when ``fsync_every`` records have accumulated.
        """
        if self.dead:
            return self._next_seq
        self._hit("wal.pre_append")
        seq = self._next_seq
        self._next_seq += 1
        self._buffer.append(encode_record(seq, kind, body))
        self.records_written += 1
        if self.obs is not None and self.obs.enabled:
            self.obs.metrics.counter("recovery.wal_records").inc()
        self._hit("wal.post_append")
        if len(self._buffer) >= self.fsync_every:
            self.sync()
        return seq

    def commit(self, kind: str, body: dict) -> int:
        """Append one boundary record and make the log durable through it.

        This is the §5 commit point: it runs *after* the maintenance
        process (the listeners already consumed the cycle's batches) and
        nothing of the cycle is considered recovered unless this record
        survived.  With a :class:`GroupCommit` attached the sync is
        deferred to the group's next flush barrier instead — the record
        is a commit point only once that flush returns, and the caller
        must not acknowledge it earlier.
        """
        self._hit("commit.pre")
        seq = self.append(kind, body)
        if self.group is not None and not self.dead:
            self.group.enlist(self)
        else:
            self.sync()
        self._hit("commit.post")
        return seq

    def log_batch(self, batch: DeltaBatch) -> int:
        """Append one committed delta batch (the WM's WAL hook)."""
        return self.append("batch", encode_batch(batch))

    def sync(self) -> None:
        """Write buffered records and fsync the file."""
        if self.dead:
            return
        self._hit("wal.pre_sync")
        if self._buffer:
            lines = self._buffer
            first_seq = self._next_seq - len(lines)
            payload = "".join(lines)
            self._buffer = []
            started = time.perf_counter()
            obs = self.obs
            if obs is not None and obs.tracer.enabled:
                with obs.span("recovery.fsync", bytes=len(payload)):
                    self._write_and_fsync(payload)
            else:
                self._write_and_fsync(payload)
            size = len(payload.encode("utf-8"))
            self.synced_bytes += size
            self._segment_bytes += size
            self.syncs += 1
            if obs is not None and obs.enabled:
                metrics = obs.metrics
                metrics.counter("recovery.fsyncs").inc()
                metrics.counter("recovery.wal_bytes").inc(size)
                metrics.log2_histogram("recovery.sync_us").observe(
                    (time.perf_counter() - started) * 1e6
                )
            if self.tap is not None:
                self.tap(first_seq, lines)
        self._hit("wal.post_sync")
        if (
            self.rotate_bytes > 0
            and self._segment_bytes >= self.rotate_bytes
            and not self.dead
        ):
            self._rotate()

    def _write_and_fsync(self, payload: str) -> None:
        self._handle.write(payload)
        self._handle.flush()
        os.fsync(self._handle.fileno())

    # -- rotation and compaction -----------------------------------------------

    def _rotate(self) -> None:
        """Archive the (fully synced) active file and start a fresh one.

        The meta sidecar is persisted *before* the rename, so even if
        compaction later deletes segment one — or the process dies in the
        rotation window (``wal.rotate``), leaving no active file — the
        run's configuration is still recoverable.
        """
        first, last = self._segment_first_seq, self.last_seq
        if last < first or self.wal_meta is None:
            return
        write_meta_sidecar(self.path, self.wal_meta)
        self._handle.close()
        os.replace(self.path, segment_path(self.path, first, last))
        self.rotations += 1
        if self.obs is not None and self.obs.enabled:
            self.obs.metrics.counter("recovery.wal_rotations").inc()
        self._hit("wal.rotate")
        self._handle = open(self.path, "w", encoding="utf-8")
        self._segment_first_seq = last + 1
        self._segment_bytes = 0

    def compact(self, upto_seq: int) -> int:
        """Delete archived segments wholly superseded by a checkpoint.

        *upto_seq* is the checkpoint's ``wal_seq``: every record at or
        below it is reconstructible from the checkpoint alone, so an
        archived segment whose last record is ≤ it carries no recovery
        value.  The active file is never deleted.  Returns the number of
        segments removed.
        """
        if self.dead:
            return 0
        removed = 0
        deleted_upto = 0
        for _first, last, file in list_segments(self.path):
            if last <= upto_seq and os.path.exists(
                self.path + META_SIDECAR_SUFFIX
            ):
                os.remove(file)
                removed += 1
                deleted_upto = max(deleted_upto, last)
        if removed:
            # Without this marker a fully compacted chain would forget
            # where the active file's sequence numbers begin.
            bump_sidecar_base(self.path, deleted_upto)
        self.segments_deleted += removed
        if removed and self.obs is not None and self.obs.enabled:
            self.obs.metrics.counter("recovery.segments_deleted").inc(removed)
        return removed

    # -- lifecycle -------------------------------------------------------------

    def abandon(self) -> None:
        """Drop buffered records and close — the simulated process died."""
        self._buffer = []
        self._closed = True
        self._handle.close()

    def close(self) -> None:
        """Sync outstanding records and close the file."""
        if not self._closed:
            self.sync()
            self._closed = True
            self._handle.close()

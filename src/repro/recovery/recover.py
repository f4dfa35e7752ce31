"""Crash recovery: rebuild a production system from its log.

``recover(log, checkpoint)`` reads the durable prefix of a write-ahead
log and reconstructs the run at its last committed boundary:

1. the ``meta`` record rebuilds an identical (but empty) system —
   same program, match strategy, resolver, backend and seed (keys older
   builds recorded, such as ``compile``, are ignored);
2. a checkpoint, if one is offered and passes its consistency checks,
   restores the WM relations wholesale (exact tids and timetags) and the
   cumulative run state at its ``wal_seq``;
3. every committed batch record after that point replays *through the
   match network* (:meth:`~repro.engine.wm.WorkingMemory.restore_batch`),
   so the conflict set is rebuilt by the same maintenance process that
   built it the first time — there is no separate matcher serialization
   to drift out of sync;
4. boundary records restore the allocation marks (clock, per-relation
   tid high-water), the refraction set, program output and the
   resolver state, and extend the fired count and digest.  The
   refraction set is pruned of keys naming removed elements (as a live
   run prunes it at each checkpoint cut), so it stays bounded by the
   live keys however long the replayed log is.

Records *after* the last durable boundary are crash debris from an
uncommitted cycle; they are ignored, and
:func:`~repro.recovery.session.DurableRun.resume` physically truncates
them before appending.  Determinism makes re-executing that lost cycle
bit-identical to the run that crashed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.delta import DeltaBatch
from repro.engine.interpreter import (
    ProductionSystem,
    RunResult,
    dead_refraction_keys,
)
from repro.engine.resolution import SeededRandom
from repro.errors import RecoveryError, SchemaError
from repro.lang.ast import Program
from repro.lang.parser import parse_program
from repro.obs import Observability
from repro.recovery.checkpoint import (
    CheckpointError,
    _normalize,
    canonical_rete_snapshot,
    load_checkpoint,
)
from repro.recovery.session import DurableRun, program_crc
from repro.recovery.wal import (
    decode_batch,
    decode_key,
    fold_fired,
    read_wal_chain,
)
from repro.storage.tuples import StoredTuple

#: The applier prunes its refraction keys once they reach twice the live
#: count left by the previous prune (and at least this many), so pruning
#: costs amortized O(1) per firing and the set stays O(live keys).
PRUNE_FLOOR = 256


@dataclass
class RecoveredState:
    """A production system restored to its last durable boundary."""

    system: ProductionSystem
    meta: dict
    wal_path: str
    #: Byte offset of the end of the last durable boundary — everything
    #: past it is crash debris a resumed writer truncates away.
    durable_offset: int
    next_seq: int
    phase: str | None
    cycle: int
    position: int
    halted: bool
    #: Firings since the run started, and the chained digest over them
    #: (:func:`~repro.recovery.wal.fold_fired`).
    fired_count: int = 0
    fired_digest: str = ""
    #: The restored refraction set: fired keys whose elements are live.
    fired_keys: set = field(default_factory=set)
    extra: dict = field(default_factory=dict)
    torn: bool = False
    checkpoint_used: bool = False
    replayed_batches: int = 0
    replayed_deltas: int = 0
    #: Sequence number the active WAL file starts at (1 for an unrotated
    #: log) — a resumed writer needs it to name its next archived segment.
    active_base_seq: int = 1


def _build_system(meta: dict, obs: Observability | None) -> ProductionSystem:
    """An empty twin of the crashed run's system.

    The program's top-level ``(make ...)`` elements are stripped: they
    were inserted before the log attached and live in the log's first
    batch record, so letting the constructor insert them again would
    double them (with the wrong tids).  Meta keys not read here —
    including ones older builds recorded — are ignored.
    """
    program = parse_program(meta["program"])
    return ProductionSystem(
        Program(
            schemas=program.schemas,
            rules=program.rules,
            initial_elements=[],
        ),
        strategy=meta["strategy"],
        resolution=meta["resolution"],
        backend=meta["backend"],
        seed=meta["seed"],
        obs=obs or Observability(),
    )


class RecordApplier:
    """The replay loop of :func:`recover`, in incremental form.

    Feeds WAL records one at a time into a live system, preserving the
    exact commit-point semantics of crash recovery: batch records are
    *staged* and only replayed through the match network
    (:meth:`~repro.engine.wm.WorkingMemory.restore_batch`) when the
    boundary record covering them arrives.  Between boundaries the
    system therefore always sits at the last durable commit point —
    exactly where :func:`recover` would leave it — which is what lets a
    warm-standby follower (:mod:`repro.replica`) tail a shipped log and
    stay bit-identical to the primary at every shipped boundary.

    Call :meth:`finalize` once, after the last record, to restore the
    refraction set, program output and resolver state.  The fired
    history is held as a count, a digest and the refraction keys, never
    as a list.
    """

    def __init__(self, system: ProductionSystem, meta: dict) -> None:
        self.system = system
        self.meta = meta
        self.phase: str | None = None
        self.cycle = 0
        self.position = 0
        self.halted = False
        self.extra: dict = {}
        self.fired_count = 0
        self.fired_digest = ""
        self.fired_keys: set = set()
        self._prune_at = PRUNE_FLOOR
        self.output: list = []
        self.resolver_state = None
        self.last_boundary_seq = 0
        self.replayed_batches = 0
        self.replayed_deltas = 0
        self._staged: list[dict] = []  # batch bodies awaiting a boundary
        self._finalized = False

    @classmethod
    def from_state(cls, state: "RecoveredState") -> "RecordApplier":
        """Continue applying where a recovered run left off."""
        applier = cls(state.system, state.meta)
        applier.phase = state.phase
        applier.cycle = state.cycle
        applier.position = state.position
        applier.halted = state.halted
        applier.extra = dict(state.extra)
        applier.fired_count = state.fired_count
        applier.fired_digest = state.fired_digest
        applier.fired_keys = set(state.fired_keys)
        applier.output = [list(row) for row in state.system.output]
        applier.last_boundary_seq = state.next_seq - 1
        applier.replayed_batches = state.replayed_batches
        applier.replayed_deltas = state.replayed_deltas
        return applier

    def seed_checkpoint(
        self, ckpt: dict, checkpoint_path: str | None = None
    ) -> None:
        """Restore a checkpoint body wholesale (rows, marks, run state)."""
        rows = _checkpoint_rows(ckpt["relations"])
        if rows:
            self.system.wm.restore_batch(DeltaBatch.of_inserts(rows))
        self.system.wm.catalog.clock.advance_to(ckpt["clock"])
        self.system.wm.restore_tid_marks(ckpt["tids"])
        snapshot = ckpt.get("rete")
        if snapshot is not None and hasattr(self.system.strategy, "network"):
            rebuilt = _normalize(canonical_rete_snapshot(self.system.strategy))
            if rebuilt != snapshot:
                raise CheckpointError(
                    "Rete memories rebuilt by replay do not match the "
                    f"snapshot in {checkpoint_path!r}"
                )
        ckpt_state = ckpt["state"]
        self.phase = ckpt_state["phase"]
        self.cycle = ckpt_state["cycle"]
        self.position = ckpt_state["position"]
        self.halted = ckpt_state["halted"]
        self.extra = dict(ckpt_state.get("extra") or {})
        self.fired_count = ckpt_state["fired_count"]
        self.fired_digest = ckpt_state["fired_digest"]
        self.fired_keys = {
            decode_key(key) for key in ckpt_state["fired_keys"]
        }
        self.output = list(ckpt_state["output"])
        self.resolver_state = ckpt_state.get("resolver_state")
        self.last_boundary_seq = ckpt["wal_seq"]

    def apply(self, seq: int, kind: str, body: dict) -> bool:
        """Feed one record; returns True when a boundary was applied."""
        if kind == "batch":
            self._staged.append(body)
            return False
        if kind != "boundary":
            return False  # meta records carry no replay state
        for staged in self._staged:
            batch = decode_batch(staged)
            self.system.wm.restore_batch(batch)
            self.replayed_batches += 1
            self.replayed_deltas += len(batch)
        self._staged = []
        self.phase = body["phase"]
        self.cycle = body["cycle"]
        self.position = body["position"]
        self.halted = body["halted"]
        self.extra = dict(body.get("extra") or {})
        fired = body["fired"]
        if fired:
            self.fired_count += len(fired)
            self.fired_digest = fold_fired(self.fired_digest, fired)
            self.fired_keys.update(decode_key(entry[2]) for entry in fired)
            if len(self.fired_keys) >= self._prune_at:
                self._prune()
        self.output.extend(body["output_delta"])
        self.system.wm.catalog.clock.advance_to(body["clock"])
        self.system.wm.restore_tid_marks(body["tids"])
        if body.get("resolver_state") is not None:
            self.resolver_state = body["resolver_state"]
        self.last_boundary_seq = seq
        return True

    def _prune(self) -> None:
        """Drop keys naming removed elements (the engine's rule)."""
        self.fired_keys.difference_update(
            dead_refraction_keys(self.system.wm, self.fired_keys)
        )
        self._prune_at = max(2 * len(self.fired_keys), PRUNE_FLOOR)

    def finalize(self) -> None:
        """Prune, then restore the refraction set, output and resolver."""
        self._prune()
        self.system.restore_run_state(
            fired_keys=self.fired_keys,
            output=self.output,
        )
        if self.resolver_state is not None and isinstance(
            self.system.resolver, SeededRandom
        ):
            self.system.resolver.setstate(self.resolver_state)
        self._finalized = True


def _checkpoint_rows(relations: dict) -> list[StoredTuple]:
    rows = [
        StoredTuple(
            relation=name,
            tid=int(tid),
            timetag=int(timetag),
            values=tuple(values),
        )
        for name, entries in relations.items()
        for tid, timetag, values in entries
    ]
    rows.sort(key=lambda row: row.timetag)
    return rows


def recover(
    wal_path: str,
    checkpoint_path: str | None = None,
    obs: Observability | None = None,
) -> RecoveredState:
    """Rebuild the run recorded in *wal_path*; see the module docstring.

    Raises :class:`~repro.errors.WalCorruptError` for damage before the
    torn tail, :class:`~repro.recovery.checkpoint.CheckpointError` for a
    damaged or inconsistent checkpoint, and plain
    :class:`~repro.errors.RecoveryError` when the log never reached its
    first commit point (nothing durable happened — rerun from scratch).
    A logged or checkpointed row that the schema refuses (a NaN value,
    which logs written before NaN was refused may hold) is a
    :class:`~repro.errors.RecoveryError` naming the record, or a
    :class:`~repro.recovery.checkpoint.CheckpointError`.
    """
    started = time.perf_counter()
    result = read_wal_chain(wal_path)
    records = result.records
    meta = result.meta
    if meta is None:
        raise RecoveryError(
            f"{wal_path!r} has no durable meta record; "
            "the run died before its first commit point"
        )
    compacted = result.first_seq > 1
    if compacted and not checkpoint_path:
        raise RecoveryError(
            f"the log prefix of {wal_path!r} was compacted away "
            "(first surviving record has seq "
            f"{result.first_seq}); recovery requires the checkpoint "
            "that superseded it"
        )
    boundaries = [r for r in records if r.kind == "boundary"]
    if not boundaries and not compacted:
        raise RecoveryError(
            f"{wal_path!r} has no durable boundary record; "
            "the run died before its first commit point"
        )
    last_boundary_seq = boundaries[-1].seq if boundaries else 0

    ckpt = load_checkpoint(checkpoint_path) if checkpoint_path else None
    if ckpt is None and compacted:
        raise RecoveryError(
            f"the log prefix of {wal_path!r} was compacted away but "
            f"checkpoint {checkpoint_path!r} is missing or empty"
        )
    if ckpt is not None:
        if ckpt["program_crc"] != program_crc(meta["program"]):
            raise CheckpointError(
                f"checkpoint {checkpoint_path!r} does not belong to "
                f"the program recorded in {wal_path!r}"
            )
        if ckpt["wal_seq"] > last_boundary_seq:
            # Legitimate only when compaction deleted the boundary the
            # checkpoint names: the chain must then resume right after it.
            if not (compacted and result.first_seq == ckpt["wal_seq"] + 1):
                raise CheckpointError(
                    f"checkpoint {checkpoint_path!r} (wal_seq "
                    f"{ckpt['wal_seq']}) is newer than the durable log "
                    f"(last boundary seq {last_boundary_seq}); the log "
                    "was truncated or swapped — refusing to guess"
                )
        elif ckpt["wal_seq"] >= result.first_seq and ckpt[
            "wal_seq"
        ] not in {b.seq for b in boundaries}:
            raise CheckpointError(
                f"checkpoint {checkpoint_path!r} references seq "
                f"{ckpt['wal_seq']}, which is not a boundary record in "
                f"{wal_path!r}"
            )

    #: The recovery point: the last durable commit, whether it survives
    #: as a boundary record or only as the checkpoint that replaced it.
    recovery_seq = max(
        last_boundary_seq, ckpt["wal_seq"] if ckpt is not None else 0
    )
    system = _build_system(meta, obs)
    state = RecoveredState(
        system=system,
        meta=meta,
        wal_path=wal_path,
        durable_offset=result.active_offset(recovery_seq),
        next_seq=recovery_seq + 1,
        phase=None,
        cycle=0,
        position=0,
        halted=False,
        torn=result.torn,
        active_base_seq=result.active_base_seq,
    )

    applier = RecordApplier(system, meta)
    if ckpt is not None:
        try:
            applier.seed_checkpoint(ckpt, checkpoint_path)
        except SchemaError as error:
            raise CheckpointError(
                f"checkpoint {checkpoint_path!r} holds a row that cannot "
                f"be restored: {error}"
            ) from error
        state.checkpoint_used = True

    start_seq = ckpt["wal_seq"] if ckpt is not None else 0
    for record in records:
        if record.seq <= start_seq or record.seq > recovery_seq:
            continue
        try:
            applier.apply(record.seq, record.kind, record.body)
        except SchemaError as error:
            raise RecoveryError(
                f"{wal_path!r}: the batches committed by boundary seq "
                f"{record.seq} cannot be replayed: {error}"
            ) from error

    applier.finalize()
    state.fired_count = applier.fired_count
    state.fired_digest = applier.fired_digest
    state.fired_keys = set(applier.fired_keys)
    state.phase = applier.phase
    state.cycle = applier.cycle
    state.position = applier.position
    state.halted = applier.halted
    state.extra = dict(applier.extra)
    state.replayed_batches = applier.replayed_batches
    state.replayed_deltas = applier.replayed_deltas

    live_obs = system.obs
    if live_obs.enabled:
        metrics = live_obs.metrics
        metrics.counter("recovery.recoveries").inc()
        metrics.counter("recovery.replayed_batches").inc(
            state.replayed_batches
        )
        metrics.counter("recovery.replayed_deltas").inc(state.replayed_deltas)
        metrics.histogram("recovery.recover_us").observe(
            (time.perf_counter() - started) * 1e6
        )
    return state


def resume_run(
    state: RecoveredState,
    max_cycles: int = 10_000,
    *,
    checkpoint_path: str | None = None,
    checkpoint_every: int = 0,
    checkpoint_bytes: int = 0,
    fsync_every: int | None = None,
    crashpoints=None,
    include_rete: bool = False,
) -> RunResult:
    """Finish a recovered run's recognize-act loop, continuing its log.

    The log's dead suffix is truncated, boundaries keep appending where
    the crashed run left off, and the writer is closed when the loop
    stops.  A run that had already halted returns immediately.
    """
    if state.halted:
        return RunResult(cycles=0, halted=True, exhausted=False, fired=[])
    kwargs = {} if fsync_every is None else {"fsync_every": fsync_every}
    run = DurableRun.resume(
        state,
        crashpoints=crashpoints,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
        checkpoint_bytes=checkpoint_bytes,
        include_rete=include_rete,
        **kwargs,
    )
    try:
        return run.run(max_cycles)
    finally:
        run.close()

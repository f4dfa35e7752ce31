"""DurableRun: the recognize-act loop with a write-ahead log attached.

Wraps a live :class:`~repro.engine.interpreter.ProductionSystem` so that

* setup (the initial working memory), every op-script position and every
  engine cycle ends in a *boundary* record — the §5 commit point, written
  after the maintenance process and always fsynced;
* the WM's committed delta batches stream into the same log between
  boundaries (via ``wm.wal``);
* a checkpoint is cut every N cycles or M durable log bytes.

Boundary records carry the run's *delta* state (this cycle's firings and
program output) plus the allocation marks (logical clock, per-relation
tid high-water) and resolver state needed to restart the loop
deterministically.  :mod:`repro.recovery.recover` folds them back up.
The run itself keeps no per-firing list: it keeps the fired count and a
chained digest of the boundaries' ``fired`` deltas, and each checkpoint
cut first prunes the refraction set down to its live keys, so a
checkpoint costs O(live state) however long the run has been going.
"""

from __future__ import annotations

import zlib

from repro.delta import DeltaBatch
from repro.engine.interpreter import ProductionSystem, RunResult
from repro.engine.resolution import SeededRandom
from repro.recovery.checkpoint import write_checkpoint
from repro.recovery.wal import (
    DEFAULT_FSYNC_EVERY,
    WalWriter,
    encode_fired,
    encode_key,
    fold_fired,
)


def program_crc(program_text: str) -> int:
    """Checksum binding checkpoints to the log's program text."""
    return zlib.crc32(program_text.encode("utf-8"))


class DurableRun:
    """One production-system run bound to one write-ahead log.

    Build with :meth:`start` (fresh log) or :meth:`resume` (continue the
    log a :func:`~repro.recovery.recover.recover` pass decided to keep).
    Callers drive the system through :meth:`run` (engine cycles) and
    :meth:`ops_boundary` (op-script commit points), then :meth:`close`;
    after a :class:`~repro.recovery.crashpoints.SimulatedCrash`, call
    :meth:`abandon` — the writer is already playing dead and nothing
    after the crash becomes durable.

    The fired history is held as :attr:`fired_count` and
    :attr:`fired_digest` (:func:`~repro.recovery.wal.fold_fired` over
    every boundary's wire-encoded ``fired`` delta); the firings
    themselves live only in the log's boundary records.
    """

    def __init__(
        self,
        system: ProductionSystem,
        writer: WalWriter,
        *,
        program_crc: int = 0,
        checkpoint_path: str | None = None,
        checkpoint_every: int = 0,
        checkpoint_bytes: int = 0,
        crashpoints=None,
        include_rete: bool = False,
    ) -> None:
        self.system = system
        self.writer = writer
        self.program_crc = program_crc
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = checkpoint_every
        self.checkpoint_bytes = checkpoint_bytes
        self.crashpoints = crashpoints
        self.include_rete = include_rete
        #: Run progress, advanced at each boundary.
        self.phase: str | None = None
        self.position = 0
        self.next_cycle = 1
        self.halted = False
        self.extra: dict = {}
        self.last_boundary_seq = 0
        self.fired_count = 0
        self.fired_digest = ""
        self._output_len = 0
        self._cycles_since_checkpoint = 0
        self._bytes_at_checkpoint = 0

    # -- construction ---------------------------------------------------------

    @classmethod
    def start(
        cls,
        system: ProductionSystem,
        wal_path: str,
        program_text: str,
        config: dict,
        *,
        fsync_every: int = DEFAULT_FSYNC_EVERY,
        crashpoints=None,
        checkpoint_path: str | None = None,
        checkpoint_every: int = 0,
        checkpoint_bytes: int = 0,
        include_rete: bool = False,
        extra: dict | None = None,
        wal_rotate_bytes: int = 0,
        group=None,
        meta_extra: dict | None = None,
        wal_tap=None,
    ) -> "DurableRun":
        """Open a fresh log for *system* and commit the setup boundary.

        *config* is the run configuration recovery needs to rebuild an
        identical system: ``strategy``, ``resolution``, ``backend`` and
        ``seed``.  The system's current WM
        (its initial elements were inserted before any log existed) is
        logged as the first batch record, so recovery replays it like any
        other committed batch.  *wal_rotate_bytes* > 0 turns on segment
        rotation (and compaction at each checkpoint); *group* defers
        boundary fsyncs to a shared
        :class:`~repro.recovery.wal.GroupCommit` barrier.  *meta_extra*
        merges additional keys (the serving epoch, say) into the meta
        record; recovery ignores keys it does not know.  *wal_tap* is
        installed as the writer's post-fsync tap
        (:mod:`repro.replica` log shipping) from the very first record.
        """
        meta = {"version": 1, "program": program_text, **config,
                **(meta_extra or {})}
        writer = WalWriter.create(
            wal_path,
            crashpoints=crashpoints,
            obs=system.obs,
            fsync_every=fsync_every,
            rotate_bytes=wal_rotate_bytes,
            wal_meta=meta,
            group=group,
            tap=wal_tap,
        )
        writer.append("meta", meta)
        rows = sorted(
            (
                wme
                for name in system.wm.schemas
                for wme in system.wm.tuples(name)
            ),
            key=lambda wme: wme.timetag,
        )
        if rows:
            writer.log_batch(DeltaBatch.of_inserts(rows))
        system.wm.wal = writer
        run = cls(
            system,
            writer,
            program_crc=program_crc(program_text),
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            checkpoint_bytes=checkpoint_bytes,
            crashpoints=crashpoints,
            include_rete=include_rete,
        )
        run._commit_boundary("setup", extra=extra)
        # Setup-time instantiations were recorded before the WAL existed;
        # stamp them with the setup boundary's sequence number so every
        # lineage in a wal-enabled run carries a durable reference point.
        recorder = getattr(system, "lineage_recorder", None)
        if recorder is not None:
            recorder.backfill_wal_seq()
        return run

    @classmethod
    def resume(
        cls,
        state,
        *,
        fsync_every: int = DEFAULT_FSYNC_EVERY,
        crashpoints=None,
        checkpoint_path: str | None = None,
        checkpoint_every: int = 0,
        checkpoint_bytes: int = 0,
        include_rete: bool = False,
        wal_rotate_bytes: int = 0,
        group=None,
    ) -> "DurableRun":
        """Continue a recovered run's log in place.

        *state* is a :class:`~repro.recovery.recover.RecoveredState`; the
        log's non-durable suffix is physically truncated before appending.
        """
        writer = WalWriter.continue_log(
            state.wal_path,
            state.durable_offset,
            state.next_seq,
            crashpoints=crashpoints,
            obs=state.system.obs,
            fsync_every=fsync_every,
            rotate_bytes=wal_rotate_bytes,
            wal_meta=state.meta,
            group=group,
            # An active file truncated to empty restarts its segment at
            # the next appended record, not at the pre-crash base.
            _segment_first_seq=(
                state.active_base_seq
                if state.durable_offset
                else state.next_seq
            ),
        )
        state.system.wm.wal = writer
        run = cls(
            state.system,
            writer,
            program_crc=program_crc(state.meta["program"]),
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            checkpoint_bytes=checkpoint_bytes,
            crashpoints=crashpoints,
            include_rete=include_rete,
        )
        run.phase = state.phase
        run.position = state.position
        run.next_cycle = state.cycle + 1
        run.halted = state.halted
        run.extra = dict(state.extra)
        run.last_boundary_seq = state.next_seq - 1
        run.fired_count = state.fired_count
        run.fired_digest = state.fired_digest
        run._output_len = len(state.system.output)
        run._bytes_at_checkpoint = writer.synced_bytes
        return run

    # -- boundaries -----------------------------------------------------------

    def _resolver_state(self):
        resolver = self.system.resolver
        return (
            list(resolver.getstate())
            if isinstance(resolver, SeededRandom)
            else None
        )

    def _commit_boundary(
        self,
        phase: str,
        fired_delta: list | None = None,
        position: int | None = None,
        extra: dict | None = None,
    ) -> int:
        """Write one fsynced boundary record (the commit point)."""
        if fired_delta:
            self.fired_count += len(fired_delta)
            self.fired_digest = fold_fired(self.fired_digest, fired_delta)
        self.phase = phase
        if position is not None:
            self.position = position
        if extra is not None:
            self.extra = extra
        output = self.system.output
        output_delta = [list(row) for row in output[self._output_len:]]
        self._output_len = len(output)
        body = {
            "phase": phase,
            "cycle": self.next_cycle - 1,
            "position": self.position,
            "fired": fired_delta or [],
            "output_delta": output_delta,
            "halted": self.halted,
            "clock": self.system.wm.catalog.clock.current,
            "tids": self.system.wm.tid_marks(),
            "resolver_state": self._resolver_state(),
            "extra": self.extra,
        }
        seq = self.writer.commit("boundary", body)
        self.last_boundary_seq = seq
        return seq

    def ops_boundary(self, position: int, extra: dict | None = None) -> int:
        """Commit an op-script position (external WM mutations since the
        previous boundary are durable once this returns)."""
        seq = self._commit_boundary("ops", position=position, extra=extra)
        self._maybe_checkpoint(count_cycle=False)
        return seq

    # -- the durable recognize-act loop ---------------------------------------

    def run(self, max_cycles: int = 10_000) -> RunResult:
        """Run engine cycles, committing a boundary after each one."""
        fired_records = []
        executed = 0
        for _ in range(max_cycles):
            if self.halted:
                break
            cycle = self.next_cycle
            record = self.system.step(cycle)
            if record is None:
                return RunResult(
                    cycles=executed,
                    halted=False,
                    exhausted=False,
                    fired=fired_records,
                )
            executed += 1
            self.next_cycle += 1
            fired_records.append(record)
            instantiation = record.instantiation
            delta = [
                encode_fired(
                    (cycle, instantiation.rule_name, instantiation.key)
                )
            ]
            self.halted = record.outcome.halted
            self._commit_boundary("cycle", fired_delta=delta)
            self._cycles_since_checkpoint += 1
            self._maybe_checkpoint()
            if self.halted:
                break
        return RunResult(
            cycles=executed,
            halted=self.halted,
            exhausted=not self.halted and executed == max_cycles,
            fired=fired_records,
        )

    def run_txn(self, max_rounds: int = 100, scheduler=None) -> list:
        """§5.2 concurrent rounds under the WAL, one boundary per round.

        Mirrors the oracle's txn replay: each round drains one
        conflict-set snapshot through a
        :class:`~repro.txn.scheduler.ConcurrentScheduler` (whose
        group-commit sync makes the round's batches durable), then a
        ``"round"`` boundary commits the round's fired keys.  Returns the
        per-round stats; round numbering continues across recovery.
        """
        if scheduler is None:
            from repro.txn.scheduler import ConcurrentScheduler

            scheduler = ConcurrentScheduler(self.system)
        rounds = []
        for _ in range(max_rounds):
            round_no = self.next_cycle
            stats = scheduler.run_round()
            if stats.transactions == 0:
                break
            self.next_cycle += 1
            delta = [
                encode_fired((round_no, key[0], key))
                for key in stats.committed_seq
            ]
            self._commit_boundary("round", fired_delta=delta)
            self._cycles_since_checkpoint += 1
            self._maybe_checkpoint()
            rounds.append(stats)
        return rounds

    # -- checkpoints ----------------------------------------------------------

    def _state_snapshot(self) -> dict:
        """The run state as a checkpoint stores it: progress, output, and
        the fired history as count, digest and live refraction keys."""
        return {
            "phase": self.phase,
            "cycle": self.next_cycle - 1,
            "position": self.position,
            "fired_count": self.fired_count,
            "fired_digest": self.fired_digest,
            "fired_keys": [
                encode_key(key) for key in sorted(self.system.refraction_keys)
            ],
            "output": [list(row) for row in self.system.output],
            "halted": self.halted,
            "resolver_state": self._resolver_state(),
            "extra": self.extra,
        }

    def _maybe_checkpoint(self, count_cycle: bool = True) -> None:
        if self.checkpoint_path is None:
            return
        due = (
            count_cycle
            and self.checkpoint_every > 0
            and self._cycles_since_checkpoint >= self.checkpoint_every
        ) or (
            self.checkpoint_bytes > 0
            and self.writer.synced_bytes - self._bytes_at_checkpoint
            >= self.checkpoint_bytes
        )
        if due:
            self.checkpoint_now()

    def checkpoint_now(self) -> dict | None:
        """Cut a checkpoint at the last committed boundary."""
        if self.checkpoint_path is None:
            return None
        self.system.prune_refraction()
        body = write_checkpoint(
            self.system,
            self.checkpoint_path,
            wal_seq=self.last_boundary_seq,
            state=self._state_snapshot(),
            program_crc=self.program_crc,
            crashpoints=self.crashpoints,
            obs=self.system.obs,
            include_rete=self.include_rete,
        )
        if body is not None:
            self._cycles_since_checkpoint = 0
            self._bytes_at_checkpoint = self.writer.synced_bytes
            # The checkpoint supersedes every record up to its wal_seq;
            # archived segments fully below it carry no recovery value.
            self.writer.compact(self.last_boundary_seq)
        return body

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Detach the log and close it cleanly (final sync included)."""
        if self.system.wm.wal is self.writer:
            self.system.wm.wal = None
        self.writer.close()

    def abandon(self) -> None:
        """Detach and drop unsynced records — the simulated process died."""
        if self.system.wm.wal is self.writer:
            self.system.wm.wal = None
        self.writer.abandon()

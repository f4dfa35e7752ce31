"""Durable runs end to end: crash, recover, resume, and edge cases."""

import json
import zlib

import pytest

from repro.engine import ProductionSystem
from repro.errors import RecoveryError
from repro.recovery import (
    CheckpointError,
    Crashpoints,
    DurableRun,
    SimulatedCrash,
    load_checkpoint,
    recover,
    resume_run,
)
from repro.recovery.wal import encode_fired, fold_fired

PROGRAM = """
(literalize counter n)
(literalize limit max)
(p bump
    (counter ^n <x>)
    (limit ^max > <x>)
    -->
    (modify 1 ^n (compute <x> + 1))
    (write (compute <x> + 1)))
(p stop
    (counter ^n <x>)
    (limit ^max <x>)
    -->
    (halt))
(make counter ^n 0)
(make limit ^max 5)
"""

BACKENDS = ("memory", "sqlite")


def config(backend="memory", **overrides):
    base = {
        "strategy": "rete",
        "resolution": "lex",
        "backend": backend,
        "seed": 0,
    }
    base.update(overrides)
    return base


def build(backend="memory", **overrides):
    cfg = config(backend, **overrides)
    return ProductionSystem(
        PROGRAM,
        strategy=cfg["strategy"],
        resolution=cfg["resolution"],
        backend=cfg["backend"],
        seed=cfg["seed"],
    ), cfg


def wm_rows(system):
    return {
        name: sorted(
            (wme.tid, wme.timetag, wme.values)
            for wme in system.wm.tuples(name)
        )
        for name in system.wm.schemas
    }


def fired_triples(records):
    return [
        (r.cycle, r.instantiation.rule_name, r.instantiation.key)
        for r in records
    ]


def fired_fold(triples, count=0, digest=""):
    """The (count, digest) a durable run keeps for *triples* appended to
    a history of *count* firings with *digest*."""
    return (
        count + len(triples),
        fold_fired(digest, [encode_fired(t) for t in triples]),
    )


def reference(backend="memory", **overrides):
    system, _ = build(backend, **overrides)
    result = system.run()
    return {
        "output": list(system.output),
        "wm": wm_rows(system),
        "fired": fired_triples(result.fired),
        "halted": result.halted,
    }


@pytest.mark.parametrize("backend", BACKENDS)
class TestCrashRecoverResume:
    def test_resumed_run_matches_uninterrupted(self, tmp_path, backend):
        expected = reference(backend)
        wal = str(tmp_path / "run.wal")
        crashpoints = Crashpoints()
        crashpoints.arm("commit.pre", after=3)  # mid-run boundary
        system, cfg = build(backend)
        run = DurableRun.start(
            system, wal, PROGRAM, cfg, crashpoints=crashpoints
        )
        with pytest.raises(SimulatedCrash):
            run.run()
        run.abandon()

        state = recover(wal)
        assert state.cycle >= 1  # some progress survived
        result = resume_run(state)
        assert result.halted
        resumed = state.system
        assert list(resumed.output) == expected["output"]
        assert wm_rows(resumed) == expected["wm"]
        assert fired_fold(
            fired_triples(result.fired),
            state.fired_count,
            state.fired_digest,
        ) == fired_fold(expected["fired"])

    def test_checkpoint_fast_path_matches_full_replay(self, tmp_path, backend):
        expected = reference(backend)
        wal = str(tmp_path / "run.wal")
        ckpt = str(tmp_path / "run.ckpt")
        crashpoints = Crashpoints()
        crashpoints.arm("wal.pre_sync", after=5)
        system, cfg = build(backend)
        run = DurableRun.start(
            system, wal, PROGRAM, cfg,
            crashpoints=crashpoints,
            checkpoint_path=ckpt,
            checkpoint_every=2,
            include_rete=True,
        )
        with pytest.raises(SimulatedCrash):
            run.run()
        run.abandon()

        with_ckpt = recover(wal, ckpt)
        assert with_ckpt.checkpoint_used
        without = recover(wal)
        assert not without.checkpoint_used
        assert wm_rows(with_ckpt.system) == wm_rows(without.system)
        assert (with_ckpt.fired_count, with_ckpt.fired_digest) == (
            without.fired_count, without.fired_digest
        )
        assert with_ckpt.fired_keys == without.fired_keys

        result = resume_run(with_ckpt, checkpoint_path=ckpt)
        assert result.halted
        assert list(with_ckpt.system.output) == expected["output"]
        assert wm_rows(with_ckpt.system) == expected["wm"]

    def test_ghost_tids_and_timetags_survive_recovery(self, tmp_path, backend):
        """A netted insert+delete consumes a tid and a timetag without ever
        touching storage; a resumed run must not re-issue them."""
        wal = str(tmp_path / "run.wal")
        system, cfg = build(backend)
        run = DurableRun.start(system, wal, PROGRAM, cfg)
        with system.wm.batch():
            ghost = system.wm.insert("counter", (77,))
            system.wm.remove(ghost)
        run.ops_boundary(1)
        keeper = system.wm.insert("counter", (88,))
        run.ops_boundary(2)
        run.close()

        state = recover(wal)
        fresh = state.system.wm.insert("counter", (99,))
        assert fresh.tid not in (ghost.tid, keeper.tid)
        assert fresh.tid > keeper.tid > ghost.tid
        assert fresh.timetag > keeper.timetag


class TestRecoveryRefusals:
    def test_log_without_a_boundary_is_unrecoverable(self, tmp_path):
        wal = str(tmp_path / "run.wal")
        crashpoints = Crashpoints()
        crashpoints.arm("commit.pre", after=1)  # die at the setup boundary
        system, cfg = build()
        with pytest.raises(SimulatedCrash):
            DurableRun.start(system, wal, PROGRAM, cfg, crashpoints=crashpoints)
        with pytest.raises(RecoveryError):
            recover(wal)

    def test_checkpoint_from_another_program_refused(self, tmp_path):
        wal = str(tmp_path / "run.wal")
        ckpt = str(tmp_path / "run.ckpt")
        system, cfg = build()
        run = DurableRun.start(
            system, wal, PROGRAM, cfg, checkpoint_path=ckpt,
            checkpoint_every=1,
        )
        run.run()
        run.close()
        # Rewrite the checkpoint's program binding (with a fresh crc, so
        # only the cross-check against the log can catch it).
        body = load_checkpoint(ckpt)
        body["program_crc"] = body["program_crc"] ^ 1
        payload = json.dumps(body, sort_keys=True, separators=(",", ":"))
        with open(ckpt, "w", encoding="utf-8") as handle:
            json.dump(
                {"body": body, "crc": zlib.crc32(payload.encode("utf-8"))},
                handle,
            )
        with pytest.raises(CheckpointError):
            recover(wal, ckpt)

    def test_checkpoint_newer_than_log_refused(self, tmp_path):
        """A checkpoint pointing past the durable log (e.g. the log was
        restored from an older backup) must be refused, not trusted."""
        wal = str(tmp_path / "run.wal")
        ckpt = str(tmp_path / "run.ckpt")
        system, cfg = build()
        run = DurableRun.start(
            system, wal, PROGRAM, cfg, checkpoint_path=ckpt,
            checkpoint_every=1,
        )
        run.run()
        run.close()
        body = load_checkpoint(ckpt)
        body["wal_seq"] = body["wal_seq"] + 1000
        payload = json.dumps(body, sort_keys=True, separators=(",", ":"))
        with open(ckpt, "w", encoding="utf-8") as handle:
            json.dump(
                {"body": body, "crc": zlib.crc32(payload.encode("utf-8"))},
                handle,
            )
        with pytest.raises(CheckpointError):
            recover(wal, ckpt)


class TestLifecycle:
    def test_double_recovery_of_a_finished_log(self, tmp_path):
        wal = str(tmp_path / "run.wal")
        expected = reference()
        system, cfg = build()
        run = DurableRun.start(system, wal, PROGRAM, cfg)
        result = run.run()
        assert result.halted
        run.close()

        first = recover(wal)
        assert first.halted
        assert resume_run(first).cycles == 0  # nothing left to do
        second = recover(wal)  # recovery itself must be repeatable
        assert second.halted
        assert wm_rows(second.system) == expected["wm"]
        assert list(second.system.output) == expected["output"]
        assert (second.fired_count, second.fired_digest) == fired_fold(
            expected["fired"]
        )

    @staticmethod
    def crash_and_recover_with_meta(tmp_path, meta, body=None):
        """Crash a run whose meta record carries *meta*, and whose cycle
        boundaries and checkpoints carry *body*; check the recovered
        system equals a twin that never saw those keys, and that it
        resumes to the reference state."""
        wal = str(tmp_path / "run.wal")
        ckpt = str(tmp_path / "run.ckpt") if body else None
        crashpoints = Crashpoints()
        crashpoints.arm("commit.pre", after=3)
        system, cfg = build(**meta)
        run = DurableRun.start(
            system, wal, PROGRAM, cfg, crashpoints=crashpoints,
            checkpoint_path=ckpt, checkpoint_every=1,
        )
        if body:
            commit, snapshot = run.writer.commit, run._state_snapshot
            run.writer.commit = lambda kind, record: commit(
                kind, {**record, **body} if kind == "boundary" else record
            )
            run._state_snapshot = lambda: {**snapshot(), **body}
        with pytest.raises(SimulatedCrash):
            run.run()
        run.abandon()

        state = recover(wal, ckpt)
        assert state.checkpoint_used == bool(body)
        for key, value in meta.items():
            assert state.meta[key] == value
        twin, _ = build()
        twin.run(max_cycles=state.cycle)
        assert wm_rows(state.system) == wm_rows(twin)
        assert (
            state.system.strategy.conflict_set_keys()
            == twin.strategy.conflict_set_keys()
        )
        resume_run(state)
        assert wm_rows(state.system) == reference()["wm"]

    def test_meta_with_a_workers_count_still_recovers(self, tmp_path):
        """Older builds recorded a match worker count in the meta record;
        such a log recovers onto the one serial match path."""
        self.crash_and_recover_with_meta(tmp_path, {"workers": 4})

    def test_meta_with_a_firing_mode_still_recovers(self, tmp_path):
        """Older builds recorded ``"firing": "instance"`` in the meta
        record; recovery ignores the key (one firing per cycle is the
        only Act granularity)."""
        self.crash_and_recover_with_meta(tmp_path, {"firing": "instance"})

    @pytest.mark.parametrize("mode", ["off", "on", "auto"])
    def test_meta_with_a_compile_mode_still_recovers(self, tmp_path, mode):
        """Older builds recorded a match-compilation mode in the meta
        record; recovery ignores it, so even an ``"off"`` log recovers
        onto the one compiled match path."""
        self.crash_and_recover_with_meta(tmp_path, {"compile": mode})

    @pytest.mark.parametrize("batch_size", [8, "auto"])
    def test_act_batching_keys_still_recover(self, tmp_path, batch_size):
        """Older builds recorded an act batch size in the meta record and
        the tuner's size in every boundary and checkpoint; recovery
        ignores both (the act phase is tuple-at-a-time)."""
        self.crash_and_recover_with_meta(
            tmp_path, {"batch_size": batch_size}, {"auto_batch_size": 16}
        )

    @pytest.mark.parametrize("checkpointed", [False, True])
    def test_a_logged_nan_is_refused_naming_the_record(
        self, tmp_path, monkeypatch, checkpointed
    ):
        """Logs written before NaN was refused may hold one.  Recovery
        refuses such a log with a RecoveryError naming the log record (or
        a CheckpointError naming the checkpoint), not a bare SchemaError
        from deep inside the replay."""
        monkeypatch.setattr(
            "repro.storage.schema.check_value", lambda value: value
        )
        wal = str(tmp_path / "run.wal")
        ckpt = str(tmp_path / "run.ckpt") if checkpointed else None
        system, cfg = build()
        run = DurableRun.start(
            system, wal, PROGRAM, cfg, checkpoint_path=ckpt
        )
        system.insert("limit", (float("nan"),))
        seq = run.ops_boundary(1)
        if checkpointed:
            run.checkpoint_now()
        run.close()
        monkeypatch.undo()
        if checkpointed:
            with pytest.raises(CheckpointError, match=r"run\.ckpt.*NaN"):
                recover(wal, ckpt)
        else:
            with pytest.raises(
                RecoveryError, match=rf"run\.wal.*boundary seq {seq}.*NaN"
            ):
                recover(wal)

    def test_wal_attachment_changes_nothing(self, tmp_path):
        expected = reference()
        system, cfg = build()
        run = DurableRun.start(
            system, str(tmp_path / "run.wal"), PROGRAM, cfg
        )
        result = run.run()
        run.close()
        assert result.halted
        assert list(system.output) == expected["output"]
        assert wm_rows(system) == expected["wm"]
        assert fired_triples(result.fired) == expected["fired"]

    def test_txn_scheduler_commits_flow_into_the_wal(self, tmp_path):
        """§5 commit points: each concurrent firing's RHS flushes
        through ``wm.batch()``, so an attached WAL records one batch per
        committed transaction with no txn-layer changes."""
        from repro.txn import ConcurrentScheduler

        source = """
(literalize Seed x)
(literalize Done x)
(p promote (Seed ^x <v>) --> (remove 1) (make Done ^x <v>))
"""
        system = ProductionSystem(source)
        for i in range(3):
            system.insert("Seed", (i,))
        run = DurableRun.start(
            system,
            str(tmp_path / "txn.wal"),
            source,
            config(strategy="patterns"),
        )
        ConcurrentScheduler(system).run()
        run.ops_boundary(0)
        run.close()

        state = recover(str(tmp_path / "txn.wal"))
        assert state.replayed_batches >= 3  # setup + one per commit
        assert wm_rows(state.system) == wm_rows(system)

"""TenantSession units: drain rounds, exactly-once marks, group commit,
checkpoint cadence, and crash recovery — no sockets, no event loop."""

import os

import pytest

from repro.obs import Observability
from repro.recovery.wal import GroupCommit, read_wal_chain
from repro.serve.protocol import parse_request
from repro.serve.registry import SessionRegistry
from repro.serve.session import (
    TenantSession,
    checkpoint_path,
    wal_path,
)

PROGRAM = """
(literalize ev n)
(literalize acc total count)
(p absorb
    (ev ^n <n>)
    (acc ^total <t> ^count <c>)
    -->
    (modify 2 ^total (compute <t> + <n>) ^count (compute <c> + 1))
    (remove 1))
"""


def request(**body):
    import json

    return parse_request(json.dumps(body))


def make_session(tmp_path, name="t1", group=None, obs=None, **kwargs):
    registry = SessionRegistry()
    pack = registry.pack_for(PROGRAM)
    session = TenantSession.start(
        name, pack, str(tmp_path), group=group, obs=obs, **kwargs
    )
    return session, registry


class TestDrain:
    def test_applies_ops_commits_and_fires(self, tmp_path):
        group = GroupCommit()
        session, _ = make_session(tmp_path, group=group)
        session.enqueue(request(op="insert", tenant="t1", seq=1,
                                relation="acc",
                                values={"total": 0, "count": 0}))
        session.enqueue(request(op="insert", tenant="t1", seq=2,
                                relation="ev", values={"n": 5}))
        acks = session.drain()
        group.flush()
        assert [body["seq"] for _, body, _ in acks] == [1, 2]
        assert all(body["ok"] for _, body, _ in acks)
        assert session.applied_seq == 2
        assert session.position == 2
        # the event was absorbed into the accumulator and removed
        assert session.query("ev") == []
        [[_, _, values]] = session.query("acc")
        assert values == [5, 1]
        session.close()

    def test_drain_without_work_is_a_no_op(self, tmp_path):
        session, _ = make_session(tmp_path)
        assert session.drain() == []
        assert session.rounds == 0
        session.close()

    def test_deterministic_error_consumes_the_seq(self, tmp_path):
        """A failed op is exactly-once too: replay fails identically, so
        the seq advances and the error rides the ack."""
        session, _ = make_session(tmp_path)
        session.enqueue(request(op="insert", tenant="t1", seq=1,
                                relation="no-such-relation",
                                values={"n": 1}))
        session.enqueue(request(op="delete", tenant="t1", seq=2,
                                relation="ev", tid=999))
        acks = session.drain()
        assert [body["ok"] for _, body, _ in acks] == [False, False]
        assert all("error" in body for _, body, _ in acks)
        assert session.applied_seq == 2
        session.close()

    def test_modify_filters_to_schema_attributes(self, tmp_path):
        session, _ = make_session(tmp_path)
        session.enqueue(request(op="insert", tenant="t1", seq=1,
                                relation="ev", values={"n": 1}))
        acks = session.drain()
        tid = acks[0][1]["tid"]
        session.enqueue(request(op="modify", tenant="t1", seq=2,
                                relation="ev", tid=tid,
                                changes={"n": 9, "bogus": 1}))
        acks = session.drain()
        assert acks[0][1]["ok"], acks
        session.enqueue(request(op="modify", tenant="t1", seq=3,
                                relation="ev", tid=tid,
                                changes={"bogus": 1}))
        acks = session.drain()
        assert not acks[0][1]["ok"]
        assert session.applied_seq == 3
        session.close()


class TestGroupCommit:
    def test_one_flush_covers_every_tenant(self, tmp_path):
        """The cross-tenant fsync barrier: two sessions drain, their
        boundaries enlist, one flush makes both durable."""
        obs = Observability(collect_metrics=True)
        group = GroupCommit(obs)
        registry = SessionRegistry()
        pack = registry.pack_for(PROGRAM)
        sessions = [
            TenantSession.start(name, pack, str(tmp_path), group=group,
                                obs=obs)
            for name in ("t1", "t2")
        ]
        group.flush()  # the setup boundaries
        for i, session in enumerate(sessions):
            session.enqueue(request(op="insert", tenant=session.name,
                                    seq=1, relation="ev",
                                    values={"n": i + 1}))
            session.drain()
        assert group.pending == 2
        flushes_before = group.flushes
        assert group.flush() == 2
        assert group.flushes == flushes_before + 1
        counters = obs.metrics.snapshot()["counters"]
        assert counters["serve.group_commits"] == group.flushes
        assert counters["serve.group_commit_members"] >= 4  # setup + round
        for session in sessions:
            session.close()

    def test_unflushed_boundaries_are_not_durable(self, tmp_path):
        """What the ack-after-flush rule protects against: before the
        flush the boundary may not be on disk yet."""
        group = GroupCommit()
        session, _ = make_session(tmp_path, group=group)
        group.flush()
        session.enqueue(request(op="insert", tenant="t1", seq=1,
                                relation="ev", values={"n": 1}))
        session.drain()
        assert group.pending == 1
        group.flush()
        chain = read_wal_chain(wal_path(tmp_path, "t1"))
        phases = [
            record.body.get("phase")
            for record in chain.records
            if record.kind == "boundary"
        ]
        assert "ops" in phases
        session.close()


class TestCheckpointCadence:
    def test_checkpoints_every_n_rounds(self, tmp_path):
        group = GroupCommit()
        session, _ = make_session(tmp_path, group=group,
                                  checkpoint_rounds=2)
        ckpt = checkpoint_path(tmp_path, "t1")
        for seq in (1, 2, 3):
            session.enqueue(request(op="insert", tenant="t1", seq=seq,
                                    relation="ev", values={"n": seq}))
            session.drain()
            group.flush()
            session.maybe_checkpoint()
        assert os.path.exists(ckpt)
        assert session._rounds_since_checkpoint == 1  # 3 rounds, cut at 2
        assert session.maybe_checkpoint(force=True)
        assert session._rounds_since_checkpoint == 0
        session.close()


class TestRecovery:
    def test_kill9_then_recover_restores_the_marks(self, tmp_path):
        group = GroupCommit()
        session, _ = make_session(tmp_path, group=group)
        group.flush()
        session.enqueue(request(op="insert", tenant="t1", seq=1,
                                relation="acc",
                                values={"total": 0, "count": 0}))
        session.enqueue(request(op="insert", tenant="t1", seq=2,
                                relation="ev", values={"n": 7}))
        session.drain()
        group.flush()
        reference = session.query("acc")
        session.run.abandon()  # kill -9: no close, no final sync

        registry = SessionRegistry()
        revived = TenantSession.recover_from_disk(
            "t1", str(tmp_path), registry, group=GroupCommit()
        )
        assert revived.recovered is True
        assert revived.applied_seq == 2
        assert revived.position == 2
        assert revived.query("acc") == reference
        assert revived.query("ev") == []
        revived.close()

    def test_recovered_session_shares_the_registry_pack(self, tmp_path):
        group = GroupCommit()
        session, _ = make_session(tmp_path, group=group)
        group.flush()
        session.run.abandon()
        registry = SessionRegistry()
        pre_interned = registry.pack_for(PROGRAM)
        revived = TenantSession.recover_from_disk(
            "t1", str(tmp_path), registry, group=GroupCommit()
        )
        assert revived.pack is pre_interned
        revived.close()


class TestStatsAndQuery:
    def test_stats_shape(self, tmp_path):
        session, _ = make_session(tmp_path)
        stats = session.stats()
        for key in ("tenant", "applied_seq", "position", "cycles", "fired",
                    "wm_size", "queue_depth", "recovered", "pack_crc",
                    "wal_last_seq", "wal_rotations", "halted"):
            assert key in stats, key
        assert stats["tenant"] == "t1"
        assert stats["recovered"] is False
        session.close()

    def test_fired_count_survives_a_checkpoint_and_a_restart(self,
                                                             tmp_path):
        """``stats()["fired"]`` is the durable run's fired count: right
        before and after a forced checkpoint, and after a kill -9 whose
        recovery reads the checkpoint plus the log suffix past it."""
        group = GroupCommit()
        session, _ = make_session(tmp_path, group=group)
        session.enqueue(request(op="insert", tenant="t1", seq=1,
                                relation="acc",
                                values={"total": 0, "count": 0}))
        for seq in (2, 3, 4):
            session.enqueue(request(op="insert", tenant="t1", seq=seq,
                                    relation="ev", values={"n": seq}))
            session.drain()
            group.flush()
        assert session.stats()["fired"] == 3
        assert session.maybe_checkpoint(force=True)
        assert session.stats()["fired"] == 3
        session.enqueue(request(op="insert", tenant="t1", seq=5,
                                relation="ev", values={"n": 5}))
        session.drain()
        group.flush()
        assert session.stats()["fired"] == 4
        digest = session.run.fired_digest
        session.run.abandon()  # kill -9

        revived = TenantSession.recover_from_disk(
            "t1", str(tmp_path), SessionRegistry(), group=GroupCommit()
        )
        assert revived.stats()["fired"] == 4
        assert revived.run.fired_digest == digest
        revived.close()

    def test_query_unknown_relation_raises(self, tmp_path):
        session, _ = make_session(tmp_path)
        with pytest.raises(Exception):
            session.query("nope")
        session.close()

"""The sans-io replication core: shipper framing, follower catch-up,
bit-equivalence with recovery, and fencing — no sockets involved.

A real :class:`~repro.recovery.session.DurableRun` plays the primary;
its WAL tap feeds a :class:`~repro.replica.shipper.LogShipper`, whose
frames drive a :class:`~repro.replica.follower.FollowerState` exactly
like the server's ship rounds do.  The follower's promoted state must
be bit-identical (WM rows, Rete conflict set, firings, output) to what
``recover()`` of the primary's own log produces.
"""

import json
import os

import pytest

from repro.engine import ProductionSystem
from repro.recovery import DurableRun, recover
from repro.recovery.wal import _crc
from repro.replica import (
    FencedError,
    FollowerState,
    FollowerTenant,
    LogShipper,
    ReplicationError,
)

PROGRAM = """
(literalize counter n)
(literalize limit max)
(p bump
    (counter ^n <x>)
    (limit ^max > <x>)
    -->
    (modify 1 ^n (compute <x> + 1))
    (write (compute <x> + 1)))
(make counter ^n 0)
(make limit ^max 5)
"""

CFG = {"strategy": "rete", "resolution": "lex", "backend": "memory",
       "seed": 0}


def wm_rows(system):
    return {
        name: sorted((w.tid, w.timetag, w.values)
                     for w in system.wm.tuples(name))
        for name in system.wm.schemas
    }


def cs_keys(system):
    return sorted(system.strategy.conflict_set_keys())


def start_primary(wal_path, tap=None):
    system = ProductionSystem(PROGRAM, **CFG)
    return DurableRun.start(
        system, str(wal_path), PROGRAM, CFG, fsync_every=1, wal_tap=tap
    )


def drive(run):
    """The reference workload: cycles, an ops boundary, more cycles,
    then un-boundaried debris a crash would leave behind."""
    run.run(max_cycles=5)
    run.system.wm.insert("limit", {"max": 9})
    run.ops_boundary(position=1)
    run.run(max_cycles=2)
    run.system.wm.insert("limit", {"max": 11})
    run.abandon()


def assert_equivalent(state, reference):
    assert state.next_seq == reference.next_seq
    assert wm_rows(state.system) == wm_rows(reference.system)
    assert cs_keys(state.system) == cs_keys(reference.system)
    assert (state.fired_count, state.fired_digest) == (
        reference.fired_count, reference.fired_digest
    )
    assert state.fired_keys == reference.fired_keys
    assert state.extra == reference.extra
    assert list(state.system.output) == list(reference.system.output)
    assert state.phase == reference.phase
    assert state.halted == reference.halted


class TestShipperCore:
    def test_tap_tracks_tips_without_buffering_when_unattached(self,
                                                               tmp_path):
        shipper = LogShipper()
        run = start_primary(tmp_path / "t.wal", tap=shipper.tap_for("t"))
        drive(run)
        assert shipper.tips["t"] > 0
        assert shipper._pending == {}

    def test_round_frames_drain_pending_and_end_with_commit(self,
                                                            tmp_path):
        shipper = LogShipper()
        shipper.attach(object())
        run = start_primary(tmp_path / "t.wal", tap=shipper.tap_for("t"))
        drive(run)
        frames = shipper.round_frames()
        assert [f["frame"] for f in frames] == ["records", "commit"]
        records = frames[0]["records"]
        assert records[0]["seq"] == 1 and records[0]["kind"] == "meta"
        assert frames[1]["tips"] == {"t": shipper.tips["t"]}
        # drained: a second round ships nothing new, just the barrier
        assert [f["frame"] for f in shipper.round_frames()] == ["commit"]

    def test_shipped_records_are_exactly_the_durable_log(self, tmp_path):
        """The tap fires after fsync: what ships is exactly what is on
        disk — never an unsynced buffer, never a truncated prefix."""
        wal = tmp_path / "t.wal"
        shipper = LogShipper()
        shipper.attach(object())
        run = start_primary(wal, tap=shipper.tap_for("t"))
        drive(run)
        [records_frame, _] = shipper.round_frames()
        shipped = [r["seq"] for r in records_frame["records"]]
        with open(wal, encoding="utf-8") as fh:
            on_disk = [json.loads(line)["seq"] for line in fh]
        assert shipped == on_disk
        assert shipper.tips["t"] == on_disk[-1]

    def test_second_attach_refused(self):
        shipper = LogShipper()
        shipper.attach(object())
        with pytest.raises(RuntimeError, match="already attached"):
            shipper.attach(object())

    def test_mark_degraded_detaches_and_counts(self):
        shipper = LogShipper()
        shipper.attach(object())
        shipper.on_sync("t", 1, ['{"seq":1}\n'])
        shipper.mark_degraded()
        assert shipper.link is None
        assert shipper.degraded == 1
        assert shipper._pending == {}

    def test_handle_ack_records_follower_positions(self):
        shipper = LogShipper()
        shipper.handle_ack({"frame": "ack", "epoch": 1,
                            "applied": {"t": 9}, "lag_records": 0})
        assert shipper.follower_acked == {"t": 9}
        assert shipper.round_acks == 1


class TestFollowerEquivalence:
    def test_live_stream_matches_recovery_of_primary_log(self, tmp_path):
        wal = tmp_path / "t.wal"
        follower = FollowerState(str(tmp_path / "f"), epoch=1)
        shipper = LogShipper(epoch=1)
        shipper.attach(object())
        run = start_primary(wal, tap=shipper.tap_for("t"))
        drive(run)
        for frame in shipper.round_frames():
            ack = follower.handle_frame(frame)
        assert ack is not None and ack["frame"] == "ack"

        [state] = follower.pop_states().values()
        assert_equivalent(state, recover(str(wal)))

    def test_follower_local_log_is_itself_recoverable(self, tmp_path):
        wal = tmp_path / "t.wal"
        follower = FollowerState(str(tmp_path / "f"), epoch=1)
        run = start_primary(
            wal,
            tap=lambda _first, lines: follower.ingest_lines(
                "t", list(lines)
            ),
        )
        drive(run)
        state = follower.pop_states()["t"]
        assert_equivalent(recover(state.wal_path), recover(str(wal)))

    def test_restarted_follower_promotes_to_the_primary_state(self,
                                                              tmp_path):
        """A follower resumed from its own files (a standby restart) and
        then promoted restores the program output once, not twice."""
        wal = tmp_path / "t.wal"
        local = tmp_path / "f"
        follower = FollowerState(str(local), epoch=1)
        run = start_primary(
            wal,
            tap=lambda _first, lines: follower.ingest_lines(
                "t", list(lines)
            ),
        )
        run.run(max_cycles=3)
        follower.tenants["t"].close()
        restarted = FollowerState(str(local), epoch=1)
        restarted.tenants["t"] = FollowerTenant.from_state(
            "t", str(local), recover(str(local / "t.wal"))
        )
        run.writer.tap = lambda _first, lines: restarted.ingest_lines(
            "t", list(lines)
        )
        drive(run)
        [state] = restarted.pop_states().values()
        assert list(state.system.output) == [(n,) for n in range(1, 8)]
        assert_equivalent(state, recover(str(wal)))

    def test_snapshot_catchup_matches_live_stream(self, tmp_path):
        """A follower that attaches after the fact bootstraps from one
        snapshot frame and lands on the same state."""
        wal = tmp_path / "t.wal"
        shipper = LogShipper(epoch=1)
        run = start_primary(wal, tap=shipper.tap_for("t"))
        drive(run)

        frame = shipper.snapshot_frame("t", str(wal), None, have_seq=0)
        assert frame["frame"] == "snapshot" and frame["base_seq"] == 0
        follower = FollowerState(str(tmp_path / "f"), epoch=1)
        follower.handle_frame(frame)
        follower.handle_frame(
            {"frame": "commit", "epoch": 1, "tips": dict(shipper.tips)}
        )
        [state] = follower.pop_states().values()
        assert_equivalent(state, recover(str(wal)))

    def test_snapshot_overlap_after_partial_have_is_deduped(self,
                                                            tmp_path):
        """Reconnect: the follower already holds a prefix; the snapshot
        re-ships from its have seq and duplicates are ignored."""
        wal = tmp_path / "t.wal"
        follower = FollowerState(str(tmp_path / "f"), epoch=1)
        shipper = LogShipper(epoch=1)
        shipper.attach(object())
        run = start_primary(wal, tap=shipper.tap_for("t"))
        run.run(max_cycles=3)
        for frame in shipper.round_frames():
            follower.handle_frame(frame)
        have = follower.have()["t"]
        assert have > 0

        run.run(max_cycles=4)
        run.abandon()
        # Reconnect handshake: snapshot anchored on the follower's have,
        # then the commit barrier.
        shipper.detach()
        shipper.attach(object())
        frame = shipper.snapshot_frame("t", str(wal), None, have_seq=have)
        follower.handle_frame(frame)
        follower.handle_frame(
            {"frame": "commit", "epoch": 1, "tips": dict(shipper.tips)}
        )
        [state] = follower.pop_states().values()
        assert_equivalent(state, recover(str(wal)))


class TestFollowerSafety:
    def ship_all(self, tmp_path, follower):
        wal = tmp_path / "t.wal"
        run = start_primary(
            wal,
            tap=lambda _first, lines: follower.ingest_lines(
                "t", list(lines)
            ),
        )
        drive(run)
        return str(wal)

    def test_duplicate_records_are_ignored(self, tmp_path):
        follower = FollowerState(str(tmp_path / "f"), epoch=1)
        wal = self.ship_all(tmp_path, follower)
        tenant = follower.tenants["t"]
        before = tenant.received_seq
        with open(wal, encoding="utf-8") as fh:
            lines = fh.readlines()
        follower.ingest_lines("t", lines[:3])  # a reconnect overlap
        assert tenant.received_seq == before
        [state] = follower.pop_states().values()
        assert_equivalent(state, recover(wal))

    def test_sequence_gap_raises(self, tmp_path):
        follower = FollowerState(str(tmp_path / "f"), epoch=1)
        self.ship_all(tmp_path, follower)
        tenant = follower.tenants["t"]
        gap_seq = tenant.received_seq + 5
        body = {"position": 0}
        with pytest.raises(ReplicationError, match="jumped"):
            tenant.receive(gap_seq, "boundary", body,
                           _crc(gap_seq, "boundary", body))

    def test_crc_mismatch_raises(self, tmp_path):
        follower = FollowerState(str(tmp_path / "f"), epoch=1)
        self.ship_all(tmp_path, follower)
        tenant = follower.tenants["t"]
        seq = tenant.received_seq + 1
        with pytest.raises(ReplicationError, match="CRC"):
            tenant.receive(seq, "boundary", {"position": 0}, 12345)

    def test_unknown_tenant_mid_stream_requires_snapshot(self, tmp_path):
        follower = FollowerState(str(tmp_path / "f"), epoch=1)
        body = {"position": 0}
        record = {"seq": 7, "kind": "boundary", "body": body,
                  "crc": _crc(7, "boundary", body)}
        with pytest.raises(ReplicationError, match="snapshot"):
            follower.ingest_lines("ghost", [json.dumps(record)])

    def test_stale_epoch_frame_is_fenced(self, tmp_path):
        follower = FollowerState(str(tmp_path / "f"), epoch=3)
        with pytest.raises(FencedError) as excinfo:
            follower.handle_frame(
                {"frame": "commit", "epoch": 2, "tips": {}}
            )
        assert excinfo.value.stale_epoch == 2
        assert excinfo.value.local_epoch == 3
        assert "stale epoch 2" in str(excinfo.value)

    def test_newer_epoch_frames_are_accepted(self, tmp_path):
        """After a promotion elsewhere, a re-handshaked follower sees
        the new primary's higher epoch — never fenced."""
        follower = FollowerState(str(tmp_path / "f"), epoch=1)
        ack = follower.handle_frame(
            {"frame": "commit", "epoch": 5, "tips": {}}
        )
        assert ack["frame"] == "ack"

    def test_pop_states_discards_boundaryless_tenants(self, tmp_path):
        """A tenant whose setup commit never shipped has nothing durable
        to promote — recovery's nothing-durable rule."""
        follower = FollowerState(str(tmp_path / "f"), epoch=1)
        meta = {"program": PROGRAM, **CFG}
        tenant = FollowerTenant.bootstrap("empty", str(tmp_path / "f"),
                                          meta)
        follower.tenants["empty"] = tenant
        assert follower.pop_states() == {}
        assert not os.path.exists(tenant.wal_path)


class TestLagHeartbeat:
    def test_commit_ack_reports_zero_lag_when_caught_up(self, tmp_path):
        follower = FollowerState(str(tmp_path / "f"), epoch=1)
        shipper = LogShipper(epoch=1)
        shipper.attach(object())
        run = start_primary(tmp_path / "t.wal",
                            tap=shipper.tap_for("t"))
        drive(run)
        ack = None
        for frame in shipper.round_frames():
            ack = follower.handle_frame(frame) or ack
        assert ack["lag_records"] == 0
        assert ack["applied"] == {"t": follower.tenants["t"].applied_seq}

        lag = follower.lag()
        assert lag["epoch"] == 1
        assert lag["lag_records"] == 0
        assert lag["last_commit_age_s"] is not None
        assert lag["tenants"]["t"]["tip_seq"] == shipper.tips["t"]

    def test_lag_counts_unshipped_tip_distance(self, tmp_path):
        """A commit frame whose tip is ahead of what was shipped (the
        degraded-window shape) shows up as positive lag."""
        follower = FollowerState(str(tmp_path / "f"), epoch=1)
        run = start_primary(
            tmp_path / "t.wal",
            tap=lambda _first, lines: follower.ingest_lines(
                "t", list(lines)
            ),
        )
        drive(run)
        tip = follower.tenants["t"].received_seq
        ack = follower.handle_frame(
            {"frame": "commit", "epoch": 1, "tips": {"t": tip + 4}}
        )
        assert ack["lag_records"] == 4
        assert follower.lag()["tenants"]["t"]["lag_records"] == 4

"""Segmented WALs: rotation, compaction, chain reading, torn rotation.

PR 9's serving layer keeps tenant logs alive for days, so the WAL learned
to archive its active file into ``<path>.<first>-<last>.seg`` segments
and delete the prefix a checkpoint supersedes.  These tests pin the
mechanics at the writer level and the recovery contract end to end.
"""

import os

import pytest

from repro.engine import ProductionSystem
from repro.errors import RecoveryError, WalCorruptError
from repro.recovery import (
    Crashpoints,
    DurableRun,
    SimulatedCrash,
    WalWriter,
    list_segments,
    read_wal_chain,
    recover,
)
from repro.recovery.wal import (
    META_SIDECAR_SUFFIX,
    read_meta_sidecar,
    segment_path,
    write_meta_sidecar,
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
(p stop
    (counter ^n <x>)
    (limit ^max <x>)
    -->
    (halt))
(make counter ^n 0)
(make limit ^max 12)
"""

META = {"version": 1, "program": "(p ...)", "backend": "memory"}

CONFIG = {
    "strategy": "rete",
    "resolution": "lex",
    "backend": "memory",
    "seed": 0,
}


def build_system():
    return ProductionSystem(PROGRAM, **CONFIG)


def fill(writer, n, start=1):
    """Commit *n* one-record boundaries (each commit syncs)."""
    for i in range(start, start + n):
        writer.commit("boundary", {"cycle": i, "pad": "x" * 64})


class TestWriterRotation:
    def test_rotation_archives_segments_and_chain_reads_them(self, tmp_path):
        path = str(tmp_path / "run.wal")
        writer = WalWriter.create(path, rotate_bytes=200, wal_meta=META)
        writer.append("meta", META)
        fill(writer, 10)
        writer.close()
        assert writer.rotations >= 2
        segments = list_segments(path)
        assert len(segments) == writer.rotations
        # Segments tile the sequence space contiguously from 1.
        expected = 1
        for first, last, file in segments:
            assert first == expected
            assert last >= first
            assert os.path.exists(file)
            expected = last + 1
        chain = read_wal_chain(path)
        assert not chain.torn
        assert chain.meta == META
        assert [r.seq for r in chain.records] == list(range(1, 12))
        assert chain.first_seq == 1
        assert chain.active_base_seq == expected
        assert chain.active_exists

    def test_no_rotation_without_budget_or_meta(self, tmp_path):
        plain = str(tmp_path / "plain.wal")
        writer = WalWriter.create(plain, rotate_bytes=0, wal_meta=META)
        fill(writer, 10)
        writer.close()
        assert writer.rotations == 0 and not list_segments(plain)
        # Without a meta body to persist, rotation is skipped (the run's
        # configuration would not survive deletion of segment one).
        anon = str(tmp_path / "anon.wal")
        writer = WalWriter.create(anon, rotate_bytes=100)
        fill(writer, 10)
        writer.close()
        assert writer.rotations == 0 and not list_segments(anon)

    def test_meta_sidecar_round_trip_and_damage(self, tmp_path):
        path = str(tmp_path / "run.wal")
        write_meta_sidecar(path, META)
        assert read_meta_sidecar(path) == META
        # Idempotent: rewriting with different content keeps the original.
        write_meta_sidecar(path, {"other": True})
        assert read_meta_sidecar(path) == META
        with open(path + META_SIDECAR_SUFFIX, "a", encoding="utf-8") as f:
            f.write("garbage")
        with pytest.raises(WalCorruptError):
            read_meta_sidecar(path)


class TestCompaction:
    def _rotated(self, tmp_path):
        path = str(tmp_path / "run.wal")
        writer = WalWriter.create(path, rotate_bytes=200, wal_meta=META)
        writer.append("meta", META)
        fill(writer, 10)
        return path, writer

    def test_compact_deletes_only_superseded_segments(self, tmp_path):
        path, writer = self._rotated(tmp_path)
        segments = list_segments(path)
        assert len(segments) >= 2
        cut = segments[0][1]  # last seq of segment one
        removed = writer.compact(cut)
        assert removed == 1
        assert writer.segments_deleted == 1
        remaining = list_segments(path)
        assert [s[2] for s in segments[1:]] == [s[2] for s in remaining]
        # The chain now starts past 1 and pulls meta from the sidecar.
        chain = read_wal_chain(path)
        assert chain.first_seq == cut + 1
        assert chain.meta == META
        writer.close()

    def test_compact_never_deletes_partially_covered_or_active(
        self, tmp_path
    ):
        path, writer = self._rotated(tmp_path)
        segments = list_segments(path)
        mid = segments[0][1] - 1  # strictly inside segment one
        assert writer.compact(mid) == 0
        assert writer.compact(10_000) == len(segments)
        writer.close()
        assert os.path.exists(path)  # active file always survives

    def test_compact_requires_meta_sidecar(self, tmp_path):
        path, writer = self._rotated(tmp_path)
        os.remove(path + META_SIDECAR_SUFFIX)
        assert writer.compact(10_000) == 0
        writer.close()

    def test_full_compaction_chain_still_reads(self, tmp_path):
        """Every archived segment deleted: the sidecar's base_seq marker
        is all that anchors the active file's sequence numbers.  (The
        long-lived-server bug: without the marker the chain read the
        active file with base 0 and refused the whole log.)"""
        path, writer = self._rotated(tmp_path)
        segments = list_segments(path)
        last_archived = segments[-1][1]
        assert writer.compact(last_archived) == len(segments)
        assert list_segments(path) == []
        writer.close()
        chain = read_wal_chain(path)
        assert chain.first_seq == last_archived + 1
        assert chain.active_base_seq == last_archived + 1
        assert chain.meta == META

    def test_full_compaction_survives_further_rotations(self, tmp_path):
        """Compact everything, keep writing and rotating, read it back —
        the serve soak's steady state."""
        path, writer = self._rotated(tmp_path)
        writer.compact(10_000)
        fill(writer, 10, start=writer.last_seq + 1)
        last = writer.last_seq
        writer.close()
        chain = read_wal_chain(path)
        assert chain.records[-1].seq == last
        assert chain.records[0].seq == chain.first_seq

    def test_missing_segment_after_compaction_refuses(self, tmp_path):
        path, writer = self._rotated(tmp_path)
        segments = list_segments(path)
        assert len(segments) >= 2
        writer.compact(segments[0][1])  # legitimately drop segment one
        os.remove(list_segments(path)[0][2])  # then lose the next one
        writer.close()
        with pytest.raises(WalCorruptError, match="missing"):
            read_wal_chain(path)


class TestChainDamage:
    def _rotated_path(self, tmp_path):
        path = str(tmp_path / "run.wal")
        writer = WalWriter.create(path, rotate_bytes=200, wal_meta=META)
        writer.append("meta", META)
        fill(writer, 10)
        writer.close()
        return path

    def test_missing_middle_segment_refuses(self, tmp_path):
        path = self._rotated_path(tmp_path)
        segments = list_segments(path)
        assert len(segments) >= 2
        os.remove(segments[1][2])
        with pytest.raises(WalCorruptError, match="missing"):
            read_wal_chain(path)

    def test_truncated_archived_segment_refuses(self, tmp_path):
        path = self._rotated_path(tmp_path)
        first, last, file = list_segments(path)[0]
        size = os.path.getsize(file)
        with open(file, "r+b") as handle:
            handle.truncate(size - 10)
        with pytest.raises(WalCorruptError, match="damaged or truncated"):
            read_wal_chain(path)

    def test_renamed_segment_with_wrong_range_refuses(self, tmp_path):
        path = self._rotated_path(tmp_path)
        first, last, file = list_segments(path)[0]
        os.rename(file, segment_path(path, first + 1, last + 1))
        with pytest.raises(WalCorruptError):
            read_wal_chain(path)

    def test_missing_active_is_the_torn_rotation_window(self, tmp_path):
        path = self._rotated_path(tmp_path)
        os.remove(path)
        chain = read_wal_chain(path)
        assert not chain.active_exists
        assert chain.records  # the archived chain is still durable
        assert chain.meta == META
        # A writer resuming at the chain's next_seq recreates the active
        # file (durable offset 0 = nothing durable lived in it).
        writer = WalWriter.continue_log(path, 0, chain.next_seq)
        writer.commit("boundary", {"cycle": 99})
        writer.close()
        tail = read_wal_chain(path)
        assert tail.records[-1].seq == chain.next_seq

    def test_empty_directory_still_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_wal_chain(str(tmp_path / "never.wal"))


class TestRecoveryAcrossSegments:
    def _run_crashed(self, tmp_path, checkpoint=True, site="commit.post",
                     after=6):
        wal_path = str(tmp_path / "run.wal")
        ckpt_path = str(tmp_path / "run.ckpt") if checkpoint else None
        crashpoints = Crashpoints()
        crashpoints.arm(site, after=after)
        system = build_system()
        run = DurableRun.start(
            system,
            wal_path,
            PROGRAM,
            dict(CONFIG),
            crashpoints=crashpoints,
            checkpoint_path=ckpt_path,
            checkpoint_every=3 if checkpoint else 0,
            fsync_every=1,
            wal_rotate_bytes=256,
        )
        with pytest.raises(SimulatedCrash):
            run.run()
            raise AssertionError("crashpoint never fired")
        run.abandon()
        return wal_path, ckpt_path

    def _reference_output(self):
        system = build_system()
        system.run()
        return list(system.output)

    def test_recover_across_segments_matches_reference(self, tmp_path):
        wal_path, ckpt_path = self._run_crashed(tmp_path)
        assert list_segments(wal_path)  # the crash really spanned segments
        state = recover(wal_path, ckpt_path)
        run = DurableRun.resume(
            state,
            checkpoint_path=ckpt_path,
            checkpoint_every=3,
            wal_rotate_bytes=256,
        )
        run.run()
        run.close()
        assert list(state.system.output) == self._reference_output()

    def test_checkpoint_compacts_and_recovery_still_works(self, tmp_path):
        wal_path, ckpt_path = self._run_crashed(tmp_path, after=10)
        state = recover(wal_path, ckpt_path)
        # Compaction happened (the chain no longer starts at seq 1) —
        # recovery went through the checkpoint fast path.
        chain = read_wal_chain(wal_path)
        if chain.first_seq > 1:
            assert state.checkpoint_used
        run = DurableRun.resume(
            state, checkpoint_path=ckpt_path, checkpoint_every=3,
            wal_rotate_bytes=256,
        )
        run.run()
        run.close()
        assert list(state.system.output) == self._reference_output()

    def test_compacted_log_without_checkpoint_refuses(self, tmp_path):
        wal_path, _ = self._run_crashed(tmp_path, checkpoint=True, after=10)
        chain = read_wal_chain(wal_path)
        if chain.first_seq == 1:  # force the condition deterministically
            writer = WalWriter.continue_log(
                wal_path, chain.active_offset(chain.records[-1].seq),
                chain.next_seq, rotate_bytes=256, wal_meta=META,
                _segment_first_seq=chain.active_base_seq,
            )
            writer.compact(list_segments(wal_path)[0][1])
            writer.close()
        segments = list_segments(wal_path)
        if segments:
            cut = segments[0][1]
            writer = WalWriter.continue_log(
                wal_path, read_wal_chain(wal_path).active_offset(10**9),
                read_wal_chain(wal_path).next_seq, wal_meta=META,
            )
            writer.compact(cut)
            writer.close()
        assert read_wal_chain(wal_path).first_seq > 1
        with pytest.raises(RecoveryError, match="checkpoint"):
            recover(wal_path, None)

    def test_crash_in_rotation_window_recovers(self, tmp_path):
        # The first rotations happen while the setup records are written;
        # arming the third leaves committed boundaries behind the crash.
        wal_path, ckpt_path = self._run_crashed(
            tmp_path, site="wal.rotate", after=3
        )
        assert not os.path.exists(wal_path)  # archived but no new active
        state = recover(wal_path, ckpt_path)
        run = DurableRun.resume(
            state, checkpoint_path=ckpt_path, checkpoint_every=3,
            wal_rotate_bytes=256,
        )
        run.run()
        run.close()
        assert list(state.system.output) == self._reference_output()

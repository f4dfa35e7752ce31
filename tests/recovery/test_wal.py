"""The write-ahead log: record codecs, durability model, damage handling."""

import json

import pytest

from repro.delta import Delta, DeltaBatch
from repro.errors import RecoveryError, WalCorruptError
from repro.recovery import WalWriter, read_wal
from repro.recovery.wal import (
    _crc,
    decode_batch,
    decode_fired,
    encode_batch,
    encode_fired,
    encode_record,
)
from repro.storage.tuples import StoredTuple


def wme(relation="item", tid=1, timetag=1, values=(1, 2)):
    return StoredTuple(
        relation=relation, tid=tid, timetag=timetag, values=tuple(values)
    )


class TestCodecs:
    def test_batch_round_trip(self):
        batch = DeltaBatch(
            [
                Delta("insert", wme(tid=1)),
                Delta("delete", wme(tid=2, values=("x", 3.5))),
            ]
        )
        decoded = decode_batch(json.loads(json.dumps(encode_batch(batch))))
        assert list(decoded) == list(batch)

    def test_fired_round_trip_preserves_key_tuples(self):
        triple = (4, "r1", ("r1", (("item", 7), None, ("other", 2))))
        wire = json.loads(json.dumps(encode_fired(triple)))
        assert decode_fired(wire) == triple


def two_dump_line(seq, kind, body):
    """A log line as the record dict dumped whole, the CRC from a second
    dump of the same record."""
    record = {"seq": seq, "kind": kind, "body": body, "crc": _crc(seq, kind, body)}
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


#: One body per record kind, with values whose encoding could drift:
#: non-ASCII text, negative zero, huge floats, nil, booleans, nesting.
RECORD_BODIES = [
    ("meta", {"version": 1, "program": "(p r (Ünïcode ^x <x>) --> (halt))",
              "strategy": "patterns", "seed": None}),
    ("batch", encode_batch(DeltaBatch([
        Delta("insert", wme(values=("naïve", -0.0, 1e300, None, True))),
        Delta("delete", wme(tid=2, values=(False, "日本", -1e-300, 7))),
    ]))),
    ("boundary", {"cycle": 3, "fired": [[4, "r1", [["a", 1], None]]],
                  "extra": {"z": {"b": [1.5, -0.0], "a": "✓"}, "ok": True,
                            "none": None, "big": 1e300}}),
]


class TestRecordEncoding:
    @pytest.mark.parametrize("kind, body", RECORD_BODIES)
    def test_one_dump_equals_two_dumps(self, kind, body):
        for seq in (1, 12, 123456789):
            assert encode_record(seq, kind, body) == two_dump_line(seq, kind, body)

    def test_written_log_is_byte_identical(self, tmp_path):
        path = str(tmp_path / "run.wal")
        writer = WalWriter.create(path)
        for kind, body in RECORD_BODIES:
            writer.append(kind, body)
        writer.close()
        expected = "".join(
            two_dump_line(seq, kind, body)
            for seq, (kind, body) in enumerate(RECORD_BODIES, start=1)
        )
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == expected
        result = read_wal(path)
        assert [(r.kind, r.body) for r in result.records] == [
            (kind, json.loads(json.dumps(body))) for kind, body in RECORD_BODIES
        ]


class TestWriterAndReader:
    def test_append_read_round_trip(self, tmp_path):
        path = str(tmp_path / "run.wal")
        writer = WalWriter.create(path)
        writer.append("meta", {"version": 1, "program": "(p ...)"})
        writer.log_batch(DeltaBatch([Delta("insert", wme())]))
        writer.commit("boundary", {"cycle": 1})
        writer.close()
        result = read_wal(path)
        assert not result.torn
        assert [r.kind for r in result.records] == [
            "meta", "batch", "boundary",
        ]
        assert [r.seq for r in result.records] == [1, 2, 3]
        assert result.next_seq == 4

    def test_unsynced_appends_are_not_durable(self, tmp_path):
        path = str(tmp_path / "run.wal")
        writer = WalWriter.create(path, fsync_every=100)
        writer.commit("boundary", {"cycle": 0})
        writer.append("batch", {"deltas": []})
        writer.append("batch", {"deltas": []})
        writer.abandon()  # process death: buffered records are lost
        result = read_wal(path)
        assert [r.kind for r in result.records] == ["boundary"]

    def test_fsync_every_batches_syncs(self, tmp_path):
        path = str(tmp_path / "run.wal")
        writer = WalWriter.create(path, fsync_every=3)
        for _ in range(7):
            writer.append("batch", {"deltas": []})
        assert writer.syncs == 2  # at records 3 and 6; the 7th is buffered
        assert len(read_wal(path).records) == 6
        writer.close()
        assert len(read_wal(path).records) == 7

    def test_commit_always_syncs(self, tmp_path):
        path = str(tmp_path / "run.wal")
        writer = WalWriter.create(path, fsync_every=1000)
        writer.append("batch", {"deltas": []})
        writer.commit("boundary", {"cycle": 1})
        assert len(read_wal(path).records) == 2
        writer.close()

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = str(tmp_path / "run.wal")
        writer = WalWriter.create(path)
        writer.commit("boundary", {"cycle": 1})
        writer.commit("boundary", {"cycle": 2})
        writer.close()
        with open(path, "r+b") as handle:
            handle.truncate(handle.seek(0, 2) - 10)
        result = read_wal(path)
        assert result.torn
        assert [r.body["cycle"] for r in result.records] == [1]
        assert result.durable_offset == result.records[-1].end_offset

    def test_final_record_without_newline_is_torn(self, tmp_path):
        path = str(tmp_path / "run.wal")
        writer = WalWriter.create(path)
        writer.commit("boundary", {"cycle": 1})
        writer.close()
        with open(path, "r+b") as handle:
            handle.truncate(handle.seek(0, 2) - 1)  # strip the newline only
        result = read_wal(path)
        assert result.torn
        assert result.records == []

    def test_bad_checksum_mid_log_is_corrupt(self, tmp_path):
        path = str(tmp_path / "run.wal")
        writer = WalWriter.create(path)
        writer.commit("boundary", {"cycle": 1})
        writer.commit("boundary", {"cycle": 2})
        writer.commit("boundary", {"cycle": 3})
        writer.close()
        lines = open(path, "rb").read().splitlines(keepends=True)
        lines[1] = lines[1].replace(b'"cycle":2', b'"cycle":9')
        with open(path, "wb") as handle:
            handle.writelines(lines)
        with pytest.raises(WalCorruptError):
            read_wal(path)

    def test_sequence_gap_mid_log_is_corrupt(self, tmp_path):
        path = str(tmp_path / "run.wal")
        writer = WalWriter.create(path)
        for cycle in range(1, 5):
            writer.commit("boundary", {"cycle": cycle})
        writer.close()
        lines = open(path, "rb").read().splitlines(keepends=True)
        with open(path, "wb") as handle:
            handle.writelines([lines[0], lines[2], lines[3]])
        with pytest.raises(WalCorruptError):
            read_wal(path)

    def test_trailing_record_with_wrong_seq_is_debris(self, tmp_path):
        """A valid-checksum record with the wrong sequence number at the
        very tail (nothing valid after it) is dropped like a torn tail —
        only damage *inside* the log is refused."""
        path = str(tmp_path / "run.wal")
        writer = WalWriter.create(path)
        for cycle in range(1, 4):
            writer.commit("boundary", {"cycle": cycle})
        writer.close()
        lines = open(path, "rb").read().splitlines(keepends=True)
        with open(path, "wb") as handle:
            handle.writelines([lines[0], lines[2]])
        result = read_wal(path)
        assert result.torn
        assert [r.body["cycle"] for r in result.records] == [1]

    def test_continue_log_truncates_dead_suffix(self, tmp_path):
        path = str(tmp_path / "run.wal")
        writer = WalWriter.create(path)
        writer.commit("boundary", {"cycle": 1})
        writer.close()
        with open(path, "ab") as handle:
            handle.write(b'{"seq": 2, "garbage...')
        result = read_wal(path)
        assert result.torn
        writer = WalWriter.continue_log(
            path, result.durable_offset, result.next_seq
        )
        writer.commit("boundary", {"cycle": 2})
        writer.close()
        reread = read_wal(path)
        assert not reread.torn
        assert [r.body["cycle"] for r in reread.records] == [1, 2]

    def test_continue_log_beyond_eof_refused(self, tmp_path):
        path = str(tmp_path / "run.wal")
        WalWriter.create(path).close()
        with pytest.raises(RecoveryError):
            WalWriter.continue_log(path, durable_offset=999, next_seq=1)

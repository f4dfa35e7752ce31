"""A6 — the durability tax: WAL overhead and crash-recovery time (§5).

The paper's §5 places commit points after conflict-set maintenance; this
repo makes them durable with a write-ahead log and periodic checkpoints
(``docs/RECOVERY.md``).  This bench measures what that costs and what it
buys:

* WAL overhead — the same counter program WAL-off vs WAL-attached at
  fsync cadences 1 and 64; attachment never changes the run's outcome.
* Recovery time — a finished log recovered cold by full replay vs
  through the checkpoint fast path, which replays only the log tail.
* ``recovery.*`` metrics (fsyncs, wal_bytes, replayed_batches) populate
  the table in ``python -m repro.bench.report a6``.

Run: pytest benchmarks/bench_a6_recovery.py --benchmark-only
Table: python -m repro.bench.report a6
"""

import pytest

from repro.bench.report import report_a6
from repro.engine import ProductionSystem
from repro.obs import Observability
from repro.recovery import DurableRun, recover
from repro.workload.programs import counter_program

CYCLES = 80
SOURCE = counter_program(CYCLES)
CONFIG = {
    "strategy": "rete",
    "resolution": "lex",
    "backend": "memory",
    "seed": 0,
}


def build(obs=None):
    system = ProductionSystem(SOURCE, obs=obs)
    system.insert("Counter", {"value": 0, "limit": CYCLES})
    return system


def durable_run(wal, fsync_every=64, checkpoint_every=0, obs=None):
    system = build(obs=obs)
    run = DurableRun.start(
        system,
        wal,
        SOURCE,
        CONFIG,
        fsync_every=fsync_every,
        checkpoint_path=wal + ".ckpt" if checkpoint_every else None,
        checkpoint_every=checkpoint_every,
    )
    result = run.run()
    run.close()
    return system, result


def test_cycle_wal_off(benchmark):
    def run():
        system = build()
        assert system.run().halted

    benchmark(run)


@pytest.mark.parametrize("fsync_every", [1, 64])
def test_cycle_wal_attached(benchmark, tmp_path, fsync_every):
    counter = iter(range(1_000_000))

    def run():
        wal = str(tmp_path / f"bench-{next(counter)}.wal")
        _, result = durable_run(wal, fsync_every=fsync_every)
        assert result.halted

    benchmark(run)


@pytest.fixture(scope="module")
def finished_log(tmp_path_factory):
    directory = tmp_path_factory.mktemp("a6")
    wal = str(directory / "run.wal")
    durable_run(wal, checkpoint_every=20)
    return wal


def test_recover_full_replay(benchmark, finished_log):
    state = benchmark(lambda: recover(finished_log))
    assert not state.checkpoint_used


def test_recover_checkpoint_fast_path(benchmark, finished_log):
    state = benchmark(
        lambda: recover(finished_log, finished_log + ".ckpt")
    )
    assert state.checkpoint_used


class TestA6Shape:
    @pytest.fixture(scope="class")
    def rows(self):
        _, rows = report_a6(cycles=60, checkpoint_every=15)
        return {row["mode"]: row for row in rows}

    def test_wal_attachment_preserves_the_outcome(self, rows):
        sizes = {row["wm"] for row in rows.values()}
        assert len(sizes) == 1

    def test_fsync_cadence_drives_the_tax(self, rows):
        assert rows["wal fsync=1"]["fsyncs"] > rows["wal fsync=64"]["fsyncs"]
        assert rows["wal off"]["fsyncs"] == 0

    def test_checkpoint_shortens_replay(self, rows):
        (ckpt_mode,) = [m for m in rows if m.startswith("wal+ckpt")]
        assert rows[ckpt_mode]["replayed"] < rows["wal fsync=64"]["replayed"]

    def test_wal_bytes_are_accounted(self, rows):
        assert rows["wal fsync=64"]["wal_kb"] > 0


def test_wal_attachment_is_bit_identical(tmp_path):
    """The WAL-off acceptance bar: attaching a log changes nothing about
    the run — same output, same WM rows, same halt."""
    plain = build()
    plain_result = plain.run()
    durable, durable_result = durable_run(str(tmp_path / "run.wal"))
    assert durable_result.halted and plain_result.halted
    assert list(durable.output) == list(plain.output)
    for name in plain.wm.schemas:
        assert [
            (w.tid, w.timetag, w.values) for w in durable.wm.tuples(name)
        ] == [(w.tid, w.timetag, w.values) for w in plain.wm.tuples(name)]


def test_recovery_metrics_populate(tmp_path):
    wal = str(tmp_path / "run.wal")
    obs = Observability(collect_metrics=True)
    durable_run(wal, fsync_every=1, obs=obs)
    counters = obs.metrics.snapshot()["counters"]
    assert counters["recovery.fsyncs"] > 0
    assert counters["recovery.wal_records"] > 0
    assert counters["recovery.wal_bytes"] > 0

    cold = Observability(collect_metrics=True)
    recover(wal, obs=cold)
    recovered = cold.metrics.snapshot()["counters"]
    assert recovered["recovery.recoveries"] == 1
    assert recovered["recovery.replayed_batches"] > 0

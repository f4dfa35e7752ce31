"""Crash-recovery equivalence: every crashpoint site, both backends.

Each case runs one generated trace three ways — plain reference, an
uninterrupted WAL-attached dry run, and a run crashed at a pinned site
then recovered and finished — and asserts the harness found no
divergence in checkpoints, fired sequence, output, final WM or final
conflict set.
"""

from dataclasses import replace

import pytest

from repro.check import run_crash_check, run_crash_trace
from repro.check.generator import generate_trace
from repro.recovery import CRASH_SITES

BACKENDS = ("memory", "sqlite")


@pytest.fixture(scope="module")
def trace():
    return replace(generate_trace(3, 1), batch=8)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("site", sorted(CRASH_SITES))
def test_every_site_recovers_equivalently(trace, backend, site, tmp_path):
    # txn.* sites only exist inside §5.2 scheduler rounds; wal.rotate
    # needs a segment budget small enough that this trace's log rotates.
    exec_mode = "txn" if site.startswith("txn.") else "cycle"
    rotate = 256 if site == "wal.rotate" else None
    finding, stats = run_crash_trace(
        trace,
        backend=backend,
        per_op=False,
        site=site,
        after=1,
        checkpoint_every=2,
        workdir=str(tmp_path),
        exec_mode=exec_mode,
        wal_rotate_bytes=rotate,
    )
    assert finding is None, finding.describe()
    assert stats["crashed"] == site
    assert stats["recovered"] or stats["restarted"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_per_op_ops_recover_equivalently(trace, backend, tmp_path):
    """Ops applied one at a time, each committing its own boundary."""
    finding, stats = run_crash_trace(
        trace,
        backend=backend,
        per_op=True,
        site="commit.pre",
        after=3,
        checkpoint_every=2,
        workdir=str(tmp_path),
    )
    assert finding is None, finding.describe()
    assert stats["crashed"] == "commit.pre"
    assert stats["recovered"]


def test_late_crash_hits_checkpoint_fast_path(trace, tmp_path):
    """A crash well past the first checkpoint recovers through the
    checkpoint + log-tail path rather than full replay."""
    finding, stats = run_crash_trace(
        trace,
        backend="memory",
        per_op=False,
        site="commit.post",
        after=4,
        checkpoint_every=1,
        workdir=str(tmp_path),
    )
    assert finding is None, finding.describe()
    assert stats["crashed"] == "commit.post"
    assert stats["recovered"]


def test_campaign_smoke():
    report = run_crash_check(budget=4, seed=11)
    assert report.ok
    assert report.traces_run == 4
    assert report.crashes_fired >= 1
    assert "OK" in report.summary()


def test_checkpointed_txn_cells_cut_a_checkpoint():
    """A durable run counts a §5.2 round as one cycle and a txn trace runs
    only a few rounds, so a checkpointed txn cell checkpoints every
    round: each one's dry run crosses ``checkpoint.mid``."""
    report = run_crash_check(budget=6, seed=0, exec_modes=("txn",))
    assert report.ok
    assert report.checkpointed == 3
    assert report.checkpoints_cut == report.checkpointed
    assert "3/3 checkpointed traces cut a checkpoint" in report.summary()

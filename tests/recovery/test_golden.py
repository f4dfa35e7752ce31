"""Golden data dirs: files an older tree wrote must recover at HEAD.

``tests/golden/ckpt-v1/data`` is one k8s tenant written by a tree whose
checkpoints carried the whole fired list (checkpoint version 1); see
``tests/golden/make_ckpt_v1.py`` for how it was made.  Beside it,
``expected.json`` records what that tree's own ``recover()`` produced:
the WM relations, ``applied_seq``, the next log seq, and the fold of its
fired list into the count and digest a current run keeps.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.recovery import load_checkpoint, recover
from repro.recovery.checkpoint import CHECKPOINT_VERSION
from repro.recovery.wal import GroupCommit
from repro.replica import FollowerState, LogShipper
from repro.serve.registry import SessionRegistry
from repro.serve.session import TenantSession, checkpoint_path, wal_path

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "ckpt-v1"
EXPECTED = json.loads((GOLDEN / "expected.json").read_text())
TENANT = EXPECTED["tenant"]


@pytest.fixture
def data_dir(tmp_path):
    """A scratch copy: recovery and resumption may write to the dir."""
    copy = tmp_path / "data"
    shutil.copytree(GOLDEN / "data", copy)
    return str(copy)


def observed(state) -> dict:
    wm = state.system.wm
    return {
        "tenant": TENANT,
        "applied_seq": state.extra["applied_seq"],
        "next_seq": state.next_seq,
        "relations": {
            name: [
                [w.tid, w.timetag, list(w.values)]
                for w in sorted(wm.tuples(name), key=lambda w: w.tid)
            ]
            for name in sorted(wm.schemas)
        },
        "fired_count": state.fired_count,
        "fired_digest": state.fired_digest,
    }


def assert_only_live_keys(state) -> None:
    wm = state.system.wm
    live = {
        (name, w.tid) for name in wm.schemas for w in wm.tuples(name)
    }
    assert state.fired_keys == state.system.refraction_keys
    for _rule, slots in state.fired_keys:
        assert all(slot is None or slot in live for slot in slots)


class TestCheckpointV1Tenant:
    def test_the_dir_is_what_it_claims_to_be(self, data_dir):
        """A version-1 checkpoint, a compacted prefix, archived segments
        and a non-empty active file past the checkpoint."""
        with open(checkpoint_path(data_dir, TENANT), encoding="utf-8") as fh:
            raw = json.load(fh)["body"]
        assert raw["version"] == 1
        assert "fired" in raw["state"]
        files = sorted(p.name for p in Path(data_dir).iterdir())
        assert any(name.endswith(".seg") for name in files)
        assert Path(wal_path(data_dir, TENANT)).stat().st_size > 0
        assert raw["wal_seq"] < EXPECTED["next_seq"] - 1

    def test_load_migrates_the_fired_list_into_the_fold(self, data_dir):
        body = load_checkpoint(checkpoint_path(data_dir, TENANT))
        assert body["version"] == CHECKPOINT_VERSION
        state = body["state"]
        assert "fired" not in state
        assert 0 < state["fired_count"] < EXPECTED["fired_count"]
        assert len(state["fired_digest"]) == 32

    def test_recover_matches_the_writing_tree(self, data_dir):
        state = recover(
            wal_path(data_dir, TENANT), checkpoint_path(data_dir, TENANT)
        )
        assert state.checkpoint_used
        assert observed(state) == EXPECTED
        assert_only_live_keys(state)

    def test_replica_applier_matches_the_writing_tree(self, data_dir,
                                                      tmp_path):
        """A follower bootstrapping from the dir (checkpoint + suffix,
        as a catch-up snapshot frame ships them) lands on the same
        state."""
        shipper = LogShipper(epoch=1)
        frame = shipper.snapshot_frame(
            TENANT, wal_path(data_dir, TENANT),
            checkpoint_path(data_dir, TENANT), have_seq=0,
        )
        assert frame["checkpoint"] is not None
        follower = FollowerState(str(tmp_path / "follower"), epoch=1)
        follower.handle_frame(frame)
        follower.handle_frame(
            {"frame": "commit", "epoch": 1, "tips": dict(shipper.tips)}
        )
        [state] = follower.pop_states().values()
        assert observed(state) == EXPECTED
        assert_only_live_keys(state)

    def test_resumed_tenant_cuts_a_current_checkpoint(self, data_dir):
        """Resuming the old tenant and cutting a checkpoint rewrites it in
        the current format; recovering from that gives the same state."""
        session = TenantSession.recover_from_disk(
            TENANT, data_dir, SessionRegistry(), group=GroupCommit()
        )
        assert session.stats()["fired"] == EXPECTED["fired_count"]
        assert session.maybe_checkpoint(force=True)
        session.close()
        with open(checkpoint_path(data_dir, TENANT), encoding="utf-8") as fh:
            assert json.load(fh)["body"]["version"] == CHECKPOINT_VERSION
        state = recover(
            wal_path(data_dir, TENANT), checkpoint_path(data_dir, TENANT)
        )
        assert observed(state) == EXPECTED

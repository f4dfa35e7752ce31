"""Bounded tenant state: a long-running tenant's checkpoint and
refraction set stay O(live state), not O(firings since attach).

One k8s tenant takes 2 000 events in-process with a checkpoint every 8
rounds.  The pack's ``ticket`` relation legitimately grows with the
stream (about one escalation in eight events), so the WM part of the
checkpoint grows too; everything else in the file — run state, fired
count and digest, live refraction keys — must stay flat.
"""

import json
import os

from repro.recovery.wal import GroupCommit
from repro.serve.protocol import parse_request
from repro.serve.registry import SessionRegistry
from repro.serve.session import TenantSession, checkpoint_path
from repro.workload.k8s import K8S_PROGRAM, k8s_events, k8s_setup

EVENTS = 2_000


def non_wm_bytes(path: str) -> int:
    """Checkpoint file size minus its WM relations' encoded size."""
    with open(path, encoding="utf-8") as handle:
        relations = json.load(handle)["body"]["relations"]
    encoded = json.dumps(relations, sort_keys=True, separators=(",", ":"))
    return os.path.getsize(path) - len(encoded)


def test_checkpoint_and_refraction_stay_bounded(tmp_path, monkeypatch):
    # Durability is not under test here; fsync would dominate the run.
    monkeypatch.setattr(os, "fsync", lambda fd: None)
    registry = SessionRegistry()
    group = GroupCommit()
    session = TenantSession.start(
        "t", registry.pack_for(K8S_PROGRAM), str(tmp_path), group=group,
        checkpoint_rounds=8,
    )
    system, run = session.system, session.run
    ckpt = checkpoint_path(str(tmp_path), "t")
    ops = k8s_setup() + k8s_events(EVENTS, seed=0)
    first_event = len(ops) - EVENTS
    sizes = {}
    cuts = 0
    for seq, (relation, values) in enumerate(ops, 1):
        session.enqueue(parse_request(json.dumps({
            "op": "insert", "tenant": "t", "seq": seq,
            "relation": relation, "values": values,
        })))
        session.drain()
        group.flush()
        if session.maybe_checkpoint():
            cuts += 1
            live = {
                (name, w.tid)
                for name in system.wm.schemas
                for w in system.wm.tuples(name)
            }
            for _rule, slots in system.refraction_keys:
                assert all(slot is None or slot in live for slot in slots)
        event = seq - first_event
        if event in (500, EVENTS):
            assert session.maybe_checkpoint(force=True)
            sizes[event] = (os.path.getsize(ckpt), non_wm_bytes(ckpt))
    assert cuts >= (len(ops) // 8) - 1
    assert run.fired_count >= EVENTS
    assert session.stats()["fired"] == run.fired_count
    # Everything but the WM rows is flat across 1 500 more events.
    assert sizes[EVENTS][1] <= 1.25 * sizes[500][1]
    # The WM rows are the bulk; the fired history is not in the file.
    assert sizes[EVENTS][0] < 4 * sizes[500][0]
    assert sizes[EVENTS][1] < 2_048
    # No per-firing list anywhere on the durable run.
    for name, value in vars(run).items():
        if isinstance(value, (list, tuple, set, dict)):
            assert len(value) < 64, name
    session.close()

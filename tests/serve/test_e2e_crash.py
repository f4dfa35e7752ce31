"""The production-shaped e2e: a real ``repro serve`` subprocess, a real
``kill -9``, and bit-equivalence against an uninterrupted reference.

Two tenants stream the accumulator workload into one server process.
The crash run is SIGKILLed mid-stream (after an acked prefix), restarted
on the same data directory, and the clients resume from their recovered
``applied_seq`` — re-sending one acked op to prove exactly-once dedup.
At the end, every comparable piece of per-tenant state (applied seq,
log position, cycle count, firings, WM size, output, and the full
``acc`` relation with tids and timetags) must equal the reference run
that was never killed.  Parametrized over both storage backends.
"""

import pytest

from repro.workload.k8s import K8S_PROGRAM, as_requests, k8s_events, k8s_setup
from tests.serve.conftest import (
    ABSORB_PROGRAM,
    Client,
    graceful_stop,
    kill9,
    spawn_server,
)

TENANTS = ("t1", "t2")
EVENTS = 12          # events per tenant after the accumulator insert
KILL_AFTER = 5       # acked ops per tenant before SIGKILL
K8S_TENANTS = ("k8s-0", "k8s-1")
K8S_EVENTS = 30      # k8s auto-fix events per tenant after the inventory

#: Stats keys that must be bit-identical between the crashed-and-
#: recovered run and the uninterrupted reference.
COMPARED = (
    "applied_seq", "position", "cycles", "fired", "wm_size", "output",
    "halted",
)


def ops_for(tenant):
    """The full op stream for one tenant; values differ per tenant."""
    scale = 1 if tenant == "t1" else 100
    ops = [("acc", {"total": 0, "count": 0})]
    ops += [("ev", {"n": scale * (i + 1)}) for i in range(EVENTS)]
    return [
        {"op": "insert", "tenant": tenant, "seq": seq,
         "relation": relation, "values": values}
        for seq, (relation, values) in enumerate(ops, start=1)
    ]


def attach_all(client, backend):
    for tenant in TENANTS:
        reply = client.call(op="attach", tenant=tenant,
                            program=ABSORB_PROGRAM,
                            config={"backend": backend})
        assert reply["ok"], reply


def stream(client, streams, start, stop):
    """Interleave ops[start:stop] of every tenant, awaiting each ack."""
    for index in range(start, stop):
        for tenant in TENANTS:
            reply = client.call(**streams[tenant][index])
            assert reply["ok"] and reply["durable"], reply


def snapshot(client):
    """Comparable end-state per tenant: stats subset + the acc rows."""
    state = {}
    for tenant in TENANTS:
        stats = client.call(op="stats", tenant=tenant)
        state[tenant] = {
            **{key: stats[key] for key in COMPARED},
            "acc": client.call(op="query", tenant=tenant,
                               relation="acc")["rows"],
            "ev": client.call(op="query", tenant=tenant,
                              relation="ev")["rows"],
        }
    return state


@pytest.fixture(params=["memory", "sqlite"])
def backend(request):
    return request.param


def reference_state(tmp_path, backend):
    """The uninterrupted run both crash variants are compared against."""
    data_dir = tmp_path / f"ref-{backend}"
    proc, host, port = spawn_server(data_dir)
    with Client(host, port) as client:
        attach_all(client, backend)
        streams = {tenant: ops_for(tenant) for tenant in TENANTS}
        stream(client, streams, 0, EVENTS + 1)
        state = snapshot(client)
        graceful_stop(proc, client)
    return state


class TestKill9Equivalence:
    def test_kill9_restart_resume_matches_uninterrupted(self, tmp_path,
                                                        backend):
        reference = reference_state(tmp_path, backend)
        streams = {tenant: ops_for(tenant) for tenant in TENANTS}

        data_dir = tmp_path / f"crash-{backend}"
        proc, host, port = spawn_server(data_dir)
        with Client(host, port) as client:
            attach_all(client, backend)
            stream(client, streams, 0, KILL_AFTER)
        kill9(proc)

        proc, host, port = spawn_server(data_dir)
        with Client(host, port) as client:
            for tenant in TENANTS:
                reply = client.call(op="attach", tenant=tenant,
                                    program=ABSORB_PROGRAM)
                assert reply["existing"] and reply["recovered"], reply
                # nothing acked was lost: the recovered high-water mark
                # is exactly the acked prefix
                assert reply["applied_seq"] == KILL_AFTER, reply
                # exactly-once: re-sending an acked op dedups cleanly
                dup = client.call(**streams[tenant][KILL_AFTER - 1])
                assert dup["ok"] and dup["dup"] and dup["durable"], dup
            stream(client, streams, KILL_AFTER, EVENTS + 1)
            recovered = snapshot(client)
            graceful_stop(proc, client)

        assert recovered == reference
        for tenant in TENANTS:
            # every event was consumed by the pack
            assert recovered[tenant]["ev"] == [], recovered[tenant]

    def test_kill9_before_any_checkpoint_still_recovers(self, tmp_path,
                                                        backend):
        """Pure log replay: a huge checkpoint cadence guarantees no
        checkpoint exists when the process dies."""
        reference = reference_state(tmp_path, backend)
        streams = {tenant: ops_for(tenant) for tenant in TENANTS}

        data_dir = tmp_path / f"nockpt-{backend}"
        proc, host, port = spawn_server(
            data_dir, "--checkpoint-rounds", "100000"
        )
        with Client(host, port) as client:
            attach_all(client, backend)
            stream(client, streams, 0, KILL_AFTER)
        kill9(proc)
        assert not (data_dir / "t1.ckpt").exists()

        proc, host, port = spawn_server(
            data_dir, "--checkpoint-rounds", "100000"
        )
        with Client(host, port) as client:
            stream(client, streams, KILL_AFTER, EVENTS + 1)
            recovered = snapshot(client)
            graceful_stop(proc, client)
        assert recovered == reference


class TestKill9Isolation:
    def test_crash_recovery_keeps_tenants_apart(self, tmp_path, backend):
        """After kill -9 and restart, each tenant sees exactly its own
        rows — recovery replays per-tenant logs, never a merged one.

        Two more tenants share the k8s auto-fix pack with different event
        seeds: each recovers its whole acked stream, every event was
        consumed, remediations and tickets were produced, and the two
        fixed points differ."""
        streams = {tenant: ops_for(tenant) for tenant in TENANTS}
        k8s_total = len(k8s_setup()) + K8S_EVENTS
        data_dir = tmp_path / f"iso-{backend}"
        proc, host, port = spawn_server(data_dir)
        with Client(host, port) as client:
            attach_all(client, backend)
            stream(client, streams, 0, EVENTS + 1)
            for index, name in enumerate(K8S_TENANTS):
                reply = client.call(op="attach", tenant=name,
                                    program=K8S_PROGRAM,
                                    config={"backend": backend})
                assert reply["ok"], reply
                ops = k8s_setup() + k8s_events(K8S_EVENTS, seed=index)
                for request in as_requests(name, ops):
                    reply = client.call(**request)
                    assert reply["ok"] and reply["durable"], reply
            # one request in flight per tenant never reaches shedding
            status = client.call(op="status")
            assert status["admission"]["shed"] == 0, status
        kill9(proc)

        proc, host, port = spawn_server(data_dir)
        with Client(host, port) as client:
            status = client.call(op="status")
            assert status["recovered_tenants"] == sorted(
                TENANTS + K8S_TENANTS
            )
            totals = {}
            for tenant in TENANTS:
                [row] = client.call(op="query", tenant=tenant,
                                    relation="acc")["rows"]
                totals[tenant] = row[2]
            expected = sum(range(1, EVENTS + 1))
            assert totals["t1"] == [expected, EVENTS]
            assert totals["t2"] == [100 * expected, EVENTS]
            fixed_points = set()
            for name in K8S_TENANTS:
                stats = client.call(op="stats", tenant=name)
                assert stats["applied_seq"] == k8s_total, stats
                rows = {
                    relation: client.call(op="query", tenant=name,
                                          relation=relation)["rows"]
                    for relation in ("event", "remediation", "ticket")
                }
                assert rows["event"] == [], rows["event"]
                assert rows["remediation"] and rows["ticket"], rows
                fixed_points.add((len(rows["remediation"]),
                                  len(rows["ticket"]), stats["wm_size"]))
            assert len(fixed_points) == len(K8S_TENANTS), fixed_points
            graceful_stop(proc, client)


class TestWireLog:
    def test_kill9_leaves_only_replayable_tenant_files(self, tmp_path,
                                                       backend):
        data_dir = tmp_path / f"files-{backend}"
        proc, host, port = spawn_server(data_dir)
        with Client(host, port) as client:
            attach_all(client, backend)
            streams = {tenant: ops_for(tenant) for tenant in TENANTS}
            stream(client, streams, 0, 3)
        kill9(proc)
        names = sorted(p.name for p in data_dir.iterdir())
        for name in names:
            # The fencing-epoch marker is the one non-tenant artifact.
            assert name == "EPOCH" or name.split(".")[0] in TENANTS, names
        assert "t1.wal" in names and "t2.wal" in names

"""The failover e2e: a real primary/warm-standby pair, a real ``kill -9``
of the primary mid-stream, and bit-equivalence after promotion.

Two tenants stream the accumulator workload into a primary whose WAL is
shipped live to a ``--follow`` standby.  The primary is SIGKILLed while
ops are in flight, the standby is promoted over the wire (``promote``),
and the clients resume against it — re-sending one acked op to prove
exactly-once dedup survives the epoch change.  The promoted run's final
per-tenant state must equal an uninterrupted reference run bit for bit:
no acked client op may be lost across the failover.  The restarted old
primary is then offered a handshake at the promoted epoch and must be
fenced, naming its stale epoch in the error.  Parametrized over both
storage backends.
"""

import time

import pytest

from tests.serve.conftest import (
    ABSORB_PROGRAM,
    Client,
    graceful_stop,
    kill9,
    spawn_server,
)

TENANTS = ("t1", "t2")
EVENTS = 12          # events per tenant after the accumulator insert
PRE_FOLLOW = 4       # acked ops per tenant before the standby attaches
KILL_AFTER = 8       # acked ops per tenant before the primary dies

#: Stats keys that must be bit-identical between the promoted standby
#: and the uninterrupted reference.
COMPARED = (
    "applied_seq", "position", "cycles", "fired", "wm_size", "output",
    "halted",
)


def ops_for(tenant):
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


def stream(client, streams, start, stop, epoch=None):
    for index in range(start, stop):
        for tenant in TENANTS:
            reply = client.call(**streams[tenant][index])
            assert reply["ok"] and reply["durable"], reply
            if epoch is not None:
                assert reply["epoch"] == epoch, reply


def snapshot(client):
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


def wait_attached(client, timeout=10.0):
    """Poll the primary until its shipper reports a live follower."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = client.call(op="status")
        if status["replication"]["follower_attached"]:
            return status
        time.sleep(0.05)
    raise AssertionError("follower never attached")


@pytest.fixture(params=["memory", "sqlite"])
def backend(request):
    return request.param


def reference_state(tmp_path, backend):
    data_dir = tmp_path / f"ref-{backend}"
    proc, host, port = spawn_server(data_dir)
    with Client(host, port) as client:
        attach_all(client, backend)
        streams = {tenant: ops_for(tenant) for tenant in TENANTS}
        stream(client, streams, 0, EVENTS + 1)
        state = snapshot(client)
        graceful_stop(proc, client)
    return state


class TestFailoverEquivalence:
    def test_kill9_promote_standby_matches_uninterrupted(self, tmp_path,
                                                         backend):
        reference = reference_state(tmp_path, backend)
        streams = {tenant: ops_for(tenant) for tenant in TENANTS}

        primary_dir = tmp_path / f"primary-{backend}"
        standby_dir = tmp_path / f"standby-{backend}"
        pproc, phost, pport = spawn_server(primary_dir)
        client = Client(phost, pport)
        attach_all(client, backend)
        # An acked prefix before the standby exists: the handshake must
        # bootstrap it from snapshot frames, not just the live stream.
        stream(client, streams, 0, PRE_FOLLOW, epoch=1)

        fproc, fhost, fport = spawn_server(
            standby_dir, "--follow", f"{phost}:{pport}",
            "--takeover-deadline", "0",
        )
        wait_attached(client)
        # Mid-stream: these ops ship live under semi-sync acks.
        stream(client, streams, PRE_FOLLOW, KILL_AFTER, epoch=1)
        kill9(pproc)
        client.close()

        standby = Client(fhost, fport)
        promoted = standby.call(op="promote")
        assert promoted["ok"] and promoted["epoch"] == 2, promoted
        assert sorted(promoted["tenants"]) == list(TENANTS), promoted

        for tenant in TENANTS:
            # Nothing acked was lost across the failover.
            stats = standby.call(op="stats", tenant=tenant)
            assert stats["applied_seq"] == KILL_AFTER, stats
            # Exactly-once survives the epoch change.
            dup = standby.call(**streams[tenant][KILL_AFTER - 1])
            assert dup["ok"] and dup["dup"] and dup["durable"], dup
            assert dup["epoch"] == 2, dup
        stream(standby, streams, KILL_AFTER, EVENTS + 1, epoch=2)
        recovered = snapshot(standby)
        assert recovered == reference
        for tenant in TENANTS:
            # every event was consumed on the promoted standby
            assert recovered[tenant]["ev"] == [], recovered[tenant]

        # The restarted old primary is fenced: its handshake at the
        # promoted epoch is refused, naming its own stale epoch.
        p2proc, p2host, p2port = spawn_server(primary_dir)
        with Client(p2host, p2port) as stale:
            fenced = stale.call(op="follow", epoch=promoted["epoch"],
                                have={})
            assert not fenced["ok"] and fenced["fenced"], fenced
            assert fenced["epoch"] == 1, fenced
            assert "stale epoch 1" in fenced["error"], fenced
        # A follow handshake ends its connection; stop over a fresh one.
        with Client(p2host, p2port) as fresh:
            graceful_stop(p2proc, fresh)
        graceful_stop(fproc, standby)
        standby.close()


class TestAutomaticTakeover:
    def test_standby_promotes_itself_past_deadline(self, tmp_path):
        """With a short takeover deadline, the standby notices the dead
        primary and promotes itself without an operator."""
        streams = {tenant: ops_for(tenant) for tenant in TENANTS}
        primary_dir = tmp_path / "auto-primary"
        standby_dir = tmp_path / "auto-standby"
        pproc, phost, pport = spawn_server(primary_dir)
        client = Client(phost, pport)
        attach_all(client, "memory")
        stream(client, streams, 0, PRE_FOLLOW)

        fproc, fhost, fport = spawn_server(
            standby_dir, "--follow", f"{phost}:{pport}",
            "--takeover-deadline", "0.5",
        )
        wait_attached(client)
        stream(client, streams, PRE_FOLLOW, KILL_AFTER)
        kill9(pproc)
        client.close()

        standby = Client(fhost, fport)
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline:
            status = standby.call(op="status")
            if status["role"] == "primary":
                break
            time.sleep(0.1)
        else:
            raise AssertionError(f"standby never took over: {status}")
        assert status["epoch"] == 2, status
        # The self-promoted standby accepts writes at the new epoch.
        stream(standby, streams, KILL_AFTER, EVENTS + 1, epoch=2)
        for tenant in TENANTS:
            stats = standby.call(op="stats", tenant=tenant)
            assert stats["applied_seq"] == EVENTS + 1, stats
        graceful_stop(fproc, standby)
        standby.close()


class TestReadReplica:
    def test_follower_serves_reads_refuses_writes(self, tmp_path):
        streams = {tenant: ops_for(tenant) for tenant in TENANTS}
        primary_dir = tmp_path / "rr-primary"
        standby_dir = tmp_path / "rr-standby"
        pproc, phost, pport = spawn_server(primary_dir)
        client = Client(phost, pport)
        attach_all(client, "memory")
        fproc, fhost, fport = spawn_server(
            standby_dir, "--follow", f"{phost}:{pport}",
            "--takeover-deadline", "0",
        )
        wait_attached(client)
        stream(client, streams, 0, KILL_AFTER)

        with Client(fhost, fport) as standby:
            status = standby.call(op="status")
            assert status["role"] == "follower", status
            assert status["replication"]["lag_records"] == 0, status
            # Reads come straight off the replicated working memory.
            for tenant in TENANTS:
                scale = 1 if tenant == "t1" else 100
                [row] = standby.call(op="query", tenant=tenant,
                                     relation="acc")["rows"]
                expected = scale * sum(range(1, KILL_AFTER))
                assert row[2] == [expected, KILL_AFTER - 1], row
                stats = standby.call(op="stats", tenant=tenant)
                assert stats["applied_seq"] == KILL_AFTER, stats
            # Writes are refused with a pointer at the primary.
            refused = standby.call(op="insert", tenant="t1", seq=99,
                                   relation="ev", values={"n": 1})
            assert not refused["ok"] and refused["follower"], refused
            assert "read-only follower" in refused["error"], refused
            graceful_stop(fproc, standby)
        graceful_stop(pproc, client)
        client.close()

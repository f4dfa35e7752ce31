"""RuleServer in-process: attach, routing, dedup, backpressure,
group-commit rounds, restart recovery — one event loop per test."""

import asyncio
import json

import pytest

from repro.errors import RecoveryError
from repro.obs import Observability
from repro.serve.backpressure import AdmissionController, AdmissionPolicy
from repro.serve.protocol import MAX_LINE_BYTES, parse_request
from repro.serve.server import RuleServer, scan_tenants

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

OTHER_PROGRAM = """
(literalize ev n)
(p drop (ev ^n <n>) --> (remove 1))
"""


def run(coro):
    return asyncio.run(coro)


async def connect(server):
    reader, writer = await asyncio.open_connection(server.host, server.port)

    async def call(**body):
        writer.write(json.dumps(body).encode() + b"\n")
        await writer.drain()
        line = await reader.readline()
        assert line, "server closed the connection"
        return json.loads(line)

    return call, writer


async def started_server(tmp_path, **kwargs):
    server = RuleServer(str(tmp_path), **kwargs)
    await server.start()
    return server


class TestScanTenants:
    def test_finds_wal_segments_and_sidecars(self, tmp_path):
        for name in (
            "t1.wal",
            "t2.wal.00000001-00000009.seg",  # active lost: still a tenant
            "t3.wal.walmeta",
            "t1.ckpt",  # checkpoint alone never defines a tenant
            "notes.txt",
            "bad name.wal",
        ):
            (tmp_path / name).write_text("")
        assert scan_tenants(str(tmp_path)) == ["t1", "t2", "t3"]


class TestRequestPaths:
    def test_ping_attach_insert_query_stats_status(self, tmp_path):
        async def scenario():
            server = await started_server(tmp_path)
            call, writer = await connect(server)
            assert (await call(op="ping"))["pong"] is True

            reply = await call(op="attach", tenant="t1", program=PROGRAM)
            assert reply["ok"] and reply["existing"] is False

            reply = await call(op="insert", tenant="t1", seq=1,
                               relation="acc",
                               values={"total": 0, "count": 0})
            assert reply["ok"] and reply["durable"] is True
            reply = await call(op="insert", tenant="t1", seq=2,
                               relation="ev", values={"n": 4})
            assert reply["ok"] and reply["durable"] is True

            reply = await call(op="query", tenant="t1", relation="acc")
            assert [row[2] for row in reply["rows"]] == [[4, 1]]

            reply = await call(op="stats", tenant="t1")
            assert reply["applied_seq"] == 2

            status = await call(op="status")
            assert list(status["tenants"]) == ["t1"]
            assert status["rounds"] >= 1
            assert status["group_commits"] >= 1

            writer.close()
            await server.shutdown()

        run(scenario())

    def test_mutation_before_attach_is_refused(self, tmp_path):
        async def scenario():
            server = await started_server(tmp_path)
            call, writer = await connect(server)
            reply = await call(op="insert", tenant="ghost", seq=1,
                               relation="ev", values={"n": 1})
            assert reply["ok"] is False
            assert "attach first" in reply["error"]
            writer.close()
            await server.shutdown()

        run(scenario())

    def test_malformed_line_gets_an_error_not_a_hangup(self, tmp_path):
        async def scenario():
            server = await started_server(tmp_path)
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            writer.write(b"this is not json\n")
            await writer.drain()
            reply = json.loads(await reader.readline())
            assert reply["ok"] is False
            # the connection survives for the next request
            writer.write(json.dumps({"op": "ping"}).encode() + b"\n")
            await writer.drain()
            assert json.loads(await reader.readline())["pong"] is True
            writer.close()
            await server.shutdown()

        run(scenario())

    def test_large_program_attaches_and_oversized_line_is_refused(
        self, tmp_path
    ):
        """Regression: the listener used asyncio's default 64 KiB line
        limit and ``_handle_client`` let the resulting ``ValueError``
        escape, so a big ``attach`` died with a traceback and no reply.
        Now a >64 KiB program attaches; a line over ``MAX_LINE_BYTES``
        gets a structured ``too_large`` error and a deliberate close,
        and neither the server nor another tenant's connection notices."""

        async def scenario():
            failures = []
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(lambda _l, ctx: failures.append(ctx))
            server = await started_server(tmp_path)
            call, writer = await connect(server)
            await call(op="attach", tenant="t1", program=PROGRAM)
            await call(op="insert", tenant="t1", seq=1, relation="acc",
                       values={"total": 0, "count": 0})

            big_call, big_writer = await connect(server)
            padding = "; " + "x" * 100 + "\n"
            big_program = PROGRAM + padding * 1000  # ~100 KiB of comments
            assert len(big_program) > 64 * 1024
            attached = await big_call(op="attach", tenant="big",
                                      program=big_program)
            assert attached["ok"] is True
            big_writer.close()

            reader, hostile = await asyncio.open_connection(
                server.host, server.port
            )
            hostile.write(b"x" * (MAX_LINE_BYTES + 1024))
            reply = json.loads(await reader.readline())
            assert reply["ok"] is False
            assert reply["error"] == "too_large"
            assert reply["limit"] == MAX_LINE_BYTES
            assert await reader.read() == b""  # closed by the server
            hostile.close()

            # the first tenant's connection and state are untouched
            ack = await call(op="insert", tenant="t1", seq=2, relation="ev",
                             values={"n": 5})
            assert ack["ok"] is True and ack["durable"] is True
            rows = (await call(op="query", tenant="t1",
                               relation="acc"))["rows"]
            assert [row[2] for row in rows] == [[5, 1]]
            assert sorted((await call(op="status"))["tenants"]) == [
                "big", "t1",
            ]
            writer.close()
            await server.shutdown()
            assert failures == [], failures

        run(scenario())

    def test_duplicate_seq_acked_without_reapplying(self, tmp_path):
        async def scenario():
            obs = Observability(collect_metrics=True)
            server = await started_server(tmp_path, obs=obs)
            call, writer = await connect(server)
            await call(op="attach", tenant="t1", program=PROGRAM)
            await call(op="insert", tenant="t1", seq=1, relation="ev",
                       values={"n": 1})
            reply = await call(op="insert", tenant="t1", seq=1,
                               relation="ev", values={"n": 1})
            assert reply["dup"] is True and reply["durable"] is True
            rows = (await call(op="query", tenant="t1",
                               relation="ev"))["rows"]
            assert len(rows) == 1  # applied once, acked twice
            counters = obs.metrics.snapshot()["counters"]
            assert counters["serve.dup_acks"] == 1
            writer.close()
            await server.shutdown()

        run(scenario())


class TestAttachSemantics:
    def test_reattach_same_program_reports_existing(self, tmp_path):
        async def scenario():
            server = await started_server(tmp_path)
            call, writer = await connect(server)
            first = await call(op="attach", tenant="t1", program=PROGRAM)
            second = await call(op="attach", tenant="t1", program=PROGRAM)
            assert second["existing"] is True
            assert second["pack_crc"] == first["pack_crc"]
            third = await call(op="attach", tenant="t1")  # programless ping
            assert third["ok"] is True
            writer.close()
            await server.shutdown()

        run(scenario())

    def test_reattach_with_different_program_refused(self, tmp_path):
        async def scenario():
            server = await started_server(tmp_path)
            call, writer = await connect(server)
            await call(op="attach", tenant="t1", program=PROGRAM)
            reply = await call(op="attach", tenant="t1",
                               program=OTHER_PROGRAM)
            assert reply["ok"] is False
            assert "different" in reply["error"]
            writer.close()
            await server.shutdown()

        run(scenario())

    def test_new_tenant_without_program_refused(self, tmp_path):
        async def scenario():
            server = await started_server(tmp_path)
            call, writer = await connect(server)
            reply = await call(op="attach", tenant="t1")
            assert reply["ok"] is False
            writer.close()
            await server.shutdown()

        run(scenario())

    def test_unparsable_program_refused_cleanly(self, tmp_path):
        async def scenario():
            server = await started_server(tmp_path)
            call, writer = await connect(server)
            reply = await call(op="attach", tenant="t1",
                               program="(p broken")
            assert reply["ok"] is False
            assert server.registry.get("t1") is None
            writer.close()
            await server.shutdown()

        run(scenario())

    def test_unknown_config_keys_are_dropped(self, tmp_path):
        """``workers`` (a key older clients sent) is ignored like any
        other key the session does not know; the attach succeeds."""

        async def scenario():
            server = await started_server(tmp_path)
            call, writer = await connect(server)
            reply = await call(op="attach", tenant="t1", program=PROGRAM,
                               config={"workers": 2, "no_such_key": 1})
            assert reply["ok"] is True
            ack = await call(op="insert", tenant="t1", seq=1,
                             relation="ev", values={"n": 1})
            assert ack["ok"] is True and ack["durable"] is True
            meta = server.registry.get("t1").run.writer.wal_meta
            assert "workers" not in meta and "no_such_key" not in meta
            writer.close()
            await server.shutdown()

        run(scenario())

    def test_instance_firing_key_is_accepted(self, tmp_path):
        """``"firing": "instance"`` (what older clients sent) names the
        only Act granularity; the attach succeeds and drops the key."""

        async def scenario():
            server = await started_server(tmp_path)
            call, writer = await connect(server)
            reply = await call(op="attach", tenant="t1", program=PROGRAM,
                               config={"firing": "instance"})
            assert reply["ok"] is True
            ack = await call(op="insert", tenant="t1", seq=1,
                             relation="ev", values={"n": 1})
            assert ack["ok"] is True and ack["durable"] is True
            meta = server.registry.get("t1").run.writer.wal_meta
            assert "firing" not in meta
            writer.close()
            await server.shutdown()

        run(scenario())

    def test_set_firing_is_refused(self, tmp_path):
        """Any other firing mode gets a structured error instead of being
        run one instantiation per cycle; no tenant or log is created."""

        async def scenario():
            server = await started_server(tmp_path)
            call, writer = await connect(server)
            reply = await call(op="attach", tenant="t1", program=PROGRAM,
                               config={"firing": "set"})
            assert reply["ok"] is False
            assert "firing" in reply["error"] and "'set'" in reply["error"]
            assert server.registry.get("t1") is None
            assert scan_tenants(str(tmp_path)) == []
            reply = await call(op="attach", tenant="t1", program=PROGRAM)
            assert reply["ok"] is True
            writer.close()
            await server.shutdown()

        run(scenario())

    def test_batch_size_one_is_accepted(self, tmp_path):
        """``"batch_size": 1`` (what older clients sent) names the only
        act granularity; the attach succeeds and drops the key."""

        async def scenario():
            server = await started_server(tmp_path)
            call, writer = await connect(server)
            reply = await call(op="attach", tenant="t1", program=PROGRAM,
                               config={"batch_size": 1})
            assert reply["ok"] is True
            meta = server.registry.get("t1").run.writer.wal_meta
            assert "batch_size" not in meta
            writer.close()
            await server.shutdown()

        run(scenario())

    @pytest.mark.parametrize("value", [8, "auto", True, 1.0])
    def test_other_batch_sizes_are_refused(self, tmp_path, value):
        """Act batching is gone: any other batch size gets a structured
        error naming the key; no tenant or log is created.  The check is
        type-strict: ``true`` and ``1.0`` compare equal to ``1`` but are
        not what older clients sent."""

        async def scenario():
            server = await started_server(tmp_path)
            call, writer = await connect(server)
            reply = await call(op="attach", tenant="t1", program=PROGRAM,
                               config={"batch_size": value})
            assert reply["ok"] is False
            assert "batch_size" in reply["error"]
            assert server.registry.get("t1") is None
            assert scan_tenants(str(tmp_path)) == []
            writer.close()
            await server.shutdown()

        run(scenario())

    @pytest.mark.parametrize("value", ["auto", "on"])
    def test_compiled_match_keys_are_accepted(self, tmp_path, value):
        """``"compile": "auto"`` or ``"on"`` (what older clients sent)
        names the only match path; the attach succeeds and drops the
        key."""

        async def scenario():
            server = await started_server(tmp_path)
            call, writer = await connect(server)
            reply = await call(op="attach", tenant="t1", program=PROGRAM,
                               config={"compile": value})
            assert reply["ok"] is True
            ack = await call(op="insert", tenant="t1", seq=1,
                             relation="ev", values={"n": 1})
            assert ack["ok"] is True and ack["durable"] is True
            meta = server.registry.get("t1").run.writer.wal_meta
            assert "compile" not in meta
            writer.close()
            await server.shutdown()

        run(scenario())

    @pytest.mark.parametrize("value", ["off", True, "bogus"])
    def test_interpreted_match_is_refused(self, tmp_path, value):
        """The interpreted scan is only the oracle's reference: asking
        for it gets a structured error naming the key; no tenant or log
        is created."""

        async def scenario():
            server = await started_server(tmp_path)
            call, writer = await connect(server)
            reply = await call(op="attach", tenant="t1", program=PROGRAM,
                               config={"compile": value})
            assert reply["ok"] is False
            assert "compile" in reply["error"]
            assert server.registry.get("t1") is None
            assert scan_tenants(str(tmp_path)) == []
            writer.close()
            await server.shutdown()

        run(scenario())

    def test_two_tenants_share_one_pack(self, tmp_path):
        async def scenario():
            server = await started_server(tmp_path)
            call, writer = await connect(server)
            await call(op="attach", tenant="t1", program=PROGRAM)
            await call(op="attach", tenant="t2", program=PROGRAM)
            status = await call(op="status")
            [pack] = status["packs"]
            assert pack["tenants"] == ["t1", "t2"]
            s1, s2 = server.registry.get("t1"), server.registry.get("t2")
            assert s1.pack is s2.pack
            assert s1.system is not s2.system
            writer.close()
            await server.shutdown()

        run(scenario())


class TestTenantIsolation:
    def test_nan_insert_is_refused_and_other_tenants_untouched(
        self, tmp_path
    ):
        """JSON's ``NaN`` parses to a float that equals nothing, itself
        included; a join on it made the compiled and interpreted match
        disagree.  An insert carrying one gets a structured error, and
        neither the tenant nor its neighbour is perturbed."""

        async def scenario():
            server = await started_server(tmp_path)
            call, writer = await connect(server)
            await call(op="attach", tenant="t1", program=PROGRAM)
            await call(op="attach", tenant="t2", program=PROGRAM)
            for tenant in ("t1", "t2"):
                await call(op="insert", tenant=tenant, seq=1,
                           relation="acc", values={"total": 0, "count": 0})
            reply = await call(op="insert", tenant="t1", seq=2,
                               relation="ev", values={"n": float("nan")})
            assert reply["ok"] is False
            assert "NaN" in reply["error"]
            ack = await call(op="insert", tenant="t2", seq=2,
                             relation="ev", values={"n": 5})
            assert ack["ok"] is True and ack["durable"] is True
            ack = await call(op="insert", tenant="t1", seq=3,
                             relation="ev", values={"n": 7})
            assert ack["ok"] is True and ack["durable"] is True
            r1 = await call(op="query", tenant="t1", relation="acc")
            r2 = await call(op="query", tenant="t2", relation="acc")
            assert [row[2] for row in r1["rows"]] == [[7, 1]]
            assert [row[2] for row in r2["rows"]] == [[5, 1]]
            writer.close()
            await server.shutdown()

        run(scenario())

    def test_mutations_never_leak_across_tenants(self, tmp_path):
        async def scenario():
            server = await started_server(tmp_path)
            call, writer = await connect(server)
            await call(op="attach", tenant="t1", program=PROGRAM)
            await call(op="attach", tenant="t2", program=PROGRAM)
            for tenant, n in (("t1", 10), ("t2", 20)):
                await call(op="insert", tenant=tenant, seq=1,
                           relation="acc", values={"total": 0, "count": 0})
                await call(op="insert", tenant=tenant, seq=2,
                           relation="ev", values={"n": n})
            r1 = await call(op="query", tenant="t1", relation="acc")
            r2 = await call(op="query", tenant="t2", relation="acc")
            assert [row[2] for row in r1["rows"]] == [[10, 1]]
            assert [row[2] for row in r2["rows"]] == [[20, 1]]
            # seq spaces are independent: t2's seq 2 did not dup t1's
            s1 = await call(op="stats", tenant="t1")
            s2 = await call(op="stats", tenant="t2")
            assert s1["applied_seq"] == s2["applied_seq"] == 2
            writer.close()
            await server.shutdown()

        run(scenario())

    def test_each_tenant_gets_its_own_wal(self, tmp_path):
        async def scenario():
            server = await started_server(tmp_path)
            call, writer = await connect(server)
            await call(op="attach", tenant="t1", program=PROGRAM)
            await call(op="attach", tenant="t2", program=PROGRAM)
            writer.close()
            await server.shutdown()

        run(scenario())
        assert (tmp_path / "t1.wal").exists()
        assert (tmp_path / "t2.wal").exists()
        assert scan_tenants(str(tmp_path)) == ["t1", "t2"]


class TestBackpressure:
    def test_shed_when_the_queue_is_full(self, tmp_path):
        async def scenario():
            admission = AdmissionController(
                AdmissionPolicy(defer_depth=1, shed_depth=2)
            )
            server = await started_server(tmp_path, admission=admission)
            call, writer = await connect(server)
            await call(op="attach", tenant="t1", program=PROGRAM)
            session = server.registry.get("t1")
            # wedge the queue past the shed threshold without draining
            for seq in (1, 2):
                session.enqueue(parse_request(json.dumps(
                    {"op": "insert", "tenant": "t1", "seq": seq,
                     "relation": "ev", "values": {"n": seq}}
                )))
            reply = await call(op="insert", tenant="t1", seq=3,
                               relation="ev", values={"n": 3})
            assert reply["ok"] is False and reply["shed"] is True
            assert "retry" in reply["error"]
            assert admission.shed == 1
            # the shed op was never queued; the wedged two still are
            assert session.depth == 2
            writer.close()
            await server.shutdown()

        run(scenario())

    def test_defer_waits_for_the_drain_then_applies(self, tmp_path):
        async def scenario():
            admission = AdmissionController(
                AdmissionPolicy(defer_depth=1, shed_depth=100)
            )
            server = await started_server(tmp_path, admission=admission)
            call, writer = await connect(server)
            await call(op="attach", tenant="t1", program=PROGRAM)
            session = server.registry.get("t1")
            session.enqueue(parse_request(json.dumps(
                {"op": "insert", "tenant": "t1", "seq": 1,
                 "relation": "ev", "values": {"n": 1}}
            )))
            server._work.set()  # the queued op drains this round
            # dispatch directly (no network awaits in between) so the
            # depth-1 queue is still wedged when admission looks at it
            reply = await server._dispatch(parse_request(json.dumps(
                {"op": "insert", "tenant": "t1", "seq": 2,
                 "relation": "ev", "values": {"n": 2}}
            )))
            assert reply["ok"] is True and reply["durable"] is True
            assert admission.deferred == 1
            assert session.applied_seq == 2
            writer.close()
            await server.shutdown()

        run(scenario())


class TestRestartRecovery:
    def test_graceful_restart_recovers_every_tenant(self, tmp_path):
        async def first_life():
            server = await started_server(tmp_path)
            call, writer = await connect(server)
            await call(op="attach", tenant="t1", program=PROGRAM)
            await call(op="attach", tenant="t2", program=OTHER_PROGRAM)
            await call(op="insert", tenant="t1", seq=1, relation="acc",
                       values={"total": 0, "count": 0})
            await call(op="insert", tenant="t1", seq=2, relation="ev",
                       values={"n": 6})
            await call(op="insert", tenant="t2", seq=1, relation="ev",
                       values={"n": 1})
            writer.close()
            await server.shutdown()

        async def second_life():
            server = await started_server(tmp_path)
            assert server.recovered_tenants == ["t1", "t2"]
            call, writer = await connect(server)
            reply = await call(op="attach", tenant="t1", program=PROGRAM)
            assert reply["existing"] is True and reply["recovered"] is True
            assert reply["applied_seq"] == 2
            rows = (await call(op="query", tenant="t1",
                               relation="acc"))["rows"]
            assert [row[2] for row in rows] == [[6, 1]]
            # recovered tenants intern packs exactly like fresh ones
            assert len(server.registry.packs) == 2
            dup = await call(op="insert", tenant="t1", seq=2,
                             relation="ev", values={"n": 6})
            assert dup["dup"] is True
            fresh = await call(op="insert", tenant="t1", seq=3,
                               relation="ev", values={"n": 1})
            assert fresh["ok"] is True and "dup" not in fresh
            writer.close()
            await server.shutdown()

        run(first_life())
        run(second_life())

    def test_a_log_holding_nan_stops_startup_naming_the_tenant(
        self, tmp_path, monkeypatch
    ):
        """Logs written before NaN was refused may hold one.  Restarting
        on such a data dir fails with a RecoveryError that names the
        tenant: the server does not serve around a log it cannot replay
        (docs/SERVING.md)."""
        monkeypatch.setattr(
            "repro.storage.schema.check_value", lambda value: value
        )

        async def first_life():
            server = await started_server(tmp_path)
            call, writer = await connect(server)
            await call(op="attach", tenant="t1", program=OTHER_PROGRAM)
            await call(op="attach", tenant="t2", program=PROGRAM)
            reply = await call(op="insert", tenant="t2", seq=1,
                               relation="ev", values={"n": float("nan")})
            assert reply["ok"] is True
            writer.close()
            await server.shutdown()

        run(first_life())
        monkeypatch.undo()
        with pytest.raises(RecoveryError, match=r"tenant 't2'.*NaN"):
            run(started_server(tmp_path))

    def test_shutdown_cuts_a_final_checkpoint(self, tmp_path):
        async def scenario():
            server = await started_server(tmp_path, checkpoint_rounds=10_000)
            call, writer = await connect(server)
            await call(op="attach", tenant="t1", program=PROGRAM)
            await call(op="insert", tenant="t1", seq=1, relation="ev",
                       values={"n": 1})
            writer.close()
            await server.shutdown()

        run(scenario())
        assert (tmp_path / "t1.ckpt").exists()

    def test_shutdown_op_stops_serve_forever(self, tmp_path):
        async def scenario():
            server = await started_server(tmp_path)
            call, writer = await connect(server)
            reply = await call(op="shutdown")
            assert reply["ok"] is True
            await asyncio.wait_for(server.serve_forever(), timeout=10)
            writer.close()
            await server.shutdown()

        run(scenario())

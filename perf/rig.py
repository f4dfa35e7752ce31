"""One workload wired up: servers, connections, tenants, phases, checks.

Both passes drive a :class:`Rig` the same way — set up, stream in
phases, read the final state, kill, recover — and differ only in which
server binary runs (``spans=None`` is the real ``repro serve``).
"""

from __future__ import annotations

import asyncio
import signal
import time
from pathlib import Path

from loadgen import (
    Client,
    Tenant,
    closed_loop,
    closed_ops,
    mutate,
    settle,
    tenant_state,
)
from procs import Fleet, ServerProc
from workloads import Workload, reference_state

FOLLOWER_ATTACH_TIMEOUT_S = 30.0


class CheckFailed(Exception):
    """A correctness check did not hold; the run is wrong, not slow."""


class Phase:
    """What one streamed interval produced."""

    def __init__(self, start: float, end: float, samples: list,
                 generator_cpu_s: float) -> None:
        self.start = start
        self.end = end
        #: ``(sent, acked, good)`` per mutation, in ack order per connection.
        self.samples = samples
        self.generator_cpu_s = generator_cpu_s

    @property
    def good(self) -> int:
        return sum(1 for _, _, good in self.samples if good)


class Rig:
    """Servers, connections and tenants of one workload at one seed."""

    def __init__(self, fleet: Fleet, workload: Workload, seed: int,
                 data_dir: Path, traced: bool = False) -> None:
        self.fleet = fleet
        self.workload = workload
        self.seed = seed
        self.data_dir = data_dir
        self.traced = traced
        self.primary: ServerProc | None = None
        self.standby: ServerProc | None = None
        self.clients: list[Client] = []
        self.groups = [
            [Tenant(name, workload.new_stream(seed, name)) for name in group]
            for group in workload.connections
        ]
        self.setup_s = 0.0
        #: tenant → (seq, request bytes) last acked by the stopped primary.
        self.primary_acked: dict[str, tuple[int, bytes]] = {}
        #: ``(role, spans file)`` per traced server started, in order.
        self.span_files: list[tuple[str, Path]] = []
        #: Mutations sent / not acked good, over every phase of the rig.
        self.attempted = 0
        self.failed = 0
        #: tenant → (ops fed, reference relations); see :meth:`reference`.
        self._references: dict[str, tuple[int, dict]] = {}

    @property
    def tenants(self) -> list[Tenant]:
        return [tenant for group in self.groups for tenant in group]

    def _spawn(self, role: str, *args: str) -> ServerProc:
        """Start a server on this rig's ``<data_dir>/<role>`` directory."""
        spans = None
        if self.traced:
            spans = self.data_dir / f"spans-{len(self.span_files)}-{role}.jsonl"
            self.span_files.append((role, spans))
        return self.fleet.spawn(
            self.data_dir / role, *args, *self.workload.server_args(),
            spans=spans, primary=role == "primary",
        )

    async def _connect(self) -> None:
        self.clients = [
            await Client.open(self.primary.host, self.primary.port)
            for _ in self.groups
        ]

    async def _streamed(self, work, seconds: float = 0.0) -> Phase:
        """Run ``work(client, tenants, samples)`` on every connection at
        once; the phase it returns is already counted into the totals."""
        samples: list = []
        cpu = time.process_time()
        start = time.perf_counter()
        await asyncio.gather(*(
            work(client, group, samples)
            for client, group in zip(self.clients, self.groups)
        ))
        phase = Phase(start, time.perf_counter(), samples,
                      time.process_time() - cpu)
        self.attempted += len(samples)
        self.failed += len(samples) - phase.good
        return phase

    # -- set-up ----------------------------------------------------------------

    async def setup(self) -> None:
        """spawn → ``serving on`` → tenants attached → resident tuples
        loaded (→ standby attached); the whole of it is ``setup_s``."""
        started = time.perf_counter()
        self.primary = self._spawn("primary")
        await self._connect()

        async def load(client: Client, group: list[Tenant], samples) -> None:
            for tenant in group:
                reply = await client.call(
                    op="attach", tenant=tenant.name,
                    program=self.workload.program,
                    config=self.workload.config,
                )
                if not reply.get("ok"):
                    raise CheckFailed(f"attach refused: {reply}")
                for op in tenant.stream.resident():
                    await mutate(client, tenant, op, samples)

        loaded = await self._streamed(load)
        if loaded.good != len(loaded.samples):
            raise CheckFailed("a resident tuple was not acked ok and durable")
        if self.workload.replicated:
            await self.attach_standby()
        self.setup_s = time.perf_counter() - started

    async def attach_standby(self) -> None:
        self.standby = self._spawn(
            "standby", "--follow", f"{self.primary.host}:{self.primary.port}",
            "--takeover-deadline", "0",
        )
        deadline = time.monotonic() + FOLLOWER_ATTACH_TIMEOUT_S
        while time.monotonic() < deadline:
            status = await self.clients[0].call(op="status")
            if status["replication"]["follower_attached"]:
                return
            await asyncio.sleep(0.02)
        raise CheckFailed("the standby never attached")

    def servers(self) -> list[ServerProc]:
        return [s for s in (self.primary, self.standby) if s is not None]

    # -- streaming ---------------------------------------------------------------

    async def stream(self, seconds: float) -> Phase:
        """Closed loop on every connection for *seconds*."""
        return await self._streamed(
            lambda client, group, samples:
                closed_loop(client, group, seconds, samples)
        )

    async def stream_ops(self, count: int) -> Phase:
        """Closed loop for exactly *count* ops per tenant."""
        return await self._streamed(
            lambda client, group, samples:
                closed_ops(client, group, count, samples)
        )

    async def settle(self) -> Phase:
        """Stream to a fixed distance past every tenant's checkpoint."""
        every = self.workload.checkpoint_rounds
        return await self._streamed(
            lambda client, group, samples:
                settle(client, group, every, samples)
        )

    # -- state and checks ----------------------------------------------------------

    async def states(self, client: Client | None = None) -> dict:
        """Every tenant's final state, read over the wire."""
        client = client or self.clients[0]
        return {
            tenant.name: await tenant_state(
                client, tenant.name, self.workload.relations
            )
            for tenant in self.tenants
        }

    def reference(self, tenant: Tenant) -> dict:
        """The reference relations for everything *tenant* sent so far."""
        cached = self._references.get(tenant.name)
        if cached is None or cached[0] != len(tenant.ops):
            cached = (len(tenant.ops),
                      reference_state(self.workload, tenant.ops))
            self._references[tenant.name] = cached
        return cached[1]

    def check_states(self, states: dict, where: str) -> None:
        """*states* must equal the in-process reference fed the same ops."""
        for tenant in self.tenants:
            got = states[tenant.name]
            if got["applied_seq"] != tenant.seq:
                raise CheckFailed(
                    f"{where}: {tenant.name} applied_seq {got['applied_seq']}"
                    f" != last acked seq {tenant.seq}"
                )
            want = self.reference(tenant)
            for relation, rows in want.items():
                if got["relations"][relation] != rows:
                    raise CheckFailed(
                        f"{where}: {tenant.name}.{relation} differs from the "
                        f"reference ({len(got['relations'][relation])} rows "
                        f"vs {len(rows)})"
                    )

    # -- kill, recover, promote ------------------------------------------------------

    async def _hang_up(self) -> None:
        for client in self.clients:
            await client.close()
        self.clients = []

    def _stop_primary(self, signum: int) -> None:
        """Stop the primary, remembering what it had acked: that, not what
        a promoted standby acks later, is what its data dir must recover."""
        self.primary_acked = {
            tenant.name: (tenant.seq, tenant.last_request)
            for tenant in self.tenants
        }
        self.primary.stop(signum)
        self.primary = None

    async def kill(self, signum: int = signal.SIGKILL) -> None:
        """Close the connections and stop every server of the rig (default:
        the real ``kill -9``; the traced server dumps its spans on SIGTERM
        and exits just as abruptly)."""
        await self._hang_up()
        if self.standby is not None:
            self.standby.stop(signum)
            self.standby = None
        self._stop_primary(signum)

    async def recover(self, signum: int = signal.SIGKILL) -> float:
        """Restart on the stopped primary's data dir; seconds from spawn
        until ``status`` lists every tenant recovered.  Then: nothing acked
        was lost, and re-sending the last acked op is acked ``dup``.  The
        recovered server is stopped again before returning."""
        started = time.perf_counter()
        server = self._spawn("primary")
        client = await Client.open(server.host, server.port)
        status = await client.call(op="status")
        if sorted(status["recovered_tenants"]) != sorted(self.primary_acked):
            raise CheckFailed(
                f"recovered {status['recovered_tenants']}, expected "
                f"{sorted(self.primary_acked)}"
            )
        elapsed = time.perf_counter() - started
        for tenant in self.tenants:
            seq, last_request = self.primary_acked[tenant.name]
            applied = status["tenants"][tenant.name]["applied_seq"]
            if applied < seq:
                raise CheckFailed(
                    f"{tenant.name} recovered to seq {applied}, but seq "
                    f"{seq} was acked durable"
                )
            client.writer.write(last_request)
            reply = await client.read_reply()
            if not (reply.get("ok") and reply.get("dup")):
                raise CheckFailed(f"re-sent acked op not acked dup: {reply}")
        await client.close()
        server.stop(signum)
        return elapsed

    async def promote(self, signum: int = signal.SIGKILL) -> float:
        """Kill the primary and promote the standby over TCP; the promoted
        standby must hold every acked seq and the reference state.  The
        promoted standby is stopped again before returning.  Returns
        milliseconds from sending ``promote`` to the first durable
        ack of a new mutation."""
        await self._hang_up()
        self._stop_primary(signum)
        promoted, self.standby = self.standby, None
        self.clients = [
            await Client.open(promoted.host, promoted.port)
            for _ in self.groups
        ]
        client, tenant = self.clients[0], self.tenants[0]
        started = time.perf_counter()
        reply = await client.call(op="promote")
        if not reply.get("ok") or reply.get("already_primary"):
            raise CheckFailed(f"promotion refused: {reply}")
        first: list = []
        await mutate(client, tenant, tenant.stream.next_op(), first)
        elapsed = time.perf_counter() - started
        self.attempted += 1
        if not first[0][2]:
            raise CheckFailed("the promoted standby did not ack a new write")
        self.check_states(await self.states(), "promoted standby")
        await self._hang_up()
        promoted.stop(signum)
        return elapsed * 1e3

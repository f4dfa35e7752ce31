"""The load generator: asyncio, one process, no threads.

Closed loop by default — two connections, one request in flight on each,
each connection round-robining over its own tenants, so every drain
applies exactly one op per tenant.  Latency is send → durable ack as the
client sees it.  :func:`open_loop` is the non-gated sweep's generator:
pipelined writes on a fixed schedule, latency timed from the due time.
"""

from __future__ import annotations

import asyncio
import json
import time

#: A reply slower than this counts as failed, whatever it says.
REPLY_LIMIT_S = 2.0
#: Nothing in a healthy run takes this long; a hung server aborts the run.
IO_TIMEOUT_S = 60.0


def encode(body: dict) -> bytes:
    return json.dumps(body, separators=(",", ":")).encode() + b"\n"


class Tenant:
    """One tenant's client side: its stream, its seq, what it sent."""

    def __init__(self, name: str, stream) -> None:
        self.name = name
        self.stream = stream
        self.seq = 0
        #: Every op body sent, in order — the reference system's input.
        self.ops: list[dict] = []
        self.last_request = b""

    def request(self, op: tuple[dict, int | None]) -> tuple[bytes, int | None]:
        body, expect_tid = op
        self.seq += 1
        self.ops.append(body)
        self.last_request = encode({**body, "tenant": self.name, "seq": self.seq})
        return self.last_request, expect_tid


class Client:
    """One connection speaking newline-delimited JSON."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, host: str, port: int) -> "Client":
        reader, writer = await asyncio.open_connection(host, port, limit=2**26)
        return cls(reader, writer)

    async def read_reply(self) -> dict:
        line = await asyncio.wait_for(self.reader.readline(), IO_TIMEOUT_S)
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    async def call(self, **body) -> dict:
        self.writer.write(encode(body))
        return await self.read_reply()

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass


def good_ack(reply: dict, seq: int, expect_tid: int | None) -> bool:
    """Acked ``ok`` and ``durable`` for this seq, with the predicted tid."""
    return bool(
        reply.get("ok")
        and reply.get("durable")
        and not reply.get("dup")
        and reply.get("seq") == seq
        and (expect_tid is None or reply.get("tid") == expect_tid)
    )


async def mutate(client: Client, tenant: Tenant, op, samples: list) -> None:
    """Send one mutation and wait for its ack; one ``(sent, acked, good)``."""
    payload, expect_tid = tenant.request(op)
    sent = time.perf_counter()
    client.writer.write(payload)
    reply = await client.read_reply()
    acked = time.perf_counter()
    good = good_ack(reply, tenant.seq, expect_tid)
    samples.append((sent, acked, good and acked - sent <= REPLY_LIMIT_S))


async def closed_loop(client: Client, tenants: list[Tenant], seconds: float,
                      samples: list) -> None:
    """Round-robin *tenants* on one connection until *seconds* have passed."""
    deadline = time.perf_counter() + seconds
    while True:
        for tenant in tenants:
            if time.perf_counter() >= deadline:
                return
            await mutate(client, tenant, tenant.stream.next_op(), samples)


async def closed_ops(client: Client, tenants: list[Tenant], count: int,
                     samples: list) -> None:
    """The same loop for exactly *count* ops per tenant."""
    for _ in range(count):
        for tenant in tenants:
            await mutate(client, tenant, tenant.stream.next_op(), samples)


async def settle(client: Client, tenants: list[Tenant], every: int,
                 samples: list) -> None:
    """Stream on until each tenant is ``every // 4`` rounds past its last
    checkpoint, so a SIGKILL always leaves the same length of log to replay.

    One op per drain makes rounds equal ops: a server that has run since
    the tenant's first op cuts its checkpoint when ``seq % every == 0``.
    """
    def pending() -> list[Tenant]:
        return [t for t in tenants if t.seq % every != every // 4]

    while pending():
        for tenant in pending():
            await mutate(client, tenant, tenant.stream.next_op(), samples)


async def ping_rtt_us(client: Client, count: int) -> float:
    """Median round trip of *count* ``ping`` requests: the TCP + asyncio
    floor under every latency in the run."""
    trips = []
    for _ in range(count):
        sent = time.perf_counter()
        await client.call(op="ping")
        trips.append(time.perf_counter() - sent)
    trips.sort()
    return trips[len(trips) // 2] * 1e6


async def tenant_state(client: Client, tenant: str, relations: list[str]) -> dict:
    """``applied_seq`` plus every relation's rows without timetags."""
    stats = await client.call(op="stats", tenant=tenant)
    state = {"applied_seq": stats["applied_seq"], "relations": {}}
    for relation in relations:
        reply = await client.call(op="query", tenant=tenant, relation=relation)
        state["relations"][relation] = [
            [tid, values] for tid, _timetag, values in reply["rows"]
        ]
    return state


async def open_loop(client: Client, tenants: list[Tenant], rate: float,
                    seconds: float) -> dict:
    """Send at *rate* requests/s for *seconds* without waiting for acks.

    Each request is timed from when it was *due*, so a stall charges the
    requests queued behind it; ``lateness`` is how late the generator
    itself wrote each one.  Replies come back in request order.
    """
    due_times: list[float] = []
    latencies: list[float] = []
    lateness: list[float] = []
    good = 0
    expected: list[tuple[int, int | None]] = []
    total = int(rate * seconds)
    start = time.perf_counter() + 0.05

    async def reader() -> None:
        nonlocal good
        for index in range(total):
            reply = await client.read_reply()
            seq, expect_tid = expected[index]
            latency = time.perf_counter() - due_times[index]
            latencies.append(latency)
            good += good_ack(reply, seq, expect_tid) and latency <= REPLY_LIMIT_S

    reading = asyncio.ensure_future(reader())
    try:
        for index in range(total):
            due = start + index / rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tenant = tenants[index % len(tenants)]
            payload, expect_tid = tenant.request(tenant.stream.next_op())
            due_times.append(due)
            expected.append((tenant.seq, expect_tid))
            lateness.append(max(0.0, time.perf_counter() - due))
            client.writer.write(payload)
        await reading
    finally:
        reading.cancel()
    return {"latencies": latencies, "lateness": lateness, "good": good,
            "backlog_s": latencies[-1] if latencies else 0.0}

#!/usr/bin/env python3
"""``repro serve`` with a span around every layer boundary.

Builds the :class:`~repro.serve.server.RuleServer` (or ``--follow``
standby) that ``cmd_serve`` builds, after wrapping — from here, not in
``src/`` — the entry points of each layer on the classes and modules the
server is made of.  A span is ``[name, start, end, parent, tenant, seq,
note]`` on ``time.perf_counter()`` (one clock for every process on the
box).  Spans stay in memory; SIGTERM writes them to ``--spans`` as JSON
lines and exits *without* the graceful shutdown, so what is on disk is
what a crash would have left.

``status`` replies gain a ``perf`` key with the engine's operation
counters (``repro.instrument``), the obs counters and the conflict-set
add count, so the benchmark can difference them around an interval.
"""

from __future__ import annotations

import argparse
import asyncio
import importlib
import json
import os
import signal
import sys
import time
from contextlib import contextmanager

from repro.engine.conflict import ConflictSet
from repro.engine.wm import WorkingMemory
from repro.match import STRATEGIES
from repro.match.base import MatchStrategy
from repro.obs import Observability
from repro.recovery.recover import RecordApplier
from repro.recovery.session import DurableRun
from repro.recovery.wal import GroupCommit, WalWriter
from repro.replica.follower import FollowerState
from repro.replica.shipper import LogShipper
from repro.serve import registry as registry_module
from repro.serve import server as server_module
from repro.serve import session as session_module
from repro.serve.backpressure import AdmissionController, AdmissionPolicy
from repro.serve.registry import SessionRegistry
from repro.serve.server import RuleServer
from repro.serve.session import TenantSession
from repro.storage.catalog import Catalog
from repro.storage.sqlite_backend import SqliteTable
from repro.storage.table import MemoryTable

#: The module, not the function ``repro.recovery`` re-exports under the
#: same name.
recover_module = importlib.import_module("repro.recovery.recover")

#: Table entry points that do their work before they return, and the
#: SQLite readers that are generators (statement and fetch on the first
#: row, one row conversion per later row).
TABLE_METHODS = (
    "insert", "insert_at", "insert_prepared", "insert_many",
    "delete", "delete_many", "get",
)
TABLE_GENERATORS = ("scan", "lookup")


class Tracer:
    """Span storage plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.conflict_adds = 0

    def begin(self, name: str) -> list:
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
                None, None, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def end(self, span: list) -> None:
        span[2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, owner, attr: str, name, tag=None) -> None:
        """Replace ``owner.attr`` with a version that records one span per
        call.  *name* is the span name or ``name(args)``; *tag*
        ``(span, args, result)`` may fill tenant, seq and note."""
        inner = getattr(owner, attr)

        def traced(*args, **kwargs):
            span = self.begin(name if isinstance(name, str) else name(args))
            try:
                result = inner(*args, **kwargs)
            finally:
                self.end(span)
            if tag is not None:
                tag(span, args, result)
            return result

        setattr(owner, attr, traced)

    def wrap_context(self, owner, attr: str, name: str) -> None:
        """The same for a method that returns a context manager: the span
        covers the ``with`` body."""
        inner = getattr(owner, attr)

        @contextmanager
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                with inner(*args, **kwargs) as value:
                    yield value
            finally:
                self.end(span)

        setattr(owner, attr, traced)

    def wrap_generator(self, owner, attr: str, name: str) -> None:
        """The same for a generator method: one span per generator, as long
        as the time spent *inside* it over all its resumptions (the
        consumer's time between rows is not the generator's).  The span
        starts at the first resumption and is on the stack only while the
        generator runs."""
        inner = getattr(owner, attr)

        def traced(*args, **kwargs):
            iterator = inner(*args, **kwargs)
            span = [name, None, 0.0, self.stack[-1] if self.stack else -1,
                    None, None, None]
            index = len(self.spans)
            self.spans.append(span)
            busy = 0.0
            while True:
                self.stack.append(index)
                resumed = time.perf_counter()
                if span[1] is None:
                    span[1] = resumed
                try:
                    row = next(iterator)
                except StopIteration:
                    return
                finally:
                    busy += time.perf_counter() - resumed
                    span[2] = span[1] + busy
                    self.stack.pop()
                yield row

        setattr(owner, attr, traced)

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write("\n".join(json.dumps(span) for span in self.spans))
            handle.write("\n")


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary.  Runs before any server object exists,
    so instances, bound methods and listeners all see the wrappers."""
    wrap = tracer.wrap

    # serve.protocol — the server module calls these by its own names.
    def tag_request(span, args, request):
        span[4], span[5], span[6] = request.tenant, request.seq, len(args[0])

    def tag_reply(span, args, line):
        span[4], span[5] = args[0].get("tenant"), args[0].get("seq")
        span[6] = len(line)

    wrap(server_module, "parse_request", "serve.protocol.parse", tag_request)
    wrap(
        server_module, "encode_reply",
        # Shipped frames go through the same encoder; they are the
        # replica layer's bytes, not the clients'.
        lambda args: ("replica.shipper.encode" if "frame" in args[0]
                      else "serve.protocol.encode"),
        tag_reply,
    )

    # serve.server — the engine task's own bookkeeping around a round.
    wrap(RuleServer, "_drain_round", "serve.server.drain_round")
    wrap(RuleServer, "_release_acks", "serve.server.release_acks")

    # serve.backpressure / serve.session / serve.registry / lang
    wrap(AdmissionController, "admit", "serve.backpressure.admit")

    def tag_enqueue(span, args, _):
        span[4], span[5] = args[0].name, args[1].seq

    def tag_drain(span, args, acks):
        span[4], span[5], span[6] = args[0].name, args[0].applied_seq, len(acks)

    wrap(TenantSession, "enqueue", "serve.session.enqueue", tag_enqueue)
    wrap(TenantSession, "drain", "serve.session.drain", tag_drain)
    wrap(TenantSession, "start", "serve.registry.attach")
    wrap(SessionRegistry, "pack_for", "serve.registry.pack_for")
    wrap(registry_module, "parse_program", "lang.parse")

    # engine.wm and the match strategies listening to it
    for method in ("insert", "remove", "modify", "flush_batch"):
        wrap(WorkingMemory, method, f"engine.wm.{method}")
    for strategy in (MatchStrategy, *STRATEGIES.values()):
        for method in ("on_insert", "on_delete", "on_delta"):
            if method in vars(strategy):
                wrap(strategy, method, f"{strategy.__module__}.{method}")

    inner_add = ConflictSet.add

    def counted_add(conflict_set, instantiation):
        added = inner_add(conflict_set, instantiation)
        tracer.conflict_adds += added
        return added

    ConflictSet.add = counted_add

    # engine (resolve + act) and the durability layer under it
    wrap(DurableRun, "run", "engine.run")
    wrap(DurableRun, "ops_boundary", "recovery.session.ops_boundary")
    wrap(DurableRun, "_commit_boundary", "recovery.session.commit_boundary")
    wrap(DurableRun, "checkpoint_now", "recovery.checkpoint")
    wrap(WalWriter, "append", "recovery.wal.append")
    wrap(WalWriter, "commit", "recovery.wal.commit")
    wrap(WalWriter, "sync", "recovery.wal.sync")
    wrap(GroupCommit, "flush", "recovery.wal.group_flush")

    # storage
    for table in (MemoryTable, SqliteTable):
        for method in TABLE_METHODS:
            if method in vars(table):
                wrap(table, method, f"storage.table.{method}")
    for method in TABLE_GENERATORS:
        tracer.wrap_generator(SqliteTable, method, f"storage.table.{method}")
    wrap(SqliteTable, "_execute", "storage.sql")
    wrap(SqliteTable, "_executemany", "storage.sql")
    tracer.wrap_context(Catalog, "transaction", "storage.transaction")

    # replica
    def tag_frames(span, args, frames):
        span[6] = sum(len(f.get("records", ())) for f in frames)

    def tag_ack(span, args, _):
        span[6] = args[1].get("lag_records", 0)

    wrap(LogShipper, "on_sync", "replica.shipper.on_sync")
    wrap(LogShipper, "round_frames", "replica.shipper.round_frames", tag_frames)
    wrap(LogShipper, "handle_ack", "replica.shipper.handle_ack", tag_ack)
    wrap(LogShipper, "snapshot_frame", "replica.shipper.snapshot_frame")
    wrap(FollowerState, "handle_frame", "replica.follower.handle_frame")
    wrap(RuleServer, "_promote", "replica.promote")

    # recovery.recover — both callers import ``recover`` by name.
    wrap(recover_module, "load_checkpoint", "recovery.recover.load_checkpoint")
    wrap(RecordApplier, "apply", "recovery.recover.apply")
    wrap(recover_module, "recover", "recovery.recover")
    session_module.recover = server_module.recover = recover_module.recover
    wrap(RuleServer, "recover_all", "serve.recover_all")


def add_perf_to_status(tracer: Tracer, obs: Observability) -> None:
    inner = RuleServer._status

    def status(server):
        body = inner(server)
        counters: dict[str, int] = {}
        for name in server.registry.names():
            system = server.registry.get(name).system
            for key, value in system.counters.as_dict().items():
                counters[key] = counters.get(key, 0) + value
        body["perf"] = {
            "instrument": counters,
            "metrics": obs.metrics.snapshot()["counters"],
            "conflict_adds": tracer.conflict_adds,
            "spans": len(tracer.spans),
        }
        return body

    RuleServer._status = status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True)
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--checkpoint-rounds", type=int, default=8)
    parser.add_argument("--follow")
    parser.add_argument("--takeover-deadline", type=float, default=10.0)
    args = parser.parse_args()

    tracer = Tracer()
    install(tracer)
    obs = Observability(collect_metrics=True)
    add_perf_to_status(tracer, obs)
    server = RuleServer(
        args.data_dir,
        obs=obs,
        admission=AdmissionController(AdmissionPolicy(), obs=obs),
        checkpoint_rounds=args.checkpoint_rounds,
        follow=args.follow,
        takeover_deadline=args.takeover_deadline,
    )

    def dump_and_die() -> None:
        tracer.dump(args.spans)
        os._exit(0)

    async def serve() -> None:
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGTERM, dump_and_die
        )
        await server.start()
        await server.serve_forever()

    asyncio.run(serve())
    return 0


if __name__ == "__main__":
    sys.exit(main())

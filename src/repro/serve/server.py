"""The asyncio front end: many tenants, one engine, one fsync barrier.

Concurrency model — deliberately simple and deterministic:

* one reader coroutine per connection parses requests and routes them;
  mutations pass admission control and join their tenant's queue with a
  future for the eventual ack;
* one *engine task* owns every production system.  Each round it drains
  the tenants with queued work **in sorted tenant order** (apply ops,
  commit the ops boundary, run cycles to quiescence), then flushes the
  shared :class:`~repro.recovery.wal.GroupCommit` — one fsync barrier
  covering every tenant's boundaries — and only then resolves the acks.
  An acknowledged op is therefore durable by construction: ``kill -9``
  after the ack replays it from the tenant's log.
* checkpoints are cut after the flush (never inside a round), so a
  checkpoint can never name a boundary that isn't durable yet.

On start the server scans its data directory and recovers **every**
tenant log it finds — including logs whose active file is missing
(the torn-rotation window) — before the listening socket opens, so
``repro serve`` *is* ``repro resume`` for the whole fleet.

Replication (:mod:`repro.replica`) rides the same round structure.  A
primary accepts one ``follow`` handshake; the connection then becomes
the shipping channel: after each group flush the engine task sends the
round's freshly-durable records plus a ``commit`` frame and waits for
the follower's ack **before releasing client acks** (semi-synchronous —
every acked op is durable on both sides).  A slow or dead follower
degrades the pair to async instead of wedging the primary.  A server
started with ``follow=HOST:PORT`` runs read-only: it tails the primary
into a :class:`~repro.replica.follower.FollowerState` and can be
promoted (``promote`` op, or automatically once the primary has been
unreachable past the takeover deadline), bumping the fencing epoch so
the old primary's shipments are refused everywhere.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import time

from repro.errors import RecoveryError, ReproError
from repro.obs import Observability
from repro.recovery import recover
from repro.recovery.wal import GroupCommit
from repro.replica import (
    FollowerState,
    FollowerTenant,
    LogShipper,
    bump_epoch,
    read_epoch,
    write_epoch,
)
from repro.serve.backpressure import (
    ACCEPT,
    DEFER,
    AdmissionController,
    AdmissionPolicy,
)
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    MUTATION_OPS,
    ProtocolError,
    Request,
    encode_reply,
    parse_request,
)
from repro.serve.registry import SessionRegistry
from repro.serve.session import (
    DEFAULT_ROTATE_BYTES,
    TenantSession,
    checkpoint_path,
    wal_path,
)

#: Anything that is (or once was) a tenant WAL: ``<tenant>.wal``, an
#: archived segment, or the meta sidecar left by rotation.
_TENANT_FILE_RE = re.compile(r"^([A-Za-z0-9_-]+)\.wal(?:$|\.)")


def scan_tenants(data_dir: str) -> list[str]:
    """Tenant names with durable state under *data_dir*, sorted."""
    names = set()
    for entry in os.listdir(data_dir):
        match = _TENANT_FILE_RE.match(entry)
        if match is not None:
            names.add(match.group(1))
    return sorted(names)


class ShipLink:
    """The primary's half of an attached follower connection.

    The reader coroutine that accepted the ``follow`` handshake parks on
    :attr:`closed`; the engine task owns all traffic on the socket while
    the link is attached (frames out, acks in) so there is never a
    second reader racing it.
    """

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.closed = asyncio.Event()


class RuleServer:
    """One engine process hosting many tenant sessions over TCP."""

    def __init__(
        self,
        data_dir: str,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        obs: Observability | None = None,
        admission: AdmissionController | None = None,
        checkpoint_rounds: int = 8,
        wal_rotate_bytes: int = DEFAULT_ROTATE_BYTES,
        follow: str | None = None,
        takeover_deadline: float = 10.0,
        ack_timeout: float = 5.0,
    ) -> None:
        self.data_dir = data_dir
        self.host = host
        self.port = port
        self.obs = obs or Observability()
        self.group = GroupCommit(self.obs)
        self.registry = SessionRegistry()
        self.admission = admission or AdmissionController(
            AdmissionPolicy(), obs=self.obs
        )
        self.checkpoint_rounds = checkpoint_rounds
        self.wal_rotate_bytes = wal_rotate_bytes
        self.recovered_tenants: list[str] = []
        self.rounds = 0
        #: ``"primary"`` or ``"follower"`` — promotion flips it exactly
        #: once, for the life of the process.
        self.role = "primary" if follow is None else "follower"
        self.follow = follow
        self.takeover_deadline = takeover_deadline
        self.ack_timeout = ack_timeout
        self.epoch = 0
        self.shipper: LogShipper | None = None
        self.follower: FollowerState | None = None
        self.promotions = 0
        self._server: asyncio.AbstractServer | None = None
        self._engine_task: asyncio.Task | None = None
        self._follow_task: asyncio.Task | None = None
        self._work = asyncio.Event()
        self._drained = asyncio.Event()
        self._stopping = asyncio.Event()
        self._closed = False

    # -- recovery on start ------------------------------------------------------

    def recover_all(self) -> list[str]:
        """Recover every tenant log under the data dir; returns names.

        Each recovered session immediately finishes any interrupted
        recognize-act work (determinism makes the re-execution identical
        to the run that died), and the resulting boundaries are flushed
        before the server accepts traffic.  A tenant log that cannot be
        recovered stops startup with a :class:`RecoveryError` naming the
        tenant: the server does not serve around a log it cannot replay.
        """
        os.makedirs(self.data_dir, exist_ok=True)
        started = time.perf_counter()
        recovered = []
        for name in scan_tenants(self.data_dir):
            try:
                session = TenantSession.recover_from_disk(
                    name,
                    self.data_dir,
                    self.registry,
                    group=self.group,
                    obs=self.obs,
                    wal_rotate_bytes=self.wal_rotate_bytes,
                    checkpoint_rounds=self.checkpoint_rounds,
                )
            except RecoveryError as error:
                raise RecoveryError(
                    f"tenant {name!r} cannot be recovered: {error}"
                ) from error
            self.registry.add(session)
            session.run_to_quiescence()
            if self.shipper is not None:
                session.run.writer.tap = self.shipper.tap_for(name)
            recovered.append(name)
        self.group.flush()
        self.recovered_tenants = recovered
        if self.obs.enabled and recovered:
            metrics = self.obs.metrics
            metrics.counter("serve.tenants_recovered").inc(len(recovered))
            metrics.log2_histogram("serve.recovery_us").observe(
                (time.perf_counter() - started) * 1e6
            )
        return recovered

    # -- lifecycle --------------------------------------------------------------

    def _recover_follower_local(self) -> None:
        """Resume standby tenants from the follower's own local files.

        A materialization recovery cannot read (torn beyond repair, or
        emptied by compaction races) is discarded; the tenant simply
        re-bootstraps from the primary's snapshot frame on handshake.
        """
        for name in scan_tenants(self.data_dir):
            ckpt = checkpoint_path(self.data_dir, name)
            try:
                state = recover(
                    wal_path(self.data_dir, name),
                    ckpt if os.path.exists(ckpt) else None,
                    obs=self.obs,
                )
            except ReproError:
                FollowerTenant(name, self.data_dir, obs=self.obs).discard()
                continue
            self.follower.tenants[name] = FollowerTenant.from_state(
                name, self.data_dir, state, obs=self.obs
            )

    async def start(self) -> None:
        """Recover, bind, announce, and start the engine task."""
        os.makedirs(self.data_dir, exist_ok=True)
        if self.role == "primary":
            self.epoch = max(read_epoch(self.data_dir), 1)
            write_epoch(self.data_dir, self.epoch)
            self.shipper = LogShipper(obs=self.obs, epoch=self.epoch)
            self.recover_all()
        else:
            self.epoch = read_epoch(self.data_dir)
            self.follower = FollowerState(
                self.data_dir, obs=self.obs, epoch=self.epoch
            )
            self._recover_follower_local()
        if self.obs.enabled:
            self.obs.metrics.gauge("replica.epoch").set(self.epoch)
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._engine_task = asyncio.ensure_future(self._engine_loop())
        print(f"serving on {self.host}:{self.port}", flush=True)
        if self.role == "follower":
            self._follow_task = asyncio.ensure_future(self._follow_loop())
            print(
                f"following {self.follow} (epoch {self.epoch})", flush=True
            )

    async def serve_forever(self) -> None:
        await self._stopping.wait()

    async def shutdown(self) -> None:
        """Graceful stop: drain queues, flush, checkpoint, close logs."""
        if self._closed:
            return
        self._closed = True
        self._stopping.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._engine_task is not None:
            self._work.set()  # wake it so it can observe _stopping
            await self._engine_task
        if self._follow_task is not None:
            self._follow_task.cancel()
            try:
                await self._follow_task
            except (asyncio.CancelledError, Exception):
                pass
            self._follow_task = None
        # Anything admitted after the last round.
        per_session = self._drain_round()
        if self.shipper is not None and self.shipper.link is not None:
            await self._ship_round()
            if self.shipper.link is not None:
                self.shipper.link.closed.set()
                self.shipper.detach()
        self._release_acks(per_session)
        for name in self.registry.names():
            session = self.registry.get(name)
            session.maybe_checkpoint(force=True)
            session.close()
        if self.follower is not None:
            self.follower.close()

    # -- the engine task --------------------------------------------------------

    async def _engine_loop(self) -> None:
        while not self._stopping.is_set():
            await self._work.wait()
            self._work.clear()
            if self._stopping.is_set():
                break
            per_session = self._drain_round()
            # Semi-synchronous replication: the round's records (already
            # locally durable — the group flushed) go to the follower,
            # and its ack gates the client acks below.
            if self.shipper is not None and self.shipper.link is not None:
                await self._ship_round()
            self._release_acks(per_session)
            # Release readers deferred by admission control, then hand
            # them a fresh event for the next round.
            self._drained.set()
            self._drained = asyncio.Event()
            await asyncio.sleep(0)

    def _drain_round(self) -> list:
        """One group-commit round over every tenant with queued work.

        Returns ``[(session, acks)]`` for :meth:`_release_acks`; the
        split lets the engine task await the follower's round ack between
        the flush and the client-visible acks.
        """
        busy = [
            self.registry.get(name)
            for name in self.registry.names()
            if self.registry.get(name).depth
        ]
        if not busy:
            return []
        per_session = [(session, session.drain()) for session in busy]
        self.group.flush()
        self.rounds += 1
        return per_session

    def _release_acks(self, per_session: list) -> None:
        now = time.perf_counter()
        observing = self.obs.enabled
        for session, acks in per_session:
            for future, body, enqueued_at in acks:
                body["durable"] = True
                body["epoch"] = self.epoch
                if future is not None and not future.done():
                    future.set_result(body)
                if observing:
                    micros = (now - enqueued_at) * 1e6
                    metrics = self.obs.metrics
                    metrics.log2_histogram("serve.latency_us").observe(
                        micros
                    )
                    metrics.log2_histogram(
                        f"serve.latency_us[{session.name}]"
                    ).observe(micros)
            session.maybe_checkpoint()

    async def _ship_round(self) -> None:
        """Send this round's frames; await the follower's ack.

        Any failure (timeout, hangup, garbage) degrades the pair to
        async — the link detaches and the primary carries on alone
        rather than wedging every client behind a dead standby.
        """
        link = self.shipper.link
        if link is None:
            return
        try:
            for frame in self.shipper.round_frames():
                link.writer.write(encode_reply(frame))
            await link.writer.drain()
            line = await asyncio.wait_for(
                link.reader.readline(), timeout=self.ack_timeout
            )
            if not line:
                raise ConnectionError("follower hung up")
            ack = json.loads(line)
            if ack.get("frame") != "ack":
                raise ValueError(f"expected an ack frame, got {ack!r}")
            self.shipper.handle_ack(ack)
        except (OSError, asyncio.TimeoutError, ValueError, ConnectionError):
            self.shipper.mark_degraded()
            link.closed.set()

    # -- request handling -------------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while not self._stopping.is_set():
                try:
                    line = await reader.readline()
                except ValueError:
                    # Over MAX_LINE_BYTES with no newline yet: the rest of
                    # the stream is that line's tail, so answer and close.
                    writer.write(encode_reply({
                        "ok": False, "error": "too_large",
                        "limit": MAX_LINE_BYTES,
                        "detail": "request line exceeds the limit; "
                                  "closing the connection",
                    }))
                    await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    request = parse_request(line)
                except ProtocolError as exc:
                    writer.write(encode_reply(exc.reply))
                    await writer.drain()
                    continue
                if request.op == "follow":
                    # The handshake hands the whole connection to the
                    # shipping channel; it never comes back to this loop.
                    await self._handle_follow(request, reader, writer)
                    break
                reply = await self._dispatch(request)
                writer.write(encode_reply(reply))
                await writer.drain()
                if request.op == "shutdown":
                    break
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # The listener was closed with this reader in flight (server
            # shutdown); finish quietly rather than exploding the task.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(self, request: Request) -> dict:
        if self.obs.enabled:
            self.obs.metrics.counter("serve.requests").inc()
        op = request.op
        if op == "ping":
            return {"ok": True, "op": "ping", "pong": True}
        if op == "status":
            return self._status()
        if op == "shutdown":
            asyncio.get_running_loop().call_soon(self._stopping.set)
            self._work.set()
            return {"ok": True, "op": "shutdown"}
        if op == "promote":
            return self._handle_promote()
        if self.role == "follower":
            return self._dispatch_follower(request)
        if op == "attach":
            return self._attach(request)
        session = self.registry.get(request.tenant)
        if session is None:
            return {
                "ok": False, "op": op, "seq": request.seq,
                "error": f"unknown tenant {request.tenant!r}; attach first",
            }
        if op == "stats":
            return {"ok": True, "op": "stats", **session.stats()}
        if op == "query":
            try:
                rows = session.query(request.relation)
            except Exception as exc:
                return {"ok": False, "op": op, "error": str(exc)}
            return {
                "ok": True, "op": "query", "tenant": session.name,
                "relation": request.relation, "rows": rows,
            }
        # -- mutations --
        if request.seq <= session.applied_seq:
            if self.obs.enabled:
                self.obs.metrics.counter("serve.dup_acks").inc()
            return {
                "ok": True, "op": op, "seq": request.seq,
                "tenant": session.name, "dup": True, "durable": True,
                "epoch": self.epoch,
            }
        decision = self.admission.admit(session.depth, tenant=session.name)
        if decision == DEFER:
            await self._drained.wait()
        elif decision != ACCEPT:  # SHED
            return {
                "ok": False, "op": op, "seq": request.seq,
                "tenant": session.name, "shed": True,
                "error": "queue full; retry with the same seq",
            }
        future = asyncio.get_running_loop().create_future()
        session.enqueue(request, future)
        self._work.set()
        return await future

    def _dispatch_follower(self, request: Request) -> dict:
        """Reads work against the standby; writes are refused."""
        op = request.op
        tenant = self.follower.tenants.get(request.tenant or "")
        if op in ("stats", "query") and tenant is None:
            return {
                "ok": False, "op": op,
                "error": f"unknown tenant {request.tenant!r} on this "
                         "follower",
            }
        if op == "stats":
            return {"ok": True, "op": "stats", **tenant.stats()}
        if op == "query":
            wm = tenant.system.wm
            try:
                wm.schema(request.relation)
                rows = [
                    [wme.tid, wme.timetag, list(wme.values)]
                    for wme in sorted(
                        wm.tuples(request.relation), key=lambda w: w.tid
                    )
                ]
            except Exception as exc:
                return {"ok": False, "op": op, "error": str(exc)}
            return {
                "ok": True, "op": "query", "tenant": request.tenant,
                "relation": request.relation, "rows": rows,
            }
        reply = {
            "ok": False, "op": op, "follower": True, "epoch": self.epoch,
            "error": "this server is a read-only follower; promote it or "
                     "write to the primary",
        }
        if request.seq is not None:
            reply["seq"] = request.seq
        return reply

    # -- promotion ---------------------------------------------------------------

    def _handle_promote(self) -> dict:
        if self.role == "primary":
            return {
                "ok": True, "op": "promote", "epoch": self.epoch,
                "already_primary": True, "tenants": self.registry.names(),
            }
        tenants = self._promote()
        return {
            "ok": True, "op": "promote", "epoch": self.epoch,
            "already_primary": False, "tenants": tenants,
        }

    def _promote(self) -> list[str]:
        """Warm standby → primary, fencing the old epoch.

        The new epoch is persisted *before* the first write the promoted
        tenants make (the quiescence catch-up below), so a crash during
        promotion still comes back fenced-forward.  Each follower tenant
        finalizes into a RecoveredState — dropping only the staged
        records past the last shipped boundary, the same debris recovery
        would discard — and resumes its own local log in place.
        """
        started = time.perf_counter()
        states = self.follower.pop_states()
        self.epoch = bump_epoch(self.data_dir)
        self.role = "follower->primary"  # writes open only when done
        self.shipper = LogShipper(obs=self.obs, epoch=self.epoch)
        if (
            self._follow_task is not None
            and self._follow_task is not asyncio.current_task()
        ):
            self._follow_task.cancel()
        promoted = []
        for name in sorted(states):
            session = TenantSession.from_recovered(
                name,
                states[name],
                self.registry,
                checkpoint_file=checkpoint_path(self.data_dir, name),
                group=self.group,
                obs=self.obs,
                wal_rotate_bytes=self.wal_rotate_bytes,
                checkpoint_rounds=self.checkpoint_rounds,
            )
            self.registry.add(session)
            session.run_to_quiescence()
            session.run.writer.tap = self.shipper.tap_for(name)
            promoted.append(name)
        self.group.flush()
        self.recovered_tenants = promoted
        self.role = "primary"
        self.promotions += 1
        if self.obs.enabled:
            metrics = self.obs.metrics
            metrics.counter("replica.promotions").inc()
            metrics.gauge("replica.epoch").set(self.epoch)
            metrics.log2_histogram("replica.promotion_us").observe(
                (time.perf_counter() - started) * 1e6
            )
        return promoted

    # -- the primary's shipping channel ------------------------------------------

    async def _handle_follow(
        self,
        request: Request,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Accept (or refuse) a follower; then own the connection until
        the link dies or the server stops."""
        if self.role != "primary":
            writer.write(encode_reply({
                "ok": False, "op": "follow", "epoch": self.epoch,
                "error": "cannot follow a follower",
            }))
            await writer.drain()
            return
        peer_epoch = request.epoch or 0
        if peer_epoch > self.epoch:
            # The peer outlived a promotion we never saw: *we* are the
            # stale primary.  Refuse, naming our fenced epoch.
            writer.write(encode_reply({
                "ok": False, "op": "follow", "fenced": True,
                "epoch": self.epoch,
                "error": f"this primary is at stale epoch {self.epoch}; "
                         f"the pair was promoted to epoch {peer_epoch} — "
                         "shipments refused",
            }))
            await writer.drain()
            if self.obs.enabled:
                self.obs.metrics.counter("replica.fenced_handshakes").inc()
            return
        if self.shipper.link is not None:
            writer.write(encode_reply({
                "ok": False, "op": "follow", "epoch": self.epoch,
                "error": "a follower is already attached",
            }))
            await writer.drain()
            return
        # Atomic under the event loop (no awaits): make everything
        # durable, snapshot each tenant past the follower's have-seq,
        # and attach the tap — no record can fall between the chain
        # read and the live tail.
        self.group.flush()
        frames = []
        for name in self.registry.names():
            session = self.registry.get(name)
            session.run.writer.sync()
            frames.append(self.shipper.snapshot_frame(
                name,
                wal_path(self.data_dir, name),
                checkpoint_path(self.data_dir, name),
                have_seq=int(request.have.get(name, 0)),
            ))
        link = ShipLink(reader, writer)
        self.shipper.attach(link)
        writer.write(encode_reply({
            "ok": True, "op": "follow", "epoch": self.epoch,
            "tenants": self.registry.names(),
        }))
        for frame in frames:
            writer.write(encode_reply(frame))
        try:
            await writer.drain()
        except (OSError, ConnectionError):
            self.shipper.mark_degraded()
            return
        # Wake the engine for an immediate (possibly empty) round so the
        # bootstrap gets its commit frame and the follower fsyncs it.
        self._work.set()
        stopping = asyncio.ensure_future(self._stopping.wait())
        closed = asyncio.ensure_future(link.closed.wait())
        try:
            await asyncio.wait(
                (stopping, closed), return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            stopping.cancel()
            closed.cancel()
        if self.shipper.link is link:
            self.shipper.detach()

    # -- the follower's tail -----------------------------------------------------

    async def _follow_loop(self) -> None:
        """Connect to the primary, tail its frames, ack its commits.

        Reconnects with the follower's ``have`` positions after any
        drop.  Once the primary has been unreachable for longer than
        the takeover deadline, the standby promotes itself (a deadline
        of 0 disables automatic takeover)."""
        host, _, port = self.follow.rpartition(":")
        lost_at: float | None = None
        while not self._stopping.is_set() and self.role == "follower":
            try:
                reader, writer = await asyncio.open_connection(
                    host or "127.0.0.1", int(port), limit=MAX_LINE_BYTES
                )
            except OSError:
                if lost_at is None:
                    lost_at = time.monotonic()
                if (
                    self.takeover_deadline > 0
                    and time.monotonic() - lost_at >= self.takeover_deadline
                ):
                    self._promote()
                    return
                await asyncio.sleep(0.1)
                continue
            try:
                writer.write(encode_reply({
                    "op": "follow",
                    "epoch": self.follower.epoch,
                    "have": self.follower.have(),
                }))
                await writer.drain()
                line = await reader.readline()
                reply = json.loads(line) if line else {}
                if not reply.get("ok"):
                    # Refused: fenced handshakes and already-attached
                    # races both mean "not our primary right now".
                    if lost_at is None:
                        lost_at = time.monotonic()
                    await asyncio.sleep(0.1)
                    continue
                primary_epoch = int(reply.get("epoch") or 0)
                if primary_epoch < self.follower.epoch:
                    # A stale primary came back; never adopt it.
                    if lost_at is None:
                        lost_at = time.monotonic()
                    await asyncio.sleep(0.1)
                    continue
                self.epoch = primary_epoch
                self.follower.epoch = primary_epoch
                write_epoch(self.data_dir, primary_epoch)
                if self.obs.enabled:
                    self.obs.metrics.gauge("replica.epoch").set(self.epoch)
                lost_at = None
                while not self._stopping.is_set():
                    line = await reader.readline()
                    if not line:
                        break
                    frame = json.loads(line)
                    ack = self.follower.handle_frame(frame)
                    if ack is not None:
                        writer.write(encode_reply(ack))
                        await writer.drain()
            except (OSError, ConnectionError, ValueError):
                pass
            except asyncio.CancelledError:
                raise
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (OSError, ConnectionError):
                    pass
            if self._stopping.is_set() or self.role != "follower":
                return
            lost_at = time.monotonic()
            deadline = self.takeover_deadline
            while (
                not self._stopping.is_set()
                and (deadline <= 0 or time.monotonic() - lost_at < deadline)
            ):
                # Probe for a restarted primary between deadline checks.
                try:
                    probe = await asyncio.open_connection(
                        host or "127.0.0.1", int(port)
                    )
                    probe[1].close()
                    break
                except OSError:
                    await asyncio.sleep(0.1)
            else:
                if not self._stopping.is_set() and deadline > 0:
                    self._promote()
                    return

    def _attach(self, request: Request) -> dict:
        session = self.registry.get(request.tenant)
        if session is not None:
            if (
                request.program is not None
                and request.program != session.pack.text
            ):
                return {
                    "ok": False, "op": "attach", "tenant": request.tenant,
                    "error": "tenant already attached with a different "
                             "program",
                }
            return {
                "ok": True, "op": "attach", "tenant": request.tenant,
                "recovered": session.recovered, "existing": True,
                "applied_seq": session.applied_seq,
                "pack_crc": session.pack.crc,
            }
        if request.program is None:
            return {
                "ok": False, "op": "attach", "tenant": request.tenant,
                "error": "new tenant needs a program",
            }
        try:
            pack = self.registry.pack_for(request.program)
            session = TenantSession.start(
                request.tenant,
                pack,
                self.data_dir,
                group=self.group,
                obs=self.obs,
                config=request.config,
                wal_rotate_bytes=self.wal_rotate_bytes,
                checkpoint_rounds=self.checkpoint_rounds,
                meta_extra={"epoch": self.epoch},
                wal_tap=(
                    self.shipper.tap_for(request.tenant)
                    if self.shipper is not None
                    else None
                ),
            )
        except Exception as exc:
            return {
                "ok": False, "op": "attach", "tenant": request.tenant,
                "error": str(exc),
            }
        self.registry.add(session)
        # The setup boundary enlisted with the group; make it durable
        # before acknowledging the tenant exists.
        self.group.flush()
        if self.obs.enabled:
            self.obs.metrics.counter("serve.attaches").inc()
            self.obs.metrics.gauge("serve.tenants").set(
                len(self.registry.sessions)
            )
        return {
            "ok": True, "op": "attach", "tenant": request.tenant,
            "recovered": False, "existing": False, "applied_seq": 0,
            "pack_crc": pack.crc,
        }

    def _status(self) -> dict:
        body = {
            "ok": True,
            "op": "status",
            "role": self.role,
            "epoch": self.epoch,
            "tenants": {
                name: self.registry.get(name).stats()
                for name in self.registry.names()
            },
            "packs": [
                {"crc": pack.crc, "tenants": sorted(pack.tenants)}
                for pack in self.registry.packs
            ],
            "recovered_tenants": self.recovered_tenants,
            "rounds": self.rounds,
            "group_commits": self.group.flushes,
            "admission": {
                "accepted": self.admission.accepted,
                "deferred": self.admission.deferred,
                "shed": self.admission.shed,
            },
        }
        if self.shipper is not None:
            body["replication"] = {
                "follower_attached": self.shipper.link is not None,
                "ship_rounds": self.shipper.ship_rounds,
                "shipped_records": self.shipper.shipped_records,
                "shipped_bytes": self.shipper.shipped_bytes,
                "round_acks": self.shipper.round_acks,
                "degraded": self.shipper.degraded,
                "tips": dict(self.shipper.tips),
                "follower_acked": dict(self.shipper.follower_acked),
            }
        if self.role == "follower" and self.follower is not None:
            body["replication"] = self.follower.lag()
            body["tenants"] = {
                name: self.follower.tenants[name].stats()
                for name in self.follower.names()
            }
        return body


async def serve(
    data_dir: str,
    host: str = "127.0.0.1",
    port: int = 0,
    **kwargs,
) -> RuleServer:
    """Build, start and run a server until shutdown; returns it."""
    server = RuleServer(data_dir, host, port, **kwargs)
    await server.start()
    try:
        await server.serve_forever()
    finally:
        await server.shutdown()
    return server

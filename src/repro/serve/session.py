"""One tenant = one production system + one write-ahead log.

A :class:`TenantSession` owns everything tenant-scoped: the
:class:`~repro.engine.interpreter.ProductionSystem` (working memory,
match network, conflict set), the
:class:`~repro.recovery.session.DurableRun` driving its WAL, the queue
of admitted-but-unapplied ops, and the exactly-once high-water mark
(``applied_seq``).  The only shared pieces are the immutable
:class:`~repro.serve.registry.RulePack` and the server's
:class:`~repro.recovery.wal.GroupCommit` barrier.

The engine task calls :meth:`drain`: it applies every queued mutation,
commits one ``"ops"`` boundary carrying ``applied_seq``, runs engine
cycles to quiescence (each cycle commits its own boundary), and hands
back the acks to release *after the group flush*.  Auto-checkpointing is
suppressed (``checkpoint_every=0`` on the run) because a checkpoint must
never reference a boundary the group hasn't flushed yet; the server
calls :meth:`maybe_checkpoint` after the flush instead.
"""

from __future__ import annotations

import os
import time

from repro.engine.interpreter import ProductionSystem
from repro.errors import ReproError
from repro.recovery import DurableRun, recover
from repro.serve.registry import RulePack

#: Run configuration a fresh tenant gets unless attach overrides it; an
#: attach request's ``config`` may override exactly these keys.
DEFAULT_CONFIG = {
    "strategy": "rete",
    "resolution": "lex",
    "backend": "memory",
    "seed": 0,
}

#: Keys older clients may still send: the values that name what a tenant
#: does today (accepted and dropped), and why any other is refused.
RETIRED_KEYS = {
    "firing": (("instance",), "tenants fire one instantiation per cycle"),
    "batch_size": ((1,), "the act phase propagates each change as it happens"),
    "compile": (("auto", "on"), "tenants always run compiled match kernels"),
}

#: Rotate tenant logs at this segment size unless configured otherwise.
DEFAULT_ROTATE_BYTES = 256 * 1024

#: Safety valve on cycles per drain (a runaway rule pack cannot wedge
#: the engine task forever; leftover work continues next drain).
CYCLE_BUDGET = 10_000


def wal_path(data_dir: str, tenant: str) -> str:
    return os.path.join(data_dir, f"{tenant}.wal")


def checkpoint_path(data_dir: str, tenant: str) -> str:
    return os.path.join(data_dir, f"{tenant}.ckpt")


class TenantSession:
    """A live tenant: durable run, op queue, exactly-once bookkeeping."""

    def __init__(
        self,
        name: str,
        pack: RulePack,
        run: DurableRun,
        *,
        applied_seq: int = 0,
        position: int = 0,
        recovered: bool = False,
        checkpoint_rounds: int = 8,
        obs=None,
    ) -> None:
        self.name = name
        self.pack = pack
        self.run = run
        self.system: ProductionSystem = run.system
        self.applied_seq = applied_seq
        self.position = position
        self.recovered = recovered
        self.checkpoint_rounds = checkpoint_rounds
        self.obs = obs
        #: Admitted ops waiting for the engine task: ``(request, future)``
        #: in arrival order.  Futures may be None (driverless tests).
        self.queue: list = []
        self.rounds = 0
        self._rounds_since_checkpoint = 0

    # -- construction ---------------------------------------------------------

    @classmethod
    def start(
        cls,
        name: str,
        pack: RulePack,
        data_dir: str,
        *,
        group=None,
        obs=None,
        config: dict | None = None,
        wal_rotate_bytes: int = DEFAULT_ROTATE_BYTES,
        checkpoint_rounds: int = 8,
        meta_extra: dict | None = None,
        wal_tap=None,
    ) -> "TenantSession":
        """A fresh tenant: new system on the shared pack, new log.

        *meta_extra* stamps extra keys (the serving epoch) into the WAL
        meta record; *wal_tap* installs the replication shipper's tap so
        even the setup records ship to an attached follower.
        """
        cfg = dict(DEFAULT_CONFIG)
        for key, value in (config or {}).items():
            # Unknown keys are dropped, and so is a retired key carrying
            # its accepted value; any other value of a retired key is not.
            if key in RETIRED_KEYS:
                accepted, reason = RETIRED_KEYS[key]
                # Type-strict: ``true`` and ``1.0`` do not name ``1``.
                if not any(
                    type(value) is type(ok) and value == ok for ok in accepted
                ):
                    raise ReproError(f"unsupported {key} {value!r}: {reason}")
            elif key in DEFAULT_CONFIG:
                cfg[key] = value
        system = ProductionSystem(
            pack.program,
            analyses=pack.analyses,
            obs=obs,
            **cfg,
        )
        run = DurableRun.start(
            system,
            wal_path(data_dir, name),
            pack.text,
            cfg,
            checkpoint_path=checkpoint_path(data_dir, name),
            checkpoint_every=0,  # server checkpoints after group flush
            group=group,
            wal_rotate_bytes=wal_rotate_bytes,
            extra={"applied_seq": 0, "serve_position": 0},
            meta_extra=meta_extra,
            wal_tap=wal_tap,
        )
        return cls(
            name, pack, run,
            checkpoint_rounds=checkpoint_rounds, obs=obs,
        )

    @classmethod
    def recover_from_disk(
        cls,
        name: str,
        data_dir: str,
        registry,
        *,
        group=None,
        obs=None,
        wal_rotate_bytes: int = DEFAULT_ROTATE_BYTES,
        checkpoint_rounds: int = 8,
    ) -> "TenantSession":
        """Rebuild a tenant from its log (the crash-restart path).

        The recovered system re-registers with the registry's rule pack
        for its program text, so restarted tenants share packs exactly
        like freshly attached ones.
        """
        ckpt = checkpoint_path(data_dir, name)
        state = recover(
            wal_path(data_dir, name),
            ckpt if os.path.exists(ckpt) else None,
            obs=obs,
        )
        return cls.from_recovered(
            name,
            state,
            registry,
            checkpoint_file=ckpt,
            group=group,
            obs=obs,
            wal_rotate_bytes=wal_rotate_bytes,
            checkpoint_rounds=checkpoint_rounds,
        )

    @classmethod
    def from_recovered(
        cls,
        name: str,
        state,
        registry,
        *,
        checkpoint_file: str | None = None,
        group=None,
        obs=None,
        wal_rotate_bytes: int = DEFAULT_ROTATE_BYTES,
        checkpoint_rounds: int = 8,
    ) -> "TenantSession":
        """A live session over an already-recovered state.

        Shared by the crash-restart path above and replica promotion
        (where the state comes from the follower's local materialization
        rather than a :func:`~repro.recovery.recover.recover` call).
        """
        pack = registry.pack_for(state.meta["program"])
        run = DurableRun.resume(
            state,
            checkpoint_path=checkpoint_file,
            checkpoint_every=0,
            group=group,
            wal_rotate_bytes=wal_rotate_bytes,
        )
        extra = state.extra or {}
        return cls(
            name, pack, run,
            applied_seq=int(extra.get("applied_seq", 0)),
            position=int(extra.get("serve_position", state.position)),
            recovered=True,
            checkpoint_rounds=checkpoint_rounds,
            obs=obs,
        )

    # -- queue ----------------------------------------------------------------

    @property
    def depth(self) -> int:
        """Queued ops not yet applied (the admission signal)."""
        return len(self.queue)

    def enqueue(self, request, future=None) -> None:
        self.queue.append((request, future, time.perf_counter()))
        if self.obs is not None and self.obs.enabled:
            self.obs.metrics.gauge(
                f"serve.queue_depth[{self.name}]"
            ).set(len(self.queue))

    # -- applying ops ----------------------------------------------------------

    def _apply_one(self, request) -> dict:
        """Apply one mutation; returns the ack body (sans transport keys).

        A deterministic failure (unknown relation, missing tid) consumes
        the seq like a success: replaying the same stream against the
        same state fails the same way, so the op is exactly-once either
        way and the client sees the error in its ack.
        """
        wm = self.system.wm
        body: dict = {"op": request.op, "seq": request.seq, "ok": True}
        try:
            if request.op == "insert":
                wme = wm.insert(request.relation, request.values)
                body["tid"] = wme.tid
            elif request.op == "delete":
                wm.remove(wm.get(request.relation, request.tid))
                body["tid"] = request.tid
            elif request.op == "modify":
                wme = wm.get(request.relation, request.tid)
                changes = {
                    k: v
                    for k, v in request.changes.items()
                    if k in wm.schema(request.relation).attributes
                }
                if not changes:
                    raise ReproError(
                        "no applicable attributes in changes"
                    )
                wme = wm.modify(wme, changes)
                body["tid"] = wme.tid
        except ReproError as exc:
            body = {
                "op": request.op, "seq": request.seq,
                "ok": False, "error": str(exc),
            }
        self.applied_seq = request.seq
        self.position += 1
        return body

    def drain(self) -> list:
        """Apply every queued op, commit, run cycles; return the acks.

        Returns ``[(future_or_None, body)]``; the caller must resolve
        the futures only after the group-commit flush (the bodies carry
        ``"durable": true`` on that promise).
        """
        queued, self.queue = self.queue, []
        if not queued:
            return []
        acks = []
        started = time.perf_counter()
        for request, future, enqueued_at in queued:
            body = self._apply_one(request)
            body["tenant"] = self.name
            acks.append((future, body, enqueued_at))
        self.run.ops_boundary(
            self.position,
            extra={
                "applied_seq": self.applied_seq,
                "serve_position": self.position,
            },
        )
        result = self.run.run(max_cycles=CYCLE_BUDGET)
        self.rounds += 1
        self._rounds_since_checkpoint += 1
        obs = self.obs
        if obs is not None and obs.enabled:
            metrics = obs.metrics
            metrics.counter("serve.ops_applied").inc(len(queued))
            metrics.counter(f"serve.ops_applied[{self.name}]").inc(
                len(queued)
            )
            metrics.counter("serve.cycles").inc(result.cycles)
            metrics.gauge(f"serve.queue_depth[{self.name}]").set(0)
            metrics.log2_histogram("serve.drain_us").observe(
                (time.perf_counter() - started) * 1e6
            )
        return acks

    def run_to_quiescence(self) -> int:
        """Finish any interrupted recognize-act work (used on restart)."""
        result = self.run.run(max_cycles=CYCLE_BUDGET)
        return result.cycles

    # -- checkpoints and stats -------------------------------------------------

    def maybe_checkpoint(self, force: bool = False) -> bool:
        """Cut a checkpoint if due.  Call only after a group flush — the
        checkpoint names the last committed boundary, which must be
        durable before the checkpoint can supersede the log prefix."""
        if not force and self._rounds_since_checkpoint < self.checkpoint_rounds:
            return False
        body = self.run.checkpoint_now()
        if body is not None:
            self._rounds_since_checkpoint = 0
        return body is not None

    def stats(self) -> dict:
        system = self.system
        return {
            "tenant": self.name,
            "applied_seq": self.applied_seq,
            "position": self.position,
            "cycles": self.run.next_cycle - 1,
            "fired": self.run.fired_count,
            "wm_size": system.wm.size(),
            "output": [list(row) for row in system.output],
            "queue_depth": self.depth,
            "recovered": self.recovered,
            "pack_crc": self.pack.crc,
            "wal_last_seq": self.run.writer.last_seq,
            "wal_rotations": self.run.writer.rotations,
            "halted": self.run.halted,
        }

    def query(self, relation: str) -> list:
        wm = self.system.wm
        wm.schema(relation)  # raises for unknown relations
        return [
            [wme.tid, wme.timetag, list(wme.values)]
            for wme in sorted(wm.tuples(relation), key=lambda w: w.tid)
        ]

    def close(self) -> None:
        self.run.close()

"""The warm standby: materialize shipped WAL records, stay at-boundary.

:class:`FollowerState` is the sans-io core of a ``repro serve --follow``
process.  It consumes the three frame kinds the primary's
:class:`~repro.replica.shipper.LogShipper` emits (``snapshot``,
``records``, ``commit``) and keeps, per tenant:

* a **byte-identical local log** — every shipped record is re-serialized
  through the same canonical JSON the primary's
  :class:`~repro.recovery.wal.WalWriter` used (same seqs, same CRCs), so
  the follower's data directory is a valid recovery target in its own
  right at every commit frame;
* a **live system** tailed through
  :class:`~repro.recovery.recover.RecordApplier` — the normal recover()
  replay-through-match path — so WM, Rete memories and conflict sets are
  bit-identical to what recovery of the primary's log would produce at
  the last shipped boundary.

Records past the last shipped boundary are *staged*, never applied and
never written: they are exactly the crash debris recovery would discard,
so promotion needs no truncation pass.  Promotion turns each tenant into
a :class:`~repro.recovery.recover.RecoveredState` (via
:meth:`FollowerTenant.to_recovered_state`) that
:meth:`~repro.recovery.session.DurableRun.resume` continues in place.

Fencing: every frame carries the primary's epoch.  A frame below the
follower's own epoch raises :class:`FencedError` — a stale primary's
shipments are refused, with the stale epoch named.
"""

from __future__ import annotations

import json
import os
import time
import zlib

from repro.errors import ReproError
from repro.recovery.recover import (
    RecordApplier,
    RecoveredState,
    _build_system,
)
from repro.recovery.wal import (
    META_SIDECAR_SUFFIX,
    WalWriter,
    _crc,
    bump_sidecar_base,
    list_segments,
    write_meta_sidecar,
)


class ReplicationError(ReproError):
    """A shipped frame was malformed, discontinuous, or failed its CRC."""


class FencedError(ReplicationError):
    """A frame arrived from a lower (stale) epoch and was refused."""

    def __init__(self, stale_epoch: int, local_epoch: int) -> None:
        super().__init__(
            f"shipment from stale epoch {stale_epoch} refused: this "
            f"replica is at epoch {local_epoch} (the shipper was fenced "
            "by a promotion)"
        )
        self.stale_epoch = stale_epoch
        self.local_epoch = local_epoch


def _write_checkpoint_body(path: str, body: dict) -> None:
    """Persist a checkpoint *body* verbatim, in the exact record format
    :func:`repro.recovery.checkpoint.write_checkpoint` uses (so the
    follower's checkpoint file is byte-compatible with the primary's)."""
    payload = json.dumps(body, sort_keys=True, separators=(",", ":"))
    record = {"body": body, "crc": zlib.crc32(payload.encode("utf-8"))}
    temp = path + ".tmp"
    with open(temp, "w", encoding="utf-8") as handle:
        json.dump(record, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, path)


class FollowerTenant:
    """One tenant's standby: local log, live system, incremental applier."""

    def __init__(self, name: str, data_dir: str, obs=None) -> None:
        self.name = name
        self.data_dir = data_dir
        self.wal_path = os.path.join(data_dir, f"{name}.wal")
        self.checkpoint_path = os.path.join(data_dir, f"{name}.ckpt")
        self.obs = obs
        self.meta: dict | None = None
        self.system = None
        self.applier: RecordApplier | None = None
        self.writer: WalWriter | None = None
        #: Last record seq received (staged or applied).
        self.received_seq = 0
        #: Seq before the first record of the local active file.
        self.base_seq = 0
        self.checkpoint_used = False
        #: Shipped-but-unapplied records (past the last boundary) and
        #: their byte size — the follower's at-boundary staging area.
        self._staged: list[tuple[int, str, dict]] = []
        self.staged_bytes = 0

    # -- construction ---------------------------------------------------------

    @classmethod
    def bootstrap(
        cls,
        name: str,
        data_dir: str,
        meta: dict,
        checkpoint: dict | None = None,
        base_seq: int = 0,
        obs=None,
    ) -> "FollowerTenant":
        """Fresh standby for one tenant, from the primary's snapshot.

        *checkpoint* (when the primary compacted its log prefix away) is
        restored through the applier's normal checkpoint path and also
        written verbatim to the local checkpoint file; *base_seq* is the
        seq before the first record the primary will ship.
        """
        tenant = cls(name, data_dir, obs=obs)
        tenant.meta = meta
        tenant.system = _build_system(meta, obs)
        tenant.applier = RecordApplier(tenant.system, meta)
        tenant.base_seq = base_seq
        tenant.received_seq = base_seq
        if checkpoint is not None:
            tenant.applier.seed_checkpoint(checkpoint, tenant.checkpoint_path)
            tenant.checkpoint_used = True
            _write_checkpoint_body(tenant.checkpoint_path, checkpoint)
        tenant.writer = WalWriter.create(
            tenant.wal_path,
            obs=obs,
            fsync_every=1_000_000_000,  # sync only at commit frames
            wal_meta=meta,
            _next_seq=base_seq + 1,
            _segment_first_seq=base_seq + 1,
        )
        write_meta_sidecar(tenant.wal_path, meta)
        if base_seq:
            bump_sidecar_base(tenant.wal_path, base_seq)
        return tenant

    @classmethod
    def from_state(
        cls, name: str, data_dir: str, state: RecoveredState, obs=None
    ) -> "FollowerTenant":
        """Resume a standby from its own local files (follower restart)."""
        tenant = cls(name, data_dir, obs=obs)
        tenant.meta = state.meta
        tenant.system = state.system
        tenant.applier = RecordApplier.from_state(state)
        tenant.checkpoint_used = state.checkpoint_used
        tenant.base_seq = state.active_base_seq - 1
        tenant.received_seq = state.next_seq - 1
        tenant.writer = WalWriter.continue_log(
            state.wal_path,
            state.durable_offset,
            state.next_seq,
            obs=obs,
            fsync_every=1_000_000_000,
            wal_meta=state.meta,
            _segment_first_seq=(
                state.active_base_seq
                if state.durable_offset
                else state.next_seq
            ),
        )
        return tenant

    # -- the shipped-record tail ----------------------------------------------

    def receive(self, seq: int, kind: str, body: dict, crc: int) -> bool:
        """Stage one shipped record; apply through the match network when
        its covering boundary arrives.  Returns True on a boundary."""
        if _crc(seq, kind, body) != crc:
            raise ReplicationError(
                f"shipped record seq {seq} for tenant {self.name!r} "
                "fails its CRC"
            )
        if seq <= self.received_seq:
            return False  # duplicate from a reconnect overlap
        if seq != self.received_seq + 1:
            raise ReplicationError(
                f"shipped records for tenant {self.name!r} jumped from "
                f"seq {self.received_seq} to {seq} — a frame was lost"
            )
        line = (
            json.dumps(
                {"seq": seq, "kind": kind, "body": body, "crc": crc},
                sort_keys=True,
                separators=(",", ":"),
            )
            + "\n"
        )
        self._staged.append((seq, kind, body))
        self.staged_bytes += len(line.encode("utf-8"))
        self.received_seq = seq
        if kind != "boundary":
            return False
        # The boundary makes everything staged durable-and-applied, in
        # the same order recovery would replay it.
        for staged_seq, staged_kind, staged_body in self._staged:
            self.writer.append(staged_kind, staged_body)
            self.applier.apply(staged_seq, staged_kind, staged_body)
        self._staged = []
        self.staged_bytes = 0
        return True

    def sync(self) -> None:
        """Make every applied record locally durable (the commit frame)."""
        if self.writer is not None:
            self.writer.sync()

    @property
    def applied_seq(self) -> int:
        """Last boundary seq applied — the follower's durable position."""
        return self.applier.last_boundary_seq if self.applier else 0

    def stats(self) -> dict:
        extra = self.applier.extra if self.applier else {}
        return {
            "tenant": self.name,
            "applied_seq": extra.get("applied_seq", 0),
            "position": self.applier.position if self.applier else 0,
            "boundary_seq": self.applied_seq,
            "received_seq": self.received_seq,
            "staged_records": len(self._staged),
            "wm_size": self.system.wm.size() if self.system else 0,
        }

    # -- promotion -------------------------------------------------------------

    def to_recovered_state(self) -> RecoveredState:
        """Finalize the tail into a resumable
        :class:`~repro.recovery.recover.RecoveredState`.

        The staged (un-boundaried) suffix is dropped — it is exactly the
        debris recovery discards — and the local writer is closed so
        :meth:`~repro.recovery.session.DurableRun.resume` can continue
        the log in place.
        """
        self.writer.sync()
        durable_offset = self.writer.synced_bytes
        self.writer.close()
        self.applier.finalize()
        return RecoveredState(
            system=self.system,
            meta=self.meta,
            wal_path=self.wal_path,
            durable_offset=durable_offset,
            next_seq=self.applier.last_boundary_seq + 1,
            phase=self.applier.phase,
            cycle=self.applier.cycle,
            position=self.applier.position,
            halted=self.applier.halted,
            fired_count=self.applier.fired_count,
            fired_digest=self.applier.fired_digest,
            fired_keys=set(self.applier.fired_keys),
            extra=dict(self.applier.extra),
            checkpoint_used=self.checkpoint_used,
            replayed_batches=self.applier.replayed_batches,
            replayed_deltas=self.applier.replayed_deltas,
            active_base_seq=self.base_seq + 1,
        )

    def discard(self) -> None:
        """Close and delete the local materialization (re-bootstrap)."""
        if self.writer is not None:
            self.writer.abandon()
        for path in (
            self.wal_path,
            self.wal_path + META_SIDECAR_SUFFIX,
            self.checkpoint_path,
        ):
            if os.path.exists(path):
                os.remove(path)
        for _first, _last, file in list_segments(self.wal_path):
            os.remove(file)

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()


class FollowerState:
    """Every tenant's standby plus the frame dispatch and lag heartbeat."""

    def __init__(self, data_dir: str, obs=None, epoch: int = 0) -> None:
        os.makedirs(data_dir, exist_ok=True)
        self.data_dir = data_dir
        self.obs = obs
        self.epoch = epoch
        self.tenants: dict[str, FollowerTenant] = {}
        #: Primary's durable tip per tenant, from the last commit frame.
        self.tips: dict[str, int] = {}
        self.commit_frames = 0
        self.applied_records = 0
        self.applied_boundaries = 0
        self.last_commit_at: float | None = None

    def names(self) -> list[str]:
        return sorted(self.tenants)

    def have(self) -> dict[str, int]:
        """The catch-up handshake: last locally durable seq per tenant."""
        return {
            name: tenant.applied_seq
            for name, tenant in sorted(self.tenants.items())
        }

    # -- frame dispatch --------------------------------------------------------

    def handle_frame(self, frame: dict) -> dict | None:
        """Apply one shipped frame; returns the ack for commit frames."""
        epoch = frame.get("epoch")
        if isinstance(epoch, int) and self.epoch and epoch < self.epoch:
            raise FencedError(epoch, self.epoch)
        kind = frame.get("frame")
        if kind == "snapshot":
            self._handle_snapshot(frame)
            return None
        if kind == "records":
            self._ingest(frame["tenant"], frame["records"])
            return None
        if kind == "commit":
            return self._handle_commit(frame)
        raise ReplicationError(f"unknown shipped frame kind {kind!r}")

    def ingest_lines(self, tenant: str, lines: list[str]) -> None:
        """Feed raw WAL record lines directly (the in-process tap path
        the crash fuzzer and benches use — no sockets involved)."""
        self._ingest(tenant, [json.loads(line) for line in lines])

    def _ingest(self, name: str, records: list[dict]) -> None:
        if not records:
            return
        started = time.perf_counter()
        tenant = self.tenants.get(name)
        if tenant is None:
            first = records[0]
            if first.get("seq") != 1 or first.get("kind") != "meta":
                raise ReplicationError(
                    f"records for unknown tenant {name!r} start at seq "
                    f"{first.get('seq')}; a snapshot frame is required"
                )
            tenant = FollowerTenant.bootstrap(
                name, self.data_dir, first["body"], obs=self.obs
            )
            self.tenants[name] = tenant
        boundaries = 0
        for record in records:
            if tenant.receive(
                record["seq"], record["kind"], record["body"], record["crc"]
            ):
                boundaries += 1
        self.applied_records += len(records)
        self.applied_boundaries += boundaries
        if self.obs is not None and self.obs.enabled:
            metrics = self.obs.metrics
            metrics.counter("replica.applied_records").inc(len(records))
            if boundaries:
                metrics.counter("replica.applied_boundaries").inc(boundaries)
            metrics.log2_histogram("replica.apply_us").observe(
                (time.perf_counter() - started) * 1e6
            )

    def _handle_snapshot(self, frame: dict) -> None:
        name = frame["tenant"]
        existing = self.tenants.get(name)
        base_seq = frame.get("base_seq", 0)
        if existing is not None:
            if base_seq <= existing.received_seq:
                # Continuity: the snapshot only re-ships what we have.
                self._ingest(name, frame.get("records") or [])
                return
            # Gap (the primary compacted past us): rebuild from scratch.
            existing.discard()
            del self.tenants[name]
        tenant = FollowerTenant.bootstrap(
            name,
            self.data_dir,
            frame["meta"],
            checkpoint=frame.get("checkpoint"),
            base_seq=base_seq,
            obs=self.obs,
        )
        self.tenants[name] = tenant
        if self.obs is not None and self.obs.enabled:
            self.obs.metrics.counter("replica.snapshots").inc()
        self._ingest(name, frame.get("records") or [])

    def _handle_commit(self, frame: dict) -> dict:
        tips = frame.get("tips") or {}
        applied: dict[str, int] = {}
        lag_records = 0
        lag_bytes = 0
        for name in self.names():
            tenant = self.tenants[name]
            tenant.sync()
            applied[name] = tenant.applied_seq
            self.tips[name] = tips.get(name, self.tips.get(name, 0))
            lag_records += max(0, self.tips[name] - tenant.received_seq)
            lag_bytes += tenant.staged_bytes
        self.commit_frames += 1
        self.last_commit_at = time.monotonic()
        if self.obs is not None and self.obs.enabled:
            metrics = self.obs.metrics
            metrics.counter("replica.commit_frames").inc()
            metrics.gauge("replica.lag_records").set(lag_records)
            metrics.gauge("replica.lag_bytes").set(lag_bytes)
            for name, seq in applied.items():
                metrics.gauge(f"replica.applied_seq[{name}]").set(seq)
        return {
            "frame": "ack",
            "epoch": self.epoch,
            "applied": applied,
            "lag_records": lag_records,
        }

    # -- lag heartbeat ---------------------------------------------------------

    def lag(self) -> dict:
        """The replication-lag heartbeat ``status`` exposes."""
        per_tenant = {}
        total = 0
        for name in self.names():
            tenant = self.tenants[name]
            behind = max(
                0, self.tips.get(name, 0) - tenant.received_seq
            )
            total += behind
            per_tenant[name] = {
                "applied_seq": tenant.applied_seq,
                "received_seq": tenant.received_seq,
                "tip_seq": self.tips.get(name, 0),
                "lag_records": behind,
            }
        age = (
            round(time.monotonic() - self.last_commit_at, 3)
            if self.last_commit_at is not None
            else None
        )
        return {
            "epoch": self.epoch,
            "lag_records": total,
            "last_commit_age_s": age,
            "tenants": per_tenant,
        }

    # -- promotion -------------------------------------------------------------

    def pop_states(self) -> dict[str, RecoveredState]:
        """Finalize every tenant for promotion; empties the follower.

        Tenants that never reached a durable boundary (nothing to
        promote — the pair died before the tenant's setup commit) are
        discarded, mirroring recovery's nothing-durable rule.
        """
        states: dict[str, RecoveredState] = {}
        for name in self.names():
            tenant = self.tenants[name]
            if tenant.applied_seq == 0:
                tenant.discard()
                continue
            states[name] = tenant.to_recovered_state()
        self.tenants = {}
        return states

    def close(self) -> None:
        for tenant in self.tenants.values():
            tenant.close()
        self.tenants = {}

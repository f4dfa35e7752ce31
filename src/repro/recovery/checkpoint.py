"""Checkpoints: atomic snapshots that bound log replay.

A checkpoint captures, at one WAL boundary (its ``wal_seq``):

* every WM relation's rows — exact tids, timetags and values, via the
  storage backends' ordinary iteration;
* the run's progress (phase, cycle, cumulative program output) and
  resolver state;
* the fired history as a count plus a chained digest
  (:func:`~repro.recovery.wal.fold_fired`), and the refraction keys that
  are still live — the history itself stays in the log, so a checkpoint
  costs O(live state), not O(firings since attach);
* optionally, a canonical snapshot of the Rete LEFT/RIGHT memories
  (the rete family's alpha/beta/negative/mirror contents) used to verify
  the replay-through-match rebuild bit-for-bit at recovery time.

The file is one JSON object with a CRC, written to a temp file, fsynced
and atomically renamed over the destination — a crash mid-checkpoint
(site ``checkpoint.mid``) leaves the previous checkpoint intact.
Matcher state is deliberately *not* restored from the snapshot: recovery
rebuilds it by replaying the restored WM through the match network
(:meth:`repro.engine.wm.WorkingMemory.restore_batch`), and the optional
Rete snapshot cross-checks that rebuild.

Version 1 files stored the whole fired list in place of the count,
digest and keys; :func:`load_checkpoint` still reads them, folding the
list into that triple (:func:`migrate_checkpoint`).
"""

from __future__ import annotations

import json
import os
import time
import zlib

from repro.errors import RecoveryError
from repro.recovery.wal import fold_fired

CHECKPOINT_VERSION = 2


class CheckpointError(RecoveryError):
    """A checkpoint file is damaged or inconsistent with its log."""


def canonical_rete_snapshot(strategy) -> dict:
    """A JSON-safe, order-canonical image of every Rete memory.

    Same contents as :func:`repro.check.oracle.rete_memory_snapshot`
    (alpha WME keys, beta token chains, negative witness sets, persisted
    mirror rows) but encoded with lists and sorted deterministically, so
    two snapshots are comparable after a JSON round trip.
    """
    network = strategy.network

    def chain(token):
        return [
            [w.relation, w.tid] if w is not None else None
            for w in token.chain()
        ]

    return {
        "alpha": {
            amem.name: sorted(
                [list(key) for key in amem.wme_keys()], key=repr
            )
            for amem in network.alpha_memories
        },
        "beta": {
            bmem.name: sorted(
                (chain(token) for token in bmem.tokens()), key=repr
            )
            for bmem in network.beta_memories
        },
        "negative": {
            node.name: sorted(
                (
                    [chain(token), sorted([list(m) for m in matches], key=repr)]
                    for token, matches in node.results.items()
                ),
                key=repr,
            )
            for node in network.negative_nodes
        },
        "mirrors": {
            mirror.table.schema.name: sorted(
                (list(row.values) for row in mirror.table.scan()), key=repr
            )
            for mirror in network.mirrors
        },
    }


def _normalize(data):
    """JSON round-trip, so in-memory and reloaded snapshots compare equal."""
    return json.loads(json.dumps(data))


def write_checkpoint(
    system,
    path: str,
    wal_seq: int,
    state: dict,
    program_crc: int = 0,
    crashpoints=None,
    obs=None,
    include_rete: bool = False,
) -> dict | None:
    """Snapshot *system* as of WAL boundary *wal_seq*; returns the body.

    *state* is the durable-run progress dict (phase, cycle, fired count,
    digest and live keys, output, resolver state...).
    Returns ``None`` without writing when the run's crashpoint registry
    has already fired (the simulated process is dead).
    """
    if crashpoints is not None and crashpoints.crashed is not None:
        return None
    started = time.perf_counter()
    relations = {
        class_name: [
            [wme.tid, wme.timetag, list(wme.values)]
            for wme in sorted(
                system.wm.tuples(class_name), key=lambda w: w.tid
            )
        ]
        for class_name in system.wm.schemas
    }
    body = {
        "version": CHECKPOINT_VERSION,
        "wal_seq": wal_seq,
        "program_crc": program_crc,
        "clock": system.wm.catalog.clock.current,
        "tids": system.wm.tid_marks(),
        "relations": relations,
        "state": state,
    }
    if include_rete and hasattr(system.strategy, "network"):
        body["rete"] = canonical_rete_snapshot(system.strategy)
    payload = json.dumps(body, sort_keys=True, separators=(",", ":"))
    # Byte-for-byte what dumping {"body": body, "crc": crc} with sorted
    # keys gives, without encoding the body a second time.
    record = (
        f'{{"body":{payload},"crc":{zlib.crc32(payload.encode("utf-8"))}}}'
    )
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(record + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    if crashpoints is not None:
        crashpoints.hit("checkpoint.mid")
    os.replace(tmp, path)
    if obs is not None and obs.enabled:
        metrics = obs.metrics
        metrics.counter("recovery.checkpoints").inc()
        metrics.histogram("recovery.checkpoint_us").observe(
            (time.perf_counter() - started) * 1e6
        )
    return body


def load_checkpoint(path: str) -> dict | None:
    """Read a checkpoint body; ``None`` when *path* does not exist.

    Raises :class:`CheckpointError` when the file exists but is damaged
    — a checkpoint is never guessed at.
    """
    if not os.path.exists(path):
        return None
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.loads(handle.read())
        body = data["body"]
        crc = data["crc"]
    except Exception as error:
        raise CheckpointError(
            f"unreadable checkpoint {path!r}: {error}"
        ) from None
    payload = json.dumps(body, sort_keys=True, separators=(",", ":"))
    if zlib.crc32(payload.encode("utf-8")) != crc:
        raise CheckpointError(f"checkpoint {path!r} failed its checksum")
    if body.get("version") not in (1, CHECKPOINT_VERSION):
        raise CheckpointError(
            f"checkpoint {path!r} has unsupported version "
            f"{body.get('version')!r}"
        )
    return migrate_checkpoint(body)


def migrate_checkpoint(body: dict) -> dict:
    """Bring a checkpoint body to :data:`CHECKPOINT_VERSION`.

    A version-1 state carries the cumulative ``fired`` list; it becomes
    the count, the digest of the same fold a live run keeps, and the
    keys the list names (recovery prunes the dead ones against the
    restored WM).  A current body is returned unchanged.
    """
    if body["version"] == CHECKPOINT_VERSION:
        return body
    state = dict(body["state"])
    fired = state.pop("fired")
    state["fired_count"] = len(fired)
    state["fired_digest"] = fold_fired("", fired)
    state["fired_keys"] = sorted(
        (key for _cycle, _rule, key in fired), key=json.dumps
    )
    return {**body, "version": CHECKPOINT_VERSION, "state": state}

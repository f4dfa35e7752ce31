"""Spans → per-layer metrics.

A span is ``[name, start, end, parent, tenant, seq, note]`` as
``traced_server.py`` wrote it.  A layer's *self time* is its spans'
duration minus the part their child spans cover; ``_us`` metrics are
self time per acked mutation over the measured interval.
"""

from __future__ import annotations

import bisect
import json
from pathlib import Path

NAME, START, END, PARENT, TENANT, SEQ, NOTE = range(7)

#: span-name prefix → the per-event self-time metric it feeds.  First
#: match wins; spans matching nothing (set-up, recovery, promotion) are
#: outside the steady-state budget.
SELF_TIME = (
    ("serve.protocol.parse", "serve.protocol.parse_us"),
    ("serve.protocol.encode", "serve.protocol.encode_us"),
    ("serve.backpressure.", "serve.backpressure.admit_us"),
    ("serve.server.", "serve.server.round_self_us"),
    ("serve.session.", "serve.session.drain_self_us"),
    ("engine.wm.", "engine.wm.apply_self_us"),
    ("repro.match.", "match.self_us"),
    ("engine.run", "engine.act_self_us"),
    ("recovery.wal.sync", "fsync"),
    ("recovery.wal.", "recovery.wal.append_us"),
    ("recovery.session.", "recovery.wal.append_us"),
    ("recovery.checkpoint", "recovery.checkpoint.per_event_us"),
    ("storage.", "storage.self_us"),
    ("replica.shipper.", "replica.shipper.frames_us"),
)


def read_spans(path: Path) -> list[list]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def self_times(spans: list[list]) -> list[float]:
    """Duration minus direct children, per span (index-aligned)."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def metric_of(name: str) -> str | None:
    for prefix, metric in SELF_TIME:
        if name.startswith(prefix):
            return metric
    return None


class Union:
    """A set of time intervals, merged; answers how much of ``[a, b]`` it
    covers."""

    def __init__(self, intervals: list[tuple[float, float]]) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        #: Covered time strictly before interval *i*.
        self.before: list[float] = []
        covered = 0.0
        for start, end in sorted(intervals):
            if self.ends and start <= self.ends[-1]:
                if end > self.ends[-1]:
                    covered += end - self.ends[-1]
                    self.ends[-1] = end
                continue
            self.starts.append(start)
            self.ends.append(end)
            self.before.append(covered)
            covered += end - start

    def _upto(self, t: float) -> float:
        """Covered time before instant *t*."""
        index = bisect.bisect_right(self.starts, t) - 1
        if index < 0:
            return 0.0
        return self.before[index] + min(t, self.ends[index]) - self.starts[index]

    def covered(self, a: float, b: float) -> float:
        return self._upto(b) - self._upto(a)


def ship_waits(spans: list[list]) -> list[tuple[float, float]]:
    """``(frames written, follower ack in hand)`` per shipped round: the
    time the engine task spends awaiting the standby."""
    waits = []
    written = None
    for span in spans:
        if span[NAME] == "replica.shipper.encode":
            written = span[END]
        elif span[NAME] == "replica.shipper.handle_ack" and written is not None:
            waits.append((written, span[START]))
            written = None
    return waits


def steady_state(spans: list[list], window: tuple[float, float],
                 acked: int) -> dict:
    """Per-event self times, waits and the accounted share, from the
    primary's spans inside the measured *window*."""
    t0, t1 = window
    own = self_times(spans)
    totals: dict[str, float] = {}
    counts: dict[str, int] = {}
    notes: dict[str, float] = {}
    for span, self_s in zip(spans, own):
        if not t0 <= span[START] < t1:
            continue
        name = span[NAME]
        counts[name] = counts.get(name, 0) + 1
        if span[NOTE] is not None:
            notes[name] = notes.get(name, 0) + span[NOTE]
        metric = metric_of(name)
        if metric is not None:
            totals[metric] = totals.get(metric, 0.0) + self_s

    metrics = {
        metric: totals.get(metric, 0.0) / acked * 1e6
        for _, metric in SELF_TIME if metric != "fsync"
    }
    syncs = counts.get("recovery.wal.sync", 0)
    metrics["recovery.wal.fsync_us"] = (
        totals.get("fsync", 0.0) / syncs * 1e6 if syncs else 0.0
    )
    checkpoints = [
        s for s in spans
        if s[NAME] == "recovery.checkpoint" and t0 <= s[START] < t1
    ]
    metrics["recovery.checkpoint.write_ms"] = (
        sum(s[END] - s[START] for s in checkpoints) / len(checkpoints) * 1e3
        if checkpoints else 0.0
    )
    parses = counts.get("serve.protocol.parse", 0)
    encodes = counts.get("serve.protocol.encode", 0)
    metrics["serve.protocol.request_bytes"] = (
        notes.get("serve.protocol.parse", 0) / parses if parses else 0.0
    )
    metrics["serve.protocol.reply_bytes"] = (
        notes.get("serve.protocol.encode", 0) / encodes if encodes else 0.0
    )

    # -- per-request timelines: residence, queue wait, checkpoint delay --
    parse_at: dict[tuple, float] = {}
    enqueue_end: dict[tuple, float] = {}
    drains: dict[str, list[tuple[float, float]]] = {}
    residences: list[tuple] = []  # (key, parsed, encode start, written)
    for span in spans:
        name = span[NAME]
        key = (span[TENANT], span[SEQ])
        if name == "serve.protocol.parse" and span[SEQ] is not None:
            parse_at[key] = span[START]
        elif name == "serve.session.enqueue":
            enqueue_end[key] = span[END]
        elif name == "serve.session.drain":
            drains.setdefault(span[TENANT], []).append((span[START], span[END]))
        elif name == "serve.protocol.encode" and key in parse_at:
            if t0 <= parse_at[key] < t1:
                residences.append((key, parse_at[key], span[START], span[END]))
    checkpoint_starts = [s[START] for s in checkpoints]
    checkpoint_before = [0.0]
    for span in checkpoints:
        checkpoint_before.append(checkpoint_before[-1] + span[END] - span[START])

    waits = ship_waits(spans)
    busy = Union(
        [(s[START], s[END]) for s in spans if s[PARENT] < 0] + waits
    )
    resident = accounted = queue_wait = ack_delay = 0.0
    for key, parsed, encode_start, written in residences:
        resident += written - parsed
        accounted += busy.covered(parsed, written)
        tenant_drains = drains.get(key[0], [])
        slot = bisect.bisect_left(tenant_drains, (enqueue_end.get(key, parsed),))
        if slot < len(tenant_drains):
            drain_start, drain_end = tenant_drains[slot]
            queue_wait += drain_start - enqueue_end.get(key, parsed)
            # Checkpoints cut between this request's drain and its reply.
            lo = bisect.bisect_left(checkpoint_starts, drain_end)
            hi = bisect.bisect_left(checkpoint_starts, encode_start)
            ack_delay += checkpoint_before[hi] - checkpoint_before[lo]
    requests = max(1, len(residences))
    metrics["serve.server.queue_wait_us"] = queue_wait / requests * 1e6
    metrics["serve.server.loop_other_us"] = (resident - accounted) / requests * 1e6
    metrics["recovery.checkpoint.ack_delay_us"] = ack_delay / requests * 1e6
    metrics["trace.accounted_share"] = accounted / resident if resident else 0.0

    in_window = [(a, b) for a, b in waits if t0 <= a < t1]
    metrics["replica.ship_wait_us"] = (
        sum(b - a for a, b in in_window) / len(in_window) * 1e6
        if in_window else 0.0
    )
    metrics["replica.lag_records_max"] = max(
        (s[NOTE] or 0 for s in spans
         if s[NAME] == "replica.shipper.handle_ack" and t0 <= s[START] < t1),
        default=0,
    )
    return metrics


def set_up(spans: list[list]) -> dict:
    """Registry and language metrics from the whole primary trace (the
    attaches happen before the measured interval)."""
    attaches = [s for s in spans if s[NAME] == "serve.registry.attach"]
    lookups = [i for i, s in enumerate(spans)
               if s[NAME] == "serve.registry.pack_for"]
    parses = [s for s in spans if s[NAME] == "lang.parse"]
    missed = {s[PARENT] for s in parses}
    return {
        "serve.registry.attach_ms": (
            sum(s[END] - s[START] for s in attaches) / len(attaches) * 1e3
            if attaches else 0.0
        ),
        "serve.registry.pack_hit_share": (
            sum(1 for i in lookups if i not in missed) / len(lookups)
            if lookups else 0.0
        ),
        "lang.parse_ms": sum(s[END] - s[START] for s in parses) * 1e3,
    }


def follower(spans: list[list], window: tuple[float, float], acked: int) -> dict:
    """The standby's side: apply time per primary-acked event (inclusive
    of everything under ``handle_frame``) and the promotion."""
    t0, t1 = window
    applied = sum(
        s[END] - s[START] for s in spans
        if s[NAME] == "replica.follower.handle_frame" and t0 <= s[START] < t1
    )
    promotes = [s for s in spans if s[NAME] == "replica.promote"]
    return {
        "replica.follower.apply_us": applied / acked * 1e6,
        "replica.promote_ms": (
            (promotes[-1][END] - promotes[-1][START]) * 1e3 if promotes else 0.0
        ),
    }


def recovery(spans: list[list]) -> dict:
    """One traced restart on a killed data dir."""
    loads = [s for s in spans if s[NAME] == "recovery.recover.load_checkpoint"]
    applies = [s for s in spans if s[NAME] == "recovery.recover.apply"]
    return {
        "recovery.recover.checkpoint_load_ms":
            sum(s[END] - s[START] for s in loads) * 1e3,
        "recovery.recover.replay_us_per_record": (
            sum(s[END] - s[START] for s in applies) / len(applies) * 1e6
            if applies else 0.0
        ),
        "recovery.recover.records_replayed": len(applies),
    }


def check_nesting(spans: list[list]) -> None:
    """Every span lies inside its parent and no self time is negative
    (beyond clock resolution); raises ``ValueError`` otherwise."""
    for index, (span, own) in enumerate(zip(spans, self_times(spans))):
        if span[END] < span[START]:
            raise ValueError(f"span {index} {span[NAME]} ends before it starts")
        if own < -1e-6:
            raise ValueError(f"span {index} {span[NAME]} has self time {own}")
        if span[PARENT] >= 0:
            parent = spans[span[PARENT]]
            if not (parent[START] <= span[START] and span[END] <= parent[END]):
                raise ValueError(
                    f"span {index} {span[NAME]} escapes its parent "
                    f"{parent[NAME]}"
                )

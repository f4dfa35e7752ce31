"""repro.obs — structured tracing, metrics and run manifests.

A zero-dependency observability layer shared by the engine, the match
strategies, the transaction scheduler, the storage backends and the
benchmarks:

* :mod:`repro.obs.tracing` — nested timed spans (Match/Select/Act, match
  maintenance, lock/commit, SQL statements);
* :mod:`repro.obs.metrics` — counters, gauges and fixed-bucket
  histograms, absorbing :class:`repro.instrument.Counters`;
* :mod:`repro.obs.hist` — power-of-two latency histograms with
  percentile estimation (cycle, batch-flush, fsync latency);
* :mod:`repro.obs.sinks` — ring buffer, console, JSON-lines file (with
  size rotation);
* :mod:`repro.obs.manifest` — ``runs/<run_id>/manifest.json`` records;
* :mod:`repro.obs.flame` — collapsed-stack (flamegraph) folding of span
  streams, for ``repro stats --flamegraph``;
* :mod:`repro.obs.stats` — per-rule per-phase cost aggregation;
* :mod:`repro.obs.xray` — token provenance (``repro explain``), why-not
  analysis and the ``repro top`` dashboard aggregator.

The facade is :class:`Observability`: one object bundling a tracer, a
metrics registry and a sink list.  It is **disabled by default** — with
no sink attached and metrics collection off, every instrumentation point
reduces to a single predicate check, so the un-observed hot paths cost
what they did before this layer existed.
"""

from __future__ import annotations

import time

from repro.obs.flame import fold_spans, fold_trace_file, render_folded
from repro.obs.hist import (
    LOG2_BUCKET_COUNT,
    SNAPSHOT_PERCENTILES,
    Log2Histogram,
    log2_buckets,
    percentile_from_buckets,
)
from repro.obs.manifest import (
    RunManifest,
    git_sha,
    latency_summary,
    new_run_id,
    program_hash,
    repro_footer,
)
from repro.obs.metrics import (
    LATENCY_BUCKETS_US,
    SIZE_BUCKETS,
    CounterMetric,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.sinks import (
    CallbackSink,
    ConsoleSink,
    JsonlFileSink,
    RingBufferSink,
    Sink,
    close_sink,
)
from repro.obs.stats import PhaseStatsSink
from repro.obs.tracing import NULL_SPAN, NullSpan, Span, Tracer
from repro.obs.xray import (
    Lineage,
    LineageRecorder,
    TopAggregator,
    WhyNot,
    render_support,
    render_top,
    why_not,
)


class Observability:
    """Tracer + metrics + sinks behind one enable check.

    ``enabled`` is the master predicate hot paths test before doing any
    instrumentation work; it is true when a sink is attached or metrics
    collection was requested.  Spans additionally require a sink (they
    have nowhere else to go), so :meth:`span` hands out a no-op span in
    metrics-only mode.
    """

    def __init__(
        self,
        sinks: tuple | list = (),
        metrics: MetricsRegistry | None = None,
        collect_metrics: bool = False,
    ) -> None:
        self.metrics = metrics or MetricsRegistry()
        self._collect_metrics = collect_metrics
        self._sinks: list = []
        self.tracer = Tracer(self._sinks)
        for sink in sinks:
            self.add_sink(sink)

    # -- enablement -----------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """True when any instrumentation should run at all."""
        return self._collect_metrics or bool(self._sinks)

    def enable_metrics(self) -> None:
        """Turn on metric collection without attaching a sink."""
        self._collect_metrics = True

    # -- sinks ----------------------------------------------------------------

    def add_sink(self, sink) -> None:
        """Attach *sink*; this also enables tracing."""
        self._sinks.append(sink)

    def remove_sink(self, sink) -> None:
        """Detach *sink* (ValueError when not attached)."""
        self._sinks.remove(sink)

    @property
    def sinks(self) -> list:
        """The attached sinks (live list — do not mutate directly)."""
        return self._sinks

    # -- spans and events -----------------------------------------------------

    def span(self, name: str, **attrs):
        """Open a span; a shared no-op when no sink is attached."""
        return self.tracer.span(name, **attrs)

    def event(self, kind: str, cycle: int = 0, detail=None, **fields) -> None:
        """Emit a point event to every sink."""
        if not self._sinks:
            return
        record = {
            "type": "event",
            "kind": kind,
            "cycle": cycle,
            "detail": detail,
            "ts": time.time(),
        }
        if fields:
            record.update(fields)
        for sink in self._sinks:
            sink.emit(record)

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Close every sink that supports closing."""
        for sink in self._sinks:
            close_sink(sink)


__all__ = [
    "CallbackSink",
    "ConsoleSink",
    "CounterMetric",
    "Gauge",
    "Histogram",
    "JsonlFileSink",
    "LATENCY_BUCKETS_US",
    "LOG2_BUCKET_COUNT",
    "Lineage",
    "LineageRecorder",
    "Log2Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "NullSpan",
    "Observability",
    "PhaseStatsSink",
    "RingBufferSink",
    "RunManifest",
    "SIZE_BUCKETS",
    "SNAPSHOT_PERCENTILES",
    "Sink",
    "Span",
    "TopAggregator",
    "Tracer",
    "WhyNot",
    "close_sink",
    "fold_spans",
    "fold_trace_file",
    "git_sha",
    "latency_summary",
    "log2_buckets",
    "new_run_id",
    "percentile_from_buckets",
    "program_hash",
    "render_folded",
    "render_support",
    "render_top",
    "repro_footer",
    "why_not",
]

"""Rete network as a match strategy.

Three flavours, all over the same compiled network:

* ``ReteStrategy``            — OPS5-style, memories in main memory (§3.1).
* ``SharedReteStrategy``      — multiple-query-optimized network (§3.2/§6).
* ``DbmsReteStrategy``        — memories mirrored into LEFT/RIGHT relations
                                of a storage catalog (§3.2), optionally on
                                the SQLite backend.

All three are natively set-oriented: a multi-element :class:`DeltaBatch`
is netted and handed to :meth:`ReteNetwork.apply_batch`, which pushes
per-class token *sets* through the network — one probe of the opposing
LEFT/RIGHT memory per (two-input node, batch group) instead of one per
tuple (§4.2.3's set-at-a-time argument applied to §3.2's DBMS Rete).
Single-element batches take the classic tuple-at-a-time path, so the
engine's act phase, which propagates each change as it happens, remains
bit-for-bit OPS5.
"""

from __future__ import annotations

from repro.delta import INSERT, DeltaBatch
from repro.engine.wm import WorkingMemory
from repro.instrument import Counters, SpaceReport
from repro.lang.analysis import RuleAnalysis
from repro.match.base import MatchStrategy
from repro.match.rete.builder import ReteNetwork, build_network
from repro.storage.catalog import Catalog
from repro.storage.tuples import StoredTuple


class ReteStrategy(MatchStrategy):
    """Classic Rete: one network, unshared nodes, in-memory memories."""

    strategy_name = "rete"
    match_span_name = "match.token_propagation"
    _share = False
    _mirror_backend: str | None = None

    def _prepare(self) -> None:
        self.mirror_catalog: Catalog | None = None
        if self._mirror_backend is not None:
            self.mirror_catalog = Catalog(
                backend=self._mirror_backend, counters=self.counters
            )
        self.network: ReteNetwork = build_network(
            self.analyses,
            self.wm.schemas,
            counters=self.counters,
            share=self._share,
            mirror_catalog=self.mirror_catalog,
        )
        self.conflict_set = self.network.conflict_set
        self.network.runtime.obs = self.obs

    def _attached(self) -> None:
        summary = self.network.compile_summary
        obs = self.obs
        if obs is not None and obs.enabled:
            with obs.span(
                "compile.attach",
                strategy=self.strategy_name,
                kernels=summary["kernels"],
                alpha=summary["alpha"],
            ):
                pass
            metrics = obs.metrics
            metrics.counter("rete.kernel_ns").inc(summary["ns"])
            metrics.counter("rete.kernels").inc(summary["kernels"])
            metrics.counter("rete.compiled_alpha").inc(summary["alpha"])

    def on_insert(self, wme: StoredTuple) -> None:
        self._trace_match("insert", wme, self.network.insert)

    def on_delete(self, wme: StoredTuple) -> None:
        self._trace_match("delete", wme, self.network.remove)

    def _apply_delta(self, batch: DeltaBatch) -> None:
        """Set-at-a-time maintenance: token batches through the network.

        Netting happens first so insert/delete pairs annihilate before any
        join is probed.  A batch that nets down to a single delta takes
        the per-tuple path — set propagation only pays off when there is a
        set.
        """
        batch = batch.net()
        if len(batch) <= 1:
            for delta in batch:
                if delta.op == INSERT:
                    self.on_insert(delta.wme)
                else:
                    self.on_delete(delta.wme)
            return
        self.network.apply_batch(batch)

    def describe(self) -> dict:
        """The live node graph (memories, probes, witnesses) — §3's network
        rendered as data; see :meth:`ReteNetwork.describe`."""
        description = self.network.describe()
        description["strategy"] = self.strategy_name
        description["conflict_set"] = len(self.conflict_set)
        return description

    def to_dot(self) -> str:
        """Graphviz DOT rendering of the compiled network."""
        return self.network.to_dot()

    def space_report(self) -> SpaceReport:
        network = self.network
        stored = network.stored_tokens()
        cells = network.stored_cells()
        if self.mirror_catalog is not None:
            detail_cells = sum(
                len(t) * t.schema.arity for t in self.mirror_catalog.tables()
            )
        else:
            detail_cells = cells
        return SpaceReport(
            strategy=self.strategy_name,
            wm_tuples=self.wm.size(),
            stored_tokens=stored,
            stored_patterns=0,
            marker_entries=0,
            estimated_cells=cells,
            detail={
                "alpha_memories": len(network.alpha_memories),
                "beta_memories": len(network.beta_memories),
                "join_nodes": len(network.join_nodes),
                "negative_nodes": len(network.negative_nodes),
                "mirror_cells": detail_cells,
            },
        )


class SharedReteStrategy(ReteStrategy):
    """Rete with MQO-style node sharing across rules."""

    strategy_name = "rete-shared"
    _share = True


class DbmsReteStrategy(ReteStrategy):
    """Rete whose memories are persisted as relations (§3.2)."""

    strategy_name = "rete-dbms"
    _mirror_backend = "memory"

    def __init__(
        self,
        wm: WorkingMemory,
        analyses: dict[str, RuleAnalysis],
        counters: Counters | None = None,
        memory_backend: str = "memory",
    ) -> None:
        self._mirror_backend = memory_backend
        super().__init__(wm, analyses, counters)

"""The match-strategy interface.

Each of the paper's indexing schemes — the (DBMS) Rete network (§3),
the simplified re-evaluation algorithm (§4.1), the matching-pattern scheme
(§4.2) and the tuple-marker scheme (§2.3/[STON86a]) — implements this one
interface: it listens to WM changes and maintains a
:class:`~repro.engine.conflict.ConflictSet`.  The engine and the benchmarks
are strategy-agnostic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.delta import INSERT, DeltaBatch
from repro.engine.conflict import ConflictSet, Instantiation
from repro.engine.wm import WorkingMemory
from repro.errors import MatchError
from repro.instrument import Counters, SpaceReport
from repro.lang.analysis import RuleAnalysis
from repro.obs import Observability
from repro.storage.tuples import StoredTuple


@dataclass
class ConditionDiagnosis:
    """Why one condition element is (un)satisfied."""

    cond_number: int
    class_name: str
    negated: bool
    display: str
    matching_elements: int
    satisfied: bool
    detail: dict = field(default_factory=dict)


@dataclass
class RuleDiagnosis:
    """The explain() result for one rule."""

    rule_name: str
    instantiations: int
    conditions: list[ConditionDiagnosis] = field(default_factory=list)

    @property
    def satisfied(self) -> bool:
        return self.instantiations > 0

    def blocking_conditions(self) -> list[ConditionDiagnosis]:
        """The conditions currently preventing the rule from matching."""
        return [c for c in self.conditions if not c.satisfied]

    def __str__(self) -> str:
        lines = [
            f"{self.rule_name}: "
            + (
                f"{self.instantiations} instantiation(s) in the conflict set"
                if self.satisfied
                else "not satisfied"
            )
        ]
        for condition in self.conditions:
            mark = "ok " if condition.satisfied else "BLK"
            polarity = "-" if condition.negated else " "
            lines.append(
                f"  [{mark}] {polarity}({condition.display}) — "
                f"{condition.matching_elements} matching element(s)"
            )
        return "\n".join(lines)


class MatchStrategy:
    """Base class wiring a strategy to a WM and a conflict set.

    Subclasses implement :meth:`on_insert` / :meth:`on_delete` and
    :meth:`space_report`.  Construction registers the strategy as a WM
    listener; WM elements already present are replayed so a strategy can be
    attached to a non-empty working memory.
    """

    #: Short identifier used in benchmark tables.
    strategy_name = "abstract"

    #: Span name for this strategy's match work (§4.2.3's cost unit);
    #: subclasses override it with their algorithm-specific label.
    match_span_name = "match.work"

    def __init__(
        self,
        wm: WorkingMemory,
        analyses: dict[str, RuleAnalysis],
        counters: Counters | None = None,
        obs: Observability | None = None,
    ) -> None:
        self.wm = wm
        self.analyses = dict(analyses)
        self.counters = counters or wm.counters
        self.obs = obs or wm.obs
        self.conflict_set = ConflictSet()
        self._prepare()
        self._attached()
        wm.add_listener(self)
        replay = DeltaBatch.of_inserts(
            wme for class_name in wm.schemas for wme in wm.tuples(class_name)
        )
        if replay:
            self.on_delta(replay)

    # -- hooks ------------------------------------------------------------

    def _prepare(self) -> None:
        """Strategy-specific compilation; runs before replay/registration."""

    def _attached(self) -> None:
        """Runs once the strategy is fully built (every override of
        :meth:`_prepare` has returned), before replay/registration."""

    def on_insert(self, wme: StoredTuple) -> None:
        """Propagate a WM insertion."""
        raise NotImplementedError

    def on_delete(self, wme: StoredTuple) -> None:
        """Propagate a WM deletion."""
        raise NotImplementedError

    def on_delta(self, batch: DeltaBatch) -> None:
        """Propagate a whole batch of WM changes (set-at-a-time, §4.2.3).

        The engine delivers one call per batch however many elements
        changed; :meth:`_apply_delta` does the strategy-specific work.  The
        base implementation simply replays the batch through the per-tuple
        callbacks in order, so every strategy is batch-capable; set-oriented
        strategies override ``_apply_delta`` to group maintenance by target
        relation.  The surrounding span/metrics record batch size and the
        per-relation group fan-out (the width available to the paper's
        "fully parallelizable" claim).
        """
        obs = self.obs
        if obs is None or not obs.enabled:
            self._apply_delta(batch)
            return
        groups = batch.by_relation()
        group_max = max((len(g) for g in groups.values()), default=0)
        started = time.perf_counter()
        with obs.span(
            "match.batch",
            strategy=self.strategy_name,
            size=len(batch),
            relations=len(groups),
            group_max=group_max,
        ):
            self._apply_delta(batch)
        metrics = obs.metrics
        metrics.counter("match.batches").inc()
        metrics.counter("match.batch_deltas").inc(len(batch))
        metrics.histogram("match.batch_size").observe(len(batch))
        metrics.histogram("match.batch_relations").observe(len(groups))
        metrics.histogram("match.batch_group_max").observe(group_max)
        metrics.log2_histogram("match.batch_us").observe(
            (time.perf_counter() - started) * 1e6
        )

    def _apply_delta(self, batch: DeltaBatch) -> None:
        """Strategy-specific batch maintenance; default is sequential."""
        for delta in batch:
            if delta.op == INSERT:
                self.on_insert(delta.wme)
            else:
                self.on_delete(delta.wme)

    def _trace_match(self, op: str, wme: StoredTuple, impl) -> None:
        """Run ``impl(wme)`` inside this strategy's match span.

        The disabled path is a single predicate check before delegating,
        so un-observed matching costs what it did before the obs layer.
        When enabled, the span carries the strategy, operation and changed
        relation, and per-event counter/latency metrics are recorded.
        """
        obs = self.obs
        if obs is None or not obs.enabled:
            impl(wme)
            return
        started = time.perf_counter()
        with obs.span(
            self.match_span_name,
            strategy=self.strategy_name,
            op=op,
            relation=wme.relation,
        ):
            impl(wme)
        metrics = obs.metrics
        metrics.counter("match.wm_events").inc()
        metrics.log2_histogram("match.event_us").observe(
            (time.perf_counter() - started) * 1e6
        )

    def space_report(self) -> SpaceReport:
        """Report the strategy's auxiliary-storage footprint (§4.2.3)."""
        raise NotImplementedError

    def describe(self) -> dict:
        """JSON-ready structural summary of this strategy's match state.

        The base form reports the space-report gauges plus the conflict
        set; the Rete strategies override it with the full node graph
        (:meth:`repro.match.rete.builder.ReteNetwork.describe`) and the
        pattern scheme with its per-store cardinalities — the non-Rete
        equivalent of per-node introspection.
        """
        report = self.space_report()
        return {
            "strategy": self.strategy_name,
            "rules": sorted(self.analyses),
            "conflict_set": len(self.conflict_set),
            "space": {**report.as_dict(), **report.detail},
        }

    # -- shared helpers ------------------------------------------------------

    def explain(self, rule_name: str) -> RuleDiagnosis:
        """Why is *rule_name* (not) in the conflict set?

        Reports, per condition element, how many WM elements satisfy it in
        isolation — the RULE-DEF Check-bit view of §4.1.1 — plus the
        current instantiation count.  A positive condition with zero
        matching elements, or a negated one with any, is flagged as
        blocking.  (Per-condition satisfaction is necessary, not
        sufficient: join conditions can each be satisfiable without a
        consistent combination existing.)
        """
        from repro.match.common import match_condition

        analysis = self.analyses.get(rule_name)
        if analysis is None:
            raise MatchError(f"no rule named {rule_name!r}")
        diagnosis = RuleDiagnosis(
            rule_name=rule_name,
            instantiations=len(self.conflict_set.for_rule(rule_name)),
        )
        for condition in analysis.conditions:
            schema = self.wm.schema(condition.class_name)
            matching = sum(
                1
                for wme in self.wm.tuples(condition.class_name)
                if match_condition(condition, schema, wme) is not None
            )
            satisfied = (matching == 0) if condition.negated else (matching > 0)
            diagnosis.conditions.append(
                ConditionDiagnosis(
                    cond_number=condition.cond_number,
                    class_name=condition.class_name,
                    negated=condition.negated,
                    display=str(condition.ce).strip("()-"),
                    matching_elements=matching,
                    satisfied=satisfied,
                )
            )
        return diagnosis

    def detach(self) -> None:
        """Stop listening to WM changes and empty the conflict set.

        Idempotent: detaching an already-detached strategy is a no-op.
        The conflict set is cleared without firing its listeners, so a
        detached strategy never reports stale instantiations.
        """
        try:
            self.wm.remove_listener(self)
        except ValueError:
            pass
        self.conflict_set.clear()

    def instantiations(self) -> list[Instantiation]:
        """Current conflict set contents."""
        return self.conflict_set.instantiations()

    def conflict_set_keys(self) -> set:
        """Hashable snapshot of the conflict set (for cross-strategy tests)."""
        return {inst.key for inst in self.conflict_set}

    def _analysis_list(self) -> list[RuleAnalysis]:
        return list(self.analyses.values())

    def _wm_cells(self) -> int:
        """Attribute cells stored in the WM relations themselves."""
        total = 0
        for class_name, schema in self.wm.schemas.items():
            total += len(self.wm.relation(class_name)) * schema.arity
        return total

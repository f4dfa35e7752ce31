"""The recognize-act interpreter: Match → Select → Act (§2.1, Figure 2).

:class:`ProductionSystem` is the library's main façade: it owns working
memory, a pluggable match strategy, a conflict-resolution strategy with
refraction, and the action executor, and it runs the OPS5 cycle:

    Match   — incremental, maintained by the strategy on every WM change;
    Select  — pick one unfired instantiation from the conflict set, halt
              when none remains;
    Act     — execute the RHS, whose WM changes re-enter Match.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.delta import INSERT, DeltaBatch
from repro.engine.actions import ActionExecutor, ActionOutcome, HostFunction
from repro.engine.conflict import ConflictSet, Instantiation, InstantiationKey
from repro.engine.resolution import Resolver, make_resolver
from repro.engine.wm import WorkingMemory
from repro.errors import ExecutionError
from repro.instrument import Counters
from repro.lang.analysis import RuleAnalysis, analyze_program
from repro.lang.ast import Program, Rule
from repro.lang.parser import parse_program
from repro.match import STRATEGIES, MatchStrategy
from repro.obs import Observability
from repro.obs.metrics import SIZE_BUCKETS
from repro.storage.schema import RelationSchema, Value
from repro.storage.tuples import StoredTuple


@dataclass
class FiredRule:
    """Trace record of one Act step."""

    cycle: int
    instantiation: Instantiation
    outcome: ActionOutcome


@dataclass(frozen=True)
class TraceEvent:
    """One event from the engine's OPS5-``watch``-style trace stream.

    ``kind`` is ``"insert"``, ``"remove"``, ``"fire"`` or ``"halt"``;
    ``detail`` carries the WM element or :class:`FiredRule`.
    """

    kind: str
    cycle: int
    detail: object

    def __str__(self) -> str:
        if self.kind == "insert":
            return f"=>WM: {self.detail}"
        if self.kind == "remove":
            return f"<=WM: {self.detail}"
        if self.kind == "fire":
            assert isinstance(self.detail, FiredRule)
            return f"FIRE {self.cycle}: {self.detail.instantiation}"
        if self.kind == "halt":
            if isinstance(self.detail, FiredRule):
                return (
                    f"HALT {self.cycle}: "
                    f"{self.detail.instantiation.rule_name}"
                )
            return f"HALT {self.cycle}"
        return f"{self.kind.upper()} {self.cycle}: {self.detail}"


class TraceEventSink:
    """One registered OPS5-``watch`` callback, as an observability sink.

    The classic :class:`TraceEvent` stream is a view over the engine's
    event bus: each ``add_trace`` callback becomes one of these sinks,
    which converts bus events of the four public kinds back into
    :class:`TraceEvent` objects.  Spans and other event kinds flowing
    through the same bus are ignored here.
    """

    KINDS = frozenset(("insert", "remove", "fire", "halt"))

    def __init__(self, callback) -> None:
        self.callback = callback

    def emit(self, record: dict) -> None:
        if record.get("type") != "event" or record.get("kind") not in self.KINDS:
            return
        self.callback(
            TraceEvent(
                kind=record["kind"],
                cycle=record.get("cycle", 0),
                detail=record.get("detail"),
            )
        )


class _WmTracer:
    """Forwards WM changes into the engine's trace stream."""

    def __init__(self, system: "ProductionSystem") -> None:
        self._system = system

    def on_insert(self, wme: StoredTuple) -> None:
        self._system._emit("insert", wme)

    def on_delete(self, wme: StoredTuple) -> None:
        self._system._emit("remove", wme)

    def on_delta(self, batch: DeltaBatch) -> None:
        """Unfold a delta batch into the classic per-element trace events."""
        for delta in batch:
            self._system._emit(
                "insert" if delta.op == INSERT else "remove", delta.wme
            )


@dataclass
class RunResult:
    """Summary of a :meth:`ProductionSystem.run` call."""

    cycles: int
    halted: bool
    exhausted: bool
    fired: list[FiredRule] = field(default_factory=list)

    @property
    def fired_rule_names(self) -> list[str]:
        return [f.instantiation.rule_name for f in self.fired]


def dead_refraction_keys(wm: WorkingMemory, keys) -> list[InstantiationKey]:
    """The refraction *keys* that name a WM element no longer stored.

    Tids are never reissued, so such a key can never be in the conflict
    set again and dropping it changes no :meth:`ProductionSystem.eligible`
    answer.  One liveness probe per relation the keys name.  Inside a
    batch scope a staged delete still reads as live, so the answer errs
    on the side of keeping a key.
    """
    named: dict[str, set[int]] = {}
    for _rule, slots in keys:
        for slot in slots:
            if slot is not None:
                named.setdefault(slot[0], set()).add(slot[1])
    live = {
        name: wm.relation(name).live_tids(tids)
        for name, tids in named.items()
    }
    return [
        key
        for key in keys
        if any(
            slot is not None and slot[1] not in live[slot[0]]
            for slot in key[1]
        )
    ]


class ProductionSystem:
    """An OPS5-style production system over a relational working memory.

    Every cycle fires exactly one instantiation, the one the resolver
    selects (OPS5's Act granularity).  Firing many instantiations at once
    is the §5 transaction scheduler's job
    (:class:`~repro.txn.scheduler.ConcurrentScheduler`), whose 2PL
    schedules are serializable and so equal to this serial loop.

    The Act phase is tuple-at-a-time: every RHS ``make``/``remove``/
    ``modify`` propagates to the match network as it happens, bit-for-bit
    OPS5.  Set-at-a-time maintenance (§4.2.3) is the caller's choice: ops
    applied inside ``wm.batch()`` reach the strategies as one
    :class:`~repro.delta.DeltaBatch`, and each §5 commit point is one.
    """

    def __init__(
        self,
        source: str | Program | None = None,
        rules: list[Rule] | None = None,
        schemas: dict[str, RelationSchema] | None = None,
        strategy: str | type[MatchStrategy] = "patterns",
        resolution: str | Resolver = "lex",
        backend: str = "memory",
        seed: int = 0,
        counters: Counters | None = None,
        path: str | None = None,
        obs: Observability | None = None,
        lineage: bool = False,
        analyses: dict[str, RuleAnalysis] | None = None,
    ) -> None:
        program = self._resolve_program(source, rules, schemas)
        self.program = program
        #: Rule analyses are pure functions of the program text, so
        #: callers hosting many systems over one program (a rule pack in
        #: ``repro.serve``) may pass a shared dict and skip re-analysis.
        self.analyses: dict[str, RuleAnalysis] = (
            analyses
            if analyses is not None
            else analyze_program(program.rules, program.schemas)
        )
        self.counters = counters or Counters()
        self.obs = obs or Observability()
        self.wm = WorkingMemory(
            program.schemas,
            backend=backend,
            counters=self.counters,
            path=path,
            obs=self.obs,
        )
        strategy_cls = (
            STRATEGIES[strategy] if isinstance(strategy, str) else strategy
        )
        self.strategy: MatchStrategy = strategy_cls(
            self.wm, self.analyses, counters=self.counters
        )
        self.resolver: Resolver = (
            make_resolver(resolution, seed)
            if isinstance(resolution, str)
            else resolution
        )
        self.executor = ActionExecutor(self.wm)
        self.output: list[tuple[Value, ...]] = []
        self._fired_keys: set[InstantiationKey] = set()
        self._trace_sinks: list[TraceEventSink] = []
        self._current_cycle = 0
        # Provenance capture (repro.obs.xray) is strictly opt-in: with
        # lineage=False no listener is registered and the match/act hot
        # paths see a single None check per firing.  The recorder must
        # attach before the initial elements load so setup-time
        # instantiations carry lineage too.
        self.lineage_recorder = None
        if lineage:
            from repro.obs.xray import LineageRecorder

            self.lineage_recorder = LineageRecorder(self)
        # WM changes always feed the event bus; _emit bails out in one
        # check when no sink is attached, so the idle cost is negligible.
        self._wm_tracer = _WmTracer(self)
        self.wm.add_listener(self._wm_tracer)
        for class_name, values in program.initial_elements:
            self.insert(class_name, values)

    @staticmethod
    def _resolve_program(
        source: str | Program | None,
        rules: list[Rule] | None,
        schemas: dict[str, RelationSchema] | None,
    ) -> Program:
        if isinstance(source, str):
            return parse_program(source)
        if isinstance(source, Program):
            return source
        if rules is not None and schemas is not None:
            return Program(schemas=dict(schemas), rules=list(rules))
        raise ExecutionError(
            "ProductionSystem needs OPS5 source text, a Program, or "
            "rules + schemas"
        )

    # -- working-memory access ------------------------------------------------

    @property
    def conflict_set(self) -> ConflictSet:
        return self.strategy.conflict_set

    def insert(
        self, class_name: str, values: tuple[Value, ...] | dict[str, Value]
    ) -> StoredTuple:
        """Insert a WM element (user-level ``make``)."""
        if isinstance(values, dict):
            schema = self.wm.schema(class_name)
            values = schema.row_from_mapping(values)
        return self.wm.insert(class_name, values)

    def remove(self, wme: StoredTuple) -> StoredTuple:
        """Remove a WM element (user-level ``remove``)."""
        return self.wm.remove(wme)

    def modify(self, wme: StoredTuple, changes: dict[str, Value]) -> StoredTuple:
        """Modify a WM element (delete + insert, §3.1)."""
        return self.wm.modify(wme, changes)

    def register_function(self, name: str, function: HostFunction) -> None:
        """Expose a host function to ``(call ...)`` actions."""
        self.executor.register(name, function)

    def explain(self, rule_name: str):
        """Diagnose why *rule_name* is (not) satisfied; see
        :meth:`repro.match.base.MatchStrategy.explain`."""
        return self.strategy.explain(rule_name)

    # -- the recognize-act cycle ---------------------------------------------------

    @property
    def refraction_keys(self) -> set[InstantiationKey]:
        """Keys of the instantiations refraction has consumed (the live
        set itself: read it, change it only through this class)."""
        return self._fired_keys

    def eligible(self) -> list[Instantiation]:
        """Conflict-set entries that refraction has not yet consumed."""
        return [
            instantiation
            for instantiation in self.conflict_set
            if instantiation.key not in self._fired_keys
        ]

    # -- tracing (OPS5 "watch") -------------------------------------------------

    @property
    def _tracers(self) -> list:
        """The registered trace callbacks (compatibility view)."""
        return [sink.callback for sink in self._trace_sinks]

    def add_trace(self, callback) -> None:
        """Register a callback receiving :class:`TraceEvent` objects.

        The callback is attached to the observability event bus as a
        :class:`TraceEventSink`, so WM inserts/removes (including those
        performed by RHS actions), firings and halts appear in the stream
        exactly as under the pre-obs API.
        """
        sink = TraceEventSink(callback)
        self._trace_sinks.append(sink)
        self.obs.add_sink(sink)

    def remove_trace(self, callback) -> None:
        """Unregister a trace callback."""
        for sink in self._trace_sinks:
            if sink.callback == callback:
                self._trace_sinks.remove(sink)
                self.obs.remove_sink(sink)
                return
        raise ValueError(f"{callback!r} is not a registered trace callback")

    def _emit(self, kind: str, detail: object) -> None:
        obs = self.obs
        if not obs.sinks:
            return
        obs.event(kind, cycle=self._current_cycle, detail=detail)

    def restore_run_state(self, fired_keys, output) -> None:
        """Reinstate run state captured in WAL boundary records.

        *fired_keys* become the refraction set and *output* rows (JSON
        lists or tuples) the program output, replacing what was there.
        """
        self._fired_keys = set(fired_keys)
        self.output[:] = [tuple(row) for row in output]

    def prune_refraction(self) -> int:
        """Drop every refraction key naming a removed WM element.

        The refraction set is then bounded by the keys whose elements
        are all live (see :func:`dead_refraction_keys`).  Durable runs
        call this at each checkpoint cut.  Returns how many were dropped.
        """
        dead = dead_refraction_keys(self.wm, self._fired_keys)
        self._fired_keys.difference_update(dead)
        return len(dead)

    def mark_fired(self, instantiation: Instantiation) -> None:
        """Record *instantiation* as fired (refraction), e.g. by an
        external transaction scheduler."""
        self._fired_keys.add(instantiation.key)

    def step(self, cycle: int = 0) -> FiredRule | None:
        """One Select + Act step; returns None when nothing is eligible."""
        obs = self.obs
        observing = obs.enabled
        started = time.perf_counter() if observing else 0.0
        with obs.span("select", cycle=cycle) as span:
            candidates = self.eligible()
            if not candidates:
                span.set("rule", "(none)")
                return None
            chosen = self.resolver(candidates)
            span.set("rule", chosen.rule_name)
            span.set("conflict_set", len(candidates))
        self._current_cycle = cycle
        tracing = obs.tracer.enabled
        with obs.span("act", cycle=cycle, rule=chosen.rule_name) as act_span:
            if tracing:
                obs.tracer.set_context(rule=chosen.rule_name)
            try:
                self._fired_keys.add(chosen.key)
                outcome = self.executor.execute(
                    self.analyses[chosen.rule_name], chosen
                )
                self.output.extend(outcome.written)
                record = FiredRule(
                    cycle=cycle, instantiation=chosen, outcome=outcome
                )
                self._emit("fire", record)
                if self.lineage_recorder is not None:
                    self.lineage_recorder.note_fired(chosen.key, cycle)
                if outcome.halted:
                    self._emit("halt", record)
            finally:
                if tracing:
                    obs.tracer.clear_context("rule")
            act_span.set("fires", 1)
        if observing:
            dur_us = (time.perf_counter() - started) * 1e6
            metrics = obs.metrics
            metrics.counter("engine.cycles").inc()
            metrics.counter("engine.fires").inc()
            metrics.histogram("engine.conflict_set_size", SIZE_BUCKETS).observe(
                len(candidates)
            )
            metrics.log2_histogram("engine.cycle_us").observe(dur_us)
            if obs.sinks:
                # One structured event per cycle: the stream `repro top`
                # tails.  TraceEventSink filters it out of the classic
                # OPS5-watch view.
                wal = self.wm.wal
                obs.event(
                    "cycle",
                    cycle=cycle,
                    dur_us=dur_us,
                    rule=chosen.rule_name,
                    conflict_set=len(candidates),
                    fires=1,
                    wal_seq=getattr(wal, "last_seq", None),
                    wal_pending=getattr(wal, "pending_records", None),
                )
        return record

    def snapshot_metrics(self) -> dict:
        """Fold final state into the metrics registry; return the snapshot.

        Absorbs the analytic operation counters (``ops.*`` gauges) and
        records the closing gauges the paper reasons about: WM size,
        conflict-set size and the strategy's auxiliary-storage footprint
        (pattern-table cardinality, stored tokens, estimated cells).
        """
        metrics = self.obs.metrics
        metrics.absorb_counters(self.counters)
        metrics.gauge("engine.wm_size").set(self.wm.size())
        metrics.gauge("engine.conflict_set").set(len(self.conflict_set))
        space = self.strategy.space_report()
        metrics.gauge("match.stored_patterns").set(space.stored_patterns)
        metrics.gauge("match.stored_tokens").set(space.stored_tokens)
        metrics.gauge("match.marker_entries").set(space.marker_entries)
        metrics.gauge("match.aux_cells").set(space.estimated_cells)
        return metrics.snapshot()

    def run(self, max_cycles: int = 10_000) -> RunResult:
        """Run the cycle until halt, exhaustion, or *max_cycles*."""
        fired: list[FiredRule] = []
        for cycle in range(1, max_cycles + 1):
            record = self.step(cycle)
            if record is None:
                return RunResult(
                    cycles=cycle - 1, halted=False, exhausted=False, fired=fired
                )
            fired.append(record)
            if record.outcome.halted:
                return RunResult(
                    cycles=cycle, halted=True, exhausted=False, fired=fired
                )
        return RunResult(
            cycles=max_cycles, halted=False, exhausted=True, fired=fired
        )

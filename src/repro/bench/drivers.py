"""Benchmark drivers: build a system, drive a WM stream, collect metrics."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.check.reference import interpreted
from repro.engine.wm import WorkingMemory
from repro.instrument import Counters, SpaceReport
from repro.lang.analysis import RuleAnalysis, analyze_program
from repro.lang.ast import Program
from repro.lang.parser import parse_program
from repro.match import STRATEGIES, MatchStrategy
from repro.obs import Observability
from repro.storage.schema import Value
from repro.storage.tuples import StoredTuple

#: Event stream element: ("insert", (class, values)) or ("delete", index).
Event = tuple[str, object]


@dataclass
class StrategyRun:
    """Metrics of one strategy over one stream."""

    strategy: str
    events: int = 0
    wall_seconds: float = 0.0
    counters: dict[str, int] = field(default_factory=dict)
    space: SpaceReport | None = None
    conflict_additions: int = 0
    conflict_size: int = 0
    metrics: dict | None = None

    def row(self, *counter_names: str) -> dict:
        """A table row with selected counters."""
        row: dict = {
            "strategy": self.strategy,
            "events": self.events,
            "ms": self.wall_seconds * 1000.0,
            "us/event": (
                self.wall_seconds * 1e6 / self.events if self.events else 0.0
            ),
        }
        for name in counter_names:
            row[name] = self.counters.get(name, 0)
        return row


def resolve_program(source: str | Program) -> tuple[Program, dict[str, RuleAnalysis]]:
    """Parse (if needed) and analyze a program."""
    program = parse_program(source) if isinstance(source, str) else source
    return program, analyze_program(program.rules, program.schemas)


def build_system(
    source: str | Program,
    strategy_name: str,
    backend: str = "memory",
    obs: Observability | None = None,
    reference: bool = True,
) -> tuple[WorkingMemory, MatchStrategy]:
    """A fresh WM plus one attached strategy with its own counters.

    With *reference* (the default) the strategy runs the interpreted scan
    of :mod:`repro.check.reference`, whose operation counts are the ones
    the paper's tables report; ``reference=False`` runs the production
    (compiled) match path.
    """
    program, analyses = resolve_program(source)
    wm = WorkingMemory(program.schemas, backend=backend, obs=obs)
    strategy_cls = STRATEGIES[strategy_name]
    if reference:
        strategy_cls = interpreted(strategy_cls)
    strategy = strategy_cls(wm, analyses, counters=Counters())
    return wm, strategy


def drive_stream(
    wm: WorkingMemory,
    events: list[Event],
    batch_size: int = 1,
) -> tuple[int, list[StoredTuple]]:
    """Apply an event stream; returns (#events, live tuples).

    With ``batch_size`` > 1, events are applied set-at-a-time through
    :meth:`WorkingMemory.apply_batch` in groups of up to *batch_size*
    operations, exercising the batched storage and match paths.  The
    delete indexing is computed over the same ``live`` sequence as the
    tuple-at-a-time path, so both paths realize the identical logical
    stream.
    """
    live: list[StoredTuple | None] = []
    if batch_size <= 1:
        for kind, payload in events:
            if kind == "insert":
                class_name, values = payload  # type: ignore[misc]
                live.append(wm.insert(class_name, values))
            elif kind == "delete":
                index = payload  # type: ignore[assignment]
                wm.remove(live.pop(index % len(live)))
            else:
                raise ValueError(f"unknown event kind {kind!r}")
        return len(events), live

    pending: list[tuple] = []
    pending_slots: list[int] = []  # live[] indexes awaiting their tuple

    def flush() -> None:
        if not pending:
            return
        batch = wm.apply_batch(pending)
        for slot, delta in zip(pending_slots, batch.inserts):
            live[slot] = delta.wme
        pending.clear()
        pending_slots.clear()

    for kind, payload in events:
        if kind == "insert":
            class_name, values = payload  # type: ignore[misc]
            pending.append(("insert", class_name, values))
            live.append(None)
            pending_slots.append(len(live) - 1)
        elif kind == "delete":
            index = payload % len(live)  # type: ignore[operator]
            if live[index] is None:
                # Deleting an element of the open batch: apply it first so
                # the delete references a stored tuple.
                flush()
            wme = live.pop(index)
            pending.append(("delete", wme))
            pending_slots[:] = [
                slot - 1 if slot > index else slot for slot in pending_slots
            ]
        else:
            raise ValueError(f"unknown event kind {kind!r}")
        if len(pending) >= batch_size:
            flush()
    flush()
    return len(events), live


def inserts_as_events(
    stream: list[tuple[str, tuple[Value, ...]]]
) -> list[Event]:
    """Wrap a plain insert stream as events."""
    return [("insert", item) for item in stream]


def run_stream(
    source: str | Program,
    events: list[Event],
    strategy_name: str,
    backend: str = "memory",
    obs: Observability | None = None,
    batch_size: int = 1,
    reference: bool = True,
) -> StrategyRun:
    """Drive *events* through one strategy, measuring time and counters.

    With an enabled *obs*, the run's final metrics snapshot (including the
    absorbed operation counters) is attached as ``StrategyRun.metrics``.
    """
    wm, strategy = build_system(
        source, strategy_name, backend=backend, obs=obs, reference=reference
    )
    start = time.perf_counter()
    count, _live = drive_stream(wm, events, batch_size=batch_size)
    elapsed = time.perf_counter() - start
    metrics_snapshot = None
    if obs is not None and obs.enabled:
        obs.metrics.absorb_counters(strategy.counters)
        metrics_snapshot = obs.metrics.snapshot()
    return StrategyRun(
        strategy=strategy.strategy_name,
        events=count,
        wall_seconds=elapsed,
        counters=strategy.counters.as_dict(),
        space=strategy.space_report(),
        conflict_additions=strategy.conflict_set.additions,
        conflict_size=len(strategy.conflict_set),
        metrics=metrics_snapshot,
    )


def compare_strategies(
    source: str | Program,
    events: list[Event],
    strategy_names: list[str] | None = None,
) -> list[StrategyRun]:
    """Run the same stream over several strategies."""
    names = strategy_names or sorted(STRATEGIES)
    return [run_stream(source, events, name) for name in names]

"""Rule firings as transactions (§5.1–5.2).

"Each production in the conflict set ... can be treated as a transaction
that is to be executed."  A :class:`RuleTransaction` plans its locks from
the instantiation and the rule's RHS:

* tuple S locks on every matched WM element (the retrieved tuples);
* relation S locks for every negated condition's class (negative
  dependency — blocks phantom inserts, §5.2);
* tuple X locks (upgrades) on elements the RHS removes or modifies;
* relation IX locks on classes the RHS inserts into.

The transaction acquires locks one per step (strict 2PL growing phase),
then executes validate + act + maintenance + commit as one atomic step.
The commit point deliberately follows the maintenance process: "a
production should not commit its RHS actions ... and release its locks ...
until the triggered maintenance process updates the affected COND
relations as well" — in this implementation the match strategies *are* the
maintenance process and run synchronously inside the WM mutation, so by
construction no lock is released before maintenance completes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.engine.actions import ActionOutcome
from repro.engine.conflict import Instantiation
from repro.engine.interpreter import ProductionSystem
from repro.lang.analysis import RuleAnalysis
from repro.lang.ast import MakeAction, ModifyAction, RemoveAction
from repro.txn.locks import (
    LockManager,
    LockRequest,
    relation_target,
    tuple_target,
)
from repro.txn.serializability import History

#: Transaction states.
READY = "ready"
BLOCKED = "blocked"
COMMITTED = "committed"
SKIPPED = "skipped"  # matching pattern deleted before execution (Δdel)
ABORTED = "aborted"  # deadlock victim awaiting retry


def plan_locks(
    analysis: RuleAnalysis, instantiation: Instantiation
) -> list[LockRequest]:
    """Derive the ordered lock requests for one instantiation."""
    requests: list[LockRequest] = []
    seen: set[tuple] = set()

    def add(target: tuple, mode: str) -> None:
        key = (target, mode)
        if key not in seen:
            seen.add(key)
            requests.append(LockRequest(target, mode))

    for wme in instantiation.wmes:
        if wme is not None:
            add(tuple_target(wme.relation, wme.tid), "S")
    for condition in analysis.negated_conditions():
        add(relation_target(condition.class_name), "S")
    for action in analysis.rule.actions:
        if isinstance(action, (RemoveAction, ModifyAction)):
            wme = instantiation.wmes[action.ce_index - 1]
            if wme is not None:
                add(tuple_target(wme.relation, wme.tid), "X")
        if isinstance(action, ModifyAction):
            wme = instantiation.wmes[action.ce_index - 1]
            if wme is not None:
                add(relation_target(wme.relation), "IX")
        if isinstance(action, MakeAction):
            add(relation_target(action.class_name), "IX")
    return requests


@dataclass
class RuleTransaction:
    """One conflict-set entry executing under 2PL.

    The firing's RHS effects are grouped into one
    :class:`~repro.delta.DeltaBatch` per commit point, so the maintenance
    process consumes them set-at-a-time — once, just before the locks
    are released.
    """

    txn_id: int
    instantiation: Instantiation
    analysis: RuleAnalysis
    requests: list[LockRequest] = field(default_factory=list)
    pc: int = 0
    state: str = READY
    steps_taken: int = 0
    blocked_ticks: int = 0
    retries_left: int = 3
    outcome: ActionOutcome | None = None
    #: WM deltas this transaction's commit point delivered.
    commit_deltas: int = 0

    @classmethod
    def build(
        cls,
        txn_id: int,
        instantiation: Instantiation,
        analysis: RuleAnalysis,
        retries: int = 3,
    ) -> "RuleTransaction":
        """Construct with planned locks."""
        return cls(
            txn_id=txn_id,
            instantiation=instantiation,
            analysis=analysis,
            requests=plan_locks(analysis, instantiation),
            retries_left=retries,
        )

    @property
    def finished(self) -> bool:
        return self.state in (COMMITTED, SKIPPED)

    def step(
        self,
        system: ProductionSystem,
        locks: LockManager,
        history: History,
    ) -> bool:
        """Advance one step: one lock acquisition, or the terminal
        validate + act + maintain + commit step.  Returns True on progress.
        """
        if self.finished:
            return False
        if self.pc < len(self.requests):
            request = self.requests[self.pc]
            if locks.try_acquire(self.txn_id, request.target, request.mode):
                self.pc += 1
                self.state = READY
                self.steps_taken += 1
                return True
            self.state = BLOCKED
            self.blocked_ticks += 1
            system.counters.lock_waits += 1
            obs = system.obs
            if obs.enabled:
                obs.metrics.counter("txn.lock_waits").inc()
                obs.event(
                    "lock_wait",
                    txn=self.txn_id,
                    rule=self.instantiation.rule_name,
                    target=list(request.target),
                    mode=request.mode,
                )
            return False
        obs = system.obs
        if obs.enabled:
            started = time.perf_counter()
            if obs.tracer.enabled:
                with obs.span(
                    "txn.commit",
                    txn=self.txn_id,
                    rule=self.instantiation.rule_name,
                ) as span:
                    self._execute(system, locks, history)
                    span.set("state", self.state)
                    span.set("deltas", self.commit_deltas)
            else:
                self._execute(system, locks, history)
            obs.metrics.log2_histogram("txn.commit_us").observe(
                (time.perf_counter() - started) * 1e6
            )
        else:
            self._execute(system, locks, history)
        self.steps_taken += 1
        return True

    def _execute(
        self,
        system: ProductionSystem,
        locks: LockManager,
        history: History,
    ) -> None:
        # Δdel check (§5.2): the conflict set is maintained synchronously,
        # so membership doubles as the NOT-EXISTS revalidation for negative
        # dependencies.
        if self.instantiation not in system.conflict_set:
            self.state = SKIPPED
            locks.release_all(self.txn_id)
            return
        for request in self.requests:
            kind = "w" if request.mode in ("X", "IX") else "r"
            history.record(self.txn_id, kind, request.target)
        system.mark_fired(self.instantiation)
        # One firing's WM changes are one delta batch per commit point:
        # the maintenance process consumes the RHS effects set-at-a-time,
        # and it still completes before the commit point below, preserving
        # the paper's "no lock released before maintenance" discipline.
        before = system.wm.pending_deltas()
        with system.wm.batch():
            self.outcome = system.executor.execute(
                self.analysis, self.instantiation
            )
            self.commit_deltas = system.wm.pending_deltas() - before
        system.output.extend(self.outcome.written)
        for row in self.outcome.inserted:
            history.record(self.txn_id, "w", tuple_target(row.relation, row.tid))
            history.record(self.txn_id, "w", relation_target(row.relation))
        for row in self.outcome.removed:
            history.record(self.txn_id, "w", tuple_target(row.relation, row.tid))
            history.record(self.txn_id, "w", relation_target(row.relation))
        # Commit point: maintenance already ran inside the WM mutations.
        history.committed(self.txn_id)
        locks.release_all(self.txn_id)
        self.state = COMMITTED
        obs = system.obs
        if obs.enabled:
            obs.metrics.counter("txn.commit_deltas").inc(self.commit_deltas)

    def abort(self, locks: LockManager, consume_retry: bool = True) -> None:
        """Abort: release locks, rewind for retry.

        Deadlock-*detection* victims consume a retry (a repeatedly-chosen
        victim eventually gives up); wound-wait/wait-die restarts keep
        their retries — the timestamp order guarantees progress, so the
        restart always eventually succeeds.
        """
        locks.release_all(self.txn_id)
        self.pc = 0
        if consume_retry:
            self.retries_left -= 1
        self.state = ABORTED if self.retries_left > 0 else SKIPPED

"""Concurrent execution of the conflict set (§5.2).

The scheduler realizes the paper's model: "Given an initial set Ψ1 of
transactions, each of which corresponds to an already satisfied production
in the conflict set", it interleaves their execution under 2PL and compares
with OPS5's serial strategy.

Time is *virtual*: in each tick every unfinished transaction attempts one
step (a lock acquisition, or the terminal validate/act/commit step), so the
tick count is the makespan of a synchronous parallel execution, while the
summed step count is the serial cost.  This makes §5.2's measures directly
observable:

* ``makespan_ticks`` — "the number of operations that must execute in a
  non-interleaved fashion";
* ``critical_path_bound`` — "proportional to the maximum number of updates
  to any WM relation"; and
* the history's count of equivalent serial orders (via
  :mod:`repro.txn.serializability`).

Deadlocks (mutual Δdel, §5.2) are detected on the waits-for graph and
resolved by aborting the youngest participant, which retries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.interpreter import ProductionSystem
from repro.obs.metrics import SIZE_BUCKETS
from repro.txn.locks import LockManager
from repro.txn.serializability import History
from repro.txn.transactions import COMMITTED, SKIPPED, RuleTransaction


@dataclass
class RoundStats:
    """Outcome of executing one conflict-set snapshot Ψi."""

    transactions: int = 0
    committed: int = 0
    skipped: int = 0
    deadlock_aborts: int = 0
    makespan_ticks: int = 0
    serial_steps: int = 0
    updates_by_relation: dict[str, int] = field(default_factory=dict)
    #: Instantiation keys in the order their transactions committed —
    #: the fired sequence the differential-fuzz oracle compares across
    #: worker counts.
    committed_seq: list = field(default_factory=list)

    @property
    def critical_path_bound(self) -> int:
        """§5.2's best case: max updates against any single relation."""
        if not self.updates_by_relation:
            return 0
        return max(self.updates_by_relation.values())

    @property
    def total_updates(self) -> int:
        return sum(self.updates_by_relation.values())

    @property
    def speedup(self) -> float:
        """Serial work over parallel makespan (>= 1 when concurrency paid)."""
        if self.makespan_ticks == 0:
            return 1.0
        return self.serial_steps / self.makespan_ticks


@dataclass
class ConcurrentRunResult:
    """Aggregate of a multi-round concurrent run."""

    rounds: list[RoundStats] = field(default_factory=list)
    history: History = field(default_factory=History)

    @property
    def committed(self) -> int:
        return sum(r.committed for r in self.rounds)

    @property
    def makespan_ticks(self) -> int:
        return sum(r.makespan_ticks for r in self.rounds)

    @property
    def serial_steps(self) -> int:
        return sum(r.serial_steps for r in self.rounds)


#: Deadlock-handling policies: detection with victim abort (the default),
#: or the classic timestamp-ordering preventions.  Transaction ids double
#: as timestamps (smaller = older).
POLICIES = ("detect", "wound-wait", "wait-die")


class ConcurrentScheduler:
    """Executes conflict-set snapshots as interleaved 2PL transactions.

    ``policy`` selects deadlock handling:

    * ``"detect"`` — let waits-for cycles form, abort the youngest member
      (§5.2's "this could lead to a deadlock" case, resolved after the
      fact);
    * ``"wound-wait"`` — an older blocked transaction *wounds* (aborts)
      younger lock holders; younger ones wait.  Deadlock-free.
    * ``"wait-die"`` — an older blocked transaction waits; a younger one
      *dies* (aborts itself) when blocked by an older holder.
      Deadlock-free.
    """

    def __init__(
        self,
        system: ProductionSystem,
        retries: int = 3,
        policy: str = "detect",
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(
                f"unknown deadlock policy {policy!r}; choose from {POLICIES}"
            )
        self.system = system
        self.retries = retries
        self.policy = policy
        self.history = History()
        self._next_txn_id = 0

    def _hit(self, site: str) -> None:
        """Cross a named crash site mid-round (``repro check --crash``).

        The :class:`~repro.recovery.crashpoints.Crashpoints` registry
        rides on the attached WAL writer, so an un-instrumented run pays
        one attribute lookup per crossing and a WAL-less run none of the
        sites at all — matching the durability path they fault.
        """
        wal = self.system.wm.wal
        crashpoints = getattr(wal, "crashpoints", None)
        if crashpoints is not None:
            crashpoints.hit(site)

    def _build_transactions(self) -> list[RuleTransaction]:
        eligible = sorted(self.system.eligible(), key=lambda i: i.key)
        analyses = self.system.analyses
        transactions = []
        for instantiation in eligible:
            self._next_txn_id += 1
            transactions.append(
                RuleTransaction.build(
                    self._next_txn_id,
                    instantiation,
                    analyses[instantiation.rule_name],
                    retries=self.retries,
                )
            )
        return transactions

    def run_round(self) -> RoundStats:
        """Execute one snapshot Ψ of the conflict set to completion."""
        transactions = self._build_transactions()
        stats = RoundStats(transactions=len(transactions))
        if not transactions:
            return stats
        # Between lock planning and execution: the plans exist only in
        # memory, so a crash here loses the whole round.
        self._hit("txn.post_plan")
        obs = self.system.obs
        commit_mark = len(self.history.commit_order)
        with obs.span(
            "txn.round", policy=self.policy, transactions=len(transactions)
        ) as round_span:
            self._drain(transactions, stats)
            by_id = {t.txn_id: t for t in transactions}
            stats.committed_seq = [
                by_id[txn_id].instantiation.key
                for txn_id in self.history.commit_order[commit_mark:]
                if txn_id in by_id
            ]
            # Group-commit barrier (§5 + PR 5's WAL): the round's commit
            # points stream into the WAL as the transactions execute;
            # one sync per round makes the whole snapshot durable at a
            # single barrier instead of per-firing.
            wal = self.system.wm.wal
            if wal is not None:
                # Between the last per-txn commit and the barrier: batch
                # records buffered since the previous sync die with the
                # process, rolling the whole round back to its boundary.
                self._hit("txn.pre_group_sync")
                wal.sync()
                round_span.set("group_commit_seq", wal.last_seq)
                if obs.enabled:
                    obs.metrics.counter("txn.group_commits").inc()
            round_span.set("committed", stats.committed)
            round_span.set("makespan_ticks", stats.makespan_ticks)
        if obs.enabled:
            metrics = obs.metrics
            metrics.counter("txn.rounds").inc()
            metrics.counter("txn.commits").inc(stats.committed)
            metrics.counter("txn.deadlock_aborts").inc(stats.deadlock_aborts)
            metrics.histogram(
                "txn.makespan_ticks", buckets=SIZE_BUCKETS
            ).observe(stats.makespan_ticks)
            wait_hist = metrics.histogram(
                "txn.lock_wait_ticks", buckets=SIZE_BUCKETS
            )
            for transaction in transactions:
                wait_hist.observe(transaction.blocked_ticks)
        return stats

    def _drain(
        self, transactions: list[RuleTransaction], stats: RoundStats
    ) -> None:
        """Tick the transactions of one snapshot until all finish."""
        locks = LockManager()
        while any(not t.finished for t in transactions):
            progressed = False
            for transaction in transactions:
                if transaction.finished:
                    continue
                was_committed = transaction.state == COMMITTED
                if transaction.step(self.system, locks, self.history):
                    progressed = True
                if transaction.state == COMMITTED and not was_committed:
                    # Between this transaction's commit and the round's
                    # group sync (a killed-mid-round window).
                    self._hit("txn.post_commit")
            stats.makespan_ticks += 1
            if self.policy == "detect":
                cycle = locks.deadlocked()
                if cycle is not None:
                    victim_id = max(cycle)
                    victim = next(
                        t for t in transactions if t.txn_id == victim_id
                    )
                    victim.abort(locks)
                    stats.deadlock_aborts += 1
                    self.system.counters.aborts += 1
                    progressed = True
            else:
                aborted = self._apply_prevention(transactions, locks)
                if aborted:
                    stats.deadlock_aborts += aborted
                    self.system.counters.aborts += aborted
                    progressed = True
            if not progressed:
                # Blocked with no cycle cannot happen under this lock
                # manager; guard against infinite loops regardless.
                stalled = [t for t in transactions if not t.finished]
                stalled[0].abort(locks)
                stats.deadlock_aborts += 1
        for transaction in transactions:
            stats.serial_steps += transaction.steps_taken
            if transaction.state == COMMITTED:
                stats.committed += 1
                assert transaction.outcome is not None
                for row in transaction.outcome.inserted:
                    stats.updates_by_relation[row.relation] = (
                        stats.updates_by_relation.get(row.relation, 0) + 1
                    )
                for row in transaction.outcome.removed:
                    stats.updates_by_relation[row.relation] = (
                        stats.updates_by_relation.get(row.relation, 0) + 1
                    )
            elif transaction.state == SKIPPED:
                stats.skipped += 1

    def _apply_prevention(
        self, transactions: list[RuleTransaction], locks: LockManager
    ) -> int:
        """Wound-wait / wait-die over the current waits-for edges."""
        by_id = {t.txn_id: t for t in transactions}
        aborted = 0
        for waiter_id, blockers in list(locks.waits_for.items()):
            waiter = by_id.get(waiter_id)
            if waiter is None or waiter.finished:
                continue
            if self.policy == "wound-wait":
                # The older waiter wounds every younger holder in its way.
                for blocker_id in sorted(blockers):
                    blocker = by_id.get(blocker_id)
                    if (
                        blocker is not None
                        and not blocker.finished
                        and blocker_id > waiter_id
                    ):
                        blocker.abort(locks, consume_retry=False)
                        aborted += 1
            else:  # wait-die
                # A younger waiter blocked by an older holder dies.
                if any(blocker_id < waiter_id for blocker_id in blockers):
                    waiter.abort(locks, consume_retry=False)
                    aborted += 1
        return aborted

    def run(self, max_rounds: int = 100) -> ConcurrentRunResult:
        """Drain the conflict set: Ψ1, then Ψ2 = Δadds, ... until empty."""
        result = ConcurrentRunResult(history=self.history)
        for _ in range(max_rounds):
            stats = self.run_round()
            if stats.transactions == 0:
                break
            result.rounds.append(stats)
        return result

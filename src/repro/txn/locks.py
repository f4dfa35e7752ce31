"""Lock manager for concurrent rule execution (§5.2 of the paper).

Granularities and modes follow the paper's needs exactly:

* tuple-level **S** — "a read lock must be placed on those WM relation
  tuples that are retrieved";
* tuple-level **X** — deletes/updates of tuples "whose existence is tested
  on the LHS";
* relation-level **S** — "a transaction that is negatively dependent on
  R will have to obtain a read lock on the entire R relation" (blocks
  phantom inserts);
* relation-level **IX** — the insert intent: compatible with other inserts,
  conflicting with a relation-level S.

Cross-granularity rules: a relation S lock conflicts with tuple X locks and
IX locks in that relation (and vice versa); tuple locks of different tuples
never conflict.  Lock upgrades (S→X on the same tuple by the same holder)
succeed when no other transaction shares the S lock.

The waits-for graph lives here too; :meth:`LockManager.deadlocked` reports a
cycle ("this could lead to a deadlock of the two transactions", §5.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TransactionError

#: Lock target: ("rel", relation) or ("tuple", relation, tid).
Target = tuple

#: Modes: "S" / "X" on tuples; "S" / "IX" on relations.
_SAME_TARGET_CONFLICTS = {
    ("S", "S"): False,
    ("S", "X"): True,
    ("X", "S"): True,
    ("X", "X"): True,
    ("S", "IX"): True,
    ("IX", "S"): True,
    ("IX", "IX"): False,
    ("IX", "X"): True,
    ("X", "IX"): True,
}


def tuple_target(relation: str, tid: int) -> Target:
    """Lock target for one stored tuple."""
    return ("tuple", relation, tid)


def relation_target(relation: str) -> Target:
    """Lock target for a whole relation."""
    return ("rel", relation)


@dataclass(frozen=True)
class LockRequest:
    """A lock a transaction plans to take."""

    target: Target
    mode: str


class LockManager:
    """Grant/queue/release locks; maintain the waits-for graph."""

    def __init__(self) -> None:
        # target -> {txn_id: mode}
        self._holders: dict[Target, dict[int, str]] = {}
        # relation -> {txn_id} holding tuple-X locks inside it
        self._tuple_x: dict[str, set[int]] = {}
        # relation -> {txn_id} holding relation-S locks
        self._rel_s: dict[str, set[int]] = {}
        # relation -> {txn_id} holding relation-IX locks
        self._rel_ix: dict[str, set[int]] = {}
        # txn -> targets held (for release_all)
        self._held: dict[int, set[Target]] = {}
        # waits-for edges: blocked txn -> {holders it waits on}
        self.waits_for: dict[int, set[int]] = {}

    # -- queries ---------------------------------------------------------------

    def held_by(self, txn_id: int) -> set[Target]:
        """All targets *txn_id* currently holds."""
        return set(self._held.get(txn_id, set()))

    def mode_of(self, txn_id: int, target: Target) -> str | None:
        """The mode *txn_id* holds on *target*, or None."""
        return self._holders.get(target, {}).get(txn_id)

    def _conflicting_holders(
        self, txn_id: int, target: Target, mode: str
    ) -> set[int]:
        blockers: set[int] = set()
        for holder, held_mode in self._holders.get(target, {}).items():
            if holder == txn_id:
                continue
            if _SAME_TARGET_CONFLICTS[(held_mode, mode)]:
                blockers.add(holder)
        kind = target[0]
        relation = target[1]
        if kind == "tuple" and mode == "X":
            blockers |= self._rel_s.get(relation, set()) - {txn_id}
        if kind == "rel" and mode == "S":
            blockers |= self._tuple_x.get(relation, set()) - {txn_id}
            blockers |= self._rel_ix.get(relation, set()) - {txn_id}
        if kind == "rel" and mode == "IX":
            blockers |= self._rel_s.get(relation, set()) - {txn_id}
        return blockers

    # -- acquisition ---------------------------------------------------------------

    def try_acquire(self, txn_id: int, target: Target, mode: str) -> bool:
        """Attempt to take *target* in *mode*.

        Returns True and records the lock when granted; otherwise records
        the waits-for edges and returns False.  Re-acquiring an
        already-held equal-or-stronger lock is a no-op; an S→X upgrade is
        attempted in place.
        """
        if mode not in ("S", "X", "IX"):
            raise TransactionError(f"unknown lock mode {mode!r}")
        current = self.mode_of(txn_id, target)
        if current == mode or (current == "X" and mode == "S"):
            return True
        blockers = self._conflicting_holders(txn_id, target, mode)
        if blockers:
            self.waits_for.setdefault(txn_id, set()).update(blockers)
            return False
        self._holders.setdefault(target, {})[txn_id] = mode
        self._held.setdefault(txn_id, set()).add(target)
        kind, relation = target[0], target[1]
        if kind == "tuple" and mode == "X":
            self._tuple_x.setdefault(relation, set()).add(txn_id)
        if kind == "rel" and mode == "S":
            self._rel_s.setdefault(relation, set()).add(txn_id)
        if kind == "rel" and mode == "IX":
            self._rel_ix.setdefault(relation, set()).add(txn_id)
        self.waits_for.pop(txn_id, None)
        return True

    def release_all(self, txn_id: int) -> None:
        """Strict 2PL release: drop every lock at commit/abort."""
        for target in self._held.pop(txn_id, set()):
            holders = self._holders.get(target)
            if holders is not None:
                holders.pop(txn_id, None)
                if not holders:
                    del self._holders[target]
        for index in (self._tuple_x, self._rel_s, self._rel_ix):
            for bucket in index.values():
                bucket.discard(txn_id)
        self.waits_for.pop(txn_id, None)
        for waiters in self.waits_for.values():
            waiters.discard(txn_id)

    # -- deadlock detection ------------------------------------------------------------

    def deadlocked(self) -> list[int] | None:
        """Return one waits-for cycle as a list of txn ids, or None."""
        graph = {t: set(w) for t, w in self.waits_for.items()}
        visiting: set[int] = set()
        visited: set[int] = set()
        stack: list[int] = []

        def visit(node: int) -> list[int] | None:
            visiting.add(node)
            stack.append(node)
            for successor in graph.get(node, ()):
                if successor in visiting:
                    return stack[stack.index(successor):]
                if successor not in visited:
                    cycle = visit(successor)
                    if cycle is not None:
                        return cycle
            visiting.discard(node)
            visited.add(node)
            stack.pop()
            return None

        for node in list(graph):
            if node not in visited:
                cycle = visit(node)
                if cycle is not None:
                    return cycle
        return None

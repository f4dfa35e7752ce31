"""First-class WM change batches: the set-at-a-time delta pipeline.

§4.2.3 of the paper argues that matching-pattern maintenance is *flat* and
set-oriented: the work triggered by a WM change decomposes into independent
groups per target COND relation, so "our scheme can be fully parallelized".
The original reproduction nevertheless funnelled every change through
one-tuple-at-a-time ``on_insert``/``on_delete`` callbacks.  This module
provides the batch currency the whole pipeline now speaks:

* whoever applies ops chooses the chunking: changes made inside
  :meth:`repro.engine.wm.WorkingMemory.batch` reach the strategies as
  one :class:`DeltaBatch` (the interpreter's own act phase stays
  tuple-at-a-time);
* :meth:`repro.engine.wm.WorkingMemory.apply_batch` applies a batch to
  storage set-at-a-time (``insert_many``/``delete_many``, one backend
  transaction) and notifies listeners once;
* :meth:`repro.match.base.MatchStrategy.on_delta` consumes a batch, by
  default falling back to the per-tuple callbacks, while the matching-
  pattern and query strategies override it with set-oriented maintenance
  grouped by target relation, and the Rete family turns a batch into
  per-class token sets probing each opposing join memory once per
  (node, group) — ``docs/ALGORITHMS.md`` §7–§8;
* the §5 concurrent scheduler delivers one batch per transaction commit
  point (:class:`repro.txn.transactions.RuleTransaction`), so the
  maintenance process still completes before any lock is released.

A batch is an *ordered* sequence of deltas; order matters to the sequential
fallback and is preserved by :meth:`DeltaBatch.by_relation` within each
relation group.  Before delivery a batch is *netted*
(:meth:`DeltaBatch.net`): an insert/delete pair for the same
``(relation, tid)`` annihilates, so listeners never see an element that
does not outlive its batch.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from repro.storage.tuples import StoredTuple

#: Delta operation kinds.  A *modify* is represented as delete + insert
#: (§3.1: the replacement gets a fresh timetag, as in OPS5).
INSERT = "insert"
DELETE = "delete"


@dataclass(frozen=True)
class Delta:
    """One WM change: a tuple inserted into or deleted from its relation."""

    op: str
    wme: StoredTuple

    @property
    def relation(self) -> str:
        return self.wme.relation

    @property
    def tid(self) -> int:
        return self.wme.tid

    @property
    def key(self) -> tuple[str, int]:
        """The (relation, tid) identity of the changed element."""
        return (self.wme.relation, self.wme.tid)

    def __str__(self) -> str:
        sign = "+" if self.op == INSERT else "-"
        return f"{sign}{self.wme}"


class DeltaBatch:
    """An ordered batch of WM deltas delivered to listeners as one unit."""

    __slots__ = ("deltas",)

    def __init__(self, deltas: Iterable[Delta] = ()) -> None:
        self.deltas: list[Delta] = list(deltas)

    # -- construction --------------------------------------------------------

    @classmethod
    def of_inserts(cls, wmes: Iterable[StoredTuple]) -> "DeltaBatch":
        """A batch inserting every element of *wmes* (strategy replay)."""
        return cls(Delta(INSERT, wme) for wme in wmes)

    def append(self, delta: Delta) -> None:
        self.deltas.append(delta)

    # -- views ---------------------------------------------------------------

    @property
    def inserts(self) -> list[Delta]:
        """The insert deltas, in batch order."""
        return [d for d in self.deltas if d.op == INSERT]

    @property
    def deletes(self) -> list[Delta]:
        """The delete deltas, in batch order."""
        return [d for d in self.deltas if d.op == DELETE]

    def relations(self) -> list[str]:
        """Distinct changed relations, in first-appearance order."""
        seen: dict[str, None] = {}
        for delta in self.deltas:
            seen.setdefault(delta.relation, None)
        return list(seen)

    def by_relation(self) -> dict[str, list[Delta]]:
        """Deltas grouped by relation (batch order kept within groups).

        This is the grouping §4.2.3's parallelism claim rests on: work
        targeting distinct relations is independent.
        """
        groups: dict[str, list[Delta]] = {}
        for delta in self.deltas:
            groups.setdefault(delta.relation, []).append(delta)
        return groups

    # -- normalization -------------------------------------------------------

    def net(self) -> "DeltaBatch":
        """Cancel insert/delete pairs of the same element within the batch.

        An element created *and* destroyed inside one batch has no net
        effect on any listener's final state (supports and tokens it would
        have contributed are withdrawn by the matching delete), so the pair
        annihilates — the classic delta-normalization step of set-oriented
        view maintenance.  Tuple ids are never reused, so a delete matching
        an earlier insert's key always refers to that same element.
        """
        inserted_at: dict[tuple[str, int], int] = {}
        dropped: set[int] = set()
        for position, delta in enumerate(self.deltas):
            if delta.op == INSERT:
                inserted_at[delta.key] = position
            else:
                birth = inserted_at.pop(delta.key, None)
                if birth is not None:
                    dropped.add(birth)
                    dropped.add(position)
        if not dropped:
            return self
        return DeltaBatch(
            delta
            for position, delta in enumerate(self.deltas)
            if position not in dropped
        )

    # -- dunder --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.deltas)

    def __iter__(self) -> Iterator[Delta]:
        return iter(self.deltas)

    def __bool__(self) -> bool:
        return bool(self.deltas)

    def __str__(self) -> str:
        inner = ", ".join(str(d) for d in self.deltas[:8])
        if len(self.deltas) > 8:
            inner += f", ... ({len(self.deltas)} total)"
        return f"DeltaBatch[{inner}]"

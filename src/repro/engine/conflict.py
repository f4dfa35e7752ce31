"""Instantiations and the conflict set.

An :class:`Instantiation` is one satisfied production together with the WM
elements satisfying it — what the paper calls "the qualifying rule ... with
the token that caused the rule to become active" (§3.1).  Negated condition
elements contribute no element, so their slot is ``None``.

The :class:`ConflictSet` indexes instantiations by the WM elements they
reference, so deleting an element efficiently retracts every instantiation
built on it (used by all strategies, and by Δdel bookkeeping in §5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.storage.schema import Value
from repro.storage.tuples import StoredTuple

#: Identity of one instantiation: rule name + per-CE (relation, tid) slots.
InstantiationKey = tuple[str, tuple[tuple[str, int] | None, ...]]


@dataclass(frozen=True)
class Instantiation:
    """A rule plus the WM elements matching its condition elements.

    Attributes:
        rule_name: The satisfied production.
        wmes: One entry per condition element, in LHS order; ``None`` for
            negated condition elements.
        bindings: The variable substitution, sorted by name.
        salience: Copied from the rule for priority resolution.
    """

    rule_name: str
    wmes: tuple[StoredTuple | None, ...]
    bindings: tuple[tuple[str, Value], ...] = ()
    salience: int = 0

    @property
    def key(self) -> InstantiationKey:
        """Identity: rule plus the (relation, tid) of each matched element."""
        return (
            self.rule_name,
            tuple(
                (w.relation, w.tid) if w is not None else None
                for w in self.wmes
            ),
        )

    @property
    def timetags(self) -> tuple[int, ...]:
        """Timetags of matched elements, descending (LEX recency order)."""
        return tuple(
            sorted((w.timetag for w in self.wmes if w is not None), reverse=True)
        )

    def binding_map(self) -> dict[str, Value]:
        """Bindings as a dictionary."""
        return dict(self.bindings)

    def positive_wmes(self) -> tuple[StoredTuple, ...]:
        """The matched WM elements (negated slots skipped)."""
        return tuple(w for w in self.wmes if w is not None)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instantiation):
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __str__(self) -> str:
        slots = ", ".join(
            "-" if w is None else f"{w.relation}#{w.tid}" for w in self.wmes
        )
        return f"{self.rule_name}[{slots}]"


@dataclass
class ConflictSet:
    """The set of currently satisfied instantiations, indexed by WME.

    Listeners (callbacks ``on_added(inst)`` / ``on_removed(inst)``) observe
    membership changes — the hook ``repro explain``'s lineage recorder
    builds on.
    """

    _by_key: dict[InstantiationKey, Instantiation] = field(default_factory=dict)
    _by_wme: dict[tuple[str, int], set[InstantiationKey]] = field(
        default_factory=dict
    )
    _listeners: list = field(default_factory=list)
    additions: int = 0
    removals: int = 0

    def add_listener(self, on_added, on_removed) -> None:
        """Register membership-change callbacks."""
        self._listeners.append((on_added, on_removed))

    def add(self, instantiation: Instantiation) -> bool:
        """Insert; returns False when it was already present."""
        key = instantiation.key
        if key in self._by_key:
            return False
        self._by_key[key] = instantiation
        for wme in instantiation.positive_wmes():
            self._by_wme.setdefault((wme.relation, wme.tid), set()).add(key)
        self.additions += 1
        for on_added, _ in self._listeners:
            on_added(instantiation)
        return True

    def remove(self, instantiation: Instantiation) -> bool:
        """Remove; returns False when it was not present."""
        key = instantiation.key
        if key not in self._by_key:
            return False
        self._discard(key)
        return True

    def _discard(self, key: InstantiationKey) -> None:
        instantiation = self._by_key.pop(key)
        for wme in instantiation.positive_wmes():
            bucket = self._by_wme.get((wme.relation, wme.tid))
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del self._by_wme[(wme.relation, wme.tid)]
        self.removals += 1
        for _, on_removed in self._listeners:
            on_removed(instantiation)

    def remove_wme(self, wme: StoredTuple) -> list[Instantiation]:
        """Retract every instantiation referencing *wme*; return them."""
        keys = self._by_wme.get((wme.relation, wme.tid))
        if not keys:
            return []
        removed = [self._by_key[key] for key in list(keys)]
        for key in list(keys):
            self._discard(key)
        return removed

    def for_rule(self, rule_name: str) -> list[Instantiation]:
        """All current instantiations of *rule_name*."""
        return [
            inst
            for inst in self._by_key.values()
            if inst.rule_name == rule_name
        ]

    def instantiations(self) -> list[Instantiation]:
        """All current instantiations (insertion order)."""
        return list(self._by_key.values())

    def __contains__(self, instantiation: Instantiation) -> bool:
        return instantiation.key in self._by_key

    def __len__(self) -> int:
        return len(self._by_key)

    def __iter__(self):
        return iter(self._by_key.values())

    def clear(self) -> None:
        """Empty the set (counters are kept)."""
        self._by_key.clear()
        self._by_wme.clear()

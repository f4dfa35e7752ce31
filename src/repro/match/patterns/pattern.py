"""Matching-pattern tuples (§4.2.1 of the paper).

Each tuple in a COND relation has: the Rule ID (RID), the Condition Element
Number (CEN), a restriction on each attribute of the corresponding WM
relation, the list of Related Condition Elements (RCE), and one Mark per
RCE.  "A tuple in a COND relation with at least one Mark bit set is called a
matching pattern" — it records that a tuple exists elsewhere that is
joinable with future arrivals matching the restrictions.

Marks are counters, as §4.2.2 recommends ("Mark bits can easily be replaced
by counters to record the number of contributing tuples"), and for a
*negated* related condition the sense is inverted (§4.2.2): the counter
counts blockers and the mark is satisfied while it is zero.  The Mark
column itself is one integer word derived from the counters, bit *k* set
while related condition *k* has any contributor, so every mark test is a
mask operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lang.analysis import AnalyzedCondition
from repro.storage.predicate import And, Comparison
from repro.storage.schema import RelationSchema, Value

#: One attribute restriction: a pinned constant, a still-free variable, or
#: a don't-care (the paper's ``*``).
Slot = tuple[str, object] | None  # ("const", value) | ("var", name) | None

Restrictions = tuple[Slot, ...]


def template_restrictions(
    condition: AnalyzedCondition, schema: RelationSchema
) -> Restrictions:
    """The original (unspecialized) restriction row for *condition*.

    Equality constants pin slots; ``=``-variables occupy slots as free
    variables; everything else (don't-cares, operator tests, residual
    variable tests) renders as don't-care here — those tests still apply,
    via the condition itself, whenever a tuple is matched against the
    pattern.
    """
    slots: list[Slot] = [None] * schema.arity

    def visit(predicate) -> None:
        if isinstance(predicate, Comparison) and predicate.op == "=":
            slots[schema.position(predicate.attribute)] = (
                "const",
                predicate.value,
            )
        elif isinstance(predicate, And):
            for part in predicate.parts:
                visit(part)

    visit(condition.constant_predicate)
    for attribute, variable in condition.equalities:
        position = schema.position(attribute)
        if slots[position] is None:
            slots[position] = ("var", variable)
    return tuple(slots)


def specialize(
    restrictions: Restrictions, bindings: dict[str, Value]
) -> Restrictions:
    """Pin variable slots whose variable is bound in *bindings*."""
    result: list[Slot] = []
    for slot in restrictions:
        if slot is not None and slot[0] == "var" and slot[1] in bindings:
            result.append(("const", bindings[slot[1]]))
        else:
            result.append(slot)
    return tuple(result)


def merge(left: Restrictions, right: Restrictions) -> Restrictions | None:
    """Unify two specializations of the same template.

    Returns the most specific combination, or ``None`` when two pinned
    constants disagree.
    """
    merged: list[Slot] = []
    for a, b in zip(left, right):
        if a == b:
            merged.append(a)
        elif a is not None and a[0] == "const":
            if b is not None and b[0] == "const" and a[1] != b[1]:
                return None
            merged.append(a)
        elif b is not None and b[0] == "const":
            merged.append(b)
        else:
            # var vs None, or var vs var — same template, so identical apart
            # from const pinning; keep the more specific description.
            merged.append(a if a is not None else b)
    return tuple(merged)


def slot_display(slot: Slot) -> str:
    """Render one slot the way the paper's tables print it."""
    if slot is None:
        return "*"
    kind, value = slot
    if kind == "var":
        return f"<{value}>"
    return "nil" if value is None else str(value)


#: Identity of a contributing WM element: (relation, tid).
WmeKey = tuple[str, int]


def rce_masks(
    rce: tuple[int, ...], negated_indices: frozenset[int]
) -> tuple[int, int]:
    """(positive, negated) related conditions of *rce* as Mark-word bits."""
    positive = negated = 0
    for k in rce:
        if k in negated_indices:
            negated |= 1 << k
        else:
            positive |= 1 << k
    return positive, negated


@dataclass(eq=False)
class PatternTuple:
    """One row of a COND relation in the matching-pattern scheme.

    Attributes:
        rid: Rule ID.
        cen: 1-based Condition Element Number within the rule.
        index: 0-based condition index (``cen - 1``).
        restrictions: Per-attribute restriction slots.
        rce: 0-based indices of the related condition elements.
        supports: Per-related-condition sets of contributing WM elements.
            Change them only through :meth:`add_support` and
            :meth:`remove_support`, which keep ``mask`` in step.
            §4.2.2's counters "record the number of contributing tuples";
            recording the contributors themselves makes deletion exact: a
            "−" token removes precisely the support its "+" token added,
            regardless of which propagation paths have appeared since.  The
            paper's counter is ``len(supports[k])``; the Mark bit is
            ``len > 0`` for a positive related condition and ``len == 0``
            (no blockers) for a negated one.
        mask: The Mark column as one word: bit ``k`` is set exactly when
            ``supports[k]`` is non-empty (read with the inverted sense for
            a negated related condition).  Derived from the counters and
            changed only when a support set empties or stops being empty.
        original: True for the row created at rule-compilation time (these
            are never garbage-collected).
        approximate: True once folding compaction has unioned a narrower
            sibling's supports into this row.  The counters then over-claim
            joinability for bindings the contributor only supported more
            narrowly, so mark-based *pruning* decisions (the §4.2.2
            compatibility check, the unblock-transition test) must not
            trust them — see ``PatternStore.compact``.  Copies made from an
            approximate row inherit the flag.
        serial: Admission number within the (RID, CEN) group, assigned by
            the owning :class:`PatternStore` each time the row enters the
            group.  Serial order is the group's insertion order, which is
            the order every COND search reports its hits in.
    """

    rid: str
    cen: int
    restrictions: Restrictions
    rce: tuple[int, ...]
    supports: dict[int, set[WmeKey]] = field(default_factory=dict)
    original: bool = False
    approximate: bool = False
    serial: int = 0
    mask: int = 0

    @property
    def index(self) -> int:
        return self.cen - 1

    def count(self, rce_index: int) -> int:
        """The paper's Mark counter for one related condition."""
        return len(self.supports.get(rce_index, ()))

    def add_support(self, rce_index: int, contributor: WmeKey) -> bool:
        """Record a contributing element; returns False when already known."""
        bucket = self.supports.setdefault(rce_index, set())
        if contributor in bucket:
            return False
        bucket.add(contributor)
        self.mask |= 1 << rce_index
        return True

    def remove_support(self, rce_index: int, contributor: WmeKey) -> bool:
        """Withdraw a contributor; returns False when it was not recorded."""
        bucket = self.supports.get(rce_index)
        if bucket is None or contributor not in bucket:
            return False
        bucket.discard(contributor)
        if not bucket:
            self.mask &= ~(1 << rce_index)
        return True

    def mark_bits(self, negated_indices: frozenset[int]) -> str:
        """Render the Mark column as the paper does ("10", "11", ...)."""
        bits = []
        for rce_index in self.rce:
            count = self.count(rce_index)
            if rce_index in negated_indices:
                bits.append("1" if count == 0 else "0")
            else:
                bits.append("1" if count > 0 else "0")
        return "".join(bits)

    def is_full(self, negated_indices: frozenset[int]) -> bool:
        """All marks set: every positive RCE supported, no negated blocked."""
        positive, negated = rce_masks(self.rce, negated_indices)
        return self.mask & (positive | negated) == positive

    def blocks(self, negated_indices: frozenset[int]) -> bool:
        """True when some negated related condition currently has a witness."""
        return bool(self.mask & rce_masks(self.rce, negated_indices)[1])

    def all_zero(self) -> bool:
        """No support left from any related condition."""
        return not self.mask

    def display_row(
        self, schema: RelationSchema, negated_indices: frozenset[int]
    ) -> dict[str, str]:
        """One table row in the paper's format."""
        row = {"RID": self.rid, "CEN": str(self.cen)}
        for attribute, slot in zip(schema.attributes, self.restrictions):
            row[attribute] = slot_display(slot)
        row["RCE"] = ",".join(str(i + 1) for i in self.rce)
        row["Mark"] = self.mark_bits(negated_indices)
        return row

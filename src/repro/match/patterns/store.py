"""The COND relations of the matching-pattern scheme.

One :class:`PatternStore` per WM class, holding original condition rows and
the matching patterns accumulated by propagation.  Patterns are grouped by
(RID, CEN) and deduplicated by their restriction row, so re-derivation of an
existing pattern increments its counters instead of storing a copy.

Every group is indexed by a *shape directory* (§4.2.3: "COND relations
should be indexed"; docs/ALGORITHMS.md §10.4).  A pattern's *shape* is the
set of template-variable slots it pins; every pattern of one shape is a
distinct assignment to the same slots, so per shape one hash table from the
pinned values to the pattern answers both searches the algorithm makes: the
patterns a WM tuple satisfies (one lookup per shape) and the patterns
unifiable with a propagated binding row (one lookup per shape, through a
lazily registered partial-key table when the row pins only part of the
shape).  A group has at most 2^v shapes for v template variables — fixed by
the rule, not by the data.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cache
from operator import attrgetter

from repro.instrument import Counters
from repro.lang.analysis import AnalyzedCondition, RuleAnalysis
from repro.match.common import match_condition
from repro.match.patterns.pattern import (
    PatternTuple,
    Restrictions,
    merge,
    template_restrictions,
)
from repro.storage.predicate import compare
from repro.storage.schema import RelationSchema, Value
from repro.storage.tuples import StoredTuple

#: Slot positions, ascending: a shape, or the part of one a probe pins.
Positions = tuple[int, ...]

_serial = attrgetter("serial")


def _hit_serial(hit: tuple[PatternTuple, Restrictions]) -> int:
    return hit[0].serial


@cache
def _split(shape: Positions, pins: Positions) -> tuple[Positions, Positions]:
    """(slots of *shape* that *pins* also pins, slots only *pins* pins).

    Pure and tiny; the distinct arguments are bounded by the rules' shapes,
    not by the data.
    """
    return (
        tuple(p for p in shape if p in pins),
        tuple(p for p in pins if p not in shape),
    )


def _values_at(restrictions: Restrictions, positions: Positions) -> tuple:
    return tuple(restrictions[p][1] for p in positions)


class PatternGroup:
    """The patterns of one (RID, CEN) and their shape directory.

    ``patterns`` is the group in admission (serial) order.  ``shapes`` maps
    each shape that currently has patterns to ``{pinned values: pattern}``;
    ``partials[shape][positions]`` maps the values at *positions* (a
    non-empty proper subset of *shape*) to the shape's patterns carrying
    them, in serial order.  A partial table is registered by the first
    probe that needs it and maintained from then on; a shape table or
    bucket that empties is dropped.

    Membership changes only through :meth:`add` / :meth:`drop`, so the
    directory cannot drift from the group.
    """

    __slots__ = (
        "template", "var_positions", "patterns", "shapes", "partials",
        "next_serial",
    )

    def __init__(self, template: PatternTuple) -> None:
        self.template = template
        self.var_positions: Positions = tuple(
            position
            for position, slot in enumerate(template.restrictions)
            if slot is not None and slot[0] == "var"
        )
        self.patterns: dict[Restrictions, PatternTuple] = {}
        self.shapes: dict[Positions, dict[tuple, PatternTuple]] = {}
        self.partials: dict[
            Positions, dict[Positions, dict[tuple, list[PatternTuple]]]
        ] = {}
        self.next_serial = 0
        self.add(template)

    def shape_of(self, restrictions: Restrictions) -> Positions:
        """The template-variable slots *restrictions* pins."""
        return tuple(
            p for p in self.var_positions if restrictions[p][0] == "const"
        )

    def add(self, pattern: PatternTuple) -> None:
        restrictions = pattern.restrictions
        pattern.serial = self.next_serial
        self.next_serial += 1
        self.patterns[restrictions] = pattern
        shape = self.shape_of(restrictions)
        self.shapes.setdefault(shape, {})[
            _values_at(restrictions, shape)
        ] = pattern
        for positions, table in self.partials.get(shape, {}).items():
            table.setdefault(_values_at(restrictions, positions), []).append(
                pattern
            )

    def drop(self, pattern: PatternTuple) -> None:
        restrictions = pattern.restrictions
        del self.patterns[restrictions]
        shape = self.shape_of(restrictions)
        table = self.shapes[shape]
        del table[_values_at(restrictions, shape)]
        if not table:
            del self.shapes[shape]
        for positions, partial in self.partials.get(shape, {}).items():
            key = _values_at(restrictions, positions)
            bucket = partial[key]
            bucket.remove(pattern)
            if not bucket:
                del partial[key]

    def matching(self, values: tuple[Value, ...]) -> list[PatternTuple]:
        """Patterns whose pinned slots all agree with *values*, in serial
        order: one lookup per shape."""
        found = []
        for shape, table in self.shapes.items():
            pattern = table.get(tuple(values[p] for p in shape))
            if pattern is not None:
                found.append(pattern)
        if len(found) > 1:
            found.sort(key=_serial)
        return found

    def unifiable(
        self, desired: Restrictions
    ) -> list[tuple[PatternTuple, Restrictions]]:
        """Patterns agreeing with *desired* (the template with some
        variables pinned) on every slot both pin, in serial order, each
        with the merged row: the pattern's plus the slots only *desired*
        pins — the pattern's own ``restrictions`` object when there are
        none.

        Per shape that is one probe: the shape table when *desired* pins
        the whole shape (at most one pattern), the partial table on the
        slots they share otherwise, the whole shape when they share none.
        No incompatible pattern is touched.
        """
        pins = self.shape_of(desired)
        hits: list[tuple[PatternTuple, Restrictions]] = []
        runs = 0
        for shape, table in self.shapes.items():
            common, extra = _split(shape, pins)
            if len(common) == len(shape):
                pattern = table.get(_values_at(desired, shape))
                found = () if pattern is None else (pattern,)
            elif common:
                found = self._partial(shape, common).get(
                    _values_at(desired, common), ()
                )
            else:
                found = table.values()
            if not found:
                continue
            runs += 1
            if extra:
                for pattern in found:
                    merged = list(pattern.restrictions)
                    for position in extra:
                        merged[position] = desired[position]
                    hits.append((pattern, tuple(merged)))
            else:
                hits.extend(
                    (pattern, pattern.restrictions) for pattern in found
                )
        if runs > 1:
            hits.sort(key=_hit_serial)
        return hits

    def _partial(
        self, shape: Positions, positions: Positions
    ) -> dict[tuple, list[PatternTuple]]:
        """The partial-key table of *shape* on *positions*, registered (from
        one pass over the shape, in serial order) on first use."""
        tables = self.partials.setdefault(shape, {})
        table = tables.get(positions)
        if table is None:
            table = tables[positions] = {}
            for pattern in self.shapes[shape].values():
                table.setdefault(
                    _values_at(pattern.restrictions, positions), []
                ).append(pattern)
        return table


class PatternStore:
    """All pattern tuples for one WM class (the class's COND relation)."""

    def __init__(
        self, class_name: str, schema: RelationSchema, counters: Counters
    ) -> None:
        self.class_name = class_name
        self.schema = schema
        self.counters = counters
        # id(condition) -> compiled constant-test checker, installed by the
        # owning strategy (repro.match.compile).
        self.checks: dict[int, object] = {}
        self._groups: dict[tuple[str, int], PatternGroup] = {}

    # -- construction ------------------------------------------------------

    def add_template(
        self, analysis: RuleAnalysis, condition: AnalyzedCondition
    ) -> PatternTuple:
        """Install the original row for *condition* at compile time."""
        pattern = PatternTuple(
            rid=analysis.name,
            cen=condition.cond_number,
            restrictions=template_restrictions(condition, self.schema),
            rce=analysis.related_conditions(condition.index),
            original=True,
        )
        self._groups[(pattern.rid, pattern.cen)] = PatternGroup(pattern)
        self.counters.patterns_created += 1
        return pattern

    # -- access -----------------------------------------------------------------

    def template(self, rid: str, cen: int) -> PatternTuple:
        """The original row for (rid, cen)."""
        return self._groups[(rid, cen)].template

    def group(self, rid: str, cen: int) -> list[PatternTuple]:
        """Every pattern (template + specializations) for (rid, cen), in
        admission order."""
        return list(self._groups[(rid, cen)].patterns.values())

    def groups(self) -> Iterator[tuple[tuple[str, int], list[PatternTuple]]]:
        """Iterate over (key, patterns) for every condition in this store."""
        for key, group in self._groups.items():
            yield key, list(group.patterns.values())

    def directories(self) -> Iterator[tuple[tuple[str, int], PatternGroup]]:
        """Iterate over (key, group) — the shape directories themselves, for
        introspection and the index-fault oracle."""
        return iter(self._groups.items())

    def pattern_count(self) -> int:
        """Total stored rows (templates included)."""
        return sum(len(group.patterns) for group in self._groups.values())

    def derived_count(self) -> int:
        """Stored matching patterns (templates excluded)."""
        return self.pattern_count() - len(self._groups)

    # -- matching ---------------------------------------------------------------

    def matches_of(
        self,
        condition: AnalyzedCondition,
        rid: str,
        wme: StoredTuple,
    ) -> tuple[list[PatternTuple], dict[str, Value] | None]:
        """Patterns of (rid, condition) that *wme* satisfies, in admission
        order, and the bindings the match produces (``None``: no match).

        A tuple satisfies a pattern when it satisfies the underlying
        condition element *and* agrees with every pinned constant slot.
        This is the paper's "Search relation COND-C for tuples matching t":
        one hash lookup per shape, keyed by the tuple's values at the
        shape's slots.  Dictionary-key equality is ``compare("=")`` on
        stored values (a ``str`` never equals a non-``str``, ``1 == 1.0``,
        ``nil`` only equals ``nil``).
        """
        env = self._search_bindings(condition, wme)
        if env is None:
            return [], None
        group = self._groups[(rid, condition.cond_number)]
        self.counters.index_lookups += len(group.shapes)
        return group.matching(wme.values), env

    def _search_bindings(
        self, condition: AnalyzedCondition, wme: StoredTuple
    ) -> dict[str, Value] | None:
        """Count one COND search and apply *condition*'s own tests."""
        self.counters.cond_searches += 1
        self.counters.comparisons += 1
        return match_condition(
            condition, self.schema, wme, check=self.checks.get(id(condition))
        )

    def compatible_with(
        self, rid: str, cen: int, desired: Restrictions
    ) -> list[tuple[PatternTuple, Restrictions]]:
        """Patterns of (rid, cen) unifiable with *desired*, in admission
        order, each with the merged restrictions — one hash lookup per
        shape (:meth:`PatternGroup.unifiable`)."""
        group = self._groups[(rid, cen)]
        self.counters.index_lookups += len(group.shapes)
        return group.unifiable(desired)

    def find_or_create(
        self,
        source: PatternTuple,
        merged: Restrictions,
    ) -> tuple[PatternTuple, bool]:
        """Return the pattern with *merged* restrictions, creating it from
        *source* (counters copied) when absent.  Second result: created?
        """
        group = self._groups[(source.rid, source.cen)]
        existing = group.patterns.get(merged)
        if existing is not None:
            return existing, False
        pattern = PatternTuple(
            rid=source.rid,
            cen=source.cen,
            restrictions=merged,
            rce=source.rce,
            supports={k: set(v) for k, v in source.supports.items()},
            original=False,
            approximate=source.approximate,
            mask=source.mask,
        )
        group.add(pattern)
        self.counters.patterns_created += 1
        return pattern, True

    def discard(self, pattern: PatternTuple) -> None:
        """Drop a fully-unsupported derived pattern.

        Identity-guarded: compaction removes rows from the group without
        touching the owner's reverse support index, so a later deletion can
        drain a *zombie* row and ask to discard it after a live successor
        with the same restrictions has been re-derived.  Dropping by
        restriction key alone would evict the successor and lose its
        supports; only the exact object stored in the group is removed.
        """
        if pattern.original:
            return
        group = self._groups[(pattern.rid, pattern.cen)]
        if group.patterns.get(pattern.restrictions) is pattern:
            group.drop(pattern)

    # -- compaction (§4.2.3 future work) ----------------------------------------

    def compact(
        self,
        max_per_condition: int | None = None,
        on_transfer=None,
    ) -> int:
        """Compact redundant matching patterns; returns how many were
        dropped.

        §4.2.3: "it is obvious that there is a lot of redundancy among
        matching patterns.  Compacting them in a nice way without
        sacrificing performance is crucial."  Two modes:

        * **Subsumption (always).**  A derived pattern P is dropped when a
          sibling Q of the same (RID, CEN) is at least as general and
          carries at least P's support for every related condition —
          strictly lossless.
        * **Folding (when *max_per_condition* is given).**  While a
          condition's group exceeds the cap, its least-supported derived
          pattern is *folded* into the most general sibling that covers
          its restrictions (the original row always qualifies): the
          folded pattern's support sets are unioned into the target, then
          the pattern is dropped.  No support is ever lost — matching
          stays complete — but the target now over-claims joinability for
          bindings the contributor only supported more narrowly, so the
          fire gate may admit more candidates whose act-time selection
          comes back empty (counted false drops).  Space for precision,
          the paper's trade.

        *on_transfer(target, rce_index, contributors)* is invoked for every
        folded support set so the owner can maintain its reverse index.
        """
        removed = 0
        for group in self._groups.values():
            removed += self._compact_subsumed(group)
            if max_per_condition is not None:
                removed += self._fold_group(
                    group, max_per_condition, on_transfer
                )
        return removed

    def _compact_subsumed(self, group: PatternGroup) -> int:
        removed = 0
        patterns = group.patterns
        for candidate in list(patterns.values()):
            if candidate.original:
                continue
            for other in list(patterns.values()):
                if other is candidate:
                    continue
                if _generalizes(
                    other.restrictions, candidate.restrictions
                ) and _covers_supports(other, candidate):
                    group.drop(candidate)
                    removed += 1
                    break
        return removed

    def _fold_group(
        self, group: PatternGroup, max_per_condition: int, on_transfer
    ) -> int:
        removed = 0
        patterns = group.patterns
        while len(patterns) > max(max_per_condition, 1):
            derived = [p for p in patterns.values() if not p.original]
            if not derived:
                break
            victim = min(
                derived,
                key=lambda p: (
                    sum(len(b) for b in p.supports.values()),
                    repr(p.restrictions),
                ),
            )
            target = self._most_general_cover(patterns.values(), victim)
            if target is None:
                break
            for rce_index, bucket in victim.supports.items():
                if not bucket:
                    continue
                target.supports.setdefault(rce_index, set()).update(bucket)
                if on_transfer is not None:
                    on_transfer(target, rce_index, frozenset(bucket))
            target.mask |= victim.mask
            # The target's counters now over-claim joinability for the
            # victim's narrower bindings; flag it so mark-based pruning
            # stops trusting them (completeness over precision).
            target.approximate = True
            group.drop(victim)
            removed += 1
        return removed

    @staticmethod
    def _most_general_cover(patterns, victim: PatternTuple):
        covers = [
            p
            for p in patterns
            if p is not victim
            and _generalizes(p.restrictions, victim.restrictions)
        ]
        if not covers:
            return None
        # Fewest pinned constants = most general; originals win ties.
        return min(
            covers,
            key=lambda p: (
                sum(
                    1
                    for slot in p.restrictions
                    if slot is not None and slot[0] == "const"
                ),
                not p.original,
            ),
        )

    # -- bindings / display ---------------------------------------------------------

    def pattern_bindings(self, pattern: PatternTuple) -> dict[str, Value]:
        """Variable bindings implied by the pattern's pinned slots."""
        group = self._groups[(pattern.rid, pattern.cen)]
        template = group.template.restrictions
        restrictions = pattern.restrictions
        return {
            str(template[p][1]): restrictions[p][1]
            for p in group.shape_of(restrictions)
        }

    def display_rows(
        self, negated_indices_of: dict[str, frozenset[int]]
    ) -> list[dict[str, str]]:
        """All rows in the paper's table format, templates first."""
        rows: list[dict[str, str]] = []
        for (rid, _cen), group in sorted(self._groups.items()):
            negated = negated_indices_of.get(rid, frozenset())
            ordered = sorted(
                group.patterns.values(),
                key=lambda p: (not p.original, repr(p.restrictions)),
            )
            for pattern in ordered:
                rows.append(pattern.display_row(self.schema, negated))
        return rows

    def describe_groups(self) -> list[dict]:
        """Per (RID, CEN) group: how many patterns, over how many shapes,
        and the partial-key buckets registered so far (count and the
        largest — what one partial probe can hand back at most)."""
        rows = []
        for (rid, cen), group in sorted(self._groups.items()):
            buckets = [
                len(bucket)
                for tables in group.partials.values()
                for table in tables.values()
                for bucket in table.values()
            ]
            rows.append(
                {
                    "rule": rid,
                    "cen": cen,
                    "patterns": len(group.patterns),
                    "shapes": len(group.shapes),
                    "buckets": len(buckets),
                    "largest": max(buckets, default=0),
                }
            )
        return rows

    def cell_count(self) -> int:
        """Stored cells: one per attribute slot + RID/CEN/RCE/Mark columns."""
        per_row = self.schema.arity + 4
        return self.pattern_count() * per_row


def _generalizes(general: Restrictions, specific: Restrictions) -> bool:
    """True when every tuple matching *specific* also matches *general*."""
    for general_slot, specific_slot in zip(general, specific):
        if general_slot is None or general_slot[0] == "var":
            continue  # unconstrained (or variable) slot admits anything
        if general_slot != specific_slot:
            return False
    return True


def _covers_supports(general: PatternTuple, specific: PatternTuple) -> bool:
    """True when *general* carries at least *specific*'s support per mark."""
    for rce_index, bucket in specific.supports.items():
        if not bucket <= general.supports.get(rce_index, set()):
            return False
    return True


# -- reference scans ----------------------------------------------------------
#
# The searches as the paper states them — test every pattern of the group —
# kept as the definition the shape directory must agree with, hit for hit
# and in the same order.  Only tests and the fuzz oracle call them.


def scan_matches_of(
    store: PatternStore,
    condition: AnalyzedCondition,
    rid: str,
    wme: StoredTuple,
) -> tuple[list[PatternTuple], dict[str, Value] | None]:
    """:meth:`PatternStore.matches_of` by linear scan."""
    env = store._search_bindings(condition, wme)
    if env is None:
        return [], None
    found = []
    for pattern in store.group(rid, condition.cond_number):
        store.counters.comparisons += 1
        if all(
            compare("=", slot[1], value)
            for slot, value in zip(pattern.restrictions, wme.values)
            if slot is not None and slot[0] == "const"
        ):
            found.append(pattern)
    return found, env


def scan_compatible_with(
    store: PatternStore, rid: str, cen: int, desired: Restrictions
) -> list[tuple[PatternTuple, Restrictions]]:
    """:meth:`PatternStore.compatible_with` by one ``merge`` per pattern."""
    hits = []
    for pattern in store.group(rid, cen):
        store.counters.comparisons += 1
        merged = merge(pattern.restrictions, desired)
        if merged is not None:
            if merged == pattern.restrictions:
                merged = pattern.restrictions
            hits.append((pattern, merged))
    return hits


def make_stores(
    analyses: dict[str, RuleAnalysis],
    schemas: dict[str, RelationSchema],
    counters: Counters,
) -> dict[str, PatternStore]:
    """Build one store per class and install every condition's template."""
    stores: dict[str, PatternStore] = {}
    for analysis in analyses.values():
        for condition in analysis.conditions:
            store = stores.get(condition.class_name)
            if store is None:
                store = PatternStore(
                    condition.class_name,
                    schemas[condition.class_name],
                    counters,
                )
                stores[condition.class_name] = store
            store.add_template(analysis, condition)
    return stores

"""The matching-pattern match strategy — the paper's core contribution (§4.2).

Matching a changed tuple is "a single search over a COND relation"; pattern
propagation then records, in the COND relations of the *related* condition
elements, which bindings are now joinable ("we are actually doing the join
in an incremental way").  A tuple matching patterns whose Marks cover every
related condition puts the rule into the conflict set.

Paper-mandated refinements implemented here:

* counters instead of Mark bits (§4.2.2) so deletions and multiply-supported
  patterns work — realized as *support sets* of contributing WM elements, so
  that a deletion withdraws exactly what the insertion contributed (the
  counter the paper describes is the set's size);
* inverted marks for negated condition elements (§4.2.2): their counter
  counts blockers and the mark is "set" while it is zero.

Every mark test reads the pattern's Mark word (``PatternTuple.mask``, bit
*k* set while related condition *k* has a contributor) against masks fixed
at compile time: per propagation edge the shared third-party conditions,
per condition element its positive and negated related conditions.

Exactness: a matching pattern "does not store pointers to ... the actual
tuples of the WM relations.  These tuples must be selected before executing
the RHS actions" (§5.1).  That selection runs immediately when a pattern
fires, so the conflict set always holds real, validated instantiations;
fired candidates that select zero combinations are counted as false drops
(the same failure economics the paper describes for POSTGRES markers in
§3.2, at a much lower rate).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.delta import INSERT, DeltaBatch
from repro.instrument import SpaceReport
from repro.lang.analysis import AnalyzedCondition, RuleAnalysis
from repro.match.base import MatchStrategy
from repro.match.common import match_condition, result_to_instantiation
from repro.match.compile import compile_condition_checks
from repro.match.patterns.pattern import (
    PatternTuple,
    Restrictions,
    WmeKey,
    rce_masks,
    specialize,
)
from repro.match.patterns.store import PatternStore, make_stores
from repro.storage.query import evaluate
from repro.storage.schema import Value
from repro.storage.tuples import StoredTuple


class _Link(NamedTuple):
    """One propagation edge: a condition element to one of its RCEs."""

    cen: int  # the related condition's CEN
    store: PatternStore  # ... and its class's COND relation
    template: Restrictions  # the related condition's original row
    #: Third-party positive conditions related to both ends, as Mark-word
    #: bits — the marks §4.2.2's compatibility check compares.
    shared_mask: int


class _Condition(NamedTuple):
    """One condition element and its Mark-word masks."""

    analysis: RuleAnalysis
    condition: AnalyzedCondition
    store: PatternStore  # its class's COND relation
    #: Its positive related conditions ...
    positive: int
    #: ... and all its related conditions: a pattern of it is full when
    #: ``mask & marks == positive``.
    marks: int
    #: Related conditions whose last blocker leaving can make it full: the
    #: rule's negated ones, none for a negated condition element.
    unblocking: int


class MatchingPatternsStrategy(MatchStrategy):
    """§4.2: COND relations with matching patterns and mark counters."""

    strategy_name = "patterns"
    match_span_name = "match.pattern_propagation"

    def _prepare(self) -> None:
        self.stores: dict[str, PatternStore] = make_stores(
            self.analyses, self.wm.schemas, self.counters
        )
        # Compiled constant-test checkers (repro.match.compile), keyed by
        # condition identity.
        self._checks: dict[int, object] = compile_condition_checks(
            self.analyses, self.wm.schemas
        )
        for store in self.stores.values():
            store.checks = self._checks
        self._by_class: dict[str, list[tuple[RuleAnalysis, AnalyzedCondition]]] = {}
        self._negated_indices: dict[str, frozenset[int]] = {}
        # (rid, cen) -> the condition element with its Mark-word masks.
        self._conditions: dict[tuple[str, int], _Condition] = {}
        # (rid, condition index) -> propagation edges, in RCE order.
        self._links: dict[tuple[str, int], list[_Link]] = {}
        # (wme key) -> {(pattern, rce index)} reverse map for exact deletion,
        # in recording order: withdrawal (and through it act-time selection)
        # must not depend on where the allocator put the patterns.
        self._support_index: dict[
            WmeKey, dict[tuple[PatternTuple, int], None]
        ] = {}
        # §4.2.3 parallelism accounting: per-event maintenance operations
        # grouped by target COND relation.  Propagation to distinct COND
        # relations is independent, so a parallel system's maintenance
        # makespan is the per-event *maximum* over relations, while a
        # serial one pays the sum.
        self.maintenance_serial_ops = 0
        self.maintenance_parallel_ops = 0
        self._event_profile: dict[str, int] = {}
        for analysis in self.analyses.values():
            negated = frozenset(
                c.index for c in analysis.conditions if c.negated
            )
            self._negated_indices[analysis.name] = negated
            for condition in analysis.conditions:
                self._by_class.setdefault(condition.class_name, []).append(
                    (analysis, condition)
                )
                positive, blockers = rce_masks(
                    analysis.related_conditions(condition.index), negated
                )
                self._conditions[(analysis.name, condition.cond_number)] = (
                    _Condition(
                        analysis,
                        condition,
                        self.stores[condition.class_name],
                        positive,
                        positive | blockers,
                        0 if condition.negated else blockers,
                    )
                )
                links = self._links[(analysis.name, condition.index)] = []
                for index in analysis.related_conditions(condition.index):
                    related = analysis.conditions[index]
                    if condition.negated and related.negated:
                        continue  # blockers only matter to positive conditions
                    links.append(
                        self._link(analysis, condition, related, negated)
                    )

    def _link(
        self,
        analysis: RuleAnalysis,
        condition: AnalyzedCondition,
        related: AnalyzedCondition,
        negated: frozenset[int],
    ) -> _Link:
        store = self.stores[related.class_name]
        ours = rce_masks(analysis.related_conditions(condition.index), negated)
        theirs = rce_masks(analysis.related_conditions(related.index), negated)
        return _Link(
            cen=related.cond_number,
            store=store,
            template=store.template(
                analysis.name, related.cond_number
            ).restrictions,
            shared_mask=ours[0] & theirs[0],
        )

    # -- WM change entry points ------------------------------------------------

    def on_insert(self, wme: StoredTuple) -> None:
        self._trace_match("insert", wme, self._insert_impl)

    def on_delete(self, wme: StoredTuple) -> None:
        self._trace_match("delete", wme, self._delete_impl)

    def _insert_impl(self, wme: StoredTuple) -> None:
        self._event_profile = {}
        seeded: list[tuple[RuleAnalysis, AnalyzedCondition, StoredTuple]] = []
        self._insert_maintenance(wme, seeded)
        self._close_event_profile()
        for analysis, condition, seed in seeded:
            self._select_seeded(analysis, condition, seed)

    def _delete_impl(self, wme: StoredTuple) -> None:
        self._event_profile = {}
        fired: dict[int, tuple[RuleAnalysis, AnalyzedCondition, PatternTuple]] = {}
        self._delete_maintenance(wme, fired)
        self._close_event_profile()
        for analysis, condition, pattern in fired.values():
            self._select_pattern(analysis, condition, pattern)

    def _apply_delta(self, batch: DeltaBatch) -> None:
        """Set-at-a-time maintenance (§4.2.3): one pass, deferred selection.

        Pattern maintenance runs per delta in batch order, but the §4.2.3
        parallelism profile closes once for the whole batch — maintenance
        targeting distinct COND relations anywhere in the batch is
        independent, so the batch is the paper's natural parallel unit.
        Act-time selections (§5.1) are collected during the pass and run
        once at the end, deduplicated; every selection evaluates against
        the post-batch working memory, so deferral cannot admit blocked or
        dead instantiations.
        """
        self._event_profile = {}
        seeded: list[tuple[RuleAnalysis, AnalyzedCondition, StoredTuple]] = []
        fired: dict[int, tuple[RuleAnalysis, AnalyzedCondition, PatternTuple]] = {}
        for delta in batch:
            if delta.op == INSERT:
                self._insert_maintenance(delta.wme, seeded)
            else:
                self._delete_maintenance(delta.wme, fired)
        self._close_event_profile()
        for analysis, condition, seed in seeded:
            self._select_seeded(analysis, condition, seed)
        for analysis, condition, pattern in fired.values():
            self._select_pattern(analysis, condition, pattern)

    def _insert_maintenance(
        self,
        wme: StoredTuple,
        seeded: list[tuple[RuleAnalysis, AnalyzedCondition, StoredTuple]],
    ) -> None:
        """COND-relation maintenance for one insertion.

        Selections earned by fired patterns are appended to *seeded* for the
        caller to run after maintenance settles.
        """
        contributor: WmeKey = (wme.relation, wme.tid)
        for analysis, condition in self._by_class.get(wme.relation, []):
            store = self.stores[condition.class_name]
            patterns, bindings = store.matches_of(
                condition, analysis.name, wme
            )
            if not patterns:
                continue
            if condition.negated:
                self._retract_blocked(analysis, condition, wme)
                self._propagate(
                    analysis,
                    condition,
                    [store.template(analysis.name, condition.cond_number)],
                    bindings,
                    contributor,
                    check_compatibility=False,
                )
            else:
                if self._union_full(analysis, condition, patterns):
                    seeded.append((analysis, condition, wme))
                self._propagate(
                    analysis,
                    condition,
                    patterns,
                    bindings,
                    contributor,
                    check_compatibility=True,
                )

    def _delete_maintenance(
        self,
        wme: StoredTuple,
        fired: dict[int, tuple[RuleAnalysis, AnalyzedCondition, PatternTuple]],
    ) -> None:
        """Support withdrawal for one deletion.

        Patterns whose inverted marks become full (a blocker vanished) are
        recorded in *fired* — keyed by pattern identity so a pattern
        transitioning repeatedly within one batch selects once.  On an
        *approximate* pattern (post-folding) the blocked→full transition
        test is unreliable — folded-in supports can keep unrelated marks
        non-zero — so any blocker withdrawal fires it; over-firing only
        costs a counted false drop because act-time selection is exact.
        """
        self.conflict_set.remove_wme(wme)
        contributor: WmeKey = (wme.relation, wme.tid)
        conditions = self._conditions
        profile = self._event_profile
        updated = 0
        for pattern, rce_index in self._support_index.pop(contributor, ()):
            entry = conditions[(pattern.rid, pattern.cen)]
            marks, positive = entry.marks, entry.positive
            unblocks = entry.unblocking >> rce_index & 1
            was_full = unblocks and pattern.mask & marks == positive
            if not pattern.remove_support(rce_index, contributor):
                continue
            updated += 1
            store = entry.store
            profile[store.class_name] = profile.get(store.class_name, 0) + 1
            if unblocks and (
                pattern.approximate
                or (not was_full and pattern.mask & marks == positive)
            ):
                fired[id(pattern)] = (entry.analysis, entry.condition, pattern)
            if not pattern.mask and not pattern.original:
                store.discard(pattern)
        self.counters.patterns_updated += updated

    # -- §4.2.3 parallelism accounting ------------------------------------------

    def _close_event_profile(self) -> None:
        if not self._event_profile:
            return
        self.maintenance_serial_ops += sum(self._event_profile.values())
        self.maintenance_parallel_ops += max(self._event_profile.values())
        self._event_profile = {}

    def parallel_speedup_estimate(self) -> float:
        """Maintenance speedup if propagation to distinct COND relations
        ran in parallel (§4.2.3: "our scheme can be fully parallelized").

        Ratio of serial maintenance operations to the sum of per-event
        maxima over target relations; 1.0 when nothing was parallelizable.
        """
        if self.maintenance_parallel_ops == 0:
            return 1.0
        return self.maintenance_serial_ops / self.maintenance_parallel_ops

    # -- propagation (the maintenance process, §4.2.2 / §5) -------------------

    def _propagate(
        self,
        analysis: RuleAnalysis,
        condition: AnalyzedCondition,
        sources: list[PatternTuple],
        bindings: dict[str, Value],
        contributor: WmeKey,
        check_compatibility: bool,
    ) -> None:
        """Propagate the bindings of one matched tuple to the COND rows of
        its condition's related elements, once per matched pattern.

        For positive *sources* this records support; for a negated source
        (``check_compatibility=False``) it records a blocker.  Both create
        new matching patterns when the propagated bindings specialize an
        existing row.

        Every source is a pattern of *condition* matched by the same tuple,
        so all of them propagate the same bindings to the same related
        groups: each group is searched once and only the §4.2.2 mark test
        runs per source.  A pattern an earlier source creates here is not
        shown to a later one — it already carries this contributor's
        support, so revisiting it could only be a no-op.  For the same
        reason a source is skipped when its unset shared marks include an
        earlier source's: every target it accepts, the earlier one did.
        """
        rid = analysis.name
        index = condition.index
        profile = self._event_profile
        entries = None  # this contributor's reverse-index entries
        for link in self._links[(rid, index)]:
            store = link.store
            hits = store.compatible_with(
                rid, link.cen, specialize(link.template, bindings)
            )
            if not hits:
                continue
            added = 0
            done: list[int] = []
            for source in sources:
                # §4.2.2: "each Mark bit must be set in T if the
                # corresponding Mark bit is set in the matching tuple M"
                # over the shared marks; *unmarked* holds those not set in
                # M.  An approximate target (folding compaction) carries
                # inflated marks that prove nothing, so it always passes:
                # pruning on it could lose the only row able to accept a
                # later contributor's support.
                unmarked = (
                    link.shared_mask & ~source.mask
                    if check_compatibility
                    else 0
                )
                if any(seen & ~unmarked == 0 for seen in done):
                    continue
                done.append(unmarked)
                for target, merged in hits:
                    if target.mask & unmarked and not target.approximate:
                        continue
                    if merged is target.restrictions:
                        adjusted = target
                    else:
                        adjusted, created = store.find_or_create(
                            target, merged
                        )
                        if created:
                            self._register_copied_supports(adjusted)
                    if adjusted.add_support(index, contributor):
                        added += 1
                        if entries is None:
                            entries = self._support_index.setdefault(
                                contributor, {}
                            )
                        entries[(adjusted, index)] = None
            if added:
                self.counters.patterns_updated += added
                name = store.class_name
                profile[name] = profile.get(name, 0) + added

    def _register_copied_supports(self, pattern: PatternTuple) -> None:
        """Index the contributors a freshly-created pattern inherited."""
        for rce_index, bucket in pattern.supports.items():
            for contributor in bucket:
                self._index_support(contributor, pattern, rce_index)

    def _index_support(
        self, contributor: WmeKey, pattern: PatternTuple, rce_index: int
    ) -> None:
        """Remember, for exact deletion, that *pattern* counts *contributor*
        under *rce_index*."""
        self._support_index.setdefault(contributor, {})[
            (pattern, rce_index)
        ] = None

    def _union_full(
        self,
        analysis: RuleAnalysis,
        condition: AnalyzedCondition,
        matched: list[PatternTuple],
    ) -> bool:
        """Fire gate: every positive related condition is supported by some
        matched pattern.

        A single pattern carrying all Marks (the paper's criterion) implies
        this, but support recorded on sibling specializations also counts —
        merging into an existing pattern does not re-copy marks, so the
        single-pattern test alone can miss completions.  Candidates passing
        this gate still go through exact act-time selection (§5.1), which
        also enforces negated conditions, so over-admission costs only a
        counted false drop.
        """
        entry = self._conditions[(analysis.name, condition.cond_number)]
        positive = entry.positive
        union = 0
        for pattern in matched:
            union |= pattern.mask
        return union & positive == positive

    # -- act-time selection (§5.1) -----------------------------------------------

    def _select_seeded(
        self,
        analysis: RuleAnalysis,
        condition: AnalyzedCondition,
        wme: StoredTuple,
    ) -> None:
        """Select WM combinations for a fired pattern matched by *wme*."""
        found = False
        for result in evaluate(
            analysis.to_conjuncts(),
            self.wm.catalog,
            counters=self.counters,
            seed_index=condition.index,
            seed_row=wme,
        ):
            found = True
            self.conflict_set.add(result_to_instantiation(analysis, result))
        if not found:
            self.counters.false_drops += 1

    def _select_pattern(
        self,
        analysis: RuleAnalysis,
        condition: AnalyzedCondition,
        pattern: PatternTuple,
    ) -> None:
        """Select WM combinations within a pattern's pinned bindings."""
        store = self.stores[condition.class_name]
        seed_bindings = store.pattern_bindings(pattern)
        found = False
        for result in evaluate(
            analysis.to_conjuncts(),
            self.wm.catalog,
            counters=self.counters,
            seed_bindings=seed_bindings,
        ):
            found = True
            self.conflict_set.add(result_to_instantiation(analysis, result))
        if not found:
            self.counters.false_drops += 1

    def _retract_blocked(
        self,
        analysis: RuleAnalysis,
        condition: AnalyzedCondition,
        wme: StoredTuple,
    ) -> None:
        """A new negated-condition witness retracts blocked instantiations."""
        schema = self.wm.schema(wme.relation)
        check = self._checks.get(id(condition))
        for instantiation in self.conflict_set.for_rule(analysis.name):
            env = match_condition(
                condition, schema, wme, instantiation.binding_map(),
                check=check,
            )
            if env is not None:
                self.conflict_set.remove(instantiation)

    # -- compaction (§4.2.3 future work) ---------------------------------------

    def compact(self, max_per_condition: int | None = None) -> int:
        """Compact the COND relations; returns the patterns removed.

        Without a cap only strictly-subsumed patterns go; with
        *max_per_condition* each condition's group is folded down to the
        cap, trading match precision (counted false drops) for space — see
        :meth:`repro.match.patterns.store.PatternStore.compact`.
        """

        def on_transfer(target: PatternTuple, rce_index: int, contributors) -> None:
            for contributor in contributors:
                self._index_support(contributor, target, rce_index)

        return sum(
            store.compact(max_per_condition, on_transfer)
            for store in self.stores.values()
        )

    # -- display / accounting ------------------------------------------------------

    def explain(self, rule_name: str):
        """Base diagnosis enriched with the COND relations' mark state."""
        diagnosis = super().explain(rule_name)
        analysis = self.analyses[rule_name]
        negated = self._negated_indices[rule_name]
        for entry in diagnosis.conditions:
            condition = analysis.condition(entry.cond_number)
            store = self.stores[condition.class_name]
            group = store.group(rule_name, entry.cond_number)
            entry.detail["patterns"] = len(group)
            entry.detail["full_patterns"] = sum(
                1 for p in group if p.is_full(negated)
            )
            entry.detail["mark_bits"] = sorted(
                {p.mark_bits(negated) for p in group}
            )
        return diagnosis

    def cond_rows(self, class_name: str) -> list[dict[str, str]]:
        """The COND relation of *class_name* in the paper's table format."""
        return self.stores[class_name].display_rows(self._negated_indices)

    def describe(self) -> dict:
        """Base summary plus per-COND-relation pattern cardinalities and,
        per (RID, CEN) group, the shape directory's size and skew — the
        pattern scheme's analogue of per-node Rete introspection."""
        description = super().describe()
        description["stores"] = {
            class_name: {
                "patterns": store.pattern_count(),
                "derived": store.derived_count(),
                "cells": store.cell_count(),
                "groups": store.describe_groups(),
            }
            for class_name, store in sorted(self.stores.items())
        }
        description["maintenance"] = {
            "serial_ops": self.maintenance_serial_ops,
            "parallel_ops": self.maintenance_parallel_ops,
        }
        description["compile"] = {"checks": len(self._checks)}
        return description

    def space_report(self) -> SpaceReport:
        patterns = sum(store.pattern_count() for store in self.stores.values())
        derived = sum(store.derived_count() for store in self.stores.values())
        cells = sum(store.cell_count() for store in self.stores.values())
        return SpaceReport(
            strategy=self.strategy_name,
            wm_tuples=self.wm.size(),
            stored_tokens=0,
            stored_patterns=patterns,
            marker_entries=0,
            estimated_cells=cells,
            detail={
                "templates": patterns - derived,
                "derived_patterns": derived,
            },
        )

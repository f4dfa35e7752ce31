"""Compiling rules into a Rete network.

Two modes:

* ``share=False`` — the naive OPS5 compilation of §3.1/Figure 3: each rule
  gets its own alpha tests and its own join chain.
* ``share=True``  — the multiple-query-optimized network §3.2/§6 call for:
  alpha memories are shared by (class, tests) and join chains are shared by
  common prefix, so "multiple relation accesses" for common sub-conditions
  are avoided.

Join order follows LHS order, as OPS5's compiler does; variable tests are
placed at the first level where both endpoints are bound.  Memories can be
mirrored into storage-engine relations (the LEFT/RIGHT relations of the
§3.2 DBMS implementation) by passing a mirror catalog.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.delta import DeltaBatch
from repro.engine.conflict import ConflictSet
from repro.errors import RuleError
from repro.instrument import Counters
from repro.lang.analysis import AnalyzedCondition, RuleAnalysis
from repro.match.compile import attach_network_kernels
from repro.match.rete.runtime import (
    AlphaMemory,
    BetaMemory,
    JoinNode,
    JoinTest,
    MemoryMirror,
    NegativeNode,
    ProductionNode,
    ReteRuntime,
)
from repro.storage.catalog import Catalog
from repro.storage.predicate import (
    AttributeComparison,
    Predicate,
    conjunction,
    reverse_operator,
)
from repro.storage.schema import RelationSchema
from repro.storage.tuples import StoredTuple


@dataclass
class ReteNetwork:
    """A compiled network plus its runtime state."""

    counters: Counters
    runtime: ReteRuntime
    conflict_set: ConflictSet
    top: BetaMemory
    alpha_by_class: dict[str, list[AlphaMemory]] = field(default_factory=dict)
    alpha_memories: list[AlphaMemory] = field(default_factory=list)
    beta_memories: list[BetaMemory] = field(default_factory=list)
    join_nodes: list[JoinNode] = field(default_factory=list)
    negative_nodes: list[NegativeNode] = field(default_factory=list)
    production_nodes: list[ProductionNode] = field(default_factory=list)
    mirrors: list[MemoryMirror] = field(default_factory=list)
    mirror_catalog: Catalog | None = None
    #: Attach-time compilation summary (``repro.match.compile``): compiled
    #: kernel and alpha-test counts plus the compile time in ns.
    compile_summary: dict | None = None
    #: Per-rule join chain, recorded at compile time: one
    #: ``(condition, alpha_memory, two_input_node)`` triple per condition
    #: element, in LHS order.  The chain is *static* in this network (one
    #: linear chain per rule, joins in LHS order), which is what lets
    #: lineage capture (:mod:`repro.obs.xray`) reconstruct a token's join
    #: path without tagging any token on the hot path.
    rule_chains: dict[str, list[tuple]] = field(default_factory=dict)

    def insert(self, wme: StoredTuple) -> None:
        """Propagate a "+" token through the network."""
        self.counters.tokens += 1
        for amem in self.alpha_by_class.get(wme.relation, ()):
            if amem.try_activate(wme):
                self.runtime.register_alpha(wme, amem)

    def remove(self, wme: StoredTuple) -> None:
        """Propagate a "−" token: retract everything built on *wme*."""
        self.counters.tokens += 1
        self.runtime.remove_wme(wme)

    def apply_batch(self, batch: DeltaBatch) -> None:
        """Propagate a whole delta batch set-at-a-time (§4.2.3 for Rete).

        The batch is netted first (an element born and destroyed inside
        one batch never touches a join), then propagated in two phases:

        1. every "−" token retracts its token tree; negative-node unblocks
           are deferred and re-propagated as *sets* once all deletes ran;
        2. "+" tokens flow as one token set per WM class — each alpha
           memory filters the set in bulk and each successor join probes
           its opposing memory once for the whole admitted set.

        Mirrored LEFT/RIGHT relations buffer their writes for the duration
        and flush through ``insert_many``/``delete_many`` in one catalog
        transaction.  The final network state (memories, witness sets,
        conflict set) equals the tuple-at-a-time result: deltas of distinct
        elements commute, and each probe joins a consistent snapshot of the
        opposing memory, so every cross pair of the batch's own deltas is
        produced exactly once (the semi-naive two-sided delta-join
        argument; see ``docs/ALGORITHMS.md`` §8).
        """
        batch = batch.net()
        if not batch:
            return
        runtime = self.runtime
        runtime.batch_seq += 1
        for mirror in self.mirrors:
            mirror.begin_buffer()
        try:
            deletes = batch.deletes
            if deletes:
                runtime.pending_unblocks = {}
                try:
                    for delta in deletes:
                        self.counters.tokens += 1
                        runtime.remove_wme(delta.wme)
                    pending = runtime.pending_unblocks
                finally:
                    runtime.pending_unblocks = None
                for node, entries in pending.items():
                    node.flush_unblocked(runtime, entries, "(unblock)")
            groups: dict[str, list[StoredTuple]] = {}
            for delta in batch.inserts:
                groups.setdefault(delta.relation, []).append(delta.wme)
            for class_name, wmes in groups.items():
                self.counters.tokens += len(wmes)
                for amem in self.alpha_by_class.get(class_name, ()):
                    admitted = amem.insert_set(wmes)
                    for wme in admitted:
                        runtime.register_alpha(wme, amem)
                    if admitted:
                        # Downstream-first, mirroring ``try_activate``: with
                        # a shared alpha memory a deep join must consume the
                        # admitted set before upstream joins push the same
                        # set's tokens into its left memory.
                        for successor in reversed(list(amem.successors)):
                            successor.right_activate_set(admitted, class_name)
        finally:
            self._flush_mirrors()

    def _flush_mirrors(self) -> None:
        if not self.mirrors:
            return
        if self.mirror_catalog is not None:
            with self.mirror_catalog.transaction():
                for mirror in self.mirrors:
                    mirror.flush_buffer()
        else:
            for mirror in self.mirrors:
                mirror.flush_buffer()

    # -- introspection / accounting ----------------------------------------

    def node_count(self) -> int:
        """One-input + two-input + production node total."""
        return (
            len(self.alpha_memories)
            + len(self.join_nodes)
            + len(self.negative_nodes)
            + len(self.production_nodes)
        )

    def stored_tokens(self) -> int:
        """Tokens/elements held in memories (the paper's redundancy)."""
        alpha = sum(len(am) for am in self.alpha_memories)
        # The dummy top token is bookkeeping, not a stored match.
        beta = sum(len(bm) for bm in self.beta_memories) - 1
        negative = sum(n.stored_results() for n in self.negative_nodes)
        return alpha + beta + negative

    def stored_cells(self) -> int:
        """Attribute cells held in memories (tuples stored at full width)."""
        cells = 0
        for amem in self.alpha_memories:
            for wme in amem.wmes():
                cells += len(wme.values)
        for bmem in self.beta_memories:
            for token in bmem.tokens():
                for wme in token.chain():
                    if wme is not None:
                        cells += len(wme.values)
        return cells

    def describe(self) -> dict:
        """The node graph with live per-node gauges, JSON-ready.

        ``nodes`` carries one entry per network node (memory sizes and,
        per persistent join index, its key, bucket count and largest
        bucket — a skewed key whose probes degenerate into scans shows
        as ``largest`` ≈ ``size``; probe counts, largest batch group,
        negative witness counts), ``edges``
        the dataflow arcs, ``rules`` each rule's static join chain (node
        ids in LHS order), ``counts`` the aggregate totals.  This is the
        engine-side answer to "which join is hot / which memory is big"
        without attaching a debugger.
        """
        nodes: list[dict] = []
        edges: list[list[str]] = []
        for amem in self.alpha_memories:
            nodes.append(
                {
                    "id": amem.name,
                    "kind": "alpha",
                    "class": amem.class_name,
                    "size": len(amem),
                    "indexes": _index_stats(amem.indexes),
                }
            )
            for successor in amem.successors:
                edges.append([amem.name, successor.name])
        for bmem in self.beta_memories:
            nodes.append(
                {
                    "id": bmem.name,
                    "kind": "beta",
                    "level": bmem.level,
                    "size": len(bmem),
                    "indexes": _index_stats(bmem.indexes),
                }
            )
            for child in bmem.children:
                edges.append([bmem.name, child.name])
        for join in self.join_nodes:
            entry = {
                "id": join.name,
                "kind": "join",
                "left": join.bmem.name,
                "right": join.amem.name,
                "left_size": len(join.bmem),
                "right_size": len(join.amem),
                "tests": len(join.tests),
                "probes": join.probes,
                "max_group": join.max_group,
            }
            if join.plan is not None:
                entry["plan"] = join.plan.describe()
            nodes.append(entry)
        for negative in self.negative_nodes:
            entry = {
                "id": negative.name,
                "kind": "negative",
                "left": negative.bmem.name,
                "right": negative.amem.name,
                "left_size": len(negative.bmem),
                "right_size": len(negative.amem),
                "tests": len(negative.tests),
                "probes": negative.probes,
                "max_group": negative.max_group,
                "witnesses": negative.stored_results(),
            }
            if negative.plan is not None:
                entry["plan"] = negative.plan.describe()
            nodes.append(entry)
        for production in self.production_nodes:
            node_id = f"p:{production.analysis.name}"
            nodes.append(
                {
                    "id": node_id,
                    "kind": "production",
                    "rule": production.analysis.name,
                    "size": len(production.items),
                }
            )
        for two_input in [*self.join_nodes, *self.negative_nodes]:
            for child in two_input.children:
                if isinstance(child, ProductionNode):
                    edges.append(
                        [two_input.name, f"p:{child.analysis.name}"]
                    )
                else:
                    edges.append([two_input.name, child.name])
        return {
            "nodes": nodes,
            "edges": edges,
            "rules": {
                rule: [node.name for _, _, node in chain]
                for rule, chain in sorted(self.rule_chains.items())
            },
            "counts": {
                "alpha_memories": len(self.alpha_memories),
                "beta_memories": len(self.beta_memories),
                "join_nodes": len(self.join_nodes),
                "negative_nodes": len(self.negative_nodes),
                "production_nodes": len(self.production_nodes),
                "stored_tokens": self.stored_tokens(),
                "stored_cells": self.stored_cells(),
            },
            "compile": self.compile_summary,
        }

    def to_dot(self) -> str:
        """The node graph as Graphviz DOT (``dot -Tsvg`` renders it)."""
        description = self.describe()
        shapes = {
            "alpha": "ellipse",
            "beta": "box",
            "join": "diamond",
            "negative": "diamond",
            "production": "doubleoctagon",
        }
        lines = ["digraph rete {", "  rankdir=TB;"]
        for node in description["nodes"]:
            kind = node["kind"]
            label = node["id"]
            if kind == "alpha":
                label = f"{node['id']}\\n{node['class']} ({node['size']})"
            elif kind == "beta":
                label = f"{node['id']}\\nlevel {node['level']} ({node['size']})"
            elif kind in ("join", "negative"):
                extra = (
                    f"\\nwitnesses {node['witnesses']}"
                    if kind == "negative"
                    else ""
                )
                label = f"{node['id']}\\nprobes {node['probes']}{extra}"
            elif kind == "production":
                label = f"{node['rule']}\\n({node['size']})"
            style = ' style=dashed' if kind == "negative" else ""
            lines.append(
                f'  "{node["id"]}" [shape={shapes[kind]} '
                f'label="{label}"{style}];'
            )
        for src, dst in description["edges"]:
            lines.append(f'  "{src}" -> "{dst}";')
        lines.append("}")
        return "\n".join(lines)


def _index_stats(indexes: dict[tuple, dict]) -> list[dict]:
    """Key, bucket count and largest bucket of each persistent index."""
    return [
        {
            "on": list(spec),
            "buckets": len(index),
            "largest": max(map(len, index.values()), default=0),
        }
        for spec, index in indexes.items()
    ]


@dataclass(frozen=True)
class _VariableUse:
    """One occurrence of a variable: (condition index, attribute, op)."""

    ce_index: int
    attribute: str
    op: str


def _binding_sites(
    conditions: tuple[AnalyzedCondition, ...]
) -> dict[str, tuple[int, str]]:
    """First positive '=' occurrence of each variable, in LHS order."""
    sites: dict[str, tuple[int, str]] = {}
    for condition in conditions:
        if condition.negated:
            continue
        for attribute, variable in condition.equalities:
            sites.setdefault(variable, (condition.index, attribute))
    return sites


def _variable_tests(
    analysis: RuleAnalysis,
    schemas: dict[str, RelationSchema],
) -> tuple[list[tuple[int, AttributeComparison]], list[tuple[int, JoinTest]]]:
    """Derive intra-element and join tests from variable occurrences.

    Returns ``(alpha_tests, join_tests)`` where each entry is tagged with
    the condition index the test is evaluated at.
    """
    sites = _binding_sites(analysis.conditions)
    alpha_tests: list[tuple[int, AttributeComparison]] = []
    join_tests: list[tuple[int, JoinTest]] = []
    for condition in analysis.conditions:
        for attribute, variable in condition.equalities:
            _append_variable_test(
                analysis, schemas, sites, variable,
                _VariableUse(condition.index, attribute, "="),
                alpha_tests, join_tests,
            )
        for residual in condition.residual:
            _append_variable_test(
                analysis, schemas, sites, residual.variable,
                _VariableUse(condition.index, residual.attribute, residual.op),
                alpha_tests, join_tests,
            )
    return alpha_tests, join_tests


def _append_variable_test(
    analysis: RuleAnalysis,
    schemas: dict[str, RelationSchema],
    sites: dict[str, tuple[int, str]],
    variable: str,
    use: _VariableUse,
    alpha_tests: list[tuple[int, AttributeComparison]],
    join_tests: list[tuple[int, JoinTest]],
) -> None:
    site = sites.get(variable)
    if site is None:
        raise RuleError(
            f"rule {analysis.name!r}: variable <{variable}> is never bound"
        )
    site_index, site_attribute = site
    if (use.ce_index, use.attribute) == site and use.op == "=":
        return  # the binding occurrence itself tests nothing
    use_schema = schemas[analysis.conditions[use.ce_index].class_name]
    site_schema = schemas[analysis.conditions[site_index].class_name]
    if use.ce_index == site_index:
        alpha_tests.append(
            (
                use.ce_index,
                AttributeComparison(use.attribute, use.op, site_attribute),
            )
        )
    elif site_index < use.ce_index:
        join_tests.append(
            (
                use.ce_index,
                JoinTest(
                    own_position=use_schema.position(use.attribute),
                    op=use.op,
                    levels_up=use.ce_index - site_index,
                    other_position=site_schema.position(site_attribute),
                ),
            )
        )
    else:
        # The variable is bound *later* than this (residual) use: evaluate
        # at the binding level, with the comparison reversed.
        join_tests.append(
            (
                site_index,
                JoinTest(
                    own_position=site_schema.position(site_attribute),
                    op=reverse_operator(use.op),
                    levels_up=site_index - use.ce_index,
                    other_position=use_schema.position(use.attribute),
                ),
            )
        )


class NetworkBuilder:
    """Builds a :class:`ReteNetwork` from analyzed rules."""

    def __init__(
        self,
        schemas: dict[str, RelationSchema],
        counters: Counters | None = None,
        share: bool = False,
        mirror_catalog: Catalog | None = None,
    ) -> None:
        self.schemas = schemas
        self.counters = counters or Counters()
        self.share = share
        self.mirror_catalog = mirror_catalog
        self._mirror_serial = 0
        self._alpha_cache: dict[tuple, AlphaMemory] = {}
        self._join_cache: dict[tuple, JoinNode] = {}
        self._negative_cache: dict[tuple, NegativeNode] = {}
        self._bmem_cache: dict[tuple, BetaMemory] = {}
        runtime = ReteRuntime(self.counters)
        top = BetaMemory("top", 0, self.counters)
        top.make_dummy()
        self.network = ReteNetwork(
            counters=self.counters,
            runtime=runtime,
            conflict_set=ConflictSet(),
            top=top,
            mirror_catalog=mirror_catalog,
        )
        self.network.beta_memories.append(top)

    # -- mirrors --------------------------------------------------------------

    def _mirror(self, prefix: str, arity: int) -> MemoryMirror | None:
        if self.mirror_catalog is None:
            return None
        self._mirror_serial += 1
        mirror = MemoryMirror(
            self.mirror_catalog, f"{prefix}_{self._mirror_serial}", arity
        )
        self.network.mirrors.append(mirror)
        return mirror

    # -- alpha network ----------------------------------------------------------

    def _alpha_memory(
        self,
        analysis: RuleAnalysis,
        condition: AnalyzedCondition,
        intra_tests: list[AttributeComparison],
    ) -> AlphaMemory:
        predicate: Predicate = conjunction(
            [condition.constant_predicate, *intra_tests]
        )
        key_tests = _predicate_key(predicate)
        key: tuple = (condition.class_name, key_tests)
        if not self.share:
            key = (analysis.name, condition.index, *key)
        cached = self._alpha_cache.get(key)
        if cached is not None:
            return cached
        schema = self.schemas[condition.class_name]
        amem = AlphaMemory(
            name=f"am{len(self.network.alpha_memories)}",
            class_name=condition.class_name,
            test=None,
            counters=self.counters,
            mirror=self._mirror("am", 1),
            arity=schema.arity,
        )
        # Stashed for attach-time lowering (``repro.match.compile``): the
        # kernel compiler generates ``test`` from the predicate AST.
        amem.predicate = predicate
        amem.schema = schema
        self._alpha_cache[key] = amem
        self.network.alpha_memories.append(amem)
        self.network.alpha_by_class.setdefault(condition.class_name, []).append(
            amem
        )
        return amem

    # -- beta network -------------------------------------------------------------

    def _beta_memory_below(self, node: JoinNode | NegativeNode,
                           level: int, rule_tag: tuple) -> BetaMemory:
        key = ("bmem", id(node), *rule_tag)
        cached = self._bmem_cache.get(key)
        if cached is not None:
            return cached
        bmem = BetaMemory(
            name=f"bm{len(self.network.beta_memories)}",
            level=level,
            counters=self.counters,
            mirror=self._mirror("bm", level),
        )
        node.children.append(bmem)
        self._bmem_cache[key] = bmem
        self.network.beta_memories.append(bmem)
        return bmem

    def _two_input_node(
        self,
        bmem: BetaMemory,
        amem: AlphaMemory,
        tests: tuple[JoinTest, ...],
        negated: bool,
        rule_tag: tuple,
    ) -> JoinNode | NegativeNode:
        cache = self._negative_cache if negated else self._join_cache
        key = (id(bmem), id(amem), tuple(t.key() for t in tests), *rule_tag)
        cached = cache.get(key)
        if cached is not None:
            return cached
        if negated:
            node: JoinNode | NegativeNode = NegativeNode(
                name=f"neg{len(self.network.negative_nodes)}",
                bmem=bmem,
                amem=amem,
                tests=tests,
                counters=self.counters,
            )
            self.network.negative_nodes.append(node)
        else:
            node = JoinNode(
                name=f"j{len(self.network.join_nodes)}",
                bmem=bmem,
                amem=amem,
                tests=tests,
                counters=self.counters,
            )
            self.network.join_nodes.append(node)
        node.runtime = self.network.runtime
        cache[key] = node
        return node

    # -- rules ----------------------------------------------------------------------

    def add_rule(self, analysis: RuleAnalysis) -> ProductionNode:
        """Compile one rule into the network; returns its terminal node."""
        alpha_tagged, join_tagged = _variable_tests(analysis, self.schemas)
        rule_tag = () if self.share else (analysis.name,)

        current: BetaMemory = self.network.top
        last_node: JoinNode | NegativeNode | None = None
        count = len(analysis.conditions)
        chain: list[tuple] = []
        for condition in analysis.conditions:
            intra = [t for i, t in alpha_tagged if i == condition.index]
            joins = tuple(
                sorted(
                    (t for i, t in join_tagged if i == condition.index),
                    key=JoinTest.key,
                )
            )
            amem = self._alpha_memory(analysis, condition, intra)
            node = self._two_input_node(
                current, amem, joins, condition.negated, rule_tag
            )
            chain.append((condition, amem, node))
            last_node = node
            if condition.index < count - 1:
                current = self._beta_memory_below(
                    node, condition.index + 1, rule_tag
                )
        self.network.rule_chains[analysis.name] = chain
        production = ProductionNode(
            analysis=analysis,
            conflict_set=self.network.conflict_set,
            counters=self.counters,
            schemas=self.schemas,
        )
        assert last_node is not None
        last_node.children.append(production)
        self.network.production_nodes.append(production)
        return production

    def build(self, analyses: dict[str, RuleAnalysis]) -> ReteNetwork:
        """Compile every rule, attach its kernels, return the network.

        Raises :class:`repro.match.compile.CompileError`, naming the rule
        and the node, when a node cannot be lowered.
        """
        for analysis in analyses.values():
            self.add_rule(analysis)
        attach_network_kernels(self.network)
        return self.network


def _predicate_key(predicate: Predicate) -> tuple:
    """Canonical, hashable form of a variable-free predicate for sharing."""
    from repro.storage.predicate import (  # local import to avoid cycle noise
        And,
        Comparison,
        Membership,
        TruePredicate,
    )

    if isinstance(predicate, TruePredicate):
        return ("true",)
    if isinstance(predicate, Comparison):
        return (
            ("cmp", predicate.attribute, predicate.op, predicate.value),
        )
    if isinstance(predicate, Membership):
        return (("member", predicate.attribute, predicate.values),)
    if isinstance(predicate, AttributeComparison):
        return (("attrcmp", predicate.left, predicate.op, predicate.right),)
    if isinstance(predicate, And):
        parts: list[tuple] = []
        for part in predicate.parts:
            parts.extend(_predicate_key(part))
        return tuple(sorted(parts, key=repr))
    raise RuleError(f"cannot canonicalize predicate {predicate!r}")


def build_network(
    analyses: dict[str, RuleAnalysis],
    schemas: dict[str, RelationSchema],
    counters: Counters | None = None,
    share: bool = False,
    mirror_catalog: Catalog | None = None,
) -> ReteNetwork:
    """Convenience wrapper: build a network for *analyses* in one call."""
    builder = NetworkBuilder(
        schemas,
        counters=counters,
        share=share,
        mirror_catalog=mirror_catalog,
    )
    return builder.build(analyses)

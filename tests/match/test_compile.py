"""The match compiler: columnar memories, join plans, lowered kernels.

Covers the storage layer the kernels probe (compact row ids with
free-list reuse, mirror consistency under batched churn), the planning
pass (selectivity ordering, the CORGI-style quadratic bound), the alpha
codegen's equivalence with the interpreted predicate walk, and a
property test pinning compiled-vs-interpreted network state over random
op streams.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ProductionSystem
from repro.bench.drivers import drive_stream
from repro.check.oracle import (
    CheckConfig,
    replay_config,
    rete_index_faults,
    rete_memory_snapshot,
)
from repro.check.reference import interpreted
from repro.check.trace import Trace, TraceOp
from repro.engine import WorkingMemory
from repro.instrument import Counters
from repro.lang import analyze_program, parse_program
from repro.obs import Observability, RingBufferSink
from repro.match import STRATEGIES
from repro.match.compile import (
    CompileError,
    JoinPlan,
    PlanBoundError,
    attach_network_kernels,
    compile_alpha_test,
    plan_join,
)
from repro.match.rete.runtime import (
    AlphaMemory,
    BetaMemory,
    JoinTest,
    ReteRuntime,
)
from repro.storage.predicate import (
    And,
    AttributeComparison,
    Comparison,
    Membership,
    Not,
    Or,
    TruePredicate,
)
from repro.storage.schema import RelationSchema
from repro.storage.tuples import StoredTuple

RULES = """
(literalize Task owner state)
(literalize Worker name)
(literalize Hold owner)
(literalize Note owner)
(p assign
    (Task ^owner <w> ^state 0)
    (Worker ^name <w>)
    - (Hold ^owner <w>)
    -->
    (make Note ^owner <w>))
"""


def _wme(tid, values, relation="Task"):
    return StoredTuple(
        relation=relation, tid=tid, timetag=tid, values=tuple(values)
    )


class TestColumnarAlphaMemory:
    def _memory(self):
        return AlphaMemory(
            "a-Task", "Task", lambda values: True, Counters(), arity=2
        )

    def test_rows_are_reused_after_delete_churn(self):
        memory = self._memory()
        first = [_wme(tid, (tid, 0)) for tid in range(8)]
        for wme in first:
            memory.try_activate(wme)
        high_water = len(memory._wme_rows)
        for wme in first[2:6]:
            assert memory.retract(wme)
        assert len(memory._free) == 4
        replacements = [_wme(100 + tid, (tid, 1)) for tid in range(4)]
        for wme in replacements:
            memory.try_activate(wme)
        # Freed rows were recycled: the backing columns never grew.
        assert len(memory._wme_rows) == high_water
        assert not memory._free
        assert len(memory) == 8

    def test_iteration_order_is_insertion_order_across_reuse(self):
        memory = self._memory()
        for tid in range(6):
            memory.try_activate(_wme(tid, (tid, 0)))
        memory.retract(_wme(1, (1, 0)))
        memory.retract(_wme(4, (4, 0)))
        memory.try_activate(_wme(10, (10, 0)))
        memory.try_activate(_wme(11, (11, 0)))
        # Survivors first (in original order), then the late arrivals —
        # exactly what per-token dict storage used to produce.
        assert [w.tid for w in memory.wmes()] == [0, 2, 3, 5, 10, 11]
        assert list(memory.wme_keys()) == [
            ("Task", tid) for tid in (0, 2, 3, 5, 10, 11)
        ]

    def test_columns_track_rows(self):
        memory = self._memory()
        for tid in range(4):
            memory.try_activate(_wme(tid, (tid * 10, tid)))
        memory.retract(_wme(2, (20, 2)))
        memory.try_activate(_wme(9, (90, 9)))
        for row in memory.rows():
            wme = memory.wme_at(row)
            assert memory.column(0)[row] == wme.values[0]
            assert memory.column(1)[row] == wme.values[1]


class TestMirrorConsistency:
    def test_mirror_rows_track_batched_delete_then_insert(self):
        """The rete-dbms LEFT/RIGHT mirror relations must agree with the
        in-memory columnar stores after a batch that deletes and
        re-inserts rows of the same class (free-list reuse territory)."""
        program = parse_program(RULES)
        analyses = analyze_program(program.rules, program.schemas)
        wm = WorkingMemory(program.schemas)
        strategy = STRATEGIES["rete-dbms"](wm, analyses, counters=Counters())
        inserted = []
        with wm.batch():
            for owner in range(6):
                inserted.append(wm.insert("Task", (owner, 0)))
                wm.insert("Worker", (owner,))
        with wm.batch():
            for wme in inserted[1:4]:
                wm.remove(wme)
            for owner in range(10, 14):
                wm.insert("Task", (owner, 0))
        mirrored_memories = [
            a for a in strategy.network.alpha_memories if a.mirror is not None
        ]
        assert mirrored_memories, "rete-dbms mirrors its alpha memories"
        for amem in mirrored_memories:
            mirror = amem.mirror
            mirrored = sorted(row.values for row in mirror.table.scan())
            stored = sorted((w.tid,) for w in amem.wmes())
            assert mirrored == stored, f"{mirror.table.schema.name} diverged"


class TestJoinPlanning:
    def test_equality_tests_key_the_hash_plan(self):
        eq = JoinTest(0, "=", 1, 2)
        residual = JoinTest(1, ">", 1, 0)
        plan = plan_join((residual, eq), level=1)
        assert plan.kind == "hash"
        assert plan.eq_tests == (eq,)
        assert plan.residual == (residual,)
        assert plan.cost_exponent == 1

    def test_residual_only_plan_is_quadratic_but_admitted(self):
        plan = plan_join((JoinTest(0, "<", 1, 1),), level=1)
        assert plan.kind == "nested"
        assert plan.cost_exponent == 2

    def test_residual_ordering_is_by_selectivity(self):
        loose = JoinTest(0, "<>", 1, 0)
        tight = JoinTest(1, "<", 1, 1)
        plan = plan_join((loose, tight), level=1)
        assert plan.residual == (tight, loose)

    def test_cross_product_plan(self):
        plan = plan_join((), level=1)
        assert plan.kind == "cross"
        assert plan.cost_exponent == 1

    def test_chain_walking_plan_is_rejected(self):
        # A residual test reaching above the LEFT memory's level cannot be
        # answered from the slot columns: exponent 3, over the bound.
        with pytest.raises(PlanBoundError):
            plan_join((JoinTest(0, "<", 5, 0),), level=1)
        # The same reach with a hash key is exponent 2 — admitted.
        plan = plan_join(
            (JoinTest(0, "=", 1, 0), JoinTest(0, "<", 5, 0)), level=1
        )
        assert plan.cost_exponent == 2

    def test_describe_shape(self):
        plan = JoinPlan(
            level=2,
            eq_tests=(JoinTest(0, "=", 1, 2),),
            residual=(JoinTest(1, ">", 2, 0),),
        )
        description = plan.describe()
        assert description["kind"] == "hash"
        assert description["eq"] == 1
        assert description["residual"] == [(1, ">", 2, 0)]
        assert description["cost_exponent"] == 1


class TestAttachModes:
    """The production path (kernels on every node) and the reference."""

    def _network(self, strategy_cls=STRATEGIES["rete"]):
        program = parse_program(RULES)
        analyses = analyze_program(program.rules, program.schemas)
        wm = WorkingMemory(program.schemas)
        return strategy_cls(wm, analyses, counters=Counters()).network

    def test_on_attaches_everywhere(self):
        network = self._network()
        assert all(n.kernel is not None for n in network.join_nodes)
        assert all(n.kernel is not None for n in network.negative_nodes)
        summary = network.compile_summary
        assert summary["kernels"] == len(network.join_nodes) + len(
            network.negative_nodes
        )
        assert summary["alpha"] == len(network.alpha_memories)

    def test_describe_carries_compiled_plans(self):
        description = self._network().describe()
        assert description["compile"]["kernels"] > 0
        plans = [
            node["plan"]
            for node in description["nodes"]
            if node.get("plan") is not None
        ]
        assert plans, "compiled join nodes expose their plans"
        assert all("cost_exponent" in plan for plan in plans)

    def test_reference_scans_without_indexes(self):
        network = self._network(interpreted(STRATEGIES["rete"]))
        for node in (*network.join_nodes, *network.negative_nodes):
            assert node.kernel.label == "scan" and node.plan is None
        assert all(not a.indexes for a in network.alpha_memories)
        assert all(not b.indexes for b in network.beta_memories)
        assert network.compile_summary == {"kernels": 0, "alpha": 0, "ns": 0}

    @pytest.mark.parametrize("reference", [False, True])
    def test_compile_attach_reports_what_runs(self, reference):
        """``compile.attach`` and the ``rete.kernel*`` counters describe the
        network as it probes: the interpreted reference reports no
        compiled kernels or alpha tests, since it runs scan kernels."""
        sink = RingBufferSink()
        obs = Observability(sinks=[sink], collect_metrics=True)
        cls = STRATEGIES["rete"]
        system = ProductionSystem(
            RULES, strategy=interpreted(cls) if reference else cls, obs=obs
        )
        network = system.strategy.network
        [span] = sink.spans("compile.attach")
        counters = obs.metrics.snapshot()["counters"]
        expected = {
            "kernels": len(network.join_nodes) + len(network.negative_nodes),
            "alpha": len(network.alpha_memories),
        }
        if reference:
            expected = {"kernels": 0, "alpha": 0}
        else:
            assert expected["kernels"] > 0 and expected["alpha"] > 0
        assert span["attrs"]["kernels"] == expected["kernels"]
        assert span["attrs"]["alpha"] == expected["alpha"]
        assert counters["rete.kernels"] == expected["kernels"]
        assert counters["rete.compiled_alpha"] == expected["alpha"]

    def test_compile_is_not_a_production_system_option(self):
        with pytest.raises(TypeError):
            ProductionSystem(RULES, strategy="rete", compile="on")

    def test_on_raises_when_a_node_cannot_lower(self):
        """A node outside the plan bound is an attach-time error that
        names the rule using it and the node."""
        network = self._network()
        network.join_nodes[0].tests = (
            # Residual-only and reaching far above any level: exponent 3,
            # over the plan bound, so lowering must fail.
            JoinTest(0, "<", 99, 0),
        )
        with pytest.raises(CompileError, match="rule 'assign' node j0"):
            attach_network_kernels(network)


SCHEMA = RelationSchema("thing", ("a", "b", "c"))

#: Every predicate node type the lowering handles, with operand shapes
#: chosen to exercise the type-specialized codegen branches.
PREDICATES = [
    TruePredicate(),
    Comparison("a", "=", 3),
    Comparison("a", "=", "x"),
    Comparison("b", "<>", None),
    Comparison("b", "<", 10),
    Comparison("c", ">=", 2.5),
    Comparison("c", "<", "m"),
    Comparison("a", ">", None),
    Membership("a", (1, "x", None)),
    AttributeComparison("a", "=", "b"),
    AttributeComparison("b", "<", "c"),
    AttributeComparison("a", "<>", "c"),
    And((Comparison("a", "=", 1), Comparison("b", ">", 0))),
    Or((Comparison("a", "=", "x"), Comparison("c", "<", 5))),
    Not(Comparison("b", "=", 2)),
    And(()),
    Or(()),
]

_value = st.one_of(
    st.none(),
    st.integers(min_value=-5, max_value=10),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.sampled_from(["x", "y", "m", "z", ""]),
)


class TestAlphaCodegenEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(row=st.tuples(_value, _value, _value))
    def test_compiled_matches_interpreted_on_random_rows(self, row):
        for predicate in PREDICATES:
            compiled = compile_alpha_test(predicate, SCHEMA)
            assert compiled(row) == predicate.matches(SCHEMA, row), (
                f"{predicate!r} diverged on {row!r}"
            )


def _events(choices):
    """Decode a hypothesis choice list into a driver event stream."""
    events = []
    live = 0
    for kind, payload in choices:
        if kind == "delete":
            if live == 0:
                continue
            events.append(("delete", payload))
            live -= 1
            continue
        events.append(("insert", payload))
        live += 1
    return events


_insert = st.one_of(
    st.tuples(
        st.just("insert"),
        st.tuples(
            st.just("Task"),
            st.tuples(st.integers(0, 4), st.integers(0, 1)),
        ),
    ),
    st.tuples(
        st.just("insert"),
        st.tuples(st.just("Worker"), st.tuples(st.integers(0, 4))),
    ),
    st.tuples(
        st.just("insert"),
        st.tuples(st.just("Hold"), st.tuples(st.integers(0, 4))),
    ),
    st.tuples(st.just("delete"), st.integers(0, 1 << 20)),
)


class TestCompiledKernelProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        choices=st.lists(_insert, max_size=40),
        batch_size=st.sampled_from([1, 7, 64]),
    )
    def test_compiled_network_state_equals_interpreted(
        self, choices, batch_size
    ):
        events = _events(choices)
        program = parse_program(RULES)
        analyses = analyze_program(program.rules, program.schemas)
        results = []
        for strategy_cls in (
            STRATEGIES["rete"], interpreted(STRATEGIES["rete"])
        ):
            wm = WorkingMemory(program.schemas)
            strategy = strategy_cls(wm, analyses, counters=Counters())
            drive_stream(wm, events, batch_size=batch_size)
            results.append(
                (strategy.conflict_set_keys(), rete_memory_snapshot(strategy))
            )
        assert results[0] == results[1]


#: Shaped like the benchmark pack's ``audit-imbalance``: a shared-alpha
#: stock x stock self-join keyed on the part with ``<>`` and ``<``
#: residuals, two site joins, a negated CE (so downstream tokens carry a
#: ``None`` slot) and a two-column key at the last join.
IMBALANCE = """
(literalize stock part site qty)
(literalize site name region)
(literalize hold part)
(literalize audit region)
(p imbalance
    (stock ^part <p> ^site <a> ^qty <q>)
    (stock ^part <p> ^site {<b> <> <a>} ^qty < <q>)
    (site ^name <a> ^region <r>)
    (site ^name <b> ^region <r>)
    -(hold ^part <p>)
    (audit ^region <r>)
    -->
    (remove 6))
"""

_small = st.integers(0, 2)
_index_op = st.one_of(
    st.builds(TraceOp.insert, st.just("stock"),
              st.tuples(_small, _small, st.integers(0, 3))),
    st.builds(TraceOp.insert, st.just("stock"),
              st.tuples(_small, _small, st.integers(0, 3))),
    st.builds(TraceOp.insert, st.just("site"), st.tuples(_small, _small)),
    st.builds(TraceOp.insert, st.just("hold"), st.tuples(_small)),
    st.builds(TraceOp.insert, st.just("audit"), st.tuples(_small)),
    st.builds(TraceOp.delete, st.integers(0, 1 << 16)),
    st.builds(
        TraceOp.modify,
        st.integers(0, 1 << 16),
        st.sampled_from(
            [{"qty": 0}, {"qty": 3}, {"site": 1}, {"part": 2},
             {"region": 0}, {"name": 2}]
        ),
    ),
    st.sampled_from([TraceOp.detach(), TraceOp.attach()]),
)


class TestPersistentIndexes:
    def _network(self, strategy_name="rete"):
        program = parse_program(IMBALANCE)
        analyses = analyze_program(program.rules, program.schemas)
        wm = WorkingMemory(program.schemas)
        strategy = STRATEGIES[strategy_name](wm, analyses, counters=Counters())
        return wm, strategy

    def test_keyed_nodes_register_their_specs_with_both_memories(self):
        _, strategy = self._network()
        network = strategy.network
        keyed = [n for n in network.join_nodes if n.plan.kind == "hash"]
        assert keyed
        for node in (*keyed, *network.negative_nodes):
            eq = node.plan.eq_tests
            assert tuple(t.own_position for t in eq) in node.amem.indexes
            level = node.bmem.level
            left = tuple((level - t.levels_up, t.other_position) for t in eq)
            assert left in node.bmem.indexes
        # Key-less plans ask for nothing: the top memory stays unindexed.
        assert network.top.indexes == {}

    def test_same_spec_on_a_shared_memory_is_one_index(self):
        """rete-shared: both stock CEs test nothing constant, so they
        share one alpha memory; asking for the same key twice must hand
        back the same index object."""
        _, strategy = self._network("rete-shared")
        amem = strategy.network.alpha_by_class["stock"][0]
        assert amem.index_on((0,)) is amem.index_on((0,))
        assert len(amem.indexes) == 1

    def test_index_built_late_covers_existing_rows(self):
        wm, strategy = self._network()
        for part in range(3):
            wm.insert("stock", (part % 2, 0, part))
        amem = strategy.network.alpha_by_class["stock"][0]
        late = amem.index_on((2,))
        assert sorted(late) == [(0,), (1,), (2,)]
        assert rete_index_faults(strategy.network) == []

    def test_none_slot_tokens_are_never_indexed(self):
        """A token whose tested slot is empty (a negated CE level) can
        join nothing: it must stay out of every bucket, through admit
        and removal alike."""
        runtime = ReteRuntime(Counters())
        top = BetaMemory("top", 0, Counters())
        dummy = top.make_dummy()
        bmem = BetaMemory("b", 1, Counters())
        index = bmem.index_on(((0, 0),))
        bmem.left_activate(runtime, dummy, _wme(1, (7, 0)))
        bmem.left_activate(runtime, dummy, None)
        bmem.left_activate(runtime, dummy, _wme(2, (7, 1)))
        assert {key: len(rows) for key, rows in index.items()} == {(7,): 2}
        assert len(bmem) == 3
        for token in bmem.tokens():
            runtime.delete_token(token)
        assert index == {} and len(bmem) == 0

    def test_describe_reports_index_skew(self):
        wm, strategy = self._network()
        for site in range(4):
            wm.insert("stock", (0, site, site))  # one part: one bucket
        node = next(
            n for n in strategy.describe()["nodes"]
            if n["kind"] == "alpha" and n["class"] == "stock" and n["indexes"]
        )
        assert node["indexes"] == [{"on": [0], "buckets": 1, "largest": 4}]

    def test_indexed_probe_counts_lookups_not_scans(self):
        """One ``index_lookups`` per keyed probe plus one ``comparisons``
        per residual test evaluated: growing the opposing memory with
        rows of *other* keys must not change what a probe costs."""
        costs = []
        for bystanders in (0, 50):
            wm, strategy = self._network()
            wm.insert("stock", (0, 0, 5))
            for n in range(bystanders):
                wm.insert("stock", (1 + n, 0, 5))
            counters = strategy.counters
            before = counters.comparisons + counters.index_lookups
            wm.insert("stock", (0, 1, 3))
            costs.append(counters.comparisons + counters.index_lookups - before)
        assert costs[0] == costs[1]

    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(_index_op, max_size=40),
        batch=st.sampled_from([1, 4, 64]),
        strategy_name=st.sampled_from(["rete", "rete-shared"]),
    )
    def test_buckets_equal_the_filtered_scan_after_any_stream(
        self, ops, batch, strategy_name
    ):
        """After any insert/delete/modify/detach/attach stream — at every
        sync point of it and through the recognize-act cycles that
        follow — every index bucket is the key-filtered, insertion-
        ordered scan of its memory, and the compiled run is bit-identical
        to the interpreted scan (conflict sets, fired sequence, memory
        snapshots)."""
        trace = Trace(
            name="indexes", seed=0, program=IMBALANCE, ops=tuple(ops),
            max_cycles=10, batch=batch,
        )
        compiled, reference = (
            replay_config(
                trace,
                CheckConfig(strategy_name, per_op=batch == 1),
                strategies={strategy_name: strategy_cls},
            )
            for strategy_cls in (
                STRATEGIES[strategy_name],
                interpreted(STRATEGIES[strategy_name]),
            )
        )
        for tag, snapshot in compiled.rete_memories.items():
            assert snapshot["index_faults"] == [], tag
        assert compiled.rete_memories == reference.rete_memories
        assert compiled.checkpoints == reference.checkpoints
        assert compiled.fired == reference.fired
        assert compiled.final_wm == reference.final_wm

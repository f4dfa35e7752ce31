"""A1–A4 — ablations of the design choices DESIGN.md calls out.

* A1: parallel maintenance (§4.2.3 "our scheme can be fully parallelized")
  — serial vs simulated-parallel maintenance operation counts.
* A2: pattern compaction (§4.2.3 "compacting them ... is crucial in
  applications with limited space") — space before/after, correctness
  preserved.
* A3: R-tree condition routing in the simplified strategy (§4.1.2) —
  pruning effect as selection-heavy rule bases grow.
* A4 (deadlock policies): §5 detection vs prevention on a deadlock-prone
  workload.

These ablations have no report table; the tests are their only home.
"""

import random

from repro.engine import WorkingMemory
from repro.instrument import Counters
from repro.lang import analyze_program, parse_program
from repro.match.patterns import MatchingPatternsStrategy
from repro.match.query import IndexedSimplifiedStrategy, SimplifiedStrategy
from repro.workload.generator import (
    WorkloadSpec,
    generate_insert_stream,
    generate_program,
)

FANOUT_SPEC = WorkloadSpec(
    rules=12, classes=5, min_conditions=3, max_conditions=3, seed=21
)


def _patterns_system(spec=FANOUT_SPEC):
    workload = generate_program(spec)
    analyses = analyze_program(
        workload.program.rules, workload.program.schemas
    )
    wm = WorkingMemory(workload.program.schemas)
    strategy = MatchingPatternsStrategy(wm, analyses, counters=Counters())
    return wm, strategy


class TestA1ParallelMaintenance:
    def test_fanout_rules_parallelize_maintenance(self):
        wm, strategy = _patterns_system()
        for class_name, values in generate_insert_stream(FANOUT_SPEC, 200):
            wm.insert(class_name, values)
        estimate = strategy.parallel_speedup_estimate()
        assert estimate > 1.0
        assert (
            strategy.maintenance_serial_ops
            >= strategy.maintenance_parallel_ops
        )

    def test_wider_rules_parallelize_more(self):
        def estimate_for(conditions):
            spec = WorkloadSpec(
                rules=12,
                classes=6,
                min_conditions=conditions,
                max_conditions=conditions,
                seed=21,
            )
            wm, strategy = _patterns_system(spec)
            for class_name, values in generate_insert_stream(spec, 150):
                wm.insert(class_name, values)
            return strategy.parallel_speedup_estimate()

        assert estimate_for(4) > estimate_for(1)


class TestA2Compaction:
    def _loaded_system(self):
        wm, strategy = _patterns_system()
        for class_name, values in generate_insert_stream(FANOUT_SPEC, 250):
            wm.insert(class_name, values)
        return wm, strategy

    def test_folding_compaction_reclaims_space(self):
        _, strategy = self._loaded_system()
        before = strategy.space_report().stored_patterns
        removed = strategy.compact(max_per_condition=2)
        after = strategy.space_report().stored_patterns
        assert removed > 0
        assert after == before - removed
        # Every condition group is now at (or under) the cap.
        for store in strategy.stores.values():
            for _key, group in store.groups():
                assert len(group) <= 2

    def test_compaction_preserves_matching(self):
        wm, strategy = self._loaded_system()
        strategy.compact(max_per_condition=2)
        # Continue the stream; a fresh reference strategy must agree.
        rng = random.Random(1)
        extra = generate_insert_stream(FANOUT_SPEC, 50, seed=rng.randint(0, 9))
        for class_name, values in extra:
            wm.insert(class_name, values)
        workload = generate_program(FANOUT_SPEC)
        analyses = analyze_program(
            workload.program.rules, workload.program.schemas
        )
        reference = MatchingPatternsStrategy(wm, analyses, counters=Counters())
        assert strategy.conflict_set_keys() == reference.conflict_set_keys()


class TestA4DeadlockPolicies:
    """Detection vs prevention on a deadlock-prone workload."""

    def _run(self, policy):
        from repro.engine import ProductionSystem
        from repro.txn import ConcurrentScheduler, is_serializable

        source = """
        (literalize A x)
        (literalize B x)
        (p delA (A ^x <V>) (B ^x <V>) --> (remove 1))
        (p delB (A ^x <V>) (B ^x <V>) --> (remove 2))
        """
        system = ProductionSystem(source)
        for i in range(4):
            system.insert("A", {"x": i})
            system.insert("B", {"x": i})
        result = ConcurrentScheduler(system, policy=policy).run()
        assert is_serializable(result.history)
        return result

    def test_all_policies_complete_the_workload(self):
        for policy in ("detect", "wound-wait", "wait-die"):
            result = self._run(policy)
            # one of each (delA, delB) pair commits per x value
            assert result.committed == 4

    def test_prevention_avoids_waits_for_cycles(self):
        # Prevention policies abort eagerly; detection lets the cycle form
        # first.  All terminate, shapes may differ in abort counts.
        detect = self._run("detect")
        wound = self._run("wound-wait")
        assert sum(r.deadlock_aborts for r in detect.rounds) >= 1
        assert wound.committed == detect.committed


SELECTION_HEAVY = "\n".join(
    ["(literalize Emp age salary dno)"]
    + [
        f"(p band{i} (Emp ^age > {i * 5} ^age < {i * 5 + 12}) --> (remove 1))"
        for i in range(40)
    ]
)


class TestA3ConditionRouting:
    def test_index_reduces_comparisons(self):
        program = parse_program(SELECTION_HEAVY)
        analyses = analyze_program(program.rules, program.schemas)
        wm = WorkingMemory(program.schemas)
        plain = SimplifiedStrategy(wm, analyses, counters=Counters())
        indexed = IndexedSimplifiedStrategy(wm, analyses, counters=Counters())
        for i in range(150):
            wm.insert("Emp", (i % 220, 100, 1))
        assert indexed.counters.comparisons < plain.counters.comparisons
        assert plain.conflict_set_keys() == indexed.conflict_set_keys()

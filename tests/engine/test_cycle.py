"""Recognize-act cycle tests (Figure 2 of the paper), over every strategy."""

import pytest

from repro.engine import ProductionSystem
from repro.errors import ExecutionError
from repro.match import STRATEGIES

ALL_STRATEGIES = sorted(STRATEGIES)

COUNTER_SOURCE = """
(literalize Counter value limit)
(p count-up
    (Counter ^value <V> ^limit {<L> > <V>})
    -->
    (modify 1 ^value (compute <V> + 1)))
"""


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
class TestCycleAcrossStrategies:
    def test_counter_runs_to_limit(self, strategy):
        ps = ProductionSystem(COUNTER_SOURCE, strategy=strategy)
        ps.insert("Counter", {"value": 0, "limit": 5})
        result = ps.run()
        assert not result.halted
        assert result.cycles == 5
        (counter,) = ps.wm.tuples("Counter")
        assert counter.values == (5, 5)

    def test_example2_simplification(self, strategy, example2_source):
        ps = ProductionSystem(example2_source, strategy=strategy)
        ps.insert("Goal", {"Type": "Simplify", "Object": "e1"})
        ps.insert("Expression", {"Name": "e1", "Arg1": 0, "Op": "+", "Arg2": 42})
        ps.insert("Goal", {"Type": "Simplify", "Object": "e2"})
        ps.insert("Expression", {"Name": "e2", "Arg1": 0, "Op": "*", "Arg2": 9})
        result = ps.run()
        assert sorted(result.fired_rule_names) == ["PlusOX", "TimesOX"]
        values = sorted(t.values for t in ps.wm.tuples("Expression"))
        assert values == [("e1", None, None, 42), ("e2", 0, None, None)]

    def test_example3_removals_fifo(self, strategy, example3_source):
        # FIFO fires the older R1 instantiation first: Mike goes (he earns
        # more than manager Sam), then R2 removes Sam (floor 1, Toy dept).
        ps = ProductionSystem(
            example3_source, strategy=strategy, resolution="fifo"
        )
        ps.insert("Emp", {"name": "Mike", "salary": 200, "dno": 1, "manager": "Sam"})
        ps.insert("Emp", {"name": "Sam", "salary": 100, "dno": 2, "manager": None})
        ps.insert("Dept", {"dno": 2, "dname": "Toy", "floor": 1, "manager": None})
        result = ps.run()
        assert result.fired_rule_names == ["R1", "R2"]
        assert {t.values[0] for t in ps.wm.tuples("Emp")} == set()

    def test_example3_removals_lex(self, strategy, example3_source):
        # LEX fires the most recent instantiation first: R2 removes Sam,
        # which retracts R1's instantiation, so Mike survives — the Select
        # step really does change the outcome (§2.1).
        ps = ProductionSystem(example3_source, strategy=strategy)
        ps.insert("Emp", {"name": "Mike", "salary": 200, "dno": 1, "manager": "Sam"})
        ps.insert("Emp", {"name": "Sam", "salary": 100, "dno": 2, "manager": None})
        ps.insert("Dept", {"dno": 2, "dname": "Toy", "floor": 1, "manager": None})
        result = ps.run()
        assert result.fired_rule_names == ["R2"]
        assert {t.values[0] for t in ps.wm.tuples("Emp")} == {"Mike"}

    def test_halt_action_stops_run(self, strategy):
        src = """
        (literalize T x)
        (p stop (T ^x go) --> (halt))
        (p spin (T ^x go) --> (make T ^x go))
        """
        ps = ProductionSystem(src, strategy=strategy, resolution="priority")
        # give stop the higher salience via direct source change instead:
        ps2 = ProductionSystem(
            """
            (literalize T x)
            (p stop (salience 10) (T ^x go) --> (halt))
            (p spin (T ^x go) --> (make T ^x go))
            """,
            strategy=strategy,
            resolution="priority",
        )
        ps2.insert("T", {"x": "go"})
        result = ps2.run(max_cycles=50)
        assert result.halted
        assert result.cycles == 1

    def test_refraction_prevents_refiring(self, strategy):
        src = """
        (literalize T x)
        (literalize Log x)
        (p note (T ^x <V>) --> (make Log ^x <V>))
        """
        ps = ProductionSystem(src, strategy=strategy)
        ps.insert("T", {"x": 1})
        result = ps.run(max_cycles=10)
        assert result.cycles == 1  # fires once, then refraction holds
        assert len(list(ps.wm.tuples("Log"))) == 1

    def test_exhaustion_reported(self, strategy):
        src = """
        (literalize T x)
        (p spin (T ^x <V>) --> (modify 1 ^x (compute <V> + 1)))
        """
        ps = ProductionSystem(src, strategy=strategy)
        ps.insert("T", {"x": 0})
        result = ps.run(max_cycles=7)
        assert result.exhausted
        assert result.cycles == 7


PAY = """
(literalize Emp name paid)
(literalize Payout name)
(p pay-all
    (Emp ^name <N> ^paid no)
    -->
    (modify 1 ^paid yes)
    (make Payout ^name <N>))
"""


class TestOneFiringPerCycle:
    def test_instance_mode_takes_one_cycle_each(self):
        system = ProductionSystem(PAY)
        for name in ("a", "b", "c"):
            system.insert("Emp", (name, "no"))
        result = system.run()
        assert result.cycles == 3

    def test_firing_retracts_sibling_instantiations(self):
        # Both instantiations share CE1's element; firing either one
        # modifies it away, so the other never fires.  The elements
        # arrive as one delta batch, the way a caller batching its ops
        # delivers them.
        source = """
        (literalize K a1 a0)
        (p r (K ^a1 1 ^a0 <j>) (K ^a0 <j>) --> (modify 1 ^a1 0))
        """
        system = ProductionSystem(source)
        with system.wm.batch():
            system.insert("K", (1, 5))
            system.insert("K", (0, 5))
        assert len(system.eligible()) == 2
        result = system.run()
        assert result.cycles == 1
        assert sorted(t.values for t in system.wm.tuples("K")) == [
            (0, 5), (0, 5),
        ]

    def test_firing_keyword_rejected(self):
        with pytest.raises(TypeError, match="firing"):
            ProductionSystem(PAY, firing="instance")

    def test_batch_size_keyword_rejected(self):
        with pytest.raises(TypeError, match="batch_size"):
            ProductionSystem(PAY, batch_size=8)


class TestProductionSystemConstruction:
    def test_needs_source_or_rules(self):
        with pytest.raises(ExecutionError, match="needs"):
            ProductionSystem()

    def test_from_rules_and_schemas(self, example3_source):
        from repro.lang import parse_program

        program = parse_program(example3_source)
        ps = ProductionSystem(rules=program.rules, schemas=program.schemas)
        assert set(ps.analyses) == {"R1", "R2"}

    def test_write_output_collected(self):
        src = """
        (literalize T x)
        (p w (T ^x <V>) --> (write |saw| <V>))
        """
        ps = ProductionSystem(src)
        ps.insert("T", {"x": 3})
        ps.run()
        assert ps.output == [("saw", 3)]

    def test_step_returns_none_when_empty(self):
        ps = ProductionSystem("(literalize T x)(p r (T ^x 1) --> (halt))")
        assert ps.step() is None

    def test_random_resolution_reproducible(self):
        src = """
        (literalize T x)
        (literalize Log x)
        (p a (T ^x <V>) --> (make Log ^x 1))
        (p b (T ^x <V>) --> (make Log ^x 2))
        """

        def run(seed):
            ps = ProductionSystem(src, resolution="random", seed=seed)
            ps.insert("T", {"x": 0})
            return ps.run().fired_rule_names

        assert run(5) == run(5)


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
class TestPruneRefraction:
    SOURCE = """
    (literalize T x)
    (literalize Block x)
    (literalize Log x)
    (p note (T ^x <V>) -(Block ^x <V>) --> (make Log ^x <V>))
    """

    def test_drops_only_keys_naming_removed_elements(self, backend):
        ps = ProductionSystem(self.SOURCE, backend=backend)
        keep = ps.insert("T", {"x": 1})
        gone = ps.insert("T", {"x": 2})
        blocked = ps.insert("T", {"x": 3})
        assert ps.run().cycles == 3
        block = ps.insert("Block", {"x": 3})  # leaves the conflict set
        ps.remove(gone)
        reads = ps.counters.as_dict()
        assert ps.prune_refraction() == 1
        assert ps.counters.as_dict() == reads  # a probe, not a data access
        assert {key[1][0] for key in ps.refraction_keys} == {
            ("T", keep.tid), ("T", blocked.tid),
        }
        # Unblocked, the instantiation is back; its live key still holds.
        ps.remove(block)
        assert ps.eligible() == []
        assert ps.run().cycles == 0
        assert ps.prune_refraction() == 0

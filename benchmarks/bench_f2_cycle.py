"""F2 — Figure 2: the recognize-act cycle, timed end to end.

Figure 2 is the OPS5 loop (changes → match network → conflict-set changes
→ act).  This bench runs whole programs — the paper's Example 2/Example 5
inputs and a counter — through the cycle under each strategy.

Run: pytest benchmarks/bench_f2_cycle.py --benchmark-only
"""

import pytest

from repro.bench.report import CORE_STRATEGIES
from repro.engine import ProductionSystem
from repro.workload.programs import (
    EXAMPLE2_SOURCE,
    EXAMPLE4_SOURCE,
    EXAMPLE5_INSERTS,
    counter_program,
)


@pytest.mark.parametrize("strategy", CORE_STRATEGIES)
def test_example2_simplification_cycle(benchmark, strategy):
    def run():
        system = ProductionSystem(EXAMPLE2_SOURCE, strategy=strategy)
        for i in range(20):
            system.insert("Goal", {"Type": "Simplify", "Object": f"e{i}"})
            op = "+" if i % 2 == 0 else "*"
            system.insert(
                "Expression",
                {"Name": f"e{i}", "Arg1": 0, "Op": op, "Arg2": i},
            )
        result = system.run()
        assert result.cycles == 20

    benchmark(run)


@pytest.mark.parametrize("strategy", CORE_STRATEGIES)
def test_counter_cycle(benchmark, strategy):
    def run():
        system = ProductionSystem(counter_program(30), strategy=strategy)
        system.insert("Counter", {"value": 0, "limit": 30})
        result = system.run()
        assert result.halted

    benchmark(run)


def test_wide_batch_firing(benchmark):
    """One rule with 40 instantiations, fired one per cycle."""
    source = """
    (literalize Emp name paid)
    (literalize Payout name)
    (p pay-all (Emp ^name <N> ^paid no)
        --> (modify 1 ^paid yes) (make Payout ^name <N>))
    """

    def run():
        system = ProductionSystem(source)
        for i in range(40):
            system.insert("Emp", (f"e{i}", "no"))
        result = system.run()
        assert len(result.fired) == 40

    benchmark(run)


@pytest.mark.parametrize("strategy", ["rete", "patterns"])
def test_example5_trace(benchmark, strategy):
    """The paper's Example 5 insert sequence (T4's golden trace)."""

    def run():
        system = ProductionSystem(EXAMPLE4_SOURCE, strategy=strategy)
        for class_name, values in EXAMPLE5_INSERTS:
            system.insert(class_name, values)
        assert len(system.conflict_set) == 1

    benchmark(run)

"""End-to-end scenarios across strategies, backends, and subsystems."""

import pytest

from repro import (
    ConcurrentScheduler,
    ProductionSystem,
    is_serializable,
)
from repro.match import STRATEGIES
from repro.workload import EXAMPLE4_SOURCE, EXAMPLE5_INSERTS

PAYROLL = """
(literalize Emp name salary dno)
(literalize Dept dno budget)
(literalize Payout name amount)

; Pay everyone in a funded department, consuming budget.
(p pay
    (Emp ^name <N> ^salary <S> ^dno <D>)
    (Dept ^dno <D> ^budget {<B> >= <S>})
    -->
    (modify 2 ^budget (compute <B> - <S>))
    (make Payout ^name <N> ^amount <S>)
    (remove 1))
"""


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_payroll_runs_on_every_strategy_and_backend(strategy, backend):
    system = ProductionSystem(
        PAYROLL, strategy=strategy, backend=backend, resolution="fifo"
    )
    system.insert("Dept", {"dno": 1, "budget": 300})
    system.insert("Emp", {"name": "Mike", "salary": 100, "dno": 1})
    system.insert("Emp", {"name": "Sam", "salary": 150, "dno": 1})
    system.insert("Emp", {"name": "Ann", "salary": 100, "dno": 1})
    result = system.run()
    payouts = sorted(t.values for t in system.wm.tuples("Payout"))
    # FIFO pays Mike (100), then Sam (150); Ann's 100 exceeds the
    # remaining 50.
    assert payouts == [("Mike", 100), ("Sam", 150)]
    (dept,) = system.wm.tuples("Dept")
    assert dept.values == (1, 50)
    assert result.cycles == 2


def test_example5_trace_through_the_facade():
    system = ProductionSystem(EXAMPLE4_SOURCE, strategy="patterns")
    for class_name, values in EXAMPLE5_INSERTS[:-1]:
        system.insert(class_name, values)
    assert len(system.conflict_set) == 0
    system.insert(*EXAMPLE5_INSERTS[-1])
    assert len(system.conflict_set) == 1


def test_concurrent_and_serial_agree_end_to_end():
    def fresh():
        system = ProductionSystem(PAYROLL)
        system.insert("Dept", {"dno": 1, "budget": 1000})
        for i in range(5):
            system.insert("Emp", {"name": f"e{i}", "salary": 100, "dno": 1})
        return system

    serial = fresh()
    serial.run()
    concurrent = fresh()
    result = ConcurrentScheduler(concurrent).run()
    assert is_serializable(result.history)
    assert sorted(t.values for t in serial.wm.tuples("Payout")) == sorted(
        t.values for t in concurrent.wm.tuples("Payout")
    )
    assert next(iter(serial.wm.tuples("Dept"))).values == next(
        iter(concurrent.wm.tuples("Dept"))
    ).values


def test_strategy_counters_isolated_per_system():
    a = ProductionSystem(PAYROLL)
    b = ProductionSystem(PAYROLL)
    a.insert("Dept", {"dno": 1, "budget": 100})
    assert b.counters.tuple_writes == 0
    assert a.counters.tuple_writes > 0

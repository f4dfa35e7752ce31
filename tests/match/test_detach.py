"""Detaching a strategy is idempotent and leaves no stale state."""

import pytest

from repro.engine import WorkingMemory
from repro.instrument import Counters
from repro.lang import analyze_program, parse_program
from repro.match import STRATEGIES

RULES = """
(literalize Emp name salary dno)
(literalize Audit dno)
(p well-paid
    (Emp ^name <N> ^salary > 100)
    --> (remove 1))
(p unaudited
    (Emp ^dno <D>)
    -(Audit ^dno <D>)
    --> (remove 1))
"""

STRATEGY_NAMES = sorted(STRATEGIES)


def build(strategy_name):
    program = parse_program(RULES)
    analyses = analyze_program(program.rules, program.schemas)
    wm = WorkingMemory(program.schemas)
    strategy = STRATEGIES[strategy_name](wm, analyses, counters=Counters())
    return wm, strategy


@pytest.mark.parametrize("strategy_name", STRATEGY_NAMES)
class TestDetach:
    def test_detach_clears_conflict_set(self, strategy_name):
        wm, strategy = build(strategy_name)
        wm.insert("Emp", ("Mike", 200, 1))
        assert len(strategy.conflict_set) > 0
        strategy.detach()
        assert len(strategy.conflict_set) == 0
        assert strategy.instantiations() == []

    def test_detach_twice_is_a_noop(self, strategy_name):
        wm, strategy = build(strategy_name)
        wm.insert("Emp", ("Mike", 200, 1))
        strategy.detach()
        strategy.detach()  # must not raise
        assert len(strategy.conflict_set) == 0

    def test_detached_strategy_ignores_wm_changes(self, strategy_name):
        wm, strategy = build(strategy_name)
        strategy.detach()
        wm.insert("Emp", ("Sam", 300, 2))
        assert len(strategy.conflict_set) == 0

    def test_detach_does_not_disturb_other_listeners(self, strategy_name):
        wm, strategy = build(strategy_name)
        other = STRATEGIES[strategy_name](wm, strategy.analyses,
                                          counters=Counters())
        strategy.detach()
        strategy.detach()
        wm.insert("Emp", ("Mike", 200, 1))
        assert len(other.conflict_set) > 0
        assert len(strategy.conflict_set) == 0

    def test_reattach_after_detach_rebuilds_by_replay(self, strategy_name):
        wm, strategy = build(strategy_name)
        wm.insert("Emp", ("Mike", 200, 1))
        expected = strategy.conflict_set_keys()
        strategy.detach()
        fresh = STRATEGIES[strategy_name](wm, strategy.analyses,
                                          counters=Counters())
        assert fresh.conflict_set_keys() == expected


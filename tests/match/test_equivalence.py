"""Cross-strategy equivalence: every indexing scheme computes the same
conflict set.

The paper's entire premise is that the Rete network (§3), the simplified
query scheme (§4.1), the matching-pattern scheme (§4.2) and the tuple-marker
scheme (§2.3) are different *indexes* over the same matching semantics.
These tests drive all of them with identical WM change streams — scripted,
randomized, and hypothesis-generated — and require identical conflict sets
after every single change.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ProductionSystem
from repro.engine import WorkingMemory
from repro.errors import SchemaError
from repro.instrument import Counters
from repro.lang import analyze_program, parse_program
from repro.match import STRATEGIES

RULES = """
(literalize Emp name salary dno manager)
(literalize Dept dno dname floor manager)
(literalize Audit dno)
(p mike-vs-manager
    (Emp ^name Mike ^salary <S> ^manager <M>)
    (Emp ^name <M> ^salary {<S1> < <S>})
    --> (remove 1))
(p toy-floor-1
    (Emp ^dno <D>)
    (Dept ^dno <D> ^dname Toy ^floor 1)
    --> (remove 1))
(p unaudited
    (Emp ^dno <D>)
    -(Audit ^dno <D>)
    --> (remove 1))
(p manager-cycle
    (Emp ^name <N> ^dno <D>)
    (Dept ^dno <D> ^manager <N>)
    (Emp ^name <N> ^salary > 100)
    --> (remove 1))
(p triangle
    (Emp ^name <N> ^dno <D>)
    (Dept ^dno <D> ^floor <F>)
    (Dept ^floor <F> ^manager <N>)
    --> (remove 1))
"""

STRATEGY_NAMES = sorted(STRATEGIES)


def fresh_system():
    program = parse_program(RULES)
    analyses = analyze_program(program.rules, program.schemas)
    wm = WorkingMemory(program.schemas)
    strategies = [
        STRATEGIES[name](wm, analyses, counters=Counters())
        for name in STRATEGY_NAMES
    ]
    return wm, strategies


def assert_all_agree(strategies, context=""):
    reference = strategies[0].conflict_set_keys()
    for strategy in strategies[1:]:
        keys = strategy.conflict_set_keys()
        assert keys == reference, (
            f"{strategy.strategy_name} diverged from "
            f"{strategies[0].strategy_name} {context}: "
            f"only-in-{strategy.strategy_name}={keys - reference}, "
            f"missing={reference - keys}"
        )


def random_event(rng, wm, live):
    if rng.random() < 0.6 or not live:
        names = ["Mike", "Sam", "Ann"]
        cls = rng.choice(["Emp", "Emp", "Dept", "Audit"])
        if cls == "Emp":
            wme = wm.insert(
                "Emp",
                {
                    "name": rng.choice(names),
                    "salary": rng.randint(1, 4) * 50,
                    "dno": rng.randint(1, 3),
                    "manager": rng.choice(names),
                },
            )
        elif cls == "Dept":
            wme = wm.insert(
                "Dept",
                {
                    "dno": rng.randint(1, 3),
                    "dname": rng.choice(["Toy", "Shoe"]),
                    "floor": rng.randint(1, 2),
                    "manager": rng.choice(names),
                },
            )
        else:
            wme = wm.insert("Audit", {"dno": rng.randint(1, 3)})
        live.append(wme)
    else:
        wm.remove(live.pop(rng.randrange(len(live))))


class TestScriptedEquivalence:
    def test_insert_only_stream(self):
        wm, strategies = fresh_system()
        wm.insert("Emp", ("Mike", 200, 1, "Sam"))
        wm.insert("Emp", ("Sam", 100, 1, "Ann"))
        wm.insert("Dept", (1, "Toy", 1, "Sam"))
        wm.insert("Audit", (2,))
        assert_all_agree(strategies)
        assert len(strategies[0].conflict_set) > 0

    def test_insert_delete_interleaved(self):
        wm, strategies = fresh_system()
        mike = wm.insert("Emp", ("Mike", 200, 1, "Sam"))
        sam = wm.insert("Emp", ("Sam", 100, 1, "Ann"))
        dept = wm.insert("Dept", (1, "Toy", 1, "Sam"))
        wm.remove(sam)
        assert_all_agree(strategies, "after removing Sam")
        wm.remove(dept)
        assert_all_agree(strategies, "after removing Dept")
        wm.remove(mike)
        assert_all_agree(strategies, "after removing Mike")
        assert all(len(s.conflict_set) == 0 for s in strategies)

    def test_negation_churn(self):
        wm, strategies = fresh_system()
        wm.insert("Emp", ("Mike", 200, 1, "Sam"))
        audits = [wm.insert("Audit", (1,)) for _ in range(3)]
        assert_all_agree(strategies, "with 3 audits")
        for audit in audits:
            wm.remove(audit)
            assert_all_agree(strategies, "while draining audits")


@pytest.mark.parametrize("seed", range(6))
def test_random_walk_equivalence(seed):
    wm, strategies = fresh_system()
    rng = random.Random(seed)
    live = []
    for step in range(120):
        random_event(rng, wm, live)
        assert_all_agree(strategies, f"seed={seed} step={step}")


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(st.lists(st.integers(0, 2**30), min_size=1, max_size=60))
def test_hypothesis_event_streams(choices):
    """Hypothesis drives the event stream through its shrinkable choices."""
    wm, strategies = fresh_system()
    live = []
    for choice in choices:
        rng = random.Random(choice)
        random_event(rng, wm, live)
    assert_all_agree(strategies, f"choices={choices!r}")


@pytest.mark.parametrize("negation", [0.0, 0.4])
@pytest.mark.parametrize("seed", [11, 12])
def test_generated_workloads_equivalence(seed, negation):
    """Synthetic rule bases (with and without negation) keep all
    strategies in lockstep under insert/delete churn."""
    from repro.workload import WorkloadSpec, generate_program, mixed_stream

    spec = WorkloadSpec(
        rules=10,
        classes=4,
        min_conditions=1,
        max_conditions=3,
        negation_probability=negation,
        seed=seed,
    )
    workload = generate_program(spec)
    analyses = analyze_program(workload.program.rules, workload.program.schemas)
    wm = WorkingMemory(workload.program.schemas)
    strategies = [
        STRATEGIES[name](wm, analyses, counters=Counters())
        for name in STRATEGY_NAMES
    ]
    live = []
    for kind, payload in mixed_stream(spec, 150, delete_fraction=0.3):
        if kind == "insert":
            class_name, values = payload
            live.append(wm.insert(class_name, values))
        else:
            wm.remove(live.pop(payload))
        assert_all_agree(strategies, f"seed={seed} neg={negation}")


def test_rete_has_no_false_drops_but_markers_do():
    """§3.2's trade-off: 'a new insertion ... will trigger both of these
    rules, even though it should not be fired because there are no matching
    Dept tuples', observed on the same stream."""
    wm, strategies = fresh_system()
    by_name = {s.strategy_name: s for s in strategies}
    # A stream of employees with no departments: marker candidates all fail
    # validation.
    for i in range(10):
        wm.insert("Emp", (f"e{i}", 100, i + 10, "Ann"))
    assert by_name["markers"].counters.false_drops > 0
    assert by_name["rete"].counters.false_drops == 0
    assert_all_agree(strategies)


#: A value that equals nothing, itself included, used to join with itself
#: under the compiled Rete kernels (a hash bucket matches the same NaN
#: object by identity) while every scan-based strategy refused the pair.
NAN_PROGRAM = """
(literalize a x)
(literalize b x)
(literalize hit n)
(p copy (a ^x <v>) --> (make b ^x <v>))
(p pair (a ^x <v>) (b ^x <v>) --> (make hit ^n 1))
"""


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_nan_is_refused_before_any_strategy_sees_it(strategy):
    """Every strategy fires the same rules on the NaN program: the NaN
    insert is refused, and an ordinary value fires ``copy`` then
    ``pair``."""
    system = ProductionSystem(NAN_PROGRAM, strategy=strategy)
    with pytest.raises(SchemaError, match="NaN"):
        system.insert("a", {"x": float("nan")})
    assert system.run().fired_rule_names == []
    system.insert("a", {"x": 1.5})
    assert system.run().fired_rule_names == ["copy", "pair"]
    assert len(list(system.wm.tuples("hit"))) == 1


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_nan_made_by_compute_is_refused_by_every_strategy(strategy):
    """``(compute <v> - <v>)`` over an infinity makes a NaN; the RHS
    ``make`` refuses it under every strategy alike."""
    system = ProductionSystem(
        NAN_PROGRAM.replace(
            "(make b ^x <v>)", "(make b ^x (compute <v> - <v>))"
        ),
        strategy=strategy,
    )
    system.insert("a", {"x": float("inf")})
    with pytest.raises(SchemaError, match="NaN"):
        system.run()
    assert not list(system.wm.tuples("b"))
    assert not list(system.wm.tuples("hit"))

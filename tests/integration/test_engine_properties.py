"""Engine-level invariants over generated programs (hypothesis-driven)."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import ProductionSystem
from repro.workload import WorkloadSpec, generate_program


def build_system(seed, rules):
    spec = WorkloadSpec(
        rules=rules,
        classes=3,
        min_conditions=1,
        max_conditions=2,
        domain=4,
        seed=seed,
    )
    workload = generate_program(spec)
    return ProductionSystem(workload.program), spec


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 50),
    rules=st.integers(1, 8),
    inserts=st.integers(1, 25),
)
def test_generated_programs_terminate_and_quiesce(seed, rules, inserts):
    """Generated rules only remove their first matched element, so runs
    terminate; at quiescence nothing eligible remains and refraction holds."""
    system, spec = build_system(seed, rules)
    import random

    rng = random.Random(seed)
    for _ in range(inserts):
        class_name = spec.class_name(rng.randrange(spec.classes))
        values = tuple(
            rng.randrange(spec.domain) for _ in range(spec.attributes)
        )
        system.insert(class_name, values)
    result = system.run(max_cycles=500)
    assert not result.exhausted
    assert system.eligible() == []
    # Refraction: no instantiation fired twice.
    fired_keys = [record.instantiation.key for record in result.fired]
    assert len(fired_keys) == len(set(fired_keys))
    # A firing removes at most one element (the generated RHS), and never
    # resurrects anything.
    wm_size = system.wm.size()
    assert inserts - len(result.fired) <= wm_size <= inserts

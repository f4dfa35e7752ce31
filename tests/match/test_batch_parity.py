"""Batched vs tuple-at-a-time parity: the delta pipeline changes the
granularity of change propagation, never its outcome.

The same logical WM stream is driven three ways — tuple-at-a-time, as many
small :class:`~repro.delta.DeltaBatch` deliveries, and as maximally large
batches — through every registered strategy.  Conflict sets and space
reports must be identical in all cases: §4.2.3's set-orientation is a
performance property, not a semantic one.
"""

import random

import pytest

from repro.bench.drivers import drive_stream
from repro.check.oracle import pattern_index_faults, rete_memory_snapshot
from repro.check.reference import interpreted
from repro.engine import WorkingMemory
from repro.instrument import Counters
from repro.lang import analyze_program, parse_program
from repro.match import STRATEGIES

from tests.match.test_equivalence import RULES, assert_all_agree

STRATEGY_NAMES = sorted(STRATEGIES)

BATCH_SIZES = (1, 5, 10_000)


def make_events(seed: int, length: int = 100):
    """A reproducible insert/delete stream in bench-driver event format."""
    rng = random.Random(seed)
    names = ["Mike", "Sam", "Ann"]
    events = []
    live = 0
    for _ in range(length):
        if live > 0 and rng.random() >= 0.6:
            events.append(("delete", rng.randrange(1 << 30)))
            live -= 1
            continue
        cls = rng.choice(["Emp", "Emp", "Dept", "Audit"])
        if cls == "Emp":
            values = {
                "name": rng.choice(names),
                "salary": rng.randint(1, 4) * 50,
                "dno": rng.randint(1, 3),
                "manager": rng.choice(names),
            }
        elif cls == "Dept":
            values = {
                "dno": rng.randint(1, 3),
                "dname": rng.choice(["Toy", "Shoe"]),
                "floor": rng.randint(1, 2),
                "manager": rng.choice(names),
            }
        else:
            values = {"dno": rng.randint(1, 3)}
        events.append(("insert", (cls, values)))
        live += 1
    return events


def run_all_strategies(events, batch_size, backend="memory",
                       reference=False):
    """Every strategy on one WM; *reference* runs the interpreted scan."""
    program = parse_program(RULES)
    analyses = analyze_program(program.rules, program.schemas)
    wm = WorkingMemory(program.schemas, backend=backend)
    classes = [STRATEGIES[name] for name in STRATEGY_NAMES]
    if reference:
        classes = [interpreted(cls) for cls in classes]
    strategies = [cls(wm, analyses, counters=Counters()) for cls in classes]
    drive_stream(wm, events, batch_size=batch_size)
    return strategies


@pytest.mark.parametrize("seed", range(4))
def test_batch_sizes_agree_per_strategy(seed):
    events = make_events(seed)
    outcomes = {}
    for batch_size in BATCH_SIZES:
        strategies = run_all_strategies(events, batch_size)
        assert_all_agree(strategies, f"seed={seed} batch={batch_size}")
        (patterns,) = [s for s in strategies if s.strategy_name == "patterns"]
        assert pattern_index_faults(patterns) == [], f"batch={batch_size}"
        outcomes[batch_size] = {
            s.strategy_name: (s.conflict_set_keys(), s.space_report())
            for s in strategies
        }
    reference = outcomes[BATCH_SIZES[0]]
    for batch_size in BATCH_SIZES[1:]:
        for name, (keys, space) in outcomes[batch_size].items():
            ref_keys, ref_space = reference[name]
            assert keys == ref_keys, (
                f"{name}: conflict set diverged at batch={batch_size}"
            )
            assert space == ref_space, (
                f"{name}: space report diverged at batch={batch_size}"
            )


def test_batch_parity_on_sqlite_backend():
    events = make_events(99, length=60)
    outcomes = {}
    for batch_size in (1, 7):
        strategies = run_all_strategies(events, batch_size, backend="sqlite")
        outcomes[batch_size] = {
            s.strategy_name: s.conflict_set_keys() for s in strategies
        }
    assert outcomes[1] == outcomes[7]


@pytest.mark.parametrize("seed", [3, 5])
def test_deferred_notification_scope_agrees(seed):
    """The act-phase mechanism — storage applied eagerly, notification
    deferred via ``wm.batch()`` — also preserves the conflict sets."""
    events = make_events(seed, length=80)

    def apply_scoped(wm, chunk_size):
        live = []
        position = 0
        while position < len(events):
            chunk = events[position:position + chunk_size]
            position += chunk_size
            with wm.batch():
                for kind, payload in chunk:
                    if kind == "insert":
                        class_name, values = payload
                        live.append(wm.insert(class_name, values))
                    else:
                        live and wm.remove(live.pop(payload % len(live)))

    program = parse_program(RULES)
    analyses = analyze_program(program.rules, program.schemas)
    outcomes = {}
    for chunk_size in (1, 9, len(events)):
        wm = WorkingMemory(program.schemas)
        strategies = [
            STRATEGIES[name](wm, analyses, counters=Counters())
            for name in STRATEGY_NAMES
        ]
        apply_scoped(wm, chunk_size)
        assert_all_agree(strategies, f"seed={seed} chunk={chunk_size}")
        outcomes[chunk_size] = {
            s.strategy_name: s.conflict_set_keys() for s in strategies
        }
    assert outcomes[1] == outcomes[9] == outcomes[len(events)]


RETE_FAMILY = ("rete", "rete-shared", "rete-dbms")

RETE_BATCH_SIZES = (1, 8, 64)


def _rete_memory_snapshot(strategy):
    """Delegates to :func:`repro.check.oracle.rete_memory_snapshot` — the
    differential fuzz oracle and this parity test must compare the exact
    same canonical network state."""
    return rete_memory_snapshot(strategy)


@pytest.mark.parametrize("compiled", [False, True], ids=["off", "on"])
@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_rete_memory_contents_agree_across_batch_sizes(backend, compiled):
    """Token-batched propagation leaves the network in the exact state
    tuple-at-a-time propagation does: same conflict sets, same alpha/beta
    memory contents, same negative-node witness sets, same LEFT/RIGHT
    mirror relations — at batch sizes 1, 8 and 64, on both backends,
    for the compiled production kernels and the interpreted reference."""
    events = make_events(11, length=90)
    program = parse_program(RULES)
    analyses = analyze_program(program.rules, program.schemas)
    snapshots = {}
    for batch_size in RETE_BATCH_SIZES:
        wm = WorkingMemory(program.schemas, backend=backend)
        strategies = {}
        for name in RETE_FAMILY:
            cls = STRATEGIES[name] if compiled else interpreted(STRATEGIES[name])
            strategies[name] = cls(wm, analyses, counters=Counters())
        drive_stream(wm, events, batch_size=batch_size)
        snapshots[batch_size] = {
            name: (s.conflict_set_keys(), _rete_memory_snapshot(s))
            for name, s in strategies.items()
        }
    reference = snapshots[RETE_BATCH_SIZES[0]]
    for batch_size in RETE_BATCH_SIZES[1:]:
        for name, (keys, memories) in snapshots[batch_size].items():
            ref_keys, ref_memories = reference[name]
            assert keys == ref_keys, (
                f"{name}: conflict set diverged at batch={batch_size}"
            )
            assert memories == ref_memories, (
                f"{name}: memory contents diverged at batch={batch_size}"
            )


@pytest.mark.parametrize("seed", range(3))
def test_compiled_mode_is_bit_identical_to_interpreted(seed):
    """The compiled kernels are a pure lowering: for the same stream at
    every batch size, conflict sets, space reports and the rete family's
    canonical memory snapshots agree bit-for-bit with the interpreted
    reference."""
    events = make_events(seed)
    for batch_size in BATCH_SIZES:
        reference = run_all_strategies(events, batch_size, reference=True)
        compiled = run_all_strategies(events, batch_size)
        for ref, cand in zip(reference, compiled):
            label = f"{ref.strategy_name} seed={seed} batch={batch_size}"
            assert cand.conflict_set_keys() == ref.conflict_set_keys(), (
                f"{label}: compiled conflict set diverged"
            )
            assert cand.space_report() == ref.space_report(), (
                f"{label}: compiled space report diverged"
            )
            if ref.strategy_name in RETE_FAMILY:
                assert (
                    _rete_memory_snapshot(cand)
                    == _rete_memory_snapshot(ref)
                ), f"{label}: compiled memory contents diverged"
            elif ref.strategy_name == "patterns":
                assert pattern_index_faults(cand) == [], label


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@pytest.mark.parametrize("seed", [4, 9])
def test_tuple_path_compiled_equals_interpreted(seed, backend):
    """Batch size 1 is the classic OPS5 tuple path.  Compiled, each of
    its probes is now a bucket lookup in a persistent memory index
    instead of a test against every row of the opposing memory: the
    indexed run must leave conflict sets and memory snapshots identical
    to the interpreted scan, on both backends, with healthy indexes —
    and must actually have used them."""
    events = make_events(seed, length=120)
    reference = run_all_strategies(events, 1, backend=backend, reference=True)
    compiled = run_all_strategies(events, 1, backend=backend)
    for ref, cand in zip(reference, compiled):
        if ref.strategy_name not in RETE_FAMILY:
            continue
        label = f"{ref.strategy_name}/{backend} seed={seed}"
        assert cand.conflict_set_keys() == ref.conflict_set_keys(), label
        snapshot = _rete_memory_snapshot(cand)
        assert snapshot == _rete_memory_snapshot(ref), label
        assert snapshot["index_faults"] == [], label
        assert cand.counters.index_lookups > 0, label
        assert cand.counters.comparisons < ref.counters.comparisons, label


def test_annihilated_elements_never_reach_strategies():
    """An element born and destroyed inside one deferred batch is invisible
    to listeners (DeltaBatch.net), so e.g. markers never touch the dead
    tuple's storage row."""
    program = parse_program(RULES)
    analyses = analyze_program(program.rules, program.schemas)
    wm = WorkingMemory(program.schemas)
    strategies = [
        STRATEGIES[name](wm, analyses, counters=Counters())
        for name in STRATEGY_NAMES
    ]
    with wm.batch():
        ghost = wm.insert("Emp", ("Mike", 200, 1, "Sam"))
        keeper = wm.insert("Emp", ("Sam", 100, 1, "Ann"))
        wm.remove(ghost)
    assert wm.size() == 1
    assert_all_agree(strategies, "after annihilating batch")
    # The surviving element is matched normally.
    wm.insert("Dept", (1, "Toy", 1, "Sam"))
    assert_all_agree(strategies, "after follow-up insert")
    assert keeper.tid != ghost.tid

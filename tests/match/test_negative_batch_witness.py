"""Negative-node witness maintenance under batched delta groups.

Regression guard for the subtlest batching hazard: one deferred batch
that simultaneously *completes a join* (producing new tokens that must
consult the negative node) and *inserts/removes witnesses of the negated
class* (changing which of those tokens may pass).  Tuple-at-a-time
propagation interleaves these effects naturally; set-at-a-time delivery
must reach the identical fixpoint regardless of how the batch groups by
relation.
"""

import pytest

from repro.bench.drivers import drive_stream
from repro.check.oracle import rete_memory_snapshot
from repro.check.reference import interpreted
from repro.engine import WorkingMemory
from repro.instrument import Counters
from repro.lang import analyze_program, parse_program
from repro.match import STRATEGIES

from tests.match.test_equivalence import assert_all_agree

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

STRATEGY_NAMES = sorted(STRATEGIES)
RETE_FAMILY = ("rete", "rete-shared", "rete-dbms")


def witness_events():
    """Join completions and negated-class churn interleaved so several
    land in the same 64-op batch: Worker inserts complete Task joins in
    the same group that Hold rows (the negated class) appear and
    disappear for the same owners."""
    events = []
    owners = list(range(6))
    # Tasks first: join-left rows waiting for their Worker.
    for owner in owners:
        events.append(("insert", ("Task", (owner, 0))))
    # One batch group mixing join-output (Worker) and negated (Hold) rows.
    hold_slots = {}
    for owner in owners:
        events.append(("insert", ("Worker", (owner,))))
        if owner % 2 == 0:
            hold_slots[owner] = len(events)
            events.append(("insert", ("Hold", (owner,))))
    # Remove some witnesses in the same stream: their instantiations must
    # (re)appear identically at every batch size.  Delete indexes address
    # the live list maintained by drive_stream; compute them directly.
    live_len = len(events)
    for owner in (0, 2):
        events.append(("delete", hold_slots[owner]))
        live_len -= 1
        hold_slots = {
            o: (s - 1 if s > hold_slots[owner] else s)
            for o, s in hold_slots.items()
        }
    # And re-add one witness so a previously-unblocked token re-blocks.
    events.append(("insert", ("Hold", (0,))))
    return events


def build(batch_size, backend="memory", reference=False):
    """Every strategy on one WM; *reference* runs the interpreted scan."""
    program = parse_program(RULES)
    analyses = analyze_program(program.rules, program.schemas)
    wm = WorkingMemory(program.schemas, backend=backend)
    strategies = {}
    for name in STRATEGY_NAMES:
        cls = interpreted(STRATEGIES[name]) if reference else STRATEGIES[name]
        strategies[name] = cls(wm, analyses, counters=Counters())
    drive_stream(wm, witness_events(), batch_size=batch_size)
    return strategies


class TestNegativeWitnessBatching:
    @pytest.mark.parametrize("batch_size", [1, 64])
    def test_all_strategies_agree_within_batch_size(self, batch_size):
        strategies = build(batch_size)
        assert_all_agree(
            list(strategies.values()), f"batch={batch_size}"
        )

    def test_conflict_sets_identical_across_batch_sizes(self):
        small = build(1)
        large = build(64)
        for name in STRATEGY_NAMES:
            assert (
                small[name].conflict_set_keys()
                == large[name].conflict_set_keys()
            ), f"{name}: batch=64 diverged from batch=1"

    def test_blocked_owners_are_exactly_the_held_ones(self):
        # Hold rows survive for owners 0 (deleted then re-added) and 4;
        # owners 1, 2, 3 and 5 are unheld, so exactly their four
        # instantiations must be live — at any batch size.
        keys = build(64)["rete"].conflict_set_keys()
        assert len(keys) == 4
        assert keys == build(1)["rete"].conflict_set_keys()

    @pytest.mark.parametrize("batch_size", [1, 8, 64])
    def test_compiled_witness_maintenance_matches_interpreted(
        self, batch_size
    ):
        """The compiled negative nodes (indexed ``lefts_for``/``rights_for``
        probes of the persistent memory indexes) must reach the exact
        witness sets and result tokens the interpreted scan does, at
        every batch size."""
        reference = build(batch_size, reference=True)
        compiled = build(batch_size)
        for name in RETE_FAMILY:
            ref = rete_memory_snapshot(reference[name])
            cand = rete_memory_snapshot(compiled[name])
            assert cand["negative"] == ref["negative"], (
                f"{name}/batch={batch_size}: compiled witness state diverged"
            )
            assert cand == ref, (
                f"{name}/batch={batch_size}: compiled memories diverged"
            )
            assert (
                compiled[name].conflict_set_keys()
                == reference[name].conflict_set_keys()
            ), f"{name}/batch={batch_size}: compiled conflict set diverged"

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_negative_node_state_matches_across_batch_sizes(self, backend):
        """Beyond the conflict set: the negative nodes' witness sets and
        result tokens themselves must be bit-identical."""
        for name in RETE_FAMILY:
            small = build(1, backend)[name]
            large = build(64, backend)[name]
            small_snapshot = rete_memory_snapshot(small)
            large_snapshot = rete_memory_snapshot(large)
            assert small_snapshot["negative"] == large_snapshot["negative"], (
                f"{name}/{backend}: negative-node state diverged"
            )
            assert small_snapshot == large_snapshot, (
                f"{name}/{backend}: memory contents diverged"
            )

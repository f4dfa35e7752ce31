"""A5 — token-batched Rete propagation (§3.2 × §4.2.3).

The Rete family consumes multi-element delta batches as per-class token
sets: alpha tests filter each set in bulk and every two-input node probes
its opposing LEFT/RIGHT memory **once per (node, batch group)** instead of
once per tuple.  These tests drive the same churn stream (inserts and
deletes) through the Rete strategies and, for reference, the
matching-pattern strategy at several batch sizes, and assert the two
properties the batched path promises:

* at most one opposing-memory probe per (join node, input side, batch
  group) — verified from the ``rete.batch_join`` span stream;
* conflict sets bit-identical to ``batch_size=1`` across *all* registered
  strategies.

Table: python -m repro.bench.report a5
"""

from collections import Counter

import pytest

from repro.bench.drivers import build_system, drive_stream
from repro.match import STRATEGIES
from repro.obs import Observability, RingBufferSink
from repro.workload.generator import WorkloadSpec, generate_program, mixed_stream
from tests.bench.reports import a5_rows

SPEC = WorkloadSpec(rules=15, classes=5, seed=23)
STREAM_LENGTH = 200
RETE_FAMILY = ("rete", "rete-shared", "rete-dbms")


@pytest.fixture(scope="module")
def workload():
    generated = generate_program(SPEC)
    events = mixed_stream(SPEC, STREAM_LENGTH, delete_fraction=0.25)
    return generated.program, events


def _drive(program, events, strategy_name, batch_size, obs=None):
    wm, strategy = build_system(program, strategy_name, obs=obs)
    drive_stream(wm, events, batch_size=batch_size)
    return strategy


class TestA5Shape:
    @pytest.fixture(scope="class")
    def rows(self):
        return a5_rows()

    def test_conflict_size_invariant_across_batch_sizes(self, rows):
        by_strategy = {}
        for row in rows:
            by_strategy.setdefault(row["strategy"], set()).add(
                row["conflict_size"]
            )
        for strategy, sizes in by_strategy.items():
            assert len(sizes) == 1, strategy

    def test_rete_probes_only_when_batched(self, rows):
        for row in rows:
            if row["strategy"] not in RETE_FAMILY:
                assert row["join_probes"] == 0
            elif row["batch"] == 1:
                assert row["join_probes"] == 0
            else:
                assert row["join_probes"] > 0

    def test_batched_rete_does_less_node_work(self, rows):
        """Token sets amortize activations: bigger batches, fewer node
        activations for every Rete flavour."""
        for strategy in RETE_FAMILY:
            by_batch = {
                r["batch"]: r["activations"]
                for r in rows
                if r["strategy"] == strategy
            }
            largest = max(by_batch)
            assert by_batch[largest] < by_batch[1], strategy


@pytest.mark.parametrize("strategy_name", RETE_FAMILY)
def test_one_probe_per_node_and_group(workload, strategy_name):
    """The acceptance property: within one batch, each two-input node
    probes each opposing memory at most once per batch group."""
    program, events = workload
    sink = RingBufferSink(capacity=200_000)
    obs = Observability(sinks=[sink])
    _drive(program, events, strategy_name, batch_size=64, obs=obs)
    probes = [
        record
        for record in sink.records()
        if record.get("name") == "rete.batch_join"
    ]
    assert probes, "batched propagation emitted no rete.batch_join spans"
    per_group = Counter(
        (
            record["attrs"]["seq"],
            record["attrs"]["node"],
            record["attrs"]["input"],
            record["attrs"]["group"],
        )
        for record in probes
    )
    duplicates = {key: n for key, n in per_group.items() if n > 1}
    assert not duplicates, duplicates


def test_conflict_sets_bit_identical_across_all_strategies(workload):
    """Every registered strategy, batched vs tuple-at-a-time: the final
    conflict sets are bit-identical."""
    program, events = workload
    for strategy_name in sorted(STRATEGIES):
        reference = _drive(program, events, strategy_name, batch_size=1)
        for batch_size in (8, 64):
            batched = _drive(program, events, strategy_name, batch_size)
            assert (
                batched.conflict_set_keys() == reference.conflict_set_keys()
            ), f"{strategy_name} diverged at batch={batch_size}"

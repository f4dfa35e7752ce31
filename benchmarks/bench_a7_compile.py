"""A7 — compiled match kernels vs the interpreted AST walk.

``repro.match.compile`` lowers alpha tests and join/negation predicates
into generated code: each two-input node gets a :class:`JoinKernel`
executing a selectivity-ordered, CORGI-bounded :class:`JoinPlan` against
the LEFT/RIGHT memories' persistent hash indexes (one bucket lookup per
probe, residual tests evaluated only inside that bucket), and each alpha
predicate becomes one ``compile()``-generated test.  The interpreted AST
walk (:mod:`repro.check.reference`) stays the bit-for-bit reference.

This bench drives the A5 churn workload (inserts and deletes) through the
Rete strategies on the interpreted reference and on the compiled
production path, and asserts the acceptance properties:

* batched compiled propagation performs **at least 2x fewer
  interpreter-dispatch operations** (the ``comparisons`` counter: one per
  interpreted test evaluation, one per in-bucket residual) than the
  interpreted nested scan;
* tuple-at-a-time over a resident inventory, the compiled probe count
  per event (``comparisons + index_lookups``) grows **less than 1.5x
  when the inventory grows 4x** — a keyed probe costs a bucket, a scan
  the memory;
* compiled kernels never do *more* counted work than the interpreter,
  at any batch size;
* conflict sets are bit-identical between modes in every paired run.

Wall-clock figures are recorded by the timing benchmarks below (and in
the A7 report table) but never gated — CI runners are noisy.

Run: pytest benchmarks/bench_a7_compile.py --benchmark-only
Table: python -m repro.bench.report a7
"""

import pytest

from repro.bench.drivers import build_system, drive_stream
from repro.bench.report import report_a7
from repro.workload.generator import WorkloadSpec, generate_program, mixed_stream

SPEC = WorkloadSpec(rules=15, classes=5, seed=23)
STREAM_LENGTH = 1000
RETE_FAMILY = ("rete", "rete-shared")


@pytest.fixture(scope="module")
def workload():
    generated = generate_program(SPEC)
    events = mixed_stream(SPEC, STREAM_LENGTH, delete_fraction=0.25)
    return generated.program, events


def _drive(program, events, strategy_name, batch_size, reference):
    wm, strategy = build_system(program, strategy_name, reference=reference)
    drive_stream(wm, events, batch_size=batch_size)
    return strategy


@pytest.mark.parametrize("reference", [True, False])
@pytest.mark.parametrize("strategy_name", RETE_FAMILY)
def test_match_time(benchmark, workload, strategy_name, reference):
    program, events = workload
    benchmark(
        lambda: _drive(program, events, strategy_name, 64, reference)
    )


class TestA7Shape:
    @pytest.fixture(scope="class")
    def rows(self):
        _, rows = report_a7(stream_length=STREAM_LENGTH)
        return rows

    def test_compiled_at_least_halves_dispatch_ops(self, rows):
        """The acceptance bar: on the batched Rete rows the compiled
        kernels perform >= 2x fewer counted dispatch operations than the
        interpreted nested scan."""
        gated = [
            row
            for row in rows
            if row["strategy"] in RETE_FAMILY and row["batch"] > 1
        ]
        assert gated, "report_a7 produced no batched Rete rows"
        for row in gated:
            assert row["cmp_ratio"] >= 2.0, row

    def test_kernels_never_do_more_counted_work(self, rows):
        """Even tuple-at-a-time (batch=1), the fused pair test costs
        essentially no more dispatches than the interpreted walk (small
        slack: selectivity reordering can shift short-circuit points)."""
        for row in rows:
            if row["strategy"] in RETE_FAMILY:
                assert row["compiled_cmp"] <= row["interp_cmp"] * 1.05, row

    def test_conflict_sets_identical_across_modes_and_strategies(self, rows):
        # report_a7 asserts compiled == interpreted inside each pairing;
        # the published rows must also agree across strategies/batches
        # of one workload.
        for inventory in {row["inventory"] for row in rows}:
            sizes = {
                row["conflict_size"]
                for row in rows
                if row["inventory"] == inventory
            }
            assert len(sizes) == 1, (inventory, sizes)

    def test_indexed_probe_cost_is_flat_in_the_inventory(self, rows):
        for strategy in (*RETE_FAMILY, "patterns"):
            small, large = sorted(
                (
                    row
                    for row in rows
                    if row["strategy"] == strategy and row["inventory"] != "-"
                ),
                key=lambda row: row["inventory"],
            )
            assert large["inventory"] >= 4 * small["inventory"]
            assert large["probes/event"] < 1.5 * small["probes/event"], (
                small, large,
            )
            # ... while the interpreted Rete scan pays for every resident
            # row (the COND shape directory is not a compiled feature).
            if strategy in RETE_FAMILY:
                assert large["interp_cmp"] > 4 * small["interp_cmp"]

    def test_uncompiled_reference_rows_are_untouched(self, rows):
        """The patterns strategy compiles only its constant checks, which
        count nothing: its counters must be byte-identical between the
        two runs of each pairing."""
        reference = [r for r in rows if r["strategy"] == "patterns"]
        for row in reference:
            assert row["interp_cmp"] == row["compiled_cmp"], row

"""Tests for the bench harness: tables, drivers, and experiment reports."""

import pytest

from repro.bench import (
    REPORTS,
    build_system,
    compare_strategies,
    drive_stream,
    format_value,
    inserts_as_events,
    render_table,
    run_stream,
)
from repro.bench.report import (
    report_e1,
    report_e2,
    report_e3,
    report_e4,
    report_e6,
    report_e7,
    report_e8,
    report_f1,
)
from repro.workload import WorkloadSpec, generate_insert_stream, generate_program


class TestTables:
    def test_render_basic(self):
        text = render_table(
            [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert "22" in lines[4]

    def test_render_empty(self):
        assert "(no rows)" in render_table([], title="T")

    def test_format_value(self):
        assert format_value(1.0) == "1"
        assert format_value(1.234) == "1.23"
        assert format_value("x") == "x"

    def test_column_selection(self):
        text = render_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in text.splitlines()[0]


class TestDrivers:
    @pytest.fixture
    def workload(self):
        spec = WorkloadSpec(rules=5, classes=3, seed=1)
        return generate_program(spec).program, generate_insert_stream(spec, 40)

    def test_run_stream_metrics(self, workload):
        program, stream = workload
        run = run_stream(program, inserts_as_events(stream), "rete")
        assert run.events == 40
        assert run.wall_seconds > 0
        assert run.space is not None
        assert run.counters["tokens"] > 0

    def test_compare_strategies_same_conflict_sets(self, workload):
        program, stream = workload
        runs = compare_strategies(
            program, inserts_as_events(stream), ["rete", "patterns"]
        )
        assert runs[0].conflict_size == runs[1].conflict_size
        assert runs[0].conflict_additions == runs[1].conflict_additions

    def test_drive_stream_handles_deletes(self, workload):
        program, stream = workload
        wm, _ = build_system(program, "rete")
        events = inserts_as_events(stream[:10]) + [("delete", 0)] * 3
        count, live = drive_stream(wm, events)
        assert count == 13
        assert len(live) == 7

    def test_unknown_event_kind(self, workload):
        program, _ = workload
        wm, _ = build_system(program, "rete")
        with pytest.raises(ValueError):
            drive_stream(wm, [("upsert", None)])

    def test_row_projection(self, workload):
        program, stream = workload
        run = run_stream(program, inserts_as_events(stream), "rete")
        row = run.row("comparisons")
        assert set(row) == {"strategy", "events", "ms", "us/event", "comparisons"}


class TestReportsSmoke:
    """Every experiment report runs (small sizes) and yields rows."""

    def test_report_registry_complete(self):
        assert set(REPORTS) == {
            "f1", "e1", "e2", "e3", "e4", "e6", "e7", "e8", "e9", "a4",
            "a5", "a6", "a7", "a9", "a10",
        }

    def test_a5(self):
        from repro.bench.report import report_a5

        _, rows = report_a5(
            stream_length=60, batch_sizes=(1, 8), strategies=("rete",)
        )
        assert len(rows) == 2
        assert len({r["conflict_size"] for r in rows}) == 1

    def test_a6(self):
        from repro.bench.report import report_a6

        _, rows = report_a6(cycles=20, fsync_everys=(64,),
                            checkpoint_every=8)
        assert [r["mode"] for r in rows] == [
            "wal off", "wal fsync=64", "wal+ckpt every 8",
        ]
        assert len({r["wm"] for r in rows}) == 1
        assert rows[2]["replayed"] < rows[1]["replayed"]

    def test_a7(self):
        from repro.bench.report import report_a7

        _, rows = report_a7(
            stream_length=60, batch_sizes=(8,),
            strategies=("rete", "patterns"), inventories=(40, 160),
        )
        assert [(r["batch"], r["inventory"]) for r in rows] == [
            (8, "-"), (1, 40), (1, 160),
        ] * 2
        # The pairing asserts bit-identical conflict sets internally; the
        # size of the payoff is gated at full size by
        # benchmarks/bench_a7_compile.py and tools/bench_smoke.py.
        for row in rows:
            assert 0 < row["compiled_cmp"] <= row["interp_cmp"]
            assert row["conflict_size"] > 0 and row["probes/event"] > 0
        # An indexed probe costs a bucket — in a Rete memory and in a COND
        # shape directory alike: a 4x inventory barely moves it.
        for small, large in ((rows[1], rows[2]), (rows[4], rows[5])):
            assert large["probes/event"] < 1.5 * small["probes/event"]

    def test_e9(self):
        from repro.bench.report import report_e9

        _, rows = report_e9(stream_length=40)
        assert {r["strategy"] for r in rows} == {"markers", "predicate-index"}

    def test_f1(self):
        title, rows = report_f1(depths=(2, 4))
        assert "F1" in title
        assert len(rows) == 4

    def test_e1(self):
        _, rows = report_e1(rule_counts=(5,), stream_length=50)
        assert {r["strategy"] for r in rows} >= {"rete", "patterns"}

    def test_e2(self):
        _, rows = report_e2(stream_length=50)
        assert all("estimated_cells" in r for r in rows)

    def test_e3(self):
        _, rows = report_e3(stream_length=50)
        assert {r["strategy"] for r in rows} == {"rete", "patterns", "markers"}

    def test_e4(self):
        _, rows = report_e4(sizes=(2,))
        assert len(rows) == 2

    def test_e6(self):
        _, rows = report_e6(stream_length=50)
        assert len(rows) == 4

    def test_e7(self):
        _, rows = report_e7(condition_counts=(20,), probes=20)
        (row,) = rows
        assert row["rtree_hits"] >= row["exact_hits"]

    def test_e8(self):
        _, rows = report_e8(stream_length=30)
        assert len(rows) == 4  # incl. the on-disk WM configuration

    def test_cli_main(self, capsys):
        from repro.bench.report import main

        output = main(["f1"])
        assert "F1" in output
        assert "F1" in capsys.readouterr().out

    def test_cli_unknown_experiment(self):
        from repro.bench.report import main

        with pytest.raises(SystemExit):
            main(["zz"])

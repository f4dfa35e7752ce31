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
    """The report registry and CLI; every report's claims run under
    ``tests/bench/``."""

    def test_report_registry_complete(self):
        assert set(REPORTS) == {
            "f1", "e1", "e2", "e3", "e4", "e6", "e7", "e8", "e9", "a4",
            "a5", "a6", "a7",
        }

    def test_cli_main(self, capsys):
        from repro.bench.report import main

        output = main(["f1"])
        assert "F1" in output
        assert "F1" in capsys.readouterr().out

    def test_cli_unknown_experiment(self):
        from repro.bench.report import main

        with pytest.raises(SystemExit):
            main(["zz"])

"""The ``repro check`` verb: legacy validation and fuzz mode."""

import json

import pytest

from repro.cli import main

PROGRAM = """
(literalize Counter value limit)
(p count-up
    (Counter ^value <V> ^limit {<L> > <V>})
    -->
    (modify 1 ^value (compute <V> + 1)))
(make Counter ^value 0 ^limit 3)
"""


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "counter.ops"
    path.write_text(PROGRAM)
    return str(path)


class TestLegacyCheck:
    def test_validates_and_summarizes(self, program_file, capsys):
        assert main(["check", program_file]) == 0
        out = capsys.readouterr().out
        assert "1 classes, 1 rules" in out
        assert "count-up" in out


class TestFuzzCheck:
    FAST = [
        "--strategies", "rete,patterns",
        "--backends", "memory",
    ]

    def test_budget_runs_campaign(self, capsys):
        assert main(["check", "--budget", "2", "--seed", "0", *self.FAST]) == 0
        out = capsys.readouterr().out
        assert "2/2 traces" in out
        assert "OK" in out

    def test_no_file_defaults_to_fuzz_mode(self, capsys):
        # No FILE and no --budget: fuzz mode with the default budget;
        # keep the matrix tiny so the default 50 traces stay fast.
        assert main(
            ["check", "--budget", "1", "--strategies", "rete",
             "--backends", "memory"]
        ) == 0
        assert "1/1 traces" in capsys.readouterr().out

    def test_pinned_program_fuzz(self, program_file, capsys):
        assert main(
            ["check", program_file, "--budget", "2", *self.FAST]
        ) == 0
        assert "2/2 traces" in capsys.readouterr().out

    def test_unknown_strategy_rejected(self, capsys):
        assert main(
            ["check", "--budget", "1", "--strategies", "nonesuch"]
        ) == 2
        assert "nonesuch" in capsys.readouterr().err

    def test_metrics_out(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        assert main(
            ["check", "--budget", "1", "--metrics-out", str(metrics),
             *self.FAST]
        ) == 0
        snapshot = json.loads(metrics.read_text())
        assert snapshot["counters"]["check.traces"] == 1

    def test_trace_out(self, tmp_path, capsys):
        trace_file = tmp_path / "t.jsonl"
        assert main(
            ["check", "--budget", "1", "--trace-out", str(trace_file),
             *self.FAST]
        ) == 0
        lines = [
            json.loads(line)
            for line in trace_file.read_text().splitlines() if line
        ]
        assert any(
            record.get("name") == "check.trace" for record in lines
        )

"""CLI tests (run/check/format/report)."""

import json

import pytest

from repro.cli import main

PROGRAM = """
(literalize Counter value limit)
(p count-up
    (Counter ^value <V> ^limit {<L> > <V>})
    -->
    (modify 1 ^value (compute <V> + 1))
    (write |now at| (compute <V> + 1)))
(make Counter ^value 0 ^limit 3)
"""


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "counter.ops"
    path.write_text(PROGRAM)
    return str(path)


class TestRun:
    def test_runs_program_with_initial_elements(self, program_file, capsys):
        assert main(["run", program_file]) == 0
        out = capsys.readouterr().out
        assert "3 cycles" in out
        assert "write: now at 3" in out
        assert "Counter" in out

    def test_quiet_mode(self, program_file, capsys):
        assert main(["run", program_file, "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "write:" not in out
        assert "3 cycles" in out

    @pytest.mark.parametrize("strategy", ["rete", "simplified", "markers"])
    def test_strategy_selection(self, program_file, strategy, capsys):
        assert main(["run", program_file, "--strategy", strategy]) == 0
        assert "3 cycles" in capsys.readouterr().out

    def test_max_cycles(self, program_file, capsys):
        assert main(["run", program_file, "--max-cycles", "2"]) == 0
        assert "cycle limit reached" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["run", "/nonexistent.ops"]) == 2
        assert "error" in capsys.readouterr().err

    def test_parse_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.ops"
        bad.write_text("(p broken")
        assert main(["run", str(bad)]) == 1
        assert "error" in capsys.readouterr().err


class TestRunArtifacts:
    def test_trace_and_metrics_out(self, program_file, tmp_path, capsys):
        import json

        trace = tmp_path / "t.jsonl"
        metrics = tmp_path / "m.json"
        assert main([
            "run", program_file, "--quiet",
            "--trace-out", str(trace), "--metrics-out", str(metrics),
        ]) == 0
        records = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        assert any(r["type"] == "span" for r in records)
        assert any(r["type"] == "event" for r in records)
        snapshot = json.loads(metrics.read_text())
        assert snapshot["counters"]["engine.fires"] == 3
        assert "ops.comparisons" in snapshot["gauges"]

    def test_manifest_written(self, program_file, tmp_path, capsys):
        import json

        runs = tmp_path / "runs"
        assert main([
            "run", program_file, "--quiet", "--manifest", str(runs),
        ]) == 0
        out = capsys.readouterr().out
        assert "manifest:" in out
        [run_dir] = list(runs.iterdir())
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["config"]["strategy"] == "patterns"
        assert manifest["program"]["path"] == program_file
        assert manifest["result"] == {"cycles": 3, "status": "quiescent"}
        assert "batch_size" not in manifest["config"]
        assert (run_dir / "metrics.json").exists()


class TestStats:
    def test_per_rule_phase_table(self, program_file, capsys):
        assert main(["stats", program_file]) == 0
        out = capsys.readouterr().out
        assert "count-up" in out
        for column in ("fires", "match_us", "select_us", "act_us", "total_us"):
            assert column in out
        assert "3 cycles" in out

    def test_bundled_example_program(self, capsys):
        import os

        example = os.path.join(
            os.path.dirname(__file__), "..", "examples", "orders.ops"
        )
        assert main(["stats", example]) == 0
        out = capsys.readouterr().out
        assert "ship-order" in out
        assert "flag-shortage" in out


class TestCheck:
    def test_summary(self, program_file, capsys):
        assert main(["check", program_file]) == 0
        out = capsys.readouterr().out
        assert "1 classes, 1 rules, 1 initial elements" in out
        assert "count-up" in out

    def test_semantic_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.ops"
        bad.write_text(
            "(literalize T x)(p r (T ^x <V>) --> (make T ^x <Z>))"
        )
        assert main(["check", str(bad)]) == 1

    FAST = ["check", "--budget", "1", "--backends", "memory"]

    @pytest.mark.parametrize("flags, named", [
        (["--crash", "--strategies", "rete"], "--strategies"),
        (["--resolutions", "lex,nope"], "--resolutions"),
        (["--crash", "--exec-modes", "txn,set"], "--exec-modes"),
        (["--crash", "--exec-modes", ","], "--exec-modes"),
        (["--exec-modes", "set"], "--exec-modes"),
        (["--replica"], "--replica"),
    ])
    def test_matrix_flag_it_cannot_honour_exits_2(self, flags, named,
                                                 capsys):
        """A flag the campaign would drop, filter or replace with a
        default is refused, naming the flag — a narrowed matrix never
        passes silently."""
        assert main([*self.FAST, *flags]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["run", "PROGRAM", "--compile", "off"],
        ["check", "--budget", "1", "--compile-modes", "off,on"],
    ])
    def test_retired_compile_flags_exit_2(self, flags, program_file, capsys):
        """Match compilation is no longer a choice: the flags that chose
        it are unknown to the parser, which exits 2 naming them."""
        argv = [program_file if arg == "PROGRAM" else arg for arg in flags]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "--compile" in capsys.readouterr().err

    def test_crash_runs_the_requested_exec_mode(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert main([*self.FAST, "--crash", "--exec-modes", "txn",
                     "--trace-out", str(trace)]) == 0
        assert "1/1 traces" in capsys.readouterr().out
        spans = [json.loads(line) for line in trace.read_text().splitlines()]
        assert [
            span["attrs"]["exec"] for span in spans
            if span.get("name") == "check.crash_trace"
        ] == ["txn"]


class TestFormat:
    def test_round_trips(self, program_file, capsys):
        assert main(["format", program_file]) == 0
        text = capsys.readouterr().out
        from repro.lang import parse_program

        program = parse_program(text)
        assert [r.name for r in program.rules] == ["count-up"]
        assert program.initial_elements == [
            ("Counter", {"value": 0, "limit": 3})
        ]


class TestExplain:
    def test_explains_all_rules(self, program_file, capsys):
        assert main(["explain", program_file]) == 0
        out = capsys.readouterr().out
        assert "count-up" in out
        # the initial (make Counter ...) satisfies the condition
        assert "1 instantiation" in out

    def test_explains_named_rule(self, program_file, capsys):
        assert main(["explain", program_file, "count-up"]) == 0
        assert "count-up" in capsys.readouterr().out

    def test_unknown_rule_is_an_error(self, program_file, capsys):
        assert main(["explain", program_file, "ghost"]) == 1
        assert "error" in capsys.readouterr().err


class TestReport:
    def test_single_experiment(self, capsys):
        assert main(["report", "f1"]) == 0
        assert "F1" in capsys.readouterr().out

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["report", "zz"])


class TestTopLevelMake:
    def test_initial_elements_loaded_by_production_system(self):
        from repro import ProductionSystem

        system = ProductionSystem(PROGRAM)
        (counter,) = system.wm.tuples("Counter")
        assert counter.values == (0, 3)

    def test_variables_rejected_in_toplevel_make(self):
        from repro.errors import ParseError
        from repro.lang import parse_program

        with pytest.raises(ParseError, match="constants"):
            parse_program("(literalize T x)(make T ^x <V>)")


class TestExplainXray:
    def test_support_chain_for_the_initial_wm(self, program_file, capsys):
        assert main(["explain", program_file]) == 0
        out = capsys.readouterr().out
        assert "count-up" in out
        assert "count-up[Counter#" in out  # provenance header
        assert "CE1" in out and "bindings:" in out

    def test_run_first_records_firing_history(self, program_file, capsys):
        assert main(["explain", program_file, "--strategy", "rete",
                     "--max-cycles", "10"]) == 0
        out = capsys.readouterr().out
        assert "via " in out  # join-node path annotations
        assert "fired at cycle(s):" in out
        assert "retracted at cycle" in out

    def test_wal_run_stamps_sequence_numbers(self, program_file, tmp_path,
                                             capsys):
        wal = tmp_path / "explain.wal"
        assert main(["explain", program_file, "--strategy", "rete",
                     "--max-cycles", "10", "--wal", str(wal)]) == 0
        assert "wal_seq=" in capsys.readouterr().out
        assert wal.exists()

    def test_instantiation_selector(self, program_file, capsys):
        assert main(["explain", program_file, "--instantiation", "1"]) == 0
        assert "count-up[" in capsys.readouterr().out

    def test_instantiation_out_of_range(self, program_file, capsys):
        assert main(["explain", program_file, "--instantiation", "9"]) == 1
        err = capsys.readouterr().err
        assert "no #9" in err

    def test_why_not_on_a_quiescent_rule(self, program_file, capsys):
        assert main(["explain", program_file, "--strategy", "rete",
                     "--max-cycles", "10", "--why-not"]) == 0
        out = capsys.readouterr().out
        assert "not satisfied" in out
        assert "blocked at CE1" in out

    def test_why_not_on_a_satisfied_rule(self, program_file, capsys):
        assert main(["explain", program_file, "--why-not"]) == 0
        assert "satisfied — no blocking condition" in \
            capsys.readouterr().out

    def test_network_json(self, program_file, capsys):
        import json as json_

        assert main(["explain", program_file, "--strategy", "rete",
                     "--network"]) == 0
        description = json_.loads(capsys.readouterr().out)
        assert {"alpha", "join", "production"} <= {
            node["kind"] for node in description["nodes"]
        }

    def test_dot_to_stdout(self, program_file, capsys):
        assert main(["explain", program_file, "--strategy", "rete",
                     "--dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_dot_to_file(self, program_file, tmp_path, capsys):
        target = tmp_path / "net.dot"
        assert main(["explain", program_file, "--strategy", "rete",
                     "--dot", str(target)]) == 0
        assert target.read_text().startswith("digraph")

    def test_dot_requires_a_rete_strategy(self, program_file, capsys):
        assert main(["explain", program_file, "--strategy", "patterns",
                     "--dot"]) == 1
        assert "no node graph" in capsys.readouterr().err


class TestTopCommand:
    def make_trace(self, program_file, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main(["run", program_file, "--strategy", "rete",
                     "--trace-out", str(trace), "--quiet"]) == 0
        return trace

    def test_static_dashboard(self, program_file, tmp_path, capsys):
        trace = self.make_trace(program_file, tmp_path)
        capsys.readouterr()
        assert main(["top", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "cycles 3" in out
        assert "p99" in out

    def test_follow_mode_bounded_by_frames(self, program_file, tmp_path,
                                           capsys):
        trace = self.make_trace(program_file, tmp_path)
        capsys.readouterr()
        assert main(["top", str(trace), "--follow", "--frames", "2",
                     "--interval", "0.01"]) == 0
        assert capsys.readouterr().out.count("repro top") == 2

    def test_missing_trace_file(self, capsys):
        assert main(["top", "no/such/trace.jsonl"]) == 2
        assert "error" in capsys.readouterr().err


class TestRunXrayFlags:
    def test_lineage_flag_keeps_the_outcome(self, program_file, capsys):
        assert main(["run", program_file, "--lineage"]) == 0
        assert "3 cycles" in capsys.readouterr().out

    def test_trace_rotation_produces_segments(self, program_file, tmp_path,
                                              capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["run", program_file, "--trace-out", str(trace),
                     "--trace-rotate-bytes", "400", "--trace-keep", "2",
                     "--quiet"]) == 0
        backups = sorted(p.name for p in tmp_path.glob("trace.jsonl.*"))
        assert backups and backups[0] == "trace.jsonl.1"
        assert len(backups) <= 2


class TestTenantQuotaFlags:
    def test_tenant_depths_parse(self):
        from repro.cli import _tenant_depths

        parsed = _tenant_depths(["t1=8", "noisy=2"], "--tenant-defer-depth")
        assert parsed == {"t1": 8, "noisy": 2}
        assert _tenant_depths(None, "--tenant-defer-depth") == {}

    @pytest.mark.parametrize("bad", ["t1", "t1=", "=8", "t1=eight", "t1=-2"])
    def test_malformed_overrides_rejected(self, bad):
        from repro.cli import _tenant_depths
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="TENANT=N"):
            _tenant_depths([bad], "--tenant-defer-depth")

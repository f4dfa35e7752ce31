"""The durability verbs on the CLI: ``run --wal``, ``resume``,
``stats --flamegraph`` and ``check --crash`` / ``--resolutions``."""

import os

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


class TestRunWithWal:
    def test_wal_run_behaves_like_plain_run(self, program_file, tmp_path,
                                            capsys):
        wal = str(tmp_path / "run.wal")
        assert main(["run", program_file, "--wal", wal]) == 0
        out = capsys.readouterr().out
        assert "3 cycles" in out
        assert "write: now at 3" in out
        assert os.path.exists(wal)

    def test_checkpoint_lands_next_to_the_wal(self, program_file, tmp_path,
                                              capsys):
        wal = str(tmp_path / "run.wal")
        assert main(
            ["run", program_file, "--wal", wal, "--checkpoint-every", "1"]
        ) == 0
        assert os.path.exists(wal + ".ckpt")

    def test_checkpoint_flags_without_wal_rejected(self, program_file,
                                                   capsys):
        assert main(
            ["run", program_file, "--checkpoint-every", "2"]
        ) == 2
        assert "--wal" in capsys.readouterr().err


class TestResume:
    def test_resume_a_finished_run_is_quiescent(self, program_file,
                                                tmp_path, capsys):
        wal = str(tmp_path / "run.wal")
        assert main(["run", program_file, "--wal", wal, "--quiet"]) == 0
        capsys.readouterr()
        assert main(["resume", wal]) == 0
        out = capsys.readouterr().out
        assert f"recovered {wal}" in out
        assert "0 cycles after recovery, quiescent" in out
        # The recovered WM matches the finished run's.
        assert "Counter" in out and "3" in out

    def test_resume_uses_the_checkpoint(self, program_file, tmp_path,
                                        capsys):
        wal = str(tmp_path / "run.wal")
        assert main(
            ["run", program_file, "--wal", wal, "--checkpoint-every", "1",
             "--quiet"]
        ) == 0
        capsys.readouterr()
        assert main(
            ["resume", wal, "--checkpoint", wal + ".ckpt", "--quiet"]
        ) == 0
        assert "checkpoint" in capsys.readouterr().out

    def test_resume_without_a_log_fails_cleanly(self, tmp_path, capsys):
        assert main(["resume", str(tmp_path / "absent.wal")]) == 2
        assert "error" in capsys.readouterr().err


class TestFlamegraph:
    def test_program_run_folds_to_stacks(self, program_file, capsys):
        assert main(["stats", program_file, "--flamegraph"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line]
        assert lines, "expected collapsed stacks on stdout"
        assert all(line.rsplit(" ", 1)[1].isdigit() for line in lines)
        roots = {line.split(" ")[0].split(";")[0] for line in lines}
        assert {"act", "select"} <= roots

    def test_trace_file_folds_and_shows_fsync(self, program_file, tmp_path,
                                              capsys):
        wal = str(tmp_path / "run.wal")
        trace = str(tmp_path / "t.jsonl")
        assert main(
            ["run", program_file, "--wal", wal, "--trace-out", trace,
             "--quiet"]
        ) == 0
        capsys.readouterr()
        assert main(["stats", trace, "--flamegraph"]) == 0
        out = capsys.readouterr().out
        assert "recovery.fsync" in out

    def test_output_file_target(self, program_file, tmp_path, capsys):
        folded = str(tmp_path / "out.folded")
        assert main(
            ["stats", program_file, "--flamegraph", folded]
        ) == 0
        assert "stacks ->" in capsys.readouterr().out
        assert os.path.getsize(folded) > 0


class TestCheckAxes:
    def test_unknown_resolution_rejected(self, capsys):
        assert main(
            ["check", "--budget", "1", "--resolutions", "nonesuch"]
        ) == 2
        assert "nonesuch" in capsys.readouterr().err

    def test_resolutions_axis_runs(self, capsys):
        assert main(
            ["check", "--budget", "2", "--resolutions", "mea,fifo",
             "--strategies", "rete", "--backends", "memory"]
        ) == 0
        out = capsys.readouterr().out
        assert "2/2 traces" in out and "OK" in out

    def test_crash_campaign_runs(self, capsys):
        assert main(
            ["check", "--budget", "2", "--crash", "--backends", "memory"]
        ) == 0
        out = capsys.readouterr().out
        assert "2/2 traces" in out
        assert "recover" in out
        assert "OK" in out

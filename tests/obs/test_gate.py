"""The metric-snapshot regression gate (CI)."""

import json

from repro.obs.gate import (
    DEFAULT_BASELINE,
    Violation,
    collect_metrics,
    compare,
    run_gate,
)


class TestCompare:
    BASE = {"ops.comparisons": 100, "engine.wm_size": 6}

    def test_identical_passes(self):
        assert compare(self.BASE, dict(self.BASE)) == []

    def test_within_tolerance_passes(self):
        current = {"ops.comparisons": 108, "engine.wm_size": 6}
        assert compare(self.BASE, current, tolerance=0.10) == []

    def test_growth_beyond_tolerance_fails(self):
        current = {"ops.comparisons": 120, "engine.wm_size": 6}
        violations = compare(self.BASE, current, tolerance=0.10)
        assert [v.metric for v in violations] == ["ops.comparisons"]
        assert "grew" in violations[0].reason

    def test_improvement_passes(self):
        current = {"ops.comparisons": 10, "engine.wm_size": 6}
        assert compare(self.BASE, current, tolerance=0.10) == []

    def test_outcome_gauge_must_match_exactly(self):
        current = {"ops.comparisons": 100, "engine.wm_size": 7}
        violations = compare(self.BASE, current)
        assert [v.metric for v in violations] == ["engine.wm_size"]
        assert "outcome" in violations[0].reason

    def test_missing_metric_fails(self):
        current = {"engine.wm_size": 6}
        violations = compare(self.BASE, current)
        assert [v.metric for v in violations] == ["ops.comparisons"]
        assert "disappeared" in violations[0].reason

    def test_new_metrics_are_ignored_until_baselined(self):
        current = {**self.BASE, "ops.shiny_new": 5}
        assert compare(self.BASE, current) == []

    def test_zero_baseline_growth_fails(self):
        violations = compare({"ops.false_drops": 0}, {"ops.false_drops": 3})
        assert len(violations) == 1


class TestCollect:
    def test_canned_run_is_deterministic(self):
        first = collect_metrics()
        second = collect_metrics()
        assert first == second

    def test_no_wall_clock_metrics_collected(self):
        for name in collect_metrics():
            assert not name.endswith(("_us", "_seconds", "_ms"))


class TestCheckedInBaseline:
    def test_gate_passes_against_checked_in_baseline(self):
        ok, violations, _current = run_gate()
        assert ok, [str(v) for v in violations]

    def test_baseline_file_matches_gate_defaults(self):
        payload = json.loads(open(DEFAULT_BASELINE).read())
        assert payload["program"] == "examples/orders.ops"
        assert payload["strategy"] == "patterns"
        assert payload["backend"] == "sqlite"
        assert payload["metrics"]


class TestRunGate:
    def test_update_then_pass_roundtrip(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        ok, violations, current = run_gate(
            baseline_path=str(baseline), update=True
        )
        assert ok and not violations and current
        ok, violations, _ = run_gate(baseline_path=str(baseline))
        assert ok

    def test_tampered_baseline_fails(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        run_gate(baseline_path=str(baseline), update=True)
        payload = json.loads(baseline.read_text())
        # Pretend the past was much cheaper than the present.
        payload["metrics"]["ops.comparisons"] = 1
        baseline.write_text(json.dumps(payload))
        ok, violations, _ = run_gate(baseline_path=str(baseline))
        assert not ok
        assert any(v.metric == "ops.comparisons" for v in violations)

    def test_cli_exit_codes(self, tmp_path, capsys):
        from repro.obs.gate import main

        baseline = tmp_path / "baseline.json"
        assert main(["--update", "--baseline", str(baseline)]) == 0
        assert main(["--baseline", str(baseline)]) == 0
        payload = json.loads(baseline.read_text())
        payload["metrics"]["ops.comparisons"] = 1
        baseline.write_text(json.dumps(payload))
        assert main(["--baseline", str(baseline)]) == 1
        assert "FAILED" in capsys.readouterr().err


def test_violation_str_is_informative():
    v = Violation("ops.comparisons", 100, 150, "grew 50.0%")
    text = str(v)
    assert "ops.comparisons" in text and "100" in text and "150" in text


class TestHistogramCounts:
    """Histogram observation counts are gated; timing values are not."""

    def test_collect_includes_histogram_counts(self):
        values = collect_metrics()
        hist_keys = {k for k in values if k.startswith("hist.")}
        assert "hist.engine.cycle_us.count" in hist_keys
        assert all(k.endswith(".count") for k in hist_keys)
        assert all(isinstance(values[k], int) for k in hist_keys)

    def test_histogram_counts_are_deterministic(self):
        first = collect_metrics()
        second = collect_metrics()
        for key in first:
            if key.startswith("hist."):
                assert first[key] == second[key]

    def test_checked_in_baseline_covers_histograms(self):
        payload = json.loads(open(DEFAULT_BASELINE).read())
        assert any(k.startswith("hist.") for k in payload["metrics"])

    def test_dropped_histogram_fails_the_gate(self):
        baseline = collect_metrics()
        current = {
            k: v for k, v in baseline.items()
            if k != "hist.engine.cycle_us.count"
        }
        violations = compare(baseline, current)
        assert any(
            v.metric == "hist.engine.cycle_us.count" for v in violations
        )


class TestUpdate:
    """``--update`` rewrites the baseline and prints the drift it banks."""

    def test_creates_a_missing_baseline(self, tmp_path, capsys):
        from repro.obs.gate import main

        baseline = tmp_path / "baseline.json"
        assert main(["--update", "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "creating one" in out and "baseline updated" in out
        payload = json.loads(baseline.read_text())
        assert any(k.startswith("hist.") for k in payload["metrics"])

    def test_check_mode_shows_drift_without_writing(self, tmp_path, capsys):
        from repro.obs.gate import main

        baseline = tmp_path / "baseline.json"
        run_gate(baseline_path=str(baseline), update=True)
        payload = json.loads(baseline.read_text())
        payload["metrics"]["ops.comparisons"] = 1  # pretend it regressed
        baseline.write_text(json.dumps(payload))
        before = baseline.read_text()
        assert main(["--baseline", str(baseline)]) == 1
        assert "ops.comparisons" in capsys.readouterr().err
        assert baseline.read_text() == before

    def test_banked_drift_is_printed(self, tmp_path, capsys):
        from repro.obs.gate import main

        baseline = tmp_path / "baseline.json"
        run_gate(baseline_path=str(baseline), update=True)
        payload = json.loads(baseline.read_text())
        payload["metrics"]["ops.comparisons"] = 1  # pretend it regressed
        baseline.write_text(json.dumps(payload))
        assert main(["--update", "--baseline", str(baseline)]) == 0
        assert "banking: ops.comparisons" in capsys.readouterr().out
        ok, _, _ = run_gate(baseline_path=str(baseline))
        assert ok  # the refreshed baseline passes again

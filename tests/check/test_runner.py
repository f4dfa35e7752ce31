"""The campaign driver: reports, metrics, repro promotion."""

import json

from repro.check import run_check
from repro.check.corpus import load_corpus
from repro.match import STRATEGIES
from repro.obs import Observability, RingBufferSink

from tests.check.test_oracle import BrokenStrategy

FAST = dict(backends=("memory",))


class TestCleanRun:
    def test_report_shape(self):
        report = run_check(budget=2, seed=0, strategies=["rete", "patterns"],
                           **FAST)
        assert report.ok
        assert report.traces_run == 2
        assert report.configs == 3  # per-op reference + each strategy
        assert report.failures == []
        assert "2/2 traces" in report.summary()
        assert "OK" in report.summary()

    def test_spans_and_metrics(self):
        sink = RingBufferSink()
        obs = Observability(sinks=[sink], collect_metrics=True)
        report = run_check(budget=3, seed=0,
                           strategies=["rete", "patterns"], obs=obs, **FAST)
        assert report.ok
        assert len(sink.spans("check.trace")) == 3
        snapshot = obs.metrics.snapshot()
        assert snapshot["counters"]["check.traces"] == 3
        assert snapshot["counters"]["check.replays"] == 9
        assert "check.failures" not in snapshot["counters"]
        assert snapshot["histograms"]["check.trace_us"]["count"] == 3


class TestFailingRun:
    STRATEGIES = {"rete": STRATEGIES["rete"], "broken": BrokenStrategy}

    def test_failure_is_shrunk_and_saved(self, tmp_path):
        corpus = tmp_path / "corpus"
        report = run_check(
            budget=1, seed=0, strategies=self.STRATEGIES,
            save_repro_dir=str(corpus), **FAST,
        )
        assert not report.ok
        failure = report.failures[0]
        assert failure.shrunk is not None
        assert len(failure.shrunk.ops) <= 6
        assert failure.repro_path is not None
        entries = load_corpus(str(corpus))
        assert len(entries) == 1
        _, saved = entries[0]
        assert saved.ops == failure.shrunk.ops
        assert saved.reason  # divergence description recorded

    def test_failure_metrics_and_event(self):
        sink = RingBufferSink()
        obs = Observability(sinks=[sink], collect_metrics=True)
        report = run_check(budget=1, seed=0, strategies=self.STRATEGIES,
                           obs=obs, **FAST)
        assert len(report.failures) == 1
        snapshot = obs.metrics.snapshot()
        assert snapshot["counters"]["check.failures"] == 1
        events = sink.events("check.divergence")
        assert len(events) == 1
        assert "conflict" in events[0]["detail"]

    def test_shrinking_can_be_disabled(self):
        report = run_check(budget=1, seed=0, strategies=self.STRATEGIES,
                           shrink_failures=False, **FAST)
        assert not report.ok
        assert report.failures[0].shrunk is None

    def test_saved_repro_round_trips_through_json(self, tmp_path):
        corpus = tmp_path / "corpus"
        run_check(budget=1, seed=0, strategies=self.STRATEGIES,
                  save_repro_dir=str(corpus), **FAST)
        (path, trace) = load_corpus(str(corpus))[0]
        data = json.loads(open(path).read())
        assert data["name"] == trace.name
        assert data["program"] == trace.program

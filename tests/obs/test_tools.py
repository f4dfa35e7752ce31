"""Gating report counts: the A5/A6 keys the nightly bench smoke compared.

The report-count gate (``tests/bench/test_report_counts.py``) compares
``<report>[<row>].<column>`` counts with :func:`repro.obs.gate.compare`;
these cases pin that comparator on such keys at the smoke's 20% tolerance.
"""

from repro.obs.gate import compare


class TestBenchSmokeCompare:
    BASE = {"a5[rete/batch=1].comparisons": 100, "a6[wal].fsyncs": 10}

    def current(self, **overrides):
        return dict(self.BASE, **overrides)

    def test_identical_passes(self):
        assert compare(self.BASE, self.current(), 0.20) == []

    def test_growth_within_tolerance_passes(self):
        current = self.current(**{"a5[rete/batch=1].comparisons": 115})
        assert compare(self.BASE, current, 0.20) == []

    def test_growth_beyond_tolerance_fails(self):
        current = self.current(**{"a5[rete/batch=1].comparisons": 150})
        [failure] = compare(self.BASE, current, 0.20)
        assert "grew 50.0%" in str(failure)

    def test_improvement_passes(self):
        current = self.current(**{"a5[rete/batch=1].comparisons": 10})
        assert compare(self.BASE, current, 0.20) == []

    def test_disappeared_count_fails(self):
        current = {"a6[wal].fsyncs": 10}
        [failure] = compare(self.BASE, current, 0.20)
        assert "disappeared" in str(failure)

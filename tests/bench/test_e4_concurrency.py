"""E4 — §5: serial vs concurrent execution of the conflict set.

Paper claims (§5.2): "In the best case, neglecting locking overhead, this
will be proportional to the maximum number of updates to any WM relation or
COND relation.  In the worst case, this will reduce to the time taken for a
serial execution."  The second measure is "the number of serializable
schedules equivalent to a single serial schedule".

Table: python -m repro.bench.report e4
"""

import pytest

from repro.bench.report import report_e4


class TestE4Shape:
    @pytest.fixture(scope="class")
    def rows(self):
        _, rows = report_e4(sizes=(2, 4, 8))
        return rows

    def _pick(self, rows, workload):
        return {r["rules"]: r for r in rows if r["workload"] == workload}

    def test_independent_speedup_scales_with_rules(self, rows):
        independent = self._pick(rows, "independent")
        assert independent[8]["speedup"] > independent[2]["speedup"]
        assert independent[8]["speedup"] >= 4.0

    def test_independent_makespan_tracks_critical_path(self, rows):
        """Best case ∝ max updates to any one relation: adding more
        *independent* rules leaves the makespan flat."""
        independent = self._pick(rows, "independent")
        assert independent[8]["makespan"] == independent[2]["makespan"]

    def test_contended_degenerates_toward_serial(self, rows):
        contended = self._pick(rows, "contended")
        independent = self._pick(rows, "independent")
        assert contended[8]["makespan"] > independent[8]["makespan"]
        assert contended[8]["speedup"] < independent[8]["speedup"]

    def test_equivalent_order_counts(self, rows):
        """Independent transactions admit n! equivalent serial orders;
        fully contended ones admit exactly one."""
        independent = self._pick(rows, "independent")
        contended = self._pick(rows, "contended")
        assert independent[4]["equiv_orders"] == 24
        assert contended[4]["equiv_orders"] == 1

    def test_everything_commits(self, rows):
        assert all(r["committed"] == r["rules"] for r in rows)

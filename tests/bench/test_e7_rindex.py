"""E7 — §4.2.3: R-trees as fast matching devices on COND relations.

Paper claims: "Building indices such as R-trees or R+-trees on COND
relations can help in speeding up this process.  Another significant
advantage of such indices is their use in answering queries on the rulebase
itself", e.g. "Give me all the rules that apply on employees older than 55."

Table: python -m repro.bench.report e7
"""

import pytest

from repro.bench.report import report_e7


class TestE7Shape:
    @pytest.fixture(scope="class")
    def rows(self):
        _, rows = report_e7(condition_counts=(50, 400), probes=150)
        return {r["conditions"]: r for r in rows}

    def test_rtree_beats_linear_scan(self, rows):
        assert rows[400]["rtree_ms"] < rows[400]["linear_ms"]

    def test_advantage_grows_with_rulebase_size(self, rows):
        assert rows[400]["speedup"] >= rows[50]["speedup"] * 0.8

    def test_index_never_misses(self, rows):
        for row in rows.values():
            assert row["rtree_hits"] >= row["exact_hits"]

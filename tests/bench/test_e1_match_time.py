"""E1 — §4.2.3 "Time": match cost across the indexing strategies.

Paper claims: "Matching is very fast with our approach because only a
single search over a COND relation is necessary"; the simplified scheme
"may be slower in some cases since re-computation of joins is necessary
whenever a change is made"; Rete pays hierarchical propagation on every
token either way.

Table: python -m repro.bench.report e1
"""

import pytest

from repro.bench.report import report_e1

STREAM_LENGTH = 150


class TestE1Shape:
    @pytest.fixture(scope="class")
    def rows(self):
        _, rows = report_e1(rule_counts=(10,), stream_length=STREAM_LENGTH)
        return rows

    def test_simplified_recomputes_joins_others_do_not(self, rows):
        by_name = {r["strategy"]: r for r in rows}
        assert by_name["simplified"]["joins_computed"] > 0
        assert by_name["rete"]["joins_computed"] == 0

    def test_pattern_matching_uses_cond_searches(self, rows):
        by_name = {r["strategy"]: r for r in rows}
        # One COND search per insert event (plus none for Rete).
        assert by_name["patterns"]["cond_searches"] >= STREAM_LENGTH
        assert by_name["rete"]["cond_searches"] == 0

    def test_all_strategies_processed_all_events(self, rows):
        assert {r["events"] for r in rows} == {STREAM_LENGTH}

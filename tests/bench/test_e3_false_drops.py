"""E3 — §3.2: false drops of tuple-marker rule indexing.

Paper claim: with POSTGRES-style markers "a new insertion to that relation
will trigger both of these rules, even though it should not be fired
because there are no matching Dept tuples.  POSTGRES will of course check
the conditions of the rules before the corresponding actions are
performed, but that will incur unnecessarily high computation cost."

Table: python -m repro.bench.report e3
"""

import pytest

from repro.bench.report import report_e3


class TestE3Shape:
    @pytest.fixture(scope="class")
    def rows(self):
        _, rows = report_e3(stream_length=250)
        return {r["strategy"]: r for r in rows}

    def test_markers_suffer_false_drops(self, rows):
        assert rows["markers"]["false_drops"] > 0

    def test_rete_never_false_drops(self, rows):
        assert rows["rete"]["false_drops"] == 0

    def test_patterns_drop_less_than_markers(self, rows):
        assert rows["patterns"]["false_drops"] < rows["markers"]["false_drops"]

    def test_all_reach_the_same_conflict_set(self, rows):
        adds = {r["conflict_adds"] for r in rows.values()}
        assert len(adds) == 1

    def test_marker_space_cheapest(self, rows):
        assert rows["markers"]["aux_cells"] < rows["rete"]["aux_cells"]

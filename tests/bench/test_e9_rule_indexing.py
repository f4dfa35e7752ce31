"""E9 — §2.3: Basic Locking vs Predicate Indexing ([STON86a]).

Paper claim: "Performance analysis results in [STON86a] show that it is
not possible to choose one implementation to efficiently support any
rule-based environment.  Depending on the probability of updating base
relations and the number of conditions that overlap ... the first or the
second approach becomes more efficient."

Table: python -m repro.bench.report e9
"""

import pytest

from repro.bench.report import report_e9


class TestE9Shape:
    @pytest.fixture(scope="class")
    def rows(self):
        _, rows = report_e9(stream_length=200)
        return rows

    def _pick(self, rows, overlap, strategy):
        for row in rows:
            if row["overlap"] == overlap and row["strategy"] == strategy:
                return row
        raise AssertionError(f"missing {overlap}/{strategy}")

    def test_both_reach_the_same_conflict_set(self, rows):
        for overlap in ("low", "high"):
            assert (
                self._pick(rows, overlap, "markers")["conflict_adds"]
                == self._pick(rows, overlap, "predicate-index")["conflict_adds"]
            )

    def test_predicate_index_stores_less(self, rows):
        """No markers on data tuples — only condition boxes."""
        for overlap in ("low", "high"):
            assert (
                self._pick(rows, overlap, "predicate-index")["aux_cells"]
                < self._pick(rows, overlap, "markers")["aux_cells"]
            )

    def test_predicate_index_searches_per_update(self, rows):
        assert self._pick(rows, "low", "predicate-index")["index_lookups"] > 0
        assert self._pick(rows, "low", "markers")["index_lookups"] == 0

    def test_same_false_drop_validation_economics(self, rows):
        """Both schemes validate candidates with full LHS checks, so the
        drop counts coincide — detection differs, validation does not."""
        for overlap in ("low", "high"):
            assert (
                self._pick(rows, overlap, "markers")["false_drops"]
                == self._pick(rows, overlap, "predicate-index")["false_drops"]
            )

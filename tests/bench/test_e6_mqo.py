"""E6 — §3.2/§6: multiple-query-optimized (shared) Rete networks.

Paper claim: "since it is the case that multiple conditions have to be
evaluated and these conditions may share simpler conditions, such as
selections or joins, it would be advantageous to build a global compiled
plan that avoids multiple relation accesses" — the MQO-optimized network
the authors planned to study ([SELL86], §6 future work).

Table: python -m repro.bench.report e6
"""

import pytest

from repro.bench.report import report_e6


class TestE6Shape:
    @pytest.fixture(scope="class")
    def rows(self):
        _, rows = report_e6(stream_length=200)
        return rows

    def _pick(self, rows, pool, strategy):
        for row in rows:
            if row["overlap_pool"] == pool and row["strategy"] == strategy:
                return row
        raise AssertionError(f"missing row {pool}/{strategy}")

    def test_sharing_reduces_node_counts(self, rows):
        naive = self._pick(rows, 6, "rete")
        shared = self._pick(rows, 6, "rete-shared")
        assert shared["alpha_memories"] < naive["alpha_memories"]
        assert shared["join_nodes"] < naive["join_nodes"]

    def test_sharing_reduces_match_work(self, rows):
        naive = self._pick(rows, 6, "rete")
        shared = self._pick(rows, 6, "rete-shared")
        assert shared["activations"] < naive["activations"]

    def test_overlap_amplifies_the_benefit(self, rows):
        def ratio(pool):
            naive = self._pick(rows, pool, "rete")
            shared = self._pick(rows, pool, "rete-shared")
            return shared["alpha_memories"] / naive["alpha_memories"]

        assert ratio(6) < ratio("none")

"""E2 — §4.2.3 "Space": storage footprint of each strategy.

Paper claims: the Rete network "is an inherently redundant storage
structure since it stores a token for each WM element satisfying a rule
condition"; the simplified scheme stores "no intermediate results"; the
matching-pattern scheme "consumes a lot of space for storing matching
patterns ... a trade-off between matching time and space"; POSTGRES
markers are "clearly lower ... as rule identifiers require much less
space compared to the full data tuples".

Table: python -m repro.bench.report e2
"""

import pytest

from repro.bench.report import report_e2


class TestE2Shape:
    @pytest.fixture(scope="class")
    def rows(self):
        _, rows = report_e2(stream_length=250)
        return {r["strategy"]: r for r in rows}

    def test_rete_stores_redundant_tokens(self, rows):
        assert rows["rete"]["stored_tokens"] > 0
        assert rows["rete"]["estimated_cells"] > rows["simplified"][
            "estimated_cells"
        ]

    def test_simplified_stores_no_intermediate_results(self, rows):
        assert rows["simplified"]["stored_tokens"] == 0
        assert rows["simplified"]["stored_patterns"] == 0

    def test_patterns_trade_space_for_time(self, rows):
        assert rows["patterns"]["stored_patterns"] > 0
        assert (
            rows["patterns"]["estimated_cells"]
            > rows["simplified"]["estimated_cells"]
        )

    def test_marker_space_is_cheapest_aux_per_entry(self, rows):
        # One cell per marker entry: far below Rete's token cells.
        assert rows["markers"]["estimated_cells"] == rows["markers"][
            "marker_entries"
        ]
        assert (
            rows["markers"]["estimated_cells"]
            < rows["rete"]["estimated_cells"]
        )

    def test_sharing_reduces_rete_tokens(self, rows):
        assert (
            rows["rete-shared"]["stored_tokens"]
            <= rows["rete"]["stored_tokens"]
        )

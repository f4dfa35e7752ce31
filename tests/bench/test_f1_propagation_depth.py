"""F1 — Figure 1: propagation delay vs chain depth.

Paper claim (§4): "the propagation delay of inserting a token into C2 ...
will be significant if the number of single input nodes n is large.  No
speed-up by parallel processing is possible because all operations must be
done sequentially."  The flat matching-pattern scheme detects the match
with a single COND search regardless of depth.

Table: python -m repro.bench.report f1
"""

import pytest

from repro.bench.report import report_f1


class TestF1Shape:
    """The figure's qualitative content, asserted."""

    @pytest.fixture(scope="class")
    def rows(self):
        _, rows = report_f1(depths=(2, 4, 8))
        return rows

    def test_rete_cost_grows_with_depth(self, rows):
        rete = {r["depth"]: r["match_searches"] for r in rows
                if r["strategy"] == "rete"}
        assert rete[8] > rete[2]

    def test_pattern_match_is_depth_independent(self, rows):
        patterns = {r["depth"]: r["match_searches"] for r in rows
                    if r["strategy"] == "patterns"}
        assert patterns[2] == patterns[8] == 1

    def test_pattern_maintenance_grows_but_is_separate(self, rows):
        maintenance = {r["depth"]: r["maintenance_ops"] for r in rows
                       if r["strategy"] == "patterns"}
        assert maintenance[8] > maintenance[2]

    def test_both_detect_the_match(self, rows):
        assert all(r["conflict_adds"] == 1 for r in rows)

"""E8 — §3.2: persisting Rete memories in a DBMS.

Paper claim: the straightforward DBMS implementation of the Rete network
"offers several advantages, such as simplicity and re-usability of existing
technology" — the memories become LEFT/RIGHT relations, at an I/O cost.
These tests compare the plain in-memory Rete against the DBMS-Rete with
its memory relations stored in the in-memory engine and in SQLite.

Table: python -m repro.bench.report e8
"""

import pytest

from repro.bench.report import report_e8


class TestE8Shape:
    @pytest.fixture(scope="class")
    def rows(self):
        _, rows = report_e8(stream_length=120)
        return {r["configuration"]: r for r in rows}

    def test_all_backends_reach_same_matches(self, rows):
        adds = {r["conflict_adds"] for r in rows.values()}
        assert len(adds) == 1

    def test_persistence_writes_memory_relations(self, rows):
        assert rows["rete (no persistence)"]["tuple_writes"] == 0
        assert rows["rete-dbms memory"]["tuple_writes"] > 0
        assert (
            rows["rete-dbms sqlite"]["tuple_writes"]
            == rows["rete-dbms memory"]["tuple_writes"]
        )

    def test_persistence_costs_time(self, rows):
        assert (
            rows["rete-dbms sqlite"]["us/event"]
            >= rows["rete (no persistence)"]["us/event"]
        )

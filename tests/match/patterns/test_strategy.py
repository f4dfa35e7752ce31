"""Behavioural tests for the matching-pattern strategy."""

from repro.engine import WorkingMemory
from repro.lang import analyze_program, parse_program
from repro.match.patterns import MatchingPatternsStrategy


def build(source):
    program = parse_program(source)
    analyses = analyze_program(program.rules, program.schemas)
    wm = WorkingMemory(program.schemas)
    return wm, MatchingPatternsStrategy(wm, analyses)


JOIN_SOURCE = """
(literalize Emp name dno)
(literalize Dept dno dname)
(p works-in (Emp ^name <N> ^dno <D>) (Dept ^dno <D>) --> (remove 1))
"""

NEGATION_SOURCE = """
(literalize Emp name dno)
(literalize Audit dno)
(p unaudited (Emp ^name <N> ^dno <D>) -(Audit ^dno <D>) --> (remove 1))
"""


class TestBasicMatching:
    def test_join_completion_either_order(self):
        for order in (("Emp", "Dept"), ("Dept", "Emp")):
            wm, strategy = build(JOIN_SOURCE)
            for cls in order:
                if cls == "Emp":
                    wm.insert("Emp", ("Mike", 1))
                else:
                    wm.insert("Dept", (1, "Toy"))
            assert len(strategy.conflict_set) == 1, order

    def test_non_joining_tuples_accumulate_patterns_only(self):
        wm, strategy = build(JOIN_SOURCE)
        wm.insert("Emp", ("Mike", 1))
        wm.insert("Dept", (2, "Toy"))
        assert len(strategy.conflict_set) == 0
        report = strategy.space_report()
        assert report.detail["derived_patterns"] >= 2

    def test_matching_is_single_cond_search(self):
        """§4.2.3 Time: 'only a single search over a COND relation'."""
        wm, strategy = build(JOIN_SOURCE)
        wm.insert("Dept", (1, "Toy"))
        before = strategy.counters.snapshot()
        wm.insert("Emp", ("Sam", 99))  # matches nothing joinable
        diff = strategy.counters.diff(before)
        assert diff["cond_searches"] == 1

    def test_deletion_withdraws_support_exactly(self):
        wm, strategy = build(JOIN_SOURCE)
        d1 = wm.insert("Dept", (1, "Toy"))
        d2 = wm.insert("Dept", (1, "Shoe"))
        wm.insert("Emp", ("Mike", 1))
        assert len(strategy.conflict_set) == 2
        wm.remove(d1)
        assert len(strategy.conflict_set) == 1
        wm.remove(d2)
        assert len(strategy.conflict_set) == 0
        # derived patterns whose support vanished are garbage-collected
        emp_store = strategy.stores["Emp"]
        assert emp_store.derived_count() == 0

    def test_templates_never_garbage_collected(self):
        wm, strategy = build(JOIN_SOURCE)
        dept = wm.insert("Dept", (1, "Toy"))
        wm.remove(dept)
        assert strategy.stores["Emp"].pattern_count() == 1  # the template


class TestNegation:
    def test_blocker_prevents_fire(self):
        wm, strategy = build(NEGATION_SOURCE)
        wm.insert("Audit", (1,))
        wm.insert("Emp", ("Mike", 1))
        assert len(strategy.conflict_set) == 0

    def test_late_blocker_retracts(self):
        wm, strategy = build(NEGATION_SOURCE)
        wm.insert("Emp", ("Mike", 1))
        assert len(strategy.conflict_set) == 1
        wm.insert("Audit", (1,))
        assert len(strategy.conflict_set) == 0

    def test_blocker_removal_fires_via_pattern_transition(self):
        wm, strategy = build(NEGATION_SOURCE)
        audit = wm.insert("Audit", (1,))
        wm.insert("Emp", ("Mike", 1))
        wm.remove(audit)
        assert len(strategy.conflict_set) == 1

    def test_blocker_counts_require_all_witnesses_gone(self):
        wm, strategy = build(NEGATION_SOURCE)
        a1 = wm.insert("Audit", (1,))
        a2 = wm.insert("Audit", (1,))
        wm.insert("Emp", ("Mike", 1))
        wm.remove(a1)
        assert len(strategy.conflict_set) == 0
        wm.remove(a2)
        assert len(strategy.conflict_set) == 1

    def test_blocker_scoped_by_bindings(self):
        wm, strategy = build(NEGATION_SOURCE)
        wm.insert("Audit", (1,))
        wm.insert("Emp", ("Mike", 1))
        wm.insert("Emp", ("Sam", 2))
        (inst,) = strategy.instantiations()
        assert inst.binding_map()["N"] == "Sam"

    def test_negated_mark_bits_render_inverted(self):
        wm, strategy = build(NEGATION_SOURCE)
        (template_row,) = strategy.cond_rows("Emp")
        assert template_row["Mark"] == "1"  # satisfied while no blocker
        wm.insert("Audit", (1,))
        marks = {row["Mark"] for row in strategy.cond_rows("Emp")}
        assert "0" in marks  # the specialized blocked pattern


class TestFalseDrops:
    def test_false_drop_counted_not_acted_on(self):
        source = """
        (literalize A v w)
        (literalize B v w)
        (p R (A ^v <x> ^w <p>) (B ^v <x> ^w <q>) --> (halt))
        """
        wm, strategy = build(source)
        # Create support so A's patterns look complete on <x>, while the
        # actual combination later fails on nothing — engineered drop: the
        # pattern fires but selection validates, so CS stays correct.
        wm.insert("B", (1, "b1"))
        wm.insert("A", (1, "a1"))
        assert len(strategy.conflict_set) == 1
        assert strategy.counters.false_drops == 0
        # Now a rule whose union-full gate passes but whose join fails:
        source2 = """
        (literalize A x y)
        (literalize B x y)
        (literalize C x y)
        (p R (A ^x <i> ^y <j>) (B ^x <i> ^y <k>) (C ^x <k> ^y <j>) --> (halt))
        """
        wm2, strategy2 = build(source2)
        wm2.insert("B", (1, 5))
        wm2.insert("C", (9, 7))
        wm2.insert("A", (1, 7))  # i,j supported separately but no combo
        assert len(strategy2.conflict_set) == 0
        assert strategy2.counters.false_drops >= 1

    def test_conflict_set_never_contains_unvalidated_entries(self):
        wm, strategy = build(JOIN_SOURCE)
        wm.insert("Emp", ("Mike", 1))
        wm.insert("Dept", (2, "Toy"))
        for inst in strategy.instantiations():
            for wme in inst.positive_wmes():
                assert wm.get(wme.relation, wme.tid)


class TestSpaceAccounting:
    def test_patterns_trade_space_for_time(self):
        """§4.2.3: 'our approach consumes a lot of space for storing
        matching patterns' — space grows with propagated bindings."""
        wm, strategy = build(JOIN_SOURCE)
        empty_cells = strategy.space_report().estimated_cells
        for i in range(10):
            wm.insert("Dept", (i, "Toy"))
        assert strategy.space_report().estimated_cells > empty_cells

    def test_report_fields(self):
        wm, strategy = build(JOIN_SOURCE)
        wm.insert("Dept", (1, "Toy"))
        report = strategy.space_report()
        assert report.strategy == "patterns"
        assert report.stored_patterns == report.detail["templates"] + \
            report.detail["derived_patterns"]


class TestWithdrawalOrder:
    """Support is withdrawn in the order it was recorded — not in the
    order the allocator happened to place the patterns (the reverse
    support index used to be a set of identity-hashed patterns)."""

    SOURCE = """
    (literalize A v w)
    (literalize B v)
    (literalize C v)
    (literalize D w)
    (p tri (A ^v <x> ^w <y>) (B ^v <x>) (D ^w <y>) -(C ^v <x>)
        --> (remove 1))
    """

    def test_withdrawal_order_equals_recording_order(self, monkeypatch):
        from repro.match.patterns import PatternTuple

        wm, strategy = build(self.SOURCE)
        for n in range(5):
            wm.insert("D", (n,))
        recorded, withdrawn = [], []
        add_support = PatternTuple.add_support
        remove_support = PatternTuple.remove_support

        def add_spy(pattern, rce_index, contributor):
            if contributor[0] == "B":
                recorded.append((pattern, rce_index))
            return add_support(pattern, rce_index, contributor)

        def remove_spy(pattern, rce_index, contributor):
            withdrawn.append((pattern, rce_index))
            return remove_support(pattern, rce_index, contributor)

        monkeypatch.setattr(PatternTuple, "add_support", add_spy)
        monkeypatch.setattr(PatternTuple, "remove_support", remove_spy)
        wme = wm.insert("B", (1,))
        assert len(recorded) > 5
        wm.remove(wme)
        assert withdrawn == recorded

    def test_fired_order_repeats_across_runs(self):
        """Removing a blocker fires the patterns it was blocking; their
        act-time selections must add to the conflict set in one order."""
        orders = []
        for _ in range(3):
            wm, strategy = build(self.SOURCE)
            blocker = wm.insert("C", (1,))
            wm.insert("B", (1,))
            for n in range(4):
                wm.insert("A", (1, n))
                wm.insert("D", (n,))
            junk = [object() for _ in range(1000)]  # shift the allocator
            wm.remove(blocker)
            orders.append([i.key for i in strategy.conflict_set])
            del junk
        assert len(orders[0]) == 4
        assert orders[0] == orders[1] == orders[2]

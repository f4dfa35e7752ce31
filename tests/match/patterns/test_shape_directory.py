"""The COND shape directory (docs/ALGORITHMS.md §10.4).

Every search the matching-pattern strategy makes goes through a per-group
hash directory; the linear scan it replaced survives as
``scan_matches_of`` / ``scan_compatible_with``.  These tests pin the two
to each other — hit for hit, in the same order — through arbitrary
insert/delete/modify/compact streams, pin what a probe costs, and check
that the index-fault oracle catches the ways the directory could drift.
"""

from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.match.patterns.store as store_module
from repro.check import (
    CheckConfig,
    Trace,
    TraceOp,
    pattern_index_faults,
    run_trace,
)
from repro.engine import ProductionSystem
from repro.instrument import Counters
from repro.lang import analyze_program, parse_program
from repro.match.patterns import MatchingPatternsStrategy, specialize
from repro.match.patterns.store import (
    PatternStore,
    make_stores,
    scan_compatible_with,
    scan_matches_of,
)
from repro.storage.tuples import StoredTuple

#: The benchmark pack's audit-region shape (``part`` is reached from
#: ``stock`` through <p> and from ``audit`` through <k>, so its group grows
#: all four shapes), a negated CE, and a stock x stock self-join.
PROGRAM = """
(literalize site name region)
(literalize stock part site qty)
(literalize part id kind)
(literalize hold part)
(literalize audit kind region)

(p audit-region
    (site ^name <s> ^region <r>)
    (stock ^site <s> ^part <p>)
    (part ^id <p> ^kind <k>)
    -(hold ^part <p>)
    (audit ^kind <k> ^region <r>)
    -->
    (remove 5))

(p imbalance
    (stock ^part <p> ^site <a> ^qty <q>)
    (stock ^part <p> ^site {<b> <> <a>} ^qty < <q>)
    -->
    (remove 2))
"""

ATTRIBUTES = {
    "site": ("name", "region"),
    "stock": ("part", "site", "qty"),
    "part": ("id", "kind"),
    "hold": ("part",),
    "audit": ("kind", "region"),
}

#: ``1``, ``1.0`` and ``"1"`` are three spellings two of which are one key.
_value = st.sampled_from([0, 1, 1.0, "1", None, 2])


@st.composite
def _insert(draw):
    class_name = draw(st.sampled_from(sorted(ATTRIBUTES)))
    values = tuple(draw(_value) for _ in ATTRIBUTES[class_name])
    return ("insert", class_name, values)


_op = st.one_of(
    _insert(),
    _insert(),
    st.tuples(st.just("delete"), st.integers(0, 1 << 16)),
    st.tuples(
        st.just("modify"), st.integers(0, 1 << 16), st.integers(0, 2), _value
    ),
    st.tuples(st.just("compact"), st.sampled_from([None, None, 1, 2, 4])),
)


def on_reference_scan(strategy):
    """Rebind every store of a freshly built strategy to the linear scans."""
    for store in strategy.stores.values():
        store.matches_of = partial(scan_matches_of, store)
        store.compatible_with = partial(scan_compatible_with, store)
    return strategy


def apply_op(system, live, op):
    wm = system.wm
    if op[0] == "insert":
        live.append(wm.insert(op[1], op[2]))
    elif op[0] == "delete":
        if live:
            wm.remove(live.pop(op[1] % len(live)))
    elif op[0] == "modify":
        if live:
            slot = op[1] % len(live)
            attributes = ATTRIBUTES[live[slot].relation]
            attribute = attributes[op[2] % len(attributes)]
            live[slot] = wm.modify(live[slot], {attribute: op[3]})
    else:
        system.strategy.compact(op[1])


def cond_state(strategy):
    """Every group in admission order with its supports, and the reverse
    support index in recording order — ``repr`` keeps ``1`` and ``1.0``
    apart, which ``==`` would not."""

    def name(pattern):
        return (pattern.rid, pattern.cen, repr(pattern.restrictions))

    groups = {
        (class_name, key): [
            (
                name(p),
                {k: sorted(v, key=repr) for k, v in p.supports.items() if v},
                p.approximate,
            )
            for p in group
        ]
        for class_name, store in strategy.stores.items()
        for key, group in store.groups()
    }
    reverse = {
        contributor: [(name(p), k) for p, k in entries]
        for contributor, entries in strategy._support_index.items()
    }
    return groups, reverse


def assert_probes_agree(strategy):
    """Every search the strategy could make right now: indexed == scan.
    (The probes' own counts are rolled back.)"""
    wm = strategy.wm
    counted = strategy.counters.as_dict()
    try:
        _assert_probes_agree(strategy, wm)
    finally:
        for name, value in counted.items():
            setattr(strategy.counters, name, value)


def _assert_probes_agree(strategy, wm):
    for class_name, conditions in strategy._by_class.items():
        store = strategy.stores[class_name]
        for wme in wm.tuples(class_name):
            for analysis, condition in conditions:
                found = store.matches_of(condition, analysis.name, wme)
                assert found == scan_matches_of(
                    store, condition, analysis.name, wme
                )
                if found[1] is None:
                    continue
                for link in strategy._links[(analysis.name, condition.index)]:
                    desired = specialize(link.template, found[1])
                    hits = link.store.compatible_with(
                        analysis.name, link.cen, desired
                    )
                    assert hits == scan_compatible_with(
                        link.store, analysis.name, link.cen, desired
                    )
                    for pattern, merged in hits:
                        assert (merged is pattern.restrictions) == (
                            merged == pattern.restrictions
                        )


def fired_of(system):
    fired = []
    for cycle in range(1, 12):
        record = system.step(cycle)
        if record is None:
            break
        fired.append(
            (record.instantiation.rule_name, record.instantiation.key)
        )
    return fired


class TestIndexedEqualsScan:
    @settings(max_examples=120, deadline=None)
    @given(ops=st.lists(_op, max_size=45))
    def test_any_stream(self, ops):
        """After every op of any insert/delete/modify/compact()/
        compact(k) stream, every possible probe returns what the scan
        returns, in the scan's order; the directory is healthy; and the
        strategy's whole state — groups, supports, reverse index,
        conflict set, then the fired sequence — equals that of a twin
        running on the scans."""
        indexed = ProductionSystem(PROGRAM, strategy="patterns")
        scanned = ProductionSystem(PROGRAM, strategy="patterns")
        on_reference_scan(scanned.strategy)
        live_a, live_b = [], []
        for op in ops:
            apply_op(indexed, live_a, op)
            apply_op(scanned, live_b, op)
            assert pattern_index_faults(indexed.strategy) == []
            assert_probes_agree(indexed.strategy)
            assert cond_state(indexed.strategy) == cond_state(scanned.strategy)
            assert (
                indexed.strategy.conflict_set_keys()
                == scanned.strategy.conflict_set_keys()
            )
        assert fired_of(indexed) == fired_of(scanned)
        assert pattern_index_faults(indexed.strategy) == []
        assert cond_state(indexed.strategy) == cond_state(scanned.strategy)
        for name in ("patterns_created", "patterns_updated",
                     "cond_searches", "false_drops"):
            assert getattr(indexed.counters, name) == getattr(
                scanned.counters, name
            ), name


def _part_group():
    """A ``part`` group of audit-region with all four shapes populated."""
    system = ProductionSystem(PROGRAM, strategy="patterns")
    wm = system.wm
    for site in range(3):
        wm.insert("site", (site, site % 2))
    for part in range(6):
        wm.insert("stock", (part, part % 3, part))
    for kind in range(4):
        wm.insert("audit", (kind, kind % 2))
    store = system.strategy.stores["part"]
    (group,) = [g for key, g in store.directories() if key[0] == "audit-region"]
    return system, store, group


class TestProbeCost:
    def test_group_has_one_table_per_shape(self):
        _, _, group = _part_group()
        assert sorted(group.shapes) == [(), (0,), (0, 1), (1,)]
        assert len(group.patterns) == sum(map(len, group.shapes.values()))

    def test_probe_costs_one_lookup_per_shape_and_no_merge(self, monkeypatch):
        """k shapes, m compatible patterns: at most k ``index_lookups``,
        no ``comparisons``, and ``merge`` is never called — so no
        incompatible pattern was touched, however many the group holds."""
        system, store, group = _part_group()
        template = group.template.restrictions
        probes = [
            specialize(template, bindings)
            for bindings in ({"p": 2}, {"k": 1}, {"p": 2, "k": 1}, {})
        ]
        expected = [
            scan_compatible_with(store, "audit-region", 3, desired)
            for desired in probes
        ]

        def no_merge(*_):
            raise AssertionError("merge called on the indexed path")

        monkeypatch.setattr(store_module, "merge", no_merge)
        for desired, scanned in zip(probes, expected):
            before = system.counters.snapshot()
            hits = store.compatible_with("audit-region", 3, desired)
            cost = system.counters.diff(before)
            assert hits == scanned and hits
            assert cost["index_lookups"] <= len(group.shapes)
            assert cost["comparisons"] == 0

    def test_cost_does_not_grow_with_incompatible_patterns(self):
        costs = []
        for parts in (6, 60):
            system = ProductionSystem(PROGRAM, strategy="patterns")
            wm = system.wm
            wm.insert("site", (0, 0))
            for part in range(parts):
                wm.insert("stock", (part, 0, part))
            before = system.counters.snapshot()
            wm.insert("part", (3, 0))
            cost = system.counters.diff(before)
            costs.append(cost["comparisons"] + cost["index_lookups"])
        assert costs[0] == costs[1]

    def test_matches_of_costs_one_lookup_per_shape(self):
        system, store, group = _part_group()
        analysis = system.strategy.analyses["audit-region"]
        wme = StoredTuple("part", 99, 99, (2, 1))
        before = system.counters.snapshot()
        found, env = store.matches_of(analysis.condition(3), analysis.name, wme)
        cost = system.counters.diff(before)
        assert env == {"p": 2, "k": 1}
        assert [p.serial for p in found] == sorted(p.serial for p in found)
        assert len(found) == 4  # template, <p>=2, <k>=1, both
        assert cost["index_lookups"] == len(group.shapes)
        assert cost["comparisons"] == 1  # the condition test itself

    def test_partial_tables_register_once_per_probe_spec(self):
        _, store, group = _part_group()
        template = group.template.restrictions
        group.partials.clear()  # forget what building the group registered
        store.compatible_with("audit-region", 3, specialize(template, {"p": 2}))
        assert {s: sorted(t) for s, t in group.partials.items()} == {
            (0, 1): [(0,)]
        }
        table = group.partials[(0, 1)][(0,)]
        store.compatible_with("audit-region", 3, specialize(template, {"p": 3}))
        assert group.partials[(0, 1)][(0,)] is table
        store.compatible_with("audit-region", 3, specialize(template, {"k": 0}))
        assert sorted(group.partials[(0, 1)]) == [(0,), (1,)]


    def test_describe_reports_directory_size_and_skew(self):
        system, store, group = _part_group()
        (row,) = [
            g
            for g in system.strategy.describe()["stores"]["part"]["groups"]
            if g["rule"] == "audit-region"
        ]
        buckets = [
            len(bucket)
            for tables in group.partials.values()
            for table in tables.values()
            for bucket in table.values()
        ]
        assert row == {
            "rule": "audit-region",
            "cen": 3,
            "patterns": len(group.patterns),
            "shapes": 4,
            "buckets": len(buckets),
            "largest": max(buckets),
        }


class TestKeyEquality:
    """Dictionary-key equality must be ``compare("=")``'s."""

    def _store(self):
        program = parse_program(
            """
            (literalize A a1 a2)
            (literalize B b1)
            (p R (A ^a1 <x> ^a2 k) (B ^b1 <x>) --> (halt))
            """
        )
        analyses = analyze_program(program.rules, program.schemas)
        stores = make_stores(analyses, program.schemas, Counters())
        return stores["A"], analyses["R"]

    def _pinned(self, store, value):
        template = store.template("R", 1)
        pattern, _ = store.find_or_create(
            template, specialize(template.restrictions, {"x": value})
        )
        return pattern

    @pytest.mark.parametrize(
        "pin, probe, equal",
        [
            (1, 1.0, True),
            (1.0, 1, True),
            ("1", 1, False),
            (1, "1", False),
            (None, None, True),
            (None, 0, False),
            (0, None, False),
            ("nil", None, False),
        ],
    )
    def test_matches_of(self, pin, probe, equal):
        store, analysis = self._store()
        pattern = self._pinned(store, pin)
        wme = StoredTuple("A", 1, 1, (probe, "k"))
        found, _ = store.matches_of(analysis.condition(1), "R", wme)
        assert found == scan_matches_of(
            store, analysis.condition(1), "R", wme
        )[0]
        assert (pattern in found) is equal
        assert store.template("R", 1) in found

    @pytest.mark.parametrize(
        "pin, probe, equal",
        [(1, 1.0, True), ("1", 1, False), (None, None, True), (None, 0, False)],
    )
    def test_compatible_with(self, pin, probe, equal):
        store, _ = self._store()
        pattern = self._pinned(store, pin)
        desired = specialize(store.template("R", 1).restrictions, {"x": probe})
        hits = store.compatible_with("R", 1, desired)
        assert hits == scan_compatible_with(store, "R", 1, desired)
        assert (pattern in [p for p, _ in hits]) is equal
        if equal:
            # The pattern keeps its own spelling of the value.
            assert dict(hits)[pattern] is pattern.restrictions


class _NoDrop(PatternStore):
    def discard(self, pattern):
        group = self._groups[(pattern.rid, pattern.cen)]
        if not pattern.original:
            group.patterns.pop(pattern.restrictions, None)


class _NoAdd(PatternStore):
    def find_or_create(self, source, merged):
        group = self._groups[(source.rid, source.cen)]
        if merged in group.patterns:
            return group.patterns[merged], False
        pattern, created = super().find_or_create(source, merged)
        group.drop(pattern)
        group.patterns[merged] = pattern
        return pattern, created


def _broken(store_class):
    """A patterns strategy whose stores are *store_class* instances."""

    class Broken(MatchingPatternsStrategy):
        def _prepare(self):
            super()._prepare()
            for store in self.stores.values():
                store.__class__ = store_class

    return Broken


CATCH_TRACE = Trace(
    name="catch",
    seed=0,
    program=PROGRAM,
    ops=(
        TraceOp.insert("site", (0, 0)),
        TraceOp.insert("stock", (1, 0, 5)),
        TraceOp.insert("stock", (1, 0, 3)),
        TraceOp.insert("part", (1, 2)),
        TraceOp.delete(1),
        TraceOp.delete(1),
    ),
)


class TestOracleCatchesDrift:
    """Mutation checks: each way of leaving the directory behind is a
    ``pattern-index`` divergence in the fuzz oracle."""

    def test_healthy_strategy_passes(self):
        assert run_trace(CATCH_TRACE, [CheckConfig("patterns", per_op=True)]) is None

    @pytest.mark.parametrize(
        "store_class, ops", [(_NoDrop, 6), (_NoAdd, 4)]
    )
    def test_skipped_maintenance_is_caught(self, store_class, ops):
        divergence = run_trace(
            CATCH_TRACE.with_ops(CATCH_TRACE.ops[:ops]),
            [CheckConfig("patterns", per_op=True)],
            strategies={"patterns": _broken(store_class)},
        )
        assert divergence is not None
        assert divergence.kind == "pattern-index"

    def test_reordered_bucket_is_caught(self):
        system, store, group = _part_group()
        template = group.template.restrictions
        store.compatible_with("audit-region", 3, specialize(template, {"p": 2}))
        assert pattern_index_faults(system.strategy) == []
        bucket = next(
            b for b in group.partials[(0, 1)][(0,)].values() if len(b) > 1
        )
        bucket.reverse()
        assert pattern_index_faults(system.strategy) == [
            "part audit-region/3: (0, 1) on (0,)"
        ]

    def test_reordered_shape_table_is_caught(self):
        system, _, group = _part_group()
        table = group.shapes[(0,)]
        first = next(iter(table))
        table[first] = table.pop(first)
        assert pattern_index_faults(system.strategy) == [
            "part audit-region/3: shape tables"
        ]

    def test_empty_bucket_is_caught(self):
        system, store, group = _part_group()
        template = group.template.restrictions
        store.compatible_with("audit-region", 3, specialize(template, {"p": 2}))
        group.partials[(0, 1)][(0,)][("ghost",)] = []
        assert pattern_index_faults(system.strategy) != []

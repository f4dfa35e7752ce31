"""Trace and TraceOp: construction, JSON wire format, derivation."""

import json

import pytest

from repro.check import Trace, TraceOp

PROGRAM = "(literalize item kind size)\n"


def sample_ops():
    return (
        TraceOp.insert("item", (1, 2)),
        TraceOp.delete(5),
        TraceOp.modify(3, {"size": 9}),
        TraceOp.detach(),
        TraceOp.attach(),
        TraceOp.compact(),
        TraceOp.compact(2),
    )


class TestTraceOp:
    def test_constructors_set_kind(self):
        kinds = [op.kind for op in sample_ops()]
        assert kinds == [
            "insert", "delete", "modify", "detach", "attach",
            "compact", "compact",
        ]

    def test_modify_changes_are_sorted_tuples(self):
        op = TraceOp.modify(0, {"b": 1, "a": 2})
        assert op.changes == (("a", 2), ("b", 1))

    def test_ops_are_hashable_and_frozen(self):
        op = TraceOp.insert("item", (1, 2))
        assert op in {op}
        with pytest.raises(AttributeError):
            op.kind = "delete"


class TestTraceJson:
    def test_round_trip(self):
        trace = Trace(
            name="t", seed=7, program=PROGRAM, ops=sample_ops(),
            max_cycles=12, reason="because",
        )
        again = Trace.loads(trace.dumps())
        assert again == trace

    def test_wire_format_is_compact_lists(self):
        trace = Trace(name="t", seed=0, program=PROGRAM, ops=sample_ops())
        data = json.loads(trace.dumps())
        assert data["ops"][0] == ["insert", "item", [1, 2]]
        assert data["ops"][1] == ["delete", 5]
        assert data["ops"][2] == ["modify", 3, {"size": 9}]
        assert data["ops"][3] == ["detach"]
        assert data["ops"][4] == ["attach"]
        assert data["ops"][5] == ["compact"]
        assert data["ops"][6] == ["compact", 2]

    def test_unknown_op_kind_rejected(self):
        data = {
            "name": "t", "seed": 0, "program": PROGRAM,
            "ops": [["explode"]],
        }
        with pytest.raises(ValueError):
            Trace.from_json(data)


class TestDerivation:
    def test_with_ops_replaces_only_ops(self):
        trace = Trace(name="t", seed=3, program=PROGRAM, ops=sample_ops())
        fewer = trace.with_ops(trace.ops[:2])
        assert fewer.ops == trace.ops[:2]
        assert (fewer.name, fewer.seed, fewer.program) == (
            trace.name, trace.seed, trace.program,
        )

    def test_with_program_and_reason(self):
        trace = Trace(name="t", seed=3, program=PROGRAM, ops=())
        derived = trace.with_program("(literalize x a)\n").with_reason("why")
        assert derived.program == "(literalize x a)\n"
        assert derived.reason == "why"

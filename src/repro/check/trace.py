"""Fuzz traces: a program plus a working-memory operation script.

A :class:`Trace` is the unit the differential harness generates, replays,
shrinks and checks into the regression corpus: an OPS5 program (stored as
source text, so corpus files are human-readable and diff-able) and a
sequence of :class:`TraceOp` working-memory operations applied before the
recognize-act cycles run.

Op vocabulary
-------------
* ``insert`` — insert ``values`` into ``class_name``.
* ``delete`` — remove the live element at ``index % len(live)``; a no-op
  when nothing is live.
* ``modify`` — apply ``changes`` to the live element at
  ``index % len(live)``; a no-op when nothing is live.
* ``detach`` — detach the match strategy mid-stream (conflict set empties);
  a no-op when already detached.
* ``attach`` — (re)attach a fresh strategy instance, which replays the
  whole WM through its constructor.
* ``compact`` — ask the strategy to compact its match state (§4.2.3's
  matching-pattern compaction; ``index`` is the fold cap per condition,
  ``None`` for lossless subsumption only).  A no-op for strategies with
  nothing to compact; never changes what matches.

Every op is *total*: it is valid in any state, so any subsequence of a
trace's ops is itself a valid trace — the property the delta-debugging
shrinker relies on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from repro.storage.schema import Value

#: JSON wire format of one op: ["insert", class, [values]] /
#: ["delete", index] / ["modify", index, {attr: value}] / ["detach"] /
#: ["attach"] / ["compact"] / ["compact", cap].
OpJson = list


@dataclass(frozen=True)
class TraceOp:
    """One working-memory operation of a fuzz trace."""

    kind: str
    class_name: str | None = None
    values: tuple[Value, ...] | None = None
    index: int | None = None
    changes: tuple[tuple[str, Value], ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in (
            "insert", "delete", "modify", "detach", "attach", "compact"
        ):
            raise ValueError(f"unknown trace op kind {self.kind!r}")

    def to_json(self) -> OpJson:
        if self.kind == "insert":
            return ["insert", self.class_name, list(self.values or ())]
        if self.kind == "delete":
            return ["delete", self.index]
        if self.kind == "modify":
            return ["modify", self.index, dict(self.changes or ())]
        if self.kind == "compact" and self.index is not None:
            return ["compact", self.index]
        return [self.kind]

    @classmethod
    def from_json(cls, data: OpJson) -> "TraceOp":
        kind = data[0]
        if kind == "insert":
            return cls(kind, class_name=data[1], values=tuple(data[2]))
        if kind == "delete":
            return cls(kind, index=int(data[1]))
        if kind == "modify":
            return cls(
                kind,
                index=int(data[1]),
                changes=tuple(sorted(data[2].items())),
            )
        if kind == "compact" and len(data) > 1:
            return cls(kind, index=int(data[1]))
        return cls(kind)

    @classmethod
    def insert(cls, class_name: str, values: tuple[Value, ...]) -> "TraceOp":
        return cls("insert", class_name=class_name, values=tuple(values))

    @classmethod
    def delete(cls, index: int) -> "TraceOp":
        return cls("delete", index=index)

    @classmethod
    def modify(cls, index: int, changes: dict[str, Value]) -> "TraceOp":
        return cls("modify", index=index, changes=tuple(sorted(changes.items())))

    @classmethod
    def detach(cls) -> "TraceOp":
        return cls("detach")

    @classmethod
    def attach(cls) -> "TraceOp":
        return cls("attach")

    @classmethod
    def compact(cls, cap: int | None = None) -> "TraceOp":
        return cls("compact", index=cap)


@dataclass(frozen=True)
class Trace:
    """A differential-fuzz test case: program text + WM op script."""

    name: str
    seed: int
    program: str
    ops: tuple[TraceOp, ...] = ()
    max_cycles: int = 30
    reason: str = ""
    #: Conflict-resolution strategy every replay of this trace uses; part
    #: of the trace (not the config matrix) because the resolver decides
    #: the fired sequence, which must agree across configurations.
    resolution: str = "lex"
    #: Ops per delta batch when a replay applies the op script in chunks
    #: (control ops also end a chunk).  Part of the trace so every
    #: configuration replays the same chunking; 8 when a file omits it.
    batch: int = 8

    def with_ops(self, ops) -> "Trace":
        return replace(self, ops=tuple(ops))

    def with_program(self, program: str) -> "Trace":
        return replace(self, program=program)

    def with_reason(self, reason: str) -> "Trace":
        return replace(self, reason=reason)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "reason": self.reason,
            "resolution": self.resolution,
            "batch": self.batch,
            "program": self.program,
            "ops": [op.to_json() for op in self.ops],
            "max_cycles": self.max_cycles,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Trace":
        return cls(
            name=data["name"],
            seed=int(data.get("seed", 0)),
            program=data["program"],
            ops=tuple(TraceOp.from_json(op) for op in data.get("ops", [])),
            max_cycles=int(data.get("max_cycles", 30)),
            reason=data.get("reason", ""),
            resolution=data.get("resolution", "lex"),
            batch=int(data.get("batch", 8)),
        )

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2) + "\n"

    @classmethod
    def loads(cls, text: str) -> "Trace":
        return cls.from_json(json.loads(text))

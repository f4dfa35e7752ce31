"""The serve wire protocol: newline-delimited JSON, one object per line.

Requests are JSON objects with an ``op`` field::

    {"op": "attach", "tenant": "t1", "program": "(literalize ...)"}
    {"op": "insert", "tenant": "t1", "seq": 1,
     "relation": "event", "values": {"kind": "oom", "pod": "web-1"}}
    {"op": "delete", "tenant": "t1", "seq": 2, "relation": "event", "tid": 3}
    {"op": "modify", "tenant": "t1", "seq": 3,
     "relation": "event", "tid": 4, "changes": {"count": 2}}
    {"op": "query", "tenant": "t1", "relation": "event"}
    {"op": "stats", "tenant": "t1"}     {"op": "status"}
    {"op": "ping"}                      {"op": "shutdown"}
    {"op": "follow", "epoch": 0, "have": {"t1": 12}}
    {"op": "promote"}

Replies mirror the request's ``op`` (and ``seq`` when it carried one) and
always carry ``ok``.  Mutations are *exactly-once*: each tenant's stream
numbers them with a strictly increasing client ``seq``; the session
persists the highest applied seq in every WAL boundary, so a retried or
replayed op at or below it is acknowledged as ``{"ok": true, "dup":
true}`` without touching working memory.  A mutation ack is sent only
after the group-commit flush that made its boundary durable — an acked op
survives ``kill -9``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

#: Ops that mutate a tenant's working memory (require ``seq``; durable
#: and exactly-once).
MUTATION_OPS = ("insert", "delete", "modify")

#: Every verb the server understands.  ``follow`` is the replication
#: handshake (the connection becomes the shipping channel); ``promote``
#: turns a warm standby into the primary, bumping the fencing epoch.
OPS = MUTATION_OPS + (
    "attach", "query", "stats", "status", "ping", "shutdown",
    "follow", "promote",
)

#: Longest request line the server reads (an ``attach`` carries a whole
#: rule program, so this is well above asyncio's 64 KiB default).  A
#: longer line is answered with a ``too_large`` error and the connection
#: is closed: what follows on it is the tail of that line, not a request.
#: Per-connection read buffering is bounded by twice this.
MAX_LINE_BYTES = 4 * 1024 * 1024

#: Tenant names become WAL filenames; keep them path-safe.
TENANT_RE = re.compile(r"^[A-Za-z0-9_-]{1,64}$")


class ProtocolError(Exception):
    """A malformed or invalid request; ``reply`` is what to send back."""

    def __init__(self, detail: str, op: str | None = None,
                 seq: int | None = None) -> None:
        super().__init__(detail)
        self.reply = {"ok": False, "error": detail}
        if op is not None:
            self.reply["op"] = op
        if seq is not None:
            self.reply["seq"] = seq


@dataclass(frozen=True)
class Request:
    """One parsed, validated request line."""

    op: str
    tenant: str | None = None
    seq: int | None = None
    relation: str | None = None
    tid: int | None = None
    values: dict | list | None = None
    changes: dict | None = None
    program: str | None = None
    config: dict = field(default_factory=dict)
    #: Replication: the peer's fencing epoch (``follow``) and its last
    #: locally-durable seq per tenant (the catch-up handshake).
    epoch: int | None = None
    have: dict = field(default_factory=dict)


def _require(condition: bool, detail: str, op: str | None = None,
             seq: int | None = None) -> None:
    if not condition:
        raise ProtocolError(detail, op=op, seq=seq)


def parse_request(line: str | bytes) -> Request:
    """Parse and validate one request line; raises :class:`ProtocolError`."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        data = json.loads(line)
    except ValueError:
        raise ProtocolError("request is not valid JSON") from None
    _require(isinstance(data, dict), "request must be a JSON object")
    op = data.get("op")
    _require(isinstance(op, str) and op in OPS,
             f"unknown op {op!r}; choose from {sorted(OPS)}")
    seq = data.get("seq")
    tenant = data.get("tenant")
    if tenant is not None:
        _require(
            isinstance(tenant, str) and TENANT_RE.match(tenant) is not None,
            "tenant must match [A-Za-z0-9_-]{1,64}", op=op,
        )
    needs_tenant = op in MUTATION_OPS + ("attach", "query", "stats")
    if needs_tenant:
        _require(tenant is not None, f"op {op!r} requires a tenant", op=op)
    relation = data.get("relation")
    tid = data.get("tid")
    if op in MUTATION_OPS:
        _require(isinstance(seq, int) and seq >= 1,
                 f"op {op!r} requires an integer seq >= 1", op=op)
        _require(isinstance(relation, str) and bool(relation),
                 f"op {op!r} requires a relation", op=op, seq=seq)
    if op == "insert":
        values = data.get("values")
        _require(isinstance(values, (dict, list)),
                 "insert requires values (a mapping or a row list)",
                 op=op, seq=seq)
    if op in ("delete", "modify"):
        _require(isinstance(tid, int),
                 f"op {op!r} requires an integer tid", op=op, seq=seq)
    if op == "modify":
        changes = data.get("changes")
        _require(isinstance(changes, dict) and bool(changes),
                 "modify requires a non-empty changes mapping", op=op, seq=seq)
    if op == "query":
        _require(isinstance(relation, str) and bool(relation),
                 "query requires a relation", op=op)
    program = data.get("program")
    if program is not None:
        _require(isinstance(program, str), "program must be a string", op=op)
    config = data.get("config") or {}
    _require(isinstance(config, dict), "config must be a mapping", op=op)
    epoch = data.get("epoch")
    have = data.get("have") or {}
    if op == "follow":
        _require(isinstance(epoch, int) and epoch >= 0,
                 "follow requires an integer epoch >= 0", op=op)
        _require(
            isinstance(have, dict)
            and all(
                isinstance(k, str) and isinstance(v, int)
                for k, v in have.items()
            ),
            "follow's have must map tenant names to integer seqs", op=op,
        )
    return Request(
        op=op,
        tenant=tenant,
        seq=seq if isinstance(seq, int) else None,
        relation=relation if isinstance(relation, str) else None,
        tid=tid if isinstance(tid, int) else None,
        values=data.get("values"),
        changes=data.get("changes"),
        program=program,
        config=config,
        epoch=epoch if isinstance(epoch, int) else None,
        have=have if isinstance(have, dict) else {},
    )


def encode_reply(body: dict) -> bytes:
    """One reply line, newline-terminated."""
    return (json.dumps(body, sort_keys=True, separators=(",", ":")) +
            "\n").encode("utf-8")

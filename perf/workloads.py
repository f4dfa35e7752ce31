"""The four workloads: seeded op streams, server flags, reference state.

A *stream* yields the mutations one tenant's client sends, in order, as
protocol bodies without ``tenant``/``seq`` (the load generator numbers
them).  ``resident()`` and ``next_op()`` return ``(body, expect_tid)``
pairs: tuple ids of client-owned relations are predicted here (no rule
writes to them), so deletes and modifies can be generated ahead of the
acks, and the acks are checked against the prediction.  Streams are pure
functions of ``(seed, tenant index)``: the server sees only what they
generate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro import ProductionSystem
from repro.lang.parser import parse_program
from repro.workload.k8s import EVENT_KINDS, K8S_PROGRAM, k8s_setup

JOIN_PACK = (Path(__file__).parent / "packs" / "join_churn.ops").read_text()


class K8sStream:
    """k8s auto-fix events, inserts only (``repro.workload.k8s`` shapes)."""

    PODS = 8
    NODES = 3

    def __init__(self, seed: int, index: int) -> None:
        self.rng = random.Random(seed * 1000 + index)
        self.kinds = [kind for kind, weight in EVENT_KINDS for _ in range(weight)]
        self.sent = 0

    def resident(self) -> list[tuple[dict, None]]:
        return [
            ({"op": "insert", "relation": relation, "values": values}, None)
            for relation, values in k8s_setup(self.PODS, self.NODES)
        ]

    def next_op(self) -> tuple[dict, None]:
        rng = self.rng
        self.sent += 1
        if rng.randrange(12) == 0:
            target = f"ghost-{rng.randrange(4)}"  # not in the inventory
        else:
            target = f"pod-{rng.randrange(self.PODS)}"
        return {
            "op": "insert",
            "relation": "event",
            "values": {
                "id": self.sent,
                "pod": target,
                "node": f"node-{rng.randrange(self.NODES)}",
                "kind": rng.choice(self.kinds),
                "count": 5 if rng.randrange(8) == 0 else 1 + rng.randrange(3),
            },
        }, None


#: One block of the join_churn mix: 10 inserts (5 transient events the
#: rules consume, 5 resident), 5 deletes, 5 modifies.  Every block is net
#: zero on working-memory size, so the size never drifts by more than a
#: block; only the order inside a block is drawn from the seed.
JOIN_BLOCK = (
    ["order"] * 4 + ["audit"]
    + ["stock+"] * 4 + ["hold+"]
    + ["stock-"] * 4 + ["hold-"]
    + ["stock~"] + ["part~"] * 2 + ["site~"] * 2
)


class JoinStream:
    """Warehouse inventory churn for ``packs/join_churn.ops``.

    *scale* multiplies the resident inventory (1.0 is about 1 000
    tuples); the op mix is the same at every scale.
    """

    REGIONS = 8
    KINDS = 10

    def __init__(self, seed: int, index: int, scale: float = 1.0) -> None:
        self.rng = random.Random(seed * 1000 + index)
        self.sites = max(self.REGIONS, round(24 * scale))
        self.parts = max(self.KINDS, round(120 * scale))
        # A block deletes up to 4 stock rows and 1 hold before it inserts
        # any; the floors keep the smallest (smoke) inventory non-empty.
        self.stock_rows = max(8, round(840 * scale))
        self.holds = max(2, round(16 * scale))
        #: Live tids per client-owned relation, and the next tid each
        #: relation will hand out (tids count up from 1 per relation).
        self.live: dict[str, list[int]] = {}
        self.next_tid: dict[str, int] = {}
        self.site_open: dict[int, str] = {}
        self.block: list[str] = []
        self.sent = 0

    def _insert(self, relation: str, values: dict) -> tuple[dict, int]:
        tid = self.next_tid.get(relation, 1)
        self.next_tid[relation] = tid + 1
        self.live.setdefault(relation, []).append(tid)
        return {"op": "insert", "relation": relation, "values": values}, tid

    def _pick(self, relation: str, remove: bool) -> int:
        """A random live tid; swap-removed from the live list on request."""
        live = self.live[relation]
        slot = self.rng.randrange(len(live))
        tid = live[slot]
        if remove:
            live[slot] = live[-1]
            live.pop()
        return tid

    def _modify(self, relation: str, changes) -> tuple[dict, int]:
        """Modify a random live tuple; *changes* may be a function of the
        old tid.  A modify is delete + insert, so the tuple gets the
        relation's next tid."""
        tid = self._pick(relation, remove=True)
        new_tid = self.next_tid[relation]
        self.next_tid[relation] = new_tid + 1
        self.live[relation].append(new_tid)
        if callable(changes):
            changes = changes(tid, new_tid)
        return {"op": "modify", "relation": relation, "tid": tid,
                "changes": changes}, new_tid

    def _flip_site(self, tid: int, new_tid: int) -> dict:
        """Close an open site or reopen a closed one."""
        state = "no" if self.site_open.pop(tid, "yes") == "yes" else "yes"
        self.site_open[new_tid] = state
        return {"open": state}

    def _stock_values(self) -> dict:
        rng = self.rng
        return {
            "part": f"p{rng.randrange(self.parts)}",
            "site": f"s{rng.randrange(self.sites)}",
            "qty": rng.randrange(1, 50),
        }

    def resident(self) -> list[tuple[dict, int]]:
        ops = []
        for i in range(self.sites):
            ops.append(self._insert("site", {
                "name": f"s{i}", "region": f"r{i % self.REGIONS}",
                "open": "yes",
            }))
        for i in range(self.parts):
            ops.append(self._insert("part", {
                "id": f"p{i}", "kind": f"k{i % self.KINDS}", "bin": i,
            }))
        for _ in range(self.stock_rows):
            ops.append(self._insert("stock", self._stock_values()))
        for _ in range(self.holds):
            ops.append(self._insert(
                "hold", {"part": f"p{self.rng.randrange(self.parts)}"}
            ))
        return ops

    def next_op(self) -> tuple[dict, int | None]:
        rng = self.rng
        if not self.block:
            self.block = list(JOIN_BLOCK)
            rng.shuffle(self.block)
        kind = self.block.pop()
        self.sent += 1
        if kind == "order":
            return {"op": "insert", "relation": "order", "values": {
                "id": self.sent,
                "part": f"p{rng.randrange(self.parts)}",
                "region": f"r{rng.randrange(self.REGIONS)}",
                "qty": rng.randrange(1, 30),
                "status": "new",
                "site": "none",
            }}, None
        if kind == "audit":
            return {"op": "insert", "relation": "audit", "values": {
                "id": self.sent,
                "kind": f"k{rng.randrange(self.KINDS)}",
                "region": f"r{rng.randrange(self.REGIONS)}",
            }}, None
        if kind == "stock+":
            return self._insert("stock", self._stock_values())
        if kind == "hold+":
            return self._insert(
                "hold", {"part": f"p{rng.randrange(self.parts)}"}
            )
        if kind == "stock-":
            return {"op": "delete", "relation": "stock",
                    "tid": self._pick("stock", remove=True)}, None
        if kind == "hold-":
            return {"op": "delete", "relation": "hold",
                    "tid": self._pick("hold", remove=True)}, None
        if kind == "stock~":
            return self._modify("stock", {"qty": rng.randrange(1, 50)})
        if kind == "part~":
            return self._modify(
                "part", {"kind": f"k{rng.randrange(self.KINDS)}"}
            )
        return self._modify("site", self._flip_site)


@dataclass(frozen=True)
class Workload:
    """One named traffic mix and the server it runs against."""

    name: str
    why: str
    program: str
    #: Tenant names per connection (2 connections, a constant).
    connections: tuple[tuple[str, ...], ...]
    stream: type
    stream_args: dict = field(default_factory=dict)
    #: ``config`` of the attach request (strategy, backend).
    config: dict = field(default_factory=dict)
    checkpoint_rounds: int = 8
    replicated: bool = False
    #: Ops per tenant before anything is measured (caches fill, lazy
    #: set-up finishes), and ops per tenant of the traced pass's counted
    #: segment.  Both are op counts, not times, so every run measures from
    #: the same state and the counted segment's operation counts repeat
    #: exactly.
    warm_ops: int = 100
    count_ops: int = 100

    def shrunk(self, factor: int) -> "Workload":
        """A copy *factor* times smaller, for ``--smoke``: inventory,
        warm-up, counted segment and checkpoint interval all shrink."""
        args = dict(self.stream_args)
        if self.stream is JoinStream:
            args["scale"] = args.get("scale", 1.0) / factor
        return replace(
            self,
            stream_args=args,
            warm_ops=self.warm_ops // factor,
            count_ops=self.count_ops // factor,
            checkpoint_rounds=max(4, self.checkpoint_rounds // factor),
        )

    @property
    def tenants(self) -> list[str]:
        return [name for group in self.connections for name in group]

    @property
    def relations(self) -> list[str]:
        return sorted(parse_program(self.program).schemas)

    def new_stream(self, seed: int, tenant: str):
        return self.stream(seed, self.tenants.index(tenant), **self.stream_args)

    def server_args(self) -> list[str]:
        return ["--checkpoint-rounds", str(self.checkpoint_rounds)]


_K8S_TENANTS = (("k0", "k1", "k2", "k3"), ("k4", "k5", "k6", "k7"))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="k8s_fleet",
            why="production-shaped mix: 8 tenants of the k8s auto-fix pack, "
                "checkpoint/fsync/WAL/codec/match all visible, none dominant",
            program=K8S_PROGRAM,
            connections=_K8S_TENANTS,
            stream=K8sStream,
        ),
        Workload(
            name="join_churn",
            why="3- and 4-way joins over a ~1000-tuple inventory with "
                "deletes and modifies: match and act dominate, durability "
                "does not",
            program=JOIN_PACK,
            connections=(("j0",), ("j1",)),
            stream=JoinStream,
            checkpoint_rounds=1024,
            warm_ops=300,
            count_ops=400,
        ),
        Workload(
            name="patterns_dbms",
            why="join_churn's pack and mix on strategy=patterns over SQLite "
                "(paper 4.2): storage does the work and no Rete code runs",
            program=JOIN_PACK,
            connections=(("j0",), ("j1",)),
            stream=JoinStream,
            stream_args={"scale": 0.25},
            config={"strategy": "patterns", "backend": "sqlite"},
            checkpoint_rounds=128,
            warm_ops=80,
            count_ops=100,
        ),
        Workload(
            name="k8s_replicated",
            why="k8s_fleet with a --follow standby attached: every ack also "
                "waits for ship, follower apply and follower ack",
            program=K8S_PROGRAM,
            connections=_K8S_TENANTS,
            stream=K8sStream,
            replicated=True,
        ),
    )
}


def reference_state(workload: Workload, ops: list[dict]) -> dict:
    """Relation contents after feeding *ops* to an in-process system.

    One op at a time, run to quiescence after each — what a tenant
    session does per drain, minus the service and the log.  Always the
    default strategy on the memory backend: every strategy must reach
    the same working memory (the fuzz oracle's contract), so this is
    also the check that ``patterns`` over SQLite did.
    """
    system = ProductionSystem(workload.program, strategy="rete")
    wm = system.wm
    for op in ops:
        if op["op"] == "insert":
            wm.insert(op["relation"], op["values"])
        elif op["op"] == "delete":
            wm.remove(wm.get(op["relation"], op["tid"]))
        else:
            wm.modify(wm.get(op["relation"], op["tid"]), op["changes"])
        system.run()
    return {
        name: [
            [wme.tid, list(wme.values)]
            for wme in sorted(wm.tuples(name), key=lambda w: w.tid)
        ]
        for name in sorted(wm.schemas)
    }

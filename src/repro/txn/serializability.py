"""Histories, conflict graphs, and schedule counting (§5.2 / [RASC87]).

A concurrent execution produces a *history* of read/write operations on
lock targets.  Two operations conflict when they touch the same target,
come from different transactions, and at least one writes.  The execution
is (conflict-)serializable iff the conflict graph is acyclic, and every
topological order of that graph is an equivalent serial schedule — the
count of those orders is the paper's second proposed benefit measure
("the number of serializable schedules equivalent to a single serial
schedule", §5.2).
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.txn.locks import Target

#: A conflict graph: every transaction mapped to its successors.
Graph = dict[int, set[int]]


@dataclass(frozen=True)
class Operation:
    """One read or write in a history."""

    txn_id: int
    kind: str  # "r" or "w"
    target: Target

    def conflicts_with(self, other: "Operation") -> bool:
        return (
            self.txn_id != other.txn_id
            and self.target == other.target
            and ("w" in (self.kind, other.kind))
        )


@dataclass
class History:
    """An ordered list of operations plus commit bookkeeping."""

    operations: list[Operation] = field(default_factory=list)
    commit_order: list[int] = field(default_factory=list)

    def record(self, txn_id: int, kind: str, target: Target) -> None:
        self.operations.append(Operation(txn_id, kind, target))

    def committed(self, txn_id: int) -> None:
        self.commit_order.append(txn_id)

    def transactions(self) -> list[int]:
        seen: list[int] = []
        for operation in self.operations:
            if operation.txn_id not in seen:
                seen.append(operation.txn_id)
        return seen


def conflict_graph(history: History) -> Graph:
    """Build the conflict graph: edge Ti -> Tj when an op of Ti precedes a
    conflicting op of Tj.  Nodes are in first-appearance order."""
    graph: Graph = {txn: set() for txn in history.transactions()}
    ops = history.operations
    for i, earlier in enumerate(ops):
        for later in ops[i + 1:]:
            if earlier.conflicts_with(later):
                graph[earlier.txn_id].add(later.txn_id)
    return graph


def _predecessors(graph: Graph) -> Graph:
    predecessors: Graph = {node: set() for node in graph}
    for node, successors in graph.items():
        for successor in successors:
            predecessors[successor].add(node)
    return predecessors


def _topological_order(
    graph: Graph, key: Callable[[int], object]
) -> list[int] | None:
    """Kahn's algorithm taking the ready node of smallest *key* first (the
    lexicographic topological order); ``None`` when the graph has a
    cycle.  Keys must be distinct."""
    indegree = {node: len(p) for node, p in _predecessors(graph).items()}
    ready = [(key(node), node) for node, n in indegree.items() if n == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        _, node = heapq.heappop(ready)
        order.append(node)
        for successor in graph[node]:
            indegree[successor] -= 1
            if indegree[successor] == 0:
                heapq.heappush(ready, (key(successor), successor))
    return order if len(order) == len(graph) else None


def is_serializable(history: History) -> bool:
    """Conflict-serializability test: acyclic conflict graph."""
    return _topological_order(conflict_graph(history), key=int) is not None


def equivalent_serial_order(history: History) -> list[int]:
    """One serial order the history is equivalent to.

    Ties (unordered transactions) are broken by commit order so the result
    is the "natural" serialization witness.
    """
    position = {t: i for i, t in enumerate(history.commit_order)}
    order = _topological_order(
        conflict_graph(history),
        key=lambda t: (position.get(t, len(position)), t),
    )
    if order is None:
        raise ValueError("history is not serializable")
    return order


def count_equivalent_serial_orders(history: History, cap: int = 12) -> int:
    """Count topological orders of the conflict graph (§5.2's measure).

    "This measure is proportional to the number of possible choices of
    actions that can be executed at any instant."  Counting is exponential,
    so histories with more than *cap* transactions raise ValueError.
    """
    graph = conflict_graph(history)
    if _topological_order(graph, key=int) is None:
        raise ValueError("history is not serializable")
    nodes = list(graph)
    if len(nodes) > cap:
        raise ValueError(
            f"too many transactions to count orders ({len(nodes)} > {cap})"
        )
    predecessors = _predecessors(graph)
    index = {n: i for i, n in enumerate(nodes)}
    full_mask = (1 << len(nodes)) - 1
    memo: dict[int, int] = {full_mask: 1}

    def count(mask: int) -> int:
        if mask in memo:
            return memo[mask]
        total = 0
        placed = {n for n in nodes if mask & (1 << index[n])}
        for node in nodes:
            bit = 1 << index[node]
            if mask & bit:
                continue
            if predecessors[node] <= placed:
                total += count(mask | bit)
        memo[mask] = total
        return total

    return count(0)

"""Rete match network (§3 of the paper).

Three strategy flavours share this package: ``rete`` (the classic §3.1
network), ``rete-shared`` (§3.2/§6 multiple-query-optimized node
sharing) and ``rete-dbms`` (§3.2's DBMS realization, persisting alpha
and beta memories as LEFT/RIGHT relations through
:class:`~repro.match.rete.runtime.MemoryMirror`).  All three propagate
change either tuple-at-a-time (the engine's act phase, bit-for-bit OPS5)
or as token-batched sets — a netted ``DeltaBatch`` flowing through alpha
tests and join nodes with one opposing-memory probe per (node, batch
group); see ``docs/ALGORITHMS.md`` §8 and ``docs/ARCHITECTURE.md``.
"""

from repro.match.rete.builder import NetworkBuilder, ReteNetwork, build_network
from repro.match.rete.runtime import (
    AlphaMemory,
    BetaMemory,
    JoinNode,
    JoinTest,
    MemoryMirror,
    NegativeNode,
    ProductionNode,
    ReteRuntime,
    Token,
)
from repro.match.rete.strategy import (
    DbmsReteStrategy,
    ReteStrategy,
    SharedReteStrategy,
)

__all__ = [
    "AlphaMemory",
    "BetaMemory",
    "DbmsReteStrategy",
    "JoinNode",
    "JoinTest",
    "MemoryMirror",
    "NegativeNode",
    "NetworkBuilder",
    "ProductionNode",
    "ReteNetwork",
    "ReteRuntime",
    "ReteStrategy",
    "SharedReteStrategy",
    "Token",
    "build_network",
]

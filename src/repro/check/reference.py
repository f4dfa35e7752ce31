"""The interpreted match path, kept as the differential oracle's reference.

Production networks always run compiled (:mod:`repro.match.compile`).
The path the compiled kernels replaced survives here, so the oracle's
per-op cell (and the ``repro.bench`` reports that count the paper's
interpreted operations) can run it: :func:`interpreted` wraps a strategy
class so that :func:`interpret` swaps it onto scan kernels, interpreted
alpha tests, no memory indexes and no compiled pattern checks before it
sees a single WM element.
"""

from __future__ import annotations

from repro.match.patterns import MatchingPatternsStrategy
from repro.storage.predicate import compare, compile_predicate


class ScanKernel:
    """A node's join answered by a nested scan of the opposing memory.

    Has :class:`~repro.match.compile.JoinKernel`'s interface.  Every
    join test evaluated counts one ``comparisons``; partners come back in
    the opposing memory's insertion order, which the compiled kernels
    reproduce.
    """

    plan = None
    label = "scan"

    def __init__(self, node) -> None:
        self.tests = node.tests
        self.bmem = node.bmem
        self.amem = node.amem
        self.counters = node.counters

    def _joins(self, token, wme) -> bool:
        counters = self.counters
        for test in self.tests:
            other = token.ancestor(test.levels_up - 1).wme
            counters.comparisons += 1
            if other is None:
                return False
            if not compare(
                test.op,
                wme.values[test.own_position],
                other.values[test.other_position],
            ):
                return False
        return True

    def lefts_for(self, wme) -> list:
        """LEFT tokens joining *wme*, in LEFT-memory insertion order."""
        return [token for token in self.bmem.tokens() if self._joins(token, wme)]

    def rights_for(self, token) -> list:
        """RIGHT elements joining *token*, in RIGHT-memory insertion order."""
        return [wme for wme in self.amem.wmes() if self._joins(token, wme)]


def interpret(strategy) -> None:
    """Move *strategy*'s match onto the interpreted reference path.

    Strategies with nothing compiled (neither a Rete network nor pattern
    checks) are left as they are.
    """
    network = getattr(strategy, "network", None)
    if network is not None:
        for amem in network.alpha_memories:
            amem.test = compile_predicate(amem.predicate, amem.schema)
            amem.indexes.clear()
        for bmem in network.beta_memories:
            bmem.indexes.clear()
        for node in (*network.join_nodes, *network.negative_nodes):
            node.attach_kernel(ScanKernel(node))
        network.compile_summary = {"kernels": 0, "alpha": 0, "ns": 0}
    if isinstance(strategy, MatchingPatternsStrategy):
        strategy._checks = {}
        for store in strategy.stores.values():
            store.checks = strategy._checks


def interpreted(strategy_cls: type) -> type:
    """*strategy_cls*, with :func:`interpret` applied as it is built."""

    class Interpreted(strategy_cls):
        def _prepare(self) -> None:
            super()._prepare()
            interpret(self)

    Interpreted.__name__ = Interpreted.__qualname__ = (
        f"Interpreted{strategy_cls.__name__}"
    )
    return Interpreted

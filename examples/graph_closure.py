"""Transitive closure by forward chaining — the deduction §1 motivates.

One production derives new edges from pairs of existing ones; the negated
condition element is the termination guard (no re-derivation of edges that
already exist).  The result is validated against a plain reachability
closure, and the same run is repeated under the Rete and matching-pattern
strategies.

    python examples/graph_closure.py
"""

from repro import ProductionSystem

RULES = """
(literalize Edge from to)

(p transitive
    (Edge ^from <A> ^to <B>)
    (Edge ^from <B> ^to <C>)
    -(Edge ^from <A> ^to <C>)
    -->
    (make Edge ^from <A> ^to <C>))
"""

EDGES = [
    (1, 2), (2, 3), (3, 4),          # a chain
    (4, 5), (5, 3),                  # a cycle tail
    (6, 7),                          # a separate component
]


def closure_reference():
    """Every (a, c) with a path of one or more edges from a to c."""
    successors = {}
    for source, target in EDGES:
        successors.setdefault(source, set()).add(target)
    closed = set()
    for start in successors:
        stack = list(successors[start])
        while stack:
            node = stack.pop()
            if (start, node) not in closed:
                closed.add((start, node))
                stack.extend(successors.get(node, ()))
    return closed


def run_with(strategy: str) -> set:
    system = ProductionSystem(RULES, strategy=strategy)
    for source, target in EDGES:
        system.insert("Edge", (source, target))
    result = system.run(max_cycles=500)
    assert not result.exhausted, "closure did not converge"
    derived = {
        (t.values[0], t.values[1]) for t in system.wm.tuples("Edge")
    }
    return derived, result.cycles


def main() -> None:
    expected = closure_reference()
    print(f"{len(EDGES)} base edges; closure has {len(expected)} edges "
          "(reachability reference)\n")
    for strategy in ("rete", "patterns", "simplified"):
        derived, cycles = run_with(strategy)
        new = len(derived) - len(EDGES)
        print(f"  {strategy:12s} derived {new:2d} new edges "
              f"in {cycles} firings")
        assert derived == expected, (strategy, derived ^ expected)
    print("\nOK: all strategies converge to the exact transitive closure")


if __name__ == "__main__":
    main()

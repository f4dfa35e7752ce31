"""Shrinker: ddmin + rule pruning, and the harness self-test.

The self-test is the acceptance gate for the whole subsystem: inject an
intentionally broken strategy shim, let the fuzzer catch it, and demand
the shrinker reduce the finding to a handful of ops and a single rule.
"""

import pytest

from repro.check import default_matrix, generate_trace, run_trace, shrink
from repro.match import STRATEGIES

from tests.check.test_oracle import BrokenStrategy


def broken_setup():
    strategies = {"rete": STRATEGIES["rete"], "broken": BrokenStrategy}
    configs = default_matrix(strategies, backends=("memory",))

    def failing(trace):
        return run_trace(trace, configs=configs, strategies=strategies) \
            is not None

    return failing


class TestShrink:
    def test_passing_trace_rejected(self):
        with pytest.raises(ValueError):
            shrink(generate_trace(0, 0), lambda trace: False)

    def test_self_test_minimizes_to_tiny_repro(self):
        """Acceptance: a dropped-insert bug shrinks to <= 6 WM ops."""
        failing = broken_setup()
        trace = generate_trace(0, 0)
        assert failing(trace)
        shrunk = shrink(trace, failing)
        assert failing(shrunk)
        assert len(shrunk.ops) <= 6
        assert shrunk.program.count("(p ") == 1

    def test_shrunk_trace_keeps_identity_fields(self):
        failing = broken_setup()
        trace = generate_trace(0, 1)
        assert failing(trace)
        shrunk = shrink(trace, failing)
        assert (shrunk.name, shrunk.seed) == (trace.name, trace.seed)
        assert len(shrunk.ops) <= len(trace.ops)

    def test_shrink_is_deterministic(self):
        failing = broken_setup()
        trace = generate_trace(0, 0)
        assert shrink(trace, failing) == shrink(trace, failing)

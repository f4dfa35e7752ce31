"""Stateful property test: random op scripts never break strategy parity.

A :class:`hypothesis.stateful.RuleBasedStateMachine` grows an op script
one operation at a time; after every step the accumulated trace is
replayed through a representative strategy pair and the differential
oracle must find no divergence.  This complements the seeded fuzzer in
:mod:`repro.check.runner`: hypothesis owns the op-mix distribution and
shrinks its own counterexamples.

Reproducing a failure: hypothesis prints the falsifying example and a
``--hypothesis-seed=N`` hint on stderr — re-run with that flag (e.g.
``pytest tests/check/test_oracle_properties.py --hypothesis-seed=12345``)
to replay the exact machine run deterministically.
"""

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.check import CheckConfig, run_trace
from repro.check.trace import Trace, TraceOp

#: Fixed rule base: a two-way join, a correlated negation and a
#: disjunctive membership test — the constructs whose maintenance paths
#: differ most across strategies.  The single ``remove`` keeps cycles
#: finite regardless of the ops hypothesis chooses.
PROGRAM = """
(literalize order item qty)
(literalize stock item qty)
(literalize alert item)
(p ship
    (order ^item <i> ^qty <q>)
    (stock ^item <i>)
    -->
    (remove 1))
(p shortage
    (order ^item <i>)
    - (stock ^item <i>)
    -->
    (make alert ^item <i>))
(p audit
    (alert ^item << 0 1 2 >>)
    -->
    (remove 1))
"""

#: One per-op config and one chunked config (ops in batches of
#: ``Trace.batch``): the pair most likely to disagree when delta grouping
#: is wrong.
CONFIGS = [
    CheckConfig("rete", "memory", per_op=True),
    CheckConfig("patterns", "memory"),
]

ITEMS = st.integers(0, 3)
QTYS = st.integers(0, 5)


class OracleMachine(RuleBasedStateMachine):
    """Accumulates ops; parity across CONFIGS is the invariant."""

    @initialize()
    def start(self):
        self.ops = []

    @rule(item=ITEMS, qty=QTYS)
    def insert_order(self, item, qty):
        self.ops.append(TraceOp.insert("order", (item, qty)))

    @rule(item=ITEMS, qty=QTYS)
    def insert_stock(self, item, qty):
        self.ops.append(TraceOp.insert("stock", (item, qty)))

    @rule(index=st.integers(0, 1 << 16))
    def delete_some(self, index):
        self.ops.append(TraceOp.delete(index))

    @rule(index=st.integers(0, 1 << 16), qty=QTYS)
    def modify_some(self, index, qty):
        self.ops.append(TraceOp.modify(index, {"qty": qty}))

    @rule()
    def reattach(self):
        self.ops.append(TraceOp.detach())
        self.ops.append(TraceOp.attach())

    @invariant()
    def strategies_agree(self):
        trace = Trace(
            name="stateful", seed=0, program=PROGRAM,
            ops=tuple(self.ops), max_cycles=20, batch=8,
        )
        divergence = run_trace(trace, configs=CONFIGS)
        assert divergence is None, divergence.describe()


TestOracleProperties = OracleMachine.TestCase
TestOracleProperties.settings = settings(
    max_examples=50, stateful_step_count=12, deadline=None
)

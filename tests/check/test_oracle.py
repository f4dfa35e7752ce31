"""The differential oracle: clean parity, injected faults, error capture."""

import os
from dataclasses import replace

import pytest

from repro.check import (
    CheckConfig,
    PROFILES,
    default_matrix,
    generate_trace,
    load_trace,
    replay_config,
    run_trace,
)
from repro.check.trace import Trace, TraceOp
from repro.match import STRATEGIES, SimplifiedStrategy
from repro.match.rete import ReteStrategy

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "..", "corpus")

#: A cheap sub-matrix for tests that exercise the machinery rather than
#: the full strategy space (the full matrix runs in test_full_matrix and
#: the corpus replay).
FAST = [
    CheckConfig("rete", "memory", per_op=True),
    CheckConfig("patterns", "memory"),
    CheckConfig("simplified-indexed", "memory"),
]


class BrokenStrategy(SimplifiedStrategy):
    """Intentionally faulty shim: silently drops every third insert."""

    strategy_name = "broken"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._seen = 0

    def on_insert(self, wme):
        self._seen += 1
        if self._seen % 3 == 0:
            return
        super().on_insert(wme)


class DeafKernelRete(ReteStrategy):
    """Compiled kernels that find no join partners.  The interpreted
    reference swaps scan kernels in, so only compiled cells go wrong."""

    strategy_name = "deaf"

    def _prepare(self):
        super()._prepare()
        for node in (*self.network.join_nodes, *self.network.negative_nodes):
            node.lefts_for = lambda wme: []
            node.rights_for = lambda token: []


#: One join rule, so a kernel that finds no partners changes the
#: conflict set.
JOIN_TRACE = Trace(
    name="join", seed=0,
    program=(
        "(literalize a x)\n(literalize b x)\n"
        "(p pair (a ^x <v>) (b ^x <v>) --> (remove 1))\n"
    ),
    ops=(TraceOp.insert("a", (1,)), TraceOp.insert("b", (1,))),
)


class ExplodingStrategy(SimplifiedStrategy):
    """Raises on the fifth insert — exercises the error-capture path."""

    strategy_name = "exploding"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._seen = 0

    def on_insert(self, wme):
        self._seen += 1
        if self._seen == 5:
            raise RuntimeError("boom")
        super().on_insert(wme)


class TestMatrix:
    def test_default_matrix_covers_all_axes(self):
        configs = default_matrix()
        # Every strategy gets one compiled cell per backend; the
        # interpreted per-op reference cell leads the matrix.
        assert len(configs) == len(STRATEGIES) * 2 + 1 == 17
        assert {c.strategy for c in configs} == set(STRATEGIES)
        assert {c.backend for c in configs} == {"memory", "sqlite"}
        assert [c for c in configs if c.per_op] == [configs[0]]
        assert configs[0].label == "rete-shared/memory/per-op"
        execs = default_matrix(exec_modes=("cycle", "txn"))
        assert len(execs) == 33
        assert execs[0].per_op and execs[0].exec == "cycle"

    def test_strategy_names_subset(self):
        configs = default_matrix(["rete", "patterns"], backends=("sqlite",))
        assert {c.strategy for c in configs} == {"rete", "patterns"}
        # Without rete-shared or memory, the per-op cell falls back to
        # the first selected strategy and backend.
        assert configs[0].label == "patterns/sqlite/per-op"

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            run_trace(generate_trace(0, 0), configs=[])


class TestExecAxis:
    def test_labels_encode_exec(self):
        assert CheckConfig("rete").label == "rete/memory"
        assert CheckConfig("rete", exec="txn").label.endswith("/txn")
        assert CheckConfig("rete", per_op=True).label == "rete/memory/per-op"

    def test_exec_cells_agree(self):
        """Every exec mode's cells replay bit-identically to that mode's
        own reference across every strategy and both backends (different
        modes are compared only within their own group).  The traces are
        two that set-at-a-time firing could not replay consistently."""
        configs = default_matrix(exec_modes=("cycle", "txn"))
        for name in ("seed1-38-modify-heavy", "seed3-17-modify-heavy"):
            trace = load_trace(os.path.join(CORPUS_DIR, f"{name}.json"))
            assert run_trace(trace, configs=configs) is None

    def test_txn_replay_records_round_firings(self):
        trace = generate_trace(0, 0)
        result = replay_config(trace, CheckConfig("rete", exec="txn"))
        assert not any(tag[0] == "cycle" for tag in result.checkpoints)
        for _round_no, rule, key in result.fired:
            assert key[0] == rule
        if result.fired:
            assert any(tag[0] == "round" for tag in result.checkpoints)


class TestCleanParity:
    @pytest.mark.parametrize("index", range(len(PROFILES)))
    def test_profiles_agree_on_fast_matrix(self, index):
        trace = generate_trace(11, index)
        assert run_trace(trace, configs=FAST) is None

    def test_full_matrix_agrees(self):
        """One trace through all strategies × backends, plus per-op."""
        trace = generate_trace(5, 1)  # negation profile
        assert run_trace(trace) is None


class TestReplay:
    def test_checkpoints_and_final_wm_recorded(self):
        trace = generate_trace(2, 0)
        result = replay_config(trace, CheckConfig("rete", per_op=True))
        assert ("end_ops",) in result.checkpoints
        # a per-op cell checkpoints after every data op
        data_ops = [
            i for i, op in enumerate(trace.ops)
            if op.kind in ("insert", "delete", "modify")
        ]
        for position in data_ops:
            assert ("op", position) in result.checkpoints
        assert result.final_wm is not None
        assert result.rete_memories  # rete-family records snapshots

    def test_batched_replay_skips_per_op_checkpoints(self):
        # A chunked cell syncs once per chunk of trace.batch ops (the
        # plain profile has no control ops to end a chunk early).
        trace = replace(generate_trace(2, 0), batch=8)
        result = replay_config(trace, CheckConfig("patterns", "memory"))
        assert ("end_ops",) in result.checkpoints
        last = len(trace.ops) - 1
        assert sorted(
            tag[1] for tag in result.checkpoints if tag[0] == "op"
        ) == sorted({*range(7, last + 1, 8), last})
        assert not result.rete_memories  # non-rete takes no snapshots

    def test_detach_attach_trace_replays(self):
        program = "(literalize item kind)\n"
        trace = Trace(
            name="ctl", seed=0, program=program,
            ops=(
                TraceOp.insert("item", (1,)),
                TraceOp.detach(),
                TraceOp.insert("item", (2,)),
                TraceOp.attach(),
                TraceOp.insert("item", (3,)),
            ),
        )
        result = replay_config(trace, CheckConfig("rete", per_op=True))
        assert ("ctl", 1) in result.checkpoints
        assert ("ctl", 3) in result.checkpoints
        assert result.final_wm["item"][0][2] == (1,)
        assert len(result.final_wm["item"]) == 3

    def test_delete_and_modify_on_empty_wm_are_noops(self):
        trace = Trace(
            name="empty", seed=0, program="(literalize item kind)\n",
            ops=(TraceOp.delete(7), TraceOp.modify(3, {"kind": 1})),
        )
        assert run_trace(trace, configs=FAST) is None


class TestFaultDetection:
    def test_broken_strategy_diverges(self):
        strategies = {"rete": STRATEGIES["rete"], "broken": BrokenStrategy}
        trace = generate_trace(0, 0)
        divergence = run_trace(
            trace,
            configs=default_matrix(strategies, backends=("memory",)),
            strategies=strategies,
        )
        assert divergence is not None
        assert divergence.kind == "conflict"
        # "broken" sorts first, so it becomes the matrix reference; the
        # divergence must name it on one side either way.
        assert "broken" in divergence.config + divergence.reference
        assert divergence.sync_point is not None

    def test_exception_becomes_error_divergence(self):
        strategies = {
            "rete": STRATEGIES["rete"], "exploding": ExplodingStrategy,
        }
        trace = generate_trace(0, 0)
        divergence = run_trace(
            trace,
            configs=default_matrix(strategies, backends=("memory",)),
            strategies=strategies,
        )
        assert divergence is not None
        assert divergence.kind == "error"
        assert "boom" in divergence.detail

    def test_first_cell_replays_interpreted_whatever_its_chunking(self):
        """The matrix's first cell is the reference and runs the
        interpreted scan even when it is not per-op: a compiled-only
        fault in it does not show against a healthy strategy."""
        strategies = {"rete": STRATEGIES["rete"], "deaf": DeafKernelRete}
        assert run_trace(
            JOIN_TRACE,
            configs=[CheckConfig("deaf"), CheckConfig("rete")],
            strategies=strategies,
        ) is None

    def test_per_op_cells_after_the_first_replay_compiled(self):
        """``per_op`` only chunks: a per-op cell that is not the
        reference runs the compiled kernels, so their faults show."""
        strategies = {"rete": STRATEGIES["rete"], "deaf": DeafKernelRete}
        divergence = run_trace(
            JOIN_TRACE,
            configs=[CheckConfig("deaf"), CheckConfig("deaf", per_op=True)],
            strategies=strategies,
        )
        assert divergence is not None
        assert divergence.config == "deaf/memory/per-op"
        assert divergence.reference == "deaf/memory"

    def test_describe_mentions_both_configs(self):
        strategies = {"rete": STRATEGIES["rete"], "broken": BrokenStrategy}
        divergence = run_trace(
            generate_trace(0, 0),
            configs=[
                CheckConfig("rete", per_op=True),
                CheckConfig("broken", per_op=True),
            ],
            strategies=strategies,
        )
        text = divergence.describe()
        assert "broken/memory" in text
        assert "rete/memory" in text

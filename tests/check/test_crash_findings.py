"""Crash findings: per-run health checks, divergences, and shrinking.

Every run of a crash trace is a configuration of the trace driver, so it
checks its own join indexes at every sync point, and a finding is a
:class:`~repro.check.Divergence` that shrinks under its own cell.
"""

from functools import partial

from repro.check import (
    PROFILES,
    Trace,
    TraceOp,
    crash_predicate,
    generate_trace,
    run_crash_trace,
    shrink,
)
from repro.engine import ProductionSystem
from repro.match import STRATEGIES
from repro.match.patterns import PatternTuple
from repro.match.rete import ReteStrategy

REFRACTION = next(p for p in PROFILES if p.name == "refraction")
NEGATION = next(p for p in PROFILES if p.name == "negation")


def _retract_keeping_buckets(amem, retract, wme):
    keys = {
        positions: tuple(wme.values[p] for p in positions)
        for positions in amem.indexes
    }
    retracted = retract(wme)
    if retracted:
        for positions, key in keys.items():
            amem.indexes[positions].setdefault(key, [])
    return retracted


class StaleBucketRete(ReteStrategy):
    """Alpha memories leave an emptied join-index bucket behind.  A probe
    of it still finds no partner, so every conflict set, firing and
    final state is unchanged: only the index health check can see it."""

    def _prepare(self):
        super()._prepare()
        for amem in self.network.alpha_memories:
            amem.retract = partial(_retract_keeping_buckets, amem, amem.retract)


#: The rule removes its second CE, whose alpha memory the join probes
#: through a persistent index, so the first cycle empties a bucket.
STALE_TRACE = Trace(
    name="stale-bucket", seed=0,
    program=(
        "(literalize a x)\n(literalize b x)\n"
        "(p pair (a ^x <v>) (b ^x <v>) --> (remove 2))\n"
    ),
    ops=(TraceOp.insert("a", (1,)), TraceOp.insert("b", (1,))),
)


class TestIndexHealth:
    def test_healthy_run_is_clean(self):
        divergence, stats = run_crash_trace(
            STALE_TRACE, per_op=False, site="commit.post", after=1
        )
        assert divergence is None
        assert stats["crashed"] == "commit.post"

    def test_stale_join_index_is_caught(self, monkeypatch):
        monkeypatch.setitem(STRATEGIES, "rete", StaleBucketRete)
        divergence, _ = run_crash_trace(
            STALE_TRACE, per_op=False, site="commit.post", after=1
        )
        assert divergence is not None
        assert divergence.kind == "rete-index"
        assert divergence.sync_point == ("cycle", 1)


def _remove_keeping_the_bit(pattern, rce_index, contributor):
    """``PatternTuple.remove_support`` that empties a support set but
    leaves its Mark-word bit set."""
    bucket = pattern.supports.get(rce_index)
    if bucket is None or contributor not in bucket:
        return False
    bucket.discard(contributor)
    return True


class TestMarkWordHealth:
    #: A cycle-mode patterns cell crashed at a pinned site.
    CELL = {
        "strategy": "patterns", "backend": "memory", "per_op": False,
        "checkpoint_every": 0, "exec_mode": "cycle", "site": "commit.post",
        "after": 2,
    }

    def test_healthy_run_is_clean(self):
        trace = generate_trace(0, PROFILES.index(NEGATION))
        divergence, _ = run_crash_trace(trace, **self.CELL)
        assert divergence is None

    def test_stale_mark_bit_is_found_and_shrunk(self, monkeypatch):
        """A withdrawal that leaves the bit set keeps every support set
        right, so only the Mark-word health check sees it at first; the
        finding shrinks under its own cell to a trace that still fails."""
        monkeypatch.setattr(
            PatternTuple, "remove_support", _remove_keeping_the_bit
        )
        trace = generate_trace(0, PROFILES.index(NEGATION))
        divergence, _ = run_crash_trace(trace, **self.CELL)
        assert divergence is not None
        assert divergence.kind == "pattern-index"
        assert "mask" in divergence.detail
        failing = crash_predicate(self.CELL)
        shrunk = shrink(trace, failing)
        assert len(shrunk.ops) < len(trace.ops)
        assert failing(shrunk)


def _drop_every_refraction_key(system):
    dropped = len(system.refraction_keys)
    system.refraction_keys.clear()
    return dropped


class TestShrinking:
    #: A cycle-mode cell that cuts a checkpoint (and so prunes the
    #: refraction set) after every cycle, crashed at a pinned site.
    CELL = {
        "backend": "memory", "per_op": False, "checkpoint_every": 1,
        "exec_mode": "cycle", "site": "commit.post", "after": 2,
    }

    def test_dropped_live_refraction_keys_are_found_and_shrunk(
        self, monkeypatch
    ):
        """A pruning that drops live keys lets a fired instantiation fire
        again.  Only a durable run prunes (at each checkpoint cut), so the
        crash harness reports it, and the finding shrinks under its own
        cell to a trace that still fails there."""
        monkeypatch.setattr(
            ProductionSystem, "prune_refraction", _drop_every_refraction_key
        )
        trace = generate_trace(0, PROFILES.index(REFRACTION))
        assert trace.name.endswith("-refraction")
        divergence, _ = run_crash_trace(trace, **self.CELL)
        assert divergence is not None
        assert divergence.kind == "fired"
        failing = crash_predicate(self.CELL)
        shrunk = shrink(trace, failing)
        assert len(shrunk.ops) <= len(trace.ops)
        assert failing(shrunk)

"""The cross-strategy differential oracle.

Every registered match strategy computes the *same* match function;
set-at-a-time op application and both storage backends change only *how*
it is computed.  The oracle replays one :class:`~repro.check.trace.Trace`
through a configuration matrix — strategy × backend × exec mode — and
asserts that every observable agrees.  Every cell applies the trace's
ops in chunks of ``trace.batch``, each chunk one delta batch, and runs
the production (compiled) match path.  One extra *per-op* cell leads the
matrix and applies the ops tuple-at-a-time; as the matrix's first cell it
is the reference, and :func:`run_trace` replays it on the interpreted
scan (:mod:`repro.check.reference`), so a bug in the compiled kernels or
one that depends on how ops are chunked still shows.  The observables:

* conflict-set keys at every synchronization point: after every chunk
  (every op, in the per-op cell), after every control op, at end-of-ops
  and after every recognize-act cycle;
* the fired-rule sequence, as (cycle, rule, instantiation-key) triples;
* final working-memory contents, as (tid, timetag, values) rows;
* for the Rete family, the contents of every alpha/beta memory, negative
  node and persisted mirror relation after every cycle — compared across
  configs sharing a strategy, since different strategies legitimately
  build different networks;
* for the matching-pattern strategy, the health of every COND group's
  shape directory at every sync point (:func:`pattern_index_faults`) —
  checked in each cell on its own, since every cell is indexed.

Every cell but the reference also prunes its refraction set
(:meth:`~repro.engine.interpreter.ProductionSystem.prune_refraction`) at
every sync point, as a durable run does at each checkpoint cut, and
checks that the pruning left ``eligible()`` — members and order —
unchanged.  Since the reference never prunes, the cross-cell comparisons
above also prove that pruning changes no conflict set and no firing.

A disagreement (or an exception inside any replay) is reported as a
:class:`Divergence` naming the two configurations and the first sync
point where they differ.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field

from repro.engine import ProductionSystem
from repro.match import STRATEGIES
from repro.match.patterns import MatchingPatternsStrategy
from repro.check.reference import interpreted
from repro.check.trace import Trace, TraceOp
from repro.txn.scheduler import ConcurrentScheduler

#: Strategies whose ``network`` attribute exposes Rete memories.
RETE_FAMILY = ("rete", "rete-shared", "rete-dbms")

DEFAULT_BACKENDS = ("memory", "sqlite")
DEFAULT_EXEC_MODES = ("cycle",)

#: Execution modes for the run-cycles phase: the serial recognize-act
#: reference and the §5.2 concurrent 2PL scheduler.
EXEC_MODES = ("cycle", "txn")

#: The per-op reference cell's strategy when it is selected: MQO-shared
#: alpha memories are where a chunking-dependent multiplicity bug was
#: once found.
PER_OP_STRATEGY = "rete-shared"


@dataclass(frozen=True)
class CheckConfig:
    """One cell of the oracle's configuration matrix.

    ``lineage`` replays the trace with provenance recording attached
    (:class:`repro.obs.xray.LineageRecorder`); because the recorder is a
    pure conflict-set listener, a lineage-on cell must be bit-identical
    to its lineage-off twin — the fuzz matrix pins that claim.

    ``exec`` selects the run-cycles phase: ``"cycle"`` (the serial
    recognize-act loop, one instantiation per cycle) or ``"txn"`` (the
    §5.2 concurrent 2PL scheduler with WAL-style group commit rounds).
    The two record firings in different units (cycles vs rounds), so the
    oracle compares each mode's cells against that mode's own reference.

    ``per_op`` applies the trace's ops one at a time, each propagated as
    it happens, instead of in ``trace.batch`` chunks.  It says nothing
    about the match path: a config replays compiled unless it is the
    first cell of a :func:`run_trace` matrix (the reference).
    """

    strategy: str
    backend: str = "memory"
    lineage: bool = False
    exec: str = "cycle"
    per_op: bool = False

    @property
    def label(self) -> str:
        suffix = "/per-op" if self.per_op else ""
        if self.lineage:
            suffix += "/lineage"
        if self.exec != "cycle":
            suffix += f"/{self.exec}"
        return f"{self.strategy}/{self.backend}{suffix}"


def resolve_strategies(strategies) -> dict:
    """Normalize a strategies argument to a name → class mapping.

    Accepts ``None`` (the full :data:`repro.match.STRATEGIES` registry), a
    list of registered names, or an explicit mapping of name → class (the
    mapping form lets tests inject broken shims under synthetic names).
    """
    if strategies is None:
        return dict(STRATEGIES)
    if isinstance(strategies, dict):
        return dict(strategies)
    return {name: STRATEGIES[name] for name in strategies}


def default_matrix(
    strategies=None,
    backends=DEFAULT_BACKENDS,
    exec_modes=DEFAULT_EXEC_MODES,
) -> list[CheckConfig]:
    """The per-op reference cell, then strategy × backend × exec mode.

    *strategies* may be a list of names or a mapping of name → strategy
    class (the mapping form lets tests inject broken shims).  Exec modes
    keep ``"cycle"`` first so it anchors as the reference.  The per-op
    cell comes first of all, so it is the matrix's interpreted reference
    and anchors its exec mode: it runs :data:`PER_OP_STRATEGY` (else the
    first strategy) on the memory backend (else the first backend), in
    the first exec mode.
    """
    names = sorted(resolve_strategies(strategies))
    ordered_execs = sorted(set(exec_modes), key=EXEC_MODES.index)
    per_op = CheckConfig(
        strategy=PER_OP_STRATEGY if PER_OP_STRATEGY in names else names[0],
        backend="memory" if "memory" in backends else backends[0],
        exec=ordered_execs[0],
        per_op=True,
    )
    return [per_op] + [
        CheckConfig(strategy=name, backend=backend, exec=exec_mode)
        for name in names
        for backend in backends
        for exec_mode in ordered_execs
    ]


@dataclass
class Divergence:
    """A reproducible disagreement between two oracle configurations."""

    # "conflict" | "fired" | "wm" | "rete-memory" | "pattern-index"
    # | "refraction" | "error"
    kind: str
    config: str
    reference: str
    detail: str
    sync_point: tuple | None = None

    def describe(self) -> str:
        where = f" at {self.sync_point}" if self.sync_point else ""
        return (
            f"[{self.kind}] {self.config} vs {self.reference}{where}: "
            f"{self.detail}"
        )


@dataclass
class ReplayResult:
    """Observables of one configuration's replay of one trace."""

    config: CheckConfig
    checkpoints: dict[tuple, frozenset] = field(default_factory=dict)
    fired: list[tuple[int, str, tuple]] = field(default_factory=list)
    final_wm: dict[str, tuple] = field(default_factory=dict)
    rete_memories: dict[tuple, dict] = field(default_factory=dict)
    #: Sync point -> :func:`pattern_index_faults`, unhealthy points only.
    pattern_faults: dict[tuple, list[str]] = field(default_factory=dict)
    #: Sync point -> how pruning the refraction set changed ``eligible()``.
    refraction_faults: dict[tuple, str] = field(default_factory=dict)


def rete_index_faults(network) -> list[str]:
    """Persistent join indexes that disagree with a scan of their memory.

    Every bucket must be exactly the key-filtered, insertion-ordered scan
    of its memory: no zombie or missing rows, no empty buckets, and no
    token indexed under an empty (negated-CE) slot.  Empty when healthy
    — which is why it can sit in the snapshot every cell is compared on
    (the interpreted reference keeps no indexes at all).
    """
    faults = []
    for amem in network.alpha_memories:
        for positions, index in amem.indexes.items():
            expected: dict[tuple, list[int]] = {}
            for row in amem.rows():
                values = amem.wme_at(row).values
                key = tuple(values[position] for position in positions)
                expected.setdefault(key, []).append(row)
            if index != expected:
                faults.append(f"{amem.name} on {positions}")
    for bmem in network.beta_memories:
        for spec, index in bmem.indexes.items():
            expected = {}
            for row in bmem.rows():
                wmes = [bmem.slot_column(slot)[row] for slot, _ in spec]
                if None not in wmes:
                    key = tuple(
                        wme.values[position]
                        for wme, (_, position) in zip(wmes, spec)
                    )
                    expected.setdefault(key, []).append(row)
            if index != expected:
                faults.append(f"{bmem.name} on {spec}")
    return faults


def pattern_index_faults(strategy) -> list[str]:
    """COND shape directories that disagree with a scan of their group.

    Re-derives, from nothing but each group's patterns in admission order,
    what every shape table and every registered partial-key table must
    hold, and compares: no zombie or missing pattern, shape tables and
    buckets in serial order, no empty table or bucket, serials strictly
    increasing, the template present.  Empty when healthy.
    """
    faults = []
    for class_name, store in sorted(strategy.stores.items()):
        for (rid, cen), group in store.directories():
            name = f"{class_name} {rid}/{cen}"
            patterns = list(group.patterns.values())
            serials = [pattern.serial for pattern in patterns]
            if any(a >= b for a, b in zip(serials, serials[1:])) or (
                serials and serials[-1] >= group.next_serial
            ):
                faults.append(f"{name}: serials {serials}")
            if [p.restrictions for p in patterns] != list(group.patterns):
                faults.append(f"{name}: group keys")
            template = group.template
            if group.patterns.get(template.restrictions) is not template:
                faults.append(f"{name}: template missing")
            variables = [
                position
                for position, slot in enumerate(template.restrictions)
                if slot is not None and slot[0] == "var"
            ]
            shapes: dict[tuple, dict[tuple, object]] = {}
            for pattern in patterns:
                row = pattern.restrictions
                shape = tuple(p for p in variables if row[p][0] == "const")
                shapes.setdefault(shape, {})[
                    tuple(row[p][1] for p in shape)
                ] = pattern
            if {k: list(t.items()) for k, t in group.shapes.items()} != {
                k: list(t.items()) for k, t in shapes.items()
            }:
                faults.append(f"{name}: shape tables")
            for shape, tables in group.partials.items():
                for positions, table in tables.items():
                    expected: dict[tuple, list] = {}
                    for pattern in shapes.get(shape, {}).values():
                        key = tuple(
                            pattern.restrictions[p][1] for p in positions
                        )
                        expected.setdefault(key, []).append(pattern)
                    if table != expected:
                        faults.append(f"{name}: {shape} on {positions}")
    return faults


def rete_memory_snapshot(strategy) -> dict:
    """Canonical contents of every Rete memory, comparable across runs.

    Alpha memories as WME-key sets, beta memories as multisets of token
    tid chains, negative nodes as (chain, witness-set) multisets, the
    persisted LEFT/RIGHT mirror relations as multisets of row *values*
    (mirror row tids depend on write order, the values do not), and the
    join indexes' faults (:func:`rete_index_faults`; ``[]`` in every
    healthy cell, so a compiled cell with a stale index diverges from
    the interpreted reference, which has no indexes).
    """
    network = strategy.network

    def chain_key(token):
        return tuple(
            (w.relation, w.tid) if w is not None else None
            for w in token.chain()
        )

    alpha = {
        amem.name: frozenset(amem.wme_keys())
        for amem in network.alpha_memories
    }
    beta = {
        bmem.name: sorted(
            (chain_key(token) for token in bmem.tokens()), key=repr
        )
        for bmem in network.beta_memories
    }
    negative = {
        node.name: sorted(
            (
                (chain_key(token), tuple(sorted(matches)))
                for token, matches in node.results.items()
            ),
            key=repr,
        )
        for node in network.negative_nodes
    }
    mirrors = {
        mirror.table.schema.name: sorted(
            (row.values for row in mirror.table.scan()), key=repr
        )
        for mirror in network.mirrors
    }
    return {
        "alpha": alpha, "beta": beta, "negative": negative,
        "mirrors": mirrors, "index_faults": rete_index_faults(network),
    }


def _wm_contents(system: ProductionSystem) -> dict[str, tuple]:
    return {
        class_name: tuple(
            sorted(
                (wme.tid, wme.timetag, wme.values)
                for wme in system.wm.tuples(class_name)
            )
        )
        for class_name in system.wm.schemas
    }


class _Replayer:
    """Applies a trace to one configured system, recording observables."""

    def __init__(
        self, trace: Trace, config: CheckConfig, strategies, prune: bool
    ) -> None:
        self.trace = trace
        self.config = config
        self.prune = prune
        self.strategy_cls = resolve_strategies(strategies)[config.strategy]
        self.system = ProductionSystem(
            trace.program,
            strategy=self.strategy_cls,
            resolution=trace.resolution,
            backend=config.backend,
            seed=trace.seed,
            lineage=config.lineage,
        )
        self.result = ReplayResult(config=config)
        self.attached = True

    # -- op application ------------------------------------------------------

    def _apply_chunk(
        self, chunk: list[TraceOp], live: list, position: int
    ) -> None:
        """Apply the ops ending at *position*, then sync.

        A per-op cell propagates its single op as it happens; every other
        cell applies the chunk as one delta batch.
        """
        if self.config.per_op:
            self._apply_op(chunk[0], live)
        else:
            with self.system.wm.batch():
                for op in chunk:
                    self._apply_op(op, live)
        self._checkpoint(("op", position))

    def _apply_op(self, op: TraceOp, live: list) -> None:
        wm = self.system.wm
        if op.kind == "insert":
            live.append(wm.insert(op.class_name, op.values))
        elif op.kind == "delete":
            if live:
                wm.remove(live.pop(op.index % len(live)))
        elif op.kind == "modify":
            if live:
                slot = op.index % len(live)
                changes = dict(op.changes or ())
                schema = wm.schema(live[slot].relation)
                applicable = {
                    k: v for k, v in changes.items() if k in schema.attributes
                }
                if applicable:
                    live[slot] = wm.modify(live[slot], applicable)

    def _control(self, op: TraceOp) -> None:
        system = self.system
        if op.kind == "detach":
            if self.attached:
                system.strategy.detach()
                self.attached = False
        elif op.kind == "attach":
            if self.attached:
                system.strategy.detach()
            system.strategy = self.strategy_cls(
                system.wm, system.analyses, counters=system.counters
            )
            self.attached = True
        elif op.kind == "compact":
            compact = getattr(system.strategy, "compact", None)
            if compact is not None:
                compact(op.index)

    def _checkpoint(self, tag: tuple) -> None:
        strategy = self.system.strategy
        self.result.checkpoints[tag] = frozenset(strategy.conflict_set_keys())
        if self.config.strategy in RETE_FAMILY and self.attached:
            self.result.rete_memories[tag] = rete_memory_snapshot(strategy)
        elif isinstance(strategy, MatchingPatternsStrategy):
            faults = pattern_index_faults(strategy)
            if faults:
                self.result.pattern_faults[tag] = faults
        if self.prune:
            before = [i.key for i in self.system.eligible()]
            dropped = self.system.prune_refraction()
            after = [i.key for i in self.system.eligible()]
            if after != before:
                self.result.refraction_faults[tag] = (
                    f"dropping {dropped} keys changed eligible() from "
                    f"{before} to {after}"
                )

    # -- phases --------------------------------------------------------------

    def apply_ops(self) -> None:
        live: list = []
        size = 1 if self.config.per_op else self.trace.batch
        chunk: list[TraceOp] = []
        for position, op in enumerate(self.trace.ops):
            if op.kind in ("detach", "attach", "compact"):
                if chunk:
                    self._apply_chunk(chunk, live, position - 1)
                    chunk = []
                self._control(op)
                self._checkpoint(("ctl", position))
                continue
            chunk.append(op)
            if len(chunk) >= size:
                self._apply_chunk(chunk, live, position)
                chunk = []
        if chunk:
            self._apply_chunk(chunk, live, len(self.trace.ops) - 1)
        self._checkpoint(("end_ops",))

    def run_cycles(self) -> None:
        system = self.system
        if self.config.exec == "txn":
            self._run_txn_rounds()
        else:
            for cycle in range(1, self.trace.max_cycles + 1):
                record = system.step(cycle)
                if record is None:
                    break
                self.result.fired.append(
                    (cycle, record.instantiation.rule_name,
                     record.instantiation.key)
                )
                self._checkpoint(("cycle", cycle))
                if record.outcome.halted:
                    break
        self.result.final_wm = _wm_contents(system)

    def _run_txn_rounds(self) -> None:
        """§5.2 concurrent execution: drain conflict-set snapshots Ψi.

        Fired records are ``(round, rule, key)`` triples in the round's
        commit order.
        """
        scheduler = ConcurrentScheduler(self.system)
        for round_no in range(1, self.trace.max_cycles + 1):
            stats = scheduler.run_round()
            if stats.transactions == 0:
                break
            for key in stats.committed_seq:
                self.result.fired.append((round_no, key[0], key))
            self._checkpoint(("round", round_no))

    def replay(self) -> ReplayResult:
        self.apply_ops()
        self.run_cycles()
        return self.result


def replay_config(
    trace: Trace, config: CheckConfig, strategies=None, prune: bool = False
) -> ReplayResult:
    """Replay *trace* under one configuration, returning its observables.

    *prune* drops dead refraction keys at every sync point and records
    any change that made to ``eligible()``.
    """
    return _Replayer(trace, config, strategies, prune).replay()


def _compare(
    reference: ReplayResult, candidate: ReplayResult
) -> Divergence | None:
    """First disagreement between two replays, or ``None``."""
    ref_label = reference.config.label
    cand_label = candidate.config.label
    shared = sorted(
        set(reference.checkpoints) & set(candidate.checkpoints), key=repr
    )
    for tag in shared:
        if reference.checkpoints[tag] != candidate.checkpoints[tag]:
            missing = reference.checkpoints[tag] - candidate.checkpoints[tag]
            extra = candidate.checkpoints[tag] - reference.checkpoints[tag]
            return Divergence(
                kind="conflict",
                config=cand_label,
                reference=ref_label,
                sync_point=tag,
                detail=(
                    f"conflict sets differ: missing={sorted(missing, key=repr)} "
                    f"extra={sorted(extra, key=repr)}"
                ),
            )
    if reference.fired != candidate.fired:
        length = min(len(reference.fired), len(candidate.fired))
        position = next(
            (
                i
                for i in range(length)
                if reference.fired[i] != candidate.fired[i]
            ),
            length,
        )
        ref_at = reference.fired[position] if position < len(reference.fired) else None
        cand_at = candidate.fired[position] if position < len(candidate.fired) else None
        return Divergence(
            kind="fired",
            config=cand_label,
            reference=ref_label,
            sync_point=("fire", position),
            detail=f"fired sequences differ: {ref_at} vs {cand_at}",
        )
    if reference.final_wm != candidate.final_wm:
        differing = sorted(
            rel
            for rel in set(reference.final_wm) | set(candidate.final_wm)
            if reference.final_wm.get(rel) != candidate.final_wm.get(rel)
        )
        return Divergence(
            kind="wm",
            config=cand_label,
            reference=ref_label,
            detail=f"final WM differs in relations {differing}",
        )
    return None


def _compare_rete(
    reference: ReplayResult, candidate: ReplayResult
) -> Divergence | None:
    shared = sorted(
        set(reference.rete_memories) & set(candidate.rete_memories), key=repr
    )
    for tag in shared:
        if reference.rete_memories[tag] != candidate.rete_memories[tag]:
            ref_snap = reference.rete_memories[tag]
            cand_snap = candidate.rete_memories[tag]
            parts = [
                part
                for part in ("alpha", "beta", "negative", "mirrors")
                if ref_snap[part] != cand_snap[part]
            ]
            return Divergence(
                kind="rete-memory",
                config=candidate.config.label,
                reference=reference.config.label,
                sync_point=tag,
                detail=f"memory-node contents differ in {parts}",
            )
    return None


def run_trace(
    trace: Trace,
    configs: list[CheckConfig] | None = None,
    strategies=None,
    obs=None,
) -> Divergence | None:
    """Replay *trace* across the matrix; return the first divergence.

    The first configuration is the reference and replays on the
    interpreted scan (:func:`repro.check.reference.interpreted`); every
    other one replays compiled and prunes its refraction set at every
    sync point.  Within each exec mode, the first
    configuration is that mode's reference — ``cycle`` records one
    firing per cycle while §5.2 records whole rounds in 2PL commit
    order, so comparing ``cycle`` against ``txn`` would report a false
    divergence.  An exception inside any replay is itself a finding (kind
    ``"error"``), since every trace is valid by construction.
    """
    if configs is None:
        configs = default_matrix(strategies)
    if not configs:
        raise ValueError("oracle needs at least one configuration")
    compiled = resolve_strategies(strategies)
    name = configs[0].strategy
    reference = {**compiled, name: interpreted(compiled[name])}
    results: list[ReplayResult] = []
    for index, config in enumerate(configs):
        cell = compiled if index else reference
        try:
            if obs is not None and obs.enabled:
                with obs.span("check.replay", config=config.label):
                    results.append(
                        replay_config(trace, config, cell, prune=index > 0)
                    )
            else:
                results.append(
                    replay_config(trace, config, cell, prune=index > 0)
                )
        except Exception:
            return Divergence(
                kind="error",
                config=config.label,
                reference=configs[0].label,
                detail=traceback.format_exc(limit=8),
            )
    for result in results:
        for tag, faults in result.pattern_faults.items():
            return Divergence(
                kind="pattern-index",
                config=result.config.label,
                reference=configs[0].label,
                sync_point=tag,
                detail=f"COND shape directory out of step: {faults}",
            )
        for tag, detail in result.refraction_faults.items():
            return Divergence(
                kind="refraction",
                config=result.config.label,
                reference=configs[0].label,
                sync_point=tag,
                detail=detail,
            )
    by_exec: dict[str, ReplayResult] = {}
    for candidate in results:
        reference = by_exec.setdefault(candidate.config.exec, candidate)
        if reference is not candidate:
            divergence = _compare(reference, candidate)
            if divergence is not None:
                return divergence
    # Memory-node contents are only comparable within one strategy (and
    # one exec mode, whose firing order shapes the memories).
    by_strategy: dict[tuple, ReplayResult] = {}
    for result in results:
        if result.config.strategy not in RETE_FAMILY:
            continue
        anchor = by_strategy.setdefault(
            (result.config.strategy, result.config.exec), result
        )
        if anchor is not result:
            divergence = _compare_rete(anchor, result)
            if divergence is not None:
                return divergence
    return None

"""The one trace driver behind every fuzz harness.

A :class:`Driver` replays one :class:`~repro.check.trace.Trace` over one
production system and records its :class:`Observables`; the oracle's
cells and every run of the crash and replica fuzzers are configurations
of it.  *Chunking*: ``per_op`` applies each op as it happens, otherwise
up to ``trace.batch`` ops share one ``wm.batch()`` scope, and control
ops (``detach``/``attach``/``compact``) end a chunk.  *Exec mode*:
``"cycle"`` runs the serial recognize-act loop, ``"txn"`` §5.2 rounds
(each drains one conflict-set snapshot in 2PL commit order).
*Durability*: over a :class:`~repro.recovery.session.DurableRun`, every
chunk commits an ops boundary whose ``extra`` carries the live-element
list a recovered run rebuilds, and the loops step through
``run.run(max_cycles=1)`` / ``run.run_txn(max_rounds=1)``.

The sync points are after every chunk (``("op", i)``, *i* the index of
its last op) and control op (``("ctl", i)``), at the end of the ops
(``("end_ops",)``) and after every cycle or round (``("cycle", n)`` /
``("round", n)``).  At each, :meth:`Driver.sync` commits the durable
boundary, if any, and observes: the conflict-set keys, the Rete
memories (when asked), the health of every join index
(:func:`rete_index_faults`) and COND shape directory
(:func:`pattern_index_faults`), and, when asked to prune, that dropping
dead refraction keys left ``eligible()`` unchanged.  :func:`compare`
reports the first disagreement between two runs as a
:class:`Divergence` of a named kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import zip_longest

from repro.engine import ProductionSystem
from repro.lang import analyze_program, parse_program
from repro.match.patterns import MatchingPatternsStrategy
from repro.recovery.wal import encode_fired, fold_fired
from repro.check.trace import Trace, TraceOp
from repro.txn.scheduler import ConcurrentScheduler

CONTROL_OPS = ("detach", "attach", "compact")


@dataclass
class Divergence:
    """A reproducible disagreement between two runs of one trace."""

    # "conflict" | "fired" | "output" | "wm" | "rete-memory"
    # | "rete-index" | "pattern-index" | "refraction" | "error"
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
class Observables:
    """What two runs of one trace must agree on.

    ``fired`` lists the firings this run saw, as (cycle or round, rule,
    instantiation key) triples; a recovered run starts it empty and
    carries the history before its recovery point as
    ``base_count``/``base_digest``.  ``faults`` holds what a run's own
    health checks found, as (sync point, kind, detail) triples.
    """

    label: str = ""
    #: Sync point -> conflict-set keys.
    checkpoints: dict[tuple, frozenset] = field(default_factory=dict)
    base_count: int = 0
    base_digest: str = ""
    fired: list[tuple[int, str, tuple]] = field(default_factory=list)
    output: list = field(default_factory=list)
    final_wm: dict[str, tuple] = field(default_factory=dict)
    final_conflict: frozenset = frozenset()
    #: Sync point -> :func:`rete_memory_snapshot`, when asked for.
    rete_memories: dict[tuple, dict] = field(default_factory=dict)
    faults: list[tuple[tuple, str, str]] = field(default_factory=list)

    def fired_fold(self) -> tuple[int, str]:
        """The fired history as the count and digest a durable run keeps."""
        return (
            self.base_count + len(self.fired),
            fold_fired(
                self.base_digest, [encode_fired(t) for t in self.fired]
            ),
        )


def rete_index_faults(network) -> list[str]:
    """Persistent join indexes that disagree with a scan of their memory.

    Every bucket must be exactly the key-filtered, insertion-ordered scan
    of its memory: no zombie or missing rows, no empty buckets, and no
    token indexed under an empty (negated-CE) slot.  Empty when healthy
    (the interpreted reference keeps no indexes at all).
    """
    faults = []
    for amem in network.alpha_memories:
        for positions, index in amem.indexes.items():
            expected: dict[tuple, list[int]] = {}
            for row in amem.rows():
                values = amem.wme_at(row).values
                key = tuple([values[position] for position in positions])
                expected.setdefault(key, []).append(row)
            if index != expected:
                faults.append(f"{amem.name} on {positions}")
    for bmem in network.beta_memories:
        for spec, index in bmem.indexes.items():
            columns = [
                (bmem.slot_column(slot), position) for slot, position in spec
            ]
            expected = {}
            for row in bmem.rows():
                values = []
                for column, position in columns:
                    wme = column[row]
                    if wme is None:
                        break
                    values.append(wme.values[position])
                else:
                    expected.setdefault(tuple(values), []).append(row)
            if index != expected:
                faults.append(f"{bmem.name} on {spec}")
    return faults


def pattern_index_faults(strategy) -> list[str]:
    """COND shape directories that disagree with a scan of their group.

    Re-derives, from nothing but each group's patterns in admission order,
    what every shape table and every registered partial-key table must
    hold, and compares: no zombie or missing pattern, shape tables and
    buckets in serial order, no empty table or bucket, serials strictly
    increasing, the template present, and every pattern's Mark word equal
    to the bits of its non-empty support sets.  Empty when healthy.
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
            for pattern in patterns:
                bits = sum(
                    1 << k for k, bucket in pattern.supports.items() if bucket
                )
                if pattern.mask != bits:
                    faults.append(
                        f"{name}: mask {pattern.mask:b} of "
                        f"{pattern.restrictions}, supports {bits:b}"
                    )
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
    join indexes' faults (:func:`rete_index_faults`).
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


@lru_cache(maxsize=4)
def _parsed(text: str) -> tuple:
    """The program and rule analyses of *text*, shared by every system
    built over it (as :mod:`repro.serve` shares a rule pack's)."""
    program = parse_program(text)
    return program, analyze_program(program.rules, program.schemas)


def build_system(
    trace: Trace, strategy, backend: str, lineage: bool = False
) -> ProductionSystem:
    """The system every run of *trace* starts from."""
    program, analyses = _parsed(trace.program)
    return ProductionSystem(
        program,
        analyses=analyses,
        strategy=strategy,
        resolution=trace.resolution,
        backend=backend,
        seed=trace.seed,
        lineage=lineage,
    )


class Driver:
    """Replays one trace over one system, recording its observables.

    *run* attaches a :class:`~repro.recovery.session.DurableRun` over
    *system*.  *snapshots* records :func:`rete_memory_snapshot` at every
    sync point; *prune* drops dead refraction keys at every sync point
    and records any change that made to ``eligible()``.  A recovered run
    passes *observables* carrying the fired history's base, and rebuilds
    :attr:`live` with :meth:`restore_live` before resuming.
    """

    def __init__(
        self,
        trace: Trace,
        system: ProductionSystem,
        observables: Observables,
        *,
        per_op: bool = False,
        exec_mode: str = "cycle",
        run=None,
        snapshots: bool = False,
        prune: bool = False,
    ) -> None:
        self.trace = trace
        self.system = system
        self.observables = observables
        self.per_op = per_op
        self.exec_mode = exec_mode
        self.run = run
        self.snapshots = snapshots
        self.prune = prune
        #: The elements delete/modify ops address, in insertion order.
        self.live: list = []
        self.attached = True
        self.halted = False

    def drive(self) -> Observables:
        """Apply the ops, run the cycles, record the end state."""
        self.apply_ops()
        self.run_cycles()
        return self.finish()

    # -- ops -------------------------------------------------------------------

    def restore_live(self, extra: dict) -> None:
        """Rebuild the live list from an ops boundary's ``extra``."""
        wm = self.system.wm
        self.live = [
            wm.get(relation, tid) for relation, tid in extra.get("live", [])
        ]

    def apply_ops(self, start: int = 0) -> None:
        ops = self.trace.ops
        size = 1 if self.per_op else self.trace.batch
        chunk: list[TraceOp] = []
        for position in range(start, len(ops)):
            op = ops[position]
            if op.kind in CONTROL_OPS:
                if chunk:
                    self._apply_chunk(chunk, position - 1)
                    chunk = []
                self._control(op)
                self.sync(("ctl", position))
                continue
            chunk.append(op)
            if len(chunk) >= size:
                self._apply_chunk(chunk, position)
                chunk = []
        if chunk:
            self._apply_chunk(chunk, len(ops) - 1)
        self.sync(("end_ops",))

    def _apply_chunk(self, chunk: list[TraceOp], position: int) -> None:
        """Apply the ops ending at index *position*, then sync."""
        if self.per_op:
            self._apply_op(chunk[0])
        else:
            with self.system.wm.batch():
                for op in chunk:
                    self._apply_op(op)
        self.sync(("op", position))

    def _apply_op(self, op: TraceOp) -> None:
        wm = self.system.wm
        live = self.live
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
            system.strategy = type(system.strategy)(
                system.wm, system.analyses, counters=system.counters
            )
            self.attached = True
        elif op.kind == "compact":
            compact = getattr(system.strategy, "compact", None)
            if compact is not None:
                compact(op.index)

    # -- sync points -----------------------------------------------------------

    def sync(self, tag: tuple) -> None:
        """The one sync-point hook: commit the durable ops boundary, if
        any, then observe."""
        if self.run is not None and tag[0] == "op":
            position = tag[1] + 1
            self.run.ops_boundary(
                position,
                extra={
                    "live": [[wme.relation, wme.tid] for wme in self.live],
                    "position": position,
                },
            )
        self.observe(tag)

    def observe(self, tag: tuple) -> None:
        """Record the conflict set at *tag* and run the health checks."""
        system = self.system
        strategy = system.strategy
        observables = self.observables
        observables.checkpoints[tag] = frozenset(strategy.conflict_set_keys())
        kind, faults = "", []
        network = getattr(strategy, "network", None)
        if self.attached and network is not None:
            kind = "rete-index"
            if self.snapshots:
                snapshot = rete_memory_snapshot(strategy)
                observables.rete_memories[tag] = snapshot
                faults = snapshot["index_faults"]
            else:
                faults = rete_index_faults(network)
        elif self.attached and isinstance(strategy, MatchingPatternsStrategy):
            kind, faults = "pattern-index", pattern_index_faults(strategy)
        if faults:
            observables.faults.append((tag, kind, f"out of step: {faults}"))
        if self.prune:
            before = [i.key for i in system.eligible()]
            dropped = system.prune_refraction()
            after = [i.key for i in system.eligible()]
            if after != before:
                observables.faults.append((
                    tag, "refraction",
                    f"dropping {dropped} keys changed eligible() from "
                    f"{before} to {after}",
                ))

    # -- the recognize-act loops ----------------------------------------------

    def run_cycles(self) -> None:
        """Serial cycles or §5.2 rounds up to ``trace.max_cycles``.

        Numbering continues from a durable run's ``next_cycle``, so a
        recovered run resumes where the log left off.
        """
        txn = self.exec_mode == "txn"
        scheduler = ConcurrentScheduler(self.system) if txn else None
        start = self.run.next_cycle if self.run is not None else 1
        for number in range(start, self.trace.max_cycles + 1):
            fired = self._round(scheduler) if txn else self._cycle(number)
            if fired is None:
                break
            self.observables.fired.extend(
                (number, rule, key) for rule, key in fired
            )
            self.sync(("round" if txn else "cycle", number))
            if self.halted:
                break

    def _cycle(self, number: int) -> list | None:
        if self.run is None:
            record = self.system.step(number)
        else:
            records = self.run.run(max_cycles=1).fired
            record = records[0] if records else None
        if record is None:
            return None
        self.halted = record.outcome.halted
        instantiation = record.instantiation
        return [(instantiation.rule_name, instantiation.key)]

    def _round(self, scheduler: ConcurrentScheduler) -> list | None:
        if self.run is None:
            stats = scheduler.run_round()
            if stats.transactions == 0:
                return None
        else:
            rounds = self.run.run_txn(max_rounds=1, scheduler=scheduler)
            if not rounds:
                return None
            stats = rounds[0]
        return [(key[0], key) for key in stats.committed_seq]

    def finish(self) -> Observables:
        """Record the end state: output, final WM (sorted (tid, timetag,
        values) rows per class) and conflict set."""
        observables = self.observables
        wm = self.system.wm
        observables.output = list(self.system.output)
        observables.final_wm = {
            name: tuple(sorted(
                (wme.tid, wme.timetag, wme.values) for wme in wm.tuples(name)
            ))
            for name in wm.schemas
        }
        observables.final_conflict = frozenset(
            self.system.strategy.conflict_set_keys()
        )
        return observables


def compare(
    reference: Observables, candidate: Observables, memories: bool = False
) -> Divergence | None:
    """First disagreement between two runs of one trace, or ``None``.

    Either run's own health faults come first.  Conflict sets are
    compared at *shared* sync points only: a run recovered mid-flight
    legitimately lacks the points it crossed before the crash, and a
    recovered run records the conflict set at its recovery point under
    the reference's tag for it.  The fired history is compared firing by
    firing when both runs saw it all, else as count and chained digest
    (the form a recovered run keeps it in).  Output, final WM and final
    conflict set are cumulative, so they are compared in full.
    *memories* also compares Rete memory snapshots — only meaningful
    between runs that built the same network.
    """
    for side in (reference, candidate):
        for tag, kind, detail in side.faults:
            return Divergence(kind, side.label, reference.label, detail, tag)

    def diverged(kind: str, detail: str, tag=None) -> Divergence:
        return Divergence(kind, candidate.label, reference.label, detail, tag)

    for tag in sorted(
        reference.checkpoints.keys() & candidate.checkpoints.keys(), key=repr
    ):
        ref_keys = reference.checkpoints[tag]
        cand_keys = candidate.checkpoints[tag]
        if ref_keys != cand_keys:
            return diverged(
                "conflict",
                f"conflict sets differ: "
                f"missing={sorted(ref_keys - cand_keys, key=repr)} "
                f"extra={sorted(cand_keys - ref_keys, key=repr)}",
                tag,
            )
        ref_snap = reference.rete_memories.get(tag)
        cand_snap = candidate.rete_memories.get(tag)
        if memories and ref_snap and cand_snap and ref_snap != cand_snap:
            parts = [part for part in ref_snap if ref_snap[part] != cand_snap[part]]
            return diverged(
                "rete-memory", f"memory-node contents differ in {parts}", tag
            )
    if (reference.base_count, reference.base_digest) == (
        candidate.base_count, candidate.base_digest
    ):
        if reference.fired != candidate.fired:
            position, ref_at, cand_at = next(
                (i, a, b)
                for i, (a, b) in enumerate(
                    zip_longest(reference.fired, candidate.fired)
                )
                if a != b
            )
            return diverged(
                "fired", f"fired sequences differ: {ref_at} vs {cand_at}",
                ("fire", position),
            )
    elif reference.fired_fold() != candidate.fired_fold():
        (ref_count, ref_digest), (cand_count, cand_digest) = (
            reference.fired_fold(), candidate.fired_fold()
        )
        return diverged(
            "fired",
            f"fired histories differ: {ref_count} firings, digest "
            f"{ref_digest} vs {cand_count} firings, digest {cand_digest}",
        )
    if reference.output != candidate.output:
        return diverged(
            "output",
            f"program output differs: {reference.output!r} vs "
            f"{candidate.output!r}",
        )
    if reference.final_wm != candidate.final_wm:
        differing = sorted(
            rel
            for rel in reference.final_wm.keys() | candidate.final_wm.keys()
            if reference.final_wm.get(rel) != candidate.final_wm.get(rel)
        )
        return diverged("wm", f"final WM differs in relations {differing}")
    if reference.final_conflict != candidate.final_conflict:
        return diverged("conflict", "final conflict sets differ")
    return None

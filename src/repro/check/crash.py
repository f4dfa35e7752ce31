"""Crash-equivalence fuzzing: kill a run mid-flight, recover, compare.

The ``repro check --crash`` profile drives one generated trace twice:

1. *reference* — a plain, WAL-less replay recording the conflict set at
   every commit point, the fired sequence, the program output and the
   final working memory;
2. *durable* — the same trace under a :class:`~repro.recovery.session.
   DurableRun` with a :class:`~repro.recovery.crashpoints.Crashpoints`
   registry armed at one named site.  When the simulated crash fires, the
   run is abandoned exactly as a killed process would leave it,
   :func:`~repro.recovery.recover.recover` rebuilds a system from the log
   (plus an optional checkpoint), and the replay finishes from the
   recovered position.

Every observable of the finished crashed-and-recovered run must equal the
uninterrupted reference — including the conflict set *at the recovery
point itself*, compared against the reference's conflict set at the same
boundary.  An uninterrupted durable dry run is also compared against the
plain reference, pinning the "a WAL-attached run is bit-identical to a
WAL-off run" guarantee and measuring which crash sites the trace
actually crosses (so arming is never a no-op).

A crash before the first commit point leaves nothing durable;
recovery refuses (:class:`~repro.errors.RecoveryError`) and the harness
restarts the run from scratch — the legitimate real-world response.
"""

from __future__ import annotations

import os
import random
import tempfile
import time
from dataclasses import dataclass, field

from repro.engine import ProductionSystem
from repro.errors import RecoveryError
from repro.check.generator import generate_trace
from repro.check.oracle import EXEC_MODES
from repro.check.trace import Trace, TraceOp
from repro.obs import Observability
from repro.recovery import (
    CRASH_SITES,
    Crashpoints,
    DurableRun,
    SimulatedCrash,
    recover,
)
from repro.recovery.wal import encode_fired, fold_fired
from repro.replica import FollowerState

DEFAULT_CRASH_BACKENDS = ("memory", "sqlite")
DEFAULT_CRASH_STRATEGY = "rete"
#: Segment budget used for checkpointed cells, small enough that typical
#: traces rotate (and compact) their logs mid-run.
CRASH_ROTATE_BYTES = 1024


@dataclass
class CrashFinding:
    """One observable that differed from the uninterrupted reference."""

    trace: Trace
    label: str
    kind: str  # "wal-parity" | "conflict" | "fired" | "output" | "wm" | "error"
    detail: str

    def describe(self) -> str:
        return f"[{self.kind}] {self.label}: {self.detail}"


@dataclass
class CrashReport:
    """Summary of one crash-fuzz campaign."""

    budget: int
    seed: int
    traces_run: int = 0
    crashes_fired: int = 0
    recoveries: int = 0
    restarts: int = 0
    promotions: int = 0
    elapsed_s: float = 0.0
    findings: list[CrashFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.findings)} FINDING(S)"
        promoted = (
            f", {self.promotions} promotions" if self.promotions else ""
        )
        return (
            f"crash-check: {self.traces_run}/{self.budget} traces, "
            f"{self.crashes_fired} crashes, {self.recoveries} recoveries"
            f"{promoted}, "
            f"{self.restarts} restarts in {self.elapsed_s:.1f}s — {status}"
        )


@dataclass
class _Observables:
    """What both sides of the comparison must agree on.

    ``fired`` lists the firings this process saw; a recovered run starts
    it empty and carries the history before the recovery point as
    ``base_count``/``base_digest``.  :meth:`fired_fold` folds both into
    the count and digest a durable run keeps.
    """

    checkpoints: dict = field(default_factory=dict)
    base_count: int = 0
    base_digest: str = ""
    fired: list = field(default_factory=list)
    output: list = field(default_factory=list)
    final_wm: dict = field(default_factory=dict)
    final_conflict: frozenset = frozenset()

    def fired_fold(self) -> tuple[int, str]:
        return (
            self.base_count + len(self.fired),
            fold_fired(
                self.base_digest, [encode_fired(t) for t in self.fired]
            ),
        )


def _wm_contents(system: ProductionSystem) -> dict:
    return {
        name: tuple(
            sorted(
                (wme.tid, wme.timetag, wme.values)
                for wme in system.wm.tuples(name)
            )
        )
        for name in system.wm.schemas
    }


def _strip_control_ops(trace: Trace) -> Trace:
    """Crash runs don't model detach/attach (strategy identity is not
    durable state); drop control ops so every profile's traces apply."""
    return trace.with_ops(
        op
        for op in trace.ops
        if op.kind not in ("detach", "attach", "compact")
    )


class _OpDriver:
    """Applies trace ops in chunks of *size*, durable or not.

    Mirrors the oracle's chunking: size 1 applies each op as it happens,
    a larger size groups ops into WM batch scopes.  The live-element list
    is exactly the state a crashed harness must rebuild, so it rides in
    the boundary records' ``extra``.
    """

    def __init__(self, system: ProductionSystem, size: int) -> None:
        self.system = system
        self.size = size
        self.live: list = []

    def extra(self, position: int) -> dict:
        return {
            "live": [[wme.relation, wme.tid] for wme in self.live],
            "position": position,
        }

    def restore(self, extra: dict) -> None:
        wm = self.system.wm
        self.live = [
            wm.get(relation, tid) for relation, tid in extra.get("live", [])
        ]

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

    def apply_ops(self, ops, start: int, boundary) -> None:
        """Apply ``ops[start:]``; call ``boundary(position, driver)`` after
        each committed chunk (*position* = ops applied so far)."""
        position = start
        chunk: list[TraceOp] = []
        for op in ops[start:]:
            chunk.append(op)
            if len(chunk) >= self.size:
                position += len(chunk)
                self._apply_chunk(chunk)
                chunk = []
                boundary(position, self)
        if chunk:
            position += len(chunk)
            self._apply_chunk(chunk)
            boundary(position, self)

    def _apply_chunk(self, chunk: list[TraceOp]) -> None:
        if self.size == 1:
            self._apply_op(chunk[0])
            return
        with self.system.wm.batch():
            for op in chunk:
                self._apply_op(op)


def _run_txn_rounds(system: ProductionSystem, trace: Trace,
                    observables) -> None:
    """§5.2 rounds over a plain system — the txn-mode reference loop."""
    from repro.txn.scheduler import ConcurrentScheduler

    scheduler = ConcurrentScheduler(system)
    for round_no in range(1, trace.max_cycles + 1):
        stats = scheduler.run_round()
        if stats.transactions == 0:
            break
        observables.fired.extend(
            (round_no, key[0], key) for key in stats.committed_seq
        )
        observables.checkpoints[("round", round_no)] = frozenset(
            system.strategy.conflict_set_keys()
        )


def _durable_rounds(run, trace: Trace, observables) -> None:
    """§5.2 rounds over a DurableRun, recording the same observables."""
    from repro.txn.scheduler import ConcurrentScheduler

    system = run.system
    scheduler = ConcurrentScheduler(system)
    while run.next_cycle <= trace.max_cycles:
        round_no = run.next_cycle
        rounds = run.run_txn(max_rounds=1, scheduler=scheduler)
        if not rounds:
            break
        observables.fired.extend(
            (round_no, key[0], key) for key in rounds[0].committed_seq
        )
        observables.checkpoints[("round", round_no)] = frozenset(
            system.strategy.conflict_set_keys()
        )


def _run_cycles(system: ProductionSystem, trace: Trace, observables,
                start_cycle: int = 1) -> None:
    for cycle in range(start_cycle, trace.max_cycles + 1):
        record = system.step(cycle)
        if record is None:
            break
        observables.fired.append(
            (cycle, record.instantiation.rule_name, record.instantiation.key)
        )
        observables.checkpoints[("cycle", cycle)] = frozenset(
            system.strategy.conflict_set_keys()
        )
        if record.outcome.halted:
            break


def _finalize(system: ProductionSystem, observables: _Observables) -> None:
    observables.output = list(system.output)
    observables.final_wm = _wm_contents(system)
    observables.final_conflict = frozenset(
        system.strategy.conflict_set_keys()
    )


def _plain_reference(
    trace: Trace, backend: str, size: int, strategy: str,
    exec_mode: str = "cycle",
) -> _Observables:
    """The uninterrupted, WAL-less replay every variant must match."""
    system = ProductionSystem(
        trace.program,
        strategy=strategy,
        resolution=trace.resolution,
        backend=backend,
        seed=trace.seed,
    )
    observables = _Observables()
    driver = _OpDriver(system, size)

    def boundary(position, _driver):
        observables.checkpoints[("ops", position)] = frozenset(
            system.strategy.conflict_set_keys()
        )

    driver.apply_ops(trace.ops, 0, boundary)
    if exec_mode == "txn":
        _run_txn_rounds(system, trace, observables)
    else:
        _run_cycles(system, trace, observables)
    _finalize(system, observables)
    return observables


def _durable_config(trace: Trace, backend: str, strategy: str):
    return {
        "strategy": strategy,
        "resolution": trace.resolution,
        "backend": backend,
        "seed": trace.seed,
    }


def _durable_replay(
    trace: Trace,
    backend: str,
    size: int,
    strategy: str,
    wal_path: str,
    crashpoints: Crashpoints | None = None,
    checkpoint_path: str | None = None,
    checkpoint_every: int = 0,
    fsync_every: int = 4,
    exec_mode: str = "cycle",
    wal_rotate_bytes: int = 0,
    wal_tap=None,
) -> _Observables:
    """One complete WAL-attached replay, including the closing sync.

    Raises :class:`SimulatedCrash` (after abandoning the run, so nothing
    post-crash becomes durable) when *crashpoints* fires anywhere in the
    replay.  A small ``fsync_every`` keeps several unsynced records in
    flight at typical trace sizes, so append-site crashes actually lose
    data.  *wal_tap* ships every fsynced record to a replica-cell
    follower — abandoning the run never taps the unsynced buffer,
    exactly like a real ``kill -9``.
    """
    system = ProductionSystem(
        trace.program,
        strategy=strategy,
        resolution=trace.resolution,
        backend=backend,
        seed=trace.seed,
    )
    run = DurableRun.start(
        system,
        wal_path,
        trace.program,
        _durable_config(trace, backend, strategy),
        crashpoints=crashpoints,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
        fsync_every=fsync_every,
        include_rete=checkpoint_path is not None,
        wal_rotate_bytes=wal_rotate_bytes,
        wal_tap=wal_tap,
    )
    observables = _Observables()
    driver = _OpDriver(system, size)
    try:
        driver.apply_ops(
            trace.ops,
            0,
            lambda position, d: run.ops_boundary(
                position, extra=d.extra(position)
            ),
        )
        if exec_mode == "txn":
            _durable_rounds(run, trace, observables)
        else:
            _durable_cycles(run, trace, observables)
        _finalize(system, observables)
        run.close()
    except SimulatedCrash:
        run.abandon()
        raise
    return observables


def _durable_cycles(run: DurableRun, trace: Trace, observables) -> None:
    """Cycle loop over a DurableRun, recording the same observables."""
    system = run.system
    while run.next_cycle <= trace.max_cycles and not run.halted:
        cycle = run.next_cycle
        result = run.run(max_cycles=1)
        if not result.fired:
            break
        observables.fired.extend(
            (cycle, r.instantiation.rule_name, r.instantiation.key)
            for r in result.fired
        )
        observables.checkpoints[("cycle", cycle)] = frozenset(
            system.strategy.conflict_set_keys()
        )


def _finish_recovered(
    state,
    trace: Trace,
    size: int,
    checkpoint_path: str | None,
    checkpoint_every: int,
    exec_mode: str = "cycle",
    wal_rotate_bytes: int = 0,
) -> tuple[_Observables, frozenset, tuple | None]:
    """Resume a recovered run to completion.

    Returns the finished observables, the conflict set *at the recovery
    point*, and the reference sync tag it must be compared against.
    """
    system = state.system
    observables = _Observables(
        base_count=state.fired_count, base_digest=state.fired_digest
    )
    at_recovery = frozenset(system.strategy.conflict_set_keys())
    if state.phase == "ops":
        tag = ("ops", state.position)
    elif state.phase == "cycle":
        tag = ("cycle", state.cycle)
    elif state.phase == "round":
        tag = ("round", state.cycle)
    else:
        tag = None
    run = DurableRun.resume(
        state,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
        include_rete=checkpoint_path is not None,
        wal_rotate_bytes=wal_rotate_bytes,
    )
    try:
        driver = _OpDriver(system, size)
        if state.phase in (None, "setup", "ops"):
            driver.restore(state.extra)
            driver.apply_ops(
                trace.ops,
                state.position,
                lambda position, d: run.ops_boundary(
                    position, extra=d.extra(position)
                ),
            )
        if exec_mode == "txn":
            _durable_rounds(run, trace, observables)
        else:
            _durable_cycles(run, trace, observables)
    finally:
        run.close()
    _finalize(system, observables)
    return observables, at_recovery, tag


def _compare(
    trace: Trace,
    label: str,
    reference: _Observables,
    candidate: _Observables,
) -> CrashFinding | None:
    """First disagreement between the reference and a finished variant.

    Conflict-set checkpoints are compared at *shared* tags only: a run
    recovered mid-flight legitimately lacks the tags it crossed before
    the crash.  The output and final state are cumulative (recovery
    folds the pre-crash prefix back in), so those are compared in full;
    the fired history is compared as its count and chained digest, the
    form a recovered run keeps it in.
    """
    shared = sorted(
        set(reference.checkpoints) & set(candidate.checkpoints), key=repr
    )
    for tag in shared:
        if reference.checkpoints[tag] != candidate.checkpoints[tag]:
            return CrashFinding(
                trace=trace,
                label=label,
                kind="conflict",
                detail=f"conflict sets differ at {tag}",
            )
    ref_fold, cand_fold = reference.fired_fold(), candidate.fired_fold()
    if ref_fold != cand_fold:
        return CrashFinding(
            trace=trace,
            label=label,
            kind="fired",
            detail=(
                f"fired histories differ: {ref_fold[0]} firings, digest "
                f"{ref_fold[1]} vs {cand_fold[0]} firings, digest "
                f"{cand_fold[1]}"
            ),
        )
    if reference.output != candidate.output:
        return CrashFinding(
            trace=trace,
            label=label,
            kind="output",
            detail=(
                f"program output differs: {reference.output!r} vs "
                f"{candidate.output!r}"
            ),
        )
    if reference.final_wm != candidate.final_wm:
        differing = sorted(
            rel
            for rel in set(reference.final_wm) | set(candidate.final_wm)
            if reference.final_wm.get(rel) != candidate.final_wm.get(rel)
        )
        return CrashFinding(
            trace=trace,
            label=label,
            kind="wm",
            detail=f"final WM differs in relations {differing}",
        )
    if reference.final_conflict != candidate.final_conflict:
        return CrashFinding(
            trace=trace,
            label=label,
            kind="conflict",
            detail="final conflict sets differ",
        )
    return None


def _follower_observables(state) -> _Observables:
    """The promoted follower's view, shaped for :func:`_compare`."""
    observables = _Observables(
        base_count=state.fired_count, base_digest=state.fired_digest
    )
    _finalize(state.system, observables)
    return observables


def run_crash_trace(
    trace: Trace,
    backend: str = "memory",
    per_op: bool = True,
    strategy: str = DEFAULT_CRASH_STRATEGY,
    site: str | None = None,
    after: int = 1,
    rng: random.Random | None = None,
    checkpoint_every: int = 0,
    workdir: str | None = None,
    exec_mode: str = "cycle",
    wal_rotate_bytes: int | None = None,
    replicate: bool = False,
) -> tuple[CrashFinding | None, dict]:
    """Crash one trace at *site* (or a random reachable site), recover,
    finish, and compare against the uninterrupted reference.

    ``per_op`` applies the trace's ops one at a time, with a boundary
    after each; otherwise each ``trace.batch`` chunk is one delta batch
    followed by one boundary.  ``exec_mode="txn"`` runs the
    recognize-act loop as §5.2 concurrent rounds instead of serial
    cycles, reaching the mid-round ``txn.*`` crash sites.  Checkpointed
    cells also rotate their logs every :data:`CRASH_ROTATE_BYTES`, so
    segment rotation, compaction and the torn-rotation window
    (``wal.rotate``) are crashed and recovered too.

    ``replicate=True`` is the failover-equivalence cell: the armed run
    ships every fsynced record to an in-process
    :class:`~repro.replica.FollowerState`; when the crash fires, the
    *follower* is promoted (its local materialization resumed in place)
    instead of recovering the primary's log — and the promoted run must
    still match the uninterrupted reference bit for bit.

    Returns ``(finding_or_None, stats)`` where *stats* records what
    happened: ``{"crashed": site_or_None, "recovered": bool,
    "restarted": bool, "promoted": bool, "hits": {site: count}}``.
    """
    if exec_mode not in EXEC_MODES:
        raise ValueError(
            f"unknown crash exec mode {exec_mode!r}; "
            f"choose from {EXEC_MODES}"
        )
    trace = _strip_control_ops(trace)
    size = 1 if per_op else trace.batch
    chunking = "per-op" if per_op else f"batch={trace.batch}"
    rng = rng or random.Random(trace.seed)
    stats = {"crashed": None, "recovered": False, "restarted": False,
             "promoted": False, "hits": {}}
    if wal_rotate_bytes is not None:
        rotate_bytes = wal_rotate_bytes
    else:
        rotate_bytes = CRASH_ROTATE_BYTES if checkpoint_every else 0

    def _run(directory: str):
        wal_path = os.path.join(directory, "crash.wal")
        checkpoint_path = (
            os.path.join(directory, "crash.ckpt") if checkpoint_every else None
        )
        reference = _plain_reference(trace, backend, size, strategy, exec_mode)

        # Uninterrupted durable dry run: pins WAL-attached == WAL-off and
        # measures which sites this configuration actually crosses.  It
        # checkpoints on the same schedule as the armed run, so
        # ``checkpoint.mid`` crossings are counted too.
        probe = Crashpoints()
        dry = _durable_replay(
            trace, backend, size, strategy,
            os.path.join(directory, "dry.wal"), crashpoints=probe,
            checkpoint_path=(
                os.path.join(directory, "dry.ckpt") if checkpoint_every else None
            ),
            checkpoint_every=checkpoint_every,
            exec_mode=exec_mode,
            wal_rotate_bytes=rotate_bytes,
        )
        stats["hits"] = {
            name: probe.hits(name) for name in CRASH_SITES if probe.hits(name)
        }
        mode_tag = f"/{exec_mode}" if exec_mode != "cycle" else ""
        finding = _compare(
            trace, f"{backend}/{chunking}{mode_tag}/wal-dry",
            reference, dry,
        )
        if finding is not None:
            finding.kind = "wal-parity"
            return finding

        chosen = site
        if chosen is None:
            reachable = sorted(stats["hits"])
            if not reachable:
                return None
            chosen = reachable[rng.randrange(len(reachable))]
        crossings = stats["hits"].get(chosen, 0)
        if crossings == 0:
            return None  # site unreachable for this configuration
        arm_after = after if site is not None else rng.randint(1, crossings)
        arm_after = min(arm_after, crossings)

        crashpoints = Crashpoints()
        crashpoints.arm(chosen, after=arm_after)
        replica_tag = "/replica" if replicate else ""
        label = (
            f"{backend}/{chunking}{mode_tag}{replica_tag}"
            f"/{chosen}@{arm_after}"
        )
        follower = None
        wal_tap = None
        if replicate:
            follower = FollowerState(
                os.path.join(directory, "follower"), epoch=1
            )
            wal_tap = lambda _first, lines: follower.ingest_lines(  # noqa: E731
                "t", list(lines)
            )
        try:
            finished = _durable_replay(
                trace, backend, size, strategy, wal_path,
                crashpoints=crashpoints, checkpoint_path=checkpoint_path,
                checkpoint_every=checkpoint_every,
                exec_mode=exec_mode,
                wal_rotate_bytes=rotate_bytes,
                wal_tap=wal_tap,
            )
            # The armed hit count exceeded the run's crossings (can happen
            # for caller-pinned sites); the run finished uninterrupted.
            finding = _compare(trace, label, reference, finished)
            if finding is None and follower is not None:
                # The fully-shipped standby must sit at the final state.
                states = follower.pop_states()
                if "t" in states:
                    finding = _compare(
                        trace, f"{label}/standby", reference,
                        _follower_observables(states["t"]),
                    )
            return finding
        except SimulatedCrash:
            stats["crashed"] = chosen

        if follower is not None:
            # Failover: promote the standby's own materialization; the
            # primary's log is never read again (it is "gone" with the
            # killed machine).
            states = follower.pop_states()
            if "t" not in states:
                # Crash before the tenant's first shipped boundary —
                # nothing durable anywhere; restart from scratch.
                stats["restarted"] = True
                rerun = _durable_replay(
                    trace, backend, size, strategy,
                    os.path.join(directory, "restart.wal"),
                    exec_mode=exec_mode,
                )
                return _compare(trace, f"{label}/restart", reference, rerun)
            stats["promoted"] = True
            stats["recovered"] = True
            state = states["t"]
            promoted_ckpt = (
                os.path.join(directory, "follower", "t.ckpt")
                if checkpoint_every else None
            )
            finished, at_recovery, tag = _finish_recovered(
                state, trace, size, promoted_ckpt, checkpoint_every,
                exec_mode=exec_mode, wal_rotate_bytes=rotate_bytes,
            )
            if tag is not None and tag in reference.checkpoints:
                if at_recovery != reference.checkpoints[tag]:
                    return CrashFinding(
                        trace=trace,
                        label=label,
                        kind="conflict",
                        detail=(
                            f"conflict set at promotion point {tag} "
                            "differs from the uninterrupted reference"
                        ),
                    )
            return _compare(trace, label, reference, finished)

        try:
            state = recover(wal_path, checkpoint_path)
        except RecoveryError:
            # Nothing durable — restart from scratch, as an operator would.
            stats["restarted"] = True
            rerun = _durable_replay(
                trace, backend, size, strategy,
                os.path.join(directory, "restart.wal"),
                exec_mode=exec_mode,
            )
            return _compare(trace, f"{label}/restart", reference, rerun)

        stats["recovered"] = True
        finished, at_recovery, tag = _finish_recovered(
            state, trace, size, checkpoint_path, checkpoint_every,
            exec_mode=exec_mode, wal_rotate_bytes=rotate_bytes,
        )
        if tag is not None and tag in reference.checkpoints:
            if at_recovery != reference.checkpoints[tag]:
                return CrashFinding(
                    trace=trace,
                    label=label,
                    kind="conflict",
                    detail=(
                        f"conflict set at recovery point {tag} differs "
                        "from the uninterrupted reference"
                    ),
                )
        return _compare(trace, label, reference, finished)

    if workdir is not None:
        os.makedirs(workdir, exist_ok=True)
        return _run(workdir), stats
    with tempfile.TemporaryDirectory() as directory:
        return _run(directory), stats


def run_crash_check(
    budget: int,
    seed: int = 0,
    backends=DEFAULT_CRASH_BACKENDS,
    strategy: str = DEFAULT_CRASH_STRATEGY,
    resolutions: tuple[str, ...] | None = None,
    program: str | None = None,
    checkpoint_every: int = 3,
    save_repro_dir: str | None = None,
    obs: Observability | None = None,
    exec_modes: tuple[str, ...] = ("cycle",),
    replicate: bool = False,
) -> CrashReport:
    """The ``repro check --crash`` campaign: *budget* traces, each crashed
    at a random reachable site under a rotating backend × chunking ×
    exec-mode configuration — chunking alternates between per-op
    application and the trace's own ``batch`` (checkpoints cut every few
    cycles on half the traces, so both the checkpoint fast path and pure
    log replay are exercised — and those cells also rotate/compact their
    log segments;
    *exec_modes* including ``"txn"`` kills §5.2 scheduler rounds at the
    mid-round ``txn.*`` sites).  *replicate* rotates warm-standby cells
    in on half the traces: the crash is survived by promoting the
    shipped follower instead of recovering the primary's log.
    """
    from repro.check.corpus import save_repro

    obs = obs or Observability()
    report = CrashReport(budget=budget, seed=seed)
    observing = obs.enabled
    started = time.perf_counter()
    generate_kwargs = (
        {} if resolutions is None else {"resolutions": tuple(resolutions)}
    )
    backends = tuple(backends)
    exec_modes = tuple(exec_modes) or ("cycle",)
    for index in range(budget):
        trace = generate_trace(seed, index, program=program, **generate_kwargs)
        backend = backends[index % len(backends)]
        per_op = (index // len(backends)) % 2 == 0
        exec_mode = exec_modes[index % len(exec_modes)]
        ckpt_every = checkpoint_every if index % 2 else 0
        replica_cell = replicate and index % 2 == 1
        rng = random.Random(f"{seed}/{index}/crash")
        with obs.span(
            "check.crash_trace",
            trace=trace.name,
            backend=backend,
            batch="per-op" if per_op else str(trace.batch),
            exec=exec_mode,
            replica=replica_cell,
        ) as span:
            finding, stats = run_crash_trace(
                trace,
                backend=backend,
                per_op=per_op,
                strategy=strategy,
                rng=rng,
                checkpoint_every=ckpt_every,
                exec_mode=exec_mode,
                replicate=replica_cell,
            )
            span.set("crashed", stats["crashed"] or "(none)")
            span.set("ok", finding is None)
        report.traces_run += 1
        if stats["crashed"]:
            report.crashes_fired += 1
        if stats["recovered"]:
            report.recoveries += 1
        if stats["restarted"]:
            report.restarts += 1
        if stats.get("promoted"):
            report.promotions += 1
            if observing:
                obs.metrics.counter("check.promotions").inc()
        if observing:
            metrics = obs.metrics
            metrics.counter("check.crash_traces").inc()
            if stats["crashed"]:
                metrics.counter("check.crashes").inc()
            if stats["recovered"]:
                metrics.counter("check.recoveries").inc()
        if finding is None:
            continue
        report.findings.append(finding)
        if observing:
            obs.metrics.counter("check.crash_failures").inc()
        obs.event(
            "check.crash_divergence",
            trace=trace.name,
            detail=finding.describe(),
        )
        if save_repro_dir is not None:
            save_repro(
                finding.trace.with_reason(finding.describe()),
                save_repro_dir,
            )
    report.elapsed_s = time.perf_counter() - started
    return report

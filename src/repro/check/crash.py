"""Crash-equivalence fuzzing: kill a run mid-flight, recover, compare.

The ``repro check --crash`` profile runs one generated trace as four
configurations of the trace driver (:mod:`repro.check.drive`): a plain,
WAL-less *reference*; an uninterrupted *dry run* under a
:class:`~repro.recovery.session.DurableRun`, which pins "a WAL-attached
run is bit-identical to a WAL-off run" and counts the crash sites the
trace crosses (so arming is never a no-op); an *armed run*, abandoned
exactly as a killed process would leave it when its
:class:`~repro.recovery.crashpoints.Crashpoints` site fires; and the
*recovered finish*, from :func:`~repro.recovery.recover.recover`'s
rebuild of the log (plus an optional checkpoint) or a promoted follower.

Every observable of every run must equal the reference's, including the
conflict set *at the recovery point itself*, and every run checks its
own join indexes at every sync point.  A crash before the first commit
point leaves nothing durable; recovery refuses
(:class:`~repro.errors.RecoveryError`) and the harness restarts the run
from scratch — the legitimate real-world response.  Findings shrink
under their own cell (:func:`crash_predicate`).
"""

from __future__ import annotations

import os
import random
import tempfile
import time
from dataclasses import dataclass
from functools import partial

from repro.errors import RecoveryError
from repro.check.drive import (
    CONTROL_OPS,
    Divergence,
    Driver,
    Observables,
    build_system,
    compare,
)
from repro.check.generator import DEFAULT_RESOLUTIONS, generate_trace
from repro.check.oracle import EXEC_MODES
from repro.check.runner import CheckReport, record_failure
from repro.check.shrinker import FailingPredicate
from repro.check.trace import Trace
from repro.obs import Observability
from repro.recovery import (
    CRASH_SITES,
    Crashpoints,
    DurableRun,
    SimulatedCrash,
    recover,
)
from repro.replica import FollowerState

DEFAULT_CRASH_BACKENDS = ("memory", "sqlite")
DEFAULT_CRASH_STRATEGY = "rete"
#: Segment budget used for checkpointed cells, small enough that typical
#: traces rotate (and compact) their logs mid-run.
CRASH_ROTATE_BYTES = 1024


@dataclass
class CrashReport(CheckReport):
    """Summary of one crash-fuzz campaign."""

    crashes_fired: int = 0
    recoveries: int = 0
    restarts: int = 0
    promotions: int = 0
    #: Traces drawn into a checkpointed cell, and how many of those cut
    #: a checkpoint (their dry run crossed ``checkpoint.mid``).
    checkpointed: int = 0
    checkpoints_cut: int = 0

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.failures)} FINDING(S)"
        promoted = (
            f", {self.promotions} promotions" if self.promotions else ""
        )
        return (
            f"crash-check: {self.traces_run}/{self.budget} traces, "
            f"{self.crashes_fired} crashes, {self.recoveries} recoveries"
            f"{promoted}, "
            f"{self.restarts} restarts, "
            f"{self.checkpoints_cut}/{self.checkpointed} checkpointed traces "
            f"cut a checkpoint in {self.elapsed_s:.1f}s — {status}"
        )


def strip_control_ops(trace: Trace) -> Trace:
    """Crash runs don't model detach/attach (strategy identity is not
    durable state); drop control ops so every profile's traces apply."""
    return trace.with_ops(
        op for op in trace.ops if op.kind not in CONTROL_OPS
    )


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
) -> tuple[Divergence | None, dict]:
    """Crash one trace at *site* (or a random reachable site), recover,
    finish, and compare against the uninterrupted reference.

    ``per_op`` and ``exec_mode`` are the driver's chunking and exec mode
    (a boundary commits after every chunk; ``"txn"`` reaches the
    mid-round ``txn.*`` sites).  Checkpointed cells also rotate their
    logs every :data:`CRASH_ROTATE_BYTES`, so segment rotation,
    compaction and the torn-rotation window (``wal.rotate``) are crashed
    and recovered too.  ``replicate=True`` is the failover-equivalence
    cell: the armed run ships every fsynced record to an in-process
    :class:`~repro.replica.FollowerState`, and after the crash the
    *follower* is promoted (its local materialization resumed in place)
    instead of the primary's log being recovered.

    Returns ``(divergence_or_None, stats)`` where *stats* records what
    happened: ``{"crashed": site_or_None, "recovered": bool,
    "restarted": bool, "promoted": bool, "hits": {site: count},
    "armed": (site, after) or None}``.
    """
    if exec_mode not in EXEC_MODES:
        raise ValueError(
            f"unknown crash exec mode {exec_mode!r}; "
            f"choose from {EXEC_MODES}"
        )
    trace = strip_control_ops(trace)
    rng = rng or random.Random(trace.seed)
    stats = {"crashed": None, "recovered": False, "restarted": False,
             "promoted": False, "hits": {}, "armed": None}
    rotate_bytes = wal_rotate_bytes
    if rotate_bytes is None:
        rotate_bytes = CRASH_ROTATE_BYTES if checkpoint_every else 0
    chunking = "per-op" if per_op else f"batch={trace.batch}"
    mode_tag = f"/{exec_mode}" if exec_mode != "cycle" else ""
    base_label = f"{backend}/{chunking}{mode_tag}"

    driver = partial(Driver, trace, per_op=per_op, exec_mode=exec_mode)

    def durable(directory, name, label, crashpoints=None, wal_tap=None,
                checkpointed=True) -> Observables:
        """One WAL-attached run, closed cleanly unless *crashpoints*
        fires: then it is abandoned (nothing unsynced becomes durable or
        reaches *wal_tap*, as after ``kill -9``) and the crash re-raised.
        A small ``fsync_every`` keeps unsynced records in flight."""
        checkpoint_path = (
            os.path.join(directory, f"{name}.ckpt")
            if checkpoint_every and checkpointed else None
        )
        system = build_system(trace, strategy, backend)
        run = DurableRun.start(
            system,
            os.path.join(directory, f"{name}.wal"),
            trace.program,
            {"strategy": strategy, "resolution": trace.resolution,
             "backend": backend, "seed": trace.seed},
            crashpoints=crashpoints,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            fsync_every=4,
            include_rete=checkpoint_path is not None,
            wal_rotate_bytes=rotate_bytes if checkpointed else 0,
            wal_tap=wal_tap,
        )
        try:
            observables = driver(system, Observables(label), run=run).drive()
            run.close()
        except SimulatedCrash:
            run.abandon()
            raise
        return observables

    def finish(state, label, checkpoint_path) -> Observables:
        """Resume a recovered or promoted run to completion, first
        observing the recovery point under the reference's sync point."""
        resumed = driver(state.system, Observables(
            label, base_count=state.fired_count,
            base_digest=state.fired_digest,
        ))
        if state.phase == "ops":
            resumed.observe(("op", state.position - 1))
        elif state.phase in ("cycle", "round"):
            resumed.observe((state.phase, state.cycle))
        resumed.run = DurableRun.resume(
            state,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            include_rete=checkpoint_path is not None,
            wal_rotate_bytes=rotate_bytes,
        )
        try:
            if state.phase in (None, "setup", "ops"):
                resumed.restore_live(state.extra)
                resumed.apply_ops(state.position)
            resumed.run_cycles()
        finally:
            resumed.run.close()
        return resumed.finish()

    def crash(directory: str) -> Divergence | None:
        system = build_system(trace, strategy, backend)
        reference = driver(system, Observables(f"{base_label}/plain")).drive()

        # Uninterrupted durable dry run: pins WAL-attached == WAL-off and
        # measures which sites this configuration actually crosses.  It
        # checkpoints on the same schedule as the armed run, so
        # ``checkpoint.mid`` crossings are counted too.
        probe = Crashpoints()
        dry = durable(directory, "dry", f"{base_label}/wal-dry", probe)
        stats["hits"] = {
            name: probe.hits(name) for name in CRASH_SITES if probe.hits(name)
        }
        divergence = compare(reference, dry)
        if divergence is not None:
            return divergence

        reachable = sorted(stats["hits"])
        chosen = site
        if chosen is None and reachable:
            chosen = reachable[rng.randrange(len(reachable))]
        crossings = stats["hits"].get(chosen, 0)
        if crossings == 0:
            return None  # no site (or not the pinned one) is reachable
        arm_after = min(
            after if site is not None else rng.randint(1, crossings), crossings
        )
        stats["armed"] = (chosen, arm_after)

        crashpoints = Crashpoints()
        crashpoints.arm(chosen, after=arm_after)
        replica_tag = "/replica" if replicate else ""
        label = f"{base_label}{replica_tag}/{chosen}@{arm_after}"
        follower = wal_tap = None
        if replicate:
            follower = FollowerState(
                os.path.join(directory, "follower"), epoch=1
            )
            wal_tap = lambda _first, lines: follower.ingest_lines(  # noqa: E731
                "t", list(lines)
            )
        try:
            finished = durable(directory, "crash", label, crashpoints, wal_tap)
        except SimulatedCrash:
            stats["crashed"] = chosen
        else:
            # The armed hit count exceeded the run's crossings (can happen
            # for caller-pinned sites): the run finished uninterrupted, and
            # a replica cell's fully-shipped standby must match it too.
            divergence = compare(reference, finished)
            if divergence is not None or follower is None:
                return divergence
            label += "/standby"

        if follower is not None:
            # Failover: promote the standby's own materialization; the
            # primary's log is never read again (it is "gone" with the
            # killed machine).
            state = follower.pop_states().get("t")
            checkpoint_path = os.path.join(directory, "follower", "t.ckpt")
        else:
            checkpoint_path = os.path.join(directory, "crash.ckpt")
            try:
                state = recover(
                    os.path.join(directory, "crash.wal"),
                    checkpoint_path if checkpoint_every else None,
                )
            except RecoveryError:
                state = None
        crashed = stats["crashed"] is not None
        if state is None:
            if not crashed:
                return None  # the standby never received a boundary
            # Nothing durable anywhere — restart from scratch, as an
            # operator would.
            stats["restarted"] = True
            return compare(reference, durable(
                directory, "restart", f"{label}/restart", checkpointed=False
            ))
        stats["recovered"] = crashed
        stats["promoted"] = crashed and follower is not None
        return compare(reference, finish(
            state, label, checkpoint_path if checkpoint_every else None
        ))

    with tempfile.TemporaryDirectory() as scratch:
        os.makedirs(workdir or scratch, exist_ok=True)
        return crash(workdir or scratch), stats


def crash_predicate(cell: dict) -> FailingPredicate:
    """The shrink predicate for a crash finding: does a trace still
    diverge under *cell* — :func:`run_crash_trace`'s keyword arguments,
    with the finding's armed ``site`` and ``after`` pinned?"""
    return lambda trace: run_crash_trace(trace, **cell)[0] is not None


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
    at a random reachable site in a cell drawn per trace: one of
    *backends* and *exec_modes*, per-op or the trace's own ``batch``
    chunking, and, on about half the traces each, checkpoints every
    *checkpoint_every* cycles (those cells also rotate and compact their
    log segments) and, with *replicate*, survival by promoting a shipped
    follower instead of recovering the primary's log.  A checkpointed
    ``txn`` cell checkpoints every §5.2 round: a durable run counts a
    round as one cycle, and a txn trace runs only a few rounds.
    """
    obs = obs or Observability()
    report = CrashReport(budget=budget, seed=seed)
    observing = obs.enabled
    started = time.perf_counter()
    resolutions = tuple(resolutions or DEFAULT_RESOLUTIONS)
    backends = tuple(backends)
    exec_modes = tuple(exec_modes) or ("cycle",)
    for index in range(budget):
        trace = strip_control_ops(
            generate_trace(seed, index, program, resolutions)
        )
        # Each trace draws its cell from its own stream, so no axis moves
        # in lockstep with another or with the profile rotation.
        draw = random.Random(f"{seed}/{index}/cell")
        cell = {
            "backend": draw.choice(backends),
            "per_op": draw.random() < 0.5,
            "strategy": strategy,
            "checkpoint_every": checkpoint_every if draw.random() < 0.5 else 0,
            "exec_mode": draw.choice(exec_modes),
            "replicate": replicate and draw.random() < 0.5,
        }
        if cell["checkpoint_every"] and cell["exec_mode"] == "txn":
            cell["checkpoint_every"] = 1
        with obs.span(
            "check.crash_trace",
            trace=trace.name,
            backend=cell["backend"],
            batch="per-op" if cell["per_op"] else str(trace.batch),
            exec=cell["exec_mode"],
            replica=cell["replicate"],
        ) as span:
            divergence, stats = run_crash_trace(
                trace, rng=random.Random(f"{seed}/{index}/crash"), **cell
            )
            span.set("crashed", stats["crashed"] or "(none)")
            span.set("ok", divergence is None)
        report.traces_run += 1
        report.crashes_fired += stats["crashed"] is not None
        report.recoveries += stats["recovered"]
        report.restarts += stats["restarted"]
        report.promotions += stats["promoted"]
        if cell["checkpoint_every"]:
            report.checkpointed += 1
            report.checkpoints_cut += "checkpoint.mid" in stats["hits"]
        if observing:
            obs.metrics.counter("check.crash_traces").inc()
            for metric, key in (("check.crashes", "crashed"),
                                ("check.recoveries", "recovered"),
                                ("check.promotions", "promoted")):
                if stats[key]:
                    obs.metrics.counter(metric).inc()
        if divergence is None:
            continue
        if stats["armed"] is not None:
            cell["site"], cell["after"] = stats["armed"]
        record_failure(
            report, trace, divergence, crash_predicate(cell), obs,
            save_repro_dir, prefix="crash_",
        )
    report.elapsed_s = time.perf_counter() - started
    return report

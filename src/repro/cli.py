"""Command-line interface.

    python -m repro.cli run program.ops [--strategy patterns]
                                        [--resolution lex] [--max-cycles N]
                                        [--backend memory] [--quiet]
                                        [--lineage]
                                        [--trace-out t.jsonl]
                                        [--trace-rotate-bytes N]
                                        [--trace-keep K]
                                        [--metrics-out m.json]
                                        [--manifest [DIR]]
                                        [--wal run.wal]
                                        [--checkpoint-every N]
    python -m repro.cli resume run.wal [--checkpoint FILE]
    python -m repro.cli stats program.ops [--flamegraph [OUT]]
    python -m repro.cli check program.ops
    python -m repro.cli check --budget N [--resolutions lex,mea]
                                        [--exec-modes cycle,txn] [--crash]
    python -m repro.cli format program.ops
    python -m repro.cli explain program.ops [RULE ...] [--why-not]
                                        [--instantiation N] [--wal f.wal]
                                        [--network] [--dot [OUT]]
    python -m repro.cli top trace.jsonl [--follow] [--interval SEC]
    python -m repro.cli report [f1 e1 ... e9]

``run`` executes an OPS5 program file (literalize + rules + top-level
``(make ...)`` initial elements) through the recognize-act cycle and prints
the firing trace, ``(write ...)`` output, and the final working memory;
``--trace-out`` streams spans/events as JSON lines, ``--metrics-out``
writes the final metrics snapshot, ``--manifest`` records the run under
``runs/<run_id>/``, ``--wal`` makes the run durable (a write-ahead log of
every committed delta batch and cycle boundary, optionally
checkpointed).  ``resume`` recovers an interrupted ``--wal`` run and
finishes it.  ``stats`` runs the program with the phase-stats sink and
prints a per-rule Match/Select/Act cost table, or with ``--flamegraph``
emits collapsed stacks for flamegraph.pl.  ``check`` validates a program
and summarizes its rules; with ``--budget`` it differential-fuzzes the
strategy matrix, and ``--crash`` turns that into the crash-recovery
equivalence campaign; ``format`` normalizes a program back to canonical
text; ``explain`` answers why a rule is (not) in the conflict set — with
provenance-backed support chains, ``--why-not`` blame analysis and
``--network``/``--dot`` Rete introspection (see OBSERVABILITY.md);
``top`` renders a live dashboard over a ``--trace-out`` stream;
``report`` regenerates the experiment tables of EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.engine.interpreter import ProductionSystem
from repro.errors import ReproError
from repro.lang.analysis import analyze_program
from repro.lang.format import format_program
from repro.lang.parser import parse_program
from repro.match import STRATEGIES
from repro.obs import (
    JsonlFileSink,
    Observability,
    PhaseStatsSink,
    RunManifest,
    git_sha,
    program_hash,
)


#: Conflict-resolution strategy names accepted by ``--resolution``.
RESOLUTIONS = ("lex", "mea", "priority", "fifo", "random")


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _run_status(result) -> str:
    return (
        "halted" if result.halted
        else "cycle limit reached" if result.exhausted
        else "quiescent"
    )


def _checkpoint_path(args: argparse.Namespace) -> str | None:
    """The checkpoint file a ``--wal`` run writes, if any."""
    if args.checkpoint:
        return args.checkpoint
    if args.checkpoint_every or args.checkpoint_bytes:
        return args.wal + ".ckpt"
    return None


def cmd_run(args: argparse.Namespace) -> int:
    if not args.wal and (
        args.checkpoint or args.checkpoint_every or args.checkpoint_bytes
    ):
        print("error: checkpoint options require --wal", file=sys.stderr)
        return 2
    source = _read(args.file)
    obs = Observability()
    if args.trace_out:
        obs.add_sink(
            JsonlFileSink(
                args.trace_out,
                rotate_bytes=args.trace_rotate_bytes,
                keep=args.trace_keep,
            )
        )
    want_metrics = bool(args.metrics_out) or args.manifest is not None
    if want_metrics:
        obs.enable_metrics()
    system = ProductionSystem(
        source,
        strategy=args.strategy,
        resolution=args.resolution,
        backend=args.backend,
        seed=args.seed,
        obs=obs,
        lineage=args.lineage,
    )
    if args.wal:
        from repro.recovery import DurableRun

        durable = DurableRun.start(
            system,
            args.wal,
            source,
            {
                "strategy": args.strategy,
                "resolution": args.resolution,
                "backend": args.backend,
                "seed": args.seed,
            },
            fsync_every=args.fsync_every,
            checkpoint_path=_checkpoint_path(args),
            checkpoint_every=args.checkpoint_every,
            checkpoint_bytes=args.checkpoint_bytes,
        )
        try:
            result = durable.run(max_cycles=args.max_cycles)
        finally:
            durable.close()
    else:
        result = system.run(max_cycles=args.max_cycles)
    if not args.quiet:
        for record in result.fired:
            print(f"{record.cycle:4d}. {record.instantiation}")
        for line in system.output:
            print("write:", *line)
    status = _run_status(result)
    print(f"{result.cycles} cycles, {status}")
    if not args.quiet:
        print("final working memory:")
        for class_name in system.wm.schemas:
            for wme in system.wm.tuples(class_name):
                print(" ", wme)
    snapshot = system.snapshot_metrics() if want_metrics else {}
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=2, default=str)
            handle.write("\n")
    obs.close()
    if args.manifest is not None:
        manifest = RunManifest(
            program_hash=program_hash(source),
            program_path=args.file,
            strategy=args.strategy,
            resolution=args.resolution,
            backend=args.backend,
            seed=args.seed,
            command=list(sys.argv[1:]) or ["run", args.file],
            git_sha=git_sha(),
            metrics=snapshot,
            trace_path=args.trace_out,
            metrics_path=args.metrics_out,
            result={"cycles": result.cycles, "status": status},
        )
        print("manifest:", manifest.write(base_dir=args.manifest))
    return 0


def cmd_resume(args: argparse.Namespace) -> int:
    """``repro resume run.wal``: recover a crashed run and finish it."""
    from repro.recovery import recover, resume_run

    obs = Observability()
    if args.trace_out:
        obs.add_sink(JsonlFileSink(args.trace_out))
    state = recover(args.wal, args.checkpoint, obs=obs)
    print(
        f"recovered {args.wal}: phase={state.phase} cycle={state.cycle} "
        f"position={state.position} "
        f"({state.replayed_batches} batches, {state.replayed_deltas} deltas"
        f"{', checkpoint' if state.checkpoint_used else ''}"
        f"{', torn tail truncated' if state.torn else ''})"
    )
    if state.halted:
        print("run had already halted; nothing to resume")
    result = resume_run(
        state,
        max_cycles=args.max_cycles,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        checkpoint_bytes=args.checkpoint_bytes,
    )
    system = state.system
    if not args.quiet:
        for record in result.fired:
            print(f"{record.cycle:4d}. {record.instantiation}")
        for line in system.output:
            print("write:", *line)
    print(f"{result.cycles} cycles after recovery, {_run_status(result)}")
    if not args.quiet:
        print("final working memory:")
        for class_name in system.wm.schemas:
            for wme in system.wm.tuples(class_name):
                print(" ", wme)
    obs.close()
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    from repro.bench.tables import render_table

    if args.flamegraph is not None:
        return _cmd_stats_flamegraph(args)
    sink = PhaseStatsSink()
    obs = Observability(sinks=[sink], collect_metrics=True)
    system = ProductionSystem(
        _read(args.file),
        strategy=args.strategy,
        resolution=args.resolution,
        backend=args.backend,
        seed=args.seed,
        obs=obs,
    )
    result = system.run(max_cycles=args.max_cycles)
    rows = sink.table_rows()
    columns = ["rule", "fires", "match_us", "select_us", "act_us", "total_us"]
    title = (
        f"{args.file} — per-rule phase costs "
        f"({args.strategy}/{args.resolution})"
    )
    print(render_table(rows, columns=columns, title=title))
    totals = sink.totals()
    print(
        f"\n{result.cycles} cycles, {_run_status(result)}; "
        f"total {totals['total_us']:.0f} us "
        f"(match {totals['match_us']:.0f}, select {totals['select_us']:.0f}, "
        f"act {totals['act_us']:.0f})"
    )
    return 0


def _cmd_stats_flamegraph(args: argparse.Namespace) -> int:
    """``repro stats --flamegraph``: collapsed stacks for flamegraph.pl.

    FILE may be a ``--trace-out`` span stream (``*.jsonl``), which is
    folded as-is — the way to see a ``--wal`` run's ``recovery.fsync``
    time — or an OPS5 program, which is executed here with tracing on.
    """
    from repro.obs import CallbackSink, fold_spans, fold_trace_file
    from repro.obs.flame import render_folded

    if args.file.endswith(".jsonl"):
        stacks = fold_trace_file(args.file)
    else:
        records: list[dict] = []
        obs = Observability(sinks=[CallbackSink(records.append)])
        system = ProductionSystem(
            _read(args.file),
            strategy=args.strategy,
            resolution=args.resolution,
            backend=args.backend,
            seed=args.seed,
            obs=obs,
        )
        system.run(max_cycles=args.max_cycles)
        stacks = fold_spans(records)
    folded = render_folded(stacks)
    if args.flamegraph == "-":
        sys.stdout.write(folded)
    else:
        with open(args.flamegraph, "w", encoding="utf-8") as handle:
            handle.write(folded)
        print(f"{len(stacks)} stacks -> {args.flamegraph}")
    return 0


def _csv(text: str) -> list[str]:
    return [item for item in (part.strip() for part in text.split(",")) if item]


class _UsageError(Exception):
    """A flag value the command cannot honour; :func:`main` exits 2."""


def _csv_choice(flag: str, text: str | None, allowed) -> tuple[str, ...] | None:
    """The comma-separated values of *flag*, each one of *allowed*; None
    when the flag is absent.  Unknown or missing values are an error
    naming the flag, so a fuzz matrix never changes shape silently."""
    if text is None:
        return None
    names = tuple(_csv(text))
    unknown = sorted(set(names) - set(allowed))
    if unknown:
        raise _UsageError(f"{flag}: unknown {', '.join(unknown)}")
    if not names:
        raise _UsageError(f"{flag}: no values given")
    return names


def cmd_check(args: argparse.Namespace) -> int:
    if args.budget is not None or args.file is None or args.crash:
        return _cmd_check_fuzz(args)
    program = parse_program(_read(args.file))
    analyses = analyze_program(program.rules, program.schemas)
    print(
        f"{len(program.schemas)} classes, {len(program.rules)} rules, "
        f"{len(program.initial_elements)} initial elements"
    )
    for analysis in analyses.values():
        positive = len(analysis.positive_conditions())
        negated = len(analysis.negated_conditions())
        joins = sum(
            1 for component in analysis.components if len(component) > 1
        )
        print(
            f"  {analysis.name}: {positive}+{negated} conditions, "
            f"{joins} join component(s), "
            f"{len(analysis.rule.actions)} action(s)"
        )
    return 0


def _cmd_check_fuzz(args: argparse.Namespace) -> int:
    """``repro check [FILE] --budget N``: the differential fuzz campaign.

    Replays each generated trace through every configured
    strategy × backend combination and reports the first
    divergence per trace; failures are shrunk with ddmin and, under
    ``--save-repro``, written into the regression corpus.  With FILE the
    rule base is pinned and only op scripts are fuzzed.
    """
    from repro.check import run_check, run_crash_check
    from repro.check.crash import (
        DEFAULT_CRASH_BACKENDS,
        DEFAULT_CRASH_STRATEGY,
    )
    from repro.check.oracle import EXEC_MODES

    budget = args.budget if args.budget is not None else 50
    strategies = _csv_choice("--strategies", args.strategies, STRATEGIES)
    backends = _csv(args.backends) if args.backends else None
    resolutions = _csv_choice("--resolutions", args.resolutions, RESOLUTIONS)
    exec_modes = _csv_choice("--exec-modes", args.exec_modes, EXEC_MODES)
    if args.crash:
        if strategies is not None:
            raise _UsageError(
                f"--strategies: --crash runs only {DEFAULT_CRASH_STRATEGY}"
            )
    elif args.replica:
        raise _UsageError("--replica: only applies with --crash")
    obs = Observability()
    if args.trace_out:
        obs.add_sink(JsonlFileSink(args.trace_out))
    if args.metrics_out:
        obs.enable_metrics()
    if args.crash:
        report = run_crash_check(
            budget=budget,
            seed=args.seed,
            resolutions=resolutions,
            program=_read(args.file) if args.file else None,
            save_repro_dir=args.save_repro,
            obs=obs,
            backends=tuple(backends or DEFAULT_CRASH_BACKENDS),
            exec_modes=tuple(exec_modes or ("cycle",)),
            replicate=args.replica,
        )
    else:
        report = run_check(
            budget=budget,
            seed=args.seed,
            strategies=strategies,
            backends=backends,
            program=_read(args.file) if args.file else None,
            save_repro_dir=args.save_repro,
            obs=obs,
            resolutions=resolutions,
            exec_modes=exec_modes,
        )
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            json.dump(obs.metrics.snapshot(), handle, indent=2, default=str)
            handle.write("\n")
    obs.close()
    for failure in report.failures:
        print(f"FAIL {failure.trace.name}: {failure.divergence.describe()}")
        if failure.shrunk is not None:
            print(
                f"  shrunk to {len(failure.shrunk.ops)} op(s), "
                f"{failure.shrunk.program.count('(p ')} rule(s)"
            )
        if failure.repro_path:
            print(f"  repro saved: {failure.repro_path}")
    print(report.summary())
    return 0 if report.ok else 1


def cmd_format(args: argparse.Namespace) -> int:
    program = parse_program(_read(args.file))
    print(format_program(program))
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """``repro explain``: diagnosis plus provenance-backed support chains.

    The system is built with lineage recording on, so every conflict-set
    instantiation — including those derived from the initial WM load —
    carries its support chain (WM tuples, join-node path, cycle, WAL
    sequence number when ``--wal`` is given).  By default the initial
    state is diagnosed without running; ``--max-cycles`` runs the engine
    first so the chains include firing/retraction history.
    """
    from repro.obs.xray import render_support, why_not

    source = _read(args.file)
    system = ProductionSystem(source, strategy=args.strategy, lineage=True)
    names = args.rules or list(system.analyses)
    unknown = [name for name in names if name not in system.analyses]
    if unknown:
        print(f"error: no rule named {unknown[0]!r}", file=sys.stderr)
        return 1
    durable = None
    if args.wal:
        from repro.recovery import DurableRun

        durable = DurableRun.start(
            system,
            args.wal,
            source,
            {
                "strategy": args.strategy,
                "resolution": "lex",
                "backend": "memory",
                "seed": 0,
            },
        )
    try:
        if args.max_cycles:
            if durable is not None:
                durable.run(max_cycles=args.max_cycles)
            else:
                system.run(max_cycles=args.max_cycles)
    finally:
        if durable is not None:
            durable.close()
    if args.dot is not None:
        return _explain_dot(args, system)
    if args.network:
        print(json.dumps(system.strategy.describe(), indent=2, default=str))
        return 0
    recorder = system.lineage_recorder
    for name in names:
        if args.why_not:
            print(why_not(system, name))
            print()
            continue
        print(system.explain(name))
        lineages = recorder.for_rule(name)
        if args.instantiation is not None:
            if not 1 <= args.instantiation <= len(lineages):
                print(
                    f"error: {name} has {len(lineages)} recorded "
                    f"instantiation(s), no #{args.instantiation}",
                    file=sys.stderr,
                )
                return 1
            lineages = [lineages[args.instantiation - 1]]
        conditions = system.analyses[name].conditions
        for lineage in lineages:
            print()
            print(render_support(lineage, conditions))
        print()
    return 0


def _explain_dot(args: argparse.Namespace, system: ProductionSystem) -> int:
    """``repro explain --dot``: the network as Graphviz DOT."""
    to_dot = getattr(system.strategy, "to_dot", None)
    if to_dot is None:
        print(
            f"error: strategy {args.strategy!r} has no node graph to "
            "render (use a rete strategy)",
            file=sys.stderr,
        )
        return 1
    text = to_dot()
    if args.dot == "-":
        sys.stdout.write(text)
    else:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"network graph -> {args.dot}")
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """``repro top trace.jsonl``: dashboard over a ``--trace-out`` stream.

    One frame summarizes throughput, cycle-latency percentiles, the
    hottest join nodes and WAL lag; ``--follow`` keeps tailing the file
    and redraws the frame in place every ``--interval`` seconds.
    """
    from repro.obs.xray import TopAggregator, render_top

    aggregator = TopAggregator(window=args.window)
    frames = 0
    try:
        with open(args.trace, encoding="utf-8") as handle:
            while True:
                for line in handle:
                    aggregator.feed_line(line)
                frame = render_top(aggregator)
                if args.follow and frames:
                    height = frame.count("\n") + 1
                    sys.stdout.write(f"\x1b[{height}A\x1b[J")
                print(frame, flush=True)
                frames += 1
                if not args.follow or (args.frames and frames >= args.frames):
                    break
                time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.bench.report import main as report_main

    report_main(args.experiments)
    return 0


def _tenant_depths(entries, flag: str) -> dict[str, int]:
    """Parse repeated ``TENANT=N`` per-tenant quota overrides."""
    overrides: dict[str, int] = {}
    for entry in entries or []:
        tenant, sep, depth = entry.partition("=")
        if not sep or not tenant or not depth.isdigit():
            raise ReproError(f"{flag} expects TENANT=N, got {entry!r}")
        overrides[tenant] = int(depth)
    return overrides


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve --data-dir DIR``: the multi-tenant rule service.

    Recovers every tenant log under the data directory, then listens for
    newline-delimited JSON requests (see ``docs/SERVING.md``).  SIGTERM
    and SIGINT trigger a graceful shutdown: drain, group-flush, final
    checkpoint per tenant, close the logs.  ``--follow HOST:PORT``
    starts the server as a read-only warm standby of that primary
    instead (see ``docs/REPLICATION.md``).
    """
    import asyncio
    import contextlib
    import signal

    from repro.obs import Observability
    from repro.serve.backpressure import AdmissionController, AdmissionPolicy
    from repro.serve.server import RuleServer

    defer_overrides = _tenant_depths(
        args.tenant_defer_depth, "--tenant-defer-depth"
    )
    shed_overrides = _tenant_depths(
        args.tenant_shed_depth, "--tenant-shed-depth"
    )
    tenant_policies = {}
    for tenant in sorted(set(defer_overrides) | set(shed_overrides)):
        defer = defer_overrides.get(tenant, args.defer_depth)
        shed = shed_overrides.get(tenant, args.shed_depth)
        if not 0 < defer <= shed:
            raise ReproError(
                f"tenant {tenant!r} needs 0 < defer ({defer}) <= shed "
                f"({shed}); adjust the per-tenant overrides"
            )
        tenant_policies[tenant] = AdmissionPolicy(
            defer_depth=defer, shed_depth=shed
        )

    obs = Observability(collect_metrics=True)
    server = RuleServer(
        args.data_dir,
        host=args.host,
        port=args.port,
        obs=obs,
        admission=AdmissionController(
            AdmissionPolicy(
                defer_depth=args.defer_depth, shed_depth=args.shed_depth
            ),
            obs=obs,
            tenant_policies=tenant_policies,
        ),
        checkpoint_rounds=args.checkpoint_rounds,
        wal_rotate_bytes=args.rotate_bytes,
        follow=args.follow,
        takeover_deadline=args.takeover_deadline,
    )

    async def _serve() -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(signum, server._stopping.set)
        await server.start()
        try:
            await server.serve_forever()
        finally:
            await server.shutdown()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def cmd_promote(args: argparse.Namespace) -> int:
    """``repro promote HOST:PORT``: turn a warm standby into the primary.

    Sends the ``promote`` op; the follower finalizes every tenant at its
    last shipped boundary, bumps the fencing epoch, and starts accepting
    writes.  Prints the reply (new epoch, promoted tenants).
    """
    import socket

    host, _, port = args.server.rpartition(":")
    with socket.create_connection(
        (host or "127.0.0.1", int(port)), timeout=args.timeout
    ) as sock:
        sock.sendall(b'{"op": "promote"}\n')
        reply = json.loads(sock.makefile("r", encoding="utf-8").readline())
    print(json.dumps(reply, indent=2, sort_keys=True))
    return 0 if reply.get("ok") else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Production rule systems in a DBMS environment "
        "(Sellis/Lin/Raschid, SIGMOD 1988)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run an OPS5 program file")
    run.add_argument("file")
    run.add_argument(
        "--strategy", default="patterns", choices=sorted(STRATEGIES)
    )
    run.add_argument(
        "--resolution", default="lex", choices=list(RESOLUTIONS)
    )
    run.add_argument("--backend", default="memory",
                     choices=["memory", "sqlite"])
    run.add_argument("--max-cycles", type=int, default=10_000)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--wal",
        metavar="FILE",
        help="attach a write-ahead log: every committed delta batch and "
        "cycle boundary is logged to FILE, making the run resumable with "
        "'repro resume FILE' after a crash",
    )
    run.add_argument(
        "--checkpoint",
        metavar="FILE",
        help="checkpoint snapshot path (default: WAL path + '.ckpt' when "
        "--checkpoint-every/--checkpoint-bytes is set)",
    )
    run.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="N",
        help="cut a checkpoint every N engine cycles (requires --wal)",
    )
    run.add_argument(
        "--checkpoint-bytes",
        type=int,
        default=0,
        metavar="M",
        help="cut a checkpoint every M durable log bytes (requires --wal)",
    )
    run.add_argument(
        "--fsync-every",
        type=int,
        default=64,
        metavar="N",
        help="fsync the WAL every N buffered records (boundaries always "
        "sync; default: 64)",
    )
    run.add_argument("--quiet", action="store_true")
    run.add_argument(
        "--lineage",
        action="store_true",
        help="record token provenance for every conflict-set "
        "instantiation (the support chains 'repro explain' renders); "
        "off by default, and the match/act hot paths are untouched "
        "when disabled",
    )
    run.add_argument(
        "--trace-out",
        metavar="FILE",
        help="write spans and events as JSON lines to FILE",
    )
    run.add_argument(
        "--trace-rotate-bytes",
        type=int,
        default=0,
        metavar="N",
        help="size-rotate the --trace-out file when it reaches N bytes "
        "(0 = never rotate); rotations shift to FILE.1, FILE.2, ...",
    )
    run.add_argument(
        "--trace-keep",
        type=int,
        default=3,
        metavar="K",
        help="rotated trace files to keep before the oldest is deleted "
        "(default: 3)",
    )
    run.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="write the final metrics snapshot as JSON to FILE",
    )
    run.add_argument(
        "--manifest",
        nargs="?",
        const="runs",
        metavar="DIR",
        help="record the run under DIR/<run_id>/ (default: runs/)",
    )
    run.set_defaults(handler=cmd_run)

    resume = commands.add_parser(
        "resume",
        help="recover a crashed --wal run from its log and finish it",
    )
    resume.add_argument("wal", help="write-ahead log of the crashed run")
    resume.add_argument(
        "--checkpoint",
        metavar="FILE",
        help="checkpoint to fast-start from (validated against the log)",
    )
    resume.add_argument("--max-cycles", type=int, default=10_000)
    resume.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="N",
        help="keep checkpointing every N cycles while finishing",
    )
    resume.add_argument(
        "--checkpoint-bytes", type=int, default=0, metavar="M",
        help="keep checkpointing every M durable log bytes",
    )
    resume.add_argument("--quiet", action="store_true")
    resume.add_argument(
        "--trace-out",
        metavar="FILE",
        help="write recovery.* spans and events as JSON lines to FILE",
    )
    resume.set_defaults(handler=cmd_resume)

    stats = commands.add_parser(
        "stats", help="per-rule Match/Select/Act cost table for one run"
    )
    stats.add_argument("file")
    stats.add_argument(
        "--strategy", default="patterns", choices=sorted(STRATEGIES)
    )
    stats.add_argument(
        "--resolution", default="lex", choices=list(RESOLUTIONS)
    )
    stats.add_argument("--backend", default="memory",
                       choices=["memory", "sqlite"])
    stats.add_argument("--max-cycles", type=int, default=10_000)
    stats.add_argument("--seed", type=int, default=0)
    stats.add_argument(
        "--flamegraph",
        nargs="?",
        const="-",
        metavar="OUT",
        help="emit collapsed stacks (flamegraph.pl format) instead of the "
        "cost table; FILE may be a --trace-out *.jsonl span stream (folded "
        "as-is, showing e.g. recovery.fsync time of a --wal run) or a "
        "program to execute with tracing; OUT defaults to stdout",
    )
    stats.set_defaults(handler=cmd_stats)

    check = commands.add_parser(
        "check",
        help="validate a program, or fuzz the strategy matrix (--budget)",
    )
    check.add_argument(
        "file",
        nargs="?",
        help="program to validate; with --budget, pins the fuzzed rule base",
    )
    check.add_argument(
        "--budget",
        type=int,
        metavar="N",
        help="differential-fuzz N generated traces across the "
        "strategy × backend matrix (omitting FILE "
        "defaults the budget to 50)",
    )
    check.add_argument("--seed", type=int, default=0)
    check.add_argument(
        "--strategies",
        metavar="A,B,...",
        help="comma-separated strategy subset (default: all)",
    )
    check.add_argument(
        "--backends",
        metavar="A,B",
        help="comma-separated backend subset (default: memory,sqlite)",
    )
    check.add_argument(
        "--resolutions",
        metavar="A,B,...",
        help="comma-separated conflict-resolution strategies rotated "
        "across generated traces (default: lex)",
    )
    check.add_argument(
        "--exec-modes",
        metavar="A,B,...",
        help="comma-separated execution modes rotated across cells: "
        "'cycle' (the serial recognize-act reference) and 'txn' (the "
        "§5.2 concurrent 2PL scheduler); each mode group is compared "
        "against its own reference (default: cycle)",
    )
    check.add_argument(
        "--crash",
        action="store_true",
        help="run the crash-recovery equivalence campaign instead: each "
        "trace runs under a WAL, is killed at a random armed crash site, "
        "recovered, finished, and compared to its uninterrupted reference "
        "(always strategy rete: --strategies is refused)",
    )
    check.add_argument(
        "--replica",
        action="store_true",
        help="with --crash: rotate warm-standby cells in — the armed run "
        "ships its WAL to an in-process follower, the crash is survived "
        "by promoting the follower, and the promoted run must still "
        "match the uninterrupted reference",
    )
    check.add_argument(
        "--save-repro",
        nargs="?",
        const="tests/corpus",
        metavar="DIR",
        help="write shrunk failing traces into DIR "
        "(default: tests/corpus/)",
    )
    check.add_argument(
        "--trace-out",
        metavar="FILE",
        help="write check.* spans and events as JSON lines to FILE",
    )
    check.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="write the final metrics snapshot as JSON to FILE",
    )
    check.set_defaults(handler=cmd_check)

    fmt = commands.add_parser("format", help="normalize a program to text")
    fmt.add_argument("file")
    fmt.set_defaults(handler=cmd_format)

    explain = commands.add_parser(
        "explain",
        help="diagnose why rules are (not) satisfied, with provenance",
    )
    explain.add_argument("file")
    explain.add_argument("rules", nargs="*")
    explain.add_argument(
        "--strategy", default="patterns", choices=sorted(STRATEGIES)
    )
    explain.add_argument(
        "--max-cycles",
        type=int,
        default=0,
        metavar="N",
        help="run up to N engine cycles before explaining (default 0: "
        "diagnose the initial WM) so support chains carry firing and "
        "retraction history",
    )
    explain.add_argument(
        "--instantiation",
        type=int,
        metavar="N",
        help="show only the Nth recorded instantiation's support chain "
        "(1-based, in first-seen order)",
    )
    explain.add_argument(
        "--why-not",
        action="store_true",
        help="name the first failing alpha test, empty join or blocking "
        "negation preventing each rule from matching",
    )
    explain.add_argument(
        "--wal",
        metavar="FILE",
        help="run durably under a fresh write-ahead log at FILE so every "
        "support chain carries the WAL sequence number it is covered by",
    )
    explain.add_argument(
        "--network",
        action="store_true",
        help="print the strategy's introspection report (node graph with "
        "live per-node gauges) as JSON and exit",
    )
    explain.add_argument(
        "--dot",
        nargs="?",
        const="-",
        metavar="OUT",
        help="write the Rete network as Graphviz DOT to OUT "
        "(default: stdout) and exit",
    )
    explain.set_defaults(handler=cmd_explain)

    top = commands.add_parser(
        "top",
        help="live engine dashboard over a --trace-out JSONL stream",
    )
    top.add_argument("trace", help="trace file written by run --trace-out")
    top.add_argument(
        "--follow",
        action="store_true",
        help="keep tailing the file, redrawing the dashboard in place",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SEC",
        help="seconds between --follow redraws (default: 1.0)",
    )
    top.add_argument(
        "--window",
        type=int,
        default=64,
        metavar="N",
        help="cycles in the sliding throughput window (default: 64)",
    )
    top.add_argument(
        "--frames",
        type=int,
        default=0,
        metavar="N",
        help="with --follow, stop after N redraws (0 = until ^C)",
    )
    top.set_defaults(handler=cmd_top)

    report = commands.add_parser(
        "report", help="regenerate experiment tables"
    )
    report.add_argument("experiments", nargs="*")
    report.set_defaults(handler=cmd_report)

    serve = commands.add_parser(
        "serve",
        help="host many tenant sessions over newline-delimited JSON/TCP",
    )
    serve.add_argument(
        "--data-dir",
        required=True,
        metavar="DIR",
        help="directory holding one WAL + checkpoint per tenant; every "
        "log found here is recovered before the socket opens",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (default 0 = ephemeral; the bound port is "
        "announced on stdout as 'serving on HOST:PORT')",
    )
    serve.add_argument(
        "--checkpoint-rounds",
        type=int,
        default=8,
        metavar="N",
        help="checkpoint a tenant every N group-commit rounds it took "
        "part in (default: 8)",
    )
    serve.add_argument(
        "--rotate-bytes",
        type=int,
        default=256 * 1024,
        metavar="BYTES",
        help="archive a tenant's WAL segment past this size; "
        "checkpoints then compact superseded segments (default: 256k)",
    )
    serve.add_argument(
        "--defer-depth",
        type=int,
        default=64,
        metavar="N",
        help="queue depth at which new ops defer to the next drain",
    )
    serve.add_argument(
        "--shed-depth",
        type=int,
        default=256,
        metavar="N",
        help="queue depth at which new ops are shed (client retries)",
    )
    serve.add_argument(
        "--tenant-defer-depth",
        action="append",
        metavar="TENANT=N",
        help="per-tenant defer-depth override (repeatable); other "
        "tenants keep the global --defer-depth",
    )
    serve.add_argument(
        "--tenant-shed-depth",
        action="append",
        metavar="TENANT=N",
        help="per-tenant shed-depth override (repeatable); other "
        "tenants keep the global --shed-depth",
    )
    serve.add_argument(
        "--follow",
        metavar="HOST:PORT",
        help="start as a read-only warm standby of that primary: tail "
        "its WAL shipments, stay bit-identical at every shipped "
        "boundary, and promote on request (or automatically once the "
        "primary is unreachable past --takeover-deadline)",
    )
    serve.add_argument(
        "--takeover-deadline",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="with --follow: self-promote after the primary has been "
        "unreachable this long (0 disables automatic takeover; "
        "default: 10)",
    )
    serve.set_defaults(handler=cmd_serve)

    promote = commands.add_parser(
        "promote",
        help="promote a warm standby (a --follow server) to primary",
    )
    promote.add_argument(
        "server",
        metavar="HOST:PORT",
        help="address of the follower to promote",
    )
    promote.add_argument(
        "--timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="connection timeout (default: 10)",
    )
    promote.set_defaults(handler=cmd_promote)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (FileNotFoundError, _UsageError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Experiment reports: one function per paper artifact (see DESIGN.md §3).

Each ``report_*`` function regenerates the table for one experiment id and
returns ``(title, rows)``; running this module as a script prints them:

    python -m repro.bench.report            # all experiments
    python -m repro.bench.report e1 e4      # a subset

The paper publishes no absolute numbers — its evaluation is comparative —
so these tables reproduce the *shape* of each claim: who wins, what grows
with what, and where the trade-offs sit.  ``EXPERIMENTS.md`` records the
measured outcomes against the paper's statements.
"""

from __future__ import annotations

import sys
import time

from repro.bench.drivers import (
    build_system,
    compare_strategies,
    inserts_as_events,
    run_stream,
)
from repro.bench.tables import render_table
from repro.engine.interpreter import ProductionSystem
from repro.obs import repro_footer
from repro.lang.analysis import analyze_program
from repro.lang.parser import parse_program
from repro.rindex.condition_index import ConditionIndex
from repro.txn.scheduler import ConcurrentScheduler
from repro.txn.serializability import count_equivalent_serial_orders
from repro.workload.generator import (
    WorkloadSpec,
    generate_insert_stream,
    generate_program,
)
from repro.workload.programs import (
    INVENTORY_PROGRAM,
    chain_program,
    contended_rules_program,
    independent_rules_program,
    inventory_events,
)

Report = tuple[str, list[dict]]

#: The match strategies compared throughout (DBMS variants appear in E8).
CORE_STRATEGIES = ["rete", "rete-shared", "simplified", "patterns", "markers"]


# ---------------------------------------------------------------------------
# F1 — Figure 1: propagation depth in a chain network
# ---------------------------------------------------------------------------


def report_f1(depths: tuple[int, ...] = (2, 4, 8, 12)) -> Report:
    """Per-insert cost vs chain depth n for C1 ∧ … ∧ Cn.

    Rete's match requires propagating the token through the whole
    hierarchy, so its activations grow with n; the matching-pattern scheme
    detects the match with one COND search (flat), while its maintenance
    (pattern propagation) grows with n but is the parallelizable part.
    """
    rows: list[dict] = []
    for depth in depths:
        source = chain_program(depth)
        for strategy_name in ("rete", "patterns"):
            wm, strategy = build_system(source, strategy_name)
            # One tuple per class completes exactly one chain; the last
            # insert triggers full propagation.
            for i in range(1, depth):
                wm.insert(f"C{i}", (0, "live"))
            before = strategy.counters.snapshot()
            wm.insert("C0", (0, "live"))
            diff = strategy.counters.diff(before)
            rows.append(
                {
                    "depth": depth,
                    "strategy": strategy.strategy_name,
                    "match_searches": (
                        diff["cond_searches"]
                        if strategy_name == "patterns"
                        else diff["node_activations"]
                    ),
                    "maintenance_ops": diff["patterns_updated"],
                    "conflict_adds": strategy.conflict_set.additions,
                }
            )
    return ("F1  propagation cost vs chain depth (Figure 1)", rows)


# ---------------------------------------------------------------------------
# E1 — §4.2.3 Time: match cost across strategies
# ---------------------------------------------------------------------------


def report_e1(
    rule_counts: tuple[int, ...] = (10, 40),
    stream_length: int = 300,
) -> Report:
    """Wall time and counted operations per strategy on synthetic loads."""
    rows: list[dict] = []
    for rules in rule_counts:
        spec = WorkloadSpec(rules=rules, classes=5, seed=7)
        workload = generate_program(spec)
        stream = inserts_as_events(
            generate_insert_stream(spec, stream_length)
        )
        for run in compare_strategies(
            workload.program, stream, CORE_STRATEGIES
        ):
            row = run.row(
                "comparisons", "index_lookups", "joins_computed",
                "cond_searches",
            )
            row["rules"] = rules
            rows.append(row)
    columns_first = ["rules", "strategy", "events", "ms", "us/event",
                     "comparisons", "index_lookups", "joins_computed",
                     "cond_searches"]
    rows = [{c: r.get(c, "") for c in columns_first} for r in rows]
    return ("E1  match cost by strategy (§4.2.3 Time)", rows)


# ---------------------------------------------------------------------------
# E2 — §4.2.3 Space: storage footprint across strategies
# ---------------------------------------------------------------------------


def report_e2(stream_length: int = 300) -> Report:
    """Auxiliary storage after a common stream."""
    spec = WorkloadSpec(rules=20, classes=5, seed=11)
    workload = generate_program(spec)
    stream = inserts_as_events(generate_insert_stream(spec, stream_length))
    rows: list[dict] = []
    for run in compare_strategies(workload.program, stream, CORE_STRATEGIES):
        assert run.space is not None
        row = run.space.as_dict()
        rows.append(row)
    return ("E2  space footprint by strategy (§4.2.3 Space)", rows)


# ---------------------------------------------------------------------------
# E3 — §3.2: false drops (markers vs patterns vs Rete)
# ---------------------------------------------------------------------------


def report_e3(stream_length: int = 300) -> Report:
    """False-drop counts on a join-heavy load with sparse completions."""
    spec = WorkloadSpec(
        rules=15,
        classes=6,
        min_conditions=2,
        max_conditions=3,
        domain=12,
        seed=3,
    )
    workload = generate_program(spec)
    stream = inserts_as_events(generate_insert_stream(spec, stream_length))
    rows: list[dict] = []
    for run in compare_strategies(
        workload.program, stream, ["rete", "patterns", "markers"]
    ):
        rows.append(
            {
                "strategy": run.strategy,
                "false_drops": run.counters["false_drops"],
                "joins_computed": run.counters["joins_computed"],
                "conflict_adds": run.conflict_additions,
                "aux_cells": run.space.estimated_cells if run.space else 0,
            }
        )
    return ("E3  false drops and validation cost (§3.2)", rows)


# ---------------------------------------------------------------------------
# E4 — §5: serial vs concurrent execution
# ---------------------------------------------------------------------------


def _concurrent_run(source: str, setup) -> dict:
    system = ProductionSystem(source)
    setup(system)
    scheduler = ConcurrentScheduler(system)
    result = scheduler.run()
    orders: object
    try:
        orders = count_equivalent_serial_orders(result.history)
    except ValueError:
        orders = ">cap"
    critical = max(
        (r.critical_path_bound for r in result.rounds), default=0
    )
    return {
        "committed": result.committed,
        "makespan": result.makespan_ticks,
        "serial_steps": result.serial_steps,
        "speedup": (
            result.serial_steps / result.makespan_ticks
            if result.makespan_ticks
            else 1.0
        ),
        "critical_path": critical,
        "equiv_orders": orders,
    }


def report_e4(sizes: tuple[int, ...] = (2, 4, 8)) -> Report:
    """Speedup of concurrent execution: independent vs contended rules.

    §5.2: best case ∝ max updates to any one relation (independent rules
    parallelize); worst case degenerates to serial (all rules updating one
    shared relation).
    """
    rows: list[dict] = []
    for size in sizes:
        independent = independent_rules_program(size)

        def setup_independent(system, n=size):
            for i in range(n):
                system.insert(f"T{i}", {"x": i})

        row = _concurrent_run(independent, setup_independent)
        row.update({"rules": size, "workload": "independent"})
        rows.append(row)

        contended = contended_rules_program(size)

        def setup_contended(system, n=size):
            system.insert("Shared", {"x": 0})
            for i in range(n):
                system.insert(f"T{i}", {"x": i})

        row = _concurrent_run(contended, setup_contended)
        row.update({"rules": size, "workload": "contended"})
        rows.append(row)
    columns = ["rules", "workload", "committed", "makespan", "serial_steps",
               "speedup", "critical_path", "equiv_orders"]
    rows = [{c: r.get(c, "") for c in columns} for r in rows]
    return ("E4  serial vs concurrent execution (§5.2)", rows)


# ---------------------------------------------------------------------------
# E6 — §3.2/§6: multiple-query-optimized (shared) Rete
# ---------------------------------------------------------------------------


def report_e6(stream_length: int = 250) -> Report:
    """Node counts and match work: naive vs shared networks, with rule
    overlap driven by a shared condition pool."""
    rows: list[dict] = []
    for pool in (0, 6):
        spec = WorkloadSpec(
            rules=25,
            classes=4,
            shared_condition_pool=pool,
            seed=5,
        )
        workload = generate_program(spec)
        stream = inserts_as_events(
            generate_insert_stream(spec, stream_length)
        )
        for strategy_name in ("rete", "rete-shared"):
            run = run_stream(workload.program, stream, strategy_name)
            assert run.space is not None
            rows.append(
                {
                    "overlap_pool": pool or "none",
                    "strategy": run.strategy,
                    "alpha_memories": run.space.detail["alpha_memories"],
                    "join_nodes": run.space.detail["join_nodes"],
                    "activations": run.counters["node_activations"],
                    "ms": run.wall_seconds * 1000,
                }
            )
    return ("E6  naive vs MQO-shared Rete (§3.2/§6)", rows)


# ---------------------------------------------------------------------------
# E7 — §4.2.3: R-tree vs linear condition lookup
# ---------------------------------------------------------------------------


def _rules_with_selections(count: int, domain: int = 1000) -> str:
    parts = ["(literalize Emp age salary dno)"]
    step = max(domain // count, 1)
    for i in range(count):
        low = (i * step) % domain
        parts.append(
            f"(p sel{i} (Emp ^age > {low} ^salary < {low + step}) "
            f"--> (remove 1))"
        )
    return "\n".join(parts)


def report_e7(
    condition_counts: tuple[int, ...] = (50, 200, 800),
    probes: int = 300,
) -> Report:
    """Point-lookup cost: R-tree over condition boxes vs linear scan."""
    from repro.match.common import match_condition
    from repro.engine.wm import WorkingMemory

    rows: list[dict] = []
    for count in condition_counts:
        source = _rules_with_selections(count)
        program = parse_program(source)
        analyses = analyze_program(program.rules, program.schemas)
        index = ConditionIndex(analyses, program.schemas)
        wm = WorkingMemory(program.schemas)
        wmes = [
            wm.insert("Emp", (i * 7 % 1000, i * 13 % 1000, i % 5))
            for i in range(probes)
        ]
        start = time.perf_counter()
        indexed_hits = 0
        for wme in wmes:
            indexed_hits += len(index.conditions_matching(wme))
        rtree_seconds = time.perf_counter() - start
        start = time.perf_counter()
        linear_hits = 0
        schema = program.schemas["Emp"]
        for wme in wmes:
            for analysis in analyses.values():
                for condition in analysis.conditions:
                    if match_condition(condition, schema, wme) is not None:
                        linear_hits += 1
        linear_seconds = time.perf_counter() - start
        rows.append(
            {
                "conditions": count,
                "probes": probes,
                "rtree_ms": rtree_seconds * 1000,
                "linear_ms": linear_seconds * 1000,
                "speedup": linear_seconds / rtree_seconds
                if rtree_seconds
                else 0.0,
                "rtree_hits": indexed_hits,
                "exact_hits": linear_hits,
            }
        )
    return ("E7  R-tree vs linear condition lookup (§4.2.3)", rows)


# ---------------------------------------------------------------------------
# E8 — §3.2: persisted Rete memories, memory vs SQLite backends
# ---------------------------------------------------------------------------


def report_e8(stream_length: int = 150) -> Report:
    """DBMS-Rete throughput across memory backends, including on-disk.

    Configurations: plain in-core Rete; the §3.2 DBMS-Rete with memory
    relations in the in-memory engine, in in-memory SQLite, and the fully
    persistent variant where working memory itself lives in a SQLite file.
    """
    import os
    import tempfile

    from repro.engine.wm import WorkingMemory
    from repro.instrument import Counters
    from repro.match.rete import DbmsReteStrategy, ReteStrategy

    spec = WorkloadSpec(rules=10, classes=4, seed=13)
    workload = generate_program(spec)
    stream = generate_insert_stream(spec, stream_length)
    analyses = analyze_program(
        workload.program.rules, workload.program.schemas
    )
    rows: list[dict] = []
    configs = [
        ("rete (no persistence)", ReteStrategy, {}, None),
        ("rete-dbms memory", DbmsReteStrategy, {"memory_backend": "memory"}, None),
        ("rete-dbms sqlite", DbmsReteStrategy, {"memory_backend": "sqlite"}, None),
        ("rete, WM on disk (sqlite file)", ReteStrategy, {}, "file"),
    ]
    for label, cls, kwargs, wm_mode in configs:
        db_path = None
        if wm_mode == "file":
            handle, db_path = tempfile.mkstemp(suffix=".sqlite")
            os.close(handle)
            os.unlink(db_path)
            wm = WorkingMemory(
                workload.program.schemas, backend="sqlite", path=db_path
            )
        else:
            wm = WorkingMemory(workload.program.schemas)
        strategy = cls(wm, analyses, counters=Counters(), **kwargs)
        start = time.perf_counter()
        for class_name, values in stream:
            wm.insert(class_name, values)
        elapsed = time.perf_counter() - start
        rows.append(
            {
                "configuration": label,
                "events": stream_length,
                "ms": elapsed * 1000,
                "us/event": elapsed * 1e6 / stream_length,
                "tuple_writes": strategy.counters.tuple_writes,
                "conflict_adds": strategy.conflict_set.additions,
            }
        )
        if db_path is not None:
            wm.catalog.close()
            if os.path.exists(db_path):
                os.unlink(db_path)
    return ("E8  persisted Rete memories: backend comparison (§3.2)", rows)


# ---------------------------------------------------------------------------
# E9 — §2.3: Basic Locking vs Predicate Indexing ([STON86a])
# ---------------------------------------------------------------------------


def report_e9(stream_length: int = 300) -> Report:
    """The [STON86a] trade-off: markers vs an R-tree predicate index.

    "Depending on the probability of updating base relations and the
    number of conditions that overlap ... the first or the second approach
    becomes more efficient."  Basic Locking pays marking work on every
    insert and stores markers on tuples; Predicate Indexing stores only
    condition boxes but searches the tree on every update.  The overlap
    knob is the shared-condition pool.
    """
    rows: list[dict] = []
    for overlap, pool in (("low", 0), ("high", 5)):
        spec = WorkloadSpec(
            rules=20,
            classes=4,
            shared_condition_pool=pool,
            seed=17,
        )
        workload = generate_program(spec)
        stream = inserts_as_events(
            generate_insert_stream(spec, stream_length)
        )
        for run in compare_strategies(
            workload.program, stream, ["markers", "predicate-index"]
        ):
            assert run.space is not None
            rows.append(
                {
                    "overlap": overlap,
                    "strategy": run.strategy,
                    "ms": run.wall_seconds * 1000,
                    "index_lookups": run.counters["index_lookups"],
                    "comparisons": run.counters["comparisons"],
                    "false_drops": run.counters["false_drops"],
                    "aux_cells": run.space.estimated_cells,
                    "conflict_adds": run.conflict_additions,
                }
            )
    return ("E9  Basic Locking vs Predicate Indexing (§2.3/[STON86a])", rows)


# ---------------------------------------------------------------------------
# A4 — §4.2.3: set-at-a-time delta propagation
# ---------------------------------------------------------------------------


def report_a4(
    stream_length: int = 300,
    batch_sizes: tuple[int, ...] = (1, 16, 64),
    strategy: str = "patterns",
) -> Report:
    """Batched vs tuple-at-a-time change propagation, per backend.

    Batch size 1 is the classic per-tuple path; larger batches route the
    same logical stream through ``WorkingMemory.apply_batch`` — grouped
    ``insert_many``/``delete_many`` storage writes (one SQL ``executemany``
    statement and one transaction per relation group on SQLite) and one
    ``on_delta`` maintenance call per batch.  The conflict set is
    identical in every row; the SQL statement count and wall time fall
    with batch size.
    """
    from repro.obs import Observability

    spec = WorkloadSpec(rules=15, classes=5, seed=23)
    workload = generate_program(spec)
    stream = inserts_as_events(generate_insert_stream(spec, stream_length))
    rows: list[dict] = []
    for backend in ("memory", "sqlite"):
        for batch_size in batch_sizes:
            obs = Observability(collect_metrics=True)
            run = run_stream(
                workload.program,
                stream,
                strategy,
                backend=backend,
                obs=obs,
                batch_size=batch_size,
            )
            snapshot = run.metrics or {}
            counter_values = snapshot.get("counters", {})
            rows.append(
                {
                    "backend": backend,
                    "batch": batch_size,
                    "ms": run.wall_seconds * 1000,
                    "us/event": run.wall_seconds * 1e6 / run.events,
                    "sql_stmts": counter_values.get(
                        "storage.sql_statements", 0
                    ),
                    "txns": counter_values.get("storage.transactions", 0),
                    "batches": counter_values.get("match.batches", 0),
                    "conflict_adds": run.conflict_additions,
                }
            )
    return ("A4  set-at-a-time delta propagation (§4.2.3)", rows)


# ---------------------------------------------------------------------------
# A5 — token-batched Rete propagation (§3.2 × §4.2.3)
# ---------------------------------------------------------------------------


def report_a5(
    stream_length: int = 300,
    batch_sizes: tuple[int, ...] = (1, 16, 64),
    strategies: tuple[str, ...] = (
        "rete", "rete-shared", "rete-dbms", "patterns"
    ),
) -> Report:
    """Set-at-a-time token propagation through the Rete network.

    The same churn stream (inserts + deletes) is driven at several batch
    sizes through the Rete family and, for reference, the matching-pattern
    strategy.  At batch size 1 the Rete strategies run the classic
    tuple-at-a-time propagation; larger batches push per-class token sets
    through the network — ``rete.join_probes`` counts the opposing-memory
    probes (at most one per two-input node per batch group) and
    ``node_activations`` falls accordingly.  The final conflict-set size
    is identical in every row.
    """
    from repro.obs import Observability
    from repro.workload.generator import mixed_stream

    spec = WorkloadSpec(rules=15, classes=5, seed=23)
    workload = generate_program(spec)
    stream = mixed_stream(spec, stream_length, delete_fraction=0.25)
    rows: list[dict] = []
    for strategy_name in strategies:
        for batch_size in batch_sizes:
            obs = Observability(collect_metrics=True)
            run = run_stream(
                workload.program,
                stream,
                strategy_name,
                obs=obs,
                batch_size=batch_size,
            )
            counter_values = (run.metrics or {}).get("counters", {})
            rows.append(
                {
                    "strategy": strategy_name,
                    "batch": batch_size,
                    "ms": run.wall_seconds * 1000,
                    "us/event": run.wall_seconds * 1e6 / run.events,
                    "activations": run.counters["node_activations"],
                    "comparisons": run.counters["comparisons"],
                    "join_probes": counter_values.get("rete.join_probes", 0),
                    "batches": counter_values.get("match.batches", 0),
                    "conflict_size": run.conflict_size,
                }
            )
    return ("A5  token-batched Rete propagation (§3.2 × §4.2.3)", rows)


# ---------------------------------------------------------------------------
# A7 — compiled match kernels vs the interpreted reference
# ---------------------------------------------------------------------------


def report_a7(
    stream_length: int = 1000,
    batch_sizes: tuple[int, ...] = (1, 64),
    strategies: tuple[str, ...] = ("rete", "rete-shared", "patterns"),
    inventories: tuple[int, ...] = (250, 1000),
) -> Report:
    """Per-rule compiled kernels against the interpreted AST walk.

    The A5 churn workload is driven through each strategy twice — on the
    interpreted reference scan (:mod:`repro.check.reference`) and on the
    production path (generated alpha tests plus join kernels probing the
    memories' persistent hash indexes).  ``comparisons`` counts
    interpreter-dispatch operations:
    one per predicate/test evaluation interpreted, one per in-bucket
    residual compiled; ``probes/event`` is the compiled run's
    ``comparisons + index_lookups`` per event.  Conflict sets are
    bit-identical in every paired row; only the operation counts and
    wall-clock change.

    The ``inventory`` rows run tuple-at-a-time over
    :data:`INVENTORY_PROGRAM` with a resident inventory of that many
    tuples: a scan's cost per event grows with the inventory, an indexed
    probe's does not — ``probes/event`` stays flat as the inventory grows
    fourfold (gated by ``tools/bench_smoke.py``).  That holds for the
    Rete memories' join indexes and for the matching patterns' COND shape
    directories alike (the latter are not a compiled feature, so a
    ``patterns`` row probes the same in both columns).
    """
    from repro.obs import Observability
    from repro.workload.generator import mixed_stream

    spec = WorkloadSpec(rules=15, classes=5, seed=23)
    program = generate_program(spec).program
    stream = mixed_stream(spec, stream_length, delete_fraction=0.25)
    workloads = [(program, stream, size, "-") for size in batch_sizes]
    for inventory in inventories:
        events = inventory_events(inventory, stream_length // 4, seed=23)
        workloads.append((INVENTORY_PROGRAM, events, 1, inventory))
    rows: list[dict] = []
    for strategy_name in strategies:
        for source, events, batch_size, inventory in workloads:
            reference, compiled = (
                run_stream(
                    source,
                    events,
                    strategy_name,
                    obs=Observability(collect_metrics=True),
                    batch_size=batch_size,
                    reference=is_reference,
                )
                for is_reference in (True, False)
            )
            assert compiled.conflict_size == reference.conflict_size
            interp_cmp = reference.counters["comparisons"]
            compiled_cmp = compiled.counters["comparisons"]
            rows.append(
                {
                    "strategy": strategy_name,
                    "batch": batch_size,
                    "inventory": inventory,
                    "interp_cmp": interp_cmp,
                    "compiled_cmp": compiled_cmp,
                    "cmp_ratio": (
                        interp_cmp / compiled_cmp if compiled_cmp else 0.0
                    ),
                    "probes/event": (
                        compiled_cmp + compiled.counters["index_lookups"]
                    ) / len(events),
                    "interp_ms": reference.wall_seconds * 1000,
                    "compiled_ms": compiled.wall_seconds * 1000,
                    "conflict_size": compiled.conflict_size,
                }
            )
    return ("A7  compiled match kernels vs interpreted (CORGI-bounded)", rows)


# ---------------------------------------------------------------------------
# A6 — WAL overhead and crash-recovery time
# ---------------------------------------------------------------------------


def report_a6(
    cycles: int = 120,
    fsync_everys: tuple[int, ...] = (1, 64),
    checkpoint_every: int = 25,
) -> Report:
    """The durability tax and what buys it back (§5 commit points).

    The same counter program runs WAL-off, WAL-attached at several fsync
    cadences, and WAL + periodic checkpoints; each durable log is then
    recovered cold.  ``run_ms`` shows the logging overhead (dominated by
    fsync cadence), ``recover_ms``/``replayed`` show how the checkpoint
    fast path shortens replay, and the WM is identical in every row.
    """
    import os
    import tempfile

    from repro.obs import Observability
    from repro.recovery import DurableRun, recover
    from repro.workload.programs import counter_program

    source = counter_program(cycles)
    config = {
        "strategy": "rete",
        "resolution": "lex",
        "backend": "memory",
        "seed": 0,
    }

    def build(obs=None):
        system = ProductionSystem(source, obs=obs)
        system.insert("Counter", {"value": 0, "limit": cycles})
        return system

    rows: list[dict] = []
    started = time.perf_counter()
    plain = build()
    plain.run()
    rows.append(
        {
            "mode": "wal off",
            "run_ms": (time.perf_counter() - started) * 1000,
            "wal_kb": 0.0,
            "fsyncs": 0,
            "recover_ms": 0.0,
            "replayed": 0,
            "wm": plain.wm.size(),
        }
    )

    modes = [(f"wal fsync={n}", n, 0) for n in fsync_everys]
    modes.append((f"wal+ckpt every {checkpoint_every}", max(fsync_everys),
                  checkpoint_every))
    with tempfile.TemporaryDirectory() as directory:
        for index, (mode, fsync_every, ckpt_every) in enumerate(modes):
            wal = os.path.join(directory, f"a6-{index}.wal")
            ckpt = wal + ".ckpt" if ckpt_every else None
            obs = Observability(collect_metrics=True)
            system = build(obs=obs)
            started = time.perf_counter()
            run = DurableRun.start(
                system, wal, source, config,
                fsync_every=fsync_every,
                checkpoint_path=ckpt,
                checkpoint_every=ckpt_every,
            )
            run.run()
            run.close()
            run_ms = (time.perf_counter() - started) * 1000
            counters = obs.metrics.snapshot()["counters"]
            started = time.perf_counter()
            state = recover(wal, ckpt)
            recover_ms = (time.perf_counter() - started) * 1000
            rows.append(
                {
                    "mode": mode,
                    "run_ms": run_ms,
                    "wal_kb": counters.get("recovery.wal_bytes", 0) / 1024,
                    "fsyncs": counters.get("recovery.fsyncs", 0),
                    "recover_ms": recover_ms,
                    "replayed": state.replayed_batches,
                    "wm": state.system.wm.size(),
                }
            )
    return ("A6  WAL overhead & crash recovery (§5 durability)", rows)


# ---------------------------------------------------------------------------
# A9 — multi-tenant serving: throughput, tail latency, crash recovery
# ---------------------------------------------------------------------------


def report_a9(
    events_per_tenant: int = 150,
    tenants: int = 2,
) -> Report:
    """The serving profile: k8s-auto-fix events through ``repro serve``.

    An in-process :class:`~repro.serve.server.RuleServer` hosts *tenants*
    sessions sharing one k8s-auto-fix rule pack (docs/SERVING.md).  Each
    tenant streams its inventory plus *events_per_tenant* cluster events
    over a real TCP connection, one request per ack, so every latency
    sample spans parse → apply → recognize-act → group-commit fsync.
    After the stream the server is *abandoned* — logs dropped without the
    final sync or checkpoint, the in-process stand-in for ``kill -9`` —
    and a second server recovers the data directory cold.

    Wall-clock columns (``events/s``, ``p50/p99``, ``recover_ms``) are
    trajectory-only; the gated columns are deterministic in the seed:
    ``applied_seq`` (exactly-once high-water mark survives the crash),
    ``remediations``/``tickets``/``wm`` (the pack's fixed point), and
    ``events_left``/``shed`` (both must be zero — every event consumed,
    nothing shed at the nominal one-in-flight rate).
    """
    import asyncio
    import json
    import tempfile

    from repro.obs import Observability
    from repro.serve.server import RuleServer
    from repro.workload.k8s import (
        K8S_PROGRAM,
        as_requests,
        k8s_events,
        k8s_setup,
    )

    names = [f"tenant-{i}" for i in range(tenants)]
    streamed: dict[str, int] = {}

    async def drive(server: RuleServer) -> float:
        await server.start()

        async def run_tenant(index: int, name: str) -> None:
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )

            async def call(body: dict) -> dict:
                writer.write(json.dumps(body).encode() + b"\n")
                await writer.drain()
                return json.loads(await reader.readline())

            reply = await call(
                {"op": "attach", "tenant": name, "program": K8S_PROGRAM}
            )
            assert reply["ok"], reply
            ops = k8s_setup() + k8s_events(events_per_tenant, seed=index)
            for request in as_requests(name, ops):
                reply = await call(request)
                assert reply.get("durable"), reply
                streamed[name] = reply["seq"]
            writer.close()
            await writer.wait_closed()

        started = time.perf_counter()
        await asyncio.gather(
            *(run_tenant(i, name) for i, name in enumerate(names))
        )
        elapsed = time.perf_counter() - started
        # kill -9 stand-in: stop the loop machinery, then drop every log
        # on the floor — no final sync, no checkpoint, no clean close.
        server._stopping.set()
        server._work.set()
        if server._engine_task is not None:
            await server._engine_task
        if server._server is not None:
            server._server.close()
            await server._server.wait_closed()
        for name in server.registry.names():
            server.registry.get(name).run.abandon()
        return elapsed

    rows: list[dict] = []
    with tempfile.TemporaryDirectory() as directory:
        obs = Observability(collect_metrics=True)
        server = RuleServer(directory, obs=obs, checkpoint_rounds=16)
        elapsed = asyncio.run(drive(server))
        shed = server.admission.shed

        started = time.perf_counter()
        revived = RuleServer(directory, obs=Observability())
        recovered = revived.recover_all()
        recover_ms = (time.perf_counter() - started) * 1000
        assert recovered == names, (recovered, names)

        total = len(k8s_setup()) + events_per_tenant
        for name in names:
            session = revived.registry.get(name)
            stats = session.stats()
            assert stats["applied_seq"] == streamed[name] == total
            latency = obs.metrics.log2_histogram(
                f"serve.latency_us[{name}]"
            )
            rows.append(
                {
                    "tenant": name,
                    "events": events_per_tenant,
                    "events/s": (
                        tenants * events_per_tenant / elapsed
                        if elapsed
                        else 0.0
                    ),
                    "p50_ms": latency.percentile(0.50) / 1000,
                    "p99_ms": latency.percentile(0.99) / 1000,
                    "shed": shed,
                    "applied_seq": stats["applied_seq"],
                    "events_left": len(session.query("event")),
                    "remediations": len(session.query("remediation")),
                    "tickets": len(session.query("ticket")),
                    "wm": stats["wm_size"],
                    "recover_ms": recover_ms,
                }
            )
        for name in revived.registry.names():
            revived.registry.get(name).close()
    return ("A9  multi-tenant serving (docs/SERVING.md k8s-auto-fix)", rows)


# ---------------------------------------------------------------------------
# A10 — warm-standby replication: steady-state lag, promotion time
# ---------------------------------------------------------------------------


def report_a10(
    events_per_tenant: int = 120,
    tenants: int = 2,
) -> Report:
    """The replication profile: a primary/standby pair under k8s events.

    An in-process primary :class:`~repro.serve.server.RuleServer` ships
    every group-commit round to a second in-process server started with
    ``follow=HOST:PORT`` (docs/REPLICATION.md).  Each tenant streams its
    inventory plus all but the last of *events_per_tenant* cluster
    events over real TCP with the standby attached, so every ack spans
    parse → apply → group-commit fsync → ship → follower ack
    (semi-synchronous).  The primary is then abandoned mid-flight — the
    in-process ``kill -9`` stand-in — the standby is promoted over its
    own client connection, and the held-back final event lands on the
    promoted server, timing promotion-to-first-ack.

    Wall-clock columns (``events/s``, ``promote_ms``, ``first_ack_ms``)
    are trajectory-only; the gated columns are deterministic in the
    seed: ``lag_records`` (zero at steady state — semi-sync acks imply a
    caught-up standby), ``applied_seq`` (the full acked stream survives
    the failover), ``events_left``/``remediations``/``tickets``/``wm``
    (the pack's fixed point on the *promoted* server must equal the
    never-crashed run's), and ``epoch`` (exactly one promotion: 2).
    """
    import asyncio
    import json
    import os
    import tempfile

    from repro.obs import Observability
    from repro.serve.server import RuleServer
    from repro.workload.k8s import (
        K8S_PROGRAM,
        as_requests,
        k8s_events,
        k8s_setup,
    )

    names = [f"tenant-{i}" for i in range(tenants)]
    total_ops = len(k8s_setup()) + events_per_tenant
    results: dict[str, dict] = {}
    timings: dict[str, float] = {}

    async def connect(server: RuleServer):
        reader, writer = await asyncio.open_connection(
            server.host, server.port
        )

        async def call(body: dict) -> dict:
            writer.write(json.dumps(body).encode() + b"\n")
            await writer.drain()
            return json.loads(await reader.readline())

        return writer, call

    async def kill_in_process(server: RuleServer) -> None:
        # kill -9 stand-in (the A9 pattern): stop the loop machinery,
        # then drop every log on the floor — no final sync, no clean
        # close, no goodbye to the follower.
        server._stopping.set()
        server._work.set()
        if server._engine_task is not None:
            await server._engine_task
        if server._server is not None:
            server._server.close()
            await server._server.wait_closed()
        for name in server.registry.names():
            server.registry.get(name).run.abandon()

    async def drive(directory: str) -> None:
        primary = RuleServer(
            os.path.join(directory, "primary"),
            obs=Observability(collect_metrics=True),
            checkpoint_rounds=16,
        )
        await primary.start()
        standby = RuleServer(
            os.path.join(directory, "standby"),
            obs=Observability(),
            follow=f"{primary.host}:{primary.port}",
            takeover_deadline=0.0,  # promotion is explicit, and timed
        )
        await standby.start()
        while primary.shipper.link is None:  # handshake races start()
            await asyncio.sleep(0.01)

        held_back: dict[str, dict] = {}

        async def run_tenant(index: int, name: str) -> None:
            writer, call = await connect(primary)
            reply = await call(
                {"op": "attach", "tenant": name, "program": K8S_PROGRAM}
            )
            assert reply["ok"], reply
            ops = k8s_setup() + k8s_events(events_per_tenant, seed=index)
            requests = as_requests(name, ops)
            held_back[name] = requests.pop()
            for request in requests:
                reply = await call(request)
                assert reply.get("durable"), reply
            writer.close()
            await writer.wait_closed()

        started = time.perf_counter()
        await asyncio.gather(
            *(run_tenant(i, name) for i, name in enumerate(names))
        )
        timings["stream_s"] = time.perf_counter() - started

        # Steady state: semi-sync acks mean the standby trails by zero
        # records the moment the last client ack lands.
        writer, call = await connect(standby)
        status = await call({"op": "status"})
        lag_records = status["replication"]["lag_records"]
        assert not primary.shipper.degraded, "replication degraded"

        await kill_in_process(primary)

        started = time.perf_counter()
        reply = await call({"op": "promote"})
        timings["promote_ms"] = (time.perf_counter() - started) * 1000
        assert reply["ok"] and reply["epoch"] >= 2, reply
        first_ack = None
        for name in names:
            acked = await call(held_back[name])
            assert acked.get("durable"), acked
            if first_ack is None:
                first_ack = (time.perf_counter() - started) * 1000
        timings["first_ack_ms"] = first_ack
        writer.close()
        await writer.wait_closed()

        for name in names:
            session = standby.registry.get(name)
            stats = session.stats()
            results[name] = {
                "lag_records": lag_records,
                "applied_seq": stats["applied_seq"],
                "events_left": len(session.query("event")),
                "remediations": len(session.query("remediation")),
                "tickets": len(session.query("ticket")),
                "wm": stats["wm_size"],
                "epoch": standby.epoch,
            }
        await kill_in_process(standby)

    rows: list[dict] = []
    with tempfile.TemporaryDirectory() as directory:
        asyncio.run(drive(directory))
        for name in names:
            final = results[name]
            assert final["applied_seq"] == total_ops, (name, final)
            rows.append(
                {
                    "tenant": name,
                    "events": events_per_tenant,
                    "events/s": (
                        tenants * (total_ops - 1) / timings["stream_s"]
                        if timings["stream_s"]
                        else 0.0
                    ),
                    "promote_ms": timings["promote_ms"],
                    "first_ack_ms": timings["first_ack_ms"],
                    **final,
                }
            )
    return ("A10 warm-standby failover (docs/REPLICATION.md)", rows)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

REPORTS = {
    "f1": report_f1,
    "a4": report_a4,
    "a5": report_a5,
    "a6": report_a6,
    "a7": report_a7,
    "a9": report_a9,
    "a10": report_a10,
    "e1": report_e1,
    "e2": report_e2,
    "e3": report_e3,
    "e4": report_e4,
    "e6": report_e6,
    "e7": report_e7,
    "e8": report_e8,
    "e9": report_e9,
}


def main(argv: list[str] | None = None) -> str:
    """Run the selected (default: all) reports; returns the printed text."""
    names = [a.lower() for a in (argv if argv is not None else sys.argv[1:])]
    selected = names or sorted(REPORTS)
    blocks: list[str] = []
    for name in selected:
        if name not in REPORTS:
            raise SystemExit(
                f"unknown experiment {name!r}; choose from {sorted(REPORTS)}"
            )
        title, rows = REPORTS[name]()
        blocks.append(render_table(rows, title=title))
    blocks.append(repro_footer(CORE_STRATEGIES))
    output = "\n\n".join(blocks)
    print(output)
    return output


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Nightly bench smoke: reduced A5–A10 runs plus a regression gate.

Runs the A5 (token-batched Rete propagation), A6 (WAL overhead and
crash recovery), A7 (compiled match kernels vs the interpreted walk),
A9 (multi-tenant serving over the k8s-auto-fix workload) and A10
(warm-standby replication and kill -9 failover) experiments at a
fraction of their report budgets and writes a ``BENCH_obs.json``
trajectory artifact: every row with its wall-clock figures (recorded
for trend charts, never gated — CI runners are noisy) and a ``gate``
section of *deterministic operation counts* (node activations,
comparisons, join probes, batches, fsyncs, replayed batches, final
WM/conflict sizes).

The A9 rows carry a baseline-free acceptance check: nothing shed at the
nominal one-in-flight rate, every event consumed at quiescence, and
every tenant's exactly-once ``applied_seq`` recovered intact after the
in-process ``kill -9`` stand-in.  The A10 rows gate the replication
invariants the same way: zero steady-state lag under semi-sync acks,
the full acked stream surviving promotion, and exactly one fencing
epoch bump.  The A7 inventory rows gate the indexed join memories and,
through their ``patterns`` rows, the COND shape directories: the
compiled ``comparisons + index_lookups`` per event must grow less than
1.5x when the resident inventory grows 4x (a scan grows 4x).

With ``--baseline PREV.json`` the gate compares those counts against the
previous trajectory and fails (exit 1) when any grew more than the
tolerance (default 20%) — the nightly job's definition of a perf
regression that survives runner noise.  Without a baseline it only
writes the artifact (first night, or after an intentional reset)::

    PYTHONPATH=src python tools/bench_smoke.py --out BENCH_obs.json \
        [--baseline previous/BENCH_obs.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import time

#: Allowed relative growth of a gated count before the smoke fails.
DEFAULT_TOLERANCE = 0.20

#: Deterministic row columns gated per experiment; everything else in a
#: row (ms, us/event, run_ms, recover_ms) is trajectory-only.
GATED_COLUMNS = {
    "a5": ("activations", "comparisons", "join_probes", "batches",
           "conflict_size"),
    "a6": ("fsyncs", "replayed", "wm"),
    "a7": ("interp_cmp", "compiled_cmp", "conflict_size"),
    "a9": ("applied_seq", "events_left", "remediations", "tickets", "wm",
           "shed"),
    "a10": ("lag_records", "applied_seq", "events_left", "remediations",
            "tickets", "wm", "epoch"),
}

#: Resident inventory sizes of the A7 tuple-at-a-time rows (a 4x step),
#: and how much the compiled probe count per event may grow across it.
INVENTORIES = (150, 600)
INDEXED_GROWTH_BOUND = 1.5


def collect(stream_length: int, cycles: int, serve_events: int = 60) -> dict:
    """Run the reduced experiments and assemble the trajectory payload."""
    from repro.bench.report import (
        report_a5,
        report_a6,
        report_a7,
        report_a9,
        report_a10,
    )

    title_a5, rows_a5 = report_a5(
        stream_length=stream_length,
        batch_sizes=(1, 16),
        strategies=("rete", "rete-shared", "patterns"),
    )
    title_a6, rows_a6 = report_a6(cycles=cycles, fsync_everys=(64,),
                                  checkpoint_every=20)
    title_a7, rows_a7 = report_a7(
        stream_length=stream_length,
        batch_sizes=(64,),
        strategies=("rete", "rete-shared", "patterns"),
        inventories=INVENTORIES,
    )
    title_a9, rows_a9 = report_a9(events_per_tenant=serve_events, tenants=2)
    title_a10, rows_a10 = report_a10(events_per_tenant=serve_events,
                                     tenants=2)
    payload = {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "budget": {"a5_stream_length": stream_length, "a6_cycles": cycles,
                   "a7_stream_length": stream_length,
                   "a9_events_per_tenant": serve_events,
                   "a10_events_per_tenant": serve_events},
        "a5": {"title": title_a5, "rows": rows_a5},
        "a6": {"title": title_a6, "rows": rows_a6},
        "a7": {"title": title_a7, "rows": rows_a7},
        "a9": {"title": title_a9, "rows": rows_a9},
        "a10": {"title": title_a10, "rows": rows_a10},
        "gate": {},
    }
    gate = payload["gate"]
    for row in rows_a5:
        label = f"a5[{row['strategy']}/batch={row['batch']}]"
        for column in GATED_COLUMNS["a5"]:
            gate[f"{label}.{column}"] = row[column]
    for row in rows_a6:
        label = f"a6[{row['mode']}]"
        for column in GATED_COLUMNS["a6"]:
            gate[f"{label}.{column}"] = row[column]
    for row in rows_a7:
        inventory = (
            "" if row["inventory"] == "-" else f"/inv={row['inventory']}"
        )
        label = f"a7[{row['strategy']}/batch={row['batch']}{inventory}]"
        for column in GATED_COLUMNS["a7"]:
            gate[f"{label}.{column}"] = row[column]
    for row in rows_a9:
        label = f"a9[{row['tenant']}]"
        for column in GATED_COLUMNS["a9"]:
            gate[f"{label}.{column}"] = row[column]
    for row in rows_a10:
        label = f"a10[{row['tenant']}]"
        for column in GATED_COLUMNS["a10"]:
            gate[f"{label}.{column}"] = row[column]
    return payload


def indexing_failures(
    payload: dict, bound: float = INDEXED_GROWTH_BOUND
) -> list[str]:
    """A7 acceptance: a keyed probe costs a bucket, not the memory (Rete
    family) or the group (``patterns``).

    Per strategy, the compiled ``probes/event`` of the largest-inventory
    row over the smallest's must stay under *bound* although the
    inventory grew 4x.  Operation counts are deterministic, so this
    needs no baseline.
    """
    rows = [
        row for row in payload.get("a7", {}).get("rows", [])
        if row["inventory"] != "-"
    ]
    if not rows:
        return ["a7: no inventory rows produced"]
    failures = []
    for strategy in sorted({row["strategy"] for row in rows}):
        mine = sorted(
            (row for row in rows if row["strategy"] == strategy),
            key=lambda row: row["inventory"],
        )
        small, large = mine[0], mine[-1]
        growth = large["probes/event"] / small["probes/event"]
        if large["inventory"] < 4 * small["inventory"] or growth >= bound:
            failures.append(
                f"a7[{strategy}]: compiled probes/event grew {growth:.2f}x "
                f"({small['probes/event']:.1f} -> {large['probes/event']:.1f}) "
                f"from inventory {small['inventory']} to {large['inventory']}"
                f" (bound {bound}x over a 4x inventory)"
            )
    return failures


def serving_failures(payload: dict) -> list[str]:
    """A9 acceptance: the serving invariants hold, no baseline needed.

    Every column here is deterministic in the workload seed, so a
    violation is a real serving bug (shed at nominal load, an event the
    pack failed to consume, or an exactly-once mark lost across the
    crash), never runner noise.
    """
    from repro.workload.k8s import k8s_setup

    rows = payload.get("a9", {}).get("rows", [])
    if not rows:
        return ["a9: no serving rows produced"]
    inventory = len(k8s_setup())
    failures = []
    for row in rows:
        tenant = row["tenant"]
        if row["shed"]:
            failures.append(
                f"a9[{tenant}]: {row['shed']} ops shed at the nominal rate"
            )
        if row["events_left"]:
            failures.append(
                f"a9[{tenant}]: {row['events_left']} events unconsumed "
                "at quiescence"
            )
        if row["applied_seq"] != row["events"] + inventory:
            failures.append(
                f"a9[{tenant}]: recovered applied_seq {row['applied_seq']} "
                f"!= acked stream {row['events'] + inventory}"
            )
    return failures


def replication_failures(payload: dict) -> list[str]:
    """A10 acceptance: the failover invariants hold, no baseline needed.

    Zero steady-state lag, the full acked stream surviving the
    ``kill -9`` / promote failover, and exactly one epoch bump are all
    deterministic in the workload seed; a violation is a replication
    bug (a record the standby never applied, a lost exactly-once mark,
    or a double promotion), never runner noise.
    """
    from repro.workload.k8s import k8s_setup

    rows = payload.get("a10", {}).get("rows", [])
    if not rows:
        return ["a10: no replication rows produced"]
    inventory = len(k8s_setup())
    failures = []
    for row in rows:
        tenant = row["tenant"]
        if row["lag_records"]:
            failures.append(
                f"a10[{tenant}]: {row['lag_records']} records of "
                "steady-state lag under semi-sync acks"
            )
        if row["applied_seq"] != row["events"] + inventory:
            failures.append(
                f"a10[{tenant}]: promoted applied_seq {row['applied_seq']} "
                f"!= acked stream {row['events'] + inventory}"
            )
        if row["events_left"]:
            failures.append(
                f"a10[{tenant}]: {row['events_left']} events unconsumed "
                "on the promoted standby"
            )
        if row["epoch"] != 2:
            failures.append(
                f"a10[{tenant}]: fencing epoch {row['epoch']} after one "
                "promotion (expected 2)"
            )
    return failures


def compare(baseline: dict, current: dict, tolerance: float) -> list[str]:
    """Gate current counts against the baseline; returns failure lines."""
    failures: list[str] = []
    for name, base_value in sorted(baseline.get("gate", {}).items()):
        value = current["gate"].get(name)
        if value is None:
            failures.append(f"{name}: disappeared (baseline={base_value})")
            continue
        if value > base_value + abs(base_value) * tolerance:
            grown = (
                (value - base_value) / base_value * 100.0
                if base_value
                else float("inf")
            )
            failures.append(
                f"{name}: grew {grown:.1f}% "
                f"(baseline={base_value}, current={value}, "
                f"tolerance={tolerance * 100:.0f}%)"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tools/bench_smoke.py", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--out", default="BENCH_obs.json",
                        help="trajectory artifact to write")
    parser.add_argument("--baseline", default=None,
                        help="previous trajectory to gate against")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE)
    parser.add_argument("--stream-length", type=int, default=120,
                        help="A5 churn-stream length (default: 120)")
    parser.add_argument("--cycles", type=int, default=60,
                        help="A6 counter cycles (default: 60)")
    parser.add_argument("--serve-events", type=int, default=60,
                        help="A9 events per tenant (default: 60)")
    args = parser.parse_args(argv)

    current = collect(args.stream_length, args.cycles, args.serve_events)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(current, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"trajectory written: {args.out} "
          f"({len(current['gate'])} gated counts)")

    failures = (indexing_failures(current) + serving_failures(current)
                + replication_failures(current))
    if failures:
        print("bench smoke gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1

    if args.baseline is None:
        print("no baseline given; gate skipped")
        return 0
    with open(args.baseline, encoding="utf-8") as handle:
        baseline = json.load(handle)
    failures = compare(baseline, current, args.tolerance)
    if not failures:
        print(f"bench smoke gate passed "
              f"(vs {baseline.get('generated_at', 'unknown')})")
        return 0
    print("bench smoke gate FAILED:", file=sys.stderr)
    for failure in failures:
        print(f"  {failure}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())

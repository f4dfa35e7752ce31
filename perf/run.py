#!/usr/bin/env python3
"""The served-event benchmark: one command, every metric by name.

    python perf/run.py                      # every workload, both passes
    python perf/run.py --workload join_churn --seed 12
    python perf/run.py --smoke              # 2 s measured, 1 s traced
    python perf/run.py --sweep k8s_fleet    # non-gated open-loop sweep
    python perf/run.py --workload W --seed N --seconds S --trace 0|1

The last form is the driver's: one workload, one pass, and the last
line of stdout is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``).  ``--trace 0`` measures the end-to-end metrics
against the real ``python -m repro.cli serve`` subprocess; ``--trace 1``
measures the per-layer metrics against ``perf/traced_server.py``.  See
``perf/README.md`` for what every name means.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

PERF = Path(__file__).resolve().parent
sys.path.insert(0, str(PERF))

from procs import ROOT, SRC, Fleet  # noqa: E402

if not (SRC / "repro" / "cli.py").is_file():
    sys.exit(f"perf/run.py: no program to measure: {SRC}/repro is missing")
sys.path.insert(0, str(SRC))

import layers  # noqa: E402
from loadgen import open_loop, ping_rtt_us  # noqa: E402
from rig import CheckFailed, Phase, Rig  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

RUNS = PERF / "runs"
KEEP_RUNS = 8
WINDOWS = 5
#: Generator CPU ÷ wall above this means the generator, not the server,
#: set the pace: the run is refused.
GENERATOR_CPU_LIMIT = 0.5
#: Sweep steps (events/s), step length and the latency limit of the knee.
SWEEP_RATES = (100, 200, 300, 400, 500, 600, 700, 800)
SWEEP_STEP_S = 10.0
SWEEP_P99_LIMIT_MS = 50.0
#: join_churn's working memory may not drift further than this over the
#: measured interval, or later windows measure a different workload.
WM_DRIFT_LIMIT = 0.05


@dataclass(frozen=True)
class Plan:
    """How long, how often and (for ``--smoke``) how much smaller."""

    #: Measured interval of the end-to-end pass and of the traced pass.
    seconds: float = 10.0
    traced_seconds: float = 10.0
    #: Untraced interval inside the traced pass; tracing overhead is read
    #: against it.
    baseline_seconds: float = 3.0
    #: ``setup_s`` and ``recover_s`` are medians over this many.
    setups: int = 3
    recoveries: int = 3
    pings: int = 1000
    #: ``--smoke`` divides inventory, warm-up and checkpoint interval.
    shrink: int = 1


SMOKE = Plan(seconds=2.0, traced_seconds=1.0, baseline_seconds=0.5,
             setups=1, recoveries=1, pings=100, shrink=8)


def percentile(ordered: list[float], q: float) -> float:
    return ordered[min(len(ordered) - 1, int(len(ordered) * q))]


def window_medians(phase: Phase, seconds: float) -> dict:
    """Rate, p50 and p95 per window of the measured interval, then the
    median over windows, so one stall decides one window and not the run.

    The tail metric is the p95, not the p99: the slowest workload still
    leaves it ten samples beyond it in every window, and on the k8s
    workloads it sits inside the eighth of acks that wait for a
    checkpoint, where the p99 sits in that mode's own tail and spread
    20-28 % between runs of one commit.  The whole-interval p99 is
    printed beside the metrics and gates nothing.
    """
    acked = sorted(
        (done - phase.start, done - sent)
        for sent, done, good in phase.samples
        if good and done - phase.start <= seconds
    )
    width = seconds / WINDOWS
    windows = [
        sorted(lat for at, lat in acked
               if index * width <= at < (index + 1) * width)
        for index in range(WINDOWS)
    ]
    windows = [window for window in windows if window]
    latencies = sorted(lat for _, lat in acked)
    return {
        "events_per_s": statistics.median(len(w) / width for w in windows),
        "ack_p50_ms": statistics.median(
            percentile(w, 0.50) * 1e3 for w in windows),
        "ack_p95_ms": statistics.median(
            percentile(w, 0.95) * 1e3 for w in windows),
        "samples": len(acked),
        "beyond_p95_per_window": min(len(w) for w in windows) // 20,
        "ack_p99_ms": percentile(latencies, 0.99) * 1e3,
    }


def generator_share(phase: Phase) -> float:
    """Generator CPU ÷ wall over *phase*; refuses a generator-bound run."""
    share = phase.generator_cpu_s / (phase.end - phase.start)
    if share >= GENERATOR_CPU_LIMIT:
        raise CheckFailed(
            f"the load generator used {share:.2f} of a CPU: it, not the "
            "server, is setting the pace"
        )
    return share


async def wm_sizes(rig: Rig) -> dict[str, int]:
    status = await rig.clients[0].call(op="status")
    return {name: t["wm_size"] for name, t in status["tenants"].items()}


def check_wm_drift(workload, before: dict, after: dict) -> None:
    if workload.stream.__name__ != "JoinStream":
        return  # the k8s packs grow by design (tickets)
    for name, size in before.items():
        if abs(after[name] - size) > WM_DRIFT_LIMIT * size:
            raise CheckFailed(
                f"{name}: working memory went {size} -> {after[name]} "
                f"over the measured interval (limit {WM_DRIFT_LIMIT:.0%})"
            )


async def end_to_end(workload, seed: int, plan: Plan, run_dir: Path) -> dict:
    """The untraced pass: real ``repro serve``, end-to-end metrics only."""
    with Fleet() as fleet:
        setups = []
        for attempt in range(plan.setups):
            rig = Rig(fleet, workload, seed, run_dir / f"data{attempt}")
            await rig.setup()
            setups.append(rig.setup_s)
            if attempt < plan.setups - 1:
                await rig.kill()
                shutil.rmtree(rig.data_dir)
        await rig.stream_ops(workload.warm_ops)
        wm_before = await wm_sizes(rig)
        cpu = sum(s.cpu_seconds() for s in rig.servers())
        phase = await rig.stream(plan.seconds)
        cpu = sum(s.cpu_seconds() for s in rig.servers()) - cpu
        rss = sum(s.peak_rss_mib() for s in rig.servers())
        wm_after = await wm_sizes(rig)
        share = generator_share(phase)
        check_wm_drift(workload, wm_before, wm_after)
        await rig.settle()
        rig.check_states(await rig.states(), "primary")
        if workload.replicated:
            await rig.promote()
        else:
            await rig.kill()
        recovers = []
        for _ in range(plan.recoveries):
            recovers.append(await rig.recover())
    timing = window_medians(phase, plan.seconds)
    return {
        "metrics": {
            "events_per_s": timing["events_per_s"],
            "ack_p50_ms": timing["ack_p50_ms"],
            "ack_p95_ms": timing["ack_p95_ms"],
            "server_cpu_ms_per_event": cpu * 1e3 / phase.good,
            "server_peak_rss_mb": rss,
            "setup_s": statistics.median(setups),
            "recover_s": statistics.median(recovers),
        },
        "attempted": rig.attempted,
        "failed": rig.failed,
        "detail": {
            "samples": timing["samples"],
            "beyond_p95_per_window": timing["beyond_p95_per_window"],
            "ack_p99_ms": timing["ack_p99_ms"],
            "failed_share": rig.failed / rig.attempted,
            "generator_cpu_share": share,
            "setups_s": setups,
            "recovers_s": recovers,
            "wm_size_start": wm_before,
            "wm_size_end": wm_after,
        },
    }


def per_event(after: dict, before: dict, events: int, *names: str) -> float:
    """Growth of the summed counters *names* between two snapshots, per
    acked event."""
    return sum(
        after.get(name, 0) - before.get(name, 0) for name in names
    ) / events


async def traced(workload, seed: int, plan: Plan, run_dir: Path) -> dict:
    """The traced pass: per-layer metrics only.

    Three servers in a row: the real one for the untraced baseline and
    the ping floor; the traced one for warm-up, a *counted* segment of
    exactly ``count_ops`` ops per tenant (its operation counts repeat
    run to run) and the rest of the timed interval; the traced one again
    on the killed data dir for the recovery layer.
    """
    with Fleet() as fleet:
        base = Rig(fleet, workload, seed, run_dir / "base")
        await base.setup()
        ping_us = await ping_rtt_us(base.clients[0], plan.pings)
        await base.stream_ops(workload.warm_ops)
        baseline = await base.stream(plan.baseline_seconds)
        await base.kill()
        shutil.rmtree(base.data_dir)

        rig = Rig(fleet, workload, seed, run_dir / "traced", traced=True)
        await rig.setup()
        await rig.stream_ops(workload.warm_ops)
        client = rig.clients[0]
        status_a = await client.call(op="status")
        counted = await rig.stream_ops(workload.count_ops)
        status_b = await client.call(op="status")
        timed = await rig.stream(
            max(0.0, plan.traced_seconds - (counted.end - counted.start))
        )
        status_c = await client.call(op="status")
        await rig.settle()
        rig.check_states(await rig.states(), "traced primary")
        checkpoints = list((rig.data_dir / "primary").glob("*.ckpt"))
        checkpoint_bytes = statistics.mean(
            f.stat().st_size for f in checkpoints) if checkpoints else 0.0
        first_ack_ms = 0.0
        if workload.replicated:
            first_ack_ms = await rig.promote(signal.SIGTERM)
        else:
            await rig.kill(signal.SIGTERM)
        await rig.recover(signal.SIGTERM)

    spans = [layers.read_spans(path) for _, path in rig.span_files]
    roles = [role for role, _ in rig.span_files]
    for trace in spans:
        layers.check_nesting(trace)
    primary, recovered = spans[0], spans[-1]
    standby = spans[roles.index("standby")] if "standby" in roles else []

    window = (counted.start, timed.end)
    whole = Phase(counted.start, timed.end, counted.samples + timed.samples,
                  counted.generator_cpu_s + timed.generator_cpu_s)
    acked = whole.good
    metrics = layers.steady_state(primary, window, acked)
    metrics.update(layers.set_up(primary))
    metrics.update(layers.follower(standby, window, acked))
    metrics.update(layers.recovery(recovered))

    # Rates over the whole traced interval, from the server's own status.
    rounds = status_c["rounds"] - status_a["rounds"]
    admitted = {
        key: status_c["admission"][key] - status_a["admission"][key]
        for key in ("accepted", "deferred", "shed")
    }
    obs_a, obs_c = status_a["perf"]["metrics"], status_c["perf"]["metrics"]
    flushes = obs_c["serve.group_commits"] - obs_a["serve.group_commits"]
    metrics.update({
        "serve.server.round_ops": acked / rounds,
        "serve.server.rounds_per_s": rounds / (window[1] - window[0]),
        "serve.backpressure.defer_share":
            admitted["deferred"] / sum(admitted.values()),
        "serve.backpressure.shed_share":
            admitted["shed"] / sum(admitted.values()),
        "recovery.wal.group_members": (
            obs_c["serve.group_commit_members"]
            - obs_a["serve.group_commit_members"]) / flushes,
    })

    # Operation counts over the counted segment: exact, run to run.
    events = counted.good
    obs_a, obs_b = status_a["perf"]["metrics"], status_b["perf"]["metrics"]
    ops_a, ops_b = status_a["perf"]["instrument"], status_b["perf"]["instrument"]
    engine_a, engine_b = (
        {key: sum(tenant[key] for tenant in status["tenants"].values())
         for key in ("cycles", "fired")}
        for status in (status_a, status_b)
    )
    metrics.update({
        "match.deltas_per_event":
            per_event(obs_b, obs_a, events, "match.wm_events"),
        "match.activations_per_event": per_event(
            ops_b, ops_a, events,
            "node_activations", "patterns_created", "patterns_updated"),
        "match.join_probes_per_event": per_event(
            ops_b, ops_a, events,
            "comparisons", "index_lookups", "cond_searches"),
        "match.conflict_adds_per_event": (
            status_b["perf"]["conflict_adds"]
            - status_a["perf"]["conflict_adds"]) / events,
        "engine.cycles_per_event":
            per_event(engine_b, engine_a, events, "cycles"),
        "engine.fired_per_event":
            per_event(engine_b, engine_a, events, "fired"),
        "storage.statements_per_event":
            per_event(obs_b, obs_a, events, "storage.sql_statements"),
        "storage.txns_per_event":
            per_event(obs_b, obs_a, events, "storage.transactions"),
        "recovery.wal.records_per_event":
            per_event(obs_b, obs_a, events, "recovery.wal_records"),
        "recovery.wal.bytes_per_event":
            per_event(obs_b, obs_a, events, "recovery.wal_bytes"),
        "recovery.wal.fsyncs_per_event":
            per_event(obs_b, obs_a, events, "recovery.fsyncs"),
        "replica.shipped_bytes_per_event":
            per_event(obs_b, obs_a, events, "replica.shipped_bytes"),
    })

    # Tracing overhead: the same ops, the same stretch after warm-up.
    span = plan.baseline_seconds
    traced_rate = sum(
        1 for _, done, good in whole.samples
        if good and done - whole.start <= span
    ) / span
    untraced_rate = sum(
        1 for _, done, good in baseline.samples
        if good and done - baseline.start <= span
    ) / span
    metrics.update({
        "serve.server.ping_rtt_us": ping_us,
        "engine.wm.size_end": statistics.mean(
            t["wm_size"] for t in status_c["tenants"].values()),
        "recovery.checkpoint.bytes": checkpoint_bytes,
        "replica.promote_to_first_ack_ms": first_ack_ms,
        "trace.overhead_share": 1 - traced_rate / untraced_rate,
        "loadgen.cpu_share": generator_share(whole),
    })
    return {
        "metrics": metrics,
        "attempted": base.attempted + rig.attempted,
        "failed": base.failed + rig.failed,
        "detail": {
            "acked": acked,
            "counted_events": events,
            "spans": [[role, len(trace)] for role, trace in zip(roles, spans)],
            "untraced_events_per_s": untraced_rate,
            "traced_events_per_s": traced_rate,
            "match_rete_spans": sum(
                1 for s in primary if s[0].startswith("repro.match.rete")),
        },
        "span_files": [str(path) for _, path in rig.span_files],
    }


# -- fingerprint, run directories, output ----------------------------------------


def fsync_median_us(directory: Path, repeats: int = 50) -> float:
    """Median of *repeats* 4 KiB write+fsync pairs in *directory*: what
    one durable write costs on this filesystem (not on a device)."""
    path = directory / "fsync-probe"
    times = []
    with open(path, "wb") as handle:
        for _ in range(repeats):
            started = time.perf_counter()
            handle.write(b"x" * 4096)
            handle.flush()
            os.fsync(handle.fileno())
            times.append(time.perf_counter() - started)
    path.unlink()
    return statistics.median(times) * 1e6


def filesystem_of(directory: Path) -> str:
    best = ("", "unknown")
    for line in Path("/proc/mounts").read_text().splitlines():
        _device, mount, kind = line.split()[:3]
        if str(directory).startswith(mount) and len(mount) > len(best[0]):
            best = (mount, kind)
    return best[1]


def fingerprint(directory: Path) -> dict:
    cpu = "unknown"
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu = line.partition(":")[2].strip()
            break
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True,
        )
        sha = git.stdout.strip() if git.returncode == 0 else None
    except OSError:  # no git here; the driver's checkout is not a repository
        sha = None
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha,
        "data_dir_filesystem": filesystem_of(directory),
        "fsync_median_us": fsync_median_us(directory),
    }


def new_run_dir(workload: str, kind: str, seed: int) -> Path:
    """``perf/runs/{run_id}``; older run directories beyond the newest
    ``KEEP_RUNS`` are removed so repeated runs do not fill the disk."""
    RUNS.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    run_dir = RUNS / f"{stamp}-{workload}-{kind}-s{seed}-{os.getpid()}"
    run_dir.mkdir()
    for old in sorted(RUNS.iterdir(), key=lambda d: d.stat().st_mtime)[:-KEEP_RUNS]:
        shutil.rmtree(old, ignore_errors=True)
    return run_dir


def run_pass(workload_name: str, seed: int, plan: Plan, trace: bool) -> dict:
    """One workload, one pass, one run directory.  The result's
    ``correct`` is False (with ``error``) when a check failed."""
    workload = WORKLOADS[workload_name]
    if plan.shrink > 1:
        workload = workload.shrunk(plan.shrink)
    run_dir = new_run_dir(workload_name, "traced" if trace else "e2e", seed)
    manifest = {
        "run_id": run_dir.name,
        "workload": workload_name,
        "why": workload.why,
        "pass": "traced" if trace else "end_to_end",
        "seed": seed,
        "plan": vars(plan),
        "connections": [list(group) for group in workload.connections],
        "server_args": workload.server_args(),
        "attach_config": workload.config,
        **fingerprint(run_dir),
    }
    try:
        result = asyncio.run(
            (traced if trace else end_to_end)(workload, seed, plan, run_dir)
        )
        result["correct"] = result["failed"] == 0
    except CheckFailed as failure:
        result = {"correct": False, "error": str(failure), "metrics": {},
                  "attempted": 1, "failed": 1, "detail": {}}
    names = PER_LAYER if trace else END_TO_END
    result["metrics"] = {
        name: {"value": result["metrics"][name], "unit": names[name]["unit"]}
        for name in names if name in result["metrics"]
    }
    for index, path in enumerate(result.pop("span_files", [])):
        shutil.move(path, run_dir / ("spans.jsonl" if index == 0
                                     else f"spans-{index}.jsonl"))
    for leftover in run_dir.iterdir():
        if leftover.is_dir():
            shutil.rmtree(leftover)
    (run_dir / "manifest.json").write_text(json.dumps(manifest, indent=2))
    (run_dir / "metrics.json").write_text(json.dumps(result, indent=2))
    result["manifest"] = manifest
    return result


def print_metrics(workload: str, result: dict) -> None:
    """One line per ``workload metric value unit``."""
    for name, metric in result["metrics"].items():
        print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")
    detail = result["detail"]
    if "samples" in detail:
        print(f"# {workload}: {detail['samples']} samples, >= "
              f"{detail['beyond_p95_per_window']} beyond the p95 in every "
              f"window; whole-interval p99 {detail['ack_p99_ms']:.4g} ms "
              f"(not gated); failed_share {detail['failed_share']:.4f}")
    if not result["correct"]:
        print(f"# {workload}: INCORRECT: {result.get('error', 'failed ops')}")


# -- the non-gated open-loop sweep ---------------------------------------------


async def sweep(workload, seed: int, run_dir: Path) -> list[dict]:
    """Open loop at fixed rates on the same 2 connections: latency from
    each request's due time, generator lateness, and the knee."""
    rows = []
    with Fleet() as fleet:
        rig = Rig(fleet, workload, seed, run_dir / "data")
        await rig.setup()
        await rig.stream_ops(workload.warm_ops)
        for rate in SWEEP_RATES:
            steps = await asyncio.gather(*(
                open_loop(client, group, rate / len(rig.groups), SWEEP_STEP_S)
                for client, group in zip(rig.clients, rig.groups)
            ))
            latencies = sorted(x for s in steps for x in s["latencies"])
            lateness = sorted(x for s in steps for x in s["lateness"])
            # A backlog is growing when the last requests of the step wait
            # far longer than the typical one did.
            backlog = max(s["backlog_s"] for s in steps)
            row = {
                "rate": rate,
                "sent": len(latencies),
                "good": sum(s["good"] for s in steps),
                "p50_ms": percentile(latencies, 0.50) * 1e3,
                "p99_ms": percentile(latencies, 0.99) * 1e3,
                "generator_lateness_p99_ms": percentile(lateness, 0.99) * 1e3,
                "end_backlog_ms": backlog * 1e3,
            }
            row["sustained"] = (
                row["p99_ms"] <= SWEEP_P99_LIMIT_MS
                and row["end_backlog_ms"] <= SWEEP_P99_LIMIT_MS
                and row["good"] == row["sent"]
            )
            rows.append(row)
            print(f"{workload.name} sweep rate={rate}/s sent={row['sent']} "
                  f"p50={row['p50_ms']:.2f}ms p99={row['p99_ms']:.2f}ms "
                  f"lateness_p99={row['generator_lateness_p99_ms']:.2f}ms "
                  f"end_backlog={row['end_backlog_ms']:.1f}ms "
                  f"{'ok' if row['sustained'] else 'over'}", flush=True)
        rig.check_states(await rig.states(), "swept primary")
        await rig.kill()
    knee = max((r["rate"] for r in rows if r["sustained"]), default=0)
    print(f"{workload.name} sweep knee {knee} 1/s "
          f"(highest step with p99 <= {SWEEP_P99_LIMIT_MS:g} ms, "
          "no growing backlog)")
    return rows


# -- the command -----------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(
        description="The served-event benchmark (see perf/README.md)."
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float,
                        help="measured interval (default 10)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver mode: one pass, JSON on the last line")
    parser.add_argument("--smoke", action="store_true",
                        help="2 s measured, 1 s traced, shrunken workloads")
    parser.add_argument("--sweep", choices=sorted(WORKLOADS), metavar="WORKLOAD",
                        help="non-gated open-loop sweep of one workload")
    parser.add_argument("--out", type=Path,
                        help="append this invocation's run to a result set "
                             "(for perf/agree.py)")
    args = parser.parse_args()

    plan = SMOKE if args.smoke else Plan()
    if args.seconds is not None:
        plan = Plan(seconds=args.seconds, traced_seconds=args.seconds,
                    baseline_seconds=max(1.0, 0.3 * args.seconds))

    if args.sweep:
        run_dir = new_run_dir(args.sweep, "sweep", args.seed)
        rows = asyncio.run(sweep(WORKLOADS[args.sweep], args.seed, run_dir))
        shutil.rmtree(run_dir / "data", ignore_errors=True)
        (run_dir / "metrics.json").write_text(json.dumps(rows, indent=2))
        return 0

    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        result = run_pass(args.workload, args.seed, plan, bool(args.trace))
        print_metrics(args.workload, result)
        print(json.dumps({
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result["metrics"],
        }))
        return 0

    names = [args.workload] if args.workload else list(WORKLOADS)
    run = {}
    correct = True
    for name in names:
        run[name] = {}
        for trace in (False, True):
            result = run_pass(name, args.seed, plan, trace)
            print_metrics(name, result)
            sys.stdout.flush()
            correct = correct and result["correct"]
            run[name]["per_layer" if trace else "end_to_end"] = {
                key: metric["value"] for key, metric in result["metrics"].items()
            }
            run[name].setdefault("manifests", []).append(result["manifest"])
            run[name].setdefault("detail", {}).update(result["detail"])
    if args.out:
        results = (json.loads(args.out.read_text()) if args.out.exists()
                   else {"runs": []})
        results["runs"].append(run)
        args.out.write_text(json.dumps(results, indent=1) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Render a result set as the markdown tables of ``perf/README.md``.

    python perf/tables.py perf/results/seed-a.json

One column per workload, one row per metric, medians over the set's
runs; every number in the README's baseline section comes from here.
The third table is the latency budget: each layer's share of the
server's busy time per event (the ``_us`` self times; the fsync is
``fsync_us`` x ``fsyncs_per_event``).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def table(results: dict, group: str, metrics: list[dict]) -> str:
    lines = [
        "| metric | unit | " + " | ".join(f"`{w}`" for w in WORKLOADS) + " |",
        "|---|---|" + "---:|" * len(WORKLOADS),
    ]
    for metric in metrics:
        cells = []
        for workload in WORKLOADS:
            values = [run[workload][group][metric["name"]]
                      for run in results["runs"]]
            cells.append(f"{statistics.median(values):.4g}")
        lines.append(f"| `{metric['name']}` | {metric['unit']} | "
                     + " | ".join(cells) + " |")
    return "\n".join(lines)


#: The per-event self times that add up to the server's busy time.
BUDGET = (
    "serve.protocol.parse_us", "serve.protocol.encode_us",
    "serve.backpressure.admit_us", "serve.server.round_self_us",
    "serve.session.drain_self_us", "engine.wm.apply_self_us",
    "match.self_us", "engine.act_self_us", "storage.self_us",
    "recovery.wal.append_us", "recovery.wal.fsync",
    "recovery.checkpoint.per_event_us", "replica.shipper.frames_us",
)


def budget(results: dict) -> str:
    lines = [
        "| share of busy time | " + " | ".join(f"`{w}`" for w in WORKLOADS) + " |",
        "|---|" + "---:|" * len(WORKLOADS),
    ]
    columns = []
    for workload in WORKLOADS:
        layer = {
            name: statistics.median(
                run[workload]["per_layer"][name] for run in results["runs"])
            for name in {m["name"] for m in SPEC["per_layer"]}
        }
        layer["recovery.wal.fsync"] = (
            layer["recovery.wal.fsync_us"]
            * layer["recovery.wal.fsyncs_per_event"])
        total = sum(layer[name] for name in BUDGET)
        columns.append({name: layer[name] / total for name in BUDGET}
                       | {"busy us per event": total})
    for name in BUDGET:
        lines.append(f"| `{name}` | " + " | ".join(
            f"{column[name]:.1%}" for column in columns) + " |")
    lines.append("| busy us per event | " + " | ".join(
        f"{column['busy us per event']:.0f}" for column in columns) + " |")
    return "\n".join(lines)


def main() -> int:
    if len(sys.argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    results = json.loads(Path(sys.argv[1]).read_text())
    print(table(results, "end_to_end", SPEC["end_to_end"]))
    print()
    print(table(results, "per_layer", SPEC["per_layer"]))
    print()
    print(budget(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

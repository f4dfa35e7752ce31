#!/usr/bin/env python3
"""Compare two result sets metric by metric against the benchmark's bounds.

    python perf/agree.py perf/results/seed-a.json perf/results/seed-b.json

A result set is what ``perf/run.py --out FILE`` writes: one or more runs
of the suite.  For every workload and end-to-end metric this prints one
row with A's and B's medians and a verdict:

``ok``          B's median is no worse than A's by more than the bound;
``regressed``   it is worse by more than the bound;
``unresolved``  the spread inside a set (max - min, as a share of its
                median) is wider than the bound — or, with one run a
                side, B is *better* by more than the bound, which a
                single pair cannot tell from noise.

Per-event operation counts from the traced pass must repeat exactly;
a count that differs is reported as ``regressed``.  Exits non-zero on
any row that is not ``ok``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())

#: Traced-pass counts that are exact at one op per drain over the counted
#: segment, so two runs of one commit at one seed must print the same.
EXACT_COUNTS = (
    "match.deltas_per_event",
    "match.activations_per_event",
    "match.join_probes_per_event",
    "match.conflict_adds_per_event",
    "engine.cycles_per_event",
    "engine.fired_per_event",
    "recovery.wal.records_per_event",
    "storage.statements_per_event",
)


def values(results: dict, workload: str, group: str, metric: str) -> list[float]:
    return [
        run[workload][group][metric]
        for run in results["runs"]
        if metric in run.get(workload, {}).get(group, {})
    ]


def spread(samples: list[float]) -> float:
    return (max(samples) - min(samples)) / statistics.median(samples)


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """Compare medians in the metric's own direction."""
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    base, new = statistics.median(a), statistics.median(b)
    worse_by = (new - base) / base if better == "lower" else (base - new) / base
    if worse_by > bound:
        return "regressed"
    if worse_by < -bound and len(a) == len(b) == 1:
        return "unresolved"
    return "ok"


def compare(a: dict, b: dict) -> list[tuple]:
    """``(workload, metric, median A, median B, unit, verdict)`` rows."""
    rows = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            va = values(a, workload, "end_to_end", name)
            vb = values(b, workload, "end_to_end", name)
            if not va or not vb:
                rows.append((workload, name, None, None, metric["unit"],
                             "unresolved"))
                continue
            rows.append((
                workload, name, statistics.median(va), statistics.median(vb),
                metric["unit"],
                verdict(va, vb, metric["better"], metric["bound"]),
            ))
        for name in EXACT_COUNTS:
            va = values(a, workload, "per_layer", name)
            vb = values(b, workload, "per_layer", name)
            if va and vb:
                same = len(set(va) | set(vb)) == 1
                rows.append((workload, name, va[0], vb[0], "count",
                             "ok" if same else "regressed"))
    return rows


def main() -> int:
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    a, b = (json.loads(Path(arg).read_text()) for arg in sys.argv[1:])
    rows = compare(a, b)
    for workload, name, base, new, unit, result in rows:
        shown = ("missing" if base is None
                 else f"{base:.6g} -> {new:.6g} {unit}")
        print(f"{result:<10} {workload:<15} {name:<32} {shown}")
    bad = [row for row in rows if row[-1] != "ok"]
    print(f"{len(rows) - len(bad)} ok, {len(bad)} not ok")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

"""Metric-snapshot regression gate.

Runs a canned, deterministic program with metric collection enabled and
compares the resulting operation counters/gauges against a checked-in
baseline.  The gate fails when a cost counter *grows* beyond tolerance — a
silent algorithmic regression (more comparisons, more SQL statements, more
node activations for the same program) — and also when a tracked metric
disappears or the final correctness gauges (WM size, conflict-set size)
drift at all.

Timing histograms and anything measured in wall-clock units are excluded:
the gate guards *operation counts*, which are deterministic for a fixed
program, strategy and backend.

Usage:

    python -m repro.obs.gate --baseline tests/baselines/metrics_baseline.json
    python -m repro.obs.gate --update   # rewrite it, printing the drift banked

Exit status 0 = pass, 1 = regression (CI fails the build).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

#: Default canned workload (must stay deterministic).
DEFAULT_PROGRAM = "examples/orders.ops"
DEFAULT_BASELINE = "tests/baselines/metrics_baseline.json"
DEFAULT_STRATEGY = "patterns"
DEFAULT_BACKEND = "sqlite"

#: Allowed relative growth of a cost counter before the gate fails.
DEFAULT_TOLERANCE = 0.10

#: Metric-name suffixes that measure time, not work — never gated.
_TIME_SUFFIXES = ("_us", "_seconds", "_ms")

#: Gauges that must match exactly: the run's observable outcome.
EXACT_GAUGES = ("engine.wm_size", "engine.conflict_set")


def collect_metrics(
    program_path: str = DEFAULT_PROGRAM,
    strategy: str = DEFAULT_STRATEGY,
    backend: str = DEFAULT_BACKEND,
    max_cycles: int = 10_000,
) -> dict:
    """Run the canned program and return its gated metric values.

    The result maps metric name to number: every counter, plus every gauge
    (including the absorbed ``ops.*`` operation counters), with wall-clock
    metrics filtered out.
    """
    from repro.engine.interpreter import ProductionSystem
    from repro.obs import Observability

    obs = Observability(collect_metrics=True)
    system = ProductionSystem(
        Path(program_path).read_text(),
        strategy=strategy,
        backend=backend,
        obs=obs,
    )
    system.run(max_cycles=max_cycles)
    snapshot = system.snapshot_metrics()
    values: dict[str, float] = {}
    for section in ("counters", "gauges"):
        for name, value in snapshot.get(section, {}).items():
            if name.endswith(_TIME_SUFFIXES):
                continue
            values[name] = value
    # Histogram *counts* are operation counts — one observation per
    # cycle, delta batch, WM flush, fsync — and thus deterministic even
    # when the observed values are wall-clock.  Gating them catches a
    # latency instrument that silently stops recording (or
    # double-records) without gating any timing value itself.
    for name, summary in snapshot.get("histograms", {}).items():
        values[f"hist.{name}.count"] = summary.get("count", 0)
    return values


@dataclass
class Violation:
    """One gate failure."""

    metric: str
    baseline: float | None
    current: float | None
    reason: str

    def __str__(self) -> str:
        return (
            f"{self.metric}: {self.reason} "
            f"(baseline={self.baseline}, current={self.current})"
        )


def compare(
    baseline: dict,
    current: dict,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[Violation]:
    """Gate *current* against *baseline*; returns the violations.

    * a tracked metric that vanished → violation (instrumentation broke);
    * an :data:`EXACT_GAUGES` entry that changed at all → violation
      (the program's outcome changed);
    * a cost counter that grew more than *tolerance* relative to the
      baseline → violation.  Decreases are improvements and pass — run
      ``--update`` to bank them.
    """
    violations: list[Violation] = []
    for metric, base_value in sorted(baseline.items()):
        if metric not in current:
            violations.append(
                Violation(metric, base_value, None, "metric disappeared")
            )
            continue
        value = current[metric]
        if metric in EXACT_GAUGES:
            if value != base_value:
                violations.append(
                    Violation(metric, base_value, value, "outcome drifted")
                )
            continue
        allowed = abs(base_value) * tolerance
        if value > base_value + allowed:
            grown = (
                (value - base_value) / base_value * 100.0
                if base_value
                else float("inf")
            )
            violations.append(
                Violation(
                    metric,
                    base_value,
                    value,
                    f"grew {grown:.1f}% (> {tolerance * 100:.0f}% tolerance)",
                )
            )
    return violations


def run_gate(
    baseline_path: str = DEFAULT_BASELINE,
    tolerance: float = DEFAULT_TOLERANCE,
    update: bool = False,
    **collect_kwargs,
) -> tuple[bool, list[Violation], dict]:
    """Collect, compare (or rewrite) the baseline; returns (ok, violations,
    current values).  With *update*, violations is the drift it banks."""
    current = collect_metrics(**collect_kwargs)
    path = Path(baseline_path)
    violations: list[Violation] = []
    if path.exists() or not update:
        payload = json.loads(path.read_text())
        violations = compare(
            payload["metrics"], current, payload.get("tolerance", tolerance)
        )
    if update:
        payload = {
            "program": collect_kwargs.get("program_path", DEFAULT_PROGRAM),
            "strategy": collect_kwargs.get("strategy", DEFAULT_STRATEGY),
            "backend": collect_kwargs.get("backend", DEFAULT_BACKEND),
            "tolerance": tolerance,
            "metrics": current,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return True, violations, current
    return not violations, violations, current


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.gate", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--baseline", default=DEFAULT_BASELINE)
    parser.add_argument("--program", default=DEFAULT_PROGRAM)
    parser.add_argument("--strategy", default=DEFAULT_STRATEGY)
    parser.add_argument("--backend", default=DEFAULT_BACKEND)
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baseline, printing the drift it banks",
    )
    args = parser.parse_args(argv)
    if args.update and not Path(args.baseline).exists():
        print(f"no baseline at {args.baseline}; creating one")
    ok, violations, current = run_gate(
        baseline_path=args.baseline,
        tolerance=args.tolerance,
        update=args.update,
        program_path=args.program,
        strategy=args.strategy,
        backend=args.backend,
    )
    if args.update:
        for violation in violations:
            print(f"  banking: {violation}")
        print(f"baseline updated: {args.baseline} ({len(current)} metrics)")
        return 0
    if ok:
        print(f"metrics gate passed ({len(current)} metrics checked)")
        return 0
    print("metrics gate FAILED:", file=sys.stderr)
    for violation in violations:
        print(f"  {violation}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())

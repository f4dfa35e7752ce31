"""The fuzz campaign driver behind ``repro check --budget N``.

Generates *budget* traces (profiles rotating per index), runs each through
the differential oracle, shrinks any failure to a minimal repro, and
optionally promotes the shrunk trace into a corpus directory.  The crash
campaign (:mod:`repro.check.crash`) files its findings through the same
:func:`record_failure`.

Observability: each trace replays inside a ``check.trace`` span; the run
emits ``check.traces`` / ``check.failures`` / ``check.replays`` counters
and a ``check.trace_us`` histogram, and failures are reported as
``check.divergence`` events — all through the standard
:class:`repro.obs.Observability` facade, so ``--trace-out`` /
``--metrics-out`` work for fuzz runs exactly as for ``repro run``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.check.corpus import save_repro
from repro.check.drive import Divergence
from repro.check.generator import DEFAULT_RESOLUTIONS, generate_trace
from repro.check.oracle import CheckConfig, default_matrix, run_trace
from repro.check.shrinker import FailingPredicate, shrink
from repro.check.trace import Trace
from repro.obs import Observability


@dataclass
class CheckFailure:
    """One fuzz finding: the original and shrunk traces plus the verdict."""

    trace: Trace
    divergence: Divergence
    shrunk: Trace | None = None
    repro_path: str | None = None


@dataclass
class CheckReport:
    """Summary of one fuzz campaign."""

    budget: int
    seed: int
    configs: int = 0
    traces_run: int = 0
    elapsed_s: float = 0.0
    failures: list[CheckFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.failures)} FAILURE(S)"
        return (
            f"check: {self.traces_run}/{self.budget} traces × "
            f"{self.configs} configs in {self.elapsed_s:.1f}s — {status}"
        )


#: Shrinking re-runs a trace per ddmin candidate; cap how many findings
#: get it, so a broken build cannot stall a campaign for hours.
MAX_SHRINKS = 3


def record_failure(
    report: CheckReport,
    trace: Trace,
    divergence: Divergence,
    failing: FailingPredicate,
    obs: Observability,
    save_repro_dir: str | None,
    shrink_it: bool = True,
    prefix: str = "",
) -> None:
    """File one finding in *report*: count and announce it (metric
    ``check.<prefix>failures``, event ``check.<prefix>divergence``),
    shrink it under *failing* (the first :data:`MAX_SHRINKS` only), and
    save the shrunk (else the original) trace into *save_repro_dir*."""
    failure = CheckFailure(trace=trace, divergence=divergence)
    report.failures.append(failure)
    if obs.enabled:
        obs.metrics.counter(f"check.{prefix}failures").inc()
    obs.event(
        f"check.{prefix}divergence",
        trace=trace.name,
        detail=divergence.describe(),
    )
    if shrink_it and len(report.failures) <= MAX_SHRINKS:
        with obs.span("check.shrink", trace=trace.name) as span:
            failure.shrunk = shrink(trace, failing)
            span.set("ops", len(failure.shrunk.ops))
    if save_repro_dir is not None:
        failure.repro_path = save_repro(
            failure.shrunk or trace, save_repro_dir, divergence
        )


def _pair_matrix(
    divergence: Divergence, configs: list[CheckConfig]
) -> list[CheckConfig]:
    """The [reference, diverging] sub-matrix used as the shrink predicate,
    or the full matrix when the labels do not name two configs (e.g. an
    "error" divergence raised before any comparison)."""
    by_label = {config.label: config for config in configs}
    pair = [by_label.get(divergence.reference), by_label.get(divergence.config)]
    return pair if None not in pair and pair[0] != pair[1] else configs


def run_check(
    budget: int,
    seed: int = 0,
    strategies=None,
    backends=None,
    program: str | None = None,
    save_repro_dir: str | None = None,
    obs: Observability | None = None,
    shrink_failures: bool = True,
    resolutions: tuple[str, ...] | None = None,
    exec_modes: tuple[str, ...] | None = None,
) -> CheckReport:
    """Run a fuzz campaign of *budget* traces; returns the report.

    *strategies* restricts (or, as a mapping of name → class, replaces)
    the strategy set; *backends* restricts the backend axis.
    *program* pins the rule base (only op scripts are fuzzed).
    *resolutions* rotates conflict-resolution strategies across traces
    (each trace records the one it used, so repros stay self-contained).
    *exec_modes* adds §5.2 concurrent-scheduler cells, compared against
    their own mode's reference.
    """
    obs = obs or Observability()
    configs = default_matrix(strategies, backends, exec_modes)
    report = CheckReport(budget=budget, seed=seed, configs=len(configs))
    observing = obs.enabled
    started = time.perf_counter()
    resolutions = tuple(resolutions or DEFAULT_RESOLUTIONS)
    for index in range(budget):
        trace = generate_trace(seed, index, program, resolutions)
        trace_started = time.perf_counter()
        with obs.span(
            "check.trace", trace=trace.name, ops=len(trace.ops)
        ) as span:
            divergence = run_trace(
                trace, configs=configs, strategies=strategies, obs=obs
            )
            span.set("ok", divergence is None)
        report.traces_run += 1
        if observing:
            metrics = obs.metrics
            metrics.counter("check.traces").inc()
            metrics.counter("check.replays").inc(len(configs))
            metrics.histogram("check.trace_us").observe(
                (time.perf_counter() - trace_started) * 1e6
            )
        if divergence is None:
            continue
        pair = _pair_matrix(divergence, configs)
        record_failure(
            report, trace, divergence,
            lambda candidate: run_trace(
                candidate, configs=pair, strategies=strategies
            ) is not None,
            obs, save_repro_dir, shrink_failures,
        )
    report.elapsed_s = time.perf_counter() - started
    return report

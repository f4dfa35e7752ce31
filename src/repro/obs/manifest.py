"""Run manifests: everything about a run, written to ``runs/<run_id>/``.

Following the reproducibility idiom (see SNIPPETS.md), a run leaves no
hidden state behind: the manifest records the program hash, match
strategy, resolution policy, git SHA, the final metrics snapshot and the
paths of any trace/metrics artifacts, so a result in a report can be
traced back to the exact configuration that produced it.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import time
from dataclasses import dataclass, field


def git_sha(cwd: str | None = None) -> str | None:
    """The current git commit SHA, or None outside a repository."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip() or None


def program_hash(source: str) -> str:
    """Stable short hash of an OPS program's source text."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()[:16]


def latency_summary(metrics: dict) -> dict:
    """Per-instrument latency percentiles from a metrics snapshot.

    Collects every histogram whose name marks it as a wall-clock
    instrument (``*_us``) and reports its count, mean and the
    p50/p95/p99 estimates the snapshot carries — the at-a-glance
    latency record a manifest reader wants without digging through
    bucket arrays.  Tolerates snapshots from older runs whose
    histograms predate the ``percentiles`` key.
    """
    summary: dict[str, dict] = {}
    for name, data in metrics.get("histograms", {}).items():
        if not name.endswith("_us") or not isinstance(data, dict):
            continue
        entry = {
            "count": data.get("count", 0),
            "mean_us": data.get("mean", 0.0),
        }
        for label, value in (data.get("percentiles") or {}).items():
            entry[f"{label}_us"] = value
        summary[name] = entry
    return summary


def new_run_id(clock: float | None = None) -> str:
    """A sortable, collision-resistant run identifier."""
    now = time.time() if clock is None else clock
    stamp = time.strftime("%Y%m%d-%H%M%S", time.localtime(now))
    suffix = hashlib.sha256(
        f"{now!r}-{os.getpid()}".encode()
    ).hexdigest()[:6]
    return f"{stamp}-{suffix}"


@dataclass
class RunManifest:
    """The reproducibility record of one run."""

    run_id: str = field(default_factory=new_run_id)
    program_hash: str = ""
    program_path: str | None = None
    strategy: str = ""
    resolution: str = ""
    backend: str = ""
    seed: int = 0
    command: list[str] = field(default_factory=list)
    git_sha: str | None = None
    created_at: str = field(
        default_factory=lambda: time.strftime("%Y-%m-%dT%H:%M:%S%z")
    )
    metrics: dict = field(default_factory=dict)
    trace_path: str | None = None
    metrics_path: str | None = None
    result: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """JSON-ready view of the manifest."""
        return {
            "run_id": self.run_id,
            "created_at": self.created_at,
            "git_sha": self.git_sha,
            "program": {
                "path": self.program_path,
                "hash": self.program_hash,
            },
            "config": {
                "strategy": self.strategy,
                "resolution": self.resolution,
                "backend": self.backend,
                "seed": self.seed,
            },
            "command": self.command,
            "artifacts": {
                "trace": self.trace_path,
                "metrics": self.metrics_path,
            },
            "result": self.result,
            "latency": latency_summary(self.metrics),
            "metrics": self.metrics,
            "extra": self.extra,
        }

    def write(self, base_dir: str = "runs") -> str:
        """Write ``<base_dir>/<run_id>/manifest.json``; returns its path.

        The final metrics snapshot is also written beside it as
        ``metrics.json`` when present, and ``metrics_path`` is filled in.
        """
        run_dir = os.path.join(base_dir, self.run_id)
        os.makedirs(run_dir, exist_ok=True)
        if self.metrics and self.metrics_path is None:
            self.metrics_path = os.path.join(run_dir, "metrics.json")
            with open(self.metrics_path, "w", encoding="utf-8") as handle:
                json.dump(self.metrics, handle, indent=2, default=str)
        path = os.path.join(run_dir, "manifest.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.as_dict(), handle, indent=2, default=str)
        return path


def repro_footer(strategies: list[str] | None = None) -> str:
    """One-line repro footer for report tables: git SHA, timestamp, set."""
    import platform

    parts = [
        f"git {git_sha() or 'unknown'}",
        time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        f"python {platform.python_version()}",
    ]
    if strategies:
        parts.append("strategies: " + ", ".join(strategies))
    return "repro: " + " | ".join(parts)

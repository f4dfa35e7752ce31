"""repro.check — differential fuzzing of the match/engine stack.

The paper's central claim is that many match algorithms — Rete variants,
the simplified/TREAT-like schemes, the matching-patterns store, marker
passing and predicate indexing — compute the *same* conflict set over the
same working memory.  This package turns that claim into an executable
oracle:

* :mod:`repro.check.trace` — a :class:`Trace` is a seeded program plus a
  WM op script (insert/delete/modify/detach/attach/compact) and the chunk
  size its ops are applied in, JSON-serializable.
* :mod:`repro.check.generator` — seeded trace generation over rotating
  profiles (negation, disjunction, modify-heavy, churn, pool-sharing,
  mid-run reattach and compaction, refraction).
* :mod:`repro.check.drive` — the one trace driver: op application,
  chunking, control ops, sync points and the cycle and §5.2 round loops,
  over a plain system or a durable run; the :class:`Observables` record,
  the per-run index health checks and the one :func:`compare`.
* :mod:`repro.check.oracle` — replays one trace through every
  strategy × backend × exec-mode cell, plus one per-op reference cell,
  and compares their observables.
* :mod:`repro.check.reference` — the interpreted scan the compiled
  match path replaced, kept as the per-op cell's reference.
* :mod:`repro.check.shrinker` — ddmin over ops plus greedy rule pruning,
  minimizing a failing trace to the smallest repro.
* :mod:`repro.check.corpus` — promotes shrunk repros into
  ``tests/corpus/`` where tier-1 pytest replays them forever.
* :mod:`repro.check.runner` — the ``repro check --budget N`` campaign
  driver with ``check.*`` spans and metrics.
* :mod:`repro.check.crash` — the ``repro check --crash`` fault-injection
  campaign: kill a durable run at an armed crash site, recover from the
  WAL (:mod:`repro.recovery`) or promote a follower, finish, and compare
  every observable against the uninterrupted reference.
"""

from repro.check.corpus import load_corpus, load_trace, replay, save_repro
from repro.check.crash import (
    CrashReport,
    crash_predicate,
    run_crash_check,
    run_crash_trace,
)
from repro.check.drive import (
    Divergence,
    Observables,
    compare,
    pattern_index_faults,
    rete_memory_snapshot,
)
from repro.check.generator import PROFILES, TraceProfile, generate_trace
from repro.check.oracle import (
    DEFAULT_BACKENDS,
    RETE_FAMILY,
    CheckConfig,
    default_matrix,
    replay_config,
    run_trace,
)
from repro.check.runner import CheckFailure, CheckReport, run_check
from repro.check.shrinker import shrink
from repro.check.trace import Trace, TraceOp

__all__ = [
    "CheckConfig",
    "CheckFailure",
    "CheckReport",
    "CrashReport",
    "DEFAULT_BACKENDS",
    "Divergence",
    "Observables",
    "PROFILES",
    "RETE_FAMILY",
    "Trace",
    "TraceOp",
    "TraceProfile",
    "compare",
    "crash_predicate",
    "default_matrix",
    "generate_trace",
    "load_corpus",
    "load_trace",
    "pattern_index_faults",
    "replay",
    "replay_config",
    "rete_memory_snapshot",
    "run_check",
    "run_crash_check",
    "run_crash_trace",
    "run_trace",
    "save_repro",
    "shrink",
]

"""The cross-strategy differential oracle.

Every registered match strategy computes the *same* match function;
set-at-a-time op application and both storage backends change only *how*
it is computed.  The oracle replays one :class:`~repro.check.trace.Trace`
through a configuration matrix — strategy × backend × exec mode — and
asserts that every observable agrees.  Each cell is a configuration of
the trace driver (:mod:`repro.check.drive`), which records the
observables — conflict sets at every sync point, the fired sequence,
output, final WM, and per-run index health — and compares them.  Every
cell applies the trace's ops in chunks of ``trace.batch`` on the
production (compiled) match path.  One extra *per-op* cell leads the
matrix and applies the ops tuple-at-a-time; as the matrix's first cell it
is the reference, and :func:`run_trace` replays it on the interpreted
scan (:mod:`repro.check.reference`), so a bug in the compiled kernels or
one that depends on how ops are chunked still shows.  Rete-family cells
also snapshot every alpha/beta memory, negative node and mirror relation,
compared across cells sharing a strategy (different strategies
legitimately build different networks).

Every cell but the reference also prunes its refraction set
(:meth:`~repro.engine.interpreter.ProductionSystem.prune_refraction`) at
every sync point, as a durable run does at each checkpoint cut, and
checks that the pruning left ``eligible()`` — members and order —
unchanged.  Since the reference never prunes, the cross-cell comparisons
also prove that pruning changes no conflict set and no firing.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass

from repro.match import STRATEGIES
from repro.check.drive import (
    Divergence,
    Driver,
    Observables,
    build_system,
    compare,
)
from repro.check.drive import pattern_index_faults, rete_index_faults, rete_memory_snapshot  # noqa: F401,E501
from repro.check.reference import interpreted
from repro.check.trace import Trace
from repro.obs import Observability

#: Strategies whose ``network`` attribute exposes Rete memories.
RETE_FAMILY = ("rete", "rete-shared", "rete-dbms")

DEFAULT_BACKENDS = ("memory", "sqlite")
DEFAULT_EXEC_MODES = ("cycle",)

#: Execution modes for the run-cycles phase: the serial recognize-act
#: reference and the §5.2 concurrent 2PL scheduler.
EXEC_MODES = ("cycle", "txn")

#: The per-op reference cell's strategy when it is selected: MQO-shared
#: alpha memories are where a chunking-dependent multiplicity bug was
#: once found.
PER_OP_STRATEGY = "rete-shared"


@dataclass(frozen=True)
class CheckConfig:
    """One cell of the oracle's configuration matrix.

    ``lineage`` replays the trace with provenance recording attached
    (:class:`repro.obs.xray.LineageRecorder`); because the recorder is a
    pure conflict-set listener, a lineage-on cell must be bit-identical
    to its lineage-off twin — the fuzz matrix pins that claim.  ``exec``
    and ``per_op`` are the driver's exec mode and chunking
    (:class:`~repro.check.drive.Driver`); ``per_op`` says nothing about
    the match path: a config replays compiled unless it is the first
    cell of a :func:`run_trace` matrix (the reference).
    """

    strategy: str
    backend: str = "memory"
    lineage: bool = False
    exec: str = "cycle"
    per_op: bool = False

    @property
    def label(self) -> str:
        suffix = "/per-op" if self.per_op else ""
        if self.lineage:
            suffix += "/lineage"
        if self.exec != "cycle":
            suffix += f"/{self.exec}"
        return f"{self.strategy}/{self.backend}{suffix}"


def resolve_strategies(strategies) -> dict:
    """Normalize a strategies argument to a name → class mapping.

    Accepts ``None`` (the full :data:`repro.match.STRATEGIES` registry), a
    list of registered names, or an explicit mapping of name → class (the
    mapping form lets tests inject broken shims under synthetic names).
    """
    if strategies is None:
        return dict(STRATEGIES)
    if isinstance(strategies, dict):
        return dict(strategies)
    return {name: STRATEGIES[name] for name in strategies}


def default_matrix(
    strategies=None,
    backends=DEFAULT_BACKENDS,
    exec_modes=DEFAULT_EXEC_MODES,
) -> list[CheckConfig]:
    """The per-op reference cell, then strategy × backend × exec mode.

    *strategies* is as for :func:`resolve_strategies`; ``None`` for
    *backends* or *exec_modes* takes the defaults.  The per-op cell
    comes first, so it is the matrix's interpreted reference and anchors
    its exec mode: it runs :data:`PER_OP_STRATEGY` (else the first
    strategy) on the memory backend (else the first backend), in the
    first exec mode (``"cycle"`` when selected).
    """
    names = sorted(resolve_strategies(strategies))
    backends = tuple(backends or DEFAULT_BACKENDS)
    ordered_execs = sorted(
        set(exec_modes or DEFAULT_EXEC_MODES), key=EXEC_MODES.index
    )
    per_op = CheckConfig(
        strategy=PER_OP_STRATEGY if PER_OP_STRATEGY in names else names[0],
        backend="memory" if "memory" in backends else backends[0],
        exec=ordered_execs[0],
        per_op=True,
    )
    return [per_op] + [
        CheckConfig(strategy=name, backend=backend, exec=exec_mode)
        for name in names
        for backend in backends
        for exec_mode in ordered_execs
    ]


def replay_config(
    trace: Trace, config: CheckConfig, strategies=None, prune: bool = False
) -> Observables:
    """Replay *trace* under one configuration, returning its observables
    (*prune*: see :class:`~repro.check.drive.Driver`)."""
    system = build_system(
        trace,
        resolve_strategies(strategies)[config.strategy],
        config.backend,
        lineage=config.lineage,
    )
    return Driver(
        trace,
        system,
        Observables(config.label),
        per_op=config.per_op,
        exec_mode=config.exec,
        snapshots=config.strategy in RETE_FAMILY,
        prune=prune,
    ).drive()


def run_trace(
    trace: Trace,
    configs: list[CheckConfig] | None = None,
    strategies=None,
    obs=None,
) -> Divergence | None:
    """Replay *trace* across the matrix; return the first divergence.

    The first configuration is the reference and replays on the
    interpreted scan (:func:`repro.check.reference.interpreted`); every
    other one replays compiled and prunes its refraction set at every
    sync point.  Each exec mode's first cell is that mode's reference:
    ``cycle`` records one firing per cycle while §5.2 records whole
    rounds in 2PL commit order.  An exception inside any replay is itself
    a finding (kind ``"error"``), since every trace is valid by
    construction.
    """
    if configs is None:
        configs = default_matrix(strategies)
    if not configs:
        raise ValueError("oracle needs at least one configuration")
    obs = obs or Observability()
    compiled = resolve_strategies(strategies)
    name = configs[0].strategy
    reference = {**compiled, name: interpreted(compiled[name])}
    results: list[Observables] = []
    for index, config in enumerate(configs):
        cell = compiled if index else reference
        try:
            with obs.span("check.replay", config=config.label):
                results.append(
                    replay_config(trace, config, cell, prune=index > 0)
                )
        except Exception:
            return Divergence(
                kind="error",
                config=config.label,
                reference=configs[0].label,
                detail=traceback.format_exc(limit=8),
            )
    # Each exec mode's first cell anchors it (and checks its own health
    # against itself); memory-node contents are only comparable within
    # one strategy and exec mode, whose firing order shapes the memories.
    by_exec: dict[str, Observables] = {}
    by_network: dict[tuple, Observables] = {}
    for config, result in zip(configs, results):
        divergence = compare(by_exec.setdefault(config.exec, result), result)
        if divergence is None and result.rete_memories:
            anchor = by_network.setdefault(
                (config.strategy, config.exec), result
            )
            divergence = compare(anchor, result, memories=True)
        if divergence is not None:
            return divergence
    return None

"""Engine X-ray: token provenance, why-not analysis and the live top view.

The paper's §1 frames matching as trigger support and materialized-view
maintenance inside a DBMS.  For views, operators get lineage ("why is
this row here?") and EXPLAIN plans; this module gives the production
system the same affordances:

* :class:`LineageRecorder` — attached to the conflict set when a run is
  created with ``lineage=True``, it records for every instantiation a
  compact :class:`Lineage`: the supporting WM tuples (relation, tid,
  timetag, values), the static join-node path that derived it, the cycle
  it appeared in, and the WAL sequence number current at that moment (so
  a provenance question can be answered against the durable log).  The
  join path costs nothing per token: this network compiles one *static*
  linear chain per rule (LHS order), recorded at build time in
  :attr:`repro.match.rete.builder.ReteNetwork.rule_chains`, so the path
  is a per-rule constant, not a per-token capture.  With ``lineage``
  off, no listener is registered and the hot paths are untouched.
* :func:`why_not` — the negative EXPLAIN: for a rule with no
  instantiation, walk its join chain and name the first failing alpha
  test, the first empty join, or the negated condition whose witnesses
  block it (non-Rete strategies fall back to the per-condition
  check-bit diagnosis of :meth:`repro.match.base.MatchStrategy.explain`).
* :class:`TopAggregator` / :func:`render_top` — fold a trace stream
  (live or replayed) into a refreshing console dashboard: cycles/sec,
  p50/p95/p99 cycle latency, hottest join nodes, conflict-set size and
  WAL lag — the numbers to watch under load.

Surfaced on the command line as ``repro explain`` (``--instantiation``,
``--why-not``, ``--network``, ``--dot``) and ``repro top``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.obs.hist import Log2Histogram

#: One support slot: (relation, tid, timetag, values) or None (negated CE).
SupportSlot = tuple[str, int, int, tuple] | None


@dataclass
class Lineage:
    """Provenance of one conflict-set instantiation."""

    rule: str
    key: tuple
    slots: tuple
    bindings: tuple
    #: Engine cycle current when the instantiation entered the conflict set
    #: (0 = during setup / initial WM load).
    cycle: int
    #: Last WAL sequence number durably *appended* when the instantiation
    #: appeared; ``None`` when the run has no WAL attached.
    wal_seq: int | None
    #: Static join-node path (two-input node names, LHS order); empty for
    #: non-Rete strategies.
    path: tuple[str, ...]
    fired_cycles: list[int] = field(default_factory=list)
    removed_cycle: int | None = None

    @property
    def live(self) -> bool:
        return self.removed_cycle is None

    def display(self) -> str:
        slots = ", ".join(
            "-" if slot is None else f"{slot[0]}#{slot[1]}"
            for slot in self.slots
        )
        return f"{self.rule}[{slots}]"


class LineageRecorder:
    """Conflict-set listener capturing :class:`Lineage` per instantiation.

    Construction registers the listener; creation order matters — the
    engine attaches it *before* loading initial WM elements so even
    setup-time instantiations carry provenance.  The recorder never
    mutates engine state, so conflict sets with and without a recorder
    are bit-identical (pinned by the differential fuzz matrix).
    """

    def __init__(self, system) -> None:
        self._system = system
        #: Latest lineage per instantiation identity key.  Entries survive
        #: retraction (``removed_cycle`` set) so `explain` can show the
        #: history of a rule whose support came and went.
        self.entries: dict[tuple, Lineage] = {}
        self._paths: dict[str, tuple[str, ...]] = {}
        system.conflict_set.add_listener(self._on_added, self._on_removed)

    # -- conflict-set callbacks ---------------------------------------------

    def _on_added(self, instantiation) -> None:
        wal = getattr(self._system.wm, "wal", None)
        self.entries[instantiation.key] = Lineage(
            rule=instantiation.rule_name,
            key=instantiation.key,
            slots=tuple(
                None
                if wme is None
                else (wme.relation, wme.tid, wme.timetag, tuple(wme.values))
                for wme in instantiation.wmes
            ),
            bindings=instantiation.bindings,
            cycle=self._system._current_cycle,
            wal_seq=getattr(wal, "last_seq", None),
            path=self.path_of(instantiation.rule_name),
        )

    def _on_removed(self, instantiation) -> None:
        entry = self.entries.get(instantiation.key)
        if entry is not None:
            entry.removed_cycle = self._system._current_cycle

    def note_fired(self, key: tuple, cycle: int) -> None:
        """Record that the instantiation identified by *key* fired."""
        entry = self.entries.get(key)
        if entry is not None:
            entry.fired_cycles.append(cycle)

    # -- queries -------------------------------------------------------------

    def path_of(self, rule: str) -> tuple[str, ...]:
        """The rule's static join-node path (empty for non-Rete)."""
        cached = self._paths.get(rule)
        if cached is None:
            network = getattr(self._system.strategy, "network", None)
            chains = getattr(network, "rule_chains", None) or {}
            chain = chains.get(rule)
            cached = (
                tuple(node.name for _, _, node in chain) if chain else ()
            )
            self._paths[rule] = cached
        return cached

    def for_rule(self, rule: str) -> list[Lineage]:
        """All recorded lineages of *rule*, in first-seen order."""
        return [e for e in self.entries.values() if e.rule == rule]

    def backfill_wal_seq(self) -> None:
        """Stamp WAL-less entries with the log's current sequence number.

        The durability layer attaches the WAL *after* the system loads its
        initial elements, so setup-time instantiations are recorded before
        a sequence number exists.  :meth:`repro.recovery.session.DurableRun.start`
        calls this once the initial WM batch is durable: every entry still
        holding ``None`` predates (or is covered by) the setup boundary.
        """
        wal = getattr(self._system.wm, "wal", None)
        seq = getattr(wal, "last_seq", None)
        if seq is None:
            return
        for entry in self.entries.values():
            if entry.wal_seq is None:
                entry.wal_seq = seq


def render_support(lineage: Lineage, conditions=None) -> str:
    """Render one lineage as a human-readable support chain.

    *conditions* (the rule's analyzed conditions, optional) adds each
    slot's class and polarity; without it the WM facts alone are shown.
    """
    header = f"{lineage.display()}  cycle={lineage.cycle}"
    if lineage.wal_seq is not None:
        header += f" wal_seq={lineage.wal_seq}"
    if not lineage.live:
        header += f"  (retracted at cycle {lineage.removed_cycle})"
    lines = [header]
    for index, slot in enumerate(lineage.slots):
        step = (
            f" via {lineage.path[index]}" if index < len(lineage.path) else ""
        )
        label = f"  CE{index + 1}"
        if conditions is not None and index < len(conditions):
            condition = conditions[index]
            polarity = "-" if condition.negated else " "
            label += f" {polarity}({condition.class_name})"
        if slot is None:
            lines.append(f"{label}: (no element — negated CE holds){step}")
        else:
            relation, tid, timetag, values = slot
            lines.append(
                f"{label}: {relation}#{tid} t={timetag} "
                f"values={values}{step}"
            )
    if lineage.bindings:
        bound = ", ".join(f"<{n}>={v}" for n, v in lineage.bindings)
        lines.append(f"  bindings: {bound}")
    if lineage.fired_cycles:
        fired = ", ".join(str(c) for c in lineage.fired_cycles)
        lines.append(f"  fired at cycle(s): {fired}")
    return "\n".join(lines)


@dataclass
class WhyNot:
    """Result of :func:`why_not`: what blocks a rule from matching."""

    rule: str
    satisfied: bool
    #: ``"alpha"`` (no WM element passes the CE's alpha tests), ``"join"``
    #: (both inputs non-empty, no pair passes the join tests),
    #: ``"negation"`` (every partial match is blocked by witnesses),
    #: ``"join-combination"`` (non-Rete: each CE satisfiable in isolation
    #: but no consistent combination), or ``None`` when satisfied.
    kind: str | None = None
    cond_number: int | None = None
    class_name: str | None = None
    negated: bool = False
    message: str = ""
    #: An example blocking witness (``"relation#tid"``) for negation.
    witness: str | None = None

    def __str__(self) -> str:
        if self.satisfied:
            return f"{self.rule}: satisfied — no blocking condition"
        lines = [f"{self.rule}: not satisfied"]
        lines.append(f"  blocked at CE{self.cond_number}: {self.message}")
        if self.witness is not None:
            lines.append(f"  example blocking witness: {self.witness}")
        return "\n".join(lines)


def why_not(system, rule_name: str) -> WhyNot:
    """Name the first condition element blocking *rule_name*.

    On a Rete-family strategy this walks the rule's compiled join chain
    through the *live* memories — the answer points at an actual network
    node, not a re-derivation.  Other strategies fall back to the
    per-condition diagnosis (necessary-condition check bits).
    """
    if system.conflict_set.for_rule(rule_name):
        return WhyNot(rule=rule_name, satisfied=True)
    network = getattr(system.strategy, "network", None)
    chain = (getattr(network, "rule_chains", None) or {}).get(rule_name)
    if chain:
        return _why_not_rete(system, rule_name, chain)
    return _why_not_diagnosis(system, rule_name)


def _why_not_rete(system, rule_name: str, chain) -> WhyNot:
    def blocked(condition, kind, message, witness=None):
        return WhyNot(
            rule=rule_name,
            satisfied=False,
            kind=kind,
            cond_number=condition.cond_number,
            class_name=condition.class_name,
            negated=condition.negated,
            message=message,
            witness=witness,
        )

    for index, (condition, amem, node) in enumerate(chain):
        if index + 1 < len(chain):
            out_count = len(chain[index + 1][2].bmem)
        else:
            out_count = len(system.conflict_set.for_rule(rule_name))
        if out_count:
            continue
        display = str(condition.ce).strip("()-")
        if condition.negated:
            witness = None
            results = getattr(node, "results", {})
            for matches in results.values():
                if matches:
                    relation, tid = next(iter(matches))
                    witness = f"{relation}#{tid}"
                    break
            if len(node.bmem) == 0:
                # Nothing even reaches the negation: blame upstream.
                return blocked(
                    condition, "join",
                    f"no partial match reaches the negated CE "
                    f"({display}) — upstream join {node.bmem.name} is empty",
                )
            return blocked(
                condition, "negation",
                f"negated CE ({display}) is blocked: every partial match "
                f"at {node.name} has live witnesses in {amem.name} "
                f"({len(amem)} element(s))",
                witness=witness,
            )
        if len(amem) == 0:
            return blocked(
                condition, "alpha",
                f"no WM element of class {condition.class_name!r} passes "
                f"the alpha tests of CE{condition.cond_number} "
                f"({display}) — alpha memory {amem.name} is empty",
            )
        return blocked(
            condition, "join",
            f"join {node.name} produces nothing: {len(node.bmem)} partial "
            f"match(es) LEFT x {len(amem)} element(s) RIGHT, but no pair "
            f"passes its {len(node.tests)} join test(s)",
        )
    return WhyNot(
        rule=rule_name,
        satisfied=False,
        kind="join-combination",
        message="all network levels are populated yet no instantiation "
        "exists (refraction or a race retracted it)",
    )


def _why_not_diagnosis(system, rule_name: str) -> WhyNot:
    diagnosis = system.explain(rule_name)
    blocking = diagnosis.blocking_conditions()
    if blocking:
        first = blocking[0]
        polarity = "negated " if first.negated else ""
        kind = "negation" if first.negated else "alpha"
        count = first.matching_elements
        message = (
            f"{polarity}CE{first.cond_number} ({first.display}): "
            + (
                f"{count} blocking element(s) present"
                if first.negated
                else "no WM element satisfies it in isolation"
            )
        )
        return WhyNot(
            rule=rule_name,
            satisfied=False,
            kind=kind,
            cond_number=first.cond_number,
            class_name=first.class_name,
            negated=first.negated,
            message=message,
        )
    return WhyNot(
        rule=rule_name,
        satisfied=False,
        kind="join-combination",
        message="every condition element is satisfiable in isolation, but "
        "no binding-consistent combination exists (a join blocks it)",
    )


# -- the live dashboard -------------------------------------------------------


class TopAggregator:
    """Folds a trace stream into the ``repro top`` dashboard state.

    Consumes the record dicts the observability sinks carry: ``cycle``
    events (emitted once per engine cycle when any sink is attached),
    ``rete.batch_join`` spans (per-node probe heat) and
    ``recovery.fsync`` spans (WAL latency).  Unknown record shapes are
    skipped, so the aggregator tolerates traces from newer schemas.
    """

    def __init__(self, window: int = 64) -> None:
        self.window = window
        self._recent: deque[dict] = deque(maxlen=window)
        self.cycle_hist = Log2Histogram("engine.cycle_us")
        self.fsync_hist = Log2Histogram("recovery.sync_us")
        self.node_heat: dict[str, dict] = {}
        self.total_cycles = 0
        self.total_fires = 0
        self.last_cycle: dict = {}

    def feed(self, record) -> None:
        """Consume one trace record (anything unrecognized is ignored)."""
        if not isinstance(record, dict):
            return
        rtype = record.get("type")
        if rtype == "event" and record.get("kind") == "cycle":
            self.total_cycles += 1
            fires = record.get("fires")
            if isinstance(fires, int):
                self.total_fires += fires
            dur = record.get("dur_us")
            if isinstance(dur, (int, float)):
                self.cycle_hist.observe(dur)
            self._recent.append(record)
            self.last_cycle = record
        elif rtype == "span":
            name = record.get("name")
            dur = record.get("dur_us")
            if name == "rete.batch_join":
                attrs = record.get("attrs") or {}
                node = attrs.get("node")
                if node:
                    heat = self.node_heat.setdefault(
                        str(node), {"probes": 0, "pairs": 0, "us": 0.0}
                    )
                    heat["probes"] += 1
                    pairs = attrs.get("pairs")
                    if isinstance(pairs, int):
                        heat["pairs"] += pairs
                    if isinstance(dur, (int, float)):
                        heat["us"] += dur
            elif name == "recovery.fsync" and isinstance(dur, (int, float)):
                self.fsync_hist.observe(dur)

    def feed_line(self, line: str) -> None:
        """Consume one JSONL trace line (bad lines are skipped)."""
        import json

        line = line.strip()
        if not line:
            return
        try:
            self.feed(json.loads(line))
        except ValueError:
            pass

    # -- derived figures ------------------------------------------------------

    def cycles_per_second(self) -> float:
        """Throughput over the sliding window (wall-clock timestamps)."""
        if len(self._recent) < 2:
            return 0.0
        first, last = self._recent[0], self._recent[-1]
        t0, t1 = first.get("ts"), last.get("ts")
        if isinstance(t0, (int, float)) and isinstance(t1, (int, float)):
            elapsed = t1 - t0
            if elapsed > 0:
                return (len(self._recent) - 1) / elapsed
        total_us = sum(
            r.get("dur_us", 0)
            for r in self._recent
            if isinstance(r.get("dur_us"), (int, float))
        )
        return len(self._recent) / (total_us / 1e6) if total_us else 0.0

    def hottest_nodes(self, count: int = 5) -> list[tuple[str, dict]]:
        """Join nodes by accumulated probe time (then probe count)."""
        return sorted(
            self.node_heat.items(),
            key=lambda item: (item[1]["us"], item[1]["probes"]),
            reverse=True,
        )[:count]

    def wal_lag(self) -> int | None:
        """Records appended but not yet durable, from the last cycle."""
        pending = self.last_cycle.get("wal_pending")
        return pending if isinstance(pending, int) else None

    def snapshot(self) -> dict:
        """JSON-ready dashboard state."""
        return {
            "cycles": self.total_cycles,
            "fires": self.total_fires,
            "cycles_per_sec": self.cycles_per_second(),
            "cycle_us": {
                "p50": self.cycle_hist.percentile(0.50),
                "p95": self.cycle_hist.percentile(0.95),
                "p99": self.cycle_hist.percentile(0.99),
            },
            "fsync_us": {
                "count": self.fsync_hist.count,
                "p99": self.fsync_hist.percentile(0.99),
            },
            "conflict_set": self.last_cycle.get("conflict_set"),
            "wal_seq": self.last_cycle.get("wal_seq"),
            "wal_pending": self.wal_lag(),
            "hot_nodes": [
                {"node": node, **heat}
                for node, heat in self.hottest_nodes()
            ],
        }


def render_top(aggregator: TopAggregator) -> str:
    """One dashboard frame as text (``repro top`` redraws it in place)."""
    snap = aggregator.snapshot()
    cycle = snap["cycle_us"]
    lines = [
        "repro top — engine dashboard",
        f"  cycles {snap['cycles']}   fires {snap['fires']}   "
        f"{snap['cycles_per_sec']:.1f} cycles/sec",
        f"  cycle latency  p50 {cycle['p50']:.0f}us   "
        f"p95 {cycle['p95']:.0f}us   p99 {cycle['p99']:.0f}us",
    ]
    conflict = snap["conflict_set"]
    if conflict is not None:
        lines.append(f"  conflict set   {conflict} instantiation(s)")
    if snap["wal_seq"] is not None:
        lag = snap["wal_pending"]
        lines.append(
            f"  wal            seq {snap['wal_seq']}   "
            f"lag {lag if lag is not None else '?'} record(s)   "
            f"fsync p99 {snap['fsync_us']['p99']:.0f}us "
            f"({snap['fsync_us']['count']} syncs)"
        )
    if snap["hot_nodes"]:
        lines.append("  hottest join nodes:")
        for entry in snap["hot_nodes"]:
            lines.append(
                f"    {entry['node']:<8} {entry['probes']:>6} probes  "
                f"{entry['pairs']:>8} pairs  {entry['us']:>10.0f}us"
            )
    return "\n".join(lines)

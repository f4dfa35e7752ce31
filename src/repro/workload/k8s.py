"""The k8s-auto-fix workload: a production-shaped serving profile.

The served benchmark (``perf/``'s ``k8s_fleet`` and ``k8s_replicated``
workloads) needs a rule pack that looks like a real always-on consumer —
not a synthetic chain.  This one is a cluster auto-remediator: *events*
(crash loops, OOM kills, node pressure, failed probes) stream into
working memory, and rules diagnose
each one against the *pod*/*node* inventory, emit a *remediation*,
verify it, and escalate repeat offenders to a *ticket*.  Every event is
consumed by exactly one rule, so a quiescent engine has an empty event
relation — the invariant the soak test asserts.

Everything here is deterministic in the seed: the same stream against
the same program yields the same remediations, tickets and firing
sequence on every run, which is what lets the crash-restart suite
compare a killed-and-recovered server against an uninterrupted one.
"""

from __future__ import annotations

import random

#: The auto-fix rule pack.  Attribute conventions: counts are integers,
#: everything else symbols.  ``count <= 3`` routes to a kind-specific
#: fix; ``count > 3`` escalates instead — the guards are disjoint, so
#: rule applicability never races on resolution order.
K8S_PROGRAM = """
(literalize event id pod node kind count)
(literalize pod name node restarts memory)
(literalize node name cordoned)
(literalize remediation pod action verified)
(literalize ticket pod kind count)

(p restart-crashloop
    (event ^id <e> ^pod <p> ^kind crashloop ^count <= 3)
    (pod ^name <p> ^restarts <r>)
    -(remediation ^pod <p> ^action restart)
    -->
    (make remediation ^pod <p> ^action restart ^verified no)
    (modify 2 ^restarts (compute <r> + 1))
    (remove 1))

(p raise-memory-oom
    (event ^id <e> ^pod <p> ^kind oomkill ^count <= 3)
    (pod ^name <p> ^memory <m>)
    -(remediation ^pod <p> ^action raise-memory)
    -->
    (make remediation ^pod <p> ^action raise-memory ^verified no)
    (modify 2 ^memory (compute <m> * 2))
    (remove 1))

(p cordon-pressured-node
    (event ^id <e> ^node <n> ^kind pressure ^count <= 3)
    (node ^name <n> ^cordoned no)
    -->
    (make remediation ^pod <n> ^action cordon ^verified no)
    (modify 2 ^cordoned yes)
    (remove 1))

(p drop-pressure-on-cordoned
    (event ^id <e> ^node <n> ^kind pressure ^count <= 3)
    (node ^name <n> ^cordoned yes)
    -->
    (remove 1))

(p restart-failed-probe
    (event ^id <e> ^pod <p> ^kind probe ^count <= 3)
    (pod ^name <p> ^restarts <r>)
    -(remediation ^pod <p> ^action restart)
    -->
    (make remediation ^pod <p> ^action restart ^verified no)
    (modify 2 ^restarts (compute <r> + 1))
    (remove 1))

(p drop-already-restarted
    (event ^id <e> ^pod <p> ^kind << crashloop probe >> ^count <= 3)
    (remediation ^pod <p> ^action restart)
    -->
    (remove 1))

(p drop-already-resized
    (event ^id <e> ^pod <p> ^kind oomkill ^count <= 3)
    (remediation ^pod <p> ^action raise-memory)
    -->
    (remove 1))

(p escalate-repeat-offender
    (event ^id <e> ^pod <p> ^kind <k> ^count > 3)
    -->
    (make ticket ^pod <p> ^kind <k> ^count <e>)
    (remove 1))

(p drop-orphan-event
    (event ^id <e> ^pod <p> ^kind <k> ^count <= 3)
    -(pod ^name <p>)
    -(node ^name <p>)
    -->
    (remove 1))

(p verify-remediation
    (remediation ^pod <p> ^action <a> ^verified no)
    -->
    (modify 1 ^verified yes))
"""

#: Event kinds with their relative weights in the generated stream.
EVENT_KINDS = (
    ("crashloop", 4),
    ("oomkill", 3),
    ("pressure", 2),
    ("probe", 3),
)


def k8s_setup(pods: int = 8, nodes: int = 3) -> list[tuple[str, dict]]:
    """Inventory inserts: *nodes* nodes, *pods* pods round-robin on them."""
    ops: list[tuple[str, dict]] = []
    for n in range(nodes):
        ops.append(("node", {"name": f"node-{n}", "cordoned": "no"}))
    for p in range(pods):
        ops.append(
            (
                "pod",
                {
                    "name": f"pod-{p}",
                    "node": f"node-{p % nodes}",
                    "restarts": 0,
                    "memory": 256,
                },
            )
        )
    return ops


def k8s_events(
    count: int, seed: int = 0, pods: int = 8, nodes: int = 3
) -> list[tuple[str, dict]]:
    """A deterministic stream of *count* cluster events.

    Roughly one event in eight carries ``count > 3`` (the escalation
    path); a few name pods that are not in the inventory (the orphan
    path), so every rule in the pack sees traffic.
    """
    rng = random.Random(seed)
    kinds = [kind for kind, weight in EVENT_KINDS for _ in range(weight)]
    events: list[tuple[str, dict]] = []
    for i in range(count):
        kind = kinds[rng.randrange(len(kinds))]
        if rng.randrange(12) == 0:
            target = f"ghost-{rng.randrange(4)}"  # not in the inventory
        else:
            target = f"pod-{rng.randrange(pods)}"
        events.append(
            (
                "event",
                {
                    "id": i + 1,
                    "pod": target,
                    "node": f"node-{rng.randrange(nodes)}",
                    "kind": kind,
                    "count": 5 if rng.randrange(8) == 0 else 1 + rng.randrange(3),
                },
            )
        )
    return events


def as_requests(
    tenant: str, ops: list[tuple[str, dict]], start_seq: int = 1
) -> list[dict]:
    """Wrap raw ``(relation, values)`` ops as serve-protocol inserts."""
    return [
        {
            "op": "insert",
            "tenant": tenant,
            "seq": start_seq + i,
            "relation": relation,
            "values": values,
        }
        for i, (relation, values) in enumerate(ops)
    ]

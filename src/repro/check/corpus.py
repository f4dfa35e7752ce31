"""The checked-in regression corpus.

Every shrunk failing trace the fuzzer finds is promoted into
``tests/corpus/`` as a small JSON file (program source + op script) and
replayed by the tier-1 pytest run from then on — the fuzzer's findings
become permanent regression tests.

File format (one :class:`~repro.check.trace.Trace` per file)::

    {
      "name": "seed0-17-negation",
      "seed": 0,
      "reason": "[conflict] simplified/memory vs ...",
      "batch": 8,
      "program": "(literalize K0 a0 a1 a2)\\n(p rule0 ...)",
      "ops": [["insert", "K0", [1, 2, 0]], ["delete", 3], ["attach"]],
      "max_cycles": 30
    }

``batch`` is the op chunk size every configuration replays; files that
predate the field replay in chunks of 8.
"""

from __future__ import annotations

import os

from repro.check.drive import Divergence
from repro.check.oracle import run_trace
from repro.check.trace import Trace


def save_repro(
    trace: Trace, directory: str, divergence: Divergence | None = None
) -> str:
    """Write *trace* into *directory* as ``<name>.json``; returns the path.

    A name collision gets a numeric suffix rather than overwriting — two
    different shrunk repros can share a generation name.
    """
    os.makedirs(directory, exist_ok=True)
    if divergence is not None and not trace.reason:
        trace = trace.with_reason(divergence.describe())
    base = trace.name or "repro"
    path = os.path.join(directory, f"{base}.json")
    suffix = 1
    while os.path.exists(path):
        suffix += 1
        path = os.path.join(directory, f"{base}-{suffix}.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(trace.dumps())
    return path


def load_trace(path: str) -> Trace:
    """Read one corpus file."""
    with open(path, encoding="utf-8") as handle:
        return Trace.loads(handle.read())


def load_corpus(directory: str) -> list[tuple[str, Trace]]:
    """All (path, trace) pairs under *directory*, sorted by filename."""
    if not os.path.isdir(directory):
        return []
    entries = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            path = os.path.join(directory, name)
            entries.append((path, load_trace(path)))
    return entries


def replay(trace: Trace, strategies=None) -> Divergence | None:
    """Replay a corpus trace across the full default matrix."""
    return run_trace(trace, strategies=strategies)

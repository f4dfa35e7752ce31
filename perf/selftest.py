#!/usr/bin/env python3
"""Checks on the benchmark itself (not part of tier-1: ``testpaths`` is
``tests``).  Run it as ``python perf/selftest.py``; it takes well under a
minute.

* every name in ``BENCHMARK.json`` is emitted by a ``--smoke`` run of its
  pass, finite, with its declared unit, on every workload;
* the reference-state check fires on a deliberately corrupted state;
* span self times are non-negative and spans nest in their parents, and
  the nesting check fires on a deliberately broken span.
"""

from __future__ import annotations

import copy
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import run  # noqa: E402
from rig import CheckFailed, Rig  # noqa: E402
from workloads import WORKLOADS, reference_state  # noqa: E402


def check_names_emitted() -> None:
    for name in WORKLOADS:
        for trace, spec in ((False, run.END_TO_END), (True, run.PER_LAYER)):
            result = run.run_pass(name, seed=11, plan=run.SMOKE, trace=trace)
            assert result["correct"], (name, trace, result.get("error"))
            assert result["failed"] == 0 and result["attempted"] >= 1
            assert set(result["metrics"]) == set(spec), (
                name, trace, set(spec) ^ set(result["metrics"]))
            for metric, entry in result["metrics"].items():
                assert entry["unit"] == spec[metric]["unit"], (name, metric)
                assert math.isfinite(entry["value"]), (name, metric)
            if not trace:
                for metric, entry in result["metrics"].items():
                    assert entry["value"] > 0, (name, metric)
                continue
            assert result["detail"]["match_rete_spans"] == 0 or \
                name != "patterns_dbms", "Rete code ran on patterns_dbms"
            shipped = result["metrics"]["replica.ship_wait_us"]["value"]
            assert (shipped > 0) == WORKLOADS[name].replicated, (name, shipped)
            spans = layers.read_spans(
                run.RUNS / result["manifest"]["run_id"] / "spans.jsonl")
            layers.check_nesting(spans)
            broken = copy.deepcopy(spans)
            child = next(s for s in broken if s[layers.PARENT] >= 0)
            child[layers.END] = broken[child[layers.PARENT]][layers.END] + 1.0
            try:
                layers.check_nesting(broken)
            except ValueError:
                pass
            else:
                raise AssertionError("a span escaping its parent went unnoticed")
        print(f"ok  {name}: every end-to-end and per-layer name emitted")


def check_reference_fires() -> None:
    workload = WORKLOADS["join_churn"].shrunk(8)
    rig = Rig(None, workload, 11, Path("unused"))
    states = {}
    for tenant in rig.tenants:
        for op in tenant.stream.resident():
            tenant.request(op)
        for _ in range(60):
            tenant.request(tenant.stream.next_op())
        states[tenant.name] = {
            "applied_seq": tenant.seq,
            "relations": reference_state(workload, tenant.ops),
        }
    rig.check_states(states, "true state")
    wrong_row = copy.deepcopy(states)
    wrong_row["j0"]["relations"]["stock"][0][1][-1] += 1
    lost_ack = copy.deepcopy(states)
    lost_ack["j1"]["applied_seq"] -= 1
    for label, corrupted in (("row", wrong_row), ("applied_seq", lost_ack)):
        try:
            rig.check_states(corrupted, "corrupted state")
        except CheckFailed:
            continue
        raise AssertionError(f"a corrupted {label} passed the reference check")
    print("ok  the reference-state check fires on a corrupted state")


if __name__ == "__main__":
    check_reference_fires()
    check_names_emitted()
    print("selftest passed")

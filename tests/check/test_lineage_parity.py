"""Lineage-on cells of the fuzz matrix are bit-identical to their twins.

The engine-level claim behind ``lineage=True`` being safe to flip on in
production: the :class:`repro.obs.xray.LineageRecorder` is a pure
conflict-set listener, so every checkpointed observable — conflict-set
keys, firing sequence, final WM — matches the lineage-off twin cell.
"""

import pytest

from repro.check import CheckConfig, generate_trace, run_trace


def test_label_carries_the_lineage_suffix():
    assert CheckConfig("rete", "memory", lineage=True).label == (
        "rete/memory/lineage"
    )
    assert "/lineage" not in CheckConfig("rete", "memory").label


@pytest.mark.parametrize("profile", [0, 3, 5])
def test_lineage_cells_agree_with_their_twins(profile):
    trace = generate_trace(11, profile)
    configs = [
        CheckConfig("rete", "memory", per_op=True),
        CheckConfig("rete", "memory", lineage=True, per_op=True),
        CheckConfig("rete-shared", "memory", lineage=True),
        CheckConfig("patterns", "memory", lineage=True),
    ]
    assert run_trace(trace, configs=configs) is None

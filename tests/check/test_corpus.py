"""The checked-in regression corpus, replayed as part of tier 1.

Every file under ``tests/corpus/`` is a :class:`repro.check.Trace` —
either a seed entry pinning cross-strategy parity for one trace profile,
or a shrunk repro promoted by ``repro check --save-repro`` after a real
divergence.  Each is replayed here across the **full**
strategy × backend matrix plus the interpreted per-op reference cell,
with ops chunked by the entry's ``batch`` (8 when the file predates the
field); a failure means a previously
fixed bug is back (the file's ``reason`` field says what it guarded).
"""

import os

import pytest

from repro.check import load_corpus, load_trace, replay, save_repro
from repro.check.trace import Trace, TraceOp

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "..", "corpus")

ENTRIES = load_corpus(CORPUS_DIR)


def entry_id(entry):
    return os.path.basename(entry[0])


@pytest.mark.parametrize("entry", ENTRIES, ids=entry_id)
def test_corpus_trace_replays_clean(entry):
    path, trace = entry
    divergence = replay(trace)
    assert divergence is None, (
        f"{os.path.basename(path)} regressed "
        f"(guards: {trace.reason or 'unknown'}):\n{divergence.describe()}"
    )


def test_corpus_is_not_empty():
    """The seed entries must survive refactors of the corpus loader."""
    assert len(ENTRIES) >= 5


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        trace = Trace(
            name="rt", seed=9, program="(literalize item kind)\n",
            ops=(TraceOp.insert("item", (1,)),), reason="test",
        )
        path = save_repro(trace, str(tmp_path))
        assert load_trace(path) == trace

    def test_name_collision_gets_suffix(self, tmp_path):
        trace = Trace(name="dup", seed=0, program="(literalize x a)\n")
        first = save_repro(trace, str(tmp_path))
        second = save_repro(trace, str(tmp_path))
        assert first != second
        assert os.path.exists(first) and os.path.exists(second)

    def test_load_corpus_of_missing_directory_is_empty(self, tmp_path):
        assert load_corpus(str(tmp_path / "nope")) == []

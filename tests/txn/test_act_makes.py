"""Consecutive same-class ``make``s commit the same batch in both exec modes.

A §5 transaction runs its RHS inside one ``wm.batch()``: each ``make``
stages its row with a reserved tid and a fresh timetag, and the commit
delivers the netted batch once.  The serial cycle runs the same RHS
eagerly, one notification per change.  Both must leave the same working
memory, refract the same keys, and — netted per firing — describe the
same committed change.
"""

from repro.delta import DELETE, INSERT, Delta, DeltaBatch
from repro.engine import ProductionSystem
from repro.txn import ConcurrentScheduler

# Round 1 fires `spawn` (three Item makes, then a Log make, then a
# remove); round 2 fires `tally` (a Tally make, a remove, then two more
# Tally makes).
# Each round has exactly one instantiation, so both modes fire the same
# sequence.
MAKES = """
(literalize Seed x)
(literalize Item x k)
(literalize Log x)
(literalize Tally x n)
(p spawn (Seed ^x <V>)
   --> (make Item ^x <V> ^k 1) (make Item ^x <V> ^k 2)
       (make Item ^x <V> ^k 3) (make Log ^x <V>) (remove 1))
(p tally (Log ^x <V>) (Item ^x <V> ^k 2)
   --> (make Tally ^x <V> ^n 1) (remove 2) (make Tally ^x <V> ^n 2)
       (make Tally ^x <V> ^n 3))
"""


class _BatchRecorder:
    """Collects every change the WM delivers, batched or not."""

    def __init__(self) -> None:
        self.batches = []

    def on_delta(self, batch: DeltaBatch) -> None:
        self.batches.append(list(batch))

    def on_insert(self, wme) -> None:
        self.batches.append([Delta(INSERT, wme)])

    def on_delete(self, wme) -> None:
        self.batches.append([Delta(DELETE, wme)])


def _wm(system):
    return {
        name: sorted(
            (row.tid, row.timetag, row.values) for row in system.wm.tuples(name)
        )
        for name in system.wm.schemas
    }


def _seeded():
    system = ProductionSystem(MAKES)
    system.insert("Seed", (7,))
    return system


def _txn_run():
    system = _seeded()
    recorder = _BatchRecorder()
    system.wm.add_listener(recorder)
    result = ConcurrentScheduler(system).run()
    assert [r.committed for r in result.rounds] == [1, 1]
    return system, recorder.batches


def _serial_run():
    system = _seeded()
    recorder = _BatchRecorder()
    system.wm.add_listener(recorder)
    batches = []
    while True:
        # Unbatched: each change arrives as its own one-delta batch.
        recorder.batches.clear()
        if system.step() is None:
            break
        deltas = [delta for batch in recorder.batches for delta in batch]
        batches.append(list(DeltaBatch(deltas).net()))
    return system, batches


def test_txn_commit_equals_serial_cycle():
    txn, txn_batches = _txn_run()
    serial, serial_batches = _serial_run()
    assert _wm(txn) == _wm(serial)
    assert txn.refraction_keys == serial.refraction_keys
    assert txn_batches == serial_batches
    assert [len(batch) for batch in txn_batches] == [5, 4]
    assert sorted(row.values for row in txn.wm.tuples("Item")) == [
        (7, 1), (7, 3)
    ]
    assert sorted(row.values for row in txn.wm.tuples("Tally")) == [
        (7, 1), (7, 2), (7, 3)
    ]
    # The staged makes take tids and timetags in RHS order.
    spawned = [d for d in txn_batches[0] if d.op == INSERT]
    assert [(d.relation, d.wme.values) for d in spawned] == [
        ("Item", (7, 1)), ("Item", (7, 2)), ("Item", (7, 3)), ("Log", (7,))
    ]
    assert [d.wme.timetag for d in spawned] == sorted(
        d.wme.timetag for d in spawned
    )
    assert [d.tid for d in spawned[:3]] == sorted(d.tid for d in spawned[:3])


"""Write the ``ckpt-v1`` golden tenant with an older source tree.

The directory must be written by a tree whose checkpoints still carry
the whole fired list (``CHECKPOINT_VERSION`` 1), so that the current
tree's tests recover a file it did not write.  Export such a tree
(``git archive <commit> | tar -x -C OLD``) and run, from the repo root::

    python tests/golden/make_ckpt_v1.py --tree OLD --out tests/golden/ckpt-v1

The old tree's ``repro serve`` hosts one tenant of the k8s pack with a
4 KiB segment budget and a checkpoint every 8 rounds.  The script streams
the inventory and 45 events (56 rounds, so 7 cuts) plus 7 more events,
then kills the server with SIGKILL: the data dir holds a v1 checkpoint,
rotated segments and a log suffix past the checkpoint.  The old tree's
``recover()`` of a copy of the dir gives the fired list and the WM; the
current tree's :func:`repro.recovery.wal.fold_fired` folds that list
into the count and digest ``expected.json`` records.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO / "src"))

from repro.recovery.wal import fold_fired  # noqa: E402
from repro.workload.k8s import K8S_PROGRAM, k8s_events, k8s_setup  # noqa: E402

TENANT = "golden"
EVENTS = 52

#: Run by the old tree: recover the tenant and dump what expected.json needs.
DUMP = """
import json, sys
from repro.recovery import recover
from repro.recovery.wal import encode_fired
state = recover(sys.argv[1], sys.argv[2])
wm = state.system.wm
print(json.dumps({
    "applied_seq": state.extra["applied_seq"],
    "next_seq": state.next_seq,
    "fired": [encode_fired(triple) for triple in state.fired],
    "relations": {
        name: [[w.tid, w.timetag, list(w.values)]
               for w in sorted(wm.tuples(name), key=lambda w: w.tid)]
        for name in sorted(wm.schemas)
    },
}))
"""


def old_tree_env(tree: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(tree / "src")}


def drive(tree: Path, out: Path) -> None:
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--data-dir", str(out),
         "--rotate-bytes", "4096", "--checkpoint-rounds", "8"],
        stdout=subprocess.PIPE, text=True, env=old_tree_env(tree),
    )
    host, _, port = proc.stdout.readline().split()[-1].rpartition(":")
    with socket.create_connection((host, int(port))) as sock:
        stream = sock.makefile("rw")

        def call(**body):
            stream.write(json.dumps(body) + "\n")
            stream.flush()
            reply = json.loads(stream.readline())
            assert reply.get("ok") is True, reply
            return reply

        call(op="attach", tenant=TENANT, program=K8S_PROGRAM)
        ops = k8s_setup() + k8s_events(EVENTS, seed=0)
        for seq, (relation, values) in enumerate(ops, 1):
            call(op="insert", tenant=TENANT, seq=seq, relation=relation,
                 values=values)
    proc.send_signal(signal.SIGKILL)
    proc.wait()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    if args.out.exists():
        shutil.rmtree(args.out)
    data = args.out / "data"
    data.mkdir(parents=True)
    drive(args.tree, data)
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / "data"
        shutil.copytree(data, copy)
        dumped = json.loads(subprocess.run(
            [sys.executable, "-c", DUMP, str(copy / f"{TENANT}.wal"),
             str(copy / f"{TENANT}.ckpt")],
            check=True, capture_output=True, text=True,
            env=old_tree_env(args.tree),
        ).stdout)
    fired = dumped.pop("fired")
    expected = {
        "tenant": TENANT,
        **dumped,
        "fired_count": len(fired),
        "fired_digest": fold_fired("", fired),
    }
    (args.out / "expected.json").write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""Serve soak: two tenants, sustained k8s events, a kill -9, a resume.

CI's production-shaped endurance check for ``repro serve``.  The soak
spawns the server exactly as an operator would, attaches two tenants to
the k8s-auto-fix pack, and streams deterministic cluster events at the
nominal rate (one in flight per tenant) for half the soak budget.  Then
it ``kill -9``s the server mid-stream, restarts it on the same data
directory, verifies every tenant recovered with its exactly-once mark
intact (re-sending the last acked op must dedup), and streams the rest
of the budget before a clean protocol shutdown.

Hard assertions, all deterministic:

* every mutation ack is ``ok`` and ``durable``; nothing is shed at the
  nominal rate;
* after restart the recovered ``applied_seq`` equals the last acked seq;
* the event relation is empty at quiescence (the pack consumes every
  event — the k8s workload invariant);
* the server exits 0 on protocol shutdown;
* after it, every tenant's checkpoint, less its WM rows, is under
  :data:`CHECKPOINT_LIMIT` bytes — a checkpoint holds live state, not
  the history of the run.  The WM rows are live state too, but the
  pack's ``ticket`` relation grows with the stream, so their size
  depends on how many events the host pushed through in the budget.

Every request/reply pair is appended to a per-phase JSONL trace under
``--trace-dir``; CI uploads the traces when the soak fails.

Usage::

    PYTHONPATH=src python tools/serve_soak.py --duration 30 \
        --trace-dir soak-traces
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.workload.k8s import K8S_PROGRAM, k8s_events, k8s_setup  # noqa: E402

TENANTS = ("acme", "globex")

#: Bound on a tenant's checkpoint, less its WM rows, after the soak's
#: clean shutdown.
CHECKPOINT_LIMIT = 64 * 1024


class SoakFailure(AssertionError):
    pass


def check(condition: bool, detail: str) -> None:
    if not condition:
        raise SoakFailure(detail)


class Tracer:
    """Appends request/reply lines to one JSONL file per phase."""

    def __init__(self, trace_dir: Path, phase: str) -> None:
        trace_dir.mkdir(parents=True, exist_ok=True)
        self.path = trace_dir / f"{phase}.jsonl"
        self.file = self.path.open("a", encoding="utf-8")
        self.started = time.perf_counter()

    def record(self, request: dict, reply: dict) -> None:
        self.file.write(json.dumps(
            {"t": round(time.perf_counter() - self.started, 6),
             "request": request, "reply": reply},
            sort_keys=True,
        ) + "\n")

    def close(self) -> None:
        self.file.flush()
        self.file.close()


class Client:
    def __init__(self, host: str, port: int, tracer: Tracer) -> None:
        self.sock = socket.create_connection((host, port), timeout=60)
        self.file = self.sock.makefile("rwb")
        self.tracer = tracer

    def call(self, **body):
        self.file.write(json.dumps(body).encode("utf-8") + b"\n")
        self.file.flush()
        line = self.file.readline()
        if not line:
            raise SoakFailure(f"server hung up on {body.get('op')}")
        reply = json.loads(line)
        self.tracer.record(body, reply)
        return reply

    def close(self) -> None:
        try:
            self.file.close()
        finally:
            self.sock.close()


def spawn(data_dir: Path, *extra: str) -> tuple[subprocess.Popen, str, int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(Path(__file__).resolve().parents[1] / "src")
        + os.pathsep + env.get("PYTHONPATH", "")
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--data-dir", str(data_dir), *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    line = proc.stdout.readline()
    check(line.startswith("serving on "),
          f"server failed to announce: {line!r}")
    host, _, port = line.strip().rpartition(" ")[2].rpartition(":")
    return proc, host, int(port)


def event_request(tenant: str, seq: int, values: dict) -> dict:
    return {"op": "insert", "tenant": tenant, "seq": seq,
            "relation": "event", "values": values}


def stream_until(client, deadline: float, streams, cursors, acked) -> int:
    """Round-robin one acked event per tenant until *deadline*."""
    sent = 0
    while time.perf_counter() < deadline:
        for tenant in TENANTS:
            index = cursors[tenant]
            check(index < len(streams[tenant]),
                  f"{tenant}: event stream exhausted; raise --events")
            _, values = streams[tenant][index]
            seq = acked[tenant] + 1
            reply = client.call(**event_request(tenant, seq, values))
            check(reply.get("ok") is True and reply.get("durable") is True,
                  f"{tenant}: bad ack {reply}")
            check(not reply.get("shed"), f"{tenant}: shed at nominal rate")
            cursors[tenant] = index + 1
            acked[tenant] = seq
            sent += 1
    return sent


def assert_bounded_checkpoints(data_dir: Path) -> dict:
    sizes = {}
    for tenant in TENANTS:
        path = data_dir / f"{tenant}.ckpt"
        relations = json.loads(path.read_text())["body"]["relations"]
        wm_bytes = len(json.dumps(relations, sort_keys=True,
                                  separators=(",", ":")))
        size = path.stat().st_size
        check(size - wm_bytes < CHECKPOINT_LIMIT,
              f"{tenant}: checkpoint is {size} bytes after shutdown, "
              f"{size - wm_bytes} of them not WM rows — over the "
              f"{CHECKPOINT_LIMIT}-byte bound")
        sizes[tenant] = {"total": size, "wm_rows": wm_bytes}
    return sizes


def assert_no_shed(client) -> None:
    status = client.call(op="status")
    check(status["admission"]["shed"] == 0,
          f"ops shed at nominal rate: {status['admission']}")


def soak(duration: float, data_dir: Path, trace_dir: Path,
         events: int) -> dict:
    streams = {
        tenant: k8s_events(events, seed=index)
        for index, tenant in enumerate(TENANTS)
    }
    cursors = dict.fromkeys(TENANTS, 0)
    acked = dict.fromkeys(TENANTS, 0)
    started = time.perf_counter()

    # -- phase 1: sustained streaming at the nominal rate ------------------
    tracer = Tracer(trace_dir, "phase1-stream")
    proc, host, port = spawn(data_dir)
    client = Client(host, port, tracer)
    for tenant in TENANTS:
        reply = client.call(op="attach", tenant=tenant, program=K8S_PROGRAM)
        check(reply.get("ok") is True, f"{tenant}: attach failed {reply}")
        for relation, values in k8s_setup():
            seq = acked[tenant] + 1
            reply = client.call(
                op="insert", tenant=tenant, seq=seq,
                relation=relation, values=values,
            )
            check(reply.get("ok") is True, f"{tenant}: setup {reply}")
            acked[tenant] = seq
    phase1 = stream_until(client, started + duration / 2,
                          streams, cursors, acked)
    assert_no_shed(client)
    client.close()
    tracer.close()

    # -- phase 2: kill -9 mid-stream ---------------------------------------
    proc.send_signal(signal.SIGKILL)
    proc.wait(timeout=60)
    check(proc.returncode != 0, "SIGKILL produced a zero exit?")

    # -- phase 3: restart, verify recovery, resume the stream --------------
    tracer = Tracer(trace_dir, "phase3-resume")
    proc, host, port = spawn(data_dir)
    client = Client(host, port, tracer)
    status = client.call(op="status")
    check(status["recovered_tenants"] == sorted(TENANTS),
          f"recovery missed tenants: {status['recovered_tenants']}")
    for tenant in TENANTS:
        stats = client.call(op="stats", tenant=tenant)
        check(stats["applied_seq"] == acked[tenant],
              f"{tenant}: acked {acked[tenant]} but recovered "
              f"applied_seq {stats['applied_seq']} — an acked op was lost")
        # exactly-once: replaying the last acked op must dedup
        index = cursors[tenant] - 1
        _, values = streams[tenant][index]
        reply = client.call(**event_request(tenant, acked[tenant], values))
        check(reply.get("dup") is True,
              f"{tenant}: replayed acked op was not deduped: {reply}")
    phase3 = stream_until(client, started + duration,
                          streams, cursors, acked)
    assert_no_shed(client)
    for tenant in TENANTS:
        rows = client.call(op="query", tenant=tenant,
                           relation="event")["rows"]
        check(rows == [],
              f"{tenant}: {len(rows)} events unconsumed at quiescence")

    # -- phase 4: clean shutdown -------------------------------------------
    client.call(op="shutdown")
    client.close()
    tracer.close()
    proc.wait(timeout=60)
    check(proc.returncode == 0,
          f"clean shutdown exited {proc.returncode}")
    checkpoint_bytes = assert_bounded_checkpoints(data_dir)

    elapsed = time.perf_counter() - started
    return {
        "elapsed_s": round(elapsed, 2),
        "events_phase1": phase1,
        "events_phase3": phase3,
        "events_total": phase1 + phase3,
        "events_per_s": round((phase1 + phase3) / elapsed, 1),
        "acked": acked,
        "checkpoint_bytes": checkpoint_bytes,
    }


def failover_soak(duration: float, data_dir: Path, trace_dir: Path,
                  events: int) -> dict:
    """The replicated soak: primary + warm standby, ``kill -9`` of the
    primary mid-stream, promotion over the wire, fenced stale primary.

    Same hard assertions as the plain soak, plus: zero replication lag
    under the nominal rate, no acked op lost across the failover, the
    promoted standby finishes the stream, and the restarted old primary
    is refused with its stale epoch named.
    """
    streams = {
        tenant: k8s_events(events, seed=index)
        for index, tenant in enumerate(TENANTS)
    }
    cursors = dict.fromkeys(TENANTS, 0)
    acked = dict.fromkeys(TENANTS, 0)
    started = time.perf_counter()
    primary_dir = data_dir / "primary"
    standby_dir = data_dir / "standby"

    # -- phase 1: replicated streaming at the nominal rate -----------------
    tracer = Tracer(trace_dir, "phase1-replicated-stream")
    pproc, phost, pport = spawn(primary_dir)
    client = Client(phost, pport, tracer)
    for tenant in TENANTS:
        reply = client.call(op="attach", tenant=tenant, program=K8S_PROGRAM)
        check(reply.get("ok") is True, f"{tenant}: attach failed {reply}")
        for relation, values in k8s_setup():
            seq = acked[tenant] + 1
            reply = client.call(
                op="insert", tenant=tenant, seq=seq,
                relation=relation, values=values,
            )
            check(reply.get("ok") is True, f"{tenant}: setup {reply}")
            acked[tenant] = seq
    fproc, fhost, fport = spawn(
        standby_dir, "--follow", f"{phost}:{pport}",
        "--takeover-deadline", "0",
    )
    attach_deadline = time.perf_counter() + 30
    while True:
        status = client.call(op="status")
        if status["replication"].get("follower_attached"):
            break
        check(time.perf_counter() < attach_deadline,
              "standby never attached to the primary")
        time.sleep(0.1)
    phase1 = stream_until(client, started + duration / 2,
                          streams, cursors, acked)
    assert_no_shed(client)
    status = client.call(op="status")
    check(status["replication"]["degraded"] == 0,
          f"pair degraded during the stream: {status['replication']}")
    client.close()
    tracer.close()

    # -- phase 2: kill -9 the primary --------------------------------------
    pproc.send_signal(signal.SIGKILL)
    pproc.wait(timeout=60)
    check(pproc.returncode != 0, "SIGKILL produced a zero exit?")

    # -- phase 3: promote the standby, verify, resume the stream -----------
    tracer = Tracer(trace_dir, "phase3-promoted")
    client = Client(fhost, fport, tracer)
    lag = client.call(op="status")["replication"]
    check(lag["lag_records"] == 0,
          f"standby lagging at promotion time: {lag}")
    promote_started = time.perf_counter()
    reply = client.call(op="promote")
    promote_ms = (time.perf_counter() - promote_started) * 1e3
    check(reply.get("ok") is True, f"promote failed: {reply}")
    check(sorted(reply["tenants"]) == sorted(TENANTS),
          f"promotion missed tenants: {reply}")
    epoch = reply["epoch"]
    check(epoch >= 2, f"promotion did not bump the epoch: {reply}")
    for tenant in TENANTS:
        stats = client.call(op="stats", tenant=tenant)
        check(stats["applied_seq"] == acked[tenant],
              f"{tenant}: acked {acked[tenant]} but promoted standby has "
              f"applied_seq {stats['applied_seq']} — an acked op was lost")
        index = cursors[tenant] - 1
        _, values = streams[tenant][index]
        reply = client.call(**event_request(tenant, acked[tenant], values))
        check(reply.get("dup") is True,
              f"{tenant}: replayed acked op was not deduped: {reply}")
    phase3 = stream_until(client, started + duration,
                          streams, cursors, acked)
    assert_no_shed(client)
    for tenant in TENANTS:
        rows = client.call(op="query", tenant=tenant,
                           relation="event")["rows"]
        check(rows == [],
              f"{tenant}: {len(rows)} events unconsumed at quiescence")

    # -- phase 4: the restarted old primary is fenced ----------------------
    tracer2 = Tracer(trace_dir, "phase4-fencing")
    p2proc, p2host, p2port = spawn(primary_dir)
    stale = Client(p2host, p2port, tracer2)
    refusal = stale.call(op="follow", epoch=epoch, have={})
    check(refusal.get("ok") is False and refusal.get("fenced") is True,
          f"stale primary was not fenced: {refusal}")
    check("stale epoch" in refusal.get("error", ""),
          f"fencing refusal does not name the stale epoch: {refusal}")
    stale.close()
    # a follow handshake ends its connection; shut down over a fresh one
    stale = Client(p2host, p2port, tracer2)
    stale.call(op="shutdown")
    stale.close()
    tracer2.close()
    p2proc.wait(timeout=60)

    # -- phase 5: clean shutdown of the promoted standby -------------------
    client.call(op="shutdown")
    client.close()
    tracer.close()
    fproc.wait(timeout=60)
    check(fproc.returncode == 0,
          f"promoted standby shutdown exited {fproc.returncode}")
    checkpoint_bytes = assert_bounded_checkpoints(standby_dir)

    elapsed = time.perf_counter() - started
    return {
        "elapsed_s": round(elapsed, 2),
        "epoch": epoch,
        "promote_ms": round(promote_ms, 1),
        "events_phase1": phase1,
        "events_phase3": phase3,
        "events_total": phase1 + phase3,
        "events_per_s": round((phase1 + phase3) / elapsed, 1),
        "acked": acked,
        "checkpoint_bytes": checkpoint_bytes,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tools/serve_soak.py", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--duration", type=float, default=30.0,
                        help="total soak seconds (default: 30)")
    parser.add_argument("--data-dir", default=None,
                        help="server data dir (default: a temp dir)")
    parser.add_argument("--trace-dir", default="soak-traces",
                        help="where request/reply JSONL traces land")
    parser.add_argument("--events", type=int, default=200_000,
                        help="pre-generated events per tenant (the soak "
                             "fails if the stream runs dry)")
    parser.add_argument("--failover", action="store_true",
                        help="soak a primary/warm-standby pair instead: "
                             "kill -9 the primary mid-stream, promote the "
                             "standby, fence the restarted old primary")
    args = parser.parse_args(argv)

    if args.data_dir is None:
        holder = tempfile.TemporaryDirectory(prefix="serve-soak-")
        data_dir = Path(holder.name)
    else:
        data_dir = Path(args.data_dir)
        data_dir.mkdir(parents=True, exist_ok=True)
    runner = failover_soak if args.failover else soak
    label = "serve failover soak" if args.failover else "serve soak"
    try:
        summary = runner(args.duration, data_dir, Path(args.trace_dir),
                         args.events)
    except SoakFailure as failure:
        print(f"{label} FAILED: {failure}", file=sys.stderr)
        print(f"traces: {args.trace_dir}/", file=sys.stderr)
        return 1
    print(f"{label} passed: " + json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

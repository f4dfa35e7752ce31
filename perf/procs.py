"""Server subprocesses: spawn, /proc accounting, SIGKILL, clean-up.

The end-to-end pass runs the real ``python -m repro.cli serve``; the
traced pass runs ``perf/traced_server.py`` with the same flags.  Every
process started through a :class:`Fleet` is killed and waited for when
the fleet closes, whatever happened in between.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SRC = ROOT / "src"

_TICK = os.sysconf("SC_CLK_TCK")
ANNOUNCE_TIMEOUT_S = 60.0


class ServerProc:
    """One ``repro serve`` (or traced) process and its announced port."""

    def __init__(self, proc: subprocess.Popen) -> None:
        self.proc = proc
        #: Filled in from the ``serving on HOST:PORT`` line.
        self.host = ""
        self.port = 0

    @property
    def pid(self) -> int:
        return self.proc.pid

    def cpu_seconds(self) -> float:
        """user+sys CPU so far (``/proc/PID/stat`` fields 14 and 15)."""
        stat = Path(f"/proc/{self.pid}/stat").read_text()
        fields = stat.rpartition(")")[2].split()
        return (int(fields[11]) + int(fields[12])) / _TICK

    def peak_rss_mib(self) -> float:
        """``VmHWM`` — the same high-water mark ``ru_maxrss`` reports."""
        for line in Path(f"/proc/{self.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError(f"no VmHWM for pid {self.pid}")

    def stop(self, signum: int = signal.SIGKILL, timeout: float = 60.0) -> None:
        """Signal the process (default: the real ``kill -9``) and reap it."""
        if self.proc.poll() is None:
            self.proc.send_signal(signum)
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def split_cpus() -> tuple[set[int], set[int]]:
    """``(primary's CPUs, everyone else's)`` out of the CPUs this process
    may run on: the primary server gets the highest-numbered one to
    itself; the generator, a standby and the reference share the rest.
    With a single CPU everything shares it.

    Pinning takes the scheduler's placement out of the run-to-run spread:
    left alone, two busy processes on two CPUs are sometimes stacked on
    one (on the sandbox this was built on, always: its second CPU runs
    nothing that is not pinned to it).
    """
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < 2:
        return set(allowed), set(allowed)
    return {allowed[-1]}, set(allowed[:-1])


class Fleet:
    """Owns every server process of one run; a context manager.  Entering
    it pins this (the generator's) process off the primary's CPU."""

    def __init__(self) -> None:
        self.procs: list[ServerProc] = []
        self.primary_cpus, self.other_cpus = split_cpus()
        self._affinity = os.sched_getaffinity(0)

    def __enter__(self) -> "Fleet":
        os.sched_setaffinity(0, self.other_cpus)
        return self

    def __exit__(self, *exc) -> None:
        for server in self.procs:
            server.stop()
        os.sched_setaffinity(0, self._affinity)

    def spawn(self, data_dir: Path, *args: str, spans: Path | None = None,
              primary: bool = True) -> ServerProc:
        """Start a server on *data_dir*; returns once it announced.

        With *spans* the traced server runs instead and dumps its spans
        to that file on SIGTERM.  A *primary* runs on the CPU set aside
        for it, anything else on the generator's.
        """
        cpus = self.primary_cpus if primary else self.other_cpus
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        if spans is None:
            command = [sys.executable, "-m", "repro.cli", "serve"]
        else:
            command = [sys.executable, str(PERF / "traced_server.py"),
                       "--spans", str(spans)]
        proc = subprocess.Popen(
            [*command, "--data-dir", str(data_dir), *args],
            stdout=subprocess.PIPE,
            env=env,
            preexec_fn=lambda: os.sched_setaffinity(0, cpus),
        )
        server = ServerProc(proc)
        self.procs.append(server)
        ready, _, _ = select.select([proc.stdout], [], [], ANNOUNCE_TIMEOUT_S)
        line = proc.stdout.readline().decode() if ready else ""
        if not line.startswith("serving on "):
            server.stop()
            raise RuntimeError(f"server did not announce: {line!r}")
        host, _, port = line.split()[-1].rpartition(":")
        server.host, server.port = host, int(port)
        return server

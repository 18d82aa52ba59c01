"""Start, probe and stop the served program as a child process.

The server is the unmodified ``python -m repro.serving`` CLI, or, for a
traced run, ``perfbench/launcher.py`` which wraps layer functions and then
calls the same ``main``.  Both bind ``--port 0`` and log the bound address;
this module reads it from stderr, waits for ``/healthz`` and reads CPU
time, peak RSS and thread counts of the whole process tree from ``/proc``.
"""

from __future__ import annotations

import collections
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

_ADDRESS = re.compile(r"serving .* on http://([\d.]+):(\d+)")
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
START_TIMEOUT = 120.0
STOP_TIMEOUT = 60.0


class ServerError(RuntimeError):
    """The server failed to start, answer or stop."""


class Server:
    """One running server process (see the module docstring)."""

    def __init__(self, root: Path, args: Sequence[str],
                 environ: Dict[str, str],
                 spans_out: Optional[Path] = None):
        env = dict(environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        if spans_out is None:
            command = [sys.executable, "-m", "repro.serving"]
        else:
            command = [sys.executable, str(root / "perfbench" / "launcher.py"),
                       "--spans-out", str(spans_out), "--"]
        command += ["--port", "0", *args]
        self.launched = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        self.log: "collections.deque[str]" = collections.deque(maxlen=200)
        self.url: Optional[str] = None
        self._address_seen = threading.Event()
        self._reader = threading.Thread(target=self._read_stderr, daemon=True)
        self._reader.start()

    def _read_stderr(self) -> None:
        for line in self.process.stderr:
            self.log.append(line.rstrip())
            if self.url is None:
                match = _ADDRESS.search(line)
                if match:
                    self.url = f"http://{match.group(1)}:{match.group(2)}"
                    self._address_seen.set()
        self._address_seen.set()

    def wait_healthy(self, client_factory) -> float:
        """Block until ``/healthz`` answers ok; returns seconds since launch."""
        deadline = self.launched + START_TIMEOUT
        if not self._address_seen.wait(START_TIMEOUT) or self.url is None:
            raise ServerError("server exited before binding:\n"
                              + "\n".join(self.log))
        client = client_factory(self.url)
        try:
            while True:
                try:
                    if client.health().get("status") == "ok":
                        return time.perf_counter() - self.launched
                except OSError:
                    pass
                if self.process.poll() is not None \
                        or time.perf_counter() > deadline:
                    raise ServerError("server never became healthy:\n"
                                      + "\n".join(self.log))
                time.sleep(0.01)
        finally:
            client.close()

    # ------------------------------------------------------------------ #
    # /proc probes
    # ------------------------------------------------------------------ #
    def tree(self) -> List[int]:
        """The server pid and every live descendant."""
        children: Dict[int, List[int]] = {}
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            stat = _read(f"/proc/{entry}/stat")
            if stat is None:
                continue
            fields = stat[stat.rfind(")") + 2:].split()
            children.setdefault(int(fields[1]), []).append(int(entry))
        found, frontier = [], [self.process.pid]
        while frontier:
            pid = frontier.pop()
            found.append(pid)
            frontier.extend(children.get(pid, []))
        return found

    def probe(self) -> Dict[str, float]:
        """CPU seconds, summed VmHWM (MiB) and threads of the process tree."""
        cpu = rss_kb = threads = 0.0
        for pid in self.tree():
            stat = _read(f"/proc/{pid}/stat")
            status = _read(f"/proc/{pid}/status")
            if stat is None or status is None:
                continue
            fields = stat[stat.rfind(")") + 2:].split()
            cpu += (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    rss_kb += int(line.split()[1])
                elif line.startswith("Threads:"):
                    threads += int(line.split()[1])
        return {"cpu_s": cpu, "peak_rss_mib": rss_kb / 1024.0,
                "threads": threads}

    # ------------------------------------------------------------------ #
    # shutdown
    # ------------------------------------------------------------------ #
    def stop(self) -> int:
        """SIGTERM (graceful drain), then SIGKILL stragglers; waits for all."""
        tree = self.tree()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.process.kill()
            code = self.process.wait()
        self._reader.join(STOP_TIMEOUT)
        deadline = time.monotonic() + STOP_TIMEOUT
        for pid in tree[1:]:
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.02)
            if _alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    continue
                while _alive(pid):
                    time.sleep(0.02)
        return code


def _read(path: str) -> Optional[str]:
    try:
        with open(path) as handle:
            return handle.read()
    except OSError:
        return None


def _alive(pid: int) -> bool:
    stat = _read(f"/proc/{pid}/stat")
    if stat is None:
        return False
    return stat[stat.rfind(")") + 2:].split()[0] != "Z"

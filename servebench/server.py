"""Launch, probe and stop ``repro serve --listen`` as its own process.

The server is started only with ``--csv/--sensitive/--auditor/--wal/
--checkpoint-every/--seed/--listen``: shard count and isolation mode
stay at the CLI defaults.  It is stopped the way an operator stops it,
with SIGINT to the serving process, which closes its shard workers.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

from loadgen import Connection

_LISTEN_RE = re.compile(r"listening on http://([^:/\s]+):(\d+)")
_HEALTH = (b"GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n"
           b"Connection: close\r\n\r\n")


class ServerError(RuntimeError):
    """The server did not start, answer its health check, or stop."""


class ServerProcess:
    """One ``repro serve --listen`` process tree."""

    def __init__(self, root: str, args: Sequence[str], log_path: str,
                 extra_pythonpath: Sequence[str] = (),
                 env: Optional[Dict[str, str]] = None) -> None:
        self._root = root
        self._args = list(args)
        self._log_path = log_path
        paths = list(extra_pythonpath) + [os.path.join(root, "src")]
        self._env = dict(os.environ)
        self._env.update(env or {})
        self._env["PYTHONPATH"] = os.pathsep.join(paths)
        self._env["PYTHONUNBUFFERED"] = "1"
        self.proc: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0

    def start(self, timeout: float = 60.0) -> float:
        """Launch and wait for the first ``GET /healthz`` 200.

        Returns the seconds from launch to that 200 (the set-up time).
        """
        cmd = [sys.executable, "-m", "repro", "serve", *self._args,
               "--listen", "127.0.0.1:0"]
        self.port = 0
        t0 = time.perf_counter()
        with open(self._log_path, "wb") as log:
            self.proc = subprocess.Popen(
                cmd, cwd=self._root, env=self._env, stdout=log,
                stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                start_new_session=True)
        deadline = t0 + timeout
        while self.port == 0:
            self._check_alive(deadline)
            with open(self._log_path, "r", errors="replace") as log:
                match = _LISTEN_RE.search(log.read())
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
            else:
                time.sleep(0.002)
        while True:
            self._check_alive(deadline)
            try:
                status, _ = Connection(self.host, self.port,
                                       timeout=5.0).exchange(_HEALTH)
            except OSError:
                status = 0
            if status == 200:
                return time.perf_counter() - t0
            time.sleep(0.002)

    def _check_alive(self, deadline: float) -> None:
        code = self.proc.poll() if self.proc is not None else -1
        if code is not None:
            raise ServerError(f"server exited with {code}; "
                              f"see {self._log_path}")
        if time.perf_counter() > deadline:
            self.kill()
            raise ServerError("server did not become healthy in time")

    def tree_pids(self) -> List[int]:
        """The serving process and all its descendants (from /proc)."""
        if self.proc is None:
            return []
        children: Dict[int, List[int]] = {}
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    stat = fh.read()
            except OSError:
                continue
            ppid = int(stat.rpartition(")")[2].split()[1])
            children.setdefault(ppid, []).append(int(entry))
        out, todo = [], [self.proc.pid]
        while todo:
            pid = todo.pop()
            out.append(pid)
            todo.extend(children.get(pid, ()))
        return out

    def rss_mb(self) -> float:
        """Summed resident set size of the process tree, in MB."""
        total_kb = 0
        for pid in self.tree_pids():
            try:
                with open(f"/proc/{pid}/status") as fh:
                    for line in fh:
                        if line.startswith("VmRSS:"):
                            total_kb += int(line.split()[1])
                            break
            except OSError:
                continue
        return total_kb / 1024.0

    def cpu_seconds(self) -> float:
        """CPU time the process tree's live threads have run so far, in s
        (``/proc/<pid>/task/<tid>/schedstat``, nanosecond resolution).

        A thread is not charged for time the hypervisor steals, so this
        moves far less with the load of a shared host than wall-clock
        time does.
        """
        total_ns = 0
        for pid in self.tree_pids():
            try:
                tids = os.listdir(f"/proc/{pid}/task")
            except OSError:
                continue
            for tid in tids:
                try:
                    with open(f"/proc/{pid}/task/{tid}/schedstat") as fh:
                        total_ns += int(fh.read().split()[0])
                except (OSError, ValueError, IndexError):
                    continue
        return total_ns / 1e9

    def stop(self, timeout: float = 60.0) -> None:
        """SIGINT the server and wait for its whole tree; it must exit 0."""
        if self.proc is None:
            return
        tree = self.tree_pids()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise ServerError("server did not stop on SIGINT") from None
        self.proc = None
        _wait_gone(tree)
        if code != 0:
            raise ServerError(f"server exited with {code}; "
                              f"see {self._log_path}")

    def kill(self) -> None:
        """Kill the whole process group and wait for it."""
        if self.proc is None:
            return
        tree = self.tree_pids()
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.proc = None
        _wait_gone(tree)


def _running(pid: int) -> bool:
    """Whether ``pid`` is alive; a zombie (exited, not yet reaped by its
    new parent) counts as gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except OSError:
        return False


def _wait_gone(pids: Sequence[int], timeout: float = 10.0) -> None:
    """Wait until every process in ``pids`` has ended; SIGKILL any that
    outlive ``timeout``."""
    deadline = time.perf_counter() + timeout
    while any(_running(pid) for pid in pids):
        if time.perf_counter() > deadline:
            for pid in pids:
                if _running(pid):
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
            deadline = float("inf")
        time.sleep(0.002)

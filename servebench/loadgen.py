"""Load generation: a minimal HTTP/1.1 client, closed and open loops.

One client process, at most ``CLIENTS`` threads, one keep-alive
connection per thread.  Requests are pre-encoded, so the client spends
as little CPU as possible on the two cores it shares with the server.
All times are ``time.perf_counter_ns`` (CLOCK_MONOTONIC on Linux, the
same clock in every process on the machine).
"""

from __future__ import annotations

import json
import math
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from inputs import Request

#: Tail samples the reported percentile must leave beyond it.
TAIL_SAMPLES = 10


def tail_percentile(samples: Sequence[float], target: float = 0.99,
                    beyond: int = TAIL_SAMPLES) -> Tuple[float, float]:
    """(percentile used, value): ``target``, or the highest percentile
    that still has at least ``beyond`` samples above it, if lower.

    Nearest-rank on the sorted samples: the value at rank
    ``ceil(p * n)`` leaves ``n - ceil(p * n)`` samples beyond it.
    """
    n = len(samples)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples, got {n}")
    p = min(target, 1.0 - beyond / n)
    rank = max(1, math.ceil(round(p * n, 9)))
    return p, sorted(samples)[rank - 1]


def median(samples: Sequence[float]) -> float:
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


@dataclass
class Outcome:
    """What happened to one request."""

    rid: int
    due_ns: int          # when it was due (closed loop: = send_ns)
    send_ns: int
    recv_ns: int
    status: int          # HTTP status; -1 = connection error
    ok: bool             # 200 with a correct decision body
    answered: bool = False

    @property
    def latency_ms(self) -> float:
        """Time from when the request was due until its response."""
        return (self.recv_ns - self.due_ns) / 1e6

    @property
    def late_ms(self) -> float:
        """How late the generator sent it."""
        return (self.send_ns - self.due_ns) / 1e6


def judge(request: Request, status: int, body: bytes) -> Tuple[bool, bool]:
    """(ok, answered): a 200 whose body is a denial or the exact answer."""
    if status != 200:
        return False, False
    try:
        decision = json.loads(body)
    except ValueError:
        return False, False
    if not isinstance(decision, dict):
        return False, False
    if "value" in decision:
        return float(decision["value"]) == request.expected, True
    return decision.get("denied") is True, False


class Connection:
    """One keep-alive HTTP/1.1 connection speaking pre-encoded requests."""

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self._addr = (host, port)
        self._timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._buf = b""

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(self._addr, timeout=self._timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock, self._buf = sock, b""
        return sock

    def _recv(self, sock: socket.socket) -> None:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buf += chunk

    def exchange(self, wire: bytes) -> Tuple[int, bytes]:
        """Send one request and read its response: (status, body)."""
        sock = self._sock or self._connect()
        sock.sendall(wire)
        while b"\r\n\r\n" not in self._buf:
            self._recv(sock)
        head, _, self._buf = self._buf.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        status = int(lines[0].split(b" ", 2)[1])
        length, close = 0, False
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            name = name.strip().lower()
            if name == b"content-length":
                length = int(value)
            elif name == b"connection":
                close = value.strip().lower() == b"close"
        while len(self._buf) < length:
            self._recv(sock)
        body, self._buf = self._buf[:length], self._buf[length:]
        if close:
            self.close()
        return status, body

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        self._buf = b""


def _send(conn: Connection, request: Request, due_ns: int) -> Outcome:
    send_ns = time.perf_counter_ns()
    try:
        status, body = conn.exchange(request.wire)
    except (OSError, ValueError, IndexError):
        conn.close()   # reconnect for the next request
        return Outcome(request.rid, due_ns, send_ns,
                       time.perf_counter_ns(), -1, False)
    recv_ns = time.perf_counter_ns()
    ok, answered = judge(request, status, body)
    return Outcome(request.rid, due_ns, send_ns, recv_ns, status, ok,
                   answered)


@dataclass
class Phase:
    """The outcomes of one load phase, with its wall-clock window."""

    name: str
    outcomes: List[Outcome] = field(default_factory=list)
    start_ns: int = 0
    end_ns: int = 0

    @property
    def sent(self) -> int:
        return len(self.outcomes)

    @property
    def succeeded(self) -> int:
        return sum(1 for o in self.outcomes if o.ok)

    @property
    def failed(self) -> int:
        return self.sent - self.succeeded

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9

    def accounting(self) -> dict:
        return {"sent": self.sent, "succeeded": self.succeeded,
                "failed": self.failed}


def _run_threads(targets) -> None:
    threads = [threading.Thread(target=t) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def closed_loop(name: str, host: str, port: int,
                streams: Sequence[Sequence[Request]]) -> Phase:
    """Each stream on its own thread and connection; next request only
    after the previous response."""
    phase = Phase(name)
    results: List[List[Outcome]] = [[] for _ in streams]

    def client(index: int) -> None:
        conn = Connection(host, port)
        try:
            for request in streams[index]:
                results[index].append(
                    _send(conn, request, time.perf_counter_ns()))
        finally:
            conn.close()

    phase.start_ns = time.perf_counter_ns()
    _run_threads([lambda i=i: client(i) for i in range(len(streams))])
    phase.end_ns = time.perf_counter_ns()
    for outcomes in results:
        phase.outcomes.extend(outcomes)
    return phase


def open_loop(name: str, host: str, port: int,
              stream: Sequence[Request], due_s: Sequence[float],
              threads: int) -> Phase:
    """Send ``stream[i]`` at ``due_s[i]`` seconds after the phase start,
    from ``threads`` connections; latency counts from the due time."""
    phase = Phase(name)
    lock = threading.Lock()
    cursor = [0]
    results: List[List[Outcome]] = [[] for _ in range(threads)]

    def sender(index: int) -> None:
        conn = Connection(host, port)
        try:
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= len(stream):
                    return
                due_ns = phase.start_ns + int(due_s[i] * 1e9)
                wait = (due_ns - time.perf_counter_ns()) / 1e9
                if wait > 0:
                    time.sleep(wait)
                results[index].append(_send(conn, stream[i], due_ns))
        finally:
            conn.close()

    phase.start_ns = time.perf_counter_ns()
    _run_threads([lambda i=i: sender(i) for i in range(threads)])
    phase.end_ns = time.perf_counter_ns()
    for outcomes in results:
        phase.outcomes.extend(outcomes)
    return phase

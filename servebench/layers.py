"""Per-layer metrics from the spans of a traced run.

The tracer (``hook/servebench_tracer.py``) leaves one ``spans-<pid>``
pair per server process.  This module loads them, keeps the spans of
the timed phases and derives each layer's counts, times and self times
(a span's duration minus the durations of its direct child spans).
A layer whose wrapped function no longer exists, or that does not run
on a workload, reports 0.
"""

from __future__ import annotations

import glob
import json
import os
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from loadgen import Outcome, median, tail_percentile

NF = 7  # name, rid, start, end, parent, value, aux


@dataclass
class Span:
    name: str
    pid: int
    index: int
    rid: int
    start: int
    end: int
    parent: int
    value: int
    aux: int

    @property
    def ns(self) -> int:
        return self.end - self.start


@dataclass
class Trace:
    """All spans of one server launch."""

    spans: List[Span] = field(default_factory=list)
    absent: List[str] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    by_name: Dict[str, List[Span]] = field(default_factory=dict)

    def named(self, name: str, window: Optional[Tuple[int, int]] = None
              ) -> List[Span]:
        """Finished spans called ``name`` (started inside ``window``)."""
        out = [s for s in self.by_name.get(name, ()) if s.end > 0]
        if window is not None:
            lo, hi = window
            out = [s for s in out if lo <= s.start <= hi]
        return out


def load(directory: str) -> Trace:
    trace = Trace()
    for header_path in sorted(glob.glob(os.path.join(directory,
                                                     "spans-*.json"))):
        with open(header_path) as fh:
            header = json.load(fh)
        data = np.fromfile(header_path[:-len(".json")] + ".bin",
                           dtype=np.int64).reshape(-1, NF)
        names = header["names"]
        pid = int(header["pid"])
        for index, row in enumerate(data.tolist()):
            span = Span(names[row[0]], pid, index, *row[1:])
            trace.spans.append(span)
            trace.by_name.setdefault(span.name, []).append(span)
        for label in header.get("absent", []):
            if label not in trace.absent:
                trace.absent.append(label)
        for key, value in header.get("counters", {}).items():
            trace.counters[key] = trace.counters.get(key, 0) + int(value)
    return trace


def _p(samples: Sequence[float], q: float) -> float:
    """Median (q=0.5) or tail percentile; 0 for a layer that did not run."""
    if not samples:
        return 0.0
    if q == 0.5:
        return median(samples)
    if len(samples) <= 10:
        return max(samples)
    return tail_percentile(samples, q)[1]


def _by_rid(spans: Iterable[Span]) -> Dict[int, Span]:
    return {s.rid: s for s in spans if s.rid >= 0}


def _self_ns(trace: Trace, spans: Sequence[Span]) -> List[int]:
    """Each span's duration minus its direct children's durations."""
    children: Dict[Tuple[int, int], int] = defaultdict(int)
    for s in trace.spans:
        if s.parent >= 0 and s.end > 0:
            children[(s.pid, s.parent)] += s.ns
    return [s.ns - children[(s.pid, s.index)] for s in spans]


def _under(trace: Trace, span: Span, name: str,
           index: Dict[Tuple[int, int], Span]) -> bool:
    parent = span.parent
    while parent >= 0:
        up = index[(span.pid, parent)]
        if up.name == name:
            return True
        parent = up.parent
    return False


def recovery(traces: Sequence[Trace]) -> Tuple[float, float]:
    """(ms, replayed events) of WAL recovery at restart: per launch the
    slowest shard's recovery and the events all shards replayed; the
    median over launches."""
    ms, events = [], []
    for trace in traces:
        spans = trace.named("resilience.recovery")
        if spans:
            ms.append(max(s.ns for s in spans) / 1e6)
            events.append(float(sum(s.value for s in spans)))
    return (median(ms) if ms else 0.0, median(events) if events else 0.0)


def metrics(trace: Trace, outcomes: Sequence[Outcome],
            window: Tuple[int, int]) -> Dict[str, float]:
    """Per-layer metrics of the timed phases (``outcomes`` and
    ``window`` are the client's view of those phases)."""
    client = {o.rid: o for o in outcomes}
    latency_ns = sum(o.recv_ns - o.send_ns for o in outcomes) or 1
    reads = _by_rid(trace.named("serving.protocol.read", window))
    writes = _by_rid(trace.named("serving.protocol.write", window))
    requests = _by_rid(trace.named("serving.shards.request", window))
    handles = trace.named("serving.shards.handle", window)
    handle_by_rid = _by_rid(handles)

    read_us, queue_ms, edge_ms, transport_us = [], [], [], []
    for rid, o in client.items():
        read, write, req = reads.get(rid), writes.get(rid), requests.get(rid)
        if read is None or write is None or req is None:
            continue
        read_ns = read.end - max(read.start, o.send_ns)
        read_us.append(read_ns / 1e3)
        queue_ms.append((req.start - read.end) / 1e6)
        edge_ms.append((o.recv_ns - o.send_ns - read_ns - write.ns
                        - req.ns) / 1e6)
        handle = handle_by_rid.get(rid)
        if handle is not None:
            transport_us.append((req.ns - handle.ns) / 1e3)

    span_s = (window[1] - window[0]) / 1e9
    busy: Dict[int, int] = defaultdict(int)
    for s in handles:
        busy[s.pid] += s.ns
    decides = trace.named("auditors.decide", window)
    decisions = len(decides) or 1

    def per_decision(name: str) -> float:
        return len(trace.named(name, window)) / decisions

    def share(name: str) -> float:
        return sum(s.ns for s in trace.named(name, window)) / latency_ns

    index = {(s.pid, s.index): s for s in trace.spans}
    fsyncs = [s for s in trace.named("os.fsync", window)
              if not _under(trace, s, "resilience.checkpoint", index)]
    appends_sizes: Dict[int, List[Tuple[int, int, int]]] = defaultdict(list)
    for s in fsyncs:
        if _under(trace, s, "resilience.wal.append", index):
            appends_sizes[s.pid].append((s.start, s.aux, s.value))
    record_bytes = []
    for rows in appends_sizes.values():
        rows.sort()
        for (_, ino0, size0), (_, ino1, size1) in zip(rows, rows[1:]):
            if ino0 == ino1:
                record_bytes.append(size1 - size0)
    checkpoints = trace.named("resilience.checkpoint", window)
    chain = trace.named("coloring.run", window)

    return {
        "serving.protocol.read_us_p50": _p(read_us, 0.5),
        "serving.protocol.write_us_p50":
            _p([s.ns / 1e3 for s in writes.values() if s.rid in client],
               0.5),
        "serving.server.queue_wait_ms_p50": _p(queue_ms, 0.5),
        "serving.server.queue_wait_ms_p99": _p(queue_ms, 0.99),
        "serving.server.edge_self_ms_p50": _p(edge_ms, 0.5),
        "serving.shards.transport_us_p50": _p(transport_us, 0.5),
        "serving.shards.handle_ms_p50": _p([s.ns / 1e6 for s in handles],
                                           0.5),
        "serving.shards.handle_ms_p99": _p([s.ns / 1e6 for s in handles],
                                           0.99),
        "serving.shards.worker_busy_frac":
            (sum(busy.values()) / len(busy) / 1e9 / span_s) if busy
            else 0.0,
        "serving.shards.restarts": float(trace.counters.get("restarts", 0)),
        "sdb.multiuser.self_us_p50": _p(
            [ns / 1e3 for ns in _self_ns(
                trace, trace.named("sdb.multiuser.ask", window))], 0.5),
        "persistence.journal_self_us_p50": _p(
            [ns / 1e3 for ns in _self_ns(
                trace, trace.named("persistence.audit", window))], 0.5),
        "auditors.decide_ms_p50": _p([s.ns / 1e6 for s in decides], 0.5),
        "auditors.decide_ms_p99": _p([s.ns / 1e6 for s in decides], 0.99),
        "auditors.decide_share": share("auditors.decide"),
        "auditors.answered_per_decision":
            sum(s.value for s in decides) / decisions,
        "synopsis.copy_per_decision": per_decision("synopsis.copy"),
        "synopsis.insert_per_decision": per_decision("synopsis.insert"),
        "synopsis.insert_share": share("synopsis.insert"),
        "auditors.max_prob.algorithm1_per_decision":
            per_decision("auditors.max_prob.algorithm1"),
        "auditors.max_prob.algorithm1_share":
            share("auditors.max_prob.algorithm1"),
        "coloring.chain_runs_per_decision": len(chain) / decisions,
        "coloring.chain_run_us_p50": _p([s.ns / 1e3 for s in chain], 0.5),
        "coloring.steps_per_decision":
            sum(s.value for s in chain) / decisions,
        "coloring.run_share": share("coloring.run"),
        "linalg.rowspace_us_per_decision":
            sum(s.ns for s in trace.named("linalg.rowspace", window))
            / 1e3 / decisions,
        "resilience.wal.append_us_p50": _p(
            [s.ns / 1e3 for s in trace.named("resilience.wal.append",
                                             window)], 0.5),
        "resilience.wal.append_us_p99": _p(
            [s.ns / 1e3 for s in trace.named("resilience.wal.append",
                                             window)], 0.99),
        "resilience.wal.fsyncs_per_decision": len(fsyncs) / decisions,
        "resilience.wal.bytes_per_decision":
            (sum(record_bytes) / len(record_bytes)) if record_bytes else 0.0,
        "resilience.checkpoint.count": float(len(checkpoints)),
        "resilience.checkpoint.ms_p50": _p([s.ns / 1e6 for s in checkpoints],
                                           0.5),
        "resilience.checkpoint.ms_max":
            max((s.ns / 1e6 for s in checkpoints), default=0.0),
        "resilience.checkpoint.snapshot_bytes":
            _p([float(s.value) for s in checkpoints], 0.5),
    }

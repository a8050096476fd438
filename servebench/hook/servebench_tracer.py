"""Span recorder wrapped around the public calls of each serving layer.

Installed into every process of the server under test by the hook's
``sitecustomize``.  It wraps public functions and methods of the serving
path from the outside (nothing in ``src/`` changes), keeps one span per
call in memory, and writes the spans of each process when it ends:

* ``spans-<pid>.json`` — span names, the layers that could not be
  wrapped (``absent``) and process counters;
* ``spans-<pid>.bin`` — the spans, ``FIELDS`` int64 values each.

A span is ``(name, rid, start, end, parent, value, aux)``: ``rid`` is
the request id the load generator sent in ``X-Request-Id`` (carried to
the shard worker as an extra payload key, which the worker ignores),
``parent`` the index of the enclosing span in the same thread (-1 at the
top), and ``value``/``aux`` a per-layer count (chain steps, snapshot
bytes, replayed events, ...).  Times are ``time.perf_counter_ns``.
"""

from __future__ import annotations

import array
import atexit
import contextvars
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict, deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

FIELDS = ("name", "rid", "start", "end", "parent", "value", "aux")
NF = len(FIELDS)
#: Payload key that carries the request id from the edge to a worker.
RID_KEY = "servebench_rid"

_now = time.perf_counter_ns
_edge_rid: contextvars.ContextVar = contextvars.ContextVar(
    "servebench_rid", default=-1)


class Recorder:
    """The spans of one process."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.data = array.array("q")
        self.absent: List[str] = []
        self.counters: Dict[str, int] = {}
        self.supervisors: List[Any] = []
        self.rid_by_key: Dict[Tuple, Deque[int]] = defaultdict(deque)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._dumped = False

    # -- spans ---------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            with self._lock:
                nid = self._ids.setdefault(name, len(self.names))
                if nid == len(self.names):
                    self.names.append(name)
        return nid

    def _thread(self) -> threading.local:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.rid = -1
        return local

    def add(self, name: str, rid: int, start: int, end: int,
            parent: int = -1, value: int = 0, aux: int = 0) -> int:
        """Record a finished span; returns its index."""
        row = (self._id(name), rid, start, end, parent, value, aux)
        with self._lock:
            index = len(self.data) // NF
            self.data.extend(row)
        return index

    def begin(self, name: str) -> Optional[int]:
        """Open a span on this thread's stack (``None`` when a span of
        the same name is already open: only the outermost call counts)."""
        local = self._thread()
        nid = self._id(name)
        for index in local.stack:
            if self.data[index * NF] == nid:
                return None
        parent = local.stack[-1] if local.stack else -1
        index = self.add(name, local.rid, _now(), 0, parent)
        local.stack.append(index)
        return index

    def end(self, index: Optional[int], value: int = 0,
            aux: int = 0) -> None:
        if index is None:
            return
        t = _now()
        self._thread().stack.pop()
        base = index * NF
        self.data[base + 3] = t
        self.data[base + 5] = int(value)
        self.data[base + 6] = int(aux)

    def set_rid(self, rid: int) -> int:
        local = self._thread()
        previous, local.rid = local.rid, rid
        return previous

    # -- output --------------------------------------------------------

    def dump(self) -> None:
        if self._dumped:
            return
        self._dumped = True
        for sup in self.supervisors:
            self.counters["restarts"] = (self.counters.get("restarts", 0)
                                         + int(getattr(sup, "restarts", 0)))
        base = os.path.join(self.directory, f"spans-{os.getpid()}")
        with open(base + ".bin", "wb") as fh:
            self.data.tofile(fh)
        with open(base + ".json", "w") as fh:
            json.dump({"pid": os.getpid(), "fields": FIELDS,
                       "names": self.names, "absent": self.absent,
                       "counters": self.counters}, fh)


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------

def _span(rec: Recorder, name: str,
          measure: Callable[..., Tuple[int, int]] = None) -> Callable:
    """A wrapper factory: one span around each call; ``measure(result,
    args, kwargs)`` gives the span's (value, aux)."""
    def make(fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            index = rec.begin(name)
            value = aux = 0
            try:
                result = fn(*args, **kwargs)
                if measure is not None and index is not None:
                    value, aux = measure(result, args, kwargs)
                return result
            finally:
                rec.end(index, value, aux)
        wrapper.__wrapped__ = fn
        return wrapper
    return make


def _query_key(body: Any) -> Optional[Tuple]:
    if not isinstance(body, dict):
        return None
    members = body.get("members")
    if not isinstance(members, list):
        return None
    return (body.get("user"), body.get("kind"), tuple(members))


def _edge_read(rec: Recorder) -> Callable:
    def make(fn: Callable) -> Callable:
        async def read_request(reader, limits):
            start = _now()
            request = await fn(reader, limits)
            end = _now()
            if request is not None:
                try:
                    rid = int(request.headers.get("x-request-id", -1))
                except ValueError:
                    rid = -1
                _edge_rid.set(rid)
                rec.add("serving.protocol.read", rid, start, end)
                if request.path == "/query" and rid >= 0:
                    try:
                        key = _query_key(json.loads(request.body))
                    except ValueError:
                        key = None
                    if key is not None:
                        rec.rid_by_key[key].append(rid)
            return request
        read_request.__wrapped__ = fn
        return read_request
    return make


def _edge_write(rec: Recorder) -> Callable:
    def make(fn: Callable) -> Callable:
        async def write_response(writer, response):
            start = _now()
            try:
                return await fn(writer, response)
            finally:
                rec.add("serving.protocol.write", _edge_rid.get(), start,
                        _now())
        write_response.__wrapped__ = fn
        return write_response
    return make


def _supervisor_request(rec: Recorder) -> Callable:
    def make(fn: Callable) -> Callable:
        def request(self, index, payload):
            rid = -1
            if isinstance(payload, dict) and payload.get("op") == "query":
                queue = rec.rid_by_key.get(_query_key(payload))
                if queue:
                    rid = queue.popleft()
                payload = dict(payload)
                payload[RID_KEY] = rid
            previous = rec.set_rid(rid)
            span = rec.begin("serving.shards.request")
            try:
                return fn(self, index, payload)
            finally:
                rec.end(span)
                rec.set_rid(previous)
        request.__wrapped__ = fn
        return request
    return make


def _supervisor_init(rec: Recorder) -> Callable:
    def make(fn: Callable) -> Callable:
        def __init__(self, *args, **kwargs):
            fn(self, *args, **kwargs)
            rec.supervisors.append(self)
        __init__.__wrapped__ = fn
        return __init__
    return make


def _worker_handle(rec: Recorder) -> Callable:
    def make(fn: Callable) -> Callable:
        def handle(self, request):
            rid = -1
            if isinstance(request, dict) and RID_KEY in request:
                request = dict(request)
                rid = int(request.pop(RID_KEY))
            previous = rec.set_rid(rid)
            span = rec.begin("serving.shards.handle")
            try:
                return fn(self, request)
            finally:
                rec.end(span)
                rec.set_rid(previous)
        handle.__wrapped__ = fn
        return handle
    return make


def _worker_close(rec: Recorder) -> Callable:
    def make(fn: Callable) -> Callable:
        def close(self):
            try:
                return fn(self)
            finally:
                rec.dump()
        close.__wrapped__ = fn
        return close
    return make


def _answered(result, args, kwargs) -> Tuple[int, int]:
    return int(bool(getattr(result, "answered", False))), 0


def _steps(result, args, kwargs) -> Tuple[int, int]:
    steps = args[1] if len(args) > 1 else kwargs.get("steps", 0)
    return int(steps), 0


def _snapshot_bytes(result, args, kwargs) -> Tuple[int, int]:
    directory = getattr(args[0], "directory", None)
    try:
        return os.path.getsize(os.path.join(directory, result)), 0
    except (OSError, TypeError):
        return 0, 0


def _recovery(result, args, kwargs) -> Tuple[int, int]:
    info = result[2] if isinstance(result, tuple) and len(result) > 2 \
        else None
    return (int(getattr(info, "replayed_events", 0)),
            int(getattr(info, "snapshot_events", 0)))


def _file_size(result, args, kwargs) -> Tuple[int, int]:
    try:
        st = os.fstat(args[0])
    except (OSError, TypeError, IndexError):
        return 0, 0
    return st.st_size, st.st_ino


#: (module, attribute path, wrapper factory taking the recorder).
TARGETS: List[Tuple[str, str, Callable[[Recorder], Callable]]] = [
    ("repro.serving.protocol", "read_request", _edge_read),
    ("repro.serving.protocol", "write_response", _edge_write),
    ("repro.serving.shards", "ShardSupervisor.request",
     _supervisor_request),
    ("repro.serving.shards", "ShardSupervisor.__init__", _supervisor_init),
    ("repro.serving.shards", "ShardWorker.handle", _worker_handle),
    ("repro.serving.shards", "ShardWorker.close", _worker_close),
    ("repro.sdb.multiuser", "MultiUserFrontend.ask",
     lambda r: _span(r, "sdb.multiuser.ask")),
    ("repro.persistence", "JournaledAuditor.audit",
     lambda r: _span(r, "persistence.audit")),
    ("repro.auditors.base", "Auditor.audit",
     lambda r: _span(r, "auditors.decide", _answered)),
    ("repro.resilience.checkpoint", "CheckpointedWal.append",
     lambda r: _span(r, "resilience.wal.append")),
    ("repro.resilience.checkpoint", "CheckpointedWal.checkpoint",
     lambda r: _span(r, "resilience.checkpoint", _snapshot_bytes)),
    ("repro.resilience.checkpoint", "CheckpointedWal.recover",
     lambda r: _span(r, "resilience.recovery", _recovery)),
    ("os", "fsync", lambda r: _span(r, "os.fsync", _file_size)),
    ("repro.synopsis.extreme_synopsis", "ExtremeSynopsis.copy",
     lambda r: _span(r, "synopsis.copy")),
    ("repro.synopsis.extreme_synopsis", "ExtremeSynopsis.insert",
     lambda r: _span(r, "synopsis.insert")),
    ("repro.auditors.max_prob", "algorithm1_safe",
     lambda r: _span(r, "auditors.max_prob.algorithm1")),
    ("repro.coloring.chain", "ColoringChain.run",
     lambda r: _span(r, "coloring.run", _steps)),
] + [
    ("repro.linalg.modular_matrix", f"ModularRowSpace.{method}",
     lambda r: _span(r, "linalg.rowspace"))
    for method in ("reduce", "contains", "would_reveal", "add",
                   "add_column", "copy")
]


def _patch(rec: Recorder, module_name: str, path: str,
           factory: Callable[[Recorder], Callable]) -> None:
    label = f"{module_name}.{path}"
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        rec.absent.append(label)
        return
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    raw = (owner.__dict__.get(attr) if isinstance(owner, type)
           else getattr(owner, attr, None))
    if raw is None:
        rec.absent.append(label)
        return
    wrap = factory(rec)
    if isinstance(raw, (classmethod, staticmethod)):
        setattr(owner, attr, type(raw)(wrap(raw.__func__)))
        return
    wrapped = wrap(raw)
    setattr(owner, attr, wrapped)
    if not isinstance(owner, type):
        # Module-level functions are also imported by name elsewhere.
        for name, module in list(sys.modules.items()):
            if name.startswith("repro.") and \
                    getattr(module, attr, None) is raw:
                setattr(module, attr, wrapped)


def install(directory: str) -> Recorder:
    """Wrap every target and arrange for the spans to be written."""
    rec = Recorder(directory)
    for module_name, path, factory in TARGETS:
        _patch(rec, module_name, path, factory)
    atexit.register(rec.dump)
    return rec

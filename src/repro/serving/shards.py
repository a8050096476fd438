"""The decision worker, its spawn-safe transport, and the restart supervisor.

The serving tier runs **one decision worker per dataset**.  The worker
owns a single pooled :class:`~repro.sdb.multiuser.MultiUserFrontend`
over the dataset and its one
:class:`~repro.resilience.checkpoint.CheckpointedWal` directory
(optionally replicating to follower directories).  Every user's queries
reach the same pooled auditor: the paper's collusion argument (§§5, 7)
is that "all users would have to be considered as one", and any split of
the decision stream — by user id or otherwise — lets two colluding
users difference answers that each stream alone would have denied.

The worker runs in two isolation modes behind one protocol of picklable
dicts:

* ``"spawn"`` — a real child process (:class:`ProcessShardHandle`, spawn
  context only: fork would duplicate live WAL handles), connected over a
  pipe; a dead pipe *is* the crash signal;
* ``"inline"`` — the worker object runs in the server process
  (:class:`InlineShardHandle`), which puts the whole worker inside the
  deterministic fault harness: an :class:`~repro.resilience.faults.
  InjectedCrash` escaping the worker models the child process dying.

The :class:`ShardSupervisor` owns the handle.  When the worker dies it
is marked down, restarted with **exponential backoff**, and its WAL is
replayed (that is just checkpointed recovery) *before* traffic is
re-admitted; while it is down every request raises
:class:`ShardUnavailable` — surfaced by the edge as 503 with
``Retry-After`` — never a silent drop, and never an answer that skipped
the journal.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from ..exceptions import (
    InvalidQueryError,
    ReproError,
    UnsupportedQueryError,
)
from ..resilience.budget import Budget
from ..resilience.checkpoint import CheckpointPolicy
from ..resilience.faults import InjectedCrash, fault_site
from ..resilience.overload import AdmissionController, AdmissionPolicy
from ..sdb.dataset import Dataset
from ..sdb.multiuser import MultiUserFrontend
from ..types import AggregateKind, AuditDecision, DenialReason, Query

Clock = Callable[[], float]


class ShardCrashed(ReproError):
    """The worker process died mid-request (dead pipe)."""


class ShardUnavailable(ReproError):
    """The worker is down or mid-recovery; retry after ``retry_after``."""

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)


@dataclass(frozen=True)
class ShardSpec:
    """Everything needed to (re)build the decision worker — picklable,
    so a spawn-context child can reconstruct it from scratch.

    ``wal_dir`` is the checkpointed WAL directory itself (``None`` =
    in-memory journal only); ``replicate_to`` lists follower replica
    directories.
    """

    values: Tuple[float, ...]
    low: float
    high: float
    auditor: str = "sum"
    seed: int = 0
    wal_dir: Optional[str] = None
    checkpoint_every: Optional[int] = None
    checkpoint_bytes: Optional[int] = None
    replicate_to: Tuple[str, ...] = ()
    user_rate: Optional[float] = None
    user_burst: int = 10
    max_in_flight: Optional[int] = None


def _auditor_factory(spec: ShardSpec) -> Callable[[Dataset], Any]:
    from ..auditors.max_classic import MaxClassicAuditor
    from ..auditors.max_prob import MaxProbabilisticAuditor
    from ..auditors.maxmin_classic import MaxMinClassicAuditor
    from ..auditors.maxmin_prob import MaxMinProbabilisticAuditor
    from ..auditors.sum_classic import SumClassicAuditor
    from ..auditors.sum_prob import SumProbabilisticAuditor

    classic = {
        "sum": SumClassicAuditor,
        "max": MaxClassicAuditor,
        "maxmin": MaxMinClassicAuditor,
    }
    probabilistic = {
        "sum-prob": SumProbabilisticAuditor,
        "max-prob": MaxProbabilisticAuditor,
        "maxmin-prob": MaxMinProbabilisticAuditor,
    }
    if spec.auditor in classic:
        cls = classic[spec.auditor]
        return lambda ds: cls(ds)
    if spec.auditor in probabilistic:
        pcls = probabilistic[spec.auditor]
        return lambda ds: pcls(ds, rng=spec.seed)
    raise InvalidQueryError(f"unknown auditor name {spec.auditor!r}")


def decision_to_dict(decision: AuditDecision) -> Dict[str, Any]:
    """The wire form of a released decision (pipe and HTTP body)."""
    out: Dict[str, Any] = {"denied": decision.denied}
    if decision.answered:
        out["value"] = decision.value
    if decision.denied and decision.reason is not None:
        out["reason"] = decision.reason.value
        out["detail"] = decision.detail
    return out


class ShardWorker:
    """The decision worker: an admission gate in front of the one
    WAL-backed pooled frontend.

    ``handle`` speaks the picklable request/response dict protocol the
    transports ship; it is the single release point of the dataset, and
    every outcome it returns is already journalled (durably, when the
    worker carries a WAL) before the dict leaves this method.  Calls
    are serialised by the caller (the edge's one lock, or the spawned
    child's single request loop).
    """

    def __init__(self, spec: ShardSpec,
                 budget_clock: Optional[Clock] = None) -> None:
        self.spec = spec
        self._budget_clock = budget_clock
        checkpoint = None
        if spec.wal_dir is not None:
            checkpoint = CheckpointPolicy(
                every_records=spec.checkpoint_every or 256,
                every_bytes=spec.checkpoint_bytes,
            )
        dataset = Dataset(list(spec.values), low=spec.low, high=spec.high)
        self.frontend = MultiUserFrontend(
            dataset, _auditor_factory(spec), mode="pooled",
            wal_path=spec.wal_dir, checkpoint=checkpoint,
            replicate_to=list(spec.replicate_to) or None,
        )
        self.admission: Optional[AdmissionController] = None
        if spec.user_rate is not None or spec.max_in_flight is not None:
            self.admission = AdmissionController(AdmissionPolicy(
                user_rate=spec.user_rate, user_burst=spec.user_burst,
                max_in_flight=spec.max_in_flight,
            ))

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------

    def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Serve one protocol dict; never raises for a bad request."""
        op = request.get("op")
        if op == "query":
            return self._handle_query(request)
        if op == "refuse":
            return self._handle_refuse(request)
        if op == "stats":
            # audit: WAL001 -- stats release aggregate bookkeeping, not a
            # query decision; nothing here needs a journal append
            return self._handle_stats()
        if op == "ping":
            # audit: WAL001 -- a liveness ack carries no decision
            return {"ok": True}
        # audit: WAL001 -- a constant protocol error for an unknown op;
        # no query was posed, so there is nothing to journal
        return {"ok": False, "error": "unknown shard op"}

    def _parse_query(self, request: Dict[str, Any]
                     ) -> Tuple[str, Query]:
        user = request.get("user")
        if not isinstance(user, str) or not user:
            raise InvalidQueryError("user must be a non-empty string")
        kind = AggregateKind(request.get("kind"))
        members = request.get("members")
        if not isinstance(members, (list, tuple)):
            raise InvalidQueryError("members must be a list of indices")
        return user, Query(kind, frozenset(int(i) for i in members))

    def _handle_query(self, request: Dict[str, Any]) -> Dict[str, Any]:
        try:
            user, query = self._parse_query(request)
        except (InvalidQueryError, ValueError, TypeError):
            return {"ok": False, "error": "invalid query"}
        try:
            if self.admission is not None:
                refusal = self.admission.try_admit(user)
                if refusal is not None:
                    decision = self.frontend.refuse(user, query, refusal)
                    fault_site("shard.post-journal")
                    return self._respond(user, query, decision, shed=True)
                try:
                    decision = self._audit(user, query, request)
                finally:
                    self.admission.release()
            else:
                decision = self._audit(user, query, request)
        except (InvalidQueryError, UnsupportedQueryError):
            # Parseable but unanswerable — a kind this deployment's
            # auditor does not serve, or an index outside the dataset.
            # Nothing was journalled and nothing is released, so this is
            # a constant protocol error, not a worker crash.
            return {"ok": False, "error": "unsupported query"}
        # The journal append is durable; the response dict is not yet on
        # the pipe.  A crash here is the "answered on disk, never on the
        # wire" window the chaos sweep kills in.
        fault_site("shard.post-journal")
        return self._respond(user, query, decision, shed=False)

    def _audit(self, user: str, query: Query,
               request: Dict[str, Any]) -> AuditDecision:
        budget = self._budget_from(request)
        target = self._budget_target()
        if budget is not None and target is not None:
            # Per-request deadline propagation: the frontend serialises
            # auditor runs, so swapping the budget for one decision is
            # race-free; restore unconditionally.
            previous = target.budget
            target.budget = budget
            try:
                return self.frontend.ask(user, query)
            finally:
                target.budget = previous
        return self.frontend.ask(user, query)

    def _budget_from(self, request: Dict[str, Any]) -> Optional[Budget]:
        wall = request.get("wall_time")
        steps = request.get("max_chain_steps")
        if wall is None and steps is None:
            return None
        return Budget(wall_time=wall, max_chain_steps=steps,
                      clock=self._budget_clock)

    def _budget_target(self) -> Optional[Any]:
        """The underlying auditor that honours a ``budget`` attribute."""
        auditor = self.frontend._pooled
        while auditor is not None and not hasattr(auditor, "budget"):
            auditor = getattr(auditor, "auditor", None)
        return auditor

    def _handle_refuse(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Journal an edge-initiated fail-closed refusal (expired
        deadline, edge backpressure) without consulting the auditor."""
        try:
            user, query = self._parse_query(request)
        except (InvalidQueryError, ValueError, TypeError):
            return {"ok": False, "error": "invalid query"}
        # audit: LEAK001 -- the detail is an edge-supplied policy constant
        # (server.EXPIRED_DEADLINE_DETAIL), never derived from data values
        refusal = AuditDecision.deny(
            DenialReason.RESOURCE_EXHAUSTED,
            str(request.get("detail") or "refused at the network edge"),
        )
        decision = self.frontend.refuse(user, query, refusal)
        fault_site("shard.post-journal")
        return self._respond(user, query, decision, shed=True)

    @property
    def _trail(self) -> Any:
        """The pooled auditor's disclosure trail (recovered from the WAL
        on restart, so its length is the cumulative decision count)."""
        return self.frontend._pooled.trail

    def _respond(self, user: str, query: Query, decision: AuditDecision,
                 shed: bool) -> Dict[str, Any]:
        event = {
            # The decision's 1-based position in the dataset's journalled
            # stream: it continues across worker restarts.
            "seq": len(self._trail),
            "user": user,
            "kind": query.kind.value,
            "members": sorted(query.query_set),
        }
        event.update(decision_to_dict(decision))
        return {"ok": True, "shed": shed,
                "decision": decision_to_dict(decision), "event": event}

    def _handle_stats(self) -> Dict[str, Any]:
        """Aggregate counts only: the body's size does not grow with
        the number of users, and it names none of them."""
        summary = self._trail.summary()
        shed = (self.admission.shed_counts() if self.admission is not None
                else {"rate": 0, "in_flight": 0})
        return {
            "ok": True,
            "users_seen": len(self.frontend.users()),
            "decisions": summary["queries"],
            "answered": summary["answered"],
            "denied": summary["denied"],
            "denied_by_reason": summary["denied_by_reason"],
            "shed": shed,
        }

    def close(self) -> None:
        """Close the worker's WAL (flushes replication links too)."""
        closer = getattr(self.frontend._pooled, "close", None)
        if closer is not None:
            closer()


# ----------------------------------------------------------------------
# Transports
# ----------------------------------------------------------------------

def _shard_process_main(conn: Any, spec: ShardSpec) -> None:
    """Entry point of the spawned decision worker process."""
    worker = ShardWorker(spec)
    try:
        while True:
            try:
                request = conn.recv()
            except EOFError:
                break
            if request is None:
                break
            conn.send(worker.handle(request))
    finally:
        worker.close()
        conn.close()


class InlineShardHandle:
    """The worker runs in-process: the deterministic-chaos transport.

    An :class:`InjectedCrash` escaping :meth:`request` models the child
    process dying mid-request; the supervisor treats it exactly like a
    dead pipe.
    """

    def __init__(self, spec: ShardSpec,
                 budget_clock: Optional[Clock] = None) -> None:
        self.worker = ShardWorker(spec, budget_clock=budget_clock)

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return self.worker.handle(payload)

    def close(self) -> None:
        self.worker.close()


class ProcessShardHandle:
    """The decision worker in a spawned child process behind a pipe.

    Spawn context only — fork would duplicate live WAL file handles into
    the child.  A send/recv failure or an ACK timeout means the worker
    is gone: :class:`ShardCrashed`, for the supervisor to handle.
    """

    def __init__(self, spec: ShardSpec, timeout: float = 60.0) -> None:
        self.spec = spec
        self._timeout = float(timeout)
        ctx = multiprocessing.get_context("spawn")
        self._conn, child = ctx.Pipe()
        self._process = ctx.Process(target=_shard_process_main,
                                    args=(child, spec), daemon=True)
        self._process.start()
        child.close()
        # Fail fast at boot: a worker that cannot recover its WAL must
        # not be marked serving.
        self.request({"op": "ping"})

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        try:
            self._conn.send(payload)
            if not self._conn.poll(self._timeout):
                raise ShardCrashed(
                    f"decision worker did not respond within "
                    f"{self._timeout}s")
            return self._conn.recv()
        except (OSError, EOFError, BrokenPipeError) as exc:
            raise ShardCrashed(
                f"decision worker process is gone "
                f"({exc.__class__.__name__})") from exc

    def kill(self) -> None:
        """Hard-kill the child (crash drills for the spawn transport)."""
        self._process.terminate()
        self._process.join(timeout=5.0)

    def close(self) -> None:
        try:
            self._conn.send(None)
        except (OSError, BrokenPipeError):
            pass
        self._process.join(timeout=10.0)
        if self._process.is_alive():  # pragma: no cover - defensive
            self._process.terminate()
            self._process.join(timeout=5.0)
        self._conn.close()


# ----------------------------------------------------------------------
# Supervisor
# ----------------------------------------------------------------------

@dataclass
class _WorkerState:
    status: str = "serving"          # serving | down
    attempts: int = 0                # consecutive failed restarts
    retry_at: float = 0.0            # earliest next restart instant
    last_error: str = ""             # constant-ish classname diagnostics


class ShardSupervisor:
    """Owns the decision worker; restarts it with backoff after a crash.

    A dead worker is restarted no earlier than ``backoff_base * 2**k``
    seconds after its ``k``-th consecutive failure (capped at
    ``backoff_max``); the restart *is* WAL recovery — the new worker
    replays its checkpointed log before the supervisor re-admits
    traffic.  In the window between death and successful restart every
    :meth:`request` raises :class:`ShardUnavailable` with the remaining
    backoff, which the edge surfaces as 503 + ``Retry-After``.

    Concurrency contract: the edge serialises requests (one asyncio
    lock), so :meth:`request` never races itself; the internal lock only
    guards the supervisor's own state transitions.
    """

    def __init__(self, spec: ShardSpec, mode: str = "spawn",
                 backoff_base: float = 0.05, backoff_max: float = 5.0,
                 clock: Optional[Clock] = None,
                 budget_clock: Optional[Clock] = None) -> None:
        if mode not in ("spawn", "inline"):
            raise InvalidQueryError("mode must be 'spawn' or 'inline'")
        self.spec = spec
        self.mode = mode
        self.backoff_base = float(backoff_base)
        self.backoff_max = float(backoff_max)
        self._clock: Clock = clock or time.monotonic
        self._budget_clock = budget_clock
        self._lock = threading.Lock()
        self._state = _WorkerState()
        self._handle: Optional[Any] = self._build_handle()
        self.restarts = 0

    def _build_handle(self) -> Any:
        if self.mode == "inline":
            return InlineShardHandle(self.spec,
                                     budget_clock=self._budget_clock)
        return ProcessShardHandle(self.spec)

    # ------------------------------------------------------------------

    def request(self, index: int, payload: Dict[str, Any]
                ) -> Dict[str, Any]:
        """Send one protocol dict to the worker (restarting it first if
        it is down and its backoff has elapsed).

        ``index`` must be 0, the one worker; the argument keeps the
        positional signature that servebench's tracer wraps.
        """
        if index != 0:
            raise InvalidQueryError(f"unknown worker index {index}")
        handle = self._ensure_serving()
        try:
            return handle.request(payload)
        except (ShardCrashed, InjectedCrash) as exc:
            # InjectedCrash is the inline transport's "child process
            # died" signal — the supervisor here *is* the parent, so
            # observing a child's death is not swallowing a crash: the
            # worker object is discarded wholesale, exactly like a dead
            # pipe, and recovery goes through WAL replay on restart.
            self._mark_down(exc)
            raise ShardUnavailable(
                "decision worker crashed; recovering",
                retry_after=self._retry_after(),
            ) from None

    def _ensure_serving(self) -> Any:
        with self._lock:
            if self._state.status == "serving":
                return self._handle
            now = self._clock()
            if now < self._state.retry_at:
                raise ShardUnavailable(
                    "decision worker is recovering; retry later",
                    retry_after=self._state.retry_at - now,
                )
        return self._restart()

    def _mark_down(self, exc: BaseException) -> None:
        with self._lock:
            self._fail(exc.__class__.__name__)
            self._state.status = "down"
            handle, self._handle = self._handle, None
        if handle is not None and self.mode == "spawn":
            try:
                handle.kill()
            except Exception:  # pragma: no cover - defensive reaping
                pass

    def _fail(self, label: str) -> None:
        """Count one consecutive failure and schedule the next restart
        (caller holds the lock)."""
        state = self._state
        state.attempts += 1
        state.last_error = label
        backoff = min(self.backoff_max,
                      self.backoff_base * (2.0 ** (state.attempts - 1)))
        state.retry_at = self._clock() + backoff

    def _restart(self) -> Any:
        """Rebuild the worker; WAL replay happens inside."""
        try:
            handle = self._build_handle()
        except (InjectedCrash, ReproError) as exc:
            # The restart itself died (a chaos plan is still active, or
            # recovery failed): the supervisor survives its child and
            # backs off again.
            with self._lock:
                self._fail(exc.__class__.__name__)
            raise ShardUnavailable(
                "decision worker recovery failed; backing off",
                retry_after=self._retry_after(),
            ) from None
        with self._lock:
            self._handle = handle
            self._state = _WorkerState()
            self.restarts += 1
        return handle

    def _retry_after(self) -> float:
        with self._lock:
            return max(0.0, self._state.retry_at - self._clock())

    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Kill the worker on purpose (drills and the demo)."""
        self._mark_down(ShardCrashed("operator-initiated kill"))

    def status(self) -> Dict[str, Any]:
        """The worker's serving state for ``/healthz``."""
        with self._lock:
            return {
                "status": self._state.status,
                "restart_attempts": self._state.attempts,
                "last_error": self._state.last_error,
            }

    def stats(self) -> Dict[str, Any]:
        """The worker's aggregate counts (an error dict while down)."""
        try:
            return self.request(0, {"op": "stats"})
        except ShardUnavailable:
            return {"ok": False, "error": "unavailable"}

    def close(self) -> None:
        with self._lock:
            handle, self._handle = self._handle, None
            self._state.status = "down"
        if handle is not None:
            handle.close()

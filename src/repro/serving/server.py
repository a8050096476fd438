"""The asyncio HTTP edge in front of the pooled decision worker.

Endpoints (see ``docs/API.md`` for the wire reference):

* ``POST /query`` — audit one query.  Every 200 carries a decision that
  is already durable in the dataset's WAL *before* the first response
  byte is written.  Admission sheds are 429 + ``Retry-After``
  (journalled ``RESOURCE_EXHAUSTED`` denials); a worker mid-recovery is
  503 + ``Retry-After`` (nothing journalled, nothing released); expired
  client deadlines are journalled fail-closed refusals released as 200
  with a denial body.
* ``GET /healthz`` — the decision worker's serving status.
* ``GET /stats`` — bounded aggregate counts (users seen, decisions,
  denials by reason, sheds); never a user id.
* ``GET /events`` — the live audit-event feed (SSE), published only
  after the decision is journalled.

Error bodies are constants or public policy values — never an echo of
request bytes, so the error channel cannot leak query details.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from ..resilience.faults import InjectedCrash
from ..types import AggregateKind
from .middleware import DeadlinePolicy, budget_from_headers, retry_after_seconds
from .protocol import (
    HttpLimits,
    HttpRequest,
    HttpResponse,
    ProtocolError,
    json_response,
    read_request,
    write_response,
)
from .router import Router
from .shards import ShardSupervisor, ShardUnavailable
from .sse import EventBroker, format_comment, format_event

#: Journalled as the refusal detail for a deadline that was already
#: spent when the request arrived.  A policy constant: the error channel
#: never carries request-derived text.
EXPIRED_DEADLINE_DETAIL = (
    "client deadline already expired at arrival; refused before auditing"
)


@dataclass
class ServerConfig:
    """Edge policy knobs (all public constants)."""

    host: str = "127.0.0.1"
    port: int = 0                      # 0 = pick a free port
    limits: HttpLimits = field(default_factory=HttpLimits)
    deadline: DeadlinePolicy = field(default_factory=DeadlinePolicy)
    sse_queue: int = 256
    sse_heartbeat: float = 15.0
    #: Retry-After hint for admission sheds (seconds)
    shed_retry_after: float = 1.0


class AuditServer:
    """Serve the :class:`~repro.serving.shards.ShardSupervisor`'s one
    pooled decision worker over HTTP.

    The server serialises requests through one asyncio lock: the worker
    is a single-threaded decision pipeline and its WAL orders the
    dataset's one decision stream.  The blocking worker transport runs
    in the default executor so the loop stays responsive.
    """

    def __init__(self, supervisor: ShardSupervisor,
                 config: Optional[ServerConfig] = None) -> None:
        self.supervisor = supervisor
        self.config = config or ServerConfig()
        self.broker = EventBroker(maxsize=self.config.sse_queue)
        self.router = Router()
        self.router.add("POST", "/query", self._handle_query)
        self.router.add("GET", "/healthz", self._handle_health)
        self.router.add("GET", "/stats", self._handle_stats)
        self._server: Optional[asyncio.AbstractServer] = None
        # Created on first use, inside the serving loop.
        self._lock: Optional[asyncio.Lock] = None
        self.port: Optional[int] = None
        #: Set when an injected crash killed the serving process model:
        #: the listener is down and no further bytes are ever written.
        self.crashed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:  # pragma: no cover - CLI loop
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def _crash(self, writer: asyncio.StreamWriter) -> None:
        """Model the serving process dying: abort the connection without
        flushing buffered bytes and stop accepting new ones."""
        self.crashed = True
        transport = writer.transport
        if transport is not None:
            transport.abort()
        if self._server is not None:
            self._server.close()
            self._server = None

    # ------------------------------------------------------------------
    # Connection loop
    # ------------------------------------------------------------------

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            while not self.crashed:
                try:
                    request = await read_request(reader, self.config.limits)
                except ProtocolError as exc:
                    # Constant-message error body, then close: after a
                    # framing failure the stream offset is unknowable.
                    await write_response(writer, json_response(
                        exc.status, {"error": str(exc)}, close=True))
                    break
                if request is None:
                    break
                if request.method == "GET" and request.path == "/events":
                    await self._stream_events(request, writer)
                    break
                response = await self._respond(request)
                response.close = response.close or not request.keep_alive
                await write_response(writer, response)
                if response.close:
                    break
        except InjectedCrash:
            # The fault harness killed the serving process at a network
            # site (torn body, mid-response, post-journal).  This is the
            # *top of the modelled process*: nothing below may catch
            # InjectedCrash, and from here no further byte is written —
            # the chaos tests restart a fresh server over the same WAL
            # directories, exactly like a real crash + supervisor
            # restart.
            self._crash(writer)
            return
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass  # client went away; nothing released, nothing to undo
        finally:
            if not self.crashed:
                try:
                    writer.close()
                except Exception:  # pragma: no cover - already dead
                    pass

    async def _respond(self, request: HttpRequest) -> HttpResponse:
        try:
            handler = self.router.resolve(request)
        except ProtocolError as exc:
            return json_response(exc.status, {"error": str(exc)})
        try:
            return await handler(request)
        except ProtocolError as exc:
            return json_response(exc.status, {"error": str(exc)})

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------

    async def _handle_query(self, request: HttpRequest) -> HttpResponse:
        try:
            body = json.loads(request.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            raise ProtocolError(
                400, "request body is not valid JSON") from None
        if not isinstance(body, dict):
            raise ProtocolError(400, "request body must be a JSON object")
        user = body.get("user")
        if not isinstance(user, str) or not user:
            raise ProtocolError(400, "user must be a non-empty string")
        try:
            kind = AggregateKind(body.get("kind"))
        except ValueError:
            raise ProtocolError(400, "unknown aggregate kind") from None
        budget, expired = budget_from_headers(request.headers,
                                              self.config.deadline)
        if expired:
            payload: Dict[str, Any] = {
                "op": "refuse", "user": user, "kind": kind.value,
                "members": body.get("members"),
                "detail": EXPIRED_DEADLINE_DETAIL,
            }
        else:
            payload = {
                "op": "query", "user": user, "kind": kind.value,
                "members": body.get("members"),
                "wall_time": budget.wall_time if budget else None,
                "max_chain_steps":
                    budget.max_chain_steps if budget else None,
            }
        try:
            result = await self._call_worker(
                self.supervisor.request, 0, payload)
        except ShardUnavailable as exc:
            # Fail closed at the edge: nothing was journalled and
            # nothing is released — the client retries after backoff.
            return json_response(
                503, {"error": "worker recovering; retry later"},
                headers=[("Retry-After",
                          retry_after_seconds(exc.retry_after))])
        if not result.get("ok"):
            # Worker-side validation failures are constant strings.
            return json_response(
                400, {"error": str(result.get("error") or "invalid query")})
        event = result.get("event")
        if event is not None:
            # Published strictly after the worker journalled the
            # decision: the SSE feed can lag the WAL, never lead it.
            self.broker.publish(event)
        decision = dict(result["decision"])
        if result.get("shed") and payload["op"] == "query":
            # Admission backpressure: a journalled RESOURCE_EXHAUSTED
            # denial surfaced with an explicit retry hint.
            decision["shed"] = True
            return json_response(
                429, decision,
                headers=[("Retry-After", retry_after_seconds(
                    self.config.shed_retry_after))])
        # Answers, audit denials, and expired-deadline refusals are all
        # released outcomes: 200 with the decision body.
        return json_response(200, decision)

    async def _call_worker(self, fn: Callable[..., Dict[str, Any]],
                           *args: Any) -> Dict[str, Any]:
        """Run one blocking worker call under the edge's one lock (the
        spawn transport's pipe carries one exchange at a time)."""
        if self._lock is None:
            self._lock = asyncio.Lock()
        loop = asyncio.get_event_loop()
        async with self._lock:
            return await loop.run_in_executor(None, fn, *args)

    async def _handle_health(self, request: HttpRequest) -> HttpResponse:
        return json_response(200, self.supervisor.status())

    async def _handle_stats(self, request: HttpRequest) -> HttpResponse:
        stats = await self._call_worker(self.supervisor.stats)
        return json_response(200, {
            "worker": stats,
            "events_published": self.broker.published,
            "sse_subscribers": self.broker.subscriber_count,
        })

    # ------------------------------------------------------------------
    # SSE
    # ------------------------------------------------------------------

    async def _stream_events(self, request: HttpRequest,
                             writer: asyncio.StreamWriter) -> None:
        """Stream the live event feed until the client leaves (or the
        optional ``?limit=N`` is reached, for tests and the demo)."""
        user = request.query.get("user") or None
        limit = 0
        raw_limit = request.query.get("limit")
        if raw_limit is not None:
            try:
                limit = max(0, int(raw_limit))
            except ValueError:
                await write_response(writer, json_response(
                    400, {"error": "malformed limit parameter"}, close=True))
                return
        sub = self.broker.subscribe(user)
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: text/event-stream\r\n"
                     b"Cache-Control: no-cache\r\n"
                     b"Connection: close\r\n\r\n")
        sent = 0
        try:
            await writer.drain()
            while not self.crashed:
                try:
                    event = await asyncio.wait_for(
                        sub.queue.get(), timeout=self.config.sse_heartbeat)
                except asyncio.TimeoutError:
                    writer.write(format_comment("keep-alive"))
                    await writer.drain()
                    continue
                writer.write(format_event(event))
                await writer.drain()
                sent += 1
                if limit and sent >= limit:
                    break
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass  # subscriber went away; the WAL remains the record
        finally:
            self.broker.unsubscribe(sub)


async def serve(supervisor: ShardSupervisor,
                config: Optional[ServerConfig] = None
                ) -> AuditServer:  # pragma: no cover - thin helper
    """Start an :class:`AuditServer` and return it (bound port in
    ``server.port``)."""
    server = AuditServer(supervisor, config)
    await server.start()
    return server

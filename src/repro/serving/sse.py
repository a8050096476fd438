"""The live audit-event feed: Server-Sent Events plumbing.

Every released decision (answers, denials, journalled sheds) becomes one
event on the broker *after* it is durable in the dataset's WAL — the
stream can lag the journal, never lead it.  Subscribers get a bounded
queue each; a slow consumer loses its **oldest** buffered events rather
than stalling the serving path or growing memory without bound (the
WAL, not the SSE stream, is the durable record).

Event payloads are built exclusively from the released
:class:`~repro.types.AuditDecision` and the query's public structure
(user, kind, member indices) — the same taint-laundered surface the
HTTP response itself exposes, so the stream leaks nothing the response
did not.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, List, Optional


class Subscription:
    """One subscriber's bounded event queue (drop-oldest on overflow)."""

    def __init__(self, user: Optional[str], maxsize: int) -> None:
        self.user = user
        self.queue: "asyncio.Queue[Dict[str, Any]]" = asyncio.Queue(
            maxsize=maxsize)
        self.dropped = 0

    def offer(self, event: Dict[str, Any]) -> None:
        """Enqueue without blocking; evict the oldest when full."""
        while True:
            try:
                self.queue.put_nowait(event)
                return
            except asyncio.QueueFull:
                try:
                    self.queue.get_nowait()
                    self.dropped += 1
                except asyncio.QueueEmpty:  # pragma: no cover - racy only
                    pass


class EventBroker:
    """Fan released audit events out to SSE subscribers.

    Single-event-loop object: ``publish`` and ``subscribe`` are called
    from the server's loop only, so no lock is needed.
    """

    def __init__(self, maxsize: int = 256) -> None:
        self.maxsize = maxsize
        self._subscribers: List[Subscription] = []
        self.published = 0

    def subscribe(self, user: Optional[str] = None) -> Subscription:
        """Start receiving events (optionally only for one user)."""
        sub = Subscription(user, self.maxsize)
        self._subscribers.append(sub)
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        try:
            self._subscribers.remove(sub)
        except ValueError:  # pragma: no cover - double unsubscribe
            pass

    def publish(self, event: Dict[str, Any]) -> None:
        """Offer one released (already-journalled) event to every
        matching subscriber."""
        self.published += 1
        for sub in self._subscribers:
            if sub.user is None or sub.user == event.get("user"):
                sub.offer(event)

    @property
    def subscriber_count(self) -> int:
        return len(self._subscribers)


def format_event(event: Dict[str, Any]) -> bytes:
    """One SSE frame: ``id`` from the decision's position in the
    journalled stream, ``event: decision``, JSON data line."""
    data = json.dumps(event, sort_keys=True)
    lines = []
    seq = event.get("seq")
    if seq is not None:
        lines.append(f"id: {seq}")
    lines.append("event: decision")
    lines.append(f"data: {data}")
    return ("\n".join(lines) + "\n\n").encode("utf-8")


def format_comment(text: str) -> bytes:
    """An SSE comment line (keep-alive pings)."""
    return f": {text}\n\n".encode("utf-8")

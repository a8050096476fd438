"""Networked fail-closed serving tier (asyncio HTTP/1.1, no extra deps).

The paper's auditors only matter in production if the path between a
remote client and the auditor is as fail-closed as the auditor itself.
This package puts an asyncio HTTP API in front of one pooled
:class:`~repro.sdb.multiuser.MultiUserFrontend` per dataset, run by a
single spawn-isolated decision worker that owns the dataset's
checkpointed write-ahead audit log.  There is deliberately no
user→worker routing: the paper's collusion argument (§§5, 7) needs one
auditor that sees every user's queries, and splitting the stream lets
two users difference answers each half would have denied.

* :mod:`repro.serving.protocol` — hand-rolled HTTP/1.1 request/response
  framing over asyncio streams, with torn-body and slow-loris defenses;
* :mod:`repro.serving.middleware` — client deadline propagation into the
  per-query :class:`~repro.resilience.budget.Budget` and backpressure
  response mapping (429 + ``Retry-After``);
* :mod:`repro.serving.router` — method/path dispatch;
* :mod:`repro.serving.shards` — the decision worker, its supervisor
  (exponential-backoff restarts with WAL replay before re-admission),
  and the spawn-safe process transport;
* :mod:`repro.serving.sse` — the live per-user audit-event stream
  (Server-Sent Events);
* :mod:`repro.serving.server` — the asyncio edge tying it together;
* :mod:`repro.serving.client` — a minimal blocking client for tests,
  benchmarks, and the demo.

Every HTTP 200 carries a decision that is already durable in the WAL;
sheds are journalled ``RESOURCE_EXHAUSTED`` denials surfaced as 429; a
recovering worker serves 503 — never a silent drop, never an
un-journalled answer.  See ``docs/API.md`` (endpoints) and
``docs/ROBUSTNESS.md`` (the network-edge fail-closed story).
"""

from .client import AuditClient
from .middleware import DeadlinePolicy, budget_from_headers
from .protocol import HttpLimits, HttpRequest, ProtocolError
from .server import AuditServer, ServerConfig
from .shards import (
    ShardSpec,
    ShardSupervisor,
    ShardUnavailable,
    ShardWorker,
)
from .sse import EventBroker

__all__ = [
    "AuditClient",
    "AuditServer",
    "DeadlinePolicy",
    "EventBroker",
    "HttpLimits",
    "HttpRequest",
    "ProtocolError",
    "ServerConfig",
    "ShardSpec",
    "ShardSupervisor",
    "ShardUnavailable",
    "ShardWorker",
    "budget_from_headers",
]

"""End-to-end HTTP serving: answers, backpressure, deadlines, SSE, and
collusion resistance of the deployed service."""

import asyncio
import itertools
import json
import threading
import time
from fractions import Fraction

import pytest

from repro.attack.greedy_overlap import GreedyOverlapAttacker
from repro.serving import AuditClient, AuditServer, ServerConfig
from repro.serving.shards import ShardSpec, ShardSupervisor
from repro.types import AggregateKind, AuditDecision, DenialReason, Query

VALUES = (10.0, 20.0, 30.0, 40.0, 50.0, 60.0)


class Harness:
    """An AuditServer on a background event-loop thread."""

    def __init__(self, spec, config=None, **supervisor_kwargs):
        supervisor_kwargs.setdefault("mode", "inline")
        self.supervisor = ShardSupervisor(spec, **supervisor_kwargs)
        self.server = AuditServer(self.supervisor,
                                  config or ServerConfig())
        self.loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()
        assert self._ready.wait(10.0), "server did not start"

    def _run(self):
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.server.start())
        self._ready.set()
        self.loop.run_forever()

    def client(self, timeout=30.0):
        return AuditClient("127.0.0.1", self.server.port, timeout=timeout)

    def stop(self):
        async def _stop():
            await self.server.stop()

        if not self.server.crashed:
            asyncio.run_coroutine_threadsafe(_stop(), self.loop).result(10.0)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10.0)
        self.supervisor.close()


def make_spec(tmp_path=None, **overrides):
    kwargs = dict(values=VALUES, low=0.0, high=100.0, auditor="sum",
                  seed=0)
    if tmp_path is not None:
        kwargs["wal_dir"] = str(tmp_path / "wal")
    kwargs.update(overrides)
    return ShardSpec(**kwargs)


@pytest.fixture()
def harness(tmp_path):
    h = Harness(make_spec(tmp_path))
    yield h
    h.stop()


def test_query_answers_and_denies_over_http(harness):
    client = harness.client()
    res = client.query("alice", "sum", range(6))
    assert res.ok
    assert res.payload == {"denied": False, "value": 210.0}
    client.query("alice", "sum", [0, 1, 2])
    denied = client.query("alice", "sum", [0, 1])
    assert denied.ok and denied.payload["denied"]
    assert denied.payload["reason"] in ("full-disclosure",
                                        "partial-disclosure")


def test_expired_deadline_is_journalled_fail_closed_denial(harness):
    client = harness.client()
    res = client.query("alice", "sum", range(6), deadline_ms=-1)
    assert res.ok  # released outcome: a denial, not a transport error
    assert res.payload["denied"]
    assert res.payload["reason"] == "resource-exhausted"
    assert "expired" in res.payload["detail"]
    # journalled: the worker's recovered-trail counts saw it
    stats = client.stats().payload["worker"]
    assert stats["decisions"] == 1
    assert stats["denied_by_reason"] == {"resource-exhausted": 1}


def test_malformed_requests_are_constant_400s(harness):
    client = harness.client()
    res = client._exchange("POST", "/query", body=b"{not json",
                           headers={"Content-Type": "application/json"})
    assert res.status == 400
    assert res.payload == {"error": "request body is not valid JSON"}
    res = client.query("alice", "bogus-kind", [0])
    assert res.status == 400
    assert res.payload == {"error": "unknown aggregate kind"}
    res = client._exchange("POST", "/query", body=b'"just a string"')
    assert res.status == 400
    res = client._exchange("POST", "/query",
                           body=b'{"user": "a", "kind": "sum"}')
    assert res.status == 400
    assert res.payload == {"error": "invalid query"}


def test_unanswerable_query_is_400_and_shard_survives(harness):
    client = harness.client()
    res = client.query("alice", "max", [0, 1])  # sum-only deployment
    assert res.status == 400
    assert res.payload == {"error": "unsupported query"}
    res = client.query("alice", "sum", [0, 99])  # index out of range
    assert res.status == 400
    assert res.payload == {"error": "unsupported query"}
    # the worker did not crash: health is clean and queries still serve
    assert client.health().payload["status"] == "serving"
    assert client.query("alice", "sum", range(6)).ok


def test_unknown_path_and_wrong_method(harness):
    client = harness.client()
    assert client._exchange("GET", "/nope").status == 404
    res = client._exchange("GET", "/query")
    assert res.status == 405
    assert "POST" in res.payload["error"]


def test_admission_shed_is_429_with_retry_after(tmp_path):
    h = Harness(make_spec(tmp_path, user_rate=0.001, user_burst=1))
    try:
        client = h.client()
        assert client.query("alice", "sum", range(6)).ok
        shed = client.query("alice", "sum", [3, 4, 5])
        assert shed.status == 429
        assert shed.retry_after is not None and shed.retry_after >= 1
        assert shed.payload["shed"] is True
        assert shed.payload["reason"] == "resource-exhausted"
        # the shed is journalled: the worker's stats count it as a denial
        stats = client.stats().payload["worker"]
        assert stats["shed"]["rate"] == 1
        assert stats["denied_by_reason"] == {"resource-exhausted": 1}
    finally:
        h.stop()


def test_deadline_propagates_into_the_probabilistic_budget(tmp_path):
    """X-Deadline-Ms reaches the sampler: with a budget clock that jumps
    a second per reading, a 300 ms deadline exhausts at the first
    cooperative checkpoint and fails closed."""
    ticker = itertools.count()
    h = Harness(make_spec(tmp_path, auditor="sum-prob"),
                budget_clock=lambda: float(next(ticker)))
    try:
        client = h.client()
        res = client.query("alice", "sum", range(6), deadline_ms=300)
        assert res.ok
        assert res.payload["denied"]
        assert res.payload["reason"] == "resource-exhausted"
    finally:
        h.stop()


def test_crashed_shard_serves_503_until_recovery(tmp_path):
    now = [0.0]
    h = Harness(make_spec(tmp_path), backoff_base=5.0,
                clock=lambda: now[0])
    try:
        client = h.client()
        assert client.query("alice", "sum", range(6)).ok
        h.supervisor.crash()
        res = client.query("alice", "sum", [0, 1, 2])
        assert res.status == 503
        assert res.retry_after is not None and res.retry_after >= 1
        health = client.health().payload
        assert health["status"] == "down"
        assert health["restart_attempts"] == 1
        # past the backoff the worker restarts (replaying its WAL) and
        # serving resumes where it left off
        now[0] += 10.0
        res = client.query("alice", "sum", [0, 1, 2])
        assert res.ok and res.payload == {"denied": False, "value": 60.0}
        assert client.health().payload["status"] == "serving"
    finally:
        h.stop()


def test_sse_stream_delivers_journalled_events(harness):
    client = harness.client()
    received = []

    def consume():
        received.extend(client.events(user="alice", limit=2, timeout=30))

    consumer = threading.Thread(target=consume, daemon=True)
    consumer.start()
    # wait until the subscription is live before querying
    deadline = time.monotonic() + 10.0
    while client.stats().payload["sse_subscribers"] == 0:
        assert time.monotonic() < deadline, "subscriber never registered"
        time.sleep(0.02)
    client.query("bob", "sum", range(6))     # filtered out
    client.query("alice", "sum", [0, 1, 2])
    client.query("alice", "sum", [0, 1])     # now x2 would be determined
    consumer.join(15.0)
    assert not consumer.is_alive()
    assert [e["user"] for e in received] == ["alice", "alice"]
    assert received[0]["denied"] is False
    assert received[0]["value"] == 60.0
    assert received[1]["denied"] is True
    assert received[1]["members"] == [0, 1]


def test_sse_rejects_malformed_limit(harness):
    client = harness.client()
    res = client._exchange("GET", "/events?limit=soonish")
    assert res.status == 400
    assert res.payload == {"error": "malformed limit parameter"}


def test_sse_sequence_continues_across_worker_restart(tmp_path):
    """Event ``seq`` (and so the SSE ``id``) is the decision's position in
    the journalled stream: a restarted worker continues it, it does not
    start again at 1."""
    now = [0.0]
    h = Harness(make_spec(tmp_path), backoff_base=1.0,
                clock=lambda: now[0])
    try:
        client = h.client()
        received = []
        consumer = threading.Thread(
            target=lambda: received.extend(client.events(limit=3,
                                                         timeout=30)),
            daemon=True)
        consumer.start()
        deadline = time.monotonic() + 10.0
        while client.stats().payload["sse_subscribers"] == 0:
            assert time.monotonic() < deadline, "subscriber never registered"
            time.sleep(0.02)
        client.query("alice", "sum", range(6))
        client.query("bob", "sum", [0, 1, 2])
        h.supervisor.crash()
        assert client.query("alice", "sum", [3, 4, 5]).status == 503
        now[0] += 2.0
        assert client.query("alice", "sum", [3, 4, 5]).ok
        consumer.join(15.0)
        assert not consumer.is_alive()
        assert h.supervisor.restarts == 1
        assert [e["seq"] for e in received] == [1, 2, 3]
        assert all("shard" not in e for e in received)
    finally:
        h.stop()


def _stats_body(tmp_path, users):
    h = Harness(make_spec(tmp_path))
    try:
        client = h.client()
        for round_no in range(40):
            members = [round_no % 6, (round_no + 1) % 6, (round_no + 3) % 6]
            assert client.query(users[round_no % len(users)], "sum",
                                members).ok
        return json.dumps(client.stats().payload,
                          sort_keys=True).encode("utf-8")
    finally:
        h.stop()


def test_stats_are_bounded_aggregates_without_user_ids(tmp_path):
    few = [f"tenant-{i:02d}-few" for i in range(10)]
    many = [f"tenant-{i:02d}-many" for i in range(40)]
    small = _stats_body(tmp_path / "few", few)
    large = _stats_body(tmp_path / "many", many)
    # same decision stream, 10 vs 40 distinct users: identical size
    assert len(small) == len(large)
    for body, users in ((small, few), (large, many)):
        assert not any(u.encode() in body for u in users)
        assert b"tenant" not in body
    stats = json.loads(large)["worker"]
    assert stats["users_seen"] == 40
    assert stats["decisions"] == 40
    assert stats["answered"] + stats["denied"] == 40


# ----------------------------------------------------------------------
# Collusion through the deployed edge (paper §§5, 7)
# ----------------------------------------------------------------------

#: Under the former user-id sharding (crc32(user) % 2, two workers with
#: one pooled auditor each) these ids landed on different workers, so a
#: client rotating between them was audited as two separate streams.
COLLUDERS = ("alice", "bob")
COLLUSION_VALUES = tuple(float(7 + 13 * i) for i in range(12))
COLLUSION_ROUNDS = 80


def _unit_vectors_in_row_space(query_sets, n):
    """Indices ``i`` whose unit vector e_i lies in the row space of the
    0/1 sum-query vectors (exact rational elimination)."""
    basis = []  # (pivot, row): each row is zero at earlier pivots

    def reduce(vector):
        for pivot, row in basis:
            if vector[pivot]:
                factor = vector[pivot]
                vector = [x - factor * r for x, r in zip(vector, row)]
        return vector

    for members in query_sets:
        vector = reduce([Fraction(int(j in members)) for j in range(n)])
        pivot = next((j for j, x in enumerate(vector) if x), None)
        if pivot is not None:
            basis.append((pivot, [x / vector[pivot] for x in vector]))
    return [i for i in range(n)
            if not any(reduce([Fraction(int(j == i)) for j in range(n)]))]


def test_users_cannot_collude_across_the_http_edge(tmp_path):
    """Greedy SUM differencing, rotating its user id every round, must
    not pin any single value: the one pooled auditor sees every user's
    queries, so the answered sums never span a unit vector."""
    n = len(COLLUSION_VALUES)
    h = Harness(make_spec(tmp_path, values=COLLUSION_VALUES, high=200.0))
    try:
        client = h.client()
        attacker = GreedyOverlapAttacker(n, kind=AggregateKind.SUM, rng=0)
        history = []
        for round_no in range(COLLUSION_ROUNDS):
            query = attacker(round_no, history)
            user = COLLUDERS[round_no % len(COLLUDERS)]
            res = client.query(user, "sum", sorted(query.query_set))
            assert res.status == 200, res.payload
            if res.payload["denied"]:
                decision = AuditDecision.deny(
                    DenialReason(res.payload["reason"]))
            else:
                decision = AuditDecision.answer(res.payload["value"])
            history.append((Query(AggregateKind.SUM, query.query_set),
                            decision))
    finally:
        h.stop()
    answered = [q.query_set for q, d in history if d.answered]
    # the attack was live: it got answers and hit the auditor's denials
    assert len(answered) >= n // 2
    assert any(d.denied for _, d in history)
    assert _unit_vectors_in_row_space(answered, n) == []

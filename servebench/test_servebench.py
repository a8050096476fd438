"""Self-tests of the serving benchmark (run: python3 -m pytest servebench).

They cover the statistics and the load generator, not the server: the
percentile rule, due-time latency and generator lateness in the open
loop, sent/succeeded/failed accounting, seeded inputs, and the span
arithmetic of the traced run.
"""

from __future__ import annotations

import json
import os
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "hook"))

import layers  # noqa: E402
import servebench_tracer  # noqa: E402
from inputs import WORKLOADS, Request, generate, open_loop_policy  # noqa: E402
from loadgen import (  # noqa: E402
    Outcome,
    Phase,
    closed_loop,
    judge,
    median,
    open_loop,
    tail_percentile,
)


# ----------------------------------------------------------------------
# Percentile rule
# ----------------------------------------------------------------------

def test_tail_percentile_is_p99_when_enough_samples():
    samples = list(range(1, 2001))
    p, value = tail_percentile(samples)
    assert p == 0.99
    assert value == 1980
    assert sum(s > value for s in samples) >= 10


def test_tail_percentile_falls_back_to_highest_with_ten_beyond():
    samples = [float(i) for i in range(500)]
    p, value = tail_percentile(samples)
    assert p == pytest.approx(0.98)
    assert sum(s > value for s in samples) == 10


@pytest.mark.parametrize("n", [11, 57, 999, 1000, 1001, 4321])
def test_tail_percentile_always_leaves_ten_beyond(n):
    samples = [float((i * 7919) % n) for i in range(n)]
    p, value = tail_percentile(samples)
    assert p <= 0.99
    assert sum(s > value for s in samples) >= 10


def test_tail_percentile_refuses_too_few_samples():
    with pytest.raises(ValueError):
        tail_percentile([1.0] * 10)


def test_median():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5


# ----------------------------------------------------------------------
# Outcomes and accounting
# ----------------------------------------------------------------------

def _request(expected=10.0, rid=0):
    return Request(rid, "u", "sum", (0, 1), expected, b"")


def test_judge_accepts_exact_answers_and_denials_only():
    assert judge(_request(), 200, b'{"denied": false, "value": 10.0}') \
        == (True, True)
    assert judge(_request(), 200, b'{"denied": false, "value": 10.5}') \
        == (False, True)
    assert judge(_request(), 200, b'{"denied": true, "reason": "x"}') \
        == (True, False)
    assert judge(_request(), 503, b'{"error": "down"}') == (False, False)
    assert judge(_request(), 200, b"not json") == (False, False)
    assert judge(_request(), 200, b'{"denied": false}') == (False, False)


def test_open_tail_is_the_median_of_the_rounds_tails():
    from run import open_tail_ms

    def round_with_tail(ms):
        # 89 fast requests and 11 at ``ms``: with 100 samples the rule
        # picks p90, whose nearest rank is the first of the 11.
        latencies = [1.0] * 89 + [ms] * 11
        return Phase("open", [Outcome(i, 0, 0, int(v * 1e6), 200, True)
                              for i, v in enumerate(latencies)])

    rounds = [round_with_tail(ms) for ms in (5.0, 500.0, 7.0)]
    assert open_tail_ms(rounds) == (pytest.approx(0.9), 7.0)


def test_outcome_latency_counts_from_due_time():
    o = Outcome(rid=1, due_ns=1_000_000, send_ns=4_000_000,
                recv_ns=9_000_000, status=200, ok=True)
    assert o.latency_ms == 8.0
    assert o.late_ms == 3.0


def test_phase_accounting():
    phase = Phase("p", [
        Outcome(0, 0, 0, 1, 200, True),
        Outcome(1, 0, 0, 1, 200, False),   # wrong answer
        Outcome(2, 0, 0, 1, 503, False),
        Outcome(3, 0, 0, 1, -1, False),    # connection error
    ])
    assert phase.accounting() == {"sent": 4, "succeeded": 1, "failed": 3}


# ----------------------------------------------------------------------
# Load loops against a stub server
# ----------------------------------------------------------------------

class _Stub(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    delay = 0.0

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        time.sleep(self.delay)
        body = json.dumps({"denied": True, "reason": "stub"}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub():
    def start(delay):
        handler = type("Stub", (_Stub,), {"delay": delay})
        server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        thread = threading.Thread(target=server.serve_forever)
        thread.start()
        servers.append((server, thread))
        return server.server_address[1]

    servers = []
    yield start
    for server, thread in servers:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def _requests(count):
    from inputs import encode_request
    return [Request(i, "u", "sum", (0,), 1.0,
                    encode_request(i, "u", "sum", [0]))
            for i in range(count)]


def test_open_loop_times_from_due_and_reports_lateness(stub):
    port = stub(0.05)
    # One sender, five requests all due at once: each waits for the
    # previous 50 ms response, so the k-th is sent ~k*50 ms late and its
    # latency (from due) is at least its lateness plus the 50 ms.
    phase = open_loop("open", "127.0.0.1", port, _requests(5),
                      [0.0] * 5, threads=1)
    assert phase.accounting() == {"sent": 5, "succeeded": 5, "failed": 0}
    by_rid = sorted(phase.outcomes, key=lambda o: o.rid)
    for k, o in enumerate(by_rid):
        assert o.late_ms >= k * 50 - 5
        assert o.latency_ms >= o.late_ms + 45
        assert o.latency_ms == pytest.approx(
            (o.recv_ns - o.due_ns) / 1e6)
    assert by_rid[-1].late_ms >= 190


def test_open_loop_on_time_when_server_keeps_up(stub):
    port = stub(0.0)
    due = [0.02 * i for i in range(10)]
    phase = open_loop("open", "127.0.0.1", port, _requests(10), due,
                      threads=2)
    assert phase.succeeded == 10
    # Never early; typically on time (a single scheduler hiccup on a busy
    # machine may delay one send, so the median is what is bounded).
    assert all(o.send_ns >= o.due_ns for o in phase.outcomes)
    assert median([o.late_ms for o in phase.outcomes]) < 5
    assert phase.seconds >= 0.18


def test_closed_loop_counts_connection_failures():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]   # nothing listens here
    phase = closed_loop("closed", "127.0.0.1", port,
                        [_requests(2), _requests(1)])
    assert phase.accounting() == {"sent": 3, "succeeded": 0, "failed": 3}
    assert all(o.status == -1 for o in phase.outcomes)


# ----------------------------------------------------------------------
# Seeded inputs and the benchmark definition
# ----------------------------------------------------------------------

def test_inputs_are_a_function_of_the_seed():
    w = WORKLOADS["maxmin-prob"]
    a, b = generate(w, 5, 6, 10.0), generate(w, 5, 6, 10.0)
    c = generate(w, 6, 6, 10.0)
    assert a.values == b.values and a.csv_text() == b.csv_text()
    assert [r.wire for r in a.all_requests()] == \
        [r.wire for r in b.all_requests()]
    assert [r.due for r in a.rounds] == [r.due for r in b.rounds]
    assert a.values != c.values
    assert len(set(a.values)) == w.n


def test_expected_answers_are_exact_aggregates():
    w = WORKLOADS["maxmin-prob"]
    inputs = generate(w, 3, 6, 10.0)
    kinds = set()
    for r in inputs.all_requests():
        picked = [inputs.values[i] for i in r.members]
        want = {"max": max, "min": min, "sum": sum}[r.kind](picked)
        assert r.expected == float(want)
        assert w.set_min <= len(r.members) <= w.set_max \
            or len(r.members) == w.n
        kinds.add(r.kind)
    assert kinds == {"max", "min"}
    opening = [r for r in inputs.all_requests() if len(r.members) == w.n]
    assert len(opening) == 2 * w.opening_users


def test_open_schedule_is_fixed_rate_with_bounded_jitter():
    from inputs import ROUNDS

    # 15 s, a third closed: 10 s of open loop at 100/s over the rounds.
    inputs = generate(WORKLOADS["sum-edge"], 1, 15, 100.0)
    assert len(inputs.rounds) == ROUNDS
    for r in inputs.rounds:
        assert len(r.due) == len(r.open) == round(1000 / ROUNDS)
        assert all(abs(d - (i + 1) / 100.0) <= 0.0025 + 1e-12
                   for i, d in enumerate(r.due))


def test_benchmark_json_matches_the_workloads():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)
    for w in bench["workloads"]:
        rate, limit = open_loop_policy(w["why"])
        assert rate > 0 and limit > 0
    with pytest.raises(ValueError):
        open_loop_policy("no rate here")


# ----------------------------------------------------------------------
# Tracing arithmetic
# ----------------------------------------------------------------------

def test_recorder_nests_spans_and_counts_outermost_only(tmp_path):
    rec = servebench_tracer.Recorder(str(tmp_path))
    rec.set_rid(7)
    outer = rec.begin("a")
    inner = rec.begin("b")
    again = rec.begin("b")          # re-entrant: not recorded
    assert again is None
    rec.end(again)
    rec.end(inner, value=3)
    rec.end(outer)
    rec.dump()
    trace = layers.load(str(tmp_path))
    a, b = trace.named("a")[0], trace.named("b")[0]
    assert (a.rid, b.rid) == (7, 7)
    assert b.parent == a.index and a.parent == -1
    assert b.value == 3
    assert layers._self_ns(trace, [a]) == [a.ns - b.ns]


def test_missing_wrap_targets_are_absent_not_fatal(tmp_path):
    rec = servebench_tracer.Recorder(str(tmp_path))
    servebench_tracer._patch(rec, "repro_no_such_module", "f",
                             lambda r: (lambda fn: fn))
    servebench_tracer._patch(rec, "json", "no_such_function",
                             lambda r: (lambda fn: fn))
    assert rec.absent == ["repro_no_such_module.f",
                          "json.no_such_function"]


def test_layer_metrics_of_an_empty_trace_are_zero():
    out = layers.metrics(layers.Trace(), [], (0, 1))
    assert out and all(v == 0.0 for v in out.values())


def test_traced_run_emits_exactly_the_declared_per_layer_metrics():
    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    emitted = set(layers.metrics(layers.Trace(), [], (0, 1)))
    emitted |= {"resilience.recovery.ms",
                "resilience.recovery.replayed_events",
                "loadgen.late_ms_p99"}
    emitted |= {f"unbounded.{name}" for name in run.UNBOUNDED_UNITS}
    emitted |= {f"tracing.overhead.{name}" for name in run.FIGURE_UNITS}
    assert emitted == {m["name"] for m in bench["per_layer"]}
    assert set(run.END_TO_END_UNITS) == {m["name"]
                                         for m in bench["end_to_end"]}
    for m in bench["end_to_end"]:
        assert run.END_TO_END_UNITS[m["name"]] == m["unit"]

"""Seeded inputs for the serving benchmark: workloads, dataset, requests.

One ``--seed`` generates everything the server receives: the dataset
CSV, every client's query stream and the open-loop schedule.  Values are
distinct integers, so a sum, max or min over any subset is exact in
floating point and in any order, and the benchmark can check every
released answer against the data.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

#: Name of the sensitive CSV column the server audits.
SENSITIVE = "value"
#: Value range the distinct integers are drawn from.
VALUE_RANGE = (1, 1_000_000)
#: Every workload draws users from this many ids.
USER_POOL = 64
#: Closed-loop clients (= connections, = client threads).
CLIENTS = 2
#: Share of ``--seconds`` given to the closed loop; the open loop,
#: whose tail needs the samples, gets the rest.
CLOSED_SHARE = 1.0 / 3.0
#: The timed part alternates closed and open phases this many times, so
#: that a slow spell of the shared machine lasting a few seconds hits
#: one round and the medians over rounds pass it by.
ROUNDS = 3


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one serving configuration."""

    name: str
    auditor: str            # serve --auditor
    n: int                  # records in the dataset
    kinds: Tuple[str, ...]  # aggregate kinds, cycled per request
    set_min: int            # query-set size range (inclusive)
    set_max: int
    checkpoint_every: int   # serve --checkpoint-every
    seed_requests: int      # untimed decisions journalled before set-up
    warmup_requests: int    # untimed closed-loop requests after set-up
    #: nominal closed-loop decisions per second: fixes the closed phase's
    #: request count, so every run does the same work
    closed_qps: float
    #: the seed phase opens with one query of each kind over all records
    #: from each of the first this many users
    opening_users: int = 0


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("sum-edge", "sum", 64, ("sum",), 2, 32,
                 checkpoint_every=64, seed_requests=400,
                 warmup_requests=200, closed_qps=450.0),
        # 20-100-record maxima over 400 records are denied (none was
        # answered in any trial), so every decision runs the 60-sample
        # what-if against the same synopsis.  Sets of 200-400 records
        # get a few answers, and each answer roughly doubles the cost of
        # later decisions: the cost then follows a seed-dependent random
        # walk that no run length averages out.
        Workload("max-prob", "max-prob", 400, ("max",), 20, 100,
                 checkpoint_every=64, seed_requests=200,
                 warmup_requests=300, closed_qps=170.0),
        # The cost of a maxmin-prob decision grows with the records the
        # answered queries cover (the coloring chains run over them).
        # Opening with the maximum and minimum of all records, which the
        # auditor answers, makes every run's chains span all 40 records
        # instead of a seed-dependent few.  Eight users reach both shards
        # under today's user routing.  Sets of 10-20 records are almost
        # all denied after the sampled what-if, so each decision runs the
        # coloring chains; about half of the 2-9-record sets are denied
        # by the structural check before any chain runs, and that
        # two-valued cost made every latency figure flip between modes.
        Workload("maxmin-prob", "maxmin-prob", 40, ("max", "min"), 10, 20,
                 checkpoint_every=64, seed_requests=80,
                 warmup_requests=30, closed_qps=30.0, opening_users=8),
    )
}

_RATE_RE = re.compile(r"open (\d+(?:\.\d+)?)/s")
_LIMIT_RE = re.compile(r"limit (\d+(?:\.\d+)?) ms")


def open_loop_policy(why: str) -> Tuple[float, float]:
    """(rate in requests/s, latency limit in ms) from a workload's ``why``.

    ``BENCHMARK.json`` is the single place the open-loop rate and the
    latency limit are fixed; a ``why`` without both is refused.
    """
    rate, limit = _RATE_RE.search(why), _LIMIT_RE.search(why)
    if rate is None or limit is None:
        raise ValueError("workload 'why' must state 'open <rate>/s' and "
                         "'limit <ms> ms'")
    return float(rate.group(1)), float(limit.group(1))


@dataclass(frozen=True)
class Request:
    """One POST /query, pre-encoded, with the answer it must carry."""

    rid: int
    user: str
    kind: str
    members: Tuple[int, ...]
    expected: float         # exact aggregate over the generated data
    wire: bytes             # the full HTTP request


def _aggregate(kind: str, values: Sequence[int],
               members: Sequence[int]) -> float:
    picked = [values[i] for i in members]
    if kind == "sum":
        return float(sum(picked))
    if kind == "max":
        return float(max(picked))
    if kind == "min":
        return float(min(picked))
    raise ValueError(f"unsupported kind {kind!r}")


def encode_request(rid: int, user: str, kind: str,
                   members: Sequence[int]) -> bytes:
    body = json.dumps({"user": user, "kind": kind,
                       "members": list(members)},
                      separators=(",", ":")).encode("ascii")
    head = ("POST /query HTTP/1.1\r\n"
            "Host: 127.0.0.1\r\n"
            "Content-Type: application/json\r\n"
            f"X-Request-Id: {rid}\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode("ascii")
    return head + body


@dataclass
class Round:
    """One timed round: a closed phase, then an open phase."""

    closed: List[List[Request]]   # one stream per client
    open: List[Request]           # shared by the open-loop threads
    due: List[float]              # seconds after the open phase starts


@dataclass
class Inputs:
    """Everything one run sends, generated from (workload, seed)."""

    workload: Workload
    seed: int
    values: List[int]
    seed_streams: List[List[Request]]     # one per client, untimed
    warmup_streams: List[List[Request]]   # one per client, untimed
    rounds: List[Round]                   # timed

    def csv_text(self) -> str:
        rows = ["id," + SENSITIVE]
        rows += [f"{i},{v}" for i, v in enumerate(self.values)]
        return "\n".join(rows) + "\n"

    def all_requests(self) -> List[Request]:
        out: List[Request] = []
        for streams in [self.seed_streams, self.warmup_streams] + [
                r.closed for r in self.rounds]:
            for stream in streams:
                out.extend(stream)
        for r in self.rounds:
            out.extend(r.open)
        return out


def generate(workload: Workload, seed: int, seconds: float,
             open_rate: float) -> Inputs:
    """Generate one run's inputs; the same arguments give the same inputs.

    ``seconds`` is split between the closed loop, which gets
    ``closed_qps * seconds * CLOSED_SHARE`` requests, and the open
    loop, which gets ``open_rate`` requests per second of the rest; each
    is divided evenly over ``ROUNDS`` rounds.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    # Stratified: one value per equal slice of the range, shuffled over
    # the records.  Gaps between neighbouring values (which steer how
    # often the probabilistic auditors can answer) then vary little
    # from seed to seed, while every value is still drawn from the seed.
    step = (VALUE_RANGE[1] - VALUE_RANGE[0]) // workload.n
    values = [VALUE_RANGE[0] + k * step + rng.randrange(step)
              for k in range(workload.n)]
    rng.shuffle(values)
    users = [f"user-{i:02d}" for i in range(USER_POOL)]
    counter = [0]

    def request(user: str, kind: str, members: Tuple[int, ...]) -> Request:
        rid = counter[0]
        counter[0] += 1
        return Request(rid, user, kind, members,
                       _aggregate(kind, values, members),
                       encode_request(rid, user, kind, members))

    def make(count: int) -> List[Request]:
        out = []
        for _ in range(count):
            kind = workload.kinds[counter[0] % len(workload.kinds)]
            size = rng.randint(workload.set_min, workload.set_max)
            members = tuple(sorted(rng.sample(range(workload.n), size)))
            out.append(request(rng.choice(users), kind, members))
        return out

    def split(total: int) -> List[List[Request]]:
        return [make(total // CLIENTS + (c < total % CLIENTS))
                for c in range(CLIENTS)]

    closed_s = seconds * CLOSED_SHARE
    everything = tuple(range(workload.n))
    opening = [request(user, kind, everything)
               for user in users[:workload.opening_users]
               for kind in workload.kinds]
    seed_streams = [opening[c::CLIENTS] + stream for c, stream in
                    enumerate(split(workload.seed_requests))]
    warmup_streams = split(workload.warmup_requests)
    closed_each = max(CLIENTS, round(workload.closed_qps * closed_s
                                     / ROUNDS))
    open_each = max(1, round(open_rate * (seconds - closed_s) / ROUNDS))
    interval = 1.0 / open_rate
    rounds = []
    for _ in range(ROUNDS):
        closed = split(closed_each)
        # A fixed-rate grid with seeded jitter of up to a quarter
        # interval, so the schedule is seeded but its rate never bursts.
        due = sorted((i + 1 + rng.uniform(-0.25, 0.25)) * interval
                     for i in range(open_each))
        rounds.append(Round(closed, make(open_each), due))
    return Inputs(workload, seed, values, seed_streams, warmup_streams,
                  rounds)

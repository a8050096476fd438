"""Serving benchmark: the deployed HTTP audit path, end to end.

Usage (from the root of a checkout)::

    python3 servebench/run.py --workload sum-edge --seed 1 --seconds 28 \
        --trace 0

Each run drives ``repro serve --listen`` as its own process:

1. seed the WAL with untimed decisions, then stop the server;
2. restart it over the same WAL ``SETUPS`` times; each restart, from
   launch to the first ``GET /healthz`` 200, is one set-up time;
3. send an untimed warm-up, then ``ROUNDS`` timed rounds of a
   closed-loop phase followed by an open-loop phase;
4. stop the server and run the correctness gate (``gate.py``).

Every run prints all its figures (``FIGURE_UNITS``).  With
``--trace 0`` the result line carries the bounded end-to-end metrics.
``--trace 1`` runs the same thing twice, untraced and then traced
(``hook/``), and its result line carries the per-layer metrics, the
untraced run's unbounded figures and the tracing overhead (traced minus
untraced figures).  The last line of standard output is one JSON object;
the exit code is non-zero when any correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from inputs import CLIENTS, WORKLOADS, Inputs, generate, open_loop_policy
from loadgen import (Outcome, Phase, closed_loop, median, open_loop,
                     tail_percentile)
from server import ServerProcess

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Restarts over the seeded WAL per run; ``setup_s`` is their median.
SETUPS = 3

#: The figures ``BENCHMARK.json`` bounds: set-up time, the server's CPU
#: cost per decision in the open loop, the share of requests within the
#: latency limit, and memory.  A thread is not charged for CPU time the
#: hypervisor steals, so the CPU cost moves far less with a busy shared
#: host than throughput and latency do (README.md, "Steadiness").
END_TO_END_UNITS = {
    "setup_s": "s", "open_cpu_ms_per_decision": "ms",
    "open_slo_frac": "fraction", "server_rss_mb": "MB",
}
#: Wall-clock throughput and latency, and the CPU cost per decision in
#: the saturated closed loop.  Every run prints them and the traced run
#: reports them as ``unbounded.<name>``; they carry no bound, because the
#: host's CPU steal moves them by more than any bound allows.
UNBOUNDED_UNITS = {
    "closed_qps": "decisions/s", "open_p50_ms": "ms", "open_p99_ms": "ms",
    "closed_cpu_ms_per_decision": "ms",
}
FIGURE_UNITS = {**END_TO_END_UNITS, **UNBOUNDED_UNITS}


@dataclass
class RunResult:
    phases: List[Phase] = field(default_factory=list)
    setups: List[float] = field(default_factory=list)
    rss_mb: float = 0.0
    #: share of the machine's CPU time the hypervisor took (steal) during
    #: the timed rounds; context for the figures, not a metric
    steal_share: float = float("nan")
    problems: List[str] = field(default_factory=list)
    trace_dirs: List[str] = field(default_factory=list)
    #: server CPU seconds spent in each timed phase, by phase name
    cpu_s: Dict[str, float] = field(default_factory=dict)

    def timed(self, loop: str) -> List[Phase]:
        """The timed phases of one loop ("closed" or "open"), in order."""
        return [p for p in self.phases if p.name.startswith(loop + "-")]


def open_tail_ms(opened: List[Phase]) -> Tuple[float, float]:
    """(percentile, ms): the median over the open-loop rounds of each
    round's tail percentile, so that a stall of the shared machine
    inflates one round's tail, not the figure."""
    tails = [tail_percentile([o.latency_ms for o in p.outcomes])
             for p in opened]
    return min(p for p, _ in tails), median([ms for _, ms in tails])


def figures(run: RunResult, limit_ms: float) -> Dict[str, float]:
    """Every run-level figure (``FIGURE_UNITS``) of one run."""
    closed, opened = run.timed("closed"), run.timed("open")
    outcomes = [o for p in opened for o in p.outcomes]
    return {
        "setup_s": median(run.setups),
        "closed_qps": median([p.succeeded / p.seconds for p in closed]),
        "open_p50_ms": median([median([o.latency_ms for o in p.outcomes])
                               for p in opened]),
        "open_p99_ms": open_tail_ms(opened)[1],
        "open_slo_frac": sum(o.ok and o.latency_ms <= limit_ms
                             for o in outcomes) / len(outcomes),
        "server_rss_mb": run.rss_mb,
        "closed_cpu_ms_per_decision": median(
            [run.cpu_s[p.name] * 1e3 / max(p.succeeded, 1)
             for p in closed]),
        "open_cpu_ms_per_decision": median(
            [run.cpu_s[p.name] * 1e3 / max(p.succeeded, 1)
             for p in opened]),
    }


def machine_cpu_ticks() -> List[int]:
    """The machine-wide CPU time counters of ``/proc/stat`` (empty when
    unreadable)."""
    try:
        with open("/proc/stat") as fh:
            return [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_share(before: List[int], after: List[int]) -> float:
    """Share of CPU time stolen between two ``machine_cpu_ticks``."""
    if len(before) < 8 or len(after) < 8:
        return float("nan")
    delta = [a - b for a, b in zip(after, before)]
    return delta[7] / sum(delta) if sum(delta) else float("nan")


def run_once(inputs: Inputs, workdir: str, trace: bool) -> RunResult:
    """Seed, restart, load and check one server; see the module doc."""
    workload = inputs.workload
    os.makedirs(workdir)
    csv_path = os.path.join(workdir, "data.csv")
    with open(csv_path, "w") as fh:
        fh.write(inputs.csv_text())
    wal_root = os.path.join(workdir, "wal")
    args = ["--csv", csv_path, "--sensitive", "value",
            "--auditor", workload.auditor, "--wal", wal_root,
            "--checkpoint-every", str(workload.checkpoint_every),
            "--seed", str(inputs.seed)]
    result = RunResult()
    server: Optional[ServerProcess] = None

    def launch(k: int) -> Tuple[ServerProcess, float]:
        env, hook = {}, []
        if trace:
            trace_dir = os.path.join(workdir, f"trace-{k}")
            os.makedirs(trace_dir)
            result.trace_dirs.append(trace_dir)
            env["SERVEBENCH_TRACE_DIR"] = trace_dir
            hook = [os.path.join(HERE, "hook")]
        proc = ServerProcess(ROOT, args,
                             os.path.join(workdir, f"server-{k}.log"),
                             extra_pythonpath=hook, env=env)
        try:
            return proc, proc.start()
        except BaseException:
            proc.kill()
            raise

    try:
        server, _ = launch(0)
        result.phases.append(closed_loop("seed", server.host, server.port,
                                         inputs.seed_streams))
        server.stop()
        for k in range(1, SETUPS + 1):
            server, seconds = launch(k)
            result.setups.append(seconds)
            if k < SETUPS:
                server.stop()
        host, port = server.host, server.port
        result.phases.append(closed_loop("warmup", host, port,
                                         inputs.warmup_streams))
        cpu_before = machine_cpu_ticks()
        for k, rnd in enumerate(inputs.rounds, 1):
            cpu = server.cpu_seconds()
            result.phases.append(closed_loop(f"closed-{k}", host, port,
                                             rnd.closed))
            result.cpu_s[f"closed-{k}"] = server.cpu_seconds() - cpu
            cpu = server.cpu_seconds()
            result.phases.append(open_loop(f"open-{k}", host, port,
                                           rnd.open, rnd.due, CLIENTS))
            result.cpu_s[f"open-{k}"] = server.cpu_seconds() - cpu
        result.rss_mb = server.rss_mb()
        result.steal_share = steal_share(cpu_before, machine_cpu_ticks())
        server.stop()
        server = None
    finally:
        if server is not None:
            server.kill()
    from gate import check

    result.problems = check(result.phases, wal_root, inputs.values,
                            workload.auditor, inputs.seed)
    return result


def layer_metrics(traced: RunResult, untraced: RunResult, limit_ms: float
                  ) -> Tuple[Dict[str, float], List[str]]:
    import layers

    phases = traced.timed("closed") + traced.timed("open")
    timed = layers.load(traced.trace_dirs[-1])
    out = layers.metrics(timed, [o for p in phases for o in p.outcomes],
                         (min(p.start_ns for p in phases),
                          max(p.end_ns for p in phases)))
    restarts = [layers.load(d) for d in traced.trace_dirs[1:]]
    out["resilience.recovery.ms"], out["resilience.recovery.replayed_events"] \
        = layers.recovery(restarts)
    late = [o.late_ms for p in untraced.timed("open") for o in p.outcomes]
    out["loadgen.late_ms_p99"] = tail_percentile(late)[1]
    base, with_trace = (figures(untraced, limit_ms),
                        figures(traced, limit_ms))
    for name in UNBOUNDED_UNITS:
        out[f"unbounded.{name}"] = base[name]
    for name in FIGURE_UNITS:
        out[f"tracing.overhead.{name}"] = with_trace[name] - base[name]
    return out, timed.absent


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated benchmark still stops its servers (``finally`` blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print("error: no repro source tree (src/repro) in this checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    bench = load_benchmark()
    why = next(w["why"] for w in bench["workloads"]
               if w["name"] == args.workload)
    rate, limit_ms = open_loop_policy(why)
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}

    workload = WORKLOADS[args.workload]
    inputs = generate(workload, args.seed, args.seconds, rate)
    base = os.path.join(ROOT, ".servebench",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(base, ignore_errors=True)
    runs: List[RunResult] = []
    try:
        runs.append(run_once(inputs, os.path.join(base, "untraced"), False))
        if args.trace:
            runs.append(run_once(inputs, os.path.join(base, "traced"), True))
        figs = figures(runs[0], limit_ms)
        absent: List[str] = []
        if args.trace:
            metrics, absent = layer_metrics(runs[1], runs[0], limit_ms)
        else:
            metrics = {name: figs[name] for name in END_TO_END_UNITS}
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(base))   # only when no other run uses it
        except OSError:
            pass

    problems = [p for run in runs for p in run.problems]
    for label, run in zip(("untraced", "traced"), runs):
        for phase in run.phases:
            acct = phase.accounting()
            print(f"{label} {phase.name:7s} sent={acct['sent']} "
                  f"succeeded={acct['succeeded']} failed={acct['failed']} "
                  f"answered={sum(o.answered for o in phase.outcomes)} "
                  f"seconds={phase.seconds:.3f}")
    print("set-up times (s): " + ", ".join(f"{t:.3f}" for t in runs[0].setups))
    print(f"machine steal during the timed rounds: "
          f"{runs[0].steal_share * 100:.1f}% of CPU time")
    opened = runs[0].timed("open")
    pct, _ = open_tail_ms(opened)
    print(f"open loop: {rate:g}/s, latency limit {limit_ms:g} ms, "
          f"{sum(p.sent for p in opened)} requests in {len(opened)} "
          f"rounds, tail percentile p{pct * 100:.3g} per round")
    for name, value in figs.items():
        print(f"{name} = {value:.6g} {FIGURE_UNITS[name]}")
    if args.trace:
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {units.get(name, '')}")
        for label in absent:
            print(f"absent layer (wrapped function not found): {label}")
    for problem in problems:
        print(f"CORRECTNESS: {problem}")

    attempted = sum(p.sent for run in runs for p in run.phases)
    failed = sum(p.failed for run in runs for p in run.phases)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units.get(name, "")}
                    for name, value in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

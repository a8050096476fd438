"""Fixed-seed 200-query workloads for the differential replay goldens.

Each workload builds a probabilistic auditor over a deterministic
dataset and replays a deterministic query stream through it.  The
decision sequence — every deny/answer bit, with answered values in
``float.hex`` form — is captured bitwise.  The golden files lock the
stream: the batched NumPy serving path (``vectorized=True``), the scalar
reference path (``vectorized=False``) and the committed golden must all
agree float-for-float, so vectorization can never silently change a
released decision.  For ``sum_prob`` the reference path is the auditor's
own ``vectorized=False`` mode; for ``max_prob`` and ``maxmin_prob`` it is
the scalar twin of the serving auditor defined here
(:class:`ReferenceMaxProbabilisticAuditor`,
:class:`ReferenceMaxMinProbabilisticAuditor`).

Regenerate with ``PYTHONPATH=src python -m tests.golden.generate`` from
the repo root (only when an *intentional* stream change lands).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.auditors.max_prob import MaxProbabilisticAuditor, algorithm1_safe
from repro.auditors.maxmin_prob import MaxMinProbabilisticAuditor
from repro.auditors.sum_prob import SumProbabilisticAuditor
from repro.coloring.chain import ColoringChain
from repro.coloring.sampler import PosteriorSampler, _containing_bucket
from repro.exceptions import InconsistentAnswersError
from repro.resilience.faults import fault_site
from repro.rng import choice_from_cdf, integer_block, uniform_block
from repro.sdb.dataset import Dataset
from repro.types import AggregateKind, AuditDecision, DenialReason, Query

GOLDEN_DIR = Path(__file__).resolve().parent
NUM_QUERIES = 200


def _query_stream(n: int, seed: int, kinds: List[AggregateKind],
                  count: int = NUM_QUERIES) -> List[Query]:
    gen = np.random.default_rng(seed)
    stream = []
    for i in range(count):
        size = int(gen.integers(1, n + 1))
        members = frozenset(
            int(x) for x in gen.choice(n, size=size, replace=False)
        )
        stream.append(Query(kinds[i % len(kinds)], members))
    return stream


def _sum_prob(vectorized: bool):
    dataset = Dataset.uniform(8, rng=7, duplicate_free=True)
    auditor = SumProbabilisticAuditor(
        dataset, lam=0.5, gamma=2, delta=0.6, rounds=3,
        num_outer=3, num_inner=20, mc_tolerance=0.25,
        steps_per_sample=8, rng=11, vectorized=vectorized,
    )
    return auditor, _query_stream(8, 100, [AggregateKind.SUM])


class ReferenceMaxProbabilisticAuditor(MaxProbabilisticAuditor):
    """Scalar twin of the serving max auditor.

    Assembles the consistent datasets row by row from the same pre-drawn
    randomness blocks, and judges every sampled answer by a full
    ``copy()`` + ``insert()`` + :func:`algorithm1_safe` rescan of the
    synopsis — Algorithm 2 as the paper states it.  The serving auditor's
    batched assembly and incremental what-if must release the same bits.
    """

    def sample_consistent_datasets(self, count, gen=None):
        n = self._n
        if count <= 0:
            return np.empty((0, n))
        base, pred_blocks = self._draw_sample_blocks(count, gen)
        out = np.empty((count, n))
        for c in range(count):
            row = base[c * n:(c + 1) * n].copy()
            for members, bound, draws, witnesses in pred_blocks:
                m = len(members)
                row[members] = draws[c * m:(c + 1) * m]
                if witnesses is not None:
                    row[members[int(witnesses[c])]] = bound
            out[c] = row
        return out

    def _deny_reason_sampled(self, query, scope, gen):
        members = query.sorted_indices()
        samples = self.sample_consistent_datasets(self.num_samples, gen)
        unsafe = 0
        for s in range(self.num_samples):
            if scope is not None:
                scope.checkpoint()
            answer = float(samples[s][list(members)].max())
            trial = self._synopsis.copy()
            try:
                trial.insert(query.query_set, answer)
            except InconsistentAnswersError:
                unsafe += 1
                continue
            if not algorithm1_safe(trial, self.grid, self.lam,
                                   distribution=self.distribution):
                unsafe += 1
        if unsafe / self.num_samples > self.threshold:
            return AuditDecision.deny(
                DenialReason.PARTIAL_DISCLOSURE,
                f"{unsafe}/{self.num_samples} sampled answers breach the "
                f"lambda band (threshold {self.threshold:.4g})",
            )
        return None


def _max_prob(vectorized: bool):
    dataset = Dataset.uniform(40, rng=7, duplicate_free=True)
    cls = (MaxProbabilisticAuditor if vectorized
           else ReferenceMaxProbabilisticAuditor)
    auditor = cls(
        dataset, lam=0.3, gamma=4, delta=0.5, rounds=5,
        num_samples=40, rng=12,
    )
    return auditor, _query_stream(40, 101, [AggregateKind.MAX])


class ReferenceColoringChain(ColoringChain):
    """Scalar twin of the colouring-chain kernel.

    Each :meth:`run` draws its own node-pick and proposal-position blocks
    with the per-run NumPy calls and resolves each proposal on its own
    with :func:`choice_from_cdf`.  :meth:`ColoringChain.run_many` must
    move the chain through the same colourings.
    """

    def run(self, steps):
        if steps <= 0:
            return dict(self.state)
        checkpoint = self._checkpoint
        k = self.graph.k
        if k == 0:
            for _ in range(steps):
                fault_site("coloring.step")
                if checkpoint is not None:
                    checkpoint()
            return dict(self.state)
        v_block = integer_block(self._rng, k, steps)
        u_block = uniform_block(self._rng, steps)
        state = self.state
        for s in range(steps):
            fault_site("coloring.step")
            if checkpoint is not None:
                checkpoint()
            v = int(v_block[s])
            colours = self._colors[v]
            if len(colours) == 1:
                continue
            proposal = colours[int(choice_from_cdf(self._cdfs[v],
                                                   u_block[s]))]
            if proposal == state[v]:
                continue
            for nb in self._neighbors[v]:
                if state[nb] == proposal:
                    break
            else:
                state[v] = proposal
        return dict(self.state)


class ReferencePosteriorSampler(PosteriorSampler):
    """Scalar twin of the posterior sampler: a
    :class:`ReferenceColoringChain`, one :meth:`sample_coloring` per
    witness sample tallied into dicts, and element ranges read one
    ``range_of`` call at a time."""

    def __init__(self, synopsis, initial_dataset=None, rng=None,
                 burn_in=None, thin=None, checkpoint=None):
        super().__init__(synopsis, initial_dataset=initial_dataset, rng=rng,
                         burn_in=burn_in, thin=thin, checkpoint=checkpoint)
        self.chain = ReferenceColoringChain(
            self.graph, self.chain.state, rng=self._rng,
            checkpoint=checkpoint)

    def estimate_witness_probabilities(self, count):
        counts = {node.node_id: {} for node in self.graph.nodes}
        for _ in range(count):
            coloring = self.sample_coloring()
            for node_id, element in coloring.items():
                bucket = counts[node_id]
                bucket[element] = bucket.get(element, 0.0) + 1.0
        for node_id, bucket in sorted(counts.items()):
            for element in sorted(bucket):
                bucket[element] /= count
        return counts

    def estimate_interval_probabilities(self, count, edges):
        synopsis = self.graph.synopsis
        n = synopsis.n
        gamma = len(edges) - 1
        witness = self.estimate_witness_probabilities(count) if count else {}
        probs = np.zeros((n, gamma), dtype=float)
        point_mass = np.zeros(n)
        for node in self.graph.nodes:
            bucket_idx = _containing_bucket(edges, node.value)
            for element, pi in witness.get(node.node_id, {}).items():
                probs[element, bucket_idx] += pi
                point_mass[element] += pi
        for i in range(n):
            rng_i = synopsis.range_of(i)
            remaining = 1.0 - point_mass[i]
            if remaining <= 0.0:
                continue
            if rng_i.length <= 0.0:
                probs[i, _containing_bucket(edges, rng_i.lo)] += remaining
                continue
            for j in range(gamma):
                overlap = (min(rng_i.hi, float(edges[j + 1]))
                           - max(rng_i.lo, float(edges[j])))
                if overlap > 0:
                    probs[i, j] += remaining * overlap / rng_i.length
        return probs


class ReferenceMaxMinProbabilisticAuditor(MaxMinProbabilisticAuditor):
    """Scalar twin of the serving max-min auditor: every posterior
    sampler is a :class:`ReferencePosteriorSampler`."""

    def _make_sampler(self, synopsis, seed_dataset=None, gen=None,
                      checkpoint=None):
        if seed_dataset is None:
            seed_dataset = list(self.dataset.values)
        return ReferencePosteriorSampler(
            synopsis, initial_dataset=seed_dataset,
            rng=self._rng if gen is None else gen, checkpoint=checkpoint)


def _maxmin_prob(vectorized: bool):
    dataset = Dataset.uniform(8, rng=7, duplicate_free=True)
    cls = (MaxMinProbabilisticAuditor if vectorized
           else ReferenceMaxMinProbabilisticAuditor)
    auditor = cls(
        dataset, lam=0.35, gamma=4, delta=0.6, rounds=4,
        num_outer=3, num_inner=20, rng=13,
    )
    return auditor, _query_stream(
        8, 102, [AggregateKind.MAX, AggregateKind.MIN]
    )


WORKLOADS = {
    "sum_prob": _sum_prob,
    "max_prob": _max_prob,
    "maxmin_prob": _maxmin_prob,
}


def decision_record(query: Query, decision) -> Dict[str, object]:
    """One decision, serialised bitwise (answers as ``float.hex``)."""
    return {
        "kind": query.kind.value,
        "members": sorted(query.query_set),
        "denied": decision.denied,
        "reason": decision.reason.value if decision.reason else None,
        "value_hex": (float(decision.value).hex()
                      if decision.answered else None),
    }


def run_workload(name: str, vectorized: bool) -> List[Dict[str, object]]:
    """Replay workload ``name`` and return its decision records."""
    auditor, stream = WORKLOADS[name](vectorized)
    return [decision_record(q, auditor.audit(q)) for q in stream]


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}_decisions.json"


def load_golden(name: str) -> List[Dict[str, object]]:
    with golden_path(name).open() as fh:
        blob = json.load(fh)
    return blob["decisions"]

"""Probabilistic (partial-disclosure) max auditor — Algorithms 1 and 2 (§3.1).

Data model: ``X`` drawn uniformly from the duplicate-free points of
``[low, high]^n`` (the paper's unit cube, rescaled).  The auditor maintains
the max synopsis ``B_max``; the posterior of each element given ``B_max`` is
closed-form (uniform below its bound, plus a point mass for equality
predicates), which makes the safety check — Algorithm 1 — exact and ``O(n)``
per evaluation.

The simulatable decision (Algorithm 2) estimates the probability, over
datasets drawn from the conditional distribution given past answers, that
answering the new query would drive some posterior/prior bucket ratio out of
the ``lambda`` band; the query is denied when the estimated probability
exceeds ``delta / 2T``.  Theorem 1 proves this ``(lambda, delta, gamma, T)``-
private.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from ..exceptions import PrivacyParameterError
from ..privacy.compromise import ratios_within_band, rows_within_band
from ..privacy.intervals import IntervalGrid
from ..privacy.posterior import (
    general_prior,
    max_predicate_bucket_probabilities,
    max_predicate_bucket_probabilities_general,
    max_row_bucket_probabilities_general,
    max_rows_bucket_probabilities,
)
from ..resilience.budget import Budget, BudgetScope, run_fail_closed
from ..resilience.overload import CircuitBreaker
from ..rng import (
    RngLike,
    as_generator,
    integer_block,
    scale_uniform,
    uniform_block,
)
from ..sdb.dataset import Dataset
from ..synopsis.extreme_synopsis import ExtremeSynopsis, MaxSynopsis, Row
from ..types import AggregateKind, AuditDecision, DenialReason, Query
from .base import Auditor


def algorithm1_safe(synopsis: ExtremeSynopsis, grid: IntervalGrid,
                    lam: float, distribution=None) -> bool:
    """Algorithm 1: is every element safe w.r.t. every interval?

    Equivalent to the paper's per-element, per-interval loop, but evaluated
    once per predicate (all members of a predicate share their posterior and
    free elements are at the prior).  With ``distribution`` set, priors and
    posteriors follow that i.i.d. data model instead of uniform — the
    extension the paper's §3.1 anticipates.
    """
    if distribution is None:
        prior = np.full(grid.gamma, grid.prior)

        def posterior(pred):
            return max_predicate_bucket_probabilities(grid, pred)
    else:
        prior = general_prior(grid, distribution)
        if np.any(prior <= 0.0):
            # A bucket the prior cannot reach makes the ratio ill-defined;
            # treat as unsafe (the attacker's confidence is unbounded).
            return False

        def posterior(pred):
            return max_predicate_bucket_probabilities_general(
                grid, pred, distribution
            )
    for pred in synopsis.predicates():
        if not ratios_within_band(posterior(pred), prior, lam):
            return False
    return True


class MaxProbabilisticAuditor(Auditor):
    """The Section 3.1 simulatable auditor for max queries.

    Parameters
    ----------
    dataset:
        Duplicate-free dataset; values must lie in ``[dataset.low,
        dataset.high]`` (the assumed public range).
    lam, gamma, delta, rounds:
        The ``(lambda, delta, gamma, T)``-privacy parameters.
    num_samples:
        Monte Carlo draws per decision; the paper's analysis uses
        ``O((1/delta) log(1/delta))`` — the default scales with that but is
        capped for practicality.
    distribution:
        Optional :class:`~repro.privacy.distributions.DataDistribution`
        modelling the (public) data distribution; defaults to uniform on
        ``[dataset.low, dataset.high]`` as in the paper.
    budget:
        Optional per-query :class:`~repro.resilience.budget.Budget`; when
        set, decisions run under its deadline/step caps with bounded
        retry-and-reseed and fail closed to a ``RESOURCE_EXHAUSTED``
        denial on exhaustion.
    breaker:
        Optional :class:`~repro.resilience.overload.CircuitBreaker`;
        repeated budget exhaustions trip it and subsequent decisions
        short-circuit to a conservative denial until its cooldown passes.
    """

    supported_kinds = frozenset({AggregateKind.MAX})

    def __init__(self, dataset: Dataset, lam: float = 0.05, gamma: int = 10,
                 delta: float = 0.05, rounds: int = 100,
                 num_samples: Optional[int] = None, rng: RngLike = None,
                 distribution=None, budget: Optional[Budget] = None,
                 breaker: Optional[CircuitBreaker] = None):
        super().__init__(dataset)
        dataset.require_duplicate_free()
        if not 0 < delta < 1:
            raise PrivacyParameterError("delta must lie in (0, 1)")
        if rounds < 1:
            raise PrivacyParameterError("rounds (T) must be positive")
        self.grid = IntervalGrid(gamma, dataset.low, dataset.high)
        self.lam = lam
        self.delta = delta
        self.rounds = rounds
        self.threshold = delta / (2.0 * rounds)
        if num_samples is None:
            suggested = (1.0 / delta) * math.log(1.0 / delta)
            num_samples = int(min(400, max(60, math.ceil(suggested))))
        self.num_samples = num_samples
        self._rng = as_generator(rng)
        self.budget = budget
        self.breaker = breaker
        # Public model parameters (range and size are known to the attacker;
        # caching them keeps the decision path off the sensitive values).
        self._n = dataset.n
        self._low = dataset.low
        self._high = dataset.high
        self.distribution = distribution
        self._synopsis = MaxSynopsis(dataset.n, limit=dataset.high)

    # ------------------------------------------------------------------
    # Sampling consistent datasets
    # ------------------------------------------------------------------

    def sample_consistent_dataset(
            self, gen: Optional[np.random.Generator] = None) -> np.ndarray:
        """A dataset drawn uniformly from those consistent with past answers.

        Per predicate: an equality predicate picks a uniform witness set to
        the bound, the rest uniform below it; a strict predicate draws all
        members below the bound; free elements are uniform on the range.
        Duplicates occur with probability zero.
        """
        if gen is None:
            gen = self._rng
        dist = self.distribution
        if dist is None:
            values = gen.uniform(self._low, self._high, size=self._n)
        else:
            values = dist.sample(gen, self._n)
        for pred in self._synopsis.predicates():
            members = sorted(pred.elements)
            if dist is None:
                draws = gen.uniform(self._low, pred.value,
                                    size=len(members))
            else:
                draws = dist.sample_below(gen, pred.value, len(members))
            values[members] = draws
            if pred.equality:
                witness = members[int(gen.integers(len(members)))]
                values[witness] = pred.value
        return values

    def sample_consistent_datasets(
            self, count: int,
            gen: Optional[np.random.Generator] = None) -> np.ndarray:
        """``count`` consistent datasets, stacked ``(count, n)``.

        All randomness is pre-drawn by :meth:`_draw_sample_blocks`, then
        assembled in batches: each predicate's member draws overwrite its
        columns and the witness picks pin one member per row to the bound.
        """
        if count <= 0:
            return np.empty((0, self._n))
        base, pred_blocks = self._draw_sample_blocks(count, gen)
        values = base.reshape(count, self._n)
        for members, bound, draws, witnesses in pred_blocks:
            values[:, members] = draws.reshape(count, len(members))
            if witnesses is not None:
                cols = np.asarray(members)[witnesses]
                values[np.arange(count), cols] = bound
        return values

    def _draw_sample_blocks(self, count: int,
                            gen: Optional[np.random.Generator]):
        """The randomness for ``count`` consistent datasets, in canonical
        block order: base values (``count * n``), then per predicate its
        member draws (``count * m``) and, for equality predicates, one
        witness pick per dataset.  Returns ``(base, pred_blocks)`` with
        ``(members, bound, draws, witnesses)`` per predicate."""
        if gen is None:
            gen = self._rng
        dist = self.distribution
        n = self._n
        if dist is None:
            base = scale_uniform(uniform_block(gen, count * n),
                                 self._low, self._high)
        else:
            base = np.concatenate(
                [dist.sample(gen, n) for _ in range(count)]
            )
        pred_blocks = []
        for pred in self._synopsis.predicates():
            members = sorted(pred.elements)
            m = len(members)
            if dist is None:
                draws = scale_uniform(uniform_block(gen, count * m),
                                      self._low, pred.value)
            else:
                draws = np.concatenate(
                    [dist.sample_below(gen, pred.value, m)
                     for _ in range(count)]
                )
            witnesses = (integer_block(gen, m, count)
                         if pred.equality else None)
            pred_blocks.append((members, pred.value, draws, witnesses))
        return base, pred_blocks

    # ------------------------------------------------------------------
    # Decision (Algorithm 2)
    # ------------------------------------------------------------------

    def _deny_reason(self, query: Query) -> Optional[AuditDecision]:
        # Fail-closed: under a budget, deadline/step exhaustion and
        # persistent sampling failures become RESOURCE_EXHAUSTED denials.
        return run_fail_closed(
            self.budget, self._rng,
            lambda scope, gen: self._deny_reason_sampled(query, scope, gen),
            breaker=self.breaker,
        )

    def _deny_reason_sampled(self, query: Query,
                             scope: Optional[BudgetScope],
                             gen: np.random.Generator
                             ) -> Optional[AuditDecision]:
        # Incremental what-if: a predicate's posterior depends on that
        # predicate alone, so a sampled answer can only change the verdict
        # through the predicates its insert would create or shrink.  The
        # current predicates are judged once; every sample's new rows are
        # judged together in one row-wise Algorithm 1 pass.
        members = list(query.sorted_indices())
        samples = self.sample_consistent_datasets(self.num_samples, gen)
        answers = samples[:, members].max(axis=1)
        prior = self._prior()
        plan = self._synopsis.what_if_plan(query.query_set)
        current = self._synopsis.items()
        current_ok = self._rows_safe(
            [(p.value, p.size, p.equality) for _, p in current], prior
        )
        unsafe_now = {pid for (pid, _), ok in zip(current, current_ok)
                      if not ok}
        breached = np.zeros(self.num_samples, dtype=bool)
        rows: List[Row] = []
        owners: List[int] = []
        for s in range(self.num_samples):
            if scope is not None:
                # No inner MCMC chain here: one Monte Carlo draw is the
                # natural cancellation granularity.
                scope.checkpoint()
            outcome = plan.outcome(float(answers[s]))
            if outcome is None:  # inconsistent: measure zero in practice
                breached[s] = True
                continue
            touched, new_rows = outcome
            if not unsafe_now.issubset(touched):
                breached[s] = True  # an unsafe predicate survives as is
                continue
            rows.extend(new_rows)
            owners.extend([s] * len(new_rows))
        rows_ok = self._rows_safe(rows, prior)
        breached[np.asarray(owners, dtype=np.intp)[~rows_ok]] = True
        unsafe = int(np.count_nonzero(breached))
        if unsafe / self.num_samples > self.threshold:
            # audit: LEAK001 -- breach count from seeded *simulatable* sampling
            # over the public prior; num_samples/threshold are policy constants
            return AuditDecision.deny(
                DenialReason.PARTIAL_DISCLOSURE,
                f"{unsafe}/{self.num_samples} sampled answers breach the "
                f"lambda band (threshold {self.threshold:.4g})",
            )
        return None

    def _prior(self) -> np.ndarray:
        """Prior bucket probabilities of the data model."""
        if self.distribution is None:
            return np.full(self.grid.gamma, self.grid.prior)
        return general_prior(self.grid, self.distribution)

    def _rows_safe(self, rows: List[Row], prior: np.ndarray) -> np.ndarray:
        """Algorithm 1 per ``(value, size, equality)`` predicate row.

        Matches :func:`algorithm1_safe` predicate by predicate, including
        its verdict that every predicate is unsafe when the prior misses
        a bucket.
        """
        if not rows or np.any(prior <= 0.0):
            return np.zeros(len(rows), dtype=bool)
        if self.distribution is None:
            values, sizes, equality = zip(*rows)
            posterior = max_rows_bucket_probabilities(
                self.grid, values, sizes, np.asarray(equality, dtype=bool)
            )
        else:
            posterior = np.array([
                max_row_bucket_probabilities_general(
                    self.grid, value, size, equality, self.distribution)
                for value, size, equality in rows
            ])
        return rows_within_band(posterior, prior, self.lam)

    def _record_answer(self, query: Query, value: float) -> None:
        self._synopsis.insert(query.query_set, value)

    # ------------------------------------------------------------------

    @property
    def synopsis(self) -> ExtremeSynopsis:
        """The maintained max synopsis ``B_max``."""
        return self._synopsis

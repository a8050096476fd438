"""Sampling datasets from the posterior ``P(X | B)`` (Lemma 1).

The generative procedure proved correct in Lemma 1:

1. sample a colouring ``c`` from ``P~``;
2. set ``x_{c(v)} = A(v)`` for each equality predicate ``v``;
3. sample every remaining ``x_i`` uniformly from its range ``R_i``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from ..rng import RngLike, as_generator, scale_uniform, uniform_block
from ..synopsis.combined import CombinedSynopsis
from .chain import ColoringChain
from .graph import Coloring, ColoringGraph


def _containing_bucket(edges: np.ndarray, value: float) -> int:
    """0-based bucket index containing ``value`` (boundary values belong to
    the left bucket, matching the paper's ``ceil`` convention)."""
    idx = int(np.searchsorted(edges, value, side="left")) - 1
    return min(max(idx, 0), len(edges) - 2)


def dataset_from_coloring(graph: ColoringGraph, coloring: Coloring,
                          rng: RngLike = None) -> List[float]:
    """Materialise a dataset from a colouring (steps 2–3 of Lemma 1).

    The uniform fills are drawn as one block over the free elements in
    index order, which is bitwise-identical to the per-element
    ``Generator.uniform`` calls it replaces.
    """
    gen = as_generator(rng)
    n = graph.synopsis.n
    values: List[Optional[float]] = [None] * n
    for node in graph.nodes:
        values[coloring[node.node_id]] = node.value
    free: List[int] = []
    lows: List[float] = []
    highs: List[float] = []
    for i in range(n):
        if values[i] is not None:
            continue
        rng_i = graph.ranges[i]
        if rng_i.is_point:
            values[i] = rng_i.lo
        else:
            free.append(i)
            lows.append(rng_i.lo)
            highs.append(rng_i.hi)
    if free:
        fills = scale_uniform(uniform_block(gen, len(free)),
                              np.asarray(lows), np.asarray(highs))
        for i, fill in zip(free, fills):
            values[i] = float(fill)
    return [float(v) for v in values]


class PosteriorSampler:
    """Draws datasets consistent with a combined synopsis via the chain.

    Parameters
    ----------
    synopsis:
        The propagated combined synopsis ``B``.
    initial_dataset:
        Optional dataset consistent with ``B`` used to derive the initial
        colouring (the paper initialises from the true database state); when
        omitted a valid colouring is found by backtracking.
    burn_in:
        Chain steps before the first sample; defaults to the Lemma 3 budget.
    thin:
        Chain steps between consecutive samples.
    checkpoint:
        Optional cooperative-cancellation hook, invoked once per chain
        transition (see :class:`repro.resilience.budget.BudgetScope`).
    """

    def __init__(self, synopsis: CombinedSynopsis,
                 initial_dataset: Optional[List[float]] = None,
                 rng: RngLike = None,
                 burn_in: Optional[int] = None,
                 thin: Optional[int] = None,
                 checkpoint: Optional[Callable[[], None]] = None):
        self._rng = as_generator(rng)
        self.graph = ColoringGraph(synopsis)
        if initial_dataset is not None:
            initial = self.graph.coloring_from_dataset(initial_dataset)
        elif self.graph.k:
            initial = self.graph.find_valid_coloring()
        else:
            initial = {}
        self.chain = ColoringChain(self.graph, initial, rng=self._rng,
                                   checkpoint=checkpoint)
        default = self.chain.default_steps()
        self.burn_in = default if burn_in is None else burn_in
        self.thin = max(1, default // 4) if thin is None else thin
        self._warmed = False

    def sample_coloring(self) -> Coloring:
        """One colouring drawn (approximately) from ``P~``."""
        if not self._warmed:
            self.chain.run(self.burn_in)
            self._warmed = True
        else:
            self.chain.run(self.thin)
        return dict(self.chain.state)

    def sample_dataset(self) -> List[float]:
        """One dataset drawn (approximately) from ``P(X | B)``."""
        return dataset_from_coloring(self.graph, self.sample_coloring(),
                                     rng=self._rng)

    def sample_datasets(self, count: int) -> List[List[float]]:
        """``count`` (thinned) posterior datasets."""
        return [self.sample_dataset() for _ in range(count)]

    def estimate_witness_probabilities(self, count: int) -> Dict[int, Dict[int, float]]:
        """Monte Carlo estimate of ``Pr{c(v) = i | B}`` per node.

        Returns ``{node_id: {element: probability}}`` from ``count`` thinned
        colouring samples (no dataset materialisation needed), with each
        node's elements in increasing order.  The samples are the ones
        ``count`` :meth:`sample_coloring` calls would draw, taken in one
        :meth:`ColoringChain.run_many` pass; each probability is
        ``hits / count``.
        """
        probs: Dict[int, Dict[int, float]] = {
            node.node_id: {} for node in self.graph.nodes
        }
        if count <= 0:
            return probs
        first = self.thin if self._warmed else self.burn_in
        states = self.chain.run_many([first] + [self.thin] * (count - 1))
        self._warmed = True
        for node_id, witnesses in zip(probs, states.T):
            elements, hits = np.unique(witnesses, return_counts=True)
            probs[node_id] = {
                int(e): int(h) / count for e, h in zip(elements, hits)
            }
        return probs

    def estimate_interval_probabilities(
        self, count: int, edges: np.ndarray
    ) -> np.ndarray:
        """Rao-Blackwellised estimate of ``Pr{x_i in I_j | B}``.

        Only the *witness probabilities* are Monte Carlo quantities;
        conditioned on the colouring, every non-witness element is exactly
        uniform over its range ``R_i`` (Lemma 1 step 3), so the bucket mass
        is assembled analytically:

        ``P(x_i in I_j) = sum_v pi_i(v) [A(v) in I_j]
                          + (1 - sum_v pi_i(v)) |R_i ∩ I_j| / |R_i|``

        Returns an ``(n, gamma)`` matrix; ``edges`` has ``gamma + 1``
        increasing bucket boundaries.
        """
        n = self.graph.synopsis.n
        gamma = len(edges) - 1
        witness = self.estimate_witness_probabilities(count) if count else {}
        probs = np.zeros((n, gamma), dtype=float)
        # Point-mass contributions from witness roles.
        point_mass = np.zeros(n)
        for node in self.graph.nodes:
            bucket_idx = _containing_bucket(edges, node.value)
            for element, pi in witness.get(node.node_id, {}).items():
                probs[element, bucket_idx] += pi
                point_mass[element] += pi
        # Exact uniform mass over each element's range for the rest.
        for i, rng_i in enumerate(self.graph.ranges):
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

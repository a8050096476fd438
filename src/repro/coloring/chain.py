"""The Markov chain ``M`` over valid colourings (paper, Section 3.2).

Each step: pick a node ``v`` uniformly; propose a colour from ``S(v)`` with
probability proportional to ``ℓ_colour``; accept iff the proposal keeps the
colouring valid (otherwise stay).  Lemma 2 shows the unique stationary
distribution is ``P~(c) ∝ Π_v ℓ_{c(v)}`` whenever ``|S(v)| >= d_v + 2`` for
all ``v``; Lemma 3 gives ``O(k log k)`` mixing under the stronger condition
``m > Δ(1 + 2 p_max / p_min)``.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..exceptions import ColoringError
from ..resilience.faults import fault_site
from ..rng import RngLike, as_generator, chain_blocks, choice_cdf
from .graph import Coloring, ColoringGraph


class ColoringChain:
    """Runs the single-site chain over valid colourings of ``graph``.

    ``checkpoint`` is an optional cooperative-cancellation hook invoked
    once per transition (see
    :meth:`repro.resilience.budget.BudgetScope.checkpoint`).

    :meth:`run_many` is the kernel: for a list of run lengths it draws
    every run's randomness with one :func:`~repro.rng.chain_blocks` call
    (per run, all node picks, then all proposal positions), resolves all
    proposals with one batched per-node lookup into precomputed
    cumulative tables, and applies the accept/reject sweep sequentially.
    :meth:`run` is its one-run case.  :meth:`step` keeps the original
    per-transition draw order for callers that interleave other draws.
    """

    def __init__(self, graph: ColoringGraph, initial: Coloring,
                 rng: RngLike = None,
                 checkpoint: Optional[Callable[[], None]] = None):
        if not graph.is_valid(initial):
            raise ColoringError("initial coloring is not valid")
        self.graph = graph
        self.state: Coloring = dict(initial)
        self._rng = as_generator(rng)
        self._checkpoint = checkpoint
        # Pre-compute per-node colour lists, proposal probabilities, the
        # cumulative tables ``Generator.choice`` would build per call, and
        # adjacency lists (so the accept loop never re-walks the graph).
        self._colors: List[List[int]] = []
        self._probs: List[np.ndarray] = []
        self._cdfs: List[Optional[np.ndarray]] = []
        self._colour_arrays: List[np.ndarray] = []
        self._neighbors: List[List[int]] = []
        for node in graph.nodes:
            colours = sorted(node.elements)
            weights = np.array(
                [self._finite_weight(graph.weights[c]) for c in colours],
                dtype=float,
            )
            self._colors.append(colours)
            self._colour_arrays.append(np.array(colours, dtype=np.intp))
            self._probs.append(weights / weights.sum())
            self._cdfs.append(
                choice_cdf(weights) if len(colours) > 1 else None
            )
            self._neighbors.append(list(graph.neighbors(node.node_id)))

    @staticmethod
    def _finite_weight(w: float) -> float:
        # Infinite weights belong to exactly-determined elements, which only
        # occur in singleton predicates where the choice is forced anyway.
        return w if math.isfinite(w) else 1.0

    # ------------------------------------------------------------------

    def step(self) -> bool:
        """One chain transition; returns True when the colour changed."""
        fault_site("coloring.step")
        if self._checkpoint is not None:
            self._checkpoint()
        graph = self.graph
        k = graph.k
        if k == 0:
            return False
        v = int(self._rng.integers(k))
        colours = self._colors[v]
        if len(colours) == 1:
            return False
        proposal = colours[
            int(self._rng.choice(len(colours), p=self._probs[v]))
        ]
        if proposal == self.state[v]:
            return False
        for nb in graph.neighbors(v):
            if self.state[nb] == proposal:
                return False  # invalid: keep the old colour
        self.state[v] = proposal
        return True

    def run(self, steps: int) -> Coloring:
        """Advance ``steps`` transitions and return the current colouring."""
        self.run_many([steps])
        return dict(self.state)

    def run_many(self, runs: Sequence[int]) -> np.ndarray:
        """Advance through consecutive runs of ``runs[r]`` transitions.

        Returns the ``(len(runs), k)`` colourings (row ``r`` maps node id
        to colour) after each run.  The chain moves exactly as it would
        under one :meth:`run` call per run length, bitwise: each run's
        randomness block is drawn in the same order (node picks, then
        one proposal position per transition whether or not the picked
        node has a choice to make), all from one
        :func:`~repro.rng.chain_blocks` call.  Fault sites and
        cancellation checkpoints still fire once per transition.
        """
        runs = [max(0, int(s)) for s in runs]
        checkpoint = self._checkpoint
        k = self.graph.k
        out = np.empty((len(runs), k), dtype=np.intp)
        if k == 0:
            for _ in range(sum(runs)):
                fault_site("coloring.step")
                if checkpoint is not None:
                    checkpoint()
            return out
        v_block, u_block = chain_blocks(self._rng, k, runs)
        # Every transition's proposed colour.  A single-colour node always
        # proposes its current colour, which the sweep then keeps.
        proposal_block = np.empty(len(v_block), dtype=np.intp)
        for v in np.unique(v_block).tolist():
            sel = v_block == v
            cdf = self._cdfs[v]
            idx = (0 if cdf is None
                   else cdf.searchsorted(u_block[sel], side="right"))
            proposal_block[sel] = self._colour_arrays[v][idx]
        picks = v_block.tolist()
        proposals = proposal_block.tolist()
        neighbors = self._neighbors
        state = [self.state[v] for v in range(k)]
        start = 0
        try:
            for r, steps in enumerate(runs):
                for s in range(start, start + steps):
                    fault_site("coloring.step")
                    if checkpoint is not None:
                        checkpoint()
                    v = picks[s]
                    proposal = proposals[s]
                    if proposal == state[v]:
                        continue
                    for nb in neighbors[v]:
                        if state[nb] == proposal:
                            break
                    else:
                        state[v] = proposal
                start += steps
                out[r] = state
        finally:
            # A raising fault site or checkpoint leaves the chain where
            # it stopped, as per-transition updates would.
            for v in range(k):
                self.state[v] = state[v]
        return out

    def default_steps(self, safety: float = 4.0) -> int:
        """A mixing budget of ``O(k log k)`` steps (Lemma 3)."""
        k = max(1, self.graph.k)
        return max(1, int(math.ceil(safety * k * (1.0 + math.log(k)))))

    def sample(self, steps: Optional[int] = None) -> Coloring:
        """Run (approximately) to stationarity and return a colouring."""
        return self.run(self.default_steps() if steps is None else steps)

"""Differential tests: the fused colouring-chain kernel == its scalar twin.

:meth:`ColoringChain.run_many` draws every run's randomness from one
:func:`~repro.rng.chain_blocks` call, resolves all proposals in one
batched per-node lookup and sweeps all runs in one pass.
``ReferenceColoringChain`` (``tests/golden/workloads.py``) draws each
run's blocks with the per-run NumPy calls and resolves each proposal on
its own.  The colouring trajectories, the posterior estimates built on
them, the fault-site hits and the budget step at which a capped chain
stops must all be identical.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloring.chain import ColoringChain
from repro.coloring.graph import ColoringGraph
from repro.coloring.sampler import PosteriorSampler
from repro.exceptions import ResourceExhaustedError
from repro.resilience.budget import Budget
from repro.resilience.faults import FaultPlan, inject
from repro.synopsis.combined import CombinedSynopsis
from repro.types import AggregateKind
from tests.golden.workloads import (
    ReferenceColoringChain,
    ReferencePosteriorSampler,
)

MAX = AggregateKind.MAX
MIN = AggregateKind.MIN


def paper_graph():
    syn = CombinedSynopsis(3, 0.0, 1.0)
    syn.insert(MAX, {0, 1, 2}, 1.0)
    syn.insert(MIN, {0, 1}, 0.2)
    return ColoringGraph(syn)


def four_node_graph():
    syn = CombinedSynopsis(8, 0.0, 1.0)
    syn.insert(MAX, {0, 1, 2}, 1.0)
    syn.insert(MAX, {3, 4, 5}, 0.9)
    syn.insert(MIN, {0, 3, 6}, 0.1)
    syn.insert(MIN, {1, 4, 7}, 0.2)
    return ColoringGraph(syn)


def twins(graph, seed, **kwargs):
    initial = graph.find_valid_coloring()
    return (ColoringChain(graph, dict(initial), rng=seed, **kwargs),
            ReferenceColoringChain(graph, dict(initial), rng=seed,
                                   **kwargs))


@pytest.mark.parametrize("make_graph", [paper_graph, four_node_graph],
                         ids=["paper-2node", "4node"])
@pytest.mark.parametrize("seed", [0, 5, 99])
def test_run_identical_across_modes(make_graph, seed):
    graph = make_graph()
    fast, slow = twins(graph, seed)
    # Whole trajectories, segment by segment: any divergence in the
    # draws or the proposal resolution surfaces as a different colouring.
    for steps in (17, 63, 64, 192, 0, 17, 500):
        assert fast.run(steps) == slow.run(steps)
    assert fast._rng.bit_generator.state == slow._rng.bit_generator.state


@pytest.mark.parametrize("seed", [0, 5])
def test_run_chunking_changes_stream_but_modes_stay_locked(seed):
    # Each run draws its own randomness block (node picks, then
    # positions), so run(300) and 30x run(10) are different — equally
    # valid — trajectories; for any chunking, one run_many call must
    # pass through the colourings the twin reaches run by run.
    graph = four_node_graph()
    for chunks in ([300], [10] * 30, [1] * 10 + [145, 145], [0, 3, 0, 0]):
        fast, slow = twins(graph, seed)
        rows = fast.run_many(chunks)
        assert rows.shape == (len(chunks), graph.k)
        for row, chunk in zip(rows, chunks):
            want = slow.run(chunk)
            assert {v: int(row[v]) for v in range(graph.k)} == want
        assert fast.state == slow.state
        assert (fast._rng.bit_generator.state
                == slow._rng.bit_generator.state)


def test_run_keeps_coloring_valid_in_both_modes():
    graph = four_node_graph()
    initial = graph.find_valid_coloring()
    for cls in (ColoringChain, ReferenceColoringChain):
        chain = cls(graph, dict(initial), rng=3)
        for _ in range(20):
            chain.run(25)
            assert graph.is_valid(chain.state)


def test_empty_graph_fires_one_site_per_transition():
    graph = ColoringGraph(CombinedSynopsis(3, 0.0, 1.0))
    chain = ColoringChain(graph, {}, rng=0)
    plan = FaultPlan({"coloring.step": []})
    with inject(plan):
        rows = chain.run_many([4, 0, 3])
    assert rows.shape == (3, 0)
    assert plan.hit_count("coloring.step") == 7


@pytest.mark.parametrize("seed", [1, 8])
def test_fault_site_hits_match_reference(seed):
    syn = four_node_graph().synopsis
    hits = []
    for cls in (PosteriorSampler, ReferencePosteriorSampler):
        plan = FaultPlan({"coloring.step": []})
        with inject(plan):
            cls(syn, rng=seed).estimate_interval_probabilities(
                30, np.linspace(0.0, 1.0, 5))
        hits.append(plan.hit_count("coloring.step"))
    assert hits[0] == hits[1] > 0


@pytest.mark.parametrize("cap", [1, 37, 64, 65, 400])
def test_step_cap_raises_at_the_same_step(cap):
    syn = four_node_graph().synopsis
    outcomes = []
    for cls in (PosteriorSampler, ReferencePosteriorSampler):
        scope = Budget(max_chain_steps=cap).start()
        plan = FaultPlan({"coloring.step": []})
        with inject(plan):
            with pytest.raises(ResourceExhaustedError) as err:
                sampler = cls(syn, rng=4, burn_in=64, thin=8,
                              checkpoint=scope.checkpoint)
                sampler.estimate_interval_probabilities(
                    100, np.linspace(0.0, 1.0, 5))
        outcomes.append((scope.steps, plan.hit_count("coloring.step"),
                         str(err.value)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == cap + 1


@st.composite
def combined_synopses(draw):
    """A combined synopsis built from true max/min answers over a random
    duplicate-free dataset, and that dataset (a valid chain start)."""
    n = draw(st.integers(min_value=3, max_value=14))
    low, high = draw(st.sampled_from([(0.0, 1.0), (1.0, 1_000_000.0)]))
    gen = np.random.default_rng(draw(st.integers(0, 2**31)))
    values = [float(v) for v in gen.choice(
        np.linspace(low, high, 4 * n + 1)[1:-1], size=n, replace=False)]
    syn = CombinedSynopsis(n, low, high)
    answers = {MAX: set(), MIN: set()}
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        members = [int(i) for i in gen.choice(
            n, size=int(gen.integers(2, n + 1)), replace=False)]
        kind, other = (MAX, MIN) if gen.random() < 0.5 else (MIN, MAX)
        answer = (max if kind is MAX else min)(values[i] for i in members)
        if answer in answers[other]:
            # A max and a min sharing their witness split into two
            # singleton nodes on one element: no valid colouring.
            continue
        answers[kind].add(answer)
        syn.insert(kind, set(members), answer)
    return syn, values


@given(combined_synopses(),
       st.integers(0, 2**31),
       st.integers(min_value=0, max_value=40),
       st.sampled_from([None, 1, 3]),
       st.integers(min_value=1, max_value=6))
@settings(max_examples=60, deadline=None)
def test_interval_probabilities_match_reference_bitwise(
        case, seed, count, thin, gamma):
    syn, values = case
    edges = np.linspace(syn.low, syn.high, gamma + 1)
    fast = PosteriorSampler(syn, initial_dataset=values, rng=seed, thin=thin)
    slow = ReferencePosteriorSampler(syn, initial_dataset=values, rng=seed,
                                     thin=thin)
    for _ in range(2):  # burn-in pass, then a warmed pass
        got = fast.estimate_interval_probabilities(count, edges)
        want = slow.estimate_interval_probabilities(count, edges)
        assert got.tobytes() == want.tobytes()
    assert fast.chain.state == slow.chain.state
    assert fast.sample_dataset() == slow.sample_dataset()

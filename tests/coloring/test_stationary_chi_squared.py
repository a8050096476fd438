"""Chi-squared goodness-of-fit for the batched chain's stationary law.

A 4-node colouring graph (two max, two min predicates over 8 elements)
has exactly 47 valid colourings whose single-site flip graph is
connected, so the chain is irreducible and detailed balance pins the
stationary distribution to ``P~(c) ∝ Π_v ℓ_{c(v)}``.  Empirical
visit frequencies of the fused :meth:`run_many` kernel are compared
against the exact enumeration with a chi-squared statistic; the critical
value is hardcoded (no scipy in the image).
"""

import math
from collections import Counter

from repro.coloring.chain import ColoringChain
from repro.coloring.graph import ColoringGraph, enumerate_colorings
from repro.synopsis.combined import CombinedSynopsis
from repro.types import AggregateKind

MAX = AggregateKind.MAX
MIN = AggregateKind.MIN

# chi-squared upper critical values at alpha = 0.001
CHI2_CRIT_DF46_A_001 = 81.40


def four_node_graph():
    syn = CombinedSynopsis(8, 0.0, 1.0)
    syn.insert(MAX, {0, 1, 2}, 1.0)
    syn.insert(MAX, {3, 4, 5}, 0.9)
    syn.insert(MIN, {0, 3, 6}, 0.1)
    syn.insert(MIN, {1, 4, 7}, 0.2)
    return ColoringGraph(syn)


def exact_distribution(graph):
    colorings = list(enumerate_colorings(graph))
    weights = [math.exp(graph.log_weight(c)) for c in colorings]
    total = sum(weights)
    return {tuple(sorted(c.items())): w / total
            for c, w in zip(colorings, weights)}


def test_flip_graph_is_connected_so_the_chain_is_irreducible():
    graph = four_node_graph()
    colorings = list(enumerate_colorings(graph))
    assert len(colorings) == 47
    adjacency = {i: [] for i in range(len(colorings))}
    for i, a in enumerate(colorings):
        for j in range(i + 1, len(colorings)):
            b = colorings[j]
            if sum(a[v] != b[v] for v in a) == 1:
                adjacency[i].append(j)
                adjacency[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for y in adjacency[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    assert len(seen) == len(colorings)


def test_vectorized_chain_stationary_frequencies_chi_squared():
    graph = four_node_graph()
    exact = exact_distribution(graph)
    assert len(exact) == 47  # keeps the hardcoded df=46 critical honest
    chain = ColoringChain(graph, graph.find_valid_coloring(), rng=5)
    draws = 40_000
    # A 2000-step burn-in, then one row per 7-step thinned draw.
    rows = chain.run_many([2000] + [7] * draws)[1:]
    counts = Counter(tuple(enumerate(row)) for row in rows.tolist())
    chi2 = sum((counts.get(key, 0) - draws * p) ** 2 / (draws * p)
               for key, p in exact.items())
    # Observed ~42 at this seed; thinned draws are mildly correlated, so
    # the i.i.d. critical value is a conservative sanity band, not an
    # exact test level.
    assert chi2 < CHI2_CRIT_DF46_A_001
    # Every colouring should actually be visited at these sample sizes
    # (expected counts are all > 600).
    assert len(counts) == 47

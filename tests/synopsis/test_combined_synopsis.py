"""Unit tests for the combined synopsis and its cross-side propagation."""

import math

import pytest

from repro.exceptions import InconsistentAnswersError
from repro.synopsis.combined import CombinedSynopsis
from repro.types import AggregateKind

MAX = AggregateKind.MAX
MIN = AggregateKind.MIN


def test_paper_section32_example_state():
    # [max{a,b,c} = 1], [min{a,b} = 0.2]: a,b in [0.2, 1], c in [0, 1].
    syn = CombinedSynopsis(3, 0.0, 1.0)
    syn.insert(MAX, {0, 1, 2}, 1.0)
    syn.insert(MIN, {0, 1}, 0.2)
    assert syn.range_of(0).lo == 0.2 and syn.range_of(0).hi == 1.0
    assert syn.range_of(2).lo == 0.0 and syn.range_of(2).hi == 1.0
    assert syn.determined == {}


def test_same_value_rule_pins_common_element():
    # max{a,b} = 0.5 and min{b,c} = 0.5  =>  b = 0.5 exactly.
    syn = CombinedSynopsis(3, 0.0, 1.0)
    syn.insert(MAX, {0, 1}, 0.5)
    syn.insert(MIN, {1, 2}, 0.5)
    assert syn.determined == {1: 0.5}
    # a < 0.5 strictly, c > 0.5 strictly.
    assert syn.range_of(0).hi == 0.5 and not syn.range_of(0).hi_closed
    assert syn.range_of(2).lo == 0.5 and not syn.range_of(2).lo_closed


def test_bulk_ranges_equal_per_element_ranges():
    # Determined, strict-bounded, equality-bounded and free elements.
    syn = CombinedSynopsis(6, 0.0, 1.0)
    syn.insert(MAX, {0, 1}, 0.5)
    syn.insert(MIN, {1, 2}, 0.5)
    syn.insert(MAX, {3, 4}, 0.9)
    syn.insert(MIN, {3, 4}, 0.1)
    assert syn.determined
    assert syn.ranges() == [syn.range_of(i) for i in range(syn.n)]


def test_same_value_disjoint_sets_inconsistent():
    syn = CombinedSynopsis(4, 0.0, 1.0)
    syn.insert(MAX, {0, 1}, 0.5)
    with pytest.raises(InconsistentAnswersError):
        syn.insert(MIN, {2, 3}, 0.5)


def test_same_value_two_common_elements_inconsistent():
    syn = CombinedSynopsis(3, 0.0, 1.0)
    syn.insert(MAX, {0, 1}, 0.5)
    with pytest.raises(InconsistentAnswersError):
        syn.insert(MIN, {0, 1}, 0.5)


def test_trickle_determined_element_leaves_other_predicates():
    # max{a,b} = 5; min{a} = 3 pins a = 3; then b must be 5.
    syn = CombinedSynopsis(2, low=-math.inf, high=math.inf)
    syn.insert(MAX, {0, 1}, 5.0)
    syn.insert(MIN, {0}, 3.0)
    assert syn.determined == {0: 3.0, 1: 5.0}


def test_crossing_bounds_inconsistent():
    syn = CombinedSynopsis(3, 0.0, 1.0)
    syn.insert(MIN, {0, 1}, 0.6)      # x0, x1 >= 0.6
    with pytest.raises(InconsistentAnswersError):
        syn.insert(MAX, {0, 1}, 0.3)  # x0, x1 <= 0.3


def test_min_bound_narrows_max_witness_pool():
    # x0 >= 0.6 (min pred); max{x0, x1} = 0.5 forces witness x1 -> both pinned
    # ... actually x0 <= 0.5 contradicts x0 >= 0.6: inconsistent.
    syn = CombinedSynopsis(3, 0.0, 1.0)
    syn.insert(MIN, {0, 2}, 0.6)
    with pytest.raises(InconsistentAnswersError):
        syn.insert(MAX, {0, 1}, 0.5)


def test_forced_witness_via_degenerate_interval():
    # min{a,b} = 0.4; then max{a,c} = 0.4 => a is the only element of the max
    # query that can reach 0.4 ... via the same-value rule a = 0.4.
    syn = CombinedSynopsis(3, 0.0, 1.0)
    syn.insert(MIN, {0, 1}, 0.4)
    syn.insert(MAX, {0, 2}, 0.4)
    assert syn.determined == {0: 0.4}


def test_transactionality_on_failure():
    syn = CombinedSynopsis(3, 0.0, 1.0)
    syn.insert(MAX, {0, 1, 2}, 0.8)
    before = {repr(p) for p in syn.predicates()}
    with pytest.raises(InconsistentAnswersError):
        syn.insert(MIN, {0, 1, 2}, 0.9)  # min above max
    assert {repr(p) for p in syn.predicates()} == before


def test_what_if_does_not_mutate():
    syn = CombinedSynopsis(3, 0.0, 1.0)
    syn.insert(MAX, {0, 1, 2}, 0.8)
    trial = syn.what_if(MAX, {0, 1}, 0.5)
    assert trial.determined == {2: 0.8}
    assert syn.determined == {}


def test_is_consistent_checks():
    syn = CombinedSynopsis(3, 0.0, 1.0)
    syn.insert(MAX, {0, 1, 2}, 0.8)
    assert syn.is_consistent(MIN, {0, 1}, 0.2)
    assert not syn.is_consistent(MIN, {0, 1}, 0.9)


def test_rejects_non_extreme_aggregates():
    syn = CombinedSynopsis(2, 0.0, 1.0)
    with pytest.raises(Exception):
        syn.insert(AggregateKind.SUM, {0, 1}, 1.0)


def test_infinite_domain_supported():
    syn = CombinedSynopsis(2, low=-math.inf, high=math.inf)
    syn.insert(MAX, {0, 1}, 100.0)
    syn.insert(MIN, {0, 1}, -5.0)
    r = syn.range_of(0)
    assert r.lo == -5.0 and r.hi == 100.0


def test_paper_duplicates_example_is_out_of_scope():
    # Paper §4's open-problem example NEEDS duplicates: max{a,b} = 9 and
    # max{c,d} = 9 over disjoint sets.  Under the no-duplicates assumption
    # this pair of answers is itself inconsistent (two elements would both
    # equal 9), so the synopsis rejects it rather than reasoning about the
    # inferred query set max{a,c} -- exactly the boundary the paper draws.
    syn = CombinedSynopsis(4, low=0.0, high=10.0)
    syn.insert(MAX, {0, 1}, 9.0)
    with pytest.raises(InconsistentAnswersError):
        syn.insert(MAX, {2, 3}, 9.0)

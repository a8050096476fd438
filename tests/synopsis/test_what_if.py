"""Differential tests: the what-if planner vs ``copy()+insert()``.

``ExtremeSynopsis.what_if_plan`` answers "what would inserting ``(Q, a)``
do?" without copying the synopsis.  For every candidate answer it must
agree with a real insert on a copy: the same consistency verdict, the same
set of dropped or shrunk predicates, and the same multiset of new
``(value, size, equality)`` rows.  The probabilistic max auditor's
decisions rest on this agreement.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InconsistentAnswersError, InvalidQueryError
from repro.synopsis.extreme_synopsis import ExtremeSynopsis, MaxSynopsis


def inserted(synopsis, query, answer):
    """What a real insert on a copy does: ``None`` if inconsistent, else
    (touched pids, Counter of new rows)."""
    before = {pid: frozenset(p.elements) for pid, p in synopsis.items()}
    trial = synopsis.copy()
    try:
        trial.insert(query, answer)
    except InconsistentAnswersError:
        return None
    after = dict(trial.items())
    touched = sorted(pid for pid, members in before.items()
                     if pid not in after
                     or frozenset(after[pid].elements) != members)
    rows = Counter((p.value, p.size, p.equality)
                   for pid, p in after.items()
                   if before.get(pid) != frozenset(p.elements))
    return touched, rows


def planned(synopsis, query, answer):
    outcome = synopsis.what_if_plan(query).outcome(answer)
    if outcome is None:
        return None
    touched, rows = outcome
    return sorted(touched), Counter(rows)


def assert_agrees(synopsis, query, answer):
    expected = inserted(synopsis, query, answer)
    assert planned(synopsis, query, answer) == expected
    return expected


def base_synopsis():
    # [max{0,1,2} = 0.9], [max{3,4} < 0.9], [max{5,6,7} = 0.6]; 8, 9 free.
    syn = MaxSynopsis(10, limit=1.0)
    syn.insert({0, 1, 2, 3, 4}, 0.9)
    syn.insert({0, 1, 2}, 0.9)       # same-value split: 3,4 fall below
    syn.insert({5, 6, 7}, 0.6)
    return syn


def test_same_value_equality_split():
    syn = MaxSynopsis(6, limit=1.0)
    syn.insert({0, 1, 2}, 0.8)
    touched, rows = assert_agrees(syn, {0, 1, 4}, 0.8)
    assert rows == Counter({(0.8, 2, True): 1, (0.8, 2, False): 1})
    assert len(touched) == 1


def test_same_value_disjoint_query_is_inconsistent():
    syn = MaxSynopsis(6, limit=1.0)
    syn.insert({0, 1, 2}, 0.8)
    assert assert_agrees(syn, {3, 4}, 0.8) is None


def test_strip_leaves_a_remainder():
    syn = base_synopsis()
    # 0.5 lies below the 0.6 equality predicate: 5 is stripped, 6,7 stay.
    _, rows = assert_agrees(syn, {5, 8}, 0.5)
    assert rows[(0.6, 2, True)] == 1
    assert rows[(0.5, 2, True)] == 1


def test_strip_drops_a_strict_predicate():
    syn = base_synopsis()
    strict = [pid for pid, p in syn.items() if not p.equality]
    touched, rows = assert_agrees(syn, {3, 4, 9}, 0.65)
    assert set(strict) <= set(touched)
    assert rows == Counter({(0.65, 3, True): 1})


def test_answer_beyond_limit_is_inconsistent():
    syn = base_synopsis()
    assert assert_agrees(syn, {8, 9}, 1.5) is None


def test_equality_predicate_entirely_beyond_is_inconsistent():
    syn = base_synopsis()
    # The 0.6 witness sits inside {5,6,7}; an answer 0.4 for a superset
    # would need every member below 0.4.
    assert assert_agrees(syn, {5, 6, 7, 8}, 0.4) is None


def test_empty_witness_pool_is_inconsistent():
    syn = base_synopsis()
    # {3,4} are strictly below 0.9: neither can attain 0.95.
    assert assert_agrees(syn, {3, 4}, 0.95) is None


def test_plan_does_not_mutate_and_validates_queries():
    syn = base_synopsis()
    snapshot = [(pid, frozenset(p.elements)) for pid, p in syn.items()]
    plan = syn.what_if_plan({0, 8})
    for answer in (0.1, 0.6, 0.9, 0.95):
        plan.outcome(answer)
    assert [(pid, frozenset(p.elements)) for pid, p in syn.items()] \
        == snapshot
    with pytest.raises(InvalidQueryError):
        syn.what_if_plan(set())
    with pytest.raises(InvalidQueryError):
        syn.what_if_plan({10})


@st.composite
def what_if_cases(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    direction = draw(st.sampled_from([+1, -1]))
    seed = draw(st.integers(min_value=0, max_value=100_000))
    rng = np.random.default_rng(seed)
    values = rng.permutation(np.linspace(0.05, 0.95, n)).tolist()
    syn = ExtremeSynopsis(n, direction=direction,
                          limit=1.0 if direction > 0 else 0.0)
    agg = max if direction > 0 else min
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        size = int(rng.integers(1, n + 1))
        members = {int(i) for i in rng.choice(n, size=size, replace=False)}
        syn.insert(members, agg(values[i] for i in members))
    size = int(rng.integers(1, n + 1))
    query = {int(i) for i in rng.choice(n, size=size, replace=False)}
    # Candidate answers that reach every branch: existing predicate
    # values (same-value split), points just around and between them
    # (strips), the data values, and answers at and beyond the limit.
    known = sorted({p.value for p in syn.predicates()} | set(values))
    candidates = set(known) | {0.0, 1.0, 1.5, -0.5}
    candidates |= {(x + y) / 2 for x, y in zip(known, known[1:])}
    candidates |= {float(np.nextafter(v, 2.0)) for v in known}
    candidates |= {float(np.nextafter(v, -1.0)) for v in known}
    return syn, query, sorted(candidates)


@given(what_if_cases())
@settings(max_examples=200, deadline=None)
def test_planner_matches_copy_insert(case):
    syn, query, candidates = case
    plan = syn.what_if_plan(query)
    for answer in candidates:
        outcome = plan.outcome(answer)
        got = None if outcome is None else (sorted(outcome[0]),
                                            Counter(outcome[1]))
        assert got == inserted(syn, query, answer), answer

"""Differential replay: 200-query workloads vs committed goldens.

Three-way bitwise agreement per probabilistic auditor: the vectorized
serving path, the scalar reference path (same pre-drawn randomness,
original per-step operations; for max and max-min the
``ReferenceMaxProbabilisticAuditor`` and
``ReferenceMaxMinProbabilisticAuditor`` twins), and the golden decision
sequence under ``tests/golden/`` must produce float-for-float identical
deny/answer streams.  A mismatch means a kernel change silently altered a released
decision — exactly the regression this suite exists to catch.
"""

import pytest

from tests.golden.workloads import (
    NUM_QUERIES,
    WORKLOADS,
    load_golden,
    run_workload,
)

NAMES = sorted(WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_vectorized_matches_golden(name):
    decisions = run_workload(name, vectorized=True)
    golden = load_golden(name)
    assert len(golden) == NUM_QUERIES
    assert decisions == golden


@pytest.mark.parametrize("name", NAMES)
def test_reference_matches_golden(name):
    # The scalar reference path releases the *same bits* — vectorization
    # is pure mechanism, invisible in the decision stream.
    assert run_workload(name, vectorized=False) == load_golden(name)


@pytest.mark.parametrize("name", NAMES)
def test_goldens_exercise_both_outcomes(name):
    golden = load_golden(name)
    denied = sum(1 for d in golden if d["denied"])
    assert 0 < denied < len(golden)  # a trivial all-deny golden locks nothing


@pytest.mark.parametrize("name", NAMES)
def test_answered_values_are_bitwise_hex(name):
    for record in load_golden(name):
        if not record["denied"]:
            assert record["value_hex"] == float.fromhex(
                record["value_hex"]).hex()

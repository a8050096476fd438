"""The row-wise Algorithm 1 kernel vs its one-predicate reference, bitwise.

``max_rows_bucket_probabilities`` + ``rows_within_band`` judge many
``(value, size, equality)`` predicate rows at once; the probabilistic max
auditor's decisions depend on them agreeing bit for bit, row by row, with
``max_predicate_bucket_probabilities`` + ``ratios_within_band`` — including
rows whose ratios sit exactly on the edges of the lambda band.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import PrivacyParameterError
from repro.privacy.compromise import ratios_within_band, rows_within_band
from repro.privacy.intervals import IntervalGrid
from repro.privacy.posterior import (
    max_predicate_bucket_probabilities,
    max_rows_bucket_probabilities,
    uniform_prior,
)
from repro.synopsis.predicates import SynopsisPredicate


def reference(grid, values, sizes, equality):
    return np.vstack([
        max_predicate_bucket_probabilities(
            grid, SynopsisPredicate(set(range(size)), value, eq))
        for value, size, eq in zip(values, sizes, equality)
    ])


def assert_bitwise(a, b):
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@st.composite
def row_batches(draw):
    gamma = draw(st.integers(min_value=1, max_value=12))
    low = draw(st.sampled_from([0.0, -3.0, 10.0]))
    high = low + draw(st.sampled_from([1.0, 0.7, 250.0]))
    grid = IntervalGrid(gamma, low, high)
    rng = np.random.default_rng(draw(st.integers(0, 100_000)))
    count = draw(st.integers(min_value=1, max_value=40))
    # Interior values, bucket edges exactly, one ulp either side of them,
    # and values just above the bottom of the range.
    edges = [float(e) for e in grid.edges[1:]]
    pool = (edges
            + [float(np.nextafter(e, high + 1)) for e in edges[:-1]]
            + [float(np.nextafter(e, low)) for e in edges]
            + [low + (high - low) / 2.0 ** 20])
    values = [float(rng.choice(pool)) if rng.random() < 0.5
              else float(low + (high - low) * (1.0 - rng.random()))
              for _ in range(count)]
    sizes = [int(s) for s in rng.integers(1, 60, size=count)]
    equality = [bool(e) for e in rng.integers(0, 2, size=count)]
    return grid, values, sizes, equality


@given(row_batches(), st.sampled_from([0.05, 0.2, 0.3, 0.5, 0.9]))
@settings(max_examples=150, deadline=None)
def test_kernel_matches_reference_row_by_row(batch, lam):
    grid, values, sizes, equality = batch
    got = max_rows_bucket_probabilities(grid, values, sizes, equality)
    want = reference(grid, values, sizes, equality)
    assert_bitwise(got, want)
    prior = uniform_prior(grid)
    verdicts = rows_within_band(got, prior, lam)
    assert verdicts.tolist() == [ratios_within_band(row, prior, lam)
                                 for row in want]


def test_band_edge_rows_agree():
    # An equality predicate at the top of the range with |S| = s has
    # full-bucket ratio 1 - 1/s: lambda = 1/s puts it exactly on the
    # lower band edge.  Lambdas nudged across each row's extreme ratios
    # land on both sides of the tolerance boundary.
    grid = IntervalGrid(4)
    prior = uniform_prior(grid)
    values, sizes, equality = [], [], []
    for s in (2, 3, 4, 5, 8, 10, 20):
        values += [1.0, 0.75, 0.5]
        sizes += [s] * 3
        equality += [True, True, False]
    posterior = max_rows_bucket_probabilities(grid, values, sizes, equality)
    assert_bitwise(posterior, reference(grid, values, sizes, equality))
    ratios = posterior / prior
    lams = {1.0 / s for s in sizes}
    for r in ratios[ratios > 0.0].ravel():
        if r < 1.0:
            edge = 1.0 - (r - 1e-12)        # lo - tol == r
        elif r > 1.0:
            edge = 1.0 - 1.0 / (r - 1e-12)  # hi + tol == r
        else:
            continue
        for lam in (edge, float(np.nextafter(edge, 0.0)),
                    float(np.nextafter(edge, 1.0))):
            if 0.0 < lam < 1.0:
                lams.add(lam)
    outcomes = set()
    for lam in sorted(lams):
        verdicts = rows_within_band(posterior, prior, lam)
        assert verdicts.tolist() == [ratios_within_band(row, prior, lam)
                                     for row in posterior]
        outcomes.update(verdicts.tolist())
    assert outcomes == {True, False}


def test_out_of_range_value_raises_like_the_reference():
    grid = IntervalGrid(4)
    for bad in (0.0, -0.1, 1.0000001):
        with pytest.raises(PrivacyParameterError):
            max_rows_bucket_probabilities(grid, [0.5, bad], [3, 3],
                                          [True, False])
        with pytest.raises(PrivacyParameterError):
            reference(grid, [bad], [3], [True])



#: Ranges on which the smallest double above ``low`` scales to 0 in
#: grid units, so no density lies below it.
UNDERFLOW_RANGES = [(0.0, 250.0), (0.0, 1_000_000.0)]


@pytest.mark.parametrize("low, high", UNDERFLOW_RANGES)
def test_denormal_step_above_low_raises_in_one_predicate_kernel(low, high):
    grid = IntervalGrid(4, low, high)
    tiny = float(np.nextafter(low, high))
    assert (tiny - low) / (high - low) * grid.gamma == 0.0
    for equality in (True, False):
        with pytest.raises(PrivacyParameterError):
            reference(grid, [tiny], [3], [equality])


@pytest.mark.parametrize("low, high", UNDERFLOW_RANGES)
def test_denormal_step_above_low_raises_in_row_kernel(low, high):
    grid = IntervalGrid(4, low, high)
    tiny = float(np.nextafter(low, high))
    with pytest.raises(PrivacyParameterError):
        max_rows_bucket_probabilities(grid, [0.5 * high, tiny], [3, 3],
                                      [True, False])

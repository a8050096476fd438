"""Closed-form posterior bucket probabilities for max predicates (§3.1).

For data drawn uniformly (duplicate-free) from ``[0, 1]^n``, the posterior of
an element given the max synopsis ``B_max`` depends only on the single
predicate containing it (each element occurs in at most one predicate):

* ``x in S`` with ``[max(S) = M]`` — uniform on ``[0, M)`` with probability
  ``1 - 1/|S|``, plus a point mass ``1/|S|`` at ``M``;
* ``x in S`` with ``[max(S) < M]`` — uniform on ``[0, M)``;
* free — uniform on ``[0, 1]``.

These are the quantities Algorithm 1 compares against the prior ``1/gamma``.
The formulas generalise to any range ``[low, high]`` by rescaling; this
module works on the grid's own range.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..exceptions import PrivacyParameterError
from ..synopsis.predicates import SynopsisPredicate
from .intervals import IntervalGrid


#: A value so close above ``grid.low`` that its position in grid units
#: underflows to 0 has no density to spread below it.
_UNDERFLOW = "predicate value underflows to the bottom of the grid range"


def uniform_prior(grid: IntervalGrid) -> np.ndarray:
    """Prior bucket probabilities (uniform data): ``1/gamma`` each."""
    return np.full(grid.gamma, grid.prior)


def max_predicate_bucket_probabilities(
    grid: IntervalGrid,
    predicate: Optional[SynopsisPredicate],
) -> np.ndarray:
    """Posterior ``Pr{x in I_j | B_max}`` for an element of ``predicate``.

    ``predicate=None`` means the element is free (posterior = prior).
    Returns a length-``gamma`` vector (1-based bucket ``j`` at index
    ``j - 1``).
    """
    gamma = grid.gamma
    if predicate is None:
        return uniform_prior(grid)
    if not predicate.is_max:
        raise PrivacyParameterError("expected a max-direction predicate")
    m_val = predicate.value
    if not grid.low < m_val <= grid.high:
        raise PrivacyParameterError(
            f"predicate value {m_val} outside ({grid.low}, {grid.high}]"
        )
    # Work in grid units: scaled position of M in (0, gamma].
    scaled = (m_val - grid.low) / (grid.high - grid.low) * gamma
    if not scaled > 0.0:
        raise PrivacyParameterError(_UNDERFLOW)
    t = grid.containing(m_val)  # 1-based containing bucket, ceil(M * gamma)
    probs = np.zeros(gamma)
    point_mass = 1.0 / predicate.size if predicate.equality else 0.0
    density_mass = 1.0 - point_mass  # mass spread uniformly over [low, M)
    y = density_mass / scaled  # mass per full bucket left of M
    if t > 1:
        probs[: t - 1] = y
    # Containing bucket: partial uniform part plus the point mass at M.
    probs[t - 1] = y * (scaled - t + 1) + point_mass
    return probs


def max_rows_bucket_probabilities(grid: IntervalGrid, values, sizes,
                                  equality) -> np.ndarray:
    """:func:`max_predicate_bucket_probabilities` for many predicates.

    Row ``r`` of the ``(R, gamma)`` result is the posterior of a max
    predicate with value ``values[r]``, ``sizes[r]`` members and form
    ``equality[r]``.  Every cell is computed with the same float
    operations in the same order as the one-predicate version, so the
    two agree bitwise.
    """
    values = np.asarray(values, dtype=float)
    if not np.all((grid.low < values) & (values <= grid.high)):
        raise PrivacyParameterError(
            f"predicate value outside ({grid.low}, {grid.high}]"
        )
    gamma = grid.gamma
    scaled = (values - grid.low) / (grid.high - grid.low) * gamma
    if not np.all(scaled > 0.0):
        raise PrivacyParameterError(_UNDERFLOW)
    t = np.minimum(np.maximum(np.ceil(scaled), 1), gamma).astype(np.intp)
    point_mass = np.where(equality, 1.0 / np.asarray(sizes), 0.0)
    y = (1.0 - point_mass) / scaled
    probs = np.where(np.arange(1, gamma + 1) < t[:, None], y[:, None], 0.0)
    probs[np.arange(len(values)), t - 1] = y * (scaled - t + 1) + point_mass
    return probs


def general_prior(grid: IntervalGrid, distribution) -> np.ndarray:
    """Prior bucket probabilities under an arbitrary data distribution."""
    return np.array([
        distribution.interval_probability(float(grid.edges[j]),
                                          float(grid.edges[j + 1]))
        for j in range(grid.gamma)
    ])


def max_predicate_bucket_probabilities_general(
    grid: IntervalGrid,
    predicate: Optional[SynopsisPredicate],
    distribution,
) -> np.ndarray:
    """Posterior bucket probabilities under a general i.i.d. distribution.

    The paper's §3.1 closed form extends verbatim: by exchangeability the
    witness of ``[max(S) = M]`` is uniform over ``S`` (point mass ``1/|S|``
    at ``M``), and non-witnesses follow the distribution truncated below
    ``M``.  With the uniform distribution this coincides with
    :func:`max_predicate_bucket_probabilities` (property-tested).
    """
    if predicate is None:
        return general_prior(grid, distribution)
    if not predicate.is_max:
        raise PrivacyParameterError("expected a max-direction predicate")
    return max_row_bucket_probabilities_general(
        grid, predicate.value, predicate.size, predicate.equality,
        distribution,
    )


def max_row_bucket_probabilities_general(grid: IntervalGrid, m_val: float,
                                         size: int, equality: bool,
                                         distribution) -> np.ndarray:
    """General-distribution posterior of a max predicate given as a
    ``(value, size, equality)`` row."""
    if not grid.low < m_val <= grid.high:
        raise PrivacyParameterError(
            f"predicate value {m_val} outside ({grid.low}, {grid.high}]"
        )
    point_mass = 1.0 / size if equality else 0.0
    density_mass = 1.0 - point_mass
    probs = np.array([
        density_mass * distribution.truncated_interval_probability(
            float(grid.edges[j]), float(grid.edges[j + 1]), m_val
        )
        for j in range(grid.gamma)
    ])
    probs[grid.containing(m_val) - 1] += point_mass
    return probs


def max_synopsis_posterior_matrix(grid: IntervalGrid, synopsis) -> np.ndarray:
    """Posterior bucket probabilities for every element (``n x gamma``).

    ``synopsis`` is a max-direction
    :class:`~repro.synopsis.extreme_synopsis.ExtremeSynopsis`.
    """
    rows = []
    for i in range(synopsis.n):
        pred = synopsis.predicate_of(i)
        rows.append(max_predicate_bucket_probabilities(grid, pred))
    return np.vstack(rows)

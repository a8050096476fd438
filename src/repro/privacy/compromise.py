"""Compromise predicates (paper, Section 2.2).

Partial disclosure is judged by the ratio of posterior to prior bucket
probabilities: the answers are *safe* (``S_lambda = 1``) when, for every
element ``i`` and bucket ``I``::

    1 - lambda <= Pr{x_i in I | answers} / Pr{x_i in I} <= 1 / (1 - lambda)

This module provides the band arithmetic shared by all probabilistic
auditors; classical (full-disclosure) compromise is structural and detected
by each auditor's own machinery.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..exceptions import PrivacyParameterError


def ratio_band(lam: float) -> Tuple[float, float]:
    """The allowed posterior/prior ratio band ``[1-lambda, 1/(1-lambda)]``."""
    if not 0.0 < lam < 1.0:
        raise PrivacyParameterError("lambda must lie strictly in (0, 1)")
    return 1.0 - lam, 1.0 / (1.0 - lam)


def ratios_within_band(posterior: np.ndarray, prior: np.ndarray,
                       lam: float, tol: float = 1e-12) -> bool:
    """Whether every posterior/prior ratio lies inside the band.

    ``posterior`` is ``(n, gamma)`` or ``(gamma,)``; ``prior`` broadcasts
    against it.  A tiny ``tol`` absorbs floating-point noise at the band
    edges (exact-arithmetic answers sit exactly on them).
    """
    lo, hi = ratio_band(lam)
    ratios = np.asarray(posterior, dtype=float) / np.asarray(prior, dtype=float)
    return bool(np.all(ratios >= lo - tol) and np.all(ratios <= hi + tol))


def rows_within_band(posterior: np.ndarray, prior: np.ndarray,
                     lam: float, tol: float = 1e-12) -> np.ndarray:
    """:func:`ratios_within_band` per row of an ``(R, gamma)`` posterior.

    Returns an ``(R,)`` boolean array; row ``r`` is True exactly when
    ``ratios_within_band(posterior[r], prior, lam, tol)`` is.
    """
    lo, hi = ratio_band(lam)
    ratios = np.asarray(posterior, dtype=float) / np.asarray(prior, dtype=float)
    return np.all(ratios >= lo - tol, axis=-1) & \
        np.all(ratios <= hi + tol, axis=-1)


def s_lambda(posterior: np.ndarray, prior: np.ndarray, lam: float) -> int:
    """The paper's ``S_lambda`` indicator: 1 when all ratios are in band."""
    return 1 if ratios_within_band(posterior, prior, lam) else 0


def offending_cells(posterior: np.ndarray, prior: np.ndarray,
                    lam: float, tol: float = 1e-12) -> np.ndarray:
    """Boolean mask of (element, bucket) cells violating the band.

    Useful for diagnostics and for attackers that target the weakest cell.
    """
    lo, hi = ratio_band(lam)
    ratios = np.asarray(posterior, dtype=float) / np.asarray(prior, dtype=float)
    return (ratios < lo - tol) | (ratios > hi + tol)


def band_margin(posterior: np.ndarray, prior: np.ndarray) -> float:
    """How far the worst posterior/prior ratio strays from 1, in log space.

    ``max |log(posterior / prior)|`` over all cells, with a zeroed
    posterior bucket counting as infinitely disclosive (``inf``).  The
    adversarial workload search uses this as its fitness signal: a larger
    margin means the answered history pushed some ratio closer to (or
    past) the edge of the ``lambda`` band, even when no breach occurred.
    """
    ratios = np.asarray(posterior, dtype=float) / np.asarray(prior, dtype=float)
    if np.any(ratios <= 0.0):
        return float("inf")
    return float(np.max(np.abs(np.log(ratios))))

"""Statistical kernels for scoring empirical values against null ensembles.

z-scores use the sample standard deviation (n-1 denominator); robust
z-scores use the median and the interquartile range under linear-interpolation
quantiles. Normality of an ensemble sample is judged with the Anderson-Darling
test for estimated parameters, small-sample corrected, with the standard
piecewise p-value approximation. Its normal CDF is ``scipy.special.ndtr``,
the function ``scipy.stats.norm.cdf`` evaluates, so the slow-to-import
``scipy.stats`` stays out of the process. ``score_ensemble`` applies all
three to every (row, column) cell of a table, empirical against replicas,
in one pass over a cells × replicas array; category sizes and triad counts
are both scored through it. The one-cell-at-a-time scorer and its 1-D
Anderson-Darling test are references in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np
from scipy.special import ndtr

from .errors import AnalysisError

__all__ = [
    "z_score",
    "robust_z_score",
    "SignificanceCell",
    "score_ensemble",
]

ALPHA_LEVEL = 0.05
_MIN_ENSEMBLE = 8


def _standardised(value: float, centre: float, scale: float) -> float | None:
    return None if scale == 0.0 else (float(value) - centre) / scale


def z_score(value: float, samples: Sequence[float]) -> float | None:
    """(value - mean) / sample sd; None when the sd is zero."""
    arr = np.asarray(samples, dtype=float)
    return _standardised(value, float(arr.mean()), float(arr.std(ddof=1)))


def robust_z_score(value: float, samples: Sequence[float]) -> float | None:
    """(value - median) / IQR with linear-interpolation quartiles; None when IQR is zero."""
    q1, q2, q3 = np.quantile(np.asarray(samples, dtype=float), [0.25, 0.5, 0.75])
    return _standardised(value, float(q2), float(q3 - q1))


def _ad_p_value(a2c: float) -> float:
    # Piecewise approximation for the case of estimated mean and variance;
    # each piece lies in [0, 1], and an infinite or NaN statistic gives 0.
    if a2c < 0.2:
        return 1.0 - math.exp(-13.436 + 101.14 * a2c - 223.73 * a2c * a2c)
    if a2c < 0.34:
        return 1.0 - math.exp(-8.318 + 42.796 * a2c - 59.938 * a2c * a2c)
    if a2c < 0.6:
        return math.exp(0.9177 - 4.279 * a2c - 1.38 * a2c * a2c)
    if a2c <= 13.0:
        return math.exp(1.2937 - 5.709 * a2c + 0.0186 * a2c * a2c)
    return 0.0


def _anderson_darling(samples: np.ndarray, mean: np.ndarray,
                      sd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A^2 and A*^2 of each row of a (cells × n) sample array, given each
    row's mean and sd; both are infinite where the sd is zero."""
    n = samples.shape[1]
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero sd
        w = (np.sort(samples, axis=1) - mean[:, None]) / sd[:, None]
    z = np.clip(ndtr(w), 1e-300, 1.0 - 1e-16)
    weights = (2 * np.arange(1, n + 1) - 1.0) / n
    s = np.sum(weights * (np.log(z) + np.log1p(-z[:, ::-1])), axis=1)
    a2 = np.where(sd == 0.0, np.inf, -n - s)
    return a2, a2 * (1.0 + 0.75 / n + 2.25 / (n * n))


@dataclass(frozen=True)
class SignificanceCell:
    """Empirical value of one (category, feature) scored against the ensemble."""

    category: str
    feature: str
    empirical: float
    null_mean: float
    null_sd: float
    null_median: float
    null_iqr: float
    z: float | None
    robust_z: float | None
    ad_statistic: float | None
    ad_p_value: float | None
    normality: str            # "rejected" | "not_rejected"
    preferred: str            # "z" when normality holds, else "robust_z"


def score_ensemble(
    empirical: np.ndarray,
    ensemble: np.ndarray,
    rows: Sequence[str],
    columns: Sequence[str],
) -> list[SignificanceCell]:
    """Score every (row, column) of the empirical table against the replicas.

    ``empirical`` is rows × columns and ``ensemble`` replicas × rows ×
    columns. The replicas are copied into one C-contiguous float64 array of
    cells × replicas, as numpy's pairwise sums depend on memory layout, and
    every statistic runs along its rows in one pass; only the piecewise
    Anderson-Darling p-value and the records are made per cell. Cells come
    out row by row. Requires at least 8 replicas for the Anderson-Darling
    approximation; raises :class:`AnalysisError` on a value that is not
    finite in float64.
    """
    if len(ensemble) < _MIN_ENSEMBLE:
        raise AnalysisError(f"ensemble of {len(ensemble)} is below the minimum of {_MIN_ENSEMBLE}")
    ensemble = np.asarray(ensemble, dtype=float)
    finite = np.isfinite(empirical) & np.isfinite(ensemble).all(axis=0)
    if not finite.all():
        i, j = np.argwhere(~finite)[0].tolist()
        raise AnalysisError(f"cannot score {rows[i]} {columns[j]}: not finite in float64")
    samples = np.ascontiguousarray(ensemble.reshape(len(ensemble), ensemble[0].size).T)
    means, sds = samples.mean(axis=1), samples.std(axis=1, ddof=1)
    q1, medians, q3 = np.quantile(samples, [0.25, 0.5, 0.75], axis=1)
    statistics, corrected = _anderson_darling(samples, means, sds)
    per_cell = (np.asarray(empirical, dtype=float).ravel(), means, sds, medians, q3 - q1,
                statistics, corrected)
    cells = []
    for (row, column), (value, mean, sd, median, iqr, a2, a2c) in zip(
        product(rows, columns), zip(*(array.tolist() for array in per_cell))
    ):
        p = _ad_p_value(a2c)
        rejected = p < ALPHA_LEVEL
        cells.append(SignificanceCell(
            row, column, value, mean, sd, median, iqr, _standardised(value, mean, sd),
            _standardised(value, median, iqr), None if math.isinf(a2) else a2, p,
            "rejected" if rejected else "not_rejected", "robust_z" if rejected else "z",
        ))
    return cells

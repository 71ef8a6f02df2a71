"""Statistical kernels for scoring empirical values against null ensembles.

z-scores use the sample standard deviation (n-1 denominator); robust
z-scores use the median and the interquartile range under linear-interpolation
quantiles. Normality of an ensemble sample is judged with the Anderson-Darling
test for estimated parameters, small-sample corrected, with the standard
piecewise p-value approximation. Its normal CDF is ``scipy.special.ndtr``,
the function ``scipy.stats.norm.cdf`` evaluates, so the slow-to-import
``scipy.stats`` stays out of the process. ``score_ensemble`` applies all
three to every (row, column) cell of a table, empirical against replicas;
category sizes and triad counts are both scored through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import ndtr

from .errors import AnalysisError

__all__ = [
    "z_score",
    "robust_z_score",
    "AndersonDarlingResult",
    "anderson_darling_normal",
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


@dataclass(frozen=True)
class AndersonDarlingResult:
    statistic: float          # A^2 with estimated mean and sd
    corrected: float          # A*^2 = A^2 (1 + 0.75/n + 2.25/n^2)
    p_value: float
    rejected: bool            # normality rejected at the 5% level

    @property
    def verdict(self) -> str:
        return "rejected" if self.rejected else "not_rejected"


def _ad_p_value(a2c: float) -> float:
    # Piecewise approximation for the case of estimated mean and variance.
    if a2c < 0.2:
        return 1.0 - math.exp(-13.436 + 101.14 * a2c - 223.73 * a2c * a2c)
    if a2c < 0.34:
        return 1.0 - math.exp(-8.318 + 42.796 * a2c - 59.938 * a2c * a2c)
    if a2c < 0.6:
        return math.exp(0.9177 - 4.279 * a2c - 1.38 * a2c * a2c)
    if a2c <= 13.0:
        return math.exp(1.2937 - 5.709 * a2c + 0.0186 * a2c * a2c)
    return 0.0


def anderson_darling_normal(samples: Sequence[float]) -> AndersonDarlingResult:
    """Anderson-Darling normality test with mean and sd estimated from data.

    A degenerate (zero-variance) sample is reported as rejected with an
    infinite statistic: a point mass is as far from normal as it gets.
    """
    arr = np.asarray(samples, dtype=float)
    n = arr.size
    if n < 4:
        raise ValueError("Anderson-Darling needs at least 4 observations")
    sd = arr.std(ddof=1)
    if sd == 0.0:
        return AndersonDarlingResult(math.inf, math.inf, 0.0, True)
    w = (np.sort(arr) - arr.mean()) / sd
    z = ndtr(w)
    z = np.clip(z, 1e-300, 1.0 - 1e-16)
    i = np.arange(1, n + 1)
    s = np.sum((2 * i - 1.0) / n * (np.log(z) + np.log1p(-z[::-1])))
    a2 = -n - s
    a2c = a2 * (1.0 + 0.75 / n + 2.25 / (n * n))
    p = min(1.0, max(0.0, _ad_p_value(a2c)))
    return AndersonDarlingResult(float(a2), float(a2c), float(p), p < ALPHA_LEVEL)


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


def _cell(category: str, feature: str, empirical: float, samples: np.ndarray) -> SignificanceCell:
    q1, q2, q3 = np.quantile(samples, [0.25, 0.5, 0.75])
    mean, sd = float(samples.mean()), float(samples.std(ddof=1))
    median, iqr = float(q2), float(q3 - q1)
    ad: AndersonDarlingResult = anderson_darling_normal(samples)
    return SignificanceCell(
        category=category,
        feature=feature,
        empirical=float(empirical),
        null_mean=mean,
        null_sd=sd,
        null_median=median,
        null_iqr=iqr,
        z=_standardised(empirical, mean, sd),
        robust_z=_standardised(empirical, median, iqr),
        ad_statistic=None if np.isinf(ad.statistic) else ad.statistic,
        ad_p_value=ad.p_value,
        normality=ad.verdict,
        preferred="robust_z" if ad.rejected else "z",
    )


def score_ensemble(
    empirical: np.ndarray,
    ensemble: np.ndarray,
    rows: Sequence[str],
    columns: Sequence[str],
) -> list[SignificanceCell]:
    """Score every (row, column) of the empirical table against the replicas.

    ``empirical`` is rows × columns and ``ensemble`` replicas × rows ×
    columns; each cell's samples are copied into a contiguous float64 array,
    as numpy's pairwise sums depend on memory layout. Cells come out row by
    row. Requires at least 8 replicas for the Anderson-Darling approximation;
    raises :class:`AnalysisError` on a value that is not finite in float64.
    """
    if len(ensemble) < _MIN_ENSEMBLE:
        raise AnalysisError(f"ensemble of {len(ensemble)} is below the minimum of {_MIN_ENSEMBLE}")
    ensemble = np.asarray(ensemble, dtype=float)
    finite = np.isfinite(empirical) & np.isfinite(ensemble).all(axis=0)
    if not finite.all():
        i, j = np.argwhere(~finite)[0].tolist()
        raise AnalysisError(f"cannot score {rows[i]} {columns[j]}: not finite in float64")
    cells = []
    for i, row in enumerate(rows):
        for j, column in enumerate(columns):
            samples = np.ascontiguousarray(ensemble[:, i, j])
            cells.append(_cell(row, column, empirical[i, j], samples))
    return cells

"""Descriptive statistics of the aggregated graph.

Degree and per-link distributions are summarised with maximum-likelihood
power-law tail fits where the lower cutoff is chosen by minimising the
Kolmogorov-Smirnov distance over candidate cutoffs. Integer-valued series
(degrees, transactions per link) use the discrete likelihood with a Hurwitz
zeta normaliser; the volume-per-link series is continuous-valued and uses
the closed-form continuous estimator. The transactions-vs-volume
correlation is Pearson's r, computed the way ``scipy.stats.pearsonr``
(scipy 1.17) computes its statistic, bit for bit, without importing
``scipy.stats``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import zeta

from .graph import LedgerGraph

__all__ = [
    "PowerLawFit",
    "DegreeStats",
    "fit_discrete_power_law",
    "fit_continuous_power_law",
    "pearson_r",
    "degree_stats",
]

# Below this many distinct tail values the ML estimate says little.
MIN_DISTINCT_VALUES = 10
_MAX_XMIN_CANDIDATES = 150
_ALPHA_BOUNDS = (1.0 + 1e-6, 25.0)


@dataclass(frozen=True)
class PowerLawFit:
    alpha: float | None
    xmin: float | None
    ks: float | None
    n_tail: int
    reliable: bool

    def as_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "xmin": self.xmin,
            "ks": self.ks,
            "n_tail": self.n_tail,
            "reliable": self.reliable,
        }


def _candidate_cutoffs(unique_values: np.ndarray) -> np.ndarray:
    # Leave at least a handful of tail points; cap the scan length.
    candidates = unique_values[:-2] if unique_values.size > 2 else unique_values[:1]
    if candidates.size > _MAX_XMIN_CANDIDATES:
        idx = np.linspace(0, candidates.size - 1, _MAX_XMIN_CANDIDATES).astype(int)
        candidates = candidates[np.unique(idx)]
    return candidates


def pearson_r(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson's r of two float series of one length >= 2, bit-equal to
    ``scipy.stats.pearsonr(x, y).statistic``: +-1 for two points, NaN for
    a constant series."""
    with np.errstate(invalid="ignore", divide="ignore"):
        xm, ym = x - x.mean(), y - y.mean()
        xmax, ymax = np.abs(xm).max(), np.abs(ym).max()
        norm_x = xmax * np.linalg.vector_norm(xm / xmax)
        norm_y = ymax * np.linalg.vector_norm(ym / ymax)
        r = np.clip(np.vecdot(xm / norm_x, ym / norm_y), -1.0, 1.0)
    return float(np.round(r) if x.size == 2 else r)


def fit_discrete_power_law(values) -> PowerLawFit:
    """Discrete ML power-law fit with KS-selected lower cutoff.

    Only values >= 1 enter the fit. The exponent maximises
    ``-n log zeta(alpha, xmin) - alpha * sum(log x)`` for each candidate
    cutoff, and the cutoff with the smallest KS distance wins.
    """
    data = np.asarray([v for v in values if v >= 1], dtype=float)
    unique_values = np.unique(data)
    if data.size < 4 or unique_values.size < 2:
        return PowerLawFit(None, None, None, 0, False)

    data.sort()
    log_data = np.log(data)
    suffix_log = np.concatenate([np.cumsum(log_data[::-1])[::-1], [0.0]])

    best: tuple[float, float, float, int] | None = None
    for xmin in _candidate_cutoffs(unique_values):
        start = int(np.searchsorted(data, xmin, side="left"))
        n_tail = data.size - start
        if n_tail < 4:
            continue
        log_sum = suffix_log[start]

        def nll(alpha: float) -> float:
            return n_tail * math.log(zeta(alpha, xmin)) + alpha * log_sum

        res = minimize_scalar(nll, bounds=_ALPHA_BOUNDS, method="bounded")
        alpha = float(res.x)

        tail_unique = unique_values[unique_values >= xmin]
        denom = zeta(alpha, xmin)
        theory_cdf = 1.0 - zeta(alpha, tail_unique + 1.0) / denom
        empirical_cdf = np.searchsorted(data, tail_unique, side="right")
        empirical_cdf = (empirical_cdf - start) / n_tail
        ks = float(np.max(np.abs(empirical_cdf - theory_cdf)))
        if best is None or ks < best[2]:
            best = (alpha, float(xmin), ks, n_tail)

    if best is None:
        return PowerLawFit(None, None, None, 0, False)
    alpha, xmin, ks, n_tail = best
    return PowerLawFit(alpha, xmin, ks, n_tail, unique_values.size >= MIN_DISTINCT_VALUES)


def fit_continuous_power_law(values) -> PowerLawFit:
    """Continuous (Hill-style) ML power-law fit with KS-selected cutoff."""
    data = np.asarray([v for v in values if v > 0], dtype=float)
    unique_values = np.unique(data)
    if data.size < 4 or unique_values.size < 2:
        return PowerLawFit(None, None, None, 0, False)

    data.sort()
    best: tuple[float, float, float, int] | None = None
    for xmin in _candidate_cutoffs(unique_values):
        start = int(np.searchsorted(data, xmin, side="left"))
        tail = data[start:]
        if tail.size < 4:
            continue
        alpha = 1.0 + tail.size / float(np.sum(np.log(tail / xmin)))
        theory_cdf = 1.0 - np.power(xmin / tail, alpha - 1.0)
        i = np.arange(1, tail.size + 1)
        ks = float(
            max(
                np.max(np.abs(i / tail.size - theory_cdf)),
                np.max(np.abs((i - 1) / tail.size - theory_cdf)),
            )
        )
        if best is None or ks < best[2]:
            best = (float(alpha), float(xmin), ks, tail.size)

    if best is None:
        return PowerLawFit(None, None, None, 0, False)
    alpha, xmin, ks, n_tail = best
    return PowerLawFit(alpha, xmin, ks, n_tail, unique_values.size >= MIN_DISTINCT_VALUES)


@dataclass(frozen=True)
class DegreeStats:
    in_degree_hist: dict[int, int]
    out_degree_hist: dict[int, int]
    alpha_in: PowerLawFit
    alpha_out: PowerLawFit
    alpha_txperlink: PowerLawFit
    alpha_volperlink: PowerLawFit
    pearson_tx_vs_volume: float | None

    def as_dict(self) -> dict:
        return {
            "in_degree_hist": {str(k): v for k, v in sorted(self.in_degree_hist.items())},
            "out_degree_hist": {str(k): v for k, v in sorted(self.out_degree_hist.items())},
            "alpha_in": self.alpha_in.as_dict(),
            "alpha_out": self.alpha_out.as_dict(),
            "alpha_txperlink": self.alpha_txperlink.as_dict(),
            "alpha_volperlink": self.alpha_volperlink.as_dict(),
            "pearson_tx_vs_volume": self.pearson_tx_vs_volume,
        }


def degree_stats(g: LedgerGraph) -> DegreeStats:
    """Degree histograms, tail exponents, and the tx/volume correlation."""
    if g.node_count == 0:
        raise ValueError("degree_stats needs a non-empty graph")

    in_degrees = np.bincount(g.targets, minlength=g.node_count).tolist()
    out_degrees = np.bincount(g.sources, minlength=g.node_count).tolist()
    counts = g.counts.astype(float)
    volumes = g.volumes.astype(float)

    if counts.size >= 2 and counts.std() > 0 and volumes.std() > 0:
        pearson = pearson_r(counts, volumes)
    else:
        pearson = None

    return DegreeStats(
        in_degree_hist=dict(Counter(in_degrees)),
        out_degree_hist=dict(Counter(out_degrees)),
        alpha_in=fit_discrete_power_law(in_degrees),
        alpha_out=fit_discrete_power_law(out_degrees),
        alpha_txperlink=fit_discrete_power_law(counts),
        alpha_volperlink=fit_continuous_power_law(volumes),
        pearson_tx_vs_volume=pearson,
    )

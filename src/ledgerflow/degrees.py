"""Descriptive statistics of the aggregated graph.

Degree and per-link distributions are summarised with maximum-likelihood
power-law tail fits where the lower cutoff is chosen by minimising the
Kolmogorov-Smirnov distance over candidate cutoffs (Clauset, Shalizi &
Newman 2009). One scan over the cutoffs serves both fits; each supplies
only its tail formulas. Integer-valued series (degrees, transactions per
link) use the discrete likelihood with a Hurwitz zeta normaliser, maximised
at each cutoff by Brent's bounded minimiser (Brent 1973), a float-for-float
port of ``scipy.optimize.minimize_scalar(method="bounded")`` (scipy 1.17)
that keeps ``scipy.optimize`` out of the import path. The volume-per-link
series is continuous-valued and uses the closed-form continuous estimator.
The transactions-vs-volume correlation is Pearson's r, computed the way
``scipy.stats.pearsonr`` (scipy 1.17) computes its statistic, bit for bit,
without importing ``scipy.stats``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np
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
# scipy's bounded-Brent constants: absolute x tolerance, evaluation cap,
# the square root of its rounded machine epsilon, the golden-section step.
_XATOL = 1e-5
_MAX_EVALUATIONS = 500
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))


@dataclass(frozen=True)
class PowerLawFit:
    alpha: float | None
    xmin: float | None
    ks: float | None
    n_tail: int
    reliable: bool


_NO_FIT = PowerLawFit(None, None, None, 0, False)


def _fit(data: np.ndarray, tail_fit) -> PowerLawFit:
    """The KS-selected power-law fit of sorted ``data``.

    The candidate cutoffs are the distinct values but the top two (the
    smallest at least), thinned evenly to cap the scan. Each with at least 4
    values at or above it is tried: ``tail_fit(start, xmin, distinct)``
    returns the exponent and KS distance of the tail ``data[start:]``,
    whose distinct values are ``distinct``. The smallest distance wins, the
    lowest cutoff on a tie.
    """
    unique_values = np.unique(data)
    if data.size < 4 or unique_values.size < 2:
        return _NO_FIT
    count = max(unique_values.size - 2, 1)
    candidates = np.arange(count)
    if count > _MAX_XMIN_CANDIDATES:
        candidates = np.unique(np.linspace(0, count - 1, _MAX_XMIN_CANDIDATES).astype(int))
    best = None
    for k in candidates:
        xmin = unique_values[k]
        start = int(np.searchsorted(data, xmin, side="left"))
        if data.size - start < 4:
            break  # a higher cutoff leaves still fewer
        alpha, ks = tail_fit(start, xmin, unique_values[k:])
        if best is None or ks < best[2]:
            best = (alpha, float(xmin), ks, data.size - start)
    if best is None:
        return _NO_FIT
    return PowerLawFit(*best, unique_values.size >= MIN_DISTINCT_VALUES)


def _sign(d: float) -> float:
    # np.sign(d) + (d == 0) for a non-NaN d: 0 maps to +1.
    return -1.0 if d < 0 else 1.0


def _bounded_minimum(func, lo: float, hi: float) -> float:
    """The ``x`` of ``scipy.optimize.minimize_scalar(func, bounds=(lo, hi),
    method="bounded")``: scipy 1.17's ``_minimize_scalar_bounded`` (Brent's
    golden-section search with parabolic steps), step for step on Python
    floats. Every step here is finite for finite bounds, even where ``func``
    returns NaN or inf, so the sign needs no NaN case.
    """
    a, b = lo, hi
    fulc = a + _GOLDEN_MEAN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + _XATOL / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if abs(e) > tol1:  # try a parabolic fit
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _sign(xm - xf)
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN_MEAN * e

        x = xf + _sign(rat) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + _XATOL / 3.0
        tol2 = 2.0 * tol1
        if num >= _MAX_EVALUATIONS:
            break
    return float(xf)


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
    values = np.asarray(values, dtype=float)
    data = np.sort(values[values >= 1])
    suffix_log = np.cumsum(np.log(data)[::-1])[::-1]  # sum(log(data[start:]))

    def tail_fit(start: int, xmin: float, distinct: np.ndarray) -> tuple[float, float]:
        n_tail = data.size - start
        log_sum = suffix_log[start]

        def nll(alpha: float) -> float:
            return n_tail * math.log(zeta(alpha, xmin)) + alpha * log_sum

        alpha = _bounded_minimum(nll, *_ALPHA_BOUNDS)
        theory_cdf = 1.0 - zeta(alpha, distinct + 1.0) / zeta(alpha, xmin)
        empirical_cdf = (np.searchsorted(data, distinct, side="right") - start) / n_tail
        return alpha, float(np.max(np.abs(empirical_cdf - theory_cdf)))

    return _fit(data, tail_fit)


def fit_continuous_power_law(values) -> PowerLawFit:
    """Continuous (Hill-style) ML power-law fit of the values > 0, with
    KS-selected cutoff."""
    values = np.asarray(values, dtype=float)
    data = np.sort(values[values > 0])

    def tail_fit(start: int, xmin: float, distinct: np.ndarray) -> tuple[float, float]:
        tail = data[start:]
        alpha = 1.0 + tail.size / float(np.sum(np.log(tail / xmin)))
        theory_cdf = 1.0 - np.power(xmin / tail, alpha - 1.0)
        i = np.arange(1, tail.size + 1)
        ks = max(np.max(np.abs(i / tail.size - theory_cdf)),
                 np.max(np.abs((i - 1) / tail.size - theory_cdf)))
        return alpha, float(ks)

    return _fit(data, tail_fit)


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
        # Histogram keys become text, so sorted JSON orders them as text.
        return {
            **asdict(self),
            "in_degree_hist": {str(k): v for k, v in self.in_degree_hist.items()},
            "out_degree_hist": {str(k): v for k, v in self.out_degree_hist.items()},
        }


def degree_stats(g: LedgerGraph) -> DegreeStats:
    """Degree histograms, tail exponents, and the tx/volume correlation."""
    if g.node_count == 0:
        raise ValueError("degree_stats needs a non-empty graph")

    in_degrees = np.bincount(g.targets, minlength=g.node_count).tolist()
    out_degrees = np.bincount(g.sources, minlength=g.node_count).tolist()
    counts = g.counts.astype(float)
    volumes = g.units.floats()

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

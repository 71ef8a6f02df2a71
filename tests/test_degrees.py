import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import zeta

from ledgerflow.degrees import (
    _ALPHA_BOUNDS,
    _bounded_minimum,
    degree_stats,
    fit_continuous_power_law,
    fit_discrete_power_law,
    pearson_r,
)
from ledgerflow.graph import aggregate

from oracles import (
    LinkRecord,
    graph_from_links,
    graph_of,
    ledger_of,
    reference_bounded_minimum,
    reference_fit_continuous_power_law,
    reference_fit_discrete_power_law,
    sample_discrete_power_law,
)


def _graph_with_volumes(volumes):
    links = {
        (f"s{i:03d}", f"t{i:03d}"): LinkRecord(1, Decimal(str(v)))
        for i, v in enumerate(volumes)
    }
    return graph_from_links(links)


def test_pearson_is_one_for_count_equal_volume():
    links = {}
    for i, count in enumerate([1, 2, 3, 5, 8]):
        links[(f"s{i}", f"t{i}")] = LinkRecord(count, Decimal(count))
    stats = degree_stats(graph_from_links(links))
    assert stats.pearson_tx_vs_volume == pytest.approx(1.0)


def test_pearson_r_is_bit_equal_to_scipy():
    pearsonr = pytest.importorskip("scipy.stats").pearsonr
    rng = np.random.default_rng(17)
    for trial in range(600):
        n = 2 if trial % 10 == 0 else int(rng.integers(3, 400))
        counts = rng.integers(1, [3, 60, 10**4][trial % 3], size=n).astype(float)
        volumes = np.round(counts * rng.pareto(1.3, size=n) * 100 + rng.integers(1, 99, size=n)) / 100
        if trial % 4 == 0:
            volumes = rng.normal(size=n) * 10.0 ** rng.integers(-3, 9)
        if counts.std() == 0 or volumes.std() == 0:
            continue
        assert pearson_r(counts, volumes) == float(pearsonr(counts, volumes).statistic)
    for x, y in (([1.0, 2.0], [5.0, 3.0]), ([0.1, 0.3], [7.0, 7.5])):
        x, y = np.array(x), np.array(y)
        assert pearson_r(x, y) == float(pearsonr(x, y).statistic) in (-1.0, 1.0)


def test_pearson_undefined_for_zero_variance():
    stats = degree_stats(_graph_with_volumes([5, 5, 5]))
    assert stats.pearson_tx_vs_volume is None


def test_pearson_affine_invariance():
    volumes = [3, 1, 4, 1, 5, 9, 2, 6]
    counts = [1, 2, 1, 3, 2, 4, 1, 2]

    def build(scale, shift):
        links = {}
        for i, (count, volume) in enumerate(zip(counts, volumes)):
            links[(f"s{i}", f"t{i}")] = LinkRecord(count, Decimal(str(scale * volume + shift)))
        return graph_from_links(links)

    base = degree_stats(build(1, 0)).pearson_tx_vs_volume
    scaled = degree_stats(build(7, 13)).pearson_tx_vs_volume
    assert scaled == pytest.approx(base, abs=1e-12)
    flipped = degree_stats(build(-7, 100)).pearson_tx_vs_volume
    assert flipped == pytest.approx(-base, abs=1e-12)


def test_degree_histograms():
    g = graph_of([("A", "B"), ("A", "C"), ("B", "C")])
    stats = degree_stats(g)
    assert stats.out_degree_hist == {2: 1, 1: 1, 0: 1}
    assert stats.in_degree_hist == {0: 1, 1: 1, 2: 1}


def test_degree_stats_requires_nonempty():
    g, _ = aggregate(ledger_of([]))
    with pytest.raises(ValueError):
        degree_stats(g)


def test_discrete_power_law_recovery():
    # Exact inverse-CDF samples at alpha = 2.5; the fit must land within 0.05.
    rng = np.random.default_rng(2024)
    samples = sample_discrete_power_law(2.5, 100_000, rng)
    fit = fit_discrete_power_law(samples)
    assert fit.reliable
    assert fit.alpha == pytest.approx(2.5, abs=0.05)


def test_continuous_power_law_recovery():
    rng = np.random.default_rng(11)
    # Inverse CDF for the continuous Pareto tail: x = xmin * u^(-1/(alpha-1)).
    samples = 1.0 * rng.random(50_000) ** (-1.0 / 1.85)
    fit = fit_continuous_power_law(samples)
    assert fit.reliable
    assert fit.alpha == pytest.approx(2.85, abs=0.05)


def test_few_distinct_values_marked_unreliable():
    fit = fit_discrete_power_law([1, 1, 2, 2, 2, 3, 3, 1, 2, 3])
    assert not fit.reliable


def test_degenerate_series_fails_cleanly():
    fit = fit_discrete_power_law([2, 2, 2, 2])
    assert fit.alpha is None
    assert not fit.reliable


def _fit_inputs(rng: np.random.Generator):
    """About 200 series of the shapes the fits meet, and their edge cases."""
    for alpha in (1.6, 2.1, 2.5, 3.2):
        for size in (30, 200, 1500):
            for _ in range(4):
                yield sample_discrete_power_law(alpha, size, rng).tolist()
    for _ in range(60):  # cent volumes per link
        size = int(rng.integers(4, 200))
        yield (np.round(rng.pareto(1.2, size) * 100 + rng.integers(1, 99, size)) / 100).tolist()
    for size in range(4):  # fewer than 4 values
        yield rng.integers(1, 50, size).tolist()
    for _ in range(20):  # one or two distinct values, some below 1
        values = rng.choice(rng.integers(0, 6, 2) * 1.5, int(rng.integers(1, 40)))
        yield values.tolist()
    for _ in range(8):  # more than 150 distinct values: the thinned scan
        yield rng.permutation(np.arange(1, int(rng.integers(155, 600)))).tolist()
    for _ in range(60):  # zeros and fractions mixed in
        values = rng.integers(0, 30, int(rng.integers(4, 120))).astype(float)
        values[rng.random(values.size) < 0.2] = 0.0
        values[rng.random(values.size) < 0.2] *= 0.25
        yield values.tolist()


def test_fits_equal_the_per_fit_scans_float_for_float():
    rng = np.random.default_rng(909)
    inputs = list(_fit_inputs(rng))
    assert len(inputs) >= 190
    for i, values in enumerate(inputs):
        # degree_stats passes degrees as lists and link columns as arrays
        series = values if i % 2 else np.array(values, dtype=float)
        for fit, reference in (
            (fit_discrete_power_law, reference_fit_discrete_power_law),
            (fit_continuous_power_law, reference_fit_continuous_power_law),
        ):
            got, want = fit(series), reference(values)
            assert got == want and repr(got) == repr(want), (fit.__name__, values)


@st.composite
def _objectives(draw):
    """(function, lo, hi): quadratics with the minimum inside or past either
    bound, slopes, the discrete power-law NLL, functions that turn NaN or
    infinite on part of the interval or all of it, and intervals too wide to
    converge within the evaluation cap."""
    kind = draw(st.sampled_from(
        ["quadratic", "slope", "nll", "nan", "inf", "constant", "wide"]))
    if kind == "wide":
        centre = draw(st.floats(-1e3, 1e3))
        return (lambda x: abs(x - centre),
                -10.0 ** draw(st.integers(100, 300)), 10.0 ** draw(st.integers(100, 300)))
    if kind == "nll":
        n_tail, xmin = draw(st.integers(4, 10**6)), draw(st.integers(1, 500))
        log_sum = n_tail * (math.log(xmin) + draw(st.floats(1e-4, 8.0)))
        return (lambda alpha: n_tail * math.log(zeta(alpha, xmin)) + alpha * log_sum,
                *_ALPHA_BOUNDS)
    lo = draw(st.floats(-1e4, 1e4))
    width = draw(st.floats(1e-7, 1e4))
    hi = lo + width
    centre = draw(st.floats(lo - width, hi + width))
    scale = draw(st.floats(1e-6, 1e6))
    cut = draw(st.floats(lo, hi))

    def quadratic(x):
        return scale * (x - centre) ** 2

    if kind == "quadratic":
        return quadratic, lo, hi
    if kind == "slope":
        return (lambda x: scale * x) if draw(st.booleans()) else (lambda x: -scale * x), lo, hi
    if kind == "nan":
        return (lambda x: math.nan if x > cut else quadratic(x)), lo, hi
    if kind == "inf":
        sign = draw(st.sampled_from([-1.0, 1.0]))
        return (lambda x: sign * math.inf if x < cut else quadratic(x)), lo, hi
    value = draw(st.sampled_from([math.nan, math.inf, -math.inf, 0.0]))
    return (lambda x: value), lo, hi


@settings(max_examples=400, deadline=None)
@given(_objectives())
def test_bounded_minimum_is_scipys_bounded_brent_bit_for_bit(objective):
    func, lo, hi = objective
    seen = {"port": [], "scipy": []}

    def traced(side):
        def f(x):
            seen[side].append(float(x).hex())
            return func(float(x))
        return f

    got = _bounded_minimum(traced("port"), lo, hi)
    with np.errstate(invalid="ignore", over="ignore"):  # scipy's numpy scalars warn
        want = reference_bounded_minimum(traced("scipy"), lo, hi)
    assert got.hex() == want.hex()
    assert seen["port"] == seen["scipy"]  # the same points in the same order
    assert len(seen["port"]) <= 500

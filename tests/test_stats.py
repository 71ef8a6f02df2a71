import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.stats import anderson

from ledgerflow.errors import AnalysisError
from ledgerflow.stats import robust_z_score, score_ensemble, z_score

from oracles import anderson_darling_normal, reference_cell


def test_z_score_hand_case():
    assert z_score(10, [2, 4, 6]) == pytest.approx(3.0, abs=1e-12)


def test_z_score_zero_at_mean():
    assert z_score(4, [2, 4, 6]) == pytest.approx(0.0, abs=1e-12)


def test_z_score_undefined_on_constant_samples():
    assert z_score(1, [5, 5, 5]) is None


def test_robust_z_hand_case():
    # median 3, Q1 = 2, Q3 = 4 under linear interpolation
    assert robust_z_score(10, [1, 2, 3, 4, 5]) == pytest.approx(3.5, abs=1e-12)


def test_robust_z_undefined_on_zero_iqr():
    assert robust_z_score(9, [7, 7, 7, 7]) is None


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@settings(max_examples=100)
@given(
    st.lists(finite, min_size=3, max_size=40),
    finite,
    st.floats(min_value=-1e5, max_value=1e5, allow_nan=False),
)
def test_translation_covariance(samples, value, shift):
    # Adding the shift rounds every sample to float64 at the shifted
    # magnitude, and a spread within a few ulps of that magnitude does not
    # survive it: [0, 0, 2.2e-16] shifted by 1.0 keeps a one-ulp spread
    # whose mean rounds onto the shifted value, so z goes from -0.577 to 0;
    # [0.2, 0.2, 0.2] has a sd of a few ulps because its mean rounds off
    # 0.2. The property holds only where each sd and IQR that the scores
    # divide by is zero or survives the shift.
    shifted = [s + shift for s in samples]
    magnitude = max(map(abs, [*samples, *shifted, value, value + shift]))
    for sample in (samples, shifted):
        q1, q3 = np.quantile(sample, [0.25, 0.75])
        for spread in (np.std(sample, ddof=1), q3 - q1):
            assume(spread == 0 or spread > 1e-6 * magnitude)
    z0 = z_score(value, samples)
    z1 = z_score(value + shift, shifted)
    r0 = robust_z_score(value, samples)
    r1 = robust_z_score(value + shift, shifted)
    if z0 is None or z1 is None:
        assert z0 == z1 or abs(shift) > 0  # degeneracy can only appear, not vanish
    else:
        assert z1 == pytest.approx(z0, rel=1e-6, abs=1e-6)
    if r0 is not None and r1 is not None:
        assert r1 == pytest.approx(r0, rel=1e-6, abs=1e-6)


def test_ad_statistic_matches_scipy():
    rng = np.random.default_rng(123)
    for size in (12, 60, 500):
        sample = rng.normal(3.0, 2.0, size)
        mine = anderson_darling_normal(sample)
        theirs = anderson(sample, "norm", method="interpolate")
        assert mine.statistic == pytest.approx(theirs.statistic, rel=1e-9)
        (cell,) = score_ensemble(np.zeros((1, 1)), sample.reshape(-1, 1, 1), ["a"], ["x"])
        assert cell.ad_statistic == pytest.approx(theirs.statistic, rel=1e-9)


def test_ad_normal_cdf_is_bit_equal_to_scipy_norm_cdf():
    # anderson_darling_normal evaluates the CDF with scipy.special.ndtr to
    # keep scipy.stats out of the import path; it must be the same function.
    from scipy.special import ndtr
    from scipy.stats import norm

    rng = np.random.default_rng(9)
    w = np.concatenate([rng.normal(0.0, 3.0, 5000), rng.uniform(-40.0, 40.0, 5000),
                        [0.0, -0.0, 1e-300, -38.5, 8.3, np.inf, -np.inf]])
    assert np.array_equal(ndtr(w), norm.cdf(w))
    assert np.isnan(ndtr(np.nan)) and np.isnan(norm.cdf(np.nan))


def test_ad_corrected_statistic_scaling():
    rng = np.random.default_rng(5)
    sample = rng.normal(size=50)
    result = anderson_darling_normal(sample)
    n = len(sample)
    assert result.corrected == pytest.approx(
        result.statistic * (1 + 0.75 / n + 2.25 / n**2), rel=1e-12
    )


def test_ad_rejects_uniform_not_normal():
    rng = np.random.default_rng(7)
    uniform = anderson_darling_normal(rng.uniform(size=2000))
    normal = anderson_darling_normal(rng.normal(size=2000))
    assert uniform.rejected
    assert not normal.rejected
    assert uniform.p_value < 0.05 <= normal.p_value


def test_ad_degenerate_sample_is_rejected():
    result = anderson_darling_normal([4.0] * 20)
    assert result.rejected
    assert math.isinf(result.statistic)
    assert result.p_value == 0.0


def test_ad_needs_four_observations():
    with pytest.raises(ValueError):
        anderson_darling_normal([1.0, 2.0, 3.0])


@pytest.mark.parametrize("where", ["empirical", "replica"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_score_ensemble_refuses_non_finite_values(where, value):
    empirical = np.ones((2, 3))
    ensemble = np.arange(8 * 2 * 3, dtype=float).reshape(8, 2, 3)
    (empirical if where == "empirical" else ensemble[5])[1, 2] = value
    with pytest.raises(AnalysisError, match="b z: not finite"):
        score_ensemble(empirical, ensemble, ["a", "b"], ["x", "y", "z"])


def test_score_ensemble_scores_each_cell_from_its_replica_column():
    rng = np.random.default_rng(3)
    ensemble = rng.normal(size=(12, 2, 3))
    empirical = rng.normal(size=(2, 3))
    cells = score_ensemble(empirical, ensemble, ["a", "b"], ["x", "y", "z"])
    assert [(c.category, c.feature) for c in cells] == [
        (row, column) for row in "ab" for column in "xyz"
    ]
    for cell, (i, j) in zip(cells, np.ndindex(2, 3)):
        samples = ensemble[:, i, j].tolist()
        assert cell.empirical == empirical[i, j]
        assert cell.z == z_score(empirical[i, j], samples)
        assert cell.robust_z == robust_z_score(empirical[i, j], samples)


def _column(kind: str, replicas: int, rng: np.random.Generator) -> np.ndarray:
    """One cell's replica values of a given shape."""
    if kind == "normal":
        return rng.normal(rng.uniform(-1e3, 1e3), rng.uniform(1e-3, 1e3), replicas)
    if kind == "constant":  # sd 0: no AD statistic, p 0
        return np.full(replicas, float(rng.integers(-5, 5)))
    if kind == "one varies":
        column = np.full(replicas, 3.0)
        column[rng.integers(replicas)] = 4.0
        return column
    if kind == "ties":  # few distinct counts, often an IQR of 0
        return rng.choice([0.0, 1.0, 2.0], size=replicas, p=[0.1, 0.8, 0.1])
    if kind == "huge":  # squares past float64: an infinite sd
        return rng.uniform(0.5e300, 1e300, replicas) * rng.choice([-1.0, 1.0])
    # integers past 2**53, rounded to float64 on the way in
    return (2**53 + rng.integers(0, 2**12, replicas)).astype(float)


_KINDS = ("normal", "constant", "one varies", "ties", "huge", "past 2**53")


@settings(max_examples=150, deadline=None)
@given(
    st.integers(8, 64),
    st.sampled_from([(1, 1), (14, 5), (4, 16), (2, 3)]),
    st.integers(0, 2**32 - 1),
    st.lists(st.sampled_from(_KINDS), min_size=1, max_size=6),
)
@example(8, (1, 1), 0, ["constant"])
@example(64, (14, 5), 1, list(_KINDS))
def test_score_ensemble_matches_the_per_cell_reference(replicas, shape, seed, kinds):
    # One vectorised pass per table scores each cell exactly as the per-cell
    # reference does alone; JSON text tells -0.0 from 0.0 and shows NaN.
    rng = np.random.default_rng(seed)
    cells = shape[0] * shape[1]
    ensemble = np.stack([_column(kinds[k % len(kinds)], replicas, rng) for k in range(cells)],
                        axis=1).reshape(replicas, *shape)
    # empirical values on, beside and far from each cell's replicas
    empirical = np.where(rng.random(shape) < 0.5, ensemble[0],
                         ensemble[-1] * rng.choice([0.0, -1.0, 2.0], size=shape))
    rows = [f"r{i}" for i in range(shape[0])]
    columns = [f"c{j}" for j in range(shape[1])]
    with np.errstate(all="ignore"):
        mine = score_ensemble(empirical, ensemble, rows, columns)
        reference = [reference_cell(row, column, empirical[i, j],
                                    np.ascontiguousarray(ensemble[:, i, j]))
                     for i, row in enumerate(rows) for j, column in enumerate(columns)]
    assert [json.dumps(cell.__dict__) for cell in mine] == \
        [json.dumps(cell.__dict__) for cell in reference]

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hibsim.stats import CdfSeries, make_cdf, median


def test_single_sample():
    cdf = make_cdf([4.2])
    assert cdf.n == 1
    assert_allclose(cdf.probs, [0.5])  # 1/(N+1)
    assert cdf.median == 4.2
    assert cdf.quantile(0.0) == 4.2  # clamped to the lone sample
    assert cdf.quantile(1.0) == 4.2


def test_median_of_1_to_100():
    cdf = make_cdf(np.arange(1, 101, dtype=float))
    assert_allclose(cdf.median, 50.5, atol=0.5)
    assert_allclose(median(np.arange(1, 101)), cdf.median)


def test_constant_samples():
    cdf = make_cdf(np.full(25, 7.0))
    assert_allclose(cdf.quantile([0.1, 0.5, 0.9]), 7.0)


def test_sorted_values_and_strictly_increasing_probs():
    rng = np.random.default_rng(3)
    samples = rng.normal(size=257)
    cdf = make_cdf(samples)
    assert cdf.n == 257
    assert np.all(np.diff(cdf.values) >= 0.0)
    assert np.all(np.diff(cdf.probs) > 0.0)
    assert cdf.probs[0] > 0.0 and cdf.probs[-1] < 1.0
    assert np.array_equal(cdf.values, np.sort(samples))


def test_quantile_interpolates_and_clamps():
    cdf = make_cdf([0.0, 10.0, 20.0])  # probs 0.25, 0.5, 0.75
    assert_allclose(cdf.quantile(0.5), 10.0)
    assert_allclose(cdf.quantile(0.375), 5.0)
    assert cdf.quantile(0.0) == 0.0  # below p_1: clamp to min
    assert cdf.quantile(1.0) == 20.0  # above p_N: clamp to max
    out = cdf.quantile([0.25, 0.75])
    assert isinstance(out, np.ndarray)
    assert_allclose(out, [0.0, 20.0])


def test_quantile_monotone_in_p():
    rng = np.random.default_rng(11)
    cdf = make_cdf(rng.exponential(size=500))
    ps = np.linspace(0.0, 1.0, 101)
    qs = cdf.quantile(ps)
    assert np.all(np.diff(qs) >= 0.0)


def test_quantile_rejects_out_of_range():
    cdf = make_cdf([1.0, 2.0])
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        cdf.quantile(-0.01)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        cdf.quantile([0.5, 1.01])


def test_make_cdf_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError, match="zero samples"):
        make_cdf([])
    with pytest.raises(ValueError, match="finite"):
        make_cdf([1.0, np.nan])
    with pytest.raises(ValueError, match="finite"):
        make_cdf([1.0, np.inf])


def test_make_cdf_flattens_input():
    cdf = make_cdf(np.array([[3.0, 1.0], [2.0, 4.0]]))
    assert cdf.n == 4
    assert_allclose(cdf.values, [1.0, 2.0, 3.0, 4.0])


def test_median_matches_numpy_for_large_samples():
    rng = np.random.default_rng(7)
    samples = rng.normal(loc=5.0, scale=2.0, size=20_001)
    assert_allclose(median(samples), np.median(samples), atol=0.01)

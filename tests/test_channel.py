import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hibsim.channel import (
    SPEED_OF_LIGHT_M_S,
    NtnParams,
    fspl_db,
    noise_power_dbm,
    ntn_link_medians,
    resolve_links,
    rma_link_medians,
    rma_median_pathloss,
)
from hibsim.config import DEFAULT_P_LOS_TABLE

FSPL_GRID_D_M = np.array([1.0, 100.0, 1_000.0, 20_000.0, 40_000.0])
FSPL_GRID_DB = np.array(
    [
        38.468383135162995,
        78.468383135162995,
        98.468383135162995,
        124.488983048442620,
        130.509582961722231,
    ]
)

RMA_GRID_D2D_M = np.array([10.0, 100.0, 500.0, 1_886.0, 3_000.0, 9_000.0, 21_000.0])
RMA_GRID_LOS_DB = np.array(
    [
        68.11213286391462,
        79.20988533963391,
        93.74523562295259,
        107.47552355643624,
        115.53670021028003,
        134.62085363263250,
        149.33985394265778,
    ]
)
RMA_GRID_NLOS_DB = np.array(
    [
        68.18485808589689,
        89.03859309839649,
        115.55592636423518,
        137.92507084774337,
        145.75344288425970,
        164.28459675396550,
        178.57708610452022,
    ]
)


def _draw_ntn_links(
    elevation_deg, distance_m, frequency_hz, rng, params=NtnParams(), shadowing=True
):
    """Platform links drawn i.i.d. from their medians, as the drop engine does."""
    medians = ntn_link_medians(elevation_deg, distance_m, frequency_hz, params)
    shape = np.broadcast(np.asarray(elevation_deg), np.asarray(distance_m)).shape
    uniform = np.zeros(shape) if params.los_only else rng.random(shape)
    normal = rng.standard_normal(shape) if shadowing else None
    return resolve_links(medians, uniform, normal)


def _draw_rma_links(d2d_m, frequency_hz, rng, shadowing=True):
    """Rural-macro links drawn i.i.d. from their medians: (pathloss, shadow,
    los, clamped)."""
    medians = rma_link_medians(d2d_m, frequency_hz)
    shape = np.shape(d2d_m)
    uniform = rng.random(shape)
    normal = rng.standard_normal(shape) if shadowing else None
    pl, shadow, clutter, los = resolve_links(medians, uniform, normal)
    assert np.all(clutter == 0.0)
    return pl, shadow, los, rma_median_pathloss(d2d_m, frequency_hz)[4]


def test_fspl_reference_values():
    assert_allclose(fspl_db(20_000.0, 2.0e9), 124.5, atol=0.1)
    assert_allclose(fspl_db(40_000.0, 2.0e9), 130.5, atol=0.1)
    assert_allclose(fspl_db(FSPL_GRID_D_M, 2.0e9), FSPL_GRID_DB, atol=1e-10)


def test_fspl_doubling_adds_6db():
    d = np.array([1.0, 50.0, 2_000.0, 20_000.0])
    delta = fspl_db(2.0 * d, 2.0e9) - fspl_db(d, 2.0e9)
    assert_allclose(delta, 20.0 * math.log10(2.0), atol=1e-12)


def test_fspl_rejects_near_field_and_bad_frequency():
    with pytest.raises(ValueError, match="distance"):
        fspl_db(0.5, 2.0e9)
    with pytest.raises(ValueError, match="frequency"):
        fspl_db(100.0, 0.0)


def test_fspl_strictly_increasing_in_distance_and_frequency():
    d = np.linspace(1.0, 50_000.0, 300)
    assert np.all(np.diff(fspl_db(d, 2.0e9)) > 0.0)
    f = np.linspace(0.5e9, 6.0e9, 300)
    assert np.all(np.diff(fspl_db(1_000.0, f)) > 0.0)


def test_noise_power_reference_values():
    assert_allclose(noise_power_dbm(20e6, 9.0), -91.99, atol=0.01)
    assert_allclose(noise_power_dbm(20e6, 5.0), -95.99, atol=0.01)
    assert noise_power_dbm(1.0, 0.0) == -174.0
    with pytest.raises(ValueError, match="bandwidth"):
        noise_power_dbm(0.0, 5.0)


def test_ntn_params_p_los_interpolation():
    params = NtnParams()
    assert_allclose(
        params.p_los([10.0, 15.0, 30.0, 55.0, 85.0, 90.0]),
        [0.25, 0.40, 0.70, 0.875, 0.995, 1.0],
    )
    for elev_deg, p in DEFAULT_P_LOS_TABLE:
        assert_allclose(params.p_los(elev_deg), p)


def test_ntn_params_clutter_interpolation():
    params = NtnParams()
    assert_allclose(
        params.clutter_db([10.0, 50.0, 90.0]), [19.0, 14.5, 10.0]
    )


def test_ntn_pathloss_zenith_always_los():
    rng = np.random.default_rng(3)
    elev = np.full(2_000, 90.0)
    dist = np.full(2_000, 20_000.0)
    pl, shadow, clutter, los = _draw_ntn_links(elev, dist, 2.0e9, rng)
    assert np.all(los)
    assert np.all(clutter == 0.0)
    assert_allclose(pl, fspl_db(20_000.0, 2.0e9))


def test_ntn_pathloss_mean_worse_at_low_elevation():
    # equal slant distance: clutter at 30 deg elevation drags the mean up
    rng = np.random.default_rng(4)
    n = 20_000
    dist = np.full(n, 25_000.0)
    pl30, _, cl30, _ = _draw_ntn_links(np.full(n, 30.0), dist, 2.0e9, rng)
    pl90, _, cl90, _ = _draw_ntn_links(np.full(n, 90.0), dist, 2.0e9, rng)
    assert (pl30 + cl30).mean() > (pl90 + cl90).mean()


def test_ntn_pathloss_shadow_zero_mean():
    rng = np.random.default_rng(5)
    n = 40_000
    _, shadow, _, _ = _draw_ntn_links(
        np.full(n, 50.0), np.full(n, 25_000.0), 2.0e9, rng
    )
    # sigma mixes 4 (LOS) and 8 (NLOS); bound with the larger one
    assert abs(shadow.mean()) < 3.0 * 8.0 / math.sqrt(n)


def test_ntn_pathloss_rejects_out_of_range_elevation():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError, match="elevation"):
        _draw_ntn_links(5.0, 20_000.0, 2.0e9, rng)
    with pytest.raises(ValueError, match="elevation"):
        _draw_ntn_links(91.0, 20_000.0, 2.0e9, rng)


def test_ntn_pathloss_los_only_switch():
    rng = np.random.default_rng(6)
    n = 1_000
    _, _, clutter, los = _draw_ntn_links(
        np.full(n, 10.0),
        np.full(n, 30_000.0),
        2.0e9,
        rng,
        params=NtnParams(los_only=True),
    )
    assert np.all(los)
    assert np.all(clutter == 0.0)


@pytest.mark.parametrize("draw", [0.0, np.nextafter(1.0, 0.0)])
def test_los_only_resolves_every_link_los(draw):
    # the table gives p_los 0 at 10 deg; los_only must override it for any
    # uniform in [0, 1)
    params = NtnParams(p_los_table=((10.0, 0.0), (90.0, 1.0)), los_only=True)
    elev = np.array([10.0, 10.0, 45.0, 90.0])
    slant = 20_000.0 / np.sin(np.radians(elev))
    medians = ntn_link_medians(elev, slant, 2.0e9, params)
    _, shadow, clutter, los = resolve_links(medians, np.full(elev.shape, draw), None)
    assert los.shape == elev.shape and np.all(los)
    assert np.all(clutter == 0.0)
    assert np.all(shadow == 0.0)


def test_los_only_track_threshold_keeps_the_samples_shape():
    # a track holds one (1, 1) LOS threshold against (1, T) shadow draws
    params = NtnParams(p_los_table=((10.0, 0.0), (90.0, 1.0)), los_only=True)
    elev = np.linspace(10.0, 90.0, 7)
    slant = 20_000.0 / np.sin(np.radians(elev))
    medians = ntn_link_medians(elev, slant, 2.0e9, params)
    normal = np.random.default_rng(3).standard_normal((1, elev.size))
    pl, shadow, clutter, los = resolve_links(
        medians, np.full((1, 1), np.nextafter(1.0, 0.0)), normal
    )
    assert los.shape == (1, elev.size) and np.all(los)
    assert np.all(clutter == 0.0)
    assert np.array_equal(shadow, params.sigma_los_db * normal)
    assert np.array_equal(pl, np.broadcast_to(fspl_db(slant, 2.0e9), (1, elev.size)))


def test_ntn_pathloss_shadowing_switch():
    rng = np.random.default_rng(7)
    _, shadow, _, _ = _draw_ntn_links(
        np.full(100, 50.0), np.full(100, 20_000.0), 2.0e9, rng, shadowing=False
    )
    assert np.all(shadow == 0.0)


def test_ntn_los_fraction_monotone_in_elevation():
    # 10-degree grid, N=10000 per bin, tolerance 2 percentage points
    rng = np.random.default_rng(8)
    n = 10_000
    fractions = []
    for elev_deg in range(10, 100, 10):
        _, _, _, los = _draw_ntn_links(
            np.full(n, float(elev_deg)), np.full(n, 25_000.0), 2.0e9, rng
        )
        fractions.append(los.mean())
    assert fractions[-1] == 1.0
    assert np.all(np.diff(fractions) > -0.02)


def test_ntn_pathloss_plus_clutter_never_below_fspl():
    rng = np.random.default_rng(9)
    n = 5_000
    dist = rng.uniform(20_000.0, 41_000.0, size=n)
    elev = rng.uniform(10.0, 90.0, size=n)
    pl, _, clutter, _ = _draw_ntn_links(elev, dist, 2.0e9, rng)
    assert np.all(pl + clutter >= fspl_db(dist, 2.0e9) - 1e-9)


def test_shadow_draws_independent_lag1():
    rng = np.random.default_rng(10)
    n = 10_000
    _, shadow, _, _ = _draw_ntn_links(
        np.full(n, 50.0), np.full(n, 25_000.0), 2.0e9, rng
    )
    lag1 = float(np.corrcoef(shadow[:-1], shadow[1:])[0, 1])
    assert abs(lag1) < 0.05


def test_rma_median_frozen_grid():
    pl_los, pl_nlos, pre_bp, p_los, clamped = rma_median_pathloss(
        RMA_GRID_D2D_M, 2.0e9
    )
    assert_allclose(pl_los, RMA_GRID_LOS_DB, atol=1e-9)
    assert_allclose(pl_nlos, RMA_GRID_NLOS_DB, atol=1e-9)
    assert np.array_equal(pre_bp, [True, True, True, True, False, False, False])
    assert not clamped.any()


def test_rma_near_field_follows_free_space():
    # at d2d = 10 m the LOS curve collapses to free space at the 3D separation
    pl_los, _, _, _, _ = rma_median_pathloss(10.0, 2.0e9)
    d3d = math.hypot(10.0, 30.0 - 1.5)
    assert abs(float(pl_los) - float(fspl_db(d3d, 2.0e9))) < 2.0


def test_rma_nlos_never_below_los():
    d2d = np.linspace(10.0, 21_000.0, 500)
    pl_los, pl_nlos, _, _, _ = rma_median_pathloss(d2d, 2.0e9)
    assert np.all(pl_nlos >= pl_los)


def test_rma_median_monotone_in_distance():
    d2d = np.linspace(100.0, 9_000.0, 400)
    pl_los, pl_nlos, _, _, _ = rma_median_pathloss(d2d, 2.0e9)
    assert np.all(np.diff(pl_los) > 0.0)
    assert np.all(np.diff(pl_nlos) > 0.0)


def test_rma_breakpoint_location():
    # d_bp = 2 pi h_bs h_ut f / c with default 30 m / 1.5 m heights
    d_bp = 2.0 * math.pi * 30.0 * 1.5 * 2.0e9 / SPEED_OF_LIGHT_M_S
    assert_allclose(d_bp, 1886.2605197565135, rtol=1e-12)
    _, _, pre_bp, _, _ = rma_median_pathloss(
        np.array([d_bp - 1.0, d_bp + 1.0]), 2.0e9
    )
    assert np.array_equal(pre_bp, [True, False])


def test_rma_clamps_and_flags_out_of_window():
    _, _, _, _, clamped = rma_median_pathloss(np.array([5.0, 100.0, 25_000.0]), 2.0e9)
    assert np.array_equal(clamped, [True, False, True])
    # clamped distances evaluate at the window edge
    pl_lo, _, _, _, _ = rma_median_pathloss(5.0, 2.0e9)
    pl_min, _, _, _, _ = rma_median_pathloss(10.0, 2.0e9)
    assert_allclose(pl_lo, pl_min)


def test_rma_p_los_decays_with_distance():
    d2d = np.array([10.0, 100.0, 1_000.0, 10_000.0])
    _, _, _, p_los, _ = rma_median_pathloss(d2d, 2.0e9)
    assert p_los[0] == 1.0
    assert np.all(np.diff(p_los) < 0.0)
    assert_allclose(p_los[1], math.exp(-0.09))


def test_rma_pathloss_sampled():
    rng = np.random.default_rng(12)
    n = 5_000
    d2d = np.full(n, 2_000.0)
    pl, shadow, los, clamped = _draw_rma_links(d2d, 2.0e9, rng)
    pl_los, pl_nlos, _, p_los, _ = rma_median_pathloss(2_000.0, 2.0e9)
    assert np.all(np.isin(pl, [pl_los, pl_nlos]))
    assert np.all(pl[los] == pl_los)
    assert np.all(pl[~los] == pl_nlos)
    assert_allclose(los.mean(), p_los, atol=0.02)
    assert not clamped.any()


def test_rma_pathloss_shadowing_switch():
    rng = np.random.default_rng(13)
    _, shadow, _, _ = _draw_rma_links(np.full(50, 3_000.0), 2.0e9, rng, shadowing=False)
    assert np.all(shadow == 0.0)


def test_rma_pathloss_always_los_at_min_distance():
    rng = np.random.default_rng(14)
    _, _, los, _ = _draw_rma_links(np.full(500, 10.0), 2.0e9, rng)
    assert np.all(los)

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hibsim import geometry
from hibsim.config import TerrestrialConfig
from hibsim.geometry import (
    build_hibs_layout,
    build_tn_ring_layout,
    drop_users,
    ring_radius_for_isd,
    service_disk_radius_m,
)
from hibsim.network import platform_geometry

PLATFORM = np.array([0.0, 0.0, 20_000.0])
NADIR = np.array([0.0, 0.0, -1.0])


def _from_platform(ground_xyz, boresight=NADIR, platform=PLATFORM):
    """(slant_m, elevation_deg, off_axis_deg) of ground points, one each."""
    slant, elev, off_axis = platform_geometry(
        platform, [np.asarray(boresight, dtype=float)], np.atleast_2d(ground_xyz)
    )
    return slant, elev, off_axis[0]


def test_slant_distance_nadir_is_platform_height():
    assert _from_platform([0.0, 0.0, 0.0])[0][0] == 20_000.0


def test_slant_distance_oblique_value():
    # hypot(34641, 20000 - 1.5) hand-computed
    d = _from_platform([34_641.0, 0.0, 1.5])[0]
    assert_allclose(d, 39_999.236033329435, rtol=1e-12)


def test_elevation_angle_zenith():
    assert _from_platform([0.0, 0.0, 0.0])[1][0] == 90.0


def test_elevation_angle_45deg():
    assert_allclose(_from_platform([20_000.0, 0.0, 0.0])[1], 45.0)


def test_elevation_angle_15deg():
    # atan(20000 / 74640) — the operational floor of the platform geometry
    elev = _from_platform([74_640.0, 0.0, 0.0])[1]
    assert_allclose(elev, 15.0, atol=1e-3)


def test_elevation_strictly_decreasing_in_horizontal_distance():
    horiz = np.linspace(0.0, 80_000.0, 200)
    ground = np.stack([horiz, np.zeros(200), np.zeros(200)], axis=1)
    assert np.all(np.diff(_from_platform(ground)[1]) < 0.0)


def test_off_axis_angle_basic():
    origin = np.zeros(3)
    assert_allclose(_from_platform([0.0, 0.0, 2.0], [0.0, 0.0, 1.0], origin)[2], 0.0)
    assert_allclose(_from_platform([0.0, 3.0, 0.0], [1.0, 0.0, 0.0], origin)[2], 90.0)


def test_off_axis_angle_nadir_boresight_45deg_user():
    # user on the ground 20 km out, seen from the platform against a nadir boresight
    assert_allclose(_from_platform([20_000.0, 0.0, 0.0])[2], 45.0)


def test_service_disk_radius():
    # pi * r^2 = 4000 km^2 exactly
    r = service_disk_radius_m(4_000.0)
    assert_allclose(r, 35_682.482323055425, rtol=1e-12)
    assert_allclose(math.pi * r**2 / 1e6, 4_000.0, rtol=1e-12)
    with pytest.raises(ValueError, match="positive"):
        service_disk_radius_m(0.0)


def test_hibs_layout_default_19_beams():
    layout = build_hibs_layout()
    assert layout.beam_centers.shape == (19, 3)
    assert np.count_nonzero(layout.ring_index == 0) == 1
    assert np.count_nonzero(layout.ring_index == 1) == 6
    assert np.count_nonzero(layout.ring_index == 2) == 12
    assert_allclose(layout.beam_centers[0], [0.0, 0.0, 0.0])
    assert np.array_equal(layout.platform_position, [0.0, 0.0, 20_000.0])


def test_hibs_layout_nearest_neighbor_spacing():
    layout = build_hibs_layout(footprint_diameter_m=10_000.0)
    c = layout.beam_centers[:, :2]
    d = np.linalg.norm(c[:, None, :] - c[None, :, :], axis=-1)
    d[np.arange(19), np.arange(19)] = np.inf
    assert_allclose(d.min(axis=1), 10_000.0, rtol=1e-9)


def test_hibs_layout_ring_distances():
    layout = build_hibs_layout(footprint_diameter_m=10_000.0)
    r = np.hypot(layout.beam_centers[:, 0], layout.beam_centers[:, 1])
    assert_allclose(r[layout.ring_index == 1], 10_000.0, rtol=1e-9)
    # ring 2 alternates corner (2s) and edge-midpoint (s*sqrt(3)) cells
    r2 = np.sort(r[layout.ring_index == 2])
    assert_allclose(r2[:6], 10_000.0 * math.sqrt(3.0), rtol=1e-9)
    assert_allclose(r2[6:], 20_000.0, rtol=1e-9)


@pytest.mark.parametrize("n_rings", range(6))
def test_hibs_layout_orders_cells_by_ring_then_azimuth(n_rings):
    layout = build_hibs_layout(footprint_diameter_m=7_000.0, n_rings=n_rings)
    ring = layout.ring_index
    counts = np.bincount(ring, minlength=n_rings + 1)
    assert counts.tolist() == [1] + [6 * k for k in range(1, n_rings + 1)]
    x, y = layout.beam_centers[:, 0], layout.beam_centers[:, 1]
    azimuth = np.arctan2(y, x) % (2.0 * math.pi)
    key = list(zip(ring.tolist(), azimuth.tolist()))
    assert key == sorted(key)
    assert len(set(key)) == len(key)  # no ties inside a ring


def test_hibs_layout_zero_rings():
    layout = build_hibs_layout(n_rings=0)
    assert layout.beam_centers.shape == (1, 3)
    assert_allclose(layout.beam_centers, [[0.0, 0.0, 0.0]])


def test_hibs_layout_rejects_bad_inputs():
    with pytest.raises(ValueError, match="positive"):
        build_hibs_layout(footprint_diameter_m=0.0)
    with pytest.raises(ValueError, match="n_rings"):
        build_hibs_layout(n_rings=-1)


def test_hibs_layout_service_edge_slant_above_40km():
    layout = build_hibs_layout()
    edge = math.hypot(layout.service_radius_m, 20_000.0)
    assert_allclose(edge, 40_905.2508210763, rtol=1e-12)
    assert 40_000.0 < edge < 42_000.0


def test_hibs_layout_beam_centers_inside_service_disk():
    layout = build_hibs_layout()
    r = np.hypot(layout.beam_centers[:, 0], layout.beam_centers[:, 1])
    assert np.all(r <= layout.service_radius_m)


def test_hibs_layout_beam_center_elevation_floor():
    # every beam center sees the platform far above the 15 deg operational floor
    layout = build_hibs_layout()
    elev = _from_platform(layout.beam_centers, platform=layout.platform_position)[1]
    assert min(elev) >= 15.0


def test_ring_radius_for_isd():
    assert_allclose(ring_radius_for_isd(9_000.0, 12), 17_386.66487320323, rtol=1e-12)
    with pytest.raises(ValueError, match="positive"):
        ring_radius_for_isd(0.0, 12)
    with pytest.raises(ValueError, match="at least 2"):
        ring_radius_for_isd(9_000.0, 1)


def test_tn_ring_layout_counts_and_spacing():
    layout = build_tn_ring_layout(
        TerrestrialConfig(isd_m=9_000.0, n_sites=12, site_height_m=30.0)
    )
    assert layout.site_positions.shape == (12, 3)
    assert layout.sector_azimuth_deg.shape == (12, 3)
    assert_allclose(layout.site_positions[:, 2], 30.0)
    # adjacent sites one chord apart, within 1 m
    closed = np.vstack([layout.site_positions, layout.site_positions[:1]])
    gaps = np.linalg.norm(np.diff(closed[:, :2], axis=0), axis=1)
    assert np.all(np.abs(gaps - 9_000.0) < 1.0)


def test_tn_ring_layout_sector_azimuths():
    layout = build_tn_ring_layout(TerrestrialConfig(sector_rotation_deg=0.0))
    assert_allclose(layout.sector_azimuth_deg[0], [0.0, 120.0, 240.0])
    assert_allclose(layout.sector_azimuth_deg[1], [30.0, 150.0, 270.0])
    rotated = build_tn_ring_layout(TerrestrialConfig(sector_rotation_deg=60.0))
    assert_allclose(rotated.sector_azimuth_deg[0], [60.0, 180.0, 300.0])


def test_tn_ring_layout_rejects_bad_height():
    with pytest.raises(ValueError, match="height"):
        build_tn_ring_layout(TerrestrialConfig(site_height_m=0.0))


def test_drop_users_count_zero():
    rng = np.random.default_rng(1)
    assert drop_users(0, rng, 1_000.0).shape == (0, 3)


def test_drop_users_uniform_disk_mean_radius():
    # uniform on a disk: E[r] = 2R/3
    rng = np.random.default_rng(123)
    pts = drop_users(200_000, rng, 3_000.0)
    r = np.hypot(pts[:, 0], pts[:, 1])
    assert_allclose(r.mean(), 2_000.0, rtol=5e-3)
    assert r.max() <= 3_000.0
    assert_allclose(pts[:, 2], 1.5)


def test_drop_users_deterministic():
    a = drop_users(100, np.random.default_rng(42), 5_000.0)
    b = drop_users(100, np.random.default_rng(42), 5_000.0)
    assert np.array_equal(a, b)
    # the height sets z alone
    c = drop_users(100, np.random.default_rng(42), 5_000.0, height_m=2.0)
    assert np.array_equal(c[:, :2], a[:, :2])
    assert_allclose(c[:, 2], 2.0)


def test_drop_users_rejects_bad_region():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError, match="empty drop region"):
        drop_users(10, rng, 0.0)
    with pytest.raises(ValueError, match="count"):
        drop_users(-1, rng, 1_000.0)


def test_hex_walk_order_is_ring_then_azimuth():
    layout = build_hibs_layout()
    for ring in (1, 2):
        pts = layout.beam_centers[layout.ring_index == ring]
        az = np.arctan2(pts[:, 1], pts[:, 0]) % (2.0 * math.pi)
        assert np.all(np.diff(az) > 0.0)


def test_module_has_no_hidden_state():
    # two identical builds give identical arrays (pure construction)
    a = build_hibs_layout()
    b = build_hibs_layout()
    assert np.array_equal(a.beam_centers, b.beam_centers)
    assert np.array_equal(a.ring_index, b.ring_index)
    ta = geometry.build_tn_ring_layout(TerrestrialConfig())
    tb = geometry.build_tn_ring_layout(TerrestrialConfig())
    assert np.array_equal(ta.site_positions, tb.site_positions)
    assert np.array_equal(ta.sector_azimuth_deg, tb.sector_azimuth_deg)

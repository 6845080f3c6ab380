import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import brentq
from scipy.special import j0 as scipy_j0
from scipy.special import j1 as scipy_j1
from scipy.special import jn as scipy_jn

from hibsim.antenna import (
    _SERIES_TERMS,
    FIRST_J1_ZERO,
    U_3DB,
    AperturePattern,
    aperture_gain_dbi,
    bessel_j1,
    _main_lobe_terms,
    make_aperture_pattern,
    sector_gain_dbi,
    solve_ka_for_beamwidth,
)
from hibsim.config import TerrestrialConfig

# beamwidth of a 10 km footprint seen from 20 km: 2*atan(0.25)
DEFAULT_BEAMWIDTH_DEG = 2.0 * math.degrees(math.atan(0.25))

J1_GRID_X = np.array(
    [0.5, 1.0, 2.0, 3.831705970207512, 5.0, 10.0, 15.0, 25.0, 40.0, 50.0]
)
J1_GRID_VALUES = np.array(
    [
        2.4226845767487390e-01,
        4.4005058574493355e-01,
        5.7672480775687363e-01,
        0.0,
        -3.2757913759146512e-01,
        4.3472746168790891e-02,
        2.0510403860711690e-01,
        -1.2535024958080368e-01,
        1.2603831803758286e-01,
        -9.7511828125175726e-02,
    ]
)

GAIN_GRID_DEG = np.array(
    [0.0, 2.0, 5.0, 10.0, 14.036243467926477, 20.0, 30.0, 45.0, 60.0, 90.0]
)
GAIN_GRID_FLOOR_DBI = np.array(
    [
        16.500000000000000,
        16.441462038262884,
        16.132739260076466,
        15.009785045471471,
        13.503894784427835,
        10.101431879814069,
        -1.451658359538353,
        -13.500000000000000,
        -13.500000000000000,
        -13.500000000000000,
    ]
)
GAIN_GRID_BESSEL_DBI = np.array(
    [
        16.500000000000000,
        16.441462038262884,
        16.132739260076466,
        15.009785045471471,
        13.503894784427835,
        10.101431879814069,
        -1.451658359538353,
        -1.997627294940969,
        -2.670386583363083,
        -13.078390999505135,
    ]
)

SECTOR_AZ_GRID_DEG = np.array([0.0, 10.0, 32.5, 65.0, 100.0, 180.0, -65.0, 370.0])
SECTOR_AZ_GAIN_DBI = np.array(
    [
        17.000000000000000,
        16.715976331360945,
        14.000000000000000,
        5.000000000000000,
        -11.402366863905328,
        -13.000000000000000,
        5.000000000000000,
        16.715976331360945,
    ]
)
# the sector pattern is the terrestrial config section; the frozen sector
# grids were taken at a 6 deg downtilt
SECTOR = TerrestrialConfig(downtilt_deg=6.0)


def test_bessel_j1_against_scipy_reference():
    x = np.linspace(-50.0, 50.0, 10_001)
    assert_allclose(bessel_j1(x), scipy_j1(x), atol=1e-8, rtol=0.0)


def test_bessel_j1_frozen_grid():
    assert_allclose(bessel_j1(J1_GRID_X), J1_GRID_VALUES, atol=1e-10)


def test_bessel_j1_at_zero():
    assert bessel_j1(0.0) == 0.0


def test_bessel_j1_small_x_limit():
    # J1(x)/x -> 1/2
    for x in (1e-8, 1e-6, 1e-4):
        assert_allclose(bessel_j1(x) / x, 0.5, atol=1e-9)


def test_bessel_j1_first_zero():
    zero = brentq(bessel_j1, 3.0, 4.5, xtol=1e-12)
    assert abs(zero - 3.83171) <= 1e-4
    assert_allclose(zero, FIRST_J1_ZERO, atol=1e-10)


def test_bessel_j1_is_odd():
    x = np.linspace(0.1, 49.9, 500)
    assert_allclose(bessel_j1(-x), -bessel_j1(x), rtol=0.0, atol=0.0)


def test_bessel_j1_recurrence_with_independent_orders():
    # J0(x) + J2(x) = 2 J1(x) / x, with J0 and J2 from an independent source
    x = np.linspace(0.2, 50.0, 2_000)
    lhs = scipy_j0(x) + scipy_jn(2, x)
    assert_allclose(lhs, 2.0 * bessel_j1(x) / x, atol=1e-7, rtol=0.0)


def test_bessel_j1_scalar_and_shape_contract():
    assert isinstance(bessel_j1(1.0), float)
    out = bessel_j1(np.ones((3, 4)))
    assert out.shape == (3, 4)


def test_aperture_pattern_validation():
    with pytest.raises(ValueError, match="ka"):
        AperturePattern(peak_gain_dbi=16.5, ka=0.0, beamwidth_3db_deg=28.0)
    with pytest.raises(ValueError, match="floor_db"):
        AperturePattern(
            peak_gain_dbi=16.5, ka=6.6, beamwidth_3db_deg=28.0, floor_db=0.0
        )


def test_aperture_gain_peak_at_boresight():
    pattern = make_aperture_pattern(DEFAULT_BEAMWIDTH_DEG)
    assert aperture_gain_dbi(0.0, pattern) == 16.5


def test_aperture_gain_3db_point():
    pattern = make_aperture_pattern(DEFAULT_BEAMWIDTH_DEG)
    half = DEFAULT_BEAMWIDTH_DEG / 2.0
    assert_allclose(aperture_gain_dbi(half, pattern), 13.5, atol=0.05)


def test_aperture_gain_floor_at_first_null():
    pattern = make_aperture_pattern(DEFAULT_BEAMWIDTH_DEG)
    null_deg = math.degrees(math.asin(FIRST_J1_ZERO / pattern.ka))
    assert_allclose(aperture_gain_dbi(null_deg, pattern), -13.5, atol=1e-9)


def test_aperture_gain_frozen_grid_floor_mode():
    pattern = make_aperture_pattern(DEFAULT_BEAMWIDTH_DEG)
    assert_allclose(
        aperture_gain_dbi(GAIN_GRID_DEG, pattern), GAIN_GRID_FLOOR_DBI, atol=5e-10
    )


def test_aperture_gain_frozen_grid_bessel_mode():
    pattern = make_aperture_pattern(DEFAULT_BEAMWIDTH_DEG, bessel_sidelobes=True)
    assert_allclose(
        aperture_gain_dbi(GAIN_GRID_DEG, pattern), GAIN_GRID_BESSEL_DBI, atol=5e-10
    )


def test_aperture_gain_matches_independent_formula():
    # recompute 16.5 + 10 log10(4 (J1(u)/u)^2) with the scipy Bessel reference
    pattern = make_aperture_pattern(DEFAULT_BEAMWIDTH_DEG, bessel_sidelobes=True)
    theta = np.linspace(0.1, 90.0, 901)
    u = pattern.ka * np.sin(np.radians(theta))
    rel = (2.0 * scipy_j1(u) / u) ** 2
    expected = 16.5 + 10.0 * np.log10(np.maximum(rel, 1e-3))
    assert_allclose(aperture_gain_dbi(theta, pattern), expected, atol=1e-6)


def reference_aperture_gain_dbi(theta_off_axis_deg, pattern):
    """The aperture gain evaluated in full: u on every link, and J1 from the
    59-term series of `bessel_j1` on the main lobe (on every link with
    literal sidelobes), the past-null links set to 0 before the floor."""
    theta = np.asarray(theta_off_axis_deg, dtype=float)
    au = np.abs(pattern.ka * np.sin(np.radians(np.atleast_1d(theta))))
    rel = np.ones_like(au)
    big = au > 1e-9
    if not pattern.bessel_sidelobes:
        past_null = au > FIRST_J1_ZERO
        rel[past_null] = 0.0
        big &= ~past_null
    ub = au[big]
    rel[big] = (2.0 * bessel_j1(ub) / ub) ** 2
    floor_lin = 10.0 ** (-pattern.floor_db / 10.0)
    gain = pattern.peak_gain_dbi + 10.0 * np.log10(np.maximum(rel, floor_lin))
    return gain.reshape(theta.shape)


def _same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


@pytest.mark.parametrize("floor_db", [30.0, 60.0, 200.0])
@pytest.mark.parametrize("beamwidth_deg", [5.0, 28.07, 60.0])
def test_main_lobe_series_keeps_every_bit_on_a_dense_grid(beamwidth_deg, floor_db):
    # J1 summed to `_main_lobe_terms` on the main lobe only, and the floor
    # gain set as one constant, against the full evaluation; literal
    # sidelobes keep the 59-term series (on every tenth angle)
    theta = np.linspace(0.0, 90.0, 3_000_001)
    for sidelobes, grid in ((False, theta), (True, theta[::10])):
        pattern = make_aperture_pattern(
            beamwidth_deg, floor_db=floor_db, bessel_sidelobes=sidelobes
        )
        assert _same_bits(
            aperture_gain_dbi(grid, pattern), reference_aperture_gain_dbi(grid, pattern)
        )


@settings(max_examples=200, deadline=None, database=None)
@given(
    beamwidth_deg=st.sampled_from([5.0, 28.07, 60.0]) | st.floats(1.0, 90.0),
    floor_db=st.sampled_from([30.0, 60.0, 200.0]) | st.floats(0.5, 400.0),
    sidelobes=st.booleans(),
    theta=st.lists(st.floats(-200.0, 200.0), min_size=1, max_size=20),
    near_null=st.lists(st.floats(-1e-6, 1e-6), max_size=10),
)
def test_main_lobe_series_keeps_every_bit(
    beamwidth_deg, floor_db, sidelobes, theta, near_null
):
    # any angle, the first null to within a few ulps among them, at any floor
    pattern = make_aperture_pattern(
        beamwidth_deg, floor_db=floor_db, bessel_sidelobes=sidelobes
    )
    null_deg = math.degrees(math.asin(min(1.0, FIRST_J1_ZERO / pattern.ka)))
    theta = np.array(theta + [null_deg + d for d in near_null] + [180.0 - null_deg])
    assert _same_bits(
        aperture_gain_dbi(theta, pattern), reference_aperture_gain_dbi(theta, pattern)
    )
    for t in theta[:3]:
        assert _same_bits(aperture_gain_dbi(t, pattern), reference_aperture_gain_dbi(t, pattern))


def test_main_lobe_terms_follow_the_floor():
    # a deeper floor asks for more terms; past 2^-40 in amplitude (about
    # 240 dB) the sum's own rounding nears the floored level and the full
    # series is kept
    terms = [_main_lobe_terms(f) for f in (10.0, 30.0, 60.0, 200.0)]
    assert terms == sorted(terms) and terms[-1] < _SERIES_TERMS
    assert _main_lobe_terms(250.0) == _main_lobe_terms(1_000.0) == _SERIES_TERMS


def test_aperture_sidelobe_modes_differ_only_past_first_null():
    floor = make_aperture_pattern(DEFAULT_BEAMWIDTH_DEG)
    airy = make_aperture_pattern(DEFAULT_BEAMWIDTH_DEG, bessel_sidelobes=True)
    null_deg = math.degrees(math.asin(FIRST_J1_ZERO / floor.ka))
    inside = np.linspace(0.0, null_deg - 0.01, 200)
    assert_allclose(
        aperture_gain_dbi(inside, floor), aperture_gain_dbi(inside, airy)
    )
    # first Airy ring sits well above the -30 dB floor
    first_lobe_deg = math.degrees(math.asin(5.1356 / floor.ka))
    assert aperture_gain_dbi(first_lobe_deg, floor) == -13.5
    assert aperture_gain_dbi(first_lobe_deg, airy) > -2.0


def test_aperture_gain_even_in_theta():
    pattern = make_aperture_pattern(DEFAULT_BEAMWIDTH_DEG)
    theta = np.linspace(0.0, 90.0, 181)
    assert_allclose(
        aperture_gain_dbi(theta, pattern), aperture_gain_dbi(-theta, pattern)
    )


def test_aperture_gain_non_increasing_on_main_lobe():
    pattern = make_aperture_pattern(DEFAULT_BEAMWIDTH_DEG)
    null_deg = math.degrees(math.asin(FIRST_J1_ZERO / pattern.ka))
    theta = np.linspace(0.0, null_deg, 500)
    gain = aperture_gain_dbi(theta, pattern)
    assert np.all(np.diff(gain) <= 1e-12)


def test_aperture_gain_never_below_floor():
    pattern = make_aperture_pattern(DEFAULT_BEAMWIDTH_DEG, bessel_sidelobes=True)
    theta = np.linspace(-90.0, 90.0, 2_001)
    gain = aperture_gain_dbi(theta, pattern)
    assert np.all(gain >= 16.5 - 30.0 - 1e-12)
    assert np.all(gain <= 16.5 + 1e-12)


def test_solve_ka_default_beamwidth():
    assert_allclose(
        solve_ka_for_beamwidth(DEFAULT_BEAMWIDTH_DEG), 6.6495679627630535, atol=5e-3
    )


@pytest.mark.parametrize(
    "beamwidth_deg, ka",
    [
        (1.0, 184.8106986295795),
        (5.0, 36.97340149605032),
        (28.072486935852957, 6.6495679627630535),
        (60.0, 3.2255142441406255),
        (90.0, 2.2807829948456373),
    ],
)
def test_solve_ka_exact_values(beamwidth_deg, ka):
    # the values a -3 dB bisection on the main lobe (to 0.01 dB) returns
    assert solve_ka_for_beamwidth(beamwidth_deg) == ka


def test_u_3db_is_the_main_lobe_half_power_point():
    rel_db = 10.0 * math.log10((2.0 * scipy_j1(U_3DB) / U_3DB) ** 2)
    assert abs(rel_db + 3.0) <= 0.01
    assert 0.0 < U_3DB < FIRST_J1_ZERO


def test_solve_ka_monotone_in_beamwidth():
    widths = [2.0, 5.0, 10.0, 28.0, 50.0, 90.0]
    kas = [solve_ka_for_beamwidth(w) for w in widths]
    assert np.all(np.diff(kas) < 0.0)


def test_solve_ka_roundtrip():
    for bw in (3.0, 10.0, 28.072486935852957, 65.0):
        pattern = make_aperture_pattern(bw)
        assert_allclose(aperture_gain_dbi(bw / 2.0, pattern), 16.5 - 3.0, atol=0.02)


def test_solve_ka_rejects_out_of_range():
    with pytest.raises(ValueError, match=r"\[1, 90\]"):
        solve_ka_for_beamwidth(0.5)
    with pytest.raises(ValueError, match=r"\[1, 90\]"):
        solve_ka_for_beamwidth(91.0)


def test_sector_gain_boresight_peak():
    pattern = SECTOR
    assert sector_gain_dbi(0.0, pattern.downtilt_deg, pattern) == 17.0


def test_sector_gain_hpbw_edges_minus_12db():
    pattern = SECTOR
    assert_allclose(sector_gain_dbi(65.0, pattern.downtilt_deg, pattern), 5.0)
    assert_allclose(sector_gain_dbi(-65.0, pattern.downtilt_deg, pattern), 5.0)
    # vertical cut: one half-power beamwidth off the tilt
    assert_allclose(
        sector_gain_dbi(0.0, pattern.downtilt_deg + 10.0, pattern), 5.0
    )


def test_sector_gain_back_lobe_cap():
    pattern = SECTOR
    assert_allclose(sector_gain_dbi(180.0, pattern.downtilt_deg, pattern), -13.0)


def test_sector_gain_azimuth_wrap():
    pattern = SECTOR
    assert_allclose(
        sector_gain_dbi(370.0, pattern.downtilt_deg, pattern),
        sector_gain_dbi(10.0, pattern.downtilt_deg, pattern),
    )


def test_sector_gain_wrap_matches_float_remainder():
    # the shift-by-360 wrap must give the bits of (az + 180) % 360 - 180,
    # inside site_geometry's (-540, 180] range, at its edges, and beyond
    pattern = SECTOR
    edges = [-540.0, -360.0, -180.0, 0.0, -0.0, 180.0, 360.0, 539.999]
    az = np.concatenate(
        [
            np.random.default_rng(3).uniform(-540.0, 180.0, 100_000),
            edges,
            np.nextafter(edges, np.inf),
            np.nextafter(edges, -np.inf),
        ]
    )
    el = np.full(az.shape, 3.0)
    wrapped = (az + 180.0) % 360.0 - 180.0
    a_h = np.minimum(12.0 * (wrapped / pattern.h_hpbw_deg) ** 2, pattern.front_back_db)
    a_v = np.minimum(12.0 * ((el - pattern.downtilt_deg) / pattern.v_hpbw_deg) ** 2, pattern.sla_db)
    want = pattern.peak_gain_dbi - np.minimum(a_h + a_v, pattern.front_back_db)
    assert np.array_equal(sector_gain_dbi(az, el, pattern), want)
    far = np.array([900.0, -1000.0, 3600.5])  # outside the shift's range
    assert np.array_equal(
        sector_gain_dbi(far, 3.0, pattern),
        sector_gain_dbi((far + 180.0) % 360.0 - 180.0, 3.0, pattern),
    )


def test_sector_gain_frozen_azimuth_grid():
    assert_allclose(
        sector_gain_dbi(SECTOR_AZ_GRID_DEG, 6.0, SECTOR),
        SECTOR_AZ_GAIN_DBI,
        atol=5e-10,
    )


def test_sector_gain_frozen_depression_grid():
    dep = np.array([6.0, 1.0, 11.0, -4.0, 26.0, 90.0])
    assert_allclose(
        sector_gain_dbi(0.0, dep, SECTOR),
        [17.0, 14.0, 14.0, 5.0, -13.0, -13.0],
        atol=5e-10,
    )


def test_sector_gain_bounded_everywhere():
    pattern = SECTOR
    rng = np.random.default_rng(11)
    az = rng.uniform(-360.0, 360.0, size=5_000)
    dep = rng.uniform(-90.0, 90.0, size=5_000)
    gain = sector_gain_dbi(az, dep, pattern)
    assert np.all(gain >= 17.0 - 30.0 - 1e-12)
    assert np.all(gain <= 17.0 + 1e-12)


def test_sector_gain_symmetric_in_azimuth():
    pattern = SECTOR
    az = np.linspace(0.0, 180.0, 361)
    assert_allclose(
        sector_gain_dbi(az, 6.0, pattern), sector_gain_dbi(-az, 6.0, pattern)
    )

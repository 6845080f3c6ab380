"""Antenna gain patterns: circular-aperture beams and 3-sector macro panels.

The aperture beam follows the classic Airy form G(theta) ~ |2 J1(u)/u|^2 with
u = k*a*sin(theta); the sector pattern is the parabolic azimuth/elevation
attenuation model of TR 36.873 table 7.1-1, read from the scenario's
terrestrial config section.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import TerrestrialConfig

# Hankel asymptotic coefficients a_k for J1, a_k = a_{k-1} * (4 - (2k-1)^2) / (8k).
_J1_P = (1.0, 0.1171875, -0.144195556640625, 0.6765925884246826, -6.883914268109947)
_J1_Q = (0.375, -0.1025390625, 0.2775764465332031, -1.993531733751297)
_SERIES_CUTOFF = 20.0
_SERIES_TERMS = 59  # |term_60| < 1e-20 * J1 scale at x = 20

FIRST_J1_ZERO = 3.8317059702075125  # u at the edge of the aperture main lobe
# u where the main lobe |2 J1(u)/u|^2 is 3 dB down (within 0.01 dB), whatever
# the aperture size
U_3DB = 1.6127571220703125
# Every Airy sidelobe lies at least this far below the peak: the first, the
# highest, is 17.57 dB down.
_SIDELOBE_DB = 17.5


def bessel_j1(x):
    """Bessel function of the first kind, order one.

    Power series for |x| <= 20, Hankel asymptotic expansion beyond; absolute
    error stays below 1e-8 across |x| <= 50 (checked against an independent
    reference in the tests). Vectorized; scalar in, scalar out.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    ax = np.abs(np.atleast_1d(arr))
    out = np.empty_like(ax)

    small = ax <= _SERIES_CUTOFF
    if np.any(small):
        out[small] = _j1_series(ax[small], _SERIES_TERMS)

    if np.any(~small):
        xl = ax[~small]
        z = 1.0 / (xl * xl)
        p = _J1_P[0] + z * (_J1_P[1] + z * (_J1_P[2] + z * (_J1_P[3] + z * _J1_P[4])))
        q = (_J1_Q[0] + z * (_J1_Q[1] + z * (_J1_Q[2] + z * _J1_Q[3]))) / xl
        chi = xl - 0.75 * math.pi
        out[~small] = np.sqrt(2.0 / (math.pi * xl)) * (
            p * np.cos(chi) - q * np.sin(chi)
        )

    out = np.where(np.atleast_1d(arr) < 0.0, -out, out)  # J1 is odd
    return float(out[0]) if scalar else out.reshape(arr.shape)


def _j1_series(x: np.ndarray, n_terms: int) -> np.ndarray:
    """J1 by its power series, sum over k = 0..n_terms of
    (x/2) (-(x/2)^2)^k / (k! (k+1)!), each term from the last, summed in
    order; plain summation suffices for |x| <= 20."""
    half = 0.5 * x
    neg_q = -half * half
    term = half.copy()
    total = half.copy()
    for k in range(1, n_terms + 1):
        term *= neg_q / (k * (k + 1.0))
        total += term
    return total


def _main_lobe_terms(floor_db: float) -> int:
    """Series terms after which no term changes a bit of J1(u) on the
    aperture main lobe, 0 < u <= `FIRST_J1_ZERO`, wherever the gain lies
    above a floor `floor_db` below the peak.

    There q = (u/2)^2 <= 3.67 < 4, so past k = 1 the terms shrink, each
    at most (u/2) c_k with c_k = 4^k / (k! (k+1)!). Where |2 J1(u)/u| >= A/2,
    A = 10^(-floor_db/20) the floor's amplitude, the sum is at least
    (u/2) A/4 in size, and a term below (u/2) A 2^-58 lies below a quarter
    of its spacing, which leaves its bits unchanged: so the sum stops
    before the first k with c_k below A 2^-58. Elsewhere the sum, full or
    cut, lies below the floor, which sets the gain. The sum's own rounding,
    about (u/2) 2^-45, must stay below (u/2) A/4: below A = 2^-40 (about
    240 dB) the full series is kept.
    """
    amp = 10.0 ** (-floor_db / 20.0)
    if amp < 2.0**-40:
        return _SERIES_TERMS
    c = (4.0**k / (math.factorial(k) * math.factorial(k + 1)) for k in range(1, 61))
    return min(next(k for k, c_k in enumerate(c) if c_k < amp * 2.0**-58), _SERIES_TERMS)


@dataclass(frozen=True)
class AperturePattern:
    """Axially symmetric aperture beam.

    `ka` is the normalized aperture radius (wavenumber * radius) that sets the
    beamwidth; gain never drops more than `floor_db` below the peak (sidelobe
    floor standing in for everything the Airy nulls would otherwise zero out).
    By default only the main lobe is rendered and everything past the first
    null sits on that floor — a tapered-illumination stand-in, since literal
    uniform-disc sidelobes (first peak only 17.6 dB down) badly overstate the
    off-axis radiation of a practical beam. Set `bessel_sidelobes` to keep the
    full Airy ring structure instead.
    """

    peak_gain_dbi: float
    ka: float
    beamwidth_3db_deg: float
    floor_db: float = 30.0
    bessel_sidelobes: bool = False

    def __post_init__(self):
        if self.ka <= 0.0:
            raise ValueError("ka must be positive")
        if self.floor_db <= 0.0:
            raise ValueError("floor_db must be positive")


def aperture_gain_dbi(theta_off_axis_deg, pattern: AperturePattern):
    """Gain (dBi) of an aperture beam at the given off-axis angle(s).

    Relative pattern 10*log10(|2 J1(u)/u|^2), u = ka*sin(theta), clamped at
    peak - floor_db; past the first null the clamp is the whole story unless
    the pattern asks for literal sidelobes. Symmetric in theta; exact peak at
    boresight.

    Without literal sidelobes every link past the null takes the floor
    gain, one constant per call, and sin, J1 and log10 run on the main
    lobe only: angles plainly past the null are told by the angle itself,
    and J1 sums `_main_lobe_terms` of its series. Every gain has the bits
    of the full evaluation, which `bessel_sidelobes` keeps.
    """
    theta = np.asarray(theta_off_axis_deg, dtype=float)
    scalar = theta.ndim == 0
    flat = np.atleast_1d(theta).reshape(-1)
    floor_lin = 10.0 ** (-pattern.floor_db / 10.0)
    floor_gain = pattern.peak_gain_dbi + 10.0 * np.log10(np.full(1, floor_lin))
    gain = np.full(flat.shape, floor_gain[0])
    # the u past which the gain is floored, and the angles past it with a
    # margin far above the rounding of u: |theta| in (lo, 180 - lo)
    u_floor = math.inf if pattern.bessel_sidelobes else FIRST_J1_ZERO
    s_floor = u_floor / pattern.ka * (1.0 + 1e-9)
    lo = math.degrees(math.asin(s_floor)) if s_floor < 1.0 else 90.0
    a = np.abs(flat)
    links = np.flatnonzero(~((a > lo) & (a < 180.0 - lo)))
    au = np.abs(pattern.ka * np.sin(np.radians(flat[links])))
    lobe = ~(au > u_floor)
    links, au = links[lobe], au[lobe]
    rel = np.ones_like(au)
    big = au > 1e-9
    ub = au[big]
    lobe_terms = _main_lobe_terms(pattern.floor_db)
    j1 = bessel_j1(ub) if pattern.bessel_sidelobes else _j1_series(ub, lobe_terms)
    rel[big] = (2.0 * j1 / ub) ** 2
    gain[links] = pattern.peak_gain_dbi + 10.0 * np.log10(np.maximum(rel, floor_lin))
    return float(gain[0]) if scalar else gain.reshape(theta.shape)


def aperture_gain_range_dbi(off_axis_deg, pattern: AperturePattern) -> np.ndarray:
    """(greatest, least) gain (dBi) of an aperture beam over intervals of
    off-axis angle: `off_axis_deg` (2, ...) holds each interval's least and
    greatest angle, within [0, 90] degrees.

    The main lobe falls with the angle, so the greatest gain is the gain at
    the least angle and the least gain the gain at the greatest. Where the
    interval reaches past the first null, the least is the floor clamp, and
    under `bessel_sidelobes` the greatest is at least the first sidelobe's
    level (`_SIDELOBE_DB` down, capped by the floor).
    """
    gain = aperture_gain_dbi(off_axis_deg, pattern)
    past_null = pattern.ka * np.sin(np.radians(off_axis_deg[1])) >= FIRST_J1_ZERO
    gain[1, past_null] = pattern.peak_gain_dbi - pattern.floor_db
    if pattern.bessel_sidelobes:
        sidelobe = pattern.peak_gain_dbi - min(_SIDELOBE_DB, pattern.floor_db)
        gain[0, past_null] = np.maximum(gain[0, past_null], sidelobe)
    return gain


def solve_ka_for_beamwidth(beamwidth_3db_deg: float) -> float:
    """Normalized aperture radius whose pattern is 3 dB down at half the
    given beamwidth: the main lobe's -3 dB argument `U_3DB` over the sine of
    the half beamwidth."""
    if not 1.0 <= beamwidth_3db_deg <= 90.0:
        raise ValueError("3 dB beamwidth must lie in [1, 90] degrees")
    return U_3DB / math.sin(math.radians(0.5 * beamwidth_3db_deg))


def make_aperture_pattern(
    beamwidth_3db_deg: float,
    peak_gain_dbi: float = 16.5,
    floor_db: float = 30.0,
    bessel_sidelobes: bool = False,
) -> AperturePattern:
    return AperturePattern(
        peak_gain_dbi=peak_gain_dbi,
        ka=solve_ka_for_beamwidth(beamwidth_3db_deg),
        beamwidth_3db_deg=beamwidth_3db_deg,
        floor_db=floor_db,
        bessel_sidelobes=bessel_sidelobes,
    )


def sector_gain_dbi(az_off_deg, depression_deg, pattern: TerrestrialConfig):
    """Gain (dBi) of a macro sector: the parabolic pattern of TR 36.873
    table 7.1-1, single element, no array.

    `pattern` is the scenario's terrestrial section, whose six sector keys
    are the pattern read here: peak gain, horizontal and vertical half-power
    beamwidths, front-to-back ratio (A_max, which also caps the combined
    attenuation), vertical sidelobe limit and downtilt (positive = boresight
    below the horizon). `az_off_deg` is azimuth relative to boresight
    (wrapped to [-180, 180]); `depression_deg` is the link's angle below the
    horizontal at the antenna, positive downward, matched against the
    downtilt.
    """
    az = np.asarray(az_off_deg, dtype=float)
    el = np.asarray(depression_deg, dtype=float)
    # one buffer of the links' shape carries the azimuth through to the gain
    g = np.empty(np.broadcast_shapes(az.shape, el.shape))
    np.add(az, 180.0, out=g)
    if g.size and g.min() >= -360.0 and g.max() < 720.0:
        # one shift by 360 gives the same bits as % on this range (fmod is
        # exact there), at a fraction of the cost of the float remainder
        below, above = g < 0.0, g >= 360.0
        np.add(g, 360.0, out=g, where=below)
        np.subtract(g, 360.0, out=g, where=above)
    else:
        np.remainder(g, 360.0, out=g)
    g -= 180.0
    g /= pattern.h_hpbw_deg
    np.square(g, out=g)
    g *= 12.0
    np.minimum(g, pattern.front_back_db, out=g)  # horizontal attenuation
    a_v = np.minimum(
        12.0 * ((el - pattern.downtilt_deg) / pattern.v_hpbw_deg) ** 2, pattern.sla_db
    )
    g += a_v
    np.minimum(g, pattern.front_back_db, out=g)  # combined attenuation
    np.subtract(pattern.peak_gain_dbi, g, out=g)
    return g[()]  # scalar in, scalar out

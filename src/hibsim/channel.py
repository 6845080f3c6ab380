"""Propagation models: free space, platform-to-ground rural, and TR 38.901 RMa.

Every public function returns dB quantities and leaves antenna gains out of
the pathloss itself; `network.coupling_loss_matrix` assembles the full links,
passing these functions the carrier frequency, UE height and parameters it
reads from the scenario config.
A link budget comes in two halves. `ntn_link_medians` and `rma_link_medians`
give the fading-free half, once per transmitter (a group of macro sites
in one call); `resolve_links` turns it into LOS states and shadowing from
draws the caller made, so the caller alone fixes which random numbers each
link consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import MIN_ELEVATION_DEG, NtnParams, RmaParams

SPEED_OF_LIGHT_M_S = 299_792_458.0


def fspl_db(distance_m, frequency_hz):
    """Free-space pathloss 20*log10(4*pi*d*f/c), rejecting the near field."""
    d = np.asarray(distance_m, dtype=float)
    f = np.asarray(frequency_hz, dtype=float)
    if np.any(d < 1.0):
        raise ValueError("free-space model needs distance >= 1 m")
    if np.any(f <= 0.0):
        raise ValueError("frequency must be positive")
    return 20.0 * np.log10(4.0 * math.pi * d * f / SPEED_OF_LIGHT_M_S)


def noise_power_dbm(
    bandwidth_hz: float, noise_figure_db: float, thermal_dbm_hz: float = -174.0
) -> float:
    """Receiver noise floor over the given bandwidth."""
    if bandwidth_hz <= 0.0:
        raise ValueError("bandwidth must be positive")
    return thermal_dbm_hz + 10.0 * math.log10(bandwidth_hz) + noise_figure_db


@dataclass(frozen=True)
class LinkMedians:
    """Fading-free half of the links from one transmitter: every field
    broadcasts to the links' shape.

    A link is LOS when its uniform draw falls below `p_los`, so a `p_los` of
    1 makes it LOS whatever the draw. LOS links take `pl_los_db` and
    `sigma_los_db`; NLOS links take `pl_nlos_db`, `sigma_nlos_db` and, kept
    apart from the pathloss, the extra `clutter_db`.
    """

    pl_los_db: np.ndarray
    pl_nlos_db: np.ndarray
    clutter_db: np.ndarray | float
    p_los: np.ndarray
    sigma_los_db: np.ndarray | float
    sigma_nlos_db: float


def ntn_link_medians(
    elevation_deg,
    distance_m,
    frequency_hz: float,
    params: NtnParams = NtnParams(),
) -> LinkMedians:
    """Platform-to-ground medians: free space at the slant range in both
    states, plus elevation-dependent clutter on NLOS links.

    Elevations outside [10, 90] degrees are rejected: the LOS table does not
    extrapolate. Under `los_only` every link has p_los 1 and no clutter.
    """
    elev = np.asarray(elevation_deg, dtype=float)
    if np.any(elev < MIN_ELEVATION_DEG - 1e-9) or np.any(elev > 90.0 + 1e-9):
        raise ValueError("elevation must lie in [10, 90] degrees")
    pl = fspl_db(distance_m, frequency_hz)
    # a p_los of ones keeps the receivers' shape, so the LOS mask keeps the
    # links' shape
    return LinkMedians(
        pl_los_db=pl,
        pl_nlos_db=pl,
        clutter_db=0.0 if params.los_only else params.clutter_db(elev),
        p_los=np.ones_like(elev) if params.los_only else params.p_los(elev),
        sigma_los_db=params.sigma_los_db,
        sigma_nlos_db=params.sigma_nlos_db,
    )


def resolve_links(medians: LinkMedians, uniform, normal):
    """Links from their medians and draws: (pathloss, shadow, clutter, los).

    `uniform` holds the LOS draws in [0, 1), `normal` the unit shadowing
    draws, or None for no shadowing. The pathloss is a fresh array of the
    links' shape, so a caller may sum the other terms into it. Shadow and
    clutter come as arrays, or as the float 0.0 where they are zero on every
    link (no shadowing; no clutter model); the clutter is zero on LOS links.
    """
    los = uniform < medians.p_los
    pl = np.where(los, medians.pl_los_db, medians.pl_nlos_db)
    if not np.any(medians.clutter_db):
        clutter = 0.0
    else:
        clutter = np.where(los, 0.0, medians.clutter_db)
    if normal is None:
        shadow = 0.0
    else:
        shadow = np.where(los, medians.sigma_los_db, medians.sigma_nlos_db)
        shadow *= normal
    return pl, shadow, clutter, los


def _rma_pl1_db(d3d_m, log_d3d, f_ghz, h_m):
    """RMa LOS sub-breakpoint curve; `log_d3d` is log10(d3d_m), `h_m` the
    average building height."""
    a = min(0.03 * h_m**1.72, 10.0)
    b = min(0.044 * h_m**1.72, 14.77)
    return (
        20.0 * np.log10(40.0 * math.pi * d3d_m * f_ghz / 3.0)
        + a * log_d3d
        - b
        + 0.002 * math.log10(h_m) * d3d_m
    )


def rma_median_pathloss(
    d2d_m,
    frequency_hz: float,
    h_bs_m: float = 30.0,
    h_ut_m: float = 1.5,
    params: RmaParams = RmaParams(),
):
    """Fading-free RMa curves: (pl_los, pl_nlos, pre_breakpoint, p_los, clamped).

    `pl_nlos` is already max(LOS curve, NLOS formula) as the model requires.
    2D distances outside [min_d2d, max_d2d] are clamped to the model window
    and flagged.
    """
    d2d = np.asarray(d2d_m, dtype=float)
    shape = d2d.shape
    d2d = np.atleast_1d(d2d)
    clamped = (d2d < params.min_d2d_m) | (d2d > params.max_d2d_m)
    d2d = np.clip(d2d, params.min_d2d_m, params.max_d2d_m)
    dz = h_bs_m - h_ut_m
    d3d = np.hypot(d2d, dz)
    f_ghz = frequency_hz / 1e9
    h = params.building_height_m

    d_bp = 2.0 * math.pi * h_bs_m * h_ut_m * frequency_hz / SPEED_OF_LIGHT_M_S
    d3d_bp = math.hypot(d_bp, dz)
    log_d3d = np.log10(d3d)
    # each side of the breakpoint is evaluated on its own links only
    pre_bp = d2d <= d_bp
    post_bp = ~pre_bp
    pl_los = np.empty_like(d3d)
    pl_los[pre_bp] = _rma_pl1_db(d3d[pre_bp], log_d3d[pre_bp], f_ghz, h)
    far = np.log10(d3d[post_bp] / d3d_bp)
    far *= 40.0
    far += _rma_pl1_db(d3d_bp, np.log10(d3d_bp), f_ghz, h)
    pl_los[post_bp] = far

    # the NLOS formula, its terms added left to right in place
    pl_nlos = log_d3d - 3.0
    pl_nlos *= 43.42 - 3.1 * math.log10(h_bs_m)
    pl_nlos += (
        161.04
        - 7.1 * math.log10(params.street_width_m)
        + 7.5 * math.log10(h)
        - (24.37 - 3.7 * (h / h_bs_m) ** 2) * math.log10(h_bs_m)
    )
    pl_nlos += 20.0 * math.log10(f_ghz)
    pl_nlos -= 3.2 * math.log10(11.75 * h_ut_m) ** 2 - 4.97
    np.maximum(pl_los, pl_nlos, out=pl_nlos)

    p_los = d2d - 10.0
    p_los /= -1000.0
    np.exp(p_los, out=p_los)
    p_los[d2d <= 10.0] = 1.0
    # scalar in, scalars out
    return tuple(x.reshape(shape)[()] for x in (pl_los, pl_nlos, pre_bp, p_los, clamped))


def rma_link_medians(
    d2d_m,
    frequency_hz: float,
    h_bs_m: float = 30.0,
    h_ut_m: float = 1.5,
    params: RmaParams = RmaParams(),
) -> LinkMedians:
    """TR 38.901 rural-macro medians: the `rma_median_pathloss` curves, with
    the LOS shadowing sigma switching at the breakpoint and no clutter."""
    pl_los, pl_nlos, pre_bp, p_los, _ = rma_median_pathloss(
        d2d_m, frequency_hz, h_bs_m, h_ut_m, params
    )
    return LinkMedians(
        pl_los_db=pl_los,
        pl_nlos_db=pl_nlos,
        clutter_db=0.0,
        p_los=p_los,
        sigma_los_db=np.where(
            pre_bp, params.sigma_los_near_db, params.sigma_los_far_db
        ),
        sigma_nlos_db=params.sigma_nlos_db,
    )

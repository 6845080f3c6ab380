"""Deployment geometry on a local flat-Earth frame.

All positions live in a right-handed east/north/up frame, in meters, with the
service-area center at the origin and z measured above ground. Distances of a
few tens of km at 20 km platform height keep flat-Earth errors well below the
channel-model uncertainty, so no Earth curvature correction is applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # config imports this module
    from .config import TerrestrialConfig


@dataclass(frozen=True)
class HibsLayout:
    """Platform position plus the hex grid of beam centers on the ground.

    Beam centers are ordered center first, then ring 1 (6 cells), ring 2
    (12 cells), each ring sorted by azimuth in [0, 2 pi) counterclockwise
    from +x. `ring_index[i]` gives the ring (0, 1, 2, ...) of beam i.
    """

    platform_position: np.ndarray = field(repr=False)  # (3,)
    beam_centers: np.ndarray = field(repr=False)  # (n_beams, 3), z = 0
    ring_index: np.ndarray = field(repr=False)  # (n_beams,) int
    service_radius_m: float


def service_disk_radius_m(service_area_km2: float) -> float:
    """Radius of a disk with the given area (km^2 in, m out)."""
    if service_area_km2 <= 0.0:
        raise ValueError("service area must be positive")
    return math.sqrt(service_area_km2 * 1e6 / math.pi)


def beamwidth_3db_deg(footprint_diameter_m: float, altitude_m: float) -> float:
    """3 dB beamwidth of a beam that, pointed straight down from the given
    altitude, lights a footprint of the given diameter."""
    return 2.0 * math.degrees(math.atan(0.5 * footprint_diameter_m / altitude_m))


def build_hibs_layout(
    footprint_diameter_m: float = 10_000.0,
    n_rings: int = 2,
    altitude_m: float = 20_000.0,
    service_area_km2: float = 4_000.0,
) -> HibsLayout:
    """Hexagonal multi-beam layout from a single platform over the area center.

    Adjacent beam centers sit one footprint diameter apart, so 2 rings give
    the 19-beam pattern with the outermost centers 2 diameters from nadir.
    """
    if footprint_diameter_m <= 0.0 or altitude_m <= 0.0:
        raise ValueError("footprint diameter and altitude must be positive")
    if n_rings < 0:
        raise ValueError("n_rings must be >= 0")
    s = footprint_diameter_m
    cells = []  # (ring, azimuth, x, y) of each axial cell (q, r) within n_rings
    for q in range(-n_rings, n_rings + 1):
        for r in range(-n_rings, n_rings + 1):
            ring = max(abs(q), abs(r), abs(q + r))
            if ring <= n_rings:
                x, y = s * (q + 0.5 * r), s * (math.sqrt(3.0) / 2.0) * r
                cells.append((ring, math.atan2(y, x) % (2.0 * math.pi), x, y))
    cells.sort()  # no two cells of a ring share an azimuth
    beam_centers = np.zeros((len(cells), 3))
    beam_centers[:, :2] = [(x, y) for _, _, x, y in cells]
    return HibsLayout(
        platform_position=np.array([0.0, 0.0, altitude_m]),
        beam_centers=beam_centers,
        ring_index=np.array([ring for ring, _, _, _ in cells], dtype=int),
        service_radius_m=service_disk_radius_m(service_area_km2),
    )


@dataclass(frozen=True)
class TerrestrialLayout:
    """Ring of 3-sector macro sites around the service-area center.

    `sector_azimuth_deg[i, k]` is the boresight azimuth (degrees CCW from
    +x) of sector k of site i.
    """

    site_positions: np.ndarray = field(repr=False)  # (n_sites, 3)
    sector_azimuth_deg: np.ndarray = field(repr=False)  # (n_sites, 3)
    ring_radius_m: float


def ring_radius_for_isd(isd_m: float, n_sites: int) -> float:
    """Radius at which `n_sites` sites, equally spaced on a circle, have the
    given chord distance between neighbors."""
    if isd_m <= 0.0:
        raise ValueError("inter-site distance must be positive")
    if n_sites < 2:
        raise ValueError("need at least 2 sites on a ring")
    return isd_m / (2.0 * math.sin(math.pi / n_sites))


def build_tn_ring_layout(t: TerrestrialConfig) -> TerrestrialLayout:
    """The terrestrial section's sites, equally spaced on one ring, three
    sectors per site.

    Sector boresights point at site_bearing + rotation + {0, 120, 240} deg,
    so with rotation 0 one sector of every site faces radially outward.
    """
    if t.site_height_m <= 0.0:
        raise ValueError("site height must be positive")
    radius = ring_radius_for_isd(t.isd_m, t.n_sites)
    bearings = 360.0 * np.arange(t.n_sites) / t.n_sites
    sites = np.zeros((t.n_sites, 3))
    sites[:, 0] = radius * np.cos(np.radians(bearings))
    sites[:, 1] = radius * np.sin(np.radians(bearings))
    sites[:, 2] = t.site_height_m
    az = (bearings[:, None] + t.sector_rotation_deg + np.array([0.0, 120.0, 240.0])) % 360.0
    return TerrestrialLayout(site_positions=sites, sector_azimuth_deg=az, ring_radius_m=radius)


def drop_users(
    count: int,
    rng: np.random.Generator,
    radius_m: float,
    height_m: float = 1.5,
) -> np.ndarray:
    """Uniform user positions on a disk, returned as (count, 3).

    Uniform in area: r = sqrt(U(0, radius^2)). A zero-area disk is rejected
    rather than silently returning duplicates.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if radius_m <= 0.0:
        raise ValueError(f"empty drop region: radius={radius_m}")
    r = np.sqrt(rng.uniform(0.0, radius_m**2, size=count))
    theta = rng.uniform(0.0, 2.0 * math.pi, size=count)
    out = np.empty((count, 3))
    out[:, 0] = r * np.cos(theta)
    out[:, 1] = r * np.sin(theta)
    out[:, 2] = height_m
    return out

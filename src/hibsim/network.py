"""Transmitters, user association, SINR, and the link-to-rate mapping.

A transmitter is one platform feeding its beams, or one macro site feeding
its sectors; each beam or sector is a cell, one downlink transmit port.
Coupling losses are computed as (n_cells, n_users) matrices so the same
matrix serves association, downlink SINR, and uplink scheduling. Each
physical transmitter is listed once and names the link-matrix row of each
of its cells, so its rows need not be consecutive: the overlay platform
holds row 0 and the rows after the macro sectors. Each drop or track
stream draws every row's LOS uniforms, in row order whatever the listing
order, then every row's shadow normals. The budgets then come the platform,
then site groups: consecutive macro sites that share one pattern and
height take one vectorized pass, a lone site being a group of one. The
link layer takes the scenario config whole and reads its constants from
it: the carrier frequency, the UE antenna gain and height, the platform and
RMa channel parameters, and whether shadowing is on.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import antenna, channel
from .antenna import AperturePattern
from .config import RateParams, ScenarioConfig, TerrestrialConfig


class Transmitter(NamedTuple):
    """One platform or macro site and its cells, one per `pointing` entry:
    unit beam boresights (n, 3) for a platform (an aperture pattern), sector
    boresight azimuths in degrees (n,) for a site (whose sector pattern is
    the scenario's terrestrial section). The cell of `pointing[i]` is row
    `rows[i]` of the link matrices."""

    position: np.ndarray  # (3,) antenna phase center
    pattern: AperturePattern | TerrestrialConfig
    pointing: np.ndarray
    rows: np.ndarray  # (n,) int


def platform_geometry(position: np.ndarray, boresights, rx_xyz: np.ndarray):
    """(slant_m, elevation_deg, off_axis_deg) from one platform to receivers;
    off-axis angles have one row per beam boresight (unit vectors)."""
    delta = rx_xyz - position
    slant = np.linalg.norm(delta, axis=1)
    horiz = np.hypot(delta[:, 0], delta[:, 1])
    elev = np.degrees(np.arctan2(-delta[:, 2], horiz))  # platform above receivers
    # one matrix-vector product per beam, so each angle is the same whatever
    # the beam count; a single receiver goes in twice, because numpy's
    # one-row product takes another BLAS path with other last bits
    rows = np.repeat(delta, 2, axis=0) if delta.shape[0] == 1 else delta
    cosang = np.stack([(rows @ b)[: delta.shape[0]] for b in boresights]) / slant
    off_axis = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
    return slant, elev, off_axis


def site_geometry(positions: np.ndarray, azimuths_deg: np.ndarray, rx_xyz: np.ndarray):
    """(d2d_m, az_off_deg, depression_deg) from k macro sites, positions
    (k, 3) with sector boresight azimuths (k, s), to n receivers: d2d and
    depression are (k, n), azimuth offsets (k, s, n)."""
    dx = rx_xyz[:, 0] - positions[:, 0, None]
    dy = rx_xyz[:, 1] - positions[:, 1, None]
    d2d = np.hypot(dx, dy)
    az_off = np.degrees(np.arctan2(dy, dx))[:, None] - azimuths_deg[..., None]
    depression = np.degrees(np.arctan2(positions[:, 2, None] - rx_xyz[:, 2], d2d))
    return d2d, az_off, depression


class TransmitterBudget(NamedTuple):
    """Deterministic half of the link budget from a group of transmitters."""

    medians: channel.LinkMedians  # fields broadcast to the gains' shape
    g_tx_dbi: np.ndarray  # (cells, receivers), or (sites, sectors, receivers)


def transmitter_budget(
    group, rx_xyz: np.ndarray, cfg: ScenarioConfig
) -> TransmitterBudget:
    """Deterministic half of the link budget from a group of transmitters:
    one platform, or macro sites that share one sector pattern, one height
    and one sector count. Geometry and pathloss medians come once per
    transmitter, and the gains of all the group's cells in one call, at the
    config's carrier frequency, channel parameters and UE height. A
    platform's gains are (beams, receivers); a site group's are (sites,
    sectors, receivers), its medians (sites, 1, receivers)."""
    f = cfg.carrier.frequency_hz
    tx = group[0]
    if isinstance(tx.pattern, AperturePattern):
        (tx,) = group
        slant, elev, off_axis = platform_geometry(tx.position, tx.pointing, rx_xyz)
        medians = channel.ntn_link_medians(elev, slant, f, cfg.channel.ntn)
        g_tx = antenna.aperture_gain_dbi(off_axis, tx.pattern)
    else:
        d2d, az_off, depression = site_geometry(
            np.array([t.position for t in group]),
            np.array([t.pointing for t in group]),
            rx_xyz,
        )
        medians = channel.rma_link_medians(
            d2d[:, None], f, tx.position[2], cfg.ue.height_m, cfg.channel.rma
        )
        g_tx = antenna.sector_gain_dbi(az_off, depression[:, None], tx.pattern)
    return TransmitterBudget(medians, g_tx)


def _draw_links(rng: np.random.Generator, uniform: np.ndarray, normal) -> None:
    """The draw order of one drop or track stream: every row's LOS uniforms
    in one generator call, then every row's shadow normals in one more (none
    when `normal` is None), each array filled in row-major order. A row
    holds one cell's draws for a drop's users, or one track's LOS threshold
    for a cell and its samples' innovations. An always-LOS cell (a platform
    beam under `los_only`, p_los 1) draws like any other: it is LOS
    whatever it draws. The arrays may be views, as a drop's columns of a
    block are: numpy writes `out=` only to contiguous arrays, so the draws
    come through a temporary."""
    for out, draw in ((uniform, rng.random), (normal, rng.standard_normal)):
        if out is not None:
            out[...] = draw(out.shape)


def _group_cell_limit(transmitters) -> int:
    """Most cells a site group may hold: as many as the largest transmitter,
    so a group's arrays stay the size of that one's. That is 6 sites of 3
    sectors beside the overlay's 19 beams, and one site where a platform
    serves from one beam."""
    return max(len(tx.rows) for tx in transmitters)


def _budget_groups(transmitters) -> list[list[Transmitter]]:
    """The transmitters in listing order as budget groups: each platform
    alone, and runs of consecutive macro sites that share one sector
    pattern, height and sector count, each holding at most
    `_group_cell_limit` cells (a lone site whatever the limit)."""
    limit = _group_cell_limit(transmitters)
    groups: list[list[Transmitter]] = []
    cells = 0
    for tx in transmitters:
        head = groups[-1][0] if groups else None
        if (
            head is not None
            and not isinstance(tx.pattern, AperturePattern)
            and tx.pattern == head.pattern
            and tx.position[2] == head.position[2]
            and len(tx.pointing) == len(head.pointing)
            and cells + len(tx.rows) <= limit
        ):
            groups[-1].append(tx)
            cells += len(tx.rows)
        else:
            groups.append([tx])
            cells = len(tx.rows)
    return groups


def _link_coupling(
    transmitters, rx_xyz: np.ndarray, uniform: np.ndarray, normal, cfg: ScenarioConfig
):
    """(rows, coupling) per budget group: the platform, then site groups
    (`_budget_groups`), in listing order. `rows`, an index array, holds the
    group's rows of the draws and link matrices.

    Each group's budget is resolved with its rows of the draws, reshaped to
    its gains' shape, into the coupling loss pl + shadow + clutter - g_tx -
    g_rx, summed in that order into the pathloss array, g_rx being the
    config's UE antenna gain. The draws may hold one column, a track's LOS
    thresholds, which broadcasts over the receivers. Each budget is dropped
    before the next one is computed.
    """
    for group in _budget_groups(transmitters):
        rows = np.concatenate([tx.rows for tx in group])
        budget = transmitter_budget(group, rx_xyz, cfg)
        shape = (*budget.g_tx_dbi.shape[:-1], -1)
        coupling, shadow, clutter, _ = channel.resolve_links(
            budget.medians,
            uniform[rows].reshape(shape),
            None if normal is None else normal[rows].reshape(shape),
        )
        # the zero terms come as the float 0.0; adding them changes no bit
        for term in (shadow, clutter):
            if np.ndim(term):
                coupling += term
        coupling -= budget.g_tx_dbi
        coupling -= cfg.ue.antenna_gain_dbi
        del budget, shadow, clutter
        yield rows, coupling.reshape(-1, coupling.shape[-1])


def coupling_loss_matrix(
    transmitters, users_xyz: np.ndarray, streams, cfg: ScenarioConfig
) -> np.ndarray:
    """(n_cells, n_users) coupling loss, LOS and shadowing i.i.d. per link.

    `streams` holds one (generator, user count) pair per drop, the users of
    the drops lying end to end. Each drop makes its `_draw_links` draws from
    its own generator into its columns, so a fixed seed reproduces a drop's
    columns bit for bit, whichever drops share the call. All draws are made
    first; the budgets then come the platform, then site groups. Shadowing is
    drawn only when the config's `channel.shadowing` is on.
    """
    n_users = users_xyz.shape[0]
    if sum(n for _, n in streams) != n_users:
        raise ValueError("stream user counts must add up to the users given")
    shape = (sum(len(tx.rows) for tx in transmitters), n_users)
    uniform = np.empty(shape)
    normal = np.empty(shape) if cfg.channel.shadowing else None
    lo = 0
    for rng, n in streams:
        cols = slice(lo, lo + n)
        _draw_links(rng, uniform[:, cols], None if normal is None else normal[:, cols])
        lo += n
    coupling = np.empty(shape)
    for rows, link in _link_coupling(transmitters, users_xyz, uniform, normal, cfg):
        coupling[rows] = link
    return coupling


def associate(coupling_db: np.ndarray) -> np.ndarray:
    """Serving cell per user: minimum coupling loss, lowest cell index on ties."""
    return np.argmin(coupling_db, axis=0)


def active_cells(serving: np.ndarray, n_cells: int) -> np.ndarray:
    """Boolean mask of cells with at least one associated user (only those
    transmit / schedule)."""
    return np.bincount(serving, minlength=n_cells) > 0


def _sum_over_cells(x: np.ndarray) -> np.ndarray:
    """Column sums of a (cells, users) matrix, adding the rows in cell order.

    numpy's own sum switches to pairwise summation when there is a single
    column, so its last bits would depend on how many users share the matrix.
    """
    total = x[0].copy()
    for row in x[1:]:
        total += row
    return total


def dl_sinr_db(
    coupling_db: np.ndarray,
    serving: np.ndarray,
    tx_power_dbm: np.ndarray,
    active: np.ndarray,
    noise_dbm: float,
) -> np.ndarray:
    """Downlink SINR per user with all active cells transmitting full power.

    `active` is one mask over the cells, or one column per user when users
    of several drops (each with its own active set) lie side by side.
    """
    idx = np.arange(serving.shape[0])
    active = np.broadcast_to(active.reshape(active.shape[0], -1), coupling_db.shape)
    if not np.all(active[serving, idx]):
        raise ValueError("serving cells must be active")
    rx_lin_mw = np.where(
        active, 10.0 ** ((tx_power_dbm[:, None] - coupling_db) / 10.0), 0.0
    )
    s = rx_lin_mw[serving, idx]
    interference = _sum_over_cells(rx_lin_mw) - s
    noise_mw = 10.0 ** (noise_dbm / 10.0)
    return 10.0 * np.log10(s / (interference + noise_mw))


def spectral_efficiency_bpshz(sinr_db, params: RateParams = RateParams()):
    """Attenuated-and-truncated Shannon bound, bps/Hz."""
    s = np.asarray(sinr_db, dtype=float)
    se = params.alpha * np.log2(1.0 + 10.0 ** (s / 10.0))
    return np.where(s < params.sinr_min_db, 0.0, np.minimum(se, params.se_max_bpshz))


def round_robin_throughput_bps(
    sinr_db: np.ndarray,
    serving: np.ndarray,
    n_cells: int,
    bandwidth_hz: float,
    params: RateParams = RateParams(),
):
    """Full-buffer round robin: each user gets an equal time share of its cell.

    Returns (cell_bps, user_bps, users_per_cell); cell throughput is the sum
    of its users' rates, cells with no users carry zero.
    """
    counts = np.bincount(serving, minlength=n_cells)
    se = spectral_efficiency_bpshz(sinr_db, params)
    user_bps = bandwidth_hz * se / counts[serving]
    cell_bps = np.bincount(serving, weights=user_bps, minlength=n_cells)
    return cell_bps, user_bps, counts

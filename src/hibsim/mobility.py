"""Straight-line mobility with A3 handovers between the overlay layers.

Users drive radial lines through the area center at constant speed: inbound
users spawn in the outer terrestrial annulus heading for the center, outbound
users spawn near the center heading out. Tracks park at their destination
(the center core, or just past the site ring) so nobody wanders off the
modeled coverage and picks up rim artifacts.

The A3 rule compares received powers per measurement period. By default the
decision signal is the long-term level — median channel plus the track's
LOS state — which makes handover locations trace the geometry of the two
layers. The "shadowed" signal adds distance-correlated (AR(1)) shadowing on
top; with shadow swings several times the hysteresis, handovers then fire
all over the contest band in alternating pairs (ping-pong), and the mean
positions of the two directions collapse onto each other. LOS state per
(user, cell) comes from one uniform threshold held for the whole track, so
it flips only where the LOS probability itself moves — redrawing it every
step would chop the track into fast LOS/NLOS noise that no time-to-trigger
filter is meant to survive.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import engine, network
from .config import ScenarioConfig
from .engine import _MOBILITY, Scenario, build_combined_scenario, derive_rng
from .network import CellKind

TN_TO_HIBS = "tn_to_hibs"
HIBS_TO_TN = "hibs_to_tn"

# Inbound tracks park on reaching this distance from the center: the task
# ("drive into the platform-only zone") is complete there.
CENTER_PARK_RADIUS_M = 500.0


@dataclass(frozen=True)
class HandoverEvent:
    """One cross-layer handover: where and when the A3 trigger fired."""

    time_s: float
    user_id: int
    from_cell_id: int
    to_cell_id: int
    x_m: float
    y_m: float
    direction: str  # TN_TO_HIBS or HIBS_TO_TN


@dataclass
class MobilityResult:
    events: list[HandoverEvent]
    n_users: int
    a3_offset_db: float
    sim_duration_s: float
    seed: int

    def distances_m(self, direction: str) -> np.ndarray:
        return np.array(
            [math.hypot(e.x_m, e.y_m) for e in self.events if e.direction == direction]
        )


def _consecutive_needed(time_to_trigger_s: float, period_s: float) -> int:
    """Measurements the A3 condition must span: smallest k with
    (k - 1) * period >= time_to_trigger."""
    return max(2, math.ceil(time_to_trigger_s / period_s + 1.0 - 1e-9))


def _first_sustained(cond: np.ndarray, k: int) -> int:
    """Index of the first measurement ending a run of k consecutive True, or
    -1. Runs must lie wholly inside `cond` (the trigger clock resets at the
    segment start)."""
    if cond.size < k:
        return -1
    c = np.cumsum(cond.astype(np.int64))
    window = c[k - 1 :] - np.concatenate(([0], c[:-k]))
    hits = np.flatnonzero(window == k)
    return int(hits[0]) + k - 1 if hits.size else -1


def _track_rx_power_dbm(
    scenario: Scenario,
    pos_xyz: np.ndarray,
    rng: np.random.Generator,
    rho: float,
    shadowed: bool,
) -> np.ndarray:
    """Received DL power tx - coupling, (T, n_cells), along one track.

    The draws follow `network._draw_links`: per cell in id order, one LOS
    threshold (none when the cell is always LOS), then (shadowed only) T
    AR(1) innovations — one track stream reproduces the track
    exactly, and the LOS pattern is identical across the two decision
    signals. The coupling comes one transmitter at a time, as for drops.
    """
    cfg = scenario.cfg
    cells = scenario.cells
    n_c, n_t = scenario.n_cells, pos_xyz.shape[0]
    threshold = np.zeros((n_c, 1))
    unit = np.empty((n_c, n_t)) if shadowed and cfg.channel.shadowing else None
    network._draw_links(rng, cells, cfg.channel.ntn, threshold, unit)
    if unit is not None:
        from scipy.signal import lfilter  # costly import, needed here only

        # unit AR(1) shadowing, filtered in place one cell at a time
        unit[:, 1:] *= math.sqrt(max(1.0 - rho * rho, 0.0))
        for row in unit:
            row[:] = lfilter([1.0], [1.0, -rho], row)
    rx = np.empty((n_t, n_c))  # row per sample: the A3 scans run along rows
    for rows, coupling in network._link_coupling(
        cells,
        pos_xyz,
        threshold,
        unit,
        cfg.carrier.frequency_hz,
        cfg.ue.antenna_gain_dbi,
        cfg.channel.ntn,
        cfg.channel.rma,
        cfg.ue.height_m,
    ):
        np.subtract(scenario.tx_power_dbm[rows, None], coupling, out=coupling)
        rx[:, rows] = coupling.T
    return rx


def _best_two(rx: np.ndarray):
    """Per sample of a (T, n_cells) track: (best, best cell, runner-up,
    runner-up cell), ties to the lowest cell index as argmax breaks them.
    The best cells are masked in place for the second scan, then restored."""
    t = np.arange(rx.shape[0])
    best_cell = np.argmax(rx, axis=1)
    best = rx[t, best_cell]
    rx[t, best_cell] = -np.inf
    second_cell = np.argmax(rx, axis=1)
    second = rx[t, second_cell]
    rx[t, best_cell] = best
    return best, best_cell, second, second_cell


def _track_events(
    scenario: Scenario, seed: int, offset_db: float, track: tuple[int, int]
) -> list[HandoverEvent]:
    """Cross-layer handovers along one track, keyed (direction, index):
    direction 0 is the index-th inbound track, 1 the index-th outbound. The
    key, not the track's position among all tracks, picks its stream, so
    adding tracks of one direction leaves the other direction's alone."""
    m = scenario.cfg.mobility
    outbound, index = track
    u = index + m.n_inbound if outbound else index  # user id in the output
    ring_m = next(
        math.hypot(c.tx_position[0], c.tx_position[1])
        for c in scenario.cells
        if c.kind is CellKind.TN_SECTOR
    )
    period = m.measurement_period_s
    times = np.arange(int(math.floor(m.sim_duration_s / period)) + 1) * period
    rng = derive_rng(seed, _MOBILITY, outbound, index)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    if not outbound:
        r0 = ring_m * rng.uniform(m.tn_spawn_near, m.tn_spawn_far)
        heading = phi + math.pi  # straight at (and through) the center
    else:
        r0 = m.hibs_spawn_radius_m * math.sqrt(rng.uniform())
        heading = phi  # radially outward
    pos = np.empty((times.size, 3))
    pos[:, 0] = r0 * math.cos(phi) + m.speed_mps * times * math.cos(heading)
    pos[:, 1] = r0 * math.sin(phi) + m.speed_mps * times * math.sin(heading)
    pos[:, 2] = scenario.cfg.ue.height_m
    r_t = np.hypot(pos[:, 0], pos[:, 1])
    arrived = np.flatnonzero(
        r_t > ring_m + m.outbound_stop_margin_m
        if outbound
        else r_t < CENTER_PARK_RADIUS_M
    )
    if arrived.size:
        pos = pos[: arrived[0] + 1]
    rho = math.exp(-m.speed_mps * period / m.shadow_decorrelation_m)
    shadowed = m.decision_signal == "shadowed"
    rx = _track_rx_power_dbm(scenario, pos, rng, rho, shadowed)

    # the strongest cell other than the serving one is the runner-up
    # where the serving cell is best, else the best
    best, best_cell, second, second_cell = _best_two(rx)
    k_need = _consecutive_needed(m.time_to_trigger_s, period)
    is_hibs = scenario.is_hibs  # cell ids are rows of scenario.cells
    events: list[HandoverEvent] = []
    serving = int(best_cell[0])
    start = 1
    while start < pos.shape[0]:
        is_best = best_cell[start:] == serving
        rival = np.where(is_best, second[start:], best[start:])
        cond = rival > rx[start:, serving] + offset_db
        rel = _first_sustained(cond, k_need)
        if rel < 0:
            break
        t_idx = start + rel
        new = int(second_cell[t_idx] if is_best[rel] else best_cell[t_idx])
        if is_hibs[new] != is_hibs[serving]:
            direction = TN_TO_HIBS if is_hibs[new] else HIBS_TO_TN
            x_m, y_m = float(pos[t_idx, 0]), float(pos[t_idx, 1])
            events.append(
                HandoverEvent(float(times[t_idx]), u, serving, new, x_m, y_m, direction)
            )
        serving = new
        start = t_idx + 1
    return events


def run_mobility(
    cfg: ScenarioConfig,
    seed: int = 1,
    threads: int = 1,
    a3_offset_db: float | None = None,
) -> MobilityResult:
    """A3 handover campaign over the combined overlay scenario.

    Returns every cross-layer handover event; intra-layer handovers update
    the serving cell silently. `a3_offset_db` overrides the config offset so
    hysteresis sweeps can reuse one config (and one seed: trajectories and
    channels are identical across offsets).
    """
    m = cfg.mobility
    offset = m.a3_offset_db if a3_offset_db is None else float(a3_offset_db)
    if m.sim_duration_s <= 0.0:
        raise ValueError("sim_duration_s must be positive")
    scenario = build_combined_scenario(cfg)
    tracks = [(0, i) for i in range(m.n_inbound)] + [(1, i) for i in range(m.n_outbound)]
    worker = functools.partial(_track_events, scenario, seed, offset)
    per_track = engine._map_ordered(worker, tracks, threads)
    return MobilityResult(
        events=[e for lst in per_track for e in lst],
        n_users=len(tracks),
        a3_offset_db=offset,
        sim_duration_s=m.sim_duration_s,
        seed=seed,
    )

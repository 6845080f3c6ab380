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

from . import channel, engine, geometry, network
from .antenna import AperturePattern
from .config import ScenarioConfig
from .engine import _MOBILITY, Scenario, build_combined_scenario, derive_rng

TN_TO_HIBS = "tn_to_hibs"
HIBS_TO_TN = "hibs_to_tn"

# Inbound tracks park on reaching this distance from the center: the task
# ("drive into the platform-only zone") is complete there.
CENTER_PARK_RADIUS_M = 500.0

# Macro sites are bounded, and skipped where they cannot reach the A3 rule's
# top two, on segments of this many track samples (853 m at the defaults).
SEGMENT_SAMPLES = 512
# A site's bound takes its least distance to a segment less this margin,
# and adds this slack, far above the rounding of the budget sums.
_DISTANCE_MARGIN_M = 1.0
_BOUND_SLACK_DB = 1e-6


@dataclass(frozen=True)
class HandoverEvent:
    """One cross-layer handover: where and when the A3 trigger fired. The
    cells are given by their link-matrix rows, the serving cell before and
    after."""

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


class _TrackPower:
    """Received DL power tx - coupling, `rx` (n_cells, T) in C order: one
    contiguous row of samples per cell, so a transmitter writes whole rows
    and the scans below read them. On the long-term signal each macro
    site's cells are left at -inf on the segments where the site cannot
    reach the top two (see `_track_rx_power_dbm`).

    `evaluated` (table entries, segments) records where each transmitter's
    cells hold their budgets. Every evaluated entry has the bits of a full
    evaluation: the budgets are elementwise over the samples, and each
    evaluation of a transmitter is one `network._link_coupling` call on the
    samples it covers. `fill` adds a cell's skipped samples for the A3 rule,
    which reads the serving cell's power after it leaves the top two.
    """

    def __init__(self, scenario: Scenario, table, pos_xyz, threshold, unit):
        self.cfg, self.tx_power_dbm = scenario.cfg, scenario.tx_power_dbm
        self.table, self.pos, self.threshold, self.unit = table, pos_xyz, threshold, unit
        n_t = pos_xyz.shape[0]
        self.starts = np.arange(0, n_t, SEGMENT_SAMPLES)
        self.rx = np.full((scenario.n_cells, n_t), -np.inf)
        self.tx_of_cell = np.empty(scenario.n_cells, dtype=np.int64)
        for i, tx in enumerate(table):
            self.tx_of_cell[tx.rows] = i
        self.evaluated = np.zeros((len(table), self.starts.size), dtype=bool)

    def evaluate(self, i: int, segments: np.ndarray) -> None:
        """Write table entry i's cells into `rx` on the segments of a mask
        they are not evaluated on yet, as a budget group of one. Only the
        long-term signal, which draws no `unit`, is evaluated on part of
        the track."""
        segments = segments & ~self.evaluated[i]
        if not segments.any():
            return
        self.evaluated[i] |= segments
        tx = self.table[i]
        samples = np.repeat(segments, SEGMENT_SAMPLES)[: len(self.pos)]
        # the whole track is read and written in place, without a gather
        samples = slice(None) if samples.all() else np.flatnonzero(samples)
        ((_, coupling),) = network._link_coupling(
            [tx], self.pos[samples], self.threshold, self.unit, self.cfg
        )
        for row, loss in zip(tx.rows.tolist(), coupling):
            self.rx[row, samples] = self.tx_power_dbm[row] - loss

    def fill(self, cell: int, start: int) -> None:
        """Evaluate the cell's transmitter on the segments it skips from the
        one holding sample `start` on."""
        self.evaluate(int(self.tx_of_cell[cell]), self.starts + SEGMENT_SAMPLES > start)

    def spans(self) -> list[tuple[int, int, int]]:
        """(row, start, stop) for every cell evaluated on some sample,
        ascending by row: the cell is -inf outside its samples start to
        stop, and the cells not listed on the whole track. Row 0, the
        platform's, spans the track."""
        n_t, spans = self.rx.shape[1], []
        for tx, evaluated in zip(self.table, self.evaluated):
            segments = np.flatnonzero(evaluated)
            if segments.size:
                start = int(segments[0]) * SEGMENT_SAMPLES
                stop = min(int(segments[-1] + 1) * SEGMENT_SAMPLES, n_t)
                spans += [(row, start, stop) for row in tx.rows.tolist()]
        return sorted(spans)

    def site_bounds(self, sites: list[int]) -> np.ndarray:
        """(sites, segments): an upper bound on the received power of every
        cell of each listed site on each segment.

        The bound is tx + peak gain + g_rx - PL at the site's least distance
        to the segment. PL is the RMa LOS curve where any of the site's LOS
        thresholds lies below p_los there, else the NLOS curve: both curves
        rise with distance and p_los falls, so no sample of the segment has
        a lower pathloss. It holds no shadowing: only the long-term signal
        is bounded.
        """
        cfg, rma = self.cfg, self.cfg.channel.rma
        sites_xy = np.array([self.table[i].position[:2] for i in sites])
        pl_los, pl_nlos, _, p_los, _ = channel.rma_median_pathloss(
            _least_distance_m(self.pos, sites_xy),  # clamped from below
            cfg.carrier.frequency_hz,
            cfg.terrestrial.site_height_m,
            cfg.ue.height_m,
            rma,
        )
        rows = [self.table[i].rows for i in sites]
        least_threshold = np.array([self.threshold[r].min() for r in rows])
        bound = np.where(least_threshold[:, None] < p_los, pl_los, pl_nlos)
        np.negative(bound, out=bound)
        peak = [
            self.tx_power_dbm[r].max() + self.table[i].pattern.peak_gain_dbi
            for i, r in zip(sites, rows)
        ]
        bound += np.array(peak)[:, None] + cfg.ue.antenna_gain_dbi + _BOUND_SLACK_DB
        return bound


def _least_distance_m(pos_xyz: np.ndarray, points_xy: np.ndarray) -> np.ndarray:
    """(points, segments): a lower bound on the 2D distance from each point
    to every sample of each segment of `SEGMENT_SAMPLES` samples. It is the
    distance to the segment's chord, from its first sample to its last, less
    the farthest any of its samples strays from the chord (zero on a
    straight track, up to rounding) and `_DISTANCE_MARGIN_M`."""
    n_t = pos_xyz.shape[0]
    n_seg = -(-n_t // SEGMENT_SAMPLES)
    # x and y by segment, the last segment padded with the last sample
    q = np.empty((2, n_seg * SEGMENT_SAMPLES))
    q[:, :n_t] = pos_xyz[:, :2].T
    q[:, n_t:] = pos_xyz[-1, :2, None]
    q = q.reshape(2, n_seg, SEGMENT_SAMPLES)
    a = q[..., 0].copy()
    ab = q[..., -1] - a
    ab2 = ab[0] * ab[0] + ab[1] * ab[1]
    inv = np.divide(1.0, ab2, out=np.zeros_like(ab2), where=ab2 > 0.0)
    q -= a[..., None]
    stray = _chord_distance(q, ab[..., None], inv[:, None]).max(axis=1)
    d2d = _chord_distance(points_xy.T[..., None] - a[:, None], ab[:, None], inv)
    d2d -= stray + _DISTANCE_MARGIN_M
    return d2d


def _chord_distance(d: np.ndarray, ab: np.ndarray, inv_ab2: np.ndarray) -> np.ndarray:
    """Distance from points to chords: `d` (2, ...) holds the points' x and
    y offsets from the chords' starts and is overwritten, `ab` the chords'
    x and y extents and `inv_ab2` 1 / |ab|^2 (0 for a chord of one point),
    all broadcasting."""
    t = d[0] * ab[0]
    t += d[1] * ab[1]
    t *= inv_ab2
    np.clip(t, 0.0, 1.0, out=t)
    d -= t * ab
    return np.hypot(d[0], d[1])


def _second_largest(rx: np.ndarray, rows) -> np.ndarray:
    """Per sample of an (n_cells, T) track: the second-largest value among
    the given cells (a tie with the largest counts twice), by a running top
    two over those rows alone, at a fraction of `_best_two`'s cost."""
    first = np.full(rx.shape[1], -np.inf)
    second, low = first.copy(), np.empty_like(first)
    for c in rows:
        np.minimum(first, rx[c], out=low)
        np.maximum(second, low, out=second)
        np.maximum(first, rx[c], out=first)
    return second


def _track_rx_power_dbm(
    scenario: Scenario,
    pos_xyz: np.ndarray,
    rng: np.random.Generator,
    rho: float,
    shadowed: bool,
) -> _TrackPower:
    """Received DL power tx - coupling, (n_cells, T), along one track,
    evaluated where it can reach the A3 rule's top two.

    Only the serving cells, rows 0 to n_cells - 1, are evaluated: the A3
    rule compares no other. The draws follow `network._draw_links`: one LOS
    threshold per cell in row order, then (shadowed only) T AR(1)
    innovations per cell — one track stream reproduces the track exactly,
    and the shadowed signal holds the long-term signal's LOS thresholds.
    All draws are made before any budget, so the pruning below changes no
    draw.

    The shadowed signal evaluates every transmitter on the whole track:
    shadow swings widen a site's bound until it skips next to nothing. On
    the long-term signal the platform is evaluated on the whole track, and
    each macro site is bounded from above on each segment of
    `SEGMENT_SAMPLES` samples (`_TrackPower.site_bounds`). The sites among
    the two highest bounds of any segment are evaluated on the whole track;
    L, a segment's least second-largest power among the cells evaluated so
    far, is then a lower bound on its runner-up. Every other site is
    evaluated, in one call, on the segments where its bound reaches L, and
    left at -inf on the rest: a skipped cell lies strictly below the
    runner-up, so the best cell, the runner-up and their ties are those of
    a full evaluation.
    """
    cfg = scenario.cfg
    n_c, n_t = scenario.n_cells, pos_xyz.shape[0]
    table = [
        tx._replace(pointing=tx.pointing[tx.rows < n_c], rows=tx.rows[tx.rows < n_c])
        for tx in scenario.transmitters
    ]
    threshold = np.empty((n_c, 1))
    unit = np.empty((n_c, n_t)) if shadowed and cfg.channel.shadowing else None
    network._draw_links(rng, threshold, unit)
    track = _TrackPower(scenario, table, pos_xyz, threshold, unit)
    whole = np.ones(track.starts.size, dtype=bool)
    if unit is not None:
        from scipy.signal import lfilter  # costly import, needed here only

        # unit AR(1) shadowing, filtered in place one cell at a time
        unit[:, 1:] *= math.sqrt(max(1.0 - rho * rho, 0.0))
        for row in unit:
            row[:] = lfilter([1.0], [1.0, -rho], row)
        for i in range(len(table)):
            track.evaluate(i, whole)
        return track
    sites = [i for i, tx in enumerate(table) if not isinstance(tx.pattern, AperturePattern)]
    bound = track.site_bounds(sites)
    top = {sites[s] for s in np.argsort(-bound, axis=0)[:2].ravel()}
    first = [i for i in range(len(table)) if i not in sites or i in top]
    for i in first:
        track.evaluate(i, whole)
    rows = np.concatenate([table[i].rows for i in first])
    floor = np.minimum.reduceat(_second_largest(track.rx, rows), track.starts)
    for s, i in enumerate(sites):
        if i not in top:
            track.evaluate(i, bound[s] >= floor)
    return track


def _best_two(rx: np.ndarray, spans):
    """Per sample of an (n_cells, T) track: (best, best cell, runner-up,
    runner-up cell), ties to the lowest cell index as `argmax` down the
    cells breaks them. `spans` lists (row, start, stop), ascending by row
    and from (0, 0, T), for every row that may hold a value above -inf;
    each is -inf outside its samples start to stop, and the rows not listed
    are not read. The best cells are masked in place for the second level
    (`_top`), then restored."""
    t = np.arange(rx.shape[1])
    best, best_cell = _top(rx, spans)
    rx[best_cell, t] = -np.inf
    second, second_cell = _top(rx, spans)
    rx[best_cell, t] = best
    return best, best_cell, second, second_cell


def _top(rx: np.ndarray, spans):
    """Per sample: the maximum down the rows of `rx`, read on `spans` as
    `_best_two` states, and the lowest row that holds it. The rows are
    scanned for their level from the highest down, a lower row overwriting
    a higher, and row 0 last on every sample: it holds the level of a
    sample where every row is -inf."""
    level = rx[0].copy()
    for c, a, b in spans[1:]:
        np.maximum(level[a:b], rx[c, a:b], out=level[a:b])
    cell = np.zeros(level.size, dtype=np.intp)
    for c, a, b in reversed(spans):
        np.copyto(cell[a:b], c, where=rx[c, a:b] == level[a:b])
    return level, cell


def _a3_trigger(best, best_cell, second, serving_rx, serving, start, offset_db, k):
    """The first sample from `start` on that ends k consecutive samples on
    which the strongest cell other than the serving one beats the serving
    cell by more than the offset, or -1. The samples are scanned in windows
    of doubling length, each overlapping the last by k - 1, so a trigger
    soon after `start` costs little however long the track."""
    n_t, lo, width = best.size, start, 64
    while True:
        hi = min(lo + width, n_t)
        is_best = best_cell[lo:hi] == serving
        rival = np.where(is_best, second[lo:hi], best[lo:hi])
        rel = _first_sustained(rival > serving_rx[lo:hi] + offset_db, k)
        if rel >= 0:
            return lo + rel
        if hi == n_t:
            return -1
        lo, width = max(start, hi - k + 1), 2 * width


def _track_events(
    scenario: Scenario, seed: int, offset_db: float, track: tuple[int, int]
) -> list[HandoverEvent]:
    """Cross-layer handovers along one track, keyed (direction, index):
    direction 0 is the index-th inbound track, 1 the index-th outbound. The
    key, not the track's position among all tracks, picks its stream, so
    adding tracks of one direction leaves the other direction's alone.

    The A3 rule reads the best cell, the runner-up and the serving cell.
    The first two come from the pruned received power as they would from a
    full evaluation. The serving cell may have left the top two, so each
    trigger search first evaluates the serving cell's site on the segments
    it skips from the search's start on (`_TrackPower.fill`)."""
    m = scenario.cfg.mobility
    outbound, index = track
    u = index + m.n_inbound if outbound else index  # user id in the output
    tn = scenario.cfg.terrestrial
    ring_m = geometry.ring_radius_for_isd(tn.isd_m, tn.n_sites)
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
    track = _track_rx_power_dbm(scenario, pos, rng, rho, shadowed)
    rx = track.rx

    # the strongest cell other than the serving one is the runner-up
    # where the serving cell is best, else the best
    best, best_cell, second, second_cell = _best_two(rx, track.spans())
    k_need = _consecutive_needed(m.time_to_trigger_s, period)
    is_hibs = scenario.ring >= 0  # cells are link-matrix rows
    events: list[HandoverEvent] = []
    serving = int(best_cell[0])
    start = 1
    while start < pos.shape[0]:
        track.fill(serving, start)
        t_idx = _a3_trigger(
            best, best_cell, second, rx[serving], serving, start, offset_db, k_need
        )
        if t_idx < 0:
            break
        is_best = best_cell[t_idx] == serving
        new = int(second_cell[t_idx] if is_best else best_cell[t_idx])
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
    channels are identical across offsets); a non-finite override raises
    ValueError before any track.
    """
    engine._require_integer("seed", seed, 0)
    m = cfg.mobility
    scenario = build_combined_scenario(cfg)
    offset = m.a3_offset_db if a3_offset_db is None else float(a3_offset_db)
    if not math.isfinite(offset):
        raise ValueError(f"a3_offset_db must be finite, got {offset!r}")
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

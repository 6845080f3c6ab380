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

from . import antenna, channel, engine, geometry, network
from .antenna import FIRST_J1_ZERO, AperturePattern
from .config import ScenarioConfig
from .engine import _MOBILITY, Scenario, build_combined_scenario, derive_rng

TN_TO_HIBS = "tn_to_hibs"
HIBS_TO_TN = "hibs_to_tn"

# Inbound tracks park on reaching this distance from the center: the task
# ("drive into the platform-only zone") is complete there.
CENTER_PARK_RADIUS_M = 500.0

# Cells are bounded, and their transmitters evaluated where the A3 loop
# pulls them, on segments of this many track samples (853 m at the
# defaults).
SEGMENT_SAMPLES = 512
# A cell's bounds take each segment's distances from its transmitter
# widened by this margin, far above the rounding by which a line's samples
# stray from its chords, and are widened by this slack, far above the
# rounding of the budget sums.
_DISTANCE_MARGIN_M = 1.0
_BOUND_SLACK_DB = 1e-6
# Every Airy sidelobe lies at least this far below the peak: the first, the
# highest, is 17.57 dB down.
_SIDELOBE_DB = 17.5
# Tracks run in blocks of this many consecutive track keys (`_track_block`),
# whatever the worker count.
TRACK_BLOCK = 16


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
    """Received DL power tx - coupling, `rx` (n_cells, T): one contiguous
    row of samples per cell, so a transmitter writes whole rows and the A3
    loop reads them. A cell is -inf on the segments of `SEGMENT_SAMPLES` samples
    where its transmitter is not evaluated. Track i of a `_TrackBlock`
    takes the block's table, the first T samples of its `rx` buffer, and
    its own columns of the block's `bound` and `floor`.

    `evaluated` (table entries, segments) records where each transmitter's
    cells hold their budgets. Every evaluated entry has the bits of a full
    evaluation: the budgets are elementwise over the samples, and each
    evaluation of a transmitter is one `network._link_coupling` call on the
    samples it covers. `bound` and `floor` (cells, segments) bound each
    cell's power on each segment from above and below, +inf and -inf where
    no bound is known; `pull` and `loud_runs` read them. `scanned` (cells,
    segments) marks where each cell, as the serving cell, has pulled its
    rivals (`rival`), and `runs` holds each serving cell's `loud_runs`: both
    at the one A3 offset a track's loop runs at.
    """

    def __init__(self, block: _TrackBlock, i: int, pos_xyz, threshold, unit):
        self.cfg, self.tx_power_dbm = block.cfg, block.tx_power_dbm
        self.table, self.tx_of_cell = block.table, block.tx_of_cell
        self.pos, self.threshold, self.unit = pos_xyz, threshold, unit
        self.starts = np.arange(0, pos_xyz.shape[0], SEGMENT_SAMPLES)
        self.rx = block.rx[:, : pos_xyz.shape[0]]
        columns = slice(block.first[i], block.first[i + 1])
        self.bound, self.floor = block.bound[:, columns], block.floor[:, columns]
        self.evaluated = np.zeros((len(self.table), self.starts.size), dtype=bool)
        self.scanned = np.zeros_like(self.bound, dtype=bool)
        self.runs: dict[int, list[tuple[int, int]]] = {}

    def clear(self) -> None:
        """Put `rx` back to -inf for the block's next track, on each
        transmitter's cells from its first evaluated segment to its last."""
        for tx, segments in zip(self.table, self.evaluated):
            hit = segments.nonzero()[0]
            if hit.size:
                span = slice(hit[0] * SEGMENT_SAMPLES, (hit[-1] + 1) * SEGMENT_SAMPLES)
                self.rx[tx.rows, span] = -np.inf

    def evaluate(self, i: int, segments: np.ndarray) -> None:
        """Write table entry i's cells into `rx`, as a budget group of one,
        on the span from the first to the last segment of a mask they are
        not evaluated on yet, and mark the span. A segment of the span
        evaluated before gets the same bits again: the budgets are
        elementwise. Only the long-term signal, which draws no `unit`, is
        evaluated on part of the track."""
        new = (segments > self.evaluated[i]).nonzero()[0]
        if not new.size:
            return
        self.evaluated[i, new[0] : new[-1] + 1] = True
        samples = slice(new[0] * SEGMENT_SAMPLES, (new[-1] + 1) * SEGMENT_SAMPLES)
        tx = self.table[i]
        ((_, coupling),) = network._link_coupling(
            [tx], self.pos[samples], self.threshold, self.unit, self.cfg
        )
        for row, loss in zip(tx.rows.tolist(), coupling):
            self.rx[row, samples] = self.tx_power_dbm[row] - loss

    def pull(self, level: np.ndarray) -> None:
        """Evaluate each transmitter on the segments where the bound of one
        of its cells reaches that segment's `level`: every cell left at -inf
        there lies strictly below the level on each of its samples. Once
        every transmitter is evaluated everywhere, as the shadowed signal's
        first pull leaves them, there is nothing to pull."""
        if self.evaluated.all():
            return
        reach = self.bound >= level
        for i in np.unique(self.tx_of_cell[reach.any(axis=1)]).tolist():
            self.evaluate(i, reach[self.table[i].rows].any(axis=0))

    def loud_runs(self, serving: int, offset_db: float) -> list[tuple[int, int]]:
        """Sample ranges [lo, hi) of the maximal runs of loud segments for
        the serving cell, computed once per serving cell. A segment is
        quiet where the serving cell's floor plus the offset reaches every
        other cell's bound: no cell beats the serving cell there by more
        than the offset on any sample. Every other segment is loud."""
        runs = self.runs.get(serving)
        if runs is None:
            others = np.delete(self.bound, serving, axis=0).max(axis=0, initial=-np.inf)
            loud = (others > self.floor[serving] + offset_db).astype(np.int8)
            edges = np.flatnonzero(np.diff(loud, prepend=0, append=0)) * SEGMENT_SAMPLES
            edges = np.minimum(edges, self.rx.shape[1]).tolist()
            runs = self.runs[serving] = list(zip(edges[::2], edges[1::2]))
        return runs

    def rival(self, serving: int, lo: int, hi: int, offset_db: float) -> np.ndarray:
        """The strongest cell other than the serving one, per sample from lo
        to hi, among the cells evaluated there.

        On each segment of those samples that the serving cell has not
        scanned yet, its transmitter is evaluated, then every transmitter pulled
        whose cells' bounds reach the serving cell's least power on the
        segment plus the offset. A cell that is not pulled lies strictly
        below the serving cell plus the offset, so on every sample where a
        full evaluation's rival beats the serving cell by more than the
        offset, the two rivals are the same and every cell tied with it is
        evaluated; on every other sample this rival does not beat it
        either."""
        first, stop = lo // SEGMENT_SAMPLES, -(-hi // SEGMENT_SAMPLES)
        new = np.zeros(self.starts.size, dtype=bool)
        new[first:stop] = ~self.scanned[serving, first:stop]
        if new.any():
            self.evaluate(int(self.tx_of_cell[serving]), new)
            least = np.minimum.reduceat(self.rx[serving], self.starts) + offset_db
            self.pull(np.where(new, least, np.inf))
            self.scanned[serving] |= new
        rival = self.rx[:serving, lo:hi].max(axis=0, initial=-np.inf)
        return np.maximum(rival, self.rx[serving + 1 :, lo:hi].max(axis=0, initial=-np.inf))


class _TrackBlock:
    """What consecutive tracks of `n_t` samples each share: the serving
    `table` (each transmitter with its serving rows only, 0 to n_cells - 1:
    the A3 rule compares no other) and each cell's entry in it,
    `tx_of_cell`; one `rx` buffer at -inf, as long as the longest track,
    that each track in turn takes and clears (`_TrackPower.clear`); and
    `bound` and `floor` (cells, segments of every track in order), track
    i's on columns `first[i]` to `first[i + 1]`, +inf and -inf.

    Given each track's `chords` (`_chords`) and LOS `thresholds` (n_cells,
    1), `bound` and `floor` take the greatest and least received power each
    macro sector and each platform beam pointing at nadir can take on each
    segment; other beams keep +inf and -inf. A track is a line, so every
    sample lies within e, `_DISTANCE_MARGIN_M`, of its segment's chord, and
    its distance from a transmitter lies between the chord's least distance
    less e and its farther end's distance plus e (`_reach`). Both widen by
    `_BOUND_SLACK_DB`, and hold no shadowing: only the long-term signal is
    bounded. Every track's segments are bounded in one pass, each against
    its own track's thresholds: the bounds are elementwise over segments,
    so each track gets the bits it would get alone."""

    def __init__(self, scenario: Scenario, n_t: list[int], chords: list, thresholds: list | None):
        self.cfg, self.tx_power_dbm = scenario.cfg, scenario.tx_power_dbm
        n_c = scenario.n_cells
        self.table = [
            tx._replace(pointing=tx.pointing[tx.rows < n_c], rows=tx.rows[tx.rows < n_c])
            for tx in scenario.transmitters
        ]
        self.tx_of_cell = np.empty(n_c, dtype=np.int64)
        for i, tx in enumerate(self.table):
            self.tx_of_cell[tx.rows] = i
        segments = [-(-n // SEGMENT_SAMPLES) for n in n_t]
        self.first = np.cumsum([0, *segments]).tolist()
        self.bound = np.full((n_c, self.first[-1]), np.inf)
        self.floor = -self.bound
        if thresholds is not None:
            chords = [np.concatenate(part, axis=-1) for part in zip(*chords)]  # track by track
            threshold = np.repeat(np.hstack(thresholds), segments, axis=1)
            for tx in self.table:
                if isinstance(tx.pattern, AperturePattern):
                    self._beam_bounds(tx, chords, threshold)
            sites = [tx for tx in self.table if not isinstance(tx.pattern, AperturePattern)]
            if sites:
                self._sector_bounds(sites, chords, threshold)
        self.rx = np.full((n_c, max(n_t)), -np.inf)  # after the bounds' temporaries

    def _sector_bounds(self, sites, chords, threshold) -> None:
        """Write the sites' sector rows of `bound` and `floor`.

        A sector's bound is tx + peak - a_h(delta) - PL + g_rx and its
        floor tx + peak - min(a_h(delta') + a_v, front_back) - PL' + g_rx.
        `delta` is the least azimuth offset from the sector's boresight to
        the arc of azimuths the segment's chord spans from the mast, less
        asin(e / D) for a chord D from the mast, and `delta'` the greatest
        offset plus asin(e / D): every sample lies within that angle of the
        arc. They are 0 and 180 where the chord passes within e of the
        mast. a_h is the pattern's horizontal attenuation; the vertical
        term is at its least, 0, in the bound, and at its greatest, `a_v`,
        in the floor: the larger at the depressions of the least and
        greatest distances, as its parabola is convex. PL is taken at the
        least distance and PL' at the greatest, each on the RMa LOS curve
        where the sector's LOS threshold lies below p_los there, else on
        the NLOS curve. Both curves rise with distance and p_los falls, so
        no sample has a lower pathloss than PL or a higher one than PL'.
        """
        cfg, tn = self.cfg, self.cfg.terrestrial
        _, ab, _, e = chords
        to_a, least, most = _reach(np.array([tx.position[:2] for tx in sites]), chords)
        az_a, az_b = (np.degrees(np.arctan2(v[1], v[0])) for v in (to_a, to_a + ab[:, None]))
        span = _wrapped(az_b - az_a)
        widen = np.degrees(np.arcsin(e / np.maximum(least + e, e)))
        widen[least <= 0.0] = 180.0
        boresight = np.array([tx.pointing for tx in sites])  # (sites, sectors)
        mid = np.abs(_wrapped(boresight[..., None] - (az_a + 0.5 * span)[:, None]))
        half = (0.5 * np.abs(span) + widen)[:, None]
        delta = np.stack([np.maximum(mid - half, 0.0), np.minimum(mid + half, 180.0)])
        a_h = np.minimum(12.0 * (delta / tn.h_hpbw_deg) ** 2, tn.front_back_db)
        reach = np.array([least, most])
        depression = np.degrees(
            np.arctan2(tn.site_height_m - cfg.ue.height_m, np.maximum(reach, 0.0))
        )
        a_v = np.minimum(12.0 * ((depression - tn.downtilt_deg) / tn.v_hpbw_deg) ** 2, tn.sla_db)
        a_h[1] = np.minimum(a_h[1] + a_v.max(axis=0)[:, None], tn.front_back_db)
        pl_los, pl_nlos, _, p_los, _ = channel.rma_median_pathloss(
            reach,  # clamped from below
            cfg.carrier.frequency_hz,
            tn.site_height_m,
            cfg.ue.height_m,
            cfg.channel.rma,
        )
        rows = np.array([tx.rows for tx in sites])
        los = threshold[rows] < p_los[:, :, None]
        pl = np.where(los, pl_los[:, :, None], pl_nlos[:, :, None])
        top = (self.tx_power_dbm[rows] + tn.peak_gain_dbi + cfg.ue.antenna_gain_dbi)[..., None]
        self.bound[rows] = top - a_h[0] - pl[0] + _BOUND_SLACK_DB
        self.floor[rows] = top - a_h[1] - pl[1] - _BOUND_SLACK_DB

    def _beam_bounds(self, tx, chords, threshold) -> None:
        """Write the rows of `bound` and `floor` of a platform's beams that
        point at nadir, from each segment's radial range about the nadir
        point: a beam's off-axis angle atan2(r, H - h_ue) and its slant
        rise with r.

        The bound takes the gain at the least angle, and free space at the
        least slant; the floor the gain at the greatest angle, and the
        greatest slant. Past the first null the floor takes the gain's
        clamp, and under `bessel_sidelobes` the bound at least the
        sidelobe peak. A link is surely LOS where its threshold lies below
        the least p_los over the segment's elevations, and surely NLOS
        where it lies at or above the greatest, the table's knots inside
        the interval counted, as the table need not be monotone. Clutter,
        linear in elevation, takes its least and greatest values at the
        ends of the interval, and 0 counts where a link may be LOS.
        """
        rows = tx.rows[np.all(tx.pointing == (0.0, 0.0, -1.0), axis=1)]
        if not rows.size:
            return
        cfg, ntn, pattern = self.cfg, self.cfg.channel.ntn, tx.pattern
        _, least, most = _reach(tx.position[None, :2], chords)
        r = np.maximum(np.concatenate([least, most]), 0.0)  # (2, segments)
        height = tx.position[2] - cfg.ue.height_m
        off_axis = np.degrees(np.arctan2(r, height))
        elevation = 90.0 - off_axis  # greatest, least
        pl = channel.fspl_db(np.hypot(r, height), cfg.carrier.frequency_hz)
        gain = antenna.aperture_gain_dbi(off_axis, pattern)
        past_null = pattern.ka * np.sin(np.radians(off_axis[1])) >= FIRST_J1_ZERO
        gain[1, past_null] = pattern.peak_gain_dbi - pattern.floor_db
        if pattern.bessel_sidelobes:
            sidelobe = pattern.peak_gain_dbi - min(_SIDELOBE_DB, pattern.floor_db)
            gain[0, past_null] = np.maximum(gain[0, past_null], sidelobe)
        if ntn.los_only:
            p_least = p_most = 1.0
        else:
            knots = np.array(ntn.p_los_table).T[..., None]  # (2, knots, 1)
            inside = (knots[0] > elevation[1]) & (knots[0] < elevation[0])
            p = ntn.p_los(elevation)
            p_least = np.minimum(p.min(axis=0), np.where(inside, knots[1], 1.0).min(axis=0))
            p_most = np.maximum(p.max(axis=0), np.where(inside, knots[1], 0.0).max(axis=0))
        threshold = threshold[rows]  # (beams, segments)
        los, nlos = threshold < p_least, threshold >= p_most  # surely, on every sample
        clutter = ntn.clutter_db(elevation)
        least = np.where(nlos, clutter.min(axis=0), np.minimum(clutter.min(axis=0), 0.0))
        most = np.where(nlos, clutter.max(axis=0), np.maximum(clutter.max(axis=0), 0.0))
        top = (self.tx_power_dbm[rows] + cfg.ue.antenna_gain_dbi)[:, None]
        self.bound[rows] = top + gain[0] - pl[0] - np.where(los, 0.0, least) + _BOUND_SLACK_DB
        self.floor[rows] = top + gain[1] - pl[1] - np.where(los, 0.0, most) - _BOUND_SLACK_DB


def _wrapped(deg: np.ndarray) -> np.ndarray:
    """Angles in degrees, wrapped to [-180, 180)."""
    return (deg + 180.0) % 360.0 - 180.0


def _chords(pos_xyz: np.ndarray):
    """(a, ab, inv_ab2, e) of the segments of `SEGMENT_SAMPLES` samples:
    each one's chord, from its first sample to its last, as its start and
    its extent (2, segments) in x and y, 1 / |ab|^2 (0 for a chord of one
    point, or one so short that this would overflow), and e (segments),
    `_DISTANCE_MARGIN_M`, which bounds how far a sample strays from its
    chord: a track is a line, whose samples lie on its chords up to
    rounding."""
    starts = np.arange(0, pos_xyz.shape[0], SEGMENT_SAMPLES)
    ends = np.minimum(starts + SEGMENT_SAMPLES, pos_xyz.shape[0]) - 1
    a = pos_xyz[starts, :2].T
    ab = pos_xyz[ends, :2].T - a
    ab2 = ab[0] * ab[0] + ab[1] * ab[1]
    inv = np.divide(1.0, ab2, out=np.zeros_like(ab2), where=ab2 > np.finfo(float).tiny)
    return a, ab, inv, np.full(starts.size, _DISTANCE_MARGIN_M)


def _reach(origins_xy: np.ndarray, chords):
    """(to_a, least, most) from origins (k, 2) to the segments of `_chords`:
    each chord's start seen from each origin (2, k, segments), and bounds
    on the distance from each origin to every sample of each segment (k,
    segments): the chord's least distance less e and its farther end's
    distance plus e, where every sample lies within e of its chord."""
    a, ab, inv_ab2, e = chords
    to_a = a[:, None] - origins_xy.T[..., None]
    least = _chord_distance(-to_a, ab[:, None], inv_ab2) - e
    most = np.maximum(np.hypot(*to_a), np.hypot(*(to_a + ab[:, None]))) + e
    return to_a, least, most


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


def _track_rx_power_dbm(
    scenario: Scenario,
    pos_xyz: np.ndarray,
    rng: np.random.Generator,
    rho: float,
    shadowed: bool,
    block: _TrackBlock | None = None,
    i: int = 0,
) -> _TrackPower:
    """Received DL power tx - coupling, (n_cells, T), along one track: each
    transmitter where the A3 loop pulls it (`_TrackPower.rival`).

    Only the serving cells, rows 0 to n_cells - 1, are evaluated: the A3
    rule compares no other. The draws follow `network._draw_links`: one LOS
    threshold per cell in row order, then (shadowed only) T AR(1)
    innovations per cell — one track stream reproduces the track exactly,
    and the shadowed signal holds the long-term signal's LOS thresholds.
    All draws are made before any budget, so what is evaluated changes no
    draw.

    The track is track i of `block`, built for it, or else a block of its
    own. Nothing is evaluated up front. On the long-term signal each cell
    is bounded from above and below on each segment (`_TrackBlock`). The
    shadowed signal keeps no bounds, as shadow swings have none: its
    ceilings stay +inf, so the loop's first pull (`_a3_events`) reaches
    every level, +inf included, and evaluates every transmitter on the
    whole track; no segment is quiet, and later pulls find nothing left to
    evaluate.
    """
    n_c, n_t = scenario.n_cells, pos_xyz.shape[0]
    threshold = np.empty((n_c, 1))
    unit = np.empty((n_c, n_t)) if shadowed and scenario.cfg.channel.shadowing else None
    network._draw_links(rng, threshold, unit)
    if block is None:
        thresholds = [threshold] if unit is None else None  # the long-term signal's
        block = _TrackBlock(scenario, [n_t], [_chords(pos_xyz)], thresholds)
    track = _TrackPower(block, i, pos_xyz, threshold, unit)
    if unit is None:
        return track
    from scipy.signal import lfilter  # costly import, needed here only

    # unit AR(1) shadowing, filtered in place one cell at a time
    unit[:, 1:] *= math.sqrt(max(1.0 - rho * rho, 0.0))
    for row in unit:
        row[:] = lfilter([1.0], [1.0, -rho], row)
    return track


def _a3_trigger(
    track: _TrackPower, serving: int, start: int, offset_db: float, k: int, width: int
):
    """(sample, cell): the first sample from `start` on that ends k
    consecutive samples on which the strongest cell other than the serving
    one beats the serving cell by more than the offset, and that cell (the
    lowest row of a tie); or (-1, -1).

    No cell beats the serving cell on a quiet segment, so no run of k
    samples crosses one: only the runs of loud segments are scanned
    (`_TrackPower.loud_runs`), each from its start, or from `start`, on.
    A run is scanned in windows of doubling length, the first `width`
    long (k, if that is longer), each overlapping the last by k - 1, so a
    trigger soon after `start` costs little however long the track. Each
    window evaluates what it reads (`_TrackPower.rival`)."""
    rx = track.rx
    for lo, stop in track.loud_runs(serving, offset_db):
        lo, size = max(lo, start), max(width, k)
        while stop - lo >= k:
            hi = min(lo + size, stop)
            rival = track.rival(serving, lo, hi, offset_db)
            rel = _first_sustained(rival > rx[serving, lo:hi] + offset_db, k)
            if rel >= 0:
                others = rx[:, lo + rel].copy()
                others[serving] = -np.inf
                return lo + rel, int(np.argmax(others))
            lo, size = hi - k + 1, 2 * size
    return -1, -1


def _positions(cfg: ScenarioConfig, line, times: np.ndarray) -> np.ndarray:
    """(T, 3) positions at `times` on a line (x0, y0, cos, sin): from (x0,
    y0) at the mobility speed along (cos, sin), at UE height. Each sample
    is elementwise in its time, so a track rebuilt later has the same bits."""
    x0, y0, cos_h, sin_h = line
    pos = np.empty((times.size, 3))
    pos[:, 0] = x0 + cfg.mobility.speed_mps * times * cos_h
    pos[:, 1] = y0 + cfg.mobility.speed_mps * times * sin_h
    pos[:, 2] = cfg.ue.height_m
    return pos


def _track_line(scenario: Scenario, seed: int, key: tuple[int, int], times, ring_m: float):
    """(user, rng, line, pos) of one track, keyed (direction, index):
    direction 0 is the index-th inbound track, 1 the index-th outbound. The
    key, not the track's position among all tracks, picks its stream, so
    adding tracks of one direction leaves the other direction's alone. The
    stream draws the track's line (`_positions`) first; `pos` ends where
    the track parks, and `rng` is left for the track's link draws."""
    m = scenario.cfg.mobility
    outbound, index = key
    rng = derive_rng(seed, _MOBILITY, outbound, index)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    if not outbound:
        r0 = ring_m * rng.uniform(m.tn_spawn_near, m.tn_spawn_far)
        heading = phi + math.pi  # straight at (and through) the center
    else:
        r0 = m.hibs_spawn_radius_m * math.sqrt(rng.uniform())
        heading = phi  # radially outward
    line = (r0 * math.cos(phi), r0 * math.sin(phi), math.cos(heading), math.sin(heading))
    pos = _positions(scenario.cfg, line, times)
    r_t = np.hypot(pos[:, 0], pos[:, 1])
    arrived = np.flatnonzero(
        r_t > ring_m + m.outbound_stop_margin_m
        if outbound
        else r_t < CENTER_PARK_RADIUS_M
    )
    user = index + m.n_inbound if outbound else index  # user id in the output
    return user, rng, line, pos[: arrived[0] + 1] if arrived.size else pos


def _a3_events(
    track: _TrackPower, user: int, times, offset_db: float, k: int, is_hibs
) -> list[HandoverEvent]:
    """Cross-layer handovers of `user` along a built track.

    The A3 rule reads the serving cell and the strongest other cell. The
    first serving cell is the strongest at the first sample, found after
    pulling every cell whose bound reaches the greatest floor there (on the
    shadowed signal, every cell on the whole track); each trigger search
    then evaluates what it reads (`_a3_trigger`), and finds the sample and
    cell that a full evaluation would."""
    first = np.full(track.starts.size, np.inf)
    first[0] = track.floor[:, 0].max()
    track.pull(first)
    serving = int(np.argmax(track.rx[:, 0]))
    events: list[HandoverEvent] = []
    start, width = 1, SEGMENT_SAMPLES
    while start < track.pos.shape[0]:
        t_idx, new = _a3_trigger(track, serving, start, offset_db, k, width)
        if t_idx < 0:
            break
        if is_hibs[new] != is_hibs[serving]:
            direction = TN_TO_HIBS if is_hibs[new] else HIBS_TO_TN
            x_m, y_m = float(track.pos[t_idx, 0]), float(track.pos[t_idx, 1])
            events.append(
                HandoverEvent(float(times[t_idx]), user, serving, new, x_m, y_m, direction)
            )
        # the next search opens with a window as long as this one took
        serving, start, width = new, t_idx + 1, min(t_idx - start + 1, SEGMENT_SAMPLES)
    return events


def _track_block(
    scenario: Scenario, seed: int, offset_db: float, keys: list[tuple[int, int]]
) -> list[HandoverEvent]:
    """Cross-layer handovers along consecutive tracks (`_track_line`), in
    key order; each track gets the events it gets alone.

    The block builds its tracks' lines first and, on the long-term signal,
    bounds all of them in one pass (`_TrackBlock`). The bounds need each
    track's chords and LOS thresholds: the thresholds are read ahead and
    the stream put back, so each track makes all its draws, in stream
    order, in its turn. Then each track in turn rebuilds its positions,
    draws (`_track_rx_power_dbm`: a shadowed track holds its innovations
    while it runs only) and runs its A3 loop (`_a3_events`) in the block's
    `rx` buffer."""
    cfg, m = scenario.cfg, scenario.cfg.mobility
    ring_m = geometry.ring_radius_for_isd(cfg.terrestrial.isd_m, cfg.terrestrial.n_sites)
    period = m.measurement_period_s
    times = np.arange(int(math.floor(m.sim_duration_s / period)) + 1) * period
    shadowed = m.decision_signal == "shadowed"
    bounded = not (shadowed and cfg.channel.shadowing)
    lines, chords, thresholds = [], [], []
    for key in keys:
        user, rng, line, pos = _track_line(scenario, seed, key, times, ring_m)
        lines.append((user, rng, line, pos.shape[0]))
        if bounded:
            chords.append(_chords(pos))
            thresholds.append(np.empty((scenario.n_cells, 1)))
            state = rng.bit_generator.state
            network._draw_links(rng, thresholds[-1], None)
            rng.bit_generator.state = state  # the track draws them in its turn
    block = _TrackBlock(
        scenario, [n_t for *_, n_t in lines], chords, thresholds if bounded else None
    )
    rho = math.exp(-m.speed_mps * period / m.shadow_decorrelation_m)
    k_need = _consecutive_needed(m.time_to_trigger_s, period)
    is_hibs = scenario.ring >= 0  # cells are link-matrix rows
    events: list[HandoverEvent] = []
    for i, (user, rng, line, n_t) in enumerate(lines):
        pos = _positions(cfg, line, times[:n_t])
        track = _track_rx_power_dbm(scenario, pos, rng, rho, shadowed, block, i)
        events += _a3_events(track, user, times, offset_db, k_need, is_hibs)
        if i + 1 < len(lines):
            track.clear()  # the next track starts from -inf
            del track, pos  # and draws with none of this one's arrays alive
    return events


def _track_events(
    scenario: Scenario, seed: int, offset_db: float, track: tuple[int, int]
) -> list[HandoverEvent]:
    """Cross-layer handovers along one track (`_track_line`): a block of
    one (`_track_block`)."""
    return _track_block(scenario, seed, offset_db, [track])


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
    channels are identical across offsets). A non-finite override, or a
    str, bytes or bool one, which `float` would read as a number, raises
    ValueError before any track, as the config key rejects them.
    """
    engine._require_integer("seed", seed, 0)
    m = cfg.mobility
    scenario = build_combined_scenario(cfg)
    offset = m.a3_offset_db if a3_offset_db is None else a3_offset_db
    if isinstance(offset, (str, bytes, bool, np.bool_)) or not math.isfinite(offset):
        raise ValueError(f"a3_offset_db must be a finite number, got {offset!r}")
    offset = float(offset)
    tracks = [(0, i) for i in range(m.n_inbound)] + [(1, i) for i in range(m.n_outbound)]
    blocks = [tracks[i : i + TRACK_BLOCK] for i in range(0, len(tracks), TRACK_BLOCK)]
    worker = functools.partial(_track_block, scenario, seed, offset)
    per_block = engine._map_ordered(worker, blocks, threads)
    return MobilityResult(
        events=[e for lst in per_block for e in lst],
        n_users=len(tracks),
        a3_offset_db=offset,
        sim_duration_s=m.sim_duration_s,
        seed=seed,
    )

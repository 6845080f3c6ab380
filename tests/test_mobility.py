import copy
import dataclasses
import functools
import math
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.signal import lfilter

import hibsim
from hibsim import antenna, channel, cli, engine, mobility, network
from hibsim.antenna import AperturePattern
from hibsim.config import ConfigError, config_from_dict
from hibsim.mobility import (
    CENTER_PARK_RADIUS_M,
    HIBS_TO_TN,
    TN_TO_HIBS,
    HandoverEvent,
    MobilityResult,
    _a3_trigger,
    _consecutive_needed,
    _first_sustained,
    _track_rx_power_dbm,
    run_mobility,
)

RING_RADIUS_M = 17386.66487320323


def _cfg(**mobility):
    return config_from_dict({"mobility": mobility})


@pytest.mark.parametrize(
    "ttt, period, k",
    [
        (0.64, 0.2, 5),  # defaults: 4 periods span 0.8 s >= 0.64 s
        (0.4, 0.2, 3),
        (0.2, 0.2, 2),
        (0.05, 0.1, 2),  # never fewer than two measurements
        (1.0, 0.5, 3),
    ],
)
def test_consecutive_needed(ttt, period, k):
    assert _consecutive_needed(ttt, period) == k


def test_first_sustained_basic():
    t, f = True, False
    assert _first_sustained(np.array([t, t, t]), 2) == 1
    assert _first_sustained(np.array([f, f, t, t]), 2) == 3
    assert _first_sustained(np.array([t, f, t, t, f, t, t, t]), 3) == 7
    assert _first_sustained(np.array([t, t]), 2) == 1


def test_first_sustained_no_run():
    assert _first_sustained(np.array([True]), 2) == -1  # too short
    assert _first_sustained(np.zeros(10, dtype=bool), 2) == -1
    assert _first_sustained(np.array([True, False] * 5), 2) == -1
    assert _first_sustained(np.empty(0, dtype=bool), 2) == -1


class _HeldTrack:
    """A track held in full: its rival is the maximum down the cells other
    than the serving one, taken on the samples asked for, and its quiet
    segments are those where no other cell beats the serving cell by more
    than the offset on any sample."""

    def __init__(self, rx):
        self.rx = rx
        self.quiet = 0

    def others(self, serving):
        others = self.rx.copy()
        others[serving] = -np.inf
        return others

    def rival(self, serving, lo, hi, offset_db):
        return self.others(serving)[:, lo:hi].max(axis=0)

    def loud_runs(self, serving, offset_db):
        starts = np.arange(0, self.rx.shape[1], mobility.SEGMENT_SAMPLES)
        top = np.maximum.reduceat(self.others(serving).max(axis=0), starts)
        loud = top > np.minimum.reduceat(self.rx[serving], starts) + offset_db
        self.quiet += np.count_nonzero(~loud)
        runs = []
        for i in np.flatnonzero(loud).tolist():
            lo, hi = starts[i], min(starts[i] + mobility.SEGMENT_SAMPLES, self.rx.shape[1])
            if runs and runs[-1][1] == lo:
                runs[-1] = (runs[-1][0], hi)
            else:
                runs.append((lo, hi))
        return runs


@pytest.mark.parametrize("k", [2, 5, 70])
def test_a3_trigger_equals_one_scan_of_the_rest(k):
    # the windowed search over the runs of loud segments finds what one
    # scan of every sample from the start on finds, runs straddling window
    # edges included, whatever its first window, and hands over to the
    # strongest other cell there, the lowest row of a tie
    rng = np.random.default_rng(k)
    rx = np.round(np.cumsum(rng.normal(size=(3_000, 5)), axis=0), 0).T  # long runs, ties
    rx = np.ascontiguousarray(rx)  # (cells, samples), as a track holds it
    rx[0, 512:1_536] += 40.0  # cells 0 and 3 stand clear on some segments
    rx[3, 2_048:2_560] += 40.0
    track = _HeldTrack(rx)
    for serving in range(5):
        others = track.others(serving)
        for start in [1, 63, 64, 500, 2_990]:
            for offset_db in [-1.0, 0.0, 0.5, 2.0, 8.0]:
                beats = others.max(axis=0)[start:] > rx[serving, start:] + offset_db
                t = start + _first_sustained(beats, k)
                want = (t, int(np.argmax(others[:, t]))) if t >= start else (-1, -1)
                for width in [1, k, 7, mobility.SEGMENT_SAMPLES]:
                    got = _a3_trigger(track, serving, start, offset_db, k, width)
                    assert got == want
    assert track.quiet > 0  # some searches skip a quiet segment


def test_run_mobility_rejects_nonpositive_duration(default_cfg):
    bad = dataclasses.replace(
        default_cfg,
        mobility=dataclasses.replace(default_cfg.mobility, sim_duration_s=0.0),
    )
    with pytest.raises(ConfigError, match="mobility.sim_duration_s"):
        run_mobility(bad)


def test_run_mobility_too_short_to_trigger():
    # 2 s of driving cannot sustain the 0.64 s trigger across a layer change
    cfg = _cfg(n_inbound=0, n_outbound=3, sim_duration_s=2.0)
    res = run_mobility(cfg, seed=1)
    assert res.events == []
    assert res.n_users == 3
    assert res.a3_offset_db == 3.0
    assert res.sim_duration_s == 2.0


def test_run_mobility_event_invariants():
    cfg = _cfg(n_inbound=3, n_outbound=3, sim_duration_s=2_400.0)
    res = run_mobility(cfg, seed=3)
    assert res.n_users == 6
    assert len(res.events) > 0
    period = cfg.mobility.measurement_period_s
    for e in res.events:
        # only cross-layer handovers are reported; beam 0 is the platform
        if e.direction == TN_TO_HIBS:
            assert e.to_cell_id == 0 and 1 <= e.from_cell_id <= 36
        else:
            assert e.direction == HIBS_TO_TN
            assert e.from_cell_id == 0 and 1 <= e.to_cell_id <= 36
        assert e.from_cell_id != e.to_cell_id
        assert 0 <= e.user_id < res.n_users
        assert e.time_s > 0.0
        assert_allclose(e.time_s / period, round(e.time_s / period), atol=1e-9)
        # tracks stay inside the modeled region
        assert math.hypot(e.x_m, e.y_m) < 1.35 * RING_RADIUS_M


def test_run_mobility_events_lie_on_radial_tracks():
    cfg = _cfg(n_inbound=3, n_outbound=3, sim_duration_s=2_400.0)
    res = run_mobility(cfg, seed=3)
    for e in res.events:
        # first draw of the track's (direction, index) stream is its azimuth
        outbound = int(e.user_id >= 3)
        phi = engine.derive_rng(
            3, engine._MOBILITY, outbound, e.user_id - 3 * outbound
        ).uniform(0.0, 2.0 * math.pi)
        cross = e.x_m * math.sin(phi) - e.y_m * math.cos(phi)
        assert abs(cross) < 1e-6


def test_run_mobility_decision_signals_agree_without_shadowing():
    # with shadowing disabled the two signals are the same quantity
    base = {
        "n_inbound": 2,
        "n_outbound": 2,
        "sim_duration_s": 600.0,
    }
    cfg_long = config_from_dict(
        {"mobility": {**base, "decision_signal": "longterm"}, "channel": {"shadowing": False}}
    )
    cfg_shad = config_from_dict(
        {"mobility": {**base, "decision_signal": "shadowed"}, "channel": {"shadowing": False}}
    )
    a = run_mobility(cfg_long, seed=5)
    b = run_mobility(cfg_shad, seed=5)
    assert a.events == b.events


def test_run_mobility_shadowed_signal_runs():
    cfg = _cfg(
        n_inbound=2, n_outbound=2, sim_duration_s=600.0, decision_signal="shadowed"
    )
    res = run_mobility(cfg, seed=2)
    assert res.n_users == 4
    for e in res.events:
        assert e.direction in (TN_TO_HIBS, HIBS_TO_TN)


def test_run_mobility_offset_override_recorded():
    cfg = _cfg(n_inbound=1, n_outbound=1, sim_duration_s=60.0)
    assert run_mobility(cfg, seed=1).a3_offset_db == 3.0
    assert run_mobility(cfg, seed=1, a3_offset_db=6.0).a3_offset_db == 6.0


# a str, bytes or bool that `float` would read as 3, 2 or 1 dB is no
# offset, as the config key `mobility.a3_offset_db` rejects it
@pytest.mark.parametrize("offset", [math.nan, math.inf, -math.inf, "3", b"2", True, np.True_])
def test_run_mobility_rejects_a_non_finite_offset_before_any_track(
    offset, monkeypatch
):
    def no_tracks(*_):
        raise AssertionError("a track ran with a non-finite offset")

    monkeypatch.setattr(mobility, "_track_block", no_tracks)
    cfg = _cfg(n_inbound=1, n_outbound=1, sim_duration_s=60.0)
    with pytest.raises(ValueError, match="a3_offset_db must be a finite number"):
        run_mobility(cfg, seed=1, a3_offset_db=offset)


def test_run_mobility_threads_equal():
    cfg = _cfg(n_inbound=4, n_outbound=4, sim_duration_s=1_200.0)
    a = run_mobility(cfg, seed=7, threads=1)
    b = run_mobility(cfg, seed=7, threads=4)
    assert a.events == b.events


def _events_by_track(res, n_inbound):
    """Events keyed (direction, index within the direction), user ids dropped."""
    tracks = {}
    for e in res.events:
        outbound = int(e.user_id >= n_inbound)
        key = (outbound, e.user_id - n_inbound * outbound)
        tracks.setdefault(key, []).append(dataclasses.replace(e, user_id=-1))
    return tracks


@pytest.mark.parametrize("grown", ["n_inbound", "n_outbound"])
def test_tracks_are_append_stable(grown):
    # one more track of one direction leaves every existing track of both
    # directions as it was; only the user ids after an added inbound shift
    base = dict(n_inbound=2, n_outbound=2, sim_duration_s=2_400.0)
    a = _events_by_track(run_mobility(_cfg(**base), seed=1), 2)
    n_inbound = base["n_inbound"] + (grown == "n_inbound")
    b = _events_by_track(run_mobility(_cfg(**{**base, grown: 3}), seed=1), n_inbound)
    assert {d for d, _ in a} == {0, 1}  # both directions hand over
    assert {k: v for k, v in b.items() if k in a} == a
    assert set(b) - set(a) <= {(int(grown == "n_outbound"), 2)}


def test_run_mobility_same_seed_same_events():
    cfg = _cfg(n_inbound=2, n_outbound=2, sim_duration_s=600.0)
    assert run_mobility(cfg, seed=11).events == run_mobility(cfg, seed=11).events


def test_distances_m_helper():
    events = [
        HandoverEvent(1.0, 0, 5, 0, 3_000.0, 4_000.0, TN_TO_HIBS),
        HandoverEvent(2.0, 1, 0, 7, 6_000.0, 8_000.0, HIBS_TO_TN),
        HandoverEvent(3.0, 2, 9, 0, 0.0, 1_000.0, TN_TO_HIBS),
    ]
    res = MobilityResult(
        events=events, n_users=3, a3_offset_db=3.0, sim_duration_s=10.0, seed=1
    )
    assert_allclose(res.distances_m(TN_TO_HIBS), [5_000.0, 1_000.0])
    assert_allclose(res.distances_m(HIBS_TO_TN), [10_000.0])
    assert res.distances_m("unknown").size == 0


def test_inbound_tracks_park_at_center():
    # inbound-only run: no event can fire inside the parking core
    cfg = _cfg(n_inbound=4, n_outbound=0, sim_duration_s=2_400.0)
    res = run_mobility(cfg, seed=13)
    for e in res.events:
        assert math.hypot(e.x_m, e.y_m) >= CENTER_PARK_RADIUS_M - 1e-9


def reference_track_rx_power_dbm(scenario, pos_xyz, rng, rho, shadowed):
    """Received power (n_cells, T) computed one serving cell at a time, in
    row order, a cell being one (transmitter, pointing entry) pair: every
    cell's LOS threshold is drawn first, one per cell in row order; then
    per cell geometry, medians and T AR(1) innovations; tx - (pl + shadow +
    clutter - g_tx - g_rx), the drops' coupling order."""
    cfg = scenario.cfg
    ntn, rma = cfg.channel.ntn, cfg.channel.rma
    n_t = pos_xyz.shape[0]
    cells = sorted(
        (
            (row, tx, p)
            for tx in scenario.transmitters
            for row, p in zip(tx.rows, tx.pointing)
            if row < scenario.n_cells
        ),
        key=lambda cell: cell[0],
    )
    assert [row for row, _, _ in cells] == list(range(scenario.n_cells))
    rx = np.empty((len(cells), n_t))
    thresholds = [rng.random() for _ in cells]
    for i, (_, tx, pointing) in enumerate(cells):
        if isinstance(tx.pattern, AperturePattern):
            tx_power_dbm = cfg.hibs.tx_power_dbm
            delta = pos_xyz - tx.position
            slant = np.linalg.norm(delta, axis=1)
            elev = np.degrees(
                np.arctan2(-delta[:, 2], np.hypot(delta[:, 0], delta[:, 1]))
            )
            off_axis = np.degrees(
                np.arccos(np.clip(delta @ pointing / slant, -1.0, 1.0))
            )
            los = np.ones(n_t, dtype=bool) if ntn.los_only else thresholds[i] < ntn.p_los(elev)
            pl = channel.fspl_db(slant, cfg.carrier.frequency_hz)
            clutter = np.where(los, 0.0, ntn.clutter_db(elev))
            sigma = np.where(los, ntn.sigma_los_db, ntn.sigma_nlos_db)
            g_tx = antenna.aperture_gain_dbi(off_axis, tx.pattern)
        else:
            tx_power_dbm = cfg.terrestrial.tx_power_dbm
            dx = pos_xyz[:, 0] - tx.position[0]
            dy = pos_xyz[:, 1] - tx.position[1]
            d2d = np.hypot(dx, dy)
            az_off = np.degrees(np.arctan2(dy, dx)) - pointing
            depression = np.degrees(np.arctan2(tx.position[2] - pos_xyz[:, 2], d2d))
            pl_los, pl_nlos, pre_bp, p_los, _ = channel.rma_median_pathloss(
                d2d, cfg.carrier.frequency_hz, tx.position[2], cfg.ue.height_m, rma
            )
            los = thresholds[i] < p_los
            pl = np.where(los, pl_los, pl_nlos)
            clutter = 0.0
            sigma = np.where(
                los,
                np.where(pre_bp, rma.sigma_los_near_db, rma.sigma_los_far_db),
                rma.sigma_nlos_db,
            )
            g_tx = antenna.sector_gain_dbi(az_off, depression, tx.pattern)
        shadow = 0.0
        if shadowed and cfg.channel.shadowing:
            innov = rng.standard_normal(n_t)
            innov[1:] *= math.sqrt(max(1.0 - rho * rho, 0.0))
            shadow = sigma * lfilter([1.0], [1.0, -rho], innov)
        coupling = pl + shadow + clutter - g_tx - cfg.ue.antenna_gain_dbi
        rx[i] = tx_power_dbm - coupling
    return rx


def _lone_track(scenario, pos_xyz, rng, rho, shadowed):
    """The `_TrackPower` of a track at arbitrary positions, drawn from `rng`
    as `mobility._track_block` draws a track: its LOS thresholds, a block of
    one bounded from them (on the long-term signal), then its innovations
    (on the shadowed signal, with shadowing on)."""
    shadowed = shadowed and scenario.cfg.channel.shadowing
    threshold = np.empty((scenario.n_cells, 1))
    network._draw_links(rng, threshold, None)
    block = mobility._TrackBlock(
        scenario,
        [len(pos_xyz)],
        [mobility._chords(pos_xyz.__getitem__, np.arange(len(pos_xyz)))],
        None if shadowed else [threshold],
    )
    return _track_rx_power_dbm(block, 0, pos_xyz, threshold, rng, rho, shadowed)


@functools.cache
def _scenario(signal="longterm", los_only=False, sidelobes="floor", sla_db=30.0):
    return engine.build_combined_scenario(
        config_from_dict(
            {
                "mobility": {"decision_signal": signal},
                "channel": {"ntn": {"los_only": los_only}},
                "hibs": {"pattern_sidelobes": sidelobes},
                "terrestrial": {"sla_db": sla_db},
            }
        )
    )


@pytest.mark.parametrize("shadowed", [False, True])
@pytest.mark.parametrize("los_only", [False, True])
def test_track_rx_power_matches_per_cell_reference(shadowed, los_only):
    scenario = _scenario(los_only=los_only)
    # an inbound track from outside the site ring to the center, in one
    # segment, then in eight
    for n_t in (400, 4_000):
        t = np.linspace(0.0, 1.0, n_t)[:, None]
        pos_xyz = (1.0 - t) * np.array([21_000.0, 6_000.0, 1.5]) + t * np.array(
            [300.0, 80.0, 1.5]
        )
        core_rng = engine.derive_rng(4, engine._MOBILITY, 9)
        rng = engine.derive_rng(4, engine._MOBILITY, 9)
        power = _lone_track(scenario, pos_xyz, core_rng, 0.9, shadowed)
        want = reference_track_rx_power_dbm(scenario, pos_xyz, rng, 0.9, shadowed)
        assert power.rx.shape == (37, n_t)
        assert core_rng.random() == rng.random()  # same number of draws
        # neither signal evaluates a cell up front: they wait for the A3 loop
        assert not power.evaluated.any()
        assert np.isneginf(power.rx).all()
        if shadowed:
            # with every ceiling +inf, the loop's first pull evaluates
            # every cell on the whole track
            first = np.full(power.starts.size, np.inf)
            first[0] = power.floor[:, 0].max()
            power.pull(first)
            assert power.evaluated.all()
        else:
            # a middle segment, then the first and the last: their span
            # evaluates the middle segment again, and keeps its bits
            middle, ends = np.zeros((2, power.starts.size), dtype=bool)
            middle[power.starts.size // 2] = ends[[0, -1]] = True
            for i in range(len(power.table)):
                power.evaluate(i, middle)
                assert np.array_equal(power.evaluated[i], middle)
                power.evaluate(i, ends)
                assert power.evaluated[i].all()
        assert np.array_equal(power.rx, want)


def test_shadowed_signal_holds_the_long_term_los_thresholds():
    # a track stream draws every cell's LOS threshold before any shadowing
    # innovation, so the shadowed signal adds shadowing to the long-term
    # signal's LOS state: the thresholds are equal bit for bit
    track_power, keys = mobility._track_rx_power_dbm, [(0, 0), (0, 1), (0, 2)]
    tracks = {}
    for signal in ("longterm", "shadowed"):
        seen = tracks[signal] = []

        def kept(*args, seen=seen):
            seen.append(track_power(*args))
            return seen[-1]

        with mock.patch.object(mobility, "_track_rx_power_dbm", kept):
            mobility._track_block(_scenario(signal), 2, 3.0, keys)
    assert len(tracks["longterm"]) == len(tracks["shadowed"]) == len(keys)
    for longterm, shadowed in zip(tracks["longterm"], tracks["shadowed"]):
        assert longterm.unit is None and shadowed.unit is not None
        assert longterm.threshold.shape == (37, 1)
        assert np.array_equal(longterm.threshold, shadowed.threshold)


def _full_rx(power):
    """Every cell of a track's `_TrackPower` on its whole track, one
    `network._link_coupling` call for all its transmitters."""
    rx = np.empty_like(power.rx)
    for rows, coupling in network._link_coupling(
        power.table, power.pos, power.threshold, power.unit, power.cfg
    ):
        rx[rows] = power.tx_power_dbm[rows][:, None] - coupling
    return rx


def _weaving_track(draw, a, b):
    """(xy, weaves): (T, 2) samples of a track of up to four segments from
    a to b, straight or weaving off its chord, and whether it weaves."""
    n_t = draw(st.integers(1, 4 * mobility.SEGMENT_SAMPLES))
    t = np.linspace(0.0, 1.0, n_t)[:, None]
    xy = (1.0 - t) * a + t * b
    # a weave of up to 400 m in any direction, along the chord included
    bend = draw(st.sampled_from([0.0, 8.0, 400.0]) | st.floats(0.0, 400.0))
    turns, way = draw(st.floats(0.0, 12.0)), np.radians(draw(st.floats(0.0, 180.0)))
    xy += bend * np.sin(2.0 * np.pi * turns * t) * np.array([np.cos(way), np.sin(way)])
    return xy, bend > 0.0


def _segment_strays(pos_xyz):
    """(a, ab, stray): each segment's chord, from its first sample to its
    last, as its start and its extent (2, segments) in x and y, and the
    farthest any of its samples lies from it, one segment at a time. A
    chord too short for 1 / |ab|^2 to be finite counts as a point."""
    a, ab, stray = [], [], []
    for lo in range(0, len(pos_xyz), mobility.SEGMENT_SAMPLES):
        xy = pos_xyz[lo : lo + mobility.SEGMENT_SAMPLES, :2]
        d, chord = xy - xy[0], xy[-1] - xy[0]
        ab2 = chord @ chord
        t = np.clip(d @ chord / ab2, 0.0, 1.0) if ab2 > np.finfo(float).tiny else 0.0
        stray.append(np.hypot(*(d - np.multiply.outer(t, chord)).T).max())
        a.append(xy[0])
        ab.append(chord)
    return np.array(a).T, np.array(ab).T, np.array(stray)


def _reference_chords(at, times):
    """`mobility._chords` for a track that need not be a line: e is each
    segment's measured stray plus the margin."""
    a, ab, stray = _segment_strays(at(times))
    ab2 = ab[0] * ab[0] + ab[1] * ab[1]
    inv = np.divide(1.0, ab2, out=np.zeros_like(ab2), where=ab2 > np.finfo(float).tiny)
    return a, ab, inv, stray + mobility._DISTANCE_MARGIN_M


# mobility keys under which a track's sample count is checked: the default
# step of 1.67 m per sample, and a fine and a coarse one
_LINE_VARIANTS = {
    "default": {},
    "fine": {"speed_mps": 50.0, "measurement_period_s": 0.05},
    "coarse": {
        "speed_mps": 0.3,
        "measurement_period_s": 1.0,
        "time_to_trigger_s": 2.0,
        "sim_duration_s": 9_000.0,
    },
}


@functools.cache
def _line_scenario(name):
    return engine.build_combined_scenario(config_from_dict({"mobility": _LINE_VARIANTS[name]}))


@settings(max_examples=100, deadline=None, database=None)
@given(
    variant=st.sampled_from(sorted(_LINE_VARIANTS)),
    outbound=st.integers(0, 1),
    phi=st.floats(0.0, 2.0 * math.pi),
    spawn=st.sampled_from([1.0]) | st.floats(0.0, 2.0),
    ring_m=st.sampled_from([300.0, 500.0]) | st.floats(1.0, 40_000.0),
)
@example("default", 0, 1.0, 1.0, 300.0)  # inbound, starting inside the park radius
@example("default", 0, 2.5, 1.0, 500.0)  # inbound, starting on it
@example("default", 1, 4.0, 1.0, 500.0)  # outbound, starting past the ring
@example("fine", 0, 0.3, 1.0, CENTER_PARK_RADIUS_M)
def test_track_sample_count_equals_a_full_scan(variant, outbound, phi, spawn, ring_m):
    # `_track_line` counts a track's samples from the closed form of its
    # distance from the center; a scan of every sample's distance finds the
    # same first arrival, on lines that start inside the park radius, on
    # it, past the ring, and that never arrive. The stream's draws are
    # given: the heading angle, then the inbound spawn factor of the ring
    # radius, or the outbound spawn radius's squared fraction
    scenario = _line_scenario(variant)
    cfg, m = scenario.cfg, scenario.cfg.mobility
    period = m.measurement_period_s
    times = np.arange(int(math.floor(m.sim_duration_s / period)) + 1) * period
    stream = mock.Mock()
    stream.uniform.side_effect = [phi, spawn]
    with mock.patch.object(mobility, "derive_rng", return_value=stream):
        _, rng, line, n_t = mobility._track_line(scenario, 1, (outbound, 7), times, ring_m)
    assert rng is stream and stream.uniform.call_count == 2
    r_t = np.hypot(*mobility._positions(cfg, line, times)[:, :2].T)
    arrived = np.flatnonzero(
        r_t > ring_m + m.outbound_stop_margin_m if outbound else r_t < CENTER_PARK_RADIUS_M
    )
    assert n_t == (arrived[0] + 1 if arrived.size else times.size)


def test_default_tracks_lie_on_their_chords():
    # `_chords` bounds how far a sample strays from its segment's chord by
    # the margin alone, because a track is a line: on default tracks of
    # both directions, each cut partway through its last segment, every
    # sample lies on its chord up to rounding (3.5e-12 m at most over the
    # 240 tracks at seed 1). A track model that is no line fails here. The
    # block builds each chord from its line's two end samples only, and
    # they have the bits of the positions the track then runs on.
    scenario = _scenario()
    positions, built, track_power, chords = [], [], mobility._track_rx_power_dbm, mobility._chords

    def kept(block, i, pos_xyz, *args):
        positions.append(pos_xyz)
        return track_power(block, i, pos_xyz, *args)

    def chords_kept(*args):
        built.append(chords(*args))
        return built[-1]

    with (
        mock.patch.object(mobility, "_track_rx_power_dbm", kept),
        mock.patch.object(mobility, "_chords", chords_kept),
    ):
        for track in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            mobility._track_block(scenario, 1, 3.0, [track])
    assert all(len(pos) % mobility.SEGMENT_SAMPLES for pos in positions)
    assert len(built) == len(positions)
    for pos, from_line in zip(positions, built):
        a, ab, stray = _segment_strays(pos)
        assert stray.max() <= 1e-6
        assert np.array_equal(mobility._chords(pos.__getitem__, np.arange(len(pos)))[:2], (a, ab))
        assert np.array_equal(from_line[:2], (a, ab))


def _polar(r, az_deg):
    return r * np.array([np.cos(np.radians(az_deg)), np.sin(np.radians(az_deg))])


@st.composite
def _chords_near_a_site(draw):
    """(scenario, xy, weaves): a track near one macro site, the chord passing
    through the mast, mirrored across one of the site's boresights, or
    anywhere, from the mast on. The sector pattern's vertical sidelobe
    limit is the default or 0 (no vertical attenuation: near the mast only
    the horizontal term then tells the sectors apart)."""
    scenario = _scenario(sla_db=draw(st.sampled_from([30.0, 0.0])))
    site = draw(st.integers(1, 12))  # a transmitter index of the ring
    tx = scenario.transmitters[site]
    kind = draw(st.sampled_from(["through", "across", "anywhere"]))
    r = st.sampled_from([0.0, 0.5]) | st.floats(0.0, 6_000.0)  # from the mast on
    az_a = draw(st.floats(-180.0, 180.0))
    if kind == "through":
        az_b, r_b = az_a + 180.0, draw(r)
    elif kind == "across":
        az_b, r_b = 2.0 * tx.pointing[draw(st.integers(0, 2))] - az_a, draw(r)
    else:
        az_b, r_b = draw(st.floats(-180.0, 180.0)), draw(r)
    a = tx.position[:2] + _polar(draw(r), az_a)
    return scenario, *_weaving_track(draw, a, tx.position[:2] + _polar(r_b, az_b))


def _bounds_of_a_track(scenario, xy, weaves, key):
    """(bound, floor, full) of a long-term track through xy: its cells'
    bounds and floors per segment, and every cell's power on every sample.
    A weaving track is bounded from `_reference_chords`, a straight one
    from `mobility._chords`."""
    pos_xyz = np.column_stack([xy, np.full(len(xy), scenario.cfg.ue.height_m)])
    chords = _reference_chords if weaves else mobility._chords
    with mock.patch.object(mobility, "_chords", chords):
        power = _lone_track(
            scenario, pos_xyz, engine.derive_rng(6, engine._MOBILITY, key), 0.9, False
        )
    bound, floor = power.bound, power.floor
    full = _full_rx(power)
    assert bound.shape == floor.shape == (37, power.starts.size)
    assert np.all(np.maximum.reduceat(full, power.starts, axis=1) <= bound)
    assert np.all(np.minimum.reduceat(full, power.starts, axis=1) >= floor)
    return bound, floor, full


@settings(max_examples=80, deadline=None, database=None)
@given(chord=_chords_near_a_site(), key=st.integers(0, 2**16))
def test_sector_bounds_hold_on_random_chords(chord, key):
    # every sector's bound and floor cover its power on every sample of
    # each segment, in LOS and NLOS, on chords through the mast, behind it,
    # across a boresight and on weaving tracks
    bound, floor, _ = _bounds_of_a_track(*chord, key)
    assert np.isfinite(bound).all() and np.isfinite(floor).all()


@pytest.mark.parametrize("key", ["front_back_db", "sla_db"])
def test_negative_sector_attenuations_exit_1_naming_the_key(key, tmp_path, capsys):
    # TR 36.873 states both as attenuations; a negative one would make a
    # sector gain more than its peak, above the sector's bound
    cfg = tmp_path / "gain.yaml"
    cfg.write_text(f"terrestrial:\n  {key}: -3.0\n")
    assert cli.main(["mobility", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert f"terrestrial.{key}: must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# a LOS table that falls and rises: between 30 and 50 deg elevation, the
# far side of a segment may be LOS where its near side is not
_DIPPING_P_LOS = {10.0: 0.3, 30.0: 0.9, 50.0: 0.2, 70.0: 0.95, 90.0: 0.5}

# platform channel and pattern variants the platform's bounds must cover
_VARIANTS = {
    "default": {},
    "bessel sidelobes": {"hibs": {"pattern_sidelobes": "bessel"}},
    "los only": {"channel": {"ntn": {"los_only": True}}},
    "p_los dips": {"channel": {"ntn": {"p_los_table": _DIPPING_P_LOS}}},
    "p_los dips, clutter rises below 0": {
        "channel": {
            "ntn": {
                "p_los_table": _DIPPING_P_LOS,
                "clutter_low_db": -6.0,
                "clutter_high_db": -1.0,
            }
        }
    },
}


@functools.cache
def _variant(name):
    return engine.build_combined_scenario(config_from_dict(_VARIANTS[name]))


@st.composite
def _chords_over_the_area(draw):
    """(scenario, xy, weaves): a track in one of `_VARIANTS`, its chord passing
    under the platform or through a macro mast, or running anywhere within
    26 km of the center, where the platform's first sidelobe peaks near
    24 km from nadir. A chord may be a point, or too short for 1 / |ab|^2
    to be finite."""
    scenario = _variant(draw(st.sampled_from(sorted(_VARIANTS))))
    kind = draw(st.sampled_from(["under the platform", "through a mast", "anywhere"]))
    r = st.sampled_from([0.0, 1e-160, 0.5]) | st.floats(0.0, 26_000.0)
    az = draw(st.floats(-180.0, 180.0))
    if kind == "anywhere":
        a, b = _polar(draw(r), az), _polar(draw(r), draw(st.floats(-180.0, 180.0)))
    else:
        site = draw(st.integers(1, 12)) if kind == "through a mast" else 0
        center = scenario.transmitters[site].position[:2]
        a, b = center + _polar(draw(r), az), center + _polar(draw(r), az + 180.0)
    return scenario, *_weaving_track(draw, a, b)


@settings(max_examples=100, deadline=None, database=None)
@given(chord=_chords_over_the_area(), key=st.integers(0, 2**16))
def test_segment_bounds_hold_on_random_chords(chord, key):
    # every cell's bound and floor, the platform's nadir beam included,
    # cover its power on every sample of each segment: under the platform
    # and through a mast, on weaving tracks, with Airy sidelobes, LOS only,
    # a LOS table that falls and rises, and clutter that grows with
    # elevation below zero
    bound, floor, _ = _bounds_of_a_track(*chord, key)
    assert np.isfinite(bound).all() and np.isfinite(floor).all()


def test_block_bounds_equal_each_track_bounded_alone():
    # a block bounds all its tracks' segments in one pass, each against its
    # own track's LOS thresholds, drawn right after its line: every default
    # track of a block gets the bits it gets bounded alone
    track_line, track_power = mobility._track_line, mobility._track_rx_power_dbm
    for scenario in (_scenario(), _scenario(sidelobes="bessel"), _scenario(los_only=True)):
        streams, seen = [], []

        def line_kept(*args):
            user, rng, line, n_t = track_line(*args)
            streams.append(copy.deepcopy(rng))  # before the thresholds
            return user, rng, line, n_t

        def kept(block, i, pos_xyz, *args):
            seen.append((pos_xyz, block, i))
            return track_power(block, i, pos_xyz, *args)

        keys = [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]
        with (
            mock.patch.object(mobility, "_track_line", line_kept),
            mock.patch.object(mobility, "_track_rx_power_dbm", kept),
        ):
            mobility._track_block(scenario, 1, 3.0, keys)
        assert [i for *_, i in seen] == list(range(len(keys)))
        assert len({id(block) for _, block, _ in seen}) == 1
        for (pos_xyz, block, i), rng in zip(seen, streams):
            alone = _lone_track(scenario, pos_xyz, rng, 0.9, False)
            columns = slice(block.first[i], block.first[i + 1])
            assert np.isfinite(alone.bound).any()
            assert np.array_equal(block.bound[:, columns], alone.bound)
            assert np.array_equal(block.floor[:, columns], alone.floor)


@settings(max_examples=40, deadline=None, database=None)
@given(
    chords=st.lists(_chords_over_the_area(), min_size=2, max_size=4),
    key=st.integers(0, 2**16),
)
def test_block_bounds_equal_each_track_bounded_alone_on_random_chords(chords, key):
    # random chords bounded in one block, weaving ones from
    # `_reference_chords`, get the bits each gets bounded alone; the first
    # draw's scenario serves all, as every variant places its masts alike
    scenario = chords[0][0]
    n_t, stacked, thresholds, alone = [], [], [], []
    for j, (_, xy, weaves) in enumerate(chords):
        pos_xyz = np.column_stack([xy, np.full(len(xy), scenario.cfg.ue.height_m)])
        chords_of = _reference_chords if weaves else mobility._chords
        rng = engine.derive_rng(6, engine._MOBILITY, key, j)
        with mock.patch.object(mobility, "_chords", chords_of):
            alone.append(_lone_track(scenario, pos_xyz, rng, 0.9, False))
        n_t.append(len(pos_xyz))
        stacked.append(chords_of(pos_xyz.__getitem__, np.arange(len(pos_xyz))))
        thresholds.append(alone[-1].threshold)
    block = mobility._TrackBlock(scenario, n_t, stacked, thresholds)
    for i, power in enumerate(alone):
        columns = slice(block.first[i], block.first[i + 1])
        assert np.array_equal(block.bound[:, columns], power.bound)
        assert np.array_equal(block.floor[:, columns], power.floor)


def full_a3_loop(rx, offset_db, k):
    """(sample, serving cell, new cell) of each A3 handover along an
    (n_cells, T) track held in full, a sample at a time: the first serving
    cell is the strongest at the first sample; from the sample after each
    handover on, the strongest other cell (the lowest row of a tie) takes
    over where it has beaten the serving cell by more than the offset on k
    consecutive samples."""

    def beats(serving):
        others = rx.copy()
        others[serving] = -np.inf
        return others, others.max(axis=0) > rx[serving] + offset_db

    handovers, serving, run = [], int(np.argmax(rx[:, 0])), 0
    others, cond = beats(serving)
    for t in range(1, rx.shape[1]):
        run = run + 1 if cond[t] else 0
        if run == k:
            new = int(np.argmax(others[:, t]))
            handovers.append((t, serving, new))
            serving, run = new, 0
            others, cond = beats(serving)
    return handovers


def _events_and_full_evaluation(scenario, seed, offset_db, track):
    """(events, want, power, full): a track's events and its `_TrackPower`,
    and the events and received power of a full evaluation of the same
    track (`reference_track_rx_power_dbm`, `full_a3_loop`)."""
    seen, track_line = {}, mobility._track_line

    def line_kept(*args):
        user, rng, line, n_t = track_line(*args)
        seen["rng"] = copy.deepcopy(rng)  # before the thresholds
        return user, rng, line, n_t

    def held(block, i, pos_xyz, threshold, rng, rho, shadowed):
        seen["pos"] = pos_xyz
        seen["full"] = reference_track_rx_power_dbm(
            scenario, pos_xyz, seen["rng"], rho, shadowed
        )
        seen["power"] = _track_rx_power_dbm(block, i, pos_xyz, threshold, rng, rho, shadowed)
        return seen["power"]

    with (
        mock.patch.object(mobility, "_track_line", line_kept),
        mock.patch.object(mobility, "_track_rx_power_dbm", held),
    ):
        events = mobility._track_block(scenario, seed, offset_db, [track])
    m, pos = scenario.cfg.mobility, seen["pos"]
    period = m.measurement_period_s
    user = track[1] + m.n_inbound * track[0]
    is_hibs = scenario.ring >= 0
    want = [
        HandoverEvent(
            t * period,
            user,
            a,
            b,
            float(pos[t, 0]),
            float(pos[t, 1]),
            TN_TO_HIBS if is_hibs[b] else HIBS_TO_TN,
        )
        for t, a, b in full_a3_loop(
            seen["full"], offset_db, _consecutive_needed(m.time_to_trigger_s, period)
        )
        if is_hibs[a] != is_hibs[b]
    ]
    return events, want, seen["power"], seen["full"]


@settings(max_examples=24, deadline=None, database=None)
@given(
    track=st.tuples(st.integers(0, 1), st.integers(0, 10_000)),
    seed=st.integers(0, 2**32 - 1),
    offset_db=st.sampled_from([0.0, -2.0]) | st.floats(-4.0, 8.0),
    signal=st.sampled_from(["longterm", "shadowed"]),
    los_only=st.booleans(),
    sidelobes=st.sampled_from(["floor", "bessel"]),
)
def test_pruned_tracks_hand_over_as_a_full_evaluation(
    track, seed, offset_db, signal, los_only, sidelobes
):
    # the cells the loop never pulls never decide a handover, at any
    # offset: the same events, times and positions, bit for bit
    scenario = _scenario(signal, los_only, sidelobes)
    events, want, _, _ = _events_and_full_evaluation(scenario, seed, offset_db, track)
    assert events == want


@pytest.mark.parametrize("offset_db", [-4.0, -2.0, 0.0, 3.0])
def test_tightest_bounds_hand_over_as_a_full_evaluation(offset_db):
    # with each cell bounded by its own greatest and least power on each
    # segment, the tightest bounds that hold, the loop pulls no more than
    # it must, skips every segment it may, and still hands over as a full
    # evaluation
    init = mobility._TrackPower.__init__

    def tightest(power, *args):
        init(power, *args)
        full = _full_rx(power)
        power.bound[:] = np.maximum.reduceat(full, power.starts, axis=1)
        power.floor[:] = np.minimum.reduceat(full, power.starts, axis=1)

    scenario = _scenario()
    with mock.patch.object(mobility._TrackPower, "__init__", tightest):
        for track in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            events, want, _, _ = _events_and_full_evaluation(scenario, 3, offset_db, track)
            assert events == want


@pytest.mark.parametrize("signal", ["longterm", "shadowed"])
def test_a3_loop_reads_the_values_of_a_full_evaluation(signal):
    # on every window of default tracks: the serving cell's level, and the
    # rival wherever a full evaluation's rival beats the serving cell by
    # more than the offset; elsewhere neither rival beats it
    scenario = _scenario(signal)
    rival = mobility._TrackPower.rival
    scanned = 0
    for track in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        windows = []

        def recorded(power, serving, lo, hi, offset_db):
            got = rival(power, serving, lo, hi, offset_db)
            windows.append((power, serving, lo, hi, got))
            return got

        with mock.patch.object(mobility._TrackPower, "rival", recorded):
            events, want, power, full = _events_and_full_evaluation(
                scenario, 1, 3.0, track
            )
        assert events == want
        scanned += len(windows)
        others = full.copy()
        for _, serving, lo, hi, got in windows:
            # each window lies in one run of loud segments, after sample 0
            assert lo >= 1
            assert any(a <= lo and hi <= b for a, b in power.runs[serving])
            own = power.rx[serving, lo:hi]
            assert np.array_equal(own, full[serving, lo:hi])
            others[:] = full
            others[serving] = -np.inf
            full_rival = others[:, lo:hi].max(axis=0)
            beats = full_rival > own + 3.0
            assert np.array_equal(got > own + 3.0, beats)
            assert np.array_equal(got[beats], full_rival[beats])
        evaluated = power.rx > -np.inf
        assert np.array_equal(power.rx[evaluated], full[evaluated])
        assert np.isneginf(power.rx).any() == (signal == "longterm")  # pulls skip
    assert scanned > 0


@pytest.mark.parametrize(
    "signal, sidelobes, offset_db",
    [
        ("longterm", "floor", 3.0),
        ("longterm", "floor", -2.0),
        ("shadowed", "floor", 3.0),
        ("longterm", "bessel", -2.0),
    ],
)
def test_a_track_hands_over_alike_alone_and_in_a_block(signal, sidelobes, offset_db):
    # every track of a block, the last one included, gets the events it
    # gets alone, and its A3 loop starts from an `rx` buffer at -inf: no
    # value a track before it evaluated survives the clear
    scenario = _scenario(signal, sidelobes=sidelobes)
    keys = [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]
    a3_events, starts = mobility._a3_events, []

    def from_neginf(track, *args):
        starts.append(bool(np.isneginf(track.rx).all()))
        return a3_events(track, *args)

    with mock.patch.object(mobility, "_a3_events", from_neginf):
        in_block = mobility._track_block(scenario, 1, offset_db, keys)
    assert starts == [True] * len(keys)
    alone = [mobility._track_block(scenario, 1, offset_db, [key]) for key in keys]
    assert in_block == [e for events in alone for e in events]
    assert alone[-1]  # the last track hands over


def test_track_blocks_do_not_depend_on_threads(monkeypatch):
    # the tracks run in blocks of `TRACK_BLOCK` consecutive keys, inbound
    # then outbound, cut by the track count alone
    blocks, map_ordered = {}, engine._map_ordered

    def recorded(worker, keys, threads):
        blocks[threads] = keys
        return map_ordered(worker, keys, threads)

    monkeypatch.setattr(engine, "_map_ordered", recorded)
    n_in, n_out = mobility.TRACK_BLOCK + 4, mobility.TRACK_BLOCK + 1
    cfg = _cfg(n_inbound=n_in, n_outbound=n_out, sim_duration_s=60.0)
    events = {threads: run_mobility(cfg, seed=1, threads=threads).events for threads in (1, 4)}
    assert blocks[1] == blocks[4]
    keys = [(0, i) for i in range(n_in)] + [(1, i) for i in range(n_out)]
    assert [key for block in blocks[1] for key in block] == keys
    assert [len(block) for block in blocks[1]] == [mobility.TRACK_BLOCK] * 2 + [5]
    assert events[1] == events[4]


def test_default_tracks_evaluate_a_fifth_of_the_site_samples():
    # the A3 loop pulls few cells. On these six default tracks the site
    # budgets see 3.4 % of the (site, sample) pairs (1.9 % on all 240 at
    # seed 1, where a top-two pruning saw a fifth), and the platform is
    # evaluated on 17 % of the segments (14 % on all 240), where it once
    # was on all of them
    scenario = _scenario()
    n_sites = len(scenario.transmitters) - 1
    tracks, site_samples = [], 0
    budget, track_power = network.transmitter_budget, mobility._track_rx_power_dbm

    def counting(group, rx_xyz, cfg):
        nonlocal site_samples
        if not isinstance(group[0].pattern, AperturePattern):
            site_samples += len(group) * rx_xyz.shape[0]
        return budget(group, rx_xyz, cfg)

    def kept(*args):
        tracks.append(track_power(*args))
        return tracks[-1]

    with (
        mock.patch.object(network, "transmitter_budget", counting),
        mock.patch.object(mobility, "_track_rx_power_dbm", kept),
    ):
        for track in [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]:
            mobility._track_block(scenario, 1, 3.0, [track])
    samples = sum(len(power.pos) for power in tracks)
    assert 0 < site_samples <= 0.04 * n_sites * samples, site_samples / (n_sites * samples)
    # the platform is table entry 0
    platform = np.concatenate([power.evaluated[0] for power in tracks])
    assert 0 < platform.mean() <= 0.2, platform.mean()


def _peak_traced_bytes(fn):
    """(result, peak bytes traced while fn ran)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("shadowed, bound", [(False, 2.0), (True, 3.0)])
def test_track_rx_power_live_memory(shadowed, bound):
    # The (cells, T) received power is the one array a track needs whole;
    # the shadowed signal also holds its (cells, T) innovations, drawn up
    # front in cell order. Everything else lives one transmitter at a time
    # (at most 3 of the 37 cells' rows, plus the track's geometry), so the
    # peak stays within bound x the output with every cell evaluated on
    # the whole track: measured 1.41x and 2.45x. Building every
    # transmitter's budget before using any reads 3.97x and 6.05x, because
    # all 13 transmitters' medians and gains are alive at once.
    scenario = engine.build_combined_scenario(config_from_dict({}))
    t = np.linspace(0.0, 1.0, 11_000)[:, None]  # one sample per 2 m
    pos_xyz = (1.0 - t) * np.array([21_000.0, 6_000.0, 1.5]) + t * np.array(
        [300.0, 80.0, 1.5]
    )

    def track():
        rng = engine.derive_rng(1, engine._MOBILITY, 0)
        power = _lone_track(scenario, pos_xyz, rng, 0.97, shadowed)
        for i in range(len(power.table)):  # neither signal evaluates up front
            power.evaluate(i, np.ones(power.starts.size, dtype=bool))
        return power.rx

    track()  # first-call work (the scipy.signal import) is not the track's
    rx, peak = _peak_traced_bytes(track)
    assert rx.shape == (37, 11_000)
    assert peak <= bound * rx.nbytes, peak / rx.nbytes


@pytest.mark.parametrize(
    "signal, bound", [("longterm", 1.6), ("shadowed", 3.6), ("shadowed", 3.0)]
)
def test_track_block_live_memory(signal, bound):
    # A block holds one (cells, T) `rx` buffer for all its tracks, allocated
    # after its bounds' temporaries; each track's positions are rebuilt for
    # its loop, and a shadowed track's innovations drawn there in place,
    # with none of the track before it alive. So one block of `TRACK_BLOCK`
    # default tracks peaks near one track, in bytes of one track's rx at
    # the longest T: measured 1.32x and 2.66x (a block of its first track
    # alone: 1.25x and 2.55x). With the buffer allocated before the
    # bounds, the long-term block read 1.72x; with the track before still
    # alive while the next one drew, the shadowed one 4.29x; with the
    # innovations drawn through a temporary, 3.22x. The shadowed
    # block is held to 3.6x, the bound of its first design, and to 3.0x,
    # which only the in-place draw meets.
    scenario = _scenario(signal)
    m = scenario.cfg.mobility
    rx_bytes = 8 * scenario.n_cells * (int(m.sim_duration_s / m.measurement_period_s) + 1)
    keys = [(0, i) for i in range(mobility.TRACK_BLOCK)]  # the first block
    block = functools.partial(mobility._track_block, scenario, 1, 3.0, keys)
    block()  # first-call work (the scipy.signal import) is not the block's
    _, peak = _peak_traced_bytes(block)
    assert peak <= bound * rx_bytes, peak / rx_bytes


def test_import_leaves_scipy_signal_unloaded(tmp_path):
    # only the shadowed decision signal filters; the import and small runs of
    # all four commands (mobility on its default long-term signal) load no
    # scipy module at all
    src = os.path.dirname(os.path.dirname(hibsim.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    cfg = tmp_path / "short.yaml"
    cfg.write_text("mobility:\n  n_inbound: 1\n  n_outbound: 1\n  sim_duration_s: 60.0\n")
    probe = f"""
import sys, hibsim, hibsim.output
from hibsim.cli import main
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
for argv in (
    ["coupling-loss", "--drops", "1", "--users-per-drop", "5"],
    ["sinr-sweep", "--drops", "1", "--densities", "1"],
    ["throughput-sweep", "--drops", "1", "--densities", "1"],
    ["mobility", "--config", {str(cfg)!r}],
):
    assert main([*argv, "--out", {str(tmp_path / "out")!r}]) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines()[-1] == "[]"

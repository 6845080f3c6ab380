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
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.signal import lfilter

import hibsim
from hibsim import antenna, channel, engine, mobility, network
from hibsim.antenna import AperturePattern
from hibsim.config import ConfigError, config_from_dict
from hibsim.mobility import (
    CENTER_PARK_RADIUS_M,
    HIBS_TO_TN,
    TN_TO_HIBS,
    HandoverEvent,
    MobilityResult,
    _a3_trigger,
    _best_two,
    _consecutive_needed,
    _first_sustained,
    _track_events,
    _track_rx_power_dbm,
    run_mobility,
)

RING_RADIUS_M = 17386.66487320323


def _whole(rx):
    """`_best_two`'s spans for an (n_cells, T) track held in full: every
    row on every sample."""
    return [(row, 0, rx.shape[1]) for row in range(rx.shape[0])]


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


@pytest.mark.parametrize("k", [2, 5, 70])
def test_a3_trigger_equals_one_scan_of_the_rest(k):
    # the windowed search finds what one scan of every sample from the
    # start on finds, runs straddling window edges included
    rng = np.random.default_rng(k)
    rx = np.round(np.cumsum(rng.normal(size=(3_000, 5)), axis=0), 0).T  # long runs, ties
    rx = np.ascontiguousarray(rx)  # (cells, samples), as a track holds it
    best, best_cell, second, _ = _best_two(rx, _whole(rx))
    for serving in range(5):
        for start in [1, 63, 64, 500, 2_990]:
            for offset_db in [-1.0, 0.0, 0.5, 2.0]:
                is_best = best_cell[start:] == serving
                rival = np.where(is_best, second[start:], best[start:])
                rel = _first_sustained(rival > rx[serving, start:] + offset_db, k)
                want = start + rel if rel >= 0 else -1
                got = _a3_trigger(
                    best, best_cell, second, rx[serving], serving, start, offset_db, k
                )
                assert got == want


def test_best_two_gives_the_strongest_other_cell():
    # per sample and serving cell: the strongest other cell and its level,
    # ties to the lowest index, as masking the serving cell and taking
    # argmax down the sample's column would give
    rx = np.round(np.random.default_rng(8).normal(size=(7, 400)), 0)  # many ties
    best, best_cell, second, second_cell = _best_two(rx, _whole(rx))
    for serving in range(7):
        others = rx.copy()
        others[serving] = -np.inf
        is_best = best_cell == serving
        assert np.array_equal(np.where(is_best, second, best), others.max(axis=0))
        assert np.array_equal(
            np.where(is_best, second_cell, best_cell), np.argmax(others, axis=0)
        )


def reference_best_two(rx):
    """`_best_two` by masked `argmax` down the cells of an (n_cells, T)
    track."""
    t = np.arange(rx.shape[1])
    best_cell = np.argmax(rx, axis=0)
    others = rx.copy()
    others[best_cell, t] = -np.inf
    second_cell = np.argmax(others, axis=0)
    return rx[best_cell, t], best_cell, others[second_cell, t], second_cell


@st.composite
def _pruned_tracks(draw):
    """(rx, spans): an (n_cells, T) track of a few levels, so ties are
    common, with each row but row 0 -inf outside a span of samples, empty
    for some rows, and -inf samples inside the spans too."""
    n_c, n_t = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    levels = st.sampled_from([-np.inf, -3.0, 0.0, 1.5, 2.0])
    rx = np.array(draw(st.lists(levels, min_size=n_c * n_t, max_size=n_c * n_t)))
    rx = rx.reshape(n_c, n_t)
    spans = [(0, 0, n_t)]
    for row in range(1, n_c):
        a = draw(st.integers(0, n_t))
        b = draw(st.integers(a, n_t))
        rx[row, :a] = rx[row, b:] = -np.inf
        if a < b:
            spans.append((row, a, b))
        elif draw(st.booleans()):
            spans.append((row, a, b))  # an empty span reads nothing
    return rx, spans


@settings(max_examples=200, deadline=None, database=None)
@given(track=_pruned_tracks())
def test_best_two_equals_masked_argmax_down_the_cells(track):
    # rows that are -inf on every sample go unread, and samples where every
    # cell, or every cell but the best, is -inf resolve to row 0 as argmax
    # does; the matrix comes back unchanged
    rx, spans = track
    before = rx.copy()
    for got, want in zip(_best_two(rx, spans), reference_best_two(before)):
        assert np.array_equal(got, want)
    assert np.array_equal(rx, before)


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


@pytest.mark.parametrize("offset", [math.nan, math.inf, -math.inf])
def test_run_mobility_rejects_a_non_finite_offset_before_any_track(
    offset, monkeypatch
):
    def no_tracks(*_):
        raise AssertionError("a track ran with a non-finite offset")

    monkeypatch.setattr(mobility, "_track_events", no_tracks)
    cfg = _cfg(n_inbound=1, n_outbound=1, sim_duration_s=60.0)
    with pytest.raises(ValueError, match="a3_offset_db must be finite"):
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


@pytest.mark.parametrize("shadowed", [False, True])
@pytest.mark.parametrize("los_only", [False, True])
def test_track_rx_power_matches_per_cell_reference(shadowed, los_only):
    cfg = config_from_dict({"channel": {"ntn": {"los_only": los_only}}})
    scenario = engine.build_combined_scenario(cfg)
    # an inbound track from outside the site ring to the center, in one
    # segment, then in eight, where sites are skipped on some
    for n_t in (400, 4_000):
        t = np.linspace(0.0, 1.0, n_t)[:, None]
        pos_xyz = (1.0 - t) * np.array([21_000.0, 6_000.0, 1.5]) + t * np.array(
            [300.0, 80.0, 1.5]
        )
        core_rng = engine.derive_rng(4, engine._MOBILITY, 9)
        rng = engine.derive_rng(4, engine._MOBILITY, 9)
        got = _track_rx_power_dbm(scenario, pos_xyz, core_rng, 0.9, shadowed).rx
        want = reference_track_rx_power_dbm(scenario, pos_xyz, rng, 0.9, shadowed)
        assert got.shape == (37, n_t)
        evaluated = got > -np.inf
        assert np.array_equal(got[evaluated], want[evaluated])
        # a skipped cell lies strictly below its sample's runner-up
        _, _, runner_up, _ = reference_best_two(want)
        assert np.all((want < runner_up)[~evaluated])
        assert core_rng.random() == rng.random()  # same number of draws


def test_spans_hold_each_cell_s_evaluated_samples_tightly():
    # `_best_two` reads a cell on its span alone: row 0 spans the track,
    # every cell is -inf outside its span and evaluated at both ends of it,
    # and a cell not listed is -inf on the whole track
    scenario = _scenario()
    t = np.linspace(0.0, 1.0, 6_000)[:, None]
    pos_xyz = (1.0 - t) * np.array([21_000.0, 6_000.0, 1.5]) + t * np.array(
        [300.0, 80.0, 1.5]
    )
    for key in range(3):
        rng = engine.derive_rng(3, engine._MOBILITY, 0, key)
        power = _track_rx_power_dbm(scenario, pos_xyz, rng, 0.97, False)
        spans, rx = power.spans(), power.rx
        assert [row for row, _, _ in spans] == sorted({row for row, _, _ in spans})
        assert spans[0] == (0, 0, rx.shape[1])
        assert any(stop - start < rx.shape[1] for _, start, stop in spans)
        listed = set()
        for row, start, stop in spans:
            listed.add(row)
            assert np.isfinite(rx[row, [start, stop - 1]]).all()
            assert np.isneginf(rx[row, :start]).all() and np.isneginf(rx[row, stop:]).all()
        assert np.isneginf(rx[sorted(set(range(rx.shape[0])) - listed)]).all()


def test_shadowed_signal_holds_the_long_term_los_thresholds():
    # a track stream draws every cell's LOS threshold before any shadowing
    # innovation, so the shadowed signal adds shadowing to the long-term
    # signal's LOS state: the thresholds are equal bit for bit
    scenario = _scenario()
    t = np.linspace(0.0, 1.0, 2_000)[:, None]
    pos_xyz = (1.0 - t) * np.array([21_000.0, 6_000.0, 1.5]) + t * np.array(
        [300.0, 80.0, 1.5]
    )
    for key in range(3):
        threshold = [
            _track_rx_power_dbm(
                scenario, pos_xyz, engine.derive_rng(2, engine._MOBILITY, 0, key), 0.9, s
            ).threshold
            for s in (False, True)
        ]
        assert threshold[0].shape == (37, 1)
        assert np.array_equal(threshold[0], threshold[1])


def test_site_bounds_hold_on_a_bent_track():
    # a track weaving up to 400 m off its segments' chords, which pass 550 m
    # from the first macro site, its samples as close as 150 m: each site's
    # bound still covers every sample of each segment, in LOS and NLOS, and
    # the pruned power keeps the full evaluation's bits and its runner-up
    # (the long-term signal: the shadowed one is not pruned)
    scenario = _scenario()
    t = np.arange(3_000)
    site_x = scenario.transmitters[1].position[0]
    pos_xyz = np.column_stack(
        [site_x + 1_500.0 - 6.0 * t, 550.0 + 400.0 * np.sin(t / 40.0), np.full(t.size, 1.5)]
    )
    for key in range(4):
        rng = engine.derive_rng(5, engine._MOBILITY, 0, key)
        power = _track_rx_power_dbm(scenario, pos_xyz, copy.deepcopy(rng), 0.95, False)
        full = reference_track_rx_power_dbm(scenario, pos_xyz, rng, 0.95, False)
        sites = [
            i for i, tx in enumerate(power.table) if not isinstance(tx.pattern, AperturePattern)
        ]
        bound = power.site_bounds(sites)
        for s, i in enumerate(sites):
            site_max = full[power.table[i].rows].max(axis=0)
            assert np.all(np.maximum.reduceat(site_max, power.starts) <= bound[s])
        evaluated = power.rx > -np.inf
        assert np.array_equal(power.rx[evaluated], full[evaluated])
        _, _, runner_up, _ = reference_best_two(full)
        assert np.all((full < runner_up)[~evaluated])


@functools.cache
def _scenario(signal="longterm", los_only=False, sidelobes="floor"):
    return engine.build_combined_scenario(
        config_from_dict(
            {
                "mobility": {"decision_signal": signal},
                "channel": {"ntn": {"los_only": los_only}},
                "hibs": {"pattern_sidelobes": sidelobes},
            }
        )
    )


class _FullTrack:
    """A track's power evaluated in full, by the per-cell reference: the A3
    loop finds nothing to fill."""

    def __init__(self, scenario, pos_xyz, rng, rho, shadowed):
        self.rx = reference_track_rx_power_dbm(scenario, pos_xyz, rng, rho, shadowed)

    def fill(self, cell, start):
        pass

    def spans(self):
        return _whole(self.rx)


def _full_track_events(scenario, seed, offset_db, track):
    with mock.patch.object(mobility, "_track_rx_power_dbm", _FullTrack):
        return _track_events(scenario, seed, offset_db, track)


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
    # the skipped cells never decide a handover, at any offset: the same
    # events, times and positions, bit for bit
    scenario = _scenario(signal, los_only, sidelobes)
    assert _track_events(scenario, seed, offset_db, track) == _full_track_events(
        scenario, seed, offset_db, track
    )


@pytest.mark.parametrize("signal", ["longterm", "shadowed"])
def test_a3_loop_reads_the_values_of_a_full_evaluation(signal):
    # on every sample of default tracks: the best and runner-up levels and
    # cells the loop scans, and the serving cell's level from each start on
    scenario = _scenario(signal)
    for track in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        seen = {}

        def pruned(scenario, pos_xyz, rng, rho, shadowed):
            full = reference_track_rx_power_dbm(
                scenario, pos_xyz, copy.deepcopy(rng), rho, shadowed
            )
            power = _track_rx_power_dbm(scenario, pos_xyz, rng, rho, shadowed)
            fill = power.fill

            def recorded_fill(cell, start):
                reads.append((cell, start))
                fill(cell, start)

            power.fill = recorded_fill
            seen.update(power=power, full=full, fill=fill)
            return power

        def best_two(rx, spans):
            seen["best_two"] = _best_two(rx, spans)
            return seen["best_two"]

        reads = []
        with mock.patch.object(mobility, "_track_rx_power_dbm", pruned), mock.patch.object(
            mobility, "_best_two", best_two
        ):
            events = _track_events(scenario, 1, 3.0, track)
        assert events == _full_track_events(scenario, 1, 3.0, track)
        rx, full, fill = seen["power"].rx, seen["full"], seen["fill"]
        for got, want in zip(seen["best_two"], reference_best_two(full)):
            assert np.array_equal(got, want)
        assert reads and reads[0][1] == 1
        for cell, start in reads:
            assert np.array_equal(rx[cell, start:], full[cell, start:])
        if signal == "longterm":
            assert np.isneginf(rx).any()  # the pruning is on
        # a fill from inside a segment covers that segment too
        for cell in range(rx.shape[0]):
            fill(cell, 700)
        assert np.array_equal(rx[:, 700:], full[:, 700:])


def test_default_tracks_evaluate_a_fifth_of_the_site_samples():
    # the pruning stays on: the macro sites' budgets see 22.1 % of the
    # (site, sample) pairs on these six default tracks (21.0 % on all 240
    # at seed 1), where a full evaluation sees every pair
    scenario = _scenario()
    n_sites = len(scenario.transmitters) - 1
    evaluated, full = 0, 0
    budget = network.transmitter_budget

    def counting(group, rx_xyz, cfg):
        nonlocal evaluated, full
        if not isinstance(group[0].pattern, AperturePattern):
            evaluated += len(group) * rx_xyz.shape[0]
        else:  # the platform, on every sample of the track
            full += n_sites * rx_xyz.shape[0]
        return budget(group, rx_xyz, cfg)

    with mock.patch.object(network, "transmitter_budget", counting):
        for track in [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]:
            _track_events(scenario, 1, 3.0, track)
    assert 0 < evaluated <= 0.3 * full, evaluated / full


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
    # peak stays within bound x the output: measured 1.43x and 2.48x.
    # Building every transmitter's budget before using any reads 3.97x and
    # 6.05x, because all 13 transmitters' medians and gains are alive at once.
    scenario = engine.build_combined_scenario(config_from_dict({}))
    t = np.linspace(0.0, 1.0, 11_000)[:, None]  # one sample per 2 m
    pos_xyz = (1.0 - t) * np.array([21_000.0, 6_000.0, 1.5]) + t * np.array(
        [300.0, 80.0, 1.5]
    )

    def track():
        rng = engine.derive_rng(1, engine._MOBILITY, 0)
        return _track_rx_power_dbm(scenario, pos_xyz, rng, 0.97, shadowed).rx

    track()  # first-call work (the scipy.signal import) is not the track's
    rx, peak = _peak_traced_bytes(track)
    assert rx.shape == (37, 11_000)
    assert peak <= bound * rx.nbytes, peak / rx.nbytes


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

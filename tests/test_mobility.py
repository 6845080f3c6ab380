import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.signal import lfilter

import hibsim
from hibsim import antenna, channel, engine
from hibsim.config import config_from_dict
from hibsim.mobility import (
    CENTER_PARK_RADIUS_M,
    HIBS_TO_TN,
    TN_TO_HIBS,
    HandoverEvent,
    MobilityResult,
    _best_two,
    _consecutive_needed,
    _first_sustained,
    _track_rx_power_dbm,
    run_mobility,
)
from hibsim.network import CellKind

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


def test_best_two_gives_the_strongest_other_cell():
    # per sample and serving cell: the strongest other cell and its level,
    # ties to the lowest index, as masking the serving cell and taking
    # argmax over the row would give
    rx = np.round(np.random.default_rng(8).normal(size=(400, 7)), 0)  # many ties
    best, best_cell, second, second_cell = _best_two(rx)
    for serving in range(7):
        others = rx.copy()
        others[:, serving] = -np.inf
        is_best = best_cell == serving
        assert np.array_equal(np.where(is_best, second, best), others.max(axis=1))
        assert np.array_equal(
            np.where(is_best, second_cell, best_cell), np.argmax(others, axis=1)
        )


def test_run_mobility_rejects_nonpositive_duration(default_cfg):
    bad = dataclasses.replace(
        default_cfg,
        mobility=dataclasses.replace(default_cfg.mobility, sim_duration_s=0.0),
    )
    with pytest.raises(ValueError, match="sim_duration_s"):
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
    """Received power (T, n_cells) computed one cell at a time: geometry,
    medians, one LOS threshold (unless always LOS), then T AR(1) innovations;
    tx - (pl + shadow + clutter - g_tx - g_rx), the drops' coupling order."""
    cfg = scenario.cfg
    ntn, rma = cfg.channel.ntn, cfg.channel.rma
    n_t = pos_xyz.shape[0]
    rx = np.empty((n_t, scenario.n_cells))
    for i, cell in enumerate(scenario.cells):
        if cell.kind is CellKind.HIBS_BEAM:
            delta = pos_xyz - cell.tx_position
            slant = np.linalg.norm(delta, axis=1)
            elev = np.degrees(
                np.arctan2(-delta[:, 2], np.hypot(delta[:, 0], delta[:, 1]))
            )
            off_axis = np.degrees(
                np.arccos(np.clip(delta @ cell.boresight / slant, -1.0, 1.0))
            )
            los = np.ones(n_t, dtype=bool) if ntn.los_only else rng.random() < ntn.p_los(elev)
            pl = channel.fspl_db(slant, cfg.carrier.frequency_hz)
            clutter = np.where(los, 0.0, ntn.clutter_db(elev))
            sigma = np.where(los, ntn.sigma_los_db, ntn.sigma_nlos_db)
            g_tx = antenna.aperture_gain_dbi(off_axis, cell.pattern)
        else:
            dx = pos_xyz[:, 0] - cell.tx_position[0]
            dy = pos_xyz[:, 1] - cell.tx_position[1]
            d2d = np.hypot(dx, dy)
            az_off = np.degrees(np.arctan2(dy, dx)) - cell.azimuth_deg
            depression = np.degrees(np.arctan2(cell.tx_position[2] - pos_xyz[:, 2], d2d))
            pl_los, pl_nlos, pre_bp, p_los, _ = channel.rma_median_pathloss(
                d2d, cfg.carrier.frequency_hz, cell.tx_position[2], cfg.ue.height_m, rma
            )
            los = rng.random() < p_los
            pl = np.where(los, pl_los, pl_nlos)
            clutter = 0.0
            sigma = np.where(
                los,
                np.where(pre_bp, rma.sigma_los_near_db, rma.sigma_los_far_db),
                rma.sigma_nlos_db,
            )
            g_tx = antenna.sector_gain_dbi(az_off, depression, cell.pattern)
        shadow = 0.0
        if shadowed and cfg.channel.shadowing:
            innov = rng.standard_normal(n_t)
            innov[1:] *= math.sqrt(max(1.0 - rho * rho, 0.0))
            shadow = sigma * lfilter([1.0], [1.0, -rho], innov)
        coupling = pl + shadow + clutter - g_tx - cfg.ue.antenna_gain_dbi
        rx[:, i] = cell.tx_power_dbm - coupling
    return rx


@pytest.mark.parametrize("shadowed", [False, True])
@pytest.mark.parametrize("los_only", [False, True])
def test_track_rx_power_matches_per_cell_reference(shadowed, los_only):
    cfg = config_from_dict({"channel": {"ntn": {"los_only": los_only}}})
    scenario = engine.build_combined_scenario(cfg)
    # an inbound track from outside the site ring to the center
    t = np.linspace(0.0, 1.0, 400)[:, None]
    pos_xyz = (1.0 - t) * np.array([21_000.0, 6_000.0, 1.5]) + t * np.array(
        [300.0, 80.0, 1.5]
    )
    core_rng = engine.derive_rng(4, engine._MOBILITY, 9)
    rng = engine.derive_rng(4, engine._MOBILITY, 9)
    got = _track_rx_power_dbm(scenario, pos_xyz, core_rng, 0.9, shadowed)
    want = reference_track_rx_power_dbm(scenario, pos_xyz, rng, 0.9, shadowed)
    assert got.shape == (400, 37)
    assert np.array_equal(got, want)
    assert core_rng.random() == rng.random()  # same number of draws


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
    # The (T, cells) received power is the one array a track needs whole;
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
        return _track_rx_power_dbm(scenario, pos_xyz, rng, 0.97, shadowed)

    track()  # first-call work (the scipy.signal import) is not the track's
    rx, peak = _peak_traced_bytes(track)
    assert rx.shape == (11_000, 37)
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

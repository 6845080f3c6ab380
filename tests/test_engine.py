import concurrent.futures
import dataclasses
import functools
import math
import multiprocessing
import operator
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hibsim import engine, geometry, network
from hibsim.channel import noise_power_dbm
from hibsim.engine import (
    build_combined_scenario,
    build_hibs_scenario,
    derive_rng,
    run_coupling_loss,
    run_sinr_sweep,
    run_throughput_sweep,
)
from hibsim.network import CellKind

RING_RADIUS_M = 17386.66487320323


def test_derive_rng_reproducible():
    a = derive_rng(7, 1, 3).standard_normal(100)
    b = derive_rng(7, 1, 3).standard_normal(100)
    assert np.array_equal(a, b)


def test_derive_rng_streams_independent():
    a = derive_rng(1, 0, 0).standard_normal(10_000)
    b = derive_rng(1, 0, 1).standard_normal(10_000)
    c = derive_rng(2, 0, 0).standard_normal(10_000)
    assert not np.array_equal(a, b)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.05
    assert abs(np.corrcoef(a, c)[0, 1]) < 0.05
    # key depth matters: (1, 0) and (1, 0, 0) are different streams
    d = derive_rng(1, 0).standard_normal(10_000)
    assert not np.array_equal(a, d)


def test_build_hibs_scenario(default_cfg):
    s = build_hibs_scenario(default_cfg)
    assert s.n_cells == 19
    assert s.is_hibs.all()
    assert np.array_equal(np.bincount(s.ring), [1, 6, 12])
    assert s.dl_interferers == ()
    assert_allclose(s.service_radius_m, 35682.482323055425)
    assert s.beam_centers.shape == (19, 3)
    assert_allclose(s.tx_power_dbm, 49.0)


def test_build_combined_scenario(default_cfg):
    s = build_combined_scenario(default_cfg)
    assert s.n_cells == 37
    assert s.cells[0].kind is CellKind.HIBS_BEAM
    assert np.array_equal(s.is_hibs, [True] + [False] * 36)
    assert np.array_equal(s.ring, [0] + [-1] * 36)
    # full beam grid stays on the air as non-serving interferers
    assert len(s.dl_interferers) == 18
    assert [c.ring for c in s.dl_interferers] == [1] * 6 + [2] * 12
    assert all(c.kind is CellKind.HIBS_BEAM for c in s.dl_interferers)
    # drop region: site ring plus half an ISD of outskirts
    assert_allclose(s.service_radius_m, RING_RADIUS_M + 4_500.0)
    assert s.beam_centers.shape == (1, 3)


def test_build_combined_scenario_without_overlay_beams(default_cfg):
    cfg = dataclasses.replace(
        default_cfg,
        scheduler=dataclasses.replace(
            default_cfg.scheduler, overlay_cochannel_beams=False
        ),
    )
    s = build_combined_scenario(cfg)
    assert s.n_cells == 37
    assert s.dl_interferers == ()


def test_run_coupling_loss_small(default_cfg):
    res = run_coupling_loss(default_cfg, seed=3, n_drops=4, users_per_drop=50)
    assert sorted(res.samples_by_ring) == [0, 1, 2]
    total = sum(v.size for v in res.samples_by_ring.values())
    assert total == 4 * 50
    for samples in res.samples_by_ring.values():
        assert np.isfinite(samples).all()
        assert np.all(samples > 90.0)  #120-ish dB pathloss minus 16.5 dBi peak
    assert res.n_drops == 4 and res.users_per_drop == 50 and res.seed == 3


def test_run_coupling_loss_drop_prefix_property(default_cfg):
    # each drop owns its rng stream, so more drops only append samples
    a = run_coupling_loss(default_cfg, seed=4, n_drops=3, users_per_drop=40)
    b = run_coupling_loss(default_cfg, seed=4, n_drops=4, users_per_drop=40)
    for ring, samples in a.samples_by_ring.items():
        assert np.array_equal(samples, b.samples_by_ring[ring][: samples.size])


def test_run_coupling_loss_threads_equal(default_cfg):
    # 19 x 200 links a drop: the ten drops fill two blocks
    assert len(engine._drop_blocks([19 * 200] * 10)) == 2
    a = run_coupling_loss(default_cfg, seed=5, n_drops=10, users_per_drop=200, threads=1)
    b = run_coupling_loss(default_cfg, seed=5, n_drops=10, users_per_drop=200, threads=3)
    for ring in a.samples_by_ring:
        assert np.array_equal(a.samples_by_ring[ring], b.samples_by_ring[ring])


def test_run_coupling_loss_rejects_bad_sizes(default_cfg):
    with pytest.raises(ValueError, match="positive"):
        run_coupling_loss(default_cfg, n_drops=0)
    with pytest.raises(ValueError, match="positive"):
        run_coupling_loss(default_cfg, users_per_drop=0)


def test_run_sinr_sweep_small(default_cfg):
    res = run_sinr_sweep(default_cfg, seed=9, n_drops=4, densities=(0.5, 2.0))
    assert res.densities == (0.5, 2.0)
    for density in res.densities:
        dl = res.dl_by_density[density]
        ul = res.ul_by_density[density]
        assert dl.shape == ul.shape
        assert np.isfinite(dl).all() and np.isfinite(ul).all()
    assert res.dl_by_density[2.0].size > res.dl_by_density[0.5].size


def test_run_sinr_sweep_user_counts_follow_poisson_streams(default_cfg):
    # white box: drop (di, d) draws poisson(density * 19) users first
    res = run_sinr_sweep(default_cfg, seed=9, n_drops=4, densities=(0.5, 2.0))
    for di, density in enumerate(res.densities):
        expected = sum(
            int(engine.derive_rng(9, engine._SINR, di, d).poisson(density * 19))
            for d in range(4)
        )
        assert res.dl_by_density[density].size == expected
        assert res.ul_by_density[density].size == expected


def test_run_sinr_sweep_threads_equal(default_cfg):
    # a density-20 drop holds about 19 x (380 + 19) links with its phantoms,
    # so its six drops alone span at least two blocks
    a = run_sinr_sweep(default_cfg, seed=2, n_drops=6, densities=(1.0, 20.0), threads=1)
    b = run_sinr_sweep(default_cfg, seed=2, n_drops=6, densities=(1.0, 20.0), threads=3)
    for density in a.densities:
        assert np.array_equal(a.dl_by_density[density], b.dl_by_density[density])
        assert np.array_equal(a.ul_by_density[density], b.ul_by_density[density])


def test_run_sinr_sweep_near_zero_density_yields_no_samples(default_cfg):
    res = run_sinr_sweep(default_cfg, seed=1, n_drops=3, densities=(1e-9,))
    assert res.dl_by_density[1e-9].size == 0
    assert res.ul_by_density[1e-9].size == 0


def test_run_sinr_sweep_rejects_bad_inputs(default_cfg):
    with pytest.raises(ValueError, match="n_drops"):
        run_sinr_sweep(default_cfg, n_drops=0)
    with pytest.raises(ValueError, match="densities"):
        run_sinr_sweep(default_cfg, densities=())
    with pytest.raises(ValueError, match="densities"):
        run_sinr_sweep(default_cfg, densities=(1.0, -2.0))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="densities"):
            run_sinr_sweep(default_cfg, densities=(1.0, bad))


def test_run_throughput_sweep_small(default_cfg):
    res = run_throughput_sweep(default_cfg, seed=6, n_drops=3, densities=(2.0, 10.0))
    assert [p.density for p in res.points] == [2.0, 10.0]
    bw = default_cfg.carrier.bandwidth_hz
    for p in res.points:
        assert p.hibs_cell_bps >= 0.0 and p.tn_cell_bps >= 0.0
        # spectral efficiency is exactly cell rate over bandwidth
        assert p.hibs_se_bpshz == p.hibs_cell_bps / bw
        assert p.tn_se_bpshz == p.tn_cell_bps / bw
        assert p.n_hibs_users + p.n_tn_users > 0
    assert res.hibs_max_se_bpshz == max(p.hibs_se_bpshz for p in res.points)
    assert res.tn_max_se_bpshz == max(p.tn_se_bpshz for p in res.points)


def test_run_throughput_sweep_threads_equal(default_cfg):
    # a density-20 overlay drop (about 55 x 740 links) is a block of its own
    a = run_throughput_sweep(
        default_cfg, seed=8, n_drops=3, densities=(1.0, 20.0), threads=1
    )
    b = run_throughput_sweep(
        default_cfg, seed=8, n_drops=3, densities=(1.0, 20.0), threads=3
    )
    assert a.points == b.points


def test_run_throughput_sweep_near_zero_density(default_cfg):
    res = run_throughput_sweep(default_cfg, seed=1, n_drops=2, densities=(1e-9,))
    p = res.points[0]
    assert p.hibs_cell_bps == 0.0 and p.tn_cell_bps == 0.0
    assert p.n_hibs_users == 0 and p.n_tn_users == 0
    assert p.hibs_user_bps == 0.0 and p.tn_user_bps == 0.0


def test_run_throughput_sweep_rejects_bad_inputs(default_cfg):
    with pytest.raises(ValueError, match="n_drops"):
        run_throughput_sweep(default_cfg, n_drops=-1)
    with pytest.raises(ValueError, match="densities"):
        run_throughput_sweep(default_cfg, densities=[])
    with pytest.raises(ValueError, match="densities"):
        run_throughput_sweep(default_cfg, densities=[math.nan])


def test_drop_blocks_are_greedy_runs_under_the_cap():
    cap = engine._BLOCK_LINKS
    # a block fills up to the cap exactly; a drop over the cap runs alone
    links = [cap // 2, cap // 2, 1, cap + 5, 0, 3, cap - 3, 1]
    blocks = engine._drop_blocks(links)
    assert blocks == [range(0, 2), range(2, 3), range(3, 4), range(4, 7), range(7, 8)]
    assert engine._drop_blocks([0]) == [range(0, 1)]


def _poisson_sizes(seed, experiment, di, density, n_drops, n_cells):
    return [
        int(engine.derive_rng(seed, experiment, di, d).poisson(density * n_cells))
        for d in range(n_drops)
    ]


def test_run_sinr_sweep_drop_prefix_property(default_cfg):
    # at these seeds drop (0, 0) holds a single user: alone in the one-drop
    # run, beside other drops of both densities in the longer runs
    seeds = [s for s in range(1, 40) if _poisson_sizes(s, engine._SINR, 0, 0.1, 1, 19) == [1]]
    assert len(seeds) >= 8
    for seed in seeds[:8]:
        full = run_sinr_sweep(default_cfg, seed=seed, n_drops=6, densities=(0.1, 20.0))
        for n_drops, densities in ((1, (0.1,)), (2, (0.1, 20.0))):
            part = run_sinr_sweep(
                default_cfg, seed=seed, n_drops=n_drops, densities=densities
            )
            for density in densities:
                for got, want in (
                    (part.dl_by_density[density], full.dl_by_density[density]),
                    (part.ul_by_density[density], full.ul_by_density[density]),
                ):
                    assert got.size and np.array_equal(got, want[: got.size])


def _user_rates(monkeypatch, cfg, **kwargs):
    """DL SINR and rate of every user of a throughput sweep, in key order."""
    seen = []
    real = network.round_robin_throughput_bps

    def spy(sinr_db, serving, n_cells, bandwidth_hz, params):
        out = real(sinr_db, serving, n_cells, bandwidth_hz, params)
        seen.append((sinr_db, out[1]))
        return out

    with monkeypatch.context() as m:
        m.setattr(network, "round_robin_throughput_bps", spy)
        run_throughput_sweep(cfg, threads=1, **kwargs)
    return np.concatenate([s for s, _ in seen]), np.concatenate([r for _, r in seen])


def test_run_throughput_sweep_drop_prefix_property(default_cfg, monkeypatch):
    # every density-20 drop is a block of its own; at seed 3 the first
    # density-0.1 drop holds a single user, alone in the one-drop run
    assert _poisson_sizes(3, engine._THROUGHPUT, 1, 0.1, 1, 37) == [1]
    densities = (20.0, 0.1)
    runs = {}
    for n_drops in (1, 4):
        sinr, rates = _user_rates(
            monkeypatch, default_cfg, seed=3, n_drops=n_drops, densities=densities
        )
        n_high = sum(_poisson_sizes(3, engine._THROUGHPUT, 0, 20.0, n_drops, 37))
        runs[n_drops] = (sinr[:n_high], rates[:n_high], sinr[n_high:], rates[n_high:])
    for short, long in zip(runs[1], runs[4]):
        assert short.size and np.array_equal(short, long[: short.size])


def _reference_dl_sinr_db(coupling, serving, tx_power_dbm, active, noise_dbm):
    rx = np.where(active[:, None], 10.0 ** ((tx_power_dbm[:, None] - coupling) / 10.0), 0.0)
    s = rx[serving, np.arange(serving.size)]
    return 10.0 * np.log10(s / (rx.sum(axis=0) - s + 10.0 ** (noise_dbm / 10.0)))


def _reference_coscheduled_ul(coupling, serving, ue_tx_power_dbm, noise_mw):
    """Each user's uplink SINR in its first round-robin slot: slot j carries
    the j-th user, cyclically, of every active cell."""
    rx = 10.0 ** ((ue_tx_power_dbm - coupling) / 10.0)
    cells = np.unique(serving)
    users_of = {c: np.flatnonzero(serving == c) for c in cells}
    ul = np.empty(serving.size)
    for c in cells:
        for j, u in enumerate(users_of[c]):
            in_slot = rx[c, [users_of[o][j % users_of[o].size] for o in cells]]
            s = rx[c, u]
            ul[u] = 10.0 * np.log10(s / (in_slot.sum() - s + noise_mw))
    return ul


def _reference_sinr_drop(scenario, rng, n_users):
    """One drop of the SINR sweep on its own, through the per-drop
    `drop_budgets` path with one generator."""
    cfg = scenario.cfg
    n_cells = scenario.n_cells
    users = geometry.drop_users(
        n_users, rng, scenario.service_radius_m, height_m=cfg.ue.height_m
    )
    coupling = engine.drop_budgets(scenario, users, rng)
    serving = np.argmin(coupling, axis=0)
    active = np.bincount(serving, minlength=n_cells) > 0
    noise_dl = noise_power_dbm(cfg.carrier.bandwidth_hz, cfg.ue.noise_figure_db)
    dl = _reference_dl_sinr_db(coupling, serving, scenario.tx_power_dbm, active, noise_dl)
    # one noise figure for every beam: the platform's
    noise_ul = 10.0 ** (
        noise_power_dbm(cfg.carrier.bandwidth_hz, cfg.hibs.noise_figure_db) / 10.0
    )
    ul_mode = cfg.scheduler.ul_interference
    if ul_mode == "coscheduled":
        return dl, _reference_coscheduled_ul(
            coupling, serving, cfg.ue.tx_power_dbm, noise_ul
        )
    i_mw = np.zeros(n_cells)
    if ul_mode == "full_load":
        centers = scenario.beam_centers
        n_b = centers.shape[0]
        r = 0.5 * cfg.hibs.footprint_diameter_m * np.sqrt(rng.uniform(size=n_b))
        theta = rng.uniform(0.0, 2.0 * math.pi, size=n_b)
        phantoms = centers.copy()
        phantoms[:, 0] += r * np.cos(theta)
        phantoms[:, 1] += r * np.sin(theta)
        phantoms[:, 2] = cfg.ue.height_m
        rx = 10.0 ** (
            (cfg.ue.tx_power_dbm - engine.drop_budgets(scenario, phantoms, rng)) / 10.0
        )
        i_mw = rx.sum(axis=1)
        i_mw[:n_b] -= rx[np.arange(n_b), np.arange(n_b)]
    s_dbm = cfg.ue.tx_power_dbm - coupling[serving, np.arange(n_users)]
    ul = s_dbm - 10.0 * np.log10(i_mw[serving] + noise_ul)
    return dl, ul


@pytest.mark.parametrize("ul_mode", ["full_load", "coscheduled", "none"])
def test_run_sinr_sweep_matches_per_drop_reference(default_cfg, ul_mode):
    cfg = dataclasses.replace(
        default_cfg,
        scheduler=dataclasses.replace(default_cfg.scheduler, ul_interference=ul_mode),
    )
    densities = (0.1, 2.0, 20.0)
    n_drops = 8
    res = run_sinr_sweep(cfg, seed=11, n_drops=n_drops, densities=densities)
    scenario = build_hibs_scenario(cfg)
    phantoms = 19 if ul_mode == "full_load" else 0
    links = []
    for di, density in enumerate(densities):
        sizes = _poisson_sizes(11, engine._SINR, di, density, n_drops, 19)
        links += [19 * (n + phantoms) if n else 0 for n in sizes]
        lo = 0
        for d, n in enumerate(sizes):
            rng = engine.derive_rng(11, engine._SINR, di, d)
            rng.poisson(density * 19)
            got_dl = res.dl_by_density[density][lo : lo + n]
            got_ul = res.ul_by_density[density][lo : lo + n]
            lo += n
            if n == 0:
                continue
            dl, ul = _reference_sinr_drop(scenario, rng, n)
            if n == 1:  # numpy sums one column pairwise: last bits may differ
                assert_allclose(got_dl, dl, rtol=1e-12)
                assert_allclose(got_ul, ul, rtol=1e-12)
            else:
                assert np.array_equal(got_dl, dl)
                assert np.array_equal(got_ul, ul)
    # several drops share a block, and there is more than one block
    blocks = engine._drop_blocks(links)
    assert 1 < len(blocks) < len(links)


def test_run_throughput_sweep_matches_per_drop_reference(default_cfg):
    cfg = default_cfg
    densities = (2.0, 20.0)  # no single-user drops at 74 users a drop on average
    n_drops = 3
    res = run_throughput_sweep(cfg, seed=12, n_drops=n_drops, densities=densities)
    scenario = build_combined_scenario(cfg)
    n_serv = scenario.n_cells
    tx_all = np.concatenate([scenario.tx_power_dbm, scenario.interferer_tx_power_dbm])
    noise_dl = noise_power_dbm(cfg.carrier.bandwidth_hz, cfg.ue.noise_figure_db)
    bw = cfg.carrier.bandwidth_hz
    hibs = scenario.is_hibs
    for di, (density, point) in enumerate(zip(densities, res.points)):
        cells, users, served = [], [], []
        for d in range(n_drops):
            rng = engine.derive_rng(12, engine._THROUGHPUT, di, d)
            n = int(rng.poisson(density * n_serv))
            assert n > 1
            xyz = geometry.drop_users(n, rng, scenario.service_radius_m, height_m=1.5)
            coupling = engine.drop_budgets(scenario, xyz, rng)
            serving = np.argmin(coupling[:n_serv], axis=0)
            active = np.concatenate(
                [np.bincount(serving, minlength=n_serv) > 0, np.ones(18, dtype=bool)]
            )
            dl = _reference_dl_sinr_db(coupling, serving, tx_all, active, noise_dl)
            cell_bps, user_bps, _ = network.round_robin_throughput_bps(
                dl, serving, n_serv, bw, cfg.rate
            )
            cells.append(cell_bps)
            users.append(user_bps)
            served.append(serving)
        cell_bps = np.stack(cells)
        user_bps = np.concatenate(users)
        user_hibs = hibs[np.concatenate(served)]
        assert point.hibs_cell_bps == float(cell_bps[:, hibs].mean())
        assert point.tn_cell_bps == float(cell_bps[:, ~hibs].mean())
        assert point.hibs_user_bps == float(user_bps[user_hibs].mean())
        assert point.tn_user_bps == float(user_bps[~user_hibs].mean())
        assert point.n_hibs_users == int(user_hibs.sum())


def test_drop_budgets_live_memory(default_cfg):
    # 600 overlay users over 55 cells (36 sectors, the serving beam and 18
    # co-channel beams). The LOS uniforms and shadow normals are drawn up
    # front, one of each per link, and the coupling matrix is the output:
    # 3x its bytes. The budgets then live one transmitter at a time, the
    # largest being the platform's 19 rows of 55 (geometry, gains, resolved
    # links), so the peak stays within 7x the output: measured 5.78x.
    # Building every transmitter's budget and five component matrices
    # before combining them reads 10.2x.
    scenario = engine.build_combined_scenario(default_cfg)
    users = geometry.drop_users(
        600, np.random.default_rng(3), scenario.service_radius_m, height_m=1.5
    )
    tracemalloc.start()
    try:
        coupling = engine.drop_budgets(scenario, users, engine.derive_rng(1, 2, 0, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert coupling.shape == (55, 600)
    assert peak <= 7.0 * coupling.nbytes, peak / coupling.nbytes


# the pool tests below need a second CPU; with one, every run is in-process
needs_two_workers = pytest.mark.skipif(
    engine._pool_size(2, 2) < 2, reason="one CPU: worker pools run in-process"
)


class _RecordingPool:
    """Stand-in for ProcessPoolExecutor: records its size, starts nothing,
    and maps in-process."""

    sizes: list[int] = []

    def __init__(self, max_workers, mp_context=None):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, keys, chunksize=1):
        return map(fn, keys)


@pytest.mark.parametrize(
    "threads, n_keys, size",
    [
        (1, 5, None),  # in-process
        (3, 5, 3),
        (3, 1, None),  # one key: in-process
        (10_000, 6, 4),  # capped at the CPUs
        (10_000, 3, 3),  # capped at the work
    ],
)
def test_map_ordered_pool_size(monkeypatch, threads, n_keys, size):
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert engine._map_ordered(operator.neg, range(n_keys), threads) == [
        -k for k in range(n_keys)
    ]
    assert _RecordingPool.sizes == ([] if size is None else [size])


def test_pool_size_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert engine._pool_size(10_000, 50) == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert engine._pool_size(10_000, 50) == 1


def test_worker_exception_reaches_caller(default_cfg, monkeypatch):
    def fail(*args, **kwargs):
        raise FloatingPointError("link budget failed")

    monkeypatch.setattr(network, "coupling_loss_matrix", fail)
    with pytest.raises(FloatingPointError, match="^link budget failed$"):
        run_sinr_sweep(default_cfg, seed=2, n_drops=6, densities=(1.0, 20.0), threads=2)


@needs_two_workers
def test_worker_pool_from_a_non_main_thread(default_cfg):
    # the pool forks from whichever thread runs the sweep; it must not hang.
    # Each density-20 overlay drop is a block of its own.
    kwargs = dict(seed=8, n_drops=3, densities=(1.0, 20.0))
    got = {}
    worker = threading.Thread(
        target=lambda: got.update(res=run_throughput_sweep(default_cfg, threads=2, **kwargs)),
        daemon=True,
    )
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive(), "2-worker sweep from a non-main thread hung"
    assert got["res"].points == run_throughput_sweep(default_cfg, threads=1, **kwargs).points


@needs_two_workers
def test_workers_pickle_when_wrapped_in_place(default_cfg, monkeypatch, tmp_path):
    # a tracer may swap a worker for a functools.wraps wrapper on its module;
    # the run must hand the pool that same object, which pickles by name
    log = tmp_path / "pids"
    block = engine._throughput_block

    @functools.wraps(block)
    def wrapped(*args):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return block(*args)

    kwargs = dict(seed=8, n_drops=3, densities=(1.0, 20.0))
    a = run_throughput_sweep(default_cfg, threads=1, **kwargs)
    monkeypatch.setattr(engine, "_throughput_block", wrapped)
    assert run_throughput_sweep(default_cfg, threads=2, **kwargs).points == a.points
    pids = set(log.read_text(encoding="utf-8").split())
    assert pids and str(os.getpid()) not in pids  # ran in the workers


@needs_two_workers
@pytest.mark.skipif(
    "forkserver" not in multiprocessing.get_all_start_methods(),
    reason="no forkserver start method",
)
def test_workers_need_no_fork_inherited_state(default_cfg, monkeypatch):
    # forkserver children start from a fresh interpreter: the workers see
    # only what they are handed. Six drops a density make two blocks.
    monkeypatch.setattr(engine, "_START_METHOD", "forkserver")
    kwargs = dict(seed=2, n_drops=6, densities=(1.0, 20.0))
    a = run_sinr_sweep(default_cfg, threads=1, **kwargs)
    b = run_sinr_sweep(default_cfg, threads=2, **kwargs)
    for d in a.densities:
        assert np.array_equal(a.dl_by_density[d], b.dl_by_density[d])
        assert np.array_equal(a.ul_by_density[d], b.ul_by_density[d])


def test_import_leaves_pool_modules_unloaded():
    # the pool modules load only when a pool runs
    src = os.path.dirname(os.path.dirname(engine.__file__))
    probe = (
        "import sys, hibsim, hibsim.cli, hibsim.output\n"
        "print(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.splitlines()[-1] == "[]"

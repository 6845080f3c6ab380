import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hibsim import antenna, channel, engine, geometry, network
from hibsim.antenna import AperturePattern, make_aperture_pattern
from hibsim.channel import noise_power_dbm
from hibsim.config import ScenarioConfig, TerrestrialConfig, config_from_dict
from hibsim.network import (
    RateParams,
    Transmitter,
    active_cells,
    associate,
    coupling_loss_matrix,
    dl_sinr_db,
    round_robin_throughput_bps,
    spectral_efficiency_bpshz,
)

BEAMWIDTH_DEG = 2.0 * math.degrees(math.atan(0.25))


def _platform():
    """The default 19-beam platform, beams steered at their ground centers."""
    layout = geometry.build_hibs_layout()
    steer = layout.beam_centers - layout.platform_position
    boresights = steer / np.linalg.norm(steer, axis=1, keepdims=True)
    pattern = make_aperture_pattern(BEAMWIDTH_DEG)
    return Transmitter(layout.platform_position, pattern, boresights, np.arange(19))


def test_build_hibs_cells_structure():
    scenario = engine.build_hibs_scenario(ScenarioConfig())
    assert len(scenario.transmitters) == 1
    platform = scenario.transmitters[0]
    assert isinstance(platform.pattern, AperturePattern)
    assert platform.pointing.shape == (19, 3)
    assert np.array_equal(platform.rows, np.arange(19))
    assert_allclose(np.linalg.norm(platform.pointing, axis=1), 1.0)
    assert list(scenario.ring) == [0] + [1] * 6 + [2] * 12
    # center beam points straight down
    assert_allclose(platform.pointing[0], [0.0, 0.0, -1.0])
    assert_allclose(platform.position, [0.0, 0.0, 20_000.0])


def test_build_tn_cells_structure():
    cfg = config_from_dict({"terrestrial": {"sector_rotation_deg": 60.0}})
    sites = engine.build_combined_scenario(cfg).transmitters[1:]
    assert len(sites) == 12
    assert sum(len(site.pointing) for site in sites) == 36
    # the sector pattern is the terrestrial section itself, not a copy
    assert all(site.pattern is cfg.terrestrial for site in sites)
    assert_allclose(sites[0].pointing, [60.0, 180.0, 300.0])
    assert_allclose(sites[0].position[2], 30.0)


def test_transmitter_table():
    platform = engine.build_hibs_scenario(ScenarioConfig()).transmitters[0]
    overlay = engine.build_combined_scenario(ScenarioConfig())
    table = overlay.transmitters
    listed = np.concatenate([tx.rows for tx in table])
    assert np.array_equal(np.sort(listed), np.arange(55))  # each row once
    assert [len(tx.rows) for tx in table] == [len(tx.pointing) for tx in table]
    assert [len(tx.pointing) for tx in table] == [19] + [3] * 12
    assert [isinstance(tx.pattern, AperturePattern) for tx in table] == (
        [True] + [False] * 12
    )
    # one platform entry: the center beam serves from row 0, and the 18
    # co-channel beams come after the 36 sectors, which the sites hold
    assert np.array_equal(table[0].rows, [0, *range(37, 55)])
    assert np.array_equal(table[0].pointing, platform.pointing)
    assert np.array_equal(np.concatenate([tx.rows for tx in table[1:]]), np.arange(1, 37))
    assert overlay.tx_power_dbm.shape == (55,)


def test_hibs_link_geometry_nadir():
    platform = _platform()
    users = np.array([[0.0, 0.0, 0.0], [20_000.0, 0.0, 0.0]])
    slant, elev, off_axis = network.platform_geometry(
        platform.position, platform.pointing[:1], users
    )
    assert_allclose(slant, [20_000.0, 20_000.0 * math.sqrt(2.0)])
    assert_allclose(elev, [90.0, 45.0])
    assert_allclose(off_axis, [[0.0, 45.0]])


def test_tn_link_geometry():
    layout = geometry.build_tn_ring_layout(TerrestrialConfig(sector_rotation_deg=0.0))
    site = layout.site_positions[0]  # azimuth 0 sector
    user = np.array([[site[0] + 1_000.0, site[1], 1.5]])
    d2d, az_off, depression = network.site_geometry(
        site[None], layout.sector_azimuth_deg[:1], user
    )
    assert_allclose(d2d, [[1_000.0]])
    assert_allclose(az_off, [[[0.0], [-120.0], [-240.0]]])
    assert_allclose(depression, [[math.degrees(math.atan2(28.5, 1_000.0))]])


def test_associate_single_cell():
    coupling = np.array([[100.0, 120.0, 90.0]])
    assert np.array_equal(associate(coupling), [0, 0, 0])


def test_associate_tie_break_lowest_id():
    coupling = np.array([[100.0], [100.0], [99.0]])
    assert associate(coupling)[0] == 2
    coupling = np.array([[100.0], [100.0]])
    assert associate(coupling)[0] == 0


def test_associate_center_user_gets_platform_beam(default_cfg):
    scenario = engine.build_combined_scenario(default_cfg)
    users = np.array([[0.0, 0.0, 1.5]])
    for seed in (1, 2, 3):
        rng = engine.derive_rng(seed, 7)
        coupling = engine.drop_budgets(scenario, users, [(rng, 1)])
        serving = associate(coupling[: scenario.n_cells])
        assert scenario.ring[serving[0]] >= 0


def test_associate_user_next_to_site_gets_facing_sector():
    cfg = ScenarioConfig()
    cfg = dataclasses.replace(
        cfg, channel=dataclasses.replace(cfg.channel, shadowing=False)
    )
    scenario = engine.build_combined_scenario(cfg)
    # site 0 sector boresights point at 60/180/300 deg; stand 300 m along 60 deg
    site = scenario.transmitters[1].position
    az = math.radians(60.0)
    users = np.array(
        [[site[0] + 300.0 * math.cos(az), site[1] + 300.0 * math.sin(az), 1.5]]
    )
    for seed in (1, 2, 3):
        rng = engine.derive_rng(seed, 8)
        coupling = engine.drop_budgets(scenario, users, [(rng, 1)])
        serving = int(associate(coupling[: scenario.n_cells])[0])
        assert serving == 1
        assert scenario.transmitters[1].pointing[0] == 60.0


def _links_by_transmitter(transmitters, users, cfg, uniform, normal):
    """(pathloss, shadow, clutter, g_tx, los) matrices over all cells, each
    transmitter's rows, one per pointing entry, from its budget as a group
    of one under `cfg` and the given draws."""
    shape = (sum(len(tx.pointing) for tx in transmitters), users.shape[0])
    pl, sh, cl, gt = (np.empty(shape) for _ in range(4))
    los = np.empty(shape, dtype=bool)
    for tx in transmitters:
        r = tx.rows
        budget = network.transmitter_budget([tx], users, cfg)
        links = budget.g_tx_dbi.shape  # (beams, n), or (1 site, sectors, n)
        resolved = channel.resolve_links(
            budget.medians,
            uniform[r].reshape(links),
            None if normal is None else normal[r].reshape(links),
        )
        for out, link in zip((pl, sh, cl, los, gt), (*resolved, budget.g_tx_dbi)):
            out[r] = np.broadcast_to(link, links).reshape(len(r), -1)
    return pl, sh, cl, gt, los


def test_coupling_loss_matrix_shapes_and_determinism():
    platforms = [_platform()]
    users = geometry.drop_users(40, np.random.default_rng(2), 35_682.0)
    cfg = ScenarioConfig()
    a = coupling_loss_matrix(platforms, users, [(np.random.default_rng(5), 40)], cfg)
    b = coupling_loss_matrix(platforms, users, [(np.random.default_rng(5), 40)], cfg)
    assert a.shape == (19, 40)
    assert np.array_equal(a, b)
    # the same generator's draws, in the documented order: every cell's LOS
    # uniforms, then every cell's shadowing normals
    uniform, normal = reference_cell_draws(19, 40, cfg, np.random.default_rng(5))
    links = [
        _links_by_transmitter(platforms, users, cfg, uniform, normal) for _ in range(2)
    ]
    assert np.array_equal(links[0][4], links[1][4])
    pl, sh, cl, gt, _ = links[0]
    assert_allclose(a, pl + sh + cl - gt - 0.0)


def reference_aperture_gain_dbi(theta_deg, pattern):
    """Airy gain with J1 evaluated on every element, floored afterwards."""
    u = np.abs(pattern.ka * np.sin(np.radians(theta_deg)))
    rel = np.ones_like(u)
    big = u > 1e-9
    rel[big] = (2.0 * antenna.bessel_j1(u[big]) / u[big]) ** 2
    if not pattern.bessel_sidelobes:
        rel[u > antenna.FIRST_J1_ZERO] = 0.0
    rel_db = 10.0 * np.log10(np.maximum(rel, 10.0 ** (-pattern.floor_db / 10.0)))
    return pattern.peak_gain_dbi + rel_db


def reference_cell_draws(n_cells, n, cfg, rng):
    """(uniform, normal), each (n_cells, n), drawn one cell at a time in row
    order: n LOS uniforms per cell, then, only when `cfg` turns shadowing
    on, n shadowing normals per cell (zero otherwise)."""
    uniform = np.stack([rng.random(n) for _ in range(n_cells)])
    if not cfg.channel.shadowing:
        return uniform, np.zeros((n_cells, n))
    return uniform, np.stack([rng.standard_normal(n) for _ in range(n_cells)])


def reference_cell_links(tx, pointing, users, cfg, uniform, normal):
    """The (pathloss, shadow, clutter, g_tx, los) row of one cell, computed
    for that cell alone from the given draws: its LOS uniforms (one per
    receiver, or one held for all) and its shadowing normals."""
    n = users.shape[0]
    f = cfg.carrier.frequency_hz
    ntn, rma = cfg.channel.ntn, cfg.channel.rma
    beam = isinstance(tx.pattern, AperturePattern)
    if beam:
        delta = users - tx.position
        slant = np.linalg.norm(delta, axis=1)
        elev = np.degrees(np.arctan2(-delta[:, 2], np.hypot(delta[:, 0], delta[:, 1])))
        off_axis = np.degrees(np.arccos(np.clip(delta @ pointing / slant, -1.0, 1.0)))
        pl = channel.fspl_db(slant, f)
        los = np.ones(n, dtype=bool) if ntn.los_only else uniform < ntn.p_los(elev)
        clutter = np.where(los, 0.0, ntn.clutter_db(elev))
        sigma = np.where(los, ntn.sigma_los_db, ntn.sigma_nlos_db)
        g_tx = reference_aperture_gain_dbi(off_axis, tx.pattern)
    else:
        dx = users[:, 0] - tx.position[0]
        dy = users[:, 1] - tx.position[1]
        d2d = np.hypot(dx, dy)
        az_off = np.degrees(np.arctan2(dy, dx)) - pointing
        depression = np.degrees(np.arctan2(tx.position[2] - users[:, 2], d2d))
        pl_los, pl_nlos, pre_bp, p_los, _ = channel.rma_median_pathloss(
            d2d, f, tx.position[2], cfg.ue.height_m, rma
        )
        los = uniform < p_los
        pl = np.where(los, pl_los, pl_nlos)
        clutter = np.zeros(n)
        sigma = np.where(
            los,
            np.where(pre_bp, rma.sigma_los_near_db, rma.sigma_los_far_db),
            rma.sigma_nlos_db,
        )
        g_tx = antenna.sector_gain_dbi(az_off, depression, tx.pattern)
    shadow = sigma * normal if cfg.channel.shadowing else np.zeros(n)
    return pl, shadow, clutter, g_tx, los


@pytest.mark.parametrize(
    "overrides, combined",
    [
        ({}, False),
        ({"scheduler": {"overlay_cochannel_beams": True}}, True),
        ({"channel": {"shadowing": False}}, True),
        ({"channel": {"ntn": {"los_only": True}}}, True),
        ({"hibs": {"pattern_sidelobes": "bessel"}}, False),
    ],
    ids=["platform", "combined", "no-shadowing", "los-only", "bessel-sidelobes"],
)
def test_coupling_loss_matrix_matches_per_cell_reference(overrides, combined):
    cfg = config_from_dict(overrides)
    build = engine.build_combined_scenario if combined else engine.build_hibs_scenario
    scenario = build(cfg)
    table = scenario.transmitters
    users = geometry.drop_users(
        150, np.random.default_rng(31), scenario.service_radius_m, height_m=1.5
    )
    core_rng, rng = engine.derive_rng(7, 1, 2), engine.derive_rng(7, 1, 2)
    coupling = engine.drop_budgets(scenario, users, [(core_rng, 150)])
    # one cell at a time in row order, whatever the order of the table
    cells = sorted(
        (
            (row, tx, pointing)
            for tx in table
            for row, pointing in zip(tx.rows, tx.pointing)
        ),
        key=lambda cell: cell[0],
    )
    assert [row for row, _, _ in cells] == list(range(55 if combined else 19))
    uniform, normal = reference_cell_draws(len(cells), 150, cfg, rng)
    rows = [
        reference_cell_links(tx, pointing, users, cfg, uniform[row], normal[row])
        for row, tx, pointing in cells
    ]
    pl, sh, cl, gt, los = (np.stack(col) for col in zip(*rows))
    assert np.array_equal(coupling, pl + sh + cl - gt - cfg.ue.antenna_gain_dbi)
    assert core_rng.random() == rng.random()  # same number of draws
    # the pieces: each transmitter's budget, resolved with the reference draws
    got = _links_by_transmitter(
        table, users, cfg, uniform, normal if cfg.channel.shadowing else None
    )
    for g, want in zip(got, (pl, sh, cl, gt, los)):
        assert np.array_equal(g, want)


@pytest.mark.parametrize(
    "overrides",
    [{}, {"channel": {"shadowing": False}}, {"channel": {"ntn": {"los_only": True}}}],
    ids=["shadowing", "no-shadowing", "los-only"],
)
@pytest.mark.parametrize("draws", ["users", "track", "one-receiver"])
def test_site_groups_match_sites_alone(overrides, draws, monkeypatch):
    # every group size from 1 to 12 sites gives the bits of each cell
    # computed alone, with the sites' rows consecutive or scattered; a
    # track's LOS thresholds, one per cell, broadcast over its samples
    cfg = config_from_dict(overrides)
    table = engine.build_combined_scenario(cfg).transmitters
    n = 1 if draws == "one-receiver" else 120
    users = geometry.drop_users(
        n, np.random.default_rng(12), 19_000.0, height_m=cfg.ue.height_m
    )
    rng = np.random.default_rng(13)
    uniform = rng.random((55, 1 if draws == "track" else n))
    normal = rng.standard_normal((55, n)) if cfg.channel.shadowing else None
    scattered = rng.permutation(np.arange(1, 37)).reshape(12, 3)
    layouts = {
        "consecutive": table,
        "scattered": table[:1] + tuple(
            tx._replace(rows=rows) for tx, rows in zip(table[1:], scattered)
        ),
    }
    for layout, listed in layouts.items():
        want = np.empty((55, n))
        for tx in listed:
            for row, pointing in zip(tx.rows, tx.pointing):
                pl, sh, cl, gt, _ = reference_cell_links(
                    tx,
                    pointing,
                    users,
                    cfg,
                    uniform[row],
                    np.zeros(n) if normal is None else normal[row],
                )
                want[row] = pl + sh + cl - gt - cfg.ue.antenna_gain_dbi
        for k in range(1, 13):
            monkeypatch.setattr(network, "_group_cell_limit", lambda _, k=k: 3 * k)
            got = np.empty((55, n))
            for rows, coupling in network._link_coupling(
                listed, users, uniform, normal, cfg
            ):
                got[rows] = coupling
            assert np.array_equal(got, want), (layout, k)
            sizes = [len(g) for g in network._budget_groups(listed)]
            assert sizes == [1] + [k] * (12 // k) + [12 % k] * (12 % k > 0)


def test_ue_antenna_gain_comes_off_last_from_the_config():
    # the same drop and draws with a 3 dBi UE antenna: the gain is taken off
    # the finished sum, so every link of the overlay moves by exactly 3 dB
    coupling = {}
    for gain in (0.0, 3.0):
        cfg = config_from_dict({"ue": {"antenna_gain_dbi": gain}})
        scenario = engine.build_combined_scenario(cfg)
        users = geometry.drop_users(
            80, np.random.default_rng(9), scenario.service_radius_m, height_m=1.5
        )
        stream = [(engine.derive_rng(3, 5), 80)]
        coupling[gain] = engine.drop_budgets(scenario, users, stream)
    assert coupling[0.0].shape == (55, 80)
    assert np.array_equal(coupling[3.0], coupling[0.0] - 3.0)


def test_coupling_loss_matrix_drop_streams_match_drops_alone():
    # two drops side by side, each drawing from its own generator, give the
    # same bits and draw counts as each drop on its own, single-receiver drop
    # included
    platforms = [_platform()]
    users = geometry.drop_users(41, np.random.default_rng(2), 35_682.0)

    def matrix(rx_xyz, streams):
        return coupling_loss_matrix(platforms, rx_xyz, streams, ScenarioConfig())

    rngs = [np.random.default_rng(5), np.random.default_rng(6)]
    both = matrix(users, [(rngs[0], 40), (rngs[1], 1)])
    alone = [np.random.default_rng(5), np.random.default_rng(6)]
    first = matrix(users[:40], [(alone[0], 40)])
    lone = matrix(users[40:], [(alone[1], 1)])
    assert np.array_equal(both[:, :40], first)
    assert np.array_equal(both[:, 40:], lone)
    for a, b in zip(rngs, alone):
        assert a.random() == b.random()  # same number of draws
    with pytest.raises(ValueError, match="add up"):
        matrix(users, [(np.random.default_rng(5), 40)])


def test_draw_links_same_bits_in_place_or_strided():
    # a contiguous array is filled in place, a block's column view through a
    # temporary; both hold the stream's numbers in row-major order, and the
    # generator ends at the same state
    flat = [np.empty((37, 50)), np.empty((37, 50))]
    block = [np.full((37, 80), np.nan), np.full((37, 80), np.nan)]
    strided = [a[:, 20:70] for a in block]
    assert all(a.flags.c_contiguous for a in flat)
    assert not any(a.flags.c_contiguous for a in strided)
    rngs = [np.random.default_rng(9), np.random.default_rng(9)]
    for rng, (uniform, normal) in zip(rngs, (flat, strided)):
        network._draw_links(rng, uniform, normal)
    for a, b in zip(flat, strided):
        assert np.array_equal(a, b)
    assert np.isnan(block[0][:, :20]).all() and np.isnan(block[1][:, 70:]).all()
    assert rngs[0].random() == rngs[1].random()


@pytest.mark.parametrize("strided", [False, True])
def test_draw_links_same_bits_in_one_call_or_two(strided):
    # a track draws its LOS thresholds ahead of its innovations: uniforms
    # alone, then normals alone, are the numbers of one call with both, and
    # leave the generator at the same state
    def arrays():
        if not strided:
            return np.empty((37, 1)), np.empty((37, 50))
        return np.empty((37, 3))[:, 1:2], np.empty((37, 80))[:, 20:70]

    (u1, n1), (u2, n2) = arrays(), arrays()
    assert all(a.flags.c_contiguous != strided for a in (u1, n1, u2, n2))
    one, two = np.random.default_rng(11), np.random.default_rng(11)
    network._draw_links(one, u1, n1)
    network._draw_links(two, u2, None)
    network._draw_links(two, None, n2)
    assert np.array_equal(u1, u2) and np.array_equal(n1, n2)
    assert one.random() == two.random()


def test_platform_geometry_same_bits_for_one_receiver():
    platform = _platform()
    users = geometry.drop_users(64, np.random.default_rng(4), 35_682.0)
    bores = platform.pointing
    many = network.platform_geometry(platform.position, bores, users)
    for j in range(users.shape[0]):
        one = network.platform_geometry(platform.position, bores, users[j : j + 1])
        for a, b in zip(many, one):
            assert np.array_equal(a[..., j : j + 1], b.reshape(a[..., j : j + 1].shape))


def test_coupling_loss_center_user_deterministic_budget():
    # nadir user: elevation 90 -> LOS certain, no shadow requested -> 108 dB chain
    platform = _platform()
    users = np.array([[0.0, 0.0, 1.5]])
    cfg = config_from_dict({"channel": {"shadowing": False}})
    coupling = coupling_loss_matrix(
        [platform], users, [(np.random.default_rng(0), 1)], cfg
    )
    assert_allclose(coupling[0, 0], 108.0, atol=0.2)
    budget = network.transmitter_budget([platform], users, cfg)
    uniform = np.random.default_rng(0).random((19, 1))
    _, shadow, clutter, los = channel.resolve_links(budget.medians, uniform, None)
    assert los.all()
    assert np.all(clutter == 0.0)
    assert np.all(shadow == 0.0)


def test_active_cells():
    serving = np.array([0, 0, 3])
    assert np.array_equal(
        active_cells(serving, 5), [True, False, False, True, False]
    )


def test_dl_sinr_lone_active_cell_is_snr():
    coupling = np.array([[108.0], [115.0]])
    serving = np.array([0])
    tx = np.array([49.0, 49.0])
    active = np.array([True, False])
    noise_dbm = noise_power_dbm(20e6, 9.0)
    sinr = dl_sinr_db(coupling, serving, tx, active, noise_dbm)
    assert_allclose(sinr, 49.0 - 108.0 - noise_dbm)


def test_dl_sinr_same_bits_alone_or_side_by_side():
    # users of many drops share one matrix, each column with its own active
    # set; a column's SINR must not depend on how many columns there are
    rng = np.random.default_rng(9)
    coupling = rng.uniform(100.0, 150.0, size=(19, 200))
    serving = np.argmin(coupling, axis=0)
    active = rng.random((19, 200)) < 0.5
    active[serving, np.arange(200)] = True
    tx = np.full(19, 49.0)
    together = dl_sinr_db(coupling, serving, tx, active, -92.0)
    alone = [
        dl_sinr_db(coupling[:, j : j + 1], serving[j : j + 1], tx, active[:, j], -92.0)[0]
        for j in range(200)
    ]
    assert np.array_equal(together, alone)


def test_dl_sinr_requires_active_serving():
    coupling = np.array([[100.0], [110.0]])
    with pytest.raises(ValueError, match="active"):
        dl_sinr_db(
            coupling,
            np.array([0]),
            np.array([49.0, 49.0]),
            np.array([False, True]),
            -92.0,
        )


def test_dl_sinr_interference_lowers_sinr():
    coupling = np.array([[100.0, 110.0], [110.0, 100.0]])
    serving = np.array([0, 1])
    tx = np.array([49.0, 49.0])
    noise_dbm = -92.0
    both = dl_sinr_db(coupling, serving, tx, np.array([True, True]), noise_dbm)
    # with 10 dB coupling separation, SINR is interference-dominated near 10 dB
    assert np.all(both < 49.0 - 100.0 - noise_dbm)
    assert_allclose(both, [10.0, 10.0], atol=0.5)


def test_spectral_efficiency_truncation_and_cap():
    params = RateParams()
    assert spectral_efficiency_bpshz(-10.001, params) == 0.0
    assert spectral_efficiency_bpshz(-30.0, params) == 0.0
    assert spectral_efficiency_bpshz(60.0, params) == 4.8
    assert_allclose(spectral_efficiency_bpshz(0.0, params), 0.6)
    # just above the cutoff the mapping is alpha*log2(1 + sinr)
    assert_allclose(
        spectral_efficiency_bpshz(-10.0, params), 0.6 * math.log2(1.1), rtol=1e-12
    )


def test_spectral_efficiency_monotone():
    sinr = np.linspace(-9.9, 40.0, 500)
    se = spectral_efficiency_bpshz(sinr)
    assert np.all(np.diff(se) >= 0.0)


def test_round_robin_single_user_gets_whole_cell():
    # SE(sinr) * bandwidth for a lone user: pick sinr giving SE exactly 1
    sinr_for_se1 = 10.0 * math.log10(2.0 ** (1.0 / 0.6) - 1.0)
    cell_bps, user_bps, counts = round_robin_throughput_bps(
        np.array([sinr_for_se1]), np.array([0]), 3, 20e6, RateParams()
    )
    assert_allclose(user_bps, [20e6], rtol=1e-12)
    assert_allclose(cell_bps, [20e6, 0.0, 0.0], rtol=1e-12)
    assert np.array_equal(counts, [1, 0, 0])


def test_round_robin_shares_time_equally():
    sinr = np.array([20.0, 20.0, 20.0, 0.0])
    serving = np.array([0, 0, 0, 1])
    cell_bps, user_bps, counts = round_robin_throughput_bps(
        sinr, serving, 2, 20e6, RateParams()
    )
    assert_allclose(user_bps[:3], user_bps[0])
    assert_allclose(cell_bps[0], user_bps[:3].sum())
    assert_allclose(cell_bps[1], user_bps[3])
    assert np.array_equal(counts, [3, 1])


def test_round_robin_conserves_cell_throughput():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n_cells = int(rng.integers(1, 8))
        n_users = int(rng.integers(1, 40))
        serving = rng.integers(0, n_cells, size=n_users)
        sinr = rng.uniform(-20.0, 30.0, size=n_users)
        cell_bps, user_bps, _ = round_robin_throughput_bps(
            sinr, serving, n_cells, 20e6
        )
        recon = np.bincount(serving, weights=user_bps, minlength=n_cells)
        assert_allclose(cell_bps, recon, rtol=1e-12, atol=1e-6)


def test_association_equals_max_received_power():
    # argmin coupling == argmax rx power when all tx powers are equal
    rng = np.random.default_rng(22)
    coupling = rng.uniform(80.0, 160.0, size=(7, 30))
    serving = associate(coupling)
    rx_dbm = 49.0 - coupling
    assert np.array_equal(serving, np.argmax(rx_dbm, axis=0))


def test_dl_sinr_single_user_throughput_identity():
    # one user in the system: SINR = SNR and throughput = bw * SE(SNR)
    coupling = np.array([[105.0]])
    serving = np.array([0])
    noise_dbm = noise_power_dbm(20e6, 9.0)
    sinr = dl_sinr_db(coupling, serving, np.array([49.0]), np.array([True]), noise_dbm)
    snr = 49.0 - 105.0 - noise_dbm
    assert_allclose(sinr, [snr])
    _, user_bps, _ = round_robin_throughput_bps(sinr, serving, 1, 20e6)
    assert_allclose(user_bps, 20e6 * spectral_efficiency_bpshz(snr))

"""Acceptance gate: end-to-end checks of the shipped behavior.

Every test prints one [acceptance] PASS/FAIL line (bypassing capture) so a
plain `pytest -v` run shows the verdict per check, then asserts it. The
expensive Monte Carlo runs are shared through module-scoped fixtures.
"""

import dataclasses
import filecmp
import math
import os

import numpy as np
import pytest
from scipy.optimize import brentq

from hibsim import engine, geometry, network
from hibsim.antenna import aperture_gain_dbi, bessel_j1, make_aperture_pattern
from hibsim.channel import fspl_db, noise_power_dbm
from hibsim.cli import main as cli_main
from hibsim.config import ScenarioConfig
from hibsim.engine import run_coupling_loss
from hibsim.mobility import run_mobility
from hibsim.stats import make_cdf, median

CFG = ScenarioConfig()
DENSITIES = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)


def _report(capsys, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def sinr_sweep():
    return engine.run_sinr_sweep(
        CFG, seed=1, n_drops=100, densities=DENSITIES, threads=4
    )


def test_ring_coupling_gap(capsys):
    res = run_coupling_loss(CFG, seed=1, n_drops=500, users_per_drop=200, threads=4)
    gap = median(res.samples_by_ring[2]) - median(res.samples_by_ring[0])

    cfg_ns = dataclasses.replace(
        CFG, channel=dataclasses.replace(CFG.channel, shadowing=False)
    )
    scenario = engine.build_hibs_scenario(cfg_ns)
    users = np.array([[0.0, 0.0, 1.5]])
    coupling = engine.drop_budgets(scenario, users, engine.derive_rng(1, 99))
    center = float(coupling[0, 0])

    ok = gap >= 3.5 and abs(center - 108.0) <= 0.2
    _report(
        capsys,
        "ring coupling gap",
        ok,
        f"outer-center median gap {gap:.2f} dB >= 3.5; "
        f"deterministic nadir budget {center:.2f} dB within 108.0 +/- 0.2",
    )


def test_slant_ranges(capsys):
    layout = geometry.build_hibs_layout()
    ground = np.array([[0.0, 0.0, 0.0], [layout.service_radius_m, 0.0, 0.0]])
    slant, _, _ = network.platform_geometry(
        layout.platform_position.as_array(), [np.array([0.0, 0.0, -1.0])], ground
    )
    nadir, edge = slant
    ok = nadir == 20_000.0 and 40_000.0 < edge < 42_000.0
    _report(
        capsys,
        "slant ranges",
        ok,
        f"nadir {nadir:.0f} m exactly 20 km; disk edge {edge:.1f} m in (40 km, 42 km)",
    )


def test_dl_sinr_density_response(capsys, sinr_sweep):
    med = [median(sinr_sweep.dl_by_density[d]) for d in DENSITIES]
    decreasing = all(b < a for a, b in zip(med[:5], med[1:5]))
    saturated = abs(med[5] - med[6]) < 1.0
    ok = decreasing and saturated
    _report(
        capsys,
        "downlink sinr vs density",
        ok,
        "medians "
        + ", ".join(f"{m:.2f}" for m in med)
        + f" dB: strictly decreasing through density 5; |{med[5]:.2f} - {med[6]:.2f}| < 1",
    )


def test_ul_sinr_stability(capsys, sinr_sweep):
    ul_med = [median(sinr_sweep.ul_by_density[d]) for d in DENSITIES]
    dl_low = median(sinr_sweep.dl_by_density[0.1])
    spread = max(ul_med) - min(ul_med)
    ok = spread < 1.5 and ul_med[0] < dl_low
    _report(
        capsys,
        "uplink sinr stability",
        ok,
        f"median spread {spread:.2f} dB < 1.5 across densities; "
        f"uplink {ul_med[0]:.2f} < downlink {dl_low:.2f} dB at density 0.1",
    )


def test_throughput_split(capsys):
    res = engine.run_throughput_sweep(
        CFG, seed=1, n_drops=100, densities=DENSITIES, threads=4
    )
    hibs_sat = max(p.hibs_cell_bps for p in res.points)
    ratio = res.tn_max_se_bpshz / res.hibs_max_se_bpshz
    p_low, p_high = res.points[0], res.points[-1]
    user_ratio = p_low.hibs_user_bps / p_high.hibs_user_bps
    ok = (
        2.5e6 <= hibs_sat <= 6.5e6
        and 1.5 <= ratio <= 2.6
        and user_ratio >= 10.0
    )
    _report(
        capsys,
        "throughput split",
        ok,
        f"platform cell saturation {hibs_sat / 1e6:.2f} Mbps in [2.5, 6.5]; "
        f"terrestrial/platform peak-SE ratio {ratio:.2f} in [1.5, 2.6]; "
        f"platform per-user low/high-load ratio {user_ratio:.0f} >= 10",
    )


def test_handover_asymmetry(capsys):
    asym = {}
    n_users = None
    for offset in (1.0, 3.0, 6.0):
        res = run_mobility(CFG, seed=1, threads=8, a3_offset_db=offset)
        n_users = res.n_users
        d_in = res.distances_m("tn_to_hibs")
        d_out = res.distances_m("hibs_to_tn")
        asym[offset] = float(d_out.mean() - d_in.mean())
    ok = (
        n_users >= 200
        and asym[3.0] >= 1_000.0
        and all(v > 0.0 for v in asym.values())
    )
    _report(
        capsys,
        "handover asymmetry",
        ok,
        f"{n_users} trajectories >= 200; outward-minus-inward mean distance "
        + ", ".join(f"{v:+.0f} m @ {o:g} dB" for o, v in sorted(asym.items()))
        + "; >= 1 km at 3 dB and positive at all offsets",
    )


def test_reference_values(capsys):
    zero = brentq(bessel_j1, 3.0, 4.5)
    fspl = fspl_db(20_000.0, 2.0e9)
    noise = noise_power_dbm(20e6, 9.0)
    pattern = make_aperture_pattern(28.072486935852957)
    edge_gain = float(
        aperture_gain_dbi(pattern.beamwidth_3db_deg / 2.0, pattern)
    )
    ok = (
        abs(zero - 3.83171) <= 1e-4
        and abs(fspl - 124.5) <= 0.1
        and abs(noise - (-91.99)) <= 0.01
        and abs(edge_gain - (pattern.peak_gain_dbi - 3.0)) <= 0.05
    )
    _report(
        capsys,
        "reference values",
        ok,
        f"J1 zero {zero:.6f} ~ 3.83171; fspl(20 km, 2 GHz) {fspl:.3f} ~ 124.5 dB; "
        f"noise(20 MHz, NF 9) {noise:.3f} ~ -91.99 dBm; "
        f"half-beamwidth gain {edge_gain:.3f} ~ peak - 3 dB",
    )


def test_thread_determinism(capsys, tmp_path):
    mob_cfg = tmp_path / "mob.yaml"
    mob_cfg.write_text(
        "mobility:\n  n_inbound: 3\n  n_outbound: 3\n  sim_duration_s: 600.0\n"
    )
    # every command splits into at least two blocks or tracks, so threads
    # 2 and 3 run worker processes
    commands = [
        ["coupling-loss", "--drops", "8", "--users-per-drop", "250"],
        ["sinr-sweep", "--drops", "6", "--densities", "0.5,20"],
        ["throughput-sweep", "--drops", "2", "--densities", "1,20"],
        ["mobility", "--config", str(mob_cfg)],
    ]
    mismatches = []
    for i, argv in enumerate(commands):
        dirs = []
        for threads in ("1", "2", "3"):
            out = tmp_path / f"cmd{i}_t{threads}"
            code = cli_main(
                [*argv, "--seed", "5", "--threads", threads, "--out", str(out)]
            )
            assert code == 0
            dirs.append(out)
        names = sorted(os.listdir(dirs[0]))
        for other in dirs[1:]:
            assert names == sorted(os.listdir(other))
            for name in names:
                if not filecmp.cmp(dirs[0] / name, other / name, shallow=False):
                    mismatches.append(f"{argv[0]}/{other.name}/{name}")
    capsys.readouterr()  # swallow the CLI path listings
    ok = not mismatches
    _report(
        capsys,
        "thread determinism",
        ok,
        "all four commands byte-identical across --threads 1, 2 and 3"
        if ok
        else "differs: " + ", ".join(mismatches),
    )


def test_property_association_offset_invariance(capsys):
    rng = np.random.default_rng(101)
    cases = 1_000
    for _ in range(cases):
        n_c = int(rng.integers(1, 9))
        n_u = int(rng.integers(1, 33))
        coupling = rng.uniform(60.0, 180.0, size=(n_c, n_u))
        base = network.associate(coupling)
        per_user = rng.uniform(-40.0, 40.0, size=n_u)
        assert np.array_equal(base, network.associate(coupling + per_user))
        assert np.array_equal(base, network.associate(coupling - 17.25))
    _report(
        capsys,
        "property: association offset invariance",
        True,
        f"{cases} random matrices; per-user and global offsets never move the argmin",
    )


def test_property_dl_sinr_monotone_in_active_set(capsys):
    rng = np.random.default_rng(202)
    cases = 1_000
    for _ in range(cases):
        n_c = int(rng.integers(2, 9))
        n_u = int(rng.integers(1, 17))
        coupling = rng.uniform(80.0, 150.0, size=(n_c, n_u))
        serving = rng.integers(0, n_c, size=n_u)
        tx = rng.uniform(30.0, 50.0, size=n_c)
        small = network.active_cells(serving, n_c)
        big = small | (rng.random(n_c) < 0.5)
        sinr_small = network.dl_sinr_db(coupling, serving, tx, small, -92.0)
        sinr_big = network.dl_sinr_db(coupling, serving, tx, big, -92.0)
        assert np.all(sinr_big <= sinr_small + 1e-9)
    _report(
        capsys,
        "property: sinr monotone in active set",
        True,
        f"{cases} random drops; enabling extra co-channel cells never raises SINR",
    )


def test_property_throughput_conservation(capsys):
    rng = np.random.default_rng(303)
    cases = 1_000
    for _ in range(cases):
        n_c = int(rng.integers(1, 8))
        n_u = int(rng.integers(1, 25))
        serving = rng.integers(0, n_c, size=n_u)
        sinr = rng.uniform(-25.0, 45.0, size=n_u)
        cell_bps, user_bps, counts = network.round_robin_throughput_bps(
            sinr, serving, n_c, 20e6
        )
        recon = np.bincount(serving, weights=user_bps, minlength=n_c)
        np.testing.assert_allclose(cell_bps, recon, rtol=1e-12, atol=1e-6)
        assert np.array_equal(counts, np.bincount(serving, minlength=n_c))
        assert np.all(user_bps >= 0.0)
        assert np.all(cell_bps[counts == 0] == 0.0)
    _report(
        capsys,
        "property: throughput conservation",
        True,
        f"{cases} random schedules; per-cell rate equals the sum over its users",
    )


def test_property_cdf_monotonicity(capsys):
    rng = np.random.default_rng(404)
    cases = 1_000
    for _ in range(cases):
        n = int(rng.integers(1, 200))
        scale = rng.uniform(0.5, 20.0)
        samples = rng.normal(rng.uniform(-50.0, 50.0), scale, size=n)
        cdf = make_cdf(samples)
        assert np.all(np.diff(cdf.values) >= 0.0)
        assert np.all(np.diff(cdf.probs) > 0.0)
        assert 0.0 < cdf.probs[0] and cdf.probs[-1] < 1.0
        qs = cdf.quantile(np.sort(rng.uniform(0.0, 1.0, size=16)))
        assert np.all(np.diff(qs) >= -1e-12)
    _report(
        capsys,
        "property: cdf monotonicity",
        True,
        f"{cases} random sample sets; values sorted, probabilities strict, quantiles monotone",
    )

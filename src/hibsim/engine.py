"""Monte Carlo drop engine: scenario assembly, drops, and the three sweeps.

Every drop owns an independent generator derived from (seed, experiment,
density index, drop index) via SeedSequence spawn keys. The sweeps evaluate
blocks of consecutive drops in one link-budget pass each; every drop still
draws from its own generator, the block partition depends on the drops
alone, and results are merged in key order — so the output is bit-identical
no matter how many worker processes execute the blocks, and more drops only
append samples. The workers are module-level functions that take the
scenario and one block as arguments, so they carry no state inherited from
the parent and run the same under any start method.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import antenna, geometry, network
from .channel import noise_power_dbm
from .config import ScenarioConfig
from .network import Cell, CellKind

# spawn-key domains, one per experiment, so identical seeds never share streams
_COUPLING, _SINR, _THROUGHPUT, _MOBILITY = 0, 1, 2, 3


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for one unit of work under a master seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


@dataclass(frozen=True)
class Scenario:
    """Cells plus the drop region and per-cell arrays the SINR math wants.

    `cells` are the servers users may attach to; `dl_interferers` are extra
    co-channel transmitters that never serve anyone but stay on the air
    (the overlay keeps the platform's non-center beams this way).
    """

    cells: list[Cell]
    cfg: ScenarioConfig
    service_radius_m: float
    beam_centers: np.ndarray = field(repr=False)  # (n serving beams, 3) on ground
    tx_power_dbm: np.ndarray = field(repr=False)  # (n_cells,)
    ring: np.ndarray = field(repr=False)  # (n_cells,) hibs ring or -1
    is_hibs: np.ndarray = field(repr=False)  # (n_cells,) bool
    dl_interferers: tuple = ()

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def interferer_tx_power_dbm(self) -> np.ndarray:
        return np.array([c.tx_power_dbm for c in self.dl_interferers])


def _finish_scenario(
    cells: list[Cell],
    cfg: ScenarioConfig,
    service_radius_m: float,
    beam_centers: np.ndarray,
    dl_interferers: tuple = (),
) -> Scenario:
    return Scenario(
        cells=cells,
        cfg=cfg,
        service_radius_m=service_radius_m,
        beam_centers=beam_centers,
        tx_power_dbm=np.array([c.tx_power_dbm for c in cells]),
        ring=np.array([c.ring if c.ring is not None else -1 for c in cells]),
        is_hibs=np.array([c.kind is CellKind.HIBS_BEAM for c in cells]),
        dl_interferers=dl_interferers,
    )


def _hibs_pattern(cfg: ScenarioConfig) -> antenna.AperturePattern:
    bw_deg = 2.0 * math.degrees(
        math.atan(0.5 * cfg.hibs.footprint_diameter_m / cfg.hibs.altitude_m)
    )
    return antenna.make_aperture_pattern(
        bw_deg,
        cfg.hibs.peak_gain_dbi,
        cfg.hibs.pattern_floor_db,
        bessel_sidelobes=cfg.hibs.pattern_sidelobes == "bessel",
    )


def _tn_pattern(cfg: ScenarioConfig) -> antenna.SectorPattern:
    t = cfg.terrestrial
    return antenna.SectorPattern(
        peak_gain_dbi=t.peak_gain_dbi,
        h_hpbw_deg=t.h_hpbw_deg,
        v_hpbw_deg=t.v_hpbw_deg,
        front_back_db=t.front_back_db,
        sla_db=t.sla_db,
        downtilt_deg=t.downtilt_deg,
    )


def _build_platform(cfg: ScenarioConfig):
    """(layout, beams) of the configured platform."""
    h = cfg.hibs
    layout = geometry.build_hibs_layout(
        h.footprint_diameter_m, h.n_rings, h.altitude_m, h.service_area_km2
    )
    beams = network.build_hibs_cells(layout, _hibs_pattern(cfg), h.tx_power_dbm)
    return layout, beams


def build_hibs_scenario(cfg: ScenarioConfig) -> Scenario:
    """Multi-beam platform alone (19 beams at defaults)."""
    layout, cells = _build_platform(cfg)
    return _finish_scenario(cells, cfg, layout.service_radius_m, layout.beam_centers)


def build_combined_scenario(cfg: ScenarioConfig) -> Scenario:
    """Central platform beam overlaying the terrestrial site ring.

    Only the center beam serves, but the platform keeps its whole beam grid
    on the air by default (scheduler.overlay_cochannel_beams): the grid rides
    along as non-serving co-channel interferers, the downlink mirror of the
    busy-system uplink assumption. Users drop over the overlay's own coverage
    region — the site ring plus one nominal cell radius of outskirts — not
    over the platform-only service disk.
    """
    layout, beams = _build_platform(cfg)
    cells = beams[:1]
    tn_layout = geometry.build_tn_ring_layout(
        cfg.terrestrial.isd_m,
        cfg.terrestrial.n_sites,
        cfg.terrestrial.site_height_m,
        cfg.terrestrial.sector_rotation_deg,
    )
    cells += network.build_tn_cells(
        tn_layout, _tn_pattern(cfg), cfg.terrestrial.tx_power_dbm
    )
    interferers = tuple(beams[1:]) if cfg.scheduler.overlay_cochannel_beams else ()
    drop_radius_m = tn_layout.ring_radius_m + 0.5 * cfg.terrestrial.isd_m
    return _finish_scenario(
        cells, cfg, drop_radius_m, layout.beam_centers[:1], interferers
    )


def drop_budgets(scenario: Scenario, users_xyz: np.ndarray, streams):
    """Coupling-loss matrix over serving cells then dl_interferers (a cell's
    row is its id, and fixes the order in which it draws). `streams` is one
    generator, or one (generator, user count) pair per drop of a block."""
    cfg = scenario.cfg
    return network.coupling_loss_matrix(
        scenario.cells + list(scenario.dl_interferers),
        users_xyz,
        cfg.carrier.frequency_hz,
        cfg.ue.antenna_gain_dbi,
        cfg.channel.ntn,
        cfg.channel.rma,
        streams,
        shadowing=cfg.channel.shadowing,
        ue_height_m=cfg.ue.height_m,
    )


# A block of consecutive drops shares one link-budget pass. It holds at most
# this many links (cells x receivers), about one density-20 overlay drop, so
# batching makes no array larger than the largest single drop of the
# paper's sweeps.
_BLOCK_LINKS = 1 << 15


def _drop_blocks(links: list[int]) -> list[range]:
    """Greedy runs of consecutive drops, starting from drop 0, each holding
    at most _BLOCK_LINKS links (a larger drop runs alone). The partition
    depends on the drops alone, never on the worker count."""
    blocks, start, total = [], 0, 0
    for d, n in enumerate(links):
        if d > start and total + n > _BLOCK_LINKS:
            blocks.append(range(start, d))
            start, total = d, 0
        total += n
    blocks.append(range(start, len(links)))
    return blocks


def _block_budgets(scenario: Scenario, drops: list):
    """Link budgets of a block of drops, users laid end to end in drop order.

    `drops` holds one (generator, user count) pair per drop; each drop draws
    its user positions, then its links, from its own generator. Returns the
    coupling-loss matrix (None when the block has no users) and each user's
    index into `drops`.
    """
    sizes = [n for _, n in drops]
    drop = np.repeat(np.arange(len(drops)), sizes)
    streams = [(rng, n) for rng, n in drops if n]
    if not streams:
        return None, drop
    users = np.concatenate(
        [
            geometry.drop_users(
                n, rng, scenario.service_radius_m, height_m=scenario.cfg.ue.height_m
            )
            for rng, n in streams
        ]
    )
    return drop_budgets(scenario, users, streams), drop


def _active_by_drop(serving: np.ndarray, drop: np.ndarray, n_drops: int, n_cells: int):
    """(n_drops, n_cells) mask of the cells with at least one user, per drop."""
    return network.active_cells(drop * n_cells + serving, n_drops * n_cells).reshape(
        n_drops, n_cells
    )


# Start method of the worker pool where the platform offers it: fork starts
# fastest, and the workers rely on nothing inherited, so any method gives the
# same bytes.
_START_METHOD = "fork"


def _pool_size(threads: int, n_keys: int) -> int:
    """Workers for n_keys units of work: no more than asked for, than there
    is work, or than CPUs this process may run on."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return max(1, min(threads, n_keys, cpus))


def _map_ordered(worker, keys, threads: int) -> list:
    """Run worker over keys, returning results in key order regardless of
    completion order (the determinism contract across --threads).

    One worker runs in-process. More run as worker processes, started here
    and never at import; `worker` must then pickle, so it is a module-level
    function or a functools.partial of one over picklable arguments.
    """
    workers = _pool_size(threads, len(keys))
    if workers <= 1:
        return [worker(k) for k in keys]
    import multiprocessing  # the pool modules load only when a pool runs
    from concurrent.futures import ProcessPoolExecutor

    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context(_START_METHOD if _START_METHOD in methods else None)
    # a few chunks per worker: a chunk pickles the shared arguments once
    chunk = max(1, len(keys) // (4 * workers))
    with ProcessPoolExecutor(workers, mp_context=context) as pool:
        return list(pool.map(worker, keys, chunksize=chunk))


def _map_blocks(worker, drops: list, links: list[int], threads: int) -> list:
    """Run worker over blocks of consecutive drops, results in drop order."""
    blocks = [drops[b.start : b.stop] for b in _drop_blocks(links)]
    return _map_ordered(worker, blocks, threads)


def _by_density(pieces: list[np.ndarray], drops: list, n_drops: int) -> list[np.ndarray]:
    """Per-user arrays of consecutive blocks, joined and cut into one array
    per density (each density owns n_drops consecutive drops)."""
    counts = [sum(n for _, n in drops[i : i + n_drops]) for i in range(0, len(drops), n_drops)]
    return np.split(np.concatenate(pieces), np.cumsum(counts)[:-1])


def _coupling_block(scenario: Scenario, block: list):
    """Serving-beam coupling loss and beam ring of each user of a block."""
    coupling, _ = _block_budgets(scenario, block)
    serving = network.associate(coupling)
    return coupling[serving, np.arange(serving.size)], scenario.ring[serving]


@dataclass
class CouplingLossResult:
    """Downlink coupling loss of the serving beam, bucketed by beam ring."""

    samples_by_ring: dict[int, np.ndarray]
    n_drops: int
    users_per_drop: int
    seed: int


def run_coupling_loss(
    cfg: ScenarioConfig,
    seed: int = 1,
    n_drops: int = 500,
    users_per_drop: int = 200,
    threads: int = 1,
) -> CouplingLossResult:
    """Serving-beam coupling-loss statistics over the platform-only layout."""
    if n_drops <= 0 or users_per_drop <= 0:
        raise ValueError("n_drops and users_per_drop must be positive")
    scenario = build_hibs_scenario(cfg)
    drops = [(derive_rng(seed, _COUPLING, d), users_per_drop) for d in range(n_drops)]

    links = [scenario.n_cells * users_per_drop] * n_drops
    results = _map_blocks(
        functools.partial(_coupling_block, scenario), drops, links, threads
    )
    cl = np.concatenate([c for c, _ in results])
    ring = np.concatenate([r for _, r in results])
    by_ring = {r: cl[ring == r] for r in sorted(set(scenario.ring.tolist()))}
    return CouplingLossResult(
        samples_by_ring=by_ring,
        n_drops=n_drops,
        users_per_drop=users_per_drop,
        seed=seed,
    )


@dataclass
class SinrSweepResult:
    """Per-user downlink and uplink SINR samples per user density."""

    densities: tuple[float, ...]
    dl_by_density: dict[float, np.ndarray]
    ul_by_density: dict[float, np.ndarray]
    n_drops: int
    seed: int


def _check_densities(densities) -> tuple[float, ...]:
    densities = tuple(float(d) for d in densities)
    if not densities or not all(0 < d < math.inf for d in densities):
        raise ValueError("densities must be a non-empty list of positive finite values")
    return densities


def _poisson_drops(seed: int, experiment: int, densities, n_drops: int, n_cells: int):
    """One (generator, user count) pair per drop, keys (density, drop) in
    order; each generator has drawn its drop's Poisson user count."""
    drops = []
    for di, density in enumerate(densities):
        for d in range(n_drops):
            rng = derive_rng(seed, experiment, di, d)
            drops.append((rng, int(rng.poisson(density * n_cells))))
    return drops


def _ul_sinr_coscheduled(
    coupling_db: np.ndarray,
    serving: np.ndarray,
    active: np.ndarray,
    ue_tx_power_dbm: float,
    noise_mw: float,
) -> np.ndarray:
    """One uplink SINR sample per user of one drop under round-robin TDM.

    Slot k schedules user (k mod n_c) of every active cell c; the sample for
    a user is taken in its first scheduled slot, with whoever else the round
    robin put into that slot as interferers.
    """
    n_users = serving.shape[0]
    counts = np.bincount(serving, minlength=coupling_db.shape[0])
    act = np.flatnonzero(active)
    users_of = [np.flatnonzero(serving == c) for c in act]
    n_slots = int(counts[act].max())
    rx_lin = 10.0 ** ((ue_tx_power_dbm - coupling_db) / 10.0)
    out = np.empty(n_users)
    for k in range(n_slots):
        sched = np.array([u[k % u.shape[0]] for u in users_of])
        sub = rx_lin[np.ix_(act, sched)]  # rows: rx station, cols: tx user
        s = np.diag(sub)
        interference = sub.sum(axis=1) - s
        sinr = 10.0 * np.log10(s / (interference + noise_mw))
        fresh = k < counts[act]  # first full round-robin cycle only
        out[sched[fresh]] = sinr[fresh]
    return out


def _full_load_ul_interference_mw(scenario: Scenario, rngs: list) -> np.ndarray:
    """Uplink interference floor per station under the busy-system assumption:
    every beam carries one full-power UE, uniform in its footprint, all slots.

    One drop per generator, each drawing its phantom positions, then their
    links. Returns (n drops, n_cells) mW; entry c excludes beam c's own user
    (that slot belongs to the user being evaluated)."""
    centers = scenario.beam_centers
    n_b = centers.shape[0]
    cfg = scenario.cfg
    phantoms = np.empty((len(rngs), n_b, 3))
    for k, rng in enumerate(rngs):
        r = 0.5 * cfg.hibs.footprint_diameter_m * np.sqrt(rng.uniform(size=n_b))
        theta = rng.uniform(0.0, 2.0 * math.pi, size=n_b)
        phantoms[k, :, 0] = centers[:, 0] + r * np.cos(theta)
        phantoms[k, :, 1] = centers[:, 1] + r * np.sin(theta)
    phantoms[:, :, 2] = cfg.ue.height_m
    coupling = drop_budgets(
        scenario, phantoms.reshape(-1, 3), [(rng, n_b) for rng in rngs]
    )
    rx = 10.0 ** ((cfg.ue.tx_power_dbm - coupling) / 10.0)
    rx = rx.reshape(rx.shape[0], len(rngs), n_b)  # (cells, drops, beams)
    total = rx.sum(axis=2)  # one drop's n_b phantoms at a time
    own = np.zeros_like(total)
    beams = np.arange(n_b)
    own[:n_b] = rx[beams, :, beams]  # beam i is cell i by build order
    return (total - own).T


def _sinr_block(
    scenario: Scenario, noise_dl_dbm: float, noise_ul_mw: float, block: list
):
    """DL and UL SINR samples of each user of a block, in drop order."""
    cfg = scenario.cfg
    n_cells = scenario.n_cells
    ul_mode = cfg.scheduler.ul_interference
    block = [(rng, n) for rng, n in block if n]  # empty drops yield nothing
    coupling, drop = _block_budgets(scenario, block)
    if coupling is None:
        return np.empty(0), np.empty(0)
    serving = network.associate(coupling)
    active = _active_by_drop(serving, drop, len(block), n_cells)
    dl = network.dl_sinr_db(
        coupling, serving, scenario.tx_power_dbm, active[drop].T, noise_dl_dbm
    )
    if ul_mode == "coscheduled":
        edges = np.cumsum([0] + [n for _, n in block])
        ul = np.concatenate(
            [
                _ul_sinr_coscheduled(
                    coupling[:, lo:hi],
                    serving[lo:hi],
                    active[d],
                    cfg.ue.tx_power_dbm,
                    noise_ul_mw,
                )
                for d, (lo, hi) in enumerate(zip(edges[:-1], edges[1:]))
            ]
        )
    else:
        if ul_mode == "full_load":
            i_mw = _full_load_ul_interference_mw(scenario, [rng for rng, _ in block])
        else:  # "none": pure uplink SNR
            i_mw = np.zeros((len(block), n_cells))
        s_dbm = cfg.ue.tx_power_dbm - coupling[serving, np.arange(serving.size)]
        denom = i_mw[drop, serving] + noise_ul_mw
        ul = s_dbm - 10.0 * np.log10(denom)
    return dl, ul


def run_sinr_sweep(
    cfg: ScenarioConfig,
    seed: int = 1,
    n_drops: int = 100,
    densities=(0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0),
    threads: int = 1,
) -> SinrSweepResult:
    """DL and UL SINR distributions vs mean users per cell, platform only."""
    if n_drops <= 0:
        raise ValueError("n_drops must be positive")
    densities = _check_densities(densities)
    scenario = build_hibs_scenario(cfg)
    n_cells = scenario.n_cells
    noise_dl_dbm = noise_power_dbm(cfg.carrier.bandwidth_hz, cfg.ue.noise_figure_db)
    # every beam receives on the platform's one noise figure
    noise_ul_mw = 10.0 ** (
        noise_power_dbm(cfg.carrier.bandwidth_hz, cfg.hibs.noise_figure_db) / 10.0
    )

    drops = _poisson_drops(seed, _SINR, densities, n_drops, n_cells)
    full_load = cfg.scheduler.ul_interference == "full_load"
    phantoms = scenario.beam_centers.shape[0] if full_load else 0
    links = [n_cells * (n + phantoms) if n else 0 for _, n in drops]
    worker = functools.partial(_sinr_block, scenario, noise_dl_dbm, noise_ul_mw)
    results = _map_blocks(worker, drops, links, threads)
    dl = _by_density([r[0] for r in results], drops, n_drops)
    ul = _by_density([r[1] for r in results], drops, n_drops)
    return SinrSweepResult(
        densities=densities,
        dl_by_density=dict(zip(densities, dl)),
        ul_by_density=dict(zip(densities, ul)),
        n_drops=n_drops,
        seed=seed,
    )


@dataclass(frozen=True)
class ThroughputPoint:
    """Aggregates for one user density in the combined overlay scenario."""

    density: float
    hibs_cell_bps: float
    tn_cell_bps: float
    hibs_user_bps: float
    tn_user_bps: float
    hibs_se_bpshz: float
    tn_se_bpshz: float
    n_hibs_users: int
    n_tn_users: int


@dataclass
class ThroughputSweepResult:
    points: list[ThroughputPoint]
    n_drops: int
    seed: int

    @property
    def hibs_max_se_bpshz(self) -> float:
        return max(p.hibs_se_bpshz for p in self.points)

    @property
    def tn_max_se_bpshz(self) -> float:
        return max(p.tn_se_bpshz for p in self.points)


def _throughput_block(scenario: Scenario, noise_dl_dbm: float, block: list):
    """(drops, serving cells) round-robin cell throughput of a block, and each
    user's throughput and serving cell, in drop order."""
    cfg = scenario.cfg
    n_d, n_serv = len(block), scenario.n_cells
    coupling, drop = _block_budgets(scenario, block)
    if coupling is None:
        return np.zeros((n_d, n_serv)), np.empty(0), np.empty(0, dtype=int)
    serving = network.associate(coupling[:n_serv])
    # non-serving beams never empty out: they are on-air by construction
    active = np.concatenate(
        [
            _active_by_drop(serving, drop, n_d, n_serv)[drop].T,
            np.ones((len(scenario.dl_interferers), drop.size), dtype=bool),
        ]
    )
    tx_all_dbm = np.concatenate([scenario.tx_power_dbm, scenario.interferer_tx_power_dbm])
    dl = network.dl_sinr_db(coupling, serving, tx_all_dbm, active, noise_dl_dbm)
    # round robin per (drop, cell): each drop's cells are cells of their own
    cell_bps, user_bps, _ = network.round_robin_throughput_bps(
        dl, drop * n_serv + serving, n_d * n_serv, cfg.carrier.bandwidth_hz, cfg.rate
    )
    return cell_bps.reshape(n_d, n_serv), user_bps, serving


def run_throughput_sweep(
    cfg: ScenarioConfig,
    seed: int = 1,
    n_drops: int = 100,
    densities=(0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0),
    threads: int = 1,
) -> ThroughputSweepResult:
    """Full-buffer DL throughput in the combined overlay (1 platform beam +
    terrestrial ring), round-robin within each cell.

    Users are dropped over the whole service disk, so the platform beam picks
    up everyone the sector ring does not cover — that coverage split, not the
    beam's own link budget, is what drags its per-user numbers at load.
    """
    if n_drops <= 0:
        raise ValueError("n_drops must be positive")
    densities = _check_densities(densities)
    scenario = build_combined_scenario(cfg)
    noise_dl_dbm = noise_power_dbm(cfg.carrier.bandwidth_hz, cfg.ue.noise_figure_db)
    bw = cfg.carrier.bandwidth_hz
    hibs_mask = scenario.is_hibs
    n_serv = scenario.n_cells
    drops = _poisson_drops(seed, _THROUGHPUT, densities, n_drops, n_serv)
    rows = n_serv + len(scenario.dl_interferers)
    worker = functools.partial(_throughput_block, scenario, noise_dl_dbm)
    results = _map_blocks(worker, drops, [rows * n for _, n in drops], threads)
    cell_bps_all = np.concatenate([r[0] for r in results])  # (drops, n_cells)
    user_bps_all = _by_density([r[1] for r in results], drops, n_drops)
    serving_all = _by_density([r[2] for r in results], drops, n_drops)
    points = []
    for di, density in enumerate(densities):
        cell_bps = cell_bps_all[di * n_drops : (di + 1) * n_drops]
        user_bps, serving = user_bps_all[di], serving_all[di]
        user_is_hibs = hibs_mask[serving]
        hibs_users = user_bps[user_is_hibs]
        tn_users = user_bps[~user_is_hibs]
        hibs_cell = float(cell_bps[:, hibs_mask].mean())
        tn_cell = float(cell_bps[:, ~hibs_mask].mean())
        points.append(
            ThroughputPoint(
                density=density,
                hibs_cell_bps=hibs_cell,
                tn_cell_bps=tn_cell,
                hibs_user_bps=float(hibs_users.mean()) if hibs_users.size else 0.0,
                tn_user_bps=float(tn_users.mean()) if tn_users.size else 0.0,
                hibs_se_bpshz=hibs_cell / bw,
                tn_se_bpshz=tn_cell / bw,
                n_hibs_users=int(hibs_users.size),
                n_tn_users=int(tn_users.size),
            )
        )
    return ThroughputSweepResult(points=points, n_drops=n_drops, seed=seed)

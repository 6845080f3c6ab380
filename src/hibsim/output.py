"""Result files: one CSV per experiment plus a summary.json.

Numbers are written with repr(float(x)) — the shortest digit string that
round-trips to the exact binary value — so downstream tooling can diff runs
byte for byte. No timestamps or hostnames anywhere in the outputs, for the
same reason. The CSVs are streamed: each block of samples (one ring, or one
density and direction) is formatted and written in slices of at most
`_SLICE_VALUES` values, each before the next is built.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os

from .config import ScenarioConfig, config_to_dict
from .engine import CouplingLossResult, SinrSweepResult, ThroughputSweepResult
from .mobility import HIBS_TO_TN, TN_TO_HIBS, MobilityResult
from .stats import median


def _num(x: float) -> str:
    return repr(float(x))


def _median_or_none(samples) -> float | None:
    return median(samples) if samples.size else None


# values formatted at once: their floats, line strings and joined text stay
# a small part of any file however large its blocks
_SLICE_VALUES = 2048


def _block(prefix: str, values):
    """One line `prefix` + repr(v) per value of a 1-D array, each ending in
    a newline, as one text chunk per slice of `_SLICE_VALUES` values; no
    values give no chunk."""
    joiner = "\n" + prefix
    for lo in range(0, values.size, _SLICE_VALUES):
        text = joiner.join(map(repr, values[lo : lo + _SLICE_VALUES].tolist()))
        yield prefix + text + "\n"


def _write(path: str, chunks) -> None:
    """Make the folder of `path`, then write each text chunk as it comes."""
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)  # drops each chunk before the next is built
    except OSError as exc:
        raise RuntimeError(f"cannot write {path}: {exc}") from exc


def _emit(
    out_dir: str, csv_name: str, header: str, chunks, experiment: str, seed: int,
    cfg: ScenarioConfig, results: dict,
) -> list[str]:
    """Write the CSV (its header line, then the chunks) and summary.json."""
    csv_path = os.path.join(out_dir, csv_name)
    _write(csv_path, itertools.chain([header + "\n"], chunks))
    summary_path = os.path.join(out_dir, "summary.json")
    doc = {
        "experiment": experiment,
        "seed": seed,
        "config": config_to_dict(cfg),
        "results": results,
    }
    _write(summary_path, [json.dumps(doc, indent=2, sort_keys=True) + "\n"])
    return [csv_path, summary_path]


def ring_label(ring: int) -> str:
    return "center" if ring == 0 else f"ring{ring}"


def emit_coupling_loss(
    result: CouplingLossResult, cfg: ScenarioConfig, out_dir: str
) -> list[str]:
    by_ring = result.samples_by_ring
    medians = {r: _median_or_none(s) for r, s in by_ring.items()}
    results = {
        **{f"median_{ring_label(r)}_db": m for r, m in medians.items()},
        "n_samples": {ring_label(r): int(s.size) for r, s in by_ring.items()},
        "n_drops": result.n_drops,
        "users_per_drop": result.users_per_drop,
    }
    outermost = max(by_ring)
    if outermost > 0 and medians[0] is not None and medians[outermost] is not None:
        results["outer_ring_center_gap_db"] = medians[outermost] - medians[0]
    blocks = (
        chunk for r in sorted(by_ring) for chunk in _block(f"{ring_label(r)},", by_ring[r])
    )
    return _emit(
        out_dir, "coupling_loss.csv", "ring,sample_db", blocks,
        "coupling_loss", result.seed, cfg, results,
    )


def emit_sinr_sweep(
    result: SinrSweepResult, cfg: ScenarioConfig, out_dir: str
) -> list[str]:
    results = {
        "dl_median_db": {_num(d): _median_or_none(s) for d, s in result.dl_by_density.items()},
        "ul_median_db": {_num(d): _median_or_none(s) for d, s in result.ul_by_density.items()},
        "n_users": {_num(d): int(s.size) for d, s in result.dl_by_density.items()},
        "n_drops": result.n_drops,
    }
    blocks = (
        chunk
        for d in result.densities
        for direction, by_density in (("dl", result.dl_by_density), ("ul", result.ul_by_density))
        for chunk in _block(f"{_num(d)},{direction},", by_density[d])
    )
    return _emit(
        out_dir, "sinr.csv", "density,direction,sinr_db", blocks,
        "sinr_sweep", result.seed, cfg, results,
    )


def emit_throughput_sweep(
    result: ThroughputSweepResult, cfg: ScenarioConfig, out_dir: str
) -> list[str]:
    results = {
        "hibs_max_se_bpshz": result.hibs_max_se_bpshz,
        "tn_max_se_bpshz": result.tn_max_se_bpshz,
        "points": [dataclasses.asdict(p) for p in result.points],
        "n_drops": result.n_drops,
    }
    rows = (
        f"{_num(p.density)},hibs,{p.hibs_cell_bps!r},{p.hibs_user_bps!r},{p.hibs_se_bpshz!r}\n"
        f"{_num(p.density)},tn,{p.tn_cell_bps!r},{p.tn_user_bps!r},{p.tn_se_bpshz!r}\n"
        for p in result.points
    )
    return _emit(
        out_dir, "throughput.csv", "density,kind,cell_bps,user_bps,se_bpshz", rows,
        "throughput_sweep", result.seed, cfg, results,
    )


def emit_mobility(
    result: MobilityResult, cfg: ScenarioConfig, out_dir: str
) -> list[str]:
    d_in = result.distances_m(TN_TO_HIBS)
    d_out = result.distances_m(HIBS_TO_TN)
    results = {
        "a3_offset_db": result.a3_offset_db,
        "n_users": result.n_users,
        "n_events": len(result.events),
        "n_tn_to_hibs": int(d_in.size),
        "n_hibs_to_tn": int(d_out.size),
        "mean_dist_tn_to_hibs_m": float(d_in.mean()) if d_in.size else None,
        "mean_dist_hibs_to_tn_m": float(d_out.mean()) if d_out.size else None,
        "asymmetry_m": (
            float(d_out.mean() - d_in.mean()) if d_in.size and d_out.size else None
        ),
    }
    rows = (
        f"{e.time_s!r},{e.direction},{e.x_m!r},{e.y_m!r},{math.hypot(e.x_m, e.y_m)!r}\n"
        for e in result.events
    )
    return _emit(
        out_dir, "handover.csv", "time_s,direction,x_m,y_m,dist_from_center_m", rows,
        "mobility", result.seed, cfg, results,
    )

"""Result files: one CSV per experiment plus a summary.json.

Numbers are written with repr(float(x)) — the shortest digit string that
round-trips to the exact binary value — so downstream tooling can diff runs
byte for byte. No timestamps or hostnames anywhere in the outputs, for the
same reason.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os

from .config import ScenarioConfig, config_to_dict
from .engine import CouplingLossResult, SinrSweepResult, ThroughputSweepResult
from .mobility import HIBS_TO_TN, TN_TO_HIBS, MobilityResult
from .stats import median


def _num(x: float) -> str:
    return repr(float(x))


def _write_text(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise RuntimeError(f"cannot write {path}: {exc}") from exc


def _write_lines(path: str, header: list[str], lines) -> None:
    """CSV from rows already formatted, floats with repr (per-sample files
    take theirs from `ndarray.tolist()`)."""
    _write_text(path, "\n".join([",".join(header), *lines]) + "\n")


def _write_summary(path: str, experiment: str, seed: int, cfg: ScenarioConfig, results: dict) -> None:
    doc = {
        "experiment": experiment,
        "seed": seed,
        "config": config_to_dict(cfg),
        "results": results,
    }
    _write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def ring_label(ring: int) -> str:
    return "center" if ring == 0 else f"ring{ring}"


def emit_coupling_loss(
    result: CouplingLossResult, cfg: ScenarioConfig, out_dir: str
) -> list[str]:
    csv_path = os.path.join(out_dir, "coupling_loss.csv")
    lines = []
    for ring in sorted(result.samples_by_ring):
        label = ring_label(ring)
        lines += [f"{label},{v!r}" for v in result.samples_by_ring[ring].tolist()]
    _write_lines(csv_path, ["ring", "sample_db"], lines)

    medians = {
        f"median_{ring_label(r)}_db": (median(s) if s.size else None)
        for r, s in result.samples_by_ring.items()
    }
    results = {
        **medians,
        "n_samples": {ring_label(r): int(s.size) for r, s in result.samples_by_ring.items()},
        "n_drops": result.n_drops,
        "users_per_drop": result.users_per_drop,
    }
    outermost = max(result.samples_by_ring)
    if outermost > 0 and result.samples_by_ring[0].size and result.samples_by_ring[outermost].size:
        results["outer_ring_center_gap_db"] = median(
            result.samples_by_ring[outermost]
        ) - median(result.samples_by_ring[0])
    summary_path = os.path.join(out_dir, "summary.json")
    _write_summary(summary_path, "coupling_loss", result.seed, cfg, results)
    return [csv_path, summary_path]


def emit_sinr_sweep(
    result: SinrSweepResult, cfg: ScenarioConfig, out_dir: str
) -> list[str]:
    csv_path = os.path.join(out_dir, "sinr.csv")
    lines = []
    for density in result.densities:
        key = _num(density)
        lines += [f"{key},dl,{v!r}" for v in result.dl_by_density[density].tolist()]
        lines += [f"{key},ul,{v!r}" for v in result.ul_by_density[density].tolist()]
    _write_lines(csv_path, ["density", "direction", "sinr_db"], lines)

    results = {
        "dl_median_db": {
            _num(d): (median(s) if s.size else None)
            for d, s in result.dl_by_density.items()
        },
        "ul_median_db": {
            _num(d): (median(s) if s.size else None)
            for d, s in result.ul_by_density.items()
        },
        "n_users": {
            _num(d): int(s.size) for d, s in result.dl_by_density.items()
        },
        "n_drops": result.n_drops,
    }
    summary_path = os.path.join(out_dir, "summary.json")
    _write_summary(summary_path, "sinr_sweep", result.seed, cfg, results)
    return [csv_path, summary_path]


def emit_throughput_sweep(
    result: ThroughputSweepResult, cfg: ScenarioConfig, out_dir: str
) -> list[str]:
    csv_path = os.path.join(out_dir, "throughput.csv")
    lines = []
    for p in result.points:
        key = _num(p.density)
        lines.append(f"{key},hibs,{p.hibs_cell_bps!r},{p.hibs_user_bps!r},{p.hibs_se_bpshz!r}")
        lines.append(f"{key},tn,{p.tn_cell_bps!r},{p.tn_user_bps!r},{p.tn_se_bpshz!r}")
    _write_lines(csv_path, ["density", "kind", "cell_bps", "user_bps", "se_bpshz"], lines)

    results = {
        "hibs_max_se_bpshz": result.hibs_max_se_bpshz,
        "tn_max_se_bpshz": result.tn_max_se_bpshz,
        "points": [dataclasses.asdict(p) for p in result.points],
        "n_drops": result.n_drops,
    }
    summary_path = os.path.join(out_dir, "summary.json")
    _write_summary(summary_path, "throughput_sweep", result.seed, cfg, results)
    return [csv_path, summary_path]


def emit_mobility(
    result: MobilityResult, cfg: ScenarioConfig, out_dir: str
) -> list[str]:
    csv_path = os.path.join(out_dir, "handover.csv")
    lines = [
        f"{e.time_s!r},{e.direction},{e.x_m!r},{e.y_m!r},{math.hypot(e.x_m, e.y_m)!r}"
        for e in result.events
    ]
    _write_lines(csv_path, ["time_s", "direction", "x_m", "y_m", "dist_from_center_m"], lines)

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
    summary_path = os.path.join(out_dir, "summary.json")
    _write_summary(summary_path, "mobility", result.seed, cfg, results)
    return [csv_path, summary_path]

"""hibsim's layers as the tracer sees them: which functions are wrapped,
the work and waste counters taken from their arguments and return values,
and the per-layer metrics derived from spans and counters.

Every metric is `<module>.<function>.<stat>` (stat `calls`, `self_s`,
`incl_s` or `elems`, the array elements in) or a named counter or ratio.
Ratios come with their base count under its own name.
"""

from __future__ import annotations

import os
from collections import defaultdict

import numpy as np

MODULES = ("geometry", "antenna", "channel", "network", "engine", "mobility", "output")
PRIVATE = (
    "engine._full_load_ul_interference_mw",
    "mobility._track_rx_power_dbm",
    "mobility._first_sustained",
)

# First zero of J1: past it the aperture main lobe has ended and the default
# pattern floors the gain, so the Bessel work on those elements is wasted.
FIRST_J1_ZERO = 3.8317059702075125


def _aperture(c, a, result, stack):
    theta = np.asarray(a["theta_off_axis_deg"], dtype=float)
    u = np.abs(a["pattern"].ka * np.sin(np.radians(theta)))
    c["antenna.aperture_gain_dbi.elems"] += theta.size
    c["antenna.aperture_past_null"] += int(np.count_nonzero(u > FIRST_J1_ZERO))


def _elems(name, arg):
    def observe(c, a, result, stack):
        c[f"{name}.elems"] += np.size(a[arg])

    return observe


def _rma_median(c, a, result, stack):
    clamped = result[4]
    c["channel.rma_median_pathloss.elems"] += np.size(clamped)
    c["channel.rma_clamped"] += int(np.count_nonzero(clamped))


def _coupling_matrix(c, a, result, stack):
    links = len(a["cells"]) * a["users_xyz"].shape[0]
    c["network.coupling_loss_matrix.links"] += links
    if "engine._full_load_ul_interference_mw" in stack:
        c["engine.ul_phantom_links"] += links


def _round_robin(c, a, result, stack):
    sinr = np.asarray(a["sinr_db"], dtype=float)
    c["network.round_robin_throughput_bps.elems"] += sinr.size
    c["network.below_cutoff"] += int(np.count_nonzero(sinr < a["params"].sinr_min_db))


def _run_sweep(c, a, result, stack):
    c["engine.drops"] += a["n_drops"] * len(a["densities"])


def _drop_users(c, a, result, stack):
    c["engine.nonzero_drops"] += a["count"] > 0


def _track(c, a, result, stack):
    c["mobility.track_samples"] += a["pos_xyz"].shape[0]


def _emit(c, a, result, stack):
    c["output.bytes"] += sum(os.path.getsize(p) for p in result)


OBSERVERS = {
    "antenna.aperture_gain_dbi": _aperture,
    "antenna.bessel_j1": _elems("antenna.bessel_j1", "x"),
    "antenna.sector_gain_dbi": _elems("antenna.sector_gain_dbi", "az_off_deg"),
    "channel.ntn_rural_pathloss": _elems("channel.ntn_rural_pathloss", "elevation_deg"),
    "channel.rma_median_pathloss": _rma_median,
    "network.coupling_loss_matrix": _coupling_matrix,
    "network.round_robin_throughput_bps": _round_robin,
    "engine.run_sinr_sweep": _run_sweep,
    "engine.run_throughput_sweep": _run_sweep,
    "geometry.drop_users": _drop_users,
    "mobility._track_rx_power_dbm": _track,
    "output.emit_sinr_sweep": _emit,
    "output.emit_throughput_sweep": _emit,
    "output.emit_mobility": _emit,
}


ELEMS = (
    "antenna.aperture_gain_dbi.elems",
    "antenna.bessel_j1.elems",
    "antenna.sector_gain_dbi.elems",
    "channel.ntn_rural_pathloss.elems",
    "channel.rma_median_pathloss.elems",
    "network.round_robin_throughput_bps.elems",
)


def _ratio(num: float, base: float) -> float:
    return num / base if base else 0.0


def _percentile(values: list[float], p: float) -> float:
    return float(np.percentile(values, p)) if values else 0.0


def _a3_spans(spans):
    """(A3 loop seconds, of which in _first_sustained) summed over tracks.

    The A3 loop of a track has no function of its own: on its thread it runs
    from the end of that track's `_track_rx_power_dbm` span to the end of the
    last `_first_sustained` span before the next track starts."""
    total = inner = 0.0
    by_thread = defaultdict(list)
    for s in spans:
        by_thread[s.thread].append(s)
    for thread_spans in by_thread.values():
        thread_spans.sort(key=lambda s: s.start)
        track_end = last_end = None
        fs = 0.0
        for s in thread_spans + [None]:
            if s is not None and s.name == "mobility._first_sustained":
                if track_end is not None:
                    last_end, fs = s.end, fs + (s.end - s.start)
                continue
            if s is None or s.name in ("mobility._track_rx_power_dbm", "engine.derive_rng"):
                if track_end is not None and last_end is not None:
                    total += last_end - track_end
                    inner += fs
                track_end = last_end = None
                fs = 0.0
                if s is not None and s.name == "mobility._track_rx_power_dbm":
                    track_end = s.end
    return total, inner


def layer_metrics(tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, as name -> (value, unit)."""
    spans = tracer.spans()
    c = tracer.counters()
    calls, self_s, incl_s = defaultdict(int), defaultdict(float), defaultdict(float)
    clm_ms = []
    for s in spans:
        calls[s.name] += 1
        self_s[s.name] += s.self_s
        incl_s[s.name] += s.end - s.start
        if s.name == "network.coupling_loss_matrix":
            clm_ms.append(1e3 * (s.end - s.start))

    m: dict[str, tuple[float, str]] = {}
    for name in tracer.wrapped:
        m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.self_s"] = (self_s[name], "s")
        m[f"{name}.incl_s"] = (incl_s[name], "s")
    for name in ELEMS:
        m[name] = (c[name], "count")
    m["network.coupling_loss_matrix.links"] = (c["network.coupling_loss_matrix.links"], "count")
    m["network.coupling_loss_matrix.p50_ms"] = (_percentile(clm_ms, 50), "ms")
    m["network.coupling_loss_matrix.p99_ms"] = (_percentile(clm_ms, 99), "ms")
    m["antenna.aperture_past_null_ratio"] = (
        _ratio(c["antenna.aperture_past_null"], c["antenna.aperture_gain_dbi.elems"]), "ratio")
    m["channel.rma_clamped_ratio"] = (
        _ratio(c["channel.rma_clamped"], c["channel.rma_median_pathloss.elems"]), "ratio")
    m["network.below_cutoff_ratio"] = (
        _ratio(c["network.below_cutoff"], c["network.round_robin_throughput_bps.elems"]), "ratio")
    m["engine.ul_phantom_link_ratio"] = (
        _ratio(c["engine.ul_phantom_links"], c["network.coupling_loss_matrix.links"]), "ratio")
    m["engine.drops"] = (c["engine.drops"], "count")
    m["engine.zero_user_drop_ratio"] = (
        _ratio(c["engine.drops"] - c["engine.nonzero_drops"], c["engine.drops"]), "ratio")
    m["engine.run.self_s"] = (
        sum(v for k, v in self_s.items() if k.startswith("engine.run_")), "s")
    m["mobility.track_samples"] = (c["mobility.track_samples"], "count")
    a3, first_sustained = _a3_spans(spans)
    m["mobility.a3.self_s"] = (a3 - first_sustained, "s")
    m["output.emit.self_s"] = (
        sum(v for k, v in self_s.items() if k.startswith("output.emit_")), "s")
    m["output.bytes"] = (c["output.bytes"], "B")
    m["trace.spans"] = (len(spans), "count")
    m["trace.observer_errors"] = (c["trace.observer_errors"], "count")
    return m

"""Self-tests of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

assert bench.import_hibsim()
import layers  # noqa: E402
import workloads  # noqa: E402
from hibsim import engine, mobility, output  # noqa: E402
from hibsim.config import ScenarioConfig  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = bench.load_benchmark()
# Stats that count work: they must repeat exactly for a given seed.
COUNT_UNITS = ("count", "ratio", "B")


def tiny(name: str) -> workloads.Workload:
    """The named workload at self-test size, without the statistical bounds."""
    if name == "platform-sinr":
        workload = workloads.platform_sinr(drops=2, densities=(0.5, 2.0))
    elif name == "overlay-throughput":
        workload = workloads.overlay_throughput(drops=2, densities=(1.0, 5.0))
    else:
        cfg = ScenarioConfig()
        small = dataclasses.replace(
            cfg.mobility, n_inbound=3, n_outbound=3, sim_duration_s=600.0
        )
        workload = dataclasses.replace(
            workloads.handover_mobility(), cfg=dataclasses.replace(cfg, mobility=small)
        )
    return dataclasses.replace(workload, gate=None)


@pytest.fixture(autouse=True)
def out_dir(monkeypatch):
    own = bench.OUT / f"selftest-{os.getpid()}"
    own.mkdir(parents=True, exist_ok=True)
    monkeypatch.setattr(bench, "OUT", own)
    yield
    shutil.rmtree(own, ignore_errors=True)


def _result(capsys, workload, trace: bool):
    assert bench.run_one(workload, seed=3, seconds=0.01, trace=trace) == 0
    *_, report, result = capsys.readouterr().out.splitlines()
    return json.loads(report), json.loads(result)


def test_end_to_end_metrics_present_with_units(capsys):
    report, result = _result(capsys, tiny("platform-sinr"), trace=False)
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
        assert report["runs"][m["name"]] >= 1
    for key in ("python", "numpy", "scipy", "nproc", "cpu", "src_sha256", "loadavg_at_start"):
        assert report["env"][key] is not None


@pytest.mark.parametrize("name", bench.WORKLOAD_NAMES)
def test_layer_metrics_present_with_units(capsys, name):
    report, result = _result(capsys, tiny(name), trace=True)
    assert result["correct"], report["problems"]
    assert report["absent"] == []
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["metrics"]["trace.observer_errors"]["value"] == 0
    assert os.path.getsize(bench.ROOT / report["spans_file"]) > 0


@pytest.mark.parametrize("name", bench.WORKLOAD_NAMES)
def test_counters_repeat_exactly(name):
    workload = tiny(name)
    counts = []
    for _ in range(2):
        rep, metrics, _ = bench.traced_repeat(workload, 5, None)
        assert rep["problems"] == []
        counts.append({k: v for k, (v, unit) in metrics.items() if unit in COUNT_UNITS})
    assert counts[0] == counts[1]
    assert any(v for k, v in counts[0].items() if k.endswith(".calls"))


def test_tracer_restores_the_package():
    original = engine.run_sinr_sweep
    with Tracer().installed("hibsim", layers.MODULES, layers.PRIVATE):
        assert engine.run_sinr_sweep is not original
    assert engine.run_sinr_sweep is original


def test_self_time_never_exceeds_span():
    workload = tiny("overlay-throughput")
    tracer = Tracer(layers.OBSERVERS)
    with tracer.installed("hibsim", layers.MODULES, layers.PRIVATE):
        workload.simulate(workload.cfg, 7)
    spans = tracer.spans()
    assert spans and all(-1e-9 <= s.self_s <= s.end - s.start for s in spans)
    assert {s.parent for s in spans if s.name == "network.coupling_loss_matrix"} == {
        "engine.drop_budgets"
    }


def _truncate_csv(emit):
    def broken(result, cfg, out_dir):
        paths = emit(result, cfg, out_dir)
        csv_path = next(p for p in paths if p.endswith(".csv"))
        with open(csv_path, encoding="utf-8") as fh:
            lines = fh.readlines()
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.writelines(lines[:-1])
        return paths

    return broken


def test_broken_output_counts_as_failed(capsys, monkeypatch):
    monkeypatch.setattr(output, "emit_sinr_sweep", _truncate_csv(output.emit_sinr_sweep))
    report, result = _result(capsys, tiny("platform-sinr"), trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert report["problems"]


def test_changed_bytes_count_as_failed():
    workload = tiny("handover-mobility")
    rep = bench.repeat(workload, 5, {"handover.csv": "0" * 64})
    assert rep["problems"] == ["output bytes differ from the first repeat of this seed"]


def test_library_error_counts_as_failed(monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(engine, "run_throughput_sweep", boom)
    rep = bench.repeat(tiny("overlay-throughput"), 5, None)
    assert rep["problems"] == ["RuntimeError: boom"]


def _sinr(dl, ul, lowest_width=0.0):
    """Summary results with these medians, and CSV rows holding nine UL
    samples per density around its median, spread over `lowest_width` dB
    at the lowest density and not at all elsewhere."""
    keys = [repr(d) for d in workloads.DENSITIES]
    rows = [
        (k, "ul", str(m + w * (lowest_width if i == 0 else 0.0)))
        for i, (k, m) in enumerate(zip(keys, ul))
        for w in (-0.5, -0.375, -0.25, -0.125, 0.0, 0.125, 0.25, 0.375, 0.5)
    ]
    return rows, {"dl_median_db": dict(zip(keys, dl)), "ul_median_db": dict(zip(keys, ul))}


def _points(hibs_cell, hibs_user_low, hibs_user_high):
    points = [{"hibs_cell_bps": hibs_cell, "hibs_user_bps": hibs_user_low}]
    points += [{"hibs_cell_bps": hibs_cell, "hibs_user_bps": hibs_user_high}]
    return points


def _handovers(asymmetry_m, width=0.0):
    """Mobility CSV rows, five handovers each way spread over `width` m,
    and summary results with this outward-minus-inward asymmetry."""
    offsets = [-width / 2, -width / 4, 0.0, width / 4, width / 2]
    rows = [(0, mobility.TN_TO_HIBS, 0, 0, str(3000.0 + o)) for o in offsets]
    rows += [(0, mobility.HIBS_TO_TN, 0, 0, str(3000.0 + asymmetry_m + o)) for o in offsets]
    return rows, {"n_users": 240, "asymmetry_m": asymmetry_m}


DL = [9, 7, 5, 4, 3, 2.5, 2.2]


@pytest.mark.parametrize(
    "name, good, bad",
    [
        ("platform-sinr", _sinr(DL, [1.0] * 7), _sinr([9, 7, 7, 4, 3, 2.5, 2.2], [1.0] * 7)),
        ("platform-sinr", _sinr(DL, [1.0] * 7), _sinr(DL, [1.0] * 6 + [2.6])),
        # A lowest-density median 1.6 dB off passes while its own samples
        # are too few and too wide to place it that precisely.
        ("platform-sinr", _sinr(DL, [2.6] + [1.0] * 6, 20.0), _sinr(DL, [2.6] + [1.0] * 6)),
        (
            "overlay-throughput",
            ([], {"points": _points(3e6, 3e6, 2e5), "tn_max_se_bpshz": 0.3, "hibs_max_se_bpshz": 0.15}),
            ([], {"points": _points(3e6, 3e6, 2e5), "tn_max_se_bpshz": 0.6, "hibs_max_se_bpshz": 0.15}),
        ),
        ("handover-mobility", _handovers(1500.0), _handovers(900.0)),
        # 900 m passes while the distances are too few and too wide to
        # place the asymmetry that precisely.
        ("handover-mobility", _handovers(900.0, width=2000.0), _handovers(900.0, width=100.0)),
    ],
)
def test_gate_bounds(name, good, bad):
    gate = workloads.WORKLOADS[name].gate
    assert gate(*good) == []
    assert len(gate(*bad)) == 1


def test_median_interval_holds_the_median():
    values = list(range(101))
    lo, hi = workloads.median_interval(values)
    assert lo < statistics.median(values) < hi
    assert workloads.median_interval([4.0] * 9) == (4.0, 4.0)

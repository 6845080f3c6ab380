import json
import math
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from hibsim import output
from hibsim.config import ScenarioConfig
from hibsim.engine import run_coupling_loss, run_sinr_sweep, run_throughput_sweep
from hibsim.mobility import HIBS_TO_TN, TN_TO_HIBS, HandoverEvent, MobilityResult
from hibsim.output import (
    _block,
    emit_coupling_loss,
    emit_mobility,
    emit_sinr_sweep,
    emit_throughput_sweep,
    ring_label,
)
from hibsim.stats import median

CFG = ScenarioConfig()


@pytest.fixture(scope="module")
def coupling_result():
    # seed/size chosen so every ring (even the small central beam) gets samples
    return run_coupling_loss(CFG, seed=3, n_drops=3, users_per_drop=150)


@pytest.fixture(scope="module")
def sinr_result():
    return run_sinr_sweep(CFG, seed=3, n_drops=3, densities=(0.5, 2.0))


@pytest.fixture(scope="module")
def throughput_result():
    return run_throughput_sweep(CFG, seed=3, n_drops=2, densities=(1.0, 5.0))


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def test_ring_label():
    assert ring_label(0) == "center"
    assert ring_label(1) == "ring1"
    assert ring_label(2) == "ring2"


def test_emit_coupling_loss(tmp_path, coupling_result):
    paths = emit_coupling_loss(coupling_result, CFG, str(tmp_path))
    assert paths == [
        str(tmp_path / "coupling_loss.csv"),
        str(tmp_path / "summary.json"),
    ]
    lines = _read(paths[0]).splitlines()
    assert lines[0] == "ring,sample_db"
    assert len(lines) == 1 + 3 * 150

    # csv cells round-trip bitwise to the sample arrays, ring blocks in order
    expected = np.concatenate(
        [coupling_result.samples_by_ring[r] for r in (0, 1, 2)]
    )
    got = np.array([float(line.split(",")[1]) for line in lines[1:]])
    assert np.array_equal(got, expected)
    labels = [line.split(",")[0] for line in lines[1:]]
    sizes = [coupling_result.samples_by_ring[r].size for r in (0, 1, 2)]
    assert labels == ["center"] * sizes[0] + ["ring1"] * sizes[1] + ["ring2"] * sizes[2]

    doc = json.loads(_read(paths[1]))
    assert sorted(doc) == ["config", "experiment", "results", "seed"]
    assert doc["experiment"] == "coupling_loss"
    assert doc["seed"] == 3
    assert doc["config"]["carrier"]["frequency_hz"] == 2.0e9
    res = doc["results"]
    assert res["n_drops"] == 3 and res["users_per_drop"] == 150
    assert res["n_samples"] == {
        "center": sizes[0],
        "ring1": sizes[1],
        "ring2": sizes[2],
    }
    assert_allclose(
        res["median_center_db"], median(coupling_result.samples_by_ring[0])
    )
    assert_allclose(
        res["outer_ring_center_gap_db"],
        median(coupling_result.samples_by_ring[2])
        - median(coupling_result.samples_by_ring[0]),
    )


def test_emit_sinr_sweep(tmp_path, sinr_result):
    paths = emit_sinr_sweep(sinr_result, CFG, str(tmp_path))
    assert os.path.basename(paths[0]) == "sinr.csv"
    lines = _read(paths[0]).splitlines()
    assert lines[0] == "density,direction,sinr_db"
    n_rows = sum(
        sinr_result.dl_by_density[d].size + sinr_result.ul_by_density[d].size
        for d in sinr_result.densities
    )
    assert len(lines) == 1 + n_rows
    # first block: density 0.5 downlink, bitwise
    first = lines[1].split(",")
    assert first[0] == "0.5" and first[1] == "dl"
    assert float(first[2]) == sinr_result.dl_by_density[0.5][0]
    directions = {line.split(",")[1] for line in lines[1:]}
    assert directions == {"dl", "ul"}

    doc = json.loads(_read(paths[1]))
    assert doc["experiment"] == "sinr_sweep"
    res = doc["results"]
    assert set(res["dl_median_db"]) == {"0.5", "2.0"}
    assert_allclose(
        res["dl_median_db"]["0.5"], median(sinr_result.dl_by_density[0.5])
    )
    assert_allclose(
        res["ul_median_db"]["2.0"], median(sinr_result.ul_by_density[2.0])
    )
    assert res["n_users"]["2.0"] == int(sinr_result.dl_by_density[2.0].size)


def test_emit_throughput_sweep(tmp_path, throughput_result):
    paths = emit_throughput_sweep(throughput_result, CFG, str(tmp_path))
    assert os.path.basename(paths[0]) == "throughput.csv"
    lines = _read(paths[0]).splitlines()
    assert lines[0] == "density,kind,cell_bps,user_bps,se_bpshz"
    assert len(lines) == 1 + 2 * len(throughput_result.points)
    p0 = throughput_result.points[0]
    hibs_row = lines[1].split(",")
    tn_row = lines[2].split(",")
    assert hibs_row[:2] == ["1.0", "hibs"] and tn_row[:2] == ["1.0", "tn"]
    assert float(hibs_row[2]) == p0.hibs_cell_bps
    assert float(hibs_row[4]) == p0.hibs_se_bpshz
    assert float(tn_row[3]) == p0.tn_user_bps

    doc = json.loads(_read(paths[1]))
    assert doc["experiment"] == "throughput_sweep"
    res = doc["results"]
    assert res["hibs_max_se_bpshz"] == throughput_result.hibs_max_se_bpshz
    assert res["tn_max_se_bpshz"] == throughput_result.tn_max_se_bpshz
    assert len(res["points"]) == 2
    assert res["points"][0]["n_hibs_users"] == p0.n_hibs_users


def test_emit_mobility(tmp_path):
    events = [
        HandoverEvent(10.0, 0, 5, 0, 3_000.0, 4_000.0, TN_TO_HIBS),
        HandoverEvent(20.0, 1, 0, 7, 6_000.0, 8_000.0, HIBS_TO_TN),
        HandoverEvent(30.0, 2, 9, 0, 5_000.0, 12_000.0, TN_TO_HIBS),
    ]
    result = MobilityResult(
        events=events, n_users=3, a3_offset_db=3.0, sim_duration_s=100.0, seed=4
    )
    paths = emit_mobility(result, CFG, str(tmp_path))
    lines = _read(paths[0]).splitlines()
    assert lines[0] == "time_s,direction,x_m,y_m,dist_from_center_m"
    assert len(lines) == 4
    for line, e in zip(lines[1:], events):
        cells = line.split(",")
        assert cells[1] == e.direction
        assert float(cells[2]) == e.x_m and float(cells[3]) == e.y_m
        assert float(cells[4]) == math.hypot(e.x_m, e.y_m)

    doc = json.loads(_read(paths[1]))
    assert doc["experiment"] == "mobility"
    res = doc["results"]
    assert res["n_events"] == 3
    assert res["n_tn_to_hibs"] == 2 and res["n_hibs_to_tn"] == 1
    assert_allclose(res["mean_dist_tn_to_hibs_m"], (5_000.0 + 13_000.0) / 2.0)
    assert_allclose(res["mean_dist_hibs_to_tn_m"], 10_000.0)
    assert_allclose(res["asymmetry_m"], 10_000.0 - 9_000.0)


def test_emit_mobility_no_events(tmp_path):
    result = MobilityResult(
        events=[], n_users=5, a3_offset_db=6.0, sim_duration_s=10.0, seed=1
    )
    paths = emit_mobility(result, CFG, str(tmp_path))
    assert _read(paths[0]) == "time_s,direction,x_m,y_m,dist_from_center_m\n"
    res = json.loads(_read(paths[1]))["results"]
    assert res["n_events"] == 0
    assert res["mean_dist_tn_to_hibs_m"] is None
    assert res["mean_dist_hibs_to_tn_m"] is None
    assert res["asymmetry_m"] is None
    assert res["a3_offset_db"] == 6.0


def test_emitters_are_byte_stable(tmp_path, coupling_result):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    a_paths = emit_coupling_loss(coupling_result, CFG, str(a_dir))
    b_paths = emit_coupling_loss(coupling_result, CFG, str(b_dir))
    for pa, pb in zip(a_paths, b_paths):
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            assert fa.read() == fb.read()


def test_emitters_create_missing_directories(tmp_path, coupling_result):
    nested = tmp_path / "deep" / "er" / "dir"
    paths = emit_coupling_loss(coupling_result, CFG, str(nested))
    assert all(os.path.exists(p) for p in paths)


def test_summary_json_ends_with_newline(tmp_path, sinr_result):
    paths = emit_sinr_sweep(sinr_result, CFG, str(tmp_path))
    text = _read(paths[1])
    assert text.endswith("}\n")
    # keys are sorted for stable diffs
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@settings(max_examples=200, deadline=None, database=None)
@given(
    prefix=st.sampled_from(["center,", "ring2,", "0.5,dl,", "1e-09,ul,", ""]) | st.text(),
    values=arrays(
        np.float64,
        st.integers(0, 40),
        elements=st.floats()  # NaN, +-inf and subnormals included
        | st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308]),
    ),
    slice_values=st.sampled_from([1, 3, 7, output._SLICE_VALUES]),
)
@example(prefix="ring1,", values=np.array([]), slice_values=output._SLICE_VALUES)
@example(
    prefix="0.1,ul,",
    values=np.array([-0.0, 0.0, 5e-324, -np.inf, np.inf, -1e308, 1e300]),
    slice_values=3,
)
def test_block_text_equals_one_f_string_per_value(prefix, values, slice_values):
    # each slice of a block is formatted by one join; the chunks must give
    # the bytes the per-value f-string gives, and nothing at all for no
    # values, whatever the slice size
    with mock.patch.object(output, "_SLICE_VALUES", slice_values):
        chunks = list(_block(prefix, values))
    assert "".join(chunks) == "".join(f"{prefix}{v!r}\n" for v in values.tolist())
    assert len(chunks) == -(-values.size // slice_values)


def test_emit_sinr_sweep_empty_block(tmp_path):
    # mean 1e-9 users per cell leaves the density without a user: its dl
    # and ul blocks write no line, and its medians read null
    result = run_sinr_sweep(CFG, seed=3, n_drops=2, densities=(1e-9, 0.5))
    assert result.dl_by_density[1e-9].size == result.ul_by_density[1e-9].size == 0
    paths = emit_sinr_sweep(result, CFG, str(tmp_path))
    dl, ul = result.dl_by_density[0.5], result.ul_by_density[0.5]
    assert _read(paths[0]) == "density,direction,sinr_db\n" + "".join(
        [f"0.5,dl,{v!r}\n" for v in dl.tolist()] + [f"0.5,ul,{v!r}\n" for v in ul.tolist()]
    )
    res = json.loads(_read(paths[1]))["results"]
    assert res["dl_median_db"]["1e-09"] is None and res["ul_median_db"]["1e-09"] is None
    assert res["n_users"] == {"1e-09": 0, "0.5": int(dl.size)}


def test_emit_sinr_sweep_live_memory(tmp_path):
    # at the default sizes each CSV is written one slice of `_SLICE_VALUES`
    # values at a time, so an emitter holds one slice as floats, line
    # strings and joined text: measured 0.25x (sinr.csv) and 0.95x
    # (coupling_loss.csv, where the median of the largest ring, a sorted
    # copy with its plotting positions, sets the peak) the file.
    # Formatting whole blocks read 1.05x and 3.62x, as the ring-2 block of
    # coupling loss holds most of its samples; building one string per
    # sample and joining them all, 5.1x (sinr.csv).
    for run, emit in ((run_sinr_sweep, emit_sinr_sweep), (run_coupling_loss, emit_coupling_loss)):
        result = run(CFG, seed=1)
        tracemalloc.start()
        try:
            paths = emit(result, CFG, str(tmp_path / emit.__name__))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = os.path.getsize(paths[0])
        assert peak <= 1.5 * size, (emit.__name__, peak / size)


def test_unwritable_out_dir_raises_naming_the_path(tmp_path, coupling_result):
    blocker = tmp_path / "taken"
    blocker.write_text("a file, not a folder\n")
    with pytest.raises(RuntimeError, match="cannot write .*taken.*coupling_loss.csv"):
        emit_coupling_loss(coupling_result, CFG, str(blocker))

import inspect
import json
import os
import subprocess
import sys

import pytest

from hibsim import engine, mobility, network
from hibsim.cli import _build_parser, _parse_densities, main
from hibsim.config import ConfigError, load_config

SMALL = ["--seed", "2", "--drops", "2"]


def _files(out_dir):
    with open(os.path.join(out_dir, "summary.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_parse_densities():
    assert _parse_densities("0.1,0.5,1") == (0.1, 0.5, 1.0)
    assert _parse_densities("2") == (2.0,)
    assert _parse_densities("1, 2 ,3") == (1.0, 2.0, 3.0)
    with pytest.raises(ConfigError, match="--densities"):
        _parse_densities("fast")
    with pytest.raises(ConfigError, match="--densities"):
        _parse_densities("")
    with pytest.raises(ConfigError, match="--densities"):
        _parse_densities("1,-2")
    for text in ("nan", "inf", "1,nan", "2,-inf", "1e400"):
        with pytest.raises(ConfigError, match="--densities"):
            _parse_densities(text)


@pytest.mark.parametrize(
    "command, run",
    [
        ("coupling-loss", engine.run_coupling_loss),
        ("sinr-sweep", engine.run_sinr_sweep),
        ("throughput-sweep", engine.run_throughput_sweep),
        ("mobility", mobility.run_mobility),
    ],
)
def test_cli_defaults_are_the_library_defaults(command, run):
    # a command run without a flag and a library call without the argument
    # run the same experiment (coupling-loss once took 100 drops from the
    # command line and 500 from the library)
    args = vars(_build_parser().parse_args([command]))
    if "densities" in args:
        args["densities"] = _parse_densities(args["densities"])
    params = inspect.signature(run).parameters
    names = {"seed": "seed", "threads": "threads", "drops": "n_drops"}
    names.update(users_per_drop="users_per_drop", densities="densities")
    shared = [flag for flag in names if flag in args]
    assert {"seed", "threads"} <= set(shared)
    for flag in shared:
        assert args[flag] == params[names[flag]].default, flag


def test_coupling_loss_command(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        ["coupling-loss", *SMALL, "--users-per-drop", "30", "--out", str(out)]
    )
    assert code == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed == [
        str(out / "coupling_loss.csv"),
        str(out / "summary.json"),
    ]
    assert all(os.path.exists(p) for p in printed)
    assert _files(str(out))["experiment"] == "coupling_loss"


def test_sinr_sweep_command(tmp_path):
    out = tmp_path / "run"
    code = main(["sinr-sweep", *SMALL, "--densities", "0.5,2", "--out", str(out)])
    assert code == 0
    doc = _files(str(out))
    assert doc["experiment"] == "sinr_sweep"
    assert set(doc["results"]["dl_median_db"]) == {"0.5", "2.0"}


def test_throughput_sweep_command(tmp_path):
    out = tmp_path / "run"
    code = main(
        ["throughput-sweep", *SMALL, "--densities", "1,5", "--out", str(out)]
    )
    assert code == 0
    doc = _files(str(out))
    assert doc["experiment"] == "throughput_sweep"
    assert len(doc["results"]["points"]) == 2


def test_mobility_command(tmp_path):
    out = tmp_path / "run"
    cfg = tmp_path / "tiny.yaml"
    cfg.write_text(
        "mobility:\n"
        "  n_inbound: 2\n"
        "  n_outbound: 2\n"
        "  sim_duration_s: 300.0\n"
    )
    code = main(
        [
            "mobility",
            "--config",
            str(cfg),
            "--seed",
            "4",
            "--a3-offset-db",
            "6",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = _files(str(out))
    assert doc["experiment"] == "mobility"
    assert doc["results"]["a3_offset_db"] == 6.0
    # the flag lands in the recorded config too, so feeding it back reruns it
    assert doc["config"]["mobility"]["a3_offset_db"] == 6.0
    assert doc["results"]["n_users"] == 4
    assert os.path.exists(out / "handover.csv")


def test_single_beam_platform_overlay_runs(tmp_path):
    # with no ring the platform has only its center beam, which serves, so
    # the overlay keeps no co-channel beam on the air: the platform entry
    # holds row 0 alone
    cfg = tmp_path / "one_beam.yaml"
    cfg.write_text(
        "hibs:\n  n_rings: 0\n"
        "scheduler:\n  overlay_cochannel_beams: true\n"
        "mobility:\n  n_inbound: 2\n  n_outbound: 2\n  sim_duration_s: 300.0\n"
    )
    scenario = engine.build_combined_scenario(load_config(str(cfg)))
    platform = scenario.transmitters[0]
    assert len(platform.pointing) == 1
    assert platform.rows.tolist() == [0]
    assert scenario.tx_power_dbm.shape == (37,)
    for command in (["throughput-sweep", *SMALL, "--densities", "1,5"], ["mobility"]):
        out = tmp_path / command[0]
        assert main([*command, "--config", str(cfg), "--out", str(out)]) == 0
        assert _files(str(out))["config"]["hibs"]["n_rings"] == 0


def test_band_warning_goes_to_stderr(tmp_path, capsys):
    # the 2 GHz default carrier sits outside the platform DL identification
    out = tmp_path / "run"
    code = main(
        ["coupling-loss", *SMALL, "--users-per-drop", "5", "--out", str(out)]
    )
    captured = capsys.readouterr()
    assert code == 0  # warning only, never fatal
    assert "warning:" in captured.err
    assert "2110-2170" in captured.err


def test_band_warning_silenced_by_config(tmp_path, capsys):
    cfg = tmp_path / "quiet.yaml"
    cfg.write_text("band_check:\n  enabled: false\n")
    out = tmp_path / "run"
    code = main(
        [
            "coupling-loss",
            *SMALL,
            "--users-per-drop",
            "5",
            "--config",
            str(cfg),
            "--out",
            str(out),
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""


def test_bad_config_file_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("carier:\n  frequency_hz: 2.0e9\n")
    code = main(["coupling-loss", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_missing_config_file_exits_1(tmp_path, capsys):
    code = main(
        ["coupling-loss", "--config", str(tmp_path / "nope.yaml"), "--out", str(tmp_path)]
    )
    assert code == 1
    assert "cannot read config file" in capsys.readouterr().err


def test_bad_densities_exit_1(tmp_path, capsys):
    code = main(["sinr-sweep", "--densities", "abc", "--out", str(tmp_path)])
    assert code == 1
    assert "--densities" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sinr-sweep", "throughput-sweep"])
def test_repeated_density_exits_1_and_writes_nothing(command, tmp_path, capsys):
    # a repeat once wrote the second density's samples twice and listed one
    # density in summary.json
    out = tmp_path / "out"
    code = main([command, *SMALL, "--densities", "1,1", "--out", str(out)])
    assert code == 1
    assert "error: --densities: densities must not repeat a value, got 1.0 twice" in (
        capsys.readouterr().err
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "command", ["coupling-loss", "sinr-sweep", "throughput-sweep", "mobility"]
)
def test_low_platform_exits_1_before_any_run(tmp_path, monkeypatch, capsys, command):
    # at 5 km the platform sits 8 deg above the 35.7 km service-disk edge,
    # below the channel model's 10 deg: rejected with the key, nothing run
    def no_scenario(cfg):
        raise AssertionError("scenario built for a rejected config")

    monkeypatch.setattr(engine, "build_hibs_scenario", no_scenario)
    monkeypatch.setattr(engine, "build_combined_scenario", no_scenario)
    cfg = tmp_path / "low.yaml"
    cfg.write_text("hibs:\n  altitude_m: 5000\n")
    out = tmp_path / "run"
    code = main([command, "--config", str(cfg), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "hibs.altitude_m" in err and "service disk" in err
    assert not out.exists()


def test_non_finite_config_exits_1_before_any_run(tmp_path, monkeypatch, capsys):
    # the config step must catch a NaN: the sweep would otherwise write NaN
    # rows and fail only at the end (exit 2) without naming the key
    def no_scenario(cfg):
        raise AssertionError("scenario built for a rejected config")

    monkeypatch.setattr(engine, "build_hibs_scenario", no_scenario)
    cfg = tmp_path / "nan.yaml"
    cfg.write_text("ue:\n  tx_power_dbm: .nan\n")
    out = tmp_path / "run"
    code = main(
        ["sinr-sweep", *SMALL, "--densities", "1", "--config", str(cfg), "--out", str(out)]
    )
    assert code == 1
    assert "ue.tx_power_dbm" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, fragment",
    [
        # the overlay ran to exit 0 with these; now each names its key
        ("terrestrial:\n  noise_figure_db: 5.0\n", "scenario.terrestrial.noise_figure_db"),
        ("terrestrial:\n  isd_m: 30000\n", "terrestrial.isd_m"),
        ("terrestrial:\n  site_height_m: 200\n", "terrestrial.site_height_m"),
        ("ue:\n  height_m: 0.5\n", "ue.height_m"),
        ("channel:\n  ntn:\n    p_los_table: {40: 0.8, 90: 1.0}\n", "p_los_table"),
    ],
)
def test_out_of_window_config_exits_1_before_any_run(
    tmp_path, monkeypatch, capsys, text, fragment
):
    def no_scenario(cfg):
        raise AssertionError("scenario built for a rejected config")

    monkeypatch.setattr(engine, "build_combined_scenario", no_scenario)
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(text)
    out = tmp_path / "run"
    code = main(["throughput-sweep", *SMALL, "--config", str(cfg), "--out", str(out)])
    assert code == 1
    assert fragment in capsys.readouterr().err
    assert not out.exists()


def test_runtime_error_exits_2(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise RuntimeError("drop failed")

    monkeypatch.setattr(engine, "run_coupling_loss", fail)
    code = main(["coupling-loss", *SMALL, "--out", str(tmp_path)])
    assert code == 2
    assert "error: drop failed" in capsys.readouterr().err


def test_unwritable_out_dir_exits_2(tmp_path, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("a file, not a folder\n")
    code = main(["coupling-loss", *SMALL, "--users-per-drop", "5", "--out", str(blocker)])
    assert code == 2
    assert f"error: cannot write {blocker / 'coupling_loss.csv'}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-4"])
@pytest.mark.parametrize(
    "command, flag",
    [
        ("coupling-loss", "--drops"),
        ("coupling-loss", "--users-per-drop"),
        ("sinr-sweep", "--threads"),
        ("mobility", "--threads"),
    ],
)
def test_counts_below_one_exit_1(tmp_path, monkeypatch, capsys, command, flag, value):
    def no_scenario(cfg):
        raise AssertionError("scenario built before the flags were checked")

    monkeypatch.setattr(engine, "build_hibs_scenario", no_scenario)
    monkeypatch.setattr(engine, "build_combined_scenario", no_scenario)
    out = tmp_path / "run"
    code = main([command, flag, value, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert flag in err and value in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command", ["coupling-loss", "sinr-sweep", "throughput-sweep", "mobility"]
)
def test_negative_seed_exits_1(tmp_path, monkeypatch, capsys, command):
    # numpy's seeding rejected it mid-run, exit 2, without naming the flag
    def no_scenario(cfg):
        raise AssertionError("scenario built before the flags were checked")

    monkeypatch.setattr(engine, "build_hibs_scenario", no_scenario)
    monkeypatch.setattr(engine, "build_combined_scenario", no_scenario)
    out = tmp_path / "run"
    code = main([command, "--seed", "-1", "--out", str(out)])
    assert code == 1
    assert "--seed: must be at least 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_a3_offset_exits_1(tmp_path, monkeypatch, capsys, value):
    # a NaN offset fired no handover and wrote NaN, not JSON, into the
    # summary; -inf fired one at every time-to-trigger
    def no_run(*args, **kwargs):
        raise AssertionError("mobility ran with a non-finite offset")

    monkeypatch.setattr(mobility, "run_mobility", no_run)
    out = tmp_path / "run"
    code = main(["mobility", f"--a3-offset-db={value}", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "--a3-offset-db" in err and "finite" in err
    assert not out.exists()


def test_mobility_rejects_drops(tmp_path, capsys):
    # tracks come from mobility.n_inbound/n_outbound; --drops would do nothing
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main(["mobility", "--drops", "5", "--out", str(out)])
    assert exc.value.code == 2
    assert "--drops" in capsys.readouterr().err
    assert not out.exists()


def test_out_dir_env_fallback(tmp_path, monkeypatch, capsys):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("HIBSIM_OUT_DIR", str(env_dir))
    code = main(["coupling-loss", *SMALL, "--users-per-drop", "5"])
    assert code == 0
    assert os.path.exists(env_dir / "coupling_loss.csv")
    capsys.readouterr()


def test_out_flag_beats_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HIBSIM_OUT_DIR", str(tmp_path / "ignored"))
    out = tmp_path / "explicit"
    code = main(
        ["coupling-loss", *SMALL, "--users-per-drop", "5", "--out", str(out)]
    )
    assert code == 0
    assert os.path.exists(out / "coupling_loss.csv")
    assert not os.path.exists(tmp_path / "ignored")
    capsys.readouterr()


def test_threads_do_not_change_output_bytes(tmp_path, capsys):
    # six drops a density make two blocks, so --threads 2 and 3 use a pool
    outs = {}
    for threads in ("1", "2", "3"):
        out = tmp_path / f"t{threads}"
        assert (
            main(
                [
                    "sinr-sweep",
                    "--seed",
                    "3",
                    "--drops",
                    "6",
                    "--densities",
                    "0.5,20",
                    "--threads",
                    threads,
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        outs[threads] = {}
        for name in ("sinr.csv", "summary.json"):
            with open(out / name, "rb") as fh:
                outs[threads][name] = fh.read()
    capsys.readouterr()
    assert outs["1"] == outs["2"] == outs["3"]


needs_two_workers = pytest.mark.skipif(
    engine._pool_size(2, 2) < 2, reason="one CPU: worker pools run in-process"
)
# two blocks of drops, so --threads 2 runs two worker processes
POOLED = ["sinr-sweep", "--seed", "2", "--drops", "6", "--densities", "1,20", "--threads", "2"]


@needs_two_workers
def test_worker_error_exits_2_with_nothing_written(tmp_path, monkeypatch, capsys):
    parent = os.getpid()
    budgets = network.coupling_loss_matrix

    def fail_in_worker(*args, **kwargs):
        if os.getpid() != parent:
            raise RuntimeError("budget failed in a worker")
        return budgets(*args, **kwargs)

    monkeypatch.setattr(network, "coupling_loss_matrix", fail_in_worker)
    out = tmp_path / "run"
    code = main([*POOLED, "--out", str(out)])
    assert code == 2
    assert "error: budget failed in a worker" in capsys.readouterr().err
    assert not out.exists()


@needs_two_workers
def test_dead_worker_exits_2(tmp_path):
    # a worker process that dies ends the run with exit 2, never a hang
    out = tmp_path / "run"
    probe = f"""
import os, sys
from hibsim import network
from hibsim.cli import main
parent, budgets = os.getpid(), network.coupling_loss_matrix

def die_in_worker(*args, **kwargs):
    if os.getpid() != parent:
        os._exit(3)
    return budgets(*args, **kwargs)

network.coupling_loss_matrix = die_in_worker
sys.exit(main({POOLED + ["--out", str(out)]!r}))
"""
    src = os.path.dirname(os.path.dirname(engine.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "terminated abruptly" in proc.stderr
    assert not out.exists()

import hashlib
import importlib.util
from pathlib import Path

import pytest

from hibsim.cli import main as hibsim_main

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = _load("code_lines")
output_digests = _load("output_digests")

# 10 code lines: the import, the class line, `size = 1`, the four lines of
# the multi-line `def`, the two lines of the string that is not a docstring,
# and the return; docstrings, comment lines and blank lines count nothing
SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a trailing comment leaves its line a code line

# a comment line


class Box:
    """Class docstring."""

    size = 1


def area(
    width,
    height,
):
    """Function
    docstring."""
    label = """not a
docstring"""
    return width * height
'''


def test_code_lines_counts_what_its_docstring_states():
    assert code_lines.code_lines(SNIPPET) == 10


def test_main_prints_a_total_for_the_package(capsys):
    assert code_lines.main([]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[-1][1] == "total"
    counts = [int(count) for count, _ in rows]
    assert counts[-1] == sum(counts[:-1]) > 0
    assert "engine.py" in [name for _, name in rows]


def test_output_digests_hash_what_the_cli_writes(tmp_path):
    tiny = tmp_path / "tiny.yaml"
    tiny.write_text("mobility:\n  n_inbound: 2\n  n_outbound: 2\n  sim_duration_s: 300.0\n")
    commands = {
        "coupling-loss": ["--drops", "2", "--users-per-drop", "10"],
        "sinr-sweep": ["--drops", "2", "--densities", "1"],
        "throughput-sweep": ["--drops", "2", "--densities", "1"],
        "mobility": ["--config", str(tiny)],
    }
    lines = output_digests.digests(2, 1, commands)
    assert [line.split("  ")[1] for line in lines] == [
        "coupling-loss/coupling_loss.csv",
        "coupling-loss/summary.json",
        "sinr-sweep/sinr.csv",
        "sinr-sweep/summary.json",
        "throughput-sweep/throughput.csv",
        "throughput-sweep/summary.json",
        "mobility/handover.csv",
        "mobility/summary.json",
    ]
    assert output_digests.digests(2, 1, commands) == lines

    # each digest is the sha256 of the file the same CLI run writes
    for command, extra in commands.items():
        out = tmp_path / command
        assert hibsim_main([command, "--seed", "2", "--out", str(out), *extra]) == 0
        for path in sorted(out.iterdir()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            assert f"{digest}  {command}/{path.name}" in lines

    with pytest.raises(RuntimeError, match="exited 1.*--drops: must be at least 1"):
        output_digests.digests(2, 1, {"sinr-sweep": ["--drops", "0"]})


def test_output_digests_pass_the_config_to_every_command(tmp_path):
    # each command reads the one scenario file: its digests are those of
    # the CLI runs given that file, and differ from the defaults' for
    # every command the file changes
    cfg = tmp_path / "no_shadowing.yaml"
    cfg.write_text(
        "channel:\n  shadowing: false\n"
        "mobility:\n  n_inbound: 2\n  n_outbound: 2\n  sim_duration_s: 300.0\n"
    )
    commands = {
        "coupling-loss": ["--drops", "2", "--users-per-drop", "10"],
        "sinr-sweep": ["--drops", "2", "--densities", "1"],
        "throughput-sweep": ["--drops", "2", "--densities", "1"],
        "mobility": [],
    }
    lines = output_digests.digests(2, 1, commands, config=str(cfg))
    assert len(lines) == 8
    for command, extra in commands.items():
        out = tmp_path / command
        argv = [command, "--seed", "2", "--config", str(cfg), "--out", str(out), *extra]
        assert hibsim_main(argv) == 0
        for path in sorted(out.iterdir()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            assert f"{digest}  {command}/{path.name}" in lines
    drop_commands = {c: a for c, a in commands.items() if c != "mobility"}
    default = output_digests.digests(2, 1, drop_commands)
    assert not set(default) & set(lines)


def test_output_digests_pass_the_a3_offset_to_the_mobility_command(
    tmp_path, monkeypatch, capsys
):
    # the mobility digests are those of the CLI run at the offset given,
    # and differ from the config offset's; no other command takes it
    tiny = tmp_path / "tiny.yaml"
    tiny.write_text("mobility:\n  n_inbound: 2\n  n_outbound: 2\n  sim_duration_s: 2400.0\n")
    monkeypatch.setattr(
        output_digests,
        "COMMANDS",
        {"sinr-sweep": ["--drops", "2", "--densities", "1"], "mobility": []},
    )
    printed = {}
    for offset in (None, "-2"):
        argv = ["--seed", "2", "--config", str(tiny)]
        argv += [] if offset is None else ["--a3-offset-db", offset]
        assert output_digests.main(argv) == 0
        printed[offset] = capsys.readouterr().out.splitlines()
    out = tmp_path / "mobility"
    argv = ["mobility", "--seed", "2", "--config", str(tiny), "--a3-offset-db", "-2"]
    assert hibsim_main([*argv, "--out", str(out)]) == 0
    for path in sorted(out.iterdir()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert f"{digest}  mobility/{path.name}" in printed["-2"]
    assert printed["-2"][:2] == printed[None][:2]  # sinr-sweep
    assert not set(printed["-2"][2:]) & set(printed[None][2:])


def test_output_digests_print_one_mobility_block_per_offset(tmp_path, monkeypatch, capsys):
    # a comma list runs the other commands once and the mobility command
    # once per offset, each block named by its offset and equal to the
    # lines of a run at that offset alone
    tiny = tmp_path / "tiny.yaml"
    tiny.write_text("mobility:\n  n_inbound: 2\n  n_outbound: 2\n  sim_duration_s: 2400.0\n")
    monkeypatch.setattr(
        output_digests,
        "COMMANDS",
        {"sinr-sweep": ["--drops", "2", "--densities", "1"], "mobility": []},
    )
    printed = {}
    for offsets in ("-2", "3", "-2,3"):
        argv = ["--seed", "2", "--config", str(tiny), f"--a3-offset-db={offsets}"]
        assert output_digests.main(argv) == 0
        printed[offsets] = capsys.readouterr().out.splitlines()
    both = printed["-2,3"]
    assert [line.split("  ")[1] for line in both] == [
        "sinr-sweep/sinr.csv",
        "sinr-sweep/summary.json",
        "mobility@-2/handover.csv",
        "mobility@-2/summary.json",
        "mobility@3/handover.csv",
        "mobility@3/summary.json",
    ]
    assert both[:2] == printed["-2"][:2]
    for offset, block in (("-2", both[2:4]), ("3", both[4:])):
        alone = printed[offset][2:]
        assert block == [line.replace("mobility/", f"mobility@{offset}/") for line in alone]
    assert not {line.split()[0] for line in both[2:4]} & {line.split()[0] for line in both[4:]}

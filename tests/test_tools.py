import datetime
import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hibsim.cli import main as hibsim_main

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_record = _load("bench_record")
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


# The output bytes pinned: for each variant, the lines
# `python3 tools/output_digests.py <tool_args>` prints at seed 1, the same at
# any thread count (the test runs two worker processes, the quicker here),
# `CONFIG` standing for a file that holds the variant's `config`. The offset
# variant keeps its mobility blocks only, and the shadowed one its mobility
# lines: the other lines of those runs are the defaults' or vary with the
# config alone. A change that moves a number updates the file with it. The
# bits depend on the numpy build and the CPU targets it dispatches to, so the
# file names the ones it was written on.
PINNED = json.loads((Path(__file__).parent / "data" / "output_digests.json").read_text())


def _numpy_build():
    """(numpy version, the CPU targets numpy dispatches to here)."""
    if np.__version__ != PINNED["numpy"]:
        return np.__version__, None
    from numpy._core import _multiarray_umath as umath

    found = {name for name, on in umath.__cpu_features__.items() if on}
    return np.__version__, sorted(set(umath.__cpu_dispatch__) & found)


@pytest.mark.parametrize("variant", list(PINNED["variants"]))
def test_outputs_keep_their_pinned_digests(variant, tmp_path):
    build = _numpy_build()
    if build != (PINNED["numpy"], PINNED["cpu_targets"]):
        pytest.skip(
            f"digests pinned on numpy {PINNED['numpy']} dispatching to "
            f"{PINNED['cpu_targets']}; this machine has numpy {build[0]} "
            f"dispatching to {build[1]}"
        )
    pinned = PINNED["variants"][variant]
    config = None
    if pinned["config"] is not None:
        config = tmp_path / "config.yaml"
        config.write_text(pinned["config"])
        config = str(config)
    # (command, offset) of each block of lines, in order
    names = (line.split("  ")[1].split("/")[0] for line in pinned["lines"])
    runs = dict.fromkeys(name.partition("@")[::2] for name in names)
    lines = []
    for command, offset in runs:
        extra = ["--a3-offset-db", offset] if offset else []
        block = output_digests.digests(1, 2, {command: extra}, config)
        if offset:
            block = [line.replace(f"  {command}/", f"  {command}@{offset}/") for line in block]
        lines += block
    assert lines == pinned["lines"]


# the last two lines `perfbench/run.py --trace 0` prints for one run, the
# report cut to the fields a BENCH record reads
REPORT_LINE = json.dumps(
    {
        "workload": "handover-mobility",
        "env": {
            "python": "3.11.7",
            "numpy": "2.4.6",
            "scipy": "1.17.0",
            "nproc": 2,
            "git_sha": "0123abcd",
            "src_sha256": "feed",
        },
        "setup_probes_s": [[0.25, 0.125], [0.25, 0.0625], [0.375, 0.125]],
        "repeats_wall_s": [0.5, 0.75, 0.625],
        "problems": [],
    }
)
RESULT_LINE = json.dumps(
    {
        "correct": True,
        "attempted": 3,
        "failed": 0,
        "metrics": {
            "wall_s": {"value": 0.625, "unit": "s"},
            "setup_s": {"value": 0.375, "unit": "s"},
            "peak_rss_mb": {"value": 39.25, "unit": "MiB"},
        },
    }
)


def test_bench_record_appends_one_record_per_run(tmp_path, monkeypatch, capsys):
    # each run, here the canned lines of one, appends a record of its tree,
    # machine, arguments, the three end-to-end metrics with the readings
    # each came from, and its process tree's peak; `all` runs every
    # workload into its own file
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    runs = []

    def canned(tree, workload, seed, seconds):
        runs.append((tree, workload, seed, seconds))
        return json.loads(REPORT_LINE), json.loads(RESULT_LINE), 41.5

    monkeypatch.setattr(bench_record, "run", canned)
    argv = ["--workload", "handover-mobility", "--seconds", "4", "--tree", "parent"]
    assert bench_record.main([*argv, "--label", "parent"]) == 0
    assert bench_record.main(["--workload", "handover-mobility", "--label", "change"]) == 0
    assert runs == [
        (Path("parent"), "handover-mobility", 1, 4.0),
        (tmp_path, "handover-mobility", 1, 36.0),
    ]
    out = capsys.readouterr().out
    assert "handover-mobility parent: wall_s 0.6250" in out
    assert "children_peak_rss_mb 41.50, failed 0" in out
    records = json.loads((tmp_path / "BENCH_handover-mobility.json").read_text())
    assert [r["label"] for r in records] == ["parent", "change"]
    rec = records[0]
    assert (rec["commit"], rec["src_sha256"]) == ("0123abcd", "feed")
    assert rec["args"] == {"workload": "handover-mobility", "seed": 1, "seconds": 4.0, "trace": 0}
    assert rec["machine"] == {
        "nproc": 2,
        "python": "3.11.7",
        "numpy": "2.4.6",
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    assert rec["wall_s"] == {"value": 0.625, "repeats": [0.5, 0.75, 0.625]}
    assert rec["setup_s"] == {"value": 0.375, "repeats": [0.375, 0.3125, 0.5]}
    assert rec["peak_rss_mb"] == {"value": 39.25, "repeats": [39.25]}
    assert rec["children_peak_rss_mb"] == 41.5
    assert (rec["correct"], rec["attempted"], rec["failed"]) == (True, 3, 0)
    assert datetime.datetime.fromisoformat(rec["date"]).utcoffset() == datetime.timedelta(0)

    assert bench_record.main(["--workload", "all"]) == 0
    assert [w for _, w, _, _ in runs[2:]] == list(bench_record.WORKLOADS)
    for workload in bench_record.WORKLOADS:
        records = json.loads((tmp_path / f"BENCH_{workload}.json").read_text())
        assert len(records) == 1 + 2 * (workload == "handover-mobility")


def test_bench_record_wrapper_reads_the_peak_of_the_whole_tree():
    # the wrapper passes the command's output and exit status on and prints
    # last the peak RSS of every process under it: here a grandchild that
    # touches 32 MiB, while the command itself stays small
    grandchild = "import sys; b = b'x' * (32 << 20); print('grandchild'); sys.exit(3)"
    command = (
        "import subprocess, sys; "
        f"sys.exit(subprocess.call([sys.executable, '-c', {grandchild!r}]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", bench_record.WRAPPER, sys.executable, "-c", command],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3
    out, peak_kib = proc.stdout.splitlines()
    assert out == "grandchild"
    assert int(peak_kib) >= 32 << 10


def test_bench_files_parse():
    # every BENCH file at the root of the checkout is a list of records,
    # each metric's value among the readings it came from or their median
    paths = sorted(_TOOLS.parent.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        records = json.loads(path.read_text())
        assert records, path
        for rec in records:
            assert rec["args"]["workload"] == path.stem.removeprefix("BENCH_")
            assert rec["args"]["trace"] == 0
            for metric in ("wall_s", "setup_s", "peak_rss_mb"):
                readings = sorted(rec[metric]["repeats"])
                assert readings[0] <= rec[metric]["value"] <= readings[-1], (path, metric)
            # the harness is one of the processes the tree's peak covers
            if "children_peak_rss_mb" in rec:
                assert rec["children_peak_rss_mb"] >= rec["peak_rss_mb"]["value"], path

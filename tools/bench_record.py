"""Append the benchmark harness's end-to-end readings to `BENCH_<workload>.json`.

    python3 tools/bench_record.py --workload handover-mobility [--seed 1]
        [--seconds 36] [--tree PATH] [--label TEXT]

One invocation is one run of

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

in the source tree `--tree` (default: the checkout holding this script).
The run's last two output lines, the harness's report and result, become
one record appended to `BENCH_<workload>.json` at the root of this
checkout, a JSON list of records, oldest first. `--workload all` runs each
workload in turn. A record holds:

- `commit` (the measured tree's HEAD) and `src_sha256` (its `src/hibsim`,
  so uncommitted edits tell apart), a free-text `label`, the `date` (UTC)
  and the `args` of the run;
- `machine`: `nproc`, `python` and `numpy` as the harness reports them,
  and the `PYTHONDONTWRITEBYTECODE` setting the run inherited;
- `wall_s`, `setup_s` and `peak_rss_mb`, each `{"value", "repeats"}`: the
  harness's metric and the readings it came from (one per timed repeat,
  one per setup probe, and the run's one peak);
- `children_peak_rss_mb`: the largest peak RSS of the harness and every
  process under it (workers and setup probes), which `peak_rss_mb`, the
  harness process alone, misses. A wrapper process runs the harness and
  reads its own `RUSAGE_CHILDREN`, so one run's peak never carries into
  the next;
- the run counts `correct`, `attempted` and `failed`.

To compare two trees on one machine, alternate them, one run each:
`--tree A --label parent`, `--tree B --label change`, and again.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("platform-sinr", "overlay-throughput", "handover-mobility")

# Runs the command after it, passes its output and exit status on, and
# prints last the peak RSS (KiB) of the command and its waited-for
# descendants.
WRAPPER = """\
import resource, subprocess, sys
code = subprocess.call(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
sys.exit(code)
"""


def record(report: dict, result: dict, children_peak_mb: float, label: str, args: dict) -> dict:
    """One BENCH record from the harness's report and result of one run and
    the peak RSS of its process tree."""
    env, metrics = report["env"], result["metrics"]
    repeats = {
        "wall_s": report["repeats_wall_s"],
        "setup_s": [a + b for a, b in report["setup_probes_s"]],
        "peak_rss_mb": [metrics["peak_rss_mb"]["value"]],
    }
    return {
        "commit": env["git_sha"],
        "src_sha256": env["src_sha256"],
        "label": label,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "args": args,
        "machine": {
            "nproc": env["nproc"],
            "python": env["python"],
            "numpy": env["numpy"],
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        },
        **{k: {"value": metrics[k]["value"], "repeats": v} for k, v in repeats.items()},
        "children_peak_rss_mb": children_peak_mb,
        **{k: result[k] for k in ("correct", "attempted", "failed")},
    }


def append(path: Path, rec: dict) -> None:
    """Append one record to the JSON list at `path`, made if missing."""
    records = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
    records.append(rec)
    path.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")


def run(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict, float]:
    """(report, result, peak RSS MiB of its process tree) of one untraced
    harness run in `tree`."""
    argv = [sys.executable, "-c", WRAPPER, sys.executable, "perfbench/run.py",
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=True)
    *_, report, result, peak_kib = proc.stdout.splitlines()
    return json.loads(report), json.loads(result), int(peak_kib) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--tree", type=Path, default=ROOT)
    parser.add_argument("--label", default="")
    args = parser.parse_args(argv)
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        report, result, children_peak_mb = run(args.tree, workload, args.seed, args.seconds)
        run_args = {"workload": workload, "seed": args.seed, "seconds": args.seconds, "trace": 0}
        rec = record(report, result, children_peak_mb, args.label, run_args)
        append(ROOT / f"BENCH_{workload}.json", rec)
        print(f"{workload} {args.label}: wall_s {rec['wall_s']['value']:.4f}, "
              f"setup_s {rec['setup_s']['value']:.4f}, "
              f"peak_rss_mb {rec['peak_rss_mb']['value']:.2f}, "
              f"children_peak_rss_mb {children_peak_mb:.2f}, failed {rec['failed']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

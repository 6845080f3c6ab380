"""hibsim benchmark: the paper's figure runs, timed end to end.

    python3 perfbench/run.py --workload platform-sinr --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36

Run from the root of a source checkout; the package is imported from its
`src/`. One invocation is one fresh interpreter for one workload (`all` runs
each workload in a child interpreter, one after another, and prints a table).
It repeats the workload with the given seed for about `--seconds` seconds,
checks every repeat's output files, and prints two JSON lines: a report
(environment stamp, run counts, per-repeat times, output digests, problems)
and, last, the result `{"correct", "attempted", "failed", "metrics"}`.

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json:
`wall_s` (median time from the `run_*` call until `emit_*` returns),
`setup_s` (median over fresh interpreters of `import hibsim` plus config and
scenario construction) and `peak_rss_mb`. With `--trace 1` the untraced
repeats are followed by one traced repeat, and the metrics are the per-layer
ones; the spans are written to `.perfbench_out/` when the run ends.

A repeat fails when the library raises, when its files fail the check, or
when its bytes differ from the first repeat of the same seed.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("platform-sinr", "overlay-throughput", "handover-mobility")
SETUP_PROBES = 3

# numpy's BLAS pool would add threads of its own to the workloads' at most two.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

PROBE = """\
import json, time
t0 = time.perf_counter()
import hibsim, hibsim.output
from hibsim import engine
t1 = time.perf_counter()
engine.{builder}(hibsim.ScenarioConfig())
t2 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t1]))
"""


def _child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def environment(loadavg) -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "hibsim").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "loadavg_at_start": list(loadavg),
    }


def setup_probes(builder: str) -> list[tuple[float, float]]:
    """(import s, scenario s) measured in SETUP_PROBES fresh interpreters."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", PROBE.format(builder=builder)],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=120, check=True,
        )
        out.append(tuple(json.loads(proc.stdout.splitlines()[-1])))
    return out


def repeat(workload, seed: int, expected: dict | None) -> dict:
    """One timed run of the workload plus the check of what it wrote."""
    from workloads import check

    tmp = tempfile.mkdtemp(dir=OUT, prefix="rep-")
    try:
        t0 = time.perf_counter()
        c0 = time.process_time()
        try:
            result = workload.simulate(workload.cfg, seed)
            t_run, c_run = time.perf_counter() - t0, time.process_time() - c0
            paths = workload.emit(result, workload.cfg, tmp)
            wall = time.perf_counter() - t0
        except Exception as exc:  # noqa: BLE001 - a failing run is a counted outcome
            traceback.print_exc()
            return {"wall_s": time.perf_counter() - t0, "cpu_per_wall": 0.0,
                    "problems": [f"{type(exc).__name__}: {exc}"], "digests": {}}
        problems, digests = check(workload, paths, seed)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if expected is not None and digests != expected:
        problems.append("output bytes differ from the first repeat of this seed")
    return {"wall_s": wall, "cpu_per_wall": c_run / t_run, "problems": problems,
            "digests": digests}


def first_digests(reps: list[dict]) -> dict | None:
    return next((r["digests"] for r in reps if r["digests"]), None)


def measure(workload, seed: int, seconds: float) -> list[dict]:
    """Repeat the workload while the next repeat is expected to end within
    `seconds` of the first one's start; always at least once."""
    reps: list[dict] = []
    start = time.perf_counter()
    while True:
        reps.append(repeat(workload, seed, first_digests(reps)))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(r["wall_s"] for r in reps) > seconds:
            return reps


def traced_repeat(workload, seed: int, expected: dict | None):
    """One repeat under the tracer; returns (repeat, per-layer metrics, spans)."""
    import layers
    from tracer import Tracer

    tracer = Tracer(layers.OBSERVERS)
    with tracer.installed("hibsim", layers.MODULES, layers.PRIVATE):
        rep = repeat(workload, seed, expected)
    return rep, layers.layer_metrics(tracer), tracer.spans()


def write_spans(spans, path: Path) -> None:
    t0 = min((s.start for s in spans), default=0.0)
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("thread,name,parent,start_s,end_s,self_s\n")
        for s in sorted(spans, key=lambda s: (s.thread, s.start)):
            fh.write(f"{s.thread},{s.name},{s.parent or ''},{s.start - t0:.9f},"
                     f"{s.end - t0:.9f},{s.self_s:.9f}\n")


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def import_hibsim() -> bool:
    """Import the package from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import hibsim

    if Path(hibsim.__file__).resolve().parent != (SRC / "hibsim").resolve():
        print(f"error: hibsim imported from {hibsim.__file__}, not {SRC}", file=sys.stderr)
        return False
    return True


def run_one(workload, seed: int, seconds: float, trace: bool) -> int:
    loadavg = os.getloadavg()
    spec = load_benchmark()
    name = workload.name
    OUT.mkdir(exist_ok=True)
    env = environment(loadavg)
    probes = setup_probes(workload.scenario_builder)
    reps = measure(workload, seed, seconds)
    untraced_wall = statistics.median(r["wall_s"] for r in reps)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = {
        "workload": name, "seed": seed, "trace": int(trace), "env": env,
        "runs": {"wall_s": len(reps), "setup_s": len(probes), "peak_rss_mb": 1},
        "setup_probes_s": probes,
        "repeats_wall_s": [r["wall_s"] for r in reps],
    }
    if not trace:
        spec_metrics = spec["end_to_end"]
        metrics = {
            "wall_s": untraced_wall,
            "setup_s": statistics.median(a + b for a, b in probes),
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        spec_metrics = spec["per_layer"]
        rep, layer, spans = traced_repeat(workload, seed, first_digests(reps))
        reps.append(rep)
        cpu = statistics.median(r["cpu_per_wall"] for r in reps[:-1])
        layer[f"{workload.layer}.cpu_per_wall"] = (cpu, "s/s")
        other = "mobility" if workload.layer == "engine" else "engine"
        layer[f"{other}.cpu_per_wall"] = (0.0, "s/s")
        layer["setup.import_s"] = (statistics.median(a for a, _ in probes), "s")
        layer["setup.scenario_s"] = (statistics.median(b for _, b in probes), "s")
        layer["trace.wall_s"] = (rep["wall_s"], "s")
        layer["trace.overhead_s"] = (rep["wall_s"] - untraced_wall, "s")
        spans_path = OUT / f"trace-{name}-seed{seed}.csv.gz"
        write_spans(spans, spans_path)
        report["spans_file"] = os.path.relpath(spans_path, ROOT)
        report["layers"] = {k: v[0] for k, v in sorted(layer.items())}
        # A function that a later version of the program no longer has makes
        # no calls; its metrics read 0 rather than going missing.
        report["absent"] = [m["name"] for m in spec_metrics if m["name"] not in layer]
        metrics = {m["name"]: layer.get(m["name"], (0.0,))[0] for m in spec_metrics}
    problems = sorted({p for r in reps for p in r["problems"]})
    report["digests"] = first_digests(reps)
    report["problems"] = problems
    failed = sum(1 for r in reps if r["problems"])
    print(json.dumps(report, sort_keys=True))
    units = {m["name"]: m["unit"] for m in spec_metrics}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own interpreter, one after another; one table."""
    rows, metrics, attempted, failed = [], {}, 0, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 2
        report, result = (json.loads(ln) for ln in proc.stdout.splitlines()[-2:])
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, v in result["metrics"].items():
            metrics[f"{name}.{metric}"] = v
            rows.append((name, metric, v["value"], v["unit"], report["runs"].get(metric, 1)))
        for p in report["problems"]:
            print(f"{name}: FAILED CHECK: {p}")
    print(f"{'workload':<20} {'metric':<28} {'value':>12} {'unit':<6} runs")
    for name, metric, value, unit, runs in rows:
        print(f"{name:<20} {metric:<28} {value:>12.4f} {unit:<6} {runs}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    missing = [p for p in (SRC / "hibsim" / "__init__.py", ROOT / "BENCHMARK.json") if not p.is_file()]
    if missing:
        print(f"error: not a hibsim checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    if not import_hibsim():
        return 2
    from workloads import WORKLOADS

    return run_one(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

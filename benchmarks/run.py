"""pertvqe benchmark: seeded workloads driven through ``pertvqe.cli.main``.

    python3 benchmarks/run.py --workload weak8 --seed 1 --seconds 40 --trace 0
    python3 benchmarks/run.py --workload all --seed 1     # every workload

Run from anywhere; it builds nothing and uses ``src/`` of the checkout that
holds it.  A run is a closed loop of LANES clients, one per core: each runs
commands back to back for about ``--seconds``, each command on its own
seeded config, in two fresh worker processes one after the other.  Every
output is checked in this process once all workers have exited.  With
``--trace 1`` the commands are traced, and one extra untraced command
measures the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Every file it writes goes under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from pathlib import Path

from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
RUN_LIMIT_S = 170.0  # a run ends inside the 180 s every run is allowed
BLAS_THREADS = "1"  # two shared cores: one BLAS thread is faster and steadier
EPS_FLOOR = 2.0**-52
# Concurrent clients, one per core of the 2-core reference host: twice the
# commands per run, to average out the host's drifting speed.
LANES = min(2, os.cpu_count() or 1)
# What the checked accuracy of each command kind is, as reported by name.
ACCURACY = {"sweep": "final_eps", "hierarchy": "order1_rel_error"}


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "OPENBLAS_NUM_THREADS": BLAS_THREADS,
        "loadavg_1m": os.getloadavg()[0],
    }


def check_command(workload: Workload, command: dict) -> dict:
    """Attach the output checks' findings and accuracy to one command."""
    from checks import CHECKS

    if "problems" in command:  # its worker failed
        return command
    out = Path(command["out"])
    if command["error"] is not None or command["rc"] != 0:
        command["problems"] = [f"pertvqe exited {command['rc']}: {command['error']}"]
        return command
    config = json.loads((out / "config.json").read_text())
    try:
        command["problems"], command["accuracy"] = CHECKS[workload.command](
            config, out / "cli")
    except (OSError, ValueError, KeyError, IndexError) as exc:
        command["problems"] = [f"unreadable output: {exc!r}"]
    written = [p for p in (out / "cli").rglob("*") if p.is_file()] + [out / "stdout.txt"]
    command["bytes_written"] = sum(p.stat().st_size for p in written)
    return command


def run_worker(workload: Workload, seed: int, run_dir: Path, trace: bool,
               first: int, until: float, deadline: float) -> dict:
    """One worker process running configs first, first + LANES, ... (see
    worker.py); returns its set-up time, peak RSS and unchecked commands."""
    run_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]),
               OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS)
    argv = [sys.executable, str(HERE / "worker.py"), json.dumps(asdict(workload)),
            str(seed), str(run_dir), "1" if trace else "0", str(first), str(LANES),
            repr(until)]
    stderr = run_dir / f"worker{first}.stderr"
    lost = {"commands": [{"problems": [f"worker {first} failed, see {stderr}"]}]}
    spawned = time.monotonic()
    try:
        with open(stderr, "w") as err:
            proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=err,
                                  timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        return lost
    if proc.returncode != 0:
        return lost
    report = json.loads((run_dir / f"worker{first}.json").read_text())
    report["setup_s"] = report.pop("ready") - spawned
    return report


def run_lane(workload: Workload, seed: int, lane: int, run_dir: Path, trace: bool,
             seconds: int, deadline: float) -> list:
    """One client: two workers one after the other, each given half of the
    run, so that a run samples set-up 2 * LANES times."""
    start = time.monotonic()
    reports = []
    if trace and lane == LANES - 1:
        # Untraced config 0, run while lane 0 runs it traced.
        reports.append(run_worker(workload, seed, run_dir / "untraced", False,
                                  0, start, deadline))
    first = lane
    for half in (1, 2):
        report = run_worker(workload, seed, run_dir, trace, first,
                            start + seconds * half / 2, deadline)
        reports.append(report)
        if "next" not in report:  # the worker failed; stop this lane
            break
        first = report["next"]
    return reports


def run_workload(workload: Workload, seed: int, seconds: int, trace: bool,
                 out_root: Path = OUT) -> dict:
    """Run, check and summarise one workload; returns the result object."""
    run_dir = out_root / f"{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    with ThreadPoolExecutor(LANES) as pool:
        futures = [pool.submit(run_lane, workload, seed, lane, run_dir, trace,
                               seconds, deadline) for lane in range(LANES)]
        by_lane = [f.result() for f in futures]
    # Checks run only after every worker has exited.
    if trace:
        untraced = check_command(workload, by_lane[-1].pop(0)["commands"][0])
    reports = [report for lane in by_lane for report in lane]
    workers = [r for r in reports if "setup_s" in r]
    commands = [check_command(workload, c) for r in reports for c in r["commands"]]
    attempted = commands + ([untraced] if trace else [])
    failed = [c for c in attempted if c["problems"]]
    good = [c for c in commands if not c["problems"]]

    metrics = {}
    if good and not trace:
        # Every command is another seeded config, so per-input figures are
        # averaged; set-up and memory repeat one job, so take medians.
        digits = [-math.log10(max(c["accuracy"], EPS_FLOOR)) for c in good]
        metrics = {
            "wall_s": (statistics.fmean(c["wall_s"] for c in good), "s"),
            "setup_s": (statistics.median(w["setup_s"] for w in workers), "s"),
            "peak_rss_mb": (statistics.median(w["peak_rss_mb"] for w in workers), "MB"),
            "final_eps_digits": (statistics.fmean(digits), "digits"),
        }
    elif good:
        for name, (_, unit) in good[0]["layers"].items():
            metrics[name] = (statistics.median(c["layers"][name][0] for c in good), unit)
        metrics["cli.bytes_written"] = (
            statistics.median(c["bytes_written"] for c in good), "bytes")
        if not untraced["problems"] and not commands[0]["problems"]:
            over = commands[0]["wall_s"] - untraced["wall_s"]
            metrics["trace.overhead_s"] = (over, "s")
            metrics["trace.overhead_ratio"] = (over / untraced["wall_s"], "ratio")

    summary = {
        "workload": workload.name, "seed": seed, "trace": int(trace),
        "commands": len(commands), "lanes": LANES, "environment": environment(),
        "correct": not failed, "attempted": len(attempted), "failed": len(failed),
        "problems": [p for c in failed for p in c["problems"]],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if good and not trace:
        summary[ACCURACY[workload.command]] = statistics.median(
            c["accuracy"] for c in good)
    (run_dir / "result.json").write_text(json.dumps(summary, indent=1))
    return summary


def report(summary: dict) -> None:
    name = summary["workload"]
    print(f"{name}: seed {summary['seed']}, {summary['commands']} commands, "
          f"closed loop of {summary['lanes']} clients, trace {summary['trace']}")
    for metric, entry in summary["metrics"].items():
        print(f"  {metric:<36} {entry['value']:.6g} {entry['unit']}")
    for label in ACCURACY.values():
        if label in summary:
            print(f"  {label:<36} {summary[label]:.6g} (median)")
    print(f"  {'fail_ratio':<36} {summary['failed']}/{summary['attempted']} = "
          f"{summary['failed'] / summary['attempted']:.3g}")
    for problem in summary["problems"]:
        print(f"  FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pertvqe" / "__init__.py").is_file():
        print(f"no pertvqe sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = []
    for name in names:
        summary = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        report(summary)
        summaries.append(summary)
    print("environment: " + json.dumps(summaries[0]["environment"], sort_keys=True))
    if any(not s["metrics"] for s in summaries):
        print("no command of a workload succeeded; no metrics", file=sys.stderr)
        return 1
    prefix = len(summaries) > 1
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": {(f"{s['workload']}.{k}" if prefix else k): v
                    for s in summaries for k, v in s["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

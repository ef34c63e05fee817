"""Run benchmark commands in one fresh process and report them as JSON.

    python3 worker.py WORKLOAD_JSON SEED RUN_DIR TRACE FIRST STRIDE UNTIL

The process imports pertvqe and warms up LAPACK, then runs commands on
configs FIRST, FIRST + STRIDE, ... : each writes the config of (workload,
SEED, index) into RUN_DIR/cmd<index>/ and calls ``pertvqe.cli.main`` on it
in process with ``--jobs 1``, traced if TRACE is 1.  It always runs one
command, and starts another while the mean command so far still fits
before UNTIL, a ``time.monotonic()`` value.  It writes RUN_DIR/worker<FIRST>.json.  Output checks run
in the parent, so they add neither to a timed span nor to this process's
peak RSS.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main(argv: list[str]) -> int:
    spec, seed, run_dir, trace, first, stride, until = argv
    run_dir, first, stride = Path(run_dir), int(first), int(stride)

    import numpy as np

    import pertvqe.cli
    from tracing import Tracer, layer_metrics
    from workloads import Workload, make_config

    workload = Workload(**json.loads(spec))
    # The first LAPACK call in a process pays a one-time start-up cost.
    np.linalg.eigh(np.eye(64, dtype=complex))

    ready = None  # when the first timed command starts
    commands = []
    index = first
    while not commands or (
            time.monotonic() + sum(c["wall_s"] for c in commands) / len(commands)
            <= float(until)):
        out = run_dir / f"cmd{index}"
        out.mkdir(parents=True)
        config_path = out / "config.json"
        config_path.write_text(json.dumps(
            make_config(workload, int(seed), index, str(out / "cli")), indent=1))
        tracer = Tracer() if trace == "1" else None
        if tracer:
            tracer.install()
        rc, error = None, None
        ready = ready or time.monotonic()
        start = time.perf_counter()
        try:
            with open(out / "stdout.txt", "w") as fh, contextlib.redirect_stdout(fh):
                rc = pertvqe.cli.main(
                    ["--config", str(config_path), "--jobs", "1", workload.command])
        except Exception:  # reported as a failed command, never swallowed
            error = traceback.format_exc()
        command = {"out": str(out), "rc": rc, "error": error,
                   "wall_s": time.perf_counter() - start}
        if tracer:
            tracer.uninstall()
            command["layers"] = layer_metrics(tracer, workload.n_qubits)
            tracer.dump(out / "spans.json.gz")
        commands.append(command)
        index += stride

    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    (run_dir / f"worker{first}.json").write_text(json.dumps(
        {"ready": ready, "peak_rss_mb": maxrss_kb / 1024.0, "next": index,
         "commands": commands}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

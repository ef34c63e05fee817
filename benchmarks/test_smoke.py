"""Smoke test of the benchmark harness on n=4 chains; outside the tier-1
``testpaths``, so run it by path:

    python3 -m pytest benchmarks/test_smoke.py -q
"""

import json
import sys
from pathlib import Path

import pytest

import run
from workloads import Workload

sys.path.insert(0, str(run.SRC))
from checks import CHECKS  # noqa: E402  (needs src on the path)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = [
    Workload("tiny_sweep", "sweep", 4, "XY", 0.5, 3, 4),
    Workload("tiny_hierarchy", "hierarchy", 4, "XX", 0.15, 4, 0),
]


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_run_reports_every_benchmark_metric(workload, trace, tmp_path):
    summary = run.run_workload(workload, seed=3, seconds=1, trace=trace,
                               out_root=tmp_path)
    assert summary["correct"], summary["problems"]
    assert summary["attempted"] == summary["commands"] + trace
    assert summary["failed"] == 0
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == expected


def test_checks_reject_tampered_outputs(tmp_path):
    for workload in TINY:
        assert run.run_workload(workload, 5, 1, False, tmp_path)["correct"]
    out = tmp_path / "tiny_sweep-seed5-trace0" / "cmd0"
    config = json.loads((out / "config.json").read_text())
    csv_path = next((out / "cli").glob("sweep_*.csv"))
    lines = csv_path.read_text().splitlines()
    n, e, eps, it = lines[-1].split(",")
    lines[-1] = ",".join([n, repr(float(e) + 1e-6), eps, it])
    csv_path.write_text("\n".join(lines) + "\n")
    problems, _ = CHECKS["sweep"](config, out / "cli")
    assert any("theta gives" in p for p in problems)

    out = tmp_path / "tiny_hierarchy-seed5-trace0" / "cmd0"
    config = json.loads((out / "config.json").read_text())
    rows_path = out / "cli" / "hierarchy.json"
    rows = json.loads(rows_path.read_text())
    rows[0]["theta_tilde"], rows[-1]["theta_tilde"] = (
        rows[-1]["theta_tilde"], rows[0]["theta_tilde"])
    rows_path.write_text(json.dumps(rows))
    problems, _ = CHECKS["hierarchy"](config, out / "cli")
    assert any("rises" in p for p in problems)

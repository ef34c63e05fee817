"""Output checks for one benchmark command, run after the command's process
has exited.

Each check returns a list of failure messages (empty when the output is
right) and the command's accuracy: the final relative error of a sweep, or
the worst relative error of the order-1 angles of a hierarchy.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from pertvqe.ansatz import build_qca
from pertvqe.cli import RunConfig
from pertvqe.hierarchy import build_priority_list
from pertvqe.simulator import energy, prepare

CSV_HEADER = ["n_params", "energy", "epsilon", "iterations"]
EPS_SLACK = 1e-9  # allowed rise of epsilon between sweep rows
ROUNDING = 1e-10  # relative slack for 13-digit CSV energies


def check_sweep(config: dict, out: Path) -> tuple[list[str], float]:
    """CSV shape, monotone epsilon, energies above the exact reference, and
    the last energy recomputed from the theta sidecar."""
    csvs = sorted(out.glob("sweep_*.csv"))
    if len(csvs) != 1:
        return [f"expected one sweep CSV, found {len(csvs)}"], float("nan")
    stem = csvs[0].stem
    with open(csvs[0], newline="") as fh:
        table = list(csv.reader(fh))
    n_p_max = config["sweep"]["n_p_max"]
    problems = []
    if table[0] != CSV_HEADER:
        problems.append(f"CSV header {table[0]}")
    rows = table[1:]
    if [int(r[0]) for r in rows] != list(range(n_p_max + 1)):
        return problems + [f"expected rows 0..{n_p_max}, got {len(rows)} rows"], float("nan")
    energies = [float(r[1]) for r in rows]
    eps = [float(r[2]) for r in rows]
    for i in range(1, len(eps)):
        if eps[i] > eps[i - 1] + EPS_SLACK:
            problems.append(f"epsilon rises at row {i}: {eps[i - 1]:.3e} -> {eps[i]:.3e}")

    e_ref = json.loads((out / "manifest.json").read_text())[stem]["reference_energy"]
    floor = e_ref - ROUNDING * abs(e_ref)
    below = [i for i, e in enumerate(energies) if e < floor]
    if below:
        problems.append(f"energies below the exact reference at rows {below}")

    cfg = RunConfig.from_dict(config)
    plist = build_priority_list(cfg.model, build_qca(cfg.model.n_qubits), cfg.k_max,
                                cfg.mode, cfg.ordering, cfg.tie_seed)
    theta = json.loads((out / f"{stem}_theta.json").read_text())["theta_star"][str(n_p_max)]
    recomputed = energy(prepare(plist.build_ansatz(n_p_max), np.asarray(theta)), cfg.model)
    if abs(recomputed - energies[-1]) > ROUNDING * abs(recomputed):
        problems.append(f"last energy {energies[-1]!r} but theta gives {recomputed!r}")
    return problems, eps[-1]


def check_hierarchy(config: dict, out: Path) -> tuple[list[str], float]:
    """Ranks in order of non-increasing |theta~|, and every order-1 angle
    equal to J_b / (2 (h_i + h_{i+1})) for its chain bond b = (i, i+1)."""
    rows = json.loads((out / "hierarchy.json").read_text())
    problems = []
    if [r["rank"] for r in rows] != list(range(len(rows))):
        problems.append("ranks are not 0..N-1 in order")
    mags = [abs(r["theta_tilde"]) for r in rows]
    for i in range(1, len(mags)):
        if mags[i] > mags[i - 1] * (1 + 1e-12):
            problems.append(f"|theta~| rises at rank {i}")

    fields = config["model"]["h"]
    couplings = config["model"]["couplings"]
    worst = 0.0
    seen = 0
    for r in rows:
        k = r["leading_ks"][0]
        if sum(k) != 1:
            continue
        seen += 1
        b = k.index(1)
        expected = couplings[b]["j"] / (2 * (fields[b] + fields[b + 1]))
        worst = max(worst, abs(abs(r["theta_tilde"]) - expected) / expected)
    if seen != len(couplings):
        problems.append(f"{seen} order-1 entries for {len(couplings)} couplings")
    if worst > 1e-9:
        problems.append(f"order-1 angle off the closed form by {worst:.2e}")
    return problems, worst


CHECKS = {"sweep": check_sweep, "hierarchy": check_hierarchy}

"""Seeded workload configs for the pertvqe benchmark.

The seed draws per-site fields h in [0.9, 1.1] and couplings J * [0.9, 1.1]
on an open chain and writes them as a ``custom`` model; the program under
test only ever sees that config file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # pertvqe subcommand: "sweep" or "hierarchy"
    n_qubits: int
    pair: str  # two-site coupling string, e.g. "XX" or "XY"
    j: float
    k_max: int
    n_p_max: int  # units swept (sweep) or 0 (hierarchy)


# Why each workload exists is recorded with it in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("weak8", "sweep", 8, "XX", 0.15, 5, 30),
        Workload("complex10", "sweep", 10, "XY", 1.0, 5, 16),
        Workload("estimator12", "hierarchy", 12, "XX", 0.15, 7, 0),
    )
}


def make_config(workload: Workload, seed: int, index: int, out: str) -> dict:
    """The CLI config number ``index`` of a run of ``workload`` with
    ``seed``; the same arguments always give the same config."""
    rng = random.Random(f"{workload.name}:{seed}:{index}")
    n = workload.n_qubits
    fields = [rng.uniform(0.9, 1.1) for _ in range(n)]
    couplings = [
        {
            "j": workload.j * rng.uniform(0.9, 1.1),
            "pauli": "I" * i + workload.pair + "I" * (n - i - 2),
        }
        for i in range(n - 1)
    ]
    config = {
        "model": {"type": "custom", "h": fields, "couplings": couplings},
        "k_max": workload.k_max,
        "hierarchy": {"mode": "pert", "ordering": "parent", "tie_seed": None},
        "out": out,
    }
    if workload.command == "sweep":
        config["sweep"] = {
            "n_p_max": workload.n_p_max,
            # The sweep rescales couplings so coupling 0 equals j_value;
            # passing its own strength keeps the drawn model unchanged.
            "j_values": [couplings[0]["j"]],
            "hierarchies": [["pert", "parent"]],
        }
    return config

"""Variational optimization and the incremental hierarchy sweep."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import minimize

from .ansatz import ProductAnsatz
from .hierarchy import PriorityList
from .perturbation import HamiltonianModel, exact_ground
from .simulator import basis_state, energy, energy_and_gradient, prepare


@dataclass(frozen=True)
class OptimizationOutcome:
    theta: np.ndarray
    energy: float
    iterations: int
    converged: bool


def optimize(
    ansatz: ProductAnsatz,
    model: HamiltonianModel,
    theta0: Sequence[float],
    gtol: float = 1e-9,
    max_iterations: int = 2000,
    restarts: int = 3,
    rng: np.random.Generator | None = None,
) -> OptimizationOutcome:
    """Quasi-Newton minimization of the variational energy with analytic
    gradients.  If the gradient norm stalls above tolerance, up to
    ``restarts`` perturbed re-runs (magnitude 0.1) keep the best result.
    """
    theta0 = np.asarray(theta0, dtype=float)
    if not np.all(np.isfinite(theta0)):
        raise ValueError("starting parameters must be finite")
    if ansatz.num_params == 0:
        e = energy(basis_state(ansatz.n_qubits, ansatz.start_state), model)
        return OptimizationOutcome(np.zeros(0), e, 0, True)
    if rng is None:
        rng = np.random.default_rng(0)

    def objective(theta):
        value, grad = energy_and_gradient(ansatz, theta, model)
        if not np.isfinite(value):
            raise FloatingPointError("non-finite variational energy")
        return value, grad

    best = None
    start = theta0
    total_iters = 0
    for attempt in range(restarts + 1):
        res = minimize(
            objective,
            start,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": max_iterations, "gtol": gtol, "ftol": 1e-18},
        )
        total_iters += int(res.nit)
        grad_norm = float(np.max(np.abs(res.jac)))
        cand = OptimizationOutcome(
            np.asarray(res.x), float(res.fun), total_iters, grad_norm <= gtol
        )
        if best is None or cand.energy < best.energy:
            best = cand
        if best.converged:
            break
        start = best.theta + 0.1 * rng.standard_normal(best.theta.size)
    # Never report worse than the warm start itself.
    e_start = energy(prepare(ansatz, theta0), model)
    if e_start < best.energy:
        best = OptimizationOutcome(theta0, e_start, total_iters, best.converged)
    return best


@dataclass(frozen=True)
class SweepRow:
    n_params: int
    energy: float
    epsilon: float
    theta: tuple[float, ...]
    iterations: int


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    reference_energy: float
    # "complete", or the unit count the sweep stopped at and why
    stop_reason: str = "complete"


def hierarchy_sweep(
    model: HamiltonianModel,
    plist: PriorityList,
    n_p_max: int,
    gtol: float = 1e-9,
    max_iterations: int = 2000,
    multistarts: int = 2,
    rng: np.random.Generator | None = None,
) -> SweepResult:
    """Grow the ansatz one priority-list unit at a time, warm-starting each
    optimization from the previous optimum with the new parameter at zero.

    The warm start alone can lock onto a secondary branch once couplings are
    strong, so each step additionally tries a few seeded random starts
    (uniform within a half rotation period) and keeps the best; the warm
    start still guarantees the error never increases with the unit count.
    Row 0 is the bare start state; the relative error is measured against
    the Lanczos ground energy of ``exact_ground``.  Optimizer failures abort
    the sweep but keep the rows already produced; ``stop_reason`` then names
    the step and the cause.
    """
    e_ref, _ = exact_ground(model)
    if rng is None:
        rng = np.random.default_rng(1234)

    def eps(value: float) -> float:
        # reference energies are negative here; normalize so the error is >= 0
        return (value - e_ref) / abs(e_ref)

    e_bare = energy(basis_state(model.n_qubits, 0), model)
    rows = [SweepRow(0, e_bare, eps(e_bare), (), 0)]
    theta = np.zeros(0)
    stop_reason = "complete"
    for n in range(1, n_p_max + 1):
        ansatz = plist.build_ansatz(n)
        try:
            best = optimize(ansatz, model, np.append(theta, 0.0), gtol,
                            max_iterations, rng=rng)
            for _ in range(multistarts):
                trial = optimize(
                    ansatz, model, rng.uniform(-np.pi / 2, np.pi / 2, n),
                    gtol, max_iterations, restarts=0, rng=rng,
                )
                if trial.energy < best.energy:
                    best = trial
        except FloatingPointError as exc:
            stop_reason = f"stopped at {n} units: {exc}"
            break
        theta = best.theta
        rows.append(
            SweepRow(n, best.energy, eps(best.energy), tuple(theta),
                     best.iterations)
        )
    return SweepResult(tuple(rows), e_ref, stop_reason)


def sweep_to_csv(result: SweepResult) -> str:
    lines = ["n_params,energy,epsilon,iterations"]
    for row in result.rows:
        lines.append(
            f"{row.n_params},{row.energy:.12e},{row.epsilon:.12e},{row.iterations}"
        )
    return "\n".join(lines) + "\n"


def sweep_thetas_json(result: SweepResult) -> str:
    payload = {
        "reference_energy": result.reference_energy,
        "stop_reason": result.stop_reason,
        "theta_star": {str(row.n_params): list(row.theta) for row in result.rows},
    }
    return json.dumps(payload, indent=2, sort_keys=True)

"""Variational optimization and the incremental hierarchy sweep."""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, replace
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
    # objective evaluations and perturbed reruns spent, which run gave the
    # kept result (0: the given start, r: rerun r) and its stop message
    evaluations: int = 0
    reruns: int = 0
    attempt: int = 0
    message: str = ""


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
    evaluations = 0

    def objective(theta):
        nonlocal evaluations
        evaluations += 1
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
            np.asarray(res.x), float(res.fun), total_iters, grad_norm <= gtol,
            attempt=attempt, message=str(res.message),
        )
        if best is None or cand.energy < best.energy:
            best = cand
        if best.converged:
            break
        start = best.theta + 0.1 * rng.standard_normal(best.theta.size)
    # Never report worse than the warm start itself.
    e_start = energy(prepare(ansatz, theta0), model)
    if e_start < best.energy:
        best = replace(best, theta=theta0, energy=e_start, iterations=total_iters,
                       attempt=0, message="start kept: no run went below it")
    return replace(best, evaluations=evaluations, reruns=attempt)


@dataclass(frozen=True)
class SweepRow:
    n_params: int
    energy: float
    epsilon: float
    theta: tuple[float, ...]
    iterations: int


@dataclass(frozen=True)
class SweepStep:
    """How one sweep step reached its energy.  ``evaluations`` (objective
    calls) and ``reruns`` sum over the warm start and the random starts;
    the rest describe the kept result, whose ``iterations`` the CSV also
    reports.  ``start`` is "warm", "rerun r" (the warm start's r-th
    perturbed rerun) or "random i"."""

    n_params: int
    evaluations: int
    iterations: int
    reruns: int
    converged: bool
    message: str
    start: str
    seconds: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    reference_energy: float
    # "complete", or the unit count the sweep stopped at and why
    stop_reason: str = "complete"
    steps: tuple[SweepStep, ...] = ()


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
    steps = []
    stop_reason = "complete"
    for n in range(1, n_p_max + 1):
        ansatz = plist.build_ansatz(n)
        began = time.perf_counter()
        try:
            runs = [optimize(ansatz, model, np.append(theta, 0.0), gtol,
                             max_iterations, rng=rng)]
            best, start = runs[0], "warm"
            for i in range(multistarts):
                runs.append(optimize(
                    ansatz, model, rng.uniform(-np.pi / 2, np.pi / 2, n),
                    gtol, max_iterations, restarts=0, rng=rng,
                ))
                if runs[-1].energy < best.energy:
                    best, start = runs[-1], f"random {i}"
        except FloatingPointError as exc:
            stop_reason = f"stopped at {n} units: {exc}"
            break
        if start == "warm" and best.attempt:
            start = f"rerun {best.attempt}"
        theta = best.theta
        rows.append(
            SweepRow(n, best.energy, eps(best.energy), tuple(theta),
                     best.iterations)
        )
        steps.append(SweepStep(
            n, sum(r.evaluations for r in runs), best.iterations,
            sum(r.reruns for r in runs), best.converged, best.message, start,
            time.perf_counter() - began,
        ))
    return SweepResult(tuple(rows), e_ref, stop_reason, tuple(steps))


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
        "steps": [asdict(step) for step in result.steps],
    }
    return json.dumps(payload, indent=2, sort_keys=True)

"""Variational optimization and the incremental hierarchy sweep.

SciPy's optimizer is imported inside ``optimize``, the one function that
calls it, so importing this module (and ``pertvqe.cli``) loads no SciPy;
a sweep loads it on its first optimization.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from .ansatz import ProductAnsatz
from .hierarchy import PriorityList
from .pauli import unperturbed_energy
from .perturbation import HamiltonianModel, exact_ground
from .simulator import basis_state, energy, energy_and_gradient, prepare


@dataclass(frozen=True)
class OptimizationOutcome:
    theta: np.ndarray
    energy: float
    iterations: int
    converged: bool
    # objective evaluations and reruns spent, which run gave the kept result
    # (0: the given start, r: rerun r) and its stop message
    evaluations: int = 0
    reruns: int = 0
    attempt: int = 0
    message: str = ""
    # the energy at the given start, theta0: the objective's first value, so
    # start_energy - energy is what the optimization gained over its start
    start_energy: float = math.nan


# A run ends at the first evaluated point whose gradient meets gtol unless its
# energy lies above the run's lowest so far by more than this share of |E|.
# Near a minimum the float64 energy sum is flat to within rounding: points
# that meet gtol sit 1-2 ulps above a neighbour, and L-BFGS-B's line search
# rejects them as a rise.  One ulp of E is at most eps·|E|, so 4·eps·|E|
# admits that rounding with a margin and no rise the gradient could resolve.
ENERGY_ROUNDING = 4 * np.finfo(float).eps
GRADIENT_MET = "CONVERGENCE: MAX |GRADIENT| <= GTOL AT AN EVALUATED POINT"
# The optimizer budget: the gradient tolerance and the L-BFGS-B iterations per
# run, fixed because ENERGY_ROUNDING and the sweep's stop rules below were
# measured at these values, and the default number of reruns, each from the
# best point so far with fresh L-BFGS-B memory, after a run that ends above
# tolerance.
GTOL = 1e-9
MAX_ITERATIONS = 2000
RESTARTS = 3


class _GradientMet(Exception):
    """Ends an L-BFGS-B run from inside its objective, which is the only
    way to stop scipy's run at a trial point; args are (theta, energy)."""


def optimize(
    ansatz: ProductAnsatz,
    model: HamiltonianModel,
    theta0: Sequence[float],
    restarts: int = RESTARTS,
) -> OptimizationOutcome:
    """Quasi-Newton minimization of the variational energy with analytic
    gradients.

    A run of at most ``MAX_ITERATIONS`` iterations ends at the first point
    it evaluates with max|dE/dtheta| <= ``GTOL`` and an energy at most
    ``ENERGY_ROUNDING``·|E| above the run's lowest so far (message
    ``GRADIENT_MET``); L-BFGS-B itself tests only the points
    its line search accepts.  Such a run is converged, and its iterations
    count the one whose line search evaluated the point (none for the
    start).  If a run ends with the gradient above tolerance, up to
    ``restarts`` reruns follow, each a new L-BFGS-B run (fresh curvature
    memory) from the best point so far, and the best result is kept.  The
    reruns stop at the first one that ends no lower than that point: the
    optimizer is deterministic and the memo serves every point it has seen,
    so another run from there would repeat it.  Nothing here is random.
    The start itself is kept when no run goes below it; its energy is the
    objective's first value, since L-BFGS-B evaluates theta0 first.
    ``evaluations`` counts computed energies only: a point evaluated again
    is served from a memo.
    """
    from scipy.optimize import minimize

    theta0 = np.asarray(theta0, dtype=float)
    if not np.all(np.isfinite(theta0)):
        raise ValueError("starting parameters must be finite")
    if ansatz.num_params == 0:
        e = energy(prepare(ansatz, theta0), model)
        return OptimizationOutcome(np.zeros(0), e, 0, True, start_energy=e)
    evaluations = 0
    e_start = None
    seen = {}  # theta.tobytes() -> (energy, gradient); L-BFGS-B revisits points

    def objective(theta):
        nonlocal evaluations, e_start, lowest
        key = theta.tobytes()
        if key in seen:
            value, grad = seen[key]
            grad = grad.copy()
        else:
            evaluations += 1
            value, grad = energy_and_gradient(ansatz, theta, model)
            if not np.isfinite(value):
                raise FloatingPointError("non-finite variational energy")
            if e_start is None:
                e_start = value
            seen[key] = value, grad.copy()
        lowest = min(lowest, value)
        if (np.max(np.abs(grad)) <= GTOL
                and value <= lowest + ENERGY_ROUNDING * abs(lowest)):
            raise _GradientMet(theta.copy(), value)
        return value, grad

    def count_iteration(_):
        nonlocal iterations
        iterations += 1

    best = None
    start = theta0
    total_iters = 0
    for attempt in range(restarts + 1):
        iterations = 0
        lowest = math.inf  # this run's lowest energy
        try:
            res = minimize(
                objective,
                start,
                jac=True,
                method="L-BFGS-B",
                callback=count_iteration,
                options={"maxiter": MAX_ITERATIONS, "gtol": GTOL, "ftol": 1e-18},
            )
            theta, value, message = np.asarray(res.x), float(res.fun), str(res.message)
            converged = float(np.max(np.abs(res.jac))) <= GTOL
        except _GradientMet as stop:
            theta, value = stop.args
            message, converged = GRADIENT_MET, True
            if not np.array_equal(theta, start):
                iterations += 1  # the trial point would be the next iterate
        total_iters += iterations
        cand = OptimizationOutcome(theta, value, total_iters, converged,
                                   attempt=attempt, message=message)
        if best is not None and cand.energy >= best.energy:
            break  # a rerun from best.theta would repeat this one
        best = cand
        if best.converged:
            break
        start = best.theta
    # Never report worse than the warm start itself.
    if e_start < best.energy:
        best = replace(best, theta=theta0, energy=e_start, iterations=total_iters,
                       attempt=0, message="start kept: no run went below it")
    return replace(best, evaluations=evaluations, reruns=attempt, start_energy=e_start)


# A coupling's order-1 angle |J_b| / (E_b - E_0) is 1/4 at the TFIM critical
# point J = h.  Below it, on the paramagnetic side where the perturbation series
# converges, the warm start alone misses the full budget's final relative error
# only where a warm run stalls: 60x at n=8, J = 0.15 on the 2loc hierarchy,
# 1.7x at J = 0.5 on loc.  Sweeps whose warm runs never stall end within a
# factor 1.0003 of it.  From J = 3 (angle 3/4) up the extra starts win steps
# on at least five of the six hierarchies.
PERTURBATIVE_ANGLE = 0.25
# Seeded random starts the full budget adds to each step's warm start.
MULTISTARTS = 2
# A warm run stalled at its start when it ends within this many L-BFGS-B
# iterations and lowers the energy from its start by no more than
# ENERGY_ROUNDING·|E|: the new unit's gradient vanishes there, or the line
# search fails.  A run that ends at a trial point (GRADIENT_MET) counts the
# iteration whose line search evaluated it, as if L-BFGS-B had accepted the
# point; one that ends at its start counts none and gains nothing, so a start
# meeting gtol is a stall.  The energy condition is needed because near
# ε ≈ 1e-12 a finished step also ends within two iterations, yet still lowers
# E by hundreds of times the rounding scale.
STALL_ITERATIONS = 2


def _stalled(run: OptimizationOutcome) -> bool:
    """Whether a warm run stalled at its start (see ``STALL_ITERATIONS``)."""
    return (run.iterations <= STALL_ITERATIONS
            and run.start_energy - run.energy <= ENERGY_ROUNDING * abs(run.energy))


def first_order_angle(model: HamiltonianModel) -> float:
    """The largest order-1 angle |J_b| / (E_b - E_0) over the nonzero
    couplings, with E_b the unperturbed energy of V_b|0>.  Infinite when
    a nonzero coupling is diagonal on |0> or has a non-positive gap: the
    series gives no small angle there."""
    e0 = unperturbed_energy(0, model.fields)
    largest = 0.0
    for c in model.terms:
        bits, _ = c.operator.apply_to_basis(0)
        gap = unperturbed_energy(bits, model.fields) - e0
        if gap <= 0.0:
            return math.inf
        largest = max(largest, abs(c.strength) / gap)
    return largest


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
    reports.  ``start`` is "warm", "rerun r" (the warm start's r-th rerun
    from its best point) or "random i"."""

    n_params: int
    evaluations: int
    iterations: int
    reruns: int
    converged: bool
    message: str
    start: str
    seconds: float


@dataclass(frozen=True)
class DiscardedPass:
    """A perturbative pass the sweep threw away when a warm run stalled:
    the unit count it stalled at, the objective evaluations it spent up to
    and including that run, and its wall time."""

    stalled_at: int
    evaluations: int
    seconds: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    reference_energy: float
    # "complete", or the unit count the sweep stopped at and why
    stop_reason: str = "complete"
    steps: tuple[SweepStep, ...] = ()
    # the model's first_order_angle and the optimizer budget that produced rows
    first_order_angle: float = math.inf
    budget: str = "full"
    # the perturbative pass discarded before the full budget ran, if any
    discarded_pass: DiscardedPass | None = None


def hierarchy_sweep(
    model: HamiltonianModel,
    plist: PriorityList,
    n_p_max: int,
    rng: np.random.Generator | None = None,
) -> SweepResult:
    """Grow the ansatz one priority-list unit at a time, warm-starting each
    optimization from the previous optimum with the new parameter at zero.

    The full budget runs, at each step, the warm start with up to
    ``RESTARTS`` reruns from its best point plus ``MULTISTARTS`` seeded
    random starts (uniform within a half rotation period) and keeps the
    best: once couplings are strong the warm start alone can lock onto a
    secondary branch.  The random starts are all that ``rng`` draws.  When
    the model's ``first_order_angle`` is below ``PERTURBATIVE_ANGLE``
    (weaker than the TFIM critical coupling), the sweep first tries the
    warm start alone at every step.  If one of those warm runs stalls,
    ending within ``STALL_ITERATIONS`` iterations with an energy no more
    than ``ENERGY_ROUNDING``·|E| below its start, the sweep starts over
    under the full budget.  The perturbative pass draws nothing from ``rng``, so the
    result is the full budget's bit for bit, and ``discarded_pass`` records
    what the thrown-away pass cost.  Either way the warm start guarantees
    the error never increases with the unit count.

    Row 0 is the bare start state; the relative error is measured against
    the Lanczos ground energy of ``exact_ground``.  Optimizer failures abort
    the sweep but keep the rows already produced; ``stop_reason`` then names
    the step and the cause.  The result records the angle and the budget
    that produced it (``"perturbative"`` or ``"full"``).
    """
    e_ref, _ = exact_ground(model)
    if rng is None:
        rng = np.random.default_rng(1234)
    angle = first_order_angle(model)
    discarded = None
    if angle < PERTURBATIVE_ANGLE:
        result = _grow(model, plist, n_p_max, rng, e_ref, perturbative=True)
        if isinstance(result, SweepResult):
            return replace(result, first_order_angle=angle, budget="perturbative")
        discarded = result
    result = _grow(model, plist, n_p_max, rng, e_ref, perturbative=False)
    return replace(result, first_order_angle=angle, discarded_pass=discarded)


def _grow(
    model: HamiltonianModel,
    plist: PriorityList,
    n_p_max: int,
    rng: np.random.Generator,
    e_ref: float,
    perturbative: bool,
) -> SweepResult | DiscardedPass:
    """The sweep under one budget, or the record of a perturbative pass
    whose warm run stalled."""

    def eps(value: float) -> float:
        # reference energies are negative here; normalize so the error is >= 0
        return (value - e_ref) / abs(e_ref)

    pass_began = time.perf_counter()
    reruns = 0 if perturbative else RESTARTS
    e_bare = energy(basis_state(model.n_qubits, 0), model)
    rows = [SweepRow(0, e_bare, eps(e_bare), (), 0)]
    theta = np.zeros(0)
    steps = []
    stop_reason = "complete"
    for n in range(1, n_p_max + 1):
        ansatz = plist.build_ansatz(n)
        began = time.perf_counter()
        try:
            # Random starts are the only calls passing restarts=0 by keyword:
            # benchmarks/tracing.py tells them apart by it, so the warm run
            # passes restarts positionally.
            runs = [optimize(ansatz, model, np.append(theta, 0.0), reruns)]
            if perturbative and _stalled(runs[0]):
                evaluations = sum(s.evaluations for s in steps) + runs[0].evaluations
                return DiscardedPass(n, evaluations, time.perf_counter() - pass_began)
            best, start = runs[0], "warm"
            for i in range(0 if perturbative else MULTISTARTS):
                runs.append(optimize(
                    ansatz, model, rng.uniform(-np.pi / 2, np.pi / 2, n), restarts=0,
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
        # strict JSON has no Infinity: an angle the series cannot bound is null
        "first_order_angle": result.first_order_angle
        if math.isfinite(result.first_order_angle) else None,
        "budget": result.budget,
        "discarded_pass": asdict(result.discarded_pass)
        if result.discarded_pass is not None else None,
    }
    return json.dumps(payload, indent=2, sort_keys=True)

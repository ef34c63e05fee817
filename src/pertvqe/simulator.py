"""Dense statevector engine: ansatz preparation, Pauli-term energies, and
analytic gradients.

States are 1-D arrays of length 2**n with qubit q on bit q of the amplitude
index.  Every Pauli string acts through its compiled action
``op|psi> = phased * psi[perm]`` (``PauliString.action``), and H through the
model's one Hamiltonian apply (``HamiltonianModel.apply``).  Rotations apply
exp(i * scale * theta * T) exactly as cos(a)|psi> + i sin(a) T|psi>; no dense
operator is ever materialized.

States are complex (``complex128``) except inside ``energy_and_gradient``
when every generator has an odd Y count and every coupling an even one: then
i*T and H are real matrices, and its one adjoint pass runs on ``float64``
states.  ``apply_pauli`` and ``energy`` keep a real state real when the
operator they apply is real.
"""

from __future__ import annotations

import numpy as np

from .ansatz import ProductAnsatz
from .pauli import PauliString
from .perturbation import HamiltonianModel

QUBIT_CAP = 14


def zero_state(n_qubits: int) -> np.ndarray:
    return basis_state(n_qubits, 0)


def basis_state(n_qubits: int, bits: int) -> np.ndarray:
    if n_qubits > QUBIT_CAP:
        raise ValueError(f"statevector engine capped at {QUBIT_CAP} qubits")
    psi = np.zeros(1 << n_qubits, dtype=complex)
    psi[bits] = 1.0
    return psi


def apply_pauli(psi: np.ndarray, op: PauliString) -> np.ndarray:
    return op.apply(psi)


def apply_rotation(
    psi: np.ndarray, generator: PauliString, theta: float, scale: float = 1.0
) -> np.ndarray:
    """exp(i * scale * theta * generator) |psi>."""
    angle = scale * theta
    return np.cos(angle) * psi + 1j * np.sin(angle) * generator.apply(psi)


def prepare(ansatz: ProductAnsatz, thetas) -> np.ndarray:
    thetas = np.asarray(thetas, dtype=float)
    if thetas.size != ansatz.num_params:
        raise ValueError(
            f"expected {ansatz.num_params} parameters, got {thetas.size}"
        )
    psi = basis_state(ansatz.n_qubits, ansatz.start_state)
    for unit in ansatz.units:
        psi = apply_rotation(psi, unit.generator, thetas[unit.param_index], unit.scale)
    return psi


def expectation(psi: np.ndarray, op: PauliString) -> float:
    value = np.vdot(psi, apply_pauli(psi, op))
    return float(value.real)


def energy(psi: np.ndarray, model: HamiltonianModel) -> float:
    """<psi|H|psi> through the one Hamiltonian apply."""
    return float(np.vdot(psi, model.apply(psi)).real)


def gradient(ansatz: ProductAnsatz, thetas, model: HamiltonianModel) -> np.ndarray:
    """dE/dtheta via the shift rule, unit by unit.

    A unit's rotation angle a = scale * theta satisfies
    dE/da = E(a + pi/4) - E(a - pi/4) exactly, so
    dE/dtheta = scale * (E(a + pi/4) - E(a - pi/4)); shared parameter
    indices accumulate by the product rule.
    """
    thetas = np.asarray(thetas, dtype=float)
    grad = np.zeros(ansatz.num_params)
    for pos, unit in enumerate(ansatz.units):
        if unit.scale == 0.0:
            continue
        shift = np.pi / (4 * unit.scale)
        e_plus = _energy_with_unit_shift(ansatz, thetas, model, pos, shift)
        e_minus = _energy_with_unit_shift(ansatz, thetas, model, pos, -shift)
        grad[unit.param_index] += unit.scale * (e_plus - e_minus)
    return grad


def _energy_with_unit_shift(ansatz, thetas, model, pos, shift) -> float:
    psi = basis_state(ansatz.n_qubits, ansatz.start_state)
    for i, unit in enumerate(ansatz.units):
        angle = thetas[unit.param_index] + (shift if i == pos else 0.0)
        psi = apply_rotation(psi, unit.generator, angle, unit.scale)
    return energy(psi, model)


def energy_and_gradient(
    ansatz: ProductAnsatz, thetas, model: HamiltonianModel
) -> tuple[float, np.ndarray]:
    """Energy plus the full gradient from one forward and one backward pass
    (the adjoint method of Jones & Gacon, arXiv:2009.02823).

    Matches ``gradient`` to machine precision while costing O(n_units)
    rotation applications instead of O(n_units^2); this is the path the
    optimizer calls.  A unit is exp(a R), R = i * T, a = scale * theta; R is
    anti-Hermitian, so one R lam gives both the gradient term
    2 * scale * Re<lam|R psi_(i+1)> = -2 * scale * Re<R lam|psi_(i+1)> and
    the un-rotation of lam.  States are float64 when R and H are real.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.size != ansatz.num_params:
        raise ValueError("parameter vector length mismatch")
    if model.n_qubits != ansatz.n_qubits:
        raise ValueError("ansatz and model qubit counts differ")
    units = ansatz.units
    angles = np.array([u.scale * thetas[u.param_index] for u in units])
    cos, sin = np.cos(angles).tolist(), np.sin(angles).tolist()
    psi = basis_state(ansatz.n_qubits, ansatz.start_state)
    if model.is_real and all(u.generator.phase_exp % 2 for u in units):
        psi = psi.real
    states = [psi]
    for unit, c, s in zip(units, cos, sin):
        psi = c * psi + s * _apply_r(psi, unit.generator)
        states.append(psi)
    lam = model.apply(psi)
    value = float(np.vdot(psi, lam).real)
    grad = np.zeros(ansatz.num_params)
    for i in range(len(units) - 1, -1, -1):
        unit = units[i]
        r_lam = _apply_r(lam, unit.generator)
        grad[unit.param_index] -= 2.0 * unit.scale * np.vdot(r_lam, states[i + 1]).real
        lam = cos[i] * lam - sin[i] * r_lam
    return value, grad


def _apply_r(psi: np.ndarray, generator: PauliString) -> np.ndarray:
    """R psi with R = i * generator: real for an odd Y count."""
    return generator.rotation_factor * psi[generator.action.perm]


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(np.vdot(a, b)) ** 2)


def best_fidelity(ansatz: ProductAnsatz, target: np.ndarray, rng) -> float:
    """Highest fidelity with ``target`` that L-BFGS-B reaches from up to six
    random starts drawn from ``rng``, stopping at 1 - 1e-6 (the spanning
    check of acceptance criterion 11)."""
    from scipy.optimize import minimize

    def infidelity(theta):
        return 1.0 - fidelity(target, prepare(ansatz, theta))

    best = 0.0
    for _ in range(6):
        theta0 = rng.uniform(0, 2 * np.pi, ansatz.num_params)
        res = minimize(infidelity, theta0, method="L-BFGS-B",
                       options={"maxiter": 4000, "ftol": 1e-18, "gtol": 1e-12})
        best = max(best, 1.0 - float(res.fun))
        if best >= 1 - 1e-6:
            break
    return best

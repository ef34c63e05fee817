"""Dense statevector engine: ansatz preparation, Pauli-term energies, and
analytic gradients.

States are 1-D arrays of length 2**n with qubit q on bit q of the amplitude
index.  Every Pauli string acts through its one compiled action,
``i^power op|psi> = op.factor(power) * psi[op.action.perm]``, and H through
the model's one Hamiltonian apply (``HamiltonianModel.apply``).  Rotations
apply exp(i * scale * theta * T) exactly as cos(a)|psi> + i sin(a) T|psi>;
no dense operator is ever materialized.

States are complex (``complex128``) except inside ``energy_and_gradient``
when a diagonal phase gauge omega makes H and every i*T real
(``_phase_gauge``): then its one adjoint pass runs on ``float64`` states.
This module alone knows the gauge: it conjugates the compiled rows of the
pass by omega (``_compile``).  Every generator with an odd Y count and
every coupling with an even one need no gauge; the XY chain needs one.
The pass is compiled once per (ansatz, model) pair.  ``PauliString.apply``
and ``energy`` keep a real state real when the operator they apply is real.
"""

from __future__ import annotations

import weakref
from typing import NamedTuple

import numpy as np

from .ansatz import ProductAnsatz
from .pauli import PauliString
from .perturbation import HamiltonianModel

QUBIT_CAP = 14


def basis_state(n_qubits: int, bits: int) -> np.ndarray:
    if n_qubits > QUBIT_CAP:
        raise ValueError(f"statevector engine capped at {QUBIT_CAP} qubits")
    psi = np.zeros(1 << n_qubits, dtype=complex)
    psi[bits] = 1.0
    return psi


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


def energy(psi: np.ndarray, model: HamiltonianModel) -> float:
    """<psi|H|psi> through the one Hamiltonian apply."""
    return float(np.vdot(psi, model.apply(psi)).real)


def energy_and_gradient(
    ansatz: ProductAnsatz, thetas, model: HamiltonianModel
) -> tuple[float, np.ndarray]:
    """Energy plus the full gradient from one forward and one backward pass
    (the adjoint method of Jones & Gacon, arXiv:2009.02823).

    It costs O(n_units) rotation applications, where the shift rule costs
    O(n_units^2); this is the path the optimizer calls.  A unit is exp(a R),
    R = i * T, a = scale * theta; R is anti-Hermitian, so one R lam gives
    both the gradient term
    2 * scale * Re<lam|R psi_(i+1)> = -2 * scale * Re<R lam|psi_(i+1)> and
    the un-rotation of lam.  States are float64 when a phase gauge makes R
    and H real.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.size != ansatz.num_params:
        raise ValueError("parameter vector length mismatch")
    if model.n_qubits != ansatz.n_qubits:
        raise ValueError("ansatz and model qubit counts differ")
    circuit = _compiled(ansatz, model)
    units = ansatz.units
    angles = np.array([u.scale * thetas[u.param_index] for u in units])
    cos, sin = np.cos(angles).tolist(), np.sin(angles).tolist()
    psi = circuit.start
    states = [psi]
    for (perm, factor), c, s in zip(circuit.rotations, cos, sin):
        psi = c * psi + s * (factor * psi[perm])
        states.append(psi)
    # H psi as HamiltonianModel.apply computes it, in the circuit's gauge
    lam = (circuit.h_factors * psi[circuit.h_perms]).sum(axis=0)
    value = float(np.vdot(psi, lam).real)
    grad = np.zeros(ansatz.num_params)
    for i in range(len(units) - 1, -1, -1):
        unit = units[i]
        perm, factor = circuit.rotations[i]
        r_lam = factor * lam[perm]
        grad[unit.param_index] -= 2.0 * unit.scale * np.vdot(r_lam, states[i + 1]).real
        lam = cos[i] * lam - sin[i] * r_lam
    return value, grad


class _Circuit(NamedTuple):
    """The adjoint pass of one (ansatz, model) pair in one phase gauge: the
    start state, each unit's R = i * T as (perm, factor), and H as the
    model's stacked gather with its terms' factors in that gauge."""

    start: np.ndarray
    rotations: tuple[tuple[np.ndarray, np.ndarray], ...]
    h_perms: np.ndarray
    h_factors: np.ndarray


# weak references to the last ansatz and model, and their circuit
_last_compiled: tuple | None = None


def _compiled(ansatz: ProductAnsatz, model: HamiltonianModel) -> _Circuit:
    """The circuit of the pair, compiled on the first call with this ansatz
    and model object; a sweep step calls the optimizer with one ansatz.
    The cache holds neither object, and drops the circuit with the ansatz."""
    global _last_compiled
    last = _last_compiled
    if last is None or last[0]() is not ansatz or last[1]() is not model:
        last = _last_compiled = (weakref.ref(ansatz, _forget), weakref.ref(model),
                                 _compile(ansatz, model))
    return last[2]


def _forget(ansatz_ref) -> None:
    global _last_compiled
    if _last_compiled is not None and _last_compiled[0] is ansatz_ref:
        _last_compiled = None


def _compile(ansatz: ProductAnsatz, model: HamiltonianModel) -> _Circuit:
    """The pass with every R = i * T, compiled as ``factor(1) * psi[perm]``,
    and H, as the model's ``gather``, conjugated by the phase gauge
    omega(b) = i^popcount(c & b), or with c = 0 when no gauge exists.

    A row f at gather perm is the matrix M with M[b, perm[b]] = f[b], so
    omega^dagger M omega is the row conj(omega) * f * omega[perm] at the
    same perm.  Under a gauge that row is real, and is kept as its
    contiguous float64 real part; the pass then runs on float64 states.
    The start state |s> only picks up the global phase conj(omega(s)),
    which drops out of E and its gradient.  With c = 0 each unit keeps its
    string's own factor and H the model's cached rows."""
    c = _phase_gauge(ansatz, model) or 0
    rotations = [(u.generator.action.perm, u.generator.factor(1)) for u in ansatz.units]
    h_perms, h_factors = model.gather
    if c:
        b = np.arange(1 << ansatz.n_qubits)
        count = sum((b >> q) & 1 for q in range(ansatz.n_qubits) if (c >> q) & 1)
        omega = np.array([1, 1j, -1, -1j])[count % 4]

        def conjugated(perm, factor):
            return np.ascontiguousarray((omega.conj() * factor * omega[perm]).real)

        rotations = [(perm, conjugated(perm, factor)) for perm, factor in rotations]
        h_factors = conjugated(h_perms, h_factors)
    dtype = np.result_type(h_factors, *(f for _, f in rotations))
    start = basis_state(ansatz.n_qubits, ansatz.start_state).real.astype(dtype)
    return _Circuit(start, tuple(rotations), h_perms, h_factors)


def _phase_gauge(ansatz: ProductAnsatz, model: HamiltonianModel) -> int | None:
    """A mask c under which H and every R = i * T are real matrices, or None.

    omega is a product of S gates, and S^dagger X S = -Y while S leaves Z
    alone, so conjugation by omega takes i^p X^x Z^z to
    i^(p - popcount(c & x)) X^x Z^(z ^ (c & x)).  That is real exactly when
    popcount(c & x) + p is even: one equation over GF(2) per nonzero
    coupling (its phase p) and per generator (p + 1, for the i of R).  The
    field diagonal is always real.  Elimination leaves free bits zero, so c
    is 0 whenever 0 solves the system."""
    rows = [(t.operator.x_mask, t.operator.phase_exp % 2) for t in model.terms]
    rows += [(u.generator.x_mask, (u.generator.phase_exp + 1) % 2)
             for u in ansatz.units]
    pivots = []  # (mask, parity, pivot bit); a pivot bit is in its own row only
    for x, b in rows:
        for px, pb, bit in pivots:
            if x & bit:
                x, b = x ^ px, b ^ pb
        if not x:
            if b:
                return None
            continue
        bit = x & -x
        pivots = [(px ^ x, pb ^ b, pbit) if px & bit else (px, pb, pbit)
                  for px, pb, pbit in pivots]
        pivots.append((x, b, bit))
    return sum(bit for _, b, bit in pivots if b)


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

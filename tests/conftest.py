"""Shared fixtures and independent oracles used across the test suite."""

from dataclasses import dataclass, replace

import numpy as np
import pytest

from pertvqe.ansatz import AnsatzUnit, ProductAnsatz
from pertvqe.hierarchy import GeneratorSlot
from pertvqe.pauli import MultiIndex, PauliString, unperturbed_energy
from pertvqe.perturbation import (
    CoefficientTable,
    Coupling,
    HamiltonianModel,
    perturbative_state,
)
from pertvqe.simulator import apply_rotation, basis_state, energy

DENSE_QUBIT_CAP = 12

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    """Repeat the acceptance-criterion verdict lines where capture cannot
    hide them."""
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_pauli(rng, n_qubits, qubits=None, allow_identity=False) -> PauliString:
    """Uniformly random positive Hermitian string supported on the given qubits."""
    if qubits is None:
        qubits = range(n_qubits)
    while True:
        ops = {}
        for q in qubits:
            ch = "IXYZ"[rng.integers(4)]
            if ch != "I":
                ops[q] = ch
        p = PauliString.from_ops(n_qubits, ops)
        if allow_identity or not p.is_identity:
            return p


def random_model(rng, n_qubits, n_couplings, strength_scale=0.3) -> HamiltonianModel:
    fields = tuple(float(rng.uniform(0.6, 1.6)) for _ in range(n_qubits))
    couplings = tuple(
        Coupling(float(rng.uniform(-strength_scale, strength_scale)),
                 random_pauli(rng, n_qubits))
        for _ in range(n_couplings)
    )
    return HamiltonianModel(fields, couplings)


def two_block_model(rng, left_qubits, right_qubits, n_left, n_right,
                    strength_scale=0.3) -> HamiltonianModel:
    """Model whose couplings split into two support-disjoint groups."""
    n = len(left_qubits) + len(right_qubits)
    fields = tuple(float(rng.uniform(0.6, 1.6)) for _ in range(n))
    couplings = []
    for _ in range(n_left):
        couplings.append(
            Coupling(float(rng.uniform(0.05, strength_scale)),
                     random_pauli(rng, n, left_qubits))
        )
    for _ in range(n_right):
        couplings.append(
            Coupling(float(rng.uniform(0.05, strength_scale)),
                     random_pauli(rng, n, right_qubits))
        )
    return HamiltonianModel(fields, tuple(couplings))


def dense_hamiltonian(model: HamiltonianModel) -> np.ndarray:
    """The dense 2^n x 2^n matrix of H, capped at ``DENSE_QUBIT_CAP`` qubits:
    the field diagonal plus each term's compiled action as one entry per
    row."""
    if model.n_qubits > DENSE_QUBIT_CAP:
        raise ValueError(f"dense construction capped at {DENSE_QUBIT_CAP} qubits")
    dim = 1 << model.n_qubits
    rows = np.arange(dim)
    h = np.zeros((dim, dim), dtype=complex)
    h[rows, rows] = model.diagonal
    for c in model.terms:
        h[rows, c.operator.action.perm] += c.strength * c.operator.factor()
    return h


def power_matrix(k, ops) -> np.ndarray:
    """Independent oracle for ``CoefficientTable.power``: V^{.k} as a dense
    product of ``to_matrix`` factors, each coupling applied k_b times in
    ascending index (coupling 0 acts first on the ket).  Entries are 0, +-1
    or +-i, so products compare exactly."""
    m = np.eye(1 << ops[0].n_qubits, dtype=complex)
    for op, count in zip(ops, k, strict=True):
        for _ in range(count):
            m = op.to_matrix() @ m
    return m


def state_and_phase(k, ops) -> tuple[int, int]:
    """Independent oracle for ``CoefficientTable.state_phase``: the basis
    state and the power of i with V^{.k}|0> = i^p |state>, read off the
    dense product."""
    column = power_matrix(k, ops)[:, 0]
    (state,) = np.flatnonzero(column)
    return int(state), [1, 1j, -1, -1j].index(column[state])


def coefficient_table(ops) -> CoefficientTable:
    """The coefficient table of unit fields and unit-strength couplings
    ``ops``, whose Pauli powers the tests read."""
    return CoefficientTable(HamiltonianModel((1.0,) * ops[0].n_qubits,
                                             tuple(Coupling(1.0, op) for op in ops)))


def shift_rule_gradient(
    ansatz: ProductAnsatz, thetas, model: HamiltonianModel
) -> np.ndarray:
    """Independent oracle for the gradient of ``energy_and_gradient``:
    dE/dtheta via the shift rule, unit by unit, at O(n_units^2) rotations.

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


def remove_one_at_a_time(ansatz: ProductAnsatz, dropped) -> ProductAnsatz:
    """Oracle for parameter edits: delete the units of each dropped
    parameter, highest index first, shifting every higher index down by one
    after each deletion."""
    for index in sorted(dropped, reverse=True):
        units = tuple(
            replace(u, param_index=u.param_index - (u.param_index > index))
            for u in ansatz.units if u.param_index != index
        )
        ansatz = ProductAnsatz(ansatz.n_qubits, units, ansatz.start_state,
                               ansatz.num_params - 1)
    return ansatz


def tie_one_at_a_time(ansatz: ProductAnsatz, i: int, j: int, c: float) -> ProductAnsatz:
    """Oracle for ``fix_parameter``: move the units of parameter i onto j
    with their scale times c, then remove i as ``remove_one_at_a_time``."""
    units = tuple(
        AnsatzUnit(u.generator, j, u.scale * c) if u.param_index == i else u
        for u in ansatz.units
    )
    tied = ProductAnsatz(ansatz.n_qubits, units, ansatz.start_state, ansatz.num_params)
    return remove_one_at_a_time(tied, {i})


@dataclass(frozen=True)
class GeneratingReport:
    slots: dict
    missing: tuple[tuple[int, int], ...]

    @property
    def complete(self) -> bool:
        return not self.missing


def check_generating(ansatz: ProductAnsatz) -> GeneratingReport:
    """Independent oracle for ``qca_slot``: scan the ansatz for the first
    unit reaching each basis state except the start with phase class 0 and
    with phase class 1.  Absences are reported, not raised."""
    if ansatz.start_state != 0:
        raise ValueError("generating check assumes the all-zeros start state")
    slots: dict[tuple[int, int], GeneratorSlot] = {}
    for pos, unit in enumerate(ansatz.units):
        if unit.scale != 1.0:
            continue
        state, phase = unit.generator.apply_to_basis(0)
        if phase in (0, 1) and (state, phase) not in slots:
            slots[(state, phase)] = GeneratorSlot(state, phase, unit.generator, pos)
    missing = []
    for state in range(1, 1 << ansatz.n_qubits):
        for a in (0, 1):
            if (state, a) not in slots:
                missing.append((state, a))
    return GeneratingReport(slots=slots, missing=tuple(missing))


def dense_series_residual(model, k_max, scale):
    """Independent oracle for ``series_residual``: the weight of the truncated
    series state on the excited eigenvectors of the full dense spectrum,
    sum_(n>0) |<n|psi>|^2 / (1 + |<0|psi>|)."""
    psi = perturbative_state(model, k_max, scale)
    _, vecs = np.linalg.eigh(dense_hamiltonian(model.rescaled(scale)))
    overlaps = vecs.conj().T @ psi
    return float(np.sum(np.abs(overlaps[1:]) ** 2)) / (1.0 + abs(overlaps[0]))


def dense_ground(model):
    """Independent oracle for ``exact_ground``: the lowest eigenpair of the
    dense Hamiltonian from ``eigh``, phase-fixed the same way (largest-
    magnitude amplitude real positive)."""
    vals, vecs = np.linalg.eigh(dense_hamiltonian(model))
    vec = vecs[:, 0]
    pivot = int(np.argmax(np.abs(vec)))
    return float(vals[0]), vec * (abs(vec[pivot]) / vec[pivot])


def dyson_vector_states(model, k_max):
    """Independent oracle for the coefficient recursion.

    Solves the order-by-order vector recursion directly on dense statevectors:

        |psi_k> = G0 ( sum_b V_b |psi_(k - d_b)>  -  sum_(k'+k''=k) D_k' |psi_k''> )

    with D_k' = sum_b <0| V_b |psi_(k'-d_b)> and G0 the gap inverse orthogonal
    to the reference state.  Shares nothing with the scalar recursion beyond
    the Pauli matrices themselves.
    """
    from pertvqe.pauli import iter_orders

    n = model.n_qubits
    dim = 1 << n
    mats = [c.operator.to_matrix() for c in model.couplings]
    e0 = unperturbed_energy(0, model.fields)
    gaps = np.array([e0 - unperturbed_energy(s, model.fields) for s in range(dim)])
    inv = np.zeros(dim)
    nonzero = np.abs(gaps) > 1e-12
    inv[nonzero] = 1.0 / gaps[nonzero]

    states = {}
    deltas = {}
    zero = MultiIndex.zero(model.n_couplings)
    psi0 = np.zeros(dim, dtype=complex)
    psi0[0] = 1.0
    states[zero] = psi0
    deltas[zero] = 0.0
    for k in iter_orders(model.n_couplings, k_max):
        if k.order == 0:
            continue
        rhs = np.zeros(dim, dtype=complex)
        delta_k = 0.0 + 0.0j
        for b in range(model.n_couplings):
            if k[b] == 0:
                continue
            prev = states[k.sub(MultiIndex.delta(model.n_couplings, b))]
            rhs += mats[b] @ prev
            delta_k += (mats[b] @ prev)[0]
        for kp in k.sub_indices():
            if kp.order == 0 or kp == k:
                continue
            rhs -= deltas[kp] * states[k.sub(kp)]
        rhs[0] = 0.0
        states[k] = inv * rhs
        deltas[k] = delta_k
    return states, deltas


def fit_ground_amplitude(model, target_state, monomial_orders, eps=0.015):
    """Least-squares Taylor coefficients of <target|E0(J)> from dense
    diagonalization on a grid of coupling strengths.

    Returns a dict multi-index -> complex coefficient over the requested
    monomials.  Strengths of the model are ignored; the grid explores each
    coupling independently in [-2*eps, 2*eps].
    """
    from itertools import product

    n_c = model.n_couplings
    grid_1d = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]) * eps
    points = list(product(grid_1d, repeat=n_c))
    design = np.zeros((len(points), len(monomial_orders)))
    values = np.zeros(len(points), dtype=complex)
    for row, strengths in enumerate(points):
        trial = HamiltonianModel(
            model.fields,
            tuple(Coupling(float(j), c.operator)
                  for j, c in zip(strengths, model.couplings)),
        )
        _, vec = dense_ground(trial)
        # phase fixing: reference amplitude real positive at weak coupling
        vec = vec * (abs(vec[0]) / vec[0])
        values[row] = vec[target_state]
        for col, k in enumerate(monomial_orders):
            design[row, col] = np.prod([s**c for s, c in zip(strengths, k)])
    coeffs, *_ = np.linalg.lstsq(design, values, rcond=None)
    return dict(zip(monomial_orders, coeffs))


def even_sector_generators(model, probe=0.05):
    """One layered-ansatz generator per even-parity basis state, in circuit
    order: the one whose phase class matches the ground state's amplitude
    there (real or imaginary, read off the dense ground state at couplings
    scaled by ``probe``).  These span the even-parity sector with exactly
    one angle per real degree of freedom."""
    from pertvqe.ansatz import build_qca

    _, vec = dense_ground(model.rescaled(probe))
    vec = vec * (abs(vec[0]) / vec[0])
    gens = []
    for unit in build_qca(model.n_qubits).units:
        state, a = unit.generator.apply_to_basis(0)
        if state == 0 or bin(state).count("1") % 2:
            continue
        real = abs(vec[state].real) >= abs(vec[state].imag)
        # exp(-i theta T)|0> moves i^(a - 1) theta onto |state>
        if a == (1 if real else 0):
            gens.append(unit.generator)
    return gens


def dense_angle_oracle(model, generators, scales=np.linspace(0.01, 0.1, 10),
                       degree=10):
    """Independent oracle for the perturbative angle estimates.

    For couplings rescaled by +-lam over ``scales``, solves
    prepare(ansatz, theta) = exact ground state by least squares, stepping
    outward from lam = 0 so each solve starts at the previous angles; the
    generators must give one angle per real degree of freedom, so the small
    solution is unique.  Each angle is then fitted as sum_d a_d lam^d,
    d = 1..degree.  Returns an array (degree, n_units) whose row d - 1 holds
    a_d in the exp(-i theta T) convention of the estimates.  Shares nothing
    with the estimator beyond ``prepare`` and ``dense_hamiltonian``.
    """
    from scipy.optimize import least_squares

    from pertvqe.ansatz import AnsatzUnit, ProductAnsatz
    from pertvqe.simulator import prepare

    ansatz = ProductAnsatz(
        model.n_qubits,
        tuple(AnsatzUnit(g, i) for i, g in enumerate(generators)),
        0,
        len(generators),
    )
    lams, thetas = [], []
    for sweep in (scales, -np.asarray(scales)):
        phi = np.zeros(len(generators))
        for lam in sweep:
            _, vec = dense_ground(model.rescaled(float(lam)))
            vec = vec * (abs(vec[0]) / vec[0])

            def residual(x):
                diff = prepare(ansatz, x) - vec
                return np.concatenate([diff.real, diff.imag])

            phi = least_squares(residual, phi, method="lm",
                                xtol=1e-15, ftol=1e-15, gtol=1e-15).x
            lams.append(lam)
            thetas.append(-phi)  # the simulator rotates by exp(+i phi T)
    lams = np.array(lams)
    design = np.stack([lams**d for d in range(1, degree + 1)], axis=1)
    coeffs, *_ = np.linalg.lstsq(design, np.array(thetas), rcond=None)
    return coeffs

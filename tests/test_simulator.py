import numpy as np
import pytest
from scipy.linalg import expm

from pertvqe.ansatz import AnsatzUnit, ProductAnsatz, build_qca
from pertvqe.hierarchy import build_priority_list
from pertvqe.pauli import PauliString
from pertvqe.perturbation import (
    Coupling,
    HamiltonianModel,
    exact_ground,
    tfim_chain,
)
from pertvqe.simulator import (
    apply_rotation,
    basis_state,
    best_fidelity,
    energy,
    energy_and_gradient,
    fidelity,
    prepare,
)

from conftest import dense_hamiltonian, random_model, random_pauli, shift_rule_gradient


def test_rotation_zero_angle_is_identity(rng):
    psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    psi /= np.linalg.norm(psi)
    out = apply_rotation(psi, PauliString.from_label("XYZ"), 0.0)
    assert np.allclose(out, psi)


def test_rotation_half_period(rng):
    psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    psi /= np.linalg.norm(psi)
    p = PauliString.from_label("ZXI")
    out = apply_rotation(psi, p, np.pi / 2)
    assert np.allclose(out, 1j * p.apply(psi))


def test_rotation_matches_matrix_exponential(rng):
    units = [
        (PauliString.from_label("YI"), 0.37),
        (PauliString.from_label("IY"), -0.81),
        (PauliString.from_label("YX"), 1.21),
    ]
    psi = basis_state(2, 0)
    ref = np.array([1, 0, 0, 0], dtype=complex)
    for p, theta in units:
        psi = apply_rotation(psi, p, theta)
        ref = expm(1j * theta * p.to_matrix()) @ ref
    assert np.allclose(psi, ref, atol=1e-12)


def test_rotation_norm_preservation(rng):
    psi = basis_state(5, 0)
    for _ in range(50):
        psi = apply_rotation(psi, random_pauli(rng, 5), float(rng.uniform(-3, 3)))
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)


def test_rotation_on_wrong_size_state_raises():
    with pytest.raises(ValueError, match="dimension"):
        apply_rotation(basis_state(2, 0), PauliString.from_label("XYZ"), 0.3)


def test_prepare_zero_angles_gives_start():
    a = ProductAnsatz(
        3, (AnsatzUnit(PauliString.from_label("XYI"), 0),), start_state=0b101,
        num_params=1,
    )
    assert np.allclose(prepare(a, [0.0]), basis_state(3, 0b101))


def test_prepare_parameter_length_checked():
    a = build_qca(2)
    with pytest.raises(ValueError):
        prepare(a, [0.0])


def test_prepare_frustration_free_limit_energy():
    # chain of XY rotations at quarter period reaches the zero-field ground
    # state: energy is exactly -J per bond
    n = 8
    units = tuple(
        AnsatzUnit(PauliString.from_ops(n, {i: "X", i + 1: "Y"}), i)
        for i in range(n - 1)
    )
    a = ProductAnsatz(n, units, 0, n - 1)
    psi = prepare(a, [np.pi / 4] * (n - 1))
    for j in (1.0, 3.7):
        model = tfim_chain(n, 0.0, j)
        assert energy(psi, model) == pytest.approx(-(n - 1) * j, abs=1e-10)


def test_prepare_at_estimated_angles_tracks_ground_state():
    # the estimator reports amplitude-matching angles for exp(-i theta T);
    # negating them drives the exp(+i theta T) units toward the ground state
    model = tfim_chain(4, 1.0, 0.1)
    plist = build_priority_list(model, build_qca(4), 4)
    ansatz = plist.build_ansatz(len(plist.entries))
    theta = np.array([-e.theta_tilde for e in plist.entries])
    _, ground = exact_ground(model)
    assert fidelity(prepare(ansatz, theta), ground) >= 0.999


def test_fidelity_error_shrinks_with_coupling():
    qca = build_qca(4)
    errors = []
    for j in (0.2, 0.1, 0.05):
        model = tfim_chain(4, 1.0, j)
        plist = build_priority_list(model, qca, 4)
        ansatz = plist.build_ansatz(len(plist.entries))
        theta = np.array([e.theta_tilde for e in plist.entries])
        _, ground = exact_ground(model)
        errors.append(1.0 - fidelity(prepare(ansatz, theta), ground))
    assert errors[0] > errors[1] > errors[2]


def test_energy_reference_state():
    model = tfim_chain(6, 0.9, 0.4)
    assert energy(basis_state(6, 0), model) == pytest.approx(-6 * 0.9)


def test_energy_of_exact_eigenvector():
    model = tfim_chain(5, 1.0, 0.7)
    e0, vec = exact_ground(model)
    assert energy(vec, model) == pytest.approx(e0, abs=1e-10)


def test_energy_matches_dense_quadratic_form(rng):
    for _ in range(10):
        model = random_model(rng, 5, 4)
        psi = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        psi /= np.linalg.norm(psi)
        dense = float(np.real(np.vdot(psi, dense_hamiltonian(model) @ psi)))
        assert energy(psi, model) == pytest.approx(dense, abs=1e-12)


def test_energy_global_phase_invariance(rng):
    model = tfim_chain(4, 1.0, 0.5)
    psi = prepare(build_qca(4), rng.uniform(-1, 1, 30))
    assert energy(np.exp(0.7j) * psi, model) == pytest.approx(
        energy(psi, model), abs=1e-12
    )


# -- gradients ------------------------------------------------------------------------


def gradients(a, theta, model):
    """The adjoint gradient the optimizer uses and the shift-rule oracle."""
    return energy_and_gradient(a, theta, model)[1], shift_rule_gradient(a, theta, model)


def test_gradient_single_qubit_closed_form():
    a = ProductAnsatz(1, (AnsatzUnit(PauliString.from_label("Y"), 0),), 0, 1)
    model = HamiltonianModel((1.0,), ())
    # E(theta) = -cos(2 theta); dE/dtheta = 2 sin(2 theta)
    for theta in np.linspace(-1.5, 1.5, 7):
        for g in gradients(a, [theta], model):
            assert g[0] == pytest.approx(2 * np.sin(2 * theta), abs=1e-12)


def test_gradient_matches_finite_differences(rng):
    model = tfim_chain(3, 1.0, 0.6)
    a = build_qca(3)
    theta = rng.uniform(-0.7, 0.7, a.num_params)
    step = 1e-5
    for g in gradients(a, theta, model):
        for i in range(a.num_params):
            up, dn = theta.copy(), theta.copy()
            up[i] += step
            dn[i] -= step
            fd = (energy(prepare(a, up), model) - energy(prepare(a, dn), model)) / (2 * step)
            assert g[i] == pytest.approx(fd, abs=1e-6)


def test_gradient_shared_parameter_product_rule(rng):
    g1 = PauliString.from_label("XY")
    g2 = PauliString.from_label("YX")
    a = ProductAnsatz(2, (AnsatzUnit(g1, 0), AnsatzUnit(g2, 0)), 0, 1)
    model = tfim_chain(2, 1.0, 0.4)
    theta = np.array([0.3])
    step = 1e-6
    fd = (
        energy(prepare(a, theta + step), model) - energy(prepare(a, theta - step), model)
    ) / (2 * step)
    for g in gradients(a, theta, model):
        assert g[0] == pytest.approx(fd, abs=1e-6)


def test_gradient_scaled_generator_fallback(rng):
    a = ProductAnsatz(2, (AnsatzUnit(PauliString.from_label("XY"), 0, scale=0.5),), 0, 1)
    model = tfim_chain(2, 1.0, 0.4)
    theta = np.array([0.9])
    step = 1e-6
    fd = (
        energy(prepare(a, theta + step), model) - energy(prepare(a, theta - step), model)
    ) / (2 * step)
    for g in gradients(a, theta, model):
        assert g[0] == pytest.approx(fd, abs=1e-6)


def test_adjoint_gradient_agrees_with_shift_rule(rng):
    model = tfim_chain(4, 1.0, 0.8)
    a = build_qca(4)
    theta = rng.uniform(-0.5, 0.5, a.num_params)
    value, grad_fast = energy_and_gradient(a, theta, model)
    assert value == pytest.approx(energy(prepare(a, theta), model), abs=1e-12)
    assert np.allclose(grad_fast, shift_rule_gradient(a, theta, model), atol=1e-10)


def test_energy_and_adjoint_value_share_one_hamiltonian_apply(rng):
    # an XY chain is complex, and no phase gauge makes the layered parent's
    # i*X0 and i*Y0 both real, so both run on the complex path and agree exactly
    n = 4
    couplings = tuple(
        Coupling(0.4, PauliString.from_ops(n, {i: "X", i + 1: "Y"}))
        for i in range(n - 1)
    )
    model = HamiltonianModel((1.0, 0.9, 1.1, 1.2), couplings)
    a = build_qca(n)
    theta = rng.uniform(-1, 1, a.num_params)
    value, _ = energy_and_gradient(a, theta, model)
    assert value == energy(prepare(a, theta), model)


def test_compiled_pass_is_kept_per_pair_and_dropped_with_the_ansatz():
    import gc

    from pertvqe import simulator

    model = tfim_chain(3, 1.0, 0.3)
    a = build_priority_list(model, None, 3).build_ansatz(3)
    energy_and_gradient(a, np.zeros(3), model)
    circuit = simulator._last_compiled[2]
    energy_and_gradient(a, np.ones(3), model)
    assert simulator._last_compiled[2] is circuit
    energy_and_gradient(a, np.ones(3), model.rescaled(2.0))
    assert simulator._last_compiled[2] is not circuit
    del a
    gc.collect()
    assert simulator._last_compiled is None


def test_gradient_vanishes_at_optimum():
    from pertvqe.vqe import optimize

    model = tfim_chain(3, 1.0, 0.4)
    plist = build_priority_list(model, build_qca(3), 3)
    a = plist.build_ansatz(len(plist.entries))
    out = optimize(a, model, np.zeros(a.num_params))
    g = shift_rule_gradient(a, out.theta, model)
    assert np.max(np.abs(g)) <= 1e-8


def test_best_fidelity_reports_unreachable_target():
    # one Y rotation on qubit 0 never leaves span{|00>, |01>}
    ansatz = ProductAnsatz(2, (AnsatzUnit(PauliString.from_label("YI"), 0),), 0, 1)
    rng = np.random.default_rng(0)
    assert best_fidelity(ansatz, basis_state(2, 0b10), rng) <= 1e-15
    assert best_fidelity(ansatz, basis_state(2, 0b01), rng) == pytest.approx(1.0, abs=1e-12)

import numpy as np
import pytest

from pertvqe.ansatz import (
    AnsatzUnit,
    ProductAnsatz,
    build_qca,
    enforce_conjugation,
    enforce_symmetry,
    fix_parameter,
    remove_parameter,
    respects_conjugation,
)
from pertvqe.pauli import PauliString
from pertvqe.simulator import prepare

from conftest import gram_matrix, manifold_area, random_pauli, stabilizer_parent


def yyx_ansatz() -> ProductAnsatz:
    units = (
        AnsatzUnit(PauliString.from_label("YI"), 0),
        AnsatzUnit(PauliString.from_label("IY"), 1),
        AnsatzUnit(PauliString.from_label("YX"), 2),
    )
    return ProductAnsatz(2, units, 0, 3)


# -- construction ----------------------------------------------------------------


def test_qca_parameter_count():
    for n in range(1, 9):
        qca = build_qca(n)
        assert qca.num_params == 2 * (2**n - 1)
        assert qca.n_units == qca.num_params
        assert [u.param_index for u in qca.units] == list(range(qca.num_params))


def test_qca_two_qubits_generator_multiset():
    labels = sorted(u.generator.to_label() for u in build_qca(2).units)
    assert labels == sorted(["XI", "YI", "IX", "IY", "XX", "XY"])


def test_qca_three_qubits_circuit_order():
    # level by level; within a level the stabilizer subset counts up in
    # binary with the X rotation before the Y rotation
    expected = [
        "XII", "YII",
        "IXI", "IYI", "XXI", "XYI",
        "IIX", "IIY", "XIX", "XIY", "IXX", "IXY", "XXX", "XXY",
    ]
    assert [u.generator.to_label() for u in build_qca(3).units] == expected


@pytest.mark.parametrize("n", range(1, 9))
def test_qca_equals_the_stabilizer_group_parent(n):
    built, oracle = build_qca(n), stabilizer_parent(n)
    assert (built.n_qubits, built.start_state, built.num_params) == (
        oracle.n_qubits, oracle.start_state, oracle.num_params)
    assert len(built.units) == len(oracle.units)
    for u, v in zip(built.units, oracle.units):
        assert (u.generator, u.param_index, u.scale) == (
            v.generator, v.param_index, v.scale)


def test_qca_rejects_empty_register():
    with pytest.raises(ValueError):
        build_qca(0)


# -- parameter removal and fixing ---------------------------------------------------


def test_remove_parameter_drops_unit():
    child = remove_parameter(yyx_ansatz(), 2)
    assert child.n_units == 2
    assert child.num_params == 2
    assert [u.generator.to_label() for u in child.units] == ["YI", "IY"]


def test_remove_all_parameters_prepares_start():
    a = yyx_ansatz()
    for _ in range(3):
        a = remove_parameter(a, 0)
    assert a.n_units == 0
    psi = prepare(a, [])
    assert psi[0] == pytest.approx(1.0)


def test_remove_equals_zeroed_parameter(rng):
    parent = yyx_ansatz()
    child = remove_parameter(parent, 1)
    for _ in range(10):
        theta = rng.uniform(-2, 2, 2)
        full = np.array([theta[0], 0.0, theta[1]])
        assert np.allclose(prepare(parent, full), prepare(child, theta))


def test_fix_parameter_scales_generator(rng):
    parent = yyx_ansatz()
    child = fix_parameter(parent, 0, 2, 0.5)  # theta_0 = 0.5 * theta_2
    assert child.num_params == 2
    assert child.n_units == 3
    assert child.units[0].scale == pytest.approx(0.5)
    for _ in range(10):
        theta = rng.uniform(-2, 2, 2)
        full = np.array([0.5 * theta[1], theta[0], theta[1]])
        assert np.allclose(prepare(parent, full), prepare(child, theta))


def test_fix_zero_matches_removal_manifold(rng):
    parent = yyx_ansatz()
    fixed = fix_parameter(parent, 1, 0, 0.0)
    removed = remove_parameter(parent, 1)
    # same parameter grid reaches identical states (removed drops the unit,
    # fixed keeps it at angle zero)
    for t0 in np.linspace(0, np.pi, 5):
        for t1 in np.linspace(0, np.pi, 5):
            a = prepare(fixed, [t0, t1])
            b = prepare(removed, [t0, t1])
            assert np.allclose(a, b)


def test_fix_equal_commuting_generators_doubles_angle(rng):
    units = (
        AnsatzUnit(PauliString.from_label("XI"), 0),
        AnsatzUnit(PauliString.from_label("XI"), 1),
    )
    parent = ProductAnsatz(2, units, 0, 2)
    child = fix_parameter(parent, 0, 1, 1.0)
    doubled = ProductAnsatz(2, (AnsatzUnit(PauliString.from_label("XI"), 0, 2.0),), 0, 1)
    for t in np.linspace(-1, 1, 7):
        assert np.allclose(prepare(child, [t]), prepare(doubled, [t]))


def test_fixed_pair_swap_invariance():
    # a parameter tied across two commuting units is order-independent
    g1 = PauliString.from_label("XYI")
    g2 = PauliString.from_label("YXI")
    assert g1.commutes_with(g2)
    a = ProductAnsatz(3, (AnsatzUnit(g1, 0), AnsatzUnit(g2, 0)), 0, 1)
    swapped = ProductAnsatz(3, tuple(reversed(a.units)), 0, 1)
    for t in np.linspace(-1, 1, 5):
        assert np.allclose(prepare(a, [t]), prepare(swapped, [t]))


def test_parameter_index_validation():
    with pytest.raises(ValueError):
        remove_parameter(yyx_ansatz(), 3)
    with pytest.raises(ValueError):
        fix_parameter(yyx_ansatz(), 1, 1, 0.3)


# -- conjugation symmetry --------------------------------------------------------------


def test_respects_conjugation_examples():
    assert respects_conjugation(PauliString.from_label("Y"))
    assert respects_conjugation(PauliString.from_label("XY"))
    assert not respects_conjugation(PauliString.from_label("XX"))
    assert not respects_conjugation(PauliString.from_label("XYY"))


def test_respects_conjugation_matches_dense_realness(rng):
    for _ in range(30):
        p = random_pauli(rng, 3)
        real = np.allclose((1j * p.to_matrix()).imag, 0.0)
        assert respects_conjugation(p) == real


# -- unitary symmetry enforcement ---------------------------------------------------------


def test_symmetric_sector_of_four_qubit_qca():
    qca = build_qca(4)
    real_only = enforce_conjugation(qca)
    parity = PauliString.from_label("ZZZZ")
    sector = enforce_symmetry(real_only, parity)
    labels = sorted(u.generator.to_label() for u in sector.units)
    assert labels == sorted(
        ["XYII", "IXYI", "IIXY", "XIYI", "IXIY", "XIIY", "XXXY"]
    )
    assert sector.num_params == 2**3 - 1


def test_enforce_identity_symmetry_is_noop():
    qca = build_qca(3)
    assert enforce_symmetry(qca, PauliString.identity(3)) == qca


def test_enforced_ansatz_commutes_per_parameter(rng):
    qca = build_qca(3)
    sym = PauliString.from_label("ZZZ")
    sector = enforce_symmetry(qca, sym)
    s = sym.to_matrix()
    for _ in range(100):
        theta = rng.uniform(-np.pi, np.pi)
        for unit in sector.units:
            u = _unit_matrix(unit, theta)
            assert np.allclose(u @ s - s @ u, 0.0, atol=1e-12)


def _unit_matrix(unit, theta):
    g = unit.generator.to_matrix()
    dim = g.shape[0]
    return np.cos(unit.scale * theta) * np.eye(dim) + 1j * np.sin(unit.scale * theta) * g


# -- manifold geometry -----------------------------------------------------------------------


def test_gram_matrix_yyx_closed_form(rng):
    a = yyx_ansatz()
    for _ in range(20):
        theta = rng.uniform(0, np.pi, 3)
        gram = gram_matrix(a, theta)
        expected = np.array(
            [
                [1.0, 0.0, -np.sin(2 * theta[1])],
                [0.0, 1.0, 0.0],
                [-np.sin(2 * theta[1]), 0.0, 1.0],
            ]
        )
        assert np.allclose(gram, expected, atol=1e-6)


def test_single_unit_gram_and_area():
    a = ProductAnsatz(1, (AnsatzUnit(PauliString.from_label("Y"), 0),), 0, 1)
    gram = gram_matrix(a, [0.3])
    area = manifold_area(a, [(0.0, np.pi)], cover_multiplicity=1, points_per_axis=64)
    assert gram.shape == (1, 1)
    assert gram[0, 0] == pytest.approx(1.0, abs=1e-6)
    assert area == pytest.approx(np.pi, abs=1e-6)


def test_yyx_area_double_cover():
    a = yyx_ansatz()
    area = manifold_area(
        a,
        domain=[(0.0, np.pi)] * 3,
        cover_multiplicity=2,
        points_per_axis=(4, 700, 4),
    )
    assert area == pytest.approx(np.pi**2, abs=1e-3)


def test_unit_validation():
    with pytest.raises(ValueError):
        AnsatzUnit(PauliString(1, 1, 1, 3), 0)  # -Y is not a basis element
    with pytest.raises(ValueError):
        ProductAnsatz(2, (AnsatzUnit(PauliString.from_label("XI"), 1),), 0, 1)

import numpy as np
import pytest

from pertvqe.pauli import (
    MultiIndex,
    PauliString,
    format_bits,
    iter_orders,
    unperturbed_energy,
)
from pertvqe.perturbation import _sign, tfim_chain

from conftest import (
    coefficient_table,
    dense_hamiltonian,
    power_matrix,
    random_pauli,
    state_and_phase,
)


def test_multiply_xy_gives_iz():
    x = PauliString.from_label("XI")
    y = PauliString.from_label("YI")
    prod = x * y
    assert prod.to_label() == "i^1*ZI"
    assert prod.phase_exp == 1


def test_square_of_hermitian_is_identity(rng):
    for _ in range(50):
        p = random_pauli(rng, 4)
        sq = p * p
        assert sq.is_identity
        assert sq.phase_exp == 0


def test_anticommuting_product_orders_differ_by_two():
    a = PauliString.from_ops(3, {0: "X", 1: "Y"})
    b = PauliString.from_ops(3, {1: "X", 2: "Y"})
    ab, ba = a * b, b * a
    assert ab.x_mask == ba.x_mask and ab.z_mask == ba.z_mask
    assert (ab.phase_exp - ba.phase_exp) % 4 == 2
    # dense confirmation
    assert np.allclose(a.to_matrix() @ b.to_matrix(), ab.to_matrix())
    assert np.allclose(b.to_matrix() @ a.to_matrix(), ba.to_matrix())


def test_multiply_matches_dense_and_associates(rng):
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        p, q, r = (random_pauli(rng, n, allow_identity=True) for _ in range(3))
        assert np.array_equal((p * q).to_matrix(), p.to_matrix() @ q.to_matrix())
        assert (p * q) * r == p * (q * r)


def test_commute_or_anticommute(rng):
    for _ in range(100):
        n = int(rng.integers(1, 5))
        p, q = random_pauli(rng, n), random_pauli(rng, n)
        diff = ((p * q).phase_exp - (q * p).phase_exp) % 4
        assert diff in (0, 2)
        assert (diff == 0) == p.commutes_with(q)


def test_multiply_dimension_mismatch():
    with pytest.raises(ValueError):
        PauliString.from_label("X") * PauliString.from_label("XX")


def test_hermitian_flags():
    assert PauliString.from_label("XYZ").is_basis_element
    minus = PauliString(1, 1, 1, 3)  # i^3 XZ = -Y
    assert not minus.is_basis_element


def test_label_round_trip(rng):
    for _ in range(40):
        n = int(rng.integers(1, 6))
        p = PauliString(n, int(rng.integers(1 << n)), int(rng.integers(1 << n)),
                        int(rng.integers(4)))
        assert PauliString.from_label(p.to_label()) == p
    assert PauliString.from_label("IXYZ").to_label() == "IXYZ"


# -- relative sign ------------------------------------------------------------


def relative_sign(table, k, kp):
    """S with V^{.k} V^{.k'} = S * V^{.(k+k')}, from the table's powers as
    the coefficient recursion signs them."""
    merged = [a + b for a, b in zip(k, kp, strict=True)]
    return _sign(table.power(k), table.power(kp), table.power(merged))


def test_relative_sign_identity_factor():
    table = coefficient_table(tfim_chain(4, 1.0, 1.0).operators)
    zero = MultiIndex.zero(3)
    for k in ((1, 0, 0), (2, 1, 0), (1, 1, 1)):
        assert relative_sign(table, k, zero) == 1


def test_relative_sign_commuting_couplings():
    table = coefficient_table(tfim_chain(5, 1.0, 1.0).operators)
    assert all(
        relative_sign(table, k, kp) == 1
        for k in iter_orders(4, 2)
        for kp in iter_orders(4, 2)
    )


def test_relative_sign_anticommuting_pair():
    table = coefficient_table((PauliString.from_label("X"), PauliString.from_label("Z")))
    assert relative_sign(table, (1, 0), (0, 1)) == -1
    assert relative_sign(table, (0, 1), (1, 0)) == 1


def test_relative_sign_dense(rng):
    for _ in range(30):
        ops = tuple(random_pauli(rng, 3) for _ in range(3))
        table = coefficient_table(ops)
        k = MultiIndex(rng.integers(0, 3, size=3))
        kp = MultiIndex(rng.integers(0, 3, size=3))
        sign = relative_sign(table, k, kp)
        assert sign in (-1, 1)
        left = power_matrix(k, ops) @ power_matrix(kp, ops)
        assert np.array_equal(left, sign * power_matrix(k.add(kp), ops))


# -- state and phase -----------------------------------------------------------


def test_state_and_phase_empty_product():
    table = coefficient_table(tfim_chain(4, 1.0, 1.0).operators)
    assert table.state_phase((0, 0, 0)) == (0, 0)
    assert table.power((0, 0, 0)).apply_to_basis(0b0101) == (0b0101, 0)


def test_state_and_phase_tfim_first_coupling():
    table = coefficient_table(tfim_chain(4, 1.0, 1.0).operators)
    state, phase = table.state_phase((1, 0, 0))
    assert format_bits(state, 4) == "1100"
    assert phase == 0


def test_state_and_phase_matches_dense(rng):
    for _ in range(25):
        ops = tuple(random_pauli(rng, 4) for _ in range(3))
        k = MultiIndex(rng.integers(0, 3, size=3))
        if k.order > 4:
            continue
        assert coefficient_table(ops).state_phase(k) == state_and_phase(k, ops)


def test_phase_parity_counts_y_factors(rng):
    # the i-power parity equals the total number of Y factors applied
    for _ in range(40):
        ops = tuple(random_pauli(rng, 4) for _ in range(3))
        k = MultiIndex(rng.integers(0, 3, size=3))
        _, phase = coefficient_table(ops).state_phase(k)
        y_total = sum(k[b] * ops[b].y_count for b in range(3))
        assert phase % 2 == y_total % 2


# -- unperturbed energy ----------------------------------------------------------


def test_energy_reference_state():
    assert unperturbed_energy(0, [0.7] * 5) == pytest.approx(-3.5)


def test_energy_all_flipped():
    assert unperturbed_energy(0b1111, [1.0] * 4) == pytest.approx(4.0)


def test_energy_matches_dense_diagonal(rng):
    from pertvqe.perturbation import HamiltonianModel

    fields = tuple(rng.uniform(-1, 1) for _ in range(4))
    model = HamiltonianModel(fields, ())
    h = dense_hamiltonian(model)
    for s in rng.integers(0, 16, size=8):
        assert unperturbed_energy(int(s), fields) == pytest.approx(h[s, s].real)


# -- support ------------------------------------------------------------------------


def test_support_cases():
    ops = tfim_chain(4, 1.0, 1.0).operators
    assert [op.support() for op in ops] == [{0, 1}, {1, 2}, {2, 3}]
    assert PauliString.identity(3).support() == frozenset()
    assert PauliString.from_label("ZIY").support() == frozenset({0, 2})


# -- multi-index ----------------------------------------------------------------------


def test_multi_index_basics():
    k = MultiIndex((1, 2, 0))
    assert k.order == 3
    assert k.add((0, 1, 1)) == MultiIndex((1, 3, 1))
    assert k.sub((1, 0, 0)) == MultiIndex((0, 2, 0))
    assert k.dominates((1, 1, 0)) and not k.dominates((2, 0, 0))
    assert len(list(k.sub_indices())) == 2 * 3 * 1
    with pytest.raises(ValueError):
        MultiIndex((1, -1))
    assert MultiIndex.delta(3, 1) == MultiIndex((0, 1, 0))


def test_multi_index_rejects_non_integral_entries():
    for counts in ((1.5, 0), (0, 2.25), (np.float64(0.5),)):
        with pytest.raises(ValueError, match="integers"):
            MultiIndex(counts)
    k = MultiIndex((2.0, np.int64(1), np.float64(0.0)))
    assert k == (2, 1, 0) and all(type(c) is int for c in k)


def test_bits_round_trip():
    assert format_bits(0b0110, 4) == "0110"

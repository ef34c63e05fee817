from unittest import mock

import numpy as np
import pytest

from pertvqe.pauli import MultiIndex, PauliString, iter_orders
from pertvqe.perturbation import (
    CoefficientTable,
    Coupling,
    DegeneracyError,
    HamiltonianModel,
    exact_ground,
    factorization_defect,
    residual_slope,
    series_residual,
    tfim_chain,
)

from conftest import (
    dense_ground,
    dense_hamiltonian,
    dense_series_residual,
    dyson_vector_states,
    fit_ground_amplitude,
    random_model,
    two_block_model,
)


# -- intermediate-normalized coefficients -------------------------------------------


def test_tilde_c_reference_values():
    model = tfim_chain(4, 1.0, 1.0)
    table = CoefficientTable(model)
    assert table.tilde((0, 0, 0)) == pytest.approx(1.0, abs=0)
    assert table.tilde((1, 0, 0)) == pytest.approx(-1 / 4, abs=1e-15)
    assert table.tilde((0, 1, 0)) == pytest.approx(-1 / 4, abs=1e-15)
    assert table.tilde((1, 1, 0)) == pytest.approx(1 / 8, abs=1e-15)
    assert table.tilde((1, 1, 1)) == pytest.approx(-5 / 64, abs=1e-15)
    assert table.tilde((1, 2, 1)) == pytest.approx(3 / 256, abs=1e-15)
    assert table.tilde((1, 0, 1)) == pytest.approx(1 / 16, abs=1e-15)


def test_tilde_c_field_scaling():
    # every order divides by one more power of the field strength
    weak = CoefficientTable(tfim_chain(4, 2.0, 1.0))
    assert weak.tilde((1, 0, 0)) == pytest.approx(-1 / 8, abs=1e-15)
    assert weak.tilde((1, 1, 1)) == pytest.approx(-5 / 512, abs=1e-15)


def test_tilde_returns_zero_for_diagonal_indices():
    table = CoefficientTable(tfim_chain(4, 1.0, 1.0))
    assert table.tilde((2, 0, 0)) == 0.0
    assert table.tilde((0, 2, 0)) == 0.0


def test_tilde_matches_vector_dyson_oracle(rng):
    # order-by-order agreement with an independent dense-vector recursion
    for trial in range(4):
        model = random_model(rng, 4, 3)
        table = CoefficientTable(model)
        try:
            states, _ = dyson_vector_states(model, 4)
        except ZeroDivisionError:
            continue
        for k, vec in states.items():
            coeff = table.tilde(k)
            state, phase = table.state_phase(k)
            expect = np.zeros(16, dtype=complex)
            expect[state] = (1j**phase) * coeff * model.coupling_monomial(k)
            assert np.allclose(vec * model.coupling_monomial(k), expect, atol=1e-8), (
                trial,
                tuple(k),
            )


def test_order_by_order_schroedinger(rng):
    # the reconstructed series satisfies the eigenvalue equation coefficient-wise
    model = random_model(rng, 3, 2)
    k_max = 4
    states, deltas = dyson_vector_states(model, k_max)
    dim = 8
    mats = [c.operator.to_matrix() for c in model.couplings]
    from pertvqe.pauli import unperturbed_energy

    h0 = np.diag([unperturbed_energy(s, model.fields) for s in range(dim)])
    e0 = unperturbed_energy(0, model.fields)
    for k in iter_orders(model.n_couplings, k_max - 1):
        # (H0 - E0^0) psi_k + sum_b V_b psi_(k-d_b) = sum_(k'+k''=k) D_k' psi_k''
        acc = (h0 - e0 * np.eye(dim)) @ states[k]
        for b in range(model.n_couplings):
            if k[b]:
                acc += mats[b] @ states[k.sub(MultiIndex.delta(model.n_couplings, b))]
        rhs = np.zeros(dim, dtype=complex)
        for kp in k.sub_indices():
            if kp.order == 0:
                continue
            rhs += deltas[kp] * states[k.sub(kp)]
        assert np.allclose(acc, rhs, atol=1e-8)


# -- the one memo per coefficient series ------------------------------------------------

SERIES = ("power", "tilde", "vacuum_overlap", "norm_coefficient", "normalized")


def _count_multi_index_constructions(monkeypatch):
    # counted on the class, as the benchmark tracer counts them
    calls = []
    new = MultiIndex.__new__

    def counted(cls, *args):
        calls.append(args)
        return new(cls, *args)

    monkeypatch.setattr(MultiIndex, "__new__", staticmethod(counted))
    return calls


@pytest.mark.parametrize("series", SERIES)
def test_memo_hit_constructs_no_multi_index(monkeypatch, series):
    table = CoefficientTable(tfim_chain(4, 1.0, 1.0))
    lookup = getattr(table, series)
    keys = [(1, 0, 1), MultiIndex((1, 0, 1)), (2, 1, 1), MultiIndex((2, 1, 1))]
    first = [lookup(k) for k in keys]
    calls = _count_multi_index_constructions(monkeypatch)
    assert [lookup(k) for k in keys] == first
    assert calls == []


def test_tuple_and_multi_index_keys_share_one_entry():
    table = CoefficientTable(tfim_chain(4, 1.0, 1.0))
    value = table.tilde((1, 0, 1))
    entries = len(table.known())
    assert table.tilde(MultiIndex((1, 0, 1))) == value
    assert table.tilde([1, 0, 1]) == value
    assert len(table.known()) == entries


def test_known_keys_are_multi_indices():
    table = CoefficientTable(tfim_chain(4, 1.0, 1.0))
    table.tilde((1, 2, 1))
    table.tilde([0, 1, 1])
    assert len(table.known()) > 2
    assert all(type(k) is MultiIndex for k in table.known())


@pytest.mark.parametrize("series", SERIES)
@pytest.mark.parametrize("key", [(-1, 0, 1), (1, 0), (0, 0), (1, 0, 1, 0), (1.5, 0, 0)],
                         ids=["negative", "short", "short-zero", "long", "fraction"])
def test_invalid_key_raises_on_first_lookup(series, key):
    table = CoefficientTable(tfim_chain(4, 1.0, 1.0))
    for k in iter_orders(3, 4):
        table.tilde(k)
    with pytest.raises(ValueError):
        getattr(table, series)(key)


# -- normalized coefficients ----------------------------------------------------------


def test_normalized_zero_order():
    assert CoefficientTable(tfim_chain(3, 1.0, 0.5)).normalized((0, 0)) == pytest.approx(1.0)


def test_normalized_disconnected_factorizes_tfim():
    assert factorization_defect(tfim_chain(4, 1.0, 1.0), [((1, 0, 0), (0, 0, 1))]) <= 1e-14


def test_normalized_matches_fit_oracle(rng):
    # dense-diagonalization Taylor fit over a small coupling grid
    model = random_model(rng, 3, 2)
    monomials = [MultiIndex(k) for k in iter_orders(2, 4)]
    fitted = fit_ground_amplitude(model, target_state=0, monomial_orders=monomials)
    unit = HamiltonianModel(
        model.fields, tuple(Coupling(1.0, c.operator) for c in model.couplings)
    )
    table = CoefficientTable(unit)
    for k in iter_orders(2, 2):
        state, phase = table.state_phase(k)
        if state != 0:
            continue
        expect = (1j**phase) * table.normalized(k)
        assert fitted[k] == pytest.approx(expect, abs=2e-5), tuple(k)


def test_normalized_matches_fit_oracle_off_diagonal(rng):
    # retry until the first coupling moves the reference state
    for _ in range(10):
        model = random_model(rng, 3, 2)
        table = CoefficientTable(HamiltonianModel(
            model.fields, tuple(Coupling(1.0, c.operator) for c in model.couplings)))
        k = MultiIndex((1, 0))
        state, phase = table.state_phase(k)
        if state != 0:
            break
    assert state != 0
    monomials = [MultiIndex(m) for m in iter_orders(2, 4)]
    fitted = fit_ground_amplitude(model, target_state=state, monomial_orders=monomials)
    expect = (1j**phase) * table.normalized(k)
    assert fitted[k] == pytest.approx(expect, abs=2e-5)


def test_normalization_series_keeps_unit_norm():
    model = tfim_chain(4, 1.0, 1.0)
    k_max = 4
    table = CoefficientTable(model)
    for scale in (0.1, 0.05):
        psi = np.zeros(16, dtype=complex)
        for k in iter_orders(3, k_max):
            coeff = table.normalized(k)
            if coeff == 0.0:
                continue
            state, phase = table.state_phase(k)
            psi[state] += (1j**phase) * coeff * scale**k.order
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=5 * scale ** (k_max + 1))


def test_disconnected_factorization_randomized(rng):
    # two support-disjoint coupling groups factorize exactly
    pairs = [
        (ka, kb)
        for ka in ((1, 0, 0, 0), (1, 1, 0, 0), (2, 1, 0, 0))
        for kb in ((0, 0, 1, 0), (0, 0, 1, 1))
    ]
    for _ in range(10):
        model = two_block_model(rng, (0, 1, 2), (3, 4, 5), 2, 2)
        assert factorization_defect(model, pairs) <= 1e-10


def test_factorization_defect_reports_overlapping_couplings():
    # XXI and IXX share qubit 1, so their second-order diagram is connected
    # and does not factorize
    defect = factorization_defect(tfim_chain(3, 1.0, 1.0), [((1, 0), (0, 1))])
    assert defect == pytest.approx(1 / 16, abs=1e-15)


# -- exact diagonalization -------------------------------------------------------------


def test_exact_ground_decoupled_limit():
    model = tfim_chain(5, 1.2, 0.0)
    energy, vec = exact_ground(model)
    assert energy == pytest.approx(-6.0)
    assert vec[0] == pytest.approx(1.0)


def test_exact_ground_two_qubit_block_oracle():
    # H restricted to the {|00>, |11>} block is [[-2, J], [J, 2]]
    for j in (0.3, 0.9, 2.0):
        model = tfim_chain(2, 1.0, j)
        energy, _ = exact_ground(model)
        assert energy == pytest.approx(-np.sqrt(4 + j**2), abs=1e-12)


def test_exact_ground_ising_limit():
    # three bonds at zero field: minimum of J * sum XX is -3J
    energy, _ = exact_ground(tfim_chain(4, 0.0, 1.0))
    assert energy == pytest.approx(-3.0, abs=1e-12)


def test_exact_ground_rejects_a_one_qubit_complex_hamiltonian():
    # ARPACK's complex Lanczos needs a dimension above 2; the real path runs
    y = HamiltonianModel((1.0,), (Coupling(0.1, PauliString.from_label("Y")),))
    with pytest.raises(ValueError, match="at least 2 qubits"):
        exact_ground(y)
    x = HamiltonianModel((1.0,), (Coupling(0.1, PauliString.from_label("X")),))
    assert exact_ground(x)[0] == pytest.approx(-np.hypot(1.0, 0.1), abs=1e-12)


def test_exact_ground_cap():
    with pytest.raises(ValueError):
        dense_hamiltonian(tfim_chain(13, 1.0, 0.1))


@pytest.mark.parametrize("n", [4, 10, 13, 14])
@pytest.mark.parametrize("j", [0.15, 1.0, 6.0])
def test_exact_ground_matches_free_fermions(n, j):
    # Jordan-Wigner: the open chain's single-particle energies are twice the
    # singular values of B, bidiagonal with h on the diagonal and J above it
    b = np.diag(np.full(n, 1.0)) + np.diag(np.full(n - 1, j), 1)
    free = -np.linalg.svd(b, compute_uv=False).sum()
    energy, _ = exact_ground(tfim_chain(n, 1.0, j))
    assert abs(energy - free) <= 1e-12 * abs(free)


def _random_chain(rng, n, real):
    """Open chain with random fields and one random two-site Pauli coupling
    per bond; ``real`` keeps every Y count even, otherwise bond 0 is XY."""
    pairs = [a + b for a in "XYZ" for b in "XYZ"
             if not real or (a + b).count("Y") % 2 == 0]
    couplings = []
    for q in range(n - 1):
        pair = "XY" if q == 0 and not real else pairs[rng.integers(len(pairs))]
        op = PauliString.from_ops(n, {q: pair[0], q + 1: pair[1]})
        couplings.append(Coupling(float(rng.uniform(-1.0, 1.0)), op))
    fields = tuple(float(h) for h in rng.uniform(0.6, 1.6, n))
    return HamiltonianModel(fields, tuple(couplings))


@pytest.mark.parametrize("n", [3, 6, 9])
@pytest.mark.parametrize("real", [True, False])
def test_exact_ground_matches_dense_diagonalization(rng, n, real):
    for _ in range(3):
        model = _random_chain(rng, n, real)
        assert model.is_real == real
        energy, vec = exact_ground(model)
        dense_energy, dense_vec = dense_ground(model)
        assert vec.dtype == np.complex128
        assert abs(energy - dense_energy) <= 1e-12 * abs(dense_energy)
        assert 1.0 - abs(np.vdot(dense_vec, vec)) < 1e-10
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
        pivot = int(np.argmax(np.abs(vec)))
        assert abs(vec[pivot].imag) < 1e-15 and vec[pivot].real > 0.0


def test_zero_strength_odd_y_coupling_leaves_h_real():
    # the only odd-Y coupling has strength 0, so H is real and Lanczos runs
    # on float64 vectors
    n = 6
    couplings = [Coupling(0.0, PauliString.from_ops(n, {0: "X", 1: "Y"}))]
    couplings += [Coupling(0.3 + 0.05 * q, PauliString.from_ops(n, {q: "X", q + 1: "X"}))
                  for q in range(n - 1)]
    model = HamiltonianModel(tuple(1.0 + 0.02 * q for q in range(n)), tuple(couplings))
    assert model.is_real
    dtypes = set()
    apply = HamiltonianModel.apply

    def spy(self, psi):
        dtypes.add(psi.dtype)
        return apply(self, psi)

    with mock.patch.object(HamiltonianModel, "apply", spy):
        energy, vec = exact_ground(model)
    assert dtypes == {np.dtype(np.float64)}
    dense_energy, dense_vec = dense_ground(model)
    assert abs(energy - dense_energy) <= 1e-12 * abs(dense_energy)
    assert np.max(np.abs(vec - dense_vec)) <= 1e-12


def _odd_parity_ground_chain():
    # the flipped field on qubit 0 puts the ground state in the odd-parity
    # sector, which a Lanczos start at |0> can never reach
    ops = tuple(
        Coupling(0.3, PauliString.from_ops(6, {q: "X", q + 1: "X"})) for q in range(5)
    )
    return HamiltonianModel((-1.0, 1.0, 1.0, 1.0, 1.0, 1.0), ops)


def test_exact_ground_reaches_odd_parity_ground_state():
    model = _odd_parity_ground_chain()
    energy, vec = exact_ground(model)
    dense_energy, _ = dense_ground(model)
    assert round(dense_energy, 4) == -6.1129
    assert abs(energy - dense_energy) <= 1e-12 * abs(dense_energy)
    parity = np.array([(-1) ** bin(s).count("1") for s in range(vec.size)])
    assert np.vdot(vec, parity * vec).real == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("model", [
    _odd_parity_ground_chain(),
    tfim_chain(8, 1.0, 6.0),
    HamiltonianModel((1.0, 1.2, 0.9, 1.1), (
        Coupling(0.4, PauliString.from_label("XYII")),
        Coupling(-0.7, PauliString.from_label("IZXI")),
        Coupling(0.5, PauliString.from_label("IIYY")),
    )),
], ids=["odd-parity", "tfim8-strong", "complex4"])
def test_exact_ground_is_reproducible(model):
    first_energy, first_vec = exact_ground(model)
    for _ in range(3):
        energy, vec = exact_ground(model)
        assert energy == first_energy
        assert np.array_equal(vec, first_vec)


def test_degenerate_field_raises():
    model = HamiltonianModel(
        (0.0, 1.0),
        (Coupling(0.5, PauliString.from_label("XI")),),
    )
    with pytest.raises(DegeneracyError) as err:
        CoefficientTable(model).tilde((1,))
    assert "degenerate" in str(err.value)


# -- residual of the truncated series ---------------------------------------------------


def test_series_residual_vanishes_at_zero_scale():
    assert series_residual(tfim_chain(3, 1.0, 1.0), 3, 0.0) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("n, k_max", [(3, 1), (3, 3), (4, 1), (4, 4)])
def test_series_residual_matches_the_dense_spectrum(n, k_max):
    # the Lanczos ground state alone gives the excited-state weight the full
    # dense spectrum gives, down to residuals near 1e-21 (n = 4, k_max 4 at
    # scale 0.02, criterion 7's smallest point)
    model = tfim_chain(n, 1.0, 1.0)
    for scale in (0.02, 0.03, 0.05, 0.07, 0.1):
        assert series_residual(model, k_max, scale) == pytest.approx(
            dense_series_residual(model, k_max, scale), rel=1e-5, abs=0.0)
    for scale in (2.0, 4.0, 8.0):
        assert series_residual(model, k_max, scale) == pytest.approx(
            dense_series_residual(model, k_max, scale), rel=1e-12, abs=0.0)
    assert series_residual(model, k_max, 0.0) == pytest.approx(
        dense_series_residual(model, k_max, 0.0), abs=1e-14)


def test_series_residual_slope():
    assert residual_slope(tfim_chain(4, 1.0, 1.0), [0.02, 0.04, 0.06, 0.1]) >= 2 * 5 - 1.0


def test_residual_slope_reports_divergent_series():
    # at couplings beyond the radius of convergence the residual saturates
    assert residual_slope(tfim_chain(4, 1.0, 1.0), [2.0, 4.0, 8.0]) < 3.0


def test_series_residual_slope_low_truncation():
    model = tfim_chain(4, 1.0, 1.0)
    scales = np.array([0.02, 0.05, 0.1])
    residuals = np.array([series_residual(model, 1, s) for s in scales])
    slope = np.polyfit(np.log(scales), np.log(residuals), 1)[0]
    assert slope >= 2 * 2 - 1.0


# -- plumbing -----------------------------------------------------------------------------


def test_model_validation():
    with pytest.raises(ValueError):
        HamiltonianModel((1.0,), (Coupling(0.1, PauliString.from_label("XX")),))
    with pytest.raises(ValueError):
        HamiltonianModel((1.0,), (Coupling(0.1, PauliString.from_label("I")),))
    with pytest.raises(ValueError):
        HamiltonianModel((1.0, 1.0), (Coupling(0.1, PauliString(2, 1, 1, 3)),))

"""Property tests of the compiled Pauli action and the stacked Hamiltonian
apply, of multi-index arithmetic against the validating constructor, of the
real and complex paths of the adjoint gradient (and of the phase-gauge rule
that picks between them, and the gauged rows it compiles) against
independent dense oracles, of the signs the coefficient recursion uses
against ``relative_sign``, of its memoized coupling powers against
``pauli_power``, of the leading-diagram key against ``state_and_phase`` and
``build_diagram``, of parameter removal and fixing on layered ansatzes, and
of every parameter edit against an oracle that removes one parameter at a
time."""

from itertools import combinations

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from pertvqe import simulator
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
import pytest

from pertvqe.diagrams import build_diagram, enumerate_connected, enumerate_leading
from pertvqe.hierarchy import build_priority_list
from pertvqe.pauli import (
    MultiIndex,
    PauliString,
    pauli_power,
    relative_sign,
    state_and_phase,
)
from pertvqe.perturbation import CoefficientTable, Coupling, HamiltonianModel, _sign
from pertvqe.simulator import energy, energy_and_gradient, prepare

from conftest import remove_one_at_a_time, shift_rule_gradient, tie_one_at_a_time

PROPERTY = settings(deadline=None, max_examples=40)

# X^x Z^z on one qubit, Z acting first
_FACTORS = {
    (0, 0): np.eye(2, dtype=complex),
    (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),
    (0, 1): np.diag([1, -1]).astype(complex),
    (1, 1): np.array([[0, -1], [1, 0]], dtype=complex),
}


def kron_matrix(op: PauliString) -> np.ndarray:
    """i^p prod_q X_q^x Z_q^z from Kronecker products, qubit q on bit q."""
    m = np.ones((1, 1), dtype=complex)
    for q in range(op.n_qubits):
        m = np.kron(_FACTORS[(op.x_mask >> q) & 1, (op.z_mask >> q) & 1], m)
    return (1j**op.phase_exp) * m


def scatter_apply(psi: np.ndarray, op: PauliString) -> np.ndarray:
    """The scatter formula the compiled action replaced: out[i ^ x] = s_i psi_i."""
    idx = np.arange(psi.size)
    parity = np.ones(psi.size)
    for q in range(op.n_qubits):
        if (op.z_mask >> q) & 1:
            parity *= 1.0 - 2.0 * ((idx >> q) & 1)
    out = np.empty_like(psi)
    out[idx ^ op.x_mask] = ((1j**op.phase_exp) * parity) * psi
    return out


@st.composite
def paulis(draw, n=None):
    if n is None:
        n = draw(st.integers(1, 5))
    masks = st.integers(0, (1 << n) - 1)
    return PauliString(n, draw(masks), draw(masks), draw(st.integers(0, 3)))


def labels(n, odd_y):
    """Strategy for positive Hermitian strings on n qubits whose Y count is
    odd (``odd_y``) or even and nonzero."""

    @st.composite
    def build(draw):
        chars = draw(st.lists(st.sampled_from("IXYZ"), min_size=n, max_size=n))
        if (chars.count("Y") % 2 == 1) != odd_y:
            pos = draw(st.integers(0, n - 1))
            chars[pos] = "X" if chars[pos] == "Y" else "Y"
        if set(chars) == {"I"}:
            chars[draw(st.integers(0, n - 1))] = "X" if not odd_y else "Y"
        return PauliString.from_label("".join(chars))

    return build()


@st.composite
def real_cases(draw):
    """An odd-Y ansatz with shared parameters and non-unit scales, a model
    with even-Y couplings, and a parameter vector."""
    n = draw(st.integers(1, 5))
    n_units = draw(st.integers(1, 8))
    n_params = draw(st.integers(1, n_units))
    scales = st.sampled_from([1.0, -1.0, 0.5, -0.75, 1.5, 2.0])
    units = tuple(
        AnsatzUnit(draw(labels(n, odd_y=True)), draw(st.integers(0, n_params - 1)),
                   draw(scales))
        for _ in range(n_units)
    )
    start = draw(st.integers(0, (1 << n) - 1))
    ansatz = ProductAnsatz(n, units, start, n_params)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    couplings = tuple(
        Coupling(float(rng.uniform(-1, 1)), draw(labels(n, odd_y=False)))
        for _ in range(draw(st.integers(0, 4)))
    )
    model = HamiltonianModel(tuple(rng.uniform(0.5, 1.5, n)), couplings)
    return ansatz, model, rng.uniform(-np.pi, np.pi, n_params)


def energy_gradient_and_path(ansatz, theta, model):
    """energy_and_gradient plus whether its compiled pass runs on float64
    states (the real-arithmetic path).  Every state the pass rotates has
    the start state's dtype exactly when that is the result type of the
    start and every factor; a float64 start with a complex factor would mix
    dtypes, which is neither path and fails here."""
    value, grad = energy_and_gradient(ansatz, theta, model)
    circuit = simulator._compiled(ansatz, model)
    dtype = circuit.start.dtype
    assert dtype in (np.float64, np.complex128)
    assert dtype == np.result_type(circuit.start, circuit.h_factors,
                                   *(f for _, f in circuit.rotations))
    return value, grad, dtype == np.float64


def assert_matches_oracles(ansatz, theta, model, value, grad):
    assert abs(value - energy(prepare(ansatz, theta), model)) <= 1e-12
    assert np.max(np.abs(grad - shift_rule_gradient(ansatz, theta, model))) <= 1e-12


def gauge_diagonal(n, c):
    """The phase gauge omega(b) = i^popcount(c & b) over 2**n amplitudes."""
    return np.array([1j ** (b & c).bit_count() for b in range(1 << n)])


def gauge_exists(ansatz, model):
    """Brute force over every mask c: does the diagonal unitary
    omega(b) = i^popcount(c & b) make each nonzero coupling term and each
    i * generator a real matrix?  Entries are powers of i times reals, so
    the dense products are exact."""
    n = ansatz.n_qubits
    mats = [c.strength * kron_matrix(c.operator)
            for c in model.couplings if c.strength != 0.0]
    mats += [1j * kron_matrix(u.generator) for u in ansatz.units]
    for c in range(1 << n):
        omega = gauge_diagonal(n, c)
        if all(np.all((omega.conj()[:, None] * m * omega).imag == 0) for m in mats):
            return True
    return False


def with_units(ansatz, units, pos=None):
    """``ansatz`` with ``units`` inserted before unit ``pos`` (default: last)."""
    pos = ansatz.n_units if pos is None else pos
    return ProductAnsatz(ansatz.n_qubits, ansatz.units[:pos] + tuple(units)
                         + ansatz.units[pos:], ansatz.start_state, ansatz.num_params)


def per_coupling_apply(model, psi):
    """H|psi> as a sum over couplings, one compiled action at a time."""
    out = model.diagonal * psi
    for c in model.couplings:
        if c.strength != 0.0:
            out = out + c.strength * c.operator.apply(psi)
    return out


# -- compiled action ----------------------------------------------------------


def every_string(max_qubits=4):
    """Every PauliString on 1..max_qubits qubits, all masks and phases."""
    for n in range(1, max_qubits + 1):
        for x in range(1 << n):
            for z in range(1 << n):
                for p in range(4):
                    yield PauliString(n, x, z, p)


def test_to_matrix_matches_kronecker_products_for_every_string():
    for op in every_string(5):
        assert np.array_equal(op.to_matrix(), kron_matrix(op))


@PROPERTY
@given(paulis(), st.integers(0, 2**32 - 1), st.booleans())
def test_compiled_action_matches_dense_matrix(op, seed, real):
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(1 << op.n_qubits)
    if not real:
        psi = psi + 1j * rng.standard_normal(psi.size)
    out = op.apply(psi)
    assert np.allclose(out, op.to_matrix() @ psi, rtol=0, atol=1e-15)
    # a real state stays real exactly when the string's phase is real
    assert (out.dtype == np.float64) == (real and op.phase_exp % 2 == 0)


@PROPERTY
@given(paulis(), st.integers(0, 2**32 - 1))
def test_compiled_action_is_bit_identical_to_scatter(op, seed):
    rng = np.random.default_rng(seed)
    dim = 1 << op.n_qubits
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    assert np.array_equal(op.apply(psi), scatter_apply(psi, op))


def index_pairs():
    """Two multi-indices of one length, entries 0..4."""
    return st.integers(1, 6).flatmap(lambda n: st.tuples(
        *(st.lists(st.integers(0, 4), min_size=n, max_size=n) for _ in range(2))))


@PROPERTY
@given(index_pairs())
def test_multi_index_arithmetic_matches_validated_construction(pair):
    a, b = pair
    k = MultiIndex(a)
    total = k.add(b)
    assert type(total) is MultiIndex
    assert total == MultiIndex(x + y for x, y in zip(a, b))
    assert total.sub(b) == k and type(total.sub(b)) is MultiIndex
    for beta, count in enumerate(a):
        assert MultiIndex.delta(len(a), beta) == MultiIndex(
            1 if i == beta else 0 for i in range(len(a)))
        if count:
            assert k.decrement(beta) == k.sub(MultiIndex.delta(len(a), beta))
        else:
            with pytest.raises(ValueError):
                k.decrement(beta)
    if not k.dominates(b):
        with pytest.raises(ValueError, match="not dominated"):
            k.sub(b)


@PROPERTY
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(paulis(n), paulis(n), paulis(n))))
def test_pauli_products_associate_with_matrix_phases(ops):
    a, b, c = ops
    assert (a * b) * c == a * (b * c)
    assert np.array_equal((a * b).to_matrix(), a.to_matrix() @ b.to_matrix())
    dense = kron_matrix(a) @ kron_matrix(b) @ kron_matrix(c)
    assert np.array_equal(((a * b) * c).to_matrix(), dense)


@PROPERTY
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_references_are_the_reference_returning_sub_indices(n, n_couplings, data):
    couplings = tuple(
        Coupling(1.0, data.draw(labels(n, odd_y=data.draw(st.booleans()))))
        for _ in range(n_couplings)
    )
    table = CoefficientTable(HamiltonianModel((1.0,) * n, couplings))
    k = MultiIndex(data.draw(st.lists(st.integers(0, 3), min_size=n_couplings,
                                      max_size=n_couplings)))
    scanned = [kp for kp in k.sub_indices() if table.state_phase(kp)[0] == 0]
    assert table._references(k) == scanned


@st.composite
def anticommuting_couplings(draw):
    """Two to four X/Y/Z couplings on 2-4 qubits, at least two of which
    anticommute."""
    n = draw(st.integers(2, 4))
    ops = draw(st.lists(st.booleans().flatmap(lambda odd_y: labels(n, odd_y)),
                        min_size=2, max_size=4))
    assume(any(not a.commutes_with(b) for a, b in combinations(ops, 2)))
    return ops


@PROPERTY
@given(anticommuting_couplings(), st.data())
def test_tilde_signs_equal_the_relative_sign_oracle(ops, data):
    # tilde signs each term as _sign(power(a), power(b), power(a + b)) for
    # a + b <= k, with the power at a unit index read as the coupling itself
    n = ops[0].n_qubits
    table = CoefficientTable(HamiltonianModel((1.0,) * n, tuple(
        Coupling(1.0, op) for op in ops)))
    for beta, op in enumerate(ops):
        assert table.power(MultiIndex.delta(len(ops), beta)) == op
    k = MultiIndex(data.draw(st.lists(st.integers(1, 2), min_size=len(ops),
                                      max_size=len(ops))))
    signs = set()
    for merged in k.sub_indices():
        for right in merged.sub_indices():
            left = merged.sub(right)
            sign = _sign(table.power(left), table.power(right), table.power(merged))
            assert sign == relative_sign(left, right, ops)
            signs.add(sign)
    assert signs == {1.0, -1.0}


@PROPERTY
@given(anticommuting_couplings(), st.data())
def test_memoized_powers_equal_pauli_power(ops, data):
    # power multiplies the top coupling onto the memoized power one unit
    # below, whatever order the lookups come in; pauli_power starts afresh
    n = ops[0].n_qubits
    table = CoefficientTable(HamiltonianModel((1.0,) * n, tuple(
        Coupling(1.0, op) for op in ops)))
    indices = st.lists(st.integers(0, 3), min_size=len(ops), max_size=len(ops))
    for k in data.draw(st.lists(indices, min_size=1, max_size=6)):
        assert table.power(k) == pauli_power(k, ops)
    for k, power in table._memos["power"].items():
        assert power == pauli_power(k, ops)


@st.composite
def xyz_couplings(draw):
    """One to four couplings on 2-4 qubits: X/Y/Z strings with odd or even Y
    counts, and Z-only strings, whose powers all return to |0>."""
    n = draw(st.integers(2, 4))
    z_only = st.integers(1, (1 << n) - 1).map(lambda z: PauliString(n, 0, z, 0))
    return draw(st.lists(st.one_of(z_only, st.booleans().flatmap(
        lambda odd_y: labels(n, odd_y))), min_size=1, max_size=4))


@PROPERTY
@given(xyz_couplings(), st.integers(1, 4))
# an XX chain's four-body ladder (1, 2, 1) is leading with an even count;
# ZZ couplings return every power to |0>
@example([PauliString.from_label(s) for s in ("XXII", "IXXI", "IIXX")], 4)
@example([PauliString.from_label(s) for s in ("ZZI", "XIY", "IZZ")], 3)
def test_leading_key_is_the_phase_and_the_diagram_invariants(ops, k_max):
    # enumerate_leading keys each group by (reached state, red parity) read
    # off the couplings' masks; the power's state and phase class, and the
    # diagram's qubit colours and red parity, are the oracles
    model = HamiltonianModel((1.0,) * ops[0].n_qubits,
                             tuple(Coupling(1.0, op) for op in ops))
    leading = enumerate_leading(model, k_max)
    members = {k: key for key, ks in leading.items() for k in ks}
    for k in enumerate_connected(model, k_max):
        state, gamma = state_and_phase(k, ops)
        if state == 0:
            assert k not in members
            continue
        key = (state, gamma % 2)
        diagram = build_diagram(model, k)
        assert (diagram.qubit_colors, diagram.red_parity) == key
        # the group holds k exactly when no lower order reaches its key
        assert leading[key][0].order <= k.order
        assert (k in members) == (leading[key][0].order == k.order)
        if k in members:
            assert members[k] == key


def test_factor_is_the_rows_of_i_power_times_the_matrix():
    # exact equality; only the sign of a zero real or imaginary part may differ
    rng = np.random.default_rng(5)
    for op in every_string():
        dim = 1 << op.n_qubits
        rows, perm = np.arange(dim), op.action.perm
        real_psi = rng.standard_normal(dim)
        for power in range(4):
            dense = (1j**power) * kron_matrix(op)
            f = op.factor(power)
            assert np.count_nonzero(dense) == dim
            assert np.array_equal(f, dense[rows, perm])
            assert (f.dtype == np.float64) == ((power + op.phase_exp) % 2 == 0)
            if power < 2 and f.dtype == np.float64:
                assert f is op.action.real
        # the rotation step R = i * op keeps a real state real when R is real
        for psi in (real_psi, real_psi + 1j * rng.standard_normal(dim)):
            got = op.factor(1) * psi[perm]
            expected = (1j * kron_matrix(op))[rows, perm] * psi[perm]
            assert np.array_equal(got, expected)
            assert (got.dtype == np.float64) == (
                psi.dtype == np.float64 and op.phase_exp % 2 == 1)


# -- real and complex adjoint paths -------------------------------------------


def _x0_and_y0(n, param_index, scale):
    return [AnsatzUnit(PauliString.from_label(p + "I" * (n - 1)), param_index, scale)
            for p in "XY"]


@PROPERTY
@given(real_cases())
def test_real_path_matches_complex_path_and_shift_rule(case):
    ansatz, model, theta = case
    value, grad, real = energy_gradient_and_path(ansatz, theta, model)
    assert real
    assert_matches_oracles(ansatz, theta, model, value, grad)
    # Zero-scale X0 and Y0 units leave the state as it is, but no gauge makes
    # both i*X0 and i*Y0 real, so they force the complex path.
    forced = with_units(ansatz, _x0_and_y0(ansatz.n_qubits, 0, 0.0))
    c_value, c_grad, real = energy_gradient_and_path(forced, theta, model)
    assert not real
    assert abs(value - c_value) <= 1e-12
    assert np.max(np.abs(grad - c_grad)) <= 1e-12


@PROPERTY
@given(real_cases(), st.data())
def test_mixed_ansatz_takes_complex_path_and_matches(case, data):
    ansatz, model, theta = case
    n = ansatz.n_qubits
    units = _x0_and_y0(n, data.draw(st.integers(0, ansatz.num_params - 1)),
                       data.draw(st.sampled_from([1.0, -0.5])))
    for unit in units:
        ansatz = with_units(ansatz, [unit], data.draw(st.integers(0, ansatz.n_units)))
    value, grad, real = energy_gradient_and_path(ansatz, theta, model)
    assert not real
    assert_matches_oracles(ansatz, theta, model, value, grad)


@st.composite
def gauge_cases(draw):
    """Generators and couplings of either Y parity, some couplings of zero
    strength, and a parameter vector."""
    n = draw(st.integers(1, 5))
    n_units = draw(st.integers(1, 6))
    units = tuple(AnsatzUnit(draw(labels(n, odd_y=draw(st.booleans()))), i)
                  for i in range(n_units))
    ansatz = ProductAnsatz(n, units, draw(st.integers(0, (1 << n) - 1)), n_units)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    couplings = tuple(
        Coupling(draw(st.sampled_from([0.0, 0.3, -0.8])),
                 draw(labels(n, odd_y=draw(st.booleans()))))
        for _ in range(draw(st.integers(0, 4)))
    )
    model = HamiltonianModel(tuple(rng.uniform(0.5, 1.5, n)), couplings)
    return ansatz, model, rng.uniform(-np.pi, np.pi, n_units)


@PROPERTY
@given(gauge_cases())
def test_float64_path_exactly_when_a_phase_gauge_exists(case):
    ansatz, model, theta = case
    value, grad, real = energy_gradient_and_path(ansatz, theta, model)
    assert real == gauge_exists(ansatz, model)
    assert_matches_oracles(ansatz, theta, model, value, grad)


def test_xy_chain_pert_parent_ansatz_runs_in_float64():
    n = 10
    couplings = tuple(
        Coupling(1.0 + 0.01 * i, PauliString.from_label("I" * i + "XY" + "I" * (n - i - 2)))
        for i in range(n - 1))
    model = HamiltonianModel(tuple(1.0 - 0.01 * q for q in range(n)), couplings)
    assert not model.is_real
    ansatz = build_priority_list(model, None, 5, "pert", "parent").build_ansatz(16)
    assert any(u.generator.y_count % 2 == 0 for u in ansatz.units)
    theta = np.random.default_rng(3).uniform(-1, 1, ansatz.num_params)
    value, grad, real = energy_gradient_and_path(ansatz, theta, model)
    assert real
    assert_matches_oracles(ansatz, theta, model, value, grad)
    assert_gauged_rows_are_the_dense_conjugation(ansatz, model)


def assert_gauged_rows_are_the_dense_conjugation(ansatz, model):
    """Under a gauge c != 0, each compiled row f at gather perm is row b of
    omega^dagger M omega at column perm[b], with M = i*T for a unit and
    J * V for an H term (the field diagonal for H row 0); each is a
    C-contiguous float64 array."""
    c = simulator._phase_gauge(ansatz, model)
    assert c
    circuit = simulator._compiled(ansatz, model)
    omega = gauge_diagonal(ansatz.n_qubits, c)
    rows = np.arange(omega.size)

    def assert_row(perm, factor, dense):
        assert factor.dtype == np.float64 and factor.flags.c_contiguous
        assert np.array_equal(factor, (omega.conj()[:, None] * dense * omega)[rows, perm])

    for unit, (perm, factor) in zip(ansatz.units, circuit.rotations):
        assert_row(perm, factor, 1j * kron_matrix(unit.generator))
    terms = [np.diag(model.diagonal).astype(complex)]
    terms += [t.strength * kron_matrix(t.operator) for t in model.terms]
    assert len(circuit.h_factors) == len(terms)
    for perm, factor, dense in zip(circuit.h_perms, circuit.h_factors, terms):
        assert_row(perm, factor, dense)


@PROPERTY
@given(gauge_cases())
def test_gauged_rows_are_the_dense_conjugation(case):
    ansatz, model, _ = case
    assume(simulator._phase_gauge(ansatz, model))
    assert_gauged_rows_are_the_dense_conjugation(ansatz, model)


@PROPERTY
@given(st.integers(1, 5), st.data(), st.booleans(), st.integers(0, 2**32 - 1))
def test_stacked_apply_equals_the_per_coupling_sum(n, data, real, seed):
    couplings = tuple(
        Coupling(data.draw(st.sampled_from([0.0, 0.3, -0.8, 1.7])),
                 data.draw(labels(n, odd_y=data.draw(st.booleans()))))
        for _ in range(data.draw(st.integers(0, 5)))
    )
    rng = np.random.default_rng(seed)
    model = HamiltonianModel(tuple(rng.uniform(0.5, 1.5, n)), couplings)
    psi = rng.standard_normal(1 << n)
    if not real:
        psi = psi + 1j * rng.standard_normal(psi.size)
    got, expected = model.apply(psi), per_coupling_apply(model, psi)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


# -- parameter removal and fixing ----------------------------------------------


def _distinct_pair(draw, n_params):
    i = draw(st.integers(0, n_params - 1))
    j = draw(st.integers(0, n_params - 2))
    return i, j + (j >= i)


_TIE_COEFFICIENTS = st.floats(-2.0, 2.0, allow_nan=False)


@st.composite
def qca_cases(draw):
    """A layered ansatz on n <= 3 qubits in which up to two parameters are
    already tied to others (shared indices, non-unit scales), a parameter
    vector for it, and a distinct parameter pair (i, j)."""
    ansatz = build_qca(draw(st.integers(1, 3)))
    for _ in range(draw(st.integers(0, 2))):
        if ansatz.num_params > 2:
            ansatz = fix_parameter(ansatz, *_distinct_pair(draw, ansatz.num_params),
                                   draw(_TIE_COEFFICIENTS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    theta = rng.uniform(-np.pi, np.pi, ansatz.num_params)
    return ansatz, theta, _distinct_pair(draw, ansatz.num_params)


def assert_compact(child, parent):
    assert child.num_params == parent.num_params - 1
    assert {u.param_index for u in child.units} == set(range(child.num_params))


@PROPERTY
@given(qca_cases())
def test_remove_parameter_is_a_zero_angle(case):
    ansatz, theta, (i, _) = case
    child = remove_parameter(ansatz, i)
    assert_compact(child, ansatz)
    assert child.n_units == ansatz.n_units - sum(u.param_index == i for u in ansatz.units)
    expect = theta.copy()
    expect[i] = 0.0
    got = prepare(child, np.delete(theta, i))
    assert np.max(np.abs(got - prepare(ansatz, expect))) <= 1e-12


@PROPERTY
@given(qca_cases(), _TIE_COEFFICIENTS)
def test_fix_parameter_ties_one_angle_to_another(case, c):
    ansatz, theta, (i, j) = case
    child = fix_parameter(ansatz, i, j, c)
    assert_compact(child, ansatz)
    assert child.n_units == ansatz.n_units
    expect = theta.copy()
    expect[i] = c * theta[j]
    got = prepare(child, np.delete(theta, i))
    assert np.max(np.abs(got - prepare(ansatz, expect))) <= 1e-12


def _hermitian(n, x, z):
    return PauliString(n, x, z, (x & z).bit_count() % 4)


@st.composite
def shared_ansatzes(draw):
    """An ansatz on 1-4 qubits with 1-5 parameters shared by 0-7 units of
    mixed scales (a parameter may own no unit), any start state, a Pauli
    symmetry (the identity allowed), a distinct parameter pair when there
    are two, and a tie coefficient."""
    n = draw(st.integers(1, 4))
    masks = st.integers(0, (1 << n) - 1)
    num_params = draw(st.integers(1, 5))
    units = draw(st.lists(st.builds(
        AnsatzUnit,
        st.tuples(masks, masks).filter(any).map(lambda xz: _hermitian(n, *xz)),
        st.integers(0, num_params - 1),
        st.sampled_from([1.0, -1.0, 0.5, 2.0, -0.75]),
    ), max_size=7))
    ansatz = ProductAnsatz(n, tuple(units), draw(masks), num_params)
    symmetry = _hermitian(n, draw(masks), draw(masks))
    pair = _distinct_pair(draw, num_params) if num_params > 1 else None
    return ansatz, symmetry, pair, draw(_TIE_COEFFICIENTS)


def _params_with(ansatz, broken):
    return {u.param_index for u in ansatz.units if broken(u.generator)}


@settings(deadline=None, max_examples=300)
@given(shared_ansatzes())
def test_parameter_edits_match_one_at_a_time_removal(case):
    ansatz, symmetry, pair, c = case
    for i in range(ansatz.num_params):
        assert remove_parameter(ansatz, i) == remove_one_at_a_time(ansatz, {i})
    if pair is not None:
        assert fix_parameter(ansatz, *pair, c) == tie_one_at_a_time(ansatz, *pair, c)
    assert enforce_conjugation(ansatz) == remove_one_at_a_time(
        ansatz, _params_with(ansatz, lambda g: not respects_conjugation(g)))
    assert enforce_symmetry(ansatz, symmetry) == remove_one_at_a_time(
        ansatz, _params_with(ansatz, lambda g: not g.commutes_with(symmetry)))


@settings(deadline=None, max_examples=300)
@given(shared_ansatzes())
def test_enforce_symmetry_keeps_exactly_the_commuting_parameters(case):
    ansatz, symmetry, _, _ = case
    sector = enforce_symmetry(ansatz, symmetry)
    assert all(u.generator.commutes_with(symmetry) for u in sector.units)
    survivors = [p for p in range(ansatz.num_params)
                 if all(u.generator.commutes_with(symmetry)
                        for u in ansatz.units if u.param_index == p)]
    assert sector.num_params == len(survivors)
    assert [(u.generator, u.scale, survivors[u.param_index]) for u in sector.units] == [
        (u.generator, u.scale, u.param_index) for u in ansatz.units
        if u.param_index in survivors]
    assert sector.start_state == ansatz.start_state

import itertools

import numpy as np
import pytest

from pertvqe.ansatz import AnsatzUnit, ProductAnsatz, build_qca
from pertvqe.diagrams import enumerate_leading, is_disconnected_split
from pertvqe.hierarchy import (
    ThetaEstimator,
    build_priority_list,
    check_matched,
    duplication_defect,
    hierarchy_to_json,
    qca_slot,
)
from pertvqe.pauli import MultiIndex, PauliString, format_bits
from pertvqe.perturbation import Coupling, HamiltonianModel, tfim_chain

from conftest import (
    check_generating,
    dense_angle_oracle,
    even_sector_generators,
    two_block_model,
)


# -- generating / matched checks -------------------------------------------------------


def test_generating_two_qubit_qca():
    report = check_generating(build_qca(2))
    assert report.complete
    # the singly-flipped state on qubit 0 is served by Y (a=1) and X (a=0)
    assert report.slots[(0b01, 1)].generator.to_label() == "YI"
    assert report.slots[(0b01, 0)].generator.to_label() == "XI"
    assert report.slots[(0b11, 0)].generator.to_label() == "XX"


def test_generating_three_qubit_qca_complete():
    report = check_generating(build_qca(3))
    assert report.complete
    assert len(report.slots) == 2 * (2**3 - 1)


def test_generating_failure_reported():
    qca = build_qca(2)
    units = tuple(u for u in qca.units if u.generator.to_label() != "XX")
    units = tuple(
        AnsatzUnit(u.generator, i) for i, u in enumerate(units)
    )
    pruned = ProductAnsatz(2, units, 0, len(units))
    report = check_generating(pruned)
    assert not report.complete
    assert (0b11, 0) in report.missing


def test_matched_checks():
    assert check_matched(build_qca(5))
    bad = ProductAnsatz(
        3, (AnsatzUnit(PauliString.from_label("ZXY"), 0),), 0, 1
    )
    assert not check_matched(bad)
    single = ProductAnsatz(1, (AnsatzUnit(PauliString.from_label("Y"), 0),), 0, 1)
    assert check_matched(single)


def test_estimator_refuses_unmatched():
    units = list(build_qca(2).units) + [AnsatzUnit(PauliString.from_label("ZX"), 6)]
    a = ProductAnsatz(2, tuple(units), 0, 7)
    with pytest.raises(ValueError, match="matched"):
        ThetaEstimator(tfim_chain(2, 1.0, 0.1), a, 2)


@pytest.mark.parametrize("n", range(1, 9))
def test_closed_form_slots_equal_the_scanned_parent(n):
    report = check_generating(build_qca(n))
    assert {key: qca_slot(n, *key) for key in report.slots} == report.slots
    with pytest.raises(ValueError):
        qca_slot(n, 1 << n, 0)


def test_estimator_refuses_an_ansatz_other_than_the_parent():
    model = tfim_chain(3, 1.0, 0.1)
    qca = build_qca(3)
    # same generators with the X and Y units of slot |110> swapped: matched
    # and complete, but the Y unit the order-1 angle needs is out of place
    units = list(qca.units)
    units[4], units[5] = units[5], units[4]
    swapped = ProductAnsatz(3, tuple(units), 0, qca.num_params)
    pruned = ProductAnsatz(3, qca.units[:-1], 0, qca.num_params)
    for ansatz in (swapped, pruned, build_qca(4)):
        with pytest.raises(ValueError):
            ThetaEstimator(model, ansatz, 2)
    assert (ThetaEstimator(model, qca, 2).estimates()
            == ThetaEstimator(model, None, 2).estimates())


# -- angle estimates -----------------------------------------------------------------------


def tfim4_estimates(j=1.0, k_max=4):
    model = tfim_chain(4, 1.0, j)
    return model, ThetaEstimator(model, build_qca(4), k_max).estimates()


def test_estimates_four_site_values():
    j = 0.15
    model, estimates = tfim4_estimates(j)
    by_label = {e.slot.generator.to_label(): e.theta_tilde for e in estimates}
    assert by_label["XYII"] == pytest.approx(-j / 4, abs=1e-15)
    assert by_label["IXYI"] == pytest.approx(-j / 4, abs=1e-15)
    assert by_label["IIXY"] == pytest.approx(-j / 4, abs=1e-15)
    assert by_label["XIYI"] == pytest.approx(j**2 / 16, abs=1e-15)
    assert by_label["IXIY"] == pytest.approx(j**2 / 16, abs=1e-15)
    assert by_label["XIIY"] == pytest.approx(-(j**3) / 32, abs=1e-15)
    # fourth order: the dense angle oracle's value (the paper states -j^4/512)
    assert by_label["XXXY"] == pytest.approx(-(j**4) / 128, abs=1e-16)


def test_estimates_match_dense_angle_oracle():
    # every slot's estimate is the leading Taylor coefficient of the angle
    # that reproduces the exact ground state, for the four-site chain and a
    # seeded random complex XY chain
    rng = np.random.default_rng(2024)
    xy = HamiltonianModel(
        tuple(float(rng.uniform(0.8, 1.2)) for _ in range(4)),
        tuple(
            Coupling(float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.0)),
                     PauliString.from_ops(4, {i: "X", i + 1: "Y"}))
            for i in range(3)
        ),
    )
    for model in (tfim_chain(4, 1.0, 1.0), xy):
        generators = even_sector_generators(model)
        coeffs = dense_angle_oracle(model, generators)
        estimates = {
            e.slot.generator: e for e in ThetaEstimator(model, build_qca(4), 4).estimates()
        }
        assert set(estimates) == set(generators)
        for unit, gen in enumerate(generators):
            e = estimates[gen]
            order = e.leading_ks[0].order
            assert coeffs[order - 1, unit] == pytest.approx(e.theta_tilde, rel=1e-7)
            lower = np.abs(coeffs[: order - 1, unit])
            assert np.all(lower <= 1e-7 * abs(e.theta_tilde)), gen.to_label()


def test_chain_estimates_match_dense_angle_oracle():
    # the eight-site chain through fourth order (127 units, about 15 s): every
    # estimated slot, and the distance-four and ladder values that criterion 4b
    # and test_chain_order_four_slots_and_count pin, come from the oracle
    model = tfim_chain(8, 1.0, 1.0)
    generators = even_sector_generators(model)
    coeffs = dense_angle_oracle(model, generators)
    estimates = {
        e.slot.generator: e for e in ThetaEstimator(model, build_qca(8), 4).estimates()
    }
    assert len(estimates) == 27 and set(estimates) <= set(generators)
    oracle = {}
    for unit, gen in enumerate(generators):
        e = estimates.get(gen)
        if e is None:
            continue
        order = e.leading_ks[0].order
        oracle[gen.to_label()] = coeffs[order - 1, unit]
        assert coeffs[order - 1, unit] == pytest.approx(e.theta_tilde, rel=1e-7)
        lower = np.abs(coeffs[: order - 1, unit])
        assert np.all(lower <= 1e-7 * abs(e.theta_tilde)), gen.to_label()
    assert oracle["XIIIYIII"] == pytest.approx(5 / 256, rel=1e-7)
    assert oracle["XXXYIIII"] == pytest.approx(-1 / 128, rel=1e-7)


def test_estimates_restricted_to_real_symmetric_slots():
    _, estimates = tfim4_estimates()
    for e in estimates:
        assert e.slot.a == 1
        assert e.slot.generator.y_count % 2 == 1
        assert format_bits(e.slot.state, 4).count("1") % 2 == 0


def test_disconnected_contribution_cancels_exactly():
    model = tfim_chain(4, 1.0, 1.0)
    est = ThetaEstimator(model, build_qca(4), 4)
    assert est.contribution((1, 0, 1)) == 0.0
    # explicitly: J^2 C~ equals the product of the first-order angles
    thetas = {tuple(k): v for k, v, _ in est._fixed}
    assert est.table.tilde((1, 0, 1)) == pytest.approx(
        thetas[(1, 0, 0)] * thetas[(0, 0, 1)], abs=1e-15
    )


def test_contribution_reproduces_fixed_angles_and_cancels_disconnected():
    model = tfim_chain(6, 1.0, 0.2)
    est = ThetaEstimator(model, build_qca(6), 4)
    for k, theta, _ in est._fixed:
        assert est.contribution(k) == theta
    fixed = {k for k, _, _ in est._fixed}
    both_fixed, one_unfixed = [], []
    for k in itertools.product(range(5), repeat=model.n_couplings):
        if not 1 <= sum(k) <= 4 or est.table.state_phase(k)[0] == 0:
            continue
        split = is_disconnected_split(model, k)
        if split is None:
            continue
        halves_fixed = split[0] in fixed and split[1] in fixed
        (both_fixed if halves_fixed else one_unfixed).append(est.contribution(k))
    assert len(both_fixed) == 23
    assert max(abs(v) for v in both_fixed) < 1e-15
    # the condition matters: with an unfixed half the angle need not vanish
    assert max(abs(v) for v in one_unfixed) > 1e-6


def test_estimates_are_real_and_assign_single_phase_class():
    model = tfim_chain(5, 1.0, 0.3)
    est = ThetaEstimator(model, build_qca(5), 4)
    for k, theta, slot in est._fixed:
        assert isinstance(theta, float)
        state, gamma = est.table.state_phase(k)
        assert slot.state == state
        assert slot.a == (gamma + 1) % 2


def test_chain_order_four_slots_and_count():
    model = tfim_chain(8, 1.0, 1.0)
    estimates = ThetaEstimator(model, build_qca(8), 4).estimates()
    assert len(estimates) == 5 * 8 - 13
    by_label = {e.slot.generator.to_label(): e for e in estimates}
    far = by_label["XIIIYIII"]  # target flips qubits 0 and 4
    ladder = by_label["XXXYIIII"]  # target flips qubits 0..3
    assert far.theta_tilde == pytest.approx(5 / 256, abs=1e-15)
    assert ladder.theta_tilde == pytest.approx(-1 / 128, abs=1e-15)
    # the distance-four generator outranks the four-body ladder
    assert abs(far.theta_tilde) > abs(ladder.theta_tilde)


def test_back_action_magnitudes_do_not_exceed_series_terms():
    model, estimates = tfim4_estimates(1.0)
    table = ThetaEstimator(model, build_qca(4), 4).table
    for e in estimates:
        for k in e.leading_ks:
            series = abs(model.coupling_monomial(k) * table.tilde(k))
            assert abs(e.theta_tilde) <= series + 1e-15


def test_size_extensive_duplication():
    # two disjoint copies of the same chain reproduce per-copy angles, give
    # cross-copy targets nothing, and fix no diagram straddling the copies
    single = tfim_chain(4, 1.0, 0.3)
    couplings = tuple(
        Coupling(0.3, PauliString.from_ops(8, {q: "X", q + 1: "X"}))
        for q in (0, 1, 2, 4, 5, 6)
    )
    doubled = HamiltonianModel((1.0,) * 8, couplings)
    worst, cross = duplication_defect(single, doubled)
    assert worst <= 1e-10 and cross == 0
    est_double = ThetaEstimator(doubled, build_qca(8), 4)
    assert not any(any(k[:3]) and any(k[3:]) for k, _, _ in est_double._fixed)


@pytest.mark.parametrize("n", [8, 16])
def test_chain_doubled_is_size_extensive(n):
    single = tfim_chain(n, 1.0, 0.3)
    doubled = HamiltonianModel((1.0,) * (2 * n), tuple(
        Coupling(0.3, PauliString.from_ops(2 * n, {q: "X", q + 1: "X"}))
        for q in (*range(n - 1), *range(n, 2 * n - 1))
    ))
    assert duplication_defect(single, doubled) == (pytest.approx(0.0, abs=1e-10), 0)


@pytest.mark.parametrize("k_max, counts, shapes", [
    (3, (42, 90, 186), {"XY", "XIY", "XIIY"}),
    (4, (67, 147, 307), {"XY", "XIY", "XIIY", "XIIIY", "XXXY"}),
])
def test_long_chains_are_size_extensive(k_max, counts, shapes):
    # J = 0.15 chains of 16, 32 and 64 sites: the slot count grows linearly
    # (3n - 6 at k_max 3, 5n - 13 at k_max 4), each shape sits at every
    # position along the chain, and every slot of a shape, chain ends
    # included, takes one angle, the same bit for bit at every n
    angles: dict[str, set[float]] = {}
    for n, count in zip((16, 32, 64), counts):
        estimates = ThetaEstimator(tfim_chain(n, 1.0, 0.15), None, k_max).estimates()
        assert len(estimates) == count
        positions: dict[str, set[int]] = {}
        for e in estimates:
            sup = sorted(e.slot.generator.support())
            lo, hi = sup[0], sup[-1]
            shape = e.slot.generator.to_label()[lo:hi + 1]
            positions.setdefault(shape, set()).add(lo)
            angles.setdefault(shape, set()).add(e.theta_tilde)
        assert {shape: len(at) for shape, at in positions.items()} == {
            shape: n - len(shape) + 1 for shape in shapes}
    assert all(len(thetas) == 1 for thetas in angles.values()), angles


def disordered_xx_chain(fields, couplings) -> HamiltonianModel:
    n = len(fields)
    return HamiltonianModel(tuple(fields), tuple(
        Coupling(float(j), PauliString.from_ops(n, {q: "X", q + 1: "X"}))
        for q, j in enumerate(couplings)
    ))


@pytest.mark.parametrize("k_max", [4, 5])
def test_slot_angles_depend_only_on_the_parameters_inside_their_support(k_max):
    # a 32-site XX chain with seeded disorder; from site 16 on, every field
    # and every coupling touching those sites is drawn again: no slot on
    # sites 0-15 moves beyond rounding, and slots past the cut do move
    n, cut = 32, 16
    rng = np.random.default_rng(7)
    h, j = rng.uniform(0.8, 1.2, n), rng.uniform(0.1, 0.2, n - 1)
    h2, j2 = h.copy(), j.copy()
    h2[cut:] = rng.uniform(0.8, 1.2, n - cut)
    j2[cut - 1:] = rng.uniform(0.1, 0.2, n - cut)
    before, after = (
        {(e.slot.state, e.slot.a): e.theta_tilde
         for e in ThetaEstimator(disordered_xx_chain(fields, couplings), None,
                                 k_max).estimates()}
        for fields, couplings in ((h, j), (h2, j2))
    )
    assert before.keys() == after.keys()
    left = [key for key in before if key[0] < 1 << cut]
    assert len(left) == {4: 67, 5: 102}[k_max]
    for key in left:
        assert after[key] == pytest.approx(before[key], rel=1e-14, abs=0)
    assert all(after[key] != before[key] for key in before if key[0] >> cut)


def test_duplication_defect_reports_unequal_copies_and_a_bridge():
    single = tfim_chain(3, 1.0, 0.3)
    # second copy at J = 0.2, not 0.3: order-1 angles differ by 0.1/4
    unequal = HamiltonianModel((1.0,) * 6, tuple(
        Coupling(j, PauliString.from_ops(6, {q: "X", q + 1: "X"}))
        for j, q in ((0.3, 0), (0.3, 1), (0.2, 3), (0.2, 4))
    ))
    assert duplication_defect(single, unequal) == (pytest.approx(0.025, abs=1e-15), 0)
    # a six-site chain bridges the copies: indices do not lift, and slots
    # across the middle bond receive estimates
    worst, cross = duplication_defect(single, tfim_chain(6, 1.0, 0.3))
    assert worst == np.inf and cross > 0


def test_disconnected_indices_give_zero_on_random_blocks(rng):
    # sums of leading indices from disjoint blocks cancel exactly
    from pertvqe.perturbation import DegeneracyError

    total_checked = 0
    for _ in range(8):
        model = two_block_model(rng, (0, 1), (2, 3, 4), 2, 2)
        try:
            est = ThetaEstimator(model, build_qca(5), 3)
        except DegeneracyError:
            continue
        fixed = [MultiIndex(k) for k, _, _ in est._fixed]
        for ka in fixed:
            for kb in fixed:
                k = ka.add(kb)
                if k.order > 4 or is_disconnected_split(model, k) is None:
                    continue
                assert abs(est.contribution(k)) < 1e-10, (tuple(ka), tuple(kb))
                total_checked += 1
    assert total_checked > 0


# -- shortcut weights ------------------------------------------------------------------------


def j_shortcut_weights(model, leading):
    """Cheap ordering key: summed coupling monomials of each group's leading
    indices, keyed by (state, slot phase class)."""
    return {(state, (parity + 1) % 2): sum(model.coupling_monomial(k) for k in ks)
            for (state, parity), ks in leading.items()}


def test_j_weights_single_leading_index(rng):
    model = tfim_chain(4, 1.0, 0.25)
    weights = j_shortcut_weights(model, enumerate_leading(model, 4))
    est = {(e.slot.state, e.slot.a): e
           for e in ThetaEstimator(model, build_qca(4), 4).estimates()}
    for key, w in weights.items():
        assert w == pytest.approx(est[key].j_weight)
    # uniform couplings: an order-n slot weighs J^n
    order_of = {key: e.leading_ks[0].order for key, e in est.items()}
    for key, w in weights.items():
        assert w == pytest.approx(0.25 ** order_of[key])


def test_j_weight_order_matches_theta_order():
    model = tfim_chain(4, 1.0, 0.15)
    estimates = ThetaEstimator(model, build_qca(4), 4).estimates()
    by_theta = sorted(estimates, key=lambda e: -abs(e.theta_tilde))
    by_weight = sorted(estimates, key=lambda e: -abs(e.j_weight))

    def order_signature(seq):
        # compare as ranked blocks because ties may permute within a block
        out = []
        current = []
        last = None
        for e in seq:
            key = round(abs(e.theta_tilde), 15)
            if last is not None and key != last:
                out.append(frozenset(id(x) for x in current))
                current = []
            current.append(e)
            last = key
        out.append(frozenset(id(x) for x in current))
        return out

    assert [len(b) for b in order_signature(by_theta)] == [3, 2, 1, 1]
    assert [e.slot.state for e in by_theta[:3]] == [e.slot.state for e in by_weight[:3]]
    assert by_theta[-1].slot.state == by_weight[-1].slot.state


# -- priority lists ---------------------------------------------------------------------------


def test_priority_list_modes_four_sites():
    model = tfim_chain(4, 1.0, 0.15)
    qca = build_qca(4)
    pert = build_priority_list(model, qca, 4, "pert")
    orders = [e.leading_ks[0].order for e in pert.entries]
    assert orders == [1, 1, 1, 2, 2, 3, 4]
    rev = build_priority_list(model, qca, 4, "rev")
    assert [e.slot.state for e in rev.entries] == [
        e.slot.state for e in reversed(pert.entries)
    ]
    two_local = build_priority_list(model, qca, 4, "2loc")
    assert all(e.slot.generator.weight <= 2 for e in two_local.entries)
    assert len(two_local.entries) == 6
    local = build_priority_list(model, qca, 4, "loc")
    assert len(local.entries) == 3
    for e in local.entries:
        sup = sorted(e.slot.generator.support())
        assert sup[1] - sup[0] == 1


def test_looping_list_repeats_with_fresh_parameters():
    model = tfim_chain(4, 1.0, 0.15)
    local = build_priority_list(model, build_qca(4), 4, "loc")
    a = local.build_ansatz(5)
    assert a.num_params == 5
    labels = [u.generator.to_label() for u in a.units]
    assert labels[0] == labels[3] and labels[1] == labels[4]
    assert [u.param_index for u in a.units] == [0, 1, 2, 3, 4]


def test_non_looping_list_errors_when_exhausted():
    model = tfim_chain(4, 1.0, 0.15)
    pert = build_priority_list(model, build_qca(4), 4, "pert")
    with pytest.raises(ValueError):
        pert.build_ansatz(8)


def test_parent_ordering_sorts_by_circuit_position():
    model = tfim_chain(4, 1.0, 0.15)
    qca = build_qca(4)
    starred = build_priority_list(model, qca, 4, "pert", ordering="parent")
    a = starred.build_ansatz(7)
    positions = {u.generator.to_label(): i for i, u in enumerate(qca.units)
                 for u2 in a.units if u.generator == u2.generator}
    circuit = [positions[u.generator.to_label()] for u in a.units]
    assert circuit == sorted(circuit)
    # parameters still follow hierarchy rank
    hierarchy_rank = {e.slot.generator: i for i, e in enumerate(starred.entries)}
    for u in a.units:
        assert u.param_index == hierarchy_rank[u.generator]


def test_tie_seed_shuffles_reproducibly():
    model = tfim_chain(4, 1.0, 0.15)
    qca = build_qca(4)
    a = build_priority_list(model, qca, 4, "pert", tie_seed=5)
    b = build_priority_list(model, qca, 4, "pert", tie_seed=5)
    c = build_priority_list(model, qca, 4, "pert", tie_seed=11)
    assert [e.slot.state for e in a.entries] == [e.slot.state for e in b.entries]
    tie_states = {e.slot.state for e in a.entries[:3]}
    assert tie_states == {e.slot.state for e in c.entries[:3]}


def test_priority_list_json_export():
    model = tfim_chain(4, 1.0, 0.15)
    plist = build_priority_list(model, build_qca(4), 4, "pert")
    rows = hierarchy_to_json(plist, model)
    assert [r["rank"] for r in rows] == list(range(7))
    assert rows[0]["a"] == 1
    assert rows[-1]["pauli"] == "XXXY"
    assert rows[-1]["leading_ks"] == [[1, 2, 1]]


def test_unknown_mode_rejected():
    model = tfim_chain(4, 1.0, 0.15)
    with pytest.raises(ValueError):
        build_priority_list(model, build_qca(4), 4, "bogus")

import json

import numpy as np
import pytest

import pertvqe.vqe

from pertvqe.ansatz import AnsatzUnit, ProductAnsatz, build_qca
from pertvqe.hierarchy import build_priority_list
from pertvqe.pauli import PauliString
from pertvqe.perturbation import HamiltonianModel, exact_ground, tfim_chain
from pertvqe.simulator import energy, prepare, zero_state
from pertvqe.vqe import (
    hierarchy_sweep,
    optimize,
    sweep_thetas_json,
    sweep_to_csv,
)


def test_optimize_zero_parameter_ansatz():
    model = tfim_chain(3, 1.0, 0.4)
    a = ProductAnsatz(3, (), 0, 0)
    out = optimize(a, model, [])
    assert out.energy == pytest.approx(energy(zero_state(3), model))
    assert out.converged


def test_optimize_from_stationary_ground_start():
    # on a pure field Hamiltonian the start state is already the minimum
    model = HamiltonianModel((1.0, 1.0), ())
    units = (
        AnsatzUnit(PauliString.from_label("YI"), 0),
        AnsatzUnit(PauliString.from_label("IY"), 1),
        AnsatzUnit(PauliString.from_label("YX"), 2),
    )
    a = ProductAnsatz(2, units, 0, 3)
    out = optimize(a, model, np.zeros(3))
    assert out.energy == pytest.approx(-2.0, abs=1e-8)


def test_optimize_reaches_exact_ground_with_full_sector():
    model = tfim_chain(4, 1.0, 0.15)
    plist = build_priority_list(model, build_qca(4), 4)
    a = plist.build_ansatz(7)
    out = optimize(a, model, np.zeros(7))
    e_ref, _ = exact_ground(model)
    assert out.energy == pytest.approx(e_ref, abs=1e-8)


def test_optimize_rejects_nonfinite_start():
    model = tfim_chain(2, 1.0, 0.2)
    a = build_qca(2)
    with pytest.raises(ValueError):
        optimize(a, model, [np.nan] * a.num_params)


def test_optimize_never_worse_than_start(rng):
    model = tfim_chain(3, 1.0, 2.5)
    a = build_qca(3)
    theta0 = rng.uniform(-1, 1, a.num_params)
    out = optimize(a, model, theta0, max_iterations=3)
    assert out.energy <= energy(prepare(a, theta0), model) + 1e-12


def test_sweep_zero_units_is_baseline_row():
    model = tfim_chain(3, 1.0, 0.3)
    plist = build_priority_list(model, build_qca(3), 3)
    result = hierarchy_sweep(model, plist, 0)
    assert len(result.rows) == 1
    row = result.rows[0]
    assert row.n_params == 0
    e_ref, _ = exact_ground(model)
    assert row.epsilon == pytest.approx(
        (energy(zero_state(3), model) - e_ref) / abs(e_ref)
    )


def test_sweep_epsilon_non_increasing():
    model = tfim_chain(4, 1.0, 0.2)
    plist = build_priority_list(model, build_qca(4), 4)
    result = hierarchy_sweep(model, plist, 7)
    eps = [row.epsilon for row in result.rows]
    assert all(b <= a + 1e-9 for a, b in zip(eps, eps[1:]))
    assert all(e >= -1e-9 for e in eps)


def test_sweep_warm_start_consistency():
    model = tfim_chain(3, 1.0, 0.4)
    plist = build_priority_list(model, build_qca(3), 3)
    result = hierarchy_sweep(model, plist, 3, gtol=1e-9)
    last = result.rows[-1]
    a = plist.build_ansatz(last.n_params)
    again = optimize(a, model, np.array(last.theta), gtol=1e-9)
    assert again.energy == pytest.approx(last.energy, abs=1e-9)


def test_strong_coupling_sweep_beats_product_reference():
    # seven units suffice to reach the zero-field product ground state
    n = 8
    model = tfim_chain(n, 1.0, 6.0)
    construction = tfim_chain(n, 1.0, 0.15)
    plist = build_priority_list(construction, build_qca(n), 4, "loc")
    result = hierarchy_sweep(model, plist, 7)
    units = tuple(
        AnsatzUnit(PauliString.from_ops(n, {i: "X", i + 1: "Y"}), i)
        for i in range(n - 1)
    )
    reference = ProductAnsatz(n, units, 0, n - 1)
    e_ref = energy(prepare(reference, [np.pi / 4] * (n - 1)), model)
    assert result.rows[-1].energy <= e_ref + 1e-9


def test_sweep_csv_and_theta_export():
    model = tfim_chain(3, 1.0, 0.3)
    plist = build_priority_list(model, build_qca(3), 3)
    result = hierarchy_sweep(model, plist, 2)
    csv_text = sweep_to_csv(result)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "n_params,energy,epsilon,iterations"
    assert len(lines) == 4
    assert lines[1].startswith("0,")
    import json

    payload = json.loads(sweep_thetas_json(result))
    assert payload["reference_energy"] == pytest.approx(result.reference_energy)
    assert len(payload["theta_star"]["2"]) == 2


def test_sweep_steps_record_how_each_energy_was_reached(monkeypatch):
    model = tfim_chain(4, 1.0, 0.6)
    plist = build_priority_list(model, None, 4)
    calls = []
    evaluate = pertvqe.vqe.energy_and_gradient

    def counted(ansatz, theta, model):
        calls.append(ansatz.num_params)
        return evaluate(ansatz, theta, model)

    monkeypatch.setattr(pertvqe.vqe, "energy_and_gradient", counted)
    result = hierarchy_sweep(model, plist, 4)
    steps = json.loads(sweep_thetas_json(result))["steps"]
    assert [s["n_params"] for s in steps] == [1, 2, 3, 4]
    assert [s["evaluations"] for s in steps] == [calls.count(n) for n in range(1, 5)]
    assert [s["iterations"] for s in steps] == [row.iterations for row in result.rows[1:]]
    for s in steps:
        assert s["start"] == "warm" or s["start"].split()[0] in ("rerun", "random")
        assert isinstance(s["converged"], bool) and s["message"] and s["seconds"] >= 0
        if s["start"].startswith("rerun"):
            assert 1 <= int(s["start"].split()[1]) <= s["reruns"]


def test_sweep_records_why_it_stopped(monkeypatch):
    model = tfim_chain(4, 1.0, 0.2)
    plist = build_priority_list(model, build_qca(4), 4)
    assert hierarchy_sweep(model, plist, 2).stop_reason == "complete"

    evaluate = pertvqe.vqe.energy_and_gradient

    def nan_at_three_units(ansatz, theta, model):
        value, grad = evaluate(ansatz, theta, model)
        return (np.nan if ansatz.num_params == 3 else value), grad

    monkeypatch.setattr(pertvqe.vqe, "energy_and_gradient", nan_at_three_units)
    result = hierarchy_sweep(model, plist, 5)
    assert [row.n_params for row in result.rows] == [0, 1, 2]
    assert result.stop_reason == "stopped at 3 units: non-finite variational energy"
    assert json.loads(sweep_thetas_json(result))["stop_reason"] == result.stop_reason
    assert sweep_to_csv(result).splitlines()[0] == "n_params,energy,epsilon,iterations"

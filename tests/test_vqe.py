import json
import math
from dataclasses import replace

import numpy as np
import pytest

import pertvqe.vqe

from pertvqe.ansatz import AnsatzUnit, ProductAnsatz, build_qca
from pertvqe.hierarchy import build_priority_list
from pertvqe.pauli import PauliString
from pertvqe.perturbation import Coupling, HamiltonianModel, exact_ground, tfim_chain
from pertvqe.simulator import basis_state, energy, energy_and_gradient, prepare
from pertvqe.vqe import (
    PERTURBATIVE_ANGLE,
    first_order_angle,
    hierarchy_sweep,
    optimize,
    sweep_thetas_json,
    sweep_to_csv,
)


def test_optimize_zero_parameter_ansatz():
    model = tfim_chain(3, 1.0, 0.4)
    a = ProductAnsatz(3, (), 0, 0)
    out = optimize(a, model, [])
    assert out.energy == pytest.approx(energy(basis_state(3, 0), model))
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


def test_optimize_never_worse_than_start(rng, monkeypatch):
    monkeypatch.setattr(pertvqe.vqe, "MAX_ITERATIONS", 3)
    model = tfim_chain(3, 1.0, 2.5)
    a = build_qca(3)
    theta0 = rng.uniform(-1, 1, a.num_params)
    out = optimize(a, model, theta0)
    assert out.energy <= energy(prepare(a, theta0), model) + 1e-12


def test_optimize_keeps_the_start_from_the_objectives_first_value(monkeypatch):
    # every run ends above the start: optimize reports theta0 at the value
    # its objective returned on the first call, with no extra evaluation
    import scipy.optimize

    model = tfim_chain(3, 1.0, 0.4)
    a = build_qca(3)
    theta0 = np.linspace(-0.5, 0.5, a.num_params)
    calls = []

    def above_the_start(fun, x0, **kwargs):
        value, grad = fun(x0)
        calls.append(value)
        return scipy.optimize.OptimizeResult(
            x=x0 + 0.1, fun=value + 1.0, jac=np.ones_like(grad), nit=1,
            message="ended above the start")

    monkeypatch.setattr(scipy.optimize, "minimize", above_the_start)
    out = optimize(a, model, theta0, restarts=1)
    assert out.energy == energy_and_gradient(a, theta0, model)[0]
    assert out.energy == calls[0]
    assert np.array_equal(out.theta, theta0)
    assert out.message == "start kept: no run went below it"
    assert (out.attempt, out.evaluations, out.reruns) == (0, 2, 1)


GTOL = 1e-9
FLOOR = -1.0 + 1e-13


def _flat_floor(rise):
    """A smooth two-parameter landscape whose energy, like a float64 energy
    sum near its minimum, is flat (at FLOOR) while its gradient still falls;
    points that meet GTOL read FLOOR + rise."""

    def landscape(ansatz, theta, model):
        u, w = theta[0] - 0.3, theta[1] + 0.2
        value = -1.0 + (1 - np.cos(u)) + 3 * (1 - np.cos(w)) + 0.5 * (1 - np.cos(u - w))
        grad = np.array([np.sin(u) + 0.5 * np.sin(u - w), 3 * np.sin(w) - 0.5 * np.sin(u - w)])
        if np.max(np.abs(grad)) <= GTOL:
            return FLOOR + rise, grad
        return max(value, FLOOR), grad

    return landscape


def _plain_lbfgsb(landscape):
    import scipy.optimize

    return scipy.optimize.minimize(
        lambda theta: landscape(None, theta, None), np.zeros(2), jac=True,
        method="L-BFGS-B", options={"maxiter": 2000, "gtol": GTOL, "ftol": 1e-18})


def test_optimize_ends_at_a_trial_point_one_ulp_above_the_lowest(monkeypatch):
    # L-BFGS-B's line search rejects the only point meeting gtol for its
    # 1-ulp rise and ends unconverged; optimize ends the run at that point
    landscape = _flat_floor(np.nextafter(FLOOR, 0.0) - FLOOR)
    plain = _plain_lbfgsb(landscape)
    assert np.max(np.abs(plain.jac)) > GTOL
    monkeypatch.setattr(pertvqe.vqe, "energy_and_gradient", landscape)
    out = optimize(build_qca(1), HamiltonianModel((1.0,), ()), np.zeros(2))
    assert out.converged and out.reruns == 0 and out.attempt == 0
    assert out.message == pertvqe.vqe.GRADIENT_MET
    assert out.energy == np.nextafter(FLOOR, 0.0)
    value, grad = landscape(None, out.theta, None)
    assert value == out.energy and np.max(np.abs(grad)) <= GTOL


def test_optimize_runs_on_past_a_trial_point_above_the_rounding_bound(monkeypatch):
    # the same landscape with the point meeting gtol 2 bounds above the
    # floor: the run goes on as plain L-BFGS-B does, and reruns follow
    landscape = _flat_floor(2 * pertvqe.vqe.ENERGY_ROUNDING * abs(FLOOR))
    plain = _plain_lbfgsb(landscape)
    monkeypatch.setattr(pertvqe.vqe, "energy_and_gradient", landscape)
    a, model = build_qca(1), HamiltonianModel((1.0,), ())
    out = optimize(a, model, np.zeros(2), restarts=0)
    assert not out.converged and out.message == str(plain.message)
    assert np.array_equal(out.theta, plain.x) and out.energy == plain.fun
    assert out.iterations == plain.nit
    assert optimize(a, model, np.zeros(2)).reruns == 3


def test_sweep_zero_units_is_baseline_row():
    model = tfim_chain(3, 1.0, 0.3)
    plist = build_priority_list(model, build_qca(3), 3)
    result = hierarchy_sweep(model, plist, 0)
    assert len(result.rows) == 1
    row = result.rows[0]
    assert row.n_params == 0
    e_ref, _ = exact_ground(model)
    assert row.epsilon == pytest.approx(
        (energy(basis_state(3, 0), model) - e_ref) / abs(e_ref)
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
    result = hierarchy_sweep(model, plist, 3)
    last = result.rows[-1]
    a = plist.build_ansatz(last.n_params)
    again = optimize(a, model, np.array(last.theta))
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
    payload = json.loads(sweep_thetas_json(result))
    steps = payload["steps"]
    assert [s["n_params"] for s in steps] == [1, 2, 3, 4]
    assert [s["evaluations"] for s in steps] == [calls.count(n) for n in range(1, 5)]
    assert [s["iterations"] for s in steps] == [row.iterations for row in result.rows[1:]]
    assert payload["first_order_angle"] == pytest.approx(0.15)
    assert payload["budget"] == "perturbative"
    assert payload["discarded_pass"] is None and result.discarded_pass is None
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


def test_first_order_angle_sets_the_budget():
    assert first_order_angle(tfim_chain(8, 1.0, 0.15)) == pytest.approx(0.0375)
    assert first_order_angle(tfim_chain(8, 1.0, 1.0)) == 0.25 == PERTURBATIVE_ANGLE
    xx, zz = PauliString.from_label("XX"), PauliString.from_label("ZZ")
    diagonal = HamiltonianModel((1.0, 1.0), (Coupling(0.1, xx), Coupling(0.01, zz)))
    assert first_order_angle(diagonal) == math.inf
    silent = HamiltonianModel((1.0, 1.5), (Coupling(0.1, xx), Coupling(0.0, zz)))
    assert first_order_angle(silent) == pytest.approx(0.1 / 5.0)
    assert first_order_angle(HamiltonianModel((1.0, 1.0), ())) == 0.0
    inverted = HamiltonianModel((1.0, -1.0), (Coupling(0.1, xx),))
    assert first_order_angle(inverted) == math.inf
    plist = build_priority_list(tfim_chain(2, 1.0, 0.15), None, 2)
    budgets = [
        hierarchy_sweep(model, plist, 0).budget
        for model in (tfim_chain(2, 1.0, 0.15), tfim_chain(2, 1.0, 1.0), diagonal)
    ]
    assert budgets == ["perturbative", "full", "full"]
    assert json.loads(sweep_thetas_json(hierarchy_sweep(diagonal, plist, 0)))[
        "first_order_angle"] is None


def _record_optimize(monkeypatch):
    """Replace the sweep's optimize by one that records, per call, the unit
    count, the positional and keyword arguments after the start, and the
    iterations run."""
    calls = []
    run = pertvqe.vqe.optimize

    def recorded(ansatz, model, theta0, *args, **kwargs):
        out = run(ansatz, model, theta0, *args, **kwargs)
        calls.append((ansatz.num_params, args, kwargs, out.iterations))
        return out

    monkeypatch.setattr(pertvqe.vqe, "optimize", recorded)
    return calls


def _per_step(calls, n_p_max):
    return [[c for c in calls if c[0] == n] for n in range(1, n_p_max + 1)]


def test_weak_sweep_runs_the_warm_start_alone(monkeypatch):
    calls = _record_optimize(monkeypatch)
    model = tfim_chain(4, 1.0, 0.15)
    result = hierarchy_sweep(model, build_priority_list(model, None, 4, "pert", "parent"), 7)
    assert result.budget == "perturbative"
    for step in _per_step(calls, 7):
        assert len(step) == 1
        (_, args, kwargs, iterations), = step
        assert args[0] == 0 and "restarts" not in kwargs
        assert iterations > pertvqe.vqe.STALL_ITERATIONS
    assert all(s.reruns == 0 and s.start == "warm" for s in result.steps)


def test_strong_sweep_keeps_the_full_budget(monkeypatch):
    calls = _record_optimize(monkeypatch)
    construction = tfim_chain(4, 1.0, 0.15)
    plist = build_priority_list(construction, None, 4, "pert", "parent")
    result = hierarchy_sweep(tfim_chain(4, 1.0, 6.0), plist, 4)
    assert result.budget == "full" and result.first_order_angle == 1.5
    for step in _per_step(calls, 4):
        warm, *randoms = step
        assert warm[1][0] == 3 and "restarts" not in warm[2]
        assert len(randoms) == 2
        assert all(kwargs["restarts"] == 0 for _, _, kwargs, _ in randoms)
    # a warm run that converged did so without a perturbed rerun
    for step in result.steps:
        if (step.start == "warm" and step.converged
                and not step.message.startswith("start kept")):
            assert step.reruns == 0


def test_stalled_weak_sweep_starts_over_under_the_full_budget(monkeypatch):
    # rev adds units whose gradient vanishes at the warm start, so a warm run
    # stalls; the sweep then repeats under the full budget from the same
    # generator state and matches a sweep forced onto that budget bit for bit
    construction = tfim_chain(4, 1.0, 0.15)
    plist = build_priority_list(construction, None, 4, "rev")
    calls = _record_optimize(monkeypatch)
    evaluations = []
    recorded = pertvqe.vqe.optimize

    def counted(*args, **kwargs):
        out = recorded(*args, **kwargs)
        evaluations.append(out.evaluations)
        return out

    monkeypatch.setattr(pertvqe.vqe, "optimize", counted)
    rng = np.random.default_rng(5)
    result = hierarchy_sweep(construction, plist, 7, rng=rng)
    assert result.budget == "full" and result.first_order_angle == pytest.approx(0.0375)
    # the perturbative pass runs the warm start alone up to its first stall
    alone = [c for c in calls if "restarts" not in c[2] and c[1][0] == 0]
    assert calls[:len(alone)] == alone
    stalled = [its <= pertvqe.vqe.STALL_ITERATIONS for *_, its in alone]
    assert stalled == [False] * (len(alone) - 1) + [True]
    # and the result records what that discarded pass cost
    discarded = result.discarded_pass
    assert discarded.stalled_at == alone[-1][0] == len(alone)
    assert discarded.evaluations == sum(evaluations[:len(alone)]) > 0
    assert discarded.seconds > 0
    assert json.loads(sweep_thetas_json(result))["discarded_pass"] == {
        "stalled_at": discarded.stalled_at, "evaluations": discarded.evaluations,
        "seconds": discarded.seconds}
    # then every step makes the warm call with reruns and two random starts
    assert [(n, args[0]) for n, args, kwargs, _ in calls[len(alone):]
            if "restarts" not in kwargs] == [(n, 3) for n in range(1, 8)]
    assert len(calls) == len(alone) + 7 * 3

    monkeypatch.setattr(pertvqe.vqe, "PERTURBATIVE_ANGLE", 0.0)
    forced_rng = np.random.default_rng(5)
    forced = hierarchy_sweep(construction, plist, 7, rng=forced_rng)
    assert forced.budget == "full" and forced.discarded_pass is None
    assert [r.energy for r in result.rows] == [r.energy for r in forced.rows]
    assert [r.theta for r in result.rows] == [r.theta for r in forced.rows]
    assert [s.start for s in result.steps] == [s.start for s in forced.steps]
    assert rng.bit_generator.state == forced_rng.bit_generator.state


def test_stall_restart_rewinds_the_generator(monkeypatch):
    # the warm run at unit 5, cut to 3 iterations, ends unconverged; a
    # perturbative warm run has no rerun to draw a perturbation for, so the
    # perturbative pass leaves the generator as it found it, and a stall
    # forced at unit 6 starts the full budget from that same state
    run = pertvqe.vqe.optimize
    perturbative = []

    def stall_at_six(ansatz, model, theta0, *args, **kwargs):
        if args != (0,):
            return run(ansatz, model, theta0, *args, **kwargs)
        state = kwargs["rng"].bit_generator.state
        with monkeypatch.context() as patch:
            if ansatz.num_params == 5:
                patch.setattr(pertvqe.vqe, "MAX_ITERATIONS", 3)
            out = run(ansatz, model, theta0, *args, **kwargs)
        perturbative.append((out.converged, kwargs["rng"].bit_generator.state == state))
        if ansatz.num_params == 6:
            out = replace(out, iterations=0)
        return out

    monkeypatch.setattr(pertvqe.vqe, "optimize", stall_at_six)
    model = tfim_chain(4, 1.0, 0.15)
    plist = build_priority_list(model, None, 4, "pert", "parent")
    rng = np.random.default_rng(5)
    result = hierarchy_sweep(model, plist, 7, rng=rng)
    monkeypatch.setattr(pertvqe.vqe, "PERTURBATIVE_ANGLE", 0.0)
    forced_rng = np.random.default_rng(5)
    forced = hierarchy_sweep(model, plist, 7, rng=forced_rng)
    assert result.budget == forced.budget == "full"
    assert len(perturbative) == 6 and not perturbative[4][0]
    assert all(untouched for _, untouched in perturbative)
    assert [r.theta for r in result.rows] == [r.theta for r in forced.rows]
    assert rng.bit_generator.state == forced_rng.bit_generator.state

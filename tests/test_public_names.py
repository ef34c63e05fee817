"""The public surface of ``pertvqe``, pinned: a change that adds or drops a
name edits this list and says so in CHANGES.md."""

import inspect

import pertvqe

PUBLIC_NAMES = [
    "AnsatzUnit", "CoefficientTable", "Coupling", "DegeneracyError", "Diagram",
    "DiscardedPass", "GeneratorSlot", "HamiltonianModel", "LevelSpec", "MultiIndex",
    "OptimizationOutcome", "PauliString", "PriorityList", "ProductAnsatz",
    "StabilizerAnsatzSpec", "SweepResult", "SweepRow", "SweepStep", "ThetaEstimate",
    "ThetaEstimator", "apply_rotation", "basis_state", "build_diagram",
    "build_priority_list", "build_qca", "check_matched", "energy",
    "energy_and_gradient", "enforce_conjugation", "enforce_symmetry",
    "enumerate_connected", "enumerate_leading", "exact_ground",
    "export_dot", "fidelity", "fix_parameter", "gram_matrix", "hierarchy_sweep",
    "is_disconnected_split", "manifold_area", "optimize",
    "perturbative_state", "prepare", "qca_slot", "remove_parameter",
    "respects_conjugation", "series_residual", "sweep_thetas_json", "sweep_to_csv", "tfim_chain", "unperturbed_energy",
]


def test_public_names_are_pinned():
    # submodules are left out: which of them are attributes depends on what
    # the process has imported
    names = sorted(name for name, value in vars(pertvqe).items()
                   if not name.startswith("_") and not inspect.ismodule(value))
    assert names == PUBLIC_NAMES

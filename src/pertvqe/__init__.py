"""Perturbation-ordered product ansatzes for variational ground-state search."""

from .ansatz import (
    AnsatzUnit,
    LevelSpec,
    StabilizerAnsatzSpec,
    ProductAnsatz,
    build_qca,
    enforce_conjugation,
    enforce_symmetry,
    fix_parameter,
    remove_parameter,
    respects_conjugation,
)
from .diagrams import (
    Diagram,
    build_diagram,
    enumerate_connected,
    enumerate_leading,
    export_dot,
    is_disconnected_split,
)
from .hierarchy import (
    GeneratorSlot,
    PriorityList,
    ThetaEstimate,
    ThetaEstimator,
    build_priority_list,
    check_matched,
    qca_slot,
)
from .pauli import (
    MultiIndex,
    PauliString,
    unperturbed_energy,
)
from .perturbation import (
    CoefficientTable,
    Coupling,
    DegeneracyError,
    HamiltonianModel,
    exact_ground,
    perturbative_state,
    series_residual,
    tfim_chain,
)
from .simulator import (
    apply_rotation,
    basis_state,
    energy,
    energy_and_gradient,
    fidelity,
    prepare,
)
from .vqe import (
    DiscardedPass,
    OptimizationOutcome,
    SweepResult,
    SweepRow,
    SweepStep,
    hierarchy_sweep,
    optimize,
    sweep_thetas_json,
    sweep_to_csv,
)

__version__ = "0.1.0"

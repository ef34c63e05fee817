"""Product-ansatz data model, the layered stabilizer-group constructor and
symmetry compression.

An ansatz is an ordered list of rotation units exp(i * scale * theta * T)
with Hermitian Pauli generators T, applied to a computational basis start
state (unit 0 acts first).  Several units may share one parameter index.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from .pauli import PauliString


@dataclass(frozen=True)
class AnsatzUnit:
    generator: PauliString
    param_index: int
    scale: float = 1.0

    def __post_init__(self):
        if self.param_index < 0:
            raise ValueError("parameter index must be non-negative")
        if not self.generator.is_basis_element:
            raise ValueError("generator must be a positive Hermitian string")


@dataclass(frozen=True)
class ProductAnsatz:
    n_qubits: int
    units: tuple[AnsatzUnit, ...]
    start_state: int = 0
    num_params: int = 0

    def __post_init__(self):
        for u in self.units:
            if u.generator.n_qubits != self.n_qubits:
                raise ValueError("unit qubit count mismatch")
            if u.param_index >= self.num_params:
                raise ValueError("parameter index out of range")
        if self.start_state >> self.n_qubits:
            raise ValueError("start state outside register")

    @property
    def n_units(self) -> int:
        return len(self.units)


@dataclass(frozen=True)
class LevelSpec:
    """One layer of a stabilizer ansatz: a commuting independent generator
    set on the earlier qubits, a starting bit for this level's qubit, and an
    orthogonal pair of single-qubit rotation axes that move that start."""

    stabilizers: tuple[PauliString, ...]
    start_bit: int = 0
    rotations: tuple[str, str] = ("X", "Y")


@dataclass(frozen=True)
class StabilizerAnsatzSpec:
    levels: tuple[LevelSpec, ...]

    def __post_init__(self):
        n = len(self.levels)
        for level, spec in enumerate(self.levels):
            if spec.start_bit not in (0, 1):
                raise ValueError("start bit must be 0 or 1")
            r0, r1 = spec.rotations
            # computational starts demand off-diagonal, mutually orthogonal axes
            if r0 not in ("X", "Y") or r1 not in ("X", "Y") or r0 == r1:
                raise ValueError("rotation pair must be two distinct axes in {X, Y}")
            if len(spec.stabilizers) != level:
                raise ValueError(
                    f"level {level} needs {level} stabilizer generators"
                )
            earlier = (1 << level) - 1
            for s in spec.stabilizers:
                if s.n_qubits != n:
                    raise ValueError("stabilizer qubit count mismatch")
                if not s.is_basis_element or s.is_identity:
                    raise ValueError("stabilizers must be nontrivial Hermitian strings")
                if (s.x_mask | s.z_mask) & ~earlier:
                    raise ValueError("stabilizers may only touch earlier qubits")
            for a, b in itertools.combinations(spec.stabilizers, 2):
                if not a.commutes_with(b):
                    raise ValueError("stabilizer generators must commute")
            if not _independent(spec.stabilizers, n):
                raise ValueError("stabilizer generators must be independent")

    @property
    def n_qubits(self) -> int:
        return len(self.levels)

    def build(self) -> ProductAnsatz:
        """Expand level by level: for every element of the stabilizer group
        (generator subsets in binary counting order) emit the two rotations
        R0*S then R1*S on this level's qubit, one fresh parameter each."""
        n = self.n_qubits
        start = 0
        for level, spec in enumerate(self.levels):
            start |= spec.start_bit << level
        units = []
        for level, spec in enumerate(self.levels):
            for subset in range(1 << level):
                element = PauliString.identity(n)
                for i in range(level):
                    if (subset >> i) & 1:
                        element = element * spec.stabilizers[i]
                # group elements are defined up to sign; fold a -1 into the angle
                element = PauliString(
                    n, element.x_mask, element.z_mask,
                    (element.x_mask & element.z_mask).bit_count() % 4,
                )
                for axis in spec.rotations:
                    gen = element * PauliString.from_ops(n, {level: axis})
                    units.append(AnsatzUnit(gen, len(units)))
        return ProductAnsatz(n, tuple(units), start, len(units))


def _independent(stabilizers, n_qubits) -> bool:
    """GF(2) rank check on the symplectic rows: no generator subset may
    multiply to the identity."""
    rows = [s.x_mask | (s.z_mask << n_qubits) for s in stabilizers]
    basis = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row == 0:
            return False
        basis.append(row)
    return True


def build_qca(n_qubits: int) -> ProductAnsatz:
    """Layered ansatz over X-generated stabilizer groups.

    Level n (qubit n) contributes, for every subset S of X operators on the
    earlier qubits, the two units X_n*S and Y_n*S, giving 2^n units per
    level and 2*(2^N - 1) parameters in total.  Subsets are enumerated in
    binary counting order and the X unit precedes the Y unit, so the unit
    reaching a state has a closed form, ``hierarchy.qca_slot``, which the
    estimator uses instead of building this list.
    """
    if n_qubits < 1:
        raise ValueError("register must hold at least one qubit")
    spec = StabilizerAnsatzSpec(
        tuple(
            LevelSpec(
                stabilizers=tuple(
                    PauliString.from_ops(n_qubits, {i: "X"}) for i in range(level)
                ),
            )
            for level in range(n_qubits)
        )
    )
    return spec.build()


def _drop_parameters(ansatz: ProductAnsatz, dropped: set[int]) -> ProductAnsatz:
    """Delete every unit carrying a dropped parameter and renumber the
    remaining parameters in their old order."""
    kept = [p for p in range(ansatz.num_params) if p not in dropped]
    index = {p: n for n, p in enumerate(kept)}
    units = tuple(replace(u, param_index=index[u.param_index])
                  for u in ansatz.units if u.param_index in index)
    return ProductAnsatz(ansatz.n_qubits, units, ansatz.start_state, len(kept))


def remove_parameter(ansatz: ProductAnsatz, index: int) -> ProductAnsatz:
    """Delete every unit carrying the parameter and compact the indices."""
    if not 0 <= index < ansatz.num_params:
        raise ValueError(f"parameter {index} out of range")
    return _drop_parameters(ansatz, {index})


def fix_parameter(ansatz: ProductAnsatz, i: int, j: int, c: float) -> ProductAnsatz:
    """Tie parameter i to c * parameter j by rescaling the affected
    generators; the unit count is unchanged and one parameter disappears."""
    if i == j:
        raise ValueError("cannot fix a parameter to itself")
    for idx in (i, j):
        if not 0 <= idx < ansatz.num_params:
            raise ValueError(f"parameter {idx} out of range")
    tied = tuple(replace(u, param_index=j, scale=u.scale * c) if u.param_index == i else u
                 for u in ansatz.units)
    return _drop_parameters(replace(ansatz, units=tied), {i})


def respects_conjugation(generator: PauliString) -> bool:
    """Whether exp(i theta T) commutes with complex conjugation for every
    angle, i.e. whether i*T is a real matrix (odd number of Y factors)."""
    return generator.y_count % 2 == 1


def enforce_conjugation(ansatz: ProductAnsatz) -> ProductAnsatz:
    """Remove every parameter whose units break conjugation symmetry."""
    return _drop_parameters(ansatz, {
        u.param_index for u in ansatz.units if not respects_conjugation(u.generator)
    })


def enforce_symmetry(ansatz: ProductAnsatz, symmetry: PauliString) -> ProductAnsatz:
    """Remove every parameter owning a generator that anticommutes with the
    Pauli symmetry S, so every kept unit commutes with S.

    Tying the offending units to one angle instead keeps no direction: for
    anticommuting T_m, sum_m c_m [S, T_m] = 2 S sum_m c_m T_m vanishes only
    if sum_m c_m T_m = 0, so a block of commuting tied units is the
    identity.  A tie that moves the state needs a symmetry that is a sum
    of Pauli strings.
    """
    if symmetry.n_qubits != ansatz.n_qubits:
        raise ValueError("symmetry qubit count mismatch")
    return _drop_parameters(ansatz, {
        u.param_index for u in ansatz.units if not u.generator.commutes_with(symmetry)
    })


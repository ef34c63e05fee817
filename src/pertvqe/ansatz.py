"""Product-ansatz data model, the layered parent ansatz in closed form and
symmetry compression.

An ansatz is an ordered list of rotation units exp(i * scale * theta * T)
with Hermitian Pauli generators T, applied to a computational basis start
state (unit 0 acts first).  Several units may share one parameter index.

The layered parent ``build_qca`` holds, for every nonzero basis state s and
phase class a, one unit reaching i^a |s> from |0>; ``qca_slot`` gives that
unit and its position in closed form.
"""

from __future__ import annotations

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
class GeneratorSlot:
    """A generator T with T|0> = i^a |state>, at its parent-circuit position."""

    state: int
    a: int
    generator: PauliString
    parent_position: int


def qca_slot(n_qubits: int, state: int, a: int) -> GeneratorSlot:
    """The unit of ``build_qca(n_qubits)`` reaching |state> with phase class
    a, in closed form.

    With L the top set bit of state, the generator is X on the other set
    bits of state times X (a=0) or Y (a=1) on qubit L: x mask = state,
    z mask = a * 2^L, one Y iff a = 1.  Units run in ascending state, the
    X unit before the Y unit, so the position is 2 (state - 1) + a.
    """
    if not 0 < state < 1 << n_qubits or a not in (0, 1):
        raise ValueError(f"no parent slot reaches ({state}, {a})")
    top = state.bit_length() - 1
    generator = PauliString(n_qubits, state, a << top, a)
    return GeneratorSlot(state, a, generator, 2 * (state - 1) + a)


def build_qca(n_qubits: int) -> ProductAnsatz:
    """Layered ansatz over X-generated stabilizer groups, from its closed
    form ``qca_slot``.

    Level L (qubit L) contributes, for every subset S of X operators on the
    earlier qubits, the two units X_L*S and Y_L*S, giving 2^L units per
    level and 2*(2^N - 1) units in total, one parameter each.  Subsets run
    in binary counting order and the X unit precedes the Y unit, so the
    unit at position 2 (s - 1) + a, which reaches |s> from |0> with phase
    class a, is ``qca_slot(n_qubits, s, a)``.
    """
    if n_qubits < 1:
        raise ValueError("register must hold at least one qubit")
    slots = (qca_slot(n_qubits, s, a) for s in range(1, 1 << n_qubits) for a in (0, 1))
    units = tuple(AnsatzUnit(slot.generator, slot.parent_position) for slot in slots)
    return ProductAnsatz(n_qubits, units, 0, len(units))


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


"""Rotation-angle estimation with back-action subtraction, the matched
ansatz check, and priority-list construction.

Each connected leading diagram k ties a target basis state and a phase class
to one slot generator of a generating ansatz.  An angle is fixed for every
connected index k with a non-reference target that lies below some leading
index, leading or subleading, in ascending order:

    theta(k) = sign(k) * [ J^k * C_k  -  sum_f Theta(f) * bracket(f) ]

where C_k is the unit-norm ground-state coefficient, f runs over multisets of
previously fixed indices (subleading ones included) whose multi-indices sum
to k, Theta(f) is the product of their angles divided by multiplicity
factorials, and bracket(f) in {-1, +1} is the vacuum amplitude of the
coupling power against the slot-generator product in parent-ansatz unit
order (one factor of -i per unit absorbs the rotation expansion so the
bracket is real).  The sum over f is the J^k coefficient of the product
state built from the lower-order angles, so it is read off one propagation
of that state's multi-index series through the parent circuit per order.

With all those angles fixed, the slot angles sum_k theta(k) reproduce the
ground state through every leading order, so a slot's estimate, the summed
angles of its leading indices, is the leading Taylor coefficient of the
angle that prepares the exact ground state.  Disconnected indices get no
angle: theirs cancels exactly (size extensivity).

Sign convention: the reported angles match rotations exp(-i theta T); to
drive the exp(+i theta T) units of the simulator toward the perturbative
ground state, negate them.  The slot phase class is
a(k) = (red parity + 1) mod 2 because each rotation contributes one factor
of i on top of the generator-product phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby, product
from operator import sub
from typing import Sequence

import numpy as np

from .ansatz import AnsatzUnit, ProductAnsatz
from .diagrams import enumerate_leading, is_disconnected_split
from .pauli import MultiIndex, PauliString, format_bits
from .perturbation import CoefficientTable, HamiltonianModel


@dataclass(frozen=True)
class GeneratorSlot:
    """A generator T with T|0> = i^a |state>, at its parent-circuit position."""

    state: int
    a: int
    generator: PauliString
    parent_position: int


@dataclass(frozen=True)
class ThetaEstimate:
    slot: GeneratorSlot
    leading_ks: tuple[MultiIndex, ...]
    theta_tilde: float
    j_weight: float


def check_matched(ansatz: ProductAnsatz) -> bool:
    """Sufficient compactness condition: every generator acts non-trivially
    only on qubits it flips (no Z factor outside the X support)."""
    return all(
        (u.generator.z_mask & ~u.generator.x_mask) == 0 for u in ansatz.units
    )


def qca_slot(n_qubits: int, state: int, a: int) -> GeneratorSlot:
    """The slot of ``build_qca(n_qubits)`` reaching |state> with phase class
    a, in closed form, without building the parent.

    With L the top set bit of state and low = state & (2^L - 1), the
    generator is X on the bits of low times X (a=0) or Y (a=1) on qubit L:
    x mask = state, z mask = a * 2^L, one Y iff a = 1.  Level L of the
    parent starts at position 2 (2^L - 1) and holds one X, Y pair per
    subset low in binary counting order.
    """
    if not 0 < state < 1 << n_qubits or a not in (0, 1):
        raise ValueError(f"no parent slot reaches ({state}, {a})")
    top = state.bit_length() - 1
    low = state & ((1 << top) - 1)
    generator = PauliString(n_qubits, state, a << top, a)
    return GeneratorSlot(state, a, generator, 2 * ((1 << top) - 1 + low) + a)


class ThetaEstimator:
    """Fixes per-diagram angles on the slots of the layered parent ansatz
    (``build_qca``) and exposes the contribution formula for arbitrary
    multi-indices.

    Slots come from the closed form ``qca_slot``; the parent is never
    built.  ``ansatz`` may be None, or the parent itself, which is then
    checked: matched, of the parent's size, and holding each used slot's
    generator at its parent position.  ``slots`` holds the used slots.

    ``_fixed`` lists (k, theta, slot) for every connected index k with a
    non-reference target below some leading index, in ascending order: the
    leading indices, which ``estimates`` reports, and the subleading ones,
    whose angles only enter the back-action of higher orders.
    """

    def __init__(
        self, model: HamiltonianModel, ansatz: ProductAnsatz | None, k_max: int
    ):
        self.model = model
        self.slots: dict[tuple[int, int], GeneratorSlot] = {}
        self.table = CoefficientTable(model)
        self.leading = enumerate_leading(model, k_max)
        self._fixed: list[tuple[MultiIndex, float, GeneratorSlot]] = []
        self._run(ansatz)

    # -- slot helpers --------------------------------------------------------
    def slot_for(self, k: Sequence[int]) -> GeneratorSlot:
        state, gamma = self.table.state_phase(k)
        key = (state, (gamma + 1) % 2)
        slot = self.slots.get(key)
        if slot is None:
            slot = self.slots[key] = qca_slot(self.model.n_qubits, *key)
        return slot

    @staticmethod
    def _sign(gamma: int) -> float:
        # i^(Gp - a) with Gp = gamma + 1 and a = Gp mod 2 collapses to +-1.
        return 1.0 if (gamma + 1) % 4 in (0, 1) else -1.0

    # -- core ------------------------------------------------------------------
    def _run(self, ansatz: ProductAnsatz | None) -> None:
        down: set[MultiIndex] = set()
        for group in self.leading.values():
            for k in group:
                down.update(k.sub_indices())
        ks = sorted(
            (
                k for k in down
                if self.table.state_phase(k)[0] != 0
                and is_disconnected_split(self.model, k) is None
            ),
            key=lambda k: (k.order, tuple(k)),
        )
        slots = [self.slot_for(k) for k in ks]
        if ansatz is not None:
            _check_parent(ansatz, self.model.n_qubits, self.slots.values())
        series = _ProductSeries(self.table, down, ks, slots)
        thetas = [0.0] * len(ks)
        for _, same_order in groupby(range(len(ks)), key=lambda i: ks[i].order):
            # every lower-order angle is fixed, so at this order the product
            # state's coefficients are exactly the back-actions
            back = series.coefficients(thetas)
            for i in same_order:
                thetas[i] = self._theta_for(ks[i], back.get(ks[i], 0.0))
                self._fixed.append((ks[i], thetas[i], slots[i]))

    def _theta_for(self, k: MultiIndex, back: float) -> float:
        state, gamma = self.table.state_phase(k)
        if state == 0:
            raise ValueError("no generator target: coupling power is diagonal")
        lead = self.model.coupling_monomial(k) * self.table.normalized(k)
        return self._sign(gamma) * (lead - back)

    def contribution(self, k: Sequence[int]) -> float:
        """The would-be angle for an arbitrary multi-index given the current
        fixed set; vanishes for support-disconnected indices whose parts are
        themselves fixed diagrams."""
        k = MultiIndex(k)
        fixed = [f for f in self._fixed if k.dominates(f[0])]
        series = _ProductSeries(self.table, set(k.sub_indices()),
                                [f[0] for f in fixed], [f[2] for f in fixed])
        # only strictly lower orders reach k without being k itself
        thetas = [theta if fk.order < k.order else 0.0 for fk, theta, _ in fixed]
        return self._theta_for(k, series.coefficients(thetas).get(k, 0.0))

    # -- results -----------------------------------------------------------------
    def estimates(self) -> list[ThetaEstimate]:
        """One estimate per slot with a leading diagram: the summed angles of
        its leading indices."""
        leading = {k for group in self.leading.values() for k in group}
        by_slot: dict[GeneratorSlot, list[tuple[MultiIndex, float]]] = {}
        for k, theta, slot in self._fixed:
            if k in leading:
                by_slot.setdefault(slot, []).append((k, theta))
        out = []
        for slot, entries in by_slot.items():
            ks = tuple(sorted(k for k, _ in entries))
            theta = sum(theta for _, theta in entries)
            weight = sum(self.model.coupling_monomial(k) for k in ks)
            out.append(ThetaEstimate(slot, ks, theta, weight))
        out.sort(key=lambda e: (e.leading_ks[0].order, e.slot.state, e.slot.a))
        return out


class _ProductSeries:
    """Multi-index series of the product state prod_s exp(-i theta_s T_s)|0>
    over the slots in parent-ansatz unit order, where each slot angle is the
    sum of the angles of its indices, truncated to a down-closed index set.
    ``slots[i]`` is the slot of ``ks[i]``, as the estimator looked it up.

    Expanding exp(-i theta_s T_s) over multisets of a slot's indices gives
    one term per reachable sum c, with real coefficient
    sum (-1)^(n // 2) prod theta^m / m! over multisets of size n, times
    (-i T_s) for odd n.  Every coefficient of the state at J^q lies on the
    basis state V^{.q} reaches, as i^gamma(q) times a real number; those
    reals are what ``coefficients`` returns.  Each term moves the
    coefficient at p to p + c with a fixed sign, so the (p, p + c, sign)
    pairs are built once and every evaluation is a single sweep.
    """

    def __init__(self, table: CoefficientTable, down: set,
                 ks: Sequence[MultiIndex], slots: Sequence[GeneratorSlot]):
        self._zero = MultiIndex.zero(table.model.n_couplings)
        by_slot: dict[int, list[int]] = {}
        generators = {}
        for i, slot in enumerate(slots):
            generators[slot.parent_position] = slot.generator
            by_slot.setdefault(slot.parent_position, []).append(i)
        # per slot, in parent order: {c: [(multiplicities, n), ...]}
        self._slots: list[dict[tuple, list]] = []
        # (-i) T_s |s> = i^(phase - 1) (-1)^popcount(z & s) |s ^ x>: per c, the
        # z mask and phase offset of its term; an even term acts as identity
        flips: dict[tuple, tuple[int, int]] = {}
        for pos in sorted(by_slot):
            terms = _multisets([(i, ks[i]) for i in by_slot[pos]], down)
            self._slots.append(terms)
            for c, sets in terms.items():
                # the state c reaches fixes the size parity of its multisets
                if sets[0][1] % 2:
                    gen = generators[pos]
                    flips[c] = (gen.z_mask, gen.phase_exp - 1)
                else:
                    flips.setdefault(c, (0, 0))
        phase = {q: table.state_phase(q) for q in down}
        # a q gets at most one pair per c, so no visiting order changes a sum
        self._pairs: dict[tuple, list[tuple[tuple, tuple, float]]] = {
            c: [] for c in flips
        }
        for q in down:
            _, g_q = phase[q]
            for c in product(*[range(count + 1) for count in q]):
                flip = flips.get(c)
                if flip is None:
                    continue
                p = tuple(map(sub, q, c))  # c <= q: unchecked
                s_p, g_p = phase[p]
                rel = flip[1] + 2 * (flip[0] & s_p).bit_count() + g_p - g_q
                if rel % 2:
                    raise AssertionError("back-action bracket is not real")
                self._pairs[c].append((p, q, 1.0 if rel % 4 == 0 else -1.0))

    def coefficients(self, thetas: Sequence[float]) -> dict[tuple, float]:
        coeff = {self._zero: 1.0}
        for terms in self._slots:
            weights = []
            for c, sets in terms.items():
                w = 0.0
                for mults, n in sets:
                    term = -1.0 if (n // 2) % 2 else 1.0
                    for i, m in mults:
                        term *= thetas[i] ** m / math.factorial(m)
                    w += term
                if w != 0.0:
                    weights.append((c, w))
            # every move reads the coefficients from before this slot
            moves = {}
            for c, w in weights:
                for p, q, sign in self._pairs[c]:
                    r = coeff.get(p)
                    if r is not None:
                        moves[q] = moves.get(q, coeff.get(q, 0.0)) + sign * w * r
            coeff.update(moves)
        return coeff


def _multisets(items: list[tuple[int, MultiIndex]], down: set) -> dict:
    """Non-empty multisets of ``items`` whose index sums stay in ``down``,
    keyed by that sum: {c: [(((item, multiplicity), ...), size), ...]}."""
    out: dict[tuple, list] = {}

    def grow(i: int, c: tuple, mults: tuple, n: int) -> None:
        if i == len(items):
            if n:
                out.setdefault(c, []).append((mults, n))
            return
        grow(i + 1, c, mults, n)
        index, k = items[i]
        m = 1
        nxt = k.add(c)
        while nxt in down:
            grow(i + 1, nxt, mults + ((index, m),), n + m)
            m += 1
            nxt = k.add(nxt)

    grow(0, MultiIndex.zero(len(items[0][1])), (), 0)
    return out


def _check_parent(ansatz: ProductAnsatz, n_qubits: int, slots) -> None:
    """Raise unless ``ansatz`` is matched, has the parent's size, and holds
    each of ``slots``' generators at its parent position: O(len(slots)),
    not a scan of the 2^n states."""
    if ansatz.n_qubits != n_qubits:
        raise ValueError("ansatz and model qubit counts differ")
    if not check_matched(ansatz):
        raise ValueError(
            "ansatz is not matched; estimates would need disconnected "
            "bookkeeping this construction avoids"
        )
    if ansatz.start_state != 0 or ansatz.n_units != 2 * ((1 << n_qubits) - 1):
        raise ValueError("ansatz is not the layered parent build_qca builds")
    for slot in slots:
        unit = ansatz.units[slot.parent_position]
        if unit.generator != slot.generator or unit.scale != 1.0:
            raise ValueError(
                f"ansatz is not the layered parent build_qca builds: unit "
                f"{slot.parent_position} is not {slot.generator.to_label()}"
            )


def duplication_defect(
    single: HamiltonianModel, doubled: HamiltonianModel
) -> tuple[float, int]:
    """Size extensivity (acceptance criterion 6) of fourth-order estimates
    on layered ansatzes, for ``doubled`` = two disjoint copies of ``single``,
    the first copy's qubits and couplings before the second's.  Returns the
    largest change of a ``single`` angle lifted onto either copy (inf if the
    lifted index has none) and the number of estimates on slots acting on
    both copies; both are zero for a size-extensive construction."""
    est_single = ThetaEstimator(single, None, 4)
    est_double = ThetaEstimator(doubled, None, 4)
    doubles = {tuple(k): v for k, v, _ in est_double._fixed}
    pad = (0,) * single.n_couplings
    worst = 0.0
    for k, v, _ in est_single._fixed:
        for lifted in (tuple(k) + pad, pad + tuple(k)):
            worst = max(worst, abs(doubles.get(lifted, math.inf) - v))
    n = single.n_qubits
    states = [e.slot.state for e in est_double.estimates()]
    return worst, sum(1 for s in states if s >> n and s % (1 << n))


MODES = ("pert", "rev", "2loc", "loc")
ORDERINGS = ("hierarchy", "parent")


@dataclass(frozen=True)
class PriorityList:
    """Ranked generator list; looping modes recycle their base list with
    fresh parameters on every pass."""

    mode: str
    ordering: str
    n_qubits: int
    entries: tuple[ThetaEstimate, ...]

    @property
    def loops(self) -> bool:
        return self.mode in ("2loc", "loc")

    def selection(self, m: int) -> list[tuple[ThetaEstimate, int]]:
        """First m (estimate, pass index) picks."""
        if not self.entries:
            raise ValueError(f"{self.mode} priority list is empty")
        if m > len(self.entries) and not self.loops:
            raise ValueError(
                f"{self.mode} list holds {len(self.entries)} units, {m} requested"
            )
        return [
            (self.entries[i % len(self.entries)], i // len(self.entries))
            for i in range(m)
        ]

    def build_ansatz(self, m: int) -> ProductAnsatz:
        picks = self.selection(m)
        order = range(len(picks))
        if self.ordering == "parent":
            order = sorted(
                order,
                key=lambda i: (picks[i][0].slot.parent_position, picks[i][1]),
            )
        units = tuple(
            AnsatzUnit(picks[i][0].slot.generator, i) for i in order
        )
        return ProductAnsatz(self.n_qubits, units, 0, m)


def _is_nearest_neighbour_pair(generator: PauliString) -> bool:
    # a support of two adjacent qubits is its lowest bit times 0b11
    mask = generator.x_mask | generator.z_mask
    return mask != 0 and mask == (mask & -mask) * 3


def build_priority_list(
    model: HamiltonianModel,
    ansatz: ProductAnsatz | None,
    k_max: int,
    mode: str = "pert",
    ordering: str = "hierarchy",
    tie_seed: int | None = None,
) -> PriorityList:
    """Rank estimated generators by descending angle magnitude.

    pert takes the full ranking (which reproduces ascending diagram order
    whenever couplings are small against the fields); rev reverses it; 2loc
    keeps generators of weight <= 2 and loc keeps nearest-neighbour pairs,
    both looping when more units are requested than survive the filter.
    Exact magnitude ties are broken by (leading order, generator label), or
    shuffled reproducibly when a tie seed is given.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if ordering not in ORDERINGS:
        raise ValueError(f"unknown ordering {ordering!r}")
    estimates = ThetaEstimator(model, ansatz, k_max).estimates()
    # Ties (symmetry-equivalent generators) fall back to parent-circuit
    # position, which runs up the chain; label order is the last resort.
    ranked = sorted(
        estimates,
        key=lambda e: (
            -abs(e.theta_tilde),
            e.leading_ks[0].order,
            e.slot.parent_position,
            e.slot.generator.to_label(),
        ),
    )
    if tie_seed is not None:
        rng = np.random.default_rng(tie_seed)
        ranked = _shuffle_ties(ranked, rng)
    if mode == "rev":
        ranked = list(reversed(ranked))
    elif mode == "2loc":
        ranked = [e for e in ranked if e.slot.generator.weight <= 2]
    elif mode == "loc":
        ranked = [e for e in ranked if _is_nearest_neighbour_pair(e.slot.generator)]
    return PriorityList(mode, ordering, model.n_qubits, tuple(ranked))


def _shuffle_ties(ranked: list[ThetaEstimate], rng) -> list[ThetaEstimate]:
    out: list[ThetaEstimate] = []
    block: list[ThetaEstimate] = []

    def flush():
        out.extend(block[i] for i in rng.permutation(len(block)))
        block.clear()

    for e in ranked:
        if block and not math.isclose(
            abs(block[0].theta_tilde), abs(e.theta_tilde), rel_tol=1e-9, abs_tol=1e-15
        ):
            flush()
        block.append(e)
    flush()
    return out


def hierarchy_to_json(plist: PriorityList, model: HamiltonianModel) -> list[dict]:
    rows = []
    for rank, e in enumerate(plist.entries):
        rows.append(
            {
                "rank": rank,
                "pauli": e.slot.generator.to_label(),
                "s": format_bits(e.slot.state, model.n_qubits),
                "a": e.slot.a,
                "theta_tilde": e.theta_tilde,
                "j_weight": e.j_weight,
                "leading_ks": [list(k) for k in e.leading_ks],
            }
        )
    return rows

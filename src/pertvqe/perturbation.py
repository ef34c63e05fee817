"""Multivariate perturbation series of the ground state around the on-site
field term, with memoized coefficient recursion, and the exact ground state
it is checked against.

``HamiltonianModel.apply`` is the one Hamiltonian apply: the field diagonal
and each coupling's compiled Pauli action stacked into one gather
(``HamiltonianModel.gather``), with no matrix built.  The simulator's
energies and gradients go through it, and ``exact_ground``, the one exact
solver, runs Lanczos over it; ``series_residual`` measures the truncated
series against that ground state.  SciPy's Lanczos is imported inside
``exact_ground``, so the coefficient series and everything built on it run
without SciPy.

The Hamiltonian is  H = -sum_n h_n Z_n + sum_b J_b V_b  with Hermitian Pauli
couplings V_b.  For positive fields the all-zeros basis state is the
unperturbed ground state, and the intermediate-normalized ground state
expands as  sum_k J^k  C~_k  V^{.k} |0>.  Coefficients are real throughout;
phases live entirely in the Pauli bookkeeping of ``pertvqe.pauli``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, wraps
from itertools import product
from typing import Sequence

import numpy as np

from .pauli import (
    MultiIndex,
    PauliString,
    format_bits,
    iter_orders,
    unperturbed_energy,
)

_DEGENERACY_TOL = 1e-12
_LANCZOS_SEED = 0x5EED


class DegeneracyError(RuntimeError):
    """Raised when the recursion hits a state degenerate with the reference."""

    def __init__(self, bits: int, n_qubits: int):
        self.bits = bits
        self.n_qubits = n_qubits
        super().__init__(
            f"unperturbed state |{format_bits(bits, n_qubits)}> is degenerate "
            "with the reference state"
        )


@dataclass(frozen=True)
class Coupling:
    strength: float
    operator: PauliString


@dataclass(frozen=True)
class HamiltonianModel:
    """On-site fields plus a list of Pauli couplings."""

    fields: tuple[float, ...]
    couplings: tuple[Coupling, ...]

    def __post_init__(self):
        n = len(self.fields)
        for c in self.couplings:
            if c.operator.n_qubits != n:
                raise ValueError("coupling qubit count does not match fields")
            if not c.operator.is_basis_element:
                raise ValueError("couplings must be positive Hermitian strings")
            if c.operator.is_identity:
                raise ValueError("identity coupling is not allowed")

    @property
    def n_qubits(self) -> int:
        return len(self.fields)

    @property
    def n_couplings(self) -> int:
        return len(self.couplings)

    @property
    def operators(self) -> tuple[PauliString, ...]:
        return tuple(c.operator for c in self.couplings)

    @property
    def strengths(self) -> tuple[float, ...]:
        return tuple(c.strength for c in self.couplings)

    @cached_property
    def diagonal(self) -> np.ndarray:
        """The field term -sum_q h_q Z_q over all 2**n amplitude indices,
        built on first use and kept with the model."""
        idx = np.arange(1 << self.n_qubits)
        diag = np.zeros(idx.size)
        for q, h in enumerate(self.fields):
            diag -= h * (1.0 - 2.0 * ((idx >> q) & 1))
        return diag

    @property
    def terms(self) -> tuple[Coupling, ...]:
        """The couplings of nonzero strength: the ones H is made of."""
        return tuple(c for c in self.couplings if c.strength != 0.0)

    @cached_property
    def gather(self) -> tuple[np.ndarray, np.ndarray]:
        """H compiled as one stacked gather, ``H|psi> = (F * psi[P]).sum(0)``,
        built on first use and kept with the model: ``(P, F)``.

        Row 0 of P is the identity with F the field diagonal; each term adds
        the row of its compiled action, scaled by its strength.  F is float64
        when every term has an even Y count, else complex128."""
        perms = np.array([np.arange(1 << self.n_qubits)]
                         + [t.operator.action.perm for t in self.terms])
        factors = np.array([self.diagonal]
                           + [t.strength * t.operator.factor() for t in self.terms])
        return perms, factors

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """H|psi>, the one Hamiltonian apply, through the stacked ``gather``;
        rows add in order, the field diagonal first.  A float64 state stays
        float64 when H is real."""
        if psi.size != 1 << self.n_qubits:
            raise ValueError("state dimension mismatch")
        perms, factors = self.gather
        return (factors * psi[perms]).sum(axis=0)

    @property
    def is_real(self) -> bool:
        """True when every term has an even Y count, so H is a real matrix."""
        return all(c.operator.phase_exp % 2 == 0 for c in self.terms)

    def rescaled(self, factor: float) -> "HamiltonianModel":
        return HamiltonianModel(
            self.fields,
            tuple(Coupling(factor * c.strength, c.operator) for c in self.couplings),
        )

    def coupling_monomial(self, k: Sequence[int]) -> float:
        """J^{.k} = prod_b J_b^{k_b}."""
        out = 1.0
        for strength, count in zip(self.strengths, k, strict=True):
            out *= strength**count
        return out


def tfim_chain(n_qubits: int, field: float = 1.0, coupling: float = 0.0) -> HamiltonianModel:
    """Open transverse-field chain: -h sum Z_n + J sum X_n X_(n+1)."""
    if n_qubits < 2:
        raise ValueError("chain needs at least two qubits")
    ops = tuple(
        Coupling(coupling, PauliString.from_ops(n_qubits, {i: "X", i + 1: "X"}))
        for i in range(n_qubits - 1)
    )
    return HamiltonianModel((float(field),) * n_qubits, ops)


def _sign(left: PauliString, right: PauliString, merged: PauliString) -> float:
    """S with left * right = S * merged, for powers whose product differs from
    ``merged`` by a sign: the phase of ``PauliString.__mul__`` on the masks
    alone."""
    diff = (left.phase_exp + right.phase_exp - merged.phase_exp
            + 2 * (left.z_mask & right.x_mask).bit_count()) % 4
    return 1.0 if diff == 0 else -1.0


def _memoized(series):
    """Memoize one ``CoefficientTable`` series in a dict owned by the table.
    A tuple key and a ``MultiIndex`` with the same counts are one entry; only
    a miss converts, and so validates, the key for the series."""
    name = series.__name__

    @wraps(series)
    def lookup(self, k):
        memo = self._memos[name]
        try:
            return memo[k]
        except (KeyError, TypeError):  # TypeError: unhashable, such as a list
            pass
        k = MultiIndex(k)
        if len(k) != len(self._ops):
            raise ValueError("multi-index length must match coupling count")
        value = memo[k] = series(self, k)
        return value

    return lookup


class CoefficientTable:
    """Memoized ground-state expansion coefficients for one model.

    ``tilde(k)`` follows the recursion for the intermediate-normalized state
    (unit overlap with the reference); ``normalized(k)`` folds in the
    norm series of (1 + eps)^(-1/2).  Fill is single-writer; reads after
    construction are plain dict lookups.

    Each series keeps one memo keyed by multi-index.  A key is validated
    (non-negative integral counts, one per coupling) on its first lookup,
    when it is converted to ``MultiIndex``; later lookups of the same counts,
    as a tuple or a ``MultiIndex``, hit the memo and construct nothing.

    Norm coefficients vanish off reference-returning indices (V^{.k}|0>
    proportional to |0>), so the normalization sums run over those alone.
    """

    def __init__(self, model: HamiltonianModel):
        self.model = model
        self._ops = model.operators
        self._e0 = unperturbed_energy(0, model.fields)
        self._memos: defaultdict[str, dict[MultiIndex, object]] = defaultdict(dict)

    # -- pauli bookkeeping, memoized ----------------------------------------
    @_memoized
    def power(self, k: Sequence[int]) -> PauliString:
        """V^{.k}, each coupling V_b applied k_b times in ascending index:
        coupling 0 acts first on the ket, so later couplings multiply from
        the left.  One product with the memoized power one application
        below: the highest coupling with a nonzero count acts last, and
        V_top^2 = 1 when its count is even."""
        top = max((b for b, count in enumerate(k) if count), default=None)
        if top is None:
            return PauliString.identity(self.model.n_qubits)
        return self._ops[top] * self.power(k.decrement(top))

    def state_phase(self, k: Sequence[int]) -> tuple[int, int]:
        # V^{.k}|0> = i^p |x>: no Z factor acts on the all-zeros state
        power = self.power(k)
        return power.x_mask, power.phase_exp

    def _references(self, k: MultiIndex) -> list[MultiIndex]:
        """Reference-returning sub-indices of k, in ``sub_indices`` order.

        V_b squares to the identity, so V^{.k'}|0> is proportional to |0>
        exactly when the x-masks of the couplings with odd k'_b XOR to zero.
        Each such parity pattern over k's support contributes every
        sub-index with those parities; no other sub-index is visited."""
        support = [b for b, count in enumerate(k) if count]
        masks = [0]  # bit i of a position: coupling support[i] has odd count
        for b in support:
            x = self._ops[b].x_mask
            masks += [m ^ x for m in masks]
        refs = []
        for pattern, mask in enumerate(masks):
            if mask:
                continue
            ranges = [range((pattern >> i) & 1, k[b] + 1, 2)
                      for i, b in enumerate(support)]
            for counts in product(*ranges):
                kp = [0] * len(k)
                for b, count in zip(support, counts):
                    kp[b] = count
                refs.append(tuple.__new__(MultiIndex, kp))
        refs.sort(key=lambda kp: kp[::-1])  # colexicographic, as sub_indices
        return refs

    # -- intermediate-normalized coefficients --------------------------------
    @_memoized
    def tilde(self, k: Sequence[int]) -> float:
        if k.order == 0:
            return 1.0
        merged = self.power(k)
        state = merged.x_mask
        if state == 0:
            return 0.0
        gap = self._e0 - unperturbed_energy(state, self.model.fields)
        if abs(gap) < _DEGENERACY_TOL:
            raise DegeneracyError(state, self.model.n_qubits)
        # k reaches ``state`` != 0, so k itself is not among its references;
        # each reference kp <= k leaves rest = k - kp, signed once per kp
        refs = []
        for kp in self._references(k):
            rest = tuple.__new__(MultiIndex, [a - b for a, b in zip(k, kp)])
            right = self.power(kp)
            refs.append((kp, right, rest, _sign(self.power(rest), right, merged)))
        total = 0.0
        for beta in range(len(k)):
            if k[beta] == 0:
                continue
            op = self._ops[beta]  # the power at the unit index of beta
            k_minus = k.decrement(beta)
            total += self.tilde(k_minus) * _sign(op, self.power(k_minus), merged)
            for kp, right, rest, rest_sign in refs:
                if kp[beta] == 0:
                    continue
                lower = kp.decrement(beta)
                total -= (
                    self.tilde(lower)
                    * self.tilde(rest)
                    * _sign(op, self.power(lower), right)
                    * rest_sign
                )
        return total / gap

    # -- normalization series -------------------------------------------------
    @_memoized
    def vacuum_overlap(self, k: Sequence[int]) -> float:
        """Coefficient of J^k in <E~|E~>: pairs (k', k'') with k'+k'' = k and
        matching reached states; the i-phase difference reduces to 0 or +-1."""
        total = 0.0
        for kp in k.sub_indices():
            kpp = k.sub(kp)
            s1, g1 = self.state_phase(kp)
            s2, g2 = self.state_phase(kpp)
            if s1 != s2:
                continue
            diff = (g1 - g2) % 4
            if diff == 0:
                total += self.tilde(kp) * self.tilde(kpp)
            elif diff == 2:
                total -= self.tilde(kp) * self.tilde(kpp)
            # odd differences cancel pairwise under kp <-> kpp
        return total

    @_memoized
    def norm_coefficient(self, k: Sequence[int]) -> float:
        """Taylor coefficient of (1 + eps)^(-1/2) at J^k, from N^2 Z = 1.

        N and Z vanish off reference-returning indices, so a, b and
        c = k - a - b run over those alone."""
        if k.order == 0:
            return 1.0
        if self.state_phase(k)[0] != 0:
            return 0.0
        refs = self._references(k)
        total = 0.0
        for a in refs:
            if a == k:
                continue
            rem = k.sub(a)
            for b in refs:
                if b == k or not rem.dominates(b):
                    continue
                total += (
                    self.norm_coefficient(a)
                    * self.norm_coefficient(b)
                    * self.vacuum_overlap(rem.sub(b))
                )
        return -0.5 * total

    @_memoized
    def normalized(self, k: Sequence[int]) -> float:
        """Coefficient C_k of the unit-norm ground state along V^{.k}|0>."""
        _, g_k = self.state_phase(k)
        total = 0.0
        for kpp in self._references(k):
            norm = self.norm_coefficient(kpp)
            if norm == 0.0:
                continue
            kp = k.sub(kpp)
            ct = self.tilde(kp)
            if ct == 0.0:
                continue
            _, g_p = self.state_phase(kp)
            diff = (g_p - g_k) % 4
            if diff not in (0, 2):
                raise AssertionError("normalization mixed incompatible phases")
            total += (1.0 if diff == 0 else -1.0) * norm * ct
        return total

    def known(self) -> dict[MultiIndex, float]:
        return dict(self._memos["tilde"])


# -- exact reference -------------------------------------------------------------


def exact_ground(model: HamiltonianModel) -> tuple[float, np.ndarray]:
    """Lowest eigenpair by Lanczos (ARPACK ``eigsh``) over the matrix-free
    ``HamiltonianModel.apply``, in float64 when H is real, converged to
    machine precision, and phase-fixed so the largest-magnitude amplitude
    is real positive.

    Lanczos starts from a fixed seeded vector with every amplitude nonzero:
    a start inside one symmetry sector (such as |0>, which fixes the parity)
    never leaves it, and ARPACK's own random start differs from call to
    call, so results would depend on the call history.  ARPACK's complex
    path needs a dimension above 2, so a complex H needs two qubits.
    """
    from scipy.sparse.linalg import LinearOperator, eigsh

    dim = 1 << model.n_qubits
    dtype = np.float64 if model.is_real else np.complex128
    if dim <= 2 and not model.is_real:
        raise ValueError("complex Lanczos needs 2^n > 2: a complex Hamiltonian "
                         f"needs at least 2 qubits, the model has {model.n_qubits}")
    start = np.random.default_rng(_LANCZOS_SEED).standard_normal(dim).astype(dtype)
    op = LinearOperator((dim, dim), matvec=model.apply, dtype=dtype)
    vals, vecs = eigsh(op, k=1, which="SA", tol=0, v0=start)
    vec = vecs[:, 0].astype(np.complex128)
    pivot = int(np.argmax(np.abs(vec)))
    vec = vec * (abs(vec[pivot]) / vec[pivot])
    return float(vals[0]), vec


def perturbative_state(
    model: HamiltonianModel, k_max: int, scale: float = 1.0
) -> np.ndarray:
    """Normalized truncation of the coefficient series at total order k_max,
    with couplings rescaled by ``scale``."""
    table = CoefficientTable(model)
    dim = 1 << model.n_qubits
    psi = np.zeros(dim, dtype=complex)
    for k in iter_orders(model.n_couplings, k_max):
        coeff = table.tilde(k)
        if coeff == 0.0:
            continue
        state, phase = table.state_phase(k)
        mono = model.coupling_monomial(k) * scale**k.order
        psi[state] += (1j**phase) * coeff * mono
    norm = np.linalg.norm(psi)
    if norm == 0.0:
        raise ValueError("empty perturbative state")
    return psi / norm


def series_residual(model: HamiltonianModel, k_max: int, scale: float) -> float:
    """1 - |<g|psi>| between the truncated series state psi and the exact
    ground state g of the rescaled model (``exact_ground``).

    Computed as the excited-state weight ||psi - <g|psi> g||^2 / (1 + |<g|psi>|),
    which stays accurate when the residual is far below machine epsilon
    relative to 1.  Its floor is g's own rounding: Lanczos leaves about eps
    in every amplitude, which moves an excited weight w by about
    eps * sqrt(w).  At n = 3, k_max 4 and scale 0.02 on the J = 1 TFIM chain
    (w = 1.56e-22) the result is 1.5e-5 relative off a 50-digit reference.
    """
    psi = perturbative_state(model, k_max, scale)
    _, ground = exact_ground(model.rescaled(scale))
    overlap = np.vdot(ground, psi)
    excited = psi - overlap * ground
    return float(np.vdot(excited, excited).real) / (1.0 + abs(overlap))


def factorization_defect(
    model: HamiltonianModel, pairs: Sequence[tuple[Sequence[int], Sequence[int]]]
) -> float:
    """Largest |C_(ka+kb) - C_ka * C_kb| over the pairs (ka, kb).

    Zero, to rounding, when every pair splits into indices on support-disjoint
    coupling groups: disconnected diagrams factorize (acceptance criterion 5).
    """
    pairs = [(MultiIndex(ka), MultiIndex(kb)) for ka, kb in pairs]
    table = CoefficientTable(model)
    return max(
        abs(table.normalized(ka.add(kb)) - table.normalized(ka) * table.normalized(kb))
        for ka, kb in pairs
    )


def residual_slope(model: HamiltonianModel, scales: Sequence[float]) -> float:
    """Least-squares slope of log ``series_residual`` at fourth order against
    log scale.  The order-4 truncation leaves an infidelity of order
    scale^10, so the slope is near 10 where the series converges
    (acceptance criterion 7)."""
    scales = np.asarray(scales, dtype=float)
    residuals = np.array([series_residual(model, 4, s) for s in scales])
    return float(np.polyfit(np.log(scales), np.log(residuals), 1)[0])

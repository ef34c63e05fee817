"""Exact algebra of multi-qubit Pauli strings and coupling-operator powers.

An N-qubit Pauli operator is encoded by two bit masks and a phase exponent:

    P = i^phase_exp * prod_q  X_q^{x_q} Z_q^{z_q}

where bit q of ``x_mask``/``z_mask`` gives the exponents on qubit q (Z acts
first on a ket).  A qubit with both bits set carries X*Z = -i*Y, so the
positive Hermitian tensor product I/X/Y/Z corresponds to
``phase_exp = (number of Y factors) mod 4``.

On dense states a string has one compiled form, ``PauliString.action``: a
gather ``perm`` and one float64 vector, from which ``factor`` gives the
action of i^power times the string.

Computational basis states are plain integers; bit q of the integer is the
value of qubit q.  Multi-indices counting coupling applications are
``MultiIndex`` tuples; the vector power of a coupling list expands
right-to-left in ascending coupling index (coupling 0 acts first on the ket).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

_LABEL_RE = re.compile(r"^(?:i\^(?P<power>[123])\*)?(?P<ops>[IXYZ]+)$")

_CHAR_TO_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_TO_CHAR = {v: k for k, v in _CHAR_TO_BITS.items()}


class PauliAction(NamedTuple):
    """A Pauli string compiled for dense states: the gather ``perm`` and the
    real vector r with ``i^(p mod 2) op|psi> = r * psi[perm]``, the action
    of op itself when its phase i^p is real and of i*op when it is
    imaginary (a Hermitian string with an odd Y count).
    ``PauliString.factor`` gives every other power of i from r."""

    perm: np.ndarray
    real: np.ndarray


@dataclass(frozen=True)
class PauliString:
    """A phased Pauli operator in symplectic (two-mask) form."""

    n_qubits: int
    x_mask: int
    z_mask: int
    phase_exp: int = 0

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("need at least one qubit")
        full = (1 << self.n_qubits) - 1
        if self.x_mask & ~full or self.z_mask & ~full:
            raise ValueError("mask exceeds qubit count")
        object.__setattr__(self, "phase_exp", self.phase_exp % 4)

    # -- constructors ------------------------------------------------------
    @classmethod
    def identity(cls, n_qubits: int) -> "PauliString":
        return cls(n_qubits, 0, 0, 0)

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Parse a text label such as ``"IXYZ"`` or ``"i^2*XZ"``.

        Character position q names qubit q.  The optional ``i^n*`` prefix is
        the phase relative to the bare tensor product, so a plain label is
        always the positive Hermitian string.
        """
        m = _LABEL_RE.match(label.strip())
        if not m:
            raise ValueError(f"not a Pauli label: {label!r}")
        ops = m.group("ops")
        x = z = 0
        y_count = 0
        for q, ch in enumerate(ops):
            xb, zb = _CHAR_TO_BITS[ch]
            x |= xb << q
            z |= zb << q
            y_count += xb & zb
        rel = int(m.group("power") or 0)
        return cls(len(ops), x, z, (y_count + rel) % 4)

    @classmethod
    def from_ops(cls, n_qubits: int, ops: dict[int, str]) -> "PauliString":
        """Build the positive Hermitian string acting as ``ops[q]`` on qubit q."""
        label = "".join(ops.get(q, "I") for q in range(n_qubits))
        return cls.from_label(label)

    # -- structure ---------------------------------------------------------
    @property
    def y_count(self) -> int:
        return (self.x_mask & self.z_mask).bit_count()

    @property
    def weight(self) -> int:
        return (self.x_mask | self.z_mask).bit_count()

    @property
    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0 and self.phase_exp == 0

    @property
    def is_basis_element(self) -> bool:
        """True for the positive Hermitian tensor product (no sign, no i)."""
        return (self.phase_exp - self.y_count) % 4 == 0

    def support(self) -> frozenset[int]:
        mask = self.x_mask | self.z_mask
        return frozenset(q for q in range(self.n_qubits) if (mask >> q) & 1)

    # -- algebra -----------------------------------------------------------
    def __mul__(self, other: "PauliString") -> "PauliString":
        if not isinstance(other, PauliString):
            return NotImplemented
        if self.n_qubits != other.n_qubits:
            raise ValueError(
                f"dimension mismatch: {self.n_qubits} vs {other.n_qubits} qubits"
            )
        # Commuting other's X part through self's Z part gives one -1 each.
        flips = (self.z_mask & other.x_mask).bit_count()
        return PauliString(
            self.n_qubits,
            self.x_mask ^ other.x_mask,
            self.z_mask ^ other.z_mask,
            (self.phase_exp + other.phase_exp + 2 * flips) % 4,
        )

    def commutes_with(self, other: "PauliString") -> bool:
        if self.n_qubits != other.n_qubits:
            raise ValueError("dimension mismatch")
        sym = (self.x_mask & other.z_mask).bit_count() + (
            self.z_mask & other.x_mask
        ).bit_count()
        return sym % 2 == 0

    def apply_to_basis(self, bits: int) -> tuple[int, int]:
        """Act on |bits>, returning ``(new_bits, phase_exp mod 4)``."""
        extra = 2 * (self.z_mask & bits).bit_count()
        return bits ^ self.x_mask, (self.phase_exp + extra) % 4

    @cached_property
    def action(self) -> PauliAction:
        """The compiled action on 2**n amplitudes, built on first use and kept
        with this string."""
        perm = np.arange(1 << self.n_qubits) ^ self.x_mask
        # Z acts first: the sign of amplitude perm[j] is (-1)^popcount(z & perm[j]).
        flips = np.zeros(perm.size, dtype=perm.dtype)
        for q in range(self.n_qubits):
            if (self.z_mask >> q) & 1:
                flips ^= perm >> q
        p = self.phase_exp
        return PauliAction(perm, (1j ** (p + p % 2)).real * (1.0 - 2.0 * (flips & 1)))

    def factor(self, power: int = 0) -> np.ndarray:
        """The factor f with ``i^power op|psi> = f * psi[perm]``.  When
        i^(power + p) is real, f is float64: ``action.real`` itself for power
        0 or 1, its negative for 2 or 3.  Otherwise f is +-i times it."""
        real = self.action.real
        turn = (power - self.phase_exp % 2) % 4
        return real if turn == 0 else (1j, -1.0, -1j)[turn - 1] * real

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """op|psi> through the compiled action; a float64 state stays float64
        when the phase i^p is real."""
        perm = self.action.perm
        if psi.size != perm.size:
            raise ValueError("state dimension mismatch")
        return self.factor() * psi[perm]

    def to_matrix(self) -> np.ndarray:
        """Dense matrix (oracle-grade; exponential in qubit count)."""
        perm = self.action.perm
        m = np.zeros((perm.size, perm.size), dtype=complex)
        m[np.arange(perm.size), perm] = self.factor()
        return m

    # -- text --------------------------------------------------------------
    def to_label(self) -> str:
        ops = "".join(
            _BITS_TO_CHAR[(self.x_mask >> q) & 1, (self.z_mask >> q) & 1]
            for q in range(self.n_qubits)
        )
        rel = (self.phase_exp - self.y_count) % 4
        return f"i^{rel}*{ops}" if rel else ops

    def __str__(self) -> str:
        return self.to_label()


class MultiIndex(tuple):
    """Vector of per-coupling application counts; the perturbation order is
    the total count ``order``."""

    __slots__ = ()

    def __new__(cls, counts: Iterable[int]):
        counts = tuple(counts)
        vals = tuple(map(int, counts))
        if vals != counts or min(vals, default=0) < 0:
            raise ValueError(
                f"multi-index entries must be non-negative integers, got {counts}")
        return super().__new__(cls, vals)

    @classmethod
    def zero(cls, n: int) -> "MultiIndex":
        return cls((0,) * n)

    # The arithmetic below builds results with tuple.__new__: sums of valid
    # indices are valid, so only a difference needs its (cheap) sign check.
    @classmethod
    def delta(cls, n: int, beta: int) -> "MultiIndex":
        return tuple.__new__(cls, [1 if i == beta else 0 for i in range(n)])

    @property
    def order(self) -> int:
        return sum(self)

    def add(self, other: Sequence[int]) -> "MultiIndex":
        return tuple.__new__(
            MultiIndex, [a + b for a, b in zip(self, other, strict=True)])

    def sub(self, other: Sequence[int]) -> "MultiIndex":
        vals = [a - b for a, b in zip(self, other, strict=True)]
        if min(vals, default=0) < 0:
            raise ValueError(f"{tuple(other)} is not dominated by {tuple(self)}")
        return tuple.__new__(MultiIndex, vals)

    def decrement(self, beta: int) -> "MultiIndex":
        """self minus the unit index at coupling ``beta``."""
        if self[beta] == 0:
            raise ValueError(f"entry {beta} of {tuple(self)} is already zero")
        return tuple.__new__(
            MultiIndex, self[:beta] + (self[beta] - 1,) + self[beta + 1:])

    def dominates(self, other: Sequence[int]) -> bool:
        """Componentwise >=; with inequality somewhere this is the partial
        order used by the coefficient recursion."""
        return all(a >= b for a, b in zip(self, other, strict=True))

    def sub_indices(self) -> Iterator["MultiIndex"]:
        """All multi-indices componentwise <= self (including self and zero)."""
        return _iter_box(tuple(self))


def _iter_box(limits: tuple[int, ...]) -> Iterator[MultiIndex]:
    # Colexicographic (first entry fastest); entries are in range by
    # construction, so the validating constructor is skipped.
    for backwards in product(*(range(c + 1) for c in reversed(limits))):
        yield tuple.__new__(MultiIndex, backwards[::-1])


def iter_orders(n_couplings: int, max_order: int) -> Iterator[MultiIndex]:
    """All multi-indices with total order <= max_order, ascending order."""

    def compositions(total, slots):
        if slots == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, slots - 1):
                yield (first,) + rest

    for total in range(max_order + 1):
        for c in compositions(total, n_couplings):
            yield MultiIndex(c)


def pauli_power(k: Sequence[int], couplings: Sequence[PauliString]) -> PauliString:
    """The vector power of the coupling list at multi-index k.

    Expansion is right-to-left in ascending coupling index: coupling 0 is
    applied first to the ket, so later couplings multiply from the left.
    Even powers of a Hermitian string collapse to the identity exactly.
    """
    if len(k) != len(couplings):
        raise ValueError("multi-index length must match coupling count")
    acc = PauliString.identity(couplings[0].n_qubits)
    for beta, count in enumerate(k):
        if count % 2:
            acc = couplings[beta] * acc
    return acc


def relative_sign(
    k: Sequence[int], kp: Sequence[int], couplings: Sequence[PauliString]
) -> int:
    """Sign S with  V^{.k} V^{.k'} = S * V^{.(k+k')}."""
    left = pauli_power(k, couplings) * pauli_power(kp, couplings)
    merged = pauli_power([a + b for a, b in zip(k, kp, strict=True)], couplings)
    diff = (left.phase_exp - merged.phase_exp) % 4
    if diff not in (0, 2):
        raise AssertionError("reordering produced a non-real phase")
    return 1 if diff == 0 else -1


def state_and_phase(
    k: Sequence[int],
    couplings: Sequence[PauliString],
    start: int = 0,
) -> tuple[int, int]:
    """Apply V^{.k} to |start>, returning the reached basis state and the
    power of i it picks up."""
    return pauli_power(k, couplings).apply_to_basis(start)


def unperturbed_energy(bits: int, fields: Sequence[float]) -> float:
    """Diagonal energy of |bits> under the on-site field term
    -sum_n h_n Z_n (spin up on every qubit is the reference ground state
    for positive fields)."""
    total = 0.0
    for n, h in enumerate(fields):
        total += (-1.0 if (bits >> n) & 1 else 1.0) * h
    return -total


def support(k: Sequence[int], couplings: Sequence[PauliString]) -> frozenset[int]:
    """Qubits touched by any coupling activated in k."""
    qubits: set[int] = set()
    for beta, count in enumerate(k):
        if count > 0:
            qubits |= couplings[beta].support()
    return frozenset(qubits)


def format_bits(bits: int, n_qubits: int) -> str:
    """Render a basis state with qubit 0 leftmost, e.g. 6 on 4 qubits -> '0110'."""
    return "".join("1" if (bits >> q) & 1 else "0" for q in range(n_qubits))

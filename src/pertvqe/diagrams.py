"""Perturbative diagrams: bipartite qubit/interaction graphs for a
multi-index, connectivity, and leading-diagram enumeration.

A diagram for multi-index k has one circular vertex per qubit and k_b square
vertices for coupling b, with an edge from each square to every qubit its
coupling acts on, colored by the local factor (X blue, Y red, Z black).
Two squares are adjacent when they share a qubit; the contribution is
connected when the squares form a single component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .pauli import MultiIndex, format_bits
from .perturbation import HamiltonianModel

_COLOR = {"X": "blue", "Y": "red", "Z": "black"}


@dataclass(frozen=True)
class Diagram:
    k: MultiIndex
    n_qubits: int
    edges: tuple[tuple[str, int, str], ...]  # (square id, qubit, color)
    qubit_colors: int  # bit q set iff qubit q has odd incident edges
    connected: bool
    red_parity: int


def _activated_components(model: HamiltonianModel, k: Sequence[int]) -> list[list[int]]:
    """Connected components of the activated couplings (square adjacency by
    shared qubits collapses all repetitions of one coupling), each grown from
    its lowest coupling over the qubit masks x | z; members ascending."""
    rest = []
    for b, count in enumerate(k):
        if count > 0:
            op = model.couplings[b].operator
            rest.append((b, op.x_mask | op.z_mask))
    components = []
    while rest:
        (first, touched), *rest = rest
        members = [first]
        grown = True
        while grown:
            grown, outside = False, []
            for b, mask in rest:
                if mask & touched:
                    members.append(b)
                    touched |= mask
                    grown = True
                else:
                    outside.append((b, mask))
            rest = outside
        components.append(sorted(members))
    return components


def build_diagram(model: HamiltonianModel, k: Sequence[int]) -> Diagram:
    k = MultiIndex(k)
    if len(k) != model.n_couplings:
        raise ValueError("multi-index length does not match coupling count")
    edges = []
    parity = 0
    reds = 0
    for beta, count in enumerate(k):
        op = model.couplings[beta].operator
        for rep in range(count):
            square = f"v{beta}_{rep}"
            for q in sorted(op.support()):
                xb = (op.x_mask >> q) & 1
                zb = (op.z_mask >> q) & 1
                ch = {(1, 0): "X", (1, 1): "Y", (0, 1): "Z"}[(xb, zb)]
                edges.append((square, q, _COLOR[ch]))
                if ch in ("X", "Y"):
                    parity ^= 1 << q
                if ch == "Y":
                    reds += 1
    components = _activated_components(model, k)
    return Diagram(
        k=k,
        n_qubits=model.n_qubits,
        edges=tuple(edges),
        qubit_colors=parity,
        connected=len(components) <= 1,
        red_parity=reds % 2,
    )


def is_disconnected_split(
    model: HamiltonianModel, k: Sequence[int]
) -> tuple[MultiIndex, MultiIndex] | None:
    """Split k into two support-disjoint halves if possible.

    The component containing the lowest activated coupling forms one side;
    everything else is the other.  Returns None for connected (or empty) k.
    """
    k = MultiIndex(k)
    components = _activated_components(model, k)
    if len(components) < 2:
        return None
    components.sort(key=min)
    first = set(components[0])
    k_a = MultiIndex(c if b in first else 0 for b, c in enumerate(k))
    k_b = k.sub(k_a)
    return k_a, k_b


def enumerate_connected(model: HamiltonianModel, k_max: int) -> list[MultiIndex]:
    """All connected multi-indices with 1 <= |k| <= k_max.

    Grown by extending connected indices with a coupling that shares a qubit
    with the current support (or repeats an activated coupling); every
    connected index of order m+1 has a connected order-m parent of this form,
    so the growth is exhaustive.
    """
    if k_max < 1:
        return []
    n_c = model.n_couplings
    masks = [c.operator.x_mask | c.operator.z_mask for c in model.couplings]
    frontier = {MultiIndex.delta(n_c, b) for b in range(n_c)}
    seen: set[MultiIndex] = set(frontier)
    out = sorted(frontier)
    for _ in range(1, k_max):
        nxt: set[MultiIndex] = set()
        for k in frontier:
            touched = 0
            for b, count in enumerate(k):
                if count:
                    touched |= masks[b]
            for b in range(n_c):
                if k[b] == 0 and not masks[b] & touched:
                    continue
                grown = k.add(MultiIndex.delta(n_c, b))
                if grown not in seen:
                    seen.add(grown)
                    nxt.add(grown)
        frontier = nxt
        out.extend(sorted(nxt))
    return out


def enumerate_leading(
    model: HamiltonianModel, k_max: int
) -> dict[tuple[int, int], list[MultiIndex]]:
    """Group connected indices by (reached state, red parity) and keep the
    minimal-order members of each group (all ties kept).

    Both are the diagram's own invariants over the couplings with an odd
    count: the XOR of their x masks (its qubit colours, the state V^{.k}|0>
    reaches) and the parity of their Y counts (its red parity, the phase
    class gamma mod 2).  Indices that return to the reference state are
    skipped: they carry no generator target.  Group insertion order is
    (order, state, parity); each list is sorted.
    """
    ops = model.operators
    groups: dict[tuple[int, int], tuple[int, list[MultiIndex]]] = {}
    for k in enumerate_connected(model, k_max):
        state = reds = 0
        for op, count in zip(ops, k):
            if count % 2:
                state ^= op.x_mask
                reds += op.y_count
        if state == 0:
            continue
        key = (state, reds % 2)
        entry = groups.get(key)
        if entry is None or k.order < entry[0]:
            groups[key] = (k.order, [k])
        elif k.order == entry[0]:
            entry[1].append(k)
    ordered = sorted(groups.items(), key=lambda item: (item[1][0], item[0]))
    return {key: sorted(ks) for key, (_, ks) in ordered}


def export_dot(diagram: Diagram) -> str:
    """Deterministic DOT text: circles for qubits, squares for interactions,
    undirected rendering via dir=none."""
    lines = ["digraph diagram {", "  edge [dir=none];"]
    filled = diagram.qubit_colors
    for q in range(diagram.n_qubits):
        style = "filled" if (filled >> q) & 1 else "solid"
        lines.append(f'  q{q} [shape=circle, style={style}, label="{q}"];')
    for square in sorted({e[0] for e in diagram.edges}):
        lines.append(f'  {square} [shape=square, label="{square[1:]}"];')
    for square, qubit, color in sorted(diagram.edges):
        lines.append(f"  {square} -> q{qubit} [color={color}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def leading_to_json(
    model: HamiltonianModel, leading: dict[tuple[int, int], list[MultiIndex]]
) -> list[dict]:
    out = []
    for (state, parity), ks in leading.items():
        out.append(
            {
                "s": format_bits(state, model.n_qubits),
                "red_parity": parity,
                "a": (parity + 1) % 2,
                "order": ks[0].order,
                "k_list": [list(k) for k in ks],
            }
        )
    return out

import itertools
import re
from collections import deque

from pertvqe.diagrams import (
    build_diagram,
    enumerate_connected,
    enumerate_leading,
    export_dot,
    is_disconnected_split,
    leading_to_json,
)
from pertvqe.pauli import MultiIndex, format_bits
from pertvqe.perturbation import Coupling, HamiltonianModel, tfim_chain

from conftest import random_model, random_pauli, state_and_phase


def _parse_dot_edges(text):
    """Recover the (square, qubit, color) multiset from our own DOT output."""
    edges = []
    for line in text.splitlines():
        m = re.match(r"\s*(v\d+_\d+) -> q(\d+) \[color=(\w+)\];", line)
        if m:
            edges.append((m.group(1), int(m.group(2)), m.group(3)))
    return sorted(edges)


def test_build_diagram_adjacent_pair():
    model = tfim_chain(4, 1.0, 1.0)
    d = build_diagram(model, (1, 1, 0))
    assert d.connected
    assert format_bits(d.qubit_colors, 4) == "1010"
    assert d.red_parity == 0
    assert len(d.edges) == 4


def test_build_diagram_disconnected():
    model = tfim_chain(4, 1.0, 1.0)
    assert not build_diagram(model, (1, 0, 1)).connected


def test_build_diagram_six_qubit_even_reds(rng):
    # a connected contribution with an even number of Y edges on six qubits
    from pertvqe.pauli import PauliString
    from pertvqe.perturbation import Coupling, HamiltonianModel

    model = HamiltonianModel(
        (1.0,) * 6,
        (
            Coupling(0.2, PauliString.from_label("XYIIII")),
            Coupling(0.2, PauliString.from_label("IYXZII")),
            Coupling(0.2, PauliString.from_label("IIIZXX")),
        ),
    )
    d = build_diagram(model, (1, 1, 1))
    assert d.connected
    assert d.red_parity == (1 + 1 + 0) % 2


def test_diagram_consistent_with_pauli_bookkeeping(rng):
    for _ in range(20):
        model = random_model(rng, 5, 4)
        for k in itertools.product(range(3), repeat=4):
            if sum(k) > 4 or sum(k) == 0:
                continue
            d = build_diagram(model, k)
            state, gamma = state_and_phase(k, model.operators)
            assert d.qubit_colors == state
            assert d.red_parity == gamma % 2


def test_disconnected_split_cases():
    model = tfim_chain(4, 1.0, 1.0)
    split = is_disconnected_split(model, (1, 0, 1))
    assert split == (MultiIndex((1, 0, 0)), MultiIndex((0, 0, 1)))
    assert is_disconnected_split(model, (1, 1, 0)) is None
    assert is_disconnected_split(model, (0, 2, 0)) is None


def touched_qubits(model, k):
    """Qubits acted on by the couplings activated in k."""
    return frozenset().union(*(model.couplings[b].operator.support()
                               for b, count in enumerate(k) if count))


def connected_by_search(model, k):
    """Whether the couplings activated in k form one component, by a
    breadth-first search over their qubit supports."""
    active = [b for b, count in enumerate(k) if count]
    sup = {b: model.couplings[b].operator.support() for b in active}
    seen, queue = {active[0]}, deque(active[:1])
    while queue:
        b = queue.popleft()
        for other in active:
            if other not in seen and sup[b] & sup[other]:
                seen.add(other)
                queue.append(other)
    return len(seen) == len(active)


def test_enumerate_connected_matches_brute_force(rng):
    # chains, dense random couplings, and random two-site couplings on
    # arbitrary qubit pairs, which often leave k disconnected
    models = [tfim_chain(5, 1.0, 0.2)]
    models += [random_model(rng, 5, 4) for _ in range(4)]
    for _ in range(4):
        models.append(HamiltonianModel((1.0,) * 5, tuple(
            Coupling(0.2, random_pauli(rng, 5, rng.choice(5, size=2, replace=False)))
            for _ in range(4))))
    k_max = 3
    n_disconnected = 0
    for model in models:
        fast = set(enumerate_connected(model, k_max))
        slow = set()
        for k in itertools.product(range(k_max + 1), repeat=model.n_couplings):
            if not 1 <= sum(k) <= k_max:
                continue
            split = is_disconnected_split(model, k)
            if connected_by_search(model, k):
                slow.add(MultiIndex(k))
                assert split is None
                continue
            n_disconnected += 1
            k_a, k_b = split
            lowest = min(b for b, count in enumerate(k) if count)
            assert k_a[lowest] and k_a.add(k_b) == k
            assert connected_by_search(model, k_a)
            assert not touched_qubits(model, k_a) & touched_qubits(model, k_b)
        assert fast == slow
    assert n_disconnected > 0


def test_enumerate_connected_is_empty_below_order_one():
    model = tfim_chain(4, 1.0, 0.2)
    assert enumerate_connected(model, 0) == []
    assert enumerate_connected(model, -1) == []
    assert enumerate_leading(model, 0) == {}


def test_leading_groups_tfim_four_sites():
    model = tfim_chain(4, 1.0, 1.0)
    leading = enumerate_leading(model, 4)
    orders = sorted(ks[0].order for ks in leading.values())
    assert orders == [1, 1, 1, 2, 2, 3, 4]
    # the order-4 group belongs to the all-flipped state
    (top_key,) = [key for key, ks in leading.items() if ks[0].order == 4]
    assert format_bits(top_key[0], 4) == "1111"
    assert leading[top_key] == [MultiIndex((1, 2, 1))]


def test_leading_includes_distance_four_target():
    model = tfim_chain(6, 1.0, 1.0)
    leading = enumerate_leading(model, 4)
    key = next(
        (key for key in leading if format_bits(key[0], 6) == "100010"), None
    )
    assert key is not None
    assert leading[key][0].order == 4
    assert MultiIndex((1, 1, 1, 1, 0)) in leading[key]


def test_leading_k_max_one_is_one_group_per_coupling(rng):
    model = random_model(rng, 4, 3)
    leading = enumerate_leading(model, 1)
    expected = {}
    for b, op in enumerate(model.operators):
        state, gamma = state_and_phase(MultiIndex.delta(3, b), model.operators)
        if state == 0:
            continue
        expected.setdefault((state, gamma % 2), []).append(MultiIndex.delta(3, b))
    assert {k: sorted(v) for k, v in leading.items()} == {
        k: sorted(v) for k, v in expected.items()
    }


def test_no_leading_diagram_is_disconnected(rng):
    model = random_model(rng, 5, 4)
    for ks in enumerate_leading(model, 4).values():
        for k in ks:
            assert is_disconnected_split(model, k) is None


def test_leading_exhaustive_against_full_scan():
    model = tfim_chain(5, 1.0, 1.0)
    k_max = 4
    leading = enumerate_leading(model, k_max)
    best = {}
    for k in itertools.product(range(k_max + 1), repeat=4):
        if not 1 <= sum(k) <= k_max:
            continue
        if is_disconnected_split(model, k) is not None:
            continue
        state, gamma = state_and_phase(k, model.operators)
        if state == 0:
            continue
        key = (state, gamma % 2)
        entry = best.setdefault(key, (sum(k), []))
        if sum(k) < entry[0]:
            best[key] = (sum(k), [MultiIndex(k)])
        elif sum(k) == entry[0]:
            entry[1].append(MultiIndex(k))
    assert {k: sorted(v[1]) for k, v in best.items()} == leading


# -- DOT export --------------------------------------------------------------------


def test_export_dot_empty_index():
    model = tfim_chain(4, 1.0, 1.0)
    text = export_dot(build_diagram(model, (0, 0, 0)))
    assert text.count("shape=circle") == 4
    assert "shape=square" not in text
    assert _parse_dot_edges(text) == []


def test_export_dot_single_square():
    model = tfim_chain(4, 1.0, 1.0)
    text = export_dot(build_diagram(model, (1, 0, 0)))
    assert text.count("shape=square") == 1
    assert len(_parse_dot_edges(text)) == 2


def test_export_dot_round_trip(rng):
    model = random_model(rng, 5, 3)
    for k in ((1, 1, 0), (2, 0, 1), (1, 1, 1)):
        d = build_diagram(model, k)
        recovered = _parse_dot_edges(export_dot(d))
        assert recovered == sorted(d.edges)


def test_export_dot_deterministic():
    model = tfim_chain(4, 1.0, 1.0)
    a = export_dot(build_diagram(model, (1, 1, 0)))
    b = export_dot(build_diagram(model, (1, 1, 0)))
    assert a == b


def test_leading_json_shape():
    model = tfim_chain(4, 1.0, 1.0)
    rows = leading_to_json(model, enumerate_leading(model, 2))
    assert all({"s", "a", "red_parity", "order", "k_list"} <= set(r) for r in rows)
    first = rows[0]
    assert first["order"] == 1
    assert first["a"] == (first["red_parity"] + 1) % 2

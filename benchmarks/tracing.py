"""In-memory span and counter tracing of pertvqe's public calls, installed
from outside the package.

Every public function of the eight layer modules is replaced, in every
pertvqe module namespace that holds it, by a wrapper.  That covers the
import sites: ``pertvqe.vqe.energy_and_gradient`` is the simulator function
as ``vqe`` sees it, and ``pertvqe.cli.build_priority_list`` the hierarchy
function as ``cli`` sees it.  A few methods are wrapped on their class.

Coarse calls record a span ``[name, start, end, parent]``; calls that run
hundreds of thousands of times per command only bump a counter, so that
tracing stays a small fraction of the traced wall time.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

LAYERS = ("pauli", "perturbation", "diagrams", "ansatz", "hierarchy",
          "simulator", "vqe", "cli")

# Public functions counted rather than spanned: per-state kernels and cheap
# helpers called from inner loops, where a span would cost more than the call.
COUNT_ONLY = {
    "simulator.apply_pauli", "simulator.apply_rotation", "simulator.basis_state",
    "simulator.zero_state", "simulator.expectation", "simulator.fidelity",
    "pauli.multiply", "pauli.unperturbed_energy", "pauli.support",
    "pauli.format_bits", "pauli.parse_bits",
}

TILDE = "perturbation.CoefficientTable.tilde"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.observed: dict[str, list] = defaultdict(list)
        self.tables: list = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- wrappers -----------------------------------------------------------
    def spanned(self, name, fn, observe=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if observe is not None:
                self.observed[name].append(observe(args, kwargs, result))
            return result

        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ---------------------------------------------------------
    def install(self) -> None:
        """Wrap every public layer function at each name that refers to it,
        plus the methods the per-layer metrics need."""
        layers = [importlib.import_module(f"pertvqe.{layer}") for layer in LAYERS]
        modules = [importlib.import_module("pertvqe"), *layers]
        for layer, mod in zip(LAYERS, layers):
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                if name in COUNT_ONLY or inspect.isgeneratorfunction(fn):
                    wrapped = self.counted(name, fn)
                else:
                    wrapped = self.spanned(name, fn, OBSERVERS.get(name))
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._set(holder, key, wrapped)

        from pertvqe.hierarchy import ThetaEstimator
        from pertvqe.pauli import MultiIndex, PauliString
        from pertvqe.perturbation import CoefficientTable

        self._set(CoefficientTable, "tilde",
                  self.spanned(TILDE, CoefficientTable.tilde))
        table_init = CoefficientTable.__init__

        def init_table(table, *args, **kwargs):
            table_init(table, *args, **kwargs)
            self.tables.append(table)

        self._set(CoefficientTable, "__init__", init_table)
        self._set(ThetaEstimator, "__init__",
                  self.spanned("hierarchy.ThetaEstimator", ThetaEstimator.__init__))
        self._set(MultiIndex, "__new__", staticmethod(
            self.counted("pauli.MultiIndex.__new__", MultiIndex.__new__)))
        self._set(PauliString, "__mul__",
                  self.counted("pauli.PauliString.__mul__", PauliString.__mul__))

    def _set(self, holder, key, value) -> None:
        self._undo.append((holder, key, vars(holder)[key]))
        setattr(holder, key, value)

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._undo):
            setattr(holder, key, value)
        self._undo.clear()

    # -- output -----------------------------------------------------------------
    def dump(self, path) -> None:
        """Write the spans and counters as gzipped JSON."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "names": names,
            "spans": [[index[n], a, b, p] for n, a, b, p in self.spans],
            "counts": dict(self.counts),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(payload, fh)


def _observe_optimize(args, kwargs, result):
    # hierarchy_sweep passes restarts=0 only for its random multistarts.
    return (kwargs.get("restarts", 3) == 0, result.energy, result.iterations)


OBSERVERS = {
    "vqe.optimize": _observe_optimize,
    "vqe.hierarchy_sweep": lambda a, k, r: len(r.rows) - 1,
    "hierarchy.build_priority_list":
        lambda a, k, r: (len(r.entries), sum(len(e.leading_ks) for e in r.entries)),
    "diagrams.enumerate_leading": lambda a, k, r: len(r),
    "ansatz.build_qca": lambda a, k, r: len(r.units),
    "perturbation.dense_hamiltonian": lambda a, k, r: r.nbytes,
}


def layer_metrics(tracer: Tracer, n_qubits: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced command as ``{name: (value, unit)}``.

    A span's self time is its duration minus its direct children's; a
    layer's self time sums that over the layer's spans.  Inclusive times
    count only the outermost call of a recursion.
    """
    spans = tracer.spans
    dur = [end - start for _, start, end, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    calls: Counter = Counter()
    incl: Counter = Counter()
    own: Counter = Counter()
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for i, (name, _, _, parent) in enumerate(spans):
        calls[name] += 1
        own[name] += dur[i] - child[i]
        layer_self[name.split(".")[0]] += dur[i] - child[i]
        if parent < 0 or spans[parent][0] != name:
            incl[name] += dur[i]
    counts = tracer.counts
    obs = tracer.observed

    eg_calls = calls["simulator.energy_and_gradient"]
    steps = sum(obs["vqe.hierarchy_sweep"])
    random_tried = wins = 0
    warm = None
    step_best = None
    for is_random, energy, _ in obs["vqe.optimize"] + [(False, None, 0)]:
        if is_random:
            random_tried += 1
            step_best = energy if step_best is None else min(step_best, energy)
            continue
        # A warm start opens the next sweep step; settle the previous one.
        if warm is not None and step_best is not None:
            wins += step_best < warm - 1e-12 * abs(warm)
        warm, step_best = energy, None
    plists = obs["hierarchy.build_priority_list"]

    m = {
        "simulator.eg_calls": (eg_calls, "count"),
        "simulator.eg_s": (incl["simulator.energy_and_gradient"], "s"),
        "simulator.eg_us_per_call": (
            1e6 * incl["simulator.energy_and_gradient"] / eg_calls if eg_calls else 0.0,
            "us"),
        "simulator.apply_pauli_calls": (counts["simulator.apply_pauli"], "count"),
        # Computed, not measured: one complex128 state read and one written.
        "simulator.computed_bytes": (
            counts["simulator.apply_pauli"] * 2 * 16 * (1 << n_qubits), "bytes"),
        "simulator.energy_calls": (calls["simulator.energy"], "count"),
        "simulator.prepare_calls": (calls["simulator.prepare"], "count"),
        "vqe.sweep_s": (incl["vqe.hierarchy_sweep"], "s"),
        "vqe.optimize_calls": (calls["vqe.optimize"], "count"),
        "vqe.optimizer_iterations": (sum(o[2] for o in obs["vqe.optimize"]), "count"),
        "vqe.optimize_self_s": (own["vqe.optimize"], "s"),
        "vqe.evals_per_unit": (eg_calls / steps if steps else 0.0, "count"),
        "vqe.random_start_win_ratio": (
            wins / random_tried if random_tried else 0.0, "ratio"),
        "perturbation.exact_ground_s": (incl["perturbation.exact_ground"], "s"),
        "perturbation.exact_ground_calls": (calls["perturbation.exact_ground"], "count"),
        "perturbation.dense_hamiltonian_s": (incl["perturbation.dense_hamiltonian"], "s"),
        "perturbation.dense_bytes": (sum(obs["perturbation.dense_hamiltonian"]), "bytes"),
        "perturbation.tilde_calls": (calls[TILDE], "count"),
        "perturbation.tilde_s": (incl[TILDE], "s"),
        "perturbation.coefficients": (sum(len(t.known()) for t in tracer.tables), "count"),
        "hierarchy.build_priority_list_s": (incl["hierarchy.build_priority_list"], "s"),
        "hierarchy.estimator_self_s": (own["hierarchy.ThetaEstimator"], "s"),
        "hierarchy.check_generating_s": (incl["hierarchy.check_generating"], "s"),
        "hierarchy.entries": (sum(p[0] for p in plists), "count"),
        "hierarchy.leading_ks": (sum(p[1] for p in plists), "count"),
        "diagrams.enumerate_leading_s": (incl["diagrams.enumerate_leading"], "s"),
        "diagrams.leading_groups": (sum(obs["diagrams.enumerate_leading"]), "count"),
        "ansatz.build_qca_s": (incl["ansatz.build_qca"], "s"),
        "ansatz.qca_units": (sum(obs["ansatz.build_qca"]), "count"),
        "pauli.multiindex_new": (counts["pauli.MultiIndex.__new__"], "count"),
        "pauli.mul_calls": (counts["pauli.PauliString.__mul__"], "count"),
        "trace.spans": (len(spans), "count"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    return m

"""Batch driver: model definition -> diagrams -> hierarchy -> sweep -> files.

Configuration is a single JSON file; every field except the model has a
default, and a handful of flags override config values.  Exit codes:
0 success, 1 I/O failure, 2 usage or config error, 3 degenerate model or a
failing ``verify`` check.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ansatz import build_qca
from .diagrams import build_diagram, enumerate_leading, export_dot, leading_to_json
from .hierarchy import (
    MODES,
    ORDERINGS,
    build_priority_list,
    duplication_defect,
    hierarchy_to_json,
)
from .pauli import PauliString
from .perturbation import (
    Coupling,
    DegeneracyError,
    HamiltonianModel,
    factorization_defect,
    residual_slope,
    tfim_chain,
)
from .simulator import QUBIT_CAP, best_fidelity
from .vqe import GTOL, MAX_ITERATIONS, hierarchy_sweep, sweep_thetas_json, sweep_to_csv

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_MODEL = 3

DEFAULT_HIERARCHIES = [
    ["pert", "hierarchy"],
    ["pert", "parent"],
    ["rev", "hierarchy"],
    ["2loc", "hierarchy"],
    ["2loc", "parent"],
    ["loc", "hierarchy"],
]


@dataclass
class RunConfig:
    """A parsed config; ``from_dict`` holds every default."""

    model: HamiltonianModel
    k_max: int
    mode: str
    ordering: str
    tie_seed: int | None
    n_p_max: int
    gtol: float
    max_iterations: int
    j_values: list
    hierarchies: list
    out: str

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        _object(raw, "config", ("model", "k_max", "hierarchy", "sweep", "out"))
        if "model" not in raw:
            raise ConfigError("config requires a 'model' section")
        model = _parse_model(raw["model"])
        hier = _object(raw.get("hierarchy", {}), "hierarchy",
                       ("mode", "ordering", "tie_seed"))
        sweep = _object(raw.get("sweep", {}), "sweep",
                        ("n_p_max", "gtol", "max_iterations", "j_values", "hierarchies"))
        cfg = cls(
            model=model,
            k_max=_convert(_integer, raw, "k_max", 4),
            mode=hier.get("mode", "pert"),
            ordering=hier.get("ordering", "hierarchy"),
            tie_seed=None if hier.get("tie_seed") is None
            else _convert(_integer, hier, "tie_seed", None, "hierarchy."),
            n_p_max=_convert(_integer, sweep, "n_p_max", 30, "sweep."),
            gtol=_convert(_real, sweep, "gtol", GTOL, "sweep."),
            max_iterations=_convert(_integer, sweep, "max_iterations", MAX_ITERATIONS,
                                    "sweep."),
            j_values=_convert(_real, sweep, "j_values", [0.15, 6.0, 1.0], "sweep."),
            hierarchies=_convert(list, sweep, "hierarchies", DEFAULT_HIERARCHIES, "sweep."),
            out=raw.get("out", "."),
        )
        if not isinstance(cfg.out, str):
            raise ConfigError(f"out must be a string, got {type(cfg.out).__name__}")
        if cfg.k_max < 1:
            raise ConfigError(f"k_max must be at least 1, got {cfg.k_max}")
        if cfg.tie_seed is not None and cfg.tie_seed < 0:
            raise ConfigError(
                f"hierarchy.tie_seed (--seed) must be at least 0, got {cfg.tie_seed}")
        if not all(math.isfinite(j) for j in cfg.j_values):
            raise ConfigError(f"sweep.j_values must be finite, got {cfg.j_values}")
        if cfg.n_p_max < 0:
            raise ConfigError(f"sweep.n_p_max must be at least 0, got {cfg.n_p_max}")
        if not (math.isfinite(cfg.gtol) and cfg.gtol > 0):
            raise ConfigError(f"sweep.gtol must be finite and positive, got {cfg.gtol}")
        if cfg.max_iterations < 1:
            raise ConfigError(
                f"sweep.max_iterations must be at least 1, got {cfg.max_iterations}")
        if cfg.mode not in MODES:
            raise ConfigError(f"unknown hierarchy mode {cfg.mode!r}")
        if cfg.ordering not in ORDERINGS:
            raise ConfigError(f"unknown ordering {cfg.ordering!r}")
        for pair in cfg.hierarchies:
            if len(pair) != 2 or pair[0] not in MODES or pair[1] not in ORDERINGS:
                raise ConfigError(f"unknown sweep hierarchy {pair!r}")
        stems = [_sweep_stem(m, o, j) for j in cfg.j_values for m, o in cfg.hierarchies]
        for stem in stems:
            if stems.count(stem) > 1:
                raise ConfigError(f"two sweeps would both write {stem}.csv")
        return cfg


class ConfigError(ValueError):
    pass


def _convert(kind, section: dict, key: str, default, where: str = ""):
    """``section[key]``, or the default, converted by ``kind`` (item by item
    for a list); a value that does not convert is a ConfigError."""
    value = section.get(key, default)
    try:
        return [kind(v) for v in value] if isinstance(default, list) else kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}{key}: {exc}") from exc


def _object(value, where: str, keys: tuple[str, ...] | None = None) -> dict:
    """``value`` if it is a JSON object and, when ``keys`` is given, holds
    no other key: a misspelled key would silently run with its default.
    Anything else is a ConfigError."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(value).__name__}")
    unknown = [key for key in value if keys is not None and key not in keys]
    if unknown:
        name = unknown[0] if where == "config" else f"{where}.{unknown[0]}"
        raise ConfigError(f"unknown key {name}")
    return value


def _integer(value) -> int:
    """``int(value)``, refusing a JSON boolean and refusing to truncate a
    number that is not integral."""
    if isinstance(value, bool):
        raise ValueError(f"{str(value).lower()} is not an integer")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _real(value) -> float:
    """``float(value)``, refusing a JSON boolean."""
    if isinstance(value, bool):
        raise ValueError(f"{str(value).lower()} is not a number")
    return float(value)


def _finite(value) -> float:
    """``_real(value)``, refusing NaN and the infinities: a model term that
    is not finite would be written into strict-JSON outputs."""
    out = _real(value)
    if not math.isfinite(out):
        raise ValueError(f"{value!r} is not a finite number")
    return out


def _parse_model(raw: dict) -> HamiltonianModel:
    kind = _object(raw, "model").get("type", "tfim")
    if kind not in ("tfim", "custom"):
        raise ConfigError(f"unknown model type {kind!r}")
    try:
        if kind == "tfim":
            return tfim_chain(
                _integer(raw["n_qubits"]), _finite(raw.get("h", 1.0)), _finite(raw.get("j", 0.0))
            )
        couplings = tuple(
            Coupling(_finite(c["j"]), PauliString.from_label(c["pauli"]))
            for c in raw["couplings"]
        )
        return HamiltonianModel(tuple(_finite(h) for h in raw["h"]), couplings)
    except KeyError as exc:
        raise ConfigError(f"model: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"model: {exc}") from exc


def _sweep_stem(mode: str, ordering: str, j_value: float) -> str:
    """The file stem of one sweep's outputs."""
    tag = mode + ("_parent" if ordering == "parent" else "")
    return f"sweep_{tag}_j{j_value:g}"


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


# -- subcommands ------------------------------------------------------------------


def _priority_list(cfg: RunConfig, mode: str, ordering: str):
    """``build_priority_list`` over the closed-form parent slots; a mode
    filter that keeps no generator of this model is a ConfigError."""
    plist = build_priority_list(cfg.model, None, cfg.k_max, mode, ordering, cfg.tie_seed)
    if not plist.entries:
        raise ConfigError(f"no generators survive the {mode} filter")
    return plist


def cmd_hierarchy(cfg: RunConfig) -> int:
    plist = _priority_list(cfg, cfg.mode, cfg.ordering)
    rows = hierarchy_to_json(plist, cfg.model)
    _write(Path(cfg.out) / "hierarchy.json",
           json.dumps(rows, indent=2, sort_keys=True) + "\n")
    header = f"{'rank':>4}  {'generator':<{cfg.model.n_qubits + 6}}  {'s':<{cfg.model.n_qubits}}  a  {'theta_tilde':>14}  {'j_weight':>12}"
    print(header)
    for row in rows:
        print(
            f"{row['rank']:>4}  {row['pauli']:<{cfg.model.n_qubits + 6}}  "
            f"{row['s']:<{cfg.model.n_qubits}}  {row['a']}  "
            f"{row['theta_tilde']:>14.6e}  {row['j_weight']:>12.6e}"
        )
    return EXIT_OK


def cmd_diagrams(cfg: RunConfig) -> int:
    leading = enumerate_leading(cfg.model, cfg.k_max)
    out_dir = Path(cfg.out)
    listing = leading_to_json(cfg.model, leading)
    _write(out_dir / "leading.json", json.dumps(listing, indent=2, sort_keys=True) + "\n")
    count = 0
    for (state, parity), ks in leading.items():
        for k in ks:
            d = build_diagram(cfg.model, k)
            name = f"diagram_o{k.order}_k{'-'.join(str(c) for c in k)}.dot"
            _write(out_dir / name, export_dot(d))
            count += 1
    print(f"wrote {count} diagrams and leading.json to {out_dir}")
    return EXIT_OK


def _sweep_task(args):
    cfg, plist, j_value = args
    target = cfg.model.rescaled(j_value / cfg.model.strengths[0])
    result = hierarchy_sweep(
        target, plist, cfg.n_p_max, cfg.gtol, cfg.max_iterations,
        rng=np.random.default_rng(cfg.tie_seed or 0),
    )
    stem = _sweep_stem(plist.mode, plist.ordering, j_value)
    return stem, sweep_to_csv(result), sweep_thetas_json(result), result.reference_energy


def _sweep_lists(cfg: RunConfig) -> dict:
    """One priority list per (mode, ordering), each checked to hold
    ``n_p_max`` units before any reference or optimization runs."""
    plists = {}
    for mode, ordering in cfg.hierarchies:
        if (mode, ordering) in plists:
            continue
        plist = _priority_list(cfg, mode, ordering)
        try:
            plist.selection(cfg.n_p_max)
        except ValueError as exc:
            raise ConfigError(f"sweep.n_p_max: {exc}") from exc
        plists[mode, ordering] = plist
    return plists


def cmd_sweep(cfg: RunConfig, jobs: int = 1) -> int:
    if cfg.model.n_qubits > QUBIT_CAP:
        raise ConfigError(
            f"sweep runs on the statevector engine, capped at {QUBIT_CAP} "
            f"qubits; the model has {cfg.model.n_qubits}"
        )
    if cfg.model.n_qubits < 2 and not cfg.model.is_real:
        raise ConfigError("the sweep's Lanczos reference needs at least 2 qubits for "
                          f"a complex Hamiltonian; the model has {cfg.model.n_qubits}")
    if not cfg.model.couplings or cfg.model.strengths[0] == 0.0:
        raise ConfigError("sweep rescales coupling 0 to each j_value; it must be nonzero")
    plists = _sweep_lists(cfg)
    tasks = [
        (cfg, plists[mode, ordering], j)
        for j in cfg.j_values
        for mode, ordering in cfg.hierarchies
    ]
    out_dir = Path(cfg.out)
    manifest = {}
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_task, tasks))
    else:
        results = [_sweep_task(t) for t in tasks]
    for stem, csv_text, theta_json, e_ref in results:
        _write(out_dir / f"{stem}.csv", csv_text)
        _write(out_dir / f"{stem}_theta.json", theta_json)
        manifest[stem] = {"reference_energy": e_ref}
    _write(out_dir / "manifest.json",
           json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(results)} sweeps to {out_dir}")
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    """Acceptance criteria 5, 6, 7 and the spanning half of 11 on small
    built-in models; the config's model is not used."""
    scales = [0.1, 0.05, 0.025]
    slope = residual_slope(tfim_chain(4, 1.0, 1.0), scales)
    blocks = HamiltonianModel((1.0, 1.3, 0.8, 1.1, 0.9, 1.2), (
        Coupling(0.3, PauliString.from_label("XXIIII")),
        Coupling(0.4, PauliString.from_label("IIIYZX")),
    ))
    pairs = [(ka, kb) for ka in ((1, 0), (2, 0)) for kb in ((0, 1), (0, 2))]
    factor = factorization_defect(blocks, pairs)
    doubled = HamiltonianModel((1.0,) * 6, tuple(
        Coupling(0.3, PauliString.from_ops(6, {q: "X", q + 1: "X"})) for q in (0, 1, 3, 4)
    ))
    copy_defect, cross = duplication_defect(tfim_chain(3, 1.0, 0.3), doubled)
    rng = np.random.default_rng(7)
    targets = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    targets /= np.linalg.norm(targets, axis=1, keepdims=True)
    qca = build_qca(2)
    worst_fid = min(best_fidelity(qca, target, rng) for target in targets)
    checks = [
        ("series residual slope", slope >= 9.0,
         f"slope {slope:.2f} over scales {scales} (tolerance >= 9.0)"),
        ("disconnected factorization", factor < 1e-10, f"max defect {factor:.2e}"),
        ("duplication extensivity", copy_defect < 1e-10 and not cross,
         f"max copy defect {copy_defect:.2e}, {cross} cross-copy estimates"),
        ("layered-ansatz spanning", worst_fid >= 1 - 1e-6,
         f"worst target fidelity {worst_fid:.10f}"),
    ]
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return EXIT_OK if all(ok for _, ok, _ in checks) else EXIT_MODEL


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pertvqe",
        description="perturbation-ordered product-ansatz construction and sweeps",
    )
    parser.add_argument("--config", required=True, help="JSON configuration file")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, help="tie-break seed (overrides config)")
    parser.add_argument("--jobs", type=int, default=1, help="parallel sweep workers")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("hierarchy")
    sub.add_parser("diagrams")
    sub.add_parser("sweep")
    sub.add_parser("verify")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be at least 1, got {args.jobs}")

    try:
        raw = json.loads(Path(args.config).read_text())
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    except json.JSONDecodeError as exc:
        print(f"{args.config}:{exc.lineno}: {exc.msg}", file=sys.stderr)
        return EXIT_USAGE

    try:
        _object(raw, "config")
        if args.out:
            raw["out"] = args.out
        if args.seed is not None:
            _object(raw.setdefault("hierarchy", {}), "hierarchy")["tie_seed"] = args.seed
        cfg = RunConfig.from_dict(raw)
        if args.command == "hierarchy":
            return cmd_hierarchy(cfg)
        if args.command == "diagrams":
            return cmd_diagrams(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg, jobs=args.jobs)
        if args.command == "verify":
            return cmd_verify(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DegeneracyError as exc:
        print(f"degenerate model: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import pertvqe
from pertvqe.cli import main


def write_config(tmp_path, **overrides):
    cfg = {
        "model": {"type": "tfim", "n_qubits": 4, "h": 1.0, "j": 0.15},
        "k_max": 4,
        "out": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_hierarchy_command_writes_ranked_table(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["--config", str(cfg), "hierarchy"]) == 0
    rows = json.loads((tmp_path / "out" / "hierarchy.json").read_text())
    assert len(rows) == 7
    thetas = {r["pauli"]: r["theta_tilde"] for r in rows}
    j = 0.15
    assert thetas["XYII"] == pytest.approx(-j / 4)
    assert thetas["XIYI"] == pytest.approx(j**2 / 16)
    assert thetas["XIIY"] == pytest.approx(-(j**3) / 32)
    out = capsys.readouterr().out
    assert "rank" in out and "XXXY" in out


def test_twelve_site_hierarchy_is_pinned_byte_for_byte(tmp_path):
    # an n=12 XX chain with seeded fields and couplings at k_max 7: any
    # rewrite of the estimator must leave hierarchy.json unchanged
    rng = random.Random("estimator-pin")
    n = 12
    model = {
        "type": "custom",
        "h": [rng.uniform(0.9, 1.1) for _ in range(n)],
        "couplings": [{"j": 0.15 * rng.uniform(0.9, 1.1),
                       "pauli": "I" * i + "XX" + "I" * (n - i - 2)}
                      for i in range(n - 1)],
    }
    cfg = write_config(tmp_path, model=model, k_max=7)
    assert main(["--config", str(cfg), "hierarchy"]) == 0
    text = (tmp_path / "out" / "hierarchy.json").read_bytes()
    assert len(json.loads(text)) == 155
    assert hashlib.sha256(text).hexdigest() == (
        "a088bbfa4c187ffd78bc4dba840de46f117c358112769ed33183ffd5596e5751")


def test_hierarchy_command_k_max_one_nearest_neighbours_only(tmp_path):
    cfg = write_config(tmp_path, k_max=1)
    assert main(["--config", str(cfg), "hierarchy"]) == 0
    rows = json.loads((tmp_path / "out" / "hierarchy.json").read_text())
    assert len(rows) == 3
    assert all(r["pauli"].replace("I", "") == "XY" for r in rows)


def test_invalid_mode_is_usage_error(tmp_path):
    cfg = write_config(tmp_path, hierarchy={"mode": "bogus"})
    assert main(["--config", str(cfg), "hierarchy"]) == 2


def test_missing_config_is_io_error(tmp_path):
    assert main(["--config", str(tmp_path / "nope.json"), "hierarchy"]) == 1


def test_malformed_config_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"model": \n !}')
    assert main(["--config", str(path), "hierarchy"]) == 2
    assert ":2:" in capsys.readouterr().err


def test_out_and_seed_flags_override_config(tmp_path, capsys):
    cfg = write_config(tmp_path)
    alt = tmp_path / "elsewhere"
    assert main(["--config", str(cfg), "--out", str(alt), "--seed", "9",
                 "hierarchy"]) == 0
    assert (alt / "hierarchy.json").exists()
    assert not (tmp_path / "out" / "hierarchy.json").exists()


def test_hierarchy_output_is_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path, hierarchy={"tie_seed": 3})
    assert main(["--config", str(cfg), "hierarchy"]) == 0
    first = (tmp_path / "out" / "hierarchy.json").read_bytes()
    assert main(["--config", str(cfg), "hierarchy"]) == 0
    assert (tmp_path / "out" / "hierarchy.json").read_bytes() == first


def test_diagrams_command_writes_dot_files(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["--config", str(cfg), "diagrams"]) == 0
    dots = sorted(p.name for p in (tmp_path / "out").glob("*.dot"))
    assert len(dots) == 7
    listing = json.loads((tmp_path / "out" / "leading.json").read_text())
    assert sorted(r["order"] for r in listing) == [1, 1, 1, 2, 2, 3, 4]


def test_sweep_command_writes_csv_per_combination(tmp_path):
    cfg = write_config(
        tmp_path,
        model={"type": "tfim", "n_qubits": 3, "h": 1.0, "j": 0.2},
        k_max=3,
        sweep={
            "n_p_max": 2,
            "j_values": [0.2, 1.0],
            "hierarchies": [["pert", "hierarchy"], ["loc", "hierarchy"]],
        },
    )
    assert main(["--config", str(cfg), "sweep"]) == 0
    out = tmp_path / "out"
    names = sorted(p.name for p in out.glob("*.csv"))
    assert names == [
        "sweep_loc_j0.2.csv",
        "sweep_loc_j1.csv",
        "sweep_pert_j0.2.csv",
        "sweep_pert_j1.csv",
    ]
    text = (out / "sweep_pert_j0.2.csv").read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "n_params,energy,epsilon,iterations"
    assert len(lines) == 4
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == {n[:-4] for n in names}


def test_sweep_zero_units_single_row(tmp_path):
    cfg = write_config(
        tmp_path,
        model={"type": "tfim", "n_qubits": 3, "h": 1.0, "j": 0.2},
        k_max=3,
        sweep={"n_p_max": 0, "j_values": [0.2],
               "hierarchies": [["pert", "hierarchy"]]},
    )
    assert main(["--config", str(cfg), "sweep"]) == 0
    lines = (tmp_path / "out" / "sweep_pert_j0.2.csv").read_text().strip().splitlines()
    assert len(lines) == 2


def test_sweep_unwritable_output_is_io_error(tmp_path):
    # nesting the output directory under a regular file fails for any user
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    cfg = write_config(
        tmp_path,
        model={"type": "tfim", "n_qubits": 3, "h": 1.0, "j": 0.2},
        k_max=2,
        out=str(blocker / "nested"),
        sweep={"n_p_max": 0, "j_values": [0.2],
               "hierarchies": [["pert", "hierarchy"]]},
    )
    assert main(["--config", str(cfg), "sweep"]) == 1


def test_sweep_parallel_jobs_matches_serial(tmp_path):
    overrides = dict(
        model={"type": "tfim", "n_qubits": 3, "h": 1.0, "j": 0.2},
        k_max=3,
        sweep={"n_p_max": 1, "j_values": [0.2, 0.5],
               "hierarchies": [["pert", "hierarchy"]]},
    )
    cfg = write_config(tmp_path, out=str(tmp_path / "serial"), **overrides)
    assert main(["--config", str(cfg), "sweep"]) == 0
    cfg2 = write_config(tmp_path, out=str(tmp_path / "parallel"), **overrides)
    assert main(["--config", str(cfg2), "--jobs", "2", "sweep"]) == 0
    for name in ("sweep_pert_j0.2.csv", "sweep_pert_j0.5.csv", "manifest.json"):
        serial = (tmp_path / "serial" / name).read_bytes()
        parallel = (tmp_path / "parallel" / name).read_bytes()
        assert serial == parallel


def test_custom_model_round_trip(tmp_path):
    cfg = write_config(
        tmp_path,
        model={
            "type": "custom",
            "h": [1.0, 1.2, 0.9],
            "couplings": [
                {"j": 0.1, "pauli": "XXI"},
                {"j": 0.2, "pauli": "IXX"},
            ],
        },
        k_max=2,
    )
    assert main(["--config", str(cfg), "hierarchy"]) == 0
    rows = json.loads((tmp_path / "out" / "hierarchy.json").read_text())
    assert {r["pauli"] for r in rows} == {"XYI", "IXY", "XIY"}


def test_degenerate_model_exits_three(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        model={
            "type": "custom",
            "h": [0.0, 1.0],
            "couplings": [{"j": 0.5, "pauli": "XI"}],
        },
        k_max=2,
    )
    assert main(["--config", str(cfg), "hierarchy"]) == 3
    assert "degenerate" in capsys.readouterr().err


def test_verify_command_passes_on_default_model(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["--config", str(cfg), "verify"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4
    assert "FAIL" not in out


def test_console_entry_point_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "pertvqe.cli", "--config", "x.json", "badcmd"],
        capture_output=True,
    )
    assert proc.returncode == 2


def _run_python(code, cwd):
    """Run ``code`` in a fresh interpreter (this one has scipy loaded) that
    imports this pertvqe."""
    path = [str(Path(pertvqe.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))})


@pytest.mark.parametrize("module", ["pertvqe", "pertvqe.cli"])
def test_import_loads_neither_scipy_nor_multiprocessing(tmp_path, module):
    proc = _run_python(
        f"import sys, {module}; print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('scipy', 'multiprocessing')))", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("command", ["hierarchy", "diagrams"])
def test_estimator_commands_run_without_scipy(tmp_path, command):
    cfg = write_config(tmp_path, k_max=7,
                       model={"type": "tfim", "n_qubits": 12, "h": 1.0, "j": 0.15})
    proc = _run_python(
        "import sys; sys.modules['scipy'] = None; from pertvqe.cli import main; "
        f"sys.exit(main(['--config', {str(cfg)!r}, {command!r}]))", tmp_path)
    assert proc.returncode == 0, proc.stderr
    written = "hierarchy.json" if command == "hierarchy" else "leading.json"
    assert (tmp_path / "out" / written).exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_usage_error(tmp_path, monkeypatch, capsys, jobs):
    import pertvqe.cli

    def forbidden(*args, **kwargs):
        raise AssertionError("no sweep work may start")

    monkeypatch.setattr(pertvqe.cli, "build_priority_list", forbidden)
    monkeypatch.setattr(pertvqe.cli, "hierarchy_sweep", forbidden)
    cfg = write_config(
        tmp_path,
        sweep={"n_p_max": 1, "j_values": [0.15], "hierarchies": [["pert", "parent"]]},
    )
    with pytest.raises(SystemExit) as exit_info:
        main(["--config", str(cfg), "--jobs", jobs, "sweep"])
    assert exit_info.value.code == 2
    assert f"--jobs must be at least 1, got {jobs}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_list_too_short_fails_before_any_optimization(tmp_path, monkeypatch, capsys):
    import pertvqe.vqe

    def forbidden(*args, **kwargs):
        raise AssertionError("no sweep work may start")

    monkeypatch.setattr(pertvqe.vqe, "optimize", forbidden)
    monkeypatch.setattr(pertvqe.vqe, "exact_ground", forbidden)
    # the looping loc list could run; the 7-unit pert list cannot
    cfg = write_config(
        tmp_path,
        sweep={"n_p_max": 10, "j_values": [0.15],
               "hierarchies": [["loc", "hierarchy"], ["pert", "parent"]]},
    )
    assert main(["--config", str(cfg), "sweep"]) == 2
    assert "pert list holds 7 units, 10 requested" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unknown_sweep_hierarchy_is_usage_error(tmp_path):
    cfg = write_config(tmp_path, sweep={"hierarchies": [["pert", "sideways"]]})
    assert main(["--config", str(cfg), "sweep"]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("k_max", [0, -1])
def test_k_max_below_one_is_usage_error(tmp_path, capsys, k_max):
    cfg = write_config(tmp_path, k_max=k_max)
    assert main(["--config", str(cfg), "hierarchy"]) == 2
    assert "k_max must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sweep", [
    {"j_values": [0.15, 0.1500001], "hierarchies": [["pert", "parent"]]},
    {"j_values": [0.15], "hierarchies": [["loc", "hierarchy"], ["loc", "hierarchy"]]},
])
def test_sweeps_sharing_an_output_stem_are_usage_error(tmp_path, capsys, sweep):
    cfg = write_config(tmp_path, sweep=dict(n_p_max=2, **sweep))
    assert main(["--config", str(cfg), "sweep"]) == 2
    assert "would both write sweep_" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_above_qubit_cap_fails_before_any_work(tmp_path, monkeypatch, capsys):
    import pertvqe.cli

    def forbidden(*args, **kwargs):
        raise AssertionError("no sweep work may start")

    monkeypatch.setattr(pertvqe.cli, "build_priority_list", forbidden)
    monkeypatch.setattr(pertvqe.cli, "hierarchy_sweep", forbidden)
    cfg = write_config(
        tmp_path,
        model={"type": "tfim", "n_qubits": 15, "h": 1.0, "j": 0.15},
        sweep={"n_p_max": 2, "j_values": [0.15], "hierarchies": [["pert", "parent"]]},
    )
    assert main(["--config", str(cfg), "sweep"]) == 2
    assert "capped at 14 qubits" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _one_qubit_sweep(tmp_path, pauli):
    return write_config(
        tmp_path,
        model={"type": "custom", "h": [1.0], "couplings": [{"j": 0.1, "pauli": pauli}]},
        sweep={"n_p_max": 1, "j_values": [0.1], "hierarchies": [["pert", "parent"]]},
    )


def test_one_qubit_complex_sweep_fails_before_any_work(tmp_path, monkeypatch, capsys):
    # the Lanczos reference of a complex H needs two qubits
    import pertvqe.cli

    def forbidden(*args, **kwargs):
        raise AssertionError("no sweep work may start")

    monkeypatch.setattr(pertvqe.cli, "build_priority_list", forbidden)
    assert main(["--config", str(_one_qubit_sweep(tmp_path, "Y")), "sweep"]) == 2
    assert "needs at least 2 qubits" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_one_qubit_real_sweep_runs(tmp_path):
    assert main(["--config", str(_one_qubit_sweep(tmp_path, "X")), "sweep"]) == 0
    rows = (tmp_path / "out" / "sweep_pert_parent_j0.1.csv").read_text().splitlines()
    assert len(rows) == 3
    assert float(rows[-1].split(",")[1]) == pytest.approx(-1.0049875621, abs=1e-9)


def test_sweep_with_zero_coupling_zero_fails_before_any_work(tmp_path, monkeypatch, capsys):
    # no rescaling takes a zero coupling 0 to a j_value, so every sweep
    # would run the J=0 model under its own j_value's file name
    import pertvqe.cli

    def forbidden(*args, **kwargs):
        raise AssertionError("no sweep work may start")

    monkeypatch.setattr(pertvqe.cli, "build_priority_list", forbidden)
    cfg = write_config(
        tmp_path,
        model={"type": "tfim", "n_qubits": 3},
        k_max=3,
        sweep={"n_p_max": 2, "j_values": [0.15, 6.0], "hierarchies": [["pert", "hierarchy"]]},
    )
    assert main(["--config", str(cfg), "sweep"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "coupling 0 to each j_value; it must be nonzero" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, overrides, message", [
    ("hierarchy", {"model": {"type": "tfim", "h": 1.0}}, "missing field 'n_qubits'"),
    ("hierarchy", {"k_max": "abc"}, "k_max:"),
    ("sweep", {"sweep": {"j_values": ["x"]}}, "sweep.j_values:"),
    ("hierarchy", {"hierarchy": {"tie_seed": "x"}}, "hierarchy.tie_seed:"),
    ("hierarchy", {"model": {"type": "custom", "h": [1.0, 1.0],
                             "couplings": [{"j": 0.1, "pauli": "XQ"}]}}, "'XQ'"),
    ("hierarchy", {"model": {"type": "tfim", "n_qubits": 1}}, "at least two qubits"),
    ("hierarchy", {"model": {"type": "custom", "h": [1.0, 1.2, 0.9],
                             "couplings": [{"j": 0.1, "pauli": "XIX"}]},
                   "k_max": 1, "hierarchy": {"mode": "loc"}}, "survive the loc filter"),
    ("sweep", {"model": {"type": "tfim", "n_qubits": 3, "h": 1.0, "j": 0.2},
               "sweep": {"n_p_max": -1, "j_values": [0.2],
                         "hierarchies": [["pert", "hierarchy"]]}}, "n_p_max"),
    ("hierarchy", {"model": [1]}, "model must be a JSON object"),
    ("hierarchy", {"hierarchy": [1]}, "hierarchy must be a JSON object"),
    ("sweep", {"sweep": [1]}, "sweep must be a JSON object"),
    ("hierarchy", {"k_max": 2.7}, "k_max: 2.7 is not an integer"),
    ("hierarchy", {"hierarchy": {"tie_seed": 1.5}}, "hierarchy.tie_seed: 1.5 is not"),
    ("sweep", {"sweep": {"n_p_max": 2.5}}, "sweep.n_p_max: 2.5 is not"),
    ("sweep", {"sweep": {"max_iterations": 10.5}}, "sweep.max_iterations: 10.5 is not"),
    ("hierarchy", {"model": {"type": "tfim", "n_qubits": 4.5}}, "4.5 is not an integer"),
    ("hierarchy", {"hierarchy": {"tie_seed": -1}}, "tie_seed (--seed) must be at least 0"),
    ("hierarchy", {"out": 5}, "out must be a string, got int"),
    ("sweep", {"sweep": {"j_values": [float("nan")]}}, "sweep.j_values must be finite"),
    ("sweep", {"sweep": {"gtol": "nan"}}, "sweep.gtol must be finite and positive"),
    ("sweep", {"sweep": {"gtol": -1}}, "sweep.gtol must be finite and positive"),
    ("sweep", {"sweep": {"max_iterations": 0}}, "sweep.max_iterations must be at least 1"),
    ("sweep", {"sweep": {"hierarchies": [5]}}, "sweep.hierarchies:"),
    ("hierarchy", {"hierarchy": {"tie_seed": False}},
     "hierarchy.tie_seed: false is not an integer"),
    ("hierarchy", {"k_max": True}, "k_max: true is not an integer"),
    ("sweep", {"sweep": {"n_p_max": True}}, "sweep.n_p_max: true is not an integer"),
    ("sweep", {"sweep": {"max_iterations": True}},
     "sweep.max_iterations: true is not an integer"),
    ("hierarchy", {"model": {"type": "tfim", "n_qubits": True}},
     "true is not an integer"),
    ("hierarchy", {"model": {"type": "tfim", "n_qubits": 4, "h": float("nan")}},
     "model: nan is not a finite number"),
    ("hierarchy", {"model": {"type": "tfim", "n_qubits": 4, "j": float("inf")}},
     "model: inf is not a finite number"),
    ("hierarchy", {"model": {"type": "custom", "h": [1.0, 1.0],
                             "couplings": [{"j": float("nan"), "pauli": "XX"}]}},
     "model: nan is not a finite number"),
    ("hierarchy", {"model": {"type": "custom", "h": [1.0, 1.0],
                             "couplings": [{"j": float("inf"), "pauli": "XX"}]}},
     "model: inf is not a finite number"),
    ("hierarchy", {"model": {"type": "custom", "h": [1.0, float("-inf")],
                             "couplings": [{"j": 0.1, "pauli": "XX"}]}},
     "model: -inf is not a finite number"),
    ("hierarchy", {"model": {"type": "tfim", "n_qubits": 4, "h": True}},
     "model: true is not a number"),
    ("hierarchy", {"model": {"type": "custom", "h": [1.0, False],
                             "couplings": [{"j": 0.1, "pauli": "XX"}]}},
     "model: false is not a number"),
    ("hierarchy", {"model": {"type": "custom", "h": [1.0, 1.0],
                             "couplings": [{"j": True, "pauli": "XX"}]}},
     "model: true is not a number"),
    ("sweep", {"sweep": {"gtol": True}}, "sweep.gtol: true is not a number"),
    ("sweep", {"sweep": {"j_values": [0.15, True]}}, "sweep.j_values: true is not a number"),
    ("sweep", {"sweep": {"gtoll": 0.5}}, "config error: unknown key sweep.gtoll\n"),
    ("hierarchy", {"hierachy": {"mode": "rev"}}, "config error: unknown key hierachy\n"),
    ("hierarchy", {"kmax": 9}, "config error: unknown key kmax\n"),
    ("hierarchy", {"hierarchy": {"mode": "rev", "orderin": "parent"}},
     "config error: unknown key hierarchy.orderin\n"),
], ids=["no-n_qubits", "k_max-text", "j_values-text", "tie_seed-text", "bad-label",
        "one-site-chain", "empty-loc-filter", "negative-n_p_max", "model-list",
        "hierarchy-list", "sweep-list", "k_max-fraction", "tie_seed-fraction",
        "n_p_max-fraction", "max_iterations-fraction", "n_qubits-fraction",
        "tie_seed-negative", "out-number", "j_values-nan", "gtol-nan", "gtol-negative",
        "max_iterations-zero", "hierarchies-entry-not-a-pair", "tie_seed-false",
        "k_max-true", "n_p_max-true", "max_iterations-true", "n_qubits-true",
        "tfim-h-nan", "tfim-j-inf", "coupling-j-nan", "coupling-j-inf", "custom-h-inf",
        "tfim-h-true", "custom-h-false", "coupling-j-true", "gtol-true",
        "j_values-true", "sweep-unknown-key", "top-unknown-section", "top-unknown-key",
        "hierarchy-unknown-key"])
def test_unusable_config_is_usage_error(tmp_path, capsys, command, overrides, message):
    cfg = write_config(tmp_path, **overrides)
    assert main(["--config", str(cfg), command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not (tmp_path / "out").exists()


def test_negative_seed_flag_is_usage_error(tmp_path, monkeypatch, capsys):
    import pertvqe.cli

    def forbidden(*args, **kwargs):
        raise AssertionError("no estimator work may start")

    monkeypatch.setattr(pertvqe.cli, "build_priority_list", forbidden)
    cfg = write_config(tmp_path)
    assert main(["--config", str(cfg), "--seed", "-1", "hierarchy"]) == 2
    assert "tie_seed (--seed) must be at least 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_hierarchy_on_32_qubits_never_builds_the_parent(tmp_path, monkeypatch):
    import pertvqe.ansatz
    import pertvqe.cli

    def forbidden(*args, **kwargs):
        raise AssertionError("the 2^n parent may not be built")

    monkeypatch.setattr(pertvqe.cli, "build_qca", forbidden)
    monkeypatch.setattr(pertvqe.ansatz, "build_qca", forbidden)
    h, j = 1.0, 0.15
    cfg = write_config(tmp_path, k_max=3,
                       model={"type": "tfim", "n_qubits": 32, "h": h, "j": j})
    assert main(["--config", str(cfg), "hierarchy"]) == 0
    rows = json.loads((tmp_path / "out" / "hierarchy.json").read_text())
    first = [r for r in rows if len(r["leading_ks"]) == 1 and sum(r["leading_ks"][0]) == 1]
    assert sorted(r["leading_ks"][0].index(1) for r in first) == list(range(31))
    for r in first:
        assert abs(r["theta_tilde"]) == pytest.approx(j / (2 * (h + h)), rel=1e-12)


@pytest.mark.parametrize("flags", [[], ["--out", "x"], ["--seed", "3"]])
def test_config_that_is_not_an_object_is_usage_error(tmp_path, capsys, flags):
    path = tmp_path / "config.json"
    path.write_text("[1]")
    assert main(["--config", str(path), *flags, "hierarchy"]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: config must be a JSON object, got list")


def test_integral_float_fields_are_accepted(tmp_path):
    cfg = write_config(tmp_path, k_max=1.0,
                       model={"type": "tfim", "n_qubits": 4.0, "h": 1.0, "j": 0.15})
    assert main(["--config", str(cfg), "hierarchy"]) == 0
    assert len(json.loads((tmp_path / "out" / "hierarchy.json").read_text())) == 3


def test_value_error_inside_a_command_propagates(tmp_path, monkeypatch):
    import pertvqe.cli

    def broken(*args, **kwargs):
        raise ValueError("a programming error")

    monkeypatch.setattr(pertvqe.cli, "hierarchy_sweep", broken)
    cfg = write_config(
        tmp_path,
        model={"type": "tfim", "n_qubits": 3, "h": 1.0, "j": 0.2},
        sweep={"n_p_max": 1, "j_values": [0.2], "hierarchies": [["pert", "hierarchy"]]},
    )
    with pytest.raises(ValueError, match="a programming error"):
        main(["--config", str(cfg), "sweep"])


def test_verify_prints_fail_and_exits_three_when_a_check_fails(tmp_path, monkeypatch, capsys):
    import pertvqe.cli

    monkeypatch.setattr(pertvqe.cli, "residual_slope", lambda model, scales: 2.0)
    cfg = write_config(tmp_path)
    assert main(["--config", str(cfg), "verify"]) == 3
    out = capsys.readouterr().out
    assert "FAIL  series residual slope: slope 2.00" in out
    assert out.count("PASS") == 3

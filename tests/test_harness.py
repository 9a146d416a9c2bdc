import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import fastexit
import fastexit.ldp
from fastexit.cli import RUNS, main
from fastexit.config import CONFIG_SCHEMA, build_system, resolve_config, rho_bar_limit, schema_errors
from fastexit.errors import ConfigError
from fastexit.runs import run_average, run_check, run_exit


def reference_config(**overrides):
    cfg = {
        "operator": {"n_modes": 8},
        "coefficients": {
            "f": {"kind": "linear", "slope": -1.0},
            "g": {"kind": "constant", "value": 1.0},
            "sigma": {"kind": "constant", "value": 1.0},
        },
        "noise": {
            "q_spectrum": {"kind": "flat", "value": float(np.sqrt(2.0))},
            "b_spectrum": {"kind": "list", "values": [1.0, 1.0]},
        },
        "multiscale": {
            "eps": [0.0625],
            "alpha_law": {"coeff": 0.5, "exponent": 0.25},
            "beta_law": {"coeff": 0.5, "exponent": 0.25},
            "rho_bar": 1.0,
        },
        "solver": {"t_final": 0.5, "dt": 0.01, "delta": 0.25},
        "experiment": {"kind": "check", "domain": {"level": 0.25}},
        "seed": 7,
        "n_paths": 32,
    }
    for key, val in overrides.items():
        if isinstance(val, dict) and isinstance(cfg.get(key), dict):
            cfg[key] = {**cfg[key], **val}
        else:
            cfg[key] = val
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


def test_schema_rejects_bad_field():
    with pytest.raises(ConfigError) as exc:
        resolve_config(reference_config(solver={"dt": -1.0}))
    assert "solver.dt" in str(exc.value)
    with pytest.raises(ConfigError):
        resolve_config({"coefficients": {}, "experiment": {"kind": "check"}})


ROOT = Path(__file__).parents[1]
CONFIG_FILES = sorted([*(ROOT / "configs").glob("*.json"), *(ROOT / "perfbench" / "workloads").glob("*.json")])
DELETE = object()


def _mutated(path, value):
    """The exit reference config with the field at path (keys) set to value, or deleted if value is DELETE."""
    cfg = json.loads((ROOT / "configs" / "exit_reference.json").read_text())
    *parents, last = path
    node = cfg
    for key in parents:
        node = node[key]
    if value is DELETE:
        del node[last]
    else:
        node[last] = value
    return cfg


# one or more mutations per schema keyword, each accepted or rejected
SCHEMA_CASES = {
    "type-string-for-integer": _mutated(["operator", "n_modes"], "16"),
    "type-bool-for-number": _mutated(["solver", "dt"], True),
    "type-bool-for-integer": _mutated(["seed"], False),
    "type-float-integer": _mutated(["operator", "n_modes"], 16.0),
    "type-fractional-for-integer": _mutated(["operator", "n_modes"], 16.5),
    "type-root-not-object": [],
    "type-number-for-object": _mutated(["solver"], 1.0),
    "required-root": _mutated(["coefficients"], DELETE),
    "required-nested": _mutated(["experiment", "kind"], DELETE),
    "required-spec-kind": _mutated(["coefficients", "g", "kind"], DELETE),
    "additional-root": _mutated(["colour"], "red"),
    "additional-nested": _mutated(["experiment", "domain", "centre"], 0.3),
    "additional-open-spec": _mutated(["experiment", "x0", "extra"], 1),
    "additional-noise-dimension": _mutated(["noise", "dimension"], 1),
    "required-and-additional-root": {**_mutated(["coefficients"], DELETE), "colour": "red"},
    "enum-outside": _mutated(["experiment", "kind"], "mystery"),
    "enum-bool": _mutated(["experiment", "kind"], True),
    "enum-x0-kind": _mutated(["experiment", "x0", "kind"], "bogus"),
    "minimum-edge": _mutated(["operator", "n_modes"], 2),
    "minimum-below": _mutated(["operator", "n_modes"], 1),
    "minimum-zero-seed": _mutated(["seed"], 0),
    "minimum-negative-seed": _mutated(["seed"], -1),
    "exclusive-minimum-edge": _mutated(["solver", "dt"], 0.0),
    "exclusive-minimum-above": _mutated(["solver", "dt"], 1e-300),
    "exclusive-minimum-negative-level": _mutated(["experiment", "domain", "level"], -0.25),
    "min-items-empty-eps": _mutated(["multiscale", "eps"], []),
    "items-eps-zero": _mutated(["multiscale", "eps"], [0.1, 0.0]),
    "items-eps-string": _mutated(["multiscale", "eps"], [0.1, "x"]),
    "items-y-values-null": _mutated(["experiment", "y_values"], [0.5, None]),
    "any-of-rho-bar-inf": _mutated(["multiscale", "rho_bar"], "inf"),
    "any-of-rho-bar-zero": _mutated(["multiscale", "rho_bar"], 0),
    "any-of-rho-bar-negative": _mutated(["multiscale", "rho_bar"], -1),
    "any-of-rho-bar-string": _mutated(["multiscale", "rho_bar"], "x"),
    "any-of-rho-bar-bool": _mutated(["multiscale", "rho_bar"], True),
    "t-max-null": _mutated(["experiment", "t_max"], None),
    "t-max-zero": _mutated(["experiment", "t_max"], 0),
    "path-file-null": _mutated(["experiment", "path_file"], None),
    "path-file-number": _mutated(["experiment", "path_file"], 3),
    "law-extra-key": _mutated(["multiscale", "alpha_law", "power"], 1.0),
    "errors-at-two-paths": _mutated(["solver", "dt"], -1.0) | {"operator": {"n_modes": 1}},
}


@pytest.mark.parametrize("cfg, resolve", [
    *(pytest.param(json.loads(p.read_text()), resolve, id=f"{p.parent.name}/{p.stem}{'-resolved' * resolve}")
      for resolve in (False, True) for p in CONFIG_FILES),
    *(pytest.param(cfg, False, id=name) for name, cfg in SCHEMA_CASES.items()),
])
def test_schema_errors_match_json_schema_reference(cfg, resolve):
    # the in-package validator accepts and rejects what a JSON Schema validator
    # does, with the same error paths in the same sorted order
    jsonschema = pytest.importorskip("jsonschema")
    if resolve:
        cfg = resolve_config(cfg)
    reference = sorted(jsonschema.Draft202012Validator(CONFIG_SCHEMA).iter_errors(cfg), key=lambda e: list(e.absolute_path))
    assert [path for path, _ in schema_errors(CONFIG_SCHEMA, cfg)] == [tuple(e.absolute_path) for e in reference]


@pytest.mark.parametrize("schema, instance", [({"enum": [0, 1]}, True), ({"const": False}, 0), ({"const": 1}, 1.0)])
def test_schema_errors_compare_bools_as_json(schema, instance):
    # in JSON a bool is no number, though True == 1 in Python; 1.0 and 1 are equal
    jsonschema = pytest.importorskip("jsonschema")
    assert bool(schema_errors(schema, instance)) == (not jsonschema.Draft202012Validator(schema).is_valid(instance))


@pytest.mark.parametrize("schema, instance", [
    ({"type": "array", "maxItems": 2}, [1, 2, 3]),
    ({"type": "object", "properties": {"name": {"type": "string", "pattern": "^a"}}}, {}),
    ({"type": "object", "additionalProperties": {"type": "number"}}, {"a": "x"}),
    ({"anyOf": [{"type": "int"}, {"const": 1}]}, 1),
], ids=["maxItems", "pattern-unreached", "additionalProperties-schema", "unknown-type"])
def test_schema_errors_refuse_unimplemented_keywords(schema, instance):
    # a keyword the validator does not implement is an error, even where the
    # instance never reaches it, so no rule of a schema is silently skipped
    with pytest.raises(NotImplementedError):
        schema_errors(schema, instance)


def test_resolution_materializes_defaults():
    resolved = resolve_config(reference_config())
    assert resolved["operator"]["grid_factor"] == 4
    assert resolved["experiment"]["t_max_cap"] == 1e5
    assert resolved["threads"] == 1
    # a spec of another kind than the default replaces it, taking no stray keys
    assert resolved["noise"]["b_spectrum"] == {"kind": "list", "values": [1.0, 1.0]}
    # resolved copy re-validates
    resolve_config(resolved)


def test_rho_bar_limit_rules():
    assert rho_bar_limit({"coeff": 1, "exponent": 0.25}, {"coeff": 1, "exponent": 0.5}) == 0.0
    assert rho_bar_limit({"coeff": 1, "exponent": 0.5}, {"coeff": 1, "exponent": 0.25}) == np.inf
    assert rho_bar_limit({"coeff": 2, "exponent": 0.5}, {"coeff": 1, "exponent": 0.5}) == 0.5


def test_run_check_reference_passes(tmp_path):
    code = run_check(resolve_config(reference_config()), tmp_path)
    assert code == 0
    report = json.loads((tmp_path / "check_report.json").read_text())
    assert report["passed"]
    assert report["required"] == ["nondegeneracy", "rho_bar_consistency", "exit_hypotheses"]
    assert (tmp_path / "run_manifest.json").exists()
    assert (tmp_path / "config_resolved.json").exists()


def test_run_check_rho_mismatch_fails(tmp_path):
    cfg = reference_config(multiscale={
        "eps": [0.0625],
        "alpha_law": {"coeff": 1.0, "exponent": 0.25},
        "beta_law": {"coeff": 1.0, "exponent": 0.5},
        "rho_bar": 1.0,
    })
    code = run_check(resolve_config(cfg), tmp_path)
    assert code == 2
    report = json.loads((tmp_path / "check_report.json").read_text())
    assert not report["checks"]["rho_bar_consistency"]["passed"]


def test_run_check_nondegeneracy_failure(tmp_path):
    cfg = reference_config(
        coefficients={
            "f": {"kind": "linear", "slope": -1.0},
            "g": {"kind": "linear", "slope": 1.0},
            "sigma": {"kind": "constant", "value": 1.0},
        },
        multiscale={
            "eps": [0.0625],
            "alpha_law": {"coeff": 1.0, "exponent": 0.25},
            "beta_law": {"coeff": 0.0, "exponent": 0.25},
            "rho_bar": 0.0,
        },
    )
    cfg["experiment"] = {"kind": "check"}
    code = run_check(resolve_config(cfg), tmp_path)
    assert code == 2
    report = json.loads((tmp_path / "check_report.json").read_text())
    assert not report["checks"]["nondegeneracy"]["passed"]


def test_run_average_and_emit(tmp_path):
    cfg = reference_config(multiscale={"eps": [0.25, 0.0625]}, n_paths=24)
    cfg["experiment"] = {"kind": "average", "x0": {"kind": "cosine_plus_constant", "amp": 1.0, "freq": 1, "offset": 0.5}}
    resolved = resolve_config(cfg)
    code = run_average(dict(resolved, threads=2), tmp_path)
    assert code == 0
    rows = np.genfromtxt(tmp_path / "averaging_errors.csv", delimiter=",", names=True)
    assert rows.shape == (2,)


def test_run_exit_smoke_and_manifest_reproducibility(tmp_path):
    cfg = reference_config(
        multiscale={"eps": [0.0625, 0.015625]},
        n_paths=48,
        solver={"t_final": 1.0, "dt": 0.01, "delta": 0.5},
    )
    cfg["experiment"] = {"kind": "exit", "domain": {"level": 0.25}, "t_max": 60.0}
    resolved = resolve_config(cfg)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    d1.mkdir(), d2.mkdir()
    assert run_exit(resolved, d1) == 0
    assert run_exit(dict(resolved, threads=2), d2) == 0
    m1 = json.loads((d1 / "run_manifest.json").read_text())
    m2 = json.loads((d2 / "run_manifest.json").read_text())
    # bit-identical outputs across runs/threads; the resolved config records the thread count
    assert json.loads((d2 / "config_resolved.json").read_text())["threads"] == 2
    m1_results, m2_results = (
        {k: v for k, v in m["outputs"].items() if k != "config_resolved.json"} for m in (m1, m2)
    )
    assert m1_results == m2_results
    # the work counters are deterministic too: per level, every row-step that
    # advanced a live path, and more for rows stepped on to the end of the
    # chunk they left in
    assert m1["ensemble_work"] == m2["ensemble_work"]
    taus = np.genfromtxt(d1 / "exit_taus.csv", delimiter=",", names=True)
    for work, eps in zip(m1["ensemble_work"], [0.0625, 0.015625], strict=True):
        level_taus = taus["tau"][np.isclose(taus["gamma"], np.sqrt(eps))]  # gamma = (alpha + beta)^2
        assert work["eps"] == eps and work["chunks"] >= 1 and level_taus.size == 48
        assert work["row_steps"] >= np.ceil(level_taus / 0.01 - 1e-9).sum()
    summary = json.loads((d1 / "exit_summary.json").read_text())
    assert summary["v_bar_target"] == pytest.approx(0.25, rel=1e-9)
    assert summary["extrapolation"] is not None
    assert "speed_note" in summary
    # the resolved copy written beside the outputs re-runs to the same manifest
    d3 = tmp_path / "c"
    d3.mkdir()
    rerun = resolve_config(json.loads((d1 / "config_resolved.json").read_text()))
    assert run_exit(rerun, d3) == 0
    m3 = json.loads((d3 / "run_manifest.json").read_text())
    assert m3["outputs"] == m1["outputs"]


def test_run_average_noise_off_scheme_tolerance(tmp_path):
    cfg = reference_config(
        multiscale={
            "eps": [0.25, 0.0625],
            "alpha_law": {"coeff": 0.0, "exponent": 0.5},
            "beta_law": {"coeff": 0.0, "exponent": 0.5},
            "rho_bar": 1.0,
        },
        n_paths=4,
    )
    cfg["experiment"] = {"kind": "average", "x0": {"kind": "constant", "value": 0.8}}
    assert run_average(resolve_config(cfg), tmp_path) == 0
    dt = cfg["solver"]["dt"]
    rows = np.atleast_1d(np.genfromtxt(tmp_path / "averaging_errors.csv", delimiter=",", names=True))
    assert all(float(r["mean_err"]) < 0.5 * dt for r in rows)  # exponential Euler vs RK4, O(dt)
    summary = json.loads((tmp_path / "averaging_summary.json").read_text())
    assert summary["monotone_within_ci"]


def test_run_exit_single_level_no_extrapolation(tmp_path):
    cfg = reference_config(n_paths=32)
    cfg["experiment"] = {"kind": "exit", "domain": {"level": 0.25}, "t_max": 30.0}
    assert run_exit(resolve_config(cfg), tmp_path) == 0
    summary = json.loads((tmp_path / "exit_summary.json").read_text())
    assert summary["extrapolation"] is None and summary["relative_gap"] is None
    assert len(summary["levels"]) == 1


def test_run_exit_seed_stability_within_cis(tmp_path):
    cfg = reference_config(n_paths=64)
    cfg["experiment"] = {"kind": "exit", "domain": {"level": 0.25}, "t_max": 60.0}
    resolved = resolve_config(cfg)
    d1, d2 = tmp_path / "s1", tmp_path / "s2"
    d1.mkdir(), d2.mkdir()
    assert run_exit(resolved, d1) == 0
    resolved2 = dict(resolved, seed=resolved["seed"] + 1)
    assert run_exit(resolved2, d2) == 0
    r1 = np.atleast_1d(np.genfromtxt(d1 / "exit_stats.csv", delimiter=",", names=True))[0]
    r2 = np.atleast_1d(np.genfromtxt(d2 / "exit_stats.csv", delimiter=",", names=True))[0]
    combined = float(r1["ci_halfwidth"]) + float(r2["ci_halfwidth"])
    assert abs(float(r1["log_mean_tau"]) - float(r2["log_mean_tau"])) <= 4 * combined


def test_run_exit_requires_passing_checks(tmp_path):
    cfg = reference_config(
        coefficients={
            "f": {"kind": "linear", "slope": 1.0},  # repelling flow
            "g": {"kind": "constant", "value": 1.0},
            "sigma": {"kind": "constant", "value": 1.0},
        },
    )
    cfg["experiment"] = {"kind": "exit", "domain": {"level": 0.25}}
    assert run_exit(resolve_config(cfg), tmp_path) == 2


def test_cli_statuses(tmp_path):
    cfg_path = write_config(tmp_path, reference_config())
    out = tmp_path / "out"
    assert main(["check", "--config", str(cfg_path), "--out", str(out)]) == 0

    # rho_bar = 1 contradicts the laws, whose ratio beta / alpha = eps^0.25 tends to 0
    bad = reference_config(multiscale={
        "eps": [0.0625],
        "alpha_law": {"coeff": 1.0, "exponent": 0.25},
        "beta_law": {"coeff": 1.0, "exponent": 0.5},
        "rho_bar": 1.0,
    })
    bad_path = write_config(tmp_path, bad, "bad.json")
    assert main(["check", "--config", str(bad_path), "--out", str(tmp_path / "o2")]) == 2

    # divergent simulate: strongly repelling drift
    div = reference_config(
        coefficients={
            "f": {"kind": "linear", "slope": 5.0},
            "g": {"kind": "constant", "value": 1.0},
            "sigma": {"kind": "constant", "value": 1.0},
        },
        solver={"t_final": 20.0, "dt": 0.01, "delta": 0.5},
    )
    div["experiment"] = {"kind": "simulate", "x0": {"kind": "constant", "value": 1.0}}
    div_path = write_config(tmp_path, div, "div.json")
    assert main(["simulate", "--config", str(div_path), "--out", str(tmp_path / "o3")]) == 3

    assert main(["check", "--config", str(tmp_path / "missing.json"), "--out", str(out)]) == 1

    malformed = tmp_path / "malformed.json"
    malformed.write_text("{not json")
    assert main(["check", "--config", str(malformed), "--out", str(out)]) == 1


def test_cli_average_rejects_empty_delta_window(tmp_path, capsys):
    cfg = reference_config(solver={"t_final": 1.0, "dt": 0.01, "delta": 5.0}, n_paths=4)
    cfg["experiment"] = {"kind": "average"}
    p = write_config(tmp_path, cfg)
    assert main(["average", "--config", str(p), "--out", str(tmp_path / "avg")]) == 1
    assert "solver.delta" in capsys.readouterr().err


@pytest.mark.parametrize("path, value", [
    (("operator", "n_modes"), 8.0),
    (("n_paths",), 8.0),
    (("solver", "dt"), float("nan")),
    (("solver", "t_final"), float("inf")),
], ids=["n_modes-8.0", "n_paths-8.0", "dt-NaN", "t_final-Infinity"])
def test_cli_schema_edge_values_end_cleanly(tmp_path, capsys, path, value):
    # JSON Schema counts 8.0 as an integer, and Python's json reads NaN and
    # Infinity: such a config runs as its integer twin or ends in status 1
    cfg = json.loads((ROOT / "configs" / "averaging_reference.json").read_text())
    cfg["multiscale"]["eps"], cfg["solver"], cfg["n_paths"] = [0.1], {"t_final": 0.1, "dt": 0.01, "delta": 0.05}, 8
    *parents, key = path
    node = cfg
    for name in parents:
        node = node[name]
    node[key] = value
    p = write_config(tmp_path, cfg)
    status = main(["average", "--config", str(p), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    if isinstance(value, float) and value.is_integer():
        assert status == 0
        resolved = json.loads((tmp_path / "out" / "config_resolved.json").read_text())
        assert isinstance(resolved[path[0]] if len(path) == 1 else resolved[path[0]][path[1]], int)
    else:
        assert status == 1 and len(err.splitlines()) == 1 and "not a number" in err


@pytest.mark.parametrize("cfg, field", [
    ([], "<root>"),
    ({"experiment": [], "coefficients": {}}, "experiment"),
], ids=["root-list", "experiment-list"])
def test_cli_non_object_config_ends_cleanly(tmp_path, capsys, cfg, field):
    # the command line writes its overrides into the root and the experiment
    # objects before the schema sees them: either one of another type ends in
    # status 1 and one line naming it, not a traceback
    p = write_config(tmp_path, cfg)
    assert main(["check", "--config", str(p), "--seed", "3", "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert f"config field '{field}': [] is not of type 'object'" in err


def test_resolve_config_refuses_non_finite_numbers():
    # NaN and infinity pass the schema's number rules: a config built in Python
    # is refused at resolution, at the first such field by path, as a file is
    cfg = json.loads((ROOT / "configs" / "averaging_reference.json").read_text())
    cfg["solver"]["dt"] = float("nan")
    with pytest.raises(ConfigError, match="nan is not a number") as exc:
        resolve_config(cfg)
    assert exc.value.field_path == "solver.dt"
    cfg["multiscale"]["eps"] = [0.1, float("inf")]
    with pytest.raises(ConfigError, match="inf is not a number") as exc:
        resolve_config(cfg)
    assert exc.value.field_path == "multiscale.eps.1"


def test_cli_fixed_horizon_runs_reject_dt_above_t_final(tmp_path, capsys):
    # simulate and average step from 0 to t_final, and action integrates the
    # limit ODE there: a step longer than the horizon is a config error
    for kind in ("simulate", "average", "action"):
        cfg = reference_config(solver={"t_final": 0.01, "dt": 0.02, "delta": 0.005}, n_paths=4)
        cfg["experiment"] = {"kind": kind}
        p = write_config(tmp_path, cfg, f"{kind}.json")
        assert main([kind, "--config", str(p), "--out", str(tmp_path / kind)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "solver.dt" in err


def test_cli_quasipotential_degenerate_h_fails_hypothesis(tmp_path, capsys):
    # g = r vanishes at 0 and rho_bar = 0 leaves no boundary noise: H(0) = 0
    cfg = reference_config(
        coefficients={
            "f": {"kind": "linear", "slope": -1.0},
            "g": {"kind": "linear", "slope": 1.0},
            "sigma": {"kind": "constant", "value": 1.0},
        },
        multiscale={"rho_bar": 0.0},
    )
    cfg["experiment"] = {"kind": "quasipotential", "y_values": [0.5], "horizons": [2.0], "n_nodes": 40}
    p = write_config(tmp_path, cfg)
    assert main(["quasipotential", "--config", str(p), "--out", str(tmp_path / "qp")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "noise intensity H" in err


@pytest.mark.parametrize("offset", [-0.7, -0.5, -0.3])
def test_cli_quasipotential_checks_h_between_0_and_the_y_values(tmp_path, capsys, offset):
    # g = r + offset vanishes at u = -offset, inside [-0.2, 1] but at no path's endpoint: without
    # the segment check, the minimizing path can step over the zero between two nodes and the
    # run ends with status 0 and a finite V(1.0)
    cfg = reference_config(
        coefficients={
            "f": {"kind": "linear", "slope": -1.0},
            "g": {"kind": "linear", "slope": 1.0, "offset": offset},
            "sigma": {"kind": "constant", "value": 1.0},
        },
        multiscale={"beta_law": {"coeff": 0.0, "exponent": 0.25}, "rho_bar": 0.0},
    )
    cfg["experiment"] = {"kind": "quasipotential", "y_values": [1.0, -0.2], "horizons": [2.0], "n_nodes": 40}
    p = write_config(tmp_path, cfg)
    assert main(["quasipotential", "--config", str(p), "--out", str(tmp_path / "qp")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "noise intensity H" in err
    assert not (tmp_path / "qp" / "quasipotential.csv").exists()


def test_cli_overrides_apply(tmp_path):
    cfg = reference_config()
    cfg["experiment"] = {"kind": "simulate", "x0": {"kind": "constant", "value": 0.2}}
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out), "--seed", "99"]) == 0
    resolved = json.loads((out / "config_resolved.json").read_text())
    assert resolved["seed"] == 99
    assert (out / "trajectory_eps0.csv").exists()


def test_cli_action_and_quasipotential(tmp_path):
    cfg = reference_config()
    cfg["experiment"] = {"kind": "action", "x0": {"kind": "constant", "value": 0.8}}
    p = write_config(tmp_path, cfg)
    out = tmp_path / "act"
    assert main(["action", "--config", str(p), "--out", str(out)]) == 0
    rep = json.loads((out / "action.json").read_text())
    assert rep["action"] < 1e-6  # the limit flow costs nothing (O(dt^2) residual at dt = 0.01)
    assert rep["duality_gap"] < 1e-10

    cfg2 = reference_config()
    cfg2["experiment"] = {"kind": "quasipotential", "y_values": [0.5], "horizons": [2.0, 4.0], "n_nodes": 80}
    p2 = write_config(tmp_path, cfg2, "qp.json")
    out2 = tmp_path / "qp"
    assert main(["quasipotential", "--config", str(p2), "--out", str(out2)]) == 0
    row = np.genfromtxt(out2 / "quasipotential.csv", delimiter=",", names=True)
    assert float(row["v_explicit"]) == pytest.approx(0.25, rel=1e-8)
    assert float(row["v_variational"]) == pytest.approx(0.25, rel=0.05)


def test_cli_action_skeleton_roundtrip_on_path_file(tmp_path):
    # the skeleton ODE driven by the minimizing control reproduces a non-trivial
    # path (one of criterion 2's random paths), on a grid that starts after 0,
    # within the bounds of criterion 2 at its step 1e-4
    rng = np.random.Generator(np.random.Philox(key=102))
    t = 0.5 + np.arange(10001) * 1e-4
    w = np.full_like(t, 0.3 * rng.standard_normal())
    for m in range(1, 4):
        w += 0.3 / m**2 * rng.standard_normal() * np.sin(m * np.pi * t + rng.uniform(0, 2 * np.pi))
    path_file = tmp_path / "path.csv"
    path_file.write_text("t,value\n" + "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(t, w)))
    cfg = reference_config()
    cfg["experiment"] = {"kind": "action", "path_file": str(path_file)}
    p = write_config(tmp_path, cfg)
    out = tmp_path / "act"
    assert main(["action", "--config", str(p), "--out", str(out)]) == 0
    rep = json.loads((out / "action.json").read_text())
    assert rep["action"] > 0.01
    assert rep["skeleton_roundtrip_sup"] < 1e-6 and rep["duality_gap"] < 1e-8


@pytest.mark.parametrize("text", [
    "t,value\n0.0,0.5\n",                      # one node
    "t,value\n0.0,0.5\n0.1,0.4\n0.3,0.2\n",  # non-uniform grid
    "t,value\n0.0,0.5\n0.1,abc\n",            # non-numeric cell
    "t\n0.0\n0.1\n",                          # no value column
    "t,value\n",                                # no data row
], ids=["one_row", "non_uniform", "non_numeric", "one_column", "empty"])
def test_cli_action_rejects_malformed_path_file(tmp_path, capsys, text):
    path_file = tmp_path / "path.csv"
    path_file.write_text(text)
    cfg = reference_config()
    cfg["experiment"] = {"kind": "action", "path_file": str(path_file)}
    p = write_config(tmp_path, cfg)
    assert main(["action", "--config", str(p), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "experiment.path_file" in err


def test_cli_exit_rejects_zero_gamma_without_t_max(tmp_path, capsys):
    # alpha = beta = 0 leaves no noise and no default horizon 50 exp(V_bar / gamma)
    cfg = reference_config(multiscale={"alpha_law": {"coeff": 0.0, "exponent": 0.25},
                                       "beta_law": {"coeff": 0.0, "exponent": 0.25}, "rho_bar": 0.0},
                           n_paths=4)
    cfg["experiment"] = {"kind": "exit", "domain": {"level": 0.25}}
    p = write_config(tmp_path, cfg)
    assert main(["exit", "--config", str(p), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "'multiscale'" in err and "t_max" in err


@pytest.mark.filterwarnings("error")
def test_cli_rejects_logistic_width_zero(tmp_path, capsys):
    # tanh(r / 0) has no derivative: the config is rejected before any run
    cfg = json.loads((Path(__file__).parents[1] / "configs" / "quasipotential_reference.json").read_text())
    cfg["coefficients"]["g"] = {"kind": "logistic_clipped", "amp": 0.5, "width": 0.0, "offset": 1.0}
    p = write_config(tmp_path, cfg)
    for kind in ("check", "quasipotential"):
        assert main([kind, "--config", str(p), "--out", str(tmp_path / kind)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "'coefficients'" in err and "width" in err


def test_nondegeneracy_spans_the_exit_section(tmp_path):
    # g = tanh(r / 2) - 0.9 vanishes at r = 2 atanh(0.9) = 2.944, inside the
    # section (-3, 3) but outside [-2, 2] and between grid points; rho_bar = 0
    # leaves no boundary noise, so H vanishes there too
    cfg = reference_config(
        coefficients={
            "f": {"kind": "linear", "slope": -1.0},
            "g": {"kind": "logistic_clipped", "amp": 1.0, "width": 2.0, "offset": -0.9},
            "sigma": {"kind": "constant", "value": 1.0},
        },
        multiscale={"rho_bar": 0.0, "beta_law": {"coeff": 0.0, "exponent": 0.25}},
        n_paths=4,
    )
    cfg["experiment"] = {"kind": "check", "domain": {"level": 9.0}, "t_max": 1.0}
    p = write_config(tmp_path, cfg)
    reports = {}
    for kind in ("check", "exit"):
        assert main([kind, "--config", str(p), "--out", str(tmp_path / kind)]) == 2
        reports[kind] = json.loads((tmp_path / kind / "check_report.json").read_text())
    nd = reports["check"]["checks"]["nondegeneracy"]
    assert not nd["passed"] and nd["argmin_u"] == pytest.approx(2 * np.arctanh(0.9), rel=1e-12)
    # both runs write one report: the same keys, and the same verdict on the same checks
    assert reports["check"].keys() == reports["exit"].keys()
    assert reports["check"]["missing"] == reports["exit"]["missing"] == []
    assert reports["check"]["checks"] == reports["exit"]["checks"]


def test_cli_simulate_divergence_names_the_step(tmp_path):
    # without noise, f = 5 r steps the constant state by u <- 1.05 u at dt = 0.01, which
    # first passes the divergence limit 1e12 at step 567: status 3, and the step on record
    cfg = reference_config(
        coefficients={
            "f": {"kind": "linear", "slope": 5.0},
            "g": {"kind": "constant", "value": 1.0},
            "sigma": {"kind": "constant", "value": 1.0},
        },
        multiscale={"eps": [0.1], "alpha_law": {"coeff": 0.0, "exponent": 0.25},
                    "beta_law": {"coeff": 0.0, "exponent": 0.25}},
        solver={"t_final": 10.0, "dt": 0.01, "delta": 0.5},
    )
    cfg["experiment"] = {"kind": "simulate", "x0": {"kind": "constant", "value": 1.0}}
    p = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "out")]) == 3
    record = json.loads((tmp_path / "out" / "divergence_eps0.json").read_text())
    assert record["eps"] == 0.1 and record["step"] == 567 and record["t"] == pytest.approx(5.67, rel=1e-12)
    assert not (tmp_path / "out" / "trajectory_eps0.csv").exists()


def test_cli_exit_optimizer_failure_is_numerical(tmp_path, capsys, monkeypatch):
    # a multiplicative model gets V_bar from the path optimizer; one that does
    # not converge ends the run with status 3 and one line, not a traceback
    def unconverged(fun, x0, **kwargs):
        return SimpleNamespace(x=x0, fun=1.0, jac=np.ones_like(x0), success=False, nit=0)

    monkeypatch.setattr(fastexit.ldp, "minimize", unconverged)
    cfg = reference_config(
        coefficients={
            "f": {"kind": "linear", "slope": -1.0},
            "g": {"kind": "logistic_clipped", "amp": 0.5, "width": 1.0, "offset": 1.0},
            "sigma": {"kind": "constant", "value": 1.0},
        },
        n_paths=4,
    )
    cfg["experiment"] = {"kind": "exit", "domain": {"level": 0.25}, "t_max": 1.0}
    p = write_config(tmp_path, cfg)
    assert main(["exit", "--config", str(p), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "did not converge" in err


@pytest.mark.filterwarnings("error")
def test_run_exit_repeated_gamma_no_extrapolation(tmp_path):
    # two levels at one gamma give no line to fit: no extrapolation, and no 0 / 0
    cfg = reference_config(multiscale={"eps": [0.0625, 0.0625]}, n_paths=8)
    cfg["experiment"] = {"kind": "exit", "domain": {"level": 0.25}, "t_max": 5.0}
    assert run_exit(resolve_config(cfg), tmp_path) == 0
    summary = json.loads((tmp_path / "exit_summary.json").read_text())
    assert len(summary["levels"]) == 2
    assert summary["extrapolation"] is None
    assert summary["extrapolated_value"] is None and summary["relative_gap"] is None


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("eps, t_max, n_fitted", [([1.0, 0.25, 1e-4], 10.0, 2), ([0.0625, 0.015625], 0.05, 0)])
def test_run_exit_extrapolates_only_uncensored_levels(tmp_path, eps, t_max, n_fitted):
    # the last level censors every path (CI 0), and in the second case so does
    # the first: only the uncensored levels enter the fit, and with fewer than
    # two of them there is none, with the reason in the summary
    cfg = reference_config(multiscale={"eps": eps}, n_paths=16)
    cfg["experiment"] = {"kind": "exit", "domain": {"level": 0.25}, "t_max": t_max}
    assert run_exit(resolve_config(cfg), tmp_path) == 0
    summary = json.loads((tmp_path / "exit_summary.json").read_text())
    levels = summary["levels"]
    assert levels[-1]["censored"] == 16 and levels[-1]["ci_halfwidth"] == 0.0
    kept = [(lv["gamma"], lv["gamma_log_mean"]) for lv in levels if lv["censored"] == 0]
    assert len(kept) == n_fitted
    fit = summary["extrapolation"]
    if n_fitted:
        (g0, v0), (g1, v1) = kept  # two points: the weighted fit is the line through them
        slope = (v1 - v0) / (g1 - g0)
        assert fit["slope"] == pytest.approx(slope, rel=1e-9)
        assert summary["extrapolated_value"] == fit["intercept"] == pytest.approx(v0 - slope * g0, rel=1e-9)
        assert summary["extrapolation_note"].startswith("fitted 2 of 3 levels")
    else:
        assert fit is None and summary["extrapolated_value"] is None and summary["relative_gap"] is None
        assert summary["extrapolation_note"].startswith("no fit: 0 of 2 levels")


def test_domain_rejects_unknown_key(tmp_path, capsys):
    # a misspelt "center" must not leave the run on the default center 0
    cfg = reference_config()
    cfg["experiment"]["domain"] = {"level": 0.25, "centre": 0.3}
    with pytest.raises(ConfigError) as exc:
        resolve_config(cfg)
    assert exc.value.field_path == "experiment.domain"
    p = write_config(tmp_path, cfg)
    assert main(["check", "--config", str(p), "--out", str(tmp_path / "out")]) == 1
    assert "experiment.domain" in capsys.readouterr().err


@pytest.mark.parametrize("noise", [
    {"b_spectrum": {"kind": "list", "values": [1.0, 1.0, 1.0]}},
    {"q_spectrum": {"kind": "flat", "value": -1.0}},
    {"dimension": 1},  # a key of older resolved configs; the system is one-dimensional
])
def test_cli_check_rejects_inadmissible_noise(tmp_path, capsys, noise):
    p = write_config(tmp_path, reference_config(noise=noise))
    assert main(["check", "--config", str(p), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "'noise'" in err


@pytest.mark.parametrize("where, spec, field", [
    ("f", {"kind": "linear", "slope": -1.0, "ofset": 0.3}, "coefficients"),
    ("x0", {"kind": "cosine_plus_constant", "ampl": 3.0}, "experiment.x0"),
    ("f", {"kind": "linear", "slpoe": -1.0}, "coefficients"),
])
def test_cli_rejects_unknown_and_missing_catalog_keys(tmp_path, capsys, where, spec, field):
    # a misspelt key must neither run on the default value nor crash with a traceback
    cfg = reference_config(n_paths=4)
    cfg["experiment"] = {"kind": "exit", "domain": {"level": 0.25}, "t_max": 2.0}
    if where == "x0":
        cfg["experiment"]["x0"] = spec
    else:
        cfg["coefficients"] = {**cfg["coefficients"], where: spec}
    p = write_config(tmp_path, cfg)
    assert main(["exit", "--config", str(p), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and f"'{field}'" in err


def test_cli_threads_flag_goes_through_the_config(tmp_path, capsys):
    cfg = reference_config(n_paths=4)
    cfg["experiment"] = {"kind": "average"}
    p = write_config(tmp_path, cfg)
    for bad in ("0", "-3"):
        assert main(["average", "--config", str(p), "--out", str(tmp_path / "bad"), "--threads", bad]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "threads" in err
    out = tmp_path / "avg"
    assert main(["average", "--config", str(p), "--out", str(out), "--threads", "2"]) == 0
    assert json.loads((out / "config_resolved.json").read_text())["threads"] == 2


def test_manifest_names_draw_layout_only_for_ensemble_runs(tmp_path):
    # simulate, average and exit draw through run_ensemble, whose panel layout
    # the key names; the other runs draw nothing.  Average and exit runs also
    # record the work of each level's ensemble
    experiments = {
        "check": {"kind": "check"},
        "simulate": {"kind": "simulate"},
        "action": {"kind": "action"},
        "quasipotential": {"kind": "quasipotential", "y_values": [0.5], "horizons": [2.0], "n_nodes": 40},
        "average": {"kind": "average"},
        "exit": {"kind": "exit", "domain": {"level": 0.25}, "t_max": 2.0},
    }
    for kind, experiment in experiments.items():
        cfg = reference_config(n_paths=4)
        cfg["experiment"] = experiment
        p = write_config(tmp_path, cfg, f"{kind}.json")
        assert main([kind, "--config", str(p), "--out", str(tmp_path / kind)]) == 0
        manifest = json.loads((tmp_path / kind / "run_manifest.json").read_text())
        assert ("noise_draw_layout" in manifest) == (kind in ("simulate", "average", "exit")), kind
        assert ("ensemble_work" in manifest) == (kind in ("average", "exit")), kind
    # every average path lives its 50 steps, in one chunk of CHUNK_ROW_STEPS // 4 steps cut to them
    average = json.loads((tmp_path / "average" / "run_manifest.json").read_text())
    assert average["ensemble_work"] == [{"eps": 0.0625, "row_steps": 4 * 50, "chunks": 1}]


def test_build_system_errors():
    cfg = resolve_config(reference_config())
    cfg["coefficients"]["f"] = {"kind": "mystery"}
    with pytest.raises(ConfigError) as exc:
        build_system(cfg)
    assert "coefficients" in str(exc.value)


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_import_pins_openblas_threads_unless_set(preset, expected):
    # importing fastexit sets OPENBLAS_NUM_THREADS before numpy loads, unless the user set it
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(fastexit.__file__).parents[1]), env.get("PYTHONPATH", "")])
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = "import os, fastexit; print(os.environ['OPENBLAS_NUM_THREADS'])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == expected


def test_cli_commands_do_not_load_scipy(tmp_path):
    # every command runs on numpy alone: the variational quasi-potential (the
    # quasipotential run and v_bar for a state-dependent gain) and the roots of
    # a drift that changes sign in the explicit one included.  Nor does any
    # load jsonschema (configs are checked in-package) or, at one thread,
    # concurrent.futures
    root = Path(__file__).parents[1]
    cfg = json.loads((root / "configs" / "exit_reference.json").read_text())
    cfg["multiscale"]["eps"] = [0.0625]
    logistic = json.loads(json.dumps(cfg))
    logistic["coefficients"]["g"] = {"kind": "logistic_clipped", "amp": 0.5, "width": 1.0, "offset": 1.0}
    shifted = json.loads(json.dumps(cfg))
    shifted["coefficients"]["f"] = {"kind": "linear", "slope": -1.0, "offset": 0.02}
    configs = {name: str(root / "configs" / f"{name}.json")
               for name in ("exit_reference", "averaging_reference", "quasipotential_reference")}
    configs["exit_logistic"] = str(write_config(tmp_path, logistic, "exit_logistic.json"))
    configs["exit_shifted"] = str(write_config(tmp_path, shifted, "exit_shifted.json"))
    runs = [("check", "exit_reference"), ("simulate", "averaging_reference"), ("average", "averaging_reference"),
            ("action", "quasipotential_reference"), ("quasipotential", "quasipotential_reference"),
            ("exit", "exit_reference"), ("exit", "exit_logistic"), ("exit", "exit_shifted")]
    code = "\n".join([
        "import sys",
        "from fastexit.cli import main",
        *(f"assert main([{cmd!r}, '--config', {configs[cfg]!r}, '--paths', '4',"
          f" '--out', {str(tmp_path / 'results' / cfg / cmd)!r}]) == 0" for cmd, cfg in runs),
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'jsonschema', 'concurrent')))",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip().splitlines()[-1] == "[]"
    assert {cmd for cmd, _ in runs} == set(RUNS)


def test_compare_outputs_reports_rounding_and_fails_on_text(tmp_path):
    # scripts/compare_outputs.py: per-file largest difference relative to the file's
    # largest value, FAIL on a differing text field; a change of 1e-20 in a cell
    # of -2.5e-8 beside cells of order one is rounding, not a relative 4e-13
    def tree(name, value, note, small=-2.5e-8):
        run = tmp_path / name / "run"
        run.mkdir(parents=True)
        (run / "run_manifest.json").write_text(json.dumps(
            {"outputs": {"a.csv": "x", "b.json": "y", "config_resolved.json": "z"}}))
        (run / "a.csv").write_text(f"name,value\nrow,{value!r}\nsmall,{small!r}\nunit,1.0\n")
        (run / "b.json").write_text(json.dumps({"levels": [{"v": value}], "note": note}))
        return str(tmp_path / name)

    script = Path(__file__).parents[1] / "scripts" / "compare_outputs.py"
    a, c = tree("a", 0.1, "same"), tree("c", 0.1, "other")
    b = tree("b", 0.1 * (1 + 2e-16), "same", small=-2.5e-8 + 1e-20)
    same = subprocess.run([sys.executable, str(script), a, b], capture_output=True, text=True)
    assert same.returncode == 0
    diffs = dict(line.split() for line in same.stdout.splitlines())
    assert set(diffs) == {"run/a.csv", "run/b.json"} and 0 < float(diffs["run/a.csv"]) <= 1e-15
    text = subprocess.run([sys.executable, str(script), a, c], capture_output=True, text=True)
    assert text.returncode == 1
    assert "run/a.csv 0" in text.stdout and "run/b.json FAIL" in text.stdout


def test_module_exports_exist():
    modules = [info.name for info in pkgutil.iter_modules(fastexit.__path__) if not info.name.startswith("_")]
    exported = 0
    for name in modules:
        module = importlib.import_module(f"fastexit.{name}")
        names = getattr(module, "__all__", [])
        assert [n for n in names if not hasattr(module, n)] == [], name
        exported += len(names)
    assert exported > 0

"""Experiment drivers: hypothesis checks, simulation, averaging, action,
quasi-potential, and exit-time runs.

`execute` is the one run lifecycle: it starts the clock, builds the system
(`config.build_system`, the one place that refuses a config, so a config
error leaves no directory), makes the output directory, calls
`RUNS[command]` and writes the resolved config and a manifest (config hash,
code version, per-output checksums, wall clock, status) next to the
outputs, so a results directory is self-describing and re-runnable.  A run
only solves: it takes the built system and returns (status, outputs,
manifest entries): `n_paths_total`, plus `noise_draw_layout` for the runs
that drew through the ensemble (simulate, average, exit) and
`ensemble_work`, one {"eps", "row_steps", "chunks"} per level, for average
and exit.  `check` tests H on the segment (`_h_segment`) where `action` and
`quasipotential` refuse a vanishing H (`_require_nondegenerate`).  `action`
drives the skeleton ODE with the one minimizing control of its path.
`execute` is also the one place that maps a run's exceptions to statuses: a
run that raises still writes its manifest, with the message under `error`.
Process exit status convention: 0 success, 1 configuration or file error, 2
required hypothesis failed, 3 numerical failure.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np

from . import __version__
from .coefficients import check_nondegeneracy
from .config import BuiltSystem, build_system, config_hash, rho_bar_limit
from .ensemble import NOISE_DRAW_LAYOUT
from .errors import DivergenceError, NondegeneracyError, OptimizationError
from .exit_times import check_exit_hypotheses, exit_time_mc, membership_values
from .ldp import (
    action_I,
    control_cost,
    minimizing_control,
    quasi_potential_explicit,
    quasi_potential_variational,
)
from .noise import RngStream
from .operator import invariant_average
from .solver import averaging_error_ensemble, solve_controlled_ode, solve_limit_ode, solve_spde, write_csv

EXIT_OK = 0
EXIT_HYPOTHESIS_FAILED = 2
EXIT_DIVERGED = 3

RunResult = tuple[int, list[Path], dict]  # (status, outputs, manifest entries)


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def finalize_run(out_dir: Path, resolved: dict, outputs: list[Path], started: float, entries: dict) -> None:
    """Write the resolved config and the run manifest, with the run's own entries, next to the outputs."""
    cfg_path = out_dir / "config_resolved.json"
    cfg_path.write_text(json.dumps(resolved, indent=2, sort_keys=True) + "\n")
    manifest = {
        "config_hash": config_hash(resolved),
        "version": __version__,
        "experiment_kind": resolved["experiment"]["kind"],
        "seed": resolved["seed"],
        "outputs": {p.name: _sha256(p) for p in sorted(set(outputs) | {cfg_path}, key=lambda q: q.name)},
        "wall_clock_s": time.monotonic() - started,
        **entries,
    }
    _write_json(out_dir / "run_manifest.json", manifest)


def _h_segment(system: BuiltSystem) -> tuple[float, float]:
    """The states where H must stay positive: a quasi-potential path runs from 0 to each y, an action
    path between its least and largest value; any other run takes [-2, 2], widened to the exit
    domain's constant section, on which an exit path moves."""
    exp = system.config["experiment"]
    if exp["kind"] == "quasipotential":
        ends = [0.0, *exp["y_values"]]
    elif exp["kind"] == "action":
        ends = [float(system.path.values.min()), float(system.path.values.max())]
    else:
        ends = [-2.0, 2.0, *(system.domain.constant_section if system.domain is not None else ())]
    return min(ends), max(ends)


def _require_nondegenerate(system: BuiltSystem) -> None:
    """Raise NondegeneracyError where `check` would fail the nondegeneracy check of this config."""
    span = _h_segment(system)
    report = check_nondegeneracy(system.model, *span)
    if not report.passed:
        raise NondegeneracyError(
            f"noise intensity H falls to {report.min_h:.6g} at u = {report.argmin_u:.6g} on "
            f"[{span[0]:g}, {span[1]:g}], not above the floor {report.floor:g}")


def hypothesis_checks(system: BuiltSystem) -> dict:
    """The hypothesis checks that this configuration can fail.

    What holds for every config (the orthonormal cosine basis and its
    spectral-gap contraction, the catalog's sup bounds, the
    invariance of the quadratic ball) is tested by the test suite instead.
    The domain is one-dimensional, where space-time white noise is
    admissible, so the noise spectra carry no summability condition."""
    cfg = system.config
    model = system.model
    checks = {}

    ms = cfg["multiscale"]
    declared = model.rho_bar
    limit = rho_bar_limit(ms["alpha_law"], ms["beta_law"])
    if math.isinf(declared) or math.isinf(limit):
        consistent = declared == limit
    else:
        consistent = abs(declared - limit) <= 1e-9 * max(1.0, abs(declared))
    checks["rho_bar_consistency"] = {
        "passed": bool(consistent),
        "declared": repr(declared),
        "law_limit": repr(limit),
        "ratios_at_eps": {repr(p.eps): p.schedule_ratio() for p in system.params_list},
    }

    dom = system.domain
    if dom is not None:
        report = _jsonable(check_exit_hypotheses(model, dom))
        x0_in = bool(membership_values(dom, system.x0) < dom.level)
        checks["exit_hypotheses"] = {**report, "x0_inside_domain": x0_in, "passed": report["passed"] and x0_in}

    checks["nondegeneracy"] = _jsonable(check_nondegeneracy(model, *_h_segment(system)))
    return checks


def _write_check_report(out_dir: Path, kind: str, checks: dict) -> tuple[Path, bool]:
    """Write check_report.json; return its path and whether every check a run of `kind` requires passed."""
    required = ["nondegeneracy", "rho_bar_consistency"]
    if kind == "exit" or (kind == "check" and "exit_hypotheses" in checks):
        required.append("exit_hypotheses")
    missing = [n for n in required if n not in checks]
    passed = not missing and all(checks[n]["passed"] for n in required)
    path = out_dir / "check_report.json"
    _write_json(path, {"passed": passed, "required": required, "missing": missing, "checks": checks})
    return path, passed


def run_check(system: BuiltSystem, out_dir: Path) -> RunResult:
    checks = hypothesis_checks(system)
    path, passed = _write_check_report(out_dir, system.config["experiment"]["kind"], checks)
    return EXIT_OK if passed else EXIT_HYPOTHESIS_FAILED, [path], {"n_paths_total": 0}


def run_simulate(system: BuiltSystem, out_dir: Path) -> RunResult:
    resolved = system.config
    sol = resolved["solver"]
    outputs = []
    status = EXIT_OK
    for i, params in enumerate(system.params_list):
        path = out_dir / f"trajectory_eps{i}.csv"
        try:
            traj = solve_spde(system.model, params, system.x0, sol["t_final"], sol["dt"],
                              RngStream(resolved["seed"], stream=i))
        except DivergenceError as exc:
            _write_json(out_dir / f"divergence_eps{i}.json", {"eps": params.eps, "step": exc.step, "t": exc.t})
            outputs.append(out_dir / f"divergence_eps{i}.json")
            status = EXIT_DIVERGED
            continue
        traj.write_csv(path)
        outputs.append(path)
    return status, outputs, {"n_paths_total": len(system.params_list), "noise_draw_layout": NOISE_DRAW_LAYOUT}


def run_average(system: BuiltSystem, out_dir: Path) -> RunResult:
    resolved = system.config
    sol = resolved["solver"]
    n_paths = resolved["n_paths"]
    x_mean = invariant_average(system.model.op, system.x0)
    ref = solve_limit_ode(system.model, x_mean, sol["t_final"], sol["dt"])
    rows, summary_rows, level_work = [], [], []
    status = EXIT_OK
    error_note = None
    for i, params in enumerate(system.params_list):
        errors, work = averaging_error_ensemble(
            system.model, params, system.x0, sol["t_final"], sol["dt"], sol["delta"], ref, n_paths,
            seed=resolved["seed"], stream_base=i << 32, threads=resolved["threads"],
        )
        level_work.append({"eps": params.eps, **work})
        valid = errors[np.isfinite(errors)]
        n_diverged = int(n_paths - valid.size)
        if valid.size == 0:
            status, error_note = EXIT_DIVERGED, f"eps={params.eps}: all paths diverged"
            break
        mean = float(valid.mean())
        ci = 1.96 * float(valid.std(ddof=1)) / math.sqrt(valid.size) if valid.size > 1 else 0.0
        rows.append([params.eps, valid.size, mean, ci])
        summary_rows.append({"eps": params.eps, "mean_err": mean, "ci": ci, "n_diverged": n_diverged})
    csv_path = out_dir / "averaging_errors.csv"
    write_csv(csv_path, ["eps", "n_paths", "mean_err", "ci"], rows)
    monotone = all(
        summary_rows[i + 1]["mean_err"] - summary_rows[i + 1]["ci"]
        <= summary_rows[i]["mean_err"] + summary_rows[i]["ci"]
        for i in range(len(summary_rows) - 1)
    )
    summary = {
        "delta": sol["delta"],
        "levels": summary_rows,
        "monotone_within_ci": monotone,
        "error": error_note,
    }
    sum_path = out_dir / "averaging_summary.json"
    _write_json(sum_path, summary)
    return status, [csv_path, sum_path], {"n_paths_total": n_paths * len(rows),
                                          "noise_draw_layout": NOISE_DRAW_LAYOUT, "ensemble_work": level_work}


def run_action(system: BuiltSystem, out_dir: Path) -> RunResult:
    _require_nondegenerate(system)
    w = system.path
    action = action_I(system.model, w)
    ctrl = minimizing_control(system.model, w)
    cost = control_cost(ctrl)
    # the skeleton ODE driven by the control reproduces w
    w_ode = solve_controlled_ode(system.model, w.values[0], ctrl)
    ctrl_path = out_dir / "minimizing_control.csv"
    ctrl.write_csv(ctrl_path)
    path_path = out_dir / "path.csv"
    write_csv(path_path, ["t", "value"], zip(w.times, w.values))
    report = {
        "action": action,
        "control_half_norm_sq": cost,
        "duality_gap": abs(cost - action),
        "skeleton_roundtrip_sup": float(np.abs(w_ode - w.values).max()),
        "path_source": system.config["experiment"]["path_file"] or "limit_ode",
    }
    rep_path = out_dir / "action.json"
    _write_json(rep_path, report)
    return EXIT_OK, [ctrl_path, path_path, rep_path], {"n_paths_total": 1}


def run_quasipotential(system: BuiltSystem, out_dir: Path) -> RunResult:
    exp = system.config["experiment"]
    _require_nondegenerate(system)
    rows = [[y, quasi_potential_variational(system.model, y, tuple(exp["horizons"]), exp["n_nodes"]),
             quasi_potential_explicit(system.model, y)] for y in exp["y_values"]]
    csv_path = out_dir / "quasipotential.csv"
    write_csv(csv_path, ["y", "v_variational", "v_explicit"], rows)
    return EXIT_OK, [csv_path], {"n_paths_total": 0}


def _extrapolate(gammas: np.ndarray, values: np.ndarray, cis: np.ndarray):
    """Linear fit of values in gamma, weighted by 1 / ci^2; None unless two distinct gammas exist.

    Every ci must be positive: a zero CI would take all the weight."""
    if len(set(gammas.tolist())) < 2:
        return None
    w = 1.0 / cis**2
    sw, swx = w.sum(), (w * gammas).sum()
    swy, swxx, swxy = (w * values).sum(), (w * gammas**2).sum(), (w * gammas * values).sum()
    denom = sw * swxx - swx**2
    slope = (sw * swxy - swx * swy) / denom
    intercept = (swxx * swy - swx * swxy) / denom
    return {"slope": float(slope), "intercept": float(intercept)}


def run_exit(system: BuiltSystem, out_dir: Path) -> RunResult:
    resolved = system.config
    checks = hypothesis_checks(system)
    check_path, passed = _write_check_report(out_dir, "exit", checks)
    if not passed:
        return EXIT_HYPOTHESIS_FAILED, [check_path], {"n_paths_total": 0}
    stats = exit_time_mc(
        system.model, system.params_list, system.domain, system.x0,
        n_paths=resolved["n_paths"], dt=resolved["solver"]["dt"], seed=resolved["seed"],
        t_max=resolved["experiment"]["t_max"], threads=resolved["threads"],
    )
    rows = [s.row() for s in stats]
    csv_path = out_dir / "exit_stats.csv"
    write_csv(csv_path, list(rows[0]), [row.values() for row in rows])
    tau_rows = []
    for s in stats:
        tau_rows.extend([s.gamma, p, t] for p, t in enumerate(s.taus))
    taus_path = out_dir / "exit_taus.csv"
    write_csv(taus_path, ["gamma", "path", "tau"], tau_rows)
    # a censored level's mean tau is only a lower bound, and a zero CI (all taus
    # equal, as when every path is censored) has no weight to give: fit neither
    fitted = [s for s in stats if s.n_censored == 0 and s.ci_halfwidth * s.gamma > 0]
    fit = _extrapolate(np.array([s.gamma for s in fitted]), np.array([s.gamma_log_mean for s in fitted]),
                       np.array([s.ci_halfwidth * s.gamma for s in fitted]))
    note = {}
    if fit is None:
        note["extrapolation_note"] = (
            f"no fit: {len(fitted)} of {len(stats)} levels have no censored path and a positive CI, "
            "and a fit needs two distinct gammas among them")
    elif len(fitted) < len(stats):
        note["extrapolation_note"] = (
            f"fitted {len(fitted)} of {len(stats)} levels, leaving out those with a censored path or a zero CI")
    vb = stats[0].v_bar_target
    summary = {
        "v_bar_target": vb,
        "levels": [s.row() | {"eps_log_mean": s.eps_log_mean, "lower_bound_only": s.lower_bound_only,
                              "n_diverged": s.n_diverged,
                              "concentration_fraction": s.concentration_fraction}
                   for s in stats],
        "extrapolation": fit,
        "extrapolated_value": fit["intercept"] if fit else None,
        "relative_gap": abs(fit["intercept"] - vb) / vb if fit else None,
        **note,
        "lower_bound_only": any(s.lower_bound_only for s in stats),
        "speed_note": (
            "gamma = (alpha + beta)^2 is used as the rate speed; the raw-eps "
            "normalization eps * log E tau is reported per level as eps_log_mean"
        ),
    }
    sum_path = out_dir / "exit_summary.json"
    _write_json(sum_path, summary)
    return EXIT_OK, [check_path, csv_path, taus_path, sum_path], {
        "n_paths_total": resolved["n_paths"] * len(stats),
        "noise_draw_layout": NOISE_DRAW_LAYOUT,
        "ensemble_work": [{"eps": s.eps, "row_steps": s.row_steps, "chunks": s.chunks} for s in stats],
    }


RUNS = {
    "check": run_check,
    "simulate": run_simulate,
    "average": run_average,
    "action": run_action,
    "quasipotential": run_quasipotential,
    "exit": run_exit,
}


def execute(command: str, resolved: dict, out_dir: Path) -> int:
    """Build the system of a resolved config, make out_dir, run `command` on the system into it and
    record the run with its status; return the status.

    A ConfigError leaves no directory.  A run that raises NondegeneracyError (status 2),
    DivergenceError or OptimizationError (status 3), while it builds or solves, still records
    itself: its manifest holds the status and the message under `error`."""
    started = time.monotonic()
    try:
        system = build_system(resolved)
        out_dir.mkdir(parents=True, exist_ok=True)
        status, outputs, entries = RUNS[command](system, out_dir)
    except (NondegeneracyError, DivergenceError, OptimizationError) as exc:
        out_dir.mkdir(parents=True, exist_ok=True)
        status = EXIT_HYPOTHESIS_FAILED if isinstance(exc, NondegeneracyError) else EXIT_DIVERGED
        outputs, entries = [], {"error": str(exc)}
    finalize_run(out_dir, resolved, outputs, started, {"status": status, **entries})
    return status

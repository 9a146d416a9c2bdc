"""Experiment drivers: hypothesis checks, simulation, averaging, action,
quasi-potential, and exit-time runs.

Every run writes the fully resolved config and a manifest (config hash, code
version, per-output checksums, wall clock, path counts) next to its outputs,
so a results directory is self-describing and re-runnable.  Process exit
status convention: 0 success, 1 configuration or file error, 2 required
hypothesis failed, 3 numerical failure.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .coefficients import check_nondegeneracy
from .config import BuiltSystem, build_system, config_hash, rho_bar_limit
from .ensemble import NOISE_DRAW_LAYOUT
from .errors import ConfigError, DivergenceError, NondegeneracyError
from .exit_times import DomainSpec, build_domain, check_exit_hypotheses, exit_time_mc, membership_values
from .ldp import (
    action_I,
    control_cost,
    minimizing_control,
    quasi_potential_explicit,
    quasi_potential_variational,
)
from .noise import RngStream
from .operator import invariant_average
from .solver import (
    ScalarPath,
    averaging_error_ensemble,
    solve_controlled_ode_batch,
    solve_limit_ode,
    solve_spde,
    write_csv,
)

EXIT_OK = 0
EXIT_HYPOTHESIS_FAILED = 2
EXIT_DIVERGED = 3


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


def finalize_run(out_dir: Path, resolved: dict, outputs: list[Path], started: float, n_paths_total: int,
                 ran_ensemble: bool = False, level_work: list[dict] | None = None) -> None:
    """Write the resolved config and the run manifest next to the outputs; a run
    that drew through `ensemble.run_ensemble` also records that draw layout, and
    level_work, one {"eps", "row_steps", "chunks"} per level, the work of its
    ensembles."""
    cfg_path = out_dir / "config_resolved.json"
    cfg_path.write_text(json.dumps(resolved, indent=2, sort_keys=True) + "\n")
    manifest = {
        "config_hash": config_hash(resolved),
        "version": __version__,
        "experiment_kind": resolved["experiment"]["kind"],
        "seed": resolved["seed"],
        "outputs": {p.name: _sha256(p) for p in sorted(set(outputs) | {cfg_path}, key=lambda q: q.name)},
        "wall_clock_s": time.monotonic() - started,
        "n_paths_total": n_paths_total,
    }
    if ran_ensemble:
        manifest["noise_draw_layout"] = NOISE_DRAW_LAYOUT
    if level_work is not None:
        manifest["ensemble_work"] = level_work
    _write_json(out_dir / "run_manifest.json", manifest)


def hypothesis_checks(system: BuiltSystem) -> tuple[dict, DomainSpec | None]:
    """The hypothesis checks that this configuration can fail, and the exit
    domain they checked (None when the config has none or it was rejected).

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

    dom = None
    span = (-2.0, 2.0)
    if cfg["experiment"].get("domain"):
        dspec = dict(cfg["experiment"]["domain"])
        level = dspec.pop("level")
        try:
            dom = build_domain(dspec, level)
        except ValueError as exc:
            checks["exit_hypotheses"] = {"passed": False, "error": str(exc)}
        else:
            checks["exit_hypotheses"] = _jsonable(check_exit_hypotheses(model, dom))
            x0_in = bool(membership_values(dom, system.x0) < level)
            checks["exit_hypotheses"]["x0_inside_domain"] = x0_in
            checks["exit_hypotheses"]["passed"] = bool(checks["exit_hypotheses"]["passed"] and x0_in)
            y1, y2 = dom.constant_section  # an exit path moves on the whole section
            span = (min(y1, span[0]), max(y2, span[1]))

    floor = cfg["experiment"]["nondegeneracy_floor"]
    checks["nondegeneracy"] = _jsonable(check_nondegeneracy(model, *span, floor=floor))
    return checks, dom


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


def run_check(resolved: dict, out_dir: Path) -> int:
    started = time.monotonic()
    checks, _ = hypothesis_checks(build_system(resolved))
    path, passed = _write_check_report(out_dir, resolved["experiment"]["kind"], checks)
    finalize_run(out_dir, resolved, [path], started, 0)
    return EXIT_OK if passed else EXIT_HYPOTHESIS_FAILED


def _check_solver_grid(sol: dict) -> None:
    """A fixed-horizon run steps from 0 to t_final, so one step must fit."""
    if sol["dt"] > sol["t_final"]:
        raise ConfigError("solver.dt", f"dt = {sol['dt']!r} must not exceed t_final = {sol['t_final']!r}")


def run_simulate(resolved: dict, out_dir: Path) -> int:
    started = time.monotonic()
    sol = resolved["solver"]
    _check_solver_grid(sol)
    system = build_system(resolved)
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
    finalize_run(out_dir, resolved, outputs, started, len(system.params_list), ran_ensemble=True)
    return status


def run_average(resolved: dict, out_dir: Path) -> int:
    started = time.monotonic()
    sol = resolved["solver"]
    _check_solver_grid(sol)
    system = build_system(resolved)
    n_paths = resolved["n_paths"]
    x_mean = invariant_average(system.model.op, system.x0)
    ref = solve_limit_ode(system.model, x_mean, sol["t_final"], sol["dt"])
    rows, summary_rows, level_work = [], [], []
    status = EXIT_OK
    error_note = None
    for i, params in enumerate(system.params_list):
        try:
            errors, work = averaging_error_ensemble(
                system.model, params, system.x0, sol["t_final"], sol["dt"], sol["delta"], ref, n_paths,
                seed=resolved["seed"], stream_base=i << 32, threads=resolved["threads"],
            )
        except ValueError as exc:  # the run builds both grids itself; only the delta window is left
            raise ConfigError("solver.delta", str(exc)) from exc
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
    finalize_run(out_dir, resolved, [csv_path, sum_path], started, n_paths * len(rows), ran_ensemble=True,
                 level_work=level_work)
    return status


def _load_scalar_path(path: Path) -> ScalarPath:
    """The path in columns t, value of a CSV file with one header line."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy only warns on a file without data rows
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        return ScalarPath(times=data[:, 0], values=data[:, 1])
    except (IndexError, ValueError, UserWarning) as exc:
        raise ConfigError("experiment.path_file", f"{path}: {exc}") from exc


def run_action(resolved: dict, out_dir: Path) -> int:
    started = time.monotonic()
    system = build_system(resolved)
    sol = resolved["solver"]
    pf = resolved["experiment"]["path_file"]
    if pf:
        w = _load_scalar_path(Path(pf))
    else:
        _check_solver_grid(sol)
        x_mean = invariant_average(system.model.op, system.x0)
        w = solve_limit_ode(system.model, x_mean, sol["t_final"], sol["dt"])
    action = action_I(system.model, w)
    ctrl = minimizing_control(system.model, w)
    cost = control_cost(ctrl)
    # the skeleton ODE driven by the control reproduces w; a path file's grid may start after 0
    node_times = w.times - w.times[0]
    w_ode = solve_controlled_ode_batch(system.model, w.values[:1], node_times, ctrl.phi_h[None],
                                       ctrl.phi_z[None], node_times[-1], w.dt)[:, 0]
    ctrl_path = out_dir / "minimizing_control.csv"
    ctrl.write_csv(ctrl_path)
    path_path = out_dir / "path.csv"
    write_csv(path_path, ["t", "value"], zip(w.times, w.values))
    report = {
        "action": action,
        "control_half_norm_sq": cost,
        "duality_gap": abs(cost - action),
        "skeleton_roundtrip_sup": float(np.abs(w_ode - w.values).max()),
        "path_source": pf or "limit_ode",
    }
    rep_path = out_dir / "action.json"
    _write_json(rep_path, report)
    finalize_run(out_dir, resolved, [ctrl_path, path_path, rep_path], started, 1)
    return EXIT_OK


def run_quasipotential(resolved: dict, out_dir: Path) -> int:
    started = time.monotonic()
    system = build_system(resolved)
    exp = resolved["experiment"]
    # every path runs from 0 to its y, so H must stay positive on the segment that holds them all
    span = (min([0.0, *exp["y_values"]]), max([0.0, *exp["y_values"]]))
    report = check_nondegeneracy(system.model, *span, floor=exp["nondegeneracy_floor"])
    if not report.passed:
        raise NondegeneracyError(
            f"noise intensity H falls to {report.min_h:.6g} at u = {report.argmin_u:.6g} on "
            f"[{span[0]:g}, {span[1]:g}], not above the floor {report.floor:g}")
    rows = []
    for y in exp["y_values"]:
        v_var = quasi_potential_variational(system.model, y, tuple(exp["horizons"]), exp["n_nodes"])
        v_exp = quasi_potential_explicit(system.model, y) if system.model.is_additive else float("nan")
        rows.append([y, v_var, v_exp])
    csv_path = out_dir / "quasipotential.csv"
    write_csv(csv_path, ["y", "v_variational", "v_explicit"], rows)
    finalize_run(out_dir, resolved, [csv_path], started, 0)
    return EXIT_OK


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


def run_exit(resolved: dict, out_dir: Path) -> int:
    started = time.monotonic()
    system = build_system(resolved)
    checks, dom = hypothesis_checks(system)
    check_path, passed = _write_check_report(out_dir, "exit", checks)
    if not passed:
        finalize_run(out_dir, resolved, [check_path], started, 0)
        return EXIT_HYPOTHESIS_FAILED
    exp = resolved["experiment"]
    try:
        stats = exit_time_mc(
            system.model, system.params_list, dom, system.x0,
            n_paths=resolved["n_paths"], dt=resolved["solver"]["dt"], seed=resolved["seed"],
            t_max=exp["t_max"], t_max_cap=exp["t_max_cap"], threads=resolved["threads"],
        )
    except ValueError as exc:  # the checks placed x0 inside the domain; only a gamma = 0 level is left
        raise ConfigError("multiscale", str(exc)) from exc
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
    finalize_run(out_dir, resolved, [check_path, csv_path, taus_path, sum_path], started,
                 resolved["n_paths"] * len(stats), ran_ensemble=True,
                 level_work=[{"eps": s.eps, "row_steps": s.row_steps, "chunks": s.chunks} for s in stats])
    return EXIT_OK

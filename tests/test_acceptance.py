"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The Monte Carlo criteria (4 and 5) are scaled-down
asymptotic experiments with statistical targets, not ground truth.
"""

import json

import numpy as np
import pytest

import fastexit as fx
from fastexit.cli import main
from fastexit.ensemble import BLOCK_SIZE, SpdeStepper, block_stream
from fastexit.ldp import ScalarPath
from fastexit.noise import ou_step_weights
from fastexit.solver import solve_controlled_ode_batch
from conftest import build_model, sample_in_domain


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_spectral_gap(ref_op):
    # |exp(tA) h - <h, mu>| <= exp(-gap t) |h|, with constant 1 for the self-adjoint operator;
    # exp(tA) is the decay the stepper multiplies by, ou_step_weights' first array at eps = 1
    rng = np.random.Generator(np.random.Philox(key=101))
    times = np.array([0.1, 0.5, 1.0])
    decay = np.stack([ou_step_weights(ref_op.eigenvalues, 1.0, t)[0] for t in times])
    worst = np.inf
    for _ in range(100):
        h = rng.standard_normal(ref_op.n_modes)
        dev = decay * h
        dev[:, 0] -= fx.invariant_average(ref_op, h)  # the constant <h, mu> is mode 0, since e_0 = 1
        margins = np.exp(-ref_op.eigenvalues[1] * times) * ref_op.hmu_norm(h) - ref_op.hmu_norm(dev)
        worst = min(worst, float(margins.min()))
    ok = worst >= -1e-12
    _report(1, ok, f"contraction margin over 100 fields x 3 times: min {worst:.3e} >= -1e-12")
    assert ok


def test_criterion_2_skeleton_duality(exit_reference):
    model = exit_reference
    dt = 1e-4
    t = np.arange(int(round(1.0 / dt)) + 1) * dt
    rng = np.random.Generator(np.random.Philox(key=102))
    n_paths = 50
    paths, controls_h, controls_z = [], [], []
    max_rel_gap = 0.0
    for _ in range(n_paths):
        w = np.full_like(t, 0.3 * rng.standard_normal())
        for m in range(1, 4):
            w += 0.3 / m**2 * rng.standard_normal() * np.sin(m * np.pi * t + rng.uniform(0, 2 * np.pi))
        path = ScalarPath(times=t, values=w)
        ctrl = fx.minimizing_control(model, path)
        action = fx.action_I(model, path)
        max_rel_gap = max(max_rel_gap, abs(fx.control_cost(ctrl) - action) / action)
        paths.append(w)
        controls_h.append(ctrl.phi_h)
        controls_z.append(ctrl.phi_z)
    values = solve_controlled_ode_batch(
        model, np.array([w[0] for w in paths]), t,
        np.stack(controls_h), np.stack(controls_z), t_final=1.0, dt=dt,
    )
    max_sup = max(np.abs(values[:, p] - paths[p]).max() for p in range(n_paths))
    ok = max_rel_gap < 1e-8 and max_sup < 1e-6
    _report(2, ok, f"duality rel gap {max_rel_gap:.2e} < 1e-8; round-trip sup {max_sup:.2e} < 1e-6")
    assert ok


def test_criterion_3_quasi_potential_oracle(exit_reference):
    model = exit_reference  # F_bar = -u, H = 1
    worst = 0.0
    for y in (0.25, 0.5, 1.0):
        v = fx.quasi_potential_variational(model, y, horizons=(2.0, 4.0, 8.0), n_nodes=200)
        worst = max(worst, abs(v - y**2) / y**2)
    ok = worst < 0.02
    _report(3, ok, f"variational vs explicit y^2: worst relative error {worst:.4f} < 0.02")
    assert ok


def test_criterion_4_averaging_vanishing_noise(ref_op):
    model = build_model(
        ref_op,
        f_spec={"kind": "linear_plus_source", "slope": -1.0, "source_amp": 1.0, "source_freq": 1},
        q_spec={"kind": "flat", "value": 1.0},
        b_spec={"kind": "list", "values": [0.5, 0.5]},
    )
    x = ref_op.project(lambda xi: np.cos(np.pi * xi) + 0.5)
    t_final, dt, delta, n_paths = 1.0, 1e-3, 0.5, 100
    ref = fx.solve_limit_ode(model, fx.invariant_average(ref_op, x), t_final, dt)
    means, cis = [], []
    for i, eps in enumerate((1e-1, 1e-2, 1e-3)):
        params = fx.MultiscaleParams(eps=eps, alpha=np.sqrt(eps), beta=np.sqrt(eps))
        errors, _ = fx.averaging_error_ensemble(
            model, params, x, t_final, dt, delta, ref, n_paths,
            seed=104, stream_base=i << 32,
        )
        means.append(errors.mean())
        cis.append(1.96 * errors.std(ddof=1) / np.sqrt(n_paths))
    decreasing = all(
        means[i + 1] - cis[i + 1] <= means[i] + cis[i] and means[i + 1] < means[i]
        for i in range(2)
    )
    ok = decreasing and means[-1] < 0.05
    _report(
        4, ok,
        "mean sup error on [0.5, 1] per eps {1e-1, 1e-2, 1e-3}: "
        + ", ".join(f"{m:.4f}+-{c:.4f}" for m, c in zip(means, cis))
        + f"; decreasing={decreasing}, final {means[-1]:.4f} < 0.05",
    )
    assert ok


def test_criterion_5_exit_time_scaling(ref_op, exit_reference):
    model = exit_reference
    dom = fx.build_domain({"kind": "quadratic", "scale": 1.0}, 0.25)
    levels = []
    for gamma in (0.25, 0.125, 0.0625):
        a = np.sqrt(gamma) / 2  # alpha = beta: rho_bar = 1, (alpha + beta)^2 = gamma
        levels.append(fx.MultiscaleParams(eps=gamma**2, alpha=a, beta=a))
    stats = fx.exit_time_mc(model, levels, dom, ref_op.constant_field(0.0),
                            n_paths=500, dt=0.005, seed=105, threads=2)
    vb = stats[0].v_bar_target
    assert vb == pytest.approx(0.25, rel=1e-10)
    ys = np.array([s.gamma_log_mean for s in stats])
    gs = np.array([s.gamma for s in stats])
    increasing = bool(np.all(np.diff(ys[::-1]) < 0)) and bool(np.all(ys < 0.25))
    a_mat = np.vstack([gs, np.ones_like(gs)]).T
    coef, *_ = np.linalg.lstsq(a_mat, ys, rcond=None)
    gap = abs(coef[1] - vb) / vb
    censored = sum(s.n_censored for s in stats)
    ok = increasing and gap < 0.20 and censored == 0
    _report(
        5, ok,
        f"gamma*log(mean tau) = {np.round(ys, 4).tolist()} increasing toward 0.25: {increasing}; "
        f"extrapolated {coef[1]:.4f}, relative gap {gap:.3f} < 0.20",
    )
    assert ok


def test_criterion_6_delta0_independence(ref_op):
    rows, outs = [], []
    for delta0 in (1.0, 2.0, 10.0):
        model = build_model(
            ref_op, sigma_spec={"kind": "per_point", "left": 0.7, "right": 1.2},
            b_spec={"kind": "list", "values": [1.0, 0.5]}, delta0=delta0,
        )
        rows.append(model.row_z())
        # the boundary channel of the stepper, built from the model as exit_time_mc builds it
        stepper = SpdeStepper(model, fx.MultiscaleParams(eps=0.1, alpha=0.0, beta=1.0), dt=0.01)
        outs.append(stepper.step(0.0, np.ones((BLOCK_SIZE, ref_op.n_modes)),
                                stepper.draw(block_stream(106, 0)._gen, BLOCK_SIZE)))
    row_spread = max(np.abs(rows[0] - r).max() for r in rows[1:])
    b_spread = max(np.abs(outs[0] - o).max() for o in outs[1:])
    ok = row_spread < 1e-10 and b_spread < 1e-10
    _report(6, ok, f"Sigma-row spread {row_spread:.2e}, stepper spread {b_spread:.2e}, both < 1e-10")
    assert ok


def test_criterion_7_noise_covariance():
    lam = np.linspace(1.0, 0.25, 6)
    small_op = fx.build_neumann_laplacian_1d(6)
    model = build_model(
        small_op, f_spec={"kind": "constant", "value": 0.0},
        q_spec={"kind": "list", "values": lam.tolist()},
    )
    alphas = small_op.eigenvalues

    # one step from 0 is the exact OU increment: variance lambda_k^2 v_k(dt), no cross-covariance
    eps, dt, n = 0.1, 0.01, 100_000
    stepper = SpdeStepper(model, fx.MultiscaleParams(eps=eps, alpha=1.0, beta=0.0), dt=dt)
    draws = stepper.step(0.0, np.zeros((n, 6)), stepper.draw(block_stream(107, 0)._gen, n))
    v = np.full(6, dt)
    v[1:] = eps / (2 * alphas[1:]) * (1 - np.exp(-2 * alphas[1:] * dt / eps))
    cov = np.cov(draws.T, bias=True)
    target = np.diag(lam**2 * v)
    se = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / n)
    cov_ok = bool(np.all(np.abs(cov - target) <= 3 * se + 1e-15))

    eps, dt2, n_rep, n_burn = 0.01, 1e-3, 4000, 60
    stepper = SpdeStepper(model, fx.MultiscaleParams(eps=eps, alpha=1.0, beta=0.0), dt=dt2)
    gen = block_stream(107, 1)._gen
    finals = np.zeros((n_rep, 6))
    for i in range(n_burn):
        finals = stepper.step(i * dt2, finals, stepper.draw(gen, n_rep))
    stat_target = lam[1:] ** 2 * eps / (2 * alphas[1:])
    est = finals[:, 1:].var(axis=0)
    stat_ok = bool(np.all(np.abs(est - stat_target) <= 3 * stat_target * np.sqrt(2.0 / n_rep)))
    ok = cov_ok and stat_ok
    _report(7, ok, f"one-step covariance within 3 se of lambda^2 v(dt) over {n} samples: {cov_ok}; "
                   f"OU stationary variance within 3 sigma: {stat_ok}")
    assert ok


def test_criterion_8_domain_invariance(ref_op):
    # G is nonincreasing along the semigroup, and the mean state of a point of D lies in D
    dom = fx.build_domain({"kind": "quadratic", "scale": 1.0}, 0.25)
    rng = np.random.Generator(np.random.Philox(key=108))
    times = np.array([0.01, 0.1, 1.0])
    n_samples, worst, jensen = 100, np.inf, True
    for _ in range(n_samples):
        x = sample_in_domain(dom, ref_op.n_modes, rng)
        x_t = np.exp(-np.outer(times, ref_op.eigenvalues)) * x
        worst = min(worst, float((fx.membership_values(dom, x) - fx.membership_values(dom, x_t)).min()))
        jensen &= bool(fx.membership_values(dom, [fx.invariant_average(ref_op, x)]) < dom.level)
    ok = worst >= -1e-12 and jensen
    _report(8, ok, f"G(e^tA x) <= G(x) margin {worst:.3e} >= -1e-12 over "
                   f"{n_samples} fields; mean-state membership: {jensen}")
    assert ok


def test_criterion_9_hypothesis_checkers(tmp_path):
    base = {
        "coefficients": {
            "f": {"kind": "linear", "slope": -1.0},
            "g": {"kind": "constant", "value": 1.0},
            "sigma": {"kind": "constant", "value": 1.0},
        },
        "noise": {"q_spectrum": {"kind": "flat", "value": 1.0},
                  "b_spectrum": {"kind": "list", "values": [1.0, 1.0]}},
        "experiment": {"kind": "check"},
        "seed": 109,
    }

    def run(cfg, name):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(cfg))
        status = main(["check", "--config", str(p), "--out", str(tmp_path / name)])
        return status, json.loads((tmp_path / name / "check_report.json").read_text())["checks"]

    code_base, _ = run(base, "base")

    # rho_bar = 1 contradicts the laws, whose ratio beta / alpha = eps^0.25 tends to 0
    mismatch = json.loads(json.dumps(base))
    mismatch["multiscale"] = {
        "eps": [0.01],
        "alpha_law": {"coeff": 1.0, "exponent": 0.25},
        "beta_law": {"coeff": 1.0, "exponent": 0.5},
        "rho_bar": 1.0,
    }
    code_mismatch, checks = run(mismatch, "rho_mismatch")
    rho_alone = not checks["rho_bar_consistency"]["passed"] and checks["nondegeneracy"]["passed"]

    mult = json.loads(json.dumps(base))
    mult["coefficients"]["g"] = {"kind": "linear", "slope": 1.0}
    mult["multiscale"] = {
        "eps": [0.01],
        "alpha_law": {"coeff": 1.0, "exponent": 0.5},
        "beta_law": {"coeff": 0.0, "exponent": 0.5},
        "rho_bar": 0.0,
    }
    code_mult, checks = run(mult, "mult_rho0")
    nd = checks["nondegeneracy"]
    ok = (code_base == 0 and code_mismatch == 2 and code_mult == 2 and rho_alone
          and not nd["passed"] and nd["argmin_u"] == 0.0)
    _report(9, ok, f"exit statuses (flat noise, rho_bar 1 against a law limit of 0, multiplicative rho=0) = "
                   f"({code_base}, {code_mismatch}, {code_mult}), expected (0, 2, 2); rho_bar check alone "
                   f"fails the second: {rho_alone}; nondegeneracy fails at u = {nd['argmin_u']}")
    assert ok

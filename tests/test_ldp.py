import math

import numpy as np
import pytest
from scipy.optimize import minimize

import fastexit as fx
from fastexit.ldp import MAX_ITER, ScalarPath, _discrete_action_and_grad, path_derivative
from fastexit.solver import solve_controlled_ode_batch
from conftest import build_model


def _flat_drift_model(ref_op):
    # F_bar = 0, H = 1: f = 0, g = 1, lambda flat sqrt(2), theta = (1, 1), rho = 1
    model = build_model(
        ref_op, f_spec={"kind": "constant", "value": 0.0},
        q_spec={"kind": "flat", "value": np.sqrt(2.0)},
    )
    return model


def _linear_drift_model(ref_op):
    model = build_model(ref_op, q_spec={"kind": "flat", "value": np.sqrt(2.0)})
    return model


def smooth_random_path(rng, t_final=1.0, dt=1e-4, n_harmonics=3):
    t = np.arange(int(round(t_final / dt)) + 1) * dt
    w = np.full_like(t, 0.3 * rng.standard_normal())
    for m in range(1, n_harmonics + 1):
        a = 0.3 / m**2 * rng.standard_normal()
        w += a * np.sin(m * np.pi * t / t_final + rng.uniform(0, 2 * np.pi))
    return ScalarPath(times=t, values=w)


def test_action_on_the_flow_is_zero(ref_op):
    model = _linear_drift_model(ref_op)
    flow = fx.solve_limit_ode(model, 0.8, t_final=1.0, dt=1e-3)
    val = fx.action_I(model, flow)
    assert math.isfinite(val) and val < 1e-8


def test_action_closed_forms(ref_op):
    t = np.linspace(0, 1, 1001)
    ramp = ScalarPath(times=t, values=t.copy())
    flat = _flat_drift_model(ref_op)
    assert fx.action_I(flat, ramp) == pytest.approx(0.5, abs=1e-12)
    lin = _linear_drift_model(ref_op)
    # 1/2 int (1 + t)^2 dt = 7/6, trapezoid bias O(dt^2)
    assert fx.action_I(lin, ramp) == pytest.approx(7 / 6, abs=1e-6)


def test_action_nondegeneracy_guard(ref_op):
    model = build_model(ref_op, g_spec={"kind": "linear", "slope": 1.0}, rho_bar=0.0)
    t = np.linspace(0, 1, 101)
    through_zero = ScalarPath(times=t, values=t - 0.5)
    with pytest.raises(fx.NondegeneracyError):
        fx.action_I(model, through_zero)


def test_spatial_dependence_rejected(ref_op):
    model = _linear_drift_model(ref_op)
    t = np.linspace(0, 1, 11)
    states = np.zeros((11, ref_op.n_modes))
    states[:, 0] = 0.3
    traj = fx.FieldTrajectory(times=t, states=states)
    assert math.isfinite(fx.action_of_trajectory(model, ref_op, traj))
    states2 = states.copy()
    states2[:, 2] = 1e-6
    traj2 = fx.FieldTrajectory(times=t, states=states2)
    val = fx.action_of_trajectory(model, ref_op, traj2)
    assert not math.isfinite(val) and val == math.inf


def test_minimizing_control_on_flow_is_zero(ref_op):
    model = _linear_drift_model(ref_op)
    flow = fx.solve_limit_ode(model, 0.8, t_final=1.0, dt=1e-3)
    ctrl = fx.minimizing_control(model, flow)
    assert fx.control_cost(ctrl) < 1e-8


def test_minimizing_control_ramp_norm(ref_op):
    lin = _linear_drift_model(ref_op)
    t = np.linspace(0, 1, 1001)
    ramp = ScalarPath(times=t, values=t.copy())
    ctrl = fx.minimizing_control(lin, ramp)
    assert ctrl.norm_sq_l2v() == pytest.approx(7 / 3, abs=2e-6)


def test_duality_identity_random_paths(ref_op):
    models = [
        _linear_drift_model(ref_op),
        build_model(ref_op, g_spec={"kind": "logistic_clipped", "amp": 0.5, "width": 1.0, "offset": 1.0}),
        build_model(ref_op, rho_bar=np.inf),
        build_model(ref_op, rho_bar=0.0),
    ]
    rng = np.random.Generator(np.random.Philox(key=21))
    for model in models:
        for _ in range(8):
            w = smooth_random_path(rng, dt=1e-3)
            action = fx.action_I(model, w)
            cost = fx.control_cost(fx.minimizing_control(model, w))
            assert cost == pytest.approx(action, rel=1e-8)


def test_skeleton_round_trip(ref_op):
    model = _linear_drift_model(ref_op)
    rng = np.random.Generator(np.random.Philox(key=22))
    paths = [smooth_random_path(rng, dt=1e-4) for _ in range(3)]
    ctrls = [fx.minimizing_control(model, w) for w in paths]
    out = solve_controlled_ode_batch(model, np.array([w.values[0] for w in paths]), ctrls[0].times,
                                     np.stack([c.phi_h for c in ctrls]), np.stack([c.phi_z for c in ctrls]),
                                     t_final=1.0, dt=1e-4)
    for p, w in enumerate(paths):
        assert np.abs(out[:, p] - w.values).max() < 1e-6


def test_discrete_gradient_matches_finite_differences(ref_op):
    model = build_model(
        ref_op,
        f_spec={"kind": "logistic_clipped", "amp": 1.0, "width": 1.0},
        g_spec={"kind": "logistic_clipped", "amp": 0.5, "width": 1.0, "offset": 1.0},
        q_spec={"kind": "flat", "value": np.sqrt(2.0)},
    )
    t = np.linspace(0, 1, 21)
    rng = np.random.Generator(np.random.Philox(key=23))
    vals = 0.5 * rng.standard_normal(21)
    _, grad = _discrete_action_and_grad(model, t, vals)
    h = 1e-6
    for j in (0, 1, 10, 19, 20):
        vp, vm = vals.copy(), vals.copy()
        vp[j] += h
        vm[j] -= h
        ap, _ = _discrete_action_and_grad(model, t, vp)
        am, _ = _discrete_action_and_grad(model, t, vm)
        assert grad[j] == pytest.approx((ap - am) / (2 * h), rel=1e-5, abs=1e-8)


def test_prefix_action_free_lagrangian(ref_op):
    flat = _flat_drift_model(ref_op)
    x, y = 0.2, 0.9
    for delta in (0.2, 0.4, 0.8):
        val = fx.prefix_action_J(flat, x, y, delta, n_nodes=101)
        assert val == pytest.approx((y - x) ** 2 / (2 * delta), rel=1e-8)
    vals = [fx.prefix_action_J(flat, x, y, d, n_nodes=101) for d in (0.2, 0.4, 0.8)]
    assert vals[0] > vals[1] > vals[2]


def test_prefix_action_flow_endpoint_is_free(ref_op):
    model = _linear_drift_model(ref_op)
    delta = 0.5
    flow = fx.solve_limit_ode(model, 0.8, t_final=delta, dt=1e-3)
    val = fx.prefix_action_J(model, 0.8, float(flow.values[-1]), delta, n_nodes=201)
    assert val < 1e-6


def test_optimizer_failure_carries_best_value(ref_op):
    model = _linear_drift_model(ref_op)
    with pytest.raises(fx.OptimizationError) as exc:
        fx.minimize_path_action(model, (0.0, 2.0), 0.0, 1.0, 101, max_iter=1, gtol=1e-14)
    assert np.isfinite(exc.value.best_value)


def test_quasi_potential_explicit(ref_op):
    model = _linear_drift_model(ref_op)  # F_bar = -u, H = 1
    assert fx.quasi_potential_explicit(model, 0.0) == 0.0
    for y in (-0.5, 0.25, 1.0):
        assert fx.quasi_potential_explicit(model, y) == pytest.approx(y**2, rel=1e-10)
    multiplicative = build_model(ref_op, g_spec={"kind": "linear", "slope": 1.0, "offset": 1.0})
    with pytest.raises(fx.NotApplicableError):
        fx.quasi_potential_explicit(multiplicative, 0.5)


def test_quasi_potential_divergence_form_constants(ref_op):
    # V(y) = -(1+rho)^2 / (c1 + c2 rho^2) * int_0^y int_O f(xi, s) dxi ds
    # with c1 = |sqrt(Q) m|^2 / 2 and c2 = delta0^2 |sqrt(B) Sigma N* m|^2 / 2
    model = _linear_drift_model(ref_op)
    c1 = 0.5 * float((model.row_h(0.0) ** 2).sum())
    c2 = 0.5 * float((model.row_z() ** 2).sum())
    rho = model.rho_bar
    y = 0.7
    nodes, weights = np.polynomial.legendre.leggauss(64)
    s = 0.5 * y * (nodes + 1)
    double_integral = 0.5 * y * float((weights * model.f_bar(s)).sum())
    formula = -(1 + rho) ** 2 / (c1 + c2 * rho**2) * double_integral
    assert formula == pytest.approx(fx.quasi_potential_explicit(model, y), rel=1e-12)


def test_quasi_potential_variational_matches_explicit(ref_op):
    model = _linear_drift_model(ref_op)
    assert fx.quasi_potential_variational(model, 0.0) == 0.0
    v = fx.quasi_potential_variational(model, 0.5, horizons=(2.0, 4.0), n_nodes=100)
    assert v == pytest.approx(0.25, rel=0.03)


def test_quasi_potential_horizon_monotonicity(ref_op):
    model = _linear_drift_model(ref_op)
    short = fx.quasi_potential_variational(model, 0.5, horizons=(2.0,), n_nodes=100)
    longer = fx.quasi_potential_variational(model, 0.5, horizons=(2.0, 8.0), n_nodes=100)
    assert longer <= short


def test_v_bar(ref_op):
    model = _linear_drift_model(ref_op)
    dom = fx.build_domain({"kind": "quadratic", "scale": 1.0}, 0.25, ref_op)
    assert fx.v_bar(model, dom) == pytest.approx(0.25, rel=1e-10)
    tiny = fx.build_domain({"kind": "quadratic", "scale": 1.0}, 1e-4, ref_op)
    assert fx.v_bar(model, tiny) == pytest.approx(1e-4, rel=1e-8)
    shifted = build_model(
        ref_op, f_spec={"kind": "linear", "slope": -1.0, "offset": 0.1},
        q_spec={"kind": "flat", "value": np.sqrt(2.0)},
    )
    # V(y) = y^2 - 0.2 y for y < 0 and (y - 0.1)^2 for y > 0.1, where the flow carries
    # a path from 0 to 0.1 for free: exit is cheaper on the side the drift leans toward
    assert fx.v_bar(shifted, dom) == pytest.approx(0.16, rel=1e-8)
    assert fx.quasi_potential_explicit(shifted, -0.5) == pytest.approx(0.35, rel=1e-10)


def test_action_decomposition_two_stage(ref_op):
    model = _linear_drift_model(ref_op)
    delta, t_final, n = 0.5, 1.0, 401
    times = np.linspace(0, t_final, n)
    j_split = int(round(delta / (times[1] - times[0])))
    u_tail = 0.3 + 0.2 * np.sin(times[j_split:])
    x_mean = 0.6
    j_val = fx.prefix_action_J(model, x_mean, float(u_tail[0]), delta, n_nodes=j_split + 1)
    tail_action = fx.action_I(model, ScalarPath(times=times[j_split:], values=u_tail))
    # joint minimization over the prefix nodes of the concatenated discrete action
    def joint(interior):
        vals = np.concatenate([[x_mean], interior, u_tail])
        a, g = _discrete_action_and_grad(model, times, vals)
        return a, g[1:j_split]
    init = np.linspace(x_mean, u_tail[0], j_split + 1)[1:-1]
    res = minimize(joint, init, jac=True, method="L-BFGS-B",
                   options={"maxiter": MAX_ITER, "gtol": 1e-10})
    assert j_val + tail_action == pytest.approx(res.fun, rel=1e-2)


def test_derivative_stencil_bias_richardson(ref_op):
    model = _linear_drift_model(ref_op)
    exact = 19 / 15  # 1/2 int_0^1 (2t + t^2)^2 dt for w = t^2, F_bar = -w, H = 1
    errs = []
    for n in (201, 401):
        t = np.linspace(0, 1, n)
        errs.append(abs(fx.action_I(model, ScalarPath(times=t, values=t**2)) - exact))
    assert 2.5 < errs[0] / errs[1] < 6.0  # O(dt^2) stencil + quadrature bias


def test_path_derivative_stencil():
    t = np.linspace(0, 1, 11)
    d = path_derivative(3 * t + 1, t[1] - t[0])
    assert np.allclose(d, 3.0)
    with pytest.raises(ValueError):
        ScalarPath(times=np.array([0.0, 0.1, 0.3]), values=np.zeros(3))
    with pytest.raises(ValueError):
        ScalarPath(times=np.array([0.0, 0.1]), values=np.array([0.0, np.nan]))


def test_control_csv(tmp_path, ref_op):
    model = _linear_drift_model(ref_op)
    t = np.linspace(0, 1, 11)
    ctrl = fx.minimizing_control(model, ScalarPath(times=t, values=t.copy()))
    p = tmp_path / "control.csv"
    ctrl.write_csv(p)
    header = p.read_text().splitlines()[0].split(",")
    assert header[0] == "t" and header[1] == "phi_H_0"
    assert header[-2:] == ["phi_Z_0", "phi_Z_1"]

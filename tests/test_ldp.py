import math

import numpy as np
import pytest

import fastexit as fx
from fastexit.config import build_system, resolve_config
from fastexit.ldp import (
    ScalarPath, _action_derivatives, _linearized_start, _solve_pentadiagonal, minimize, path_derivative,
)
from fastexit.solver import solve_controlled_ode_batch
from conftest import build_model

LOGISTIC_GAIN = {"kind": "logistic_clipped", "amp": 0.5, "width": 1.0, "offset": 1.0}


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


def _logistic_drift_model(ref_op):
    # F_bar = -tanh(2u), with the logistic gain
    return build_model(
        ref_op, f_spec={"kind": "logistic_clipped", "amp": -1.0, "width": 0.5}, g_spec=LOGISTIC_GAIN,
        q_spec={"kind": "flat", "value": np.sqrt(2.0)},
    )


def _benchmark_model(ref_op):
    # the quasipotential-multiplicative benchmark's model, as in
    # test_quasi_potential_variational_keeps_its_values_on_the_benchmark_model
    return build_model(ref_op, g_spec=LOGISTIC_GAIN, q_spec={"kind": "flat", "value": np.sqrt(2.0)})


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


def test_h_vanishing_between_nodes_is_refused():
    # g = r - 0.7 and rho_bar = 0: H = 2 (u - 0.7)^2 vanishes at u = 0.7, which no node of
    # a 40-node path from 0 to 1 hits
    op = fx.build_neumann_laplacian_1d(8)
    model = build_model(
        op, g_spec={"kind": "linear", "slope": 1.0, "offset": -0.7},
        q_spec={"kind": "flat", "value": np.sqrt(2.0)}, rho_bar=0.0,
    )
    h, u = model.h_min(0.0, 1.0)
    assert h == 0.0 and u == pytest.approx(0.7, rel=1e-12)
    with pytest.raises(fx.NondegeneracyError):
        fx.quasi_potential_variational(model, 1.0, (2.0,), 40)
    t = np.linspace(0.0, 1.0, 40)
    with pytest.raises(fx.NondegeneracyError):
        fx.action_I(model, ScalarPath(times=t, values=t.copy()))
    assert math.isfinite(fx.quasi_potential_variational(model, 0.5, (2.0,), 40))


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
    _, grad, _ = _action_derivatives(model, t, vals)
    h = 1e-6
    for j in (0, 1, 10, 19, 20):
        vp, vm = vals.copy(), vals.copy()
        vp[j] += h
        vm[j] -= h
        ap = _action_derivatives(model, t, vp)[0]
        am = _action_derivatives(model, t, vm)[0]
        assert grad[j] == pytest.approx((ap - am) / (2 * h), rel=1e-5, abs=1e-8)


@pytest.mark.parametrize("f_spec, g_spec", [
    (None, {"kind": "constant", "value": 1.0}),
    (None, {"kind": "linear", "slope": 0.5, "offset": 1.0}),
    (None, LOGISTIC_GAIN),
    ({"kind": "logistic_clipped", "amp": -1.0, "width": 0.7, "offset": 0.2}, LOGISTIC_GAIN),
], ids=["constant", "linear", "logistic_clipped", "logistic_f"])
def test_hessian_bands_match_finite_differences(ref_op, f_spec, g_spec):
    # the pentadiagonal bands equal central differences of the exact gradient,
    # and the Hessian has no entry further than two nodes off the diagonal
    model = build_model(ref_op, f_spec=f_spec, g_spec=g_spec, q_spec={"kind": "flat", "value": np.sqrt(2.0)})
    t = np.linspace(0, 1, 12)
    vals = 0.3 * np.random.Generator(np.random.Philox(key=24)).standard_normal(12)
    _, _, bands = _action_derivatives(model, t, vals)
    hess = np.empty((12, 12))
    h = 1e-6
    for j in range(12):
        vp, vm = vals.copy(), vals.copy()
        vp[j] += h
        vm[j] -= h
        hess[:, j] = (_action_derivatives(model, t, vp)[1] - _action_derivatives(model, t, vm)[1]) / (2 * h)
    want = np.zeros((3, 12))
    for k in range(3):
        want[k, :12 - k] = np.diag(hess, k)
        np.testing.assert_allclose(np.diag(hess, -k), np.diag(hess, k), atol=1e-7)
    np.testing.assert_allclose(bands, want, rtol=0, atol=1e-7 * np.abs(hess).max())
    assert np.abs(np.triu(hess, 3)).max() < 1e-9


def test_pentadiagonal_solve_and_indefinite_pivot():
    rng = np.random.Generator(np.random.Philox(key=25))
    bands = rng.standard_normal((3, 30))
    bands[0] += 8.0
    bands[1, -1:] = bands[2, -2:] = 0.0
    rhs = rng.standard_normal(30)

    def dense(b):
        return sum(np.diag(b[k, :30 - k], k) + (np.diag(b[k, :30 - k], -k) if k else 0) for k in range(3))

    np.testing.assert_allclose(_solve_pentadiagonal(bands, rhs), np.linalg.solve(dense(bands), rhs),
                               rtol=1e-12, atol=1e-14)
    bands[0, 17] = -1.0
    assert _solve_pentadiagonal(bands, rhs) is None
    # the shift mu solves (A + mu I) x = rhs, and fails exactly when A + mu I is indefinite
    a = dense(bands)
    lowest = np.linalg.eigvalsh(a)[0]
    assert lowest < 0
    for mu in lowest + np.array([-3.0, -0.5, -0.05, 0.05, 0.5, 3.0]):
        got = _solve_pentadiagonal(bands, rhs, mu)
        if lowest + mu < 0:
            assert got is None, mu
        else:
            np.testing.assert_allclose(got, np.linalg.solve(a + mu * np.eye(30), rhs), rtol=1e-12, atol=1e-14)


def test_newton_from_an_indefinite_start_reaches_the_straight_line_value(ref_op):
    # far from the minimizer the Hessian is indefinite: the shifted steps must
    # still land on the minimum found from the straight line, as the default start does
    model = _logistic_drift_model(ref_op)
    t = np.linspace(0.0, 4.0, 101)
    init = np.sin(np.pi * t / 4.0)
    init[-1] = 0.5
    _, grad, bands = _action_derivatives(model, t, init)
    assert _solve_pentadiagonal(bands[:, 1:-1], grad[1:-1]) is None
    straight = fx.minimize_path_action(model, (0.0, 4.0), 0.0, 0.5, 101, init=np.linspace(0.0, 0.5, 101))
    default = fx.minimize_path_action(model, (0.0, 4.0), 0.0, 0.5, 101)
    far = fx.minimize_path_action(model, (0.0, 4.0), 0.0, 0.5, 101, init=init)
    assert default.value == pytest.approx(straight.value, rel=1e-12)
    assert far.value == pytest.approx(straight.value, rel=1e-12)
    np.testing.assert_allclose(far.path.values, straight.path.values, atol=1e-8)


def test_linearized_start_closed_forms(ref_op):
    t = np.linspace(0.0, 4.0, 101)
    # F_bar = -u, H constant: the continuous minimizer from 0 to y
    np.testing.assert_allclose(
        _linearized_start(_linear_drift_model(ref_op), t, 0.0, 0.7), 0.7 * np.sinh(t) / np.sinh(4.0),
        rtol=0, atol=1e-12,
    )
    # F_bar' = 0: the straight line
    np.testing.assert_array_equal(_linearized_start(_flat_drift_model(ref_op), t, 0.2, 0.9), np.linspace(0.2, 0.9, 101))


def test_linearized_start_stays_in_the_segment(ref_op):
    # slope -1000 over T = 8 (k T = 8000): finite, and at the equilibrium 0.1 away from the ends
    steep = build_model(ref_op, f_spec={"kind": "linear", "slope": -1000.0, "offset": 100.0})
    t = np.linspace(0.0, 8.0, 200)
    start = _linearized_start(steep, t, -0.4, 0.3)
    assert np.all(np.isfinite(start)) and start.min() >= -0.4 and start.max() <= 0.3
    assert start[100] == pytest.approx(0.1, abs=1e-12)
    # from a = 0.8, not an equilibrium, the linearized minimizer sags below b = 0.5 and is clipped
    model = _logistic_drift_model(ref_op)
    t = np.linspace(0.0, 4.0, 101)
    a, b = 0.8, 0.5
    f1 = float(model.f_bar_prime(a))
    k, w_eq = abs(f1), a - float(model.f_bar(a)) / f1
    free = w_eq + ((a - w_eq) * np.sinh(k * (4.0 - t)) + (b - w_eq) * np.sinh(k * t)) / np.sinh(4.0 * k)
    assert free.min() < b
    np.testing.assert_allclose(_linearized_start(model, t, a, b), np.clip(free, b, a), rtol=0, atol=1e-12)


def test_newton_from_the_linearized_start_on_the_benchmark_model(ref_op):
    # from the straight line these 18 solves take 60 Newton iterations
    model = _benchmark_model(ref_op)
    n_iter = sum(
        fx.minimize_path_action(model, (0.0, t_end), 0.0, y, 200).n_iter
        for y in (-0.9, -0.6, -0.3, 0.3, 0.6, 0.9) for t_end in (2.0, 4.0, 8.0)
    )
    assert n_iter <= 30


def test_newton_converges_where_the_action_is_flat_to_rounding(ref_op):
    # from the linearized start, the first step of this solve leaves a gradient of 1.7e-8 and a
    # predicted decrease of 3e-16, under one ulp of the action 1.068: the value cannot rank the
    # next trials, so the line search must take the one that cuts the gradient
    model = _benchmark_model(ref_op)
    y = -0.9073983952032988
    got = fx.minimize_path_action(model, (0.0, 8.0), 0.0, y, 200)
    straight = fx.minimize_path_action(model, (0.0, 8.0), 0.0, y, 200, init=np.linspace(0.0, y, 200))
    assert got.value == pytest.approx(straight.value, rel=1e-12)


def test_prefix_action_free_lagrangian(ref_op):
    # the minimal action from x to y over [0, delta]: (y - x)^2 / (2 delta) when F_bar = 0, H = 1
    flat = _flat_drift_model(ref_op)
    x, y = 0.2, 0.9
    for delta in (0.2, 0.4, 0.8):
        val = fx.minimize_path_action(flat, (0.0, delta), x, y, 101).value
        assert val == pytest.approx((y - x) ** 2 / (2 * delta), rel=1e-8)
    vals = [fx.minimize_path_action(flat, (0.0, d), x, y, 101).value for d in (0.2, 0.4, 0.8)]
    assert vals[0] > vals[1] > vals[2]


def test_prefix_action_flow_endpoint_is_free(ref_op):
    model = _linear_drift_model(ref_op)
    delta = 0.5
    flow = fx.solve_limit_ode(model, 0.8, t_final=delta, dt=1e-3)
    val = fx.minimize_path_action(model, (0.0, delta), 0.8, float(flow.values[-1]), 201).value
    assert val < 1e-6


def test_optimizer_failure_carries_best_value(ref_op):
    # a state-dependent gain makes the action non-quadratic: one Newton step cannot converge
    model = build_model(ref_op, g_spec=LOGISTIC_GAIN, q_spec={"kind": "flat", "value": np.sqrt(2.0)})
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


def test_quasi_potential_explicit_cuts_at_the_root_of_a_logistic_drift(ref_op):
    # F_bar = amp tanh(u / w) + offset vanishes at u* = w atanh(-offset / amp), inside (0, y);
    # only (u*, y) climbs against the flow, and V is its closed-form integral
    amp, w, offset = -2.0, 1.0, 0.5
    model = build_model(ref_op, f_spec={"kind": "logistic_clipped", "amp": amp, "width": w, "offset": offset})
    h, root = float(model.h(0.0)), w * np.arctanh(-offset / amp)
    assert model.f_bar_root == pytest.approx(root, rel=1e-15)
    for y in (2.0, 5.0):
        want = -(2.0 / h) * (offset * (y - root) + amp * w * (np.log(np.cosh(y / w)) - np.log(np.cosh(root / w))))
        assert fx.quasi_potential_explicit(model, y) == pytest.approx(want, rel=1e-12), y
    assert fx.quasi_potential_explicit(model, 0.9 * root) == 0.0  # no climb before the root
    # no root: F_bar = 2 tanh(u) + 3 > 0 everywhere
    rising = build_model(ref_op, f_spec={"kind": "logistic_clipped", "amp": 2.0, "width": 1.0, "offset": 3.0})
    assert np.isnan(rising.f_bar_root)
    assert fx.quasi_potential_explicit(rising, 1.0) == 0.0


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


def test_quasi_potential_variational_keeps_its_values_on_the_benchmark_model():
    # the quasipotential-multiplicative benchmark's model: logistic gain, 16 modes, eps = 0.01;
    # the values are those of the solver before H became a closed form in phi_g
    cfg = {
        "operator": {"builder": "neumann_laplacian_1d", "n_modes": 16, "grid_factor": 4},
        "coefficients": {
            "f": {"kind": "linear", "slope": -1.0},
            "g": {"kind": "logistic_clipped", "amp": 0.5, "width": 1.0, "offset": 1.0},
            "sigma": {"kind": "constant", "value": 1.0},
        },
        "noise": {
            "q_spectrum": {"kind": "flat", "value": math.sqrt(2.0)},
            "b_spectrum": {"kind": "list", "values": [1.0, 1.0]},
        },
        "multiscale": {
            "eps": [0.01],
            "alpha_law": {"coeff": 0.5, "exponent": 0.25},
            "beta_law": {"coeff": 0.5, "exponent": 0.25},
            "rho_bar": 1.0,
            "delta0": 1.0,
        },
        "experiment": {"kind": "quasipotential"},
    }
    model = build_system(resolve_config(cfg)).model
    want = {
        -0.9: 1.049099273612606, -0.6: 0.4340688471652492, -0.3: 0.09932741795082183,
        0.3: 0.08163981902835228, 0.6: 0.2995340403607161, 0.9: 0.6280981966263047,
    }
    for y, v in want.items():
        assert fx.quasi_potential_variational(model, y, (2.0, 4.0, 8.0), 200) == pytest.approx(v, rel=1e-12), y


def test_quasi_potential_horizon_monotonicity(ref_op):
    model = _linear_drift_model(ref_op)
    short = fx.quasi_potential_variational(model, 0.5, horizons=(2.0,), n_nodes=100)
    longer = fx.quasi_potential_variational(model, 0.5, horizons=(2.0, 8.0), n_nodes=100)
    assert longer <= short


def test_v_bar(ref_op):
    model = _linear_drift_model(ref_op)
    dom = fx.build_domain({"kind": "quadratic", "scale": 1.0}, 0.25)
    assert fx.v_bar(model, dom) == pytest.approx(0.25, rel=1e-10)
    tiny = fx.build_domain({"kind": "quadratic", "scale": 1.0}, 1e-4)
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
    j_val = fx.minimize_path_action(model, (0.0, delta), x_mean, float(u_tail[0]), j_split + 1).value
    tail_action = fx.action_I(model, ScalarPath(times=times[j_split:], values=u_tail))
    # joint minimization over the prefix nodes of the concatenated discrete action
    def joint(interior):
        vals = np.concatenate([[x_mean], interior, u_tail])
        a, g, bands = _action_derivatives(model, times, vals)
        return a, g[1:j_split], bands[:, 1:j_split]
    init = np.linspace(x_mean, u_tail[0], j_split + 1)[1:-1]
    res = minimize(joint, init, gtol=1e-10)
    assert res.success and j_val + tail_action == pytest.approx(res.fun, rel=1e-2)


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

import numpy as np
import pytest

import fastexit as fx
from fastexit.ensemble import SpdeStepper, block_stream
from fastexit.noise import boundary_coupling, ou_step_weights
from conftest import build_model


def test_block_stream_deterministic_repeat(ref_op):
    stepper = SpdeStepper(build_model(ref_op), fx.MultiscaleParams(eps=0.1, alpha=1.0, beta=1.0), dt=0.1)
    u = np.zeros((64, ref_op.n_modes))
    a = stepper.step(0.0, u, stepper.draw(block_stream(9, 2)._gen, 64))
    b = stepper.step(0.0, u, stepper.draw(block_stream(9, 2)._gen, 64))
    assert np.array_equal(a, b)
    c = stepper.step(0.0, u, stepper.draw(block_stream(9, 3)._gen, 64))
    assert not np.array_equal(a, c)


def test_ou_step_weights_zero_mode(ref_op):
    _, v = ou_step_weights(ref_op.eigenvalues, eps=0.01, dt=1e-3)
    assert v[0] == 1e-3  # zero-eigenvalue limit is plain dt
    k = 2
    expected = 0.01 / (2 * ref_op.eigenvalues[k]) * (1 - np.exp(-2 * ref_op.eigenvalues[k] * 1e-3 / 0.01))
    assert v[k] == pytest.approx(expected, rel=1e-12)


def _noise_only(op, q_values=None, sigma_spec=None, g_spec=None):
    """The system with f = 0, for stepping the stochastic convolutions alone."""
    q_spec = {"kind": "list", "values": list(q_values)} if q_values is not None else None
    return build_model(op, f_spec={"kind": "constant", "value": 0.0}, g_spec=g_spec,
                       sigma_spec=sigma_spec, q_spec=q_spec)


def _run(stepper, u, seed, n_steps=1):
    gen = block_stream(seed, 0)._gen
    for i in range(n_steps):
        u = stepper.step(i * stepper.dt, u, stepper.draw(gen, u.shape[0]))
    return u


def test_conv_q_zero_spectrum_decays(ref_op):
    model = _noise_only(ref_op, q_values=np.zeros(ref_op.n_modes))
    level = fx.MultiscaleParams(eps=0.1, alpha=1.0, beta=0.0)
    stepper = SpdeStepper(model, level, dt=0.05)
    gen = block_stream(1, 0)._gen
    out = stepper.step(0.0, np.ones((64, ref_op.n_modes)), stepper.draw(gen, 64))
    assert np.allclose(out, np.exp(-ref_op.eigenvalues * 0.5))
    # a zero spectrum draws nothing: the stream is where it started
    assert np.array_equal(gen.standard_normal(8), block_stream(1, 0)._gen.standard_normal(8))
    with pytest.raises(ValueError):
        SpdeStepper(model, level, dt=0.0)


def test_conv_q_stationary_variance():
    op = fx.build_neumann_laplacian_1d(4)
    model = _noise_only(op, q_values=[0.0, 1.0, 0.7, 0.5])
    eps, dt = 0.01, 1e-3
    n_rep, n_burn = 4000, 60
    stepper = SpdeStepper(model, fx.MultiscaleParams(eps=eps, alpha=1.0, beta=0.0), dt=dt)
    finals = _run(stepper, np.zeros((n_rep, 4)), seed=123, n_steps=n_burn)
    target = model.q_lambdas[1:] ** 2 * eps / (2 * op.eigenvalues[1:])
    est = finals[:, 1:].var(axis=0)
    se = target * np.sqrt(2.0 / n_rep)
    assert np.all(np.abs(est - target) <= 3 * se)


def test_conv_q_mode0_linear_growth():
    op = fx.build_neumann_laplacian_1d(4)
    lam0 = 1.3
    model = _noise_only(op, q_values=[lam0, 0.0, 0.0, 0.0])
    dt = 0.01
    n_rep, n_steps = 5000, 10
    stepper = SpdeStepper(model, fx.MultiscaleParams(eps=0.05, alpha=1.0, beta=0.0), dt=dt)
    finals = _run(stepper, np.zeros((n_rep, 4)), seed=321, n_steps=n_steps)[:, 0]
    target = lam0**2 * dt * n_steps  # variance grows by lambda_0^2 dt per step
    est = finals.var()
    assert abs(est - target) <= 3 * target * np.sqrt(2.0 / n_rep)


def test_conv_q_multiplicative_matches_identity_for_unit_g(ref_op):
    # a gain of non-constant kind that equals 1 everywhere takes the
    # mode-product-table coupling path, with its own interior panel before the additive one; on
    # the same panels it must reproduce the closed form of constant g = 1,
    # channel by channel
    lam = np.linspace(1.0, 0.2, ref_op.n_modes)
    u = np.ones((64, ref_op.n_modes))
    unit = _noise_only(ref_op, q_values=lam, g_spec={"kind": "linear", "slope": 0.0, "offset": 1.0})
    const = _noise_only(ref_op, q_values=lam, g_spec={"kind": "constant", "value": 1.0})
    stepper = SpdeStepper(unit, fx.MultiscaleParams(eps=0.1, alpha=0.7, beta=0.4), dt=0.01)
    assert stepper.g_const is None and stepper.n_panels == 2
    z = stepper.draw(block_stream(5, 0)._gen, 64)
    interior = SpdeStepper(const, fx.MultiscaleParams(eps=0.1, alpha=0.7, beta=0.0), dt=0.01)
    boundary = SpdeStepper(const, fx.MultiscaleParams(eps=0.1, alpha=0.0, beta=0.4), dt=0.01)
    expected = interior.step(0.0, u, z[:1]) + boundary.step(0.0, u, z[1:]) - interior.decay * u
    assert np.abs(stepper.step(0.0, u, z) - expected).max() <= 1e-12


@pytest.mark.parametrize("grid_factor", [4, 2], ids=["neumann_laplacian", "neumann_laplacian_grid2"])
@pytest.mark.parametrize("g_spec", [{"kind": "logistic_clipped", "amp": 0.5, "width": 1.0, "offset": 1.0},
                                    {"kind": "linear", "slope": 0.3, "xi_slope": 0.8, "offset": 1.0}])
def test_interior_std_matches_frozen_gain_definition(grid_factor, g_spec):
    # the interior channel of a state-dependent gain has the per-mode std
    # alpha sqrt(sum_j (lambda_j M_kj)^2 v_k), M_kj = <g e_j, e_k> by grid
    # quadrature, evaluated here term by term on 64 rows of one tile
    # (the step evaluates it from the gain's cosine moments)
    op = fx.build_neumann_laplacian_1d(16, grid_factor)
    model = _noise_only(op, q_values=np.linspace(1.0, 0.2, op.n_modes), g_spec=g_spec)
    alpha, eps, dt = 0.7, 0.1, 0.01
    stepper = SpdeStepper(model, fx.MultiscaleParams(eps=eps, alpha=alpha, beta=0.0), dt=dt)
    assert stepper.n_panels == 1
    u = 0.5 * np.random.Generator(np.random.Philox(key=36)).standard_normal((64, op.n_modes))
    n = op.n_modes
    std = stepper.step(0.0, u, np.ones((1, 64, n))) - stepper.step(0.0, u, np.zeros((1, 64, n)))
    # the same on the path run_ensemble takes: one step_chunk on a stack of two
    # tiles of rows [u | 1 | z], the first with unit draws and the second with none
    x = np.zeros((2, 128, 2 * n + 1))
    x[0, :, :n] = np.vstack([u, u])
    x[:, :, n] = 1.0
    x[0, :64, n + 1:] = 1.0
    stepper.step_chunk(x)
    assert np.array_equal(x[1, :64, :n] - x[1, 64:, :n], std)
    g = model.coeffs.g.value(op.grid, op.to_grid(u))
    m = np.einsum("pm,km,jm->pkj", g * op.quad_weights, op.modes_on_grid, op.modes_on_grid)
    _, v = ou_step_weights(op.eigenvalues, eps, dt)
    expected = alpha * np.sqrt(((m * model.q_lambdas) ** 2).sum(axis=2) * v)
    assert np.all(np.abs(std - expected) <= 1e-12 * expected)


def test_additive_increment_joint_covariance(ref_op, exit_reference):
    # one step from 0 at the finest exit-reference level (f(0) = 0, so the
    # step is its noise) has the exact cross-mode covariance C_B + C_Q; in the
    # boundary part C_B modes 2 and 4 correlate at 0.80, in C at 0.53
    eps, dt, n = 0.00390625, 0.005, 100_000
    alpha = beta = 0.5 * eps**0.25
    stepper = SpdeStepper(exit_reference, fx.MultiscaleParams(eps=eps, alpha=alpha, beta=beta), dt=dt)
    assert stepper.n_panels == 1
    draws = stepper.step(0.0, np.zeros((n, ref_op.n_modes)), stepper.draw(block_stream(110, 0)._gen, n))
    rate = ref_op.eigenvalues[:, None] / eps + ref_op.eigenvalues[None, :] / eps
    w = np.full(rate.shape, dt)
    w[rate > 0] = (1.0 - np.exp(-rate[rate > 0] * dt)) / rate[rate > 0]  # int_0^dt exp(-rate s) ds
    e = ref_op.boundary_values  # theta = sigma = 1, so b_kj = e_k(j)
    c_b = beta**2 * (e @ e.T) * w
    target = c_b + np.diag(alpha**2 * 2.0 * np.diag(w))  # lambda^2 = 2, g = 1
    assert c_b[2, 4] / np.sqrt(c_b[2, 2] * c_b[4, 4]) == pytest.approx(0.80, abs=0.005)
    assert target[2, 4] / np.sqrt(target[2, 2] * target[4, 4]) == pytest.approx(0.53, abs=0.005)
    cov = np.cov(draws.T, bias=True)
    se = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / n)
    assert np.all(np.abs(cov - target) <= 3 * se)


def test_conv_b_pure_decay(ref_op):
    model = _noise_only(ref_op, sigma_spec={"kind": "constant", "value": 0.0})
    stepper = SpdeStepper(model, fx.MultiscaleParams(eps=0.1, alpha=0.0, beta=1.0), dt=0.05)
    out = _run(stepper, np.ones((64, ref_op.n_modes)), seed=1)
    assert np.allclose(out, np.exp(-ref_op.eigenvalues * 0.5))
    with pytest.raises(ValueError):
        build_model(ref_op, delta0=-1.0)


def test_conv_b_mode0_variance(ref_op):
    dt = 0.01
    n_rep = 20_000
    stepper = SpdeStepper(_noise_only(ref_op), fx.MultiscaleParams(eps=0.05, alpha=0.0, beta=1.0), dt=dt)
    draws = _run(stepper, np.zeros((n_rep, ref_op.n_modes)), seed=42)[:, 0]
    target = 2 * dt  # b_0j = 1 at both boundary points
    assert abs(draws.var() - target) <= 3 * target * np.sqrt(2.0 / n_rep)
    assert abs(draws.mean()) <= 3 * np.sqrt(target / n_rep)  # centered one-step law


def test_conv_b_coupling_row_and_delta0_cancellation(ref_op):
    sig = np.array([0.9, 1.4])
    b = boundary_coupling(ref_op, sig)
    assert np.allclose(b[1], [np.sqrt(2) * 0.9, -np.sqrt(2) * 1.4])
    outs = []
    for delta0 in (1.0, 10.0):
        model = build_model(ref_op, sigma_spec={"kind": "per_point", "left": 0.9, "right": 1.4},
                            b_spec={"kind": "list", "values": [1.0, 0.5]}, delta0=delta0)
        stepper = SpdeStepper(model, fx.MultiscaleParams(eps=0.1, alpha=0.0, beta=1.0), dt=0.01)
        outs.append(_run(stepper, np.ones((64, ref_op.n_modes)), seed=7))
    assert np.array_equal(outs[0], outs[1])


def test_boundary_convolution_uniform_in_eps(ref_op):
    # sup-norm of the boundary convolution stays bounded as eps -> 0
    # alpha = 0, so the zero Q spectrum of the stepped system changes no draw
    model = _noise_only(ref_op, q_values=np.zeros(ref_op.n_modes))
    dt, n_steps, n_rep = 2e-3, 250, 128
    means, ses = [], []
    for eps in (1.0, 0.1, 0.01):
        stepper = SpdeStepper(model, fx.MultiscaleParams(eps=eps, alpha=0.0, beta=1.0), dt=dt)
        sups = np.empty(n_rep)
        for b in range(n_rep // 64):
            gen = block_stream(99, b)._gen
            u = np.zeros((64, ref_op.n_modes))
            sup = np.zeros(64)
            for i in range(n_steps):
                u = stepper.step(i * dt, u, stepper.draw(gen, 64))
                np.maximum(sup, np.linalg.norm(u, axis=1), out=sup)
            sups[b * 64:(b + 1) * 64] = sup
        means.append(sups.mean())
        ses.append(sups.std(ddof=1) / np.sqrt(n_rep))
    assert means[1] <= means[0] + 2 * (ses[0] + ses[1])
    assert means[2] <= means[1] + 2 * (ses[1] + ses[2])


def test_spectrum_constructors():
    q = fx.make_q_spectrum({"kind": "power", "amp": 2.0, "exponent": 1.0}, 4)
    assert np.allclose(q, [2.0, 1.0, 2 / 3, 0.5])
    b = fx.make_b_spectrum({"kind": "flat", "value": 0.5})
    assert np.allclose(b, [0.5, 0.5])
    with pytest.raises(ValueError):
        fx.make_q_spectrum({"kind": "list", "values": [1.0]}, 4)

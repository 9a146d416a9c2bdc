import numpy as np
import pytest

import fastexit as fx
from fastexit.ensemble import SpdeStepper
from conftest import build_model


def _stepped_reaction(model, u, dt=0.1):
    """The Nemytskii operator F(u) = f(., u(.)) in modes as the stepper applies it:
    (step(u) - decay u) / (dt phi1), with the noise off."""
    stepper = SpdeStepper(model, fx.MultiscaleParams(eps=1.0, alpha=0.0, beta=0.0), dt)
    return (stepper.step(0.0, u[None], None)[0] - stepper.decay * u) / stepper.phi1dt


def _dc_dr(coeff, xi, r):
    """dc/dr = a(xi) phi'(r) of a separable coefficient c = a phi + b."""
    return coeff.profile(xi)[0] * coeff.phi_prime(r)


def test_nemytskii_linear_odd(ref_op):
    model = build_model(ref_op, f_spec={"kind": "linear", "slope": -1.0})
    e1 = np.eye(ref_op.n_modes)[1]
    out = _stepped_reaction(model, e1)
    assert np.allclose(out, -e1, atol=1e-13)


def test_nemytskii_source_mean(ref_op):
    model = build_model(
        ref_op, f_spec={"kind": "linear_plus_source", "slope": -1.0, "source_amp": 1.0, "source_freq": 1},
    )
    out = _stepped_reaction(model, np.zeros(ref_op.n_modes))
    # the step's grid projection of sin(pi xi) carries the midpoint-rule O(M^-2)
    # error; F_bar takes the exact integral (test_averaged_F_values)
    assert fx.invariant_average(ref_op, out) == pytest.approx(2 / np.pi, abs=2e-4)


def test_nemytskii_zero(ref_op):
    model = build_model(ref_op, f_spec={"kind": "constant", "value": 0.0})
    out = _stepped_reaction(model, np.ones(ref_op.n_modes))
    assert np.all(out == 0.0)


def test_averaged_F_values(ref_op):
    model = build_model(ref_op, f_spec={"kind": "linear", "slope": -1.0})
    for u in (-2.0, 0.0, 1.3):
        assert model.f_bar(u) == pytest.approx(-u, abs=1e-13)
    model = build_model(
        ref_op,
        f_spec={"kind": "linear_plus_source", "slope": -1.0, "source_amp": 1.0, "source_freq": 1},
    )
    assert model.f_bar(0.7) == pytest.approx(-0.7 + 2 / np.pi, abs=1e-15)  # the exact integral, not the quadrature
    model = build_model(
        ref_op,
        f_spec={"kind": "linear_plus_source", "slope": -1.0, "source_amp": 1.0, "source_freq": 3, "offset": 0.2},
    )
    assert model.f_bar(0.7) == pytest.approx(-0.5 + 2 / (3 * np.pi), abs=1e-15)
    model = build_model(ref_op, f_spec={"kind": "linear", "slope": 0.0, "xi_slope": 1.0})
    assert model.f_bar(0.8) == pytest.approx(0.4, abs=1e-13)


def test_averaged_G_row_values(ref_op):
    lam = 0.7
    model = build_model(ref_op, q_spec={"kind": "flat", "value": lam})
    row = model.row_h(1.2)
    assert row[0] == pytest.approx(lam, abs=1e-13)
    assert np.abs(row[1:]).max() < 1e-13
    model = build_model(ref_op, g_spec={"kind": "constant", "value": 0.0})
    assert np.all(model.row_h(3.0) == 0.0)
    model = build_model(
        ref_op, g_spec={"kind": "linear", "slope": 1.0, "offset": 1.0},
        q_spec={"kind": "flat", "value": lam},
    )
    assert model.row_h(1.0)[0] == pytest.approx(2 * lam, abs=1e-13)


def test_averaged_Sigma_row_values(ref_op):
    model = build_model(ref_op, sigma_spec={"kind": "constant", "value": 0.0})
    assert np.all(model.row_z() == 0.0)
    for delta0 in (1.0, 10.0):
        model = build_model(ref_op, delta0=delta0)
        assert np.allclose(model.row_z(), [1.0, 1.0], atol=1e-12)


def test_sigma_row_delta0_independence(ref_op):
    rows = []
    for delta0 in (1.0, 2.0, 10.0):
        model = build_model(
            ref_op, sigma_spec={"kind": "per_point", "left": 0.8, "right": 1.3}, delta0=delta0
        )
        rows.append(model.row_z())
    assert np.abs(rows[0] - rows[1]).max() < 1e-10
    assert np.abs(rows[0] - rows[2]).max() < 1e-10


def test_averaged_model_rejects_inadmissible_spectra(ref_op):
    # the model computes H from these arrays, so it is the one place that checks them
    cs = fx.make_coefficient_set({"kind": "linear", "slope": -1.0}, {"kind": "constant", "value": 1.0},
                                 {"kind": "constant", "value": 1.0})
    lam, theta = np.ones(ref_op.n_modes), np.ones(2)
    for q_lambdas, b_thetas in [(-lam, theta), (lam[:3], theta), (lam, np.ones(3)), (lam, np.array([1.0, -0.5]))]:
        with pytest.raises(ValueError):
            fx.AveragedModel(op=ref_op, coeffs=cs, q_lambdas=q_lambdas, b_thetas=b_thetas, rho_bar=1.0)


def test_noise_intensity_examples(ref_op):
    model = build_model(ref_op, rho_bar=0.0, q_spec={"kind": "flat", "value": 1.0})
    assert model.h(0.4) == pytest.approx(1.0, abs=1e-12)
    model = build_model(ref_op, rho_bar=np.inf)
    assert model.h(0.4) == pytest.approx(2.0, abs=1e-12)
    model = build_model(ref_op, rho_bar=1.0)
    assert model.h(0.4) == pytest.approx(0.75, abs=1e-12)


def test_additive_row_u_independent(ref_op):
    model = build_model(ref_op)
    r1 = model.row_h(-5.0)
    r2 = model.row_h(7.0)
    assert np.array_equal(r1, r2)


def test_nondegeneracy_checker(ref_op):
    model = build_model(ref_op, rho_bar=1.0)
    rep = fx.check_nondegeneracy(model, -1.0, 1.0)
    assert rep.passed and rep.min_h == pytest.approx(0.75, abs=1e-12)
    model = build_model(ref_op, g_spec={"kind": "linear", "slope": 1.0}, rho_bar=0.0)
    rep = fx.check_nondegeneracy(model, -1.0, 1.0)
    assert not rep.passed and rep.min_h == pytest.approx(0.0, abs=1e-15)
    assert rep.argmin_u == 0.0
    model = build_model(ref_op, g_spec={"kind": "linear", "slope": 1.0}, rho_bar=np.inf)
    rep = fx.check_nondegeneracy(model, -1.0, 1.0)
    assert rep.passed


@pytest.mark.parametrize("g_spec, rho_bar", [
    ({"kind": "constant", "value": 1.0}, 1.0),
    ({"kind": "linear", "slope": 1.0, "offset": -0.3}, 0.0),
    ({"kind": "linear", "slope": -2.0, "offset": 0.5}, 1.0),
    ({"kind": "logistic_clipped", "amp": 0.5, "width": 1.0, "offset": 0.2}, 1.0),
    ({"kind": "logistic_clipped", "amp": 1.0, "width": -0.5, "offset": 0.3}, 0.0),
])
def test_h_min_is_the_least_h_on_the_interval(ref_op, g_spec, rho_bar):
    # against a fine grid, for increasing and decreasing phi_g, on intervals holding the vertex or not;
    # the state returned lies on the interval, and H there is the minimum to rounding
    model = build_model(ref_op, g_spec=g_spec, rho_bar=rho_bar)
    for lo, hi in [(-1.0, 1.0), (0.4, 0.9), (-0.8, -0.6), (0.25, 0.25)]:
        fine = float(model.h(np.linspace(lo, hi, 20001)).min())
        got, u = model.h_min(lo, hi)
        assert got <= fine + 1e-15 and got == pytest.approx(fine, abs=1e-8), (lo, hi)
        assert lo <= u <= hi and float(model.h(u)) == pytest.approx(got, rel=1e-13, abs=1e-15), (lo, hi)


def test_gbar_pairing_lipschitz(ref_op):
    model = build_model(
        ref_op, g_spec={"kind": "logistic_clipped", "amp": 0.5, "width": 1.0, "offset": 1.0}
    )
    lip = 0.5 / 1.0  # amp / width
    lam_max = model.q_lambdas.max()
    rng = np.random.Generator(np.random.Philox(key=11))
    for _ in range(50):
        u1, u2 = 3 * rng.standard_normal(2)
        phi = rng.standard_normal(ref_op.n_modes)
        lhs = abs(float((model.row_h(u1) - model.row_h(u2)) @ phi))
        assert lhs <= lip * lam_max * np.linalg.norm(phi) * abs(u1 - u2) * (1 + 1e-9) + 1e-12


def test_weights_at_infinity(ref_op):
    model = build_model(ref_op, rho_bar=np.inf)
    assert model.weights == (0.0, 1.0)
    model = build_model(ref_op, rho_bar=0.0)
    assert model.weights == (1.0, 0.0)
    model = build_model(ref_op, rho_bar=3.0)
    assert model.weights == pytest.approx((0.25, 0.75))


def _sampled_lipschitz_ratio(coeff, op, rng, n_samples=200, r_scale=2.0):
    """Largest |c(xi, r1) - c(xi, r2)| / |r1 - r2| over the grid points xi and
    random pairs: half far apart, half 1e-3 apart (a local slope)."""
    r1 = r_scale * rng.standard_normal((n_samples, 1))
    r2 = np.concatenate([r_scale * rng.standard_normal((n_samples // 2, 1)), r1[n_samples // 2:] + 1e-3])
    num = np.abs(coeff.value(op.grid, r1) - coeff.value(op.grid, r2))
    return float((num / np.abs(r1 - r2).clip(1e-12, None)).max())


def test_coefficient_hypotheses_checker(ref_op):
    cs = build_model(
        ref_op,
        f_spec={"kind": "linear_plus_source", "slope": -1.0, "source_amp": 1.0, "source_freq": 1},
        g_spec={"kind": "logistic_clipped", "amp": 0.5, "width": 1.0, "offset": 1.0},
    ).coeffs
    rng = np.random.Generator(np.random.Philox(key=12))
    assert _sampled_lipschitz_ratio(cs.f, ref_op, rng) <= 1.0 + 1e-9
    assert _sampled_lipschitz_ratio(cs.g, ref_op, rng) <= 0.5 / 1.0 * (1 + 1e-9) + 1e-12  # amp / width
    assert np.abs(cs.g.value(ref_op.grid, 0.0)).max() == pytest.approx(1.0)
    assert np.isfinite(cs.f.value(ref_op.grid, 0.0)).all() and np.isfinite(cs.sigma.values()).all()


# every catalog kind, linear twice: its bound is attained at xi = 0 in one case and at xi = 1 in the other
CATALOG = [
    {"kind": "constant", "value": -0.7},
    {"kind": "linear", "slope": -1.5, "xi_slope": 2.0, "offset": 0.3},
    {"kind": "linear", "slope": 0.5, "xi_slope": -2.0},
    {"kind": "linear_plus_source", "slope": -2.0, "source_amp": 1.0, "source_freq": 3, "offset": 0.1},
    {"kind": "logistic_clipped", "amp": -0.5, "width": 0.25, "offset": 1.0},
]


@pytest.mark.parametrize("n_modes, grid_factor", [(4, 2), (16, 4), (33, 3)])
@pytest.mark.parametrize("spec", CATALOG, ids=lambda spec: spec["kind"])
def test_catalog_bounds_hold_on_samples(spec, n_modes, grid_factor):
    # the declared sup bound of each kind holds on samples, and the samples
    # come close to it, so a bound that is too large fails too
    op = fx.build_neumann_laplacian_1d(n_modes, grid_factor)
    coeff = fx.make_coefficient(spec)
    rng = np.random.Generator(np.random.Philox(key=13))
    r = 2.0 * rng.standard_normal((200, 1))
    if coeff.sup_bound is not None:
        sup = np.abs(coeff.value(op.grid, 10.0 * r)).max()
        assert 0.8 * coeff.sup_bound <= sup <= coeff.sup_bound


def test_catalog_bounds():
    g = fx.make_coefficient({"kind": "logistic_clipped", "amp": 0.5, "width": 2.0, "offset": 1.0})
    assert g.sup_bound == pytest.approx(1.5)
    f = fx.make_coefficient({"kind": "linear", "slope": -2.0, "xi_slope": 1.0})
    assert f.sup_bound is None
    with pytest.raises(ValueError):
        fx.make_coefficient({"kind": "cubic", "a": 1.0})
    with pytest.raises(ValueError, match="width"):
        fx.make_coefficient({"kind": "logistic_clipped", "amp": 0.5, "width": 0.0})


def test_logistic_derivative_does_not_overflow():
    # sech^2(r / w) is 0 in floating point far out, and cosh would overflow on the way there
    g = fx.make_coefficient({"kind": "logistic_clipped", "amp": 1.0, "width": 0.5})
    with np.errstate(all="raise"):
        d = g.phi_prime(np.array([-400.0, 400.0]))  # |r / w| = 800
    assert np.all(np.isfinite(d)) and np.all(d == 0.0)


# every catalog kind, each as f and as g
SEPARABLE = [
    {"kind": "constant", "value": 0.7},
    {"kind": "linear", "slope": -1.2, "xi_slope": 0.8, "offset": 0.3},
    {"kind": "linear_plus_source", "slope": -1.0, "source_amp": 0.6, "source_freq": 2, "offset": 0.1},
    {"kind": "logistic_clipped", "amp": 0.5, "width": 0.7, "offset": 1.0},
]


@pytest.mark.parametrize("role", ["f", "g"])
@pytest.mark.parametrize("spec", SEPARABLE, ids=lambda spec: spec["kind"])
def test_averaged_forms_match_grid_quadrature(ref_op, spec, role):
    # the averaged forms, built from each coefficient's xi-integrals, equal the
    # grid quadrature of f and g at the constant state u, for any shape of u;
    # a sine source in f is integrated exactly
    model = build_model(ref_op, **{f"{role}_spec": spec}, q_spec={"kind": "power", "amp": 1.3, "exponent": 0.5})
    f, g = model.coeffs.f, model.coeffs.g
    e, w = ref_op.modes_on_grid, ref_op.quad_weights
    w_h, w_z = model.weights
    rz = model.row_z()
    for u in (0.4, np.linspace(-2.0, 2.0, 7), np.array([[-1.5, 0.0, 0.3], [0.9, 2.5, -0.2]])):
        grid_u = np.asarray(u)[..., None]
        row = model.q_lambdas * ((g.value(ref_op.grid, grid_u) * w) @ e.T)
        row_prime = model.q_lambdas * ((_dc_dr(g, ref_op.grid, grid_u) * w) @ e.T)
        f_bar = (f.value(ref_op.grid, grid_u) * w).sum(axis=-1)
        if f.kind == "linear_plus_source":  # its sine source is integrated exactly, not by the quadrature
            k = f.params["source_freq"] * np.pi
            f_bar += f.params["source_amp"] * ((1.0 - np.cos(k)) / k - (np.sin(k * ref_op.grid) * w).sum())
        want = {
            "f_bar": f_bar,
            "f_bar_prime": (_dc_dr(f, ref_op.grid, grid_u) * w).sum(axis=-1),
            "row_h": row,
            "row_h_prime": row_prime,
            "h": w_h**2 * (row * row).sum(axis=-1) + w_z**2 * (rz * rz).sum(),
            "h_prime": 2.0 * w_h**2 * (row * row_prime).sum(axis=-1),
        }
        for name, expected in want.items():
            got = getattr(model, name)(u)
            assert np.shape(got) == expected.shape, name
            np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-13, err_msg=name)


@pytest.mark.parametrize("role", ["f", "g"])
@pytest.mark.parametrize("spec", SEPARABLE, ids=lambda spec: spec["kind"])
def test_second_derivatives_match_grid_quadrature(ref_op, spec, role):
    # f_bar'' and H'' equal the grid quadrature of central differences of dc/dr in r
    model = build_model(ref_op, **{f"{role}_spec": spec}, q_spec={"kind": "power", "amp": 1.3, "exponent": 0.5})
    f, g = model.coeffs.f, model.coeffs.g
    e, w = ref_op.modes_on_grid, ref_op.quad_weights
    w_h, _ = model.weights
    step = 1e-5
    for u in (0.4, np.linspace(-2.0, 2.0, 7), np.array([[-1.5, 0.0, 0.3], [0.9, 2.5, -0.2]])):
        grid_u = np.asarray(u)[..., None]
        row = model.q_lambdas * ((g.value(ref_op.grid, grid_u) * w) @ e.T)
        row_prime = model.q_lambdas * ((_dc_dr(g, ref_op.grid, grid_u) * w) @ e.T)
        g_second = (_dc_dr(g, ref_op.grid, grid_u + step) - _dc_dr(g, ref_op.grid, grid_u - step)) / (2 * step)
        f_second = (_dc_dr(f, ref_op.grid, grid_u + step) - _dc_dr(f, ref_op.grid, grid_u - step)) / (2 * step)
        row_second = model.q_lambdas * ((g_second * w) @ e.T)
        want = {
            "f_bar_second": (f_second * w).sum(axis=-1),
            "h_second": 2.0 * w_h**2 * (row_prime * row_prime + row * row_second).sum(axis=-1),
        }
        for name, expected in want.items():
            got = getattr(model, name)(u)
            assert np.shape(got) == expected.shape, name
            np.testing.assert_allclose(got, expected, rtol=1e-8, atol=1e-9, err_msg=name)

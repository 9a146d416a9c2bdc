import numpy as np
import pytest

import fastexit as fx
from conftest import build_model


def test_nemytskii_linear_odd(ref_op):
    cs = fx.make_coefficient_set(
        {"kind": "linear", "slope": -1.0}, {"kind": "constant", "value": 1.0},
        {"kind": "constant", "value": 1.0},
    )
    e1 = np.eye(ref_op.n_modes)[1]
    out = fx.nemytskii_F(cs, ref_op, 0.0, e1)
    assert np.allclose(out, -e1, atol=1e-13)


def test_nemytskii_source_mean(ref_op):
    cs = fx.make_coefficient_set(
        {"kind": "linear_plus_source", "slope": -1.0, "source_amp": 1.0, "source_freq": 1},
        {"kind": "constant", "value": 1.0}, {"kind": "constant", "value": 1.0},
    )
    out = fx.nemytskii_F(cs, ref_op, 0.0, np.zeros(ref_op.n_modes))
    # grid quadrature of sin(pi xi) carries the midpoint-rule O(M^-2) error
    assert fx.invariant_average(ref_op, out) == pytest.approx(2 / np.pi, abs=2e-4)


def test_nemytskii_zero(ref_op):
    cs = fx.make_coefficient_set(
        {"kind": "constant", "value": 0.0}, {"kind": "constant", "value": 1.0},
        {"kind": "constant", "value": 1.0},
    )
    out = fx.nemytskii_F(cs, ref_op, 0.0, np.ones(ref_op.n_modes))
    assert np.all(out == 0.0)


def test_averaged_F_values(ref_op):
    model = build_model(ref_op, f_spec={"kind": "linear", "slope": -1.0})
    for u in (-2.0, 0.0, 1.3):
        assert model.f_bar(0.0, u) == pytest.approx(-u, abs=1e-13)
    model = build_model(
        ref_op,
        f_spec={"kind": "linear_plus_source", "slope": -1.0, "source_amp": 1.0, "source_freq": 1},
    )
    assert model.f_bar(0.0, 0.7) == pytest.approx(-0.7 + 2 / np.pi, abs=2e-4)
    model = build_model(ref_op, f_spec={"kind": "linear", "slope": 0.0, "xi_slope": 1.0})
    assert model.f_bar(0.0, 0.8) == pytest.approx(0.4, abs=1e-13)


def test_averaged_G_row_values(ref_op):
    lam = 0.7
    model = build_model(ref_op, q_spec={"kind": "flat", "value": lam})
    row = model.row_h(0.0, 1.2)
    assert row[0] == pytest.approx(lam, abs=1e-13)
    assert np.abs(row[1:]).max() < 1e-13
    model = build_model(ref_op, g_spec={"kind": "constant", "value": 0.0})
    assert np.all(model.row_h(0.0, 3.0) == 0.0)
    model = build_model(
        ref_op, g_spec={"kind": "linear", "slope": 1.0, "offset": 1.0},
        q_spec={"kind": "flat", "value": lam},
    )
    assert model.row_h(0.0, 1.0)[0] == pytest.approx(2 * lam, abs=1e-13)


def test_averaged_Sigma_row_values(ref_op):
    model = build_model(ref_op, sigma_spec={"kind": "constant", "value": 0.0})
    assert np.all(model.row_z(0.0) == 0.0)
    for delta0 in (1.0, 10.0):
        model = build_model(ref_op, delta0=delta0)
        assert np.allclose(model.row_z(0.0), [1.0, 1.0], atol=1e-12)


def test_sigma_row_delta0_independence(ref_op):
    rows = []
    for delta0 in (1.0, 2.0, 10.0):
        model = build_model(
            ref_op, sigma_spec={"kind": "per_point", "left": 0.8, "right": 1.3}, delta0=delta0
        )
        rows.append(model.row_z(0.0))
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
    assert model.h(0.0, 0.4) == pytest.approx(1.0, abs=1e-12)
    model = build_model(ref_op, rho_bar=np.inf)
    assert model.h(0.0, 0.4) == pytest.approx(2.0, abs=1e-12)
    model = build_model(ref_op, rho_bar=1.0)
    assert model.h(0.0, 0.4) == pytest.approx(0.75, abs=1e-12)


def test_additive_row_u_independent(ref_op):
    model = build_model(ref_op)
    r1 = model.row_h(0.0, -5.0)
    r2 = model.row_h(0.0, 7.0)
    assert np.array_equal(r1, r2)


def test_nondegeneracy_checker(ref_op):
    model = build_model(ref_op, rho_bar=1.0)
    rep = fx.check_nondegeneracy(model, [0.0, 1.0], np.linspace(-1, 1, 11))
    assert rep.passed and rep.min_h == pytest.approx(0.75, abs=1e-12)
    model = build_model(ref_op, g_spec={"kind": "linear", "slope": 1.0}, rho_bar=0.0)
    rep = fx.check_nondegeneracy(model, [0.0], np.linspace(-1, 1, 11))
    assert not rep.passed and rep.min_h == pytest.approx(0.0, abs=1e-15)
    assert rep.argmin_u == 0.0
    model = build_model(ref_op, g_spec={"kind": "linear", "slope": 1.0}, rho_bar=np.inf)
    rep = fx.check_nondegeneracy(model, [0.0], np.linspace(-1, 1, 11))
    assert rep.passed


def test_gbar_pairing_lipschitz(ref_op):
    model = build_model(
        ref_op, g_spec={"kind": "logistic_clipped", "amp": 0.5, "width": 1.0, "offset": 1.0}
    )
    lip = model.coeffs.g.lipschitz_bound
    lam_max = model.q_lambdas.max()
    rng = np.random.Generator(np.random.Philox(key=11))
    for _ in range(50):
        u1, u2 = 3 * rng.standard_normal(2)
        phi = rng.standard_normal(ref_op.n_modes)
        lhs = abs(float((model.row_h(0.0, u1) - model.row_h(0.0, u2)) @ phi))
        assert lhs <= lip * lam_max * np.linalg.norm(phi) * abs(u1 - u2) * (1 + 1e-9) + 1e-12


def test_weights_at_infinity(ref_op):
    model = build_model(ref_op, rho_bar=np.inf)
    assert model.weights == (0.0, 1.0)
    model = build_model(ref_op, rho_bar=0.0)
    assert model.weights == (1.0, 0.0)
    model = build_model(ref_op, rho_bar=3.0)
    assert model.weights == pytest.approx((0.25, 0.75))


def test_coefficient_hypotheses_checker(ref_op):
    cs = build_model(
        ref_op,
        f_spec={"kind": "linear_plus_source", "slope": -1.0, "source_amp": 1.0, "source_freq": 1},
        g_spec={"kind": "logistic_clipped", "amp": 0.5, "width": 1.0, "offset": 1.0},
    ).coeffs
    rng = np.random.Generator(np.random.Philox(key=12))
    rep = fx.check_coefficient_hypotheses(cs, ref_op, rng)
    assert rep.passed
    assert rep.max_f_ratio <= 1.0 + 1e-9
    assert rep.g_zero_sup == pytest.approx(1.0)


def test_catalog_bounds():
    g = fx.make_coefficient({"kind": "logistic_clipped", "amp": 0.5, "width": 2.0, "offset": 1.0})
    assert g.sup_bound == pytest.approx(1.5)
    assert g.lipschitz_bound == pytest.approx(0.25)
    f = fx.make_coefficient({"kind": "linear", "slope": -2.0, "xi_slope": 1.0})
    assert f.lipschitz_bound == pytest.approx(2.0)
    assert f.sup_bound is None
    with pytest.raises(ValueError):
        fx.make_coefficient({"kind": "cubic", "a": 1.0})

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import solve_banded

import fastexit as fx
from fastexit.noise import ou_step_weights
from fastexit.operator import cosine_product_moments
from conftest import build_model


def _cosine_mode(k, xi):
    """e_k(xi): 1 for k = 0, else sqrt(2) cos(k pi xi)."""
    xi = np.asarray(xi, dtype=float)
    return np.ones_like(xi) if k == 0 else np.sqrt(2.0) * np.cos(k * np.pi * xi)


def _decay(op, t):
    """The semigroup exp(tA) in modes, as the stepper applies it: ou_step_weights' decay at eps = 1."""
    return ou_step_weights(op.eigenvalues, 1.0, t)[0]


def test_reference_eigenvalues():
    op = fx.build_neumann_laplacian_1d(4)
    assert np.allclose(op.eigenvalues, [0.0, np.pi**2, 4 * np.pi**2, 9 * np.pi**2])
    assert op.eigenvalues[1] == pytest.approx(np.pi**2, rel=1e-14)


@pytest.mark.parametrize("grid_factor", [2, 4])
@pytest.mark.parametrize("n_modes", [2, 3, 16])
def test_cosine_product_rule_gives_every_mode_product(n_modes, grid_factor):
    # e_k e_j = (s_k s_j / 2)(c_|k-j| + c_k+j) on the grid, for every pair k <= j,
    # against e_k on the midpoints x_m = (2m + 1) / 2M with k (2m + 1) reduced mod
    # 4M in integers, so that the reference carries no rounding of a large argument
    op = fx.build_neumann_laplacian_1d(n_modes, grid_factor)
    cosines, moments = cosine_product_moments(op)
    m = grid_factor * n_modes
    assert cosines.shape == (m, 2 * n_modes - 1)
    assert moments.shape == (2 * n_modes - 1, n_modes * (n_modes + 1) // 2)
    k = np.arange(n_modes)
    e = np.cos(np.pi * (np.outer(k, 2 * np.arange(m) + 1) % (4 * m)) / (2 * m))
    e[1:] *= np.sqrt(2.0)
    np.testing.assert_allclose(e, op.modes_on_grid, rtol=0, atol=1e-13)
    kk, jj = np.triu_indices(n_modes)
    np.testing.assert_allclose(cosines @ moments, (e[kk] * e[jj]).T, rtol=0, atol=1e-14)


def test_eigenfunctions_satisfy_operator_fd():
    # central second differences on a fine grid: e_k'' = -alpha_k e_k,
    # zero derivative at the boundary, for the operator's eigenvalues and the
    # cosines its grid values and boundary values hold
    op = fx.build_neumann_laplacian_1d(4)
    h = 1e-4
    xi = np.linspace(0, 1, int(1 / h) + 1)
    for k in range(1, 4):
        assert np.allclose(op.modes_on_grid[k], _cosine_mode(k, op.grid), atol=1e-14)
        assert np.allclose(op.boundary_values[k], _cosine_mode(k, [0.0, 1.0]), atol=1e-14)
        e = _cosine_mode(k, xi)
        lap = (e[2:] - 2 * e[1:-1] + e[:-2]) / h**2
        resid = lap + op.eigenvalues[k] * e[1:-1]
        assert np.abs(resid).max() < 50 * op.eigenvalues[k] ** 2 * h**2
        assert abs((e[1] - e[0]) / h) < 5e-3 * op.eigenvalues[k]
        assert abs((e[-1] - e[-2]) / h) < 5e-3 * op.eigenvalues[k]


def test_constant_mode_and_orthonormality(ref_op):
    assert np.all(ref_op.modes_on_grid[0] == 1.0)
    gram = (ref_op.modes_on_grid * ref_op.quad_weights) @ ref_op.modes_on_grid.T
    assert np.abs(gram - np.eye(ref_op.n_modes)).max() < 1e-10


def test_boundary_values(ref_op):
    assert ref_op.boundary_values[1] == pytest.approx([np.sqrt(2), -np.sqrt(2)])
    assert ref_op.boundary_values[0] == pytest.approx([1.0, 1.0])


def test_builder_rejects_tiny_mode_count():
    with pytest.raises(ValueError):
        fx.build_neumann_laplacian_1d(1)


def test_semigroup_identity_and_decay(ref_op):
    # the stepper's decay leaves the constant mode as it is, damps e_1 by exp(-pi^2 t),
    # and takes only a positive step
    e1 = np.eye(ref_op.n_modes)[1]
    out = _decay(ref_op, 1 / np.pi**2) * e1
    assert out[1] == pytest.approx(np.exp(-1.0), rel=1e-14)
    e0 = np.eye(ref_op.n_modes)[0]
    assert np.array_equal(_decay(ref_op, 3.7) * e0, e0)
    for t in (0.0, -0.1):
        with pytest.raises(ValueError):
            _decay(ref_op, t)


def test_semigroup_property_and_contraction(ref_op):
    rng = np.random.Generator(np.random.Philox(key=1))
    h = rng.standard_normal(ref_op.n_modes)
    a = _decay(ref_op, 0.3) * (_decay(ref_op, 0.2) * h)
    b = _decay(ref_op, 0.5) * h
    assert np.allclose(a, b, rtol=1e-14, atol=1e-15)
    for t in (0.01, 0.5, 2.0):
        out = _decay(ref_op, t) * h
        assert ref_op.hmu_norm(out) <= ref_op.hmu_norm(h) * (1 + 1e-14)


def test_mass_conservation(ref_op):
    rng = np.random.Generator(np.random.Philox(key=2))
    h = rng.standard_normal(ref_op.n_modes)
    m0 = fx.invariant_average(ref_op, h)
    for t in (0.1, 1.0, 10.0):
        assert fx.invariant_average(ref_op, _decay(ref_op, t) * h) == pytest.approx(m0, abs=1e-13)


def test_invariant_average_values(ref_op):
    for k in range(1, 5):
        ek = np.eye(ref_op.n_modes)[k]
        assert fx.invariant_average(ref_op, ek) == pytest.approx(0.0, abs=1e-13)
    assert fx.invariant_average(ref_op, ref_op.project(lambda x: x)) == pytest.approx(0.5, abs=1e-13)
    assert fx.invariant_average(ref_op, np.eye(ref_op.n_modes)[0]) == pytest.approx(1.0, abs=1e-14)


def _gap_margins(op, h, times):
    """exp(-gap t) |h| - |exp(tA) h - <h, mu>| per t: the spectral-gap contraction with constant 1."""
    times = np.asarray(times, dtype=float)
    dev = np.exp(-np.outer(times, op.eigenvalues)) * h
    dev[:, 0] -= fx.invariant_average(op, h)  # the constant <h, mu> is mode 0, since e_0 = 1
    return np.exp(-op.eigenvalues[1] * times) * op.hmu_norm(h) - op.hmu_norm(dev), op.hmu_norm(dev)


def test_spectral_gap_check_equality_case(ref_op):
    e1 = np.eye(ref_op.n_modes)[1]
    margins, deviations = _gap_margins(ref_op, e1, [1.0])
    assert deviations[0] == pytest.approx(np.exp(-np.pi**2), rel=1e-12)
    assert abs(margins[0]) < 1e-12  # bound attained with equality


def test_spectral_gap_check_constant_and_random(ref_op):
    e0 = np.eye(ref_op.n_modes)[0]
    margins, deviations = _gap_margins(ref_op, e0, [0.0, 0.5, 2.0])
    assert np.all(deviations < 1e-14) and np.all(margins >= -1e-12)
    rng = np.random.Generator(np.random.Philox(key=3))
    c = rng.standard_normal(ref_op.n_modes)
    c[0] = 0.0
    margins, _ = _gap_margins(ref_op, c, [0.5])
    assert margins[0] >= 0


@pytest.mark.parametrize("n_modes, grid_factor", [(2, 2), (5, 3), (16, 4), (40, 2), (40, 8)])
def test_basis_orthonormal_and_contracting_on_every_grid(n_modes, grid_factor):
    # what holds for every config of the operator: orthonormal modes under the
    # quadrature, e_0 = 1, alpha_k = (k pi)^2, and the spectral-gap contraction
    op = fx.build_neumann_laplacian_1d(n_modes, grid_factor)
    gram = (op.modes_on_grid * op.quad_weights) @ op.modes_on_grid.T
    assert np.abs(gram - np.eye(n_modes)).max() < 1e-10
    assert np.all(op.modes_on_grid[0] == 1.0) and op.quad_weights.sum() == pytest.approx(1.0, rel=1e-14)
    assert np.allclose(op.eigenvalues, (np.arange(n_modes) * np.pi) ** 2, rtol=1e-14)
    for k in range(n_modes):
        assert np.allclose(op.boundary_values[k], _cosine_mode(k, [0.0, 1.0]), atol=1e-14)
        assert np.allclose(op.modes_on_grid[k], _cosine_mode(k, op.grid), atol=1e-14)
    rng = np.random.Generator(np.random.Philox(key=6))
    for _ in range(20):
        margins, _ = _gap_margins(op, rng.standard_normal(n_modes), [0.01, 0.1, 1.0])
        assert np.all(margins >= -1e-12)


def test_neumann_map_against_closed_form(ref_op):
    # the boundary row pairs flux data z with N*_delta0 m: int_O N_delta0 z = z . N*_delta0 m,
    # here against closed-form solutions of u - u'' = 0 with outward flux z at delta0 = 1
    nstar_m = build_model(ref_op, delta0=1.0)._nstar_m
    c = np.cosh(1) / np.sinh(1)
    solutions = {  # z: u(xi)
        (1.0, 1.0): lambda x: (1 + np.cosh(1)) / np.sinh(1) * np.cosh(x) - np.sinh(x),
        (1.0, 0.0): lambda x: c * np.cosh(x) - np.sinh(x),
        (0.0, 1.0): lambda x: np.cosh(x) / np.sinh(1),
    }
    for z, u_exact in solutions.items():
        mass, _ = quad(u_exact, 0, 1, limit=200)
        assert np.array(z) @ nstar_m == pytest.approx(mass, abs=1e-10)


def _neumann_fd_solve(delta, h0, h1, m):
    """Finite-volume solve of (delta - d^2/dxi^2) u = 0 with flux data (h0, h1)."""
    step = 1.0 / m
    ab = np.zeros((3, m))
    ab[0, 1:] = -1.0 / step**2
    ab[2, :-1] = -1.0 / step**2
    ab[1, :] = delta + 2.0 / step**2
    ab[1, 0] = delta + 1.0 / step**2
    ab[1, -1] = delta + 1.0 / step**2
    rhs = np.zeros(m)
    rhs[0] = h0 / step
    rhs[-1] = h1 / step
    return solve_banded((1, 1), ab, rhs), (np.arange(m) + 0.5) * step


def test_neumann_map_against_fd_solve(ref_op):
    # int_O N_delta0 z = z . N*_delta0 m, against a finite-volume solve for each delta0
    m = 4000
    z = np.array([1.0, 0.5])
    for delta in (1.0, 2.0, 10.0):
        u_fd, _ = _neumann_fd_solve(delta, *z, m)
        nstar_m = build_model(ref_op, delta0=delta)._nstar_m
        assert abs(z @ nstar_m - u_fd.sum() / m) < 100 / m**2
    with pytest.raises(ValueError):  # delta0 - A must be invertible
        build_model(ref_op, delta0=0.0)


def test_field_parseval(ref_op):
    rng = np.random.Generator(np.random.Philox(key=5))
    c = rng.standard_normal(ref_op.n_modes)
    grid_norm_sq = float((ref_op.to_grid(c) ** 2 * ref_op.quad_weights).sum())
    assert ref_op.hmu_norm(c) ** 2 == pytest.approx(grid_norm_sq, rel=1e-12)


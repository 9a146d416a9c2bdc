import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import solve_banded

import fastexit as fx


def test_reference_eigenvalues():
    op = fx.build_neumann_laplacian_1d(4)
    assert np.allclose(op.eigenvalues, [0.0, np.pi**2, 4 * np.pi**2, 9 * np.pi**2])
    assert op.spectral_gap == pytest.approx(np.pi**2, rel=1e-14)


def test_eigenfunctions_satisfy_operator_fd():
    # central second differences on a fine grid: e_k'' = -alpha_k e_k,
    # zero derivative at the boundary
    op = fx.build_neumann_laplacian_1d(4)
    h = 1e-4
    xi = np.linspace(0, 1, int(1 / h) + 1)
    for k in range(1, 4):
        e = op.eigenfunction_at(k, xi)
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
    h = np.arange(1.0, ref_op.n_modes + 1.0)
    assert np.array_equal(fx.semigroup_apply(ref_op, 0.0, h), h)
    e1 = np.eye(ref_op.n_modes)[1]
    out = fx.semigroup_apply(ref_op, 1 / np.pi**2, e1)
    assert out[1] == pytest.approx(np.exp(-1.0), rel=1e-14)
    e0 = np.eye(ref_op.n_modes)[0]
    assert np.array_equal(fx.semigroup_apply(ref_op, 3.7, e0), e0)
    with pytest.raises(ValueError):
        fx.semigroup_apply(ref_op, -0.1, h)


def test_semigroup_property_and_contraction(ref_op):
    rng = np.random.Generator(np.random.Philox(key=1))
    h = rng.standard_normal(ref_op.n_modes)
    a = fx.semigroup_apply(ref_op, 0.3, fx.semigroup_apply(ref_op, 0.2, h))
    b = fx.semigroup_apply(ref_op, 0.5, h)
    assert np.allclose(a, b, rtol=1e-14, atol=1e-15)
    for t in (0.0, 0.01, 0.5, 2.0):
        out = fx.semigroup_apply(ref_op, t, h)
        assert ref_op.hmu_norm(out) <= ref_op.hmu_norm(h) * (1 + 1e-14)


def test_mass_conservation(ref_op):
    rng = np.random.Generator(np.random.Philox(key=2))
    h = rng.standard_normal(ref_op.n_modes)
    m0 = fx.invariant_average(ref_op, h)
    for t in (0.1, 1.0, 10.0):
        assert fx.invariant_average(ref_op, fx.semigroup_apply(ref_op, t, h)) == pytest.approx(m0, abs=1e-13)


def test_invariant_average_values(ref_op):
    for k in range(1, 5):
        ek = np.eye(ref_op.n_modes)[k]
        assert fx.invariant_average(ref_op, ek) == pytest.approx(0.0, abs=1e-13)
    assert fx.invariant_average(ref_op, ref_op.project(lambda x: x)) == pytest.approx(0.5, abs=1e-13)
    assert fx.invariant_average(ref_op, np.eye(ref_op.n_modes)[0]) == pytest.approx(1.0, abs=1e-14)


def test_spectral_gap_check_equality_case(ref_op):
    e1 = np.eye(ref_op.n_modes)[1]
    rep = fx.check_spectral_gap(ref_op, e1, [1.0])
    assert rep.passed
    assert rep.deviations[0] == pytest.approx(np.exp(-np.pi**2), rel=1e-12)
    assert abs(rep.margins[0]) < 1e-12  # bound attained with equality


def test_spectral_gap_check_constant_and_random(ref_op):
    e0 = np.eye(ref_op.n_modes)[0]
    rep = fx.check_spectral_gap(ref_op, e0, [0.0, 0.5, 2.0])
    assert rep.passed and np.all(rep.deviations < 1e-14)
    rng = np.random.Generator(np.random.Philox(key=3))
    c = rng.standard_normal(ref_op.n_modes)
    c[0] = 0.0
    rep = fx.check_spectral_gap(ref_op, c, [0.5])
    assert rep.passed and rep.margins[0] >= 0
    with pytest.raises(ValueError):
        fx.check_spectral_gap(ref_op, e0, [-1.0])
    with pytest.raises(ValueError):
        fx.check_spectral_gap(ref_op, e0, [])


def test_neumann_map_zero_and_mean(ref_op):
    zero = fx.neumann_map(ref_op, 1.0, np.array([0.0, 0.0]))
    assert np.all(zero == 0.0)
    out = fx.neumann_map(ref_op, 1.0, np.array([1.0, 1.0]))
    # mean of the solution of u - u'' = 0 with fluxes (1, 1) is (h0 + h1)/delta
    assert out[0] == pytest.approx(2.0, rel=1e-14)
    with pytest.raises(ValueError):
        fx.neumann_map(ref_op, 0.0, np.array([1.0, 0.0]))


def test_neumann_map_against_closed_form(ref_op):
    # delta = 1, h = (1, 1): u(xi) = (1 + cosh 1)/sinh 1 * cosh(xi) - sinh(xi)
    a = (1 + np.cosh(1)) / np.sinh(1)
    u_exact = lambda x: a * np.cosh(x) - np.sinh(x)
    out = fx.neumann_map(ref_op, 1.0, np.array([1.0, 1.0]))
    for k in range(8):
        ck, _ = quad(lambda x: u_exact(x) * ref_op.eigenfunction_at(k, x), 0, 1, limit=200)
        assert out[k] == pytest.approx(ck, abs=1e-10)
    # delta = 1, h = (1, 0): mode-1 coefficient sqrt(2)/(1 + pi^2)
    out10 = fx.neumann_map(ref_op, 1.0, np.array([1.0, 0.0]))
    assert out10[1] == pytest.approx(np.sqrt(2) / (1 + np.pi**2), rel=1e-14)


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
    m = 4000
    for delta in (1.0, 2.0, 10.0):
        u_fd, grid = _neumann_fd_solve(delta, 1.0, 0.5, m)
        out = fx.neumann_map(ref_op, delta, np.array([1.0, 0.5]))
        for k in range(8):
            ck = (u_fd * ref_op.eigenfunction_at(k, grid)).sum() / m
            assert abs(out[k] - ck) < 100 / m**2


def test_divergence_builder_constant_coefficient():
    op = fx.build_divergence_operator_1d(lambda x: np.ones_like(x), 8, n_grid=512)
    assert np.allclose(op.eigenvalues[:4], [0, np.pi**2, 4 * np.pi**2, 9 * np.pi**2], rtol=1e-4)
    gram = (op.modes_on_grid * op.quad_weights) @ op.modes_on_grid.T
    assert np.abs(gram - np.eye(8)).max() < 1e-10
    assert np.allclose(op.modes_on_grid[0], 1.0)
    assert np.allclose(op.boundary_values[1], [np.sqrt(2), -np.sqrt(2)], atol=2e-3)


def test_divergence_builder_variable_coefficient():
    op = fx.build_divergence_operator_1d(lambda x: 1.0 + 0.5 * x, 8, n_grid=512)
    assert op.eigenvalues[0] == 0.0
    assert np.all(np.diff(op.eigenvalues) > 0)
    assert op.spectral_gap > np.pi**2  # larger diffusion, larger gap
    gram = (op.modes_on_grid * op.quad_weights) @ op.modes_on_grid.T
    assert np.abs(gram - np.eye(8)).max() < 1e-10
    # Lebesgue measure still invariant: mass conservation along the semigroup
    rng = np.random.Generator(np.random.Philox(key=4))
    h = rng.standard_normal(8)
    m0 = fx.invariant_average(op, h)
    assert fx.invariant_average(op, fx.semigroup_apply(op, 0.7, h)) == pytest.approx(m0, abs=1e-12)


def _variable_a_matrix(a, m):
    """Dense flux-form discretization of d/dxi (a d/dxi) with zero-flux ends."""
    step = 1.0 / m
    a_iface = a(np.arange(1, m) * step)
    mat = np.zeros((m, m))
    for i in range(m - 1):
        mat[i, i] -= a_iface[i]
        mat[i, i + 1] += a_iface[i]
        mat[i + 1, i + 1] -= a_iface[i]
        mat[i + 1, i] += a_iface[i]
    return mat / step**2


def test_divergence_semigroup_against_dense_expm():
    # independent oracle: matrix exponential of the dense discretization
    from scipy.linalg import expm

    a = lambda x: 1.0 + 0.5 * np.asarray(x)
    m = 256
    op = fx.build_divergence_operator_1d(a, 8, n_grid=m)
    mat = _variable_a_matrix(a, m)
    rng = np.random.Generator(np.random.Philox(key=44))
    coeffs = rng.standard_normal(8)
    t = 0.05
    spectral = op.to_grid(fx.semigroup_apply(op, t, coeffs))
    dense = expm(t * mat) @ op.to_grid(coeffs)
    # the truncation to 8 modes is the only difference; both live on the same grid
    assert np.abs(op.to_modes(dense) - op.to_modes(spectral)).max() < 1e-8


def test_divergence_neumann_map_against_variable_fd():
    # independent oracle: dense solve of (delta - A) u = 0 with flux data
    a = lambda x: 1.0 + 0.5 * np.asarray(x)
    m = 2048
    op = fx.build_divergence_operator_1d(a, 8, n_grid=m)
    mat = _variable_a_matrix(a, m)
    step = 1.0 / m
    for delta in (1.0, 2.0, 10.0):
        h0, h1 = 1.0, 0.5
        rhs = np.zeros(m)
        rhs[0] = h0 / step
        rhs[-1] = h1 / step
        u_fd = np.linalg.solve(delta * np.eye(m) - mat, rhs)
        out = fx.neumann_map(op, delta, np.array([h0, h1]))
        fd_modes = (u_fd * op.quad_weights) @ op.modes_on_grid.T
        assert np.abs(out[:6] - fd_modes[:6]).max() < 200 / m**2


def test_field_parseval(ref_op):
    rng = np.random.Generator(np.random.Philox(key=5))
    c = rng.standard_normal(ref_op.n_modes)
    grid_norm_sq = float((ref_op.to_grid(c) ** 2 * ref_op.quad_weights).sum())
    assert ref_op.hmu_norm(c) ** 2 == pytest.approx(grid_norm_sq, rel=1e-12)


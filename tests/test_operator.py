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


def _gap_margins(op, h, times):
    """exp(-gap t) |h| - |exp(tA) h - <h, mu>| per t: the spectral-gap contraction with constant 1."""
    times = np.asarray(times, dtype=float)
    dev = np.exp(-np.outer(times, op.eigenvalues)) * h
    dev[:, 0] -= fx.invariant_average(op, h)  # the constant <h, mu> is mode 0, since e_0 = 1
    return np.exp(-op.spectral_gap * times) * op.hmu_norm(h) - op.hmu_norm(dev), op.hmu_norm(dev)


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
        assert np.allclose(op.boundary_values[k], op.eigenfunction_at(k, [0.0, 1.0]), atol=1e-14)
        assert np.allclose(op.modes_on_grid[k], op.eigenfunction_at(k, op.grid), atol=1e-14)
    rng = np.random.Generator(np.random.Philox(key=6))
    for _ in range(20):
        margins, _ = _gap_margins(op, rng.standard_normal(n_modes), [0.01, 0.1, 1.0])
        assert np.all(margins >= -1e-12)


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


def test_field_parseval(ref_op):
    rng = np.random.Generator(np.random.Philox(key=5))
    c = rng.standard_normal(ref_op.n_modes)
    grid_norm_sq = float((ref_op.to_grid(c) ** 2 * ref_op.quad_weights).sum())
    assert ref_op.hmu_norm(c) ** 2 == pytest.approx(grid_norm_sq, rel=1e-12)


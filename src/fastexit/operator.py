"""Spectral representation of the diffusion operator with zero-flux boundary.

Everything downstream works in the eigenbasis of A = d^2/dxi^2 on O = (0, 1)
with zero-flux (Neumann) boundary conditions, the one operator a config can
select.  A is self-adjoint and negative semi-definite, with the orthonormal
basis e_0 = 1, e_k(xi) = sqrt(2) cos(k pi xi) and A e_k = -alpha_k e_k,
alpha_k = (k pi)^2.  The constant mode e_0 spans the kernel, the semigroup
acts diagonally as exp(-alpha_k t), and its invariant measure mu is Lebesgue
measure on O, a probability measure because |O| = 1; the spectral gap is
alpha_1 = pi^2.  The code relies on this: the L2(O, mu) norm is the
Euclidean norm of the coefficients, and averages against mu are plain
quadrature sums over the grid.

A state u in L2(O) is its (N,) array of coefficients in this basis, and a
batch of P states is a (P, N) array; `hmu_norm` is the norm of either.
Boundary data z in Z = L2 of the two boundary points is its (2,) array
(z(0), z(1)).

Point evaluation uses a fixed midpoint quadrature grid.  Midpoint quadrature
is exact for products of the cosine modes (discrete cosine orthogonality), so
orthonormality and Parseval identities hold to rounding as long as the grid
has at least 2 N points; we default to 4 N.

The Neumann map N_delta sends boundary flux data z = (z(0), z(1)) to the
solution of (delta - A) u = 0 with conormal derivative z.  Testing against
e_k and integrating by parts twice gives the mode formula

    <N_delta z, e_k> = (z(0) e_k(0) + z(1) e_k(1)) / (delta + alpha_k),

which is what converts boundary forcing into interior modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "SpectralOperator",
    "build_neumann_laplacian_1d",
    "semigroup_apply",
    "invariant_average",
    "neumann_map",
]


@dataclass(frozen=True)
class SpectralOperator:
    """Diagonalized elliptic operator plus its quadrature grid.

    Immutable after construction; all operations on it are pure functions,
    so instances can be shared freely across concurrent work.
    """

    eigenvalues: np.ndarray       # (N,) nonnegative, increasing, eigenvalues[0] = 0
    grid: np.ndarray              # (M,) midpoint quadrature nodes in O
    quad_weights: np.ndarray      # (M,) quadrature weights, sum = |O| = 1
    modes_on_grid: np.ndarray     # (N, M) values e_k(grid)
    boundary_values: np.ndarray   # (N, 2) values (e_k(0), e_k(1))

    def __post_init__(self):
        if self.eigenvalues.shape[0] < 2:
            raise ValueError("need at least two modes")
        if abs(self.eigenvalues[0]) > 1e-10:
            raise ValueError("first eigenvalue must be zero (constant mode)")

    @property
    def n_modes(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def spectral_gap(self) -> float:
        """Smallest strictly positive eigenvalue."""
        return float(self.eigenvalues[1])

    def eigenfunction_at(self, k: int, xi):
        """Evaluate e_k pointwise: 1 for k = 0, else sqrt(2) cos(k pi xi)."""
        xi = np.asarray(xi, dtype=float)
        if k == 0:
            return np.ones_like(xi)
        return np.sqrt(2.0) * np.cos(k * np.pi * xi)

    # -- transforms between mode coefficients and grid values -------------

    def to_grid(self, coeffs: np.ndarray) -> np.ndarray:
        """Synthesize grid values from coefficients; supports leading batch axes."""
        return np.asarray(coeffs) @ self.modes_on_grid

    def to_modes(self, values: np.ndarray) -> np.ndarray:
        """Project grid values onto the first N modes by quadrature."""
        return (np.asarray(values) * self.quad_weights) @ self.modes_on_grid.T

    def project(self, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Project a function of xi onto the mode basis."""
        return self.to_modes(fn(self.grid))

    def constant_field(self, value: float) -> np.ndarray:
        # e_0 is the constant function 1 (|O| = 1), so the constant c is c * e_0.
        coeffs = np.zeros(self.n_modes)
        coeffs[0] = value
        return coeffs

    # -- norms --------------------------------------------------------------

    def hmu_norm(self, coeffs: np.ndarray) -> np.ndarray:
        """L2(O, mu) norm: mu is Lebesgue on |O| = 1, so the Euclidean norm of the coefficients."""
        return np.linalg.norm(np.asarray(coeffs), axis=-1)


def build_neumann_laplacian_1d(n_modes: int, grid_factor: int = 4) -> SpectralOperator:
    """Reference operator: A = d^2/dxi^2 on (0,1) with zero-flux boundary.

    Eigenpairs are analytic: alpha_k = (k pi)^2, e_0 = 1,
    e_k(xi) = sqrt(2) cos(k pi xi).  Invariant measure is Lebesgue (m = 1)
    and the spectral gap is pi^2.
    """
    if n_modes < 2:
        raise ValueError("n_modes must be at least 2")
    if grid_factor < 2:
        raise ValueError("grid_factor must be at least 2 for exact mode quadrature")
    m = grid_factor * n_modes
    grid = (np.arange(m) + 0.5) / m
    weights = np.full(m, 1.0 / m)
    k = np.arange(n_modes)
    eigenvalues = (k * np.pi) ** 2
    modes = np.sqrt(2.0) * np.cos(np.outer(k, np.pi * grid))
    modes[0] = 1.0
    boundary = np.stack([np.sqrt(2.0) * np.cos(k * 0.0), np.sqrt(2.0) * np.cos(k * np.pi)], axis=1)
    boundary[0] = 1.0
    return SpectralOperator(
        eigenvalues=eigenvalues,
        grid=grid,
        quad_weights=weights,
        modes_on_grid=modes,
        boundary_values=boundary,
    )


def semigroup_apply(op: SpectralOperator, t: float, h: np.ndarray) -> np.ndarray:
    """Apply exp(t A): multiply mode k by exp(-alpha_k t)."""
    if t < 0:
        raise ValueError("semigroup time must be nonnegative")
    return np.exp(-op.eigenvalues * t) * h


def invariant_average(op: SpectralOperator, h: np.ndarray) -> float:
    """<h, mu> = integral of h over O, by quadrature."""
    vals = op.to_grid(h)
    return float((vals * op.quad_weights).sum())


def neumann_map(op: SpectralOperator, delta: float, h: np.ndarray) -> np.ndarray:
    """Solve (delta - A) u = 0 with conormal derivative h = (h(0), h(1)) on the boundary.

    Mode formula: <u, e_k> = (h(0) e_k(0) + h(1) e_k(1)) / (delta + alpha_k).
    """
    if delta <= 0:
        raise ValueError("delta must be strictly positive")
    return op.boundary_values @ h / (delta + op.eigenvalues)

"""Reference values the benchmark checks fastexit's outputs against.

Both computations are one-dimensional and independent of the package: they
use the averaged scalar dynamics that the fast-transport limit predicts for
the benchmark's configs (Neumann Laplacian on (0, 1), constant invariant
density, linear reaction f = slope * r, a gain g that does not depend on xi).
For those configs the averaged coefficients reduce to

    F_bar(s) = slope * s,
    H(s)     = (lambda_0^2 g(s)^2 + rho^2 sum_p (theta_p sigma)^2) / (1 + rho)^2,

where lambda_0 is the first eigenvalue of sqrt(Q), theta_p those of sqrt(B)
and sigma the boundary gain.
"""

from __future__ import annotations

import math

import numpy as np

# Broadie, Glasserman & Kou (Math. Finance 7, 1997): a Brownian barrier that
# is only checked every dt behaves like a continuous one shifted outward by
# beta_1 * sigma * sqrt(dt), beta_1 = -zeta(1/2) / sqrt(2 pi).
BGK_SHIFT = 0.5826

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(96)


def _gauss_legendre(fn, a: float, b: float) -> float:
    """Integral of a smooth vectorised fn over [a, b]."""
    half = 0.5 * (b - a)
    return half * float((_WEIGHTS * fn(a + half * (_NODES + 1.0))).sum())


def noise_intensity(g, lambda0: float, thetas, sigma: float, rho: float):
    """H(s) for gain values g (array) under the reduction in the module docstring."""
    boundary = sum((th * sigma) ** 2 for th in thetas)
    return (lambda0**2 * np.asarray(g, dtype=float) ** 2 + rho**2 * boundary) / (1.0 + rho) ** 2


def ou_mean_exit_time(half_width: float, sigma2: float, kappa: float = 1.0) -> float:
    """Mean exit time from 0 of du = -kappa u dt + sqrt(sigma2) dW on (-b, b).

    Solves the Dynkin equation (sigma2/2) T'' - kappa x T' = -1, T(+-b) = 0,
    whose symmetric solution at 0 is

        T(0) = (2/sigma2) int_0^b exp(kappa x^2/sigma2) int_0^x exp(-kappa z^2/sigma2) dz dx,

    by nested Gauss-Legendre quadrature.
    """
    c = kappa / sigma2

    def inner(xs):
        return np.array([_gauss_legendre(lambda z: np.exp(-c * z * z), 0.0, x) for x in xs])

    return 2.0 / sigma2 * _gauss_legendre(lambda x: np.exp(c * x * x) * inner(x), 0.0, half_width)


def corrected_half_width(half_width: float, sigma2: float, dt: float) -> float:
    """Continuous barrier equivalent to a barrier monitored every dt."""
    return half_width + BGK_SHIFT * math.sqrt(sigma2 * dt)


def logistic_clipped(amp: float, width: float, offset: float = 0.0):
    """The gain amp * tanh(s / width) + offset, as a vectorised function."""
    return lambda s: amp * np.tanh(np.asarray(s, dtype=float) / width) + offset


def quasi_potential_1d(y: float, slope: float, intensity) -> float:
    """V(y) = -2 int_0^y F_bar(s) / H(s) ds with F_bar(s) = slope * s."""
    if y == 0.0:
        return 0.0
    return -2.0 * _gauss_legendre(lambda s: slope * s / intensity(s), 0.0, y)

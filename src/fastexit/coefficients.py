"""Reaction and gain coefficients, their averaged forms, and the noise intensity.

Coefficients come from a small registered catalog of closed forms rather than
arbitrary user code, so configs stay reproducible and Lipschitz / sup bounds
are bookkept exactly:

    constant            c
    linear              (slope + xi_slope * xi) * r + offset
    linear_plus_source  slope * r + source_amp * sin(source_freq * pi * xi) + offset
    logistic_clipped    amp * tanh(r / width) + offset   (bounded, smooth)

Every catalog coefficient is autonomous: f and g are functions of (xi, r),
and the boundary gain sigma is either one value for both boundary points or
a value per point.

Averaging replaces the reaction term f(xi, r) by its integral against the
invariant measure mu, Lebesgue measure on O = (0, 1) (density m = 1),

    F_bar(u) = int_O f(xi, u) dxi,

and the two noise channels by the row vectors

    row_H(u) = sqrt(Q) [ g(., u) m ]          (mode j: lambda_j <g m, e_j>)
    row_Z    = delta0 sqrt(B) [ Sigma N*_delta0 m ]

whose squared norms combine into the scalar noise intensity

    H(u) = ( |row_H|^2 + rho_bar^2 |row_Z|^2 ) / (1 + rho_bar)^2,

with the rho_bar = inf case defined as the limit |row_Z|^2.  The adjoint
Neumann map evaluates as (N*_delta m)(p) = sum_k <m, e_k> e_k(p) / (delta + alpha_k);
for m = 1 = e_0 only the k = 0 term survives and delta0 cancels, which is why
the boundary row does not depend on delta0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .operator import SpectralOperator

__all__ = [
    "Coefficient",
    "BoundaryCoefficient",
    "CoefficientSet",
    "AveragedModel",
    "NondegeneracyReport",
    "make_coefficient",
    "make_boundary_coefficient",
    "make_coefficient_set",
    "nemytskii_F",
    "check_nondegeneracy",
]

# kind -> (required keys, {optional key: default}), one table per catalog
_COEFF_KINDS = {
    "constant": (("value",), {}),
    "linear": (("slope",), {"xi_slope": 0.0, "offset": 0.0}),
    "linear_plus_source": (("slope", "source_amp"), {"source_freq": 1, "offset": 0.0}),
    "logistic_clipped": (("amp", "width"), {"offset": 0.0}),
}
_SIGMA_KINDS = {"constant": (("value",), {}), "per_point": (("left", "right"), {})}


def catalog_params(catalog: dict, what: str, spec: dict) -> dict:
    """The parameters of a catalog spec {"kind": ..., **params}, defaults filled in.

    An unknown kind, a missing required key or a key the kind does not take
    raises ValueError naming it.
    """
    kind = spec["kind"]
    if kind not in catalog:
        raise ValueError(f"unknown {what} kind {kind!r}")
    required, optional = catalog[kind]
    params = {k: v for k, v in spec.items() if k != "kind"}
    missing = [k for k in required if k not in params]
    unknown = sorted(set(params) - set(required) - set(optional))
    if missing or unknown:
        problems = [f"missing key {k!r}" for k in missing] + [f"unknown key {k!r}" for k in unknown]
        raise ValueError(f"{what} kind {kind!r}: {', '.join(problems)}")
    return optional | params


@dataclass(frozen=True)
class Coefficient:
    """A catalog reaction/gain coefficient (xi, r) -> real."""

    kind: str
    params: dict

    def __post_init__(self):
        params = catalog_params(_COEFF_KINDS, "coefficient", {**self.params, "kind": self.kind})
        object.__setattr__(self, "params", params)

    def value(self, xi, r):
        p = self.params
        xi = np.asarray(xi, dtype=float)
        r = np.asarray(r, dtype=float)
        if self.kind == "constant":
            return np.broadcast_to(p["value"], np.broadcast_shapes(xi.shape, r.shape)).copy()
        if self.kind == "linear":
            return (p["slope"] + p["xi_slope"] * xi) * r + p["offset"]
        if self.kind == "linear_plus_source":
            src = p["source_amp"] * np.sin(p["source_freq"] * np.pi * xi)
            return p["slope"] * r + src + p["offset"]
        # logistic_clipped
        return p["amp"] * np.tanh(r / p["width"]) + p["offset"] + 0.0 * xi

    def d_dr(self, xi, r):
        p = self.params
        xi = np.asarray(xi, dtype=float)
        r = np.asarray(r, dtype=float)
        shape = np.broadcast_shapes(xi.shape, r.shape)
        if self.kind == "constant":
            return np.zeros(shape)
        if self.kind == "linear":
            return np.broadcast_to(p["slope"] + p["xi_slope"] * xi, shape).copy()
        if self.kind == "linear_plus_source":
            return np.broadcast_to(p["slope"], shape).copy()
        return p["amp"] / p["width"] * (1.0 / np.cosh(r / p["width"]) ** 2) + 0.0 * xi

    @property
    def lipschitz_bound(self) -> float:
        p = self.params
        if self.kind == "constant":
            return 0.0
        if self.kind == "linear":
            xs = p["xi_slope"]
            return max(abs(p["slope"]), abs(p["slope"] + xs))  # |slope + xs * xi| on [0, 1]
        if self.kind == "linear_plus_source":
            return abs(p["slope"])
        return abs(p["amp"] / p["width"])

    @property
    def sup_bound(self) -> float | None:
        """Uniform bound over (xi, r), when the form admits one."""
        p = self.params
        if self.kind == "constant":
            return abs(p["value"])
        if self.kind == "logistic_clipped":
            return abs(p["amp"]) + abs(p["offset"])
        return None

    @property
    def is_constant(self) -> bool:
        return self.kind == "constant"

    @property
    def constant_value(self) -> float:
        if not self.is_constant:
            raise ValueError("coefficient is not constant")
        return float(self.params["value"])


@dataclass(frozen=True)
class BoundaryCoefficient:
    """Boundary gain sigma(p) at the two boundary points p in {0, 1}."""

    kind: str
    params: dict

    def __post_init__(self):
        params = catalog_params(_SIGMA_KINDS, "sigma", {**self.params, "kind": self.kind})
        object.__setattr__(self, "params", params)

    def values(self) -> np.ndarray:
        if self.kind == "constant":
            return np.full(2, float(self.params["value"]))
        return np.array([self.params["left"], self.params["right"]], dtype=float)

    @property
    def sup_bound(self) -> float:
        return float(np.abs(self.values()).max())


def make_coefficient(spec: dict) -> Coefficient:
    spec = dict(spec)
    kind = spec.pop("kind")
    return Coefficient(kind=kind, params=spec)


def make_boundary_coefficient(spec: dict) -> BoundaryCoefficient:
    spec = dict(spec)
    kind = spec.pop("kind")
    return BoundaryCoefficient(kind=kind, params=spec)


@dataclass(frozen=True)
class CoefficientSet:
    """The triple (f, g, sigma) with declared bounds."""

    f: Coefficient
    g: Coefficient
    sigma: BoundaryCoefficient


def make_coefficient_set(f_spec: dict, g_spec: dict, sigma_spec: dict) -> CoefficientSet:
    return CoefficientSet(
        f=make_coefficient(f_spec),
        g=make_coefficient(g_spec),
        sigma=make_boundary_coefficient(sigma_spec),
    )


def nemytskii_F(cs: CoefficientSet, op: SpectralOperator, u: np.ndarray) -> np.ndarray:
    """F(u)(xi) = f(xi, u(xi)), applied on the grid and re-projected."""
    return op.to_modes(cs.f.value(op.grid, op.to_grid(u)))


@dataclass(frozen=True)
class AveragedModel:
    """The system's data and its averaged forms.

    The one description of the system that every layer steps, solves and
    measures from: the operator, the coefficients (f, g, sigma), the
    eigenvalues of sqrt(Q) and sqrt(B) (checked here), rho_bar = lim beta/alpha
    in [0, inf] and delta0.  The averaged drift, noise rows and noise
    intensity of the limit dynamics broadcast over an array of states u.
    """

    op: SpectralOperator
    coeffs: CoefficientSet
    q_lambdas: np.ndarray   # (N,) eigenvalues of sqrt(Q)
    b_thetas: np.ndarray    # (2,) eigenvalues of sqrt(B)
    rho_bar: float
    delta0: float = 1.0

    def __post_init__(self):
        if self.delta0 <= 0:
            raise ValueError("delta0 must be strictly positive")
        if not (self.rho_bar >= 0):
            raise ValueError("rho_bar must be in [0, inf]")
        lam, th = np.asarray(self.q_lambdas, dtype=float), np.asarray(self.b_thetas, dtype=float)
        if lam.shape != (self.op.n_modes,) or th.shape != (2,):
            raise ValueError("need one sqrt(Q) eigenvalue per mode and exactly two boundary weights")
        if np.any(lam < 0) or np.any(th < 0):
            raise ValueError("sqrt(Q) and sqrt(B) eigenvalues must be nonnegative")
        object.__setattr__(self, "q_lambdas", lam)
        object.__setattr__(self, "b_thetas", th)

    @property
    def weights(self) -> tuple[float, float]:
        """Channel weights (1/(1+rho), rho/(1+rho)), with (0, 1) at rho = inf."""
        if math.isinf(self.rho_bar):
            return 0.0, 1.0
        return 1.0 / (1.0 + self.rho_bar), self.rho_bar / (1.0 + self.rho_bar)

    @property
    def is_additive(self) -> bool:
        return self.coeffs.g.is_constant

    @cached_property
    def _nstar_m(self) -> np.ndarray:
        """(N*_delta0 m)(p) at the two boundary points."""
        m_modes = self.op.quad_weights @ self.op.modes_on_grid.T  # the modes of m = 1
        return (m_modes / (self.delta0 + self.op.eigenvalues)) @ self.op.boundary_values

    def f_bar(self, u):
        """F_bar(u): integral of f(., u) over O."""
        u = np.asarray(u, dtype=float)
        vals = self.coeffs.f.value(self.op.grid, u[..., None])
        return (vals * self.op.quad_weights).sum(axis=-1)

    def f_bar_prime(self, u):
        u = np.asarray(u, dtype=float)
        vals = self.coeffs.f.d_dr(self.op.grid, u[..., None])
        return (vals * self.op.quad_weights).sum(axis=-1)

    def row_h(self, u):
        """sqrt(Q)[g(., u) m] as mode coefficients; shape (..., N)."""
        u = np.asarray(u, dtype=float)
        g_vals = self.coeffs.g.value(self.op.grid, u[..., None])
        proj = (g_vals * self.op.quad_weights) @ self.op.modes_on_grid.T
        return self.q_lambdas * proj

    def row_h_prime(self, u):
        u = np.asarray(u, dtype=float)
        g_vals = self.coeffs.g.d_dr(self.op.grid, u[..., None])
        proj = (g_vals * self.op.quad_weights) @ self.op.modes_on_grid.T
        return self.q_lambdas * proj

    def row_z(self) -> np.ndarray:
        """delta0 sqrt(B)[Sigma N*_delta0 m] at the two boundary points."""
        sig = self.coeffs.sigma.values()
        return self.delta0 * self.b_thetas * sig * self._nstar_m

    def h(self, u):
        """Noise intensity H(u); broadcasts over u."""
        w_h, w_z = self.weights
        rh = self.row_h(u)
        rz = self.row_z()
        return w_h**2 * (rh * rh).sum(axis=-1) + w_z**2 * (rz * rz).sum()

    def h_prime(self, u):
        w_h, _ = self.weights
        rh = self.row_h(u)
        drh = self.row_h_prime(u)
        return 2.0 * w_h**2 * (rh * drh).sum(axis=-1)


@dataclass(frozen=True)
class NondegeneracyReport:
    min_h: float
    argmin_u: float
    floor: float
    passed: bool


def check_nondegeneracy(model: AveragedModel, u_grid, floor: float = 1e-12) -> NondegeneracyReport:
    """Report the minimum of H over a grid of states u against a positive floor."""
    u_grid = np.atleast_1d(np.asarray(u_grid, dtype=float))
    if u_grid.size == 0:
        raise ValueError("nondegeneracy grid must be nonempty")
    hs = model.h(u_grid)
    i = int(np.argmin(hs))
    min_h = float(hs[i])
    return NondegeneracyReport(min_h=min_h, argmin_u=float(u_grid[i]), floor=floor, passed=min_h > floor)

"""Reaction and gain coefficients, their averaged forms, and the noise intensity.

Coefficients come from a small registered catalog of closed forms rather than
arbitrary user code, so configs stay reproducible and sup bounds are
bookkept exactly.  Every kind is separable, c(xi, r) = a(xi) phi(r) + b(xi),
with the shape phi and the profile (a, b):

    kind                phi(r)           a(xi)                 b(xi)
    constant            r                0                     value
    linear              r                slope + xi_slope xi   offset
    linear_plus_source  r                slope                 source_amp sin(source_freq pi xi) + offset
    logistic_clipped    tanh(r / width)  amp                   offset

`value` is derived from that one definition, phi' and phi'' serve the
derivatives of the averaged forms and the Hessian of the action, and a
logistic width must be nonzero.  Every catalog coefficient is autonomous: f
and g are functions of (xi, r), and the boundary gain sigma is either one
value for both boundary points or a value per point.

Averaging replaces the reaction term f(xi, r) by its integral against the
invariant measure mu, Lebesgue measure on O = (0, 1) (density m = 1),

    F_bar(u) = int_O f(xi, u) dxi,

and the two noise channels by the row vectors

    row_H(u) = sqrt(Q) [ g(., u) m ]          (mode j: lambda_j <g m, e_j>)
    row_Z    = delta0 sqrt(B) [ Sigma N*_delta0 m ]

whose squared norms combine into the scalar noise intensity

    H(u) = ( |row_H|^2 + rho_bar^2 |row_Z|^2 ) / (1 + rho_bar)^2,

with the rho_bar = inf case defined as the limit |row_Z|^2.  At a constant
state u the xi-integrals separate: F_bar(u) = <a_f> phi_f(u) + <b_f> and
row_H(u) = phi_g(u) sqrt(Q)[a_g m] + sqrt(Q)[b_g m], so each averaged form is
integrated once per model and costs O(N) per state; H, a quadratic in
phi_g(u), costs O(1).  The adjoint Neumann
map evaluates as (N*_delta m)(p) = sum_k <m, e_k> e_k(p) / (delta + alpha_k);
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
H_RTOL = 1e-12  # H within this fraction of the size of its terms is a rounded zero (`AveragedModel.h_min`)


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
        if self.kind == "logistic_clipped" and params["width"] == 0:
            raise ValueError("coefficient kind 'logistic_clipped': width must be nonzero")
        object.__setattr__(self, "params", params)

    def profile(self, xi):
        """(a(xi), b(xi)) of the separable form c(xi, r) = a(xi) phi(r) + b(xi)."""
        p = self.params
        xi = np.asarray(xi, dtype=float)
        one = np.ones_like(xi)
        if self.kind == "constant":
            return np.zeros_like(xi), p["value"] * one
        if self.kind == "linear":
            return p["slope"] + p["xi_slope"] * xi, p["offset"] * one
        if self.kind == "linear_plus_source":
            return p["slope"] * one, p["source_amp"] * np.sin(p["source_freq"] * np.pi * xi) + p["offset"]
        return p["amp"] * one, p["offset"] * one

    @property
    def shape_is_identity(self) -> bool:
        """phi(r) = r: the coefficient is affine in r."""
        return self.kind != "logistic_clipped"

    def phi(self, r):
        r = np.asarray(r, dtype=float)
        return r if self.shape_is_identity else np.tanh(r / self.params["width"])

    def phi_prime(self, r):
        r = np.asarray(r, dtype=float)
        if self.shape_is_identity:
            return np.ones_like(r)
        w = self.params["width"]
        return (1.0 - np.tanh(r / w) ** 2) / w  # sech^2, without the overflow of cosh

    def phi_second(self, r):
        r = np.asarray(r, dtype=float)
        if self.shape_is_identity:
            return np.zeros_like(r)
        w = self.params["width"]
        t = np.tanh(r / w)
        return -2.0 * t * (1.0 - t * t) / w**2

    def phi_inverse(self, p):
        """The r with phi(r) = p: p itself, or width atanh(p); nan where p lies outside phi's range."""
        p = np.asarray(p, dtype=float)
        return p if self.shape_is_identity else self.params["width"] * np.arctanh(np.where(abs(p) < 1, p, np.nan))

    def value(self, xi, r):
        a, b = self.profile(xi)
        return a * self.phi(r) + b

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
        """(N*_delta0 m)(p) at the two boundary points.

        The Neumann map N_delta sends boundary flux data z = (z(0), z(1)) to
        the solution of (delta - A) u = 0 with conormal derivative z; testing
        against e_k and integrating by parts twice gives
        <N_delta z, e_k> = (z(0) e_k(0) + z(1) e_k(1)) / (delta + alpha_k).
        Its adjoint pairs with m: int_O (N_delta z) m = z . (N*_delta m)."""
        m_modes = self.op.quad_weights @ self.op.modes_on_grid.T  # the modes of m = 1
        return (m_modes / (self.delta0 + self.op.eigenvalues)) @ self.op.boundary_values

    @cached_property
    def _f_means(self) -> tuple[float, float]:
        """(<a_f>, <b_f>): the integrals over O of f's profile, so F_bar(u) = <a_f> phi_f(u) + <b_f>.

        The grid quadrature is exact for every profile but a sine source, whose
        integral amp (1 - cos k pi) / (k pi) + offset is taken in closed form."""
        f, w = self.coeffs.f, self.op.quad_weights
        a, b = f.profile(self.op.grid)
        b_mean = float(b @ w)
        if f.kind == "linear_plus_source":
            p, k = f.params, f.params["source_freq"] * math.pi
            b_mean = float(p["offset"] + (p["source_amp"] * (1.0 - math.cos(k)) / k if k else 0.0))
        return float(a @ w), b_mean

    @cached_property
    def g_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """sqrt(Q)[a_g m] and sqrt(Q)[b_g m] in modes, so row_H(u) = phi_g(u) sqrt(Q)[a_g m] + sqrt(Q)[b_g m]."""
        a, b = self.coeffs.g.profile(self.op.grid)
        return self.q_lambdas * self.op.to_modes(a), self.q_lambdas * self.op.to_modes(b)

    def f_bar(self, u):
        """F_bar(u): integral of f(., u) over O."""
        a, b = self._f_means
        return a * self.coeffs.f.phi(u) + b

    @property
    def f_bar_root(self) -> float:
        """The one state where F_bar vanishes, phi_f^-1(-<b_f> / <a_f>) (phi_f is monotone); nan when
        there is none: <a_f> = 0, or the ratio outside phi_f's range."""
        a, b = self._f_means
        return float(self.coeffs.f.phi_inverse(-b / a)) if a else math.nan

    def f_bar_prime(self, u):
        return self._f_means[0] * self.coeffs.f.phi_prime(u)

    def f_bar_second(self, u):
        return self._f_means[0] * self.coeffs.f.phi_second(u)

    def row_h(self, u):
        """sqrt(Q)[g(., u) m] as mode coefficients; shape (..., N)."""
        a, b = self.g_rows
        return self.coeffs.g.phi(u)[..., None] * a + b

    def row_h_prime(self, u):
        return self.coeffs.g.phi_prime(u)[..., None] * self.g_rows[0]

    def row_z(self) -> np.ndarray:
        """delta0 sqrt(B)[Sigma N*_delta0 m] at the two boundary points."""
        sig = self.coeffs.sigma.values()
        return self.delta0 * self.b_thetas * sig * self._nstar_m

    @cached_property
    def _h_coeffs(self) -> tuple[float, float, float]:
        """(A, B, C) = (w_H^2 |a|^2, w_H^2 a.b, w_H^2 |b|^2 + w_Z^2 |row_Z|^2) with (a, b) = g_rows."""
        a, b = self.g_rows
        rz = self.row_z()
        w_h, w_z = self.weights
        return float(w_h**2 * (a @ a)), float(w_h**2 * (a @ b)), float(w_h**2 * (b @ b) + w_z**2 * (rz @ rz))

    def h(self, u):
        """Noise intensity H(u); broadcasts over u.

        row_H(u) = phi_g(u) a + b makes H a quadratic in phi_g,

            H(u) = A phi_g(u)^2 + 2 B phi_g(u) + C,

        with the constants (A, B, C) of `_h_coeffs`, so H and its derivatives
        cost O(1) per state."""
        a, b, c = self._h_coeffs
        p = self.coeffs.g.phi(u)
        return (a * p + 2.0 * b) * p + c

    def h_min(self, lo: float, hi: float) -> tuple[float, float]:
        """The least noise intensity H on [lo, hi], and a state u where it is reached, in closed form.

        Every catalog phi_g is monotone, so H = A p^2 + 2 B p + C, p = phi_g(u),
        is least at the vertex p = -B/A clipped to the interval between phi_g(lo)
        and phi_g(hi): at the segment end where it clips, else at
        u = phi_g^-1(-B/A) (H = C, at lo, when A = 0).  A, B and C are sums over the N modes, so a vanishing H can come
        out as a few ulps of the size of its terms, A p^2 + 2 |B p| + C; a value
        within H_RTOL of that size returns as 0.0."""
        a, b, c = self._h_coeffs
        lo, hi = float(lo), float(hi)
        if a == 0.0:
            return c, lo
        g = self.coeffs.g
        ends = g.phi(np.array([lo, hi])).tolist()
        p = min(max(-b / a, min(ends)), max(ends))
        u = (lo, hi)[ends.index(p)] if p in ends else min(max(float(g.phi_inverse(p)), lo), hi)
        h = (a * p + 2.0 * b) * p + c
        return (0.0 if h <= H_RTOL * ((a * p + 2.0 * abs(b)) * abs(p) + c) else h), u

    def h_prime(self, u):
        a, b, _ = self._h_coeffs
        g = self.coeffs.g
        return 2.0 * (a * g.phi(u) + b) * g.phi_prime(u)

    def h_second(self, u):
        a, b, _ = self._h_coeffs
        g = self.coeffs.g
        dp = g.phi_prime(u)
        return 2.0 * (a * dp * dp + (a * g.phi(u) + b) * g.phi_second(u))


@dataclass(frozen=True)
class NondegeneracyReport:
    min_h: float
    argmin_u: float
    floor: float
    passed: bool


def check_nondegeneracy(model: AveragedModel, lo: float, hi: float, floor: float = 1e-12) -> NondegeneracyReport:
    """Report the least H on [lo, hi], and the state where it is reached (`AveragedModel.h_min`), against a
    positive floor."""
    min_h, argmin_u = model.h_min(lo, hi)
    return NondegeneracyReport(min_h=min_h, argmin_u=argmin_u, floor=floor, passed=min_h > floor)

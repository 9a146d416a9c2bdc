"""Covariance spectra, reproducible Gaussian streams, and the exact OU step weights.

Both Wiener processes are diagonal in their reference bases: w^Q in the
operator eigenbasis with sqrt(Q) e_k = lambda_k e_k, and w^B on the two
boundary points with sqrt(B) weights theta_j.  `make_q_spectrum` and
`make_b_spectrum` build these eigenvalue arrays from a config spec;
`coefficients.AveragedModel`, the one description of the system, holds them
and checks them (one lambda >= 0 per mode; two weights theta >= 0).

The stochastic convolutions in the mild solution are infinite-dimensional OU
processes.  `ensemble.SpdeStepper` integrates them exactly (exponential
integrator), never by Euler on the stiff linear part, with the weights built
here.  Over one step of size dt, with a_k = alpha_k / eps,

    state_k <- exp(-a_k dt) state_k + eta_k,

where eta is a centered Gaussian vector.  Its covariance carries the OU kernel

    W_kl(dt) = int_0^dt exp(-(a_k + a_l) s) ds = `decay_integral(a_k + a_l, dt)`,

whose diagonal is the per-mode weight v_k(dt) = eps / (2 alpha_k) *
(1 - exp(-2 alpha_k dt / eps)), v_0 = dt (`ou_step_weights`).  Boundary
channel: the (delta0 - A) prefactor of the mild form cancels the Neumann-map
denominator (delta0 + alpha_k) exactly in the eigenbasis, leaving the
delta0-free coupling b_kj = sigma(j) e_k(j) (`boundary_coupling`).  The two
boundary Brownian motions reach every mode, so the boundary covariance is
full: C_B[k, l] = beta^2 sum_j theta_j^2 b_kj b_lj W_kl.  Interior
channel: C_Q = diag((alpha g lambda_k)^2 v_k) for constant g, drawn jointly
with C_B as one Gaussian vector; for state-dependent g the stepper uses the
per-mode variance sum_j (lambda_j M_kj)^2 v_k with M_kj = <g e_j, e_k> frozen
at the step start (weak order 1/2), without its cross-mode covariance.

Randomness comes from counter-based Philox generators keyed by
(seed, stream), one stream per path, so a path's draws depend only on the
seed, its stream and its step, under any parallel schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox  # numpy loads its random module lazily: load it at import

from .coefficients import catalog_params
from .operator import SpectralOperator

__all__ = [
    "RngStream",
    "make_q_spectrum",
    "make_b_spectrum",
    "ou_step_weights",
    "boundary_coupling",
]


# kind -> (required keys, {optional key: default})
_Q_SPECTRUM_KINDS = {
    "flat": (("value",), {}),
    "power": (("amp", "exponent"), {}),
    "list": (("values",), {}),
    "mode0": (("value",), {}),
}
_B_SPECTRUM_KINDS = {"flat": (("value",), {}), "list": (("values",), {})}


def make_q_spectrum(spec: dict, n_modes: int) -> np.ndarray:
    """The eigenvalues lambda_k of sqrt(Q) on the first n_modes modes, from a config spec."""
    p = catalog_params(_Q_SPECTRUM_KINDS, "Q spectrum", spec)
    kind = spec["kind"]
    if kind == "flat":
        return np.full(n_modes, float(p["value"]))
    if kind == "power":
        k = np.arange(n_modes)
        return p["amp"] * (1.0 + k) ** (-float(p["exponent"]))
    if kind == "list":
        vals = np.asarray(p["values"], dtype=float)
        if vals.shape[0] < n_modes:
            raise ValueError("explicit spectrum shorter than the mode count")
        return vals[:n_modes]
    lam = np.zeros(n_modes)  # mode0
    lam[0] = float(p["value"])
    return lam


def make_b_spectrum(spec: dict) -> np.ndarray:
    """The eigenvalues theta_j of sqrt(B) on the two boundary points, from a config spec."""
    p = catalog_params(_B_SPECTRUM_KINDS, "B spectrum", spec)
    if spec["kind"] == "flat":
        return np.full(2, float(p["value"]))
    return np.asarray(p["values"], dtype=float)


@dataclass
class RngStream:
    """Counter-based Gaussian stream keyed by (seed, stream id).

    A stream is owned by exactly one path; identical (seed, stream, call
    sequence) yields bit-identical draws regardless of what other streams do.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        self._gen = Generator(Philox(key=np.array([self.seed % 2**64, self.stream % 2**64], dtype=np.uint64)))


def decay_integral(rate: np.ndarray, dt: float) -> np.ndarray:
    """int_0^dt exp(-rate s) ds = -expm1(-rate dt) / rate, and dt where rate = 0."""
    w = np.full(rate.shape, dt)
    pos = rate > 0
    w[pos] = -np.expm1(-rate[pos] * dt) / rate[pos]
    return w


def ou_step_weights(alphas: np.ndarray, eps: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode decay exp(-alpha dt/eps) and exact OU variance weight v_k(dt)."""
    if eps <= 0 or dt <= 0:
        raise ValueError("eps and dt must be strictly positive")
    return np.exp(-alphas * dt / eps), decay_integral(2.0 * alphas / eps, dt)


def boundary_coupling(op: SpectralOperator, sigma_values: np.ndarray) -> np.ndarray:
    """Coupling rows b_kj = sigma(j) e_k(boundary point j); delta0-free."""
    return op.boundary_values * np.asarray(sigma_values)[None, :]

"""Time steppers for the full system and its averaged/limit descriptions.

Three related dynamics are integrated here:

* the full stochastic reaction-diffusion system, by an exponential-Euler
  mild-solution recursion per eigenmode (the stiff transport term eps^{-1} A
  is handled exactly, so the time step is independent of eps);
* the deterministic limit ODE  u' = F_bar(u)  by classical RK4;
* the controlled (skeleton) ODE driven by a deterministic control
  phi = (phi_H, phi_Z), by RK4 with the control interpolated between nodes.

The full system is stepped from (model, params): the system's one description,
a `coefficients.AveragedModel`, at one scaling level `MultiscaleParams`.  The
controlled forward solve adds the control as a deterministic forcing with
weights alpha/sqrt(gamma) and beta/sqrt(gamma) (their limits 1/(1+rho_bar),
rho_bar/(1+rho_bar) may be pinned explicitly, e.g. to study the noise-free
averaging of the forced equation).  The Monte Carlo sup averaging error runs
the full system over an ensemble of paths against the limit ODE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .coefficients import AveragedModel
from .ensemble import SpdeStepper, diverged_mask, run_ensemble
from .errors import DivergenceError
from .noise import RngStream
from .operator import SpectralOperator

__all__ = [
    "MultiscaleParams",
    "FieldTrajectory",
    "ScalarPath",
    "solve_spde",
    "solve_limit_ode",
    "solve_controlled_ode_batch",
    "averaging_error_ensemble",
]


@dataclass(frozen=True)
class MultiscaleParams:
    """One scaling level (eps, alpha(eps), beta(eps)); gamma = (alpha+beta)^2.  rho_bar is the model's."""

    eps: float
    alpha: float
    beta: float

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be strictly positive")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be nonnegative")

    @property
    def gamma(self) -> float:
        return (self.alpha + self.beta) ** 2

    @classmethod
    def from_schedule(cls, eps: float, alpha_law: dict, beta_law: dict) -> "MultiscaleParams":
        """Evaluate power-law schedules alpha = c eps^p, beta = c eps^p at eps."""
        alpha = alpha_law["coeff"] * eps ** alpha_law["exponent"]
        beta = beta_law["coeff"] * eps ** beta_law["exponent"]
        return cls(eps=eps, alpha=alpha, beta=beta)

    def schedule_ratio(self) -> float:
        """beta/alpha at this eps, recorded against the model's rho_bar."""
        if self.alpha == 0:
            return math.inf if self.beta > 0 else 0.0
        return self.beta / self.alpha


def write_csv(path, header: list[str], rows) -> None:
    """Write a header and rows of comma-separated cells, each line ending in LF;
    a float cell is written as its repr, so it reads back to the same float."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = (repr(float(v)) if isinstance(v, (float, np.floating)) else str(v) for v in row)
            fh.write(",".join(cells) + "\n")


@dataclass
class FieldTrajectory:
    """Mode coefficients along a strictly increasing time grid."""

    times: np.ndarray    # (n,)
    states: np.ndarray   # (n, N)

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("times and states must have equal length")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("time grid must be strictly increasing")

    @property
    def n_modes(self) -> int:
        return self.states.shape[1]

    def write_csv(self, path):
        header = ["t"] + [f"mode_{k}" for k in range(self.n_modes)]
        write_csv(path, header, ([t, *row] for t, row in zip(self.times, self.states)))


@dataclass(frozen=True)
class ScalarPath:
    """Piecewise-linear real path w(t) on a uniform grid with >= 2 nodes."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or t.size < 2 or t.shape != v.shape:
            raise ValueError("path needs matching 1-d times/values with at least 2 nodes")
        steps = np.diff(t)
        if np.any(steps <= 0) or not np.allclose(steps, steps[0], rtol=1e-8, atol=1e-12):
            raise ValueError("path grid must be uniform and increasing")
        if not np.all(np.isfinite(v)):
            raise ValueError("path values must be finite")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


def _time_grid(t_final: float, dt: float) -> tuple[np.ndarray, float, int]:
    if t_final <= 0 or dt <= 0:
        raise ValueError("t_final and dt must be strictly positive")
    if dt > t_final:
        raise ValueError("dt must not exceed t_final")
    n = max(1, int(round(t_final / dt)))
    dt_eff = t_final / n
    return np.arange(n + 1) * dt_eff, dt_eff, n


def _control_interpolant(node_times: np.ndarray, phi_h: np.ndarray, phi_z: np.ndarray):
    """Piecewise-linear t -> (phi_H(t), phi_Z(t)) on a uniform node grid.

    The node axis is the second to last: phi_h is (..., n_nodes, N) and phi_z
    (..., n_nodes, 2), so one control or a batch of controls interpolates alike.
    """
    t0, dtg = node_times[0], node_times[1] - node_times[0]
    n_nodes = len(node_times)

    def at(t):
        s = np.clip((t - t0) / dtg, 0.0, n_nodes - 1.0)
        i = min(int(s), n_nodes - 2)
        w = s - i
        return (
            (1.0 - w) * phi_h[..., i, :] + w * phi_h[..., i + 1, :],
            (1.0 - w) * phi_z[..., i, :] + w * phi_z[..., i + 1, :],
        )

    return at


def solve_spde(
    model: AveragedModel,
    params: MultiscaleParams,
    x: np.ndarray,
    t_final: float,
    dt: float,
    rng: RngStream,
    control=None,
    control_weights: tuple[float, float] | None = None,
) -> FieldTrajectory:
    """Mild-solution forward solve (exponential Euler per mode) of one path
    of the system `model` at the scaling level `params`.

    control may be None (plain forward solve) or a ControlPath, added as a
    deterministic forcing; a zero control reproduces the uncontrolled solve
    pathwise for the same stream.
    """
    times, dt_eff, n = _time_grid(t_final, dt)
    stepper = SpdeStepper(
        model, params, dt_eff,
        control=None if control is None else _control_interpolant(control.times, control.phi_h, control.phi_z),
        control_weights=control_weights,
    )
    u = np.array([x], dtype=float)
    states = np.empty((n + 1, model.op.n_modes))
    states[0] = u[0]
    gen = rng._gen
    for i in range(n):
        u = stepper.step(times[i], u, stepper.draw(gen, 1))
        if diverged_mask(u)[0]:
            raise DivergenceError(step=i + 1, t=times[i + 1])
        states[i + 1] = u[0]
    return FieldTrajectory(times=times, states=states)


def _rk4(rhs, u0, times):
    """Classical RK4 over a uniform grid; u0 may be scalar or a batch array."""
    u = np.asarray(u0, dtype=float)
    scalar = u.ndim == 0
    u = np.atleast_1d(u).copy()
    out = np.empty((len(times),) + u.shape)
    out[0] = u
    for i in range(len(times) - 1):
        t, dt = times[i], times[i + 1] - times[i]
        k1 = rhs(t, u)
        k2 = rhs(t + dt / 2, u + dt / 2 * k1)
        k3 = rhs(t + dt / 2, u + dt / 2 * k2)
        k4 = rhs(t + dt, u + dt * k3)
        u = u + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(u)):
            raise DivergenceError(step=i + 1, t=times[i + 1])
        out[i + 1] = u
    return out[:, 0] if scalar else out


def solve_limit_ode(model: AveragedModel, x_mean: float, t_final: float, dt: float) -> ScalarPath:
    """RK4 on the averaged limit dynamics u' = F_bar(u), u(0) = <x, mu>."""
    times, _, _ = _time_grid(t_final, dt)
    values = _rk4(lambda t, u: model.f_bar(u), float(x_mean), times)
    return ScalarPath(times=times, values=values)


def solve_controlled_ode_batch(
    model: AveragedModel,
    x_means: np.ndarray,
    node_times: np.ndarray,
    phi_h_all: np.ndarray,
    phi_z_all: np.ndarray,
    t_final: float,
    dt: float,
) -> np.ndarray:
    """RK4 on the skeleton dynamics for a batch of P controls on one uniform node grid,

        u' = F_bar(u) + w_H <phi_H(t), row_H(u)> + w_Z <phi_Z(t), row_Z>

    with weights (w_H, w_Z) = (1/(1+rho_bar), rho_bar/(1+rho_bar)) and the
    control interpolated linearly between nodes.  phi_h_all has shape
    (P, n_nodes, N) and phi_z_all (P, n_nodes, 2); returns the
    (n_steps + 1, P) array of path values.  One control is the case P = 1.
    """
    times, _, _ = _time_grid(t_final, dt)
    w_h, w_z = model.weights
    ctrl = _control_interpolant(node_times, phi_h_all, phi_z_all)

    def rhs(t, u):
        phi_h, phi_z = ctrl(t)
        forcing = w_h * (model.row_h(u) * phi_h).sum(axis=-1) + w_z * (phi_z @ model.row_z())
        return model.f_bar(u) + forcing

    return _rk4(rhs, np.asarray(x_means, dtype=float), times)


class _SupErrorObserver:
    """Per-share sups for `run_ensemble`: of |u - ref e_0|_{H_mu} over grid times
    in [delta, T] (NaN for a diverged row), and of |u|_H over all grid times."""

    def __init__(self, op: SpectralOperator, ref_values, times, delta: float, u0: np.ndarray):
        self.op, self.ref_values, self.times, self.delta = op, ref_values, times, delta
        self.err = np.zeros(u0.shape[0])
        self.sup = np.linalg.norm(u0, axis=1)

    def observe(self, i0: int, states: np.ndarray, idx: np.ndarray, first_bad: np.ndarray) -> np.ndarray:
        # a diverged row's states are zero from its first bad step, which leaves its
        # sup of |u| as it was, and its error is NaN in the end
        k = len(states)
        self.sup[idx] = np.maximum(self.sup[idx], np.linalg.norm(states, axis=2).max(axis=0))
        late = self.times[i0 + 1:i0 + k + 1] >= self.delta
        if late.any():
            d = states[late]
            d[..., 0] -= self.ref_values[i0 + 1:i0 + k + 1][late, None]
            self.err[idx] = np.maximum(self.err[idx], self.op.hmu_norm(d).max(axis=0))
        return np.ones(idx.size, dtype=bool)

    def finish(self, live: np.ndarray):
        self.err[~live] = np.nan
        return self.err, self.sup


def averaging_error_ensemble(
    model: AveragedModel,
    params: MultiscaleParams,
    x: np.ndarray,
    t_final: float,
    dt: float,
    delta: float,
    ref: ScalarPath,
    n_paths: int,
    seed: int,
    stream_base: int = 0,
    threads: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo panel of sup_{[delta, T]} |u - ref e_0|_{H_mu} per path.

    Returns (errors, sup_norms) where sup_norms[p] = sup_t |u_p(t)|_H, used by
    the eps-uniform moment probe.  Path p draws from its own stream
    stream_base | p, so the panel is reproducible for a given seed under any
    thread count and path count.
    """
    if not (0 < delta < t_final):
        raise ValueError(f"delta = {delta!r} must lie in (0, t_final = {t_final!r})")
    times, dt_eff, n = _time_grid(t_final, dt)
    if len(ref.times) != n + 1 or not np.allclose(ref.times, times):
        raise ValueError("reference grid must match the solver grid")
    errors, sup_norms = run_ensemble(
        SpdeStepper(model, params, dt_eff), x, n_paths, n, seed, stream_base, threads,
        partial(_SupErrorObserver, model.op, ref.values, times, delta),
    )
    return errors, sup_norms

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
Monte Carlo sup averaging error runs the full system over an ensemble of paths
against the limit ODE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .coefficients import AveragedModel
from .ensemble import SpdeStepper, run_ensemble
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


def _control_interpolant(node_times: np.ndarray, control: np.ndarray):
    """Piecewise-linear t -> control(t) on a uniform node grid; the node axis of
    control is its second to last, as in (P, n_nodes, d) for a batch of P."""
    t0, dtg = node_times[0], node_times[1] - node_times[0]
    last = len(node_times) - 1

    def at(t):
        s = min(max((t - t0) / dtg, 0.0), float(last))
        i = min(int(s), last - 1)
        w = s - i
        return (1.0 - w) * control[..., i, :] + w * control[..., i + 1, :]

    return at


class _PathObserver:
    """`run_ensemble` observer of one path: its states from step 0 on, and the index
    of its first diverged state (0 while none has)."""

    def __init__(self, n_steps: int, u0: np.ndarray):
        self.states = np.concatenate([u0, np.empty((n_steps, u0.shape[1]))])
        self.first_bad = np.zeros(1, dtype=int)

    def observe(self, i0: int, states: np.ndarray, idx: np.ndarray, first_bad: np.ndarray) -> np.ndarray:
        self.states[i0 + 1:i0 + len(states) + 1] = states[:, 0]
        self.first_bad = np.where(first_bad < len(states), i0 + 1 + first_bad, self.first_bad)
        return np.ones(1, dtype=bool)

    def finish(self, live: np.ndarray):
        return self.states[None], self.first_bad


def solve_spde(
    model: AveragedModel,
    params: MultiscaleParams,
    x: np.ndarray,
    t_final: float,
    dt: float,
    rng: RngStream,
) -> FieldTrajectory:
    """Mild-solution forward solve (exponential Euler per mode) of one path
    of the system `model` at the scaling level `params`.

    The path is an ensemble of one for `run_ensemble`, drawn from the start
    of rng's stream; a DivergenceError names its first diverged state.
    """
    times, dt_eff, n = _time_grid(t_final, dt)
    (states, (bad,)), _ = run_ensemble(SpdeStepper(model, params, dt_eff), np.asarray(x, dtype=float), 1, n,
                                       rng.seed, rng.stream, 1, partial(_PathObserver, n))
    if bad:
        raise DivergenceError(step=int(bad), t=times[bad])
    return FieldTrajectory(times=times, states=states[0])


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
        if not np.isfinite(u).all():
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

    row_H(u) = phi_g(u) a + b, so the forcing is phi_g(u) w_H <phi_H, a> +
    w_H <phi_H, b> + w_Z <phi_Z, row_Z>: the control is projected onto these
    two scalars per node once, and each stage interpolates P pairs.
    """
    times, _, _ = _time_grid(t_final, dt)
    w_h, w_z = model.weights
    a, b = model.g_rows
    gain = w_h * (phi_h_all @ a)
    rest = w_h * (phi_h_all @ b) + w_z * (phi_z_all @ model.row_z())
    ctrl = _control_interpolant(node_times, np.stack([gain, rest], axis=-1))
    phi_g = model.coeffs.g.phi

    def rhs(t, u):
        c = ctrl(t)
        return model.f_bar(u) + phi_g(u) * c[:, 0] + c[:, 1]

    return _rk4(rhs, np.asarray(x_means, dtype=float), times)


class _SupErrorObserver:
    """Per-share sups for `run_ensemble` of |u - ref e_0|_{H_mu} over grid times
    in [delta, T], NaN for a diverged row."""

    def __init__(self, op: SpectralOperator, ref_values, times, delta: float, u0: np.ndarray):
        self.op, self.ref_values, self.times, self.delta = op, ref_values, times, delta
        self.err = np.zeros(u0.shape[0])

    def observe(self, i0: int, states: np.ndarray, idx: np.ndarray, first_bad: np.ndarray) -> np.ndarray:
        k = len(states)
        late = self.times[i0 + 1:i0 + k + 1] >= self.delta
        if late.any():
            d = states[late]
            d[..., 0] -= self.ref_values[i0 + 1:i0 + k + 1][late, None]
            self.err[idx] = np.maximum(self.err[idx], self.op.hmu_norm(d).max(axis=0))
        return np.ones(idx.size, dtype=bool)

    def finish(self, live: np.ndarray):
        self.err[~live] = np.nan
        return (self.err,)


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
) -> tuple[np.ndarray, dict]:
    """Monte Carlo panel of sup_{[delta, T]} |u - ref e_0|_{H_mu} per path, NaN
    for a diverged path, and the work of its ensemble (`run_ensemble`).

    Path p draws from its own stream stream_base | p, so the panel is
    reproducible for a given seed under any thread count and path count.
    """
    if not (0 < delta < t_final):
        raise ValueError(f"delta = {delta!r} must lie in (0, t_final = {t_final!r})")
    times, dt_eff, n = _time_grid(t_final, dt)
    if len(ref.times) != n + 1 or not np.allclose(ref.times, times):
        raise ValueError("reference grid must match the solver grid")
    (errors,), work = run_ensemble(
        SpdeStepper(model, params, dt_eff), x, n_paths, n, seed, stream_base, threads,
        partial(_SupErrorObserver, model.op, ref.values, times, delta),
    )
    return errors, work

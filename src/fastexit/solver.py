"""Time steppers for the full system and its averaged/limit descriptions.

Three related dynamics are integrated here:

* the full stochastic reaction-diffusion system, by an exponential-Euler
  mild-solution recursion per eigenmode (the stiff transport term eps^{-1} A
  is handled exactly, so the time step is independent of eps);
* the deterministic limit ODE  u' = F_bar(u)  by classical RK4;
* the controlled (skeleton) ODE driven by one deterministic control
  phi = (phi_H, phi_Z), by RK4 on the control's node grid.

The limit ODE is the skeleton ODE with zero control, so one scalar RK4 loop
integrates both; it advances one state, a float, per step, and takes the
control, linear between its nodes, as two precomputed floats per node.

The full system is stepped from (model, params): the system's one description,
a `coefficients.AveragedModel`, at one scaling level `MultiscaleParams`.  The
Monte Carlo sup averaging error runs the full system over an ensemble of paths
against the limit ODE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from .coefficients import AveragedModel
from .ensemble import SpdeStepper, run_ensemble
from .errors import DivergenceError
from .noise import RngStream
from .operator import SpectralOperator

if TYPE_CHECKING:
    from .ldp import ControlPath

__all__ = [
    "MultiscaleParams",
    "FieldTrajectory",
    "ScalarPath",
    "solve_spde",
    "solve_limit_ode",
    "solve_controlled_ode",
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


def _rk4(model: AveragedModel, u0: float, times: np.ndarray, c_gain: list, c_rest: list) -> np.ndarray:
    """Classical RK4 of the scalar skeleton ODE u' = F_bar(u) + phi_g(u) c_gain(t) + c_rest(t) over a
    uniform grid, with the control's two scalars given as floats at the grid times and linear between
    them; the states at every grid time.

    A step's end stages take the node values, and its two midpoint stages their mean, which is the
    piecewise-linear control at the midpoint."""
    f_bar, phi_g = model.f_bar, model.coeffs.g.phi
    out = np.empty(len(times))
    u = out[0] = float(u0)
    ts = times.tolist()
    for i in range(len(ts) - 1):
        dt = ts[i + 1] - ts[i]
        g0, g1, r0, r1 = c_gain[i], c_gain[i + 1], c_rest[i], c_rest[i + 1]
        gm, rm = (g0 + g1) / 2, (r0 + r1) / 2
        k1 = f_bar(u) + phi_g(u) * g0 + r0
        v = u + dt / 2 * k1
        k2 = f_bar(v) + phi_g(v) * gm + rm
        v = u + dt / 2 * k2
        k3 = f_bar(v) + phi_g(v) * gm + rm
        v = u + dt * k3
        k4 = f_bar(v) + phi_g(v) * g1 + r1
        u = u + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if not math.isfinite(u):
            raise DivergenceError(step=i + 1, t=times[i + 1])
        out[i + 1] = u
    return out


def solve_limit_ode(model: AveragedModel, x_mean: float, t_final: float, dt: float) -> ScalarPath:
    """RK4 on the averaged limit dynamics u' = F_bar(u), u(0) = <x, mu>: the skeleton ODE with zero control."""
    times, _, _ = _time_grid(t_final, dt)
    zero = [0.0] * len(times)
    return ScalarPath(times=times, values=_rk4(model, x_mean, times, zero, zero))


def solve_controlled_ode(model: AveragedModel, x_mean: float, control: ControlPath) -> np.ndarray:
    """RK4 on the skeleton dynamics driven by one control, on the control's own node grid,

        u' = F_bar(u) + w_H <phi_H(t), row_H(u)> + w_Z <phi_Z(t), row_Z>

    with weights (w_H, w_Z) = (1/(1+rho_bar), rho_bar/(1+rho_bar)) and the
    control linear between its nodes; returns the path values at the control's
    times.  The system is autonomous, so where the grid starts does not matter.

    row_H(u) = phi_g(u) a + b, so the forcing is phi_g(u) c_gain + c_rest, with
    c_gain = w_H <phi_H, a> and c_rest = w_H <phi_H, b> + w_Z <phi_Z, row_Z>:
    the control is projected onto these two scalars per node once.
    """
    w_h, w_z = model.weights
    a, b = model.g_rows
    c_gain = (w_h * (control.phi_h @ a)).tolist()
    c_rest = (w_h * (control.phi_h @ b) + w_z * (control.phi_z @ model.row_z())).tolist()
    return _rk4(model, x_mean, control.times, c_gain, c_rest)


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

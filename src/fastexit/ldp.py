"""Action functional, minimizing control, and the quasi-potential.

Rare events of the full system concentrate on spatially constant paths, with
path-space cost

    I(w) = 1/2 int |w'(t) - F_bar(w(t))|^2 / H(w(t)) dt

at speed gamma = (alpha + beta)^2.  The discrete version uses centered
differences for w' (one-sided at the endpoints) and trapezoidal quadrature.

The cost has an exact dual description through the skeleton equation: the
control achieving equality is

    phi_hat(t) = c(t) * ( w_H row_H(w(t)), w_Z row_Z ),
    c(t) = (w'(t) - F_bar(w(t))) / H(w(t)),

with channel weights (w_H, w_Z) = (1/(1+rho), rho/(1+rho)).  Then
1/2 |phi_hat|^2_{L2(V)} = I(w) and the skeleton ODE driven by phi_hat
reproduces w; both identities are kept exactly at the discrete level and are
the backbone of the test suite.

Quasi-potential: V(y) = inf over horizons T and paths 0 -> y of I; computed
either from the closed form V(y) = (2/H) int_0^y max(-F_bar(s), 0) ds for
y > 0, mirrored for y < 0 (additive noise, constant H),
or variationally by a limited-memory quasi-Newton minimization over interior
path nodes with the analytic gradient of the discrete action, straight-line
initialization, and an outer minimum over a horizon grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import AveragedModel
from .errors import NondegeneracyError, NotApplicableError, OptimizationError
from .operator import SpectralOperator
from .solver import FieldTrajectory, ScalarPath, write_csv

__all__ = [
    "ControlPath",
    "action_I",
    "action_of_trajectory",
    "minimizing_control",
    "control_cost",
    "minimize_path_action",
    "prefix_action_J",
    "quasi_potential_explicit",
    "quasi_potential_variational",
    "v_bar",
]

GRAD_TOL = 1e-8
MAX_ITER = 10_000


@dataclass(frozen=True)
class ControlPath:
    """Control phi = (phi_H, phi_Z) sampled on a uniform grid."""

    times: np.ndarray    # (n,)
    phi_h: np.ndarray    # (n, N) interior channel, mode coefficients
    phi_z: np.ndarray    # (n, 2) boundary channel

    def __post_init__(self):
        if len(self.times) != len(self.phi_h) or len(self.times) != len(self.phi_z):
            raise ValueError("control node counts do not match")

    def norm_sq_l2v(self) -> float:
        """|phi|^2 in L2(0, T; V), V-norm^2 = H-norm^2 + Z-norm^2 per node."""
        dens = (self.phi_h**2).sum(axis=1) + (self.phi_z**2).sum(axis=1)
        return float(np.trapezoid(dens, self.times))

    def write_csv(self, path):
        header = ["t"] + [f"phi_H_{k}" for k in range(self.phi_h.shape[1])] + ["phi_Z_0", "phi_Z_1"]
        write_csv(path, header, ([t, *ph, *pz] for t, ph, pz in zip(self.times, self.phi_h, self.phi_z)))


def path_derivative(values: np.ndarray, dt: float) -> np.ndarray:
    """Centered differences interiorly, one-sided at the two endpoints."""
    d = np.empty_like(values)
    d[0] = (values[1] - values[0]) / dt
    d[-1] = (values[-1] - values[-2]) / dt
    d[1:-1] = (values[2:] - values[:-2]) / (2.0 * dt)
    return d


def _path_quantities(model: AveragedModel, values):
    h = model.h(values)
    if np.any(h <= 0):
        raise NondegeneracyError("noise intensity H vanished along the path")
    fbar = model.f_bar(values)
    return fbar, h


def action_I(model: AveragedModel, w: ScalarPath) -> float:
    """Trapezoidal discrete action 1/2 int (w' - F_bar)^2 / H dt."""
    fbar, h = _path_quantities(model, w.values)
    resid = path_derivative(w.values, w.dt) - fbar
    dens = 0.5 * resid**2 / h
    return float(np.trapezoid(dens, w.times))


def action_of_trajectory(
    model: AveragedModel, op: SpectralOperator, traj: FieldTrajectory, atol: float = 1e-12
) -> float:
    """Action of a field-valued path; infinite unless it is spatially constant.

    Any non-constant mode exceeding atol makes the action math.inf, the
    finiteness guard of the rate functional.
    """
    if np.any(np.abs(traj.states[:, 1:]) > atol):
        return math.inf
    w = ScalarPath(times=traj.times, values=traj.states[:, 0].copy())
    return action_I(model, w)


def minimizing_control(model: AveragedModel, w: ScalarPath) -> ControlPath:
    """The control achieving the action value of w through the skeleton equation."""
    fbar, h = _path_quantities(model, w.values)
    c = (path_derivative(w.values, w.dt) - fbar) / h
    w_h, w_z = model.weights
    row_h = model.row_h(w.values)                    # (n, N)
    row_z = model.row_z()
    phi_h = w_h * c[:, None] * row_h
    phi_z = w_z * np.outer(c, row_z)
    return ControlPath(times=w.times, phi_h=phi_h, phi_z=phi_z)


def control_cost(control: ControlPath) -> float:
    """1/2 |phi|^2 in L2(0, T; V)."""
    return 0.5 * control.norm_sq_l2v()


def _discrete_action_and_grad(model: AveragedModel, times: np.ndarray, values: np.ndarray):
    """Action of the nodal path and its gradient with respect to all nodes."""
    n = len(times)
    dt = times[1] - times[0]
    fbar, h = _path_quantities(model, values)
    fbar_p = model.f_bar_prime(values)
    h_p = model.h_prime(values)
    d = path_derivative(values, dt) - fbar
    tau = np.full(n, dt)
    tau[0] = tau[-1] = dt / 2.0
    action = float((tau * 0.5 * d**2 / h).sum())
    # gradient: adjoint of the derivative stencil plus the local F_bar / H terms
    q = tau * d / h
    grad = np.zeros(n)
    grad[0] += -q[0] / dt
    grad[1] += q[0] / dt
    grad[-2] += -q[-1] / dt
    grad[-1] += q[-1] / dt
    grad[2:] += q[1:-1] / (2.0 * dt)
    grad[:-2] += -q[1:-1] / (2.0 * dt)
    grad += -tau * d / h * fbar_p - 0.5 * tau * d**2 / h**2 * h_p
    return action, grad


@dataclass
class MinimizedPath:
    path: ScalarPath
    value: float
    n_iter: int


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported at the first call: runs that solve no
    path action never load scipy."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


def minimize_path_action(
    model: AveragedModel,
    t_span: tuple[float, float],
    w_start: float,
    w_end: float,
    n_nodes: int,
    init: np.ndarray | None = None,
    gtol: float = GRAD_TOL,
    max_iter: int = MAX_ITER,
) -> MinimizedPath:
    """Minimize the discrete action over interior nodes with fixed endpoints.

    Limited-memory quasi-Newton (L-BFGS-B) with the analytic gradient,
    initialized from the straight line unless init is given; converged when
    the projected gradient infinity norm drops below gtol, raising
    OptimizationError (carrying the best value) after max_iter iterations.
    """
    t0, t1 = t_span
    if not t1 > t0:
        raise ValueError("empty time span")
    if n_nodes < 3:
        raise ValueError("need at least 3 nodes")
    times = np.linspace(t0, t1, n_nodes)
    base = np.linspace(w_start, w_end, n_nodes) if init is None else np.asarray(init, dtype=float).copy()
    base[0], base[-1] = w_start, w_end

    def objective(interior):
        vals = base.copy()
        vals[1:-1] = interior
        a, g = _discrete_action_and_grad(model, times, vals)
        return a, g[1:-1]

    res = minimize(
        objective,
        base[1:-1],
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": max_iter, "gtol": gtol, "ftol": 1e-16, "maxfun": 10 * max_iter},
    )
    vals = base.copy()
    vals[1:-1] = res.x
    path = ScalarPath(times=times, values=vals)
    if not (res.success or np.max(np.abs(res.jac)) < 10 * gtol):
        raise OptimizationError("path action minimization did not converge", best_value=float(res.fun))
    return MinimizedPath(path=path, value=float(res.fun), n_iter=int(res.nit))


def prefix_action_J(
    model: AveragedModel, x_mean: float, y_delta: float, delta: float, n_nodes: int = 101
) -> float:
    """Minimal action to steer from <x, mu> to y over the window [0, delta].

    This is the prefix cost of the two-stage decomposition of the action with
    a free initial layer: it depends only on the initial mean and the value
    the path must reach at time delta.
    """
    if delta <= 0:
        raise ValueError("delta must be strictly positive")
    return minimize_path_action(model, (0.0, delta), x_mean, y_delta, n_nodes).value


def quasi_potential_explicit(model: AveragedModel, y: float) -> float:
    """Closed-form quasi-potential V(y) = -(2/H) int_0^y min(F_bar(s), 0) ds for y > 0,
    with max for y < 0: only the climb against the averaged flow costs.

    Valid for additive noise (constant g), where H is constant; raises
    NotApplicableError otherwise.
    """
    if not model.is_additive:
        raise NotApplicableError("explicit quasi-potential requires additive noise (constant g)")
    h = float(model.h(0.0))
    if h <= 0:
        raise NondegeneracyError("noise intensity H is not positive")
    if y == 0.0:
        return 0.0
    clip = np.minimum if y > 0 else np.maximum
    # cut [0, y] at the sign changes of F_bar, so the clipped integrand is
    # smooth on each piece, and apply a fixed Gauss-Legendre rule per piece
    sample = np.linspace(0.0, y, 65)
    f = model.f_bar(sample)
    cuts = list(sample[1:-1][f[1:-1] == 0.0])
    crossings = np.flatnonzero(f[:-1] * f[1:] < 0)
    if crossings.size:  # scipy loads only for a drift that changes sign on [0, y]
        from scipy.optimize import brentq

        cuts += [brentq(model.f_bar, *sorted(sample[i:i + 2])) for i in crossings]
    ends = [0.0, *sorted(cuts, key=abs), y]
    nodes, weights = np.polynomial.legendre.leggauss(64)
    integral = 0.0
    for a, b in zip(ends, ends[1:]):
        s = a + 0.5 * (b - a) * (nodes + 1.0)
        integral += 0.5 * (b - a) * float((weights * clip(model.f_bar(s), 0.0)).sum())
    return -2.0 * integral / h


def quasi_potential_variational(
    model: AveragedModel, y: float, horizons=(2.0, 4.0, 8.0), n_nodes: int = 200
) -> float:
    """Variational quasi-potential: minimal action from 0 to y, free horizon.

    The free terminal time is handled by an outer minimum over the horizon
    grid; appending larger horizons can only decrease the value.
    """
    if y == 0.0:
        return 0.0
    best = math.inf
    for t_end in horizons:
        best = min(best, minimize_path_action(model, (0.0, float(t_end)), 0.0, y, n_nodes).value)
    return best


def v_bar(model: AveragedModel, domain, horizons=(2.0, 4.0, 8.0), n_nodes: int = 200) -> float:
    """Quasi-potential infimum over the domain boundary.

    For domains whose intersection with the constant states is the interval
    (y1, y2), this is min(V(y1), V(y2)); the explicit formula is used when
    the model is additive, the variational minimization otherwise.
    """
    y1, y2 = domain.constant_section
    if model.is_additive:
        return min(quasi_potential_explicit(model, y1), quasi_potential_explicit(model, y2))
    return min(
        quasi_potential_variational(model, y1, horizons, n_nodes),
        quasi_potential_variational(model, y2, horizons, n_nodes),
    )

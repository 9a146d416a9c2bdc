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
1/2 |phi_hat|^2_{L2(V)} = I(w), exactly at the discrete level, and the
skeleton ODE driven by phi_hat reproduces w up to the O(dt^2) of the
derivative stencil and the control's interpolation; both identities are the
backbone of the test suite, and the `action` run reports both.

Quasi-potential: V(y) = inf over horizons T and paths 0 -> y of I; computed
either from the closed form V(y) = (2/H) int_0^y max(-F_bar(s), 0) ds for
y > 0, mirrored for y < 0 (additive noise, constant H),
or variationally by a banded Newton minimization over interior path nodes
with the exact gradient and pentadiagonal Hessian of the discrete action,
started from the exact minimizer of the action with F_bar linearized at the
start state, and an outer minimum over a horizon grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coefficients import AveragedModel
from .errors import NondegeneracyError, NotApplicableError, OptimizationError
from .solver import ScalarPath, write_csv

__all__ = [
    "ControlPath",
    "action_I",
    "minimizing_control",
    "control_cost",
    "minimize_path_action",
    "quasi_potential_explicit",
    "quasi_potential_variational",
    "v_bar",
]

GRAD_TOL = 1e-8
MAX_ITER = 200
ARMIJO = 1e-4     # sufficient-decrease constant of the backtracking line search
MIN_STEP = 1e-12  # the shortest step fraction the line search tries
F_ROUND = 1e-13   # a decrease below this fraction of the action is lost in its rounding
LINEAR_KT = 1e-8  # below this k T the linearized start is the straight line


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
    """F_bar and H at the nodes, once H is known to stay positive between them too.

    The piecewise-linear path visits every state between its least and largest
    node, so that is where H must not vanish."""
    if not model.h_min(float(values.min()), float(values.max()))[0] > 0.0:
        raise NondegeneracyError("noise intensity H vanishes on the path")
    return model.f_bar(values), model.h(values)


def action_I(model: AveragedModel, w: ScalarPath) -> float:
    """Trapezoidal discrete action 1/2 int (w' - F_bar)^2 / H dt."""
    fbar, h = _path_quantities(model, w.values)
    resid = path_derivative(w.values, w.dt) - fbar
    dens = 0.5 * resid**2 / h
    return float(np.trapezoid(dens, w.times))


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


@lru_cache(maxsize=16)
def _stencil(n: int, dt: float):
    """What the discrete action takes from its grid of n nodes and step dt alone.

    The trapezoid weights tau, the off-diagonals of the derivative stencil D
    by rows, lo[i] = D[i, i - 1] and up[i] = D[i, i + 1] (D's diagonal is
    -1/dt and 1/dt at the endpoints, 0 between them), and the products
    lo[i + 1]^2, up[i]^2 and lo[i + 1] up[i + 1] that the Hessian bands use.
    """
    tau = np.full(n, dt)
    tau[0] = tau[-1] = dt / 2.0
    lo = np.full(n, -0.5 / dt)
    up = np.full(n, 0.5 / dt)
    lo[0] = up[-1] = 0.0
    up[0] = 1.0 / dt
    lo[-1] = -1.0 / dt
    out = (tau, lo, up, lo[1:] ** 2, up[:-1] ** 2, lo[1:-1] * up[1:-1])
    for arr in out:
        arr.flags.writeable = False
    return out


def _action_derivatives(model: AveragedModel, times: np.ndarray, values: np.ndarray):
    """Action of the nodal path, its gradient and the upper bands of its Hessian.

    With the residual d = D w - F_bar(w) of the derivative stencil D, its
    Jacobian J = D - diag(F_bar'), the trapezoid weights tau and S = diag(tau / H),
    the action is 1/2 d^T S d.  J is tridiagonal, so the Hessian

        J^T S J - (J^T R + R J) + diag(-q F_bar'' + r d H' / H - 1/2 q d H'' / H),

    with q = S d and R = diag(r), r = q H' / H, is pentadiagonal:
    bands[k, i] = Hess[i, i + k] for k = 0, 1, 2 (zero past the last node).
    """
    n = len(times)
    dt = float(times[1] - times[0])
    tau, lo, up, lo_sq, up_sq, lo_up = _stencil(n, dt)
    fbar, h = _path_quantities(model, values)
    h_p = model.h_prime(values)
    d = path_derivative(values, dt) - fbar
    s = tau / h
    q = s * d
    action = 0.5 * float(q @ d)
    # J's diagonal; its off-diagonals are D's, lo and up
    di = -model.f_bar_prime(values)
    di[0] -= 1.0 / dt
    di[-1] += 1.0 / dt
    r = q * h_p / h
    grad = di * q - 0.5 * r * d
    grad[:-1] += lo[1:] * q[1:]
    grad[1:] += up[:-1] * q[:-1]
    sdi = s * di
    bands = np.zeros((3, n))
    bands[0] = (sdi - 2.0 * r) * di - q * model.f_bar_second(values)
    bands[0] += (r * h_p - 0.5 * q * model.h_second(values)) * d / h
    bands[0, :-1] += s[1:] * lo_sq
    bands[0, 1:] += s[:-1] * up_sq
    bands[1, :-1] = (sdi[:-1] - r[:-1]) * up[:-1] + (sdi[1:] - r[1:]) * lo[1:]
    bands[2, :-2] = s[1:-1] * lo_up
    return action, grad, bands


def _solve_pentadiagonal(bands: np.ndarray, rhs: np.ndarray, shift: float = 0.0) -> np.ndarray | None:
    """Solve (A + shift I) x = rhs by LDL^T for symmetric pentadiagonal A, bands[k, i] = A[i, i + k].

    One pass factors and substitutes forward, a second substitutes back.
    Returns None at the first pivot that is not positive, that is when
    A + shift I is not positive definite.
    """
    a1 = [0.0, *bands[1].tolist()]        # a1[i] = A[i - 1, i]
    a2 = [0.0, 0.0, *bands[2].tolist()]   # a2[i] = A[i - 2, i]
    y, l1, l2 = [], [], []                # (D^-1 L^-1 rhs)[i], L[i, i - 1], L[i, i - 2]
    p2, p1, c1 = 1.0, 1.0, 0.0            # D[i - 2], D[i - 1], L[i - 1, i - 2]
    z2 = z1 = 0.0                         # (L^-1 rhs)[i - 2], (L^-1 rhs)[i - 1]
    for a0i, a1i, a2i, f in zip(bands[0].tolist(), a1, a2, rhs.tolist()):
        e = a1i - a2i * c1                # L[i, i - 1] D[i - 1]
        b = a2i / p2
        c = e / p1
        p = a0i + shift - b * a2i - c * e
        if not p > 0.0:
            return None
        z = f - c * z1 - b * z2
        y.append(z / p)
        l1.append(c)
        l2.append(b)
        p2, p1, c1, z2, z1 = p1, p, c, z1, z
    # back substitution, x[i] = y[i] - L[i + 1, i] x[i + 1] - L[i + 2, i] x[i + 2]: once x[i]
    # is known, its terms in x[i - 1] and x[i - 2] are carried in t1 and t2
    x, t1, t2 = [], 0.0, 0.0
    for yi, c, b in zip(reversed(y), reversed(l1), reversed(l2)):
        xi = yi - t1
        x.append(xi)
        t1, t2 = t2 + c * xi, b * xi
    return np.array(x[::-1])


def _newton_direction(bands: np.ndarray, grad: np.ndarray) -> np.ndarray | None:
    """-(Hess + mu I)^-1 grad with the least mu >= 0 on the ladder 0, then
    doubling from 1e-3 max(|Hess_ii|, 1), that makes the shifted Hessian
    positive definite; None if none of 64 rungs does."""
    rhs = -grad
    step = _solve_pentadiagonal(bands, rhs)
    if step is not None:
        return step
    mu = 1e-3 * max(float(np.abs(bands[0]).max()), 1.0)
    for _ in range(63):
        step = _solve_pentadiagonal(bands, rhs, mu)
        if step is not None:
            return step
        mu *= 2.0
    return None


def _linearized_start(model: AveragedModel, times: np.ndarray, a: float, b: float) -> np.ndarray:
    """The exact minimizer of the action from a to b with F_bar linearized at a and H frozen there.

    With f1 = F_bar'(a), k = |f1| and w_eq = a - F_bar(a) / f1, the Euler-Lagrange
    equation w'' = k^2 (w - w_eq) gives, with s = t - t0 and T = t1 - t0,

        w = w_eq + (a - w_eq) S(T - s) + (b - w_eq) S(s),   S(s) = sinh(k s) / sinh(k T),

    S evaluated as e^(k (s - T)) (1 - e^(-2 k s)) / (1 - e^(-2 k T)), so that a
    large k T cannot overflow.  Below k T = LINEAR_KT it is the straight line, the
    k -> 0 limit: the two differ there by about k T^2 |F_bar(a)|, no more than
    the rounding of the large w_eq would add.  The path is clipped to
    [min(a, b), max(a, b)], so it visits only the states the straight line visits.
    """
    s = times - times[0]
    t_len = float(s[-1])
    f1 = float(model.f_bar_prime(a))
    k = abs(f1)
    if not k * t_len >= LINEAR_KT:
        return np.linspace(a, b, len(times))
    w_eq = a - float(model.f_bar(a)) / f1
    denom = -math.expm1(-2.0 * k * t_len)

    def ratio(x):
        return np.exp(k * (x - t_len)) * -np.expm1(-2.0 * k * x) / denom

    w = w_eq + (a - w_eq) * ratio(t_len - s) + (b - w_eq) * ratio(s)
    return np.clip(w, min(a, b), max(a, b))


@dataclass
class MinimizedPath:
    path: ScalarPath
    value: float
    n_iter: int


@dataclass
class NewtonResult:
    x: np.ndarray
    fun: float
    jac: np.ndarray
    success: bool
    nit: int
    nfev: int


def minimize(objective, x0, gtol: float = GRAD_TOL, max_iter: int = MAX_ITER) -> NewtonResult:
    """Banded Newton: damped Newton minimization of a function with a pentadiagonal Hessian.

    objective(x) returns (value, gradient, bands) with bands[k, i] =
    Hess[i, i + k], and raises NondegeneracyError where the function is not
    defined.  Each iteration factors the Hessian by LDL^T, shifted by mu I
    when it is not positive definite, and backtracks from the full step until
    the Armijo condition holds at a point where the objective is defined.
    When the decrease the step predicts, -gradient . step, is below F_ROUND of
    the value, the value cannot tell a better point from rounding: a trial is
    then accepted as well where the value stays within that rounding and the
    gradient's largest entry falls.  Success means max |gradient| < gtol
    within max_iter iterations; a line search that finds neither ends the run
    unsuccessfully.
    """
    x = np.array(x0, dtype=float)
    fun, jac, bands = objective(x)
    nit, nfev = 0, 1
    g_max = np.max(np.abs(jac), initial=0.0)
    while not g_max < gtol and nit < max_iter:
        step = _newton_direction(bands, jac)
        if step is None:
            break
        nit += 1
        slope = float(jac @ step)
        rounding = F_ROUND * abs(fun)
        alpha = 1.0
        while alpha >= MIN_STEP:
            trial = x + alpha * step
            nfev += 1
            try:
                t_fun, t_jac, t_bands = objective(trial)
            except NondegeneracyError:
                alpha *= 0.5
                continue
            t_max = np.max(np.abs(t_jac), initial=0.0)
            if t_fun <= fun + ARMIJO * alpha * slope:
                break
            if -slope <= rounding and t_fun <= fun + rounding and t_max < g_max:
                break
            alpha *= 0.5
        else:
            break
        x, fun, jac, bands, g_max = trial, t_fun, t_jac, t_bands, t_max
    success = bool(g_max < gtol)
    return NewtonResult(x=x, fun=fun, jac=jac, success=success, nit=nit, nfev=nfev)


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

    Banded Newton with the exact gradient and pentadiagonal Hessian, started
    from init or else from the exact minimizer of the action with F_bar
    linearized at w_start and H frozen there (`_linearized_start`); converged
    when the gradient infinity norm drops below gtol, raising OptimizationError
    (carrying the best value) otherwise after max_iter iterations.
    """
    t0, t1 = t_span
    if not t1 > t0:
        raise ValueError("empty time span")
    if n_nodes < 3:
        raise ValueError("need at least 3 nodes")
    times = np.linspace(t0, t1, n_nodes)
    if init is None:
        base = _linearized_start(model, times, w_start, w_end)
    else:
        base = np.asarray(init, dtype=float).copy()
    base[0], base[-1] = w_start, w_end

    def objective(interior):
        vals = base.copy()
        vals[1:-1] = interior
        a, g, bands = _action_derivatives(model, times, vals)
        return a, g[1:-1], bands[:, 1:-1]

    res = minimize(objective, base[1:-1], gtol=gtol, max_iter=max_iter)
    vals = base.copy()
    vals[1:-1] = res.x
    path = ScalarPath(times=times, values=vals)
    if not res.success:
        raise OptimizationError("path action minimization did not converge", best_value=float(res.fun))
    return MinimizedPath(path=path, value=float(res.fun), n_iter=int(res.nit))


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
    # cut [0, y] at F_bar's one root (F_bar is monotone), so the clipped
    # integrand is smooth on each piece, and apply a fixed Gauss-Legendre rule per piece
    root = model.f_bar_root
    ends = [0.0, root, y] if min(0.0, y) < root < max(0.0, y) else [0.0, y]
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

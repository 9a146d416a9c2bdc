"""The SPDE stepper and the one driver that runs path ensembles with it.

`SpdeStepper` advances a (P, N) batch of mode coefficients by one
mild-solution step on a panel of standard normals, both noise channels
included.  `run_ensemble` gives every path its own counter-based stream, so
a path's draws depend only on (seed, level, path, step): a live path draws
one (n_panels, N) panel per step, in chunks of steps, and a path that has
left draws nothing more.  Only the live rows are stepped: each thread packs
the live rows of its share of the paths into tiles of at most BLOCK_SIZE
rows.  A step with a state-dependent gain pads its last tile to BLOCK_SIZE
rows, so each of its products keeps one shape; any other step pads only a
single-row last tile, to two rows.  That a row's result does not depend on
the other rows at any tile height from 2 to BLOCK_SIZE is a property of the
BLAS, not of this code (a 1-row product takes another kernel), and
`test_run_ensemble_tiles_keep_surviving_rows` guards it for both kinds of
step.  Results are therefore independent of the total path count, the thread
count, and the execution schedule.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING

import numpy as np

from .coefficients import AveragedModel
from .noise import RngStream, boundary_coupling, decay_integral, ou_step_weights

if TYPE_CHECKING:
    from .solver import MultiscaleParams

BLOCK_SIZE = 64
DIVERGENCE_LIMIT = 1e12
# A path draws the normals of DRAW_STEPS steps at a time, fewer when a share's
# buffer would pass DRAW_BYTES; the chunk length never changes a value.
DRAW_STEPS = 32
DRAW_BYTES = 8 << 20
# Names the draw layout of a seeded run (recorded in run_manifest.json): path p
# draws one (n_panels, N) panel per step from stream stream_base | p; its last
# panel is the additive noise, drawn through the factor of its joint covariance.
NOISE_DRAW_LAYOUT = "path-major/v3"


def map_blocks(fn, n_paths: int, threads: int = 1):
    """Split the paths into one range per thread, cut at multiples of BLOCK_SIZE; return [fn(share), ...]."""
    n_blocks = -(-n_paths // BLOCK_SIZE)
    n_shares = max(1, min(threads, n_blocks))
    q, r = divmod(n_blocks, n_shares)
    cuts = [min(n_paths, (k * q + min(k, r)) * BLOCK_SIZE) for k in range(n_shares + 1)]
    shares = [range(a, b) for a, b in zip(cuts, cuts[1:])]
    if n_shares == 1:
        return [fn(shares[0])]
    with ThreadPoolExecutor(max_workers=n_shares) as pool:
        return list(pool.map(fn, shares))


class SpdeStepper:
    """One-step mild-solution update of (model, params), vectorized over a batch of paths.

    The linear part is integrated exactly (diagonal exponential), the
    reaction term with the phi1 weight.  The additive noise of a step is one
    centered Gaussian vector with the exact covariance C = C_B + C_Q,

        C_B[k, l] = beta^2 sum_j theta_j^2 b_kj b_lj W_kl,   W_kl = int_0^dt exp(-(a_k + a_l) s) ds,
        C_Q = diag((alpha g lambda_k)^2 v_k),

    a_k = alpha_k / eps, with lambda and theta the model's eigenvalues of
    sqrt(Q) and sqrt(B), drawn as z @ R with R^T R = C (a Cholesky factor
    that tolerates a singular C).  C_Q enters C only
    for a constant gain g.  A state-dependent gain is an approximation: the
    interior channel keeps its own panel with the diagonal law
    sum_j (lambda_j M_kj)^2 v_k, M_kj = <g e_j, e_k> frozen at the step start,
    and drops the cross-mode covariance of M Lambda.  M Lambda comes from one
    matrix product of the weighted gain values with a table precomputed for
    the basis, T[m, (k, j)] = e_k(x_m) e_j(x_m) lambda_j, so like every other
    product of a step it keeps a row's result independent of the other rows
    at a fixed row count.  Optional deterministic control forcing enters with
    the phi1 weight.  Panel order per step: the interior panel
    (state-dependent g only) first, the additive panel last.
    """

    def __init__(
        self,
        model: AveragedModel,
        params: MultiscaleParams,
        dt: float,
        control=None,
        control_weights: tuple[float, float] | None = None,
    ):
        op = self.op = model.op
        cs = self.cs = model.coeffs
        alpha, beta, eps = params.alpha, params.beta, params.eps
        self.dt = dt
        self.decay, v = ou_step_weights(op.eigenvalues, eps, dt)
        self.sqrt_v = np.sqrt(v)
        self.phi1dt = decay_integral(op.eigenvalues / eps, dt)  # dt phi1(-alpha dt / eps)
        self.lambdas = model.q_lambdas
        self.g_const = cs.g.constant_value if cs.g.is_constant else None
        sigma_vals = cs.sigma.values()
        rates = op.eigenvalues / eps
        tb = model.b_thetas * boundary_coupling(op, sigma_vals)  # theta_j b_kj
        cov = beta**2 * (tb @ tb.T) * decay_integral(rates[:, None] + rates[None, :], dt)
        if self.g_const is not None:
            cov += np.diag((alpha * self.g_const * self.lambdas) ** 2 * v)
            self.has_q = False
        else:
            self.q_scale = alpha
            self.has_q = alpha != 0.0 and np.any(self.lambdas > 0)
            if self.has_q:  # T[m, (k, j)] = e_k(x_m) e_j(x_m) lambda_j, so g w @ T is M Lambda
                e = op.modes_on_grid.T
                self._mode_products = (e[:, :, None] * (e * self.lambdas)[:, None, :]).reshape(e.shape[0], -1)
        self.factor = _psd_factor(cov) if np.any(cov != 0.0) else None
        self.n_panels = int(self.has_q) + int(self.factor is not None)
        self.control = control
        if control is not None:
            if control_weights is None:
                if params.gamma == 0:
                    raise ValueError("control weights must be given explicitly when alpha = beta = 0")
                control_weights = (alpha / np.sqrt(params.gamma), beta / np.sqrt(params.gamma))
            self.cw_h, self.cw_z = control_weights
            self._theta_sigma = model.b_thetas * sigma_vals

    def draw(self, gen, rows: int) -> np.ndarray | None:
        """The standard normals of one step for `rows` rows: (n_panels, rows, N), or None."""
        return gen.standard_normal((self.n_panels, rows, self.op.n_modes)) if self.n_panels else None

    def step(self, t: float, u: np.ndarray, z: np.ndarray | None) -> np.ndarray:
        """Advance a (P, N) batch of mode coefficients from t to t + dt on the panel z = draw(gen, P)."""
        op = self.op
        grid_u = u @ op.modes_on_grid
        f_vals = self.cs.f.value(op.grid, grid_u)
        f_modes = (f_vals * op.quad_weights) @ op.modes_on_grid.T
        new = self.decay * u + self.phi1dt * f_modes
        needs_g = self.has_q or (self.control is not None and self.g_const is None)
        g_vals = self.cs.g.value(op.grid, grid_u) if needs_g else None
        if self.control is not None:
            new += self.phi1dt * self._control_forcing(t, g_vals)
        if self.has_q:
            m_lam = ((g_vals * op.quad_weights) @ self._mode_products).reshape(u.shape[0], op.n_modes, -1)
            var = np.einsum("pkj,pkj->pk", m_lam, m_lam)
            new += self.q_scale * np.sqrt(var) * self.sqrt_v * z[0]
        if self.factor is not None:
            new += z[-1] @ self.factor
        return new

    def _control_forcing(self, t: float, g_vals: np.ndarray | None) -> np.ndarray:
        """The control's forcing at t; g_vals are the gain's grid values (None for a constant gain)."""
        phi_h, phi_z = self.control(t)
        op = self.op
        sq_phi = self.lambdas * phi_h  # sqrt(Q) phi_H in modes
        if self.g_const is not None:
            interior = self.cw_h * self.g_const * sq_phi
        else:
            sq_grid = sq_phi @ op.modes_on_grid
            interior = self.cw_h * ((g_vals * sq_grid * op.quad_weights) @ op.modes_on_grid.T)
        bnd = self.cw_z * (op.boundary_values @ (self._theta_sigma * phi_z))
        return interior + bnd


def _psd_factor(cov: np.ndarray) -> np.ndarray:
    """Upper-triangular R with R^T R = cov for a positive semi-definite cov (outer-product Cholesky).

    A pivot at or below 1e-13 of the largest diagonal entry is taken for the
    rounding residue of a singular cov (a mode no noise reaches), and its row
    of R is zero.  Plain numpy rather than a LAPACK factorization, whose code
    would add about 1 MB to the resident memory of a run.
    """
    a = cov.copy()
    r = np.zeros_like(a)
    tol = 1e-13 * a.diagonal().max()
    for k in range(a.shape[0]):
        if a[k, k] > tol:
            r[k, k:] = a[k, k:] / np.sqrt(a[k, k])
            a[k:, k:] -= np.outer(r[k, k:], r[k, k:])
    return r


def block_stream(seed: int, stream: int) -> RngStream:
    return RngStream(seed=seed, stream=stream)


def diverged_mask(u: np.ndarray) -> np.ndarray:
    """Per-path divergence flag for a (P, N) state batch: |u| above the limit, NaN or inf."""
    return ~(np.einsum("...k,...k->...", u, u) <= DIVERGENCE_LIMIT**2)


def run_ensemble(stepper: SpdeStepper, x0: np.ndarray, n_paths: int, n_steps: int,
                 seed: int, stream_base: int, threads: int, observer) -> list[np.ndarray]:
    """Step n_paths copies of x0 for up to n_steps steps; return per-path columns.

    Each thread steps its share of the paths together.  observer(u0) starts
    the measurement of a share, u0 holding one row per path.  Path p draws
    from stream stream_base | p: every few steps each live path refills its
    own buffer with one draw, and step i (from i dt to (i + 1) dt) reads its
    panel for i.  The live rows are gathered, in path order, into padded
    tiles (module docstring) and stepped.  The rows that diverged are zeroed
    and cleared from `live`, then observe(i, u, idx, live, bad) runs on the
    live rows u, whose share-row indices are idx, and may clear more rows
    from `live`.  A share stops once no row is live; finish(live) gets the
    share-wide mask of rows still live and returns per-row columns.
    """
    n_modes, n_panels = x0.shape[0], stepper.n_panels

    def run_share(paths):
        n_rows = len(paths)
        u = np.tile(x0, (n_rows, 1))
        obs = observer(u)
        idx = np.arange(n_rows)
        if n_panels:
            gens = [block_stream(seed, stream_base | p)._gen for p in paths]
            n_draw = max(1, min(DRAW_STEPS, DRAW_BYTES // (8 * n_rows * n_panels * n_modes)))
            buf = np.empty((n_rows, n_draw, n_panels, n_modes))
        retired = True
        for i in range(n_steps):
            if retired:  # re-plan the tiles for the new live rows
                n = idx.size
                if n == 0:
                    break
                if stepper.has_q:
                    n_tile_rows = -(-n // BLOCK_SIZE) * BLOCK_SIZE
                else:  # no tile of a single row
                    n_tile_rows = n + (n % BLOCK_SIZE == 1)
                ut = np.zeros((n_tile_rows, n_modes))
                ut[:n] = u
                zt = np.zeros((n_panels, n_tile_rows, n_modes)) if n_panels else None
            if n_panels:
                j = i % n_draw
                if j == 0:
                    for p in idx.tolist():
                        gens[p].standard_normal(out=buf[p])
                zt[:, :n] = (buf[:, j] if n == n_rows else buf[idx, j]).swapaxes(0, 1)
            t = i * stepper.dt
            tiles = [stepper.step(t, ut[s:s + BLOCK_SIZE], None if zt is None else zt[:, s:s + BLOCK_SIZE])
                     for s in range(0, n_tile_rows, BLOCK_SIZE)]
            ut = tiles[0] if len(tiles) == 1 else np.concatenate(tiles)
            ut[n:] = 0.0
            u = ut[:n]
            bad = diverged_mask(u)
            live = ~bad
            if bad.any():
                u[bad] = 0.0
            obs.observe(i, u, idx, live, bad)
            retired = not live.all()
            if retired:
                idx, u = idx[live], u[live]
        live_end = np.zeros(n_rows, dtype=bool)
        live_end[idx] = True
        return obs.finish(live_end)

    shares = map_blocks(run_share, n_paths, threads)
    return [np.concatenate(cols) for cols in zip(*shares)]

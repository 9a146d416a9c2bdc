"""The SPDE stepper and the one block driver that runs path ensembles with it.

`SpdeStepper` advances a (P, N) batch of mode coefficients by one
mild-solution step, both noise channels included.  `run_ensemble` steps
paths in fixed-size blocks: path p lives in block p // BLOCK_SIZE at row
p % BLOCK_SIZE, and each block draws from its own counter-based stream.  Per
step a block draws the full (BLOCK_SIZE, n_modes) normal panel for each
active noise channel whether or not the block is fully populated, so a path's
draws depend only on (seed, block, step, row) and results are independent of
the total path count, the thread count, and the execution schedule.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .coefficients import CoefficientSet
from .noise import (
    CovarianceSpectrumB, CovarianceSpectrumQ, RngStream, boundary_coupling, decay_integral, ou_step_weights,
)
from .operator import SpectralOperator

BLOCK_SIZE = 64
DIVERGENCE_LIMIT = 1e12


def map_blocks(fn, n_paths: int, threads: int = 1):
    """Run fn(block_index, start, stop, rows) over all blocks, optionally threaded."""
    blocks = []
    for start in range(0, n_paths, BLOCK_SIZE):
        stop = min(start + BLOCK_SIZE, n_paths)
        blocks.append((start // BLOCK_SIZE, start, stop, stop - start))
    if threads <= 1 or len(blocks) == 1:
        return [fn(*blk) for blk in blocks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda blk: fn(*blk), blocks))


class SpdeStepper:
    """One-step mild-solution update, vectorized over a batch of paths.

    The linear part is integrated exactly (diagonal exponential), the
    reaction term with the phi1 weight, and both noise channels with their
    exact per-mode OU variances, the multiplicative gain frozen at the step
    start.  Optional deterministic control forcing enters with the same phi1
    weight.  Draw order per step: interior panel first, boundary panel second.
    """

    def __init__(
        self,
        op: SpectralOperator,
        cs: CoefficientSet,
        spec_q: CovarianceSpectrumQ,
        spec_b: CovarianceSpectrumB,
        alpha: float,
        beta: float,
        eps: float,
        dt: float,
        control=None,
        control_weights: tuple[float, float] | None = None,
    ):
        self.op = op
        self.cs = cs
        self.dt = dt
        self.decay, v = ou_step_weights(op.eigenvalues, eps, dt)
        self.sqrt_v = np.sqrt(v)
        self.phi1dt = decay_integral(op.eigenvalues / eps, dt)  # dt phi1(-alpha dt / eps)
        self.lambdas = spec_q.lambdas
        self.g_const = cs.g.constant_value if cs.g.is_constant else None
        sigma_vals = cs.sigma.values(0.0)
        b_rows = boundary_coupling(op, sigma_vals)
        self.b_std = beta * np.sqrt(((spec_b.thetas[None, :] * b_rows) ** 2).sum(axis=1)) * self.sqrt_v
        self.has_b = beta != 0.0 and np.any(self.b_std > 0)
        if self.g_const is not None:
            self.q_std = alpha * abs(self.g_const) * self.lambdas * self.sqrt_v
            self.has_q = alpha != 0.0 and np.any(self.q_std > 0)
        else:
            self.q_scale = alpha
            self.has_q = alpha != 0.0 and np.any(self.lambdas > 0)
        self.control = control
        if control is not None:
            if control_weights is None:
                gamma = (alpha + beta) ** 2
                if gamma == 0:
                    raise ValueError("control weights must be given explicitly when alpha = beta = 0")
                control_weights = (alpha / np.sqrt(gamma), beta / np.sqrt(gamma))
            self.cw_h, self.cw_z = control_weights
            self._theta_sigma = spec_b.thetas * sigma_vals

    def step(self, t: float, u: np.ndarray, gen) -> np.ndarray:
        """Advance a (P, N) batch of mode coefficients from t to t + dt."""
        op = self.op
        grid_u = u @ op.modes_on_grid
        f_vals = self.cs.f.value(t, op.grid, grid_u)
        f_modes = (f_vals * op.quad_weights) @ op.modes_on_grid.T
        new = self.decay * u + self.phi1dt * f_modes
        if self.control is not None:
            new += self.phi1dt * self._control_forcing(t, grid_u)
        if self.has_q:
            z = gen.standard_normal(u.shape)
            if self.g_const is not None:
                new += self.q_std * z
            else:
                g_vals = self.cs.g.value(t, op.grid, grid_u)
                m_mat = np.einsum(
                    "pm,km,jm->pkj", g_vals * op.quad_weights, op.modes_on_grid, op.modes_on_grid
                )
                var = ((m_mat * self.lambdas[None, None, :]) ** 2).sum(axis=2)
                new += self.q_scale * np.sqrt(var) * self.sqrt_v * z
        if self.has_b:
            z = gen.standard_normal(u.shape)
            new += self.b_std * z
        return new

    def _control_forcing(self, t: float, grid_u: np.ndarray) -> np.ndarray:
        phi_h, phi_z = self.control(t)
        op = self.op
        sq_phi = self.lambdas * phi_h  # sqrt(Q) phi_H in modes
        if self.g_const is not None:
            interior = self.cw_h * self.g_const * sq_phi
        else:
            sq_grid = sq_phi @ op.modes_on_grid
            g_vals = self.cs.g.value(t, op.grid, grid_u)
            interior = self.cw_h * ((g_vals * sq_grid * op.quad_weights) @ op.modes_on_grid.T)
        bnd = self.cw_z * (op.boundary_values @ (self._theta_sigma * phi_z))
        return interior + bnd


def block_stream(seed: int, block_index: int) -> RngStream:
    return RngStream(seed=seed, stream=block_index)


def diverged_mask(u: np.ndarray) -> np.ndarray:
    """Per-path divergence flag for a (P, N) state batch."""
    bad = ~np.isfinite(u) | (np.abs(u) > DIVERGENCE_LIMIT)
    return bad.any(axis=-1)


def run_ensemble(stepper: SpdeStepper, x0: np.ndarray, n_paths: int, n_steps: int,
                 seed: int, stream_base: int, threads: int, observer) -> list[np.ndarray]:
    """Step n_paths copies of x0 for up to n_steps steps; return per-path columns.

    observer(u0) starts the measurement of a block.  After step i (from i dt
    to (i + 1) dt) the rows that diverged on it are zeroed and cleared from
    `live`, then observe(i, u, live, bad) runs and may clear more rows from
    `live`.  A block stops once no row is live; finish(live) returns its
    per-row columns.  Block b draws from stream stream_base | b.
    """

    def run_block(b, start, stop, rows):
        gen = block_stream(seed, stream_base | b)._gen
        u = np.tile(x0, (BLOCK_SIZE, 1))
        obs = observer(u)
        live = np.ones(BLOCK_SIZE, dtype=bool)
        for i in range(n_steps):
            if not live.any():
                break
            u = stepper.step(i * stepper.dt, u, gen)
            bad = diverged_mask(u) & live
            if bad.any():
                live &= ~bad
                u[bad] = 0.0
            obs.observe(i, u, live, bad)
        return [col[:rows] for col in obs.finish(live)]

    blocks = map_blocks(run_block, n_paths, threads)
    return [np.concatenate(cols) for cols in zip(*blocks)]

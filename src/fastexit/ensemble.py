"""The SPDE stepper and the one driver that runs path ensembles with it.

`SpdeStepper` advances a (P, N) batch of mode coefficients by one
mild-solution step on a panel of standard normals, both noise channels
included: one product [u | 1 | z] @ B, plus the terms that need the state on
the grid (a reaction shape other than the identity, the interior term of a
state-dependent gain).
`run_ensemble` gives every path its own counter-based stream, so a path's
draws depend only on (seed, level, path, step): a live path draws one
(n_panels, N) panel per step, in chunks of steps, and a path that has left
draws nothing more.  It steps, checks for divergence and observes a chunk
at a time, so that fixed per-step work is paid once per chunk; a chunk of n
live rows runs about CHUNK_ROW_STEPS / n steps, so that it holds about as
many row-steps however few paths are left.  Only the rows live at a chunk's
start are stepped: each thread gathers the live rows of its share of the
paths, with their draws, into its chunk buffer of rows [u | 1 | z] (one
workspace allocated once per share, viewed at each chunk's shape), which
`SpdeStepper.step_chunk` steps in tiles of at most BLOCK_SIZE rows.  A chunk
of more than BLOCK_SIZE rows is padded to whole BLOCK_SIZE-row tiles, so each
product of a step keeps one shape and the chunk is a stack of whole tiles
that one call per product steps (numpy still calls the BLAS once per tile);
a chunk of at most BLOCK_SIZE rows is one tile of its own height, a single
row padded to two.  That a row's result does not depend on the
other rows at any tile height from 2 to BLOCK_SIZE is a property of the
BLAS, not of this code (a 1-row product takes another kernel), and
`test_run_ensemble_tiles_keep_surviving_rows` guards it for both kinds of
noise and both kinds of reaction.  Results are therefore independent of the
total path count, the thread count, and the execution schedule.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .coefficients import AveragedModel
from .noise import RngStream, boundary_coupling, decay_integral, ou_step_weights
from .operator import cosine_product_moments

if TYPE_CHECKING:
    from .solver import MultiscaleParams

BLOCK_SIZE = 64
DIVERGENCE_LIMIT = 1e12
# A chunk of steps is drawn, stepped, checked for divergence and observed at
# once.  A chunk of n live rows runs CHUNK_ROW_STEPS // n steps, never fewer
# than DRAW_STEPS, and fewer only where the steps left end sooner or where its
# [u | 1 | z] buffer would pass DRAW_BYTES (never fewer than one step), which
# bounds each share's workspace as well.  The chunk length never changes a value.
DRAW_STEPS = 32
CHUNK_ROW_STEPS = 4096
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
    from concurrent.futures import ThreadPoolExecutor  # imported here: it loads logging, which a 1-thread run skips

    with ThreadPoolExecutor(max_workers=n_shares) as pool:
        return list(pool.map(fn, shares))


class SpdeStepper:
    """One-step mild-solution update of (model, params), vectorized over a batch of paths.

    The linear part is integrated exactly (diagonal exponential), the
    reaction f = a_f(xi) phi_f(r) + b_f(xi) with the phi1 weight.  A step is
    one product [u | 1 | z] @ B, `affine` B = [K; c; 0; R], plus what needs
    the state on the grid: K = diag(decay), c = phi1dt (b_f w) E^T, E the
    modes on the grid and w the quadrature weights, zero rows under the
    interior panel (a state-dependent gain only) and R under the additive
    one (noise only).  With the identity shape (kinds constant, linear,
    linear_plus_source) the reaction folds into K, which gains
    (E diag(a_f w) E^T) diag(phi1dt); any other shape adds phi_f(u @ E) @ F,
    F = diag(a_f w) E^T diag(phi1dt), after the product.  The state goes to
    the grid once per step, and only when f's shape or the gain needs grid
    values.  The additive noise of a step is one centered Gaussian vector
    with the exact covariance C = C_B + C_Q,

        C_B[k, l] = beta^2 sum_j theta_j^2 b_kj b_lj W_kl,   W_kl = int_0^dt exp(-(a_k + a_l) s) ds,
        C_Q = diag((alpha g lambda_k)^2 v_k),

    a_k = alpha_k / eps, with lambda and theta the model's eigenvalues of
    sqrt(Q) and sqrt(B), drawn as z @ R with R^T R = C (a Cholesky factor
    that tolerates a singular C).  C_Q enters C only
    for a constant gain g.  A state-dependent gain is an approximation: the
    interior channel keeps its own panel with the diagonal law
    sum_j (lambda_j M_kj)^2 v_k, M_kj = <g e_j, e_k> frozen at the step start,
    and drops the cross-mode covariance of M Lambda.  In the cosine basis
    e_k e_j = (s_k s_j / 2)(c_|k-j| + c_k+j) (`cosine_product_moments`), so
    M is Toeplitz plus Hankel in the 2N - 1 cosine moments of g w,
    g_hat = phi_g(u) @ (diag(a_g w) C) + (b_g w) @ C, and its upper triangle
    (M is symmetric) is g_hat @ P, one column per pair k <= j.  One more
    product of the squared triangle with A, A[(k, j), k] = alpha^2 v_k
    lambda_j^2 and A[(k, j), j] = alpha^2 v_j lambda_k^2, sums every mode's
    variance over j.  Like every other product of a step, these keep a row's
    result independent of the other rows at a fixed row count.  Panel order
    per step: the interior panel (state-dependent g only) first, the
    additive panel last.
    """

    def __init__(self, model: AveragedModel, params: MultiscaleParams, dt: float):
        op = self.op = model.op
        cs = self.cs = model.coeffs
        alpha, beta, eps = params.alpha, params.beta, params.eps
        self.dt = dt
        self.decay, v = ou_step_weights(op.eigenvalues, eps, dt)
        self.phi1dt = decay_integral(op.eigenvalues / eps, dt)  # dt phi1(-alpha dt / eps)
        lambdas = model.q_lambdas
        self.g_const = cs.g.constant_value if cs.g.is_constant else None
        rates = op.eigenvalues / eps
        tb = model.b_thetas * boundary_coupling(op, cs.sigma.values())  # theta_j b_kj
        cov = beta**2 * (tb @ tb.T) * decay_integral(rates[:, None] + rates[None, :], dt)
        if self.g_const is not None:
            cov += np.diag((alpha * self.g_const * lambdas) ** 2 * v)
            self.has_q = False
        else:
            self.has_q = bool(alpha != 0.0 and np.any(lambdas > 0))
            if self.has_q:  # M's upper triangle from the gain's cosine moments; squared, @ A gives var
                cosines, self._pair_moments = cosine_product_moments(op)
                a, b = cs.g.profile(op.grid)
                self._moments_a = (a * op.quad_weights)[:, None] * cosines
                self._moments_b = (b * op.quad_weights) @ cosines
                kk, jj = np.triu_indices(op.n_modes)
                lam2, var_amp, pairs = lambdas**2, alpha**2 * v, np.arange(kk.size)
                self._pair_weights = np.zeros((kk.size, op.n_modes))
                self._pair_weights[pairs, kk] = lam2[jj] * var_amp[kk]
                self._pair_weights[pairs, jj] = lam2[kk] * var_amp[jj]
        self.factor = _psd_factor(cov) if np.any(cov != 0.0) else None
        self.n_panels = int(self.has_q) + int(self.factor is not None)
        a, b = cs.f.profile(op.grid)
        k = np.diag(self.decay)
        self._f_shape = None  # F, when f's shape is not the identity
        if cs.f.shape_is_identity:
            k = k + op.to_modes(op.modes_on_grid * a) * self.phi1dt
        else:
            self._f_shape = (a * op.quad_weights)[:, None] * op.modes_on_grid.T * self.phi1dt
        panels = [np.zeros_like(k)] if self.has_q else []
        panels += [self.factor] if self.factor is not None else []
        self.affine = np.vstack([k, self.phi1dt * op.to_modes(b), *panels])
        self._needs_grid = self.has_q or self._f_shape is not None

    def draw(self, gen, rows: int) -> np.ndarray | None:
        """The standard normals of one step for `rows` rows: (n_panels, rows, N), or None."""
        return gen.standard_normal((self.n_panels, rows, self.op.n_modes)) if self.n_panels else None

    def step(self, t: float, u: np.ndarray, z: np.ndarray | None) -> np.ndarray:
        """Advance a (P, N) batch of mode coefficients by one step on the panel z = draw(gen, P).

        The system is autonomous, so the step is the same at every t.
        """
        new = np.empty((u.shape[0], self.op.n_modes))
        self._step_rows(np.hstack([u, np.ones((u.shape[0], 1)), *(() if z is None else z)]), new)
        return new

    def step_chunk(self, x: np.ndarray) -> None:
        """Step a chunk in place: x[j + 1, :, :N] is x[j, :, :N] stepped on x[j]'s draws, j < k.

        x has shape (k + 1, rows, N + 1 + n_panels N); row r of x[j] is
        [u | 1 | z], u the state before the chunk's step j and z its panels
        side by side.  The rows are one tile or a whole number of
        BLOCK_SIZE-row tiles, and each tile-step steps the stack of tiles at
        once, each of its products or ufuncs one call on the stack.
        """
        n, k = self.op.n_modes, x.shape[0] - 1
        tiles = x.reshape(k + 1, -1, min(x.shape[1], BLOCK_SIZE), x.shape[2])
        for src, dst in zip(tiles[:-1], tiles[1:, ..., :n]):
            self._step_rows(src, dst)

    def _step_rows(self, src: np.ndarray, dst: np.ndarray) -> None:
        """Write into dst the states one step after the rows [u | 1 | z] of src (any leading axes)."""
        np.matmul(src, self.affine, out=dst)
        if not self._needs_grid:
            return
        n = self.op.n_modes
        grid_u = src[..., :n] @ self.op.modes_on_grid
        if self._f_shape is not None:
            dst += self.cs.f.phi(grid_u) @ self._f_shape
        if self.has_q:
            sd = self._interior_sd(self.cs.g.phi(grid_u))
            sd *= src[..., n + 1:2 * n + 1]
            dst += sd

    def _interior_sd(self, phi: np.ndarray) -> np.ndarray:
        """Per-mode std alpha sqrt(v_k sum_j (lambda_j M_kj)^2) of the interior channel, from the
        gain's shape phi_g(u) on the grid: M's upper triangle is its 2N - 1 cosine moments times P."""
        moments = phi @ self._moments_a
        moments += self._moments_b
        tri = moments @ self._pair_moments
        tri *= tri
        var = tri @ self._pair_weights
        return np.sqrt(var, out=var)


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
    """Per-state divergence flag for a (..., N) batch of states: |u| above the limit, NaN or inf."""
    return ~(np.einsum("...k,...k->...", u, u) <= DIVERGENCE_LIMIT**2)


def run_ensemble(stepper: SpdeStepper, x0: np.ndarray, n_paths: int, n_steps: int,
                 seed: int, stream_base: int, threads: int, observer) -> tuple[list[np.ndarray], dict]:
    """Step n_paths copies of x0 for up to n_steps steps; return per-path columns and the work done.

    Each thread steps its share of the paths together, one chunk of steps at
    a time (module docstring).  observer(u0) starts the measurement of a
    share, u0 holding one row per path.  Path p draws from stream
    stream_base | p: at the start of each chunk every live path draws the
    panels of the chunk's steps, and no more, in one draw, and step i (from
    i dt to (i + 1) dt) reads its panel for i.  The rows live at the start of
    a chunk, and their panels, are gathered once, in path order, into the
    share's chunk buffer, so a row that leaves mid-chunk is stepped on to the
    chunk's end on draws it has already made.  Then `first_bad` gives each
    row's first step whose state diverged (the chunk length where none did),
    the row's states are zeroed from that step on, and
    observe(i0, states, idx, first_bad) runs on the (k, rows, N) states after
    steps i0, ..., i0 + k - 1 of the rows whose share-row indices are idx (a
    view of the chunk buffer, valid during the call).  It returns the mask of
    rows it keeps live; a diverged row is never kept.  A share stops once no
    row is live; finish(live) gets the share-wide mask of rows still live and
    returns per-row columns.  The work is {"row_steps": live rows times
    steps, padding excluded, "chunks": the chunk count}, summed over chunks
    and shares.
    """
    n_modes, n_panels = x0.shape[0], stepper.n_panels
    width = n_modes + 1 + n_panels * n_modes

    def chunk_shape(live: int, steps_left: int) -> tuple[int, int]:
        """(steps, buffer rows) of a chunk of `live` rows."""
        if live > BLOCK_SIZE:  # whole tiles, stepped as one stack
            rows = -(-live // BLOCK_SIZE) * BLOCK_SIZE
        else:
            rows = live + (live == 1)  # no tile of a single row
        cap = max(1, DRAW_BYTES // (8 * rows * width) - 1)
        return min(max(DRAW_STEPS, CHUNK_ROW_STEPS // live), cap, steps_left), rows

    def run_share(paths):
        n_rows = len(paths)
        u = np.tile(x0, (n_rows, 1))
        obs = observer(u)
        idx = np.arange(n_rows)
        shapes = [chunk_shape(live, n_steps) for live in range(1, n_rows + 1)]
        x_buf = np.empty(max((k + 1) * rows for k, rows in shapes) * width)
        if n_panels:
            gens = [block_stream(seed, stream_base | p)._gen for p in paths]
            z_buf = np.empty(max(k * live for live, (k, _) in enumerate(shapes, 1)) * n_panels * n_modes)
        i0 = row_steps = chunks = 0
        while i0 < n_steps and idx.size:
            n = idx.size
            k, rows = chunk_shape(n, n_steps - i0)
            x = x_buf[:(k + 1) * rows * width].reshape(k + 1, rows, width)  # rows [u | 1 | z]
            x[0, :n, :n_modes] = u
            x[:, n:] = 0.0
            x[:, :, n_modes] = 1.0
            if n_panels:
                z = z_buf[:n * k * n_panels * n_modes].reshape(n, k, n_panels * n_modes)
                for r, p in enumerate(idx.tolist()):
                    gens[p].standard_normal(out=z[r])
                x[:k, :n, n_modes + 1:] = z.swapaxes(0, 1)
            with np.errstate(over="ignore", invalid="ignore"):  # a diverging row runs on to the chunk's end
                stepper.step_chunk(x)
                chunk = x[1:, :n, :n_modes]
                bad = diverged_mask(chunk)
            first_bad = np.full(n, k)
            if bad.any():
                first_bad = np.where(bad.any(axis=0), bad.argmax(axis=0), k)
                chunk[np.arange(k)[:, None] >= first_bad] = 0.0
            live = obs.observe(i0, chunk, idx, first_bad) & (first_bad == k)
            idx, u = idx[live], chunk[-1, live]
            i0, row_steps, chunks = i0 + k, row_steps + n * k, chunks + 1
        live_end = np.zeros(n_rows, dtype=bool)
        live_end[idx] = True
        return obs.finish(live_end), row_steps, chunks

    share_cols, row_steps, chunks = zip(*map_blocks(run_share, n_paths, threads))
    return [np.concatenate(cols) for cols in zip(*share_cols)], {"row_steps": sum(row_steps), "chunks": sum(chunks)}

"""Exit domains, stopping times, and Monte Carlo exit-time asymptotics.

The exit domain is a ball around a constant state: on O = (0, 1) with
Lebesgue measure (the invariant measure of every operator built here),

    D = { h : G(h) < r },      G(h) = int_O s (h(xi) - c)^2 dxi = s |h - c e_0|^2,

with scale s > 0, center c and level r > s c^2, so that 0 lies inside.
Parseval turns G into a sum over the mode coefficients, which is how
`membership_values` evaluates it for every caller.  The integrand
s (. - c)^2 is convex, and that is what the exit lower bound needs of D:
G is nonincreasing along the semigroup (integrate by parts against the
zero-flux operator), so D is invariant; and Jensen gives G(<h, mu> e_0) <= G(h),
so D contains the mean state of each of its points.  Both hold for every
s > 0 and every c, so neither needs a run-time probe.  For small eps the
dynamics first behaves like pure fast transport, then like the averaged
flow u' = F_bar(u), which moves on the constant section
(y1, y2) = (c - sqrt(r/s), c + sqrt(r/s)).  That flow is autonomous and
one-dimensional, so its exit hypotheses are sign conditions on F_bar
(`check_exit_hypotheses`).

The exit time tau = inf { t : u(t) leaves D } is detected on the time grid by
linear interpolation of the membership functional G between the bracketing
steps (G is the quantity whose level defines the boundary, so G, not the
state, is interpolated).  The expected exit time grows like
exp(V_bar(D) / gamma) with gamma = (alpha + beta)^2, where V_bar(D) is the
quasi-potential minimized over the boundary; the Monte Carlo driver reports
gamma * log(mean tau) per scaling level against that target.  Because the
asymptotic statement involves log E tau, the log of the sample mean (not the
mean of logs) is reported, with a delta-method confidence interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .coefficients import AveragedModel
from .ensemble import SpdeStepper, run_ensemble
from .ldp import v_bar
from .solver import MultiscaleParams

__all__ = [
    "DomainSpec",
    "ExitStats",
    "ExitHypothesesReport",
    "build_domain",
    "membership_values",
    "exit_time_mc",
    "check_exit_hypotheses",
]

T_MAX_CAP = 1e5  # the longest default horizon of an exit level


@dataclass(frozen=True)
class DomainSpec:
    """The exit ball { h : s |h - c e_0|^2 < r }."""

    scale: float
    center: float
    level: float

    @property
    def constant_section(self) -> tuple[float, float]:
        """Endpoints (y1, y2) of the constant states y e_0 inside the ball: c -+ sqrt(r / s)."""
        half = math.sqrt(self.level / self.scale)
        return self.center - half, self.center + half

    @property
    def attraction_radius(self) -> float:
        """Radius b, a tenth of the nearer end of the constant section: the averaged
        flow must enter [-b, b], and an exit counts as concentrated on the
        constant states when its non-constant norm is below b."""
        y1, y2 = self.constant_section
        return 0.1 * min(abs(y1), abs(y2))


def membership_values(dom: DomainSpec, states: np.ndarray) -> np.ndarray:
    """G(h) = int s (h - c)^2 dxi for a batch of mode-coefficient states.

    Parseval gives G = s (|u|^2 - 2 c u_0 + c^2): the modes are orthonormal
    under the midpoint quadrature and e_0 = 1, so this is the grid quadrature
    sum_m s (h(xi_m) - c)^2 w_m to rounding, without the grid round trip.  A
    constant state y e_0 may be passed as the one-mode state (y,).
    """
    u = np.asarray(states)
    c = dom.center
    return dom.scale * (np.einsum("...k,...k->...", u, u) - 2.0 * c * u[..., 0] + c * c)


def build_domain(g_spec: dict, r: float) -> DomainSpec:
    """Construct the exit ball from {"kind": "quadratic", "scale": s, "center": c} and level r."""
    if g_spec["kind"] != "quadratic":
        raise ValueError(f"unknown domain kind {g_spec['kind']!r}")
    scale, center = float(g_spec.get("scale", 1.0)), float(g_spec.get("center", 0.0))
    if scale <= 0:
        raise ValueError("quadratic scale must be positive")
    r_min = scale * center**2
    if r <= r_min:
        raise ValueError(f"level r must exceed s c^2 = {r_min:.6g} so that 0 lies inside")
    return DomainSpec(scale=scale, center=center, level=r)


@dataclass
class ExitStats:
    """Exit-time sample statistics for one scaling level.

    Both normalizations of log E tau are reported: gamma_log_mean uses the
    rate-speed gamma = (alpha + beta)^2 (the consistent one), eps_log_mean the
    raw eps; the discrepancy between the two conventions is deliberate output
    metadata, not silently resolved.
    """

    eps: float
    alpha: float
    beta: float
    gamma: float
    n_paths: int
    n_censored: int
    n_diverged: int
    taus: np.ndarray
    mean_tau: float
    log_mean_tau: float
    gamma_log_mean: float
    eps_log_mean: float
    ci_halfwidth: float          # 95% delta-method CI on log(mean tau)
    lower_bound_only: bool
    t_max: float
    v_bar_target: float
    concentration_fraction: float | None
    row_steps: int               # rows stepped times steps, padding excluded (`run_ensemble`)
    chunks: int

    def row(self) -> dict:
        return {
            "gamma": self.gamma,
            "eps": self.eps,
            "alpha": self.alpha,
            "beta": self.beta,
            "n": self.n_paths,
            "censored": self.n_censored,
            "mean_tau": self.mean_tau,
            "log_mean_tau": self.log_mean_tau,
            "gamma_log_mean": self.gamma_log_mean,
            "ci_halfwidth": self.ci_halfwidth,
            "v_bar_target": self.v_bar_target,
        }


class _ExitObserver:
    """Per-share exit measurement for `run_ensemble`.

    Records the time G first crosses the level (interpolated linearly between
    the bracketing steps; at the first step of a chunk the earlier one is the
    last step of the previous chunk) and the non-constant norm at exit; an
    exited row is not kept live.  A crossing at or after a row's first bad
    step does not count: the row is censored at that step as diverged.  Rows
    still live at the end are censored at t_max.
    """

    def __init__(self, dom: DomainSpec, dt: float, t_max: float, u0: np.ndarray):
        self.dom, self.dt, self.t_max = dom, dt, t_max
        self.g_prev = membership_values(dom, u0)
        self.tau, self.nonconst = np.full((2, u0.shape[0]), np.nan)
        self.diverged = np.zeros(u0.shape[0], dtype=bool)

    def observe(self, i0: int, states: np.ndarray, idx: np.ndarray, first_bad: np.ndarray) -> np.ndarray:
        k, level = len(states), self.dom.level
        gv = membership_values(self.dom, states)
        crossed = (gv >= level) & (np.arange(k)[:, None] < first_bad)
        j, cols = crossed.argmax(axis=0), np.arange(idx.size)
        exits = crossed[j, cols]
        bad = ~exits & (first_bad < k)
        if bad.any():
            self.diverged[idx[bad]] = True
            self.tau[idx[bad]] = (i0 + first_bad[bad]) * self.dt + self.dt
        if exits.any():
            rows, j, cols = idx[exits], j[exits], cols[exits]
            g0 = np.where(j > 0, gv[j - 1, cols], self.g_prev[rows])
            frac = (level - g0) / (gv[j, cols] - g0)
            self.tau[rows] = (i0 + j) * self.dt + self.dt * np.clip(frac, 0.0, 1.0)
            self.nonconst[rows] = np.linalg.norm(states[j, cols, 1:], axis=1)
        self.g_prev[idx] = gv[-1]
        return ~exits

    def finish(self, live: np.ndarray):
        self.tau[live] = self.t_max
        return self.tau, self.diverged | live, self.diverged, self.nonconst


def exit_time_mc(
    model: AveragedModel,
    levels: list[MultiscaleParams],
    dom: DomainSpec,
    x: np.ndarray,
    n_paths: int,
    dt: float,
    seed: int,
    t_max: float | None = None,
    threads: int = 1,
) -> list[ExitStats]:
    """Monte Carlo exit times across a grid of scaling levels.

    Per level, n_paths forward solves run until the membership level is
    crossed or t_max is reached (default 50 exp(V_bar / gamma), capped at
    T_MAX_CAP so runs stay deterministic and bounded; a level with gamma = 0
    has no default and raises ValueError).  Path p of level l draws from its
    own stream (l << 32) | p, so a path's exit time is bit-reproducible for a
    given seed under any thread count and path count.
    """
    g0 = membership_values(dom, x)
    if g0 >= dom.level:
        raise ValueError("initial state must lie inside the domain")
    if t_max is None and any(params.gamma == 0 for params in levels):
        raise ValueError("a level with alpha = beta = 0 (gamma = 0) needs an explicit t_max")
    vb = v_bar(model, dom)
    conc_radius = dom.attraction_radius
    out = []
    for li, params in enumerate(levels):
        level_tmax = t_max if t_max is not None else min(50.0 * math.exp(vb / params.gamma), T_MAX_CAP)
        n_max = max(1, int(math.ceil(level_tmax / dt)))
        t_max_eff = n_max * dt
        (taus, censored, diverged, nonconst), work = run_ensemble(
            SpdeStepper(model, params, dt), x, n_paths, n_max, seed, li << 32, threads,
            partial(_ExitObserver, dom, dt, t_max_eff),
        )
        mean_tau = float(taus.mean())
        log_mean = math.log(mean_tau)
        se = float(taus.std(ddof=1)) / math.sqrt(n_paths) if n_paths > 1 else 0.0
        ci = 1.96 * se / mean_tau
        exited = ~censored
        conc = float((nonconst[exited] < conc_radius).mean()) if exited.any() else None
        out.append(
            ExitStats(
                eps=params.eps,
                alpha=params.alpha,
                beta=params.beta,
                gamma=params.gamma,
                n_paths=n_paths,
                n_censored=int(censored.sum()),
                n_diverged=int(diverged.sum()),
                taus=taus,
                mean_tau=mean_tau,
                log_mean_tau=log_mean,
                gamma_log_mean=params.gamma * log_mean,
                eps_log_mean=params.eps * log_mean,
                ci_halfwidth=ci,
                lower_bound_only=bool(censored.any()),
                t_max=t_max_eff,
                v_bar_target=vb,
                concentration_fraction=conc,
                **work,
            )
        )
    return out


@dataclass(frozen=True)
class ExitHypothesesReport:
    g_bounded_passed: bool
    g_sup_bound: float | None
    flow_contained_passed: bool
    flow_attracted_passed: bool
    flow_witness: tuple | None   # (y, F_bar(y)) at the first offending point
    passed: bool


def check_exit_hypotheses(model: AveragedModel, dom: DomainSpec) -> ExitHypothesesReport:
    """Test the exit-problem hypotheses that the config decides; report-only, never raises.

    (i) bounded multiplicative gain, via the declared sup bound; (ii) the
    averaged flow u' = F_bar(u) keeps the closed constant section [y1, y2]
    and is attracted into [-b, b], b = `dom.attraction_radius`.  In one
    dimension the section is invariant iff F_bar(y1) >= 0 >= F_bar(y2), and
    attracted iff F_bar > 0 on [y1, -b] and F_bar < 0 on [b, y2].  Every
    catalog F_bar is affine or a tanh(u / w) + c in u, hence monotone, so its
    sign on an interval is decided at the endpoints.  The witness is the first
    offending point (y, F_bar(y)) in the order y1, y2, -b, b.  Semigroup
    invariance and the mean-state property of the quadratic ball hold in
    closed form (module docstring).
    """
    g_sup = model.coeffs.g.sup_bound
    y1, y2 = dom.constant_section
    b = dom.attraction_radius
    ys = np.array([y1, y2, -b, b])
    f = model.f_bar(ys)
    contained = bool(f[0] >= 0.0 >= f[1])
    inward = f * np.array([1.0, -1.0, 1.0, -1.0]) > 0.0  # F_bar points toward 0
    attracted = bool(inward.all())
    witness = None if attracted else (float(ys[~inward][0]), float(f[~inward][0]))
    return ExitHypothesesReport(
        g_bounded_passed=g_sup is not None,
        g_sup_bound=g_sup,
        flow_contained_passed=contained,
        flow_attracted_passed=attracted,
        flow_witness=witness,
        passed=g_sup is not None and contained and attracted,
    )

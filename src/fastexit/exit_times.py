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
so D contains the mean state of each of its points.  For small eps the
dynamics first behaves like pure fast transport, then like the averaged
flow, which moves on the constant section (c - sqrt(r/s), c + sqrt(r/s)).

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
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .coefficients import AveragedModel
from .ensemble import SpdeStepper, run_ensemble
from .ldp import v_bar
from .operator import SpectralOperator, invariant_average
from .solver import MultiscaleParams, _rk4

__all__ = [
    "DomainSpec",
    "ExitStats",
    "DomainInvarianceReport",
    "ExitHypothesesReport",
    "build_domain",
    "membership_values",
    "exit_time_mc",
    "check_exit_hypotheses",
]


@dataclass(frozen=True)
class DomainInvarianceReport:
    monotone_passed: bool
    min_monotone_margin: float
    jensen_passed: bool
    n_samples: int


@dataclass(frozen=True)
class DomainSpec:
    """The exit ball { h : s |h - c e_0|^2 < r } with its invariance probe report."""

    op: SpectralOperator
    scale: float
    center: float
    level: float
    invariance_report: DomainInvarianceReport

    @property
    def constant_section(self) -> tuple[float, float]:
        """Endpoints (y1, y2) of the constant states y e_0 inside the ball: c -+ sqrt(r / s)."""
        half = math.sqrt(self.level / self.scale)
        return self.center - half, self.center + half


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


def _sample_in_domain(dom: DomainSpec, rng, target_frac=0.9):
    """Random unit field x scaled along its ray to G = target_frac * r.

    The scale t is the positive root of s (t^2 - 2 c t x_0 + c^2) = target_frac * r.
    """
    x = rng.standard_normal(dom.op.n_modes)
    x /= np.linalg.norm(x)
    b = dom.center * x[0]
    t = b + math.sqrt(b * b - dom.center**2 + target_frac * dom.level / dom.scale)
    return t * x


def _run_invariance_probes(dom: DomainSpec, seed: int, n_samples: int, times) -> DomainInvarianceReport:
    op, r = dom.op, dom.level
    rng = np.random.Generator(np.random.Philox(key=seed))
    min_margin = np.inf
    jensen_ok = True
    for _ in range(n_samples):
        x = _sample_in_domain(dom, rng)
        x_t = np.exp(-np.outer(times, op.eigenvalues)) * x
        min_margin = min(min_margin, float((membership_values(dom, x) - membership_values(dom, x_t)).min()))
        if float(membership_values(dom, [invariant_average(op, x)])) >= r:
            jensen_ok = False
    return DomainInvarianceReport(
        monotone_passed=bool(min_margin >= -1e-12),
        min_monotone_margin=float(min_margin),
        jensen_passed=jensen_ok,
        n_samples=n_samples,
    )


def build_domain(
    g_spec: dict,
    r: float,
    op: SpectralOperator,
    probe_seed: int = 200,
    probe_samples: int = 50,
    probe_times=(0.01, 0.1, 1.0),
) -> DomainSpec:
    """Construct the exit ball from {"kind": "quadratic", "scale": s, "center": c}
    and level r, and attach the invariance probe report."""
    if g_spec["kind"] != "quadratic":
        raise ValueError(f"unknown domain kind {g_spec['kind']!r}")
    scale, center = float(g_spec.get("scale", 1.0)), float(g_spec.get("center", 0.0))
    if scale <= 0:
        raise ValueError("quadratic scale must be positive")
    r_min = scale * center**2
    if r <= r_min:
        raise ValueError(f"level r must exceed s c^2 = {r_min:.6g} so that 0 lies inside")
    dom = DomainSpec(op=op, scale=scale, center=center, level=r, invariance_report=None)
    return replace(dom, invariance_report=_run_invariance_probes(dom, probe_seed, probe_samples, probe_times))


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

    Records the time G crosses the level (interpolated linearly between the
    bracketing steps) and the non-constant norm at exit; exited rows leave
    `live`.  Diverged rows are censored at the divergence time, rows still
    live at the end at t_max.
    """

    def __init__(self, dom: DomainSpec, dt: float, t_max: float, u0: np.ndarray):
        self.dom, self.dt, self.t_max = dom, dt, t_max
        self.g_prev = membership_values(dom, u0)
        self.tau, self.nonconst = np.full((2, u0.shape[0]), np.nan)
        self.diverged = np.zeros(u0.shape[0], dtype=bool)

    def observe(self, i: int, u: np.ndarray, idx: np.ndarray, live: np.ndarray, bad: np.ndarray) -> None:
        t_prev = i * self.dt
        t = t_prev + self.dt
        if bad.any():
            self.diverged[idx[bad]] = True
            self.tau[idx[bad]] = t
        level = self.dom.level
        gv = membership_values(self.dom, u)
        crossed = live & (gv >= level)
        if crossed.any():
            rows = idx[crossed]
            g0 = self.g_prev[rows]
            frac = (level - g0) / (gv[crossed] - g0)
            self.tau[rows] = t_prev + self.dt * np.clip(frac, 0.0, 1.0)
            self.nonconst[rows] = np.linalg.norm(u[crossed][:, 1:], axis=1)
            live &= ~crossed
        self.g_prev[idx] = gv

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
    t_max_cap: float = 1e5,
    threads: int = 1,
) -> list[ExitStats]:
    """Monte Carlo exit times across a grid of scaling levels.

    Per level, n_paths forward solves run until the membership level is
    crossed or t_max is reached (default 50 exp(V_bar / gamma), capped at
    t_max_cap so runs stay deterministic and bounded).  Paths live in fixed
    blocks with one counter-based stream per (level, block), so results are
    bit-reproducible for a given seed under any thread count.
    """
    g0 = membership_values(dom, x)
    if g0 >= dom.level:
        raise ValueError("initial state must lie inside the domain")
    vb = v_bar(model, dom)
    y1, y2 = dom.constant_section
    conc_radius = 0.1 * min(abs(y1), abs(y2))
    out = []
    for li, params in enumerate(levels):
        level_tmax = t_max if t_max is not None else min(50.0 * math.exp(vb / params.gamma), t_max_cap)
        n_max = max(1, int(math.ceil(level_tmax / dt)))
        t_max_eff = n_max * dt
        taus, censored, diverged, nonconst = run_ensemble(
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
            )
        )
    return out


@dataclass(frozen=True)
class ExitHypothesesReport:
    g_bounded_passed: bool
    g_sup_bound: float | None
    flow_contained_passed: bool
    flow_attracted_passed: bool
    flow_witness: tuple | None
    semigroup_invariance_passed: bool
    jensen_passed: bool
    passed: bool


def check_exit_hypotheses(
    model: AveragedModel,
    dom: DomainSpec,
    t_probe: float = 20.0,
    dt: float = 1e-2,
    attraction_frac: float = 0.1,
) -> ExitHypothesesReport:
    """Probe the three exit-problem hypotheses; report-only, never raises.

    (i) bounded multiplicative gain, via the declared sup bound; (ii) the
    averaged flow started anywhere in the closed constant section stays in it
    and is attracted to a small ball around 0; (iii) semigroup invariance and
    the mean-state (Jensen) property, via the probes attached to the domain.
    """
    g_sup = model.coeffs.g.sup_bound
    g_ok = g_sup is not None
    y1, y2 = dom.constant_section
    margin = 1e-9 * (y2 - y1)
    starts = np.array([y1 + margin, 0.5 * y1, 0.0, 0.5 * y2, y2 - margin])
    times = np.linspace(0.0, t_probe, int(round(t_probe / dt)) + 1)
    flow = _rk4(lambda t, u: model.f_bar(t, u), starts, times)
    g_along = membership_values(dom, flow[..., None])
    contained = bool(np.all(g_along <= dom.level * (1 + 1e-9) + 1e-12))
    witness = None
    if not contained:
        i, j = np.unravel_index(np.argmax(g_along), g_along.shape)
        witness = (float(starts[j]), float(times[i]), float(flow[i, j]))
    ball = attraction_frac * min(abs(y1), abs(y2))
    attracted = bool(np.all(np.abs(flow[-1]) <= ball))
    if not attracted and witness is None:
        j = int(np.argmax(np.abs(flow[-1])))
        witness = (float(starts[j]), float(times[-1]), float(flow[-1, j]))
    inv = dom.invariance_report
    passed = g_ok and contained and attracted and inv.monotone_passed and inv.jensen_passed
    return ExitHypothesesReport(
        g_bounded_passed=g_ok,
        g_sup_bound=g_sup,
        flow_contained_passed=contained,
        flow_attracted_passed=attracted,
        flow_witness=witness,
        semigroup_invariance_passed=inv.monotone_passed,
        jensen_passed=inv.jensen_passed,
        passed=bool(passed),
    )

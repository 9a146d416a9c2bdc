import warnings
from functools import partial

import numpy as np
import pytest

import fastexit as fx
from conftest import build_model, sample_in_domain
from fastexit import ensemble
from fastexit.ensemble import CHUNK_ROW_STEPS, DRAW_STEPS, SpdeStepper, run_ensemble
from fastexit.exit_times import _ExitObserver

LOGISTIC = {"kind": "logistic_clipped", "amp": 0.5, "width": 1.0, "offset": 1.0}


def _ball(r=0.25):
    return fx.build_domain({"kind": "quadratic", "scale": 1.0}, r)


def test_build_domain_constant_section(ref_op):
    dom = _ball(0.25)
    assert dom.constant_section == pytest.approx((-0.5, 0.5), abs=1e-12)
    assert dom.attraction_radius == pytest.approx(0.05, abs=1e-15)
    shifted = fx.build_domain({"kind": "quadratic", "scale": 2.0, "center": 0.3}, 1.0)
    assert shifted.constant_section == pytest.approx((0.3 - np.sqrt(0.5), 0.3 + np.sqrt(0.5)), abs=1e-12)
    assert shifted.attraction_radius == pytest.approx(0.1 * (np.sqrt(0.5) - 0.3), abs=1e-15)
    with pytest.raises(ValueError):
        fx.build_domain({"kind": "quadratic", "scale": 1.0, "center": 1.0}, 0.5)
    with pytest.raises(ValueError, match="kind"):
        fx.build_domain({"kind": "quartic", "scale": 1.0}, 0.25)
    with pytest.raises(ValueError, match="scale"):
        fx.build_domain({"kind": "quadratic", "scale": 0.0}, 0.25)
    with pytest.raises(ValueError, match="level"):  # r = s c^2 puts 0 on the boundary
        fx.build_domain({"kind": "quadratic", "scale": 2.0, "center": 0.5}, 0.5)


def test_sample_in_domain_lands_on_target_level(ref_op):
    dom = fx.build_domain({"kind": "quadratic", "scale": 2.0, "center": 0.3}, 1.0)
    rng = np.random.Generator(np.random.Philox(key=34))
    for _ in range(50):
        x = sample_in_domain(dom, ref_op.n_modes, rng)
        g = 2.0 * (float((x**2).sum()) - 2 * 0.3 * x[0] + 0.3**2)
        assert abs(g - 0.9) <= 1e-12


def test_membership_is_squared_norm_for_quadratic(ref_op):
    dom = _ball(0.25)
    rng = np.random.Generator(np.random.Philox(key=31))
    c = rng.standard_normal(ref_op.n_modes)
    g = fx.membership_values(dom, c[None, :])[0]
    assert g == pytest.approx(float((c**2).sum()), rel=1e-12)


@pytest.mark.parametrize("grid_factor", [4, 2], ids=["neumann_laplacian", "neumann_laplacian_grid2"])
def test_membership_parseval_matches_grid_quadrature(grid_factor):
    op = fx.build_neumann_laplacian_1d(16, grid_factor)
    dom = fx.build_domain({"kind": "quadratic", "scale": 2.0, "center": 0.3}, 1.0)
    states = np.random.Generator(np.random.Philox(key=33)).standard_normal((200, op.n_modes))
    quadrature = (2.0 * (op.to_grid(states) - 0.3) ** 2 * op.quad_weights).sum(axis=-1)
    assert np.all(np.abs(fx.membership_values(dom, states) - quadrature) <= 1e-12 * quadrature)


def test_semigroup_shrinks_membership(ref_op):
    dom = _ball(0.25)
    x = np.zeros(ref_op.n_modes)
    x[1] = 0.4
    for t in (0.01, 0.1, 1.0):
        xt = np.exp(-ref_op.eigenvalues * t) * x
        g = fx.membership_values(dom, xt[None, :])[0]
        assert g == pytest.approx(0.16 * np.exp(-2 * np.pi**2 * t), rel=1e-10)
        assert g <= 0.16 + 1e-15


def test_jensen_step(ref_op):
    dom = _ball(0.25)
    rng = np.random.Generator(np.random.Philox(key=32))
    for _ in range(20):
        c = rng.standard_normal(ref_op.n_modes)
        c *= 0.45 / np.linalg.norm(c)
        mean = c[0]  # <x, mu> for the reference operator
        assert mean**2 <= fx.membership_values(dom, c[None, :])[0]  # G(<x, mu> e_0) = |O| g(mean)


def _noise_free(model, dom, x, dt, t_max):
    level = fx.MultiscaleParams(eps=0.05, alpha=0.0, beta=0.0)
    return fx.exit_time_mc(model, [level], dom, x, n_paths=8, dt=dt, seed=1, t_max=t_max)[0]


def test_first_exit_censored_for_attracting_flow(ref_op):
    model = build_model(ref_op)
    st = _noise_free(model, _ball(0.25), ref_op.constant_field(0.4), dt=1e-2, t_max=2.0)
    assert st.n_censored == st.n_paths and st.lower_bound_only
    assert np.all(st.taus == st.t_max) and st.t_max == pytest.approx(2.0)


def test_first_exit_interpolated_ramp(ref_op):
    # f = 1 with the noise off: u_0 = t exactly on the grid, so G = t^2, and tau
    # interpolates G linearly between the steps at 0.48 and 0.52
    model = build_model(ref_op, f_spec={"kind": "constant", "value": 1.0})
    x = ref_op.constant_field(0.0)
    st = _noise_free(model, _ball(0.25), x, dt=0.04, t_max=2.0)
    expected = 0.48 + 0.04 * (0.25 - 0.48**2) / (0.52**2 - 0.48**2)  # 0.4996, against 0.5 in continuous time
    assert st.n_censored == 0
    assert np.allclose(st.taus, expected, rtol=1e-12, atol=0)
    bigger = _noise_free(model, _ball(0.36), x, dt=0.04, t_max=2.0)
    assert np.allclose(bigger.taus, 0.6, rtol=1e-12, atol=0)  # nested level sets: a larger level exits later


def test_exit_hypotheses_reference_passes(ref_op, exit_reference):
    model = exit_reference
    dom = _ball(0.25)
    rep = fx.check_exit_hypotheses(model, dom)
    assert rep.passed and rep.flow_witness is None
    assert rep.g_sup_bound == 1.0


def test_exit_hypotheses_repelling_flow_fails(ref_op):
    model = build_model(
        ref_op, f_spec={"kind": "linear", "slope": 1.0},
        q_spec={"kind": "flat", "value": np.sqrt(2.0)},
    )
    dom = _ball(0.25)
    rep = fx.check_exit_hypotheses(model, dom)
    assert not rep.passed
    assert not (rep.flow_contained_passed and rep.flow_attracted_passed)
    assert rep.flow_witness is not None


# F_bar for every catalog kind of f: passing, not contained, contained but not attracted
FLOW_SPECS = [
    {"kind": "constant", "value": 0.0},
    {"kind": "constant", "value": 0.2},
    {"kind": "linear", "slope": -1.0},
    {"kind": "linear", "slope": 1.0},
    {"kind": "linear", "slope": -1.0, "offset": 0.2},
    {"kind": "linear", "slope": 1.0, "xi_slope": -4.0, "offset": -0.01},
    {"kind": "linear", "slope": -1.0, "offset": 0.5},
    {"kind": "linear_plus_source", "slope": -1.0, "source_amp": 0.1, "source_freq": 2},
    {"kind": "linear_plus_source", "slope": -1.0, "source_amp": 0.2, "source_freq": 1},
    {"kind": "logistic_clipped", "amp": -1.0, "width": 0.1},
    {"kind": "logistic_clipped", "amp": -1.0, "width": 0.1, "offset": 0.95},
    {"kind": "logistic_clipped", "amp": 1.0, "width": 0.1},
]


@pytest.mark.parametrize("f_spec", FLOW_SPECS, ids=lambda spec: "-".join(str(v) for v in spec.values()))
def test_exit_hypotheses_endpoint_verdict_matches_dense_scan(ref_op, f_spec):
    # the endpoint test of the averaged flow against a 1,001-point sign scan of F_bar per side
    model = build_model(ref_op, f_spec=f_spec)
    shifted = fx.build_domain({"kind": "quadratic", "scale": 2.0, "center": 0.1}, 0.5)
    for dom in (_ball(0.25), shifted):
        y1, y2 = dom.constant_section
        b = dom.attraction_radius
        left, right = model.f_bar(np.linspace(y1, -b, 1001)), model.f_bar(np.linspace(b, y2, 1001))
        rep = fx.check_exit_hypotheses(model, dom)
        assert rep.flow_contained_passed == bool(left[0] >= 0.0 >= right[-1])
        assert rep.flow_attracted_passed == bool(np.all(left > 0.0) and np.all(right < 0.0))
        assert (rep.flow_witness is None) == rep.flow_attracted_passed
        if rep.flow_witness is not None:
            y, f = rep.flow_witness
            assert f == model.f_bar(y) and y in (y1, y2, -b, b)
            assert -np.sign(y) * f <= 0.0  # at the witness F_bar does not point toward 0


def test_exit_hypotheses_unbounded_gain_fails(ref_op):
    model = build_model(ref_op, g_spec={"kind": "linear", "slope": 1.0, "offset": 1.0})
    dom = _ball(0.25)
    rep = fx.check_exit_hypotheses(model, dom)
    assert not rep.g_bounded_passed and not rep.passed


def _reference_levels():
    levels = []
    for gamma in (0.25, 0.0625):
        a = np.sqrt(gamma) / 2
        levels.append(fx.MultiscaleParams(eps=gamma**2, alpha=a, beta=a))
    return levels


def test_exit_mc_deterministic_and_thread_independent(ref_op, exit_reference):
    model = exit_reference
    dom = _ball(0.25)
    x = ref_op.constant_field(0.0)
    levels = _reference_levels()[:1]
    kw = dict(n_paths=96, dt=0.01, seed=5)
    s1 = fx.exit_time_mc(model, levels, dom, x, **kw, threads=1)
    s2 = fx.exit_time_mc(model, levels, dom, x, **kw, threads=3)
    assert np.array_equal(s1[0].taus, s2[0].taus)
    s3 = fx.exit_time_mc(model, levels, dom, x, **kw, threads=1)
    assert np.array_equal(s1[0].taus, s3[0].taus)
    # a path's draws do not depend on how many paths are requested
    s64 = fx.exit_time_mc(model, levels, dom, x, n_paths=64, dt=0.01, seed=5)
    s128 = fx.exit_time_mc(model, levels, dom, x, n_paths=128, dt=0.01, seed=5)
    assert np.array_equal(s64[0].taus, s128[0].taus[:64])
    assert np.array_equal(s64[0].taus, s1[0].taus[:64])
    assert s1[0].v_bar_target == pytest.approx(0.25, rel=1e-10)
    assert s1[0].n_censored == 0
    assert s1[0].gamma_log_mean == pytest.approx(0.25 * np.log(s1[0].mean_tau), rel=1e-14)


def test_exit_mc_level_nesting_pathwise(ref_op, exit_reference):
    model = exit_reference
    x = ref_op.constant_field(0.0)
    levels = _reference_levels()[:1]
    small = fx.exit_time_mc(model, levels, _ball(0.16), x, n_paths=64, dt=0.01, seed=6,
                            t_max=200.0)
    big = fx.exit_time_mc(model, levels, _ball(0.25), x, n_paths=64, dt=0.01, seed=6,
                          t_max=200.0)
    assert np.all(small[0].taus <= big[0].taus)


def test_exit_mc_censoring_consistency(ref_op, exit_reference):
    model = exit_reference
    dom = _ball(0.25)
    x = ref_op.constant_field(0.0)
    levels = _reference_levels()[:1]
    short = fx.exit_time_mc(model, levels, dom, x, n_paths=64, dt=0.01, seed=7, t_max=1.0)
    longer = fx.exit_time_mc(model, levels, dom, x, n_paths=64, dt=0.01, seed=7, t_max=4.0)
    s, l = short[0], longer[0]
    done = ~np.isclose(s.taus, s.t_max)
    assert np.array_equal(s.taus[done], l.taus[done])  # concrete times unchanged
    assert l.n_censored <= s.n_censored
    assert s.lower_bound_only


def _recorded_states(stepper, x0, n_paths, n_steps, seed):
    """Each path's state after every step, (n_paths, n_steps, N), with every row kept live."""

    class Recorder:
        def __init__(self, u0):
            self.states = np.zeros((u0.shape[0], n_steps, u0.shape[1]))

        def observe(self, i0, states, idx, first_bad):
            self.states[idx, i0:i0 + len(states)] = states.swapaxes(0, 1)
            return np.ones(idx.size, dtype=bool)

        def finish(self, live):
            return (self.states,)

    return run_ensemble(stepper, x0, n_paths, n_steps, seed, 0, 1, Recorder)[0][0]


def _per_step_exits(dom, dt, x0, states):
    """Exit observation one step at a time: tau, censored, nonconst and the exit step (-1 if none)."""
    n_paths, n_steps, _ = states.shape
    level = dom.level
    g_prev = np.full(n_paths, fx.membership_values(dom, x0))
    tau, nonconst = np.full((2, n_paths), np.nan)
    step = np.full(n_paths, -1)
    live = np.ones(n_paths, dtype=bool)
    for i in range(n_steps):
        u = states[:, i]
        gv = fx.membership_values(dom, u)
        crossed = live & (gv >= level)
        frac = (level - g_prev[crossed]) / (gv[crossed] - g_prev[crossed])
        tau[crossed] = i * dt + dt * np.clip(frac, 0.0, 1.0)
        nonconst[crossed] = np.linalg.norm(u[crossed][:, 1:], axis=1)
        step[crossed] = i
        live &= ~crossed
        g_prev = gv
    tau[live] = n_steps * dt
    return tau, live, nonconst, step


def test_exit_chunks_match_per_step_observation(ref_op, exit_reference):
    # 256 paths over 100 steps: chunks of 32 steps while more than 128 rows are
    # live, then CHUNK_ROW_STEPS // rows, the last cut to the steps left; the
    # chunked observer gives the per-step observation's tau, censoring and exit
    # norm exactly
    dom, dt, n_paths, n_steps = _ball(0.25), 0.01, 256, 100
    stepper = SpdeStepper(exit_reference, fx.MultiscaleParams(eps=0.05, alpha=0.4, beta=0.4), dt)
    x0 = ref_op.constant_field(0.0)
    chunks = []  # (first step, steps, live rows) of each chunk the driver ran

    class ChunkRecorder(_ExitObserver):
        def observe(self, i0, states, idx, first_bad):
            chunks.append((i0, len(states), idx.size))
            return super().observe(i0, states, idx, first_bad)

    (tau, censored, diverged, nonconst), work = run_ensemble(
        stepper, x0, n_paths, n_steps, 5, 0, 1, partial(ChunkRecorder, dom, dt, n_steps * dt))
    ref_tau, ref_censored, ref_nonconst, step = _per_step_exits(
        dom, dt, x0, _recorded_states(stepper, x0, n_paths, n_steps, 5))
    starts, lengths, live = np.array(chunks).T
    ends = starts + lengths
    assert starts[0] == 0 and np.array_equal(starts[1:], ends[:-1]) and ends[-1] == n_steps
    assert np.array_equal(lengths, np.minimum(np.maximum(DRAW_STEPS, CHUNK_ROW_STEPS // live), n_steps - starts))
    assert work == {"row_steps": int(lengths @ live), "chunks": len(chunks)}
    # the paths cover the edges: crossings at the first step of a later chunk (tau
    # interpolates against the previous chunk's last G) and at the last step of a
    # chunk, crossings in the last chunk, cut to the steps left, and paths
    # censored at t_max
    exited = step[step >= 0]
    assert np.isin(exited, starts[1:]).any() and np.isin(exited + 1, ends).any()
    assert lengths[-1] < CHUNK_ROW_STEPS // live[-1] and np.any(exited >= starts[-1])
    assert len(chunks) >= 3 and 0 < ref_censored.sum() < n_paths
    assert np.array_equal(tau, ref_tau) and np.array_equal(censored, ref_censored)
    assert np.array_equal(nonconst, ref_nonconst, equal_nan=True) and not diverged.any()


@pytest.mark.parametrize("n_paths", [1, 65, 160])
@pytest.mark.parametrize("g_spec", [None, LOGISTIC], ids=["constant_gain", "logistic_gain"])
def test_exit_chunk_schedule_changes_no_value(ref_op, g_spec, n_paths, monkeypatch):
    # the default chunks grow as paths exit (a lone row runs up to CHUNK_ROW_STEPS
    # steps at a time); with the budget at its floor every chunk is DRAW_STEPS
    # steps.  Both give every output of the level bit for bit
    model = build_model(ref_op, q_spec={"kind": "flat", "value": np.sqrt(2.0)}, g_spec=g_spec)
    params, dom, x, dt, t_max = fx.MultiscaleParams(eps=0.05, alpha=0.3, beta=0.3), _ball(0.25), \
        ref_op.constant_field(0.0), 0.01, 4.0

    def run():
        stats = fx.exit_time_mc(model, [params], dom, x, n_paths=n_paths, dt=dt, seed=11, t_max=t_max)[0]
        (_, _, _, nonconst), _ = run_ensemble(SpdeStepper(model, params, dt), x, n_paths, round(t_max / dt), 11, 0,
                                              1, partial(_ExitObserver, dom, dt, t_max))
        return stats, nonconst

    default, nonconst = run()
    monkeypatch.setattr(ensemble, "CHUNK_ROW_STEPS", DRAW_STEPS)
    floor, floor_nonconst = run()
    assert default.chunks < floor.chunks and default.taus.max() > DRAW_STEPS * dt  # the schedules differ
    assert np.array_equal(default.taus, floor.taus)
    assert (default.n_censored, default.n_diverged) == (floor.n_censored, floor.n_diverged)
    assert default.concentration_fraction == floor.concentration_fraction
    assert np.array_equal(nonconst, floor_nonconst, equal_nan=True)


@pytest.mark.parametrize("y0, tau_expected, exits", [(1e-70, 0.0425, True), (1e-71, 0.06, False)])
def test_exit_divergence_mid_chunk(ref_op, y0, tau_expected, exits):
    # noise off and f = 1e16 r: mode 0 grows 1e14-fold per step of 0.01.  From
    # 1e-70 it is 1 after step 4 (G = 1, an exit at 0.04 + 0.01 * 0.25) and 1e14
    # after step 5; from 1e-71 it is 0.1 after step 4 and 1e13 after step 5, so it
    # crosses the level and diverges on the same step: a divergence at 0.06.  Both
    # rows run on to the chunk's end through overflow, without a warning.
    model = build_model(ref_op, f_spec={"kind": "linear", "slope": 1e16})
    stepper = SpdeStepper(model, fx.MultiscaleParams(eps=0.05, alpha=0.0, beta=0.0), 0.01)
    dom = _ball(0.25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (tau, censored, diverged, nonconst), _ = run_ensemble(
            stepper, ref_op.constant_field(y0), 2, 50, 1, 0, 1, partial(_ExitObserver, dom, 0.01, 0.5))
    assert np.allclose(tau, tau_expected, rtol=1e-12, atol=0)
    assert np.all(censored != exits) and np.all(diverged != exits)
    assert np.all(np.isnan(nonconst) != exits)


def test_exit_observer_counts_a_crossing_at_the_first_bad_step_as_divergence(ref_op):
    # states handed over unzeroed: the row leaves D on step 1 of the chunk, which
    # is also its first bad step, so it is censored there as diverged
    dom = _ball(0.25)
    obs = _ExitObserver(dom, 0.01, 1.0, np.zeros((1, ref_op.n_modes)))
    states = np.zeros((3, 1, ref_op.n_modes))
    states[1:, 0, 0] = 2.0
    obs.observe(32, states, np.arange(1), np.array([1]))
    tau, censored, diverged, nonconst = obs.finish(np.zeros(1, dtype=bool))
    assert tau[0] == pytest.approx(0.34, rel=1e-12) and censored[0] and diverged[0] and np.isnan(nonconst[0])


def test_exit_mc_all_censored_lower_bound_mode(ref_op):
    model = build_model(ref_op, q_spec={"kind": "flat", "value": 1e-3},
                        b_spec={"kind": "list", "values": [1e-3, 1e-3]})
    dom = _ball(0.25)
    x = ref_op.constant_field(0.0)
    levels = [fx.MultiscaleParams(eps=0.01, alpha=0.05, beta=0.05)]
    stats = fx.exit_time_mc(model, levels, dom, x, n_paths=32, dt=0.01, seed=8, t_max=0.5)
    assert stats[0].lower_bound_only and stats[0].n_censored == 32
    assert stats[0].mean_tau == pytest.approx(stats[0].t_max)


def test_exit_mc_rejects_exterior_start(ref_op, exit_reference):
    model = exit_reference
    dom = _ball(0.25)
    with pytest.raises(ValueError):
        fx.exit_time_mc(model, _reference_levels()[:1], dom, ref_op.constant_field(0.9),
                        n_paths=8, dt=0.01, seed=9)


def test_exit_location_concentrates_on_constant_states(ref_op, exit_reference):
    model = exit_reference
    dom = _ball(0.25)
    x = ref_op.constant_field(0.0)
    stats = fx.exit_time_mc(model, _reference_levels(), dom, x, n_paths=128, dt=0.01, seed=10)
    f_big_gamma = stats[0].concentration_fraction
    f_small_gamma = stats[1].concentration_fraction
    n = 128
    se = np.sqrt(max(f_big_gamma * (1 - f_big_gamma), 0.01) / n)
    assert f_small_gamma >= f_big_gamma - 2 * se

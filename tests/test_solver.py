import warnings
from functools import partial

import numpy as np
import pytest

import fastexit as fx
from fastexit.ldp import ControlPath
from fastexit import ensemble
from fastexit.ensemble import CHUNK_ROW_STEPS, DRAW_STEPS, SpdeStepper, diverged_mask, run_ensemble
from fastexit.solver import solve_controlled_ode_batch
from conftest import build_model


LOGISTIC = {"kind": "logistic_clipped", "amp": 0.5, "width": 1.0, "offset": 1.0}


def _params(eps=1.0, alpha=0.0, beta=0.0):
    return fx.MultiscaleParams(eps=eps, alpha=alpha, beta=beta)


def _zero_control(times, n_modes):
    return ControlPath(times=times, phi_h=np.zeros((len(times), n_modes)), phi_z=np.zeros((len(times), 2)))


def test_multiscale_params():
    p = fx.MultiscaleParams(eps=0.01, alpha=0.3, beta=0.1)
    assert p.gamma == pytest.approx(0.16)
    assert p.schedule_ratio() == pytest.approx(1 / 3)
    law = {"coeff": 0.5, "exponent": 0.25}
    q = fx.MultiscaleParams.from_schedule(0.0625, law, law)
    assert q.alpha == pytest.approx(0.25)
    assert q.gamma == pytest.approx(0.25)
    with pytest.raises(ValueError):
        fx.MultiscaleParams(eps=0.0, alpha=0.1, beta=0.1)


def test_spde_linear_homogeneous_decay(ref_op):
    model = build_model(ref_op, f_spec={"kind": "constant", "value": 0.0})
    eps = 0.05
    traj = fx.solve_spde(model, _params(eps=eps), np.eye(ref_op.n_modes)[1],
                         t_final=0.5, dt=1e-3, rng=fx.RngStream(1))
    expected = np.exp(-np.pi**2 * traj.times / eps)
    assert np.allclose(traj.states[:, 1], expected, rtol=1e-10, atol=1e-300)
    assert np.abs(traj.states[:, 2:]).max() == 0.0


def test_spde_mean_mode_recursion_exact(ref_op):
    # with f = -r and constant data the constant mode follows the scalar
    # exponential-integrator recursion u <- (1 - dt) u exactly
    model = build_model(ref_op)
    c, dt, t_final = 0.8, 1e-3, 1.0
    traj = fx.solve_spde(model, _params(eps=0.01), ref_op.constant_field(c),
                         t_final=t_final, dt=dt, rng=fx.RngStream(2))
    n = len(traj.times) - 1
    assert traj.states[-1, 0] == pytest.approx(c * (1 - dt) ** n, rel=1e-12)
    # and matches the scalar ODE solution c e^{-t} at scheme order
    assert traj.states[-1, 0] == pytest.approx(c * np.exp(-t_final), rel=1e-3)
    assert np.abs(traj.states[:, 1:]).max() < 1e-15  # rounding-level leakage only


def test_spde_zero_mean_data_collapses(ref_op):
    model = build_model(ref_op, f_spec={"kind": "constant", "value": 0.0})
    x = np.zeros(ref_op.n_modes)
    x[1], x[3] = 1.0, -0.5
    traj = fx.solve_spde(model, _params(eps=1e-3), x,
                         t_final=0.05, dt=1e-3, rng=fx.RngStream(3))
    after = traj.times >= 0.01
    assert ref_op.hmu_norm(traj.states[after]).max() < 1e-16


@pytest.mark.parametrize("f_spec, g_spec", [
    pytest.param({"kind": "linear", "slope": -1.0, "xi_slope": 2.0, "offset": 0.3}, None, id="linear"),
    pytest.param({"kind": "linear_plus_source", "slope": -1.0, "source_amp": 0.6, "source_freq": 2, "offset": 0.1},
                 None, id="linear_plus_source"),
    pytest.param(LOGISTIC, None, id="logistic_f"),
    pytest.param(LOGISTIC, LOGISTIC, id="logistic_f_logistic_gain"),
])
@pytest.mark.parametrize("n_rows", [1, 2, 64])
def test_spde_affine_reaction_step_equals_grid_round_trip(ref_op, f_spec, g_spec, n_rows):
    # the reaction folded into [u | 1 | z] @ B (and, for a logistic f, phi_f(u @ E) @ F)
    # equals the reaction evaluated on the grid; the interior panel of a logistic gain
    # draws zeros, so its term (test_interior_std_matches_frozen_gain_definition) drops out
    model = build_model(ref_op, f_spec=f_spec, g_spec=g_spec)
    stepper = SpdeStepper(model, _params(eps=0.05, alpha=0.3, beta=0.3), dt=0.01)
    if f_spec["kind"] == "linear":  # a reaction that depends on xi couples the modes
        k = stepper.affine[:ref_op.n_modes]
        assert np.abs(k - np.diag(k.diagonal())).max() > 1e-3
    rng = np.random.Generator(np.random.Philox(key=8))
    u = rng.standard_normal((n_rows, ref_op.n_modes))
    z = stepper.draw(rng, n_rows)
    assert stepper.has_q == (g_spec is not None)
    if stepper.has_q:
        z[0] = 0.0
    e, w = ref_op.modes_on_grid, ref_op.quad_weights
    f_modes = (model.coeffs.f.value(ref_op.grid, u @ e) * w) @ e.T
    want = stepper.decay * u + stepper.phi1dt * f_modes + z[-1] @ stepper.factor
    np.testing.assert_allclose(stepper.step(0.0, u, z), want, rtol=1e-13, atol=1e-13)


def test_spde_divergence_detection(ref_op):
    # without noise, f = 5 r steps the constant state by u <- (1 + 5 dt) u = 1.05 u, which
    # first passes the divergence limit 1e12 at step 567 (1.05^566 < 1e12 < 1.05^567), in the
    # 18th chunk of 32 steps
    model = build_model(ref_op, f_spec={"kind": "linear", "slope": 5.0})
    with pytest.raises(fx.DivergenceError) as exc:
        fx.solve_spde(model, _params(eps=0.1), ref_op.constant_field(1.0),
                      t_final=10.0, dt=1e-2, rng=fx.RngStream(4))
    assert exc.value.step == 567 and exc.value.t == pytest.approx(5.67, rel=1e-12)


def test_spde_dt_validation(ref_op):
    model = build_model(ref_op)
    with pytest.raises(ValueError):
        fx.solve_spde(model, _params(), ref_op.constant_field(1.0),
                      t_final=1.0, dt=2.0, rng=fx.RngStream(5))


def test_limit_ode_oracles(ref_op):
    model = build_model(ref_op)
    traj = fx.solve_limit_ode(model, 1.0, t_final=1.0, dt=1e-3)
    assert traj.values[-1] == pytest.approx(np.exp(-1.0), abs=1e-8)
    model0 = build_model(ref_op, f_spec={"kind": "constant", "value": 0.0})
    flat = fx.solve_limit_ode(model0, 0.7, t_final=1.0, dt=1e-3)
    assert np.all(flat.values == 0.7)
    model_src = build_model(
        ref_op,
        f_spec={"kind": "linear_plus_source", "slope": -1.0, "source_amp": 1.0, "source_freq": 1},
    )
    eq = float(model_src.f_bar(0.0))  # equilibrium F_bar(u*) = 0 at u* = integral of the source
    fixed = fx.solve_limit_ode(model_src, eq, t_final=1.0, dt=1e-3)
    assert np.abs(fixed.values - eq).max() < 1e-12
    assert eq == pytest.approx(2 / np.pi, abs=1e-15)


def test_controlled_ode_zero_control(ref_op):
    model = build_model(ref_op)
    times = np.linspace(0, 1, 11)
    ctrl = _zero_control(times, ref_op.n_modes)
    out = solve_controlled_ode_batch(model, np.array([1.0]), times, ctrl.phi_h[None], ctrl.phi_z[None],
                                     t_final=1.0, dt=1e-3)
    ode = fx.solve_limit_ode(model, 1.0, t_final=1.0, dt=1e-3)
    assert np.array_equal(out[:, 0], ode.values)


def test_controlled_ode_infinite_rho_ignores_phi_h(ref_op):
    model = build_model(ref_op, rho_bar=np.inf)
    times = np.linspace(0, 1, 11)
    ctrl = ControlPath(times=times, phi_h=np.ones((11, ref_op.n_modes)), phi_z=np.zeros((11, 2)))
    out = solve_controlled_ode_batch(model, np.array([1.0]), times, ctrl.phi_h[None], ctrl.phi_z[None],
                                     t_final=1.0, dt=1e-3)
    ode = fx.solve_limit_ode(model, 1.0, t_final=1.0, dt=1e-3)
    assert np.array_equal(out[:, 0], ode.values)


def test_controlled_ode_batch_consistency(ref_op):
    model = build_model(ref_op)
    times = np.linspace(0, 1, 21)
    rng = np.random.Generator(np.random.Philox(key=8))
    phi_h = rng.standard_normal((2, 21, ref_op.n_modes))
    phi_z = rng.standard_normal((2, 21, 2))
    batch = solve_controlled_ode_batch(model, np.array([0.3, -0.2]), times, phi_h, phi_z,
                                       t_final=1.0, dt=1e-3)
    for p, x0 in enumerate([0.3, -0.2]):
        single = solve_controlled_ode_batch(model, np.array([x0]), times, phi_h[p:p + 1], phi_z[p:p + 1],
                                            t_final=1.0, dt=1e-3)
        assert np.allclose(batch[:, p], single[:, 0], atol=1e-14)


def test_averaging_error_basic(ref_op):
    # with the noise off every path is the same deterministic solve
    model = build_model(ref_op)
    ref = fx.solve_limit_ode(model, 0.5, t_final=1.0, dt=1e-3)

    def sup_error(x, delta, reference=ref):
        errors, _ = fx.averaging_error_ensemble(model, _params(eps=1e-2), x, 1.0, 1e-3,
                                                delta, reference, 4, seed=1)
        assert np.all(errors == errors[0])
        return errors[0]

    # constant data: the mean mode follows u <- (1 - dt) u against RK4 of u' = -u
    flat = sup_error(ref_op.constant_field(0.5), 0.5)
    euler = 0.5 * (1 - 1e-3) ** np.arange(len(ref.times))
    assert flat == pytest.approx(np.abs(euler - ref.values)[ref.times >= 0.5].max(), rel=1e-9)
    assert flat == pytest.approx(9.2e-5, rel=0.01)
    # initial layer: cos(pi xi) puts 1/sqrt(2) on e_1, which decays at rate pi^2/eps, so
    # the sup over (0, T] is its value at the first step and the sup over [0.5, T] is the flat one
    x = ref_op.project(lambda xi: np.cos(np.pi * xi) + 0.5)
    early, late = sup_error(x, 1e-3), sup_error(x, 0.5)
    assert early == pytest.approx(np.exp(-np.pi**2 * 1e-3 / 1e-2) / np.sqrt(2), rel=2e-3)
    assert late == pytest.approx(flat, rel=1e-9)
    with pytest.raises(ValueError):
        sup_error(x, 0.5, fx.ScalarPath(times=ref.times[:-1], values=ref.values[:-1]))
    with pytest.raises(ValueError):
        sup_error(x, 1.0)  # the window [delta, T] must not be empty


@pytest.mark.parametrize("g_spec", [None, LOGISTIC], ids=["constant_gain", "logistic_gain"])
def test_averaging_ensemble_deterministic_across_threads(ref_op, g_spec):
    # a state-dependent gain pads each last tile to 64 rows when more than 64 paths
    # run (100 = 64 + 36 and 70 = 64 + 6 paths); 36 paths step as one 36-row tile and
    # one path as a 2-row tile.  The tile height must not reach a kept row
    model = build_model(ref_op, g_spec=g_spec)
    params = fx.MultiscaleParams(eps=0.1, alpha=np.sqrt(0.1), beta=np.sqrt(0.1))
    x = ref_op.project(lambda xi: np.cos(np.pi * xi) + 0.5)
    ref = fx.solve_limit_ode(model, fx.invariant_average(ref_op, x), t_final=0.5, dt=2e-3)
    args = (model, params, x, 0.5, 2e-3, 0.25, ref, 100)
    e1, _ = fx.averaging_error_ensemble(*args, seed=42, threads=1)
    e2, _ = fx.averaging_error_ensemble(*args, seed=42, threads=3)
    assert np.array_equal(e1, e2)
    # the same paths are produced regardless of how many paths are requested
    for n_paths in (70, 36, 1):
        e3, _ = fx.averaging_error_ensemble(*args[:-1], n_paths, seed=42, threads=1)
        assert np.array_equal(e1[:n_paths], e3), n_paths


def test_run_ensemble_masks_diverged_rows_and_stops(ref_op):
    # f = 1e20 r takes every row past the divergence limit on the first step
    model = build_model(ref_op, f_spec={"kind": "linear", "slope": 1e20})
    stepper = SpdeStepper(model, _params(eps=0.1, alpha=0.1, beta=0.1), dt=0.01)
    chunks_seen = []

    class Recorder:
        def __init__(self, u0):
            self.first_bad = np.full(u0.shape[0], -1)

        def observe(self, i0, states, idx, first_bad):
            chunks_seen.append((i0, len(states)))
            assert np.all(states[np.arange(len(states))[:, None] >= first_bad] == 0.0)
            self.first_bad[idx[first_bad < len(states)]] = i0 + first_bad[first_bad < len(states)]
            return np.ones(idx.size, dtype=bool)  # run_ensemble retires the diverged rows itself

        def finish(self, live):
            return self.first_bad, live.copy()

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the rows overflow on later steps of the chunk, silently
        (first_bad, live), work = run_ensemble(stepper, ref_op.constant_field(0.1), 100, 50,
                                               seed=1, stream_base=0, threads=1, observer=Recorder)
    assert first_bad.shape == (100,) and np.all(first_bad == 0) and not live.any()
    # one share of 100 paths in two tiles, stopped after the first chunk, of
    # CHUNK_ROW_STEPS // 100 = 40 steps, once no row was live
    assert chunks_seen == [(0, CHUNK_ROW_STEPS // 100)] and work == {"row_steps": 100 * 40, "chunks": 1}
    # the check is on the norm, so it flags NaN and inf as well
    states = np.array([[np.nan, 0.0], [np.inf, 0.0], [0.8e12, 0.8e12], [0.7e12, 0.7e12]])
    assert diverged_mask(states).tolist() == [True, True, True, False]


@pytest.mark.parametrize("g_spec", [None, LOGISTIC])
def test_run_ensemble_path_draws_its_own_stream(ref_op, g_spec, monkeypatch):
    # one path with stream_base = s follows a loop of SpdeStepper.step on the draws of
    # RngStream(seed, s), across refills of its draw buffer and a partial last chunk
    # (a lone row runs CHUNK_ROW_STEPS steps a chunk: two full chunks and one of 16
    # steps); only the tile height differs.  It draws the panels of those steps and
    # no more: the partial chunk draws only its own 16 steps
    streams, lengths = [], []

    def recording_stream(seed, stream):
        streams.append(fx.RngStream(seed, stream))
        return streams[-1]

    monkeypatch.setattr(ensemble, "block_stream", recording_stream)
    model = build_model(ref_op, g_spec=g_spec)
    stepper = SpdeStepper(model, _params(eps=0.05, alpha=0.3, beta=0.3), 0.01)
    x0, n_steps, stream = ref_op.constant_field(0.2), 2 * CHUNK_ROW_STEPS + 16, (2 << 32) | 5
    gen, u, want = fx.RngStream(3, stream)._gen, x0[None], []
    for i in range(n_steps):
        u = stepper.step(i * stepper.dt, u, stepper.draw(gen, 1))
        want.append(u[0])

    class Recorder:
        def __init__(self, u0):
            self.states = np.empty((n_steps, u0.shape[1]))

        def observe(self, i0, states, idx, first_bad):
            lengths.append(len(states))
            self.states[i0:i0 + len(states)] = states[:, 0]
            return np.ones(idx.size, dtype=bool)

        def finish(self, live):
            return (self.states,)

    (states,), _ = run_ensemble(stepper, x0, 1, n_steps, 3, stream, 1, Recorder)
    assert lengths == [CHUNK_ROW_STEPS, CHUNK_ROW_STEPS, 16]
    assert np.abs(states - np.array(want)).max() <= 1e-12
    fresh = fx.RngStream(3, stream)._gen
    fresh.standard_normal((n_steps, stepper.n_panels, ref_op.n_modes))
    np.testing.assert_equal([s._gen.bit_generator.state for s in streams], [fresh.bit_generator.state])


# the default linear f steps as one matrix, a logistic f on the grid
@pytest.mark.parametrize("g_spec, f_spec", [(None, None), (LOGISTIC, None), (None, LOGISTIC)],
                         ids=["None", "g_spec1", "f_spec2"])
@pytest.mark.parametrize("threads", [1, 2])
def test_run_ensemble_tiles_keep_surviving_rows(ref_op, g_spec, f_spec, threads):
    # retiring rows compacts the live rows into other tiles at the next chunk and
    # stops the draws of retired paths; every row steps bit-identically while
    # run_ensemble steps it, to the end of the chunk it retires in
    model = build_model(ref_op, f_spec=f_spec, g_spec=g_spec)
    stepper = SpdeStepper(model, _params(eps=0.05, alpha=0.3, beta=0.3), dt=0.01)
    n_paths, n_steps = 160, 40
    # retirement step per row of a share: the first 64 rows of each share
    # empties early, and over the last ten steps (the second chunk) one row is
    # left alone, in a tile padded to two rows
    retire_at = np.random.Generator(np.random.Philox(key=34)).integers(0, n_steps - 10, 3 * 64)
    retire_at[:64] = np.minimum(retire_at[:64], 5)
    retire_at[100] = n_steps

    def recorder(schedule):
        class Recorder:
            def __init__(self, u0):
                self.states = np.full((u0.shape[0], n_steps, u0.shape[1]), np.nan)

            def observe(self, i0, states, idx, first_bad):
                self.states[idx, i0:i0 + len(states)] = states.swapaxes(0, 1)
                return (schedule[idx] < i0) | (schedule[idx] >= i0 + len(states))

            def finish(self, live):
                return self.states, live.copy()

        return Recorder

    x0 = ref_op.constant_field(0.2)
    (s_all, live_all), _ = run_ensemble(stepper, x0, n_paths, n_steps, 3, 0, threads, recorder(np.full(3 * 64, -1)))
    (s_some, live_some), _ = run_ensemble(stepper, x0, n_paths, n_steps, 3, 0, threads, recorder(retire_at))
    assert live_all.all() and 0 < live_some.sum() < n_paths
    if threads == 1:  # one share: its rows are the paths
        assert np.array_equal(live_some, retire_at[:n_paths] >= n_steps)
    stepped = ~np.isnan(s_some)
    assert np.array_equal(s_some[stepped], s_all[stepped])


class _AllStates:
    """run_ensemble observer that keeps every row live and records its states."""

    def __init__(self, n_steps, u0):
        self.states = np.empty((n_steps,) + u0.shape)

    def observe(self, i0, states, idx, first_bad):
        self.states[i0:i0 + len(states), idx] = states
        return np.ones(idx.size, dtype=bool)

    def finish(self, live):
        return self.states.swapaxes(0, 1), live.copy()


@pytest.mark.parametrize("g_spec, f_spec", [(None, None), (LOGISTIC, None), (None, LOGISTIC)],
                         ids=["constant_gain", "logistic_gain", "logistic_f"])
def test_run_ensemble_takes_the_affine_kernel(ref_op, g_spec, f_spec, monkeypatch):
    # every f is stepped by step_chunk's one product per tile-step, plus the
    # terms that need grid values (a logistic f, the interior term of a
    # state-dependent gain), never by step
    model = build_model(ref_op, f_spec=f_spec, g_spec=g_spec)
    stepper = SpdeStepper(model, _params(eps=0.05, alpha=0.3, beta=0.3), dt=0.01)

    def no_step(*args):
        raise RuntimeError("step called")

    monkeypatch.setattr(SpdeStepper, "step", no_step)
    n = ref_op.n_modes
    assert stepper.n_panels == 1 + stepper.has_q and stepper.affine.shape == (n + 1 + stepper.n_panels * n, n)
    assert not stepper.affine[n + 1:-n].any()  # B's rows under an interior panel are zero
    (states, live), _ = run_ensemble(stepper, ref_op.constant_field(0.2), 70, 40, 3, 0, 1, partial(_AllStates, 40))
    assert live.all() and np.isfinite(states).all()


@pytest.mark.parametrize("n_paths, n_steps, noise, g_spec", [
    # one 2-row tile over a full chunk of CHUNK_ROW_STEPS // 2 steps and a partial one of 8
    (2, CHUNK_ROW_STEPS // 2 + 8, 0.3, None),
    (1, 40, 0.3, None),        # one live row, padded to two
    (65, 8, 0.3, None),        # a 64-row tile and one live row, padded to a whole second tile
    (3, 40, 0.0, None),        # no noise: B is [K; c] and no panel is drawn
    (100, 40, 0.3, LOGISTIC),  # a state-dependent gain: tiles of 64 and 36 rows, the second padded to 64
], ids=["partial_chunk", "one_row_tile", "padded_one_row", "no_noise", "padded_tiles"])
def test_affine_kernel_equals_step(ref_op, n_paths, n_steps, noise, g_spec):
    # run_ensemble's one product per tile-step, on a stack of whole tiles above
    # 64 rows, gives, bit for bit, what step gives on the same tile and the same draws
    model = build_model(ref_op, f_spec={"kind": "linear", "slope": -1.0, "xi_slope": 2.0, "offset": 0.3},
                        g_spec=g_spec)
    stepper = SpdeStepper(model, _params(eps=0.05, alpha=noise, beta=noise), dt=0.01)
    n = ref_op.n_modes
    assert stepper.has_q == (g_spec is not None)
    assert stepper.n_panels == (1 + stepper.has_q if noise else 0)
    assert stepper.affine.shape == (n + 1 + stepper.n_panels * n, n)
    x0 = ref_op.project(lambda xi: np.cos(np.pi * xi) + 0.2)
    (states, _), work = run_ensemble(stepper, x0, n_paths, n_steps, 5, 0, 1, partial(_AllStates, n_steps))
    # every row stays live, so every chunk has max(DRAW_STEPS, CHUNK_ROW_STEPS // n_paths) steps but the last
    chunk = max(DRAW_STEPS, CHUNK_ROW_STEPS // n_paths)
    assert work == {"row_steps": n_paths * n_steps, "chunks": -(-n_steps // chunk)}

    # and every chunk is padded alike, with zero rows: up to 64 rows it is one
    # tile of its own height, a lone row padded to two; above, whole 64-row tiles
    tile = n_paths + (n_paths == 1) if n_paths <= ensemble.BLOCK_SIZE else ensemble.BLOCK_SIZE
    panels = np.zeros((n_steps, stepper.n_panels, -(-n_paths // tile) * tile, n))  # padding rows draw zeros
    for p in range(n_paths):
        if stepper.n_panels:
            panels[:, :, p] = ensemble.block_stream(5, p)._gen.standard_normal((n_steps, stepper.n_panels, n))
    want = np.empty_like(states)
    for s in range(0, n_paths, tile):
        rows = min(tile, n_paths - s)
        u = np.zeros((tile, n))
        u[:rows] = x0
        for j in range(n_steps):
            u = stepper.step(j * stepper.dt, u, panels[j, :, s:s + tile] if stepper.n_panels else None)
            want[s:s + rows, j] = u[:rows]
    assert np.array_equal(states, want)


@pytest.mark.parametrize("n_paths", [1, 65, 160])
@pytest.mark.parametrize("g_spec", [None, LOGISTIC], ids=["constant_gain", "logistic_gain"])
def test_run_ensemble_chunk_schedule_changes_no_value(ref_op, g_spec, n_paths, monkeypatch):
    # rows retire on a fixed schedule, so the live count falls and the default
    # chunks grow (up to CHUNK_ROW_STEPS steps for a lone row); with the budget at
    # its floor every chunk is DRAW_STEPS steps.  Every state of a row up to its
    # retirement step is the same bit for bit
    model = build_model(ref_op, g_spec=g_spec)
    stepper = SpdeStepper(model, _params(eps=0.05, alpha=0.3, beta=0.3), dt=0.01)
    n_steps = 300
    retire_at = np.random.Generator(np.random.Philox(key=35)).integers(0, n_steps, n_paths)
    retire_at[0] = n_steps  # the first row lives to the end

    class Recorder:
        def __init__(self, u0):
            self.states = np.full((u0.shape[0], n_steps, u0.shape[1]), np.nan)
            self.chunks = []

        def observe(self, i0, states, idx, first_bad):
            self.chunks.append(len(states))
            steps = np.arange(i0, i0 + len(states))
            kept = states.swapaxes(0, 1).copy()
            kept[steps[None, :] > retire_at[idx, None]] = np.nan
            self.states[idx, i0:i0 + len(states)] = kept
            return retire_at[idx] >= i0 + len(states)

        def finish(self, live):
            return self.states, live.copy(), np.array([max(self.chunks)])

    x0 = ref_op.constant_field(0.2)
    (states, live, longest), work = run_ensemble(stepper, x0, n_paths, n_steps, 3, 0, 1, Recorder)
    monkeypatch.setattr(ensemble, "CHUNK_ROW_STEPS", DRAW_STEPS)
    (floor_states, floor_live, floor_longest), floor_work = run_ensemble(stepper, x0, n_paths, n_steps, 3, 0, 1,
                                                                         Recorder)
    assert longest[0] > DRAW_STEPS == floor_longest[0] and work["chunks"] < floor_work["chunks"]
    assert np.array_equal(states, floor_states, equal_nan=True) and np.array_equal(live, floor_live)
    assert np.array_equal(np.isnan(states[..., 0]), np.arange(n_steps) > retire_at[:, None])


class _SupNorm:
    """run_ensemble observer that keeps every row live and records sup_t |u|_H over all grid times."""

    def __init__(self, u0):
        self.sup = np.linalg.norm(u0, axis=1)

    def observe(self, i0, states, idx, first_bad):
        self.sup[idx] = np.maximum(self.sup[idx], np.linalg.norm(states, axis=2).max(axis=0))
        return np.ones(idx.size, dtype=bool)

    def finish(self, live):
        return (self.sup,)


def test_eps_uniform_moment_probe(ref_op):
    model = build_model(ref_op)
    x = ref_op.project(lambda xi: np.cos(np.pi * xi) + 0.5)
    means = []
    for eps in (1.0, 0.1, 0.01):
        params = fx.MultiscaleParams(eps=eps, alpha=np.sqrt(eps), beta=np.sqrt(eps))
        (sups,), _ = run_ensemble(SpdeStepper(model, params, 2e-3), x, 64, 250, 7, 0, 1, _SupNorm)
        means.append(sups.mean())
    assert max(means) < 5.0  # bounded uniformly over eps


def test_rk4_step_halving_order(ref_op):
    model = build_model(ref_op, f_spec={"kind": "logistic_clipped", "amp": 2.0, "width": 1.0})
    ends = [fx.solve_limit_ode(model, 0.9, t_final=1.0, dt=dt).values[-1]
            for dt in (0.02, 0.01, 0.005)]
    d1, d2 = abs(ends[0] - ends[1]), abs(ends[1] - ends[2])
    assert d1 / d2 > 8  # fourth-order scheme: halving shrinks steps ~16x


def test_spde_step_halving_deterministic(ref_op):
    model = build_model(
        ref_op, f_spec={"kind": "logistic_clipped", "amp": 2.0, "width": 1.0}
    )
    ends = []
    for dt in (0.02, 0.01, 0.005):
        traj = fx.solve_spde(model, _params(eps=0.01), ref_op.constant_field(0.9),
                             t_final=1.0, dt=dt, rng=fx.RngStream(12))
        ends.append(traj.states[-1, 0])
    d1, d2 = abs(ends[0] - ends[1]), abs(ends[1] - ends[2])
    assert 1.5 < d1 / d2 < 2.6  # first-order deterministic part


def test_trajectory_csv_roundtrip(tmp_path, ref_op):
    model = build_model(ref_op)
    traj = fx.solve_spde(model, _params(eps=0.1, alpha=0.1, beta=0.1),
                         ref_op.constant_field(0.4), 0.1, 1e-2, fx.RngStream(13))
    p = tmp_path / "traj.csv"
    traj.write_csv(p)
    lines = p.read_text().strip().split("\n")
    assert lines[0].split(",")[:2] == ["t", "mode_0"]
    data = np.loadtxt(p, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0], traj.times)
    assert np.array_equal(data[:, 1:], traj.states)

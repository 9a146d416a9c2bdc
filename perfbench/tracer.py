"""Spans and counters around fastexit's layers, installed from outside.

The package is not edited: `Tracer.install` replaces functions and methods
with timing wrappers, in every `fastexit` module that holds them (a function
imported by name into another module is replaced there too), and
`Tracer.uninstall` puts the originals back.

Without `full`, only the three solve-layer entry points and `ldp.v_bar` are
wrapped; that is what the untraced benchmark run needs for `setup_s` and
`path_steps_per_s`, at a cost of a few calls per run.  `v_bar` is set-up work
that `exit_time_mc` does inside the solve layer, so its time is taken out of
`solve_s` and kept as `setup_in_solve_s`, and solve-layer calls it makes are
part of it.  With `full`, every layer listed in `LAYER_METRICS` is wrapped.
Times are inclusive: `ensemble.step_s` contains the noise draws and
coefficient calls made inside the step.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import threading
import time

# (module, function, per-layer time metric)
SOLVE_FUNCTIONS = (
    ("exit_times", "exit_time_mc", "exit_times.mc_s"),
    ("solver", "averaging_error_ensemble", "solver.averaging_panel_s"),
    ("ldp", "quasi_potential_variational", "ldp.qp_s"),
)

LAYER_METRICS = {
    "process.import_s": "s",
    "config.build_system_s": "s",
    "runs.hypothesis_checks_s": "s",
    "exit_times.build_domain_s": "s",
    "ldp.v_bar_s": "s",
    "ensemble.step_calls": "count",
    "ensemble.row_steps": "count",
    "ensemble.step_s": "s",
    "ensemble.step_us_per_row": "us",
    "noise.normals_drawn": "count",
    "noise.draw_s": "s",
    "coefficients.pointwise_calls": "count",
    "coefficients.pointwise_s": "s",
    "exit_times.mc_s": "s",
    "exit_times.membership_calls": "count",
    "exit_times.membership_s": "s",
    "ensemble.diverged_mask_s": "s",
    "operator.to_grid_s": "s",
    "exit_times.live_row_fraction": "ratio",
    "ensemble.block_busy_s": "s",
    "ensemble.parallel_speedup": "ratio",
    "solver.averaging_panel_s": "s",
    "solver.limit_ode_s": "s",
    "ldp.minimize_calls": "count",
    "ldp.minimize_s": "s",
    "ldp.lbfgs_iterations": "count",
    "ldp.action_grad_evals": "count",
    "ldp.largest_horizon_wins": "count",
    "ldp.qp_points_per_s": "points/s",
    "coefficients.averaged_calls": "count",
    "coefficients.averaged_s": "s",
    "runs.finalize_run_s": "s",
}


def live_path_steps(taus, dt: float) -> int:
    """Path-steps that advanced a live path: sum of ceil(tau / dt) over the paths."""
    return sum(math.ceil(tau / dt) for tau in taus)


_AVERAGED_METHODS = ("f_bar", "f_bar_prime", "row_h", "row_h_prime", "row_z", "h", "h_prime")


class _TimedGenerator:
    """Stands in for a numpy Generator; times and counts standard_normal draws."""

    def __init__(self, gen, tracer: "Tracer"):
        self._inner = gen
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        t0 = time.perf_counter()
        out = self._inner.standard_normal(*args, **kwargs)
        self._tracer.add(("noise.draw_s", time.perf_counter() - t0), ("noise.normals_drawn", out.size))
        return out

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Tracer:
    """Wraps fastexit's layers and accumulates their times and counts."""

    def __init__(self, full: bool):
        self.full = full
        self.totals: dict[str, float] = {}
        self.first_solve_at: float | None = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- accumulation -------------------------------------------------------

    def add(self, *pairs: tuple[str, float]) -> None:
        """Add each (key, amount) pair; the lock keeps counts exact across threads."""
        with self._lock:
            for key, amount in pairs:
                self.totals[key] = self.totals.get(key, 0) + amount

    def get(self, key: str):
        return self.totals.get(key, 0)

    # -- patching -----------------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _patch_function(self, module: str, name: str, make_wrapper) -> None:
        """Replace fastexit.<module>.<name> wherever a fastexit module holds it."""
        original = getattr(sys.modules[f"fastexit.{module}"], name)
        wrapper = functools.wraps(original)(make_wrapper(original))
        for mod_name, mod in sorted(sys.modules.items()):
            if mod_name.split(".")[0] != "fastexit" or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _patch_method(self, cls, name: str, make_wrapper) -> None:
        original = cls.__dict__[name]
        self._set(cls, name, functools.wraps(original)(make_wrapper(original)))

    def _timed(self, key_s: str, key_calls: str | None = None):
        def make(fn):
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    pairs = [(key_s, time.perf_counter() - t0)]
                    if key_calls:
                        pairs.append((key_calls, 1))
                    self.add(*pairs)

            return wrapper

        return make

    def install(self) -> None:
        import fastexit.cli  # noqa: F401  (loads every module the CLI runs)

        for module, name, key in SOLVE_FUNCTIONS:
            self._patch_function(module, name, self._solve_wrapper(module, key))
        self._patch_function("ldp", "v_bar", self._v_bar_wrapper)
        if not self.full:
            return

        from fastexit import coefficients, ensemble, operator

        self._patch_function("config", "build_system", self._timed("config.build_system_s"))
        self._patch_function("runs", "hypothesis_checks", self._timed("runs.hypothesis_checks_s"))
        self._patch_function("runs", "finalize_run", self._timed("runs.finalize_run_s"))
        self._patch_function("exit_times", "build_domain", self._timed("exit_times.build_domain_s"))
        self._patch_function(
            "exit_times", "membership_values",
            self._timed("exit_times.membership_s", "exit_times.membership_calls"),
        )
        self._patch_function("ldp", "minimize_path_action", self._minimize_path_wrapper)
        self._patch_function("ldp", "minimize", self._optimizer_wrapper)
        self._patch_function("ensemble", "diverged_mask", self._timed("ensemble.diverged_mask_s"))
        self._patch_function("ensemble", "map_blocks", self._map_blocks_wrapper)
        self._patch_function("ensemble", "block_stream", self._block_stream_wrapper)
        self._patch_function("solver", "solve_limit_ode", self._timed("solver.limit_ode_s"))
        self._patch_method(ensemble.SpdeStepper, "step", self._step_wrapper)
        self._patch_method(
            coefficients.Coefficient, "value",
            self._timed("coefficients.pointwise_s", "coefficients.pointwise_calls"),
        )
        for name in _AVERAGED_METHODS:
            self._patch_method(coefficients.AveragedModel, name, self._averaged_wrapper)
        self._patch_method(operator.SpectralOperator, "to_grid", self._timed("operator.to_grid_s"))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- wrappers -----------------------------------------------------------

    def _solve_wrapper(self, module: str, key: str):
        """Times outermost solve-layer calls, less the set-up (`v_bar`) done inside them."""

        def make(fn):
            signature = inspect.signature(fn)

            def wrapper(*args, **kwargs):
                if getattr(self._local, "solve_depth", 0):
                    return fn(*args, **kwargs)  # called by v_bar or by another solve call
                t0 = time.monotonic()
                if self.first_solve_at is None:
                    self.first_solve_at = t0
                rows_before = self.get("ensemble.row_steps")
                v_bar_before = self.get("ldp.v_bar_s")
                self._local.horizon_values = []
                self._local.solve_depth = 1
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self._local.solve_depth = 0
                    elapsed = time.monotonic() - t0
                    in_setup = self.get("ldp.v_bar_s") - v_bar_before
                    self.add(("solve_s", elapsed - in_setup), ("setup_in_solve_s", in_setup), (key, elapsed))
                if self.full:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    if module == "exit_times":
                        dt = bound.arguments["dt"]
                        self.add(
                            ("exit_times.live_path_steps", sum(live_path_steps(s.taus, dt) for s in out)),
                            ("exit_times.mc_row_steps", self.get("ensemble.row_steps") - rows_before),
                        )
                    elif module == "ldp":
                        self._count_horizon_win(bound.arguments["horizons"])
                return out

            return wrapper

        return make

    def _v_bar_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            depth = getattr(self._local, "solve_depth", 0)
            self._local.solve_depth = depth + 1
            t0 = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                self._local.solve_depth = depth
                self.add(("ldp.v_bar_s", time.monotonic() - t0))

        return wrapper

    def _count_horizon_win(self, horizons) -> None:
        """Count a y point whose first minimum over the horizon grid is at its largest horizon."""
        values = self._local.horizon_values
        self.add(("ldp.qp_points", 1))
        if values:
            best = min(range(len(values)), key=lambda i: (values[i][1], i))
            won = values[best][0] == max(float(h) for h in horizons)
            self.add(("ldp.largest_horizon_wins", int(won)))

    def _minimize_path_wrapper(self, fn):
        def wrapper(model, t_span, *args, **kwargs):
            t0 = time.perf_counter()
            out = fn(model, t_span, *args, **kwargs)
            self.add(("ldp.minimize_s", time.perf_counter() - t0), ("ldp.minimize_calls", 1))
            getattr(self._local, "horizon_values", []).append((float(t_span[1]), out.value))
            return out

        return wrapper

    def _optimizer_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            res = fn(*args, **kwargs)
            self.add(("ldp.lbfgs_iterations", int(res.nit)), ("ldp.action_grad_evals", int(res.nfev)))
            return res

        return wrapper

    def _step_wrapper(self, fn):
        def wrapper(stepper, t, u, gen):
            t0 = time.perf_counter()
            out = fn(stepper, t, u, gen)
            self.add(
                ("ensemble.step_s", time.perf_counter() - t0),
                ("ensemble.step_calls", 1),
                ("ensemble.row_steps", int(u.shape[0])),
            )
            return out

        return wrapper

    def _map_blocks_wrapper(self, fn):
        def wrapper(block_fn, n_paths, threads=1):
            def timed_block(*blk):
                t0 = time.perf_counter()
                try:
                    return block_fn(*blk)
                finally:
                    self.add(("ensemble.block_busy_s", time.perf_counter() - t0))

            t0 = time.perf_counter()
            try:
                return fn(timed_block, n_paths, threads)
            finally:
                self.add(("ensemble.map_blocks_s", time.perf_counter() - t0))

        return wrapper

    def _block_stream_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            stream = fn(*args, **kwargs)
            stream._gen = _TimedGenerator(stream._gen, self)
            return stream

        return wrapper

    def _averaged_wrapper(self, fn):
        """Times only outermost calls: AveragedModel.h calls row_h and row_z itself."""

        def wrapper(*args, **kwargs):
            depth = getattr(self._local, "averaged_depth", 0)
            self._local.averaged_depth = depth + 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._local.averaged_depth = depth
                if depth == 0:
                    self.add(("coefficients.averaged_s", time.perf_counter() - t0), ("coefficients.averaged_calls", 1))

        return wrapper

    # -- results ------------------------------------------------------------

    def layer_metrics(self, import_s: float) -> dict[str, float]:
        """Every name in LAYER_METRICS; a layer the run never called reads 0."""
        g = self.get

        def ratio(num: str, den: str, scale: float = 1.0) -> float:
            return scale * g(num) / g(den) if g(den) else 0.0

        out = {name: g(name) for name in LAYER_METRICS}
        out["process.import_s"] = import_s
        out["ensemble.step_us_per_row"] = ratio("ensemble.step_s", "ensemble.row_steps", 1e6)
        out["exit_times.live_row_fraction"] = ratio("exit_times.live_path_steps", "exit_times.mc_row_steps")
        out["ensemble.parallel_speedup"] = ratio("ensemble.block_busy_s", "ensemble.map_blocks_s")
        out["ldp.qp_points_per_s"] = ratio("ldp.qp_points", "ldp.qp_s")
        return out

"""The benchmark's instrumentation against the program it measures, at small sizes."""

import json
import time

import pytest

import run
from tracer import Tracer


def _small(kind: str, **overrides) -> dict:
    """A one-level, one-block version of the workload of this kind."""
    name = next(w for w, k in run.WORKLOADS.items() if k == kind)
    cfg = run.round_input(json.loads((run.BENCH_DIR / "workloads" / f"{name}.json").read_text()), kind, 7, 0)
    if kind == "quasipotential":
        cfg["experiment"].update(y_values=[-0.5, 0.75], horizons=[2.0, 4.0], n_nodes=60)
    else:
        cfg["multiscale"]["eps"] = cfg["multiscale"]["eps"][:1]
        cfg["n_paths"] = 64
    cfg.update(overrides)
    return cfg


def _run(cfg: dict, kind: str, path, trace: bool) -> "run.Round":
    rnd = run.run_round(cfg, kind, path, trace, time.monotonic() + 120.0)
    assert rnd.status == 0, (path / "stderr.txt").read_text()
    return rnd


def _taus(rnd) -> list[float]:
    return [row["tau"] for row in run._read_csv(rnd.out / "exit_taus.csv")]


@pytest.mark.parametrize("kind", ["exit", "average", "quasipotential"])
def test_traced_run_writes_identical_outputs(kind, work_dir):
    cfg = _small(kind, threads=2, n_paths=128) if kind != "quasipotential" else _small(kind)
    plain = _run(cfg, kind, work_dir / "plain", trace=False)
    traced = _run(cfg, kind, work_dir / "traced", trace=True)
    assert run.same_outputs(plain.out, traced.out)
    assert plain.layers is None
    assert set(traced.layers) == set(run.LAYER_METRICS)
    assert traced.solve_s > 0 and traced.setup_s > 0
    ops, problems = run.check_round(kind, cfg, traced.out)
    assert (ops, problems) == (0, [])


def test_v_bar_counts_as_setup(work_dir):
    """With a multiplicative exit model, v_bar minimizes actions inside exit_time_mc: that is set-up."""
    cfg = _small("exit")
    cfg["coefficients"]["g"] = {"kind": "logistic_clipped", "amp": 0.5, "width": 1.0, "offset": 1.0}
    traced = _run(cfg, "exit", work_dir / "traced", trace=True)
    layers = traced.layers
    assert layers["ldp.minimize_calls"] > 0 and layers["ldp.v_bar_s"] > 0
    assert layers["ldp.qp_points_per_s"] == 0.0  # the nested quasi_potential_variational calls are not solve calls
    assert abs(traced.solve_s - (layers["exit_times.mc_s"] - layers["ldp.v_bar_s"])) < 1e-3


def test_wrappers_restore_originals():
    import fastexit.cli  # noqa: F401
    import sys

    def snapshot():
        seen = {}
        for name, mod in sys.modules.items():
            if name.split(".")[0] == "fastexit" and mod is not None:
                seen[name] = dict(vars(mod))
                for attr, value in vars(mod).items():
                    if isinstance(value, type) and value.__module__ == name:
                        seen[f"{name}.{attr}"] = dict(vars(value))
        return seen

    before = snapshot()
    tracer = Tracer(full=True)
    tracer.install()
    try:
        during = snapshot()
        assert during != before
        assert during["fastexit.runs"]["exit_time_mc"] is not before["fastexit.runs"]["exit_time_mc"]
    finally:
        tracer.uninstall()
    after = snapshot()
    assert after.keys() == before.keys()
    for key, attrs in before.items():
        assert after[key].keys() == attrs.keys(), key
        for attr, value in attrs.items():
            assert after[key][attr] is value, f"{key}.{attr}"


def test_reproducibility_contract(work_dir):
    """A path's exit time does not depend on the thread count or the path count."""
    cfg = _small("exit")
    one_block = _taus(_run(cfg, "exit", work_dir / "p64-t1", trace=False))
    for name, overrides in (("p128-t1", {"n_paths": 128, "threads": 1}), ("p128-t2", {"n_paths": 128, "threads": 2})):
        taus = _taus(_run(dict(cfg, **overrides), "exit", work_dir / name, trace=False))
        assert len(taus) == 128
        assert taus[:64] == one_block, name

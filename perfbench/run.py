"""fastexit benchmark: end-to-end and per-layer metrics of three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a fastexit source tree; the package is imported from
its `src/`.  A run starts rounds while half of a typical round still fits in
S seconds (at least one round).  A round is one fresh `fastexit` process on a config
made from the workload's file in `perfbench/workloads/` and the seed.

--trace 0 gives each round its own input, derived from (seed, round), and
reports the median over rounds of every end-to-end metric.  --trace 1 runs
pairs of rounds on the round-0 input, one untraced and one traced, checks
that the two write identical outputs, and reports the per-layer metrics of
the traced rounds: counts, which repeat exactly, and median times.

Every round's outputs are checked (see README.md).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import compileall
import ctypes
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference
from tracer import LAYER_METRICS, live_path_steps

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = {
    "exit-additive": "exit",
    "average-multiplicative": "average",
    "quasipotential-multiplicative": "quasipotential",
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "path_steps_per_s": "path-steps/s",
}

TRACE_METRICS = {
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead": "ratio",
}

# Exit check: each level's mean tau, pooled over the distinct inputs of a run,
# must match the continuity-corrected Dynkin value within EXIT_CI_Z standard
# errors of log(mean tau) plus EXIT_LOG_MARGIN.  The margin covers what the 1-D
# law leaves out (non-constant modes, the approximate correction): pooled over
# 10240 paths per level, the gaps were -0.029, -0.013 and -0.011 at gamma =
# 0.25, 0.125 and 0.0625, each with a standard error of 0.010.
# z = 3.29 is a 99.9% interval, so that a correct program fails the check in
# well under one of the runs a comparison makes.  A run pools too few paths
# for the tolerance to resolve the correction itself: exit_law.json in the
# run's directory records, per level, the tolerance reached and whether it is
# smaller than the gap to the uncorrected value.
EXIT_CI_Z = 3.29
EXIT_LOG_MARGIN = 0.05
QP_REL_TOL = 1e-3
QP_Y_RANGE = (0.25, 1.0)
QP_Y_PER_SIDE = 3
# A round still running RUN_SLACK_S seconds after the run's measuring time has
# ended is killed; rounds only start within that time, so each gets at least
# RUN_SLACK_S seconds, and a run of 40 seconds ends within 160.
RUN_SLACK_S = 120.0


@dataclass
class Round:
    config: dict
    out: Path
    status: int
    wall_s: float
    setup_s: float
    cpu_s: float
    peak_rss_mb: float
    solve_s: float
    layers: dict | None


def round_input(base: dict, kind: str, seed: int, index: int) -> dict:
    """The config of one round: the workload file plus what (seed, index) draws."""
    rng = random.Random(f"{kind}:{seed}:{index}")
    cfg = json.loads(json.dumps(base))
    cfg["seed"] = rng.randrange(2**31)
    if kind == "quasipotential":
        mags = [rng.uniform(*QP_Y_RANGE) for _ in range(2 * QP_Y_PER_SIDE)]
        cfg["experiment"]["y_values"] = sorted([-m for m in mags[:QP_Y_PER_SIDE]] + mags[QP_Y_PER_SIDE:])
    return cfg


def run_round(cfg: dict, kind: str, round_dir: Path, trace: bool, deadline: float) -> Round:
    """One fresh fastexit process; wall, CPU and peak memory come from wait4."""
    round_dir.mkdir(parents=True)
    cfg = dict(cfg, output_dir="out")  # relative to the round directory, so configs of one input match
    cfg_path = round_dir / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=2))
    timing_path = round_dir / "timing.json"
    env = dict(os.environ)
    env.pop("FASTEXIT_THREADS", None)  # the config alone sets the thread count
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(BENCH_DIR / "launch.py"), str(timing_path), "1" if trace else "0",
           "--", kind, "--config", cfg_path.name]
    with open(round_dir / "stdout.txt", "w") as out, open(round_dir / "stderr.txt", "w") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=round_dir)
        killer = threading.Timer(max(1.0, deadline - t0), proc.kill)
        killer.start()
        try:
            _, wait_status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(wait_status)
    timing = json.loads(timing_path.read_text()) if timing_path.exists() else {}
    first_solve = timing.get("first_solve_at")
    return Round(
        config=cfg,
        out=round_dir / "out",
        status=proc.returncode,
        wall_s=wall,
        # set-up ends at the first solve-layer call, plus the v_bar set-up done inside the solve layer
        setup_s=(first_solve - t0 + timing["setup_in_solve_s"]) if first_solve is not None else math.nan,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        solve_s=timing.get("solve_s", math.nan),
        layers=timing.get("layers"),
    )


# -- per-workload work counts and checks ------------------------------------

def _read_csv(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]


def attempted_ops(kind: str, cfg: dict) -> int:
    """Paths times levels for the Monte Carlo workloads, y points otherwise."""
    if kind == "quasipotential":
        return len(cfg["experiment"]["y_values"])
    return cfg["n_paths"] * len(cfg["multiscale"]["eps"])


def path_steps(kind: str, cfg: dict, out: Path) -> int:
    """Live path-steps of the Monte Carlo drivers; solved path-steps for quasi-potentials."""
    if kind == "exit":
        dt = cfg["solver"]["dt"]
        return live_path_steps((row["tau"] for row in _read_csv(out / "exit_taus.csv")), dt)
    if kind == "average":
        levels = json.loads((out / "averaging_summary.json").read_text())["levels"]
        steps = round(cfg["solver"]["t_final"] / cfg["solver"]["dt"])
        return sum(cfg["n_paths"] - lvl["n_diverged"] for lvl in levels) * steps
    exp = cfg["experiment"]
    return len(exp["y_values"]) * len(exp["horizons"]) * (exp["n_nodes"] - 1)


def check_round(kind: str, cfg: dict, out: Path) -> tuple[int, list[str]]:
    """Failed operations and the problems found in one round's outputs."""
    if kind == "exit":
        summary = json.loads((out / "exit_summary.json").read_text())
        levels = summary["levels"]
        failed = sum(lvl["censored"] for lvl in levels)
        problems = []
        dom = cfg["experiment"]["domain"]
        v_bar = reference.quasi_potential_1d(
            math.sqrt(dom["level"] / dom["scale"]), cfg["coefficients"]["f"]["slope"], _intensity(cfg))
        if not abs(summary["v_bar_target"] - v_bar) <= 1e-9:
            problems.append(f"v_bar_target {summary['v_bar_target']} != y^2/H = {v_bar}")
        taus = [lvl["mean_tau"] for lvl in sorted(levels, key=lambda lvl: -lvl["gamma"])]
        if any(b <= a for a, b in zip(taus, taus[1:])):
            problems.append(f"mean tau does not rise as gamma falls: {taus}")
        return failed, problems
    if kind == "average":
        summary = json.loads((out / "averaging_summary.json").read_text())
        levels = summary["levels"]
        failed = sum(lvl["n_diverged"] for lvl in levels)
        problems = [] if len(levels) == len(cfg["multiscale"]["eps"]) else [f"levels missing: {summary['error']}"]
        for a, b in zip(levels, levels[1:]):
            if not a["mean_err"] - b["mean_err"] > a["ci"] + b["ci"]:
                problems.append(f"sup-error does not fall from eps={a['eps']} to eps={b['eps']}")
        return failed, problems
    rows = _read_csv(out / "quasipotential.csv")
    h = _intensity(cfg)
    slope = cfg["coefficients"]["f"]["slope"]
    problems = []
    for row in rows:
        ref = reference.quasi_potential_1d(row["y"], slope, h)
        if not abs(row["v_variational"] - ref) <= QP_REL_TOL * abs(ref):
            problems.append(f"V({row['y']}) = {row['v_variational']}, 1-D quadrature {ref}")
    if [row["y"] for row in rows] != cfg["experiment"]["y_values"]:
        problems.append("quasipotential.csv does not list the configured y values")
    return 0, problems


def _intensity(cfg: dict):
    """H(s) of the config under the reduction in reference.py."""
    g = cfg["coefficients"]["g"]
    gain = (lambda s: np.full(np.shape(s), g["value"])) if g["kind"] == "constant" else reference.logistic_clipped(
        g["amp"], g["width"], g.get("offset", 0.0))
    q = cfg["noise"]["q_spectrum"]
    return lambda s: reference.noise_intensity(
        gain(s), q["value"], cfg["noise"]["b_spectrum"]["values"],
        cfg["coefficients"]["sigma"]["value"], cfg["multiscale"]["rho_bar"])


def check_exit_law(rounds: list[Round], work_dir: Path) -> list[str]:
    """Pooled mean tau per level against the continuity-corrected Dynkin value."""
    cfg = rounds[0].config
    dt = cfg["solver"]["dt"]
    half_width = math.sqrt(cfg["experiment"]["domain"]["level"] / cfg["experiment"]["domain"]["scale"])
    h = float(_intensity(cfg)(0.0))
    seen, pooled = set(), {}
    for rnd in rounds:
        if rnd.config["seed"] in seen:
            continue
        seen.add(rnd.config["seed"])
        for row in _read_csv(rnd.out / "exit_taus.csv"):
            pooled.setdefault(row["gamma"], []).append(row["tau"])
    problems, report = [], []
    for gamma, taus in sorted(pooled.items(), reverse=True):
        sigma2 = gamma * h
        expected = reference.ou_mean_exit_time(reference.corrected_half_width(half_width, sigma2, dt), sigma2)
        uncorrected = reference.ou_mean_exit_time(half_width, sigma2)
        mean = statistics.fmean(taus)
        tolerance = EXIT_CI_Z * statistics.stdev(taus) / math.sqrt(len(taus)) / mean + EXIT_LOG_MARGIN
        gap = math.log(mean / expected)
        report.append({
            "gamma": gamma, "paths": len(taus), "mean_tau": mean, "corrected_dynkin": expected,
            "uncorrected_dynkin": uncorrected, "log_gap": gap, "log_tolerance": tolerance,
            "resolves_correction": tolerance < abs(math.log(expected / uncorrected)),
        })
        if not abs(gap) <= tolerance:
            problems.append(
                f"gamma={gamma}: mean tau {mean:.4g} over {len(taus)} paths vs corrected Dynkin "
                f"{expected:.4g} (log gap {gap:.3g} beyond tolerance {tolerance:.3g})")
    (work_dir / "exit_law.json").write_text(json.dumps(report, indent=1))
    for lvl in report:
        print(f"exit law, gamma={lvl['gamma']:.4g}: {lvl['paths']} paths, log gap {lvl['log_gap']:+.3f}, "
              f"tolerance {lvl['log_tolerance']:.3f}, resolves the correction: {lvl['resolves_correction']}",
              file=sys.stderr)
    return problems


def same_outputs(a: Path, b: Path) -> bool:
    """Byte-identical output files, the manifest's wall clock aside."""
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    for name in names:
        if name == "run_manifest.json":
            ma, mb = (json.loads((d / name).read_text()) for d in (a, b))
            ma.pop("wall_clock_s"), mb.pop("wall_clock_s")
            if ma != mb:
                return False
        elif (a / name).read_bytes() != (b / name).read_bytes():
            return False
    return True


# -- environment ------------------------------------------------------------

def blas_environment() -> dict:
    """Thread counts and builds of the OpenBLAS libraries numpy and scipy load."""
    import scipy
    import scipy.optimize  # noqa: F401  (loads scipy's own OpenBLAS)

    libs = {}
    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {}
        for what, restype in (("get_num_threads", ctypes.c_int), ("get_config", ctypes.c_char_p)):
            names = [prefix + what + suffix for prefix in ("scipy_openblas_", "openblas_") for suffix in ("64_", "")]
            fn = next((getattr(lib, n) for n in names if hasattr(lib, n)), None)
            if fn is not None:
                fn.restype = restype
                value = fn()
                info[what] = value.decode() if isinstance(value, bytes) else value
        libs[Path(path).name] = info
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": libs,
        "thread_env": {k: os.environ[k] for k in sorted(os.environ)
                       if k.endswith("_NUM_THREADS") or k == "FASTEXIT_THREADS"},
    }


# -- driver -----------------------------------------------------------------

def median(values) -> float:
    return float(statistics.median(values))


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    kind = WORKLOADS[workload]
    base = json.loads((BENCH_DIR / "workloads" / f"{workload}.json").read_text())
    work_dir = OUT_DIR / workload / f"seed{seed}-trace{int(trace)}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    (work_dir / "environment.json").write_text(json.dumps(blas_environment(), indent=2))
    # byte-compile once, so that no round pays for it
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(BENCH_DIR, quiet=1, maxlevels=0)

    started = time.monotonic()
    deadline = started + seconds + RUN_SLACK_S
    rounds: list[Round] = []
    traced: list[Round] = []
    pair_walls: list[float] = []
    attempted = failed = 0
    problems: list[str] = []
    while True:
        index = len(rounds)
        cfg = round_input(base, kind, seed, 0 if trace else index)
        rnd = run_round(cfg, kind, work_dir / f"round{index:03d}", False, deadline)
        pair = [rnd]
        if trace:
            pair.append(run_round(cfg, kind, work_dir / f"round{index:03d}-traced", True, deadline))
            traced.append(pair[1])
        rounds.append(rnd)
        for r in pair:
            attempted += attempted_ops(kind, cfg)
            if r.status != 0:
                failed += attempted_ops(kind, cfg)
                problems.append(f"{r.out.parent.name}: fastexit exited with status {r.status}")
                continue
            n_failed, found = check_round(kind, cfg, r.out)
            failed += n_failed
            problems += [f"{r.out.parent.name}: {p}" for p in found]
        if trace and all(r.status == 0 for r in pair) and not same_outputs(pair[0].out, pair[1].out):
            problems.append(f"round {index}: traced and untraced outputs differ")
        pair_walls.append(sum(r.wall_s for r in pair))
        # start another round while half of a typical one fits: runs last `seconds` on average
        if problems or time.monotonic() - started + median(pair_walls) / 2 > seconds:
            break
    if not problems and kind == "exit":
        problems += check_exit_law(rounds, work_dir)

    if trace:
        metrics = trace_metrics(rounds, traced, problems)
    else:
        metrics = {
            "wall_s": median(r.wall_s for r in rounds),
            "setup_s": median(r.setup_s for r in rounds),
            "cpu_s": median(r.cpu_s for r in rounds),
            "peak_rss_mb": median(r.peak_rss_mb for r in rounds),
            "path_steps_per_s": median(
                path_steps(kind, r.config, r.out) / r.solve_s if r.status == 0 else 0.0 for r in rounds),
        }
    (work_dir / "rounds.json").write_text(json.dumps(
        [{"dir": r.out.parent.name, "status": r.status, "wall_s": r.wall_s, "setup_s": r.setup_s,
          "cpu_s": r.cpu_s, "peak_rss_mb": r.peak_rss_mb, "solve_s": r.solve_s,
          "path_steps": path_steps(kind, r.config, r.out) if r.status == 0 else None}
         for r in rounds + traced], indent=1))
    units = TRACE_METRICS | LAYER_METRICS if trace else END_TO_END
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def trace_metrics(untraced: list[Round], traced: list[Round], problems: list[str]) -> dict:
    """Per-layer metrics of the traced rounds, which all ran the round-0 input."""
    layers = [r.layers for r in traced if r.layers]
    if not layers:
        return {name: 0.0 for name in TRACE_METRICS | LAYER_METRICS}
    out = {}
    for name, unit in LAYER_METRICS.items():
        values = [lay[name] for lay in layers]
        if unit == "count":
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced rounds of one input: {values}")
            out[name] = values[0]
        else:
            out[name] = median(values)
    out["trace.wall_s"] = median(r.wall_s for r in traced)
    out["trace.untraced_wall_s"] = median(r.wall_s for r in untraced)
    out["trace.overhead"] = median(t.wall_s / u.wall_s - 1.0 for u, t in zip(untraced, traced))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fastexit" / "cli.py").is_file():
        print(f"perfbench: no fastexit source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

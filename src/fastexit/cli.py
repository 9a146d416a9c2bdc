"""Command-line entry point.

Subcommands: check, simulate, average, action, quasipotential, exit.
--seed, --paths, --threads and --out override the config and are recorded
in config_resolved.json.
Exit status: 0 success, 1 configuration or file error, 2 required
hypothesis failed (a check, or a noise intensity H that vanishes where an
action or quasi-potential needs it), 3 numerical failure: a diverged path or
an optimizer that did not converge.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import load_config, resolve_config
from .errors import ConfigError, DivergenceError, NondegeneracyError, OptimizationError
from .runs import (
    EXIT_DIVERGED,
    EXIT_HYPOTHESIS_FAILED,
    run_action,
    run_average,
    run_check,
    run_exit,
    run_quasipotential,
    run_simulate,
)

RUNS = {
    "check": run_check,
    "simulate": run_simulate,
    "average": run_average,
    "action": run_action,
    "quasipotential": run_quasipotential,
    "exit": run_exit,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # keep status 2 reserved for hypothesis failures
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="fastexit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in RUNS:
        p = sub.add_parser(kind, help=f"run the {kind} experiment")
        p.add_argument("--config", required=True, help="experiment config (JSON)")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument("--threads", type=int, default=None, help="worker threads")
        p.add_argument("--paths", type=int, default=None, help="override path count")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        raw = load_config(args.config)
        if not isinstance(raw, dict):
            raise ConfigError("<root>", f"{raw!r} is not of type 'object'")
        experiment = raw.setdefault("experiment", {})
        if not isinstance(experiment, dict):
            raise ConfigError("experiment", f"{experiment!r} is not of type 'object'")
        if args.seed is not None:
            raw["seed"] = args.seed
        if args.paths is not None:
            raw["n_paths"] = args.paths
        if args.threads is not None:
            raw["threads"] = args.threads
        if args.out is not None:
            raw["output_dir"] = args.out
        experiment.setdefault("kind", args.command)
        if args.command != "check" and experiment["kind"] != args.command:
            experiment["kind"] = args.command
        resolved = resolve_config(raw)
        out_dir = Path(resolved["output_dir"])
        out_dir.mkdir(parents=True, exist_ok=True)
        status = RUNS[args.command](resolved, out_dir)
        if status != 0:
            print(f"fastexit {args.command}: finished with status {status}", file=sys.stderr)
        return status
    except (ConfigError, FileNotFoundError) as exc:
        print(f"fastexit: {exc}", file=sys.stderr)
        return 1
    except NondegeneracyError as exc:
        print(f"fastexit: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS_FAILED
    except (DivergenceError, OptimizationError) as exc:
        print(f"fastexit: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())

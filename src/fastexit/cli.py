"""Command-line entry point.

Subcommands: check, simulate, average, action, quasipotential, exit.
--seed, --paths, --threads and --out override the config and are recorded
in config_resolved.json.
Exit status: 0 success, 1 configuration or file error, 2 required
hypothesis failed (a check, or a noise intensity H that vanishes where an
action or quasi-potential needs it), 3 numerical failure: a diverged path or
an optimizer that did not converge.  A run that ends with a nonzero status
prints one line to stderr, with the `error` its manifest records.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import load_config, resolve_config
from .errors import ConfigError
from .runs import RUNS, execute


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
        status = execute(args.command, resolved, out_dir)
        if status != 0:
            error = json.loads((out_dir / "run_manifest.json").read_text()).get("error")
            print(f"fastexit {args.command}: finished with status {status}" + (f": {error}" if error else ""),
                  file=sys.stderr)
        return status
    except (ConfigError, OSError) as exc:
        print(f"fastexit: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

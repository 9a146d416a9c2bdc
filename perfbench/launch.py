"""Run one fastexit command in this process, with the benchmark's spans.

    python3 perfbench/launch.py TIMING_JSON TRACE -- <fastexit arguments>

TRACE is 0 or 1.  The command runs through `fastexit.cli.main`, exactly as
the `fastexit` console script runs it.  TIMING_JSON receives the monotonic
time of the first solve-layer call, the seconds spent inside solve-layer
calls, the seconds of set-up (`v_bar`) done inside them and, with TRACE 1,
every per-layer metric.  The exit status is the command's.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    timing_path, trace, sep, *cli_args = argv
    if trace not in ("0", "1") or sep != "--":
        raise SystemExit(__doc__)
    t0 = time.perf_counter()
    import fastexit.cli

    import_s = time.perf_counter() - t0
    from tracer import Tracer

    tracer = Tracer(full=trace == "1")
    tracer.install()
    try:
        status = fastexit.cli.main(cli_args)
    finally:
        tracer.uninstall()
    timing = {
        "first_solve_at": tracer.first_solve_at,
        "solve_s": tracer.get("solve_s"),
        "setup_in_solve_s": tracer.get("setup_in_solve_s"),
        "layers": tracer.layer_metrics(import_s) if tracer.full else None,
    }
    with open(timing_path, "w") as fh:
        json.dump(timing, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

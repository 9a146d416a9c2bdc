#!/usr/bin/env bash
# Print the output checksums of every reference and benchmark config.
#
# Usage: scripts/golden_outputs.sh OUT_DIR
#
# Runs each config in configs/ and perfbench/workloads/ with its own command,
# plus `simulate` on the averaging reference and `action` on the
# quasi-potential reference, all with --paths 64, a fixed --seed and a fixed
# --out under OUT_DIR.  A chunk of n live rows runs 4096 // n steps, at least
# 32, and the last chunk is cut to the steps left.  One more exit run at
# --paths 160 (three whole tiles of 64 rows, the last padded from 32, while
# every path lives) exercises several tiles, and one at experiment.t_max = 1.0
# (200 steps of dt = 0.005: at the finest level, where no path exits, three
# chunks of 64 steps and a last chunk of 8) exercises a partial last chunk and
# paths censored at t_max.  One more average run of the multiplicative
# workload at --paths 100 (tiles of 64 and 36 rows, the second padded to 64)
# exercises a padded tile of the interior-noise step, and a `simulate` run of
# that workload steps its one path of the state-dependent gain as a tile of
# two rows, the second padding.  One more exit run of the exit reference at
# --paths 65 (while every path lives, a 64-row tile and one row padded to a
# whole second tile) exercises the padded tile of the one-product step, and
# one at --paths 2 (at the finest level a lone row crosses chunks of 4096
# steps) exercises long chunks.  One more action run on the quasi-potential
# reference reads a path file that the script writes under OUT_DIR (w(t) = 0.5 sin(pi t) + 0.2 t on [0, 1], step
# 1e-3), so the duality gap and the skeleton round trip of a path that costs
# something are covered too; it runs from OUT_DIR, so that action.json
# records the file by a name that does not depend on OUT_DIR.  A `check` run
# of the quasi-potential workload and an `action` run of its model on the
# same path file cover the nondegeneracy check and the skeleton ODE with a
# state-dependent gain (every reference config's gain is constant).  A
# `check` run of the exit reference with the gain tanh(r / 2) - 0.9 and no
# boundary noise, on the domain level 9 (the section (-3, 3)), finds where H
# vanishes, at r = 2 atanh(0.9), and exits with status 2.  An `average` run
# at --paths 65 (a 64-row tile and one row padded to a whole second tile) and
# a `simulate` run of the averaging reference with the logistic reaction
# f = -tanh(r) + 0.2 cover the grid-evaluated reaction term of the step (every
# reference config's f is affine in r).  Then prints
# the `outputs` map of each run manifest, without config_resolved.json (that
# file records the output path).  Run it on two source trees and diff what
# it prints: seeded outputs that are byte-identical print identical lines.
# Where lines differ, `scripts/compare_outputs.py OUT_A OUT_B` prints the
# largest relative difference per file, to tell a rounding change (a few
# ulps, as when a product is evaluated in another order) from a real one.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 OUT_DIR" >&2
    exit 1
fi
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
mkdir -p "$1"
OUT="$(cd "$1" && pwd)"
SEED=7
cd "$ROOT"

run() {  # run NAME COMMAND CONFIG [PATHS [STATUS]]
    local name="$1" command="$2" config="$3" paths="${4:-64}" want="${5:-0}" status=0
    PYTHONPATH="$ROOT/src" python3 -m fastexit "$command" --config "$config" \
        --paths "$paths" --seed "$SEED" --out "$OUT/$name" > /dev/null || status=$?
    if [ "$status" -ne "$want" ]; then
        echo "$name: exit status $status, expected $want" >&2
        exit 1
    fi
    python3 - "$name" "$OUT/$name/run_manifest.json" <<'PY'
import json
import sys

name, manifest = sys.argv[1], sys.argv[2]
outputs = json.load(open(manifest))["outputs"]
outputs.pop("config_resolved.json", None)
for file, digest in sorted(outputs.items()):
    print(f"{name} {file} {digest}")
PY
}

for config in configs/*.json perfbench/workloads/*.json; do
    command="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["experiment"]["kind"])' "$config")"
    name="$(basename "$(dirname "$config")")-$(basename "$config" .json)-$command"
    run "$name" "$command" "$config"
done
run configs-averaging_reference-simulate simulate configs/averaging_reference.json
run configs-quasipotential_reference-action action configs/quasipotential_reference.json
run perfbench-exit-additive-exit-160 exit perfbench/workloads/exit-additive.json 160
run perfbench-average-multiplicative-average-100 average perfbench/workloads/average-multiplicative.json 100
run perfbench-average-multiplicative-simulate simulate perfbench/workloads/average-multiplicative.json
run configs-exit_reference-exit-65 exit configs/exit_reference.json 65
run configs-exit_reference-exit-2 exit configs/exit_reference.json 2
T_MAX_CONFIG="$OUT/exit-additive-tmax1.json"
python3 - perfbench/workloads/exit-additive.json "$T_MAX_CONFIG" <<'PY'
import json
import sys

config = json.load(open(sys.argv[1]))
config["experiment"]["t_max"] = 1.0
json.dump(config, open(sys.argv[2], "w"), indent=2)
PY
run perfbench-exit-additive-exit-tmax1 exit "$T_MAX_CONFIG"
PATH_CONFIG="$OUT/action-sine-path.json"
python3 - configs/quasipotential_reference.json "$PATH_CONFIG" "$OUT/sine-path.csv" <<'PY'
import json
import math
import sys

config = json.load(open(sys.argv[1]))
config["experiment"] = {"kind": "action", "path_file": "sine-path.csv"}
json.dump(config, open(sys.argv[2], "w"), indent=2)
with open(sys.argv[3], "w") as fh:
    fh.write("t,value\n")
    for i in range(1001):
        t = i / 1000
        fh.write(f"{t!r},{0.5 * math.sin(math.pi * t) + 0.2 * t!r}\n")
PY
(cd "$OUT" && run configs-quasipotential_reference-action-sine-path action "$PATH_CONFIG")
run perfbench-quasipotential-multiplicative-check check perfbench/workloads/quasipotential-multiplicative.json
MULT_PATH_CONFIG="$OUT/action-sine-path-multiplicative.json"
python3 - perfbench/workloads/quasipotential-multiplicative.json "$MULT_PATH_CONFIG" <<'PY'
import json
import sys

config = json.load(open(sys.argv[1]))
config["experiment"] = {"kind": "action", "path_file": "sine-path.csv"}
json.dump(config, open(sys.argv[2], "w"), indent=2)
PY
(cd "$OUT" && run perfbench-quasipotential-multiplicative-action-sine-path action "$MULT_PATH_CONFIG")
DEGENERATE_CONFIG="$OUT/check-gain-vanishes.json"
python3 - configs/exit_reference.json "$DEGENERATE_CONFIG" <<'PY'
import json
import sys

config = json.load(open(sys.argv[1]))
config["coefficients"]["g"] = {"kind": "logistic_clipped", "amp": 1.0, "width": 2.0, "offset": -0.9}
config["multiscale"]["rho_bar"] = 0.0
config["multiscale"]["beta_law"]["coeff"] = 0.0
config["experiment"]["kind"] = "check"
config["experiment"]["domain"]["level"] = 9.0
json.dump(config, open(sys.argv[2], "w"), indent=2)
PY
run configs-exit_reference-check-gain-vanishes check "$DEGENERATE_CONFIG" 64 2
LOGISTIC_F_CONFIG="$OUT/averaging-logistic-f.json"
python3 - configs/averaging_reference.json "$LOGISTIC_F_CONFIG" <<'PY'
import json
import sys

config = json.load(open(sys.argv[1]))
config["coefficients"]["f"] = {"kind": "logistic_clipped", "amp": -1.0, "width": 1.0, "offset": 0.2}
json.dump(config, open(sys.argv[2], "w"), indent=2)
PY
run configs-averaging_reference-average-logistic-f-65 average "$LOGISTIC_F_CONFIG" 65
run configs-averaging_reference-simulate-logistic-f simulate "$LOGISTIC_F_CONFIG"

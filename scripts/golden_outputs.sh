#!/usr/bin/env bash
# Print the output checksums and manifest entries of every reference and
# benchmark config.
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
# records the file by a name that does not depend on OUT_DIR.  One more
# action run reads the same path with its times shifted to start at 0.5:
# the skeleton ODE steps on the path's own grid, wherever it starts.  A `check` run
# of the quasi-potential workload and an `action` run of its model on the
# same path file cover the nondegeneracy check and the skeleton ODE with a
# state-dependent gain (every reference config's gain is constant).  A
# `check` run of the exit reference with the gain tanh(r / 2) - 0.9 and no
# boundary noise, on the domain level 9 (the section (-3, 3)), finds where H
# vanishes, at r = 2 atanh(0.9), and exits with status 2.  An `average` run
# at --paths 65 (a 64-row tile and one row padded to a whole second tile) and
# a `simulate` run of the averaging reference with the logistic reaction
# f = -tanh(r) + 0.2 cover the grid-evaluated reaction term of the step (every
# reference config's f is affine in r).  An `exit` run of the exit reference
# with the repelling f = r fails its exit hypotheses and exits with status 2,
# and a `simulate` run of the averaging reference with f = 5 r and
# t_final = 10 diverges at every level and exits with status 3.  Then prints
# the `outputs` map of each run manifest, without config_resolved.json (that
# file records the output path), and every other manifest entry but
# wall_clock_s and config_hash (the hash of the resolved config, which holds
# the output path).  A `check` and a `quasipotential` run of the
# quasi-potential reference with the gain g = r + 1.5 and no boundary noise
# (H vanishes at u = -1.5, inside [-2, 2] but outside the segment [0, 1] of
# its y_values) show that `check` tests H where its run does: the `check`
# run may end with any status, and prints it.  So do a `check` and an
# `action` run of the same model with the action experiment from the constant
# x0 = 0.8, whose limit-ODE path stays in [0.29, 0.8].  Last come the runs of a config
# error: `exit` runs of the exit reference with the unknown reaction kind
# "mystery" and with alpha = beta = 0 (gamma = 0, rho_bar 0) and no t_max;
# `average` on the averaging reference with solver.delta 5.0; `simulate`,
# `average` and `action` with dt 0.02 above t_final 0.01; `action` with a
# path file that does not exist; and `check` of the exit reference with the
# domain center 1.0 and level 0.5 (0 outside the ball).  For each it prints
# the exit status and whether the run left its --out directory.  Run it on
# two source trees and diff what it prints:
# seeded outputs and manifests that are byte-identical print identical lines.
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

run() {  # run NAME COMMAND CONFIG [PATHS [STATUS, or any]]
    local name="$1" command="$2" config="$3" paths="${4:-64}" want="${5:-0}" status=0
    PYTHONPATH="$ROOT/src" python3 -m fastexit "$command" --config "$config" \
        --paths "$paths" --seed "$SEED" --out "$OUT/$name" > /dev/null || status=$?
    if [ "$want" != any ] && [ "$status" -ne "$want" ]; then
        echo "$name: exit status $status, expected $want" >&2
        exit 1
    fi
    python3 - "$name" "$OUT/$name/run_manifest.json" <<'PY'
import json
import sys

name, manifest = sys.argv[1], json.load(open(sys.argv[2]))
outputs = manifest.pop("outputs")
outputs.pop("config_resolved.json", None)
for file, digest in sorted(outputs.items()):
    print(f"{name} {file} {digest}")
for key in ("wall_clock_s", "config_hash"):
    manifest.pop(key)
for key, value in sorted(manifest.items()):
    print(f"{name} {key} {json.dumps(value, sort_keys=True)}")
PY
}

edit() {  # edit CONFIG OUT PYTHON: write CONFIG to OUT after running PYTHON on its dict `config`
    python3 -c "import json, sys
config = json.load(open(sys.argv[1]))
$3
json.dump(config, open(sys.argv[2], 'w'), indent=2)" "$1" "$2"
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
edit perfbench/workloads/exit-additive.json "$T_MAX_CONFIG" 'config["experiment"]["t_max"] = 1.0'
run perfbench-exit-additive-exit-tmax1 exit "$T_MAX_CONFIG"
PATH_CONFIG="$OUT/action-sine-path.json"
python3 - configs/quasipotential_reference.json "$PATH_CONFIG" "$OUT/sine-path.csv" "$OUT/sine-path-from-0.5.csv" <<'PY'
import json
import math
import sys

config = json.load(open(sys.argv[1]))
config["experiment"] = {"kind": "action", "path_file": "sine-path.csv"}
json.dump(config, open(sys.argv[2], "w"), indent=2)
for name, start in ((sys.argv[3], 0.0), (sys.argv[4], 0.5)):
    with open(name, "w") as fh:
        fh.write("t,value\n")
        for i in range(1001):
            t = i / 1000
            fh.write(f"{start + t!r},{0.5 * math.sin(math.pi * t) + 0.2 * t!r}\n")
PY
(cd "$OUT" && run configs-quasipotential_reference-action-sine-path action "$PATH_CONFIG")
LATE_PATH_CONFIG="$OUT/action-sine-path-from-0.5.json"
edit "$PATH_CONFIG" "$LATE_PATH_CONFIG" 'config["experiment"]["path_file"] = "sine-path-from-0.5.csv"'
(cd "$OUT" && run configs-quasipotential_reference-action-sine-path-from-0.5 action "$LATE_PATH_CONFIG")
run perfbench-quasipotential-multiplicative-check check perfbench/workloads/quasipotential-multiplicative.json
MULT_PATH_CONFIG="$OUT/action-sine-path-multiplicative.json"
edit perfbench/workloads/quasipotential-multiplicative.json "$MULT_PATH_CONFIG" '
config["experiment"] = {"kind": "action", "path_file": "sine-path.csv"}'
(cd "$OUT" && run perfbench-quasipotential-multiplicative-action-sine-path action "$MULT_PATH_CONFIG")
DEGENERATE_CONFIG="$OUT/check-gain-vanishes.json"
edit configs/exit_reference.json "$DEGENERATE_CONFIG" '
config["coefficients"]["g"] = {"kind": "logistic_clipped", "amp": 1.0, "width": 2.0, "offset": -0.9}
config["multiscale"]["rho_bar"] = 0.0
config["multiscale"]["beta_law"]["coeff"] = 0.0
config["experiment"]["kind"] = "check"
config["experiment"]["domain"]["level"] = 9.0'
run configs-exit_reference-check-gain-vanishes check "$DEGENERATE_CONFIG" 64 2
LOGISTIC_F_CONFIG="$OUT/averaging-logistic-f.json"
edit configs/averaging_reference.json "$LOGISTIC_F_CONFIG" '
config["coefficients"]["f"] = {"kind": "logistic_clipped", "amp": -1.0, "width": 1.0, "offset": 0.2}'
run configs-averaging_reference-average-logistic-f-65 average "$LOGISTIC_F_CONFIG" 65
run configs-averaging_reference-simulate-logistic-f simulate "$LOGISTIC_F_CONFIG"
REPELLING_CONFIG="$OUT/exit-repelling.json"
edit configs/exit_reference.json "$REPELLING_CONFIG" 'config["coefficients"]["f"] = {"kind": "linear", "slope": 1.0}'
run configs-exit_reference-exit-repelling exit "$REPELLING_CONFIG" 64 2
DIVERGING_CONFIG="$OUT/simulate-diverging.json"
edit configs/averaging_reference.json "$DIVERGING_CONFIG" '
config["coefficients"]["f"] = {"kind": "linear", "slope": 5.0}
config["solver"]["t_final"] = 10.0'
run configs-averaging_reference-simulate-diverging simulate "$DIVERGING_CONFIG" 64 3

GAIN_ZERO_AT_MINUS_1_5_CONFIG="$OUT/quasipotential-gain-zero-at-minus-1.5.json"
edit configs/quasipotential_reference.json "$GAIN_ZERO_AT_MINUS_1_5_CONFIG" '
config["coefficients"]["g"] = {"kind": "linear", "slope": 1.0, "offset": 1.5}
config["multiscale"]["rho_bar"] = 0.0
config["multiscale"]["beta_law"]["coeff"] = 0.0
config["experiment"]["y_values"] = [0.5, 1.0]'
run configs-quasipotential_reference-check-gain-zero-at-minus-1.5 check "$GAIN_ZERO_AT_MINUS_1_5_CONFIG" 64 any
run configs-quasipotential_reference-quasipotential-gain-zero-at-minus-1.5 quasipotential \
    "$GAIN_ZERO_AT_MINUS_1_5_CONFIG"
ACTION_GAIN_ZERO_AT_MINUS_1_5_CONFIG="$OUT/action-gain-zero-at-minus-1.5.json"
edit "$GAIN_ZERO_AT_MINUS_1_5_CONFIG" "$ACTION_GAIN_ZERO_AT_MINUS_1_5_CONFIG" '
config["experiment"] = {"kind": "action", "x0": {"kind": "constant", "value": 0.8}}'
run configs-quasipotential_reference-check-action-gain-zero-at-minus-1.5 check \
    "$ACTION_GAIN_ZERO_AT_MINUS_1_5_CONFIG" 64 any
run configs-quasipotential_reference-action-gain-zero-at-minus-1.5 action "$ACTION_GAIN_ZERO_AT_MINUS_1_5_CONFIG"

config_error() {  # config_error NAME COMMAND CONFIG: a run of a config that cannot run
    local name="$1" status=0 left=no
    PYTHONPATH="$ROOT/src" python3 -m fastexit "$2" --config "$3" --seed "$SEED" \
        --out "$OUT/$name" > /dev/null || status=$?
    [ -e "$OUT/$name" ] && left=yes
    echo "$name status $status"
    echo "$name out_exists $left"
}
edit configs/exit_reference.json "$OUT/exit-unknown-kind.json" 'config["coefficients"]["f"] = {"kind": "mystery"}'
config_error configs-exit_reference-exit-unknown-kind exit "$OUT/exit-unknown-kind.json"
edit configs/exit_reference.json "$OUT/exit-zero-gamma.json" '
config["multiscale"]["alpha_law"]["coeff"] = 0.0
config["multiscale"]["beta_law"]["coeff"] = 0.0
config["multiscale"]["rho_bar"] = 0.0'
config_error configs-exit_reference-exit-zero-gamma exit "$OUT/exit-zero-gamma.json"
edit configs/averaging_reference.json "$OUT/average-delta-5.json" 'config["solver"]["delta"] = 5.0'
config_error configs-averaging_reference-average-delta-5 average "$OUT/average-delta-5.json"
edit configs/averaging_reference.json "$OUT/dt-above-t-final.json" '
config["solver"]["dt"] = 0.02
config["solver"]["t_final"] = 0.01'
for command in simulate average action; do
    config_error "configs-averaging_reference-$command-dt-above-t-final" "$command" "$OUT/dt-above-t-final.json"
done
edit configs/quasipotential_reference.json "$OUT/action-missing-path.json" '
config["experiment"] = {"kind": "action", "path_file": "missing-path.csv"}'
(cd "$OUT" && config_error configs-quasipotential_reference-action-missing-path action "$OUT/action-missing-path.json")
edit configs/exit_reference.json "$OUT/check-domain-excludes-0.json" '
config["experiment"]["kind"] = "check"
config["experiment"]["domain"] = {"center": 1.0, "level": 0.5}'
config_error configs-exit_reference-check-domain-excludes-0 check "$OUT/check-domain-excludes-0.json"

#!/usr/bin/env bash
# Print the output checksums of every reference and benchmark config.
#
# Usage: scripts/golden_outputs.sh OUT_DIR
#
# Runs each config in configs/ and perfbench/workloads/ with its own command,
# plus `simulate` on the averaging reference and `action` on the
# quasi-potential reference, all with --paths 64, a fixed --seed and a fixed
# --out under OUT_DIR.  One more exit run at --paths 160 (three tiles of 64,
# 64 and 32 rows while every path lives) exercises several tiles, and one at
# experiment.t_max = 1.0 (200 steps of dt = 0.005: six full chunks of 32 steps
# and a last chunk of 8) exercises a partial last chunk and paths censored at
# t_max.  One more average run of the multiplicative workload at --paths 100
# (tiles of 64 and 36 rows, the second padded to 64 by the state-dependent
# gain) exercises a padded tile of the interior-noise step.  Then prints
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
OUT="$1"
SEED=7
mkdir -p "$OUT"
cd "$ROOT"

run() {  # run NAME COMMAND CONFIG [PATHS]
    local name="$1" command="$2" config="$3" paths="${4:-64}"
    PYTHONPATH="$ROOT/src" python3 -m fastexit "$command" --config "$config" \
        --paths "$paths" --seed "$SEED" --out "$OUT/$name" > /dev/null
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
T_MAX_CONFIG="$OUT/exit-additive-tmax1.json"
python3 - perfbench/workloads/exit-additive.json "$T_MAX_CONFIG" <<'PY'
import json
import sys

config = json.load(open(sys.argv[1]))
config["experiment"]["t_max"] = 1.0
json.dump(config, open(sys.argv[2], "w"), indent=2)
PY
run perfbench-exit-additive-exit-tmax1 exit "$T_MAX_CONFIG"

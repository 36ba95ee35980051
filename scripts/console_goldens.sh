#!/usr/bin/env bash
# Runs the installed robust-select console script and compares its outputs
# with the goldens under tests/data/: the check lines (25 and 200 instances),
# bench stdout and both bench files, the whole default paper sweep's stdout,
# and the fast, greedy and ratio solutions of the checked-in 16-agent ring
# (their wall times dropped). Carriage returns are stripped from each output
# before its diff, since Windows writes CRLF to stdout; any other differing
# byte fails. The failure path must exit 1 with the injected defect's FAIL
# line.
#
#   bash scripts/console_goldens.sh [OUT_DIR]
#
# OUT_DIR receives the outputs (default: a new temporary directory). It
# exits non-zero at the first mismatch.
set -euo pipefail
data="$(dirname "$0")/../tests/data"
out="${1:-$(mktemp -d)}"
same() { tr -d '\r' < "$1" | diff - "$2"; }
status=0
robust-select check --instances 2 --seed 0 --inject-defect > "$out/defect.txt" || status=$?
test "$status" -eq 1
grep -q '^FAIL matroid_axioms ' "$out/defect.txt"
robust-select check --instances 25 --seed 0 > "$out/check.txt"
same "$out/check.txt" "$data"/check_seed0_25.txt
robust-select check --instances 200 --seed 0 > "$out/check200.txt"
same "$out/check200.txt" "$data"/check_seed0_200.txt
robust-select bench --z-min 1 --z-max 3 --trials 5 --algorithms fast,greedy,ratio --no-wall-time \
  --out "$out/raw.csv" --summary "$out/summary_file.csv" > "$out/summary.csv"
same "$out/summary.csv" "$data"/bench_agents5_summary.csv
same "$out/summary_file.csv" "$data"/bench_agents5_summary.csv
same "$out/raw.csv" "$data"/bench_agents5_raw.csv
robust-select bench --no-wall-time > "$out/sweep.csv"
same "$out/sweep.csv" "$data"/bench_default_summary.csv
for algorithm in fast greedy ratio; do
  robust-select solve --config "$data"/ring16_scenario.json --algorithm "$algorithm" \
    | python -c 'import json, sys; d = json.load(sys.stdin); del d["wall_time_ms"]; print(json.dumps(d, sort_keys=True))' \
    > "$out/ring16_$algorithm.json"
  same "$out/ring16_$algorithm.json" "$data/ring16_${algorithm}_solution.json"
done

#!/usr/bin/env bash
# Regenerates every paper exhibit and stores the outputs under results/.
# Quick scale by default; pass --full to approach the paper's parameters
# (needs several GiB of RAM and substantially more time).
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE_ARGS=()
if [[ "${1:-}" == "--full" ]]; then
    SCALE_ARGS=(--full)
fi

mkdir -p results
run() {
    local name="$1"; shift
    echo "=== $name $*"
    cargo run --release -q -p respct-figs --bin "$name" -- "$@" | tee "results/$name.txt"
}

run fig8_hashmap  --threads 1,2,4 --secs 1 "${SCALE_ARGS[@]}"
run fig9_queue    --threads 1,2,4 --secs 1 "${SCALE_ARGS[@]}"
run fig10_overhead --threads 4 --secs 1 "${SCALE_ARGS[@]}"
run fig11_period  --threads 4 --secs 1 "${SCALE_ARGS[@]}"
run fig12_recovery --threads 4 "${SCALE_ARGS[@]}"
run fig13_apps    --threads 4 "${SCALE_ARGS[@]}"
run fig14_memcached "${SCALE_ARGS[@]}"
run ablation_rp_placement --threads 4 "${SCALE_ARGS[@]}"
run ablation_flushers --threads 4 "${SCALE_ARGS[@]}"
run table3_loc
echo "All results in results/"

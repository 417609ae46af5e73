#!/usr/bin/env bash
# Capture performance baselines:
#  - the `kalman` bench groups (the reference filter and the likelihood
#    kernel at T = 43/86/172, and structural MLE fits)
#    -> BENCH_kalman_filter.json, BENCH_loglik_path.json,
#       BENCH_structural_mle.json
#  - the `obs` bench group (recorder entry points and the instrumented
#    Kalman likelihood hot path, disabled vs enabled) -> BENCH_obs.json
#  - the `em` bench group (HashMap reference vs EmWorkspace engine at fixed
#    iteration count, plus Stage-1 panel wall time at 1 vs 4 threads)
#    -> BENCH_em.json
#  - the `session` bench group (appending month T+1 to a warm
#    AnalysisSession vs re-running the batch pipeline on the extended
#    window) -> BENCH_session.json; the script fails unless the
#    append_month median stays below 50% of the batch_rerun median
#
#   ./scripts/bench_snapshot.sh                # -> results/bench/BENCH_*.json
#   BENCH_JSON_DIR=/tmp ./scripts/bench_snapshot.sh
set -euo pipefail
cd "$(dirname "$0")/.."

out="${BENCH_JSON_DIR:-$PWD/results/bench}"
mkdir -p "$out"

echo "==> likelihood kernel bench (JSON -> $out)"
BENCH_JSON_DIR="$out" cargo bench -p mic-bench --bench kalman
echo "==> obs overhead bench (JSON -> $out)"
BENCH_JSON_DIR="$out" cargo bench -p mic-bench --bench obs
echo "==> em engine bench (JSON -> $out)"
BENCH_JSON_DIR="$out" cargo bench -p mic-bench --bench em
echo "==> incremental session bench (JSON -> $out)"
BENCH_JSON_DIR="$out" cargo bench -p mic-bench --bench session
ls -l "$out"/BENCH_loglik_path.json "$out"/BENCH_obs.json "$out"/BENCH_em.json \
    "$out"/BENCH_session.json

echo "==> session gate (append_month median < 50% of batch_rerun median)"
session_median() {
    grep "\"group\": \"session\", \"bench\": \"$1\"" "$out/BENCH_session.json" \
        | sed -E 's/.*"median_ns": ([0-9.]+).*/\1/' || true
}
append_ns="$(session_median append_month)"
batch_ns="$(session_median batch_rerun)"
[[ -n "$append_ns" && -n "$batch_ns" ]] \
    || { echo "session gate: append_month or batch_rerun missing from BENCH_session.json"; exit 1; }
awk -v a="$append_ns" -v b="$batch_ns" 'BEGIN {
    printf "session append/batch median ratio: %.1f%% (%.1f / %.1f ms)\n", 100 * a / b, a / 1e6, b / 1e6
    exit !(a < 0.5 * b)
}' || { echo "session gate: append_month median is >= 50% of batch_rerun"; exit 1; }

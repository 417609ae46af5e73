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
#    window; the append/batch ratio must stay < 50%) -> BENCH_session.json
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

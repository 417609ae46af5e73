#!/usr/bin/env bash
# Full local gate: everything CI would run, in dependency order.
#
#   ./scripts/check.sh          # build + test + lint + smoke gates
#   RUN_BENCHES=1 ./scripts/check.sh   # additionally run criterion benches;
#                                      # BENCH_*.json land in results/bench/
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> metrics smoke gate (mictrend analyze --metrics)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cargo run --release -q --bin mictrend -- simulate --out "$tmp/claims.mic" \
    --seed 11 --months 24 --patients 150 --diseases 15 --medicines 20
cargo run --release -q --bin mictrend -- analyze --data "$tmp/claims.mic" \
    --metrics "$tmp/metrics.jsonl" > /dev/null
for key in em.iterations em.cost_unit_ns kf.loglik_evals kf.cost_unit_ns \
           pipeline.series_dropped pipeline.total; do
    grep -q "\"name\":\"$key\"" "$tmp/metrics.jsonl" \
        || { echo "metrics smoke gate: missing $key in snapshot"; exit 1; }
done

echo "==> allocation-free EM gate (em.resp_buffer_allocs == 0)"
# The workspace engine must never allocate responsibility buffers inside
# em_step; any non-zero count means the hot path regressed to per-record
# allocation.
grep -q '"type":"counter","name":"em.resp_buffer_allocs","value":0' "$tmp/metrics.jsonl" \
    || { echo "allocation-free EM gate: em.resp_buffer_allocs != 0 (or missing)"; exit 1; }

echo "==> incremental session smoke gate (mictrend append --check-batch)"
# Absorb the last 3 months one by one through an AnalysisSession, then
# require (a) a cold re-analysis of the session to match a fresh batch run
# decision-for-decision (--check-batch exits non-zero otherwise) and (b) the
# final re-analysis of the unchanged window to have been served from the
# fit cache.
cargo run --release -q --bin mictrend -- append --data "$tmp/claims.mic" \
    --tail 3 --check-batch --metrics "$tmp/append.jsonl" > /dev/null
hits="$(grep -o '"name":"session.cache_hits","value":[0-9]*' "$tmp/append.jsonl" \
    | grep -o '[0-9]*$' || true)"
[[ "${hits:-0}" -gt 0 ]] \
    || { echo "incremental smoke gate: session.cache_hits is ${hits:-missing}, expected > 0"; exit 1; }

echo "==> benchmark smoke run (perfbench, all workloads, 1 s each)"
# perfbench/ is a Cargo workspace of its own, so neither the tests nor clippy
# above compile it. Build and run it here so an API change to the crates it
# drives cannot break the benchmark unseen; it exits non-zero when a
# workload fails to set up or any of its correctness checks fails.
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload all --seconds 1 > /dev/null

if [[ "${RUN_BENCHES:-0}" == "1" ]]; then
    echo "==> criterion benches (JSON -> results/bench/)"
    mkdir -p results/bench
    BENCH_JSON_DIR="$PWD/results/bench" cargo bench -p mic-bench
    ls -l results/bench/BENCH_*.json
fi

echo "OK"

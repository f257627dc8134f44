#!/usr/bin/env bash
# Offline-friendly pre-merge gate: formatting, lints, the tier-1 tests, the
# end-to-end benchmark's build and unit tests, and the perf gates.
# All dependencies are vendored under vendor/, so no network is needed.
#
# Usage: scripts/check.sh [--no-clippy] [--no-fmt] [--no-analyze] [--analyze-only]
#
# --analyze-only runs just the static-analysis gate (plus its latency
# check) and skips formatting, clippy, tests, and the perf gates — the
# edit-loop fast path.

set -euo pipefail
cd "$(dirname "$0")/.."

run_fmt=1
run_clippy=1
run_analyze=1
analyze_only=0
for arg in "$@"; do
    case "$arg" in
        --no-fmt) run_fmt=0 ;;
        --no-clippy) run_clippy=0 ;;
        --no-analyze) run_analyze=0 ;;
        --analyze-only) analyze_only=1 ;;
        *) echo "unknown option: $arg" >&2; exit 2 ;;
    esac
done

analyze_gate() {
    echo "== analyze: constant-flow + crash-consistency + zero-alloc + invariant lints"
    mkdir -p target
    cargo run -q -p analyze -- --json target/analyze-report.json \
        --sarif target/analyze-report.sarif
    echo "   report: target/analyze-report.json (SARIF: target/analyze-report.sarif)"

    # Every run analyzes every file afresh; with the binary already built
    # by the run above, a full rerun must stay interactive (<= 2s).
    local t0 t1 elapsed_ms
    t0=$(date +%s%N)
    cargo run -q -p analyze > /dev/null
    t1=$(date +%s%N)
    elapsed_ms=$(( (t1 - t0) / 1000000 ))
    echo "   full rerun: ${elapsed_ms}ms"
    if [ "$elapsed_ms" -gt 2000 ]; then
        echo "analyze: full rerun took ${elapsed_ms}ms (> 2000ms budget)" >&2
        exit 1
    fi
}

if [ "$analyze_only" = 1 ]; then
    analyze_gate
    echo "OK (analyze only)"
    exit 0
fi

if [ "$run_fmt" = 1 ]; then
    echo "== cargo fmt --check"
    cargo fmt --all --check
fi

if [ "$run_clippy" = 1 ]; then
    echo "== cargo clippy --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
fi

echo "== tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "== e2e benchmark: builds against the workspace crates and passes its unit tests"
cargo test --release --offline -q --manifest-path e2e_bench/Cargo.toml

if [ "$run_analyze" = 1 ]; then
    analyze_gate
fi

echo "== fault-injection smoke: resumable scan under a seeded fault plan"
cargo run --release -q -p bulkgcd-bench --bin scan_bench -- --inject-faults --resume

echo "== shard smoke: 4-way sharded scan under seeded worker deaths / torn journals /"
echo "==              duplicate completions must merge bitwise-equal to the unsharded run"
cargo run --release -q -p bulkgcd-bench --bin scan_bench -- --shards 4 --inject-faults --resume

echo "== shard gate: per-shard serial efficiency >= 0.80x at 4 shards"
cargo run --release -q -p bulkgcd-bench --bin scan_bench -- --gate-shards

echo "== perf gates: lockstep >= 0.95x scalar arena scan, builder pipeline >= 0.98x direct run_warp loop,"
echo "==             compaction occupancy >= 1.15x plain at 128-bit + wall-clock floors, auto >= 0.90x the backend it resolved to"
echo "==             and that backend >= 0.90x the other of scalar / compacted lockstep,"
echo "==             streaming ingest >= 1M keys/s at m=64k with a bounded peak-RSS delta"
cargo run --release -q -p bulkgcd-bench --bin scan_bench -- \
    --gate-lockstep --gate-pipeline --gate-compaction --gate-ingest \
    --sizes 32,64 --bits 128,1024 --reps 3 \
    --out /tmp/bulkgcd_gate_scan.json \
    > /dev/null

echo "== bigint ladder gate: dispatched mul/div >= 1.5x legacy at the widest rows,"
echo "==                     <= 1.05x floor at 32/64 limbs, product-tree batch >= 1.05x"
echo "==                     with findings bitwise-identical to the scalar scan,"
echo "==                     dispatched NTT butterflies >= 4.0x portable at N=2^15"
echo "==                     (unless the CPU runs the portable ones), every NTT path bitwise-equal"
cargo run --release -q -p bulkgcd-bench --bin bigint_bench -- \
    --gate-subquadratic --reps 3 \
    --mul-limbs 32,64,8192 --div-limbs 32,64,4096 \
    --out /tmp/bulkgcd_gate_bigint.json \
    > /dev/null

echo "OK"

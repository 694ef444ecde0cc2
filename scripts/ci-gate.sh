#!/usr/bin/env bash
# Lint gate: formatting + clippy with warnings denied, then the test
# suite. Run before every merge; CI should invoke exactly this script
# so local runs and the gate can never disagree.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> observability layer (registry, histograms, percentile accuracy, merge laws)"
cargo test -p ppms-obs -q

echo "==> wire protocol property tests (v4 frames, foreign versions refused, split reassembly)"
cargo test -p ppms-core --test wire_props -q

echo "==> tcp front door (admission gate, eviction, shedding) + transport equivalence"
# transport_equivalence includes the batching-equivalence harness: batched concurrent interleavings
# (cheater + same-key retransmit in-batch) ≡ sequential ledgers.
cargo test -p ppms-integration --test tcp_front_door --test transport_equivalence -q

echo "==> zero-copy hot path: warmed frame decode+dispatch+reply allocates nothing"
# Counting-allocator proof for the reactor's per-frame path.
cargo test -p ppms-core --test frame_alloc -q

echo "==> loopback TCP smoke (throughput bench correctness gates + simnet/tcp ledger equality)"
cargo bench -p ppms-bench --bench tcp_front_door -- --test >/dev/null

echo "==> chaos harness (fault injection + shard-crash supervision)"
cargo test -p ppms-integration --test chaos -q
cargo test -p ppms-core --lib -q service::tests::crashed_shard_is_respawned_and_retry_succeeds

echo "==> durable storage tier (crash matrix, compaction bound, disk-backed restart)"
# The disk-backed smoke inside the suite is tempdir-hermetic (it
# creates and removes its own directory under the system tempdir).
cargo test -p ppms-integration --test recovery -q

echo "==> recovery bench smoke (replay-length + fsync-discipline gates)"
cargo bench -p ppms-bench --bench recovery -- --test >/dev/null

echo "==> open-loop load harness smoke (latency accounting + batching + ledger gates)"
# The output is grepped: cross-client batching must actually engage (mean batch
# size > 1 under load) and the ledger-conservation line must hold.
load_out=$(cargo bench -p ppms-bench --bench load_curve -- --test 2>&1) || {
    echo "$load_out"
    exit 1
}
echo "$load_out" | grep -q "ledger unchanged:" || {
    echo "load_curve smoke never printed its ledger-conservation line:"
    echo "$load_out"
    exit 1
}
mean_batch=$(echo "$load_out" | sed -n 's/.*mean batch size under load \([0-9.]*\).*/\1/p')
awk -v m="${mean_batch:-0}" 'BEGIN { exit !(m > 1.0) }' || {
    echo "load_curve smoke: mean batch size under load must exceed 1, got '${mean_batch:-missing}':"
    echo "$load_out"
    exit 1
}

echo "==> committed bench artifacts carry their schema (BENCH_*.json at the repo root)"
check_keys() {
    local file="$1"; shift
    [ -f "$file" ] || { echo "missing bench artifact: $file"; exit 1; }
    for key in "$@"; do
        grep -q "\"$key\"" "$file" || {
            echo "bench artifact $file lost its \"$key\" field"
            exit 1
        }
    done
}
check_keys BENCH_load.json calibrated_capacity_per_sec knee_per_sec \
    peak_achieved_per_sec mean_batch_size mean_batch_size_under_load \
    p50_ns p99_ns p999_ns ops_scrape
check_keys BENCH_tcp.json requests_per_sec p50_ns p99_ns smoke served
check_keys BENCH_recovery.json policy recover_ms replayed smoke
check_keys BENCH_batch.json batch_item_us seq_item_us speedup
check_keys BENCH_fixed.json straus_us pippenger_us
check_keys BENCH_chaos.json drop_rate availability
# Smoke runs write under target/bench-smoke/; a root artifact must come
# from a full run.
if grep -l '"smoke": true' BENCH_*.json; then
    echo "root bench artifacts above were written by a smoke run"
    exit 1
fi

echo "==> trace context + flight recorder (shard-crash and reactor-panic dumps carry the trace)"
trace_out=$(cargo test -p ppms-integration --test trace_context -- --nocapture 2>&1) || {
    echo "$trace_out"
    exit 1
}
echo "$trace_out" | grep -q "flight-recorder dump:" || {
    echo "trace_context never produced a flight-recorder dump line:"
    echo "$trace_out"
    exit 1
}
# A panic in the TCP reactor thread must also dump (with the in-flight
# span ring embedded), not just the shard workers' crash path.
echo "$trace_out" | grep -q "flight-recorder dump: .*tcp-reactor" || {
    echo "trace_context never dumped from the TCP reactor thread:"
    echo "$trace_out"
    exit 1
}

echo "==> batch-verification equivalence (multi-exp, batch-inv, bisection)"
cargo test -p ppms-bigint --test ring_props -q
cargo test -p ppms-crypto --test props -q
cargo test -p ppms-ecash --lib -q batch::

echo "==> fixed-width core: FpMont = plain-reference equivalence (exact + padded widths) + zero-allocation proof"
cargo test -p ppms-bigint --test fixed_props --test alloc_free -q

echo "==> batch_verify bench smoke (correctness pass, no timing gates)"
cargo bench -p ppms-bench --bench batch_verify -- --test >/dev/null

echo "==> fixed-width ablation bench smoke (Straus = Pippenger verdicts)"
cargo bench -p ppms-bench --bench ablation_fixed -- --test >/dev/null

echo "==> cargo test"
cargo test --workspace -q

echo "ci-gate: all checks passed"

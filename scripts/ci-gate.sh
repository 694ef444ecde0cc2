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

echo "==> tcp front door (admission gate, eviction, shedding, ops under load) + transport equivalence"
# transport_equivalence includes the batching-equivalence harness: batched concurrent interleavings
# (cheater + same-key retransmit in-batch) ≡ sequential ledgers, in-process and through the
# TCP door, where cross-client batches must actually form.
cargo test -p ppms-integration --test tcp_front_door --test transport_equivalence -q

echo "==> zero-copy hot path: warmed frame decode+dispatch+reply allocates nothing"
# Counting-allocator proof for the reactor's per-frame path.
cargo test -p ppms-core --test frame_alloc -q

echo "==> Table II TCP smoke (simnet/tcp ledger equality + gate frames counted)"
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
check_keys BENCH_tcp.json table2 gate_frames tcp_overhead_pct smoke
check_keys BENCH_recovery.json policy recover_ms replayed smoke
check_keys BENCH_batch.json batch_item_us seq_item_us speedup
check_keys BENCH_fixed.json straus_us pippenger_us
# Smoke runs write under target/bench-smoke/; a root artifact must come
# from a full run and name the commit it measured.
if grep -l '"smoke": true' BENCH_*.json; then
    echo "root bench artifacts above were written by a smoke run"
    exit 1
fi
for file in BENCH_*.json; do
    grep -q '"git_sha"' "$file" || {
        echo "root bench artifact $file carries no provenance (git_sha)"
        exit 1
    }
done

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

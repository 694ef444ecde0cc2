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

echo "==> tcp front door (admission gate, retired request tag 12 counted as a bad frame, eviction, shedding, ops under load, one wake-source test each: idle request, shutdown, dropped reply, gate export; no lost wake across parks, a saturated door still accepts; health reports a stopped shard as degraded) + transport equivalence"
# transport_equivalence includes the batching-equivalence harness: batched concurrent interleavings
# (cheater + same-key retransmit in-batch) ≡ sequential ledgers, in-process and through the
# TCP door. Its held-burst anchor (concurrent_batched_run_matches_sequential_and_actually_batches)
# holds the shard at a checkpoint barrier until every client's first deposit and its duplicate
# are queued, so the greedy drain must form a cross-client batch.
cargo test -p ppms-integration --test tcp_front_door --test transport_equivalence -q

echo "==> zero-copy hot path: warmed frame decode+dispatch+reply allocates nothing"
# Counting-allocator proof for the reactor's per-frame path.
cargo test -p ppms-core --test frame_alloc -q

echo "==> Table II TCP smoke (simnet/tcp ledger equality + gate frames counted)"
cargo bench -p ppms-bench --bench tcp_front_door -- --test >/dev/null

echo "==> chaos harness (fault injection + shard self-restart, a journal that no longer replays stops its shard, no checkpoint retry storm, a short read is retried and never taken for a torn tail, a refused withdrawal's nonce stays burned across a restart, a deposit to an unknown account burns no spend, an append whose fsync failed leaves no record; one CrashPoint hook, before execute or after append, lands in a drain two depositors share; group commits count only flushes that fsynced, in the service and in the log)"
cargo test -p ppms-integration --test chaos -q
cargo test -p ppms-core --lib -q -- \
    service::tests::crashed_shard_restarts_itself_and_retry_succeeds \
    service::tests::a_journal_that_no_longer_replays_stops_its_shard \
    service::tests::a_failed_scheduled_checkpoint_waits_for_more_records \
    service::tests::short_reads_never_reexecute_a_write_after_a_restart \
    service::tests::a_refused_withdrawals_nonce_stays_burned_after_a_restart \
    service::tests::a_deposit_to_an_unknown_account_burns_no_spend \
    storage::log::tests::a_short_read_during_replay_is_retried_not_taken_for_a_tear \
    storage::log::tests::a_read_that_stays_short_fails_replay_naming_both_lengths \
    storage::log::tests::a_short_read_at_open_truncates_nothing \
    storage::log::tests::an_append_whose_fsync_failed_leaves_no_record
# The group-commit tests must exist and pass (a rename would drop them silently).
group_out=$(cargo test -p ppms-core --lib -q -- --exact \
    service::tests::group_commits_count_only_flushes_that_fsynced \
    storage::log::tests::flush_reports_whether_it_fsynced_under_each_policy 2>&1) || {
    echo "$group_out"
    exit 1
}
echo "$group_out" | grep -q "test result: ok. 2 passed" || {
    echo "the group-commit tests did not both run:"
    echo "$group_out"
    exit 1
}

echo "==> durable storage tier (crash matrix, failed-append matrix, a withdrawal and a deposit whose append failed re-execute once on retransmit, one serial raced on two shards is accepted once, live ledger = recovered ledger, compaction bound, disk-backed restart)"
# The disk-backed smoke inside the suite is tempdir-hermetic (it
# creates and removes its own directory under the system tempdir).
cargo test -p ppms-integration --test recovery -q
# The named tests must exist and pass (a rename would drop them silently).
named_out=$(cargo test -p ppms-integration --test recovery -q -- --exact \
    a_withdrawal_whose_append_failed_debits_once_on_retransmit \
    a_deposit_whose_append_failed_is_accepted_and_credited_once_on_retransmit \
    failed_append_matrix_fsync_always_converges \
    failed_append_matrix_group_commit_converges \
    one_serial_deposited_on_two_shards_at_once_is_accepted_once 2>&1) || {
    echo "$named_out"
    exit 1
}
echo "$named_out" | grep -q "test result: ok. 5 passed" || {
    echo "the failed-append and serial-race tests did not all run:"
    echo "$named_out"
    exit 1
}

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

echo "==> fixed-width core: FpMont = plain-reference equivalence (exact + padded widths) + zero-allocation proof + heap product = division and FpMont"
cargo test -p ppms-bigint --test fixed_props --test alloc_free --test props -q

echo "==> batch_verify bench smoke (correctness pass, no timing gates)"
cargo bench -p ppms-bench --bench batch_verify -- --test >/dev/null

echo "==> fixed-width ablation bench smoke (Straus = Pippenger verdicts)"
cargo bench -p ppms-bench --bench ablation_fixed -- --test >/dev/null

echo "==> bignum + pairing + hybrid RSA ablation bench smoke (A18: CL verdicts at r = 40 and r = 160; A20: 1 533-byte payment roundtrip; A25: modinv group, every inverse checked by a·x ≡ 1)"
cargo bench -p ppms-bench --bench ablation_bigint -- --test >/dev/null

echo "==> cargo test"
cargo test --workspace -q

echo "ci-gate: all checks passed"

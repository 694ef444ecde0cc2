//! Durable-tier recovery: cold-start latency versus log length with
//! and without a checkpoint (the compaction payoff), plus the
//! write-path cost of each fsync discipline over the same keyed
//! market schedule. Emits `BENCH_recovery.json` at the repo root
//! (EXPERIMENTS.md A14).
//!
//! ```text
//! cargo bench -p ppms-bench --bench recovery
//! cargo bench -p ppms-bench --bench recovery -- --test # CI smoke
//! ```
//!
//! The smoke run does the same work but writes its JSON under
//! `target/bench-smoke/`, so it never overwrites the committed file.

use ppms_bench::artifact_path;
use ppms_core::sim::{
    drive_market_keyed, keyed_journaled_calls, recover_durable_market, spawn_durable_market,
    KeyedDrive, ServiceMarketOutcome,
};
use ppms_core::{DurabilityConfig, MaService, SimStorage, SyncPolicy};
use std::sync::Arc;
use std::time::Instant;

const SEED: u64 = 0xE0;
const N_SPS: usize = 3;
const W: u64 = 3;
const SHARDS: usize = 2;
/// Keyed requests the full schedule issues (see the harness module in
/// `ppms-integration`): 2 setup + 8 per SP + data fetch + audits.
const SCHEDULE_CALLS: u64 = 2 + 8 * N_SPS as u64 + 2 + N_SPS as u64;
/// Log lengths (in keyed calls) the recovery sweep cuts at.
const LOG_LENGTHS: [u64; 3] = [11, 23, SCHEDULE_CALLS];

struct RecoveryRow {
    calls: u64,
    records: u64,
    compacted: bool,
    snapshot_lsn: u64,
    replayed: usize,
    recover_ms: f64,
}

struct FsyncRow {
    policy: &'static str,
    drive_ms: f64,
    fsyncs: u64,
    per_call_us: f64,
}

fn durability(storage: Arc<SimStorage>) -> DurabilityConfig {
    let mut dur = DurabilityConfig::new(storage);
    dur.segment_bytes = 4096;
    dur
}

/// Drives `svc` for exactly `calls` requests (the full schedule runs
/// to completion instead of pausing).
fn drive(svc: &MaService, calls: u64) {
    match drive_market_keyed(svc, SEED, N_SPS, W, calls).expect("keyed drive") {
        KeyedDrive::Paused { calls: got } => assert_eq!(got, calls),
        KeyedDrive::Complete(_) => assert_eq!(calls, SCHEDULE_CALLS),
    }
}

/// Builds a durable log of `calls` keyed requests, optionally
/// checkpointing halfway, kills the instance, and times the cold
/// restart from the crash image.
fn measure_recovery(calls: u64, compacted: bool) -> RecoveryRow {
    let storage = SimStorage::new();
    let svc =
        spawn_durable_market(SEED, SHARDS, durability(Arc::new(storage.clone()))).expect("spawn");
    let mut covered = 0;
    if compacted {
        // Checkpoint halfway: the re-drive below replays the first
        // half from the dedup cache (no new log records) and only the
        // second half lands past the snapshot.
        drive(&svc, calls / 2);
        covered = svc.checkpoint().expect("checkpoint");
    }
    drive(&svc, calls);
    let image = storage.crash_image(0xBE4C ^ calls);
    svc.shutdown();

    let t0 = Instant::now();
    let (recovered, report) =
        recover_durable_market(SEED, SHARDS, durability(Arc::new(image))).expect("recover");
    let recover_ms = t0.elapsed().as_secs_f64() * 1e3;
    recovered.shutdown();

    // Every write journals one record and no read does; compaction
    // must shed exactly the records the snapshot covers.
    let records = keyed_journaled_calls(N_SPS, calls);
    assert_eq!(report.snapshot_lsn, covered, "snapshot coverage");
    assert_eq!(
        report.replayed_records as u64,
        records - covered,
        "replay length must be records past the snapshot"
    );
    RecoveryRow {
        calls,
        records,
        compacted,
        snapshot_lsn: report.snapshot_lsn,
        replayed: report.replayed_records,
        recover_ms,
    }
}

/// Runs the full keyed schedule under `sync` and times the write
/// path; returns the sealed outcome for the convergence gate.
fn measure_fsync(policy: &'static str, sync: SyncPolicy) -> (FsyncRow, ServiceMarketOutcome) {
    let mut dur = DurabilityConfig::new(Arc::new(SimStorage::new()));
    dur.sync = sync;
    let svc = spawn_durable_market(SEED, SHARDS, dur).expect("spawn");
    let t0 = Instant::now();
    let outcome = drive_market_keyed(&svc, SEED, N_SPS, W, u64::MAX).expect("full drive");
    let drive_ms = t0.elapsed().as_secs_f64() * 1e3;
    let KeyedDrive::Complete(mut outcome) = outcome else {
        panic!("unlimited budget cannot pause");
    };
    let fsyncs = svc.obs.snapshot().counter("wal.fsyncs");
    outcome.undelivered_payments = svc.shutdown();
    let row = FsyncRow {
        policy,
        drive_ms,
        fsyncs,
        per_call_us: drive_ms * 1e3 / SCHEDULE_CALLS as f64,
    };
    (row, *outcome)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    println!("recovery: cold restart vs log length, {SHARDS} shards");
    println!(
        "{:>6} {:>8} {:>10} {:>9} {:>9} {:>11}",
        "calls", "records", "compacted", "snap-lsn", "replayed", "recover-ms"
    );
    let mut recovery_rows: Vec<RecoveryRow> = Vec::new();
    for &calls in &LOG_LENGTHS {
        for compacted in [false, true] {
            let row = measure_recovery(calls, compacted);
            println!(
                "{:>6} {:>8} {:>10} {:>9} {:>9} {:>11.2}",
                row.calls,
                row.records,
                row.compacted,
                row.snapshot_lsn,
                row.replayed,
                row.recover_ms
            );
            recovery_rows.push(row);
        }
    }

    println!("fsync discipline: full {SCHEDULE_CALLS}-call schedule");
    println!(
        "{:>8} {:>10} {:>8} {:>12}",
        "policy", "drive-ms", "fsyncs", "per-call-us"
    );
    let mut fsync_rows: Vec<FsyncRow> = Vec::new();
    let mut outcomes: Vec<ServiceMarketOutcome> = Vec::new();
    for (policy, sync) in [
        ("always", SyncPolicy::Always),
        ("batch8", SyncPolicy::Batch { every: 8 }),
    ] {
        let (row, outcome) = measure_fsync(policy, sync);
        println!(
            "{:>8} {:>10.2} {:>8} {:>12.1}",
            row.policy, row.drive_ms, row.fsyncs, row.per_call_us
        );
        fsync_rows.push(row);
        outcomes.push(outcome);
    }

    // Hand-rolled JSON (the workspace's serde_json is a build stub).
    let recovery_cells: Vec<String> = recovery_rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"calls\": {}, \"records\": {}, \"compacted\": {}, \
                 \"snapshot_lsn\": {}, \"replayed\": {}, \"recover_ms\": {:.3}}}",
                r.calls, r.records, r.compacted, r.snapshot_lsn, r.replayed, r.recover_ms
            )
        })
        .collect();
    let fsync_cells: Vec<String> = fsync_rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"policy\": \"{}\", \"drive_ms\": {:.3}, \"fsyncs\": {}, \
                 \"per_call_us\": {:.2}}}",
                r.policy, r.drive_ms, r.fsyncs, r.per_call_us
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"smoke\": {smoke},\n  \"recovery\": [\n{}\n  ],\n  \"fsync\": [\n{}\n  ]\n}}\n",
        recovery_cells.join(",\n"),
        fsync_cells.join(",\n")
    );
    let path = artifact_path("BENCH_recovery.json", smoke);
    match std::fs::write(&path, json) {
        Ok(()) => println!("  [json -> {}]", path.display()),
        Err(e) => eprintln!("  [json write failed: {e}]"),
    }

    // Correctness gates (the `-- --test` smoke relies on these).
    for pair in recovery_rows.chunks(2) {
        let (plain, compact) = (&pair[0], &pair[1]);
        assert_eq!(plain.replayed as u64, plain.records);
        assert!(
            compact.replayed < plain.replayed,
            "compaction must shorten replay at {} calls",
            plain.calls
        );
        assert!(compact.snapshot_lsn > 0 && plain.snapshot_lsn == 0);
    }
    assert_eq!(
        outcomes[0], outcomes[1],
        "both fsync disciplines must drive to the identical ledger"
    );
    // Group commit must batch.
    assert!(
        fsync_rows[1].fsyncs < fsync_rows[0].fsyncs,
        "group commit must issue fewer fsyncs than fsync-always"
    );
}

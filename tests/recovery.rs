//! The durable tier's crash matrix: a keyed deterministic market
//! schedule is killed at seeded points under every fsync discipline
//! and shard count, the process restarts cold from whatever the
//! medium kept (durable prefix + seeded torn tail), and the re-driven
//! schedule must converge on the exact fault-free ledger. Alongside
//! the matrix: byte-identical quiescent recovery, the compaction
//! bound on replay length, refusal of mid-log corruption, fallback
//! past a torn checkpoint publication, fsync lies, and a disk-backed
//! restart through the TCP front door. A second matrix refuses one
//! journal append at every point of the schedule: the retried drive
//! must converge too, and the ledger the live service holds must be
//! the one a cold recovery rebuilds from its storage.

use ppms_core::service::{MaClient, MaRequest, MaResponse};
use ppms_core::sim::{
    drive_market_keyed, keyed_journaled_calls, mint_admission_spends, recover_durable_market,
    spawn_durable_market, KeyedDrive,
};
use ppms_core::{
    DiskStorage, DurabilityConfig, FaultyStorage, Party, SimStorage, Storage, StorageError,
    StorageFaults, SyncPolicy, TcpClientConfig, TcpConfig, TcpFrontDoor, TcpTransport, Transport,
};
use ppms_integration::harness as h;
use std::sync::Arc;

/// A durability config over `storage` with the crash-matrix sizing:
/// small segments (so compaction has something to drop) and
/// auto-checkpoints (so the matrix exercises snapshot + tail
/// recovery, not just log replay).
fn matrix_durability(storage: Arc<dyn Storage>, sync: SyncPolicy) -> DurabilityConfig {
    let mut dur = DurabilityConfig::new(storage);
    dur.sync = sync;
    dur.segment_bytes = 4096;
    dur.checkpoint_every = 16;
    dur
}

/// Runs the full schedule on `svc` and seals the outcome with the
/// shutdown drain.
fn complete(svc: ppms_core::MaService) -> ppms_core::sim::ServiceMarketOutcome {
    let drive = drive_market_keyed(&svc, h::SEED, h::N_SPS, h::W, u64::MAX).expect("full drive");
    let KeyedDrive::Complete(mut outcome) = drive else {
        panic!("unlimited budget cannot pause");
    };
    outcome.undelivered_payments = svc.shutdown();
    *outcome
}

/// Drives `svc` for exactly `calls` keyed requests and asserts the
/// schedule paused there.
fn drive_to(svc: &ppms_core::MaService, calls: u64) {
    match drive_market_keyed(svc, h::SEED, h::N_SPS, h::W, calls).expect("budgeted drive") {
        KeyedDrive::Paused { calls: got } => assert_eq!(got, calls),
        KeyedDrive::Complete(_) => panic!("kill point {calls} lies past the schedule"),
    }
}

#[test]
fn durable_fault_free_drive_matches_in_proc_baseline() {
    // The keyed durable schedule and the plain in-proc drive are two
    // spellings of the same market: their audited outcomes must be
    // equal, so the crash matrix genuinely converges to the ledger
    // every other harness (chaos grid, transport equivalence)
    // converges to.
    assert_eq!(h::durable_baseline(), h::baseline());
}

/// One crash-matrix half (split by fsync policy so the two run as
/// parallel tests): for every kill point and shard count, kill the
/// first instance mid-schedule, recover from the crash image, re-run
/// the whole keyed schedule and compare the audited ledger to the
/// fault-free outcome.
fn run_matrix(sync: SyncPolicy) {
    let expected = h::durable_baseline();
    for &shards in &h::MATRIX_SHARDS {
        for &kill_at in &h::KILL_POINTS {
            assert!(kill_at < h::SCHEDULE_CALLS);
            let storage = SimStorage::new();
            let dur = matrix_durability(Arc::new(storage.clone()), sync);
            let svc = spawn_durable_market(h::SEED, shards, dur.clone()).unwrap_or_else(|e| {
                panic!("cell shards={shards} sync={sync} kill={kill_at}: spawn: {e}")
            });
            drive_to(&svc, kill_at);
            // The kill: the process vanishes; the medium keeps each
            // file's durable prefix plus a seeded torn tail of
            // whatever was never fsynced.
            let image = storage.crash_image(0xC4A5 ^ (kill_at << 8) ^ shards as u64);
            svc.shutdown();

            let mut recov = dur;
            recov.storage = Arc::new(image);
            let (svc, report) =
                recover_durable_market(h::SEED, shards, recov).unwrap_or_else(|e| {
                    panic!("cell shards={shards} sync={sync} kill={kill_at}: recovery: {e}")
                });
            if report.snapshot_lsn > 0 {
                // The compaction bound: replay reads the post-snapshot
                // tail, never the whole history (one record per write).
                let records = keyed_journaled_calls(h::N_SPS, kill_at);
                assert!(
                    (report.replayed_records as u64) < records,
                    "cell shards={shards} sync={sync} kill={kill_at}: \
                     replayed {} of {records} records despite a snapshot",
                    report.replayed_records,
                );
            }
            assert_eq!(
                complete(svc),
                expected,
                "cell shards={shards} sync={sync} kill={kill_at} diverged"
            );
        }
    }
}

#[test]
fn crash_matrix_fsync_always_converges() {
    run_matrix(SyncPolicy::Always);
}

#[test]
fn crash_matrix_group_commit_converges() {
    // Under group commit, acknowledged requests inside the fsync
    // window die with the crash; the re-driven schedule re-executes
    // them, which is exactly the policy's documented contract.
    run_matrix(SyncPolicy::Batch { every: 4 });
}

#[test]
fn cold_recovery_is_byte_identical_at_quiescence() {
    // With fsync-always and a quiescent shutdown point, recovery is
    // not merely convergent: the ledger and bulletin are *equal* as
    // data structures before a single new request runs.
    let storage = SimStorage::new();
    let dur = DurabilityConfig::new(Arc::new(storage.clone()));
    let svc = spawn_durable_market(h::SEED, 2, dur).expect("durable spawn");
    let drive = drive_market_keyed(&svc, h::SEED, h::N_SPS, h::W, u64::MAX).expect("full drive");
    let KeyedDrive::Complete(mut outcome) = drive else {
        panic!("unlimited budget cannot pause");
    };
    let bank_before = svc.bank.snapshot();
    let jobs_before = svc.bulletin.list();
    let image = storage.crash_image(0xB17E);
    outcome.undelivered_payments = svc.shutdown();

    let (svc, report) = recover_durable_market(h::SEED, 2, DurabilityConfig::new(Arc::new(image)))
        .expect("recovery");
    assert_eq!(svc.bank.snapshot(), bank_before, "ledger must be identical");
    assert_eq!(
        svc.bulletin.list(),
        jobs_before,
        "bulletin must be identical"
    );
    assert_eq!(
        report.replayed_records as u64,
        h::SCHEDULE_JOURNALED,
        "a quiescent log holds one record per write and none per read"
    );
    // Re-driving the whole schedule answers every write from the
    // recovered dedup cache — same outcome, no write re-executed. The
    // reads re-execute against the recovered state, and the equal
    // outcome checks their answers.
    let faults = svc.faults.clone();
    assert_eq!(complete(svc), *outcome);
    assert_eq!(
        faults.dedup_replays(),
        h::SCHEDULE_JOURNALED,
        "every re-driven write must replay from the recovered cache"
    );
}

#[test]
fn checkpoint_compaction_bounds_recovery_replay() {
    let storage = SimStorage::new();
    let mut dur = DurabilityConfig::new(Arc::new(storage.clone()));
    dur.segment_bytes = 1024;
    let svc = spawn_durable_market(h::SEED, 2, dur.clone()).expect("durable spawn");
    drive_to(&svc, 11);
    let covered = svc.checkpoint().expect("checkpoint");
    assert_eq!(
        covered, 10,
        "every write journals one record, and the first 11 calls hold one read"
    );
    // Compaction dropped every segment wholly below the snapshot: the
    // oldest remaining segment no longer starts at LSN 0.
    let mut segments: Vec<String> = storage
        .list()
        .expect("list")
        .into_iter()
        .filter(|n| n.starts_with("wal-"))
        .collect();
    segments.sort();
    let first_start =
        u64::from_str_radix(&segments[0][4..20], 16).expect("segment name carries its start LSN");
    assert!(first_start > 0, "compaction kept the genesis segment");

    // Six more calls past the checkpoint, then the crash.
    drive_to(&svc, 17);
    let image = storage.crash_image(0x10AF);
    svc.shutdown();
    let mut recov = dur;
    recov.storage = Arc::new(image);
    let (svc, report) = recover_durable_market(h::SEED, 2, recov).expect("recovery");
    assert_eq!(report.snapshot_lsn, covered);
    assert_eq!(
        report.replayed_records, 5,
        "replay must read exactly the post-snapshot tail (calls 12-17 hold one read)"
    );
    assert_eq!(complete(svc), h::durable_baseline());
}

#[test]
fn mid_log_corruption_is_refused_with_precise_error() {
    let storage = SimStorage::new();
    let mut dur = DurabilityConfig::new(Arc::new(storage.clone()));
    dur.segment_bytes = 2048;
    let svc = spawn_durable_market(h::SEED, 1, dur.clone()).expect("durable spawn");
    drive_to(&svc, 11);
    svc.shutdown();

    let mut segments: Vec<String> = storage
        .list()
        .expect("list")
        .into_iter()
        .filter(|n| n.starts_with("wal-"))
        .collect();
    segments.sort();
    assert!(segments.len() >= 2, "the log must span several segments");
    // Bit rot inside the first frame's body of the *first* segment —
    // history before the tail, where tearing is never legitimate.
    storage.flip_bit(&segments[0], 24, 0x04);
    match recover_durable_market(h::SEED, 1, dur) {
        Err(StorageError::Corrupt { file, offset, .. }) => {
            assert_eq!(file, segments[0], "the error must name the rotten file");
            assert!(
                offset < storage.len(&segments[0]),
                "the error must locate the frame inside the file"
            );
        }
        Err(other) => panic!("expected Corrupt, got {other}"),
        Ok(_) => panic!("recovery must refuse to rebuild from corrupted history"),
    }
}

#[test]
fn torn_checkpoint_falls_back_to_previous_snapshot() {
    let storage = SimStorage::new();
    let dur = DurabilityConfig::new(Arc::new(storage.clone()));
    let svc = spawn_durable_market(h::SEED, 2, dur.clone()).expect("durable spawn");
    drive_to(&svc, 11);
    let covered = svc.checkpoint().expect("checkpoint");
    drive_to(&svc, 17);
    svc.shutdown();
    // A later checkpoint whose publication died mid-write: the file
    // exists under the next covered LSN but holds a truncated
    // non-frame. Recovery must skip it and restart from the previous
    // generation (which compaction never outran — segments are only
    // dropped after a *successful* save).
    let torn_covered = covered + 5;
    storage
        .write_atomic(
            &format!("snap-{torn_covered:016x}.snap"),
            b"torn checkpoint publication",
        )
        .expect("forge torn snapshot");

    let (svc, report) = recover_durable_market(h::SEED, 2, dur).expect("recovery");
    assert_eq!(
        report.snapshots_skipped, 1,
        "the torn generation is skipped"
    );
    assert_eq!(
        report.snapshot.as_deref(),
        Some(format!("snap-{covered:016x}.snap").as_str()),
        "recovery restarts from the previous snapshot"
    );
    assert_eq!(report.snapshot_lsn, covered);
    assert_eq!(
        report.replayed_records, 5,
        "the fallback replays the tail the torn snapshot would have covered"
    );
    assert_eq!(complete(svc), h::durable_baseline());
}

#[test]
fn fsync_lies_lose_acknowledged_state_but_recovery_converges() {
    // A lying medium (drive write-cache, dishonest hypervisor):
    // `sync` returns Ok without persisting. Acknowledged requests die
    // with the crash even under fsync-always — and the re-driven
    // schedule must still converge, exactly like the group-commit
    // window.
    let wal_bytes = |storage: &SimStorage| -> usize {
        storage
            .list()
            .expect("list")
            .iter()
            .filter(|n| n.starts_with("wal-"))
            .map(|n| storage.len(n))
            .sum()
    };
    // Whether a lie lands on the syncs that cover the tail depends on
    // the fault seed, so take the first seed from 0x11E5 whose lies
    // actually lose acknowledged bytes at the kill point.
    let image = (0x11E5..0x11E5 + 64u64)
        .find_map(|seed| {
            let sim = SimStorage::new();
            let faulty = FaultyStorage::new(
                Arc::new(sim.clone()),
                StorageFaults {
                    sync_lie: 0.5,
                    seed,
                    ..StorageFaults::default()
                },
            );
            let mut dur = DurabilityConfig::new(Arc::new(faulty));
            // One segment for the whole run: a lied-away tail then
            // lands at the *end* of the log (tolerated torn tail),
            // not in the middle of history (refused).
            dur.segment_bytes = 1 << 20;
            let svc = spawn_durable_market(h::SEED, 2, dur).expect("durable spawn");
            drive_to(&svc, 17);
            let live = wal_bytes(&sim);
            let image = sim.crash_image(0x0F5C);
            svc.shutdown();
            (wal_bytes(&image) < live).then_some(image)
        })
        .expect("the fsync lies must actually have lost acknowledged bytes");

    let (svc, _report) = recover_durable_market(h::SEED, 2, DurabilityConfig::new(Arc::new(image)))
        .expect("recovery");
    assert_eq!(complete(svc), h::durable_baseline());
}

#[test]
fn disk_backed_front_door_survives_restart() {
    // The production path end to end: a DiskStorage-backed service
    // behind the TCP front door, a paying client, a checkpoint that
    // captures the admission gate's state through the reactor
    // rendezvous, a restart, and a second front door serving the
    // recovered market. Hermetic: everything lives under a scratch
    // dir in std::env::temp_dir(), removed at the end.
    let dir = std::env::temp_dir().join(format!("ppms-recovery-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let seed = 0xD15C;
    let account = {
        let disk = DiskStorage::open(&dir).expect("open scratch storage");
        let svc = spawn_durable_market(seed, 2, DurabilityConfig::new(Arc::new(disk)))
            .expect("durable spawn");
        let mut door =
            TcpFrontDoor::spawn(&svc, "127.0.0.1:0", TcpConfig::default()).expect("front door");
        let transport = Arc::new(TcpTransport::new(TcpClientConfig::new(door.addr())));
        transport.load_wallet(mint_admission_spends(&svc, seed, 8).expect("wallet"));
        let client = MaClient::new(transport as Arc<dyn Transport>, Party::Sp);
        let MaResponse::Account(account) = client.call(MaRequest::RegisterSpAccount) else {
            panic!("registration through the admitted connection");
        };
        let covered = svc.checkpoint().expect("checkpoint with a live gate");
        assert!(covered > 0);
        door.shutdown();
        svc.shutdown();
        account
    };

    let disk = DiskStorage::open(&dir).expect("reopen scratch storage");
    let (svc, report) = recover_durable_market(seed, 2, DurabilityConfig::new(Arc::new(disk)))
        .expect("disk-backed recovery");
    assert!(report.snapshot.is_some(), "the checkpoint must be found");
    let mut door =
        TcpFrontDoor::spawn(&svc, "127.0.0.1:0", TcpConfig::default()).expect("recovered door");
    let transport = Arc::new(TcpTransport::new(TcpClientConfig::new(door.addr())));
    transport.load_wallet(mint_admission_spends(&svc, seed ^ 1, 8).expect("fresh wallet"));
    let client = MaClient::new(transport as Arc<dyn Transport>, Party::Sp);
    // The account registered before the restart is still on the
    // ledger, served through a freshly admitted connection.
    let MaResponse::Balance(balance) = client.call(MaRequest::Balance { account }) else {
        panic!("pre-restart account must survive the restart");
    };
    assert_eq!(balance, 0);
    door.shutdown();
    svc.shutdown();
    std::fs::remove_dir_all(&dir).expect("scratch cleanup");
}

/// Satellite of the causal-span work: the span context persisted into
/// each `WalRecord` survives the crash, so recovery replay
/// re-attributes every replayed entry to the *originating* trace id —
/// each replayed record's `wal.replay` span lands under the trace of
/// the client operation that wrote it.
#[test]
fn recovery_replay_reattributes_entries_to_their_originating_traces() {
    use ppms_core::next_request_id;
    use ppms_core::service::{MaService, ServiceConfig};
    use ppms_ecash::DecParams;
    use ppms_obs::SpanContext;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const TRACES: [u64; 3] = [
        0x4EC0_0000_0000_0001,
        0x4EC0_0000_0000_0002,
        0x4EC0_0000_0000_0003,
    ];
    let storage = SimStorage::new();
    let dur = DurabilityConfig::new(Arc::new(storage.clone())); // fsync Always
    let mut rng = StdRng::seed_from_u64(0x7A50);
    let svc = MaService::spawn_durable(
        &mut rng,
        DecParams::fixture(2, 6),
        512,
        40,
        ServiceConfig::default(),
        dur.clone(),
    )
    .expect("durable spawn");
    let client = svc.client();
    let MaResponse::JobId(job) = client
        .try_call_spanned(
            next_request_id(),
            SpanContext::from_trace(TRACES[0]),
            MaRequest::PublishJob {
                description: "traced".into(),
                payment: 1,
                pseudonym: vec![7],
            },
        )
        .expect("publish")
    else {
        panic!("publish reply");
    };
    for trace in &TRACES[1..] {
        let resp = client
            .try_call_spanned(
                next_request_id(),
                SpanContext::from_trace(*trace),
                MaRequest::LaborRegister {
                    job_id: job,
                    sp_pubkey: vec![*trace as u8],
                },
            )
            .expect("labor");
        assert!(matches!(resp, MaResponse::Ok), "{resp:?}");
    }

    // The kill: every append above was fsynced, so the crash image
    // holds the full journal including the persisted span contexts.
    let image = storage.crash_image(0x4EC0);
    svc.shutdown();

    let mut recov = dur;
    recov.storage = Arc::new(image);
    let mut rng = StdRng::seed_from_u64(0x7A50);
    let (svc, report) = MaService::recover(
        &mut rng,
        DecParams::fixture(2, 6),
        512,
        40,
        ServiceConfig::default(),
        recov,
    )
    .expect("recovery");
    assert!(
        report.replayed_records >= TRACES.len(),
        "all traced operations must replay, got {}",
        report.replayed_records
    );

    // Replay runs inside the (single) shard worker before it serves
    // its first request, so one round-trip is a replay barrier; only
    // then is the span ring guaranteed to name every original trace.
    let client = svc.client();
    let resp = client.try_call(MaRequest::RegisterSpAccount).expect("sync");
    assert!(matches!(resp, MaResponse::Account(_)), "{resp:?}");
    for trace in TRACES {
        let events = ppms_obs::trace_events(trace);
        assert!(
            events.iter().any(|e| e.name == "wal.replay"),
            "replay must re-attribute to trace {trace:#x}: {events:?}"
        );
    }
    svc.shutdown();
}

#[test]
fn mid_batch_crash_in_group_commit_window_loses_no_item_and_doubles_none() {
    // The batching tier's torn window under the durable WAL: with
    // group commit (`SyncPolicy::Batch`) the deposit's record is
    // *appended* but not yet fsynced when the worker dies
    // between batch verification and the group-commit flush. The
    // process kill then tears the unsynced tail off the medium, so
    // the restarted service has never heard of the deposit — the
    // retry under the same key must *re-execute* (not replay), and
    // the item must land exactly once.
    use ppms_core::next_request_id;
    use ppms_core::service::{CrashPhase, CrashPoint, MaService, ServiceConfig};
    use ppms_crypto::cl::ClKeyPair;
    use ppms_ecash::{Coin, DecParams, NodePath};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let storage = SimStorage::new();
    let mut dur = DurabilityConfig::new(Arc::new(storage.clone()));
    dur.sync = SyncPolicy::Batch { every: 1000 }; // wide window: nothing fsyncs on its own
    let config = ServiceConfig {
        shards: 1,
        // Requests: RegisterSp (1), RegisterJo (2), Withdraw (3),
        // then the deposit (4) — the crash fires after the deposit's
        // record append, before the group-commit fsync and before the
        // held reply is released.
        crash: Some(CrashPoint {
            shard: 0,
            at_request: 4,
            phase: CrashPhase::AfterAppend,
        }),
        ..ServiceConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(0x6C07);
    let svc = MaService::spawn_durable(
        &mut rng,
        DecParams::fixture(2, 6),
        512,
        40,
        config,
        dur.clone(),
    )
    .expect("durable spawn");
    let client = svc.client();
    let MaResponse::Account(sp) = client.call(MaRequest::RegisterSpAccount) else {
        panic!("sp account");
    };
    let cl = ClKeyPair::generate(&mut rng, &svc.pairing);
    let MaResponse::Account(jo) = client.call(MaRequest::RegisterJoAccount {
        funds: 50,
        clpk: cl.public.clone(),
    }) else {
        panic!("jo account");
    };
    let mut coin = Coin::mint(&mut rng, &svc.params);
    let (blinded, factor) = coin.blind_token(&mut rng, &svc.bank_pk);
    let auth = cl.sign_bytes(&mut rng, &svc.pairing, &1u64.to_be_bytes());
    let MaResponse::BlindSignature(sig) = client.call(MaRequest::Withdraw {
        account: jo,
        nonce: 1,
        auth,
        blinded,
    }) else {
        panic!("withdraw");
    };
    assert!(coin.attach_signature(&svc.bank_pk, &sig, &factor));
    // Make the setup durable: the checkpoint snapshot is published
    // atomically, so only the deposit's records live in the unsynced
    // tail.
    let covered = svc.checkpoint().expect("checkpoint");
    assert_eq!(covered, 3, "setup is three writes = three records");

    let spend = coin.spend(&mut rng, &svc.params, &NodePath::from_index(2, 0), b"");
    let deposit = MaRequest::DepositBatch {
        account: sp,
        spends: vec![spend],
    };
    let id = next_request_id();
    let first = client.try_call_keyed(id, deposit.clone());
    assert!(first.is_err(), "mid-batch crash must hang up the client");

    // The kill. Pick a tear seed that actually cuts into the unsynced
    // tail (all but one tear offset do): the deposit's record — the
    // journal's last — dies with the process.
    let live_wal: usize = storage
        .list()
        .expect("list")
        .iter()
        .filter(|n| n.starts_with("wal-"))
        .map(|n| storage.len(n))
        .sum();
    let image = (0..64u64)
        .map(|s| storage.crash_image(0x7EA2 + s))
        .find(|img| {
            let kept: usize = img
                .list()
                .expect("list")
                .iter()
                .filter(|n| n.starts_with("wal-"))
                .map(|n| img.len(n))
                .sum();
            kept < live_wal
        })
        .expect("some tear seed must cut the unsynced tail");
    svc.shutdown();

    let mut recov = dur;
    recov.storage = Arc::new(image);
    let mut rng = StdRng::seed_from_u64(0x6C07);
    let (svc, report) = MaService::recover(
        &mut rng,
        DecParams::fixture(2, 6),
        512,
        40,
        ServiceConfig {
            shards: 1,
            ..ServiceConfig::default()
        },
        recov,
    )
    .expect("recovery");
    assert_eq!(
        report.snapshot_lsn, covered,
        "setup restored from the snapshot"
    );

    // The retry under the same key re-executes — the journal never
    // durably heard of the deposit, so there is nothing to replay.
    let client = svc.client();
    let retry = client.try_call_keyed(id, deposit.clone()).expect("retry");
    let MaResponse::BatchDeposited {
        total,
        accepted,
        rejected,
    } = retry
    else {
        panic!("retried deposit reply: {retry:?}");
    };
    assert_eq!(
        (total, accepted, rejected),
        (1, 1, 0),
        "the item must not be lost"
    );
    assert_eq!(
        svc.faults.dedup_replays(),
        0,
        "a torn-away commit cannot be replayed, only re-executed"
    );

    // And a further retransmit now *does* replay — one execution total.
    let replay = client.try_call_keyed(id, deposit).expect("retransmit");
    assert!(
        matches!(replay, MaResponse::BatchDeposited { accepted: 1, .. }),
        "verbatim replay, got {replay:?}"
    );
    assert_eq!(svc.faults.dedup_replays(), 1);
    let MaResponse::Balance(b) = client.call(MaRequest::Balance { account: sp }) else {
        panic!("balance");
    };
    assert_eq!(
        b, 1,
        "exactly one credit across crash, tear, retry and replay"
    );
    svc.shutdown();
}

/// A storage that fails one chosen `wal-` append with
/// [`StorageError::Io`] — a device refusing a journal write — and
/// passes everything else through.
#[derive(Debug)]
struct FailOneAppend {
    inner: SimStorage,
    /// `wal-` appends left until the failing one; 0 = disarmed.
    countdown: std::sync::atomic::AtomicU64,
}

impl FailOneAppend {
    fn new(inner: SimStorage) -> Arc<FailOneAppend> {
        Arc::new(FailOneAppend {
            inner,
            countdown: Default::default(),
        })
    }

    /// Fails the `k`-th `wal-` append from now (1 = the next one).
    fn arm(&self, k: u64) {
        self.countdown.store(k, std::sync::atomic::Ordering::SeqCst);
    }
}

impl Storage for FailOneAppend {
    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        use std::sync::atomic::Ordering::SeqCst;
        let left = name.starts_with("wal-").then(|| {
            self.countdown
                .fetch_update(SeqCst, SeqCst, |k| k.checked_sub(1))
        });
        if let Some(Ok(1)) = left {
            return Err(StorageError::Io("injected: journal append refused".into()));
        }
        self.inner.append(name, bytes)
    }
    fn sync(&self, name: &str) -> Result<(), StorageError> {
        self.inner.sync(name)
    }
    fn read(&self, name: &str) -> Result<Vec<u8>, StorageError> {
        self.inner.read(name)
    }
    fn truncate(&self, name: &str, len: u64) -> Result<(), StorageError> {
        self.inner.truncate(name, len)
    }
    fn list(&self) -> Result<Vec<String>, StorageError> {
        self.inner.list()
    }
    fn remove(&self, name: &str) -> Result<(), StorageError> {
        self.inner.remove(name)
    }
    fn write_atomic(&self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        self.inner.write_atomic(name, bytes)
    }
}

/// Asserts that `live` holds the ledger `recovered` rebuilt: the bank,
/// the bulletin, the CL bindings, the DEC double-spend state and the
/// held payments.
fn assert_same_ledger(live: &ppms_core::SnapshotState, recovered: &ppms_core::MaService, at: &str) {
    let recovered = recovered.ledger();
    assert_eq!(live.bank, recovered.bank, "{at}: bank");
    assert_eq!(live.jobs, recovered.jobs, "{at}: bulletin");
    assert_eq!(live.cl_bindings, recovered.cl_bindings, "{at}: CL bindings");
    assert_eq!(live.dec, recovered.dec, "{at}: DEC double-spend state");
    assert_eq!(
        live.pending_payments, recovered.pending_payments,
        "{at}: held payments"
    );
    assert_eq!(
        live.received_reports, recovered.received_reports,
        "{at}: data receipts"
    );
}

/// The probes' market: a small DEC fixture (face value 4) over
/// `storage`, spawned or recovered from the same seed.
fn probe_service(
    storage: Arc<dyn Storage>,
    shards: usize,
) -> (ppms_core::MaService, rand::rngs::StdRng) {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xFA11);
    let (svc, _report) = ppms_core::MaService::recover(
        &mut rng,
        ppms_ecash::DecParams::fixture(2, 6),
        512,
        40,
        ppms_core::ServiceConfig {
            shards,
            ..Default::default()
        },
        DurabilityConfig::new(storage),
    )
    .expect("spawn over the probe storage");
    (svc, rng)
}

/// Stops `live` and recovers a second service from the same storage;
/// its ledger must equal the one `live` held.
fn assert_recovers_to_live(live: ppms_core::MaService, storage: Arc<dyn Storage>, shards: usize) {
    let ledger = live.ledger();
    live.shutdown();
    let (recovered, _rng) = probe_service(storage, shards);
    assert_same_ledger(&ledger, &recovered, "recovered from the same storage");
    recovered.shutdown();
}

/// A JO account with `funds` and the CL key that authenticates it.
fn probe_jo(
    svc: &ppms_core::MaService,
    rng: &mut rand::rngs::StdRng,
    funds: u64,
) -> (ppms_core::AccountId, ppms_crypto::cl::ClKeyPair) {
    let cl = ppms_crypto::cl::ClKeyPair::generate(rng, &svc.pairing);
    let MaResponse::Account(jo) = svc.client().call(MaRequest::RegisterJoAccount {
        funds,
        clpk: cl.public.clone(),
    }) else {
        panic!("jo account");
    };
    (jo, cl)
}

/// Withdraws one coin for `jo` under `nonce`.
fn probe_coin(
    svc: &ppms_core::MaService,
    rng: &mut rand::rngs::StdRng,
    (jo, cl): &(ppms_core::AccountId, ppms_crypto::cl::ClKeyPair),
    nonce: u64,
) -> ppms_ecash::Coin {
    let mut coin = ppms_ecash::Coin::mint(rng, &svc.params);
    let (blinded, factor) = coin.blind_token(rng, &svc.bank_pk);
    let MaResponse::BlindSignature(sig) = svc.client().call(MaRequest::Withdraw {
        account: *jo,
        nonce,
        auth: cl.sign_bytes(rng, &svc.pairing, &nonce.to_be_bytes()),
        blinded,
    }) else {
        panic!("withdraw");
    };
    assert!(coin.attach_signature(&svc.bank_pk, &sig, &factor));
    coin
}

#[test]
fn a_withdrawal_whose_append_failed_debits_once_on_retransmit() {
    let storage = FailOneAppend::new(SimStorage::new());
    let (svc, mut rng) = probe_service(storage.clone(), 1);
    let (jo, cl) = probe_jo(&svc, &mut rng, 50);
    let withdraw = MaRequest::Withdraw {
        account: jo,
        nonce: 1,
        auth: cl.sign_bytes(&mut rng, &svc.pairing, &1u64.to_be_bytes()),
        blinded: ppms_bigint::BigUint::from(12345u64),
    };
    let client = svc.client();
    let id = ppms_core::next_request_id();
    storage.arm(1);
    assert!(
        client.try_call_keyed(id, withdraw.clone()).is_err(),
        "the refused append hangs up the first attempt"
    );
    let resp = client.try_call_keyed(id, withdraw).expect("retransmit");
    assert!(matches!(resp, MaResponse::BlindSignature(_)), "{resp:?}");
    let resp = client.call(MaRequest::Balance { account: jo });
    assert!(
        matches!(resp, MaResponse::Balance(46)),
        "one withdrawal of 4 from 50: {resp:?}"
    );
    assert_recovers_to_live(svc, storage, 1);
}

#[test]
fn a_deposit_whose_append_failed_is_accepted_and_credited_once_on_retransmit() {
    let storage = FailOneAppend::new(SimStorage::new());
    let (svc, mut rng) = probe_service(storage.clone(), 1);
    let client = svc.client();
    let MaResponse::Account(sp) = client.call(MaRequest::RegisterSpAccount) else {
        panic!("sp account");
    };
    let jo = probe_jo(&svc, &mut rng, 50);
    let coin = probe_coin(&svc, &mut rng, &jo, 1);
    let spend = coin.spend(
        &mut rng,
        &svc.params,
        &ppms_ecash::NodePath::from_index(2, 0),
        b"",
    );
    let deposit = MaRequest::DepositBatch {
        account: sp,
        spends: vec![spend],
    };
    let id = ppms_core::next_request_id();
    storage.arm(1);
    assert!(client.try_call_keyed(id, deposit.clone()).is_err());
    let resp = client.try_call_keyed(id, deposit).expect("retransmit");
    assert!(
        matches!(
            resp,
            MaResponse::BatchDeposited {
                total: 1,
                accepted: 1,
                rejected: 0
            }
        ),
        "an honest spend the log never recorded: {resp:?}"
    );
    let resp = client.call(MaRequest::Balance { account: sp });
    assert!(
        matches!(resp, MaResponse::Balance(1)),
        "credited once: {resp:?}"
    );
    assert_recovers_to_live(svc, storage, 1);
}

/// One failed-append matrix half (split by fsync policy so the two run
/// as parallel tests): for every shard count and every `k` up to the
/// schedule's journaled writes, the keyed drive runs with its `k`-th
/// `wal-` append refused, is re-driven to completion, and must reach
/// the fault-free outcome; a cold recovery from the same storage must
/// rebuild the ledger the live service held.
fn run_failed_append_matrix(sync: SyncPolicy) {
    let expected = h::durable_baseline();
    let mut hung_up = 0;
    for &shards in &h::MATRIX_SHARDS {
        for k in 1..=h::SCHEDULE_JOURNALED {
            let cell = format!("shards={shards} sync={sync} failed append={k}");
            let storage = FailOneAppend::new(SimStorage::new());
            let dur = matrix_durability(storage.clone(), sync);
            let svc = spawn_durable_market(h::SEED, shards, dur.clone())
                .unwrap_or_else(|e| panic!("{cell}: spawn: {e}"));
            storage.arm(k);
            // The refused append hangs up its request and ends the
            // drive there; the schedule is then driven again in full.
            let first = drive_market_keyed(&svc, h::SEED, h::N_SPS, h::W, u64::MAX);
            hung_up += first.is_err() as u64;
            let drive = drive_market_keyed(&svc, h::SEED, h::N_SPS, h::W, u64::MAX)
                .unwrap_or_else(|e| panic!("{cell}: retried drive: {e}"));
            let KeyedDrive::Complete(mut outcome) = drive else {
                panic!("unlimited budget cannot pause");
            };
            let ledger = svc.ledger();
            outcome.undelivered_payments = svc.shutdown();
            assert_eq!(*outcome, expected, "{cell} diverged");
            let (recovered, _report) = recover_durable_market(h::SEED, shards, dur)
                .unwrap_or_else(|e| panic!("{cell}: recovery: {e}"));
            assert_same_ledger(&ledger, &recovered, &cell);
            recovered.shutdown();
        }
    }
    // A refused append that a checkpoint's rotation took, not a
    // request's, hangs up nobody; most cells must hit a request.
    let cells = h::MATRIX_SHARDS.len() as u64 * h::SCHEDULE_JOURNALED;
    assert!(
        2 * hung_up > cells,
        "only {hung_up} of {cells} cells hit a request"
    );
}

#[test]
fn failed_append_matrix_fsync_always_converges() {
    run_failed_append_matrix(SyncPolicy::Always);
}

#[test]
fn failed_append_matrix_group_commit_converges() {
    run_failed_append_matrix(SyncPolicy::Batch { every: 4 });
}

#[test]
fn one_serial_deposited_on_two_shards_at_once_is_accepted_once() {
    // Two SP accounts that route to different shards race the same
    // spend; the DEC lock a deposit holds from its decision through
    // its append and apply lets exactly one of them through.
    const ROUNDS: u64 = 50;
    let storage: Arc<dyn Storage> = Arc::new(SimStorage::new());
    let (svc, mut rng) = probe_service(storage.clone(), 2);
    let client = svc.client();
    let mut sps = Vec::new();
    while sps.len() < 2 {
        let MaResponse::Account(sp) = client.call(MaRequest::RegisterSpAccount) else {
            panic!("sp account");
        };
        if sps
            .iter()
            .all(|other: &ppms_core::AccountId| other.0 % 2 != sp.0 % 2)
        {
            sps.push(sp);
        }
    }
    let leaves = svc.params.face_value();
    let jo = probe_jo(&svc, &mut rng, ROUNDS.div_ceil(leaves) * leaves);
    let mut accepted_value = 0;
    let mut coin = None;
    for round in 0..ROUNDS {
        let leaf = round % leaves;
        if leaf == 0 {
            coin = Some(probe_coin(&svc, &mut rng, &jo, round / leaves + 1));
        }
        let path = ppms_ecash::NodePath::from_index(svc.params.levels, leaf);
        let spend =
            coin.as_ref()
                .expect("a coin per four rounds")
                .spend(&mut rng, &svc.params, &path, b"");
        let barrier = std::sync::Barrier::new(2);
        let answers: Vec<MaResponse> = std::thread::scope(|scope| {
            let racers: Vec<_> = sps
                .iter()
                .map(|&account| {
                    let (spend, barrier, client) = (spend.clone(), &barrier, svc.client());
                    scope.spawn(move || {
                        barrier.wait();
                        client.call(MaRequest::DepositBatch {
                            account,
                            spends: vec![spend],
                        })
                    })
                })
                .collect();
            racers
                .into_iter()
                .map(|r| r.join().expect("racer"))
                .collect()
        });
        let accepted: Vec<u64> = answers
            .iter()
            .filter_map(|resp| match resp {
                MaResponse::BatchDeposited {
                    total, accepted: 1, ..
                } => Some(*total),
                MaResponse::BatchDeposited { accepted: 0, .. } => None,
                other => panic!("round {round}: {other:?}"),
            })
            .collect();
        assert_eq!(accepted.len(), 1, "round {round}: {answers:?}");
        accepted_value += accepted[0];
    }
    let credited: u64 = sps
        .iter()
        .map(
            |&account| match client.call(MaRequest::Balance { account }) {
                MaResponse::Balance(b) => b,
                other => panic!("balance: {other:?}"),
            },
        )
        .sum();
    assert_eq!(credited, accepted_value, "credits equal the accepted value");
    assert_recovers_to_live(svc, storage, 2);
}

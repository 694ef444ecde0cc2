//! Chaos harness: the market must survive a lossy, duplicating,
//! reordering, corrupting, crashing substrate and still converge to
//! the exact ledger a fault-free run produces. Faults are injected
//! from a seeded [`FaultPlan`] so every schedule is replayable; the
//! conservation invariant is equality with the in-process baseline,
//! not merely "no error".

use ppms_core::service::{MaRequest, MaResponse, MaService, ServiceConfig};
use ppms_core::sim::run_service_market_chaos;
use ppms_core::{next_request_id, CrashPhase, CrashPoint};
use ppms_crypto::cl::ClKeyPair;
use ppms_ecash::{Coin, DecParams, NodePath};
use ppms_integration::harness::{baseline, plan, N_SPS, SEED, W};
use ppms_integration::hold_shard0_until_queued;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn chaos_grid_converges_to_fault_free_ledger() {
    // A small seeded grid over the whole fault surface. Every cell
    // must land on the identical ledger; across the grid the faults
    // must actually have fired (otherwise the harness tests nothing).
    let expected = baseline();
    let grid = [
        plan(0xC0A5, 0.20, 0.00, 0.00, 0.00), // pure loss
        plan(0xC0A6, 0.00, 0.25, 0.15, 0.00), // duplication + stale replay
        plan(0xC0A7, 0.00, 0.00, 0.00, 0.20), // corruption
        plan(0xC0A8, 0.15, 0.10, 0.10, 0.10), // everything at once
        plan(0xC0A9, 0.30, 0.15, 0.00, 0.00), // heavy loss + duplication
    ];
    let mut retries = 0;
    let mut replays = 0;
    for (i, p) in grid.iter().enumerate() {
        let (outcome, faults) = run_service_market_chaos(SEED, 2, N_SPS, W, *p, None)
            .unwrap_or_else(|e| panic!("grid cell {i} failed: {e:?}"));
        assert_eq!(outcome, expected, "grid cell {i} diverged");
        retries += faults.retries;
        replays += faults.dedup_replays;
    }
    assert!(retries > 0, "the grid never exercised a retransmission");
    assert!(
        replays > 0,
        "the grid never replayed a cached response (executed-but-unacked window untested)"
    );
}

#[test]
fn crashed_shard_recovers_and_market_converges() {
    // Seed-pinned supervision test: shard 0 is killed before executing
    // its third request, the supervisor respawns it over the journal,
    // and the retrying clients carry the market to the same ledger as
    // the fault-free run. The crashed request left no record; its
    // retry re-executes.
    let expected = baseline();
    let crash = CrashPoint {
        shard: 0,
        at_request: 3,
        phase: CrashPhase::BeforeExecute,
    };
    let (outcome, faults) = run_service_market_chaos(
        SEED,
        2,
        N_SPS,
        W,
        plan(0xDEAD, 0.0, 0.0, 0.0, 0.0),
        Some(crash),
    )
    .expect("market survives a shard crash");
    assert_eq!(outcome, expected, "crash schedule changed the ledger");
    assert_eq!(faults.shard_respawns, 1, "exactly one respawn");
    assert!(
        faults.wal_commits > 0,
        "the journal must have committed work"
    );
}

#[test]
fn crash_under_loss_still_converges() {
    // Crash and packet loss together: the respawned shard replays its
    // journal while the retry layer absorbs both the crash hang-up and
    // the dropped frames.
    let expected = baseline();
    let crash = CrashPoint {
        shard: 1,
        at_request: 2,
        phase: CrashPhase::BeforeExecute,
    };
    let (outcome, faults) = run_service_market_chaos(
        SEED,
        2,
        N_SPS,
        W,
        plan(0xBEEF, 0.15, 0.10, 0.0, 0.0),
        Some(crash),
    )
    .expect("market survives crash + loss");
    assert_eq!(outcome, expected);
    assert_eq!(faults.shard_respawns, 1);
}

#[test]
fn double_spend_is_still_caught_under_retries() {
    // The dedup cache must distinguish a *retransmit* (same request
    // id — replay the original verdict, no double-spend flag) from a
    // *genuine* reuse of the same spends under a fresh id (caught).
    let mut rng = StdRng::seed_from_u64(0x0DD5);
    let svc = MaService::spawn_with_config(
        &mut rng,
        DecParams::fixture(2, 6),
        512,
        40,
        ServiceConfig {
            shards: 2,
            ..ServiceConfig::default()
        },
    );
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
    let s1 = coin.spend(&mut rng, &svc.params, &NodePath::from_index(2, 0), b"");
    let s2 = coin.spend(&mut rng, &svc.params, &NodePath::from_index(2, 1), b"");
    let batch = MaRequest::DepositBatch {
        account: sp,
        spends: vec![s1, s2],
    };

    // First delivery.
    let id = next_request_id();
    let first = client
        .try_call_keyed(id, batch.clone())
        .expect("first deposit");
    let MaResponse::BatchDeposited {
        total,
        accepted,
        rejected,
    } = first
    else {
        panic!("batch response");
    };
    assert_eq!((total, accepted, rejected), (2, 2, 0));

    // Retransmit under the *same* id: the cached verdict comes back
    // verbatim and the ledger does not move.
    let replay = client
        .try_call_keyed(id, batch.clone())
        .expect("retransmit");
    let MaResponse::BatchDeposited {
        accepted: a2,
        rejected: r2,
        ..
    } = replay
    else {
        panic!("replayed batch response");
    };
    assert_eq!((a2, r2), (2, 0), "retransmit must not be re-executed");
    assert_eq!(svc.faults.dedup_replays(), 1);
    let MaResponse::Balance(b) = client.call(MaRequest::Balance { account: sp }) else {
        panic!("balance");
    };
    assert_eq!(b, 2, "the retransmit must not double-credit");

    // The same spends under a *fresh* id are a genuine double-spend.
    let fresh = client
        .try_call_keyed(next_request_id(), batch)
        .expect("fresh-id deposit");
    let MaResponse::BatchDeposited {
        accepted: a3,
        rejected: r3,
        ..
    } = fresh
    else {
        panic!("fresh batch response");
    };
    assert_eq!((a3, r3), (0, 2), "genuine reuse must be caught");
    svc.shutdown();
}

#[test]
fn retried_batch_deposit_survives_crash_and_replays_one_outcome() {
    // Retry-during-batch-verify: the shard dies before the DepositBatch
    // executes (before the combined batch verification runs), the
    // retry under the same id re-executes on the respawned
    // worker, and a later retransmit replays the *identical*
    // batch-level BatchDeposited from the dedup cache — the batch is
    // one WAL/dedup unit, never per-item, so no partial credit can
    // leak across the crash.
    let mut rng = StdRng::seed_from_u64(0x0DD6);
    let svc = MaService::spawn_with_config(
        &mut rng,
        DecParams::fixture(2, 6),
        512,
        40,
        ServiceConfig {
            shards: 1,
            // Requests: RegisterSp, RegisterJo, Withdraw, then the batch.
            crash: Some(CrashPoint {
                shard: 0,
                at_request: 4,
                phase: CrashPhase::BeforeExecute,
            }),
            ..ServiceConfig::default()
        },
    );
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
    // A mixed batch: two valid leaves plus an intra-batch duplicate,
    // so the cached outcome has both accepted and rejected items.
    let s1 = coin.spend(&mut rng, &svc.params, &NodePath::from_index(2, 0), b"");
    let s2 = coin.spend(&mut rng, &svc.params, &NodePath::from_index(2, 1), b"");
    let dup = coin.spend(&mut rng, &svc.params, &NodePath::from_index(2, 0), b"");
    let batch = MaRequest::DepositBatch {
        account: sp,
        spends: vec![s1, s2, dup],
    };

    // First delivery hits the crash point: never verified, no record.
    let id = next_request_id();
    let first = client.try_call_keyed(id, batch.clone());
    assert!(first.is_err(), "crash must surface as a transport error");

    // Retry under the same id: the respawned worker has no record of
    // it and runs the whole batch verification once.
    let retry = client
        .try_call_keyed(id, batch.clone())
        .expect("retry after respawn");
    let MaResponse::BatchDeposited {
        total,
        accepted,
        rejected,
    } = retry
    else {
        panic!("batch response, got {retry:?}");
    };
    assert_eq!((total, accepted, rejected), (2, 2, 1));
    assert_eq!(svc.faults.shard_respawns(), 1);

    // Retransmit again: the identical batch-level outcome comes back
    // from the dedup cache without re-verification or re-credit.
    let replay = client.try_call_keyed(id, batch).expect("retransmit");
    let MaResponse::BatchDeposited {
        total: t2,
        accepted: a2,
        rejected: r2,
    } = replay
    else {
        panic!("replayed batch response");
    };
    assert_eq!((t2, a2, r2), (2, 2, 1), "replay must be verbatim");
    assert_eq!(svc.faults.dedup_replays(), 1);
    let MaResponse::Balance(b) = client.call(MaRequest::Balance { account: sp }) else {
        panic!("balance");
    };
    assert_eq!(b, 2, "exactly one credit across crash, retry and replay");
    svc.shutdown();
}

#[test]
fn mid_batch_crash_between_verify_and_group_commit_converges() {
    // The batching pipeline's canonical torn window (DESIGN.md §16):
    // the shard dies *after* journaling a deposit's record but
    // *before* the batch's group commit and before any held reply in
    // that cross-client batch is released. Every client whose item
    // rode the doomed batch sees a hung-up connection; their retries
    // under the same keys must converge without losing or
    // double-applying a single item — committed items replay from the
    // rebuilt dedup cache, uncommitted ones re-execute. A checkpoint
    // holds the shard until both first deposits are queued, so they
    // always share the drain the crash lands in.
    use ppms_core::service::MaClient;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    fn call_retry(client: &MaClient, id: u64, req: MaRequest, errors: &AtomicU64) -> MaResponse {
        for _ in 0..20 {
            match client.try_call_keyed(id, req.clone()) {
                Ok(resp) => return resp,
                Err(_) => {
                    errors.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        }
        panic!("request never succeeded after the mid-batch crash");
    }

    let mut rng = StdRng::seed_from_u64(0x16C4);
    let svc = MaService::spawn_with_config(
        &mut rng,
        DecParams::fixture(2, 6),
        512,
        40,
        ServiceConfig {
            shards: 1,
            max_batch: 8,
            // Setup executes 6 requests (2 clients x SP + JO +
            // Withdraw); the crash fires after the record of the
            // *second* deposit, which shares its drain with the first.
            crash: Some(CrashPoint {
                shard: 0,
                at_request: 8,
                phase: CrashPhase::AfterAppend,
            }),
            ..ServiceConfig::default()
        },
    );

    // Two depositors, each with a coin and two unique leaves.
    let mut wallets = Vec::new();
    for _ in 0..2 {
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
        let spends: Vec<_> = (0..2)
            .map(|l| coin.spend(&mut rng, &svc.params, &NodePath::from_index(2, l), b""))
            .collect();
        wallets.push((sp, spends));
    }

    let errors = AtomicU64::new(0);
    let accounts: Vec<_> = wallets.iter().map(|(sp, _)| *sp).collect();
    let depositors = wallets.len() as i64;
    hold_shard0_until_queued(&svc, depositors, |scope| {
        for (sp, spends) in wallets {
            let svc = &svc;
            let errors = &errors;
            scope.spawn(move || {
                let client = svc.client();
                for spend in spends {
                    let resp = call_retry(
                        &client,
                        next_request_id(),
                        MaRequest::DepositBatch {
                            account: sp,
                            spends: vec![spend],
                        },
                        errors,
                    );
                    let MaResponse::BatchDeposited {
                        accepted, rejected, ..
                    } = resp
                    else {
                        panic!("deposit reply: {resp:?}");
                    };
                    assert_eq!((accepted, rejected), (1, 0));
                }
            });
        }
    });

    // The crash must actually have fired and hung up at least one
    // in-flight client, and the supervisor must have respawned the
    // worker exactly once.
    assert_eq!(svc.faults.shard_respawns(), 1, "exactly one respawn");
    assert!(
        errors.load(Ordering::Relaxed) >= 2,
        "the doomed batch must have hung up both clients"
    );
    // Both items' records predate the kill, so their retries are
    // replays, never re-executions.
    assert!(
        svc.faults.dedup_replays() >= 2,
        "the recorded-but-unanswered items must replay from the rebuilt cache"
    );
    // Exactly-once: every unique leaf credited exactly one unit,
    // through crash, respawn, retries and replays.
    let client = svc.client();
    for sp in accounts {
        let MaResponse::Balance(b) = client.call(MaRequest::Balance { account: sp }) else {
            panic!("balance");
        };
        assert_eq!(b, 2, "no lost and no double-applied deposits");
    }
    svc.shutdown();
}

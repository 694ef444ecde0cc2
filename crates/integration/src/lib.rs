//! Shared helpers for the workspace-level integration tests and
//! examples (which live in the top-level `tests/` and `examples/`
//! directories and are wired into this crate via explicit target
//! paths).

use ppms_core::ppmsdec::DecMarket;
use ppms_core::{GateCheckpoint, MaService};
use ppms_ecash::DecParams;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// RSA modulus size used across tests — small enough to keep the
/// suite fast, structurally identical to production sizes.
pub const TEST_RSA_BITS: usize = 512;

/// Pairing group order bits for tests.
pub const TEST_PAIRING_BITS: usize = 48;

/// Stadler rounds for tests (soundness 2^-12 is plenty for tests;
/// production would use 32+).
pub const TEST_ZKP_ROUNDS: usize = 12;

/// Builds a deterministic RNG for a test.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Builds a DEC market with fixture parameters at `levels`.
pub fn dec_market(seed: u64, levels: usize) -> (DecMarket, StdRng) {
    let mut r = rng(seed);
    let params = DecParams::fixture(levels, TEST_ZKP_ROUNDS);
    let market = DecMarket::new(&mut r, params, TEST_RSA_BITS, TEST_PAIRING_BITS);
    (market, r)
}

/// Holds shard 0 of `svc` at a checkpoint barrier while `enqueue`
/// starts its client threads on the scope, releases the shard once
/// `queued` requests wait in its queue, and returns when the threads
/// have finished. The shard's first drain then takes all of them, so
/// a test can rely on a cross-client batch without relying on thread
/// scheduling.
pub fn hold_shard0_until_queued<'env, F>(svc: &'env MaService, queued: i64, enqueue: F)
where
    F: for<'scope> FnOnce(&'scope std::thread::Scope<'scope, 'env>),
{
    let hook = Arc::new(GateCheckpoint::new());
    svc.attach_gate_checkpoint(hook.clone());
    let queue_depth = svc.obs.gauge("ma.shard0.queue_depth");
    std::thread::scope(|scope| {
        // The checkpoint keeps every shard paused at its barrier
        // until the hook is fulfilled.
        let checkpoint = scope.spawn(|| svc.checkpoint());
        let deadline = Instant::now() + Duration::from_secs(10);
        while !hook.pending() {
            assert!(Instant::now() < deadline, "checkpoint never asked the hook");
            std::thread::sleep(Duration::from_millis(1));
        }
        enqueue(scope);
        while queue_depth.get() < queued {
            assert!(Instant::now() < deadline, "the held requests never queued");
            std::thread::sleep(Duration::from_millis(1));
        }
        hook.fulfill(Vec::new());
        checkpoint
            .join()
            .expect("checkpoint thread")
            .expect("checkpoint");
    });
}

/// The seeded fault/crash harness shared by `tests/chaos.rs` and
/// `tests/recovery.rs`: one market schedule, one fault-plan builder
/// and one kill grid, so the chaos convergence tests and the durable
/// crash-matrix tests compare against the *same* fault-free ledger.
pub mod harness {
    use ppms_core::sim::{
        drive_market_keyed, keyed_journaled_calls, run_service_market, spawn_durable_market,
        KeyedDrive, ServiceMarketOutcome, TransportKind,
    };
    use ppms_core::{DurabilityConfig, FaultPlan, SimNetConfig, SimStorage, SyncPolicy};
    use std::sync::Arc;

    /// Seed of the shared deterministic market schedule.
    pub const SEED: u64 = 0xE0;
    /// Service providers in the schedule.
    pub const N_SPS: usize = 3;
    /// Payment each SP receives.
    pub const W: u64 = 3;
    /// Keyed requests the full schedule issues for `N_SPS` (2 setup +
    /// 8 per SP + 1 data fetch + 1 + `N_SPS` balance audits) — kill
    /// points must stay below this.
    pub const SCHEDULE_CALLS: u64 = 2 + 8 * N_SPS as u64 + 2 + N_SPS as u64;
    /// Schedule calls that are writes and journal one record each:
    /// all but the `N_SPS` labor fetches and the `1 + N_SPS` balance
    /// audits.
    pub const SCHEDULE_JOURNALED: u64 = keyed_journaled_calls(N_SPS, SCHEDULE_CALLS);

    /// The fault-free outcome every faulted run must converge to.
    pub fn baseline() -> ServiceMarketOutcome {
        run_service_market(SEED, 1, N_SPS, W, TransportKind::InProc).expect("fault-free baseline")
    }

    /// A seeded transport-fault schedule.
    pub fn plan(seed: u64, drop: f64, dup: f64, reorder: f64, corrupt: f64) -> FaultPlan {
        FaultPlan {
            net: SimNetConfig {
                latency_micros: 0,
                jitter_micros: 0,
                drop_rate: drop,
                seed,
            },
            duplicate_rate: dup,
            reorder_rate: reorder,
            corrupt_rate: corrupt,
        }
    }

    /// Kill points of the crash matrix: the schedule is cut after
    /// this many calls (early setup, mid-market, near the audit).
    pub const KILL_POINTS: [u64; 3] = [3, 11, 23];

    /// fsync disciplines of the crash matrix: every append durable
    /// before its ack, and a group-commit window where acknowledged
    /// work may die with the crash and must be re-driven.
    pub const SYNC_POLICIES: [SyncPolicy; 2] = [SyncPolicy::Always, SyncPolicy::Batch { every: 4 }];

    /// Shard counts of the crash matrix.
    pub const MATRIX_SHARDS: [usize; 2] = [1, 4];

    /// The fault-free outcome of the *keyed durable* drive — what
    /// every crash-matrix cell must recover to. Identical to
    /// [`baseline`] (asserted by `recovery.rs`), computed through the
    /// durable path so the comparison stays apples-to-apples.
    pub fn durable_baseline() -> ServiceMarketOutcome {
        let durability = DurabilityConfig::new(Arc::new(SimStorage::new()));
        let svc = spawn_durable_market(SEED, 1, durability).expect("durable spawn");
        let drive = drive_market_keyed(&svc, SEED, N_SPS, W, u64::MAX).expect("fault-free drive");
        let KeyedDrive::Complete(mut outcome) = drive else {
            panic!("unlimited budget cannot pause");
        };
        outcome.undelivered_payments = svc.shutdown();
        *outcome
    }
}

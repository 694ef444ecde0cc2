//! Transport equivalence: the same market rounds must produce
//! identical ledger outcomes whether the messages travel as in-memory
//! enums ([`InProcTransport`]), as serialized wire envelopes over a
//! simulated network ([`SimNetTransport`]), or as real frames over
//! loopback TCP through the admission gate — and regardless of how
//! many shard workers the MA runs. The wire is an implementation
//! detail; the ledger is the ground truth.

use ppms_core::sim::{
    run_service_market, run_service_market_chaos, ServiceMarketOutcome, TcpEquivConfig,
    TransportKind,
};
use ppms_core::{FaultPlan, FlakyConfig, SimNetConfig};
use proptest::prelude::*;

const SEED: u64 = 0xE0;
const N_SPS: usize = 3;
const W: u64 = 3;

fn run(kind: TransportKind, shards: usize) -> ServiceMarketOutcome {
    run_service_market(SEED, shards, N_SPS, W, kind).expect("market run")
}

#[test]
fn inproc_and_simnet_produce_identical_ledgers() {
    let inproc = run(TransportKind::InProc, 1);
    let simnet = run(TransportKind::SimNet(SimNetConfig::default()), 1);
    assert_eq!(inproc, simnet);

    // Sanity on the shared expectations, not just mutual equality.
    assert_eq!(inproc.sp_credited, vec![W; N_SPS]);
    assert_eq!(inproc.sp_balances, vec![W; N_SPS]);
    assert_eq!(inproc.data_reports.len(), N_SPS);
    assert_eq!(inproc.jobs.len(), 1);
    assert_eq!(inproc.undelivered_payments, 0, "every payment delivered");
}

#[test]
fn shard_count_does_not_change_outcomes() {
    let one = run(TransportKind::InProc, 1);
    for shards in [2usize, 4] {
        let sharded = run(TransportKind::InProc, shards);
        assert_eq!(one, sharded, "{shards} shards");
    }
}

#[test]
fn simnet_with_latency_matches_inproc() {
    // Nonzero delay and jitter reorder nothing in this sequential
    // driver, so the ledger must still match exactly.
    let cfg = SimNetConfig {
        latency_micros: 50,
        jitter_micros: 100,
        drop_rate: 0.0,
        seed: 7,
    };
    let inproc = run(TransportKind::InProc, 2);
    let simnet = run(TransportKind::SimNet(cfg), 2);
    assert_eq!(inproc, simnet);
}

// Loopback TCP through the paywall is still the same market: the
// admission traffic (extra accounts, gate fees) must be invisible to
// the ledger audit, and the shard count must stay irrelevant.
#[test]
fn tcp_matches_inproc_and_simnet_across_shard_counts() {
    for shards in [1usize, 4] {
        let inproc = run(TransportKind::InProc, shards);
        let simnet = run(TransportKind::SimNet(SimNetConfig::default()), shards);
        let tcp = run(TransportKind::Tcp(TcpEquivConfig::default()), shards);
        assert_eq!(inproc, tcp, "tcp vs inproc at {shards} shards");
        assert_eq!(simnet, tcp, "tcp vs simnet at {shards} shards");
    }
}

// Seeded stream tears under the client's framing layer force redials,
// re-admissions and App retransmits; behind the aggressive retry
// layer the run must still converge to the fault-free ledger.
#[test]
fn tcp_over_flaky_loopback_behind_retry_converges() {
    let expected = run(TransportKind::InProc, 2);
    let flaky = run(
        TransportKind::Tcp(TcpEquivConfig {
            flaky: Some(FlakyConfig {
                read_fail: 0.02,
                write_fail: 0.02,
                seed: 0xF1AC,
            }),
            retry: true,
        }),
        2,
    );
    assert_eq!(expected, flaky);
}

#[test]
fn simnet_counts_real_envelope_bytes() {
    // A lossy-free SimNet run records every request and response at
    // its encoded size; spot-check the log through a tiny direct run.
    use ppms_core::service::{MaRequest, MaResponse, MaService};
    use ppms_core::{wire, Party};
    use ppms_ecash::DecParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(3);
    let svc = MaService::spawn(&mut rng, DecParams::fixture(2, 6), 512, 40);
    let client = svc.simnet_client(Party::Sp, SimNetConfig::default());
    let MaResponse::Account(account) = client.call(MaRequest::RegisterSpAccount) else {
        panic!("account");
    };

    let entries = svc.traffic.snapshot();
    assert_eq!(entries.len(), 2, "request + response");
    let expected_req = wire::framed_len(Party::Sp, &MaRequest::RegisterSpAccount);
    let expected_resp = wire::framed_len(Party::Ma, &MaResponse::Account(account));
    assert_eq!(entries[0].bytes, expected_req);
    assert_eq!(entries[0].label, "register-sp");
    assert_eq!(entries[1].bytes, expected_resp);
    assert_eq!(entries[1].label, "account");
    svc.shutdown();
}

#[test]
fn simnet_drop_surfaces_as_transport_error() {
    use ppms_core::service::{MaRequest, MaService};
    use ppms_core::{MarketError, Party};
    use ppms_ecash::DecParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(4);
    let svc = MaService::spawn(&mut rng, DecParams::fixture(2, 6), 512, 40);
    let client = svc.simnet_client(
        Party::Sp,
        SimNetConfig {
            drop_rate: 1.0,
            seed: 1,
            ..SimNetConfig::default()
        },
    );
    match client.try_call(MaRequest::RegisterSpAccount) {
        Err(MarketError::Transport(_)) => {}
        other => panic!("expected a dropped message, got {other:?}"),
    }
    svc.shutdown();
}

// ---------------------------------------------------------------------------
// Batched pipeline ≡ sequential pipeline (DESIGN.md §16)
// ---------------------------------------------------------------------------
//
// Cross-client batching is a scheduling optimisation, not a semantic
// one: for any interleaving of concurrent depositors — including a
// cheater whose tampered spend poisons the combined verification (the
// bisection fallback must isolate it) and a client that retransmits
// the same keyed request so both copies can land in one drain — the
// final ledger must equal what a strictly sequential, batching-free
// service produces for the same logical operations.

mod batching_equivalence {
    use ppms_core::service::{
        BatchConfig, MaClient, MaRequest, MaResponse, MaService, ServiceConfig,
    };
    use ppms_core::{
        next_request_id, AdmissionConfig, Party, TcpClientConfig, TcpConfig, TcpFrontDoor,
        TcpTransport,
    };
    use ppms_crypto::cl::ClKeyPair;
    use ppms_ecash::{Coin, DecParams, NodePath, Spend};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::{Arc, Barrier};
    use std::time::Duration;

    /// One depositor's pre-built workload.
    struct ClientPlan {
        account: ppms_core::AccountId,
        /// Unique valid spends, one deposit request each.
        spends: Vec<Spend>,
        /// A structurally invalid spend (tampered bank signature):
        /// `Some` only for the cheater. Fails the combined batch
        /// verification, forcing the bisection fallback.
        tampered: Option<Spend>,
        /// A fresh transcript over an already-deposited leaf: `Some`
        /// only for the cheater. Valid proof, reused serial — caught
        /// at execution, not verification.
        reused_leaf: Option<Spend>,
    }

    /// Registers accounts, withdraws one coin per client and pre-signs
    /// every spend, so the deposit phase is pure service traffic.
    fn build_plans(
        svc: &MaService,
        seed: u64,
        leaves: &[usize],
        cheater: usize,
    ) -> Vec<ClientPlan> {
        let client = svc.client();
        let mut rng = StdRng::seed_from_u64(seed);
        leaves
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let MaResponse::Account(account) = client.call(MaRequest::RegisterSpAccount) else {
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
                let spends: Vec<Spend> = (0..n)
                    .map(|l| {
                        coin.spend(
                            &mut rng,
                            &svc.params,
                            &NodePath::from_index(2, l as u64),
                            b"",
                        )
                    })
                    .collect();
                let (tampered, reused_leaf) = if i == cheater {
                    let mut bad =
                        coin.spend(&mut rng, &svc.params, &NodePath::from_index(2, 3), b"");
                    bad.bank_sig += &ppms_bigint::BigUint::from(1u32);
                    let reuse = coin.spend(&mut rng, &svc.params, &NodePath::from_index(2, 0), b"");
                    (Some(bad), Some(reuse))
                } else {
                    (None, None)
                };
                ClientPlan {
                    account,
                    spends,
                    tampered,
                    reused_leaf,
                }
            })
            .collect()
    }

    /// How the deposit phase reaches the service: in-process, or
    /// through a price-0 TCP front door (the admission handshake still
    /// runs on every connection).
    #[derive(Clone, Copy, Debug)]
    enum Door {
        InProc,
        Tcp,
    }

    /// Plays one client's deposits over clients made by `connect`.
    /// Every item is a single-spend `DepositBatch` under a fresh
    /// idempotency key, so in the concurrent run the shard's drain
    /// mixes items from different clients into one cross-client batch.
    /// The first deposit is also retransmitted under the *same* key
    /// from a second client on its own thread, so the duplicate can
    /// share a drain with the original.
    fn play(
        connect: &(dyn Fn() -> MaClient + Sync),
        plan: ClientPlan,
        stagger_micros: u64,
        start: Option<Arc<Barrier>>,
    ) {
        let client = connect();
        let mut retrans: Option<std::thread::JoinHandle<()>> = None;
        if let Some(b) = &start {
            b.wait();
        }
        for (j, spend) in plan.spends.into_iter().enumerate() {
            if stagger_micros > 0 {
                std::thread::sleep(Duration::from_micros(stagger_micros));
            }
            let id = next_request_id();
            let req = MaRequest::DepositBatch {
                account: plan.account,
                spends: vec![spend],
            };
            if j == 0 {
                // Race a same-key duplicate against the original.
                let dup_client = connect();
                let dup_req = req.clone();
                retrans = Some(std::thread::spawn(move || {
                    let resp = dup_client.try_call_keyed(id, dup_req).expect("retransmit");
                    let MaResponse::BatchDeposited {
                        accepted, rejected, ..
                    } = resp
                    else {
                        panic!("retransmit reply: {resp:?}");
                    };
                    assert_eq!((accepted, rejected), (1, 0), "replay must be verbatim");
                }));
            }
            let resp = client.try_call_keyed(id, req).expect("deposit");
            let MaResponse::BatchDeposited {
                accepted, rejected, ..
            } = resp
            else {
                panic!("deposit reply: {resp:?}");
            };
            assert_eq!((accepted, rejected), (1, 0), "valid spend {j} must credit");
        }
        if let Some(h) = retrans {
            h.join().expect("retransmit thread");
        }
        // The cheater's extras ride after its honest items, so they
        // interleave with the other clients' still-running deposits.
        for (bad, expect_note) in [
            (plan.tampered, "tampered"),
            (plan.reused_leaf, "reused-leaf"),
        ] {
            let Some(bad) = bad else { continue };
            let resp = client
                .try_call_keyed(
                    next_request_id(),
                    MaRequest::DepositBatch {
                        account: plan.account,
                        spends: vec![bad],
                    },
                )
                .expect(expect_note);
            let MaResponse::BatchDeposited {
                accepted, rejected, ..
            } = resp
            else {
                panic!("{expect_note} reply: {resp:?}");
            };
            assert_eq!(
                (accepted, rejected),
                (0, 1),
                "{expect_note} spend must be rejected without poisoning the batch"
            );
        }
    }

    /// Pulls the shard's inter-arrival gap EWMA down with a real burst:
    /// eight concurrent clients each read a balance eight times. The
    /// EWMA starts at 1 s, and the schedule's own ~20 arrivals leave
    /// it above the 1 ms a 2 ms budget needs, so without this the
    /// Nagle wait never arms and a batch forms only if thread
    /// scheduling happens to queue deposits behind a verify.
    fn warm_arrival_gap(svc: &MaService, accounts: &[ppms_core::AccountId]) {
        std::thread::scope(|scope| {
            for i in 0..8 {
                let account = accounts[i % accounts.len()];
                scope.spawn(move || {
                    let client = svc.client();
                    for _ in 0..8 {
                        let MaResponse::Balance(_) = client.call(MaRequest::Balance { account })
                        else {
                            panic!("balance");
                        };
                    }
                });
            }
        });
    }

    /// Runs the logical schedule, its deposit phase through `door`, and
    /// returns the final per-client balances plus the
    /// `(batch.items, batch.drains)` deltas of the deposit phase.
    fn run_schedule(
        seed: u64,
        leaves: &[usize],
        cheater: usize,
        batch: BatchConfig,
        concurrent: bool,
        staggers: &[u64],
        door: Door,
    ) -> (Vec<u64>, u64, u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let svc = MaService::spawn_with_config(
            &mut rng,
            DecParams::fixture(2, 6),
            512,
            40,
            ServiceConfig {
                shards: 1,
                batch,
                ..ServiceConfig::default()
            },
        );
        let front = match door {
            Door::InProc => None,
            Door::Tcp => {
                let config = TcpConfig {
                    admission: AdmissionConfig {
                        price: 0,
                        requests_per_token: u64::MAX,
                        ..AdmissionConfig::default()
                    },
                    ..TcpConfig::default()
                };
                Some(TcpFrontDoor::spawn(&svc, "127.0.0.1:0", config).expect("front door"))
            }
        };
        let addr = front.as_ref().map(TcpFrontDoor::addr);
        let connect = || match addr {
            Some(addr) => MaClient::new(
                Arc::new(TcpTransport::new(TcpClientConfig::new(addr))),
                Party::Sp,
            ),
            None => svc.client(),
        };
        let plans = build_plans(&svc, seed ^ 0x5EED, leaves, cheater);
        let accounts: Vec<_> = plans.iter().map(|p| p.account).collect();
        warm_arrival_gap(&svc, &accounts);
        // Counted after the warm-up, so the deltas speak of the
        // deposit phase alone.
        let items0 = svc.obs.counter("batch.items").get();
        let drains0 = svc.obs.counter("batch.drains").get();

        if concurrent {
            let start = Arc::new(Barrier::new(plans.len()));
            std::thread::scope(|scope| {
                for (i, plan) in plans.into_iter().enumerate() {
                    let connect = &connect;
                    let stagger = staggers[i % staggers.len()];
                    let start = start.clone();
                    scope.spawn(move || play(connect, plan, stagger, Some(start)));
                }
            });
        } else {
            for (i, plan) in plans.into_iter().enumerate() {
                play(&connect, plan, staggers[i % staggers.len()], None);
            }
        }

        let items = svc.obs.counter("batch.items").get() - items0;
        let drains = svc.obs.counter("batch.drains").get() - drains0;
        let balances: Vec<u64> = accounts
            .iter()
            .map(|&account| {
                let client = svc.client();
                let MaResponse::Balance(b) = client.call(MaRequest::Balance { account }) else {
                    panic!("balance");
                };
                b
            })
            .collect();
        drop(front);
        svc.shutdown();
        (balances, items, drains)
    }

    /// Deterministic anchor: a concurrent run against the batching
    /// service must form at least one genuine cross-client batch
    /// (items > drains) and still land on the sequential ledger, both
    /// in-process and through the TCP front door.
    #[test]
    fn concurrent_batched_run_matches_sequential_and_actually_batches() {
        let leaves = [2usize, 2, 2];
        let cheater = 1;
        let staggers = [0u64, 40, 80];
        for door in [Door::InProc, Door::Tcp] {
            let (seq, _, _) = run_schedule(
                0xBA7C,
                &leaves,
                cheater,
                BatchConfig {
                    max_batch: 1,
                    max_delay_micros: 0,
                },
                false,
                &staggers,
                door,
            );
            let (bat, items, drains) = run_schedule(
                0xBA7C,
                &leaves,
                cheater,
                BatchConfig {
                    max_batch: 8,
                    max_delay_micros: 2000,
                },
                true,
                &staggers,
                door,
            );
            assert_eq!(
                seq, bat,
                "{door:?}: batched ledger diverged from sequential"
            );
            assert_eq!(
                bat,
                vec![2, 2, 2],
                "{door:?}: each unique valid leaf credits once"
            );
            assert!(
                drains < items,
                "{door:?}: no cross-client batch ever formed ({items} items in {drains} drains)"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        // For arbitrary client counts, per-client workloads, cheater
        // position and thread staggering, the batched concurrent run
        // and the batching-free sequential run agree with each other
        // and with the closed-form expectation.
        #[test]
        fn batched_pipeline_is_ledger_equivalent_to_sequential(
            seed in 0u64..(1 << 48),
            leaves in proptest::collection::vec(1usize..=3, 2..=4),
            cheater_pick in 0usize..4,
            staggers in proptest::collection::vec(0u64..200, 4),
        ) {
            let cheater = cheater_pick % leaves.len();
            let seq = run_schedule(
                seed,
                &leaves,
                cheater,
                BatchConfig { max_batch: 1, max_delay_micros: 0 },
                false,
                &staggers,
                Door::InProc,
            );
            let bat = run_schedule(
                seed,
                &leaves,
                cheater,
                BatchConfig { max_batch: 8, max_delay_micros: 2000 },
                true,
                &staggers,
                Door::InProc,
            );
            prop_assert_eq!(&seq.0, &bat.0, "batched vs sequential ledgers");
            let expected: Vec<u64> = leaves.iter().map(|&l| l as u64).collect();
            prop_assert_eq!(bat.0, expected, "each unique valid leaf credits exactly once");
        }
    }
}

// For *any* fault seed, as long as loss stays below the retry budget's
// reach (≤ 30% drop) the retrying fleet converges to the exact ledger a
// fault-free in-process run produces — loss and duplication are
// invisible at the ledger layer.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn lossy_retrying_market_converges(
        seed in 0u64..u64::MAX,
        drop_milli in 0u64..=300,
        dup_milli in 0u64..=250,
    ) {
        let plan = FaultPlan {
            net: SimNetConfig {
                latency_micros: 0,
                jitter_micros: 0,
                drop_rate: drop_milli as f64 / 1000.0,
                seed,
            },
            duplicate_rate: dup_milli as f64 / 1000.0,
            reorder_rate: 0.0,
            corrupt_rate: 0.0,
        };
        let expected = run(TransportKind::InProc, 1);
        let (outcome, _faults) =
            run_service_market_chaos(SEED, 2, N_SPS, W, plan, None)
                .expect("lossy market must converge, not fail");
        prop_assert_eq!(outcome, expected);
    }
}

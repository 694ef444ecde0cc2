//! Market simulation: the multi-round timing runs behind the paper's
//! **Fig. 5**, a threaded many-party market exercising the mechanisms
//! under concurrency, and a deterministic service-market driver that
//! runs the same rounds over either [`crate::transport::Transport`]
//! backend (the transport-equivalence harness).

use crate::bank::AccountId;
use crate::gate::spends_for_price;
use crate::metrics::{FaultSnapshot, Party};
use crate::ppmsdec::{DecMarket, DecRoundOutcome};
use crate::ppmspbs::PbsMarket;
use crate::retry::{RetryPolicy, RetryingTransport};
use crate::service::{
    CrashPoint, MaClient, MaRequest, MaResponse, MaService, RecoveryReport, ServiceConfig,
};
use crate::storage::{DurabilityConfig, StorageError};
use crate::stream::FlakyConfig;
use crate::tcp::{TcpClientConfig, TcpConfig, TcpFrontDoor, TcpTransport};
use crate::transport::{FaultPlan, SimNetConfig, TrafficLog, Transport};
use crate::MarketError;
use crossbeam::channel;
use ppms_crypto::cl::ClKeyPair;
use ppms_crypto::rsa;
use ppms_ecash::brk::{build_payment_with, NodeAllocator};
use ppms_ecash::{
    decode_payment, encode_payment, plan_break, CashBreak, Coin, DecParams, NodePath, PaymentItem,
    Spend,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timing of a multi-round run (setup included, as in Fig. 5).
#[derive(Debug, Clone)]
pub struct RoundTiming {
    /// Rounds executed.
    pub rounds: usize,
    /// Wall-clock time for setup.
    pub setup: Duration,
    /// Wall-clock time for the rounds themselves.
    pub execution: Duration,
}

impl RoundTiming {
    /// Total time (what Fig. 5 plots: "both including a setup stage").
    pub fn total(&self) -> Duration {
        self.setup + self.execution
    }
}

/// Runs `rounds` PPMSdec rounds (fresh SP per round, as in a market
/// where each deal hires a new participant) and times them.
#[allow(clippy::too_many_arguments)]
pub fn run_dec_rounds(
    seed: u64,
    rounds: usize,
    levels: usize,
    zkp_rounds: usize,
    rsa_bits: usize,
    pairing_bits: usize,
    w: u64,
    strategy: CashBreak,
) -> Result<(RoundTiming, Vec<DecRoundOutcome>), MarketError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let t0 = Instant::now();
    let params = DecParams::fixture(levels, zkp_rounds);
    // Fixed-base tables are built once here, inside the timed setup
    // stage (Fig. 5 includes setup), so the rounds run on warm rings.
    params.precompute();
    let mut market = DecMarket::new(&mut rng, params, rsa_bits, pairing_bits);
    let mut jo = market.register_jo(
        &mut rng,
        (rounds as u64 + 1) * market.params().face_value(),
        rsa_bits,
    );
    let setup = t0.elapsed();

    let t1 = Instant::now();
    let mut outcomes = Vec::with_capacity(rounds);
    for i in 0..rounds {
        let sp = market.register_sp(&mut rng, rsa_bits);
        let outcome = market.run_round(
            &mut rng,
            &mut jo,
            &sp,
            &format!("sensing job {i}"),
            w,
            strategy,
            b"sensor readings",
        )?;
        outcomes.push(outcome);
    }
    Ok((
        RoundTiming {
            rounds,
            setup,
            execution: t1.elapsed(),
        },
        outcomes,
    ))
}

/// Runs `rounds` PPMSpbs rounds and times them.
pub fn run_pbs_rounds(
    seed: u64,
    rounds: usize,
    rsa_bits: usize,
) -> Result<RoundTiming, MarketError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let t0 = Instant::now();
    let mut market = PbsMarket::new();
    let jo = market.register_jo(&mut rng, rounds as u64 + 1, rsa_bits);
    let setup = t0.elapsed();

    let t1 = Instant::now();
    for i in 0..rounds {
        let sp = market.register_sp(&mut rng, rsa_bits);
        market.run_round(
            &mut rng,
            &jo,
            &sp,
            &format!("sensing job {i}"),
            b"sensor readings",
        )?;
    }
    Ok(RoundTiming {
        rounds,
        setup,
        execution: t1.elapsed(),
    })
}

/// Report of a threaded many-party PPMSpbs market.
#[derive(Debug, Clone)]
pub struct ParallelSimReport {
    /// Rounds that completed successfully.
    pub completed: usize,
    /// Rounds that failed.
    pub failed: usize,
    /// Wall-clock time for the concurrent phase.
    pub elapsed: Duration,
    /// Ledger total before the run.
    pub supply_before: u64,
    /// Ledger total after the run (must equal `supply_before`).
    pub supply_after: u64,
}

/// Runs a threaded PPMSpbs market: `n_pairs` independent (JO, SP)
/// pairs each complete `rounds_per_pair` rounds concurrently against
/// one shared market. Exercises the ledger, serial table and metrics
/// under contention.
pub fn run_parallel_pbs_market(
    seed: u64,
    n_pairs: usize,
    rounds_per_pair: usize,
    rsa_bits: usize,
    workers: usize,
) -> Result<ParallelSimReport, MarketError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut market = PbsMarket::new();

    // Registration happens up front (the only &mut phase).
    let mut pairs = Vec::with_capacity(n_pairs);
    for _ in 0..n_pairs {
        let jo = market.register_jo(&mut rng, rounds_per_pair as u64, rsa_bits);
        let sp = market.register_sp(&mut rng, rsa_bits);
        pairs.push((jo, sp));
    }
    let supply_before = market.bank.total_supply();

    let (tx, rx) = channel::unbounded::<usize>();
    for idx in 0..n_pairs {
        for _ in 0..rounds_per_pair {
            tx.send(idx)
                .map_err(|_| MarketError::Transport("work queue closed".into()))?;
        }
    }
    drop(tx);

    let market_ref = &market;
    let pairs_ref = &pairs;
    let t0 = Instant::now();
    let (completed, failed) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers.max(1))
            .map(|widx| {
                let rx = rx.clone();
                s.spawn(move || {
                    let mut ok = 0usize;
                    let mut bad = 0usize;
                    let mut wrng = StdRng::seed_from_u64(seed ^ (widx as u64) << 32);
                    while let Ok(idx) = rx.recv() {
                        let (jo, sp) = &pairs_ref[idx];
                        // Fresh per-round SP state: one-time key + serial.
                        let mut round_sp = crate::ppmspbs::PbsParticipant {
                            account: sp.account,
                            account_key: sp.account_key.clone(),
                            one_time: ppms_crypto::rsa::keygen(&mut wrng, 512),
                            serial: {
                                let mut sbytes = vec![0u8; 16];
                                wrng.fill_bytes(&mut sbytes);
                                sbytes
                            },
                        };
                        let _ = &mut round_sp;
                        match market_ref.run_round(
                            &mut wrng,
                            jo,
                            &round_sp,
                            "parallel job",
                            b"data",
                        ) {
                            Ok(_) => ok += 1,
                            Err(_) => bad += 1,
                        }
                    }
                    (ok, bad)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| MarketError::Transport("simulation worker panicked".into()))
            })
            .try_fold((0, 0), |(a, b), r| r.map(|(c, d)| (a + c, b + d)))
    })?;
    let elapsed = t0.elapsed();

    Ok(ParallelSimReport {
        completed,
        failed,
        elapsed,
        supply_before,
        supply_after: market.bank.total_supply(),
    })
}

/// Rayon-parallel verification of a payment bundle — the SP-side
/// speedup for the unitary scheme where `2^L` items arrive at once
/// (ablation A3). Returns the valid spends and their total value.
pub fn verify_bundle_parallel(
    params: &DecParams,
    bank_pk: &ppms_crypto::rsa::RsaPublicKey,
    items: &[PaymentItem],
    binding: &[u8],
) -> (Vec<ppms_ecash::Spend>, u64) {
    // Warm the shared window tables before fanning out: rayon workers
    // verify against clones of `params`, and the clones share the
    // per-ring caches, so this one call serves every worker.
    params.precompute();
    let verified: Vec<_> = items
        .par_iter()
        .filter_map(|item| match item {
            PaymentItem::Real(spend) => spend
                .verify(params, bank_pk, binding)
                .ok()
                .map(|v| (spend.clone(), v)),
            PaymentItem::Fake(_) => None,
        })
        .collect();
    let total = verified.iter().map(|(_, v)| v).sum();
    (verified.into_iter().map(|(s, _)| s).collect(), total)
}

/// Sequential twin of [`verify_bundle_parallel`] for the ablation.
pub fn verify_bundle_sequential(
    params: &DecParams,
    bank_pk: &ppms_crypto::rsa::RsaPublicKey,
    items: &[PaymentItem],
    binding: &[u8],
) -> (Vec<ppms_ecash::Spend>, u64) {
    ppms_ecash::receive_payment(params, bank_pk, items, binding)
}

// ---------------------------------------------------------------------------
// Deterministic service market over a pluggable transport
// ---------------------------------------------------------------------------

/// Which transport a service market run speaks.
#[derive(Debug, Clone, Copy)]
pub enum TransportKind {
    /// Enums over channels (no serialization).
    InProc,
    /// Serialized wire envelopes with the given network behavior.
    SimNet(SimNetConfig),
    /// Serialized wire envelopes under a full chaos schedule, behind
    /// the aggressive retry layer (see [`RetryPolicy::aggressive`]):
    /// faults are absorbed by idempotent retransmission, so the run
    /// is expected to *converge* to the fault-free outcome.
    Faulty(FaultPlan),
    /// Real loopback sockets through the [`TcpFrontDoor`] and its
    /// admission gate: the market pays its own way in with e-cash
    /// before any request reaches a shard.
    Tcp(TcpEquivConfig),
}

/// Knobs for the real-socket arm of the equivalence harness.
#[derive(Debug, Clone, Copy, Default)]
pub struct TcpEquivConfig {
    /// Inject seeded stream tears under the clients' framing layer
    /// (exercises redial + re-admission; the seed is varied per party
    /// and per dial).
    pub flaky: Option<FlakyConfig>,
    /// Wrap the clients in the aggressive retry layer, as the chaos
    /// arm does for simnet.
    pub retry: bool,
}

/// The observable end state of a service market run — everything a
/// ledger audit would compare. Two runs with the same seed must
/// produce *equal* outcomes regardless of the transport or shard
/// count that carried them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceMarketOutcome {
    /// JO's final balance.
    pub jo_balance: u64,
    /// Each SP's final balance, in registration order.
    pub sp_balances: Vec<u64>,
    /// Value credited to each SP's deposit batch, in order.
    pub sp_credited: Vec<u64>,
    /// Data reports the JO collected, in order.
    pub data_reports: Vec<Vec<u8>>,
    /// Published jobs: `(job_id, description, payment)`.
    pub jobs: Vec<(u64, String, u64)>,
    /// Held payments never picked up (reported by shutdown drain).
    pub undelivered_payments: usize,
}

fn unexpected(what: &str, resp: &MaResponse) -> MarketError {
    MarketError::Transport(format!("unexpected {what} response: {resp:?}"))
}

/// Runs a complete deterministic PPMSdec market against a freshly
/// spawned [`MaService`] with `shards` shard workers, speaking `kind`
/// over the wire: one JO publishes a job, `n_sps` SPs register labor,
/// the JO withdraws a coin per SP and pays `w` via PCBA cash
/// breaking, each SP submits data, fetches and verifies its payment,
/// and deposits the spends as one batch. Returns the ledger outcome
/// (see [`ServiceMarketOutcome`]) — the transport-equivalence tests
/// run this once per transport and assert equality.
pub fn run_service_market(
    seed: u64,
    shards: usize,
    n_sps: usize,
    w: u64,
    kind: TransportKind,
) -> Result<ServiceMarketOutcome, MarketError> {
    run_market(seed, shards, n_sps, w, kind, None).map(|(outcome, _, _)| outcome)
}

/// Like [`run_service_market`], but also returns the run's
/// [`TrafficLog`] — per-message labels and per-party byte totals (the
/// paper's Table II instrument). Under [`TransportKind::Tcp`] the log
/// carries the gate frames too, so the socket path's framing and
/// admission overhead is measured by the same instrument as the
/// simnet numbers.
pub fn run_service_market_traffic(
    seed: u64,
    shards: usize,
    n_sps: usize,
    w: u64,
    kind: TransportKind,
) -> Result<(ServiceMarketOutcome, TrafficLog), MarketError> {
    run_market(seed, shards, n_sps, w, kind, None).map(|(outcome, _, traffic)| (outcome, traffic))
}

/// The chaos harness: the same deterministic market, but over a lossy
/// network running `plan` (drops, duplicates, stale replays,
/// corruption) behind the aggressive retry layer, optionally with a
/// crash-injected shard. Returns the ledger outcome plus the
/// fault-tolerance counters — the chaos tests assert the outcome
/// equals the fault-free one and the counters prove faults actually
/// fired.
pub fn run_service_market_chaos(
    seed: u64,
    shards: usize,
    n_sps: usize,
    w: u64,
    plan: FaultPlan,
    crash: Option<CrashPoint>,
) -> Result<(ServiceMarketOutcome, FaultSnapshot), MarketError> {
    run_market(seed, shards, n_sps, w, TransportKind::Faulty(plan), crash)
        .map(|(outcome, faults, _)| (outcome, faults))
}

fn run_market(
    seed: u64,
    shards: usize,
    n_sps: usize,
    w: u64,
    kind: TransportKind,
    crash: Option<CrashPoint>,
) -> Result<(ServiceMarketOutcome, FaultSnapshot, TrafficLog), MarketError> {
    const RSA_BITS: usize = 512;
    let mut rng = StdRng::seed_from_u64(seed);
    let svc = MaService::spawn_with_config(
        &mut rng,
        DecParams::fixture(3, 8),
        RSA_BITS,
        40,
        ServiceConfig {
            shards,
            queue_depth: 64,
            crash,
            ..ServiceConfig::default()
        },
    );
    // Keeps the socket front door (if any) alive for the whole drive;
    // dropping it stops the reactor.
    let mut _front_door: Option<TcpFrontDoor> = None;
    let (jo_client, sp_client) = match kind {
        TransportKind::InProc => (svc.client(), svc.client()),
        TransportKind::Tcp(tcfg) => {
            let door = TcpFrontDoor::spawn(&svc, "127.0.0.1:0", TcpConfig::default())
                .map_err(|e| MarketError::Transport(format!("front door spawn failed: {e}")))?;
            let addr = door.addr();
            let admission = TcpConfig::default().admission;
            // Wallet sizing: the drive makes a few dozen calls per
            // party, one admission covers `requests_per_token` of
            // them, and flaky redials can burn extra admissions —
            // eight admissions each is comfortably generous. Minting
            // uses its own rng stream and funder account, so the
            // drive below is bit-identical to the other arms.
            let per_party = 8 * spends_for_price(admission.price).max(1);
            let mut jo_wallet = mint_admission_spends(&svc, seed, 2 * per_party)?;
            let sp_wallet = jo_wallet.split_off(per_party);
            let client = |party: Party, mix: u64, wallet: Vec<Spend>| -> MaClient {
                let mut cc = TcpClientConfig::new(addr);
                cc.flaky = tcfg.flaky.map(|f| FlakyConfig {
                    seed: f.seed ^ mix,
                    ..f
                });
                let transport = TcpTransport::new(cc);
                transport.load_wallet(wallet);
                let transport: Arc<dyn Transport> = Arc::new(transport);
                let transport: Arc<dyn Transport> = if tcfg.retry {
                    Arc::new(RetryingTransport::new(
                        transport,
                        RetryPolicy::aggressive(seed ^ mix),
                        svc.faults.clone(),
                    ))
                } else {
                    transport
                };
                MaClient::new(transport, party)
            };
            let pair = (
                client(Party::Jo, 0x4A4F, jo_wallet),
                client(Party::Sp, 0x5350, sp_wallet),
            );
            _front_door = Some(door);
            pair
        }
        TransportKind::SimNet(cfg) => (
            svc.simnet_client(Party::Jo, cfg),
            svc.simnet_client(
                Party::Sp,
                SimNetConfig {
                    seed: cfg.seed ^ 0x5350,
                    ..cfg
                },
            ),
        ),
        TransportKind::Faulty(plan) => (
            svc.retrying_client(
                Party::Jo,
                plan,
                RetryPolicy::aggressive(plan.net.seed ^ 0x4A4F),
            ),
            svc.retrying_client(
                Party::Sp,
                FaultPlan {
                    net: SimNetConfig {
                        seed: plan.net.seed ^ 0x5350,
                        ..plan.net
                    },
                    ..plan
                },
                RetryPolicy::aggressive(plan.net.seed ^ 0x5350),
            ),
        ),
    };

    // If the market diverges or errors (which under chaos means the
    // fault-tolerance machinery failed to converge), one crash dump —
    // the span ring plus the service's metrics — is written before
    // the error surfaces.
    let drove = drive_schedule(
        &svc,
        &jo_client,
        &sp_client,
        &mut rng,
        n_sps,
        w,
        |c, req| c.try_call(req),
    );
    let mut outcome = match drove {
        Ok(outcome) => outcome,
        Err(e) => {
            let snap = svc.obs_snapshot();
            let _ = ppms_obs::write_dump(
                &ppms_obs::dump_dir(),
                "ma-service",
                "market-divergence",
                &snap,
            );
            return Err(e);
        }
    };
    let faults = svc.faults.clone();
    let traffic = svc.traffic.clone();
    // Stop the front door before the service: the reactor must not
    // observe the shard queues closing as client-visible errors
    // mid-drain.
    if let Some(mut door) = _front_door.take() {
        door.shutdown();
    }
    outcome.undelivered_payments = svc.shutdown();
    Ok((outcome, faults.snapshot(), traffic))
}

/// The deterministic PPMSdec schedule behind [`run_service_market`]
/// and [`drive_market_keyed`]: the JO publishes a job, `n_sps` SPs
/// register labor, the JO withdraws a coin per SP and pays `w` via
/// PCBA cash breaking, each SP submits data, fetches and verifies its
/// payment and deposits the spends as one batch, and a ledger audit
/// closes the run. Every request goes out through `call` on the JO's
/// or the SP's client and every draw comes from `rng`, so the same
/// stream replays the same bytes. The outcome's
/// `undelivered_payments` is `0`: only the shutdown drain counts it.
fn drive_schedule(
    svc: &MaService,
    jo: &MaClient,
    sp: &MaClient,
    rng: &mut StdRng,
    n_sps: usize,
    w: u64,
    mut call: impl FnMut(&MaClient, MaRequest) -> Result<MaResponse, MarketError>,
) -> Result<ServiceMarketOutcome, MarketError> {
    const RSA_BITS: usize = 512;
    // One schedule step on the JO's or the SP's client.
    macro_rules! jo {
        ($req:expr) => {
            call(jo, $req)?
        };
    }
    macro_rules! sp {
        ($req:expr) => {
            call(sp, $req)?
        };
    }
    let params = &svc.params;
    // JO setup: account, CL key, job pseudonym, published job.
    let cl = ClKeyPair::generate(rng, &svc.pairing);
    let funds = (n_sps as u64 + 1) * params.face_value();
    let jo_account = match jo!(MaRequest::RegisterJoAccount {
        funds,
        clpk: cl.public.clone(),
    }) {
        MaResponse::Account(a) => a,
        other => return Err(unexpected("jo-account", &other)),
    };
    let job_key = rsa::keygen(rng, RSA_BITS);
    let job_id = match jo!(MaRequest::PublishJob {
        description: "simulated sensing job".into(),
        payment: w,
        pseudonym: job_key.public.to_bytes(),
    }) {
        MaResponse::JobId(id) => id,
        other => return Err(unexpected("publish", &other)),
    };

    let mut sp_accounts = Vec::with_capacity(n_sps);
    let mut sp_credited = Vec::with_capacity(n_sps);
    for i in 0..n_sps {
        // SP: account, one-time key, labor registration.
        let sp_account = match sp!(MaRequest::RegisterSpAccount) {
            MaResponse::Account(a) => a,
            other => return Err(unexpected("sp-account", &other)),
        };
        let one_time = rsa::keygen(rng, RSA_BITS);
        let sp_pubkey = one_time.public.to_bytes();
        match sp!(MaRequest::LaborRegister {
            job_id,
            sp_pubkey: sp_pubkey.clone(),
        }) {
            MaResponse::Ok => {}
            other => return Err(unexpected("labor-register", &other)),
        }

        // JO: poll labor, withdraw a fresh coin, pay this SP.
        let keys = match jo!(MaRequest::FetchLabor { job_id }) {
            MaResponse::Labor(keys) => keys,
            other => return Err(unexpected("labor-fetch", &other)),
        };
        let receiver = keys
            .last()
            .cloned()
            .ok_or_else(|| MarketError::Transport("labor registration not visible".into()))?;
        let mut coin = Coin::mint(rng, params);
        let (blinded, factor) = coin.blind_token(rng, &svc.bank_pk);
        let nonce = i as u64 + 1;
        let auth = cl.sign_bytes(rng, &svc.pairing, &nonce.to_be_bytes());
        let sig = match jo!(MaRequest::Withdraw {
            account: jo_account,
            nonce,
            auth,
            blinded,
        }) {
            MaResponse::BlindSignature(sig) => sig,
            other => return Err(unexpected("withdraw", &other)),
        };
        if !coin.attach_signature(&svc.bank_pk, &sig, &factor) {
            return Err(MarketError::BadCoin("bank signature did not verify".into()));
        }
        let plan = plan_break(CashBreak::Pcba, w, params.levels)?;
        let mut allocator = NodeAllocator::new(params.levels);
        let items = build_payment_with(
            rng,
            params,
            &coin,
            &plan,
            b"",
            svc.bank_pk.size_bytes(),
            &mut allocator,
        )?;
        let payload = encode_payment(&items);
        let sp_pk = rsa::RsaPublicKey::from_bytes(&receiver)
            .ok_or_else(|| MarketError::BadPayload("labor key does not parse".into()))?;
        let ciphertext = rsa::encrypt(rng, &sp_pk, &payload);
        match jo!(MaRequest::SubmitPayment {
            sp_pubkey: sp_pubkey.clone(),
            ciphertext,
        }) {
            MaResponse::Ok => {}
            other => return Err(unexpected("payment-submission", &other)),
        }

        // SP: submit data (releasing the hold), fetch, verify, deposit.
        match sp!(MaRequest::SubmitData {
            job_id,
            sp_pubkey: sp_pubkey.clone(),
            data: format!("reading from sp {i}").into_bytes(),
        }) {
            MaResponse::Ok => {}
            other => return Err(unexpected("data-report", &other)),
        }
        let ciphertext = match sp!(MaRequest::FetchPayment { sp_pubkey }) {
            MaResponse::Payment(Some(ct)) => ct,
            MaResponse::Payment(None) => {
                return Err(MarketError::Transport(
                    "payment still held after data".into(),
                ))
            }
            other => return Err(unexpected("payment-fetch", &other)),
        };
        let payload = rsa::decrypt(&one_time, &ciphertext)
            .map_err(|_| MarketError::BadPayload("payment does not decrypt".into()))?;
        let items = decode_payment(&payload)
            .map_err(|_| MarketError::BadPayload("payment bundle does not parse".into()))?;
        let (spends, _) = verify_bundle_sequential(params, &svc.bank_pk, &items, b"");
        match sp!(MaRequest::DepositBatch {
            account: sp_account,
            spends,
        }) {
            MaResponse::BatchDeposited { total, .. } => sp_credited.push(total),
            other => return Err(unexpected("deposit", &other)),
        }
        sp_accounts.push(sp_account);
    }

    // JO: collect the data reports.
    let data_reports = match jo!(MaRequest::FetchData { job_id }) {
        MaResponse::Data(reports) => reports,
        other => return Err(unexpected("data-fetch", &other)),
    };

    // Audit the ledger.
    let jo_balance = match jo!(MaRequest::Balance {
        account: jo_account,
    }) {
        MaResponse::Balance(b) => b,
        other => return Err(unexpected("balance", &other)),
    };
    let mut sp_balances = Vec::with_capacity(n_sps);
    for &account in &sp_accounts {
        match sp!(MaRequest::Balance { account }) {
            MaResponse::Balance(b) => sp_balances.push(b),
            other => return Err(unexpected("balance", &other)),
        }
    }
    let jobs = svc
        .bulletin
        .list()
        .into_iter()
        .map(|j| (j.job_id, j.description, j.payment))
        .collect();
    Ok(ServiceMarketOutcome {
        jo_balance,
        sp_balances,
        sp_credited,
        data_reports,
        jobs,
        undelivered_payments: 0,
    })
}

// ---------------------------------------------------------------------------
// Durable market drive (crash-matrix harness support)
// ---------------------------------------------------------------------------

/// Idempotency-key base of the keyed durable drive. Far above the
/// range `next_request_id` allocates from, so the drive's explicit
/// keys never collide with ids minted elsewhere in the same process
/// (wallet minting, concurrent tests).
const DURABLE_KEY_BASE: u64 = 0x5EED_0000_0000_0000;

/// Spawn/recover sizing shared by the durable-market helpers. The two
/// sides must agree exactly: recovery regenerates the bank and
/// pairing keys from the same-seeded rng (the reproduction's stand-in
/// for a sealed key file), so any divergence in parameters would
/// produce keys the logged history does not verify under.
fn durable_fixture(seed: u64, shards: usize) -> (StdRng, DecParams, ServiceConfig) {
    (
        StdRng::seed_from_u64(seed),
        DecParams::fixture(3, 8),
        ServiceConfig {
            shards,
            queue_depth: 64,
            ..ServiceConfig::default()
        },
    )
}

/// Spawns a fresh durable [`MaService`] with the deterministic market
/// fixture sizes, journaling into `durability`.
pub fn spawn_durable_market(
    seed: u64,
    shards: usize,
    durability: DurabilityConfig,
) -> Result<MaService, StorageError> {
    let (mut rng, params, config) = durable_fixture(seed, shards);
    MaService::spawn_durable(&mut rng, params, 512, 40, config, durability)
}

/// Cold-starts a durable [`MaService`] from whatever `durability`'s
/// storage holds — the post-crash half of the crash-matrix harness.
/// `seed` and `shards` must match the instance that wrote the
/// storage.
pub fn recover_durable_market(
    seed: u64,
    shards: usize,
    durability: DurabilityConfig,
) -> Result<(MaService, RecoveryReport), StorageError> {
    let (mut rng, params, config) = durable_fixture(seed, shards);
    MaService::recover(&mut rng, params, 512, 40, config, durability)
}

/// Where a budgeted keyed drive stopped.
#[derive(Debug)]
pub enum KeyedDrive {
    /// The call budget ran out mid-schedule — the harness's kill
    /// point. `calls` requests were issued and answered first.
    Paused {
        /// Requests issued before the pause.
        calls: u64,
    },
    /// The whole schedule ran. `undelivered_payments` is `0` in the
    /// returned outcome — only the shutdown drain can count it, so
    /// the caller fills it in from [`MaService::shutdown`].
    Complete(Box<ServiceMarketOutcome>),
}

/// The deterministic service market of [`run_service_market`], driven
/// as a *resumable keyed schedule*: every request carries the
/// explicit idempotency key `DURABLE_KEY_BASE + step`, and at most
/// `max_calls` requests are issued before the drive pauses.
///
/// Because the keys and every rng draw are functions of `(seed,
/// n_sps, w)` alone, re-invoking the drive replays the schedule
/// byte-identically from step 0: writes whose record survived (in
/// memory, or on the durable log across a crash) answer from the
/// dedup cache without re-executing, while lost writes and every
/// read re-execute against the recovered state. Killing a durable
/// service after `k` calls and re-driving with an infinite budget
/// must therefore converge on the fault-free outcome — the
/// crash-matrix invariant.
pub fn drive_market_keyed(
    svc: &MaService,
    seed: u64,
    n_sps: usize,
    w: u64,
    max_calls: u64,
) -> Result<KeyedDrive, MarketError> {
    // The drive's rng stream is disjoint from the spawn's: re-driving
    // after a recovery regenerates the same coins and keys no matter
    // how many draws service spawn consumed.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x64_72_69_76_65); // "drive"
    let client = svc.client();
    let mut calls = 0u64;
    let mut paused = false;
    let drove = drive_schedule(svc, &client, &client, &mut rng, n_sps, w, |c, req| {
        if calls == max_calls {
            paused = true;
            return Err(MarketError::Transport("call budget spent".into()));
        }
        let id = DURABLE_KEY_BASE + calls;
        calls += 1;
        c.try_call_keyed(id, req)
    });
    match drove {
        Ok(outcome) => Ok(KeyedDrive::Complete(Box::new(outcome))),
        Err(_) if paused => Ok(KeyedDrive::Paused { calls }),
        Err(e) => Err(e),
    }
}

/// How many of the first `calls` requests of [`drive_market_keyed`]'s
/// schedule are writes, i.e. journal one record each. The reads are
/// each SP's `FetchLabor` (the third of its eight steps) and the
/// `Balance` audits that follow the closing `FetchData`.
pub const fn keyed_journaled_calls(n_sps: usize, calls: u64) -> u64 {
    let data_fetch = 2 + 8 * n_sps as u64;
    let mut reads = 0;
    let mut step = 2;
    while step < calls {
        if (step < data_fetch && (step - 2) % 8 == 2) || step > data_fetch {
            reads += 1;
        }
        step += 1;
    }
    calls - reads
}

// ---------------------------------------------------------------------------
// Deposit workload (deposit benchmark support)
// ---------------------------------------------------------------------------

/// Mints `n_batches` deposit batches against a running service: each
/// batch is a fresh SP account plus every unit leaf of one
/// service-withdrawn coin. The expensive part of depositing these —
/// per-spend ZK verification — is exactly what the shard workers
/// parallelize, so these batches are the deposit benchmarks'
/// workload.
pub fn mint_deposit_batches(
    svc: &MaService,
    seed: u64,
    n_batches: usize,
) -> Result<Vec<(AccountId, Vec<Spend>)>, MarketError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let client = svc.client();
    let cl = ClKeyPair::generate(&mut rng, &svc.pairing);
    let face = svc.params.face_value();
    let jo = match client.try_call(MaRequest::RegisterJoAccount {
        funds: n_batches as u64 * face,
        clpk: cl.public.clone(),
    })? {
        MaResponse::Account(a) => a,
        other => return Err(unexpected("jo-account", &other)),
    };
    let levels = svc.params.levels;
    let mut out = Vec::with_capacity(n_batches);
    for i in 0..n_batches {
        let account = match client.try_call(MaRequest::RegisterSpAccount)? {
            MaResponse::Account(a) => a,
            other => return Err(unexpected("sp-account", &other)),
        };
        let mut coin = Coin::mint(&mut rng, &svc.params);
        let (blinded, factor) = coin.blind_token(&mut rng, &svc.bank_pk);
        let nonce = i as u64 + 1;
        let auth = cl.sign_bytes(&mut rng, &svc.pairing, &nonce.to_be_bytes());
        let sig = match client.try_call(MaRequest::Withdraw {
            account: jo,
            nonce,
            auth,
            blinded,
        })? {
            MaResponse::BlindSignature(sig) => sig,
            other => return Err(unexpected("withdraw", &other)),
        };
        if !coin.attach_signature(&svc.bank_pk, &sig, &factor) {
            return Err(MarketError::BadCoin("bank signature did not verify".into()));
        }
        let spends = (0..(1u64 << levels))
            .map(|leaf| {
                coin.spend(
                    &mut rng,
                    &svc.params,
                    &NodePath::from_index(levels, leaf),
                    b"",
                )
            })
            .collect();
        out.push((account, spends));
    }
    Ok(out)
}

/// Mints `n_spends` unit-value leaf spends for paying TCP admission
/// fees — the client-side half of the gate's economy. Registers its
/// own funder account and draws from its own rng stream (derived from
/// `seed` but disjoint from the market drives' streams), so minting a
/// wallet perturbs neither a concurrent drive's randomness nor its
/// ledger audit.
pub fn mint_admission_spends(
    svc: &MaService,
    seed: u64,
    n_spends: usize,
) -> Result<Vec<Spend>, MarketError> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6761_7465_6665_6573); // "gatefees"
    let client = svc.client();
    let cl = ClKeyPair::generate(&mut rng, &svc.pairing);
    let levels = svc.params.levels;
    let face = svc.params.face_value();
    let coins = n_spends.div_ceil(face as usize).max(1);
    let funder = match client.try_call(MaRequest::RegisterJoAccount {
        funds: coins as u64 * face,
        clpk: cl.public.clone(),
    })? {
        MaResponse::Account(a) => a,
        other => return Err(unexpected("gate-funder", &other)),
    };
    let mut out = Vec::with_capacity(n_spends);
    for c in 0..coins {
        let mut coin = Coin::mint(&mut rng, &svc.params);
        let (blinded, factor) = coin.blind_token(&mut rng, &svc.bank_pk);
        let nonce = c as u64 + 1;
        let auth = cl.sign_bytes(&mut rng, &svc.pairing, &nonce.to_be_bytes());
        let sig = match client.try_call(MaRequest::Withdraw {
            account: funder,
            nonce,
            auth,
            blinded,
        })? {
            MaResponse::BlindSignature(sig) => sig,
            other => return Err(unexpected("withdraw", &other)),
        };
        if !coin.attach_signature(&svc.bank_pk, &sig, &factor) {
            return Err(MarketError::BadCoin("bank signature did not verify".into()));
        }
        for leaf in 0..(1u64 << levels) {
            if out.len() == n_spends {
                break;
            }
            out.push(coin.spend(
                &mut rng,
                &svc.params,
                &NodePath::from_index(levels, leaf),
                b"",
            ));
        }
    }
    Ok(out)
}

/// Drives `batches` through the service from `clients` concurrent
/// client threads (batch `k` goes to client `k % clients`) and
/// returns the total value credited. Throughput here scales with the
/// service's shard count: each batch's verification runs on the shard
/// owning its account.
pub fn run_deposit_workload(
    svc: &MaService,
    batches: &[(AccountId, Vec<Spend>)],
    clients: usize,
) -> Result<u64, MarketError> {
    let clients = clients.max(1);
    let totals = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let client = svc.client();
                s.spawn(move || -> Result<u64, MarketError> {
                    let mut total = 0u64;
                    for (account, spends) in batches.iter().skip(c).step_by(clients) {
                        match client.try_call(MaRequest::DepositBatch {
                            account: *account,
                            spends: spends.clone(),
                        })? {
                            MaResponse::BatchDeposited { total: t, .. } => total += t,
                            other => return Err(unexpected("deposit", &other)),
                        }
                    }
                    Ok(total)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| MarketError::Transport("client thread panicked".into()))
                    .and_then(|r| r)
            })
            .collect::<Result<Vec<u64>, MarketError>>()
    })?;
    Ok(totals.into_iter().sum())
}

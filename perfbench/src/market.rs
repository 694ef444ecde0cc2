//! `market`: complete PPMSdec rounds, closed loop, over the TCP door
//! with the default e-cash paywall, onto durable disk storage that
//! fsyncs every append.
//!
//! Each generator thread drives one JO/SP pair through a fixed number
//! of rounds back to back: publish a job, register labor, fetch it,
//! withdraw a coin, break it (PCBA), pay, find the payment held, report
//! data, fetch the payment, verify the bundle, deposit, fetch the data
//! and read the balance. Both parties of a pair share the thread's one
//! `TcpTransport`. Keys come from the seed, so every run does the same
//! crypto work. Every `CHECKPOINT_EVERY` rounds the pairs meet and the
//! first calls `MaService::checkpoint()` (explicitly:
//! `checkpoint_every` is not evaluated on the TCP path). They meet
//! because the checkpoint's cut is only consistent while no request is
//! in flight: the door routes straight into the shard queues, past
//! the dispatcher the checkpoint pauses. After the rounds the service
//! shuts down and is cold started with `MaService::recover`.
//!
//! This is the only workload where withdrawal verification and
//! signing, wallet crypto, the paywall, per-append fsync and
//! checkpoint/recovery all carry real weight.

use crate::common::{
    timed_setups, Report, Run, MA_KEY_SEED, PAIRING_BITS, RSA_BITS, SHARDS, ZKP_ROUNDS,
};
use crate::ledger::{Delta, LABELS};
use crate::stats::Summary;
use crate::trace::{rpc_name, BenchSpan, Tracer};
use ppms_core::gate::spends_for_price;
use ppms_core::service::{MaClient, MaRequest, MaResponse, MaService, ServiceConfig};
use ppms_core::sim::{mint_admission_spends, verify_bundle_sequential};
use ppms_core::transport::{next_request_id, next_trace_id, request_label};
use ppms_core::{
    AccountId, AdmissionConfig, DiskStorage, DurabilityConfig, Party, TcpClientConfig, TcpConfig,
    TcpFrontDoor, TcpTransport,
};
use ppms_crypto::cl::ClKeyPair;
use ppms_crypto::rsa;
use ppms_ecash::brk::{build_payment_with, NodeAllocator};
use ppms_ecash::{decode_payment, encode_payment, plan_break, CashBreak, Coin, DecParams};
use ppms_obs::{next_span_id, SpanContext};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Coin tree depth: a withdrawn coin is worth 2^L.
pub const LEVELS: usize = 3;
/// JO/SP pairs, one per generator thread.
pub const PAIRS: usize = 2;
/// Rounds each pair runs per second of `--seconds`. Fixed work, not a
/// time limit: every run of a given length does the same rounds.
pub const ROUNDS_PER_PAIR_PER_SECOND: usize = 20;
/// What the JO pays the SP each round.
pub const W: u64 = 5;
/// The pairs checkpoint after every this many rounds.
pub const CHECKPOINT_EVERY: usize = 64;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// RPCs in one round.
pub const RPCS_PER_ROUND: usize = 11;
/// In a traced run, every this many rounds of a pair pass their span
/// context to the program and export its spans.
const SAMPLE_EVERY: usize = 64;

const WALLET: [&str; 4] = [
    "wallet.keygen",
    "wallet.withdraw_prep",
    "wallet.build_payment",
    "wallet.verify_bundle",
];

fn params() -> DecParams {
    DecParams::fixture(LEVELS, ZKP_ROUNDS)
}

fn config() -> ServiceConfig {
    ServiceConfig {
        shards: SHARDS,
        ..ServiceConfig::default()
    }
}

fn durability(dir: &PathBuf) -> Result<DurabilityConfig, String> {
    let storage = DiskStorage::open(dir).map_err(|e| format!("disk storage: {e}"))?;
    Ok(DurabilityConfig::new(Arc::new(storage)))
}

/// One JO/SP pair and everything its thread owns.
struct Pair {
    jo: MaClient,
    sp: MaClient,
    cl: ClKeyPair,
    jo_account: AccountId,
    sp_account: AccountId,
    funds: u64,
    rng: StdRng,
}

struct Setup {
    svc: MaService,
    door: TcpFrontDoor,
    dir: PathBuf,
    pairs: Vec<Pair>,
    revenue: AccountId,
}

fn expect<T>(
    what: &str,
    got: Result<MaResponse, ppms_core::MarketError>,
    f: impl FnOnce(MaResponse) -> Option<T>,
) -> Result<T, String> {
    match got {
        Ok(resp) => {
            let shown = format!("{resp:?}");
            f(resp).ok_or_else(|| format!("{what}: unexpected reply {shown}"))
        }
        Err(e) => Err(format!("{what}: {e}")),
    }
}

fn setup(run: &Run, rep: usize, rounds: usize) -> Result<Setup, String> {
    let dir = run
        .storage_dir(&format!("market-{rep}"))
        .map_err(|e| format!("storage dir: {e}"))?;
    let svc = MaService::spawn_durable(
        &mut StdRng::seed_from_u64(MA_KEY_SEED),
        params(),
        RSA_BITS,
        PAIRING_BITS,
        config(),
        durability(&dir)?,
    )
    .map_err(|e| format!("spawn: {e}"))?;
    let known: Vec<u64> = svc.bank.snapshot().accounts.iter().map(|a| a.0).collect();
    let door = TcpFrontDoor::spawn(&svc, "127.0.0.1:0", TcpConfig::default())
        .map_err(|e| format!("front door: {e}"))?;
    let revenue = svc
        .bank
        .snapshot()
        .accounts
        .iter()
        .map(|a| a.0)
        .find(|id| !known.contains(id))
        .map(AccountId)
        .ok_or("the door registered no revenue account")?;
    let admission = AdmissionConfig::default();
    let requests = rounds * RPCS_PER_ROUND + 2;
    let admissions = requests.div_ceil(admission.requests_per_token as usize) + 2;
    let mut pairs = Vec::with_capacity(PAIRS);
    for p in 0..PAIRS {
        let pair_seed = run
            .seed
            .wrapping_mul(PAIRS as u64 + 1)
            .wrapping_add(p as u64);
        let wallet = mint_admission_spends(
            &svc,
            pair_seed,
            admissions * spends_for_price(admission.price),
        )
        .map_err(|e| format!("admission wallet: {e}"))?;
        let transport = Arc::new(TcpTransport::new(TcpClientConfig::new(door.addr())));
        transport.load_wallet(wallet);
        let jo = MaClient::new(transport.clone(), Party::Jo);
        let sp = MaClient::new(transport, Party::Sp);
        let mut rng = StdRng::seed_from_u64(pair_seed ^ 0x6d61_726b_6574); // "market"
        let cl = ClKeyPair::generate(&mut rng, &svc.pairing);
        let funds = (rounds as u64 + 1) * params().face_value();
        let jo_account = expect(
            "register jo",
            jo.try_call(MaRequest::RegisterJoAccount {
                funds,
                clpk: cl.public.clone(),
            }),
            |r| match r {
                MaResponse::Account(a) => Some(a),
                _ => None,
            },
        )?;
        let sp_account = expect(
            "register sp",
            sp.try_call(MaRequest::RegisterSpAccount),
            |r| match r {
                MaResponse::Account(a) => Some(a),
                _ => None,
            },
        )?;
        pairs.push(Pair {
            jo,
            sp,
            cl,
            jo_account,
            sp_account,
            funds,
            rng,
        });
    }
    Ok(Setup {
        svc,
        door,
        dir,
        pairs,
        revenue,
    })
}

/// What one generator thread measured.
#[derive(Default)]
struct Rec {
    round_ns: Vec<u64>,
    rpc_ns: BTreeMap<&'static str, Vec<u64>>,
    wallet_ns: [u64; 4],
    wallet_count: [u64; 4],
    spans: Vec<BenchSpan>,
    covered_ns: u64,
    checkpoint_ms: Vec<f64>,
    /// `wal.disk_bytes` just before and after each checkpoint.
    wal_around_checkpoints: Vec<(i64, i64)>,
    rpcs: usize,
}

/// The span context of the round being traced, if any.
struct RoundTrace {
    trace_id: u64,
    span_id: u64,
    /// Whether this round's RPCs carry the context to the program.
    sampled: bool,
}

struct Driver<'a> {
    svc: &'a MaService,
    rec: Rec,
    round: Option<RoundTrace>,
}

impl Driver<'_> {
    fn span(&mut self, name: &'static str, start: Instant, span_id: u64) {
        let dur_ns = start.elapsed().as_nanos() as u64;
        if let Some(t) = &self.round {
            self.rec.covered_ns += dur_ns;
            self.rec.spans.push(BenchSpan {
                name,
                trace_id: t.trace_id,
                span_id,
                parent_id: t.span_id,
                start,
                dur_ns,
            });
        }
    }

    fn wallet<T>(&mut self, kind: usize, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.rec.wallet_ns[kind] += start.elapsed().as_nanos() as u64;
        self.rec.wallet_count[kind] += 1;
        self.span(WALLET[kind], start, next_span_id());
        out
    }

    fn call(
        &mut self,
        client: &MaClient,
        request: MaRequest,
    ) -> Result<MaResponse, ppms_core::MarketError> {
        let label = request_label(&request);
        let span_id = next_span_id();
        let start = Instant::now();
        let resp = match &self.round {
            Some(t) if t.sampled => client.try_call_spanned(
                next_request_id(),
                SpanContext {
                    trace_id: t.trace_id,
                    span_id,
                    parent_id: t.span_id,
                },
                request,
            ),
            _ => client.try_call(request),
        };
        self.rec
            .rpc_ns
            .entry(label)
            .or_default()
            .push(start.elapsed().as_nanos() as u64);
        self.rec.rpcs += 1;
        self.span(rpc_name(label), start, span_id);
        resp
    }

    /// One complete PPMSdec round; `r` counts this pair's rounds from 0.
    fn round(&mut self, pair: &mut Pair, pair_idx: usize, r: usize) -> Result<(), String> {
        let svc = self.svc;
        let params = svc.params.clone();
        let Pair {
            jo, sp, cl, rng, ..
        } = pair;

        // JO: a job under a fresh pseudonym.
        let job_key = self.wallet(0, || rsa::keygen(rng, RSA_BITS));
        let job_id = expect(
            "publish",
            self.call(
                jo,
                MaRequest::PublishJob {
                    description: format!("sensing job {pair_idx}-{r}"),
                    payment: W,
                    pseudonym: job_key.public.to_bytes(),
                },
            ),
            |x| match x {
                MaResponse::JobId(id) => Some(id),
                _ => None,
            },
        )?;

        // SP: labor under a one-time key.
        let one_time = self.wallet(0, || rsa::keygen(rng, RSA_BITS));
        let sp_pubkey = one_time.public.to_bytes();
        expect(
            "labor register",
            self.call(
                sp,
                MaRequest::LaborRegister {
                    job_id,
                    sp_pubkey: sp_pubkey.clone(),
                },
            ),
            |x| matches!(x, MaResponse::Ok).then_some(()),
        )?;
        let keys = expect(
            "labor fetch",
            self.call(jo, MaRequest::FetchLabor { job_id }),
            |x| match x {
                MaResponse::Labor(keys) => Some(keys),
                _ => None,
            },
        )?;
        if keys != [sp_pubkey.clone()] {
            return Err(format!(
                "labor fetch: job {job_id} lists {} keys, not the SP's",
                keys.len()
            ));
        }

        // JO: withdraw a coin under a CL-signed nonce.
        let nonce = r as u64 + 1;
        let (mut coin, blinded, factor, auth) = self.wallet(1, || {
            let coin = Coin::mint(rng, &params);
            let (blinded, factor) = coin.blind_token(rng, &svc.bank_pk);
            let auth = cl.sign_bytes(rng, &svc.pairing, &nonce.to_be_bytes());
            (coin, blinded, factor, auth)
        });
        let sig = expect(
            "withdraw",
            self.call(
                jo,
                MaRequest::Withdraw {
                    account: pair.jo_account,
                    nonce,
                    auth,
                    blinded,
                },
            ),
            |x| match x {
                MaResponse::BlindSignature(sig) => Some(sig),
                _ => None,
            },
        )?;

        // JO: unblind, break W by PCBA and pay the SP's one-time key.
        let receiver =
            rsa::RsaPublicKey::from_bytes(&sp_pubkey).ok_or("labor key does not parse")?;
        let ciphertext = self.wallet(2, || -> Result<Vec<u8>, String> {
            if !coin.attach_signature(&svc.bank_pk, &sig, &factor) {
                return Err("bank signature does not verify".into());
            }
            let plan =
                plan_break(CashBreak::Pcba, W, params.levels).map_err(|e| format!("{e:?}"))?;
            let mut allocator = NodeAllocator::new(params.levels);
            let items = build_payment_with(
                rng,
                &params,
                &coin,
                &plan,
                b"",
                svc.bank_pk.size_bytes(),
                &mut allocator,
            )
            .map_err(|e| format!("{e:?}"))?;
            Ok(rsa::encrypt(rng, &receiver, &encode_payment(&items)))
        })?;
        expect(
            "payment",
            self.call(
                jo,
                MaRequest::SubmitPayment {
                    sp_pubkey: sp_pubkey.clone(),
                    ciphertext,
                },
            ),
            |x| matches!(x, MaResponse::Ok).then_some(()),
        )?;

        // SP: the payment is held until the data report is in.
        expect(
            "early payment fetch",
            self.call(
                sp,
                MaRequest::FetchPayment {
                    sp_pubkey: sp_pubkey.clone(),
                },
            ),
            |x| matches!(x, MaResponse::Payment(None)).then_some(()),
        )
        .map_err(|e| format!("{e} (a payment must be held until its data arrives)"))?;
        let data = format!("reading {pair_idx}-{r}").into_bytes();
        expect(
            "data report",
            self.call(
                sp,
                MaRequest::SubmitData {
                    job_id,
                    sp_pubkey: sp_pubkey.clone(),
                    data: data.clone(),
                },
            ),
            |x| matches!(x, MaResponse::Ok).then_some(()),
        )?;
        let ct = expect(
            "payment fetch",
            self.call(sp, MaRequest::FetchPayment { sp_pubkey }),
            |x| match x {
                MaResponse::Payment(Some(ct)) => Some(ct),
                _ => None,
            },
        )?;

        // SP: open and verify the bundle, deposit it.
        let (spends, value) = self.wallet(3, || -> Result<_, String> {
            let payload = rsa::decrypt(&one_time, &ct).map_err(|e| format!("{e:?}"))?;
            let items = decode_payment(&payload).map_err(|e| format!("{e:?}"))?;
            Ok(verify_bundle_sequential(&params, &svc.bank_pk, &items, b""))
        })?;
        if value != W {
            return Err(format!("bundle verifies to {value}, not {W}"));
        }
        let n = spends.len();
        expect(
            "deposit",
            self.call(
                sp,
                MaRequest::DepositBatch {
                    account: pair.sp_account,
                    spends,
                },
            ),
            |x| match x {
                MaResponse::BatchDeposited {
                    total,
                    accepted,
                    rejected,
                } if total == W && accepted == n && rejected == 0 => Some(()),
                _ => None,
            },
        )?;

        // JO: collect the data; SP: its balance grew by exactly W.
        expect(
            "data fetch",
            self.call(jo, MaRequest::FetchData { job_id }),
            |x| match x {
                MaResponse::Data(reports) if reports == [data] => Some(()),
                _ => None,
            },
        )?;
        let want = (r as u64 + 1) * W;
        expect(
            "balance",
            self.call(
                sp,
                MaRequest::Balance {
                    account: pair.sp_account,
                },
            ),
            |x| matches!(x, MaResponse::Balance(b) if b == want).then_some(()),
        )?;
        Ok(())
    }
}

/// Drives one pair's rounds; at each checkpoint the pairs meet at
/// `quiesce` and the first pair checkpoints.
fn drive(
    svc: &MaService,
    pair: &mut Pair,
    pair_idx: usize,
    rounds: usize,
    tracer: Option<&Tracer>,
    start: &Barrier,
    quiesce: &Barrier,
) -> Result<Rec, String> {
    let mut d = Driver {
        svc,
        rec: Rec::default(),
        round: None,
    };
    let disk = svc.obs.gauge("wal.disk_bytes");
    start.wait();
    for r in 0..rounds {
        if tracer.is_some() {
            d.round = Some(RoundTrace {
                trace_id: next_trace_id(),
                span_id: next_span_id(),
                sampled: r % SAMPLE_EVERY == 0,
            });
        }
        let t0 = Instant::now();
        let first_span = d.rec.spans.len();
        d.round(pair, pair_idx, r)?;
        d.rec.round_ns.push(t0.elapsed().as_nanos() as u64);
        if let (Some(t), Some(tracer)) = (d.round.take(), tracer) {
            d.rec.spans.push(BenchSpan {
                name: "round",
                trace_id: t.trace_id,
                span_id: t.span_id,
                parent_id: 0,
                start: t0,
                dur_ns: t0.elapsed().as_nanos() as u64,
            });
            if t.sampled {
                tracer.export(t.trace_id, &d.rec.spans[first_span..]);
            }
        }
        if (r + 1) % CHECKPOINT_EVERY == 0 {
            quiesce.wait();
            let taken = (pair_idx == 0).then(|| {
                let before = disk.get();
                let t = Instant::now();
                let covered = svc.checkpoint();
                d.rec.checkpoint_ms.push(t.elapsed().as_secs_f64() * 1e3);
                d.rec.wal_around_checkpoints.push((before, disk.get()));
                covered
            });
            quiesce.wait();
            if let Some(Err(e)) = taken {
                return Err(format!("checkpoint: {e}"));
            }
        }
    }
    Ok(d.rec)
}

/// Runs the workload.
pub fn run(run: &Run) -> Result<Report, String> {
    let mut report = Report::default();
    let rounds = ROUNDS_PER_PAIR_PER_SECOND * run.seconds as usize;
    let (s, setup_s) = timed_setups(
        SETUPS,
        |rep| setup(run, rep, rounds),
        |s| {
            drop(s.door);
            s.svc.shutdown();
        },
    )?;
    let Setup {
        svc,
        door,
        dir,
        mut pairs,
        revenue,
    } = s;
    let tracer = run.trace.then(Tracer::new);
    let start = Barrier::new(PAIRS + 1);
    let quiesce = Barrier::new(PAIRS);
    let traffic_at = svc.traffic.snapshot().len();
    let disk_at = svc.obs.gauge("wal.disk_bytes").get();
    let before = svc.obs_snapshot();

    let (recs, wall_s) = std::thread::scope(|s| {
        let handles: Vec<_> = pairs
            .iter_mut()
            .enumerate()
            .map(|(i, pair)| {
                let (svc, tracer, start, quiesce) = (&svc, tracer.as_ref(), &start, &quiesce);
                s.spawn(move || drive(svc, pair, i, rounds, tracer, start, quiesce))
            })
            .collect();
        start.wait();
        let t0 = Instant::now();
        let recs: Vec<Result<Rec, String>> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("generator thread panicked".into()))
            })
            .collect();
        (recs, t0.elapsed().as_secs_f64())
    });
    let after = svc.obs_snapshot();
    let disk_end = svc.obs.gauge("wal.disk_bytes").get();
    let entries = svc.traffic.snapshot();
    let mut rec_all = Rec::default();
    for rec in recs {
        let rec = match rec {
            Ok(rec) => rec,
            Err(e) => {
                report.failed += 1;
                report.violation(e);
                continue;
            }
        };
        rec_all.round_ns.extend(rec.round_ns);
        for (label, v) in rec.rpc_ns {
            rec_all.rpc_ns.entry(label).or_default().extend(v);
        }
        for k in 0..4 {
            rec_all.wallet_ns[k] += rec.wallet_ns[k];
            rec_all.wallet_count[k] += rec.wallet_count[k];
        }
        rec_all.spans.extend(rec.spans);
        rec_all.covered_ns += rec.covered_ns;
        rec_all.checkpoint_ms.extend(rec.checkpoint_ms);
        rec_all
            .wal_around_checkpoints
            .extend(rec.wal_around_checkpoints);
        rec_all.rpcs += rec.rpcs;
    }
    let done = rec_all.round_ns.len();
    report.attempted = rounds * PAIRS * RPCS_PER_ROUND;

    // Ledger oracles: every JO paid the face value per withdrawal, every
    // SP holds W per round, the gate earned its price per admission.
    let face = params().face_value();
    let balance = |a: AccountId| svc.bank.balance(a).unwrap_or(u64::MAX);
    if report.violations.is_empty() {
        for (i, p) in pairs.iter().enumerate() {
            let jo = balance(p.jo_account);
            let want = p.funds - rounds as u64 * face;
            report.check(jo == want, || {
                format!("pair {i}: JO balance {jo}, want {want} after {rounds} withdrawals")
            });
            let sp = balance(p.sp_account);
            report.check(sp == rounds as u64 * W, || {
                format!("pair {i}: SP balance {sp}, want {}", rounds as u64 * W)
            });
        }
    }
    let admitted = after.counter("gate.admitted");
    let price = AdmissionConfig::default().price;
    let earned = balance(revenue);
    report.check(earned == admitted * price, || {
        format!("gate revenue {earned}, want {admitted} admissions x price {price}")
    });

    // Shut down and cold-start from the same storage.
    let ledger_before = svc.bank.snapshot().accounts;
    drop(door);
    svc.shutdown();
    let t0 = Instant::now();
    let (recovered, recovery) = MaService::recover(
        &mut StdRng::seed_from_u64(MA_KEY_SEED),
        params(),
        RSA_BITS,
        PAIRING_BITS,
        config(),
        durability(&dir)?,
    )
    .map_err(|e| format!("recover: {e}"))?;
    // Ready once every account's balance is served again (every shard
    // has replayed its journal tail), and each must equal its balance
    // before the shutdown.
    let client = recovered.client();
    for &(id, want) in &ledger_before {
        match client.try_call(MaRequest::Balance {
            account: AccountId(id),
        }) {
            Ok(MaResponse::Balance(got)) if got == want => {}
            other => report.violation(format!(
                "account {id} after recovery: {other:?}, before shutdown {want}"
            )),
        }
    }
    let recover_s = t0.elapsed().as_secs_f64();
    recovered.shutdown();

    let delta = Delta::new(before, after);
    let round = Summary::of(rec_all.round_ns.clone());
    let rpc = |label: &str| Summary::of(rec_all.rpc_ns.get(label).cloned().unwrap_or_default());
    let withdraw = rpc("withdrawal-request");
    let deposit = rpc("deposit");
    let rounds_per_s = done as f64 / wall_s;
    report.e2e = vec![
        ("setup_s", setup_s),
        ("latency_p50_ms", round.p50_ms()),
        ("latency_p90_ms", round.p90_ns as f64 / 1e6),
        ("capacity_per_s", rounds_per_s),
    ];
    report.detail.push(format!(
        "market: {done} rounds in {wall_s:.3}s ({rounds_per_s:.2}/s), round p50 {:.2}ms p99 {:.2}ms \
         ({} beyond), withdraw p99 {:.2}ms, deposit p99 {:.2}ms, recovery {:.3}s replaying {} records",
        round.p50_ms(),
        round.p99_ms(),
        round.beyond_p99,
        withdraw.p99_ms(),
        deposit.p99_ms(),
        recover_s,
        recovery.replayed_records
    ));
    report.check(run.smoke || round.beyond_p99 >= 10, || {
        format!("only {} rounds beyond the p99", round.beyond_p99)
    });

    let l = &mut report.layers;
    l.set("rounds_per_s", rounds_per_s);
    l.set("round_p50_ms", round.p50_ms());
    l.set("round_p99_ms", round.p99_ms());
    l.set("withdraw_p99_ms", withdraw.p99_ms());
    l.set("recover_s", recover_s);
    l.set("deposit_p50_ms", deposit.p50_ms());
    l.set("deposit_p99_ms", deposit.p99_ms());
    l.set(
        "failed_ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    let per_round = |x: f64| x / done.max(1) as f64;
    for (k, name) in WALLET.iter().enumerate() {
        l.set(
            format!("{name}_ms"),
            per_round(rec_all.wallet_ns[k] as f64 / 1e6),
        );
        l.set(
            format!("{name}_count"),
            per_round(rec_all.wallet_count[k] as f64),
        );
    }
    for label in LABELS {
        let s = rpc(label);
        l.set(format!("rpc.{label}.p50_us"), s.p50_ns as f64 / 1e3);
        l.set(format!("rpc.{label}.p99_us"), s.p99_ns as f64 / 1e3);
        l.set(format!("rpc.{label}.count"), s.n as f64);
    }
    l.record_delta(&delta);
    let rpc_mean_us = rec_all
        .rpc_ns
        .values()
        .flatten()
        .map(|&x| x as f64)
        .sum::<f64>()
        / rec_all.rpcs.max(1) as f64
        / 1e3;
    l.set(
        "client_wait_us",
        rpc_mean_us - delta.hist("tcp.request_ns").mean() / 1e3,
    );
    l.set(
        "checkpoint_ms",
        crate::stats::median(&rec_all.checkpoint_ms),
    );
    l.set("recover.replayed_records", recovery.replayed_records as f64);
    // WAL growth: compaction at each checkpoint shrinks the log, so add
    // up the growth between checkpoints instead of the plain change.
    let mut grown = 0i64;
    let mut from = disk_at;
    for &(pre, post) in &rec_all.wal_around_checkpoints {
        grown += (pre - from).max(0);
        from = post;
    }
    grown += (disk_end - from).max(0);
    let requests = delta.hist("tcp.request_ns").count.max(1);
    l.set("wal.bytes_per_request", grown as f64 / requests as f64);
    let mut frames = [0usize; 2];
    for e in &entries[traffic_at..] {
        for (k, p) in [Party::Jo, Party::Sp].into_iter().enumerate() {
            if e.from == p || e.to == p {
                frames[k] += 1;
            }
        }
    }
    let bytes_now = [
        bytes_of(&entries[traffic_at..], Party::Jo),
        bytes_of(&entries[traffic_at..], Party::Sp),
    ];
    l.set("wire.jo_frames_per_round", per_round(frames[0] as f64));
    l.set("wire.sp_frames_per_round", per_round(frames[1] as f64));
    l.set("wire.jo_bytes_per_round", per_round(bytes_now[0] as f64));
    l.set("wire.sp_bytes_per_round", per_round(bytes_now[1] as f64));
    if let Some(t) = &tracer {
        let round_total: u64 = rec_all.round_ns.iter().sum();
        let coverage = 100.0 * rec_all.covered_ns as f64 / round_total.max(1) as f64;
        l.set("trace_coverage_pct", coverage);
        report.check(coverage >= 90.0, || {
            format!("spans cover {coverage:.1}% of round wall time, under 90%")
        });
        t.report_into(&mut report);
    }

    report.params = vec![
        ("pairs", PAIRS.to_string()),
        ("rounds_per_pair", rounds.to_string()),
        ("levels", LEVELS.to_string()),
        ("payment_w", W.to_string()),
        ("checkpoint_every_rounds", CHECKPOINT_EVERY.to_string()),
        ("shards", SHARDS.to_string()),
        ("storage", "disk, fsync every append".into()),
        ("paywall", format!("{:?}", AdmissionConfig::default())),
    ];
    let _ = std::fs::remove_dir_all(&dir);
    Ok(report)
}

/// Bytes a party sent or received in `entries`.
fn bytes_of(entries: &[ppms_core::transport::TrafficEntry], p: Party) -> usize {
    entries
        .iter()
        .filter(|e| e.from == p || e.to == p)
        .map(|e| e.bytes)
        .sum()
}

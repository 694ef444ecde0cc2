//! `reads`: an open loop of `Balance` queries at fixed offered rates
//! against an in-memory service with the paywall off.
//!
//! Crypto and storage do almost nothing here; the reactor, framing,
//! routing, wake-ups and the in-memory journal carry the cost. A
//! transport change should move this workload and no other.

use crate::common::{
    free_door, pool_results, rate_line, sample_queues, slo_rate, timed_setups, Report, Run,
    MA_KEY_SEED, MIN_SAMPLES, PAIRING_BITS, RSA_BITS, SHARDS, WINDOW, ZKP_ROUNDS,
};
use crate::ledger::Delta;
use crate::openloop::{run_rate, Conn, RateResult};
use crate::stats::windowed;
use crate::trace::Tracer;
use ppms_core::service::{MaClient, MaRequest, MaResponse, MaService, ServiceConfig};
use ppms_core::{AccountId, Party, TcpFrontDoor};
use ppms_crypto::cl::ClKeyPair;
use ppms_ecash::DecParams;
use ppms_obs::Snapshot;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Offered rates, requests per second. Absolute: never scaled to a
/// calibration run, so a parent and a change get the same load.
pub const RATES: &[f64] = &[10000.0, 20000.0, 30000.0, 40000.0, 50000.0];
/// The p99 limit a rate must meet.
pub const LIMIT: Duration = Duration::from_millis(2);
/// The rate whose latency gives the end-to-end figures: a fifth of
/// the saturation rate, so a machine running at half speed still keeps
/// up with it.
pub const REFERENCE: usize = 0;
/// Requests of the saturation phases (all passes), where all are due
/// at once and only the window paces the sender.
pub const SATURATION_REQUESTS: usize = 150_000;
/// Passes over the rates.
pub const PASSES: usize = 5;
/// Accounts the queries spread over (both shards own some).
pub const ACCOUNTS: usize = 64;
/// Set-ups per run (`setup_s` is their median): set-up is short here,
/// so more of them steady the median.
const SETUPS: usize = 21;
/// Every this many requests, a traced run samples one span tree.
const SAMPLE_EVERY: usize = 2000;

struct Setup {
    svc: MaService,
    door: TcpFrontDoor,
    conn: Conn,
    accounts: Vec<(AccountId, u64)>,
}

fn setup(run: &Run) -> Result<Setup, String> {
    let mut rng = StdRng::seed_from_u64(MA_KEY_SEED);
    let params = DecParams::fixture(3, ZKP_ROUNDS);
    let svc = MaService::spawn_with_config(
        &mut rng,
        params,
        RSA_BITS,
        PAIRING_BITS,
        ServiceConfig {
            shards: SHARDS,
            ..ServiceConfig::default()
        },
    );
    let door = TcpFrontDoor::spawn(&svc, "127.0.0.1:0", free_door())
        .map_err(|e| format!("front door: {e}"))?;
    let mut rng = StdRng::seed_from_u64(run.seed);
    let cl = ClKeyPair::generate(&mut rng, &svc.pairing);
    let client: MaClient = svc.client();
    let mut accounts = Vec::with_capacity(ACCOUNTS);
    for _ in 0..ACCOUNTS {
        let funds = rng.random_range(1..1_000_000u64);
        match client.try_call(MaRequest::RegisterJoAccount {
            funds,
            clpk: cl.public.clone(),
        }) {
            Ok(MaResponse::Account(a)) => accounts.push((a, funds)),
            other => return Err(format!("register account: {other:?}")),
        }
    }
    let conn = Conn::open(door.addr(), Party::Sp).map_err(|e| format!("dial: {e}"))?;
    Ok(Setup {
        svc,
        door,
        conn,
        accounts,
    })
}

/// Runs the workload.
pub fn run(run: &Run) -> Result<Report, String> {
    let mut report = Report::default();
    let (first, setup_s) = timed_setups(SETUPS, |_| setup(run), teardown)?;
    let mut first = Some(first);
    let mut rng = StdRng::seed_from_u64(run.seed ^ 0x7265_6164); // "read"
                                                                 // Each pass runs every rate, then the saturation phase, which takes
                                                                 // about as long as one rate. Passes spread each rate's samples over
                                                                 // the whole run, so a slow spell of the machine is shared by all.
                                                                 // Each pass gets a fresh service: the in-memory journal only grows,
                                                                 // and copying it as it grows would land in whichever pass runs last.
    let per_rate = (run.seconds as f64 / (PASSES * (RATES.len() + 1)) as f64).max(0.05);
    let tracer = run.trace.then(Tracer::new);
    let mut per_rate_runs: Vec<Vec<RateResult>> = vec![Vec::new(); RATES.len() + 1];
    let (mut befores, mut afters) = (Snapshot::default(), Snapshot::default());
    let (mut q_sum, mut q_max) = (0f64, 0f64);
    for _ in 0..PASSES {
        let mut s = match first.take() {
            Some(s) => s,
            None => setup(run)?,
        };
        // Warm the connection, reactor and shards before the clock
        // starts.
        let warm = &s.accounts;
        run_rate(
            &mut s.conn,
            RATES[0],
            2000,
            WINDOW,
            "balance",
            None,
            |i| MaRequest::Balance {
                account: warm[i % ACCOUNTS].0,
            },
            |i, resp| matches!(resp, MaResponse::Balance(b) if *b == warm[i % ACCOUNTS].1),
        )
        .map_err(|e| format!("warm-up: {e}"))?;
        let before = s.svc.obs_snapshot();
        let (pass, q_mean, q_max_pass) = sample_queues(&s.svc, || -> Result<(), String> {
            for (k, &rate) in RATES.iter().chain(&[f64::INFINITY]).enumerate() {
                let count = if run.smoke {
                    run.min_samples()
                } else if rate.is_finite() {
                    (rate * per_rate) as usize
                } else {
                    SATURATION_REQUESTS / PASSES
                };
                let picks: Vec<usize> = (0..count).map(|_| rng.random_range(0..ACCOUNTS)).collect();
                let accounts = &s.accounts;
                let r = run_rate(
                    &mut s.conn,
                    rate,
                    count,
                    WINDOW,
                    "balance",
                    tracer.as_ref().map(|t| (t, SAMPLE_EVERY)),
                    |i| MaRequest::Balance {
                        account: accounts[picks[i]].0,
                    },
                    |i, resp| matches!(resp, MaResponse::Balance(b) if *b == accounts[picks[i]].1),
                )
                .map_err(|e| format!("reads at {rate}/s: {e}"))?;
                per_rate_runs[k].push(r);
            }
            Ok(())
        });
        pass?;
        befores = befores.merge(&before);
        afters = afters.merge(&s.svc.obs_snapshot());
        q_sum += q_mean;
        q_max = q_max.max(q_max_pass);
        teardown(s);
    }
    let results: Vec<RateResult> = per_rate_runs.iter().map(|p| pool_results(p)).collect();
    let delta = Delta::new(befores, afters);
    let q_mean = q_sum / PASSES as f64;

    for r in &results {
        report.attempted += r.scheduled;
        report.failed += r.failed;
        report
            .detail
            .push(rate_line("reads", r.offered_per_s, r, LIMIT));
    }
    let (timed, saturation) = results.split_at(RATES.len());
    let saturation = &saturation[0];
    let reference = &timed[REFERENCE];
    let rated: Vec<(f64, &RateResult)> = RATES.iter().copied().zip(timed).collect();
    let slo = slo_rate(&rated, LIMIT);
    let p90_ns = windowed(&reference.latencies_ns, usize::MAX, MIN_SAMPLES, |s| {
        s.p90_ns
    });
    let p99_ns = windowed(&reference.latencies_ns, usize::MAX, MIN_SAMPLES, |s| {
        s.p99_ns
    });
    report.detail.push(format!(
        "reads: saturation {:.1} requests/s",
        saturation.throughput_per_s
    ));
    let failed = report.failed;
    report.check(failed == 0, || {
        format!("{failed} balance replies were wrong or refused")
    });
    report.e2e = vec![
        ("setup_s", setup_s),
        ("latency_p50_ms", reference.latency.p50_ms()),
        ("latency_p90_ms", p90_ns as f64 / 1e6),
        ("capacity_per_s", saturation.throughput_per_s),
    ];

    let l = &mut report.layers;
    l.set("read_p50_us", reference.latency.p50_ns as f64 / 1e3);
    l.set("read_p99_us", p99_ns as f64 / 1e3);
    l.set("read_slo_rps", slo);
    l.set(
        "failed_ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    l.set("rpc.balance.p50_us", reference.latency.p50_ns as f64 / 1e3);
    l.set("rpc.balance.p99_us", p99_ns as f64 / 1e3);
    l.set("rpc.balance.count", report.attempted as f64);
    l.record_delta(&delta);
    let door_mean_us = delta.hist("tcp.request_ns").mean() / 1e3;
    let all: Vec<u64> = timed
        .iter()
        .flat_map(|r| r.latencies_ns.iter().copied())
        .collect();
    let mean_us = all.iter().map(|&x| x as f64).sum::<f64>() / all.len().max(1) as f64 / 1e3;
    l.set("client_wait_us", mean_us - door_mean_us);
    l.set("ma.queue_depth_mean", q_mean);
    l.set("ma.queue_depth_max", q_max);
    l.set(
        "gen.lateness_p99_us",
        reference.lateness.p99_ns as f64 / 1e3,
    );
    l.set(
        "gen.backlog_end",
        timed.iter().map(|r| r.backlog_end).max().unwrap_or(0) as f64,
    );
    if let Some(t) = &tracer {
        t.report_into(&mut report);
    }

    report.params = vec![
        ("rates_per_s", format!("{RATES:?}")),
        ("p99_limit_ms", format!("{}", LIMIT.as_secs_f64() * 1e3)),
        ("reference_rate_per_s", format!("{}", RATES[REFERENCE])),
        ("accounts", ACCOUNTS.to_string()),
        ("shards", SHARDS.to_string()),
        ("window", WINDOW.to_string()),
        ("passes", PASSES.to_string()),
        ("seconds_per_rate_per_pass", format!("{per_rate}")),
        ("saturation_requests", SATURATION_REQUESTS.to_string()),
        ("storage", "in-memory journal".into()),
        ("paywall", "off (price 0)".into()),
    ];
    Ok(report)
}

fn teardown(s: Setup) {
    drop(s.conn);
    drop(s.door);
    s.svc.shutdown();
}

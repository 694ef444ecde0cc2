//! `deposits`: an open loop of `DepositBatch` requests at fixed offered
//! rates against a durable service under group commit.
//!
//! Each request carries 1 to 2^L pre-minted leaf spends (a seeded mix
//! of powers of two); one request in `REPRESENT_EVERY` also re-presents
//! a spend an earlier request already deposited, which the bank must
//! reject. Verification, cross-client batching with bisection around
//! the cheater, and batched fsync carry the cost.
//!
//! A spend deposits once per bank, and minting costs several times what
//! verifying does, so each timed phase runs on a fresh service: the
//! market administrator's keys come from a fixed seed, the pool minted
//! in set-up stays valid on every instance, and each phase replays the
//! same pool prefix into an empty bank.

use crate::common::{
    free_door, pool_results, rate_line, sample_queues, slo_rate, timed_setups, Report, Run,
    MA_KEY_SEED, MIN_SAMPLES, PAIRING_BITS, RSA_BITS, SHARDS, WINDOW, ZKP_ROUNDS,
};
use crate::ledger::Delta;
use crate::openloop::{run_rate, Conn, RateResult};
use crate::stats::windowed;
use crate::trace::Tracer;
use ppms_core::service::{MaRequest, MaResponse, MaService, ServiceConfig};
use ppms_core::sim::mint_deposit_batches;
use ppms_core::{DiskStorage, DurabilityConfig, Party, SyncPolicy, TcpFrontDoor};
use ppms_ecash::{DecParams, Spend};
use ppms_obs::Snapshot;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Coin tree depth: a coin splits into 2^L unit leaves.
pub const LEVELS: usize = 3;
/// Offered rates, requests per second. Absolute: never scaled to a
/// calibration run, so a parent and a change get the same load.
pub const RATES: &[f64] = &[400.0, 800.0, 1200.0];
/// The p99 limit a rate must meet.
pub const LIMIT: Duration = Duration::from_millis(25);
/// The rate whose latency gives the end-to-end figures: about a fifth
/// of the saturation rate, so a machine running at half speed still
/// keeps up with it.
pub const REFERENCE: usize = 0;
/// Requests per timed phase at every rate but the reference. Passes
/// pool their samples, and each such rate runs in at least two passes,
/// so its p99 has ten samples beyond.
pub const REQUESTS: usize = 600;
/// Requests per reference-rate phase and per saturation phase: enough
/// for a p99 of its own, so the reported p99 is the median of the
/// passes' p99s.
pub const REFERENCE_REQUESTS: usize = 1000;
/// Accounts the deposits spread over (both shards own some).
pub const ACCOUNTS: usize = 16;
/// One request in this many re-presents an already deposited spend.
pub const REPRESENT_EVERY: usize = 20;
/// Group commit: one fsync per this many journal appends.
pub const SYNC_EVERY: u64 = 64;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Threads minting the pool in set-up.
const MINT_THREADS: u64 = 2;
/// Every this many requests, a traced run samples one span tree.
const SAMPLE_EVERY: usize = 400;

struct Setup {
    svc: MaService,
    door: TcpFrontDoor,
    pool: Vec<Spend>,
}

/// Request sizes, drawn from the seed: 2^k spends, k uniform in 0..=L.
fn sizes(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6465_706f); // "depo"
    (0..n)
        .map(|_| 1usize << rng.random_range(0..=LEVELS))
        .collect()
}

/// The order one pass sends the first `n` requests in. Each pass
/// shuffles them afresh, so a p99 that depends on how large requests
/// happen to cluster is not the same draw in every pass.
fn shuffled(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x006f_7264_6572); // "order"
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    order
}

fn params() -> DecParams {
    DecParams::fixture(LEVELS, ZKP_ROUNDS)
}

fn spawn(run: &Run, tag: &str) -> Result<(MaService, TcpFrontDoor), String> {
    let dir = run
        .storage_dir(tag)
        .map_err(|e| format!("storage dir: {e}"))?;
    let storage = DiskStorage::open(dir).map_err(|e| format!("disk storage: {e}"))?;
    let svc = MaService::spawn_durable(
        &mut StdRng::seed_from_u64(MA_KEY_SEED),
        params(),
        RSA_BITS,
        PAIRING_BITS,
        ServiceConfig {
            shards: SHARDS,
            ..ServiceConfig::default()
        },
        DurabilityConfig {
            sync: SyncPolicy::Batch { every: SYNC_EVERY },
            ..DurabilityConfig::new(Arc::new(storage))
        },
    )
    .map_err(|e| format!("spawn: {e}"))?;
    let door = TcpFrontDoor::spawn(&svc, "127.0.0.1:0", free_door())
        .map_err(|e| format!("front door: {e}"))?;
    Ok((svc, door))
}

/// Mints at least `need` leaf spends on `svc`, split over
/// `MINT_THREADS` threads with disjoint seeded streams.
fn mint_pool(svc: &MaService, seed: u64, need: usize) -> Result<Vec<Spend>, String> {
    let per_coin = 1usize << LEVELS;
    let coins = need.div_ceil(per_coin);
    let parts: Vec<Result<Vec<Spend>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..MINT_THREADS)
            .map(|t| {
                let n = coins / MINT_THREADS as usize
                    + usize::from((t as usize) < coins % MINT_THREADS as usize);
                s.spawn(move || {
                    let batches =
                        mint_deposit_batches(svc, seed.wrapping_mul(31).wrapping_add(t), n)
                            .map_err(|e| format!("mint: {e}"))?;
                    Ok(batches.into_iter().flat_map(|(_, spends)| spends).collect())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("mint thread"))
            .collect()
    });
    let mut pool = Vec::with_capacity(coins * per_coin);
    for part in parts {
        pool.extend(part?);
    }
    Ok(pool)
}

fn setup(run: &Run, rep: usize, need: usize) -> Result<Setup, String> {
    let (svc, door) = spawn(run, &format!("setup-{rep}"))?;
    let pool = mint_pool(&svc, run.seed, need)?;
    Ok(Setup { svc, door, pool })
}

/// One timed phase on a fresh service. Returns the phase result and
/// the registry snapshots around it.
#[allow(clippy::too_many_arguments)]
fn phase(
    run: &Run,
    tag: &str,
    rate: f64,
    pool: &[Spend],
    sizes: &[usize],
    offsets: &[usize],
    order: &[usize],
    tracer: Option<&Tracer>,
    report: &mut Report,
) -> Result<(RateResult, Snapshot, Snapshot, f64, f64), String> {
    let (svc, door) = spawn(run, tag)?;
    let client = svc.client();
    let mut accounts = Vec::with_capacity(ACCOUNTS);
    for _ in 0..ACCOUNTS {
        match client.try_call(MaRequest::RegisterSpAccount) {
            Ok(MaResponse::Account(a)) => accounts.push(a),
            other => return Err(format!("register account: {other:?}")),
        }
    }
    let mut conn = Conn::open(door.addr(), Party::Sp).map_err(|e| format!("dial: {e}"))?;
    // Warm the fresh connection and shards before the clock starts.
    run_rate(
        &mut conn,
        2000.0,
        50,
        WINDOW,
        "balance",
        None,
        |i| MaRequest::Balance {
            account: accounts[i % ACCOUNTS],
        },
        |_, resp| matches!(resp, MaResponse::Balance(0)),
    )
    .map_err(|e| format!("warm-up: {e}"))?;

    let n = order.len();
    let done: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    let replays: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    let leaf = params().node_value(LEVELS);
    let before = svc.obs_snapshot();
    let (result, q_mean, q_max) = sample_queues(&svc, || {
        run_rate(
            &mut conn,
            rate,
            n,
            WINDOW,
            "deposit",
            tracer.map(|t| (t, SAMPLE_EVERY)),
            |i| {
                let k = order[i];
                let mut spends = pool[offsets[k]..offsets[k] + sizes[k]].to_vec();
                if i >= 64 && i % REPRESENT_EVERY == 0 {
                    if let Some(j) = (0..=i - 64).rev().find(|&j| done[j].load(Ordering::SeqCst)) {
                        spends.push(pool[offsets[order[j]]].clone());
                        replays[i].store(true, Ordering::SeqCst);
                    }
                }
                MaRequest::DepositBatch {
                    account: accounts[i % ACCOUNTS],
                    spends,
                }
            },
            |i, resp| {
                done[i].store(true, Ordering::SeqCst);
                let replayed = usize::from(replays[i].load(Ordering::SeqCst));
                matches!(resp, MaResponse::BatchDeposited { total, accepted, rejected }
                    if *total == sizes[order[i]] as u64 * leaf
                        && *accepted == sizes[order[i]]
                        && *rejected == replayed)
            },
        )
    });
    let result = result.map_err(|e| format!("deposits at {rate}/s: {e}"))?;
    let after = svc.obs_snapshot();
    let credited: u64 = accounts
        .iter()
        .map(|&a| svc.bank.balance(a).unwrap_or(0))
        .sum();
    let fresh: u64 = order.iter().map(|&k| sizes[k] as u64).sum::<u64>() * leaf;
    report.check(credited == fresh, || {
        format!("{tag}: credited {credited}, but the accepted spends are worth {fresh}")
    });
    let represented = replays.iter().filter(|r| r.load(Ordering::SeqCst)).count();
    report.check(represented > 0 || n < 64, || {
        format!("{tag}: no spend was re-presented")
    });
    drop(conn);
    drop(door);
    svc.shutdown();
    let _ = std::fs::remove_dir_all(run.data_dir.join(tag));
    Ok((result, before, after, q_mean, q_max))
}

/// Runs the workload.
pub fn run(run: &Run) -> Result<Report, String> {
    let mut report = Report::default();
    let count = |k: usize| match (run.smoke, k == REFERENCE || k == RATES.len()) {
        (true, _) => run.min_samples(),
        (false, true) => REFERENCE_REQUESTS,
        (false, false) => REQUESTS,
    };
    let counts: Vec<usize> = (0..=RATES.len()).map(count).collect();
    let requests = counts.iter().copied().max().unwrap_or(REQUESTS);
    let sizes = sizes(run.seed, requests);
    let offsets: Vec<usize> = sizes
        .iter()
        .scan(0, |at, &s| {
            let o = *at;
            *at += s;
            Some(o)
        })
        .collect();
    let need: usize = sizes.iter().sum();
    let (s, setup_s) = timed_setups(
        SETUPS,
        |rep| setup(run, rep, need),
        |s| {
            drop(s.door);
            s.svc.shutdown();
        },
    )?;
    let pool = s.pool;
    drop(s.door);
    s.svc.shutdown();

    // Every pass runs the reference rate, one other rate in turn and
    // the saturation phase: the reference and saturation figures, which
    // the end-to-end metrics come from, get a sample from every pass,
    // spread over the whole run. As many passes as fit the budget, and
    // enough for every other rate to run in two of them.
    let others = RATES.len() - 1;
    let ladder = |pass: usize| 1 + pass % others;
    let pass_s = counts[REFERENCE] as f64 / RATES[REFERENCE]
        + (1..=others)
            .map(|k| counts[k] as f64 / RATES[k])
            .sum::<f64>()
            / others as f64
        + counts[RATES.len()] as f64 / RATES[others];
    let passes = ((run.seconds as f64 / pass_s).floor() as usize).clamp(2 * others, 8);
    let tracer = run.trace.then(Tracer::new);
    let mut per_rate: Vec<Vec<RateResult>> = vec![Vec::new(); RATES.len() + 1];
    let mut snaps = vec![(Snapshot::default(), Snapshot::default()); RATES.len() + 1];
    let (mut q_sum, mut q_max, mut phases) = (0f64, 0f64, 0usize);
    for pass in 0..passes {
        for k in [REFERENCE, ladder(pass), RATES.len()] {
            let rate = RATES.get(k).copied().unwrap_or(f64::INFINITY);
            let (r, before, after, qm, qx) = phase(
                run,
                &format!("p{pass}-r{k}"),
                rate,
                &pool,
                &sizes,
                &offsets,
                &shuffled(run.seed ^ pass as u64, counts[k]),
                tracer.as_ref(),
                &mut report,
            )?;
            snaps[k] = (snaps[k].0.merge(&before), snaps[k].1.merge(&after));
            q_sum += qm;
            q_max = q_max.max(qx);
            phases += 1;
            per_rate[k].push(r);
        }
    }
    let merged: Vec<RateResult> = per_rate.iter().map(|p| pool_results(p)).collect();
    let (befores, afters) = snaps.iter().fold(
        (Snapshot::default(), Snapshot::default()),
        |(b, a), (pb, pa)| (b.merge(pb), a.merge(pa)),
    );
    let delta = Delta::new(befores, afters);
    let (rb, ra) = snaps.swap_remove(REFERENCE);
    let door_mean_us = Delta::new(rb, ra).hist("tcp.request_ns").mean() / 1e3;
    let mean_size = |n: usize| sizes[..n].iter().sum::<usize>() as f64 / n as f64;

    for (k, r) in merged.iter().enumerate() {
        report.attempted += r.scheduled;
        report.failed += r.failed;
        let what = if k < RATES.len() {
            "deposits"
        } else {
            "deposits (saturation)"
        };
        report
            .detail
            .push(rate_line(what, r.offered_per_s, r, LIMIT));
    }
    let (timed, saturation) = merged.split_at(RATES.len());
    let saturation = &saturation[0];
    let reference = &timed[REFERENCE];
    let spend_rates: Vec<(f64, &RateResult)> = RATES
        .iter()
        .zip(&counts)
        .map(|(r, &n)| r * mean_size(n))
        .zip(timed)
        .collect();
    let slo = slo_rate(&spend_rates, LIMIT);
    let p90_ns = windowed(&reference.latencies_ns, usize::MAX, MIN_SAMPLES, |s| {
        s.p90_ns
    });
    let p99_ns = windowed(&reference.latencies_ns, usize::MAX, MIN_SAMPLES, |s| {
        s.p99_ns
    });
    let capacity = saturation.throughput_per_s * mean_size(counts[RATES.len()]);
    let failed = report.failed;
    report.check(failed == 0, || {
        format!("{failed} deposit replies were wrong or refused")
    });
    report.detail.push(format!(
        "deposits: {passes} passes, mean {:.3} spends/request, saturation {capacity:.1} spends/s",
        mean_size(requests)
    ));
    report.e2e = vec![
        ("setup_s", setup_s),
        ("latency_p50_ms", reference.latency.p50_ms()),
        ("latency_p90_ms", p90_ns as f64 / 1e6),
        ("capacity_per_s", capacity),
    ];

    let l = &mut report.layers;
    l.set("deposit_p50_ms", reference.latency.p50_ms());
    l.set("deposit_p99_ms", p99_ns as f64 / 1e6);
    l.set("deposit_slo_spends_per_s", slo);
    l.set(
        "failed_ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    l.set("rpc.deposit.p50_us", reference.latency.p50_ns as f64 / 1e3);
    l.set("rpc.deposit.p99_us", p99_ns as f64 / 1e3);
    l.set("rpc.deposit.count", report.attempted as f64);
    l.record_delta(&delta);
    l.set(
        "client_wait_us",
        reference.latency.mean_ns / 1e3 - door_mean_us,
    );
    l.set("ma.queue_depth_mean", q_sum / phases as f64);
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
        ("requests_per_phase", format!("{counts:?}")),
        ("passes", passes.to_string()),
        ("levels", LEVELS.to_string()),
        (
            "mean_spends_per_request",
            format!("{}", mean_size(requests)),
        ),
        ("represent_every", REPRESENT_EVERY.to_string()),
        ("accounts", ACCOUNTS.to_string()),
        ("shards", SHARDS.to_string()),
        ("window", WINDOW.to_string()),
        (
            "storage",
            format!("disk, group commit every {SYNC_EVERY} appends"),
        ),
        ("paywall", "off (price 0)".into()),
    ];
    Ok(report)
}

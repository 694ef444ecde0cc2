//! Open-loop latency under load: a fixed-arrival-rate generator drives
//! balance queries plus pre-minted deposit spends through the TCP
//! front door at a sweep of offered rates and reports client-observed
//! p50/p99/p999 *measured from the scheduled arrival time*, so queueing
//! delay past the capacity knee is charged to the curve instead of
//! silently throttling the generator (no coordinated omission). A
//! mid-run scrape of the admission-exempt ops plane proves the live
//! metrics path works while the door is under load. Per-rate shard
//! batching stats (mean cross-client batch size, flush reasons) come
//! from the service registry's `batch.*` counters, deltaed around each
//! run. Emits `BENCH_load.json` at the repo root (EXPERIMENTS.md A15,
//! A16); the smoke run writes it under `target/bench-smoke/` instead.
//!
//! ```text
//! cargo bench -p ppms-bench --bench load_curve            # full sweep
//! cargo bench -p ppms-bench --bench load_curve -- --test  # CI smoke
//! ```

use ppms_bench::artifact_path;
use ppms_core::gate::OpsRequest;
use ppms_core::service::{MaClient, MaRequest, MaResponse, MaService, ServiceConfig};
use ppms_core::sim::mint_deposit_batches;
use ppms_core::{AccountId, Party, TcpClientConfig, TcpConfig, TcpFrontDoor, TcpTransport};
use ppms_core::{AdmissionConfig, MarketError};
use ppms_ecash::{DecParams, Spend};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const SEED: u64 = 0x10AD;
const SHARDS: usize = 2;
const LEVELS: usize = 2;
/// Every Nth scheduled arrival is a deposit (while the pool lasts);
/// the rest are balance reads. Deposits walk the verification + WAL
/// path, reads stay on the fast path, mirroring a mostly-read market.
const DEPOSIT_EVERY: usize = 64;

/// One pre-minted, single-spend deposit unit. Each is consumable
/// exactly once (a spend deposits once), so the pool is drained by a
/// global cursor shared across the whole sweep.
struct DepositUnit {
    account: AccountId,
    spend: Spend,
}

struct RateResult {
    offered: f64,
    achieved: f64,
    scheduled: usize,
    completed: usize,
    abandoned: usize,
    deposits: usize,
    p50_ns: u64,
    p99_ns: u64,
    p999_ns: u64,
    max_ns: u64,
    /// Mean shard batch size over this run (`batch.items` /
    /// `batch.drains` deltas from the service registry).
    mean_batch: f64,
}

fn pct(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Sleep until `t`, coarsely via the OS then yielding the last stretch
/// so scheduled arrivals land close to their slot. Yielding (rather
/// than `spin_loop`) matters on small machines: a hard spin steals CPU
/// from the server under test and deflates the measured knee.
fn sleep_until(t: Instant) {
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let rem = t - now;
        if rem > Duration::from_micros(800) {
            std::thread::sleep(rem - Duration::from_micros(500));
        } else {
            std::thread::yield_now();
        }
    }
}

fn make_client(addr: SocketAddr) -> (MaClient, AccountId) {
    let client = MaClient::new(
        Arc::new(TcpTransport::new(TcpClientConfig::new(addr))),
        Party::Sp,
    );
    let account = match client.call(MaRequest::RegisterSpAccount) {
        MaResponse::Account(a) => a,
        other => panic!("account: {other:?}"),
    };
    (client, account)
}

/// Closed-loop calibration: hammer the door with `workers` blocking
/// clients and take the completed rate as the saturation estimate the
/// open-loop sweep is anchored on (so the knee lands inside the sweep
/// on any machine).
fn calibrate(addr: SocketAddr, workers: usize, duration: Duration) -> f64 {
    let done = AtomicUsize::new(0);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                let (client, account) = make_client(addr);
                while t0.elapsed() < duration {
                    match client.call(MaRequest::Balance { account }) {
                        MaResponse::Balance(_) => {}
                        other => panic!("balance: {other:?}"),
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    done.load(Ordering::Relaxed) as f64 / t0.elapsed().as_secs_f64()
}

/// One open-loop run at a fixed offered rate. Arrival `i` is owed at
/// `start + i/rate`; whichever worker draws it sleeps until the slot,
/// issues the request, and charges the *full* time since the slot —
/// including any backlog the saturated door imposed — as its latency.
#[allow(clippy::too_many_arguments)]
fn run_rate(
    addr: SocketAddr,
    rate: f64,
    duration: Duration,
    workers: usize,
    pool: &[DepositUnit],
    pool_cursor: &AtomicUsize,
    deposit_face: u64,
    credited: &AtomicUsize,
) -> RateResult {
    let scheduled = (rate * duration.as_secs_f64()).ceil() as usize;
    let interval = Duration::from_secs_f64(1.0 / rate);
    // Give every run the same escape hatch: past-capacity rates may
    // leave a backlog, but never more than ~2 extra durations of it.
    let grace = duration.mul_saturating(2).max(Duration::from_secs(2));
    let next = AtomicUsize::new(0);
    let abandoned = AtomicUsize::new(0);
    let deposits = AtomicUsize::new(0);
    let lat = Mutex::new(Vec::<u64>::with_capacity(scheduled));
    let last_done = Mutex::new(Instant::now());

    // Admit every connection before the clock starts.
    let clients: Vec<(MaClient, AccountId)> = (0..workers).map(|_| make_client(addr)).collect();
    let start = Instant::now() + Duration::from_millis(30);
    let deadline = start + duration + grace;

    std::thread::scope(|s| {
        for (client, account) in &clients {
            s.spawn(|| {
                let mut local = Vec::with_capacity(scheduled / workers + 1);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= scheduled {
                        break;
                    }
                    let slot = start + interval.mul_f64(i as f64);
                    sleep_until(slot);
                    if Instant::now() >= deadline {
                        abandoned.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    let unit = i
                        .is_multiple_of(DEPOSIT_EVERY)
                        .then(|| {
                            let d = pool_cursor.fetch_add(1, Ordering::Relaxed);
                            pool.get(d)
                        })
                        .flatten();
                    let resp = match unit {
                        Some(u) => {
                            deposits.fetch_add(1, Ordering::Relaxed);
                            client.try_call(MaRequest::DepositBatch {
                                account: u.account,
                                spends: vec![u.spend.clone()],
                            })
                        }
                        None => client.try_call(MaRequest::Balance { account: *account }),
                    };
                    match resp {
                        Ok(MaResponse::Balance(_)) => {}
                        Ok(MaResponse::BatchDeposited {
                            total,
                            accepted,
                            rejected,
                        }) => {
                            assert_eq!((accepted, rejected), (1, 0), "pre-minted spend rejected");
                            credited.fetch_add(total as usize, Ordering::Relaxed);
                        }
                        Ok(other) => panic!("unexpected response: {other:?}"),
                        Err(e) => panic!("request failed under load: {e}"),
                    }
                    local.push(slot.elapsed().as_nanos() as u64);
                }
                *last_done.lock().unwrap() = Instant::now();
                lat.lock().unwrap().append(&mut local);
            });
        }
    });

    let mut sorted = lat.into_inner().unwrap();
    sorted.sort_unstable();
    let completed = sorted.len();
    let wall = (*last_done.lock().unwrap() - start).as_secs_f64().max(1e-9);
    let _ = deposit_face; // face value only matters to the caller's credit check
    RateResult {
        offered: rate,
        achieved: completed as f64 / wall,
        scheduled,
        completed,
        abandoned: abandoned.load(Ordering::Relaxed),
        deposits: deposits.load(Ordering::Relaxed),
        p50_ns: pct(&sorted, 0.50),
        p99_ns: pct(&sorted, 0.99),
        p999_ns: pct(&sorted, 0.999),
        max_ns: sorted.last().copied().unwrap_or(0),
        mean_batch: 0.0, // filled in by the caller from registry deltas
    }
}

trait DurationExt {
    fn mul_saturating(self, k: u32) -> Duration;
}
impl DurationExt for Duration {
    fn mul_saturating(self, k: u32) -> Duration {
        self.checked_mul(k).unwrap_or(Duration::MAX)
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let (duration, fractions, workers, n_batches, cal) = if smoke {
        (
            Duration::from_millis(250),
            vec![0.4, 1.3],
            4,
            1,
            Duration::from_millis(150),
        )
    } else {
        (
            Duration::from_millis(1200),
            vec![0.25, 0.5, 0.75, 0.9, 1.1, 1.4],
            4,
            6,
            Duration::from_millis(400),
        )
    };

    let mut rng = StdRng::seed_from_u64(SEED);
    let svc = MaService::spawn_with_config(
        &mut rng,
        DecParams::fixture(LEVELS, 6),
        512,
        40,
        ServiceConfig {
            shards: SHARDS,
            queue_depth: 256,
            ..ServiceConfig::default()
        },
    );
    // Price 0: the sweep measures transport + service capacity; the
    // admission handshake still runs on every fresh connection.
    let config = TcpConfig {
        admission: AdmissionConfig {
            price: 0,
            requests_per_token: u64::MAX,
            ..AdmissionConfig::default()
        },
        ..TcpConfig::default()
    };
    let door = TcpFrontDoor::spawn(&svc, "127.0.0.1:0", config).expect("front door");
    let addr = door.addr();

    // Pre-mint the deposit pool in-proc (minting is JO-side work and
    // must not pollute the door's load), flattened to one-spend units.
    let deposit_face = svc.params.face_value() >> LEVELS; // leaf value
    let pool: Vec<DepositUnit> = mint_deposit_batches(&svc, SEED ^ 0xDEE9, n_batches)
        .expect("mint deposit pool")
        .into_iter()
        .flat_map(|(account, spends)| {
            spends
                .into_iter()
                .map(move |spend| DepositUnit { account, spend })
        })
        .collect();
    let pool_cursor = AtomicUsize::new(0);
    let credited = AtomicUsize::new(0);

    let capacity = calibrate(addr, workers, cal);
    println!("load curve: closed-loop calibration {capacity:.0} req/s ({workers} workers)");

    // Ops-plane scrape taken mid-sweep, while the door is loaded.
    let scrape = Mutex::new(None::<(String, String)>);
    let mut results = Vec::with_capacity(fractions.len());
    let batch_items = svc.obs.counter("batch.items");
    let batch_drains = svc.obs.counter("batch.drains");
    for (k, f) in fractions.iter().enumerate() {
        let rate = (capacity * f).max(50.0);
        let mid_sweep = k == fractions.len() / 2;
        let (items0, drains0) = (batch_items.get(), batch_drains.get());
        let mut r = std::thread::scope(|s| {
            if mid_sweep {
                s.spawn(|| {
                    std::thread::sleep(duration / 2);
                    let t = TcpTransport::new(TcpClientConfig::new(addr));
                    let health = t.ops(OpsRequest::Health).expect("ops health under load");
                    let metrics = t
                        .ops(OpsRequest::MetricsJson)
                        .expect("ops metrics under load");
                    *scrape.lock().unwrap() = Some((health, metrics));
                });
            }
            run_rate(
                addr,
                rate,
                duration,
                workers,
                &pool,
                &pool_cursor,
                deposit_face,
                &credited,
            )
        });
        let (items, drains) = (
            batch_items.get() - items0,
            (batch_drains.get() - drains0).max(1),
        );
        r.mean_batch = items as f64 / drains as f64;
        println!(
            "  offered {:>7.0}/s achieved {:>7.0}/s  p50 {:>8.1}us p99 {:>9.1}us p999 {:>9.1}us  ({} deposits, {} abandoned, mean batch {:.2})",
            r.offered,
            r.achieved,
            r.p50_ns as f64 / 1e3,
            r.p99_ns as f64 / 1e3,
            r.p999_ns as f64 / 1e3,
            r.deposits,
            r.abandoned,
            r.mean_batch
        );
        results.push(r);
    }

    // Capacity knee: the highest offered rate the door still keeps up
    // with (achieved >= 92% of offered). Everything past it is the
    // overload regime where open-loop latency grows without bound.
    let knee = results
        .iter()
        .filter(|r| r.achieved >= 0.92 * r.offered)
        .map(|r| r.offered)
        .fold(0.0f64, f64::max);
    let peak = results.iter().map(|r| r.achieved).fold(0.0f64, f64::max);
    println!("  capacity knee ~{knee:.0} req/s (peak achieved {peak:.0} req/s)");
    // The batching claim the CI gate greps for: under load (the
    // highest offered rate) shards must be coalescing across clients.
    let loaded_mean_batch = results.iter().map(|r| r.mean_batch).fold(0.0f64, f64::max);
    println!("  mean batch size under load {loaded_mean_batch:.2}");

    let (health, metrics) = scrape
        .into_inner()
        .unwrap()
        .expect("mid-sweep ops scrape ran");
    println!(
        "  mid-run ops scrape: health {health} ({} bytes of metrics JSON)",
        metrics.len()
    );

    // Hand-rolled JSON (the workspace's serde_json is a build stub).
    let rate_cells: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "    {{\"offered_per_sec\": {:.1}, \"achieved_per_sec\": {:.1}, \
                 \"scheduled\": {}, \"completed\": {}, \"abandoned\": {}, \"deposits\": {}, \
                 \"p50_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \"max_ns\": {}, \
                 \"mean_batch_size\": {:.3}}}",
                r.offered,
                r.achieved,
                r.scheduled,
                r.completed,
                r.abandoned,
                r.deposits,
                r.p50_ns,
                r.p99_ns,
                r.p999_ns,
                r.max_ns,
                r.mean_batch
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"smoke\": {smoke},\n  \"workload\": {{\"shards\": {SHARDS}, \"workers\": {workers}, \
         \"duration_ms\": {}, \"deposit_every\": {DEPOSIT_EVERY}, \
         \"calibrated_capacity_per_sec\": {capacity:.1}}},\n  \"rates\": [\n{}\n  ],\n  \
         \"knee_per_sec\": {knee:.1},\n  \"peak_achieved_per_sec\": {peak:.1},\n  \
         \"mean_batch_size_under_load\": {loaded_mean_batch:.3},\n  \
         \"ops_scrape\": {{\"health\": {health}, \"metrics_bytes\": {}}}\n}}\n",
        duration.as_millis(),
        rate_cells.join(",\n"),
        metrics.len()
    );
    // Full-run artifacts live at the repo root, committed alongside
    // the code they measure, so a diff shows the perf delta.
    let path = artifact_path("BENCH_load.json", smoke);
    match std::fs::write(&path, json) {
        Ok(()) => println!("  [json -> {}]", path.display()),
        Err(e) => eprintln!("  [json write failed: {e}]"),
    }

    // Correctness gates (the `-- --test` smoke relies on these).
    for r in &results {
        assert!(r.completed > 0, "rate {:.0} completed nothing", r.offered);
        assert!(r.p999_ns >= r.p99_ns && r.p99_ns >= r.p50_ns);
        assert_eq!(r.completed + r.abandoned, r.scheduled);
    }
    let lowest = &results[0];
    assert!(
        lowest.achieved >= 0.5 * lowest.offered,
        "the door must keep up with the lightest offered rate \
         ({:.0}/s achieved of {:.0}/s offered)",
        lowest.achieved,
        lowest.offered
    );
    let consumed = pool_cursor.load(Ordering::Relaxed).min(pool.len());
    assert_eq!(
        credited.load(Ordering::Relaxed) as u64,
        consumed as u64 * deposit_face,
        "every pre-minted spend driven through the door must credit its leaf value"
    );
    // The equivalence claim the CI gate greps for: batching changed
    // the schedule, not the money.
    println!(
        "  ledger unchanged: {} spends credited {} (= {} x face {})",
        consumed,
        credited.load(Ordering::Relaxed),
        consumed,
        deposit_face
    );
    assert!(health.contains("\"status\""), "health probe body: {health}");
    // Counters stay live even with timing switched off, so the merged
    // metrics body always carries the gate counters.
    assert!(
        metrics.contains("tcp."),
        "metrics scrape must expose the door's counters: {metrics}"
    );
    if let Err(e) = verify_slow_log(addr) {
        panic!("slow-log probe failed: {e}");
    }

    drop(door);
    svc.shutdown();
}

/// The slow-request log is part of the ops surface the harness proves
/// out: ask for it once after the sweep — overloaded runs usually
/// tripped the threshold — and require a well-formed JSON array.
fn verify_slow_log(addr: SocketAddr) -> Result<(), MarketError> {
    let t = TcpTransport::new(TcpClientConfig::new(addr));
    let body = t.ops(OpsRequest::SlowLog)?;
    if !(body.starts_with('[') && body.ends_with(']')) {
        return Err(MarketError::Transport(format!(
            "slow log is not a JSON array: {body}"
        )));
    }
    Ok(())
}

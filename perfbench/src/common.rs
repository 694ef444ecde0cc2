//! What every workload shares: run settings, the report, the service
//! and door set-up, queue-depth sampling and the SLO-rate rule.

use crate::ledger::Layers;
use crate::openloop::RateResult;
use crate::stats::{median, Summary};
use ppms_core::service::MaService;
use ppms_core::{AdmissionConfig, TcpConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Seed of the market administrator's own keys (bank RSA key, pairing
/// group). They are the system's configuration, not workload input:
/// a fixed seed keeps the key-generation work in set-up, and the keys
/// a recovery must regenerate, the same on every run.
pub const MA_KEY_SEED: u64 = 0x4d41_4b45_5953; // "MAKEYS"
/// Shards the service runs with, in every workload.
pub const SHARDS: usize = 2;
/// RSA modulus bits of the bank key and of every wallet key.
pub const RSA_BITS: usize = 512;
/// Pairing group bits of the CL keys.
pub const PAIRING_BITS: usize = 40;
/// ZK proof rounds of the e-cash parameters.
pub const ZKP_ROUNDS: usize = 8;
/// The door's per-connection in-flight cap, which the open-loop
/// window matches.
pub const WINDOW: usize = 32;
/// Samples every timed rate needs, so its p99 has ten beyond it.
pub const MIN_SAMPLES: usize = 1000;

/// Settings of one benchmark run.
#[derive(Clone)]
pub struct Run {
    /// Workload seed: all inputs derive from it.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: u64,
    /// Record the benchmark's spans and the per-layer ledger.
    pub trace: bool,
    /// A short run for checking the harness; results go elsewhere.
    pub smoke: bool,
    /// Scratch space for durable storage, removed after the run.
    pub data_dir: PathBuf,
}

impl Run {
    /// A fresh, empty storage directory for set-up or phase `tag`.
    pub fn storage_dir(&self, tag: &str) -> std::io::Result<PathBuf> {
        let dir = self.data_dir.join(tag);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }

    /// Samples a timed rate needs: `MIN_SAMPLES`, except in smoke runs.
    pub fn min_samples(&self) -> usize {
        if self.smoke {
            50
        } else {
            MIN_SAMPLES
        }
    }
}

/// What a workload hands back.
#[derive(Default)]
pub struct Report {
    /// The bounded end-to-end metrics, in `ledger::END_TO_END` order.
    pub e2e: Vec<(&'static str, f64)>,
    /// The per-layer ledger (also holds the per-workload
    /// figures, printed on every run).
    pub layers: Layers,
    /// Operations attempted.
    pub attempted: usize,
    /// Operations failed: `Busy`, a timeout or an unexpected reply.
    pub failed: usize,
    /// Oracle violations; any makes the run incorrect.
    pub violations: Vec<String>,
    /// Workload parameters, for the provenance record.
    pub params: Vec<(&'static str, String)>,
    /// Human-readable detail lines (per-rate results).
    pub detail: Vec<String>,
    /// Sampled span trees (traced runs only).
    pub trace_jsonl: Option<String>,
}

impl Report {
    /// Records an oracle violation.
    pub fn violation(&mut self, what: impl Into<String>) {
        self.violations.push(what.into());
    }

    /// Checks `ok`, recording `what` as a violation when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }
}

/// A door with the paywall off: `Hello` mints a token that never runs
/// out, so the open loop measures transport and service, not
/// admission.
pub fn free_door() -> TcpConfig {
    TcpConfig {
        admission: AdmissionConfig {
            price: 0,
            requests_per_token: u64::MAX,
            ..AdmissionConfig::default()
        },
        ..TcpConfig::default()
    }
}

/// Runs `setup` `reps` times, tearing down all but the last, and
/// returns the last with the median set-up time in seconds.
pub fn timed_setups<T>(
    reps: usize,
    mut setup: impl FnMut(usize) -> Result<T, String>,
    mut teardown: impl FnMut(T),
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for rep in 0..reps.max(1) {
        if let Some(prev) = last.take() {
            teardown(prev);
        }
        let t0 = Instant::now();
        last = Some(setup(rep)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), median(&times)))
}

/// Samples the shard queue-depth gauges every millisecond while
/// `work` runs; returns its result with the mean and max depth summed
/// over shards.
pub fn sample_queues<T>(svc: &MaService, work: impl FnOnce() -> T) -> (T, f64, f64) {
    let gauges: Vec<_> = (0..SHARDS)
        .map(|i| svc.obs.gauge(&format!("ma.shard{i}.queue_depth")))
        .collect();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let (mut sum, mut max, mut n) = (0f64, 0f64, 0u64);
            while !stop.load(Ordering::Relaxed) {
                let depth: i64 = gauges.iter().map(|g| g.get().max(0)).sum();
                sum += depth as f64;
                max = max.max(depth as f64);
                n += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
            (sum / n.max(1) as f64, max)
        });
        let out = work();
        stop.store(true, Ordering::Relaxed);
        let (mean, max) = sampler.join().expect("queue sampler");
        (out, mean, max)
    })
}

/// The highest offered rate whose p99 meets `limit` with no growing
/// backlog. Between the highest passing rate and the next one up it
/// interpolates on p99, so the figure moves with the latency near the
/// knee instead of jumping a whole step; a next rate that failed on
/// backlog or errors counts as infinitely slow. When even the lowest
/// rate fails, the lowest rate is scaled by `limit / p99`.
pub fn slo_rate(rates: &[(f64, &RateResult)], limit: Duration) -> f64 {
    let limit_ns = limit.as_nanos() as f64;
    let Some(k) = rates.iter().rposition(|(_, r)| r.meets(limit)) else {
        let (rate, r) = rates[0];
        return rate * (limit_ns / (r.latency.p99_ns.max(1) as f64)).min(1.0);
    };
    let (rate, r) = rates[k];
    let Some(&(next_rate, next)) = rates.get(k + 1) else {
        return rate;
    };
    let p99 = r.latency.p99_ns as f64;
    let next_p99 = if next.failed == 0 && next.latency.p99_ns as f64 > limit_ns {
        next.latency.p99_ns as f64
    } else {
        f64::INFINITY
    };
    let frac = ((limit_ns - p99) / (next_p99 - p99)).clamp(0.0, 1.0);
    rate + (next_rate - rate) * frac
}

/// One line describing a fixed-rate result.
pub fn rate_line(what: &str, offered: f64, r: &RateResult, limit: Duration) -> String {
    format!(
        "{what} offered {offered:>8.1}/s  n {:>6}  p50 {:>9.1}us  p99 {:>9.1}us  \
         late p99 {:>8.1}us  backlog {:>4}  failed {}  {}",
        r.latency.n,
        r.latency.p50_ns as f64 / 1e3,
        r.latency.p99_ns as f64 / 1e3,
        r.lateness.p99_ns as f64 / 1e3,
        r.backlog_end,
        r.failed,
        if r.meets(limit) { "meets" } else { "misses" }
    )
}

/// Pools repeated runs at one rate: latencies concatenated in run
/// order, failures summed, the worst backlog and send lateness, the
/// median throughput.
pub fn pool_results(parts: &[RateResult]) -> RateResult {
    let latencies: Vec<u64> = parts
        .iter()
        .flat_map(|r| r.latencies_ns.iter().copied())
        .collect();
    let lateness_p99 = parts.iter().map(|r| r.lateness.p99_ns).max().unwrap_or(0);
    RateResult {
        offered_per_s: parts[0].offered_per_s,
        scheduled: parts.iter().map(|r| r.scheduled).sum(),
        failed: parts.iter().map(|r| r.failed).sum(),
        latency: Summary::of(latencies.clone()),
        latencies_ns: latencies,
        lateness: Summary {
            p99_ns: lateness_p99,
            ..Summary::default()
        },
        backlog_end: parts.iter().map(|r| r.backlog_end).max().unwrap_or(0),
        throughput_per_s: median(&parts.iter().map(|r| r.throughput_per_s).collect::<Vec<_>>()),
    }
}

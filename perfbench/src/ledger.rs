//! The per-layer ledger: deltas of the counters and histograms the
//! program already registers, taken around the measured phase, plus
//! the catalogue of every metric the benchmark reports.

use ppms_obs::{HistSnapshot, Snapshot};
use std::collections::BTreeMap;

/// The bounded end-to-end metrics, reported by every workload:
/// `(name, unit)`. What each measures per workload is in
/// `perfbench/METRICS.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("capacity_per_s", "1/s"),
];

/// Request labels whose RPC latency and shard busy time are reported.
pub const LABELS: &[&str] = &[
    "job-registration",
    "labor-registration",
    "labor-fetch",
    "withdrawal-request",
    "payment-submission",
    "data-report",
    "payment-fetch",
    "data-fetch",
    "deposit",
    "balance",
];

/// Kernel timers in the process-global registry.
pub const KERNELS: &[&str] = &[
    "ecash.deposit_ns",
    "ecash.batch_verify_ns",
    "ecash.spend_verify_ns",
    "rsa.blind_sign_ns",
    "zkp.verify_ns",
    "ring.pow_fixed_ns",
    "ring.multi_pow_n_ns",
    "ring.pow_crt_ns",
];

/// Every per-layer metric: `(name, unit, better)`. A workload that
/// bypasses a layer reports 0 for it.
pub fn layer_catalogue() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: &'static str| {
        out.push((name.to_string(), unit, better));
    };
    // Per-workload end-to-end figures, 0 where a workload lacks the operation.
    add("rounds_per_s", "1/s", "higher");
    add("round_p50_ms", "ms", "lower");
    add("round_p99_ms", "ms", "lower");
    add("withdraw_p99_ms", "ms", "lower");
    add("recover_s", "s", "lower");
    add("deposit_p50_ms", "ms", "lower");
    add("deposit_p99_ms", "ms", "lower");
    add("read_p50_us", "us", "lower");
    add("read_p99_us", "us", "lower");
    add("read_slo_rps", "1/s", "higher");
    add("deposit_slo_spends_per_s", "1/s", "higher");
    add("failed_ratio", "ratio", "lower");
    for w in ["keygen", "withdraw_prep", "build_payment", "verify_bundle"] {
        add(&format!("wallet.{w}_ms"), "ms", "lower");
        add(&format!("wallet.{w}_count"), "count", "lower");
    }
    for l in LABELS {
        add(&format!("rpc.{l}.p50_us"), "us", "lower");
        add(&format!("rpc.{l}.p99_us"), "us", "lower");
        add(&format!("rpc.{l}.count"), "count", "lower");
    }
    add("tcp.request_count", "count", "lower");
    add("tcp.request_busy_ms", "ms", "lower");
    add("tcp.request_p99_us", "us", "lower");
    add("tcp.frames_per_tick", "count", "higher");
    add("tcp.shed", "count", "lower");
    add("tcp.evicted", "count", "lower");
    add("gate.challenges", "count", "lower");
    add("gate.admitted", "count", "lower");
    add("client_wait_us", "us", "lower");
    for l in LABELS {
        add(&format!("ma.op.{l}.count"), "count", "lower");
        add(&format!("ma.op.{l}.busy_ms"), "ms", "lower");
    }
    add("batch.mean_size", "count", "higher");
    add("batch.flush_full", "count", "lower");
    add("batch.flush_deadline", "count", "lower");
    add("batch.flush_drain", "count", "lower");
    add("batch.group_commits", "count", "higher");
    add("ma.direct_routed_share", "ratio", "higher");
    add("deposit.item_amortized_us", "us", "lower");
    add("ma.queue_depth_mean", "count", "lower");
    add("ma.queue_depth_max", "count", "lower");
    for k in KERNELS {
        let k = k.trim_end_matches("_ns");
        add(&format!("{k}.count"), "count", "lower");
        add(&format!("{k}.busy_ms"), "ms", "lower");
    }
    add("wal.append_count", "count", "lower");
    add("wal.append_busy_ms", "ms", "lower");
    add("wal.append_p99_us", "us", "lower");
    add("wal.fsync_count", "count", "lower");
    add("wal.fsync_busy_ms", "ms", "lower");
    add("wal.fsync_p99_us", "us", "lower");
    add("wal.appends_per_request", "count", "lower");
    add("wal.fsyncs_per_request", "count", "lower");
    add("wal.bytes_per_request", "bytes", "lower");
    add("checkpoint_ms", "ms", "lower");
    add("recover.replayed_records", "count", "lower");
    add("wire.jo_frames_per_round", "count", "lower");
    add("wire.jo_bytes_per_round", "bytes", "lower");
    add("wire.sp_frames_per_round", "count", "lower");
    add("wire.sp_bytes_per_round", "bytes", "lower");
    add("trace_overhead_pct", "%", "lower");
    add("trace_coverage_pct", "%", "higher");
    add("gen.lateness_p99_us", "us", "lower");
    add("gen.backlog_end", "count", "lower");
    out
}

/// The change in the program's registries over the measured phase.
pub struct Delta {
    before: Snapshot,
    after: Snapshot,
}

impl Delta {
    /// The delta between two snapshots of the same registries.
    pub fn new(before: Snapshot, after: Snapshot) -> Delta {
        Delta { before, after }
    }

    /// A counter's growth.
    pub fn counter(&self, name: &str) -> u64 {
        self.after
            .counter(name)
            .saturating_sub(self.before.counter(name))
    }

    /// A histogram's growth, bucket by bucket. `max` is the later max,
    /// so it may predate the phase.
    pub fn hist(&self, name: &str) -> HistSnapshot {
        let empty = HistSnapshot::default();
        let a = self.before.histogram(name).unwrap_or(&empty);
        let Some(b) = self.after.histogram(name) else {
            return empty;
        };
        let mut d = b.clone();
        d.count = b.count.saturating_sub(a.count);
        d.sum = b.sum.wrapping_sub(a.sum);
        for (slot, old) in d.buckets.iter_mut().zip(a.buckets.iter()) {
            *slot = slot.saturating_sub(*old);
        }
        d
    }

    /// A gauge's change (gauges of merged snapshots add up).
    pub fn gauge(&self, name: &str) -> i64 {
        self.after.gauge(name) - self.before.gauge(name)
    }
}

/// Per-layer values by catalogue name.
#[derive(Default)]
pub struct Layers(pub BTreeMap<String, f64>);

impl Layers {
    /// Sets one metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    /// Records the door, service, kernel and storage layers from the
    /// registry delta; "per request" means per request a shard
    /// executed.
    pub fn record_delta(&mut self, d: &Delta) {
        let ms = |ns: u64| ns as f64 / 1e6;
        let us = |ns: u64| ns as f64 / 1e3;
        let door = d.hist("tcp.request_ns");
        self.set("tcp.request_count", door.count as f64);
        self.set("tcp.request_busy_ms", ms(door.sum));
        self.set("tcp.request_p99_us", us(door.p99()));
        self.set("tcp.frames_per_tick", d.hist("tcp.frames_per_tick").mean());
        for c in [
            "tcp.shed",
            "tcp.evicted",
            "gate.challenges",
            "gate.admitted",
        ] {
            self.set(c, d.counter(c) as f64);
        }
        let mut requests = 0u64;
        for l in LABELS {
            let h = d.hist(&format!("ma.op.{l}_ns"));
            self.set(format!("ma.op.{l}.count"), h.count as f64);
            self.set(format!("ma.op.{l}.busy_ms"), ms(h.sum));
        }
        for (name, h) in &d.after.histograms {
            if name.starts_with("ma.op.") {
                requests += h.count - d.before.histogram(name).map_or(0, |b| b.count);
            }
        }
        let drains = d.counter("batch.drains").max(1);
        self.set(
            "batch.mean_size",
            d.counter("batch.items") as f64 / drains as f64,
        );
        for c in [
            "batch.flush_full",
            "batch.flush_deadline",
            "batch.flush_drain",
            "batch.group_commits",
        ] {
            self.set(c, d.counter(c) as f64);
        }
        self.set(
            "ma.direct_routed_share",
            d.counter("ma.direct_routed") as f64 / requests.max(1) as f64,
        );
        self.set(
            "deposit.item_amortized_us",
            d.hist("deposit.item_amortized_ns").mean() / 1e3,
        );
        for k in KERNELS {
            let h = d.hist(k);
            let k = k.trim_end_matches("_ns");
            self.set(format!("{k}.count"), h.count as f64);
            self.set(format!("{k}.busy_ms"), ms(h.sum));
        }
        let append = d.hist("wal.append_ns");
        let fsync = d.hist("wal.fsync_ns");
        self.set("wal.append_count", append.count as f64);
        self.set("wal.append_busy_ms", ms(append.sum));
        self.set("wal.append_p99_us", us(append.p99()));
        self.set("wal.fsync_count", fsync.count as f64);
        self.set("wal.fsync_busy_ms", ms(fsync.sum));
        self.set("wal.fsync_p99_us", us(fsync.p99()));
        let per_request = |n: f64| n / requests.max(1) as f64;
        self.set("wal.appends_per_request", per_request(append.count as f64));
        self.set(
            "wal.fsyncs_per_request",
            per_request(d.counter("wal.fsyncs") as f64),
        );
        self.set(
            "wal.bytes_per_request",
            per_request(d.gauge("wal.disk_bytes").max(0) as f64),
        );
    }

    /// Every catalogue metric, 0 where this workload set none.
    pub fn complete(&self) -> Vec<(String, f64, &'static str)> {
        layer_catalogue()
            .into_iter()
            .map(|(name, unit, _)| {
                let v = self.0.get(&name).copied().unwrap_or(0.0);
                (name, v, unit)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_fit_the_schema() {
        let names: Vec<String> = layer_catalogue().into_iter().map(|(n, _, _)| n).collect();
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
        assert!(names.len() <= 128);
        for n in &names {
            assert!(
                n.len() <= 64 && n.as_bytes()[0].is_ascii_alphanumeric(),
                "{n}"
            );
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
    }

    /// `BENCHMARK.json` at the repository root lists exactly the
    /// metrics this program reports, with the same units.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let compact: String = json.split_whitespace().collect();
        let mut expected: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        expected.extend(layer_catalogue().into_iter().map(|(n, u, _)| (n, u)));
        for (name, unit) in &expected {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = compact.matches("\"unit\":").count();
        assert_eq!(listed, expected.len(), "BENCHMARK.json lists extra metrics");
    }
}

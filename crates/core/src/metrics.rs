//! Operation metering — the instrumentation behind the paper's
//! **Table I** ("core operation complexity comparing").
//!
//! The paper counts four operation classes per party: `ZKP`
//! (zero-knowledge proofs), `Enc` (encryptions *and* signatures —
//! §VI-D: "we consider signature as encryption"), `Dec` (decryptions
//! and verifications) and `H` (hash invocations). The protocol
//! drivers increment these counters around each cryptographic call,
//! and the report harness prints the per-party totals next to the
//! paper's formulas.

use parking_lot::Mutex;
use ppms_obs::{Counter, Registry};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The three market parties.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum Party {
    /// Job owner.
    Jo,
    /// Sensing participant.
    Sp,
    /// Market administrator (incl. the bank).
    Ma,
}

impl std::fmt::Display for Party {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Party::Jo => write!(f, "JO"),
            Party::Sp => write!(f, "SP"),
            Party::Ma => write!(f, "MA"),
        }
    }
}

/// The four operation classes of Table I.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum Op {
    /// Zero-knowledge proof generated or verified.
    Zkp,
    /// Encryption or signature generation.
    Enc,
    /// Decryption or signature verification.
    Dec,
    /// Hash invocation.
    Hash,
}

impl std::fmt::Display for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Op::Zkp => write!(f, "ZKP"),
            Op::Enc => write!(f, "Enc"),
            Op::Dec => write!(f, "Dec"),
            Op::Hash => write!(f, "H"),
        }
    }
}

/// Shared, thread-safe operation counters.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    counts: Arc<Mutex<BTreeMap<(Party, Op), u64>>>,
}

impl Metrics {
    /// Fresh, zeroed counters.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Adds `n` to a counter.
    pub fn add(&self, party: Party, op: Op, n: u64) {
        *self.counts.lock().entry((party, op)).or_insert(0) += n;
    }

    /// Increments a counter by one.
    pub fn count(&self, party: Party, op: Op) {
        self.add(party, op, 1);
    }

    /// Reads a counter.
    pub fn get(&self, party: Party, op: Op) -> u64 {
        self.counts.lock().get(&(party, op)).copied().unwrap_or(0)
    }

    /// Point-in-time copy of all counters — the stable, mergeable
    /// export the report harness reads (instead of polling counters
    /// live mid-run).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counts: self.counts.lock().clone(),
        }
    }

    /// Formats one party's counts in the paper's Table I style,
    /// e.g. `"9ZKP+4Enc+1Dec+1H"`.
    pub fn formula(&self, party: Party) -> String {
        self.snapshot().formula(party)
    }
}

/// A point-in-time copy of a [`Metrics`] meter: the per-party Table I
/// operation counts, detached from the live counters so a report
/// renders one consistent state.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values by `(party, operation)`.
    pub counts: BTreeMap<(Party, Op), u64>,
}

impl MetricsSnapshot {
    /// Reads one counter (0 if never incremented).
    pub fn get(&self, party: Party, op: Op) -> u64 {
        self.counts.get(&(party, op)).copied().unwrap_or(0)
    }

    /// Whether nothing was counted.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Sum of two snapshots — aggregation across workers or runs.
    pub fn merge(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        let mut counts = self.counts.clone();
        for (&key, &n) in &other.counts {
            *counts.entry(key).or_insert(0) += n;
        }
        MetricsSnapshot { counts }
    }

    /// Formats one party's counts in the paper's Table I style,
    /// e.g. `"9ZKP+4Enc+1Dec+1H"`.
    pub fn formula(&self, party: Party) -> String {
        let mut parts = Vec::new();
        for op in [Op::Zkp, Op::Enc, Op::Dec, Op::Hash] {
            let n = self.get(party, op);
            if n > 0 {
                parts.push(format!("{n}{op}"));
            }
        }
        if parts.is_empty() {
            "-".into()
        } else {
            parts.join("+")
        }
    }

    /// Hand-rolled JSON (the workspace's serde_json is a build stub):
    /// `{"JO.ZKP": 9, ...}` keyed by party/op display names.
    pub fn to_json(&self) -> String {
        let cells: Vec<String> = self
            .counts
            .iter()
            .map(|(&(party, op), &n)| format!("\"{party}.{op}\":{n}"))
            .collect();
        format!("{{{}}}", cells.join(","))
    }
}

// ---------------------------------------------------------------------------
// Fault-tolerance counters
// ---------------------------------------------------------------------------

/// Shared, thread-safe counters for the fault-tolerance layer: the
/// retry transport, the service's idempotency cache, and the shard
/// supervisor all report here. Cloning shares the underlying
/// counters, mirroring [`Metrics`] / [`crate::transport::TrafficLog`].
///
/// A thin view over a [`ppms_obs::Registry`]: every counter is a
/// registry counter named `fault.*`, so one [`Registry::snapshot`]
/// carries the fault picture alongside latency and traffic — this
/// struct only caches the handles and shapes the [`FaultSnapshot`]
/// the chaos tests assert on.
#[derive(Debug, Clone)]
pub struct FaultMetrics {
    registry: Registry,
    /// Calls entering the retry layer.
    calls: Arc<Counter>,
    /// Retransmissions after a retryable failure.
    retries: Arc<Counter>,
    /// Calls that exhausted their attempt budget.
    exhausted: Arc<Counter>,
    /// Calls abandoned because the overall deadline expired.
    timeouts: Arc<Counter>,
    /// Calls rejected up front by an open circuit breaker.
    circuit_rejections: Arc<Counter>,
    /// Retransmits answered from the service's dedup cache instead of
    /// re-executing (the exactly-once replay path).
    dedup_replays: Arc<Counter>,
    /// Shard incarnations restarted after a crash.
    shard_respawns: Arc<Counter>,
    /// Journal records appended (one per executed write).
    wal_commits: Arc<Counter>,
    /// Checkpoints published by the durable tier.
    wal_snapshots: Arc<Counter>,
    /// Log compactions run behind a durable checkpoint.
    wal_compactions: Arc<Counter>,
}

impl Default for FaultMetrics {
    fn default() -> FaultMetrics {
        FaultMetrics::in_registry(&Registry::new())
    }
}

/// A point-in-time copy of every [`FaultMetrics`] counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSnapshot {
    /// Calls entering the retry layer.
    pub calls: u64,
    /// Retransmissions after a retryable failure.
    pub retries: u64,
    /// Calls that exhausted their attempt budget.
    pub exhausted: u64,
    /// Calls abandoned because the overall deadline expired.
    pub timeouts: u64,
    /// Calls rejected up front by an open circuit breaker.
    pub circuit_rejections: u64,
    /// Retransmits answered from the dedup cache.
    pub dedup_replays: u64,
    /// Shard incarnations restarted after a crash.
    pub shard_respawns: u64,
    /// Journal records appended (one per executed write).
    pub wal_commits: u64,
    /// Checkpoints published by the durable tier.
    pub wal_snapshots: u64,
    /// Log compactions run behind a durable checkpoint.
    pub wal_compactions: u64,
}

impl FaultMetrics {
    /// Fresh counters in a private registry.
    pub fn new() -> FaultMetrics {
        FaultMetrics::default()
    }

    /// Counters registered in (and visible through snapshots of)
    /// `registry`. Used by the service so its fault counters, latency
    /// histograms, and traffic totals land in one snapshot.
    pub fn in_registry(registry: &Registry) -> FaultMetrics {
        FaultMetrics {
            registry: registry.clone(),
            calls: registry.counter("fault.calls"),
            retries: registry.counter("fault.retries"),
            exhausted: registry.counter("fault.exhausted"),
            timeouts: registry.counter("fault.timeouts"),
            circuit_rejections: registry.counter("fault.circuit_rejections"),
            dedup_replays: registry.counter("fault.dedup_replays"),
            shard_respawns: registry.counter("fault.shard_respawns"),
            wal_commits: registry.counter("fault.wal_commits"),
            // Shared names with the durable tier: `DurableLog` and the
            // checkpointer increment the same registry-owned counters,
            // so this view needs no wiring.
            wal_snapshots: registry.counter("wal.snapshots"),
            wal_compactions: registry.counter("wal.compactions"),
        }
    }

    /// The registry these counters live in.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Records a call entering the retry layer.
    pub fn call(&self) {
        self.calls.inc();
    }

    /// Records one retransmission.
    pub fn retry(&self) {
        self.retries.inc();
    }

    /// Records a call that ran out of attempts.
    pub fn exhausted(&self) {
        self.exhausted.inc();
    }

    /// Records a call that ran out of deadline.
    pub fn timeout(&self) {
        self.timeouts.inc();
    }

    /// Records a call rejected by an open circuit breaker.
    pub fn circuit_rejection(&self) {
        self.circuit_rejections.inc();
    }

    /// Records a retransmit served from the dedup cache.
    pub fn dedup_replay(&self) {
        self.dedup_replays.inc();
    }

    /// Records a shard respawn.
    pub fn shard_respawn(&self) {
        self.shard_respawns.inc();
    }

    /// Records a committed journal record.
    pub fn wal_commit(&self) {
        self.wal_commits.inc();
    }

    /// Durable checkpoints published so far.
    pub fn wal_snapshots(&self) -> u64 {
        self.wal_snapshots.get()
    }

    /// Log compactions so far.
    pub fn wal_compactions(&self) -> u64 {
        self.wal_compactions.get()
    }

    /// Shard respawns so far (the supervision tests' key assertion).
    pub fn shard_respawns(&self) -> u64 {
        self.shard_respawns.get()
    }

    /// Dedup-cache replays so far.
    pub fn dedup_replays(&self) -> u64 {
        self.dedup_replays.get()
    }

    /// Copies every counter.
    pub fn snapshot(&self) -> FaultSnapshot {
        FaultSnapshot {
            calls: self.calls.get(),
            retries: self.retries.get(),
            exhausted: self.exhausted.get(),
            timeouts: self.timeouts.get(),
            circuit_rejections: self.circuit_rejections.get(),
            dedup_replays: self.dedup_replays.get(),
            shard_respawns: self.shard_respawns.get(),
            wal_commits: self.wal_commits.get(),
            wal_snapshots: self.wal_snapshots.get(),
            wal_compactions: self.wal_compactions.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting() {
        let m = Metrics::new();
        m.count(Party::Jo, Op::Zkp);
        m.add(Party::Jo, Op::Zkp, 7);
        m.count(Party::Sp, Op::Dec);
        assert_eq!(m.get(Party::Jo, Op::Zkp), 8);
        assert_eq!(m.get(Party::Sp, Op::Dec), 1);
        assert_eq!(m.get(Party::Ma, Op::Hash), 0);
    }

    #[test]
    fn formula_format() {
        let m = Metrics::new();
        m.add(Party::Jo, Op::Zkp, 9);
        m.add(Party::Jo, Op::Enc, 4);
        m.add(Party::Jo, Op::Dec, 1);
        m.add(Party::Jo, Op::Hash, 1);
        assert_eq!(m.formula(Party::Jo), "9ZKP+4Enc+1Dec+1H");
        assert_eq!(m.formula(Party::Ma), "-");
    }

    #[test]
    fn clone_shares_counters() {
        let m = Metrics::new();
        let m2 = m.clone();
        m2.count(Party::Ma, Op::Enc);
        assert_eq!(m.get(Party::Ma, Op::Enc), 1);
    }

    #[test]
    fn concurrent_updates() {
        let m = Metrics::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let m = m.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        m.count(Party::Sp, Op::Hash);
                    }
                });
            }
        });
        assert_eq!(m.get(Party::Sp, Op::Hash), 8000);
    }
}

//! The flight recorder: a bounded ring buffer of recent structured
//! events per shard. When a worker panics (or the chaos harness
//! detects divergence) the ring is dumped — together with a metrics
//! [`Snapshot`](crate::Snapshot) — to a JSON artifact, turning "chaos
//! test failed" into a readable timeline keyed by trace id.

use crate::json::escape;
use crate::Snapshot;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One recorded event. `seq` is a per-recorder monotonic sequence
/// number that survives ring eviction, so a dump shows how much
/// history was lost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Monotonic per-recorder sequence number (never reused).
    pub seq: u64,
    /// Microseconds since the recorder was created.
    pub at_micros: u64,
    /// Trace context of the request this event belongs to (0 = none).
    pub trace_id: u64,
    /// Static event kind, e.g. `"handle"`, `"dedup-replay"`, `"crash"`.
    pub label: &'static str,
    /// Free-form detail (request label, key, error text, ...).
    pub detail: String,
}

/// Process-wide dump counter — keeps concurrent dumps (parallel tests,
/// several shards crashing at once) from clobbering each other's files.
static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A bounded ring buffer of [`Event`]s. Recording is a short
/// mutex-guarded push (the ring is per-shard, so there is no
/// cross-worker contention).
#[derive(Debug)]
pub struct FlightRecorder {
    name: String,
    capacity: usize,
    epoch: Instant,
    seq: AtomicU64,
    ring: Mutex<VecDeque<Event>>,
}

impl FlightRecorder {
    /// A recorder keeping at most `capacity` recent events.
    pub fn new(name: impl Into<String>, capacity: usize) -> FlightRecorder {
        FlightRecorder {
            name: name.into(),
            capacity: capacity.max(1),
            epoch: Instant::now(),
            seq: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// The recorder's name (used in dump file names).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Records one event, evicting the oldest once the ring is full.
    #[inline]
    pub fn record(&self, trace_id: u64, label: &'static str, detail: impl FnOnce() -> String) {
        let event = Event {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            at_micros: self.epoch.elapsed().as_micros() as u64,
            trace_id,
            label,
            detail: detail(),
        };
        let mut ring = self.ring.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(event);
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.lock().len()
    }

    /// Whether no event is held.
    pub fn is_empty(&self) -> bool {
        self.ring.lock().is_empty()
    }

    /// Point-in-time copy of the ring, oldest first.
    pub fn snapshot(&self) -> Vec<Event> {
        self.ring.lock().iter().cloned().collect()
    }

    /// Renders the dump artifact: reason, recorder identity, the event
    /// timeline, the span ring's recent records (in-flight spans
    /// included — a crash shows what never finished), and the
    /// accompanying metrics snapshot.
    pub fn dump_json(&self, reason: &str, metrics: &Snapshot) -> String {
        let events: Vec<String> = self
            .snapshot()
            .iter()
            .map(|e| {
                format!(
                    "    {{\"seq\":{},\"at_micros\":{},\"trace_id\":\"{:#018x}\",\
                     \"label\":\"{}\",\"detail\":\"{}\"}}",
                    e.seq,
                    e.at_micros,
                    e.trace_id,
                    escape(e.label),
                    escape(&e.detail)
                )
            })
            .collect();
        format!(
            "{{\n  \"recorder\": \"{}\",\n  \"reason\": \"{}\",\n  \"events\": [\n{}\n  ],\n  \"spans\": {},\n  \"metrics\": {}\n}}\n",
            escape(&self.name),
            escape(reason),
            events.join(",\n"),
            crate::spans_dump_json(256),
            metrics.to_json()
        )
    }

    /// Writes the dump artifact into `dir` and returns its path.
    pub fn dump_to_dir(
        &self,
        dir: &Path,
        reason: &str,
        metrics: &Snapshot,
    ) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!(
            "{}-{}-{}.json",
            self.name,
            std::process::id(),
            DUMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&path, self.dump_json(reason, metrics))?;
        Ok(path)
    }

    /// Writes the dump artifact into the default dump directory:
    /// `$PPMS_OBS_DIR` if set, else the workspace's `target/obs/`.
    pub fn dump(&self, reason: &str, metrics: &Snapshot) -> std::io::Result<PathBuf> {
        let dir = std::env::var("PPMS_OBS_DIR")
            .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/obs").into());
        self.dump_to_dir(Path::new(&dir), reason, metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded_and_ordered() {
        let r = FlightRecorder::new("t", 3);
        for i in 0..5u64 {
            r.record(i, "evt", || format!("n{i}"));
        }
        let events = r.snapshot();
        assert_eq!(events.len(), 3);
        // Oldest two evicted; seq keeps counting.
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert_eq!(events[0].trace_id, 2);
        assert_eq!(events[2].detail, "n4");
    }

    #[test]
    fn dump_contains_trace_and_reason() {
        let r = FlightRecorder::new("shard0", 8);
        r.record(0xABCD, "handle", || "withdrawal-request".into());
        let json = r.dump_json("panic: boom", &Snapshot::default());
        assert!(json.contains("\"recorder\": \"shard0\""));
        assert!(json.contains("panic: boom"));
        assert!(json.contains("0x000000000000abcd"));
        assert!(json.contains("withdrawal-request"));
    }

    #[test]
    fn dump_to_dir_writes_file() {
        let dir = std::env::temp_dir().join(format!("ppms-obs-test-{}", std::process::id()));
        let r = FlightRecorder::new("shard1", 8);
        r.record(7, "evt", || "x".into());
        let path = r
            .dump_to_dir(&dir, "test", &Snapshot::default())
            .expect("dump");
        let body = std::fs::read_to_string(&path).expect("read back");
        assert!(body.contains("\"reason\": \"test\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}

//! `ppms-obs` — the observability substrate under the whole market
//! stack (bigint → crypto → ecash → core → bench all sit above it).
//!
//! Three pieces:
//!
//! * **causal spans** ([`SpanContext`], [`Span`]): a trace/span/parent
//!   id triple that rides the wire envelope, an RAII guard minting
//!   child contexts, and a process-global lock-free span ring exported
//!   as Chrome `trace_event` JSONL ([`export_trace_jsonl`]) — one
//!   request's retries, reactor phases, admission check, shard
//!   execution, WAL append and fsync as a single tree. The ring is
//!   the only event store: a crash dump ([`write_dump`]) is its most
//!   recent records plus a metrics [`Snapshot`].
//! * a **metrics registry** ([`Registry`]) of named atomic
//!   [`Counter`]s, [`Gauge`]s and log₂-bucketed [`Histogram`]s.
//!   Handles are `Arc`s resolved once; updates are relaxed atomics —
//!   cheap enough for the modular-exponentiation hot path. Every
//!   registry exports one mergeable [`Snapshot`], so per-shard
//!   registries aggregate the same way single registries read.
//! * **span-style timing** via the [`Timed`] RAII guard over a
//!   monotonic clock, plus the [`timed!`] / [`count!`] macros that
//!   cache a global-registry handle per call site.
//!
//! # The runtime switch
//!
//! [`set_enabled`]`(false)` turns the *timing* surface — clock reads
//! in [`Timed`] and causal spans — off at runtime (one relaxed bool
//! load per span), so instrumented and dark runs can be compared
//! inside one binary. Counters and gauges stay
//! live either way: Table I / Table II correctness depends on them,
//! and a relaxed `fetch_add` costs a few nanoseconds.

#![forbid(unsafe_code)]

mod hist;
mod json;
mod span;

pub use hist::{bucket_index, bucket_upper_bound, HistSnapshot, Histogram, BUCKETS};
pub use json::escape;
pub use span::{
    export_trace_jsonl, next_span_id, span_events, spans_dump_json, trace_dump_json, trace_events,
    Span, SpanContext, SpanEvent,
};

use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

// ---------------------------------------------------------------------------
// Scalar instruments
// ---------------------------------------------------------------------------

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Fresh zeroed counter.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins signed gauge (queue depths, circuit-breaker
/// states, ...).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Fresh zeroed gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative via [`Gauge::sub`]).
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct Inner {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

/// A named-instrument registry. Cloning shares the instruments
/// (mirroring the market's other shared handles); registration takes
/// a write lock once per name, after which updates go through the
/// returned `Arc` without touching the registry at all.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Registry {
    /// Fresh empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn get_or_insert<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
        if let Some(found) = map.read().get(name) {
            return Arc::clone(found);
        }
        Arc::clone(
            map.write()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(T::default())),
        )
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Self::get_or_insert(&self.inner.counters, name)
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        Self::get_or_insert(&self.inner.gauges, name)
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        Self::get_or_insert(&self.inner.histograms, name)
    }

    /// Point-in-time copy of every instrument.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .inner
                .counters
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .inner
                .gauges
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .inner
                .histograms
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// A point-in-time copy of a whole [`Registry`] — the single export
/// type every telemetry consumer reads (the report binary, benches,
/// crash dumps).
/// Merging is associative and commutative; gauges merge by sum (the
/// shards' queue depths add).
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistSnapshot>,
}

impl Snapshot {
    /// A counter's value (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge's value (0 if absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// A histogram's snapshot, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistSnapshot> {
        self.histograms.get(name)
    }

    /// Sum of two snapshots — how shard-local registries aggregate.
    pub fn merge(&self, other: &Snapshot) -> Snapshot {
        let mut out = self.clone();
        for (k, v) in &other.counters {
            *out.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            *out.gauges.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.histograms {
            let merged = match out.histograms.get(k) {
                Some(mine) => mine.merge(v),
                None => v.clone(),
            };
            out.histograms.insert(k.clone(), merged);
        }
        out
    }

    /// Hand-rolled JSON (the workspace's serde_json is a build stub).
    pub fn to_json(&self) -> String {
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("\"{}\":{v}", escape(k)))
            .collect();
        let gauges: Vec<String> = self
            .gauges
            .iter()
            .map(|(k, v)| format!("\"{}\":{v}", escape(k)))
            .collect();
        let histograms: Vec<String> = self
            .histograms
            .iter()
            .map(|(k, v)| format!("\"{}\":{}", escape(k), v.to_json()))
            .collect();
        format!(
            "{{\"counters\":{{{}}},\"gauges\":{{{}}},\"histograms\":{{{}}}}}",
            counters.join(","),
            gauges.join(","),
            histograms.join(",")
        )
    }

    /// Prometheus-style text exposition (hand-rolled, stable order).
    /// Instrument names sanitize `.` and `-` to `_`; histograms render
    /// as summaries (`quantile` labels for p50/p90/p99/p999 plus
    /// `_sum`/`_count`/`_max`). This is what the TCP front door's ops
    /// plane serves to a scraper.
    pub fn to_prometheus(&self) -> String {
        fn sanitize(name: &str) -> String {
            name.chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect()
        }
        let mut out = String::new();
        for (k, v) in &self.counters {
            let n = sanitize(k);
            out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for (k, v) in &self.gauges {
            let n = sanitize(k);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {v}\n"));
        }
        for (k, h) in &self.histograms {
            let n = sanitize(k);
            out.push_str(&format!("# TYPE {n} summary\n"));
            for (q, v) in [
                ("0.5", h.p50()),
                ("0.9", h.p90()),
                ("0.99", h.p99()),
                ("0.999", h.p999()),
            ] {
                out.push_str(&format!("{n}{{quantile=\"{q}\"}} {v}\n"));
            }
            out.push_str(&format!(
                "{n}_sum {}\n{n}_count {}\n{n}_max {}\n",
                h.sum, h.count, h.max
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Global registry + runtime switch
// ---------------------------------------------------------------------------

/// The process-wide registry. Library layers with no registry to
/// thread (bigint, crypto, ecash) record here; the service keeps its
/// own per-instance [`Registry`] and merges both into one snapshot.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Runtime switch for the timing surface (spans and the [`timed!`]
/// paths). On by default.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Turns span timing on or off at runtime.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether span timing is live.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Crash dumps
// ---------------------------------------------------------------------------

/// The default crash-dump directory: `$PPMS_OBS_DIR` if set, else the
/// workspace's `target/obs/`.
pub fn dump_dir() -> PathBuf {
    std::env::var_os("PPMS_OBS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/obs").into())
}

/// Writes a crash dump — `reason`, the span ring's 256 most recent
/// records (in-flight spans included, so a crash shows what never
/// finished) and `metrics` — to `dir/{name}-{pid}-{seq}.json`,
/// announces it on stderr under the stable, greppable prefix
/// `flight-recorder dump:` and returns its path. With spans switched
/// off ([`set_enabled`]`(false)`) the dump carries metrics only.
pub fn write_dump(
    dir: &Path,
    name: &str,
    reason: &str,
    metrics: &Snapshot,
) -> std::io::Result<PathBuf> {
    // Process-wide, so concurrent dumps (parallel tests, several
    // shards crashing at once) never clobber each other's files.
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!(
        "{name}-{}-{}.json",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let body = format!(
        "{{\n  \"reason\": \"{}\",\n  \"spans\": {},\n  \"metrics\": {}\n}}\n",
        escape(reason),
        spans_dump_json(256),
        metrics.to_json()
    );
    std::fs::write(&path, body)?;
    eprintln!("flight-recorder dump: {}", path.display());
    Ok(path)
}

// ---------------------------------------------------------------------------
// Span timing
// ---------------------------------------------------------------------------

/// RAII span guard: measures the nanoseconds between construction and
/// drop on the monotonic clock and records them into a histogram.
/// With [`set_enabled`]`(false)` construction reads no clock and drop
/// records nothing.
#[derive(Debug)]
pub struct Timed<'a> {
    live: Option<(&'a Histogram, std::time::Instant)>,
}

impl<'a> Timed<'a> {
    /// Starts a span recording into `hist` on drop.
    #[inline]
    pub fn new(hist: &'a Histogram) -> Timed<'a> {
        Timed {
            live: enabled().then(|| (hist, std::time::Instant::now())),
        }
    }
}

impl Drop for Timed<'_> {
    #[inline]
    fn drop(&mut self) {
        if let Some((hist, start)) = self.live.take() {
            hist.record(start.elapsed().as_nanos() as u64);
        }
    }
}

/// Owned sibling of [`Timed`]: keeps its histogram handle alive by
/// `Arc`, for spans whose handle is looked up on the fly (per-op
/// histograms named at runtime) rather than borrowed from a cache.
#[derive(Debug)]
pub struct TimedOwned {
    live: Option<(Arc<Histogram>, std::time::Instant)>,
}

impl TimedOwned {
    /// Starts a span recording into `hist` on drop.
    #[inline]
    pub fn new(hist: Arc<Histogram>) -> TimedOwned {
        TimedOwned {
            live: enabled().then(|| (hist, std::time::Instant::now())),
        }
    }
}

impl Drop for TimedOwned {
    #[inline]
    fn drop(&mut self) {
        if let Some((hist, start)) = self.live.take() {
            hist.record(start.elapsed().as_nanos() as u64);
        }
    }
}

/// Starts a [`Timed`] span against a global-registry histogram,
/// resolving (and caching) the handle once per call site:
///
/// ```
/// fn hot_path() {
///     let _span = ppms_obs::timed!("ring.pow");
///     // ... work measured in nanoseconds into "ring.pow" ...
/// }
/// ```
#[macro_export]
macro_rules! timed {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        $crate::Timed::new(HANDLE.get_or_init(|| $crate::global().histogram($name)))
    }};
}

/// Bumps a global-registry counter, resolving (and caching) the
/// handle once per call site. Counters stay live with timing off.
#[macro_export]
macro_rules! count {
    ($name:expr) => {
        $crate::count!($name, 1)
    };
    ($name:expr, $n:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        HANDLE
            .get_or_init(|| $crate::global().counter($name))
            .add($n)
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Held by every test that flips, or needs, the process-wide span
    /// switch, so no test sees spans dark because another turned them off.
    static SWITCH: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn counters_and_gauges_always_count() {
        let r = Registry::new();
        let c = r.counter("c");
        c.inc();
        c.add(4);
        let g = r.gauge("g");
        g.set(7);
        g.sub(9);
        let s = r.snapshot();
        assert_eq!(s.counter("c"), 5);
        assert_eq!(s.gauge("g"), -2);
        assert_eq!(s.counter("absent"), 0);
    }

    #[test]
    fn handles_share_one_instrument() {
        let r = Registry::new();
        r.counter("x").inc();
        let r2 = r.clone();
        r2.counter("x").inc();
        assert_eq!(r.snapshot().counter("x"), 2);
    }

    #[test]
    fn spans_follow_runtime_switch() {
        // One test owns the global ENABLED toggle; SWITCH keeps the
        // tests that rely on it from racing with it.
        let _switch = SWITCH.lock().unwrap_or_else(|e| e.into_inner());
        let r = Registry::new();
        let h = r.histogram("span");
        {
            let _t = Timed::new(&h);
            std::hint::black_box(());
        }
        assert_eq!(h.snapshot().count, 1, "enabled span records");
        set_enabled(false);
        {
            let _t = Timed::new(&h);
        }
        set_enabled(true);
        assert_eq!(h.snapshot().count, 1, "dark span records nothing");
    }

    #[test]
    fn snapshot_json_shape() {
        let r = Registry::new();
        r.counter("a").add(3);
        r.gauge("g").set(-1);
        r.histogram("h").record(5);
        let json = r.snapshot().to_json();
        assert!(json.contains("\"a\":3"));
        assert!(json.contains("\"g\":-1"));
        assert!(json.contains("\"count\":1"));
    }

    #[test]
    fn dump_contains_trace_and_reason() {
        let _switch = SWITCH.lock().unwrap_or_else(|e| e.into_inner());
        const TRACE: u64 = 0xD0D0_0000_0000_ABCD;
        let dir = std::env::temp_dir().join(format!("ppms-obs-dump-{}", std::process::id()));
        let r = Registry::new();
        r.counter("dump.c").add(3);
        let span = Span::root("test.dump", TRACE);
        let path = write_dump(&dir, "shard9", "panic: boom", &r.snapshot()).expect("dump");
        drop(span);
        let body = std::fs::read_to_string(&path).expect("read back");
        std::fs::remove_dir_all(&dir).ok();
        assert!(body.contains("\"reason\": \"panic: boom\""), "{body}");
        assert!(body.contains("\"spans\": ["), "{body}");
        assert!(body.contains("0xd0d000000000abcd"), "{body}");
        assert!(body.contains("\"in_flight\":true"), "{body}");
        assert!(body.contains("\"metrics\": {"), "{body}");
        assert!(body.contains("\"dump.c\":3"), "{body}");
        assert!(!body.contains("\"events\""), "{body}");
    }

    #[test]
    fn dump_to_dir_writes_file() {
        let dir = std::env::temp_dir().join(format!("ppms-obs-dir-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let path = write_dump(&dir, "shard7", "test", &Registry::new().snapshot()).expect("dump");
        assert_eq!(path.parent(), Some(dir.as_path()));
        let name = path.file_name().and_then(|n| n.to_str()).expect("name");
        assert!(
            name.starts_with(&format!("shard7-{}-", std::process::id())) && name.ends_with(".json"),
            "{name}"
        );
        let body = std::fs::read_to_string(&path).expect("read back");
        std::fs::remove_dir_all(&dir).ok();
        assert!(body.contains("\"reason\": \"test\""), "{body}");
    }

    #[test]
    fn merge_sums_everything() {
        let a = Registry::new();
        a.counter("c").add(2);
        a.gauge("g").set(3);
        a.histogram("h").record(10);
        let b = Registry::new();
        b.counter("c").add(5);
        b.counter("only-b").inc();
        b.gauge("g").set(4);
        b.histogram("h").record(1 << 30);
        let m = a.snapshot().merge(&b.snapshot());
        assert_eq!(m.counter("c"), 7);
        assert_eq!(m.counter("only-b"), 1);
        assert_eq!(m.gauge("g"), 7);
        let h = m.histogram("h").expect("merged");
        assert_eq!(h.count, 2);
        assert_eq!(h.max, 1 << 30);
    }
}

//! Causal spans: a [`SpanContext`] that rides the wire envelope, an
//! RAII [`Span`] guard minting child contexts, and a process-global
//! lock-free **span ring** from which one trace's full causal tree can
//! be exported as Chrome `trace_event` JSONL — no dependencies, no
//! `unsafe`.
//!
//! # Context propagation
//!
//! A root span mints `{trace_id, span_id, parent_id: 0}`; every child
//! span keeps the trace id, mints a fresh span id and records its
//! parent's span id. The context crosses process/thread boundaries as
//! three `u64`s (the wire envelope's v4 header carries them), so the
//! server side of a request parents its spans to the client's — one
//! trace id stitches retransmits, reactor phases, admission, shard
//! execution, WAL appends and fsyncs into a single tree.
//!
//! # The ring
//!
//! Completed (and in-flight) spans land in a fixed-capacity
//! multi-producer ring of seqlock-stamped slots: a writer claims a
//! ticket with one `fetch_add`, stamps the slot odd, writes the
//! fields as relaxed atomics and stamps it back even; readers discard
//! any slot whose stamp is zero, odd, or changed under them.
//! Recording is a handful of relaxed stores — no locks, no allocation
//! — and a torn read is skipped, never blocked on. (The interior
//! field loads are relaxed: a racing reader can in principle pair a
//! stale field with a matching stamp, but readers are diagnostics —
//! the worst outcome is one garbled event in a dump, never UB; the
//! crate forbids `unsafe`.)
//!
//! Two records per span: a **begin** record at construction and a
//! **complete** record (with duration) at drop. A span that never
//! completed — in flight at a crash — is therefore visible in the
//! ring as a begin without a matching complete, which is exactly what
//! the crash dump ([`crate::write_dump`]) wants to show.
//!
//! # The runtime switch
//!
//! [`SpanContext`] is plain data and always propagates. The [`Span`]
//! guard obeys [`crate::set_enabled`]: switched off, it is a context
//! passthrough (no clock, no ring, no allocation — the alloc-counter
//! test pins this).

use crate::json::escape;
use std::sync::atomic::{AtomicU64, Ordering};

// ---------------------------------------------------------------------------
// SpanContext
// ---------------------------------------------------------------------------

/// The causal coordinates of one span — what crosses the wire.
/// `trace_id` names the whole logical operation (preserved verbatim
/// across retransmits), `span_id` names this span, `parent_id` the
/// span that caused it (0 for a root).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SpanContext {
    /// The logical operation this span belongs to (0 = untraced).
    pub trace_id: u64,
    /// This span's own id (0 = no span).
    pub span_id: u64,
    /// The causing span's id (0 = root).
    pub parent_id: u64,
}

impl SpanContext {
    /// The absent context: untraced, no span.
    pub const NONE: SpanContext = SpanContext {
        trace_id: 0,
        span_id: 0,
        parent_id: 0,
    };

    /// Whether this is the absent context.
    pub fn is_none(&self) -> bool {
        self.trace_id == 0 && self.span_id == 0
    }

    /// A context carrying a trace id alone (a caller with no span of
    /// its own: the trace propagates, span parentage starts fresh).
    pub fn from_trace(trace_id: u64) -> SpanContext {
        SpanContext {
            trace_id,
            span_id: 0,
            parent_id: 0,
        }
    }
}

/// Mints a process-unique span id (never 0).
pub fn next_span_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// One decoded span record from the ring. A span in flight (begun,
/// not yet dropped) has `dur_ns == None`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// This span's id.
    pub span_id: u64,
    /// The causing span's id (0 = root).
    pub parent_id: u64,
    /// Interned span name.
    pub name: &'static str,
    /// Small per-thread id (first-use order, not the OS tid).
    pub tid: u64,
    /// Start time, microseconds since the first span of the process.
    pub ts_micros: u64,
    /// Wall duration; `None` while the span is still in flight.
    pub dur_ns: Option<u64>,
}

// ---------------------------------------------------------------------------
// The span ring
// ---------------------------------------------------------------------------

mod live {
    use super::*;
    use parking_lot::RwLock;
    use std::cell::Cell;
    use std::sync::OnceLock;
    use std::time::Instant;

    /// Ring capacity (slots). Two records per span → the ring holds
    /// the last ~2048 spans, plenty for one request tree plus ambient
    /// traffic.
    pub(super) const RING_CAP: usize = 4096;

    /// Span names are `&'static str`s interned to small ids so ring
    /// slots stay plain `u64` atomics (no pointer smuggling — the
    /// crate forbids `unsafe`). The table is tiny (one entry per
    /// distinct call-site name) and read-mostly.
    fn name_table() -> &'static RwLock<Vec<&'static str>> {
        static NAMES: OnceLock<RwLock<Vec<&'static str>>> = OnceLock::new();
        NAMES.get_or_init(|| RwLock::new(Vec::new()))
    }

    pub(super) fn intern(name: &'static str) -> u32 {
        let table = name_table();
        if let Some(i) = table.read().iter().position(|&n| n == name) {
            return i as u32;
        }
        let mut w = table.write();
        if let Some(i) = w.iter().position(|&n| n == name) {
            return i as u32;
        }
        w.push(name);
        (w.len() - 1) as u32
    }

    pub(super) fn name_of(id: u32) -> &'static str {
        name_table().read().get(id as usize).copied().unwrap_or("?")
    }

    /// Small dense per-thread id (the OS tid is not portably a small
    /// integer; Chrome's viewer wants one).
    pub(super) fn current_tid() -> u64 {
        static NEXT_TID: AtomicU64 = AtomicU64::new(1);
        thread_local! {
            static TID: Cell<u64> = const { Cell::new(0) };
        }
        TID.with(|c| {
            if c.get() == 0 {
                c.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
            }
            c.get()
        })
    }

    /// Monotonic process anchor for `ts` (Chrome wants a shared
    /// microsecond clock, not per-span instants).
    pub(super) fn anchor() -> Instant {
        static ANCHOR: OnceLock<Instant> = OnceLock::new();
        *ANCHOR.get_or_init(Instant::now)
    }

    pub(super) fn now_micros() -> u64 {
        anchor().elapsed().as_micros() as u64
    }

    /// One seqlock-stamped slot. `seq == 0` = never written, odd =
    /// write in progress, even = consistent.
    #[derive(Default)]
    pub(super) struct Slot {
        seq: AtomicU64,
        trace: AtomicU64,
        span: AtomicU64,
        parent: AtomicU64,
        /// `name_id << 32 | tid << 1 | phase` (phase 1 = complete).
        meta: AtomicU64,
        ts: AtomicU64,
        dur: AtomicU64,
    }

    fn ring() -> &'static Vec<Slot> {
        static RING: OnceLock<Vec<Slot>> = OnceLock::new();
        RING.get_or_init(|| (0..RING_CAP).map(|_| Slot::default()).collect())
    }

    static HEAD: AtomicU64 = AtomicU64::new(0);

    pub(super) fn ring_record(
        ctx: SpanContext,
        name_id: u32,
        complete: bool,
        ts_micros: u64,
        dur_ns: u64,
    ) {
        let ticket = HEAD.fetch_add(1, Ordering::Relaxed);
        let slot = &ring()[(ticket as usize) % RING_CAP];
        slot.seq.store(ticket * 2 + 1, Ordering::Release);
        slot.trace.store(ctx.trace_id, Ordering::Relaxed);
        slot.span.store(ctx.span_id, Ordering::Relaxed);
        slot.parent.store(ctx.parent_id, Ordering::Relaxed);
        let meta =
            ((name_id as u64) << 32) | ((current_tid() & 0x7FFF_FFFF) << 1) | u64::from(complete);
        slot.meta.store(meta, Ordering::Relaxed);
        slot.ts.store(ts_micros, Ordering::Relaxed);
        slot.dur.store(dur_ns, Ordering::Relaxed);
        slot.seq.store(ticket * 2 + 2, Ordering::Release);
    }

    /// Decodes every consistent slot. Each span yields its most
    /// complete view: the complete record when present, else the
    /// begin record with `dur_ns = None`.
    pub(super) fn decode_ring() -> Vec<SpanEvent> {
        struct Raw {
            trace: u64,
            span: u64,
            parent: u64,
            meta: u64,
            ts: u64,
            dur: u64,
        }
        let mut raws: Vec<Raw> = Vec::with_capacity(RING_CAP);
        for slot in ring() {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 % 2 == 1 {
                continue;
            }
            let raw = Raw {
                trace: slot.trace.load(Ordering::Relaxed),
                span: slot.span.load(Ordering::Relaxed),
                parent: slot.parent.load(Ordering::Relaxed),
                meta: slot.meta.load(Ordering::Relaxed),
                ts: slot.ts.load(Ordering::Relaxed),
                dur: slot.dur.load(Ordering::Relaxed),
            };
            if slot.seq.load(Ordering::Acquire) != s1 {
                continue; // torn: a writer lapped us mid-read
            }
            raws.push(raw);
        }
        // Completed span ids (their begin records are subsumed).
        let completed: std::collections::HashSet<u64> = raws
            .iter()
            .filter(|r| r.meta & 1 == 1)
            .map(|r| r.span)
            .collect();
        let mut out: Vec<SpanEvent> = raws
            .iter()
            .filter(|r| r.meta & 1 == 1 || !completed.contains(&r.span))
            .map(|r| SpanEvent {
                trace_id: r.trace,
                span_id: r.span,
                parent_id: r.parent,
                name: name_of((r.meta >> 32) as u32),
                tid: (r.meta >> 1) & 0x7FFF_FFFF,
                ts_micros: r.ts,
                dur_ns: (r.meta & 1 == 1).then_some(r.dur),
            })
            .collect();
        out.sort_by_key(|e| (e.ts_micros, e.span_id));
        out
    }
}

// ---------------------------------------------------------------------------
// Span guard
// ---------------------------------------------------------------------------

/// RAII causal-span guard. Construction mints a child [`SpanContext`]
/// and writes a begin record into the ring; drop writes the complete
/// record with the measured duration. With spans disabled
/// ([`crate::set_enabled`]`(false)`) the guard is a pure context
/// passthrough: the trace id still propagates, nothing
/// is minted or recorded and nothing allocates.
#[derive(Debug)]
pub struct Span {
    ctx: SpanContext,
    live: Option<(u32, u64, std::time::Instant)>,
}

impl Span {
    /// Starts a root span for `trace_id` (no parent).
    pub fn root(name: &'static str, trace_id: u64) -> Span {
        Span::start(name, SpanContext::from_trace(trace_id))
    }

    /// Starts a child span of `parent` (same trace, fresh span id).
    pub fn child(name: &'static str, parent: SpanContext) -> Span {
        Span::start(name, parent)
    }

    fn start(name: &'static str, parent: SpanContext) -> Span {
        if !crate::enabled() {
            return Span {
                ctx: parent,
                live: None,
            };
        }
        let ctx = SpanContext {
            trace_id: parent.trace_id,
            span_id: next_span_id(),
            parent_id: parent.span_id,
        };
        let name_id = live::intern(name);
        let ts = live::now_micros();
        live::ring_record(ctx, name_id, false, ts, 0);
        Span {
            ctx,
            live: Some((name_id, ts, std::time::Instant::now())),
        }
    }

    /// This span's context — what children and wire envelopes carry.
    pub fn ctx(&self) -> SpanContext {
        self.ctx
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        if let Some((name_id, ts, started)) = self.live.take() {
            live::ring_record(
                self.ctx,
                name_id,
                true,
                ts,
                started.elapsed().as_nanos() as u64,
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------------

/// Every decodable span record currently in the ring, oldest first.
pub fn span_events() -> Vec<SpanEvent> {
    live::decode_ring()
}

/// The ring's records for one trace, oldest first.
pub fn trace_events(trace_id: u64) -> Vec<SpanEvent> {
    let mut events = span_events();
    events.retain(|e| e.trace_id == trace_id);
    events
}

/// One Chrome `trace_event` object (no trailing newline). Completed
/// spans are `ph:"X"` complete events; in-flight spans are `ph:"B"`
/// begins. Load the concatenated lines (wrapped in `[...]` or as-is —
/// the viewer accepts both) into `chrome://tracing` / Perfetto.
fn event_json(e: &SpanEvent) -> String {
    let args = format!(
        "\"args\":{{\"trace_id\":\"{:#018x}\",\"span_id\":{},\"parent_id\":{}}}",
        e.trace_id, e.span_id, e.parent_id
    );
    match e.dur_ns {
        Some(dur) => format!(
            "{{\"name\":\"{}\",\"cat\":\"ppms\",\"ph\":\"X\",\"ts\":{},\"dur\":{:.3},\"pid\":1,\"tid\":{},{}}}",
            escape(e.name),
            e.ts_micros,
            dur as f64 / 1e3,
            e.tid,
            args
        ),
        None => format!(
            "{{\"name\":\"{}\",\"cat\":\"ppms\",\"ph\":\"B\",\"ts\":{},\"pid\":1,\"tid\":{},{}}}",
            escape(e.name),
            e.ts_micros,
            e.tid,
            args
        ),
    }
}

/// Exports one trace's causal tree as Chrome `trace_event` JSONL —
/// one event object per line.
pub fn export_trace_jsonl(trace_id: u64) -> String {
    let mut out = String::new();
    for e in trace_events(trace_id) {
        out.push_str(&event_json(&e));
        out.push('\n');
    }
    out
}

/// A compact JSON array of the ring's most recent `limit` records —
/// what a crash dump ([`crate::write_dump`]) embeds so a post-mortem shows
/// the spans (including in-flight ones) around the failure.
pub fn spans_dump_json(limit: usize) -> String {
    let events = span_events();
    let skip = events.len().saturating_sub(limit);
    dump_cells(events.iter().skip(skip))
}

/// Like [`spans_dump_json`] but restricted to one trace — what a
/// slow-request log entry embeds as the request's causal tree.
pub fn trace_dump_json(trace_id: u64) -> String {
    dump_cells(trace_events(trace_id).iter())
}

fn dump_cells<'a>(events: impl Iterator<Item = &'a SpanEvent>) -> String {
    let cells: Vec<String> = events
        .map(|e| {
            format!(
                "{{\"name\":\"{}\",\"trace_id\":\"{:#018x}\",\"span_id\":{},\
                 \"parent_id\":{},\"tid\":{},\"ts_micros\":{},\"dur_ns\":{},\
                 \"in_flight\":{}}}",
                escape(e.name),
                e.trace_id,
                e.span_id,
                e.parent_id,
                e.tid,
                e.ts_micros,
                e.dur_ns.map_or_else(|| "null".into(), |d| d.to_string()),
                e.dur_ns.is_none()
            )
        })
        .collect();
    format!("[{}]", cells.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_helpers() {
        assert!(SpanContext::NONE.is_none());
        let c = SpanContext::from_trace(7);
        assert!(!c.is_none() || c.span_id == 0);
        assert_eq!(c.trace_id, 7);
        assert_eq!(c.parent_id, 0);
        assert_ne!(next_span_id(), 0);
        assert_ne!(next_span_id(), next_span_id());
    }

    #[test]
    fn spans_form_a_tree_in_the_ring() {
        let trace = 0xABCD_0000_0000_0001;
        let root = Span::root("test.root", trace);
        let child = Span::child("test.child", root.ctx());
        let grandchild = Span::child("test.grandchild", child.ctx());
        assert_eq!(grandchild.ctx().trace_id, trace);
        assert_eq!(grandchild.ctx().parent_id, child.ctx().span_id);
        let (root_ctx, child_ctx) = (root.ctx(), child.ctx());

        // While alive, the ring shows them in flight.
        let in_flight = trace_events(trace);
        assert!(in_flight
            .iter()
            .any(|e| e.span_id == root_ctx.span_id && e.dur_ns.is_none()));

        drop(grandchild);
        drop(child);
        drop(root);

        let events = trace_events(trace);
        assert_eq!(events.len(), 3, "{events:?}");
        let root_ev = events.iter().find(|e| e.name == "test.root").unwrap();
        let child_ev = events.iter().find(|e| e.name == "test.child").unwrap();
        let gc_ev = events.iter().find(|e| e.name == "test.grandchild").unwrap();
        assert_eq!(root_ev.parent_id, 0);
        assert_eq!(child_ev.parent_id, root_ctx.span_id);
        assert_eq!(gc_ev.parent_id, child_ctx.span_id);
        assert!(events.iter().all(|e| e.dur_ns.is_some()));

        let jsonl = export_trace_jsonl(trace);
        assert_eq!(jsonl.lines().count(), 3);
        assert!(jsonl.contains("\"ph\":\"X\""));
        assert!(jsonl.contains("test.grandchild"));
    }

    #[test]
    fn in_flight_span_appears_in_dump() {
        let trace = 0xABCD_0000_0000_0002;
        let root = Span::root("test.dangling", trace);
        let _keep = &root;
        let dump = spans_dump_json(4096);
        assert!(dump.contains("test.dangling"), "{dump}");
        assert!(dump.contains("\"in_flight\":true"));
        drop(root);
    }

    #[test]
    fn disabled_spans_pass_context_through() {
        // The trace id and the parent link always pass through. With
        // the runtime switch off the child *is* the parent context;
        // `tests/span_alloc.rs` pins that in its own binary, since
        // flipping the global toggle here would race the ring tests.
        let parent = SpanContext {
            trace_id: 42,
            span_id: 9,
            parent_id: 3,
        };
        let child = Span::child("test.live", parent);
        assert_eq!(child.ctx().trace_id, 42);
        assert_eq!(child.ctx().parent_id, 9);
        assert_ne!(child.ctx().span_id, 0);
    }
}

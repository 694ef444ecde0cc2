//! The benchmark's own spans, kept in memory and written out at the
//! end of a traced run.
//!
//! The benchmark records a span around every wallet call and every RPC
//! it makes; the spans of one market round share its trace id. For a
//! sample of rounds (or open-loop requests) the span context also rides
//! the request envelope, so the program's own spans (`tcp.read` →
//! `shard.handle` → `wal.append` → `storage.fsync`) attach under the
//! benchmark's RPC span. Those are copied out of the program's span
//! ring with `export_trace_jsonl` as soon as the sample completes: the
//! ring holds 4096 events, so only a sample survives, not every round.

use crate::common::Report;
use ppms_core::transport::next_trace_id;
use ppms_obs::{next_span_id, Span, SpanContext, SpanEvent};
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;
use std::time::Instant;

/// One span recorded by the benchmark.
#[derive(Debug, Clone)]
pub struct BenchSpan {
    /// Layer-qualified name (`round`, `wallet.keygen`, `rpc.balance`).
    pub name: &'static str,
    /// Shared by every span of one round.
    pub trace_id: u64,
    /// This span.
    pub span_id: u64,
    /// The enclosing span (0 for a round).
    pub parent_id: u64,
    /// Start.
    pub start: Instant,
    /// Duration.
    pub dur_ns: u64,
}

/// Self time of one span name over the exported samples.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfTime {
    /// Spans seen.
    pub count: u64,
    /// Total duration minus the part of it covered by child spans.
    pub self_ns: u64,
}

/// Collects exported span trees and their self times.
pub struct Tracer {
    anchor: Instant,
    /// The program's span clock (µs) at `anchor`, so both kinds of
    /// span land on one timeline in the exported file.
    obs_anchor_us: u64,
    lines: Mutex<Vec<String>>,
    self_times: Mutex<BTreeMap<&'static str, SelfTime>>,
    /// Span ids of the benchmark's open-loop request spans, by trace.
    requests: Mutex<HashMap<u64, u64>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer anchored to the program's span clock.
    pub fn new() -> Tracer {
        let trace = next_trace_id();
        let anchor = Instant::now();
        drop(Span::root("perfbench.clock", trace));
        let obs_anchor_us = ppms_obs::trace_events(trace)
            .first()
            .map_or(0, |e| e.ts_micros);
        Tracer {
            anchor,
            obs_anchor_us,
            lines: Mutex::new(Vec::new()),
            self_times: Mutex::new(BTreeMap::new()),
            requests: Mutex::new(HashMap::new()),
        }
    }

    /// A fresh span context for a sampled open-loop request.
    pub fn request_ctx(&self) -> SpanContext {
        let ctx = SpanContext {
            trace_id: next_trace_id(),
            span_id: next_span_id(),
            parent_id: 0,
        };
        self.requests
            .lock()
            .expect("tracer lock")
            .insert(ctx.trace_id, ctx.span_id);
        ctx
    }

    /// Records the benchmark span of a sampled open-loop request (due
    /// at `due`, answered at `done`) and exports the program's spans
    /// under it.
    pub fn export_request(&self, trace_id: u64, label: &'static str, due: Instant, done: Instant) {
        let Some(span_id) = self.requests.lock().expect("tracer lock").remove(&trace_id) else {
            return;
        };
        let span = BenchSpan {
            name: rpc_name(label),
            trace_id,
            span_id,
            parent_id: 0,
            start: due,
            dur_ns: done.saturating_duration_since(due).as_nanos() as u64,
        };
        self.export(trace_id, std::slice::from_ref(&span));
    }

    /// Writes out one sampled trace: the benchmark's spans plus
    /// whatever the program's ring still holds for `trace_id`, and
    /// adds the program spans' self times to the totals.
    pub fn export(&self, trace_id: u64, bench: &[BenchSpan]) {
        let ring = ppms_obs::trace_events(trace_id);
        let mut lines: Vec<String> = bench.iter().map(|s| self.bench_line(s)).collect();
        lines.extend(
            ppms_obs::export_trace_jsonl(trace_id)
                .lines()
                .map(str::to_string),
        );
        {
            let mut totals = self.self_times.lock().expect("tracer lock");
            for (name, ns) in self_times(&ring) {
                let t = totals.entry(name).or_default();
                t.count += 1;
                t.self_ns += ns;
            }
        }
        self.lines.lock().expect("tracer lock").extend(lines);
    }

    fn bench_line(&self, s: &BenchSpan) -> String {
        let ts = self.obs_anchor_us as i128
            + (s.start.saturating_duration_since(self.anchor).as_micros() as i128)
            - (self.anchor.saturating_duration_since(s.start).as_micros() as i128);
        format!(
            "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":{},\"dur\":{:.3},\"pid\":0,\"tid\":0,\
             \"args\":{{\"trace_id\":\"{:#018x}\",\"span_id\":{},\"parent_id\":{}}}}}",
            s.name,
            ts,
            s.dur_ns as f64 / 1e3,
            s.trace_id,
            s.span_id,
            s.parent_id
        )
    }

    /// The exported lines (Chrome `trace_event` JSONL).
    fn jsonl(&self) -> String {
        let mut out = self.lines.lock().expect("tracer lock").join("\n");
        out.push('\n');
        out
    }

    /// Adds the sampled self time per program span name to the
    /// report's detail lines and hands it the exported spans.
    pub fn report_into(&self, report: &mut Report) {
        for (name, st) in self.self_times.lock().expect("tracer lock").iter() {
            report.detail.push(format!(
                "sampled self time {name:<24} {:>9.1}us over {} spans",
                st.self_ns as f64 / 1e3 / st.count.max(1) as f64,
                st.count
            ));
        }
        report.trace_jsonl = Some(self.jsonl());
    }
}

/// The benchmark's span name for an RPC with the given request label.
pub fn rpc_name(label: &'static str) -> &'static str {
    match label {
        "job-registration" => "rpc.job-registration",
        "labor-registration" => "rpc.labor-registration",
        "labor-fetch" => "rpc.labor-fetch",
        "withdrawal-request" => "rpc.withdrawal-request",
        "payment-submission" => "rpc.payment-submission",
        "data-report" => "rpc.data-report",
        "payment-fetch" => "rpc.payment-fetch",
        "data-fetch" => "rpc.data-fetch",
        "deposit" => "rpc.deposit",
        "balance" => "rpc.balance",
        _ => "rpc.other",
    }
}

/// Each completed span's duration minus the part of its interval that
/// its direct children cover, keyed by span name.
pub fn self_times(events: &[SpanEvent]) -> Vec<(&'static str, u64)> {
    let interval = |e: &SpanEvent| {
        let start = e.ts_micros * 1000;
        (start, start + e.dur_ns.unwrap_or(0))
    };
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for e in events.iter().filter(|e| e.dur_ns.is_some()) {
        children.entry(e.parent_id).or_default().push(interval(e));
    }
    events
        .iter()
        .filter(|e| e.dur_ns.is_some())
        .map(|e| {
            let (lo, hi) = interval(e);
            let mut kids: Vec<(u64, u64)> = children
                .get(&e.span_id)
                .map(|k| {
                    k.iter()
                        .map(|&(a, b)| (a.max(lo), b.min(hi)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = lo;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (e.name, (hi - lo).saturating_sub(covered))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(span: u64, parent: u64, ts_us: u64, dur_us: u64) -> SpanEvent {
        SpanEvent {
            trace_id: 1,
            span_id: span,
            parent_id: parent,
            name: if parent == 0 { "outer" } else { "inner" },
            tid: 1,
            ts_micros: ts_us,
            dur_ns: Some(dur_us * 1000),
        }
    }

    #[test]
    fn self_time_subtracts_the_covered_part_of_the_interval_once() {
        // Two overlapping children inside [0, 100) and one running past
        // its end: covered = [10, 40) + [90, 100) = 40 µs.
        let events = [
            ev(1, 0, 0, 100),
            ev(2, 1, 10, 20),
            ev(3, 1, 20, 20),
            ev(4, 1, 90, 50),
        ];
        let outer = self_times(&events)
            .into_iter()
            .find(|(n, _)| *n == "outer")
            .expect("outer");
        assert_eq!(outer.1, 60_000);
    }
}

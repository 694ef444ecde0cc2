//! The transport layer: traffic accounting (the instrumentation
//! behind the paper's **Table II**, "communication traffic
//! comparing") plus the pluggable client↔MA [`Transport`] backends.
//!
//! Every protocol message passes through [`TrafficLog::record`] with
//! its byte size; the log then answers per-party input/output totals
//! exactly the way Table II tabulates them (bytes in / bytes out per
//! party, grand total in kilobytes). Frames that the simulated
//! network eats are accounted separately ([`TrafficLog::dropped_bytes`])
//! — a dropped frame never reached its receiver, so it must not
//! inflate the receiver's input column.
//!
//! The stack is stratified into three layers (DESIGN.md §13):
//!
//! 1. **Byte-stream** ([`crate::stream::ByteStream`]) — anything that
//!    moves bytes: a TCP socket, a fault-injecting decorator.
//! 2. **Framing/session** ([`crate::frame`]) — length-prefixed
//!    envelope + FNV-1a trailer over a stream, with partial-read
//!    reassembly ([`crate::frame::FrameDecoder`]) and bounded write
//!    buffering ([`crate::frame::WriteQueue`]).
//! 3. **Typed request/response** — this module's [`Transport`] trait,
//!    which the rest of the system talks to.
//!
//! Three [`Transport`] implementations carry requests into the
//! service's shard queues:
//!
//! * [`InProcTransport`] moves the enums over channels directly —
//!   zero copies, no accounting; the fast default for tests. It
//!   deliberately bypasses strata 1–2 (there are no bytes to frame).
//! * [`SimNetTransport`] serializes every message into a
//!   [`wire::Envelope`](crate::wire::Envelope), applies the faults of
//!   a [`FaultPlan`] (latency, jitter, drop, duplication, stale
//!   replay, corruption), records the **actual encoded size** in the
//!   [`TrafficLog`], runs the arriving bytes through the stratum-2
//!   [`FrameDecoder`](crate::frame::FrameDecoder), and decodes on the
//!   far side — so a market run over it yields real Table II numbers,
//!   and any value that cannot survive its own encoding fails loudly.
//! * [`crate::tcp::TcpTransport`] sends the same frames over a real
//!   socket to a [`crate::tcp::TcpFrontDoor`], passing the
//!   [`crate::gate::AdmissionGate`]'s e-cash paywall first.
//!
//! [`crate::retry::RetryingTransport`] wraps any of them at stratum 3
//! — retries are about logical requests, not bytes, so the retry
//! layer is transport-agnostic by construction.
//!
//! Every request travels under a client-chosen idempotency key
//! `(party, request_id)` — the envelope's `msg_id` carries the id.
//! A retry layer (see [`crate::retry`]) reuses the same id across
//! retransmits so the service can recognize "same request, sent
//! again" and replay its cached answer instead of re-executing.

use crate::error::MarketError;
use crate::metrics::Party;
use crate::service::{MaRequest, MaResponse, RequestKey, ShardRouter};
use crate::wire::Envelope;
use parking_lot::Mutex;
use ppms_obs::{Counter, Registry, SpanContext};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// One recorded message.
#[derive(Debug, Clone)]
pub struct TrafficEntry {
    /// Sender.
    pub from: Party,
    /// Receiver.
    pub to: Party,
    /// Payload size in bytes.
    pub bytes: usize,
    /// Protocol step label (for debugging and the detailed report).
    pub label: &'static str,
}

/// Number of [`Party`] variants (handle array size).
const PARTY_COUNT: usize = 3;

/// Dense index of a party in the counter-handle arrays.
fn party_index(party: Party) -> usize {
    match party {
        Party::Jo => 0,
        Party::Sp => 1,
        Party::Ma => 2,
    }
}

/// Lower-case party tag used in registry metric names.
fn party_key(index: usize) -> &'static str {
    ["jo", "sp", "ma"][index]
}

/// Shared, thread-safe message log — a thin view over a
/// [`ppms_obs::Registry`]: the byte totals live in registry counters
/// (`traffic.in.<party>`, `traffic.out.<party>`, `traffic.total`,
/// `traffic.dropped.*`), so one [`Registry::snapshot`] carries the
/// whole Table II alongside every other metric. Only the per-message
/// entry list (labels, for the privacy tests and the detailed report)
/// is kept here.
#[derive(Debug, Clone)]
pub struct TrafficLog {
    entries: Arc<Mutex<Vec<TrafficEntry>>>,
    registry: Registry,
    input: [Arc<Counter>; PARTY_COUNT],
    output: [Arc<Counter>; PARTY_COUNT],
    total: Arc<Counter>,
    frames: Arc<Counter>,
    dropped_frames: Arc<Counter>,
    dropped_bytes: Arc<Counter>,
}

impl Default for TrafficLog {
    fn default() -> TrafficLog {
        TrafficLog::in_registry(&Registry::new())
    }
}

impl TrafficLog {
    /// Fresh empty log over its own private registry (one log per
    /// market run; a process-global registry would bleed bytes across
    /// concurrent markets).
    pub fn new() -> TrafficLog {
        TrafficLog::default()
    }

    /// A log whose totals are counters in `registry` — how the
    /// service exports traffic through the same snapshot as its
    /// latency and fault metrics.
    pub fn in_registry(registry: &Registry) -> TrafficLog {
        TrafficLog {
            entries: Arc::new(Mutex::new(Vec::new())),
            registry: registry.clone(),
            input: std::array::from_fn(|i| {
                registry.counter(&format!("traffic.in.{}", party_key(i)))
            }),
            output: std::array::from_fn(|i| {
                registry.counter(&format!("traffic.out.{}", party_key(i)))
            }),
            total: registry.counter("traffic.total"),
            frames: registry.counter("traffic.frames"),
            dropped_frames: registry.counter("traffic.dropped.frames"),
            dropped_bytes: registry.counter("traffic.dropped.bytes"),
        }
    }

    /// The registry holding this log's totals.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Records one delivered message, maintaining the running totals.
    pub fn record(&self, from: Party, to: Party, label: &'static str, bytes: usize) {
        self.entries.lock().push(TrafficEntry {
            from,
            to,
            bytes,
            label,
        });
        self.output[party_index(from)].add(bytes as u64);
        self.input[party_index(to)].add(bytes as u64);
        self.total.add(bytes as u64);
        self.frames.inc();
    }

    /// Records a frame the network ate. Lost frames never reached a
    /// receiver, so they stay out of the per-party Table II columns
    /// and are tallied on their own.
    pub fn record_dropped(&self, bytes: usize) {
        self.dropped_frames.inc();
        self.dropped_bytes.add(bytes as u64);
    }

    /// Bytes received by `party` (O(1) — a counter read).
    pub fn input_bytes(&self, party: Party) -> usize {
        self.input[party_index(party)].get() as usize
    }

    /// Bytes sent by `party` (O(1) — a counter read).
    pub fn output_bytes(&self, party: Party) -> usize {
        self.output[party_index(party)].get() as usize
    }

    /// Total bytes on the wire (O(1) — a counter read).
    pub fn total_bytes(&self) -> usize {
        self.total.get() as usize
    }

    /// Bytes lost to simulated drops/corruption.
    pub fn dropped_bytes(&self) -> usize {
        self.dropped_bytes.get() as usize
    }

    /// Frames lost to simulated drops/corruption.
    pub fn dropped_frames(&self) -> usize {
        self.dropped_frames.get() as usize
    }

    /// Total in kilobytes (the unit of Table II's last column).
    pub fn total_kb(&self) -> f64 {
        self.total_bytes() as f64 / 1024.0
    }

    /// Number of messages recorded.
    pub fn message_count(&self) -> usize {
        self.entries.lock().len()
    }

    /// Snapshot of all entries.
    pub fn snapshot(&self) -> Vec<TrafficEntry> {
        self.entries.lock().clone()
    }

    /// `true` if any recorded plaintext label matches `label`.
    /// Used by privacy tests to assert what the MA could observe.
    pub fn has_label(&self, label: &str) -> bool {
        self.entries.lock().iter().any(|e| e.label == label)
    }
}

// ---------------------------------------------------------------------------
// Transport backends
// ---------------------------------------------------------------------------

/// Per-process id nonce occupying the high 16 bits of every minted
/// request/trace id. A bare process-global counter is unique within
/// one process but *collides across processes*: two client binaries
/// dialing the same MA over TCP would both start their ids at 1 and
/// poison each other's entries in the idempotency dedup cache. The
/// vendored `rand` has no OS entropy source (its global seeding is a
/// deterministic counter, identical in every process), so the nonce
/// is FNV-1a-mixed from three values that genuinely differ between
/// processes: the wall-clock nanos at first use, the OS pid, and the
/// ASLR-randomized address of a static.
fn process_nonce() -> u64 {
    static NONCE: OnceLock<u64> = OnceLock::new();
    *NONCE.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let pid = std::process::id() as u64;
        let aslr = &NONCE as *const _ as u64;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for word in [nanos, pid, aslr] {
            for byte in word.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        // Only the low 16 bits survive into the id layout; make sure
        // they are non-zero so trace ids can never be 0 even if a
        // counter ever wrapped.
        let hi = (h >> 48) ^ (h & 0xffff);
        hi.max(1)
    })
}

/// Bits of the per-process counter kept in an id; the nonce sits
/// above them.
const ID_COUNTER_BITS: u32 = 48;

fn mint_id(counter: &AtomicU64) -> u64 {
    let low = counter.fetch_add(1, Ordering::Relaxed) & ((1 << ID_COUNTER_BITS) - 1);
    (process_nonce() << ID_COUNTER_BITS) | low
}

/// Process-wide request-id source. Ids must be unique per party for
/// the service's idempotency cache to be correct — including across
/// *processes* once clients dial in over TCP, so every id carries the
/// per-process nonce in its high 16 bits over a 48-bit process-local
/// counter.
static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);

/// Allocates a fresh idempotency request id.
pub fn next_request_id() -> u64 {
    mint_id(&NEXT_REQUEST_ID)
}

/// Process-wide trace-id source. A trace id is minted once at the
/// originating client and then preserved verbatim across retransmits,
/// shard hops and the response leg, so every event a logical request
/// causes carries the same id. 0 is reserved for "no trace context";
/// the non-zero process nonce in the high bits guarantees minted ids
/// never collide with it.
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// Allocates a fresh trace id (never 0).
pub fn next_trace_id() -> u64 {
    mint_id(&NEXT_TRACE_ID)
}

/// A synchronous request/response channel to the MA service.
///
/// `round_trip` blocks until the MA answers (or the transport fails);
/// implementations decide whether messages travel as in-memory enums
/// or as serialized wire frames.
///
/// The spanned form is the one primitive: `request_id` is the client's
/// idempotency token, and sending the *same* `(from, request_id)`
/// again is a retransmit — the service replays its cached response
/// instead of re-executing. `ctx` is the caller's [`SpanContext`],
/// carried whole so the far side parents its own spans to the caller's
/// (pass `SpanContext::from_trace(id)` to pin only a trace id).
/// [`Transport::round_trip`] allocates a fresh id per call; a retry
/// layer calls [`Transport::round_trip_keyed`] with one id for all
/// attempts of a logical request.
pub trait Transport: Send + Sync {
    /// Sends `request` on behalf of `from` under the idempotency key
    /// `(from, request_id)` and the span context `ctx`, and waits for
    /// the answer.
    fn round_trip_spanned(
        &self,
        from: Party,
        request_id: u64,
        ctx: SpanContext,
        request: MaRequest,
    ) -> Result<MaResponse, MarketError>;

    /// Like [`Transport::round_trip_spanned`] under a freshly minted
    /// trace id (see [`next_trace_id`]).
    fn round_trip_keyed(
        &self,
        from: Party,
        request_id: u64,
        request: MaRequest,
    ) -> Result<MaResponse, MarketError> {
        let ctx = SpanContext::from_trace(next_trace_id());
        self.round_trip_spanned(from, request_id, ctx, request)
    }

    /// Sends `request` as a fresh (never-retried) logical request
    /// under a freshly minted trace id.
    fn round_trip(&self, from: Party, request: MaRequest) -> Result<MaResponse, MarketError> {
        self.round_trip_keyed(from, next_request_id(), request)
    }
}

/// Protocol-step label of a request — the Table II row its bytes are
/// accounted under. Shared with the single-threaded drivers so the
/// privacy tests' label assertions hold on either path.
pub fn request_label(request: &MaRequest) -> &'static str {
    match request {
        MaRequest::RegisterJoAccount { .. } => "register-jo",
        MaRequest::RegisterSpAccount => "register-sp",
        MaRequest::PublishJob { .. } => "job-registration",
        MaRequest::Withdraw { .. } => "withdrawal-request",
        MaRequest::LaborRegister { .. } => "labor-registration",
        MaRequest::FetchLabor { .. } => "labor-fetch",
        MaRequest::SubmitPayment { .. } => "payment-submission",
        MaRequest::SubmitData { .. } => "data-report",
        MaRequest::FetchPayment { .. } => "payment-fetch",
        MaRequest::FetchData { .. } => "data-fetch",
        MaRequest::DepositBatch { .. } => "deposit",
        MaRequest::Balance { .. } => "balance",
    }
}

/// Protocol-step label of a response (see [`request_label`]).
pub fn response_label(response: &MaResponse) -> &'static str {
    match response {
        MaResponse::Account(_) => "account",
        MaResponse::JobId(_) => "job-id",
        MaResponse::BlindSignature(_) => "e-cash",
        MaResponse::Ok => "ack",
        MaResponse::Labor(_) => "labor-forward",
        MaResponse::Payment(_) => "payment-delivery",
        MaResponse::Data(_) => "data-delivery",
        MaResponse::BatchDeposited { .. } => "deposit-result",
        MaResponse::Balance(_) => "balance",
        MaResponse::Err(_) => "error",
        MaResponse::Busy => "busy",
    }
}

/// In-process transport: requests travel as enums straight into the
/// shard queues — zero serialization overhead, and the idempotency key
/// rides alongside the enum.
pub struct InProcTransport {
    router: ShardRouter,
}

impl InProcTransport {
    /// Wraps the service's router.
    pub fn new(router: ShardRouter) -> InProcTransport {
        InProcTransport { router }
    }
}

impl Transport for InProcTransport {
    fn round_trip_spanned(
        &self,
        from: Party,
        request_id: u64,
        ctx: SpanContext,
        request: MaRequest,
    ) -> Result<MaResponse, MarketError> {
        let key = RequestKey {
            party: from,
            request_id,
        };
        self.router.call(key, ctx, request)
    }
}

/// Knobs for the simulated network.
#[derive(Debug, Clone, Copy)]
pub struct SimNetConfig {
    /// Fixed one-way latency added to every message.
    pub latency_micros: u64,
    /// Uniform random extra delay in `[0, jitter_micros]` per message.
    pub jitter_micros: u64,
    /// Probability in `[0, 1]` that a message is dropped (the caller
    /// sees [`MarketError::Transport`]).
    pub drop_rate: f64,
    /// Seed for the jitter/drop randomness (deterministic runs).
    pub seed: u64,
}

impl Default for SimNetConfig {
    fn default() -> Self {
        SimNetConfig {
            latency_micros: 0,
            jitter_micros: 0,
            drop_rate: 0.0,
            seed: 0,
        }
    }
}

/// A full chaos schedule for the simulated network: the base
/// [`SimNetConfig`] plus the misbehaviors a real lossy network adds
/// on top of plain loss. One seed (in `net.seed`) drives every
/// decision, so a fault schedule is reproducible from the plan alone.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultPlan {
    /// Latency / jitter / drop / seed of the underlying network.
    pub net: SimNetConfig,
    /// Probability that a delivered request frame is delivered a
    /// second time (duplication — exercises the idempotency cache).
    pub duplicate_rate: f64,
    /// Probability that, before a request is delivered, one random
    /// *historical* request frame is re-delivered first (a late,
    /// out-of-order copy — exercises idempotency against reordering).
    pub reorder_rate: f64,
    /// Probability that a frame is corrupted in flight (one byte
    /// flipped). The receiver's integrity trailer rejects it, which
    /// the sender observes as loss.
    pub corrupt_rate: f64,
}

impl From<SimNetConfig> for FaultPlan {
    fn from(net: SimNetConfig) -> FaultPlan {
        FaultPlan {
            net,
            ..FaultPlan::default()
        }
    }
}

/// What the simulated network did to one frame in flight.
enum HopFate {
    /// Arrived intact.
    Deliver,
    /// Eaten by the network.
    Drop,
    /// Arrived with a flipped byte.
    Corrupt,
}

/// How many delivered request frames the chaos layer keeps for
/// stale-replay (reorder) injection. Bounded so a long run cannot
/// hoard frames.
const REPLAY_HISTORY: usize = 64;

/// Simulated-network transport: every message is encoded into a wire
/// [`Envelope`], subjected to the [`FaultPlan`], counted in the
/// [`TrafficLog`] at its actual encoded size **only if it arrived**,
/// and decoded before dispatch — so nothing crosses that a real wire
/// could not carry, and nothing the network ate is billed to a
/// receiver that never saw it.
pub struct SimNetTransport {
    router: ShardRouter,
    traffic: TrafficLog,
    faults: FaultPlan,
    next_id: AtomicU64,
    rng: Mutex<StdRng>,
    /// Recently delivered request frames, fodder for stale-replay.
    history: Mutex<Vec<Vec<u8>>>,
}

impl SimNetTransport {
    /// Builds a fault-free (beyond `config`'s latency/drop) transport
    /// feeding the given service router and log.
    pub fn new(router: ShardRouter, traffic: TrafficLog, config: SimNetConfig) -> SimNetTransport {
        SimNetTransport::with_faults(router, traffic, FaultPlan::from(config))
    }

    /// Builds a transport running the full chaos schedule.
    pub fn with_faults(
        router: ShardRouter,
        traffic: TrafficLog,
        faults: FaultPlan,
    ) -> SimNetTransport {
        let rng = StdRng::seed_from_u64(faults.net.seed);
        SimNetTransport {
            router,
            traffic,
            faults,
            next_id: AtomicU64::new(1),
            rng: Mutex::new(rng),
            history: Mutex::new(Vec::new()),
        }
    }

    /// Draws `rate` against the shared RNG.
    fn roll(&self, rate: f64) -> bool {
        rate > 0.0 && self.rng.lock().random_bool(rate)
    }

    /// One simulated network hop: delay, then decide the frame's fate.
    fn hop(&self) -> HopFate {
        let net = self.faults.net;
        let (extra, fate) = {
            let mut rng = self.rng.lock();
            let extra = if net.jitter_micros > 0 {
                rng.random_range(0..=net.jitter_micros)
            } else {
                0
            };
            let fate = if net.drop_rate > 0.0 && rng.random_bool(net.drop_rate) {
                HopFate::Drop
            } else if self.faults.corrupt_rate > 0.0 && rng.random_bool(self.faults.corrupt_rate) {
                HopFate::Corrupt
            } else {
                HopFate::Deliver
            };
            (extra, fate)
        };
        let delay = net.latency_micros + extra;
        if delay > 0 {
            std::thread::sleep(Duration::from_micros(delay));
        }
        fate
    }

    /// Receiver-side handling of a corrupted frame: flip one byte
    /// past the fixed header, watch the integrity trailer reject it,
    /// and surface the loss to the sender as a transport error (a
    /// receiver discards corrupt frames; the sender just never hears
    /// back).
    fn corrupt_and_discard(&self, frame: &[u8]) -> MarketError {
        let mut mangled = frame.to_vec();
        let idx = {
            let mut rng = self.rng.lock();
            // Skip the 6-byte version+length header so the flip lands
            // in the checksummed region (body or trailer).
            rng.random_range(6..mangled.len() as u64) as usize
        };
        mangled[idx] ^= 0x40;
        debug_assert!(
            Envelope::<MaRequest>::from_bytes(&mangled).is_err()
                || Envelope::<MaResponse>::from_bytes(&mangled).is_err(),
            "flipped frame must not decode cleanly"
        );
        self.traffic.record_dropped(frame.len());
        MarketError::Transport("corrupt frame discarded by receiver".into())
    }

    /// MA side: run the arriving bytes through the stratum-2
    /// [`FrameDecoder`] — the *same* splitter the TCP reactor uses —
    /// in two arbitrary chunks (so the reassembly path is exercised
    /// on every simnet request), decode the reassembled frame,
    /// dispatch it under its envelope key, and wait for the reply.
    fn dispatch(&self, frame: &[u8]) -> Result<MaResponse, MarketError> {
        let mut decoder = crate::frame::FrameDecoder::default();
        let cut = frame.len() / 2;
        decoder.push(&frame[..cut]);
        debug_assert!(
            matches!(decoder.next_frame(), Ok(None)),
            "half a frame must not yield"
        );
        decoder.push(&frame[cut..]);
        let reassembled = decoder
            .next_frame()?
            .ok_or_else(|| MarketError::Transport("frame decoder starved".into()))?;
        let envelope = Envelope::<MaRequest>::from_bytes(reassembled)?;
        let key = RequestKey {
            party: envelope.party,
            request_id: envelope.msg_id,
        };
        // The decoded frame's span context rides to the shard untouched
        // — a retransmitted or replayed frame carries the ids its
        // original client minted.
        self.router.call(key, envelope.span_ctx(), envelope.payload)
    }

    /// Remembers a delivered request frame as stale-replay fodder.
    fn remember(&self, frame: Vec<u8>) {
        let mut history = self.history.lock();
        if history.len() == REPLAY_HISTORY {
            history.remove(0);
        }
        history.push(frame);
    }

    /// Picks a random historical request frame, if any.
    fn stale_frame(&self) -> Option<Vec<u8>> {
        let history = self.history.lock();
        if history.is_empty() {
            return None;
        }
        let idx = self.rng.lock().random_range(0..history.len() as u64) as usize;
        Some(history[idx].clone())
    }
}

impl Transport for SimNetTransport {
    fn round_trip_spanned(
        &self,
        from: Party,
        request_id: u64,
        ctx: SpanContext,
        request: MaRequest,
    ) -> Result<MaResponse, MarketError> {
        // Client side: frame the request under its idempotency key —
        // a retransmit re-frames the same id, so the MA can tell
        // "same request again" from "new request". The span context
        // rides in the same header, identical across every retransmit.
        let trace_id = ctx.trace_id;
        let label = request_label(&request);
        let frame = Envelope {
            msg_id: request_id,
            correlation_id: 0,
            trace_id,
            span_id: ctx.span_id,
            parent_id: ctx.parent_id,
            party: from,
            payload: request,
        }
        .to_bytes();

        // Request hop. Traffic is recorded only after the frame
        // actually survives the network: a dropped frame must not
        // count as MA input it never received.
        match self.hop() {
            HopFate::Drop => {
                self.traffic.record_dropped(frame.len());
                return Err(MarketError::Transport("message dropped by network".into()));
            }
            HopFate::Corrupt => return Err(self.corrupt_and_discard(&frame)),
            HopFate::Deliver => {}
        }
        self.traffic.record(from, Party::Ma, label, frame.len());

        // Reorder injection: a late copy of an old request lands
        // first. Its reply goes nowhere (the original sender got the
        // first copy's answer long ago); the service must shrug it
        // off via the dedup cache.
        if self.roll(self.faults.reorder_rate) {
            if let Some(stale) = self.stale_frame() {
                let _ = self.dispatch(&stale);
            }
        }

        let response = self.dispatch(&frame)?;

        // Duplication injection: the network delivered the frame
        // twice. The second delivery's reply is discarded — but it
        // must not have re-executed the request.
        if self.roll(self.faults.duplicate_rate) {
            let _ = self.dispatch(&frame);
        }
        self.remember(frame);

        // MA side: frame and "send" the response. The response leg
        // carries the request's span context back, so a client can
        // correlate the answer with the events its request caused.
        let rframe = Envelope {
            msg_id: self.next_id.fetch_add(1, Ordering::Relaxed),
            correlation_id: request_id,
            trace_id,
            span_id: ctx.span_id,
            parent_id: ctx.parent_id,
            party: Party::Ma,
            payload: &response,
        }
        .to_bytes();
        let rlabel = response_label(&response);

        // Response hop. On loss the MA has already executed the
        // request — exactly the window where a blind retry would
        // double-spend, and why retransmits reuse the request id.
        match self.hop() {
            HopFate::Drop => {
                self.traffic.record_dropped(rframe.len());
                return Err(MarketError::Transport("response dropped by network".into()));
            }
            HopFate::Corrupt => return Err(self.corrupt_and_discard(&rframe)),
            HopFate::Deliver => {}
        }
        self.traffic.record(Party::Ma, from, rlabel, rframe.len());

        // Client side: decode the response frame.
        let renv = Envelope::<MaResponse>::from_bytes(&rframe)?;
        debug_assert_eq!(
            renv.trace_id, trace_id,
            "response must carry the request's trace context back"
        );
        Ok(renv.payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_per_party() {
        let log = TrafficLog::new();
        log.record(Party::Jo, Party::Ma, "job-reg", 100);
        log.record(Party::Ma, Party::Sp, "payment", 250);
        log.record(Party::Sp, Party::Ma, "deposit", 50);
        assert_eq!(log.output_bytes(Party::Jo), 100);
        assert_eq!(log.input_bytes(Party::Ma), 150);
        assert_eq!(log.output_bytes(Party::Ma), 250);
        assert_eq!(log.input_bytes(Party::Sp), 250);
        assert_eq!(log.total_bytes(), 400);
        assert_eq!(log.message_count(), 3);
    }

    #[test]
    fn kb_conversion() {
        let log = TrafficLog::new();
        log.record(Party::Jo, Party::Ma, "x", 2048);
        assert!((log.total_kb() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn dropped_frames_stay_out_of_party_totals() {
        let log = TrafficLog::new();
        log.record(Party::Jo, Party::Ma, "job-reg", 100);
        log.record_dropped(77);
        log.record_dropped(23);
        assert_eq!(log.dropped_frames(), 2);
        assert_eq!(log.dropped_bytes(), 100);
        assert_eq!(log.input_bytes(Party::Ma), 100);
        assert_eq!(log.total_bytes(), 100);
        assert_eq!(log.message_count(), 1);
    }

    #[test]
    fn running_totals_match_entry_scan() {
        let log = TrafficLog::new();
        let parties = [Party::Jo, Party::Sp, Party::Ma];
        for i in 0..30usize {
            let from = parties[i % 3];
            let to = parties[(i + 1 + i % 2) % 3];
            log.record(from, to, "msg", i * 7 + 1);
        }
        let entries = log.snapshot();
        for &p in &parties {
            let scan_in: usize = entries.iter().filter(|e| e.to == p).map(|e| e.bytes).sum();
            let scan_out: usize = entries
                .iter()
                .filter(|e| e.from == p)
                .map(|e| e.bytes)
                .sum();
            assert_eq!(log.input_bytes(p), scan_in);
            assert_eq!(log.output_bytes(p), scan_out);
        }
        let scan_total: usize = entries.iter().map(|e| e.bytes).sum();
        assert_eq!(log.total_bytes(), scan_total);
    }

    #[test]
    fn shared_between_clones() {
        let log = TrafficLog::new();
        let log2 = log.clone();
        log2.record(Party::Ma, Party::Jo, "fwd", 1);
        assert_eq!(log.message_count(), 1);
        assert!(log.has_label("fwd"));
        assert!(!log.has_label("nope"));
    }

    #[test]
    fn request_ids_are_unique() {
        let a = next_request_id();
        let b = next_request_id();
        assert_ne!(a, b);
    }

    #[test]
    fn ids_carry_the_process_nonce_in_the_high_bits() {
        let a = next_request_id();
        let b = next_request_id();
        let t = next_trace_id();
        // Same process → same non-zero nonce above the counter bits,
        // in request ids and trace ids alike.
        let nonce = a >> ID_COUNTER_BITS;
        assert_ne!(nonce, 0, "nonce must be non-zero so trace ids never hit 0");
        assert!(nonce <= 0xffff, "nonce occupies exactly the high 16 bits");
        assert_eq!(b >> ID_COUNTER_BITS, nonce);
        assert_eq!(t >> ID_COUNTER_BITS, nonce);
        // The low bits still increment within the process.
        let mask = (1u64 << ID_COUNTER_BITS) - 1;
        assert_eq!((b & mask).wrapping_sub(a & mask), 1);
        assert_ne!(t, 0);
    }
}

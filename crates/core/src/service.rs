//! The market administrator as a **message-passing service** — the
//! paper's Fig. 1 system model made concrete: JOs and SPs are
//! independent threads that talk to the MA exclusively through a
//! [`crate::transport::Transport`], and the MA enforces the
//! protocol rules (publish, forward, hold payments until data arrives,
//! verify deposits).
//!
//! Internally the service is **N self-supervising shard workers plus
//! a checkpointer**. Every caller places its requests through one
//! [`ShardRouter`], straight into the shard that owns the request's
//! affinity key (`AccountId` for ledger operations, `job_id` for
//! job-scoped ones, the SP pseudonym for payment forwarding), so all
//! per-key state lives in exactly one shard and never needs a lock.
//! In-process and simulated-network clients send blocking; the TCP
//! door uses [`ShardRouter::try_route`] and sheds when a shard queue is
//! full. Cross-cutting state (ledger, bulletin, DEC bank, held
//! payments) is shared behind the existing thread-safe types. Shard
//! queues are bounded, so a flood of clients exerts backpressure
//! instead of growing queues without limit. [`MaService::shutdown`]
//! sends each shard a stop message behind its queued requests, joins
//! the shards and reports how many held payments were never delivered.
//!
//! Three mechanisms make the service survive a lossy network and
//! crashing workers (the fault model of DESIGN.md §8):
//!
//! * **Exactly-once execution.** Every request arrives under a
//!   client-chosen [`RequestKey`]; each shard keeps a bounded
//!   idempotency cache of `key → response` and *replays* the cached
//!   answer for a retransmit instead of re-executing. A retried
//!   `Withdraw` does not double-debit and a retried `DepositBatch` is
//!   not mistaken for a double-spend — while a genuine double-spend
//!   (same coin leaf under a *fresh* key) is still caught by the DEC
//!   bank.
//! * **Decide, journal, then apply.** A shard decides a write without
//!   changing any state, appends one [`WalRecord`] — request, response
//!   and effects — to the service's [`DurableLog`], and only then
//!   applies it; one `apply` is the only code that changes market
//!   state, live, on a shard restart and in cold recovery, so the
//!   ledger the MA acts on is the ledger its journal rebuilds. Pure
//!   reads (`Balance`, `FetchLabor`) are neither journaled nor cached;
//!   a retransmitted read re-executes. The log sits on the caller's storage
//!   ([`MaService::spawn_durable`]) or on an in-process
//!   [`SimStorage`] ([`MaService::spawn_with_config`]), whose bytes
//!   outlive any worker incarnation.
//! * **Supervision.** Each shard thread supervises itself: after an
//!   injected crash, a panic in decide or a failed journal write it
//!   writes a crash dump, rebuilds its state from its checkpointed
//!   base plus the journal tail, and keeps reading the same queue, so
//!   requests queued behind the crash survive. A journal that no
//!   longer replays stops the shard for good: its queue closes and
//!   callers get [`MarketError::Transport`].
//!
//! This is the concurrent twin of [`crate::ppmsdec::DecMarket`]'s
//! single-threaded driver; the integration tests run both and expect
//! the same ledger outcomes — now also across fault schedules.

use crate::bank::{AccountId, Bank};
use crate::bulletin::{Bulletin, JobProfile};
use crate::error::MarketError;
use crate::gate::GateCheckpoint;
use crate::metrics::{FaultMetrics, Party};
use crate::poll::Waker;
use crate::retry::{RetryPolicy, RetryingTransport};
use crate::storage::{
    load_latest, save_snapshot, DurabilityConfig, DurableLog, ShardSection, SimStorage,
    SnapshotState, StorageError,
};
use crate::transport::{
    request_label, FaultPlan, InProcTransport, SimNetConfig, SimNetTransport, TrafficLog, Transport,
};
use crate::wal::WalRecord;
use crossbeam::channel::{self, Receiver, Sender, TrySendError};
use parking_lot::{Mutex, RwLock};
use ppms_bigint::BigUint;
use ppms_crypto::cl::{ClPublicKey, ClSignature};
use ppms_crypto::pairing::TypeAPairing;
use ppms_ecash::{DecBank, DecError, DecParams, Spend};
use ppms_obs::{Registry, Snapshot, Span, SpanContext, Timed, TimedOwned};
use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A request to the market administrator.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub enum MaRequest {
    /// Open a JO account with initial funds, binding a CL public key.
    RegisterJoAccount {
        /// Initial balance.
        funds: u64,
        /// Account-bound CL key for withdrawal authentication.
        clpk: ClPublicKey,
    },
    /// Open an (empty) SP account.
    RegisterSpAccount,
    /// Publish a job profile (phase 1).
    PublishJob {
        /// Job description `jd`.
        description: String,
        /// Per-SP payment `w`.
        payment: u64,
        /// The JO's pseudonymous key bytes.
        pseudonym: Vec<u8>,
    },
    /// CL-authenticated withdrawal: debit `2^L`, sign the blinded coin
    /// token (phase 2).
    Withdraw {
        /// The withdrawing account.
        account: AccountId,
        /// Fresh nonce, CL-signed below.
        nonce: u64,
        /// CL signature on the nonce under the account-bound key.
        auth: ClSignature,
        /// Blinded coin token for the bank to sign.
        blinded: BigUint,
    },
    /// SP announces interest in a job (phase 4); MA forwards to the JO.
    LaborRegister {
        /// Target job.
        job_id: u64,
        /// The SP's one-time public key bytes.
        sp_pubkey: Vec<u8>,
    },
    /// JO polls the SPs registered for its job.
    FetchLabor {
        /// The job.
        job_id: u64,
    },
    /// JO submits the encrypted payment for an SP (phase 5); the MA
    /// holds it until that SP's data report arrives (phase 7 rule).
    SubmitPayment {
        /// Receiver's one-time key bytes.
        sp_pubkey: Vec<u8>,
        /// `RSA_ENC_rpksp(E(w_1)…, sig)`.
        ciphertext: Vec<u8>,
    },
    /// SP submits its data report (phase 6).
    SubmitData {
        /// The job the data belongs to.
        job_id: u64,
        /// The submitting SP's one-time key bytes.
        sp_pubkey: Vec<u8>,
        /// The sensing data.
        data: Vec<u8>,
    },
    /// SP polls for its payment; delivered only after its data arrived.
    FetchPayment {
        /// The SP's one-time key bytes.
        sp_pubkey: Vec<u8>,
    },
    /// JO polls the data reports for its job.
    FetchData {
        /// The job.
        job_id: u64,
    },
    /// SP deposits one or more spends under its account id (phase 8).
    /// A single deposit is simply a batch of one; the shard verifies
    /// the batch and credits the valid subset in one ledger update.
    DepositBatch {
        /// The depositing account (`AID_sp`).
        account: AccountId,
        /// The spends.
        spends: Vec<Spend>,
    },
    /// Read a balance.
    Balance {
        /// The account.
        account: AccountId,
    },
}

/// The MA's answer.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub enum MaResponse {
    /// A fresh account id.
    Account(AccountId),
    /// A bulletin-board job id.
    JobId(u64),
    /// The bank's signature on a blinded token.
    BlindSignature(BigUint),
    /// Generic success.
    Ok,
    /// Registered SP keys for a job.
    Labor(Vec<Vec<u8>>),
    /// A held payment ciphertext, if deliverable.
    Payment(Option<Vec<u8>>),
    /// Data reports for a job.
    Data(Vec<Vec<u8>>),
    /// Per-item outcome of a batch deposit plus the credited total.
    BatchDeposited {
        /// Total value credited.
        total: u64,
        /// How many items were accepted.
        accepted: usize,
        /// How many items were rejected.
        rejected: usize,
    },
    /// An account balance.
    Balance(u64),
    /// A rejection.
    Err(MarketError),
    /// Load-shed marker minted by the TCP front door (never by a
    /// shard): the request was refused *before* entering the service
    /// pipeline because the server is saturated. Clients treat it as
    /// a retryable transport condition.
    Busy,
}

/// The client-chosen idempotency key of a logical request. A
/// retransmit carries the *same* key; a new logical request carries a
/// fresh one (see [`crate::transport::next_request_id`]). The service
/// uses the key to replay cached answers instead of re-executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestKey {
    /// The requesting party (ids are unique per party).
    pub party: Party,
    /// The client-allocated request id.
    pub request_id: u64,
}

/// One request plus its reply channel — the unit a [`ShardRouter`]
/// places on a shard queue.
pub struct Inbound {
    /// Idempotency key.
    pub key: RequestKey,
    /// Span context minted by the originating client
    /// ([`ppms_obs::SpanContext::NONE`] = untraced). The trace id is
    /// preserved verbatim across retransmits — one logical operation
    /// keeps one id through retries and shard hops — while the
    /// span/parent ids identify the *specific attempt* that delivered
    /// this copy, so an exported trace shows which retransmit won.
    pub span: SpanContext,
    /// The request.
    pub request: MaRequest,
    /// Where the handling shard sends the response.
    pub reply: Reply,
}

/// The reply half of an [`Inbound`]: a response channel for in-process
/// callers, or a slot in the TCP front door's `ReplyQueue`. A door
/// reply posts to the queue when it is dropped, sent or not, so a
/// worker that dies holding a request wakes the reactor with a "shard
/// hung up" answer as surely as a real one does (DESIGN.md §19).
pub struct Reply(ReplyTo);

enum ReplyTo {
    Channel(Sender<MaResponse>),
    Door {
        slot: usize,
        queue: Arc<ReplyQueue>,
    },
    /// Sent, or withdrawn by the door before the request was taken.
    Done,
}

impl Reply {
    /// A reply that posts to the door's `queue` under `slot`.
    pub(crate) fn to_door(slot: usize, queue: Arc<ReplyQueue>) -> Reply {
        Reply(ReplyTo::Door { slot, queue })
    }

    /// Sends the response; `Err` when the caller has gone away.
    pub fn send(mut self, response: MaResponse) -> Result<(), MaResponse> {
        match std::mem::replace(&mut self.0, ReplyTo::Done) {
            ReplyTo::Channel(tx) => tx.send(response).map_err(|e| e.0),
            ReplyTo::Door { slot, queue } => {
                queue.post(slot, response);
                Ok(())
            }
            ReplyTo::Done => panic!("a reply is sent at most once"),
        }
    }

    /// Drops the reply without posting: the door calls this for a
    /// request the service refused to take, whose slot it never used.
    pub(crate) fn withdraw(mut self) {
        self.0 = ReplyTo::Done;
    }
}

impl From<Sender<MaResponse>> for Reply {
    fn from(tx: Sender<MaResponse>) -> Reply {
        Reply(ReplyTo::Channel(tx))
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if let ReplyTo::Door { slot, queue } = std::mem::replace(&mut self.0, ReplyTo::Done) {
            queue.post(
                slot,
                MaResponse::Err(MarketError::Transport("shard hung up".into())),
            );
        }
    }
}

/// The TCP front door's one completion queue: every shard posts its
/// door replies here as `(slot, response)`, and the reactor takes the
/// whole batch with one lock per tick. Posting wakes the reactor only
/// if it is parked ([`Waker::wake`]).
pub(crate) struct ReplyQueue {
    posted: Mutex<Vec<(usize, MaResponse)>>,
    waker: Arc<Waker>,
}

impl ReplyQueue {
    pub(crate) fn new(waker: Arc<Waker>) -> ReplyQueue {
        ReplyQueue {
            posted: Mutex::new(Vec::new()),
            waker,
        }
    }

    fn post(&self, slot: usize, response: MaResponse) {
        self.posted.lock().push((slot, response));
        self.waker.wake();
    }

    /// Swaps every posted reply into `out`, which must be empty; the
    /// two buffers trade places, so neither allocates once warm.
    pub(crate) fn take(&self, out: &mut Vec<(usize, MaResponse)>) {
        debug_assert!(out.is_empty());
        std::mem::swap(&mut *self.posted.lock(), out);
    }

    /// Whether any reply is waiting (the reactor's pre-park re-check).
    pub(crate) fn is_empty(&self) -> bool {
        self.posted.lock().is_empty()
    }
}

/// Crash-injection point for the supervision and batching tests: the
/// chosen shard's incarnation restarts (as if panicked) at its
/// `at_request`-th executed request, at `phase`. Executed requests are
/// those that missed the dedup cache, reads and replayed records
/// included. Fires at most once per service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// Which shard dies (taken modulo the shard count).
    pub shard: usize,
    /// 1-based count of executed requests that triggers the crash.
    pub at_request: u64,
    /// Where in that request's execution the crash fires.
    pub phase: CrashPhase,
}

/// Where a [`CrashPoint`] fires inside the request it triggers on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPhase {
    /// Before the request executes: the canonical "lost in flight"
    /// window, which leaves no journal record.
    BeforeExecute,
    /// After the request executed and its record (if it is a write)
    /// was appended, before the batch's group commit and before any
    /// held reply is released. Items executed earlier in the same
    /// cross-client batch have records but unanswered clients; the
    /// retries must replay, not re-execute (pinned by
    /// `tests/chaos.rs` and `tests/recovery.rs`).
    AfterAppend,
}

/// Sizing knobs for the sharded service.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Number of shard worker threads.
    pub shards: usize,
    /// Capacity of each shard queue (backpressure: in-process and
    /// simulated-network senders block when their shard's queue is
    /// full, and the TCP door sheds).
    pub queue_depth: usize,
    /// The most items one drain of a shard queue collects into a
    /// cross-client batch (DESIGN.md §16). A batch holds only what is
    /// already queued: the worker never waits for more. `1` runs every
    /// request on its own (the batch-of-one reference).
    pub max_batch: usize,
    /// Optional crash injection for the supervision tests.
    pub crash: Option<CrashPoint>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 1,
            queue_depth: 128,
            max_batch: 32,
            crash: None,
        }
    }
}

/// Handle to a running MA service (shard workers + checkpointer).
pub struct MaService {
    /// Checkpoint and shutdown requests for the checkpointer thread.
    ctrl: Sender<Control>,
    /// The checkpointer thread; on shutdown it stops and joins the
    /// shards and returns how many held payments were never delivered.
    handle: Option<JoinHandle<usize>>,
    /// Shared ledger (read access for clients and ledger snapshots).
    pub bank: Bank,
    /// Shared bulletin board (read-only access for clients).
    pub bulletin: Bulletin,
    /// Shared traffic log — fed by byte-counting transports.
    pub traffic: TrafficLog,
    /// Fault-tolerance counters (dedup replays, respawns, WAL, retry).
    pub faults: FaultMetrics,
    /// This service's private metrics registry. Traffic counters,
    /// fault counters, per-op latency histograms, queue-depth gauges
    /// and WAL timings all live here, so one [`Registry::snapshot`]
    /// captures the whole service.
    pub obs: Registry,
    /// Crash-dump files written by shard workers, in order of writing.
    dumps: Arc<Mutex<Vec<PathBuf>>>,
    /// The DEC public parameters (clients need them to mint/spend).
    pub params: DecParams,
    /// The bank's public blind-signing key.
    pub bank_pk: ppms_crypto::rsa::RsaPublicKey,
    /// The pairing parameters (for CL keys).
    pub pairing: TypeAPairing,
    /// Where the TCP front door registers its gate-checkpoint hook.
    gate_hook: Arc<Mutex<Option<Arc<GateCheckpoint>>>>,
    /// Admission-gate state recovered from the snapshot, consumed
    /// once by the front door on spawn.
    recovered_gate: Mutex<Option<Vec<u8>>>,
    /// The one way into the shards, cloned into every client and door.
    router: ShardRouter,
    /// The market state the shards share.
    shared: Arc<SharedState>,
}

/// The one way into the shard queues. Every caller places its
/// requests through a router: the in-process and simulated-network
/// transports with a blocking send, the TCP reactor with
/// [`ShardRouter::try_route`], which gives a load-shedding server the
/// non-blocking admission decision it needs. The senders never change:
/// a crashed shard restarts on the same queue, and a shard that stops
/// for good closes it, so a send to it fails.
#[derive(Clone)]
pub struct ShardRouter {
    txs: Arc<[Sender<ShardMsg>]>,
    /// Queue-depth gauges, one per shard: the router adds one per
    /// placement, the worker subtracts one per dequeue.
    gauges: Arc<[Arc<ppms_obs::Gauge>]>,
    /// `ma.direct_routed`: every placement.
    placed: Arc<ppms_obs::Counter>,
}

impl ShardRouter {
    /// Places `inbound` on its shard's queue without blocking; a full
    /// queue or a stopped shard hands the request back.
    // The Err variant carries the moved-back request: boxing it would
    // put an allocation on the zero-alloc hot path.
    #[allow(clippy::result_large_err)]
    pub fn try_route(&self, inbound: Inbound) -> Result<(), TrySendError<Inbound>> {
        let idx = route(&inbound, self.txs.len());
        match self.txs[idx].try_send(ShardMsg::Req(Box::new(inbound))) {
            Ok(()) => {
                self.gauges[idx].add(1);
                self.placed.inc();
                Ok(())
            }
            Err(TrySendError::Full(ShardMsg::Req(inbound))) => Err(TrySendError::Full(*inbound)),
            Err(TrySendError::Disconnected(ShardMsg::Req(inbound))) => {
                Err(TrySendError::Disconnected(*inbound))
            }
            Err(_) => unreachable!("routers only send requests"),
        }
    }

    /// The blocking round trip of the in-process and simulated-network
    /// transports: places the request on its shard's queue, waiting
    /// while the queue is full, then waits for the answer.
    pub(crate) fn call(
        &self,
        key: RequestKey,
        span: SpanContext,
        request: MaRequest,
    ) -> Result<MaResponse, MarketError> {
        let (reply, answer) = channel::bounded(1);
        let inbound = Inbound {
            key,
            span,
            request,
            reply: reply.into(),
        };
        let idx = route(&inbound, self.txs.len());
        self.txs[idx]
            .send(ShardMsg::Req(Box::new(inbound)))
            .map_err(|_| MarketError::Transport("MA service unavailable".into()))?;
        self.gauges[idx].add(1);
        self.placed.inc();
        answer
            .recv()
            .map_err(|_| MarketError::Transport("MA service hung up".into()))
    }
}

/// A client-side connection to the MA over some [`Transport`].
#[derive(Clone)]
pub struct MaClient {
    transport: Arc<dyn Transport>,
    party: Party,
}

impl MaClient {
    /// Wraps a transport for the given party.
    pub fn new(transport: Arc<dyn Transport>, party: Party) -> MaClient {
        MaClient { transport, party }
    }

    /// Sends a request and waits for the answer. Transport failures
    /// surface as [`MaResponse::Err`]`(`[`MarketError::Transport`]`)`
    /// — a dead MA degrades gracefully instead of panicking callers.
    pub fn call(&self, request: MaRequest) -> MaResponse {
        match self.transport.round_trip(self.party, request) {
            Ok(response) => response,
            Err(e) => MaResponse::Err(e),
        }
    }

    /// Like [`MaClient::call`] but keeps transport failures in the
    /// error channel.
    pub fn try_call(&self, request: MaRequest) -> Result<MaResponse, MarketError> {
        self.transport.round_trip(self.party, request)
    }

    /// Sends a request under an explicit idempotency id. Reusing the
    /// id marks a retransmit of the same logical request; the service
    /// replays its cached answer instead of re-executing.
    pub fn try_call_keyed(
        &self,
        request_id: u64,
        request: MaRequest,
    ) -> Result<MaResponse, MarketError> {
        self.transport
            .round_trip_keyed(self.party, request_id, request)
    }

    /// Sends a request under a full causal span context: the serving
    /// side parents its own spans (reactor read, shard handle, WAL
    /// append) under `ctx`, so an exported trace shows the request's
    /// complete tree across process boundaries. Reusing the request id
    /// and `SpanContext::from_trace(id)` marks a retransmit that stays
    /// on the original trace: the serving shard's spans and any crash
    /// dump show the same `trace_id` for every attempt.
    pub fn try_call_spanned(
        &self,
        request_id: u64,
        ctx: SpanContext,
        request: MaRequest,
    ) -> Result<MaResponse, MarketError> {
        self.transport
            .round_trip_spanned(self.party, request_id, ctx, request)
    }
}

/// State shared by every shard (already thread-safe, or wrapped).
struct SharedState {
    bank: Bank,
    bulletin: Bulletin,
    dec_bank: Mutex<DecBank>,
    params: DecParams,
    bank_pk: ppms_crypto::rsa::RsaPublicKey,
    pairing: TypeAPairing,
    cl_bindings: RwLock<HashMap<AccountId, ClPublicKey>>,
    held: Mutex<HeldPayments>,
}

impl SharedState {
    /// The shared market state in checkpoint form, deterministically
    /// ordered; `covered`, the shard sections and the gate are unset.
    fn capture(&self) -> SnapshotState {
        let mut cl_bindings: Vec<(u64, ClPublicKey)> = self
            .cl_bindings
            .read()
            .iter()
            .map(|(account, pk)| (account.0, pk.clone()))
            .collect();
        cl_bindings.sort_unstable_by_key(|(account, _)| *account);
        let held = self.held.lock();
        let mut pending_payments: Vec<(Vec<u8>, Vec<u8>)> = held
            .pending
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        pending_payments.sort_unstable();
        let mut received_reports: Vec<Vec<u8>> = held.received.iter().cloned().collect();
        received_reports.sort_unstable();
        drop(held);
        SnapshotState {
            covered: 0,
            bank: self.bank.snapshot(),
            jobs: self.bulletin.list(),
            cl_bindings,
            dec: self.dec_bank.lock().export_state(),
            pending_payments,
            received_reports,
            shards: Vec::new(),
            gate: None,
        }
    }
}

/// Payments the MA holds until the paying SP's data report arrives.
/// Shared across shards because `SubmitData` routes by `job_id` while
/// `FetchPayment` routes by SP pseudonym.
#[derive(Default)]
struct HeldPayments {
    pending: HashMap<Vec<u8>, Vec<u8>>,
    received: HashSet<Vec<u8>>,
}

/// Entries each shard's idempotency cache holds before evicting the
/// oldest.
const DEDUP_CAPACITY: usize = 1024;

/// Bounded FIFO map of `RequestKey → cached response` — the
/// exactly-once replay table. Insertion order is eviction order; a
/// replayed key is *not* refreshed (retransmits arrive close together,
/// so recency bookkeeping buys nothing over plain FIFO here).
struct DedupCache {
    map: HashMap<RequestKey, MaResponse>,
    order: VecDeque<RequestKey>,
    capacity: usize,
}

impl DedupCache {
    fn new(capacity: usize) -> DedupCache {
        DedupCache {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity,
        }
    }

    fn insert(&mut self, key: RequestKey, response: MaResponse) {
        if self.map.insert(key, response).is_none() {
            self.order.push_back(key);
            if self.order.len() > self.capacity {
                if let Some(evicted) = self.order.pop_front() {
                    self.map.remove(&evicted);
                }
            }
        }
    }

    /// The cache contents in insertion (= eviction) order, so a
    /// checkpoint can be restored into a cache that evicts in the
    /// same sequence as the original.
    fn entries_in_order(&self) -> Vec<(RequestKey, MaResponse)> {
        self.order
            .iter()
            .filter_map(|k| self.map.get(k).map(|r| (*k, r.clone())))
            .collect()
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.map.len()
    }
}

/// Per-shard state: every map here is only ever touched by requests
/// whose routing key lands on this shard, so no locking is needed.
struct Shard {
    shared: Arc<SharedState>,
    /// The service registry — `deposit.batch_size` lands here.
    obs: Registry,
    used_nonces: HashMap<AccountId, u64>,
    labor: HashMap<u64, Vec<Vec<u8>>>,
    data_reports: HashMap<u64, Vec<Vec<u8>>>,
    dedup: DedupCache,
}

impl Shard {
    /// Decides one request and changes no state: returns the response
    /// and pushes the `(index, value)` of every spend a `DepositBatch`
    /// accepts to `effects`; only [`apply`] makes either happen. The one
    /// write is an id reservation for a new account or job. `verdicts`
    /// is this request's slice of the worker's cross-client combined
    /// verification (one per spend); a deposit also gets the DEC bank,
    /// whose lock the worker holds until the record is applied.
    fn decide(
        &self,
        request: &MaRequest,
        effects: &mut Vec<(u32, u64)>,
        verdicts: Vec<Result<u64, DecError>>,
        dec: Option<&DecBank>,
    ) -> MaResponse {
        use MaRequest::*;
        let shared = &*self.shared;
        match request {
            RegisterJoAccount { clpk, .. } => {
                // Withdraw verifies under this key; refuse one outside
                // G before any Miller loop runs on it.
                if !clpk.is_valid(&shared.pairing) {
                    return MaResponse::Err(MarketError::BadKey);
                }
                MaResponse::Account(shared.bank.reserve_id())
            }
            RegisterSpAccount => MaResponse::Account(shared.bank.reserve_id()),
            PublishJob { .. } => MaResponse::JobId(shared.bulletin.reserve_id()),
            Withdraw {
                account,
                nonce,
                auth,
                blinded,
            } => {
                {
                    let bindings = shared.cl_bindings.read();
                    let Some(bound) = bindings.get(account) else {
                        return MaResponse::Err(MarketError::NoSuchAccount);
                    };
                    // Nonce freshness prevents replaying an old
                    // withdrawal authorization. Withdrawals route by
                    // account, so this shard sees every nonce for it.
                    let last = self.used_nonces.get(account).copied().unwrap_or(0);
                    if *nonce <= last
                        || !auth.verify_bytes(&shared.pairing, bound, &nonce.to_be_bytes())
                    {
                        return MaResponse::Err(MarketError::BadAuthentication);
                    }
                }
                // Debits and credits to an account all run on its
                // shard, so the balance cannot move before the apply.
                match shared.bank.balance(*account) {
                    Ok(balance) if balance >= shared.params.face_value() => {
                        MaResponse::BlindSignature(shared.dec_bank.lock().sign_blinded(blinded))
                    }
                    Ok(_) => MaResponse::Err(MarketError::InsufficientFunds),
                    Err(e) => MaResponse::Err(e),
                }
            }
            LaborRegister { job_id, .. } => match shared.bulletin.get(*job_id) {
                Some(_) => MaResponse::Ok,
                None => MaResponse::Err(MarketError::NoSuchJob),
            },
            FetchLabor { job_id } => {
                MaResponse::Labor(self.labor.get(job_id).cloned().unwrap_or_default())
            }
            SubmitPayment { .. } | SubmitData { .. } => MaResponse::Ok,
            FetchPayment { sp_pubkey } => {
                // Paper phase 7: deliver only once the SP's data is in.
                let held = shared.held.lock();
                MaResponse::Payment(
                    held.received
                        .contains(sp_pubkey)
                        .then(|| held.pending.get(sp_pubkey).cloned())
                        .flatten(),
                )
            }
            FetchData { job_id } => {
                MaResponse::Data(self.data_reports.get(job_id).cloned().unwrap_or_default())
            }
            DepositBatch { account, spends } => {
                // The expensive ZK verification already ran in the
                // worker's preverify pass, outside the DEC-bank lock;
                // only the double-spend checks run here, in order, so
                // conflicts inside the request resolve first wins. A
                // spend without a verdict is rejected, never credited
                // unverified.
                self.obs
                    .histogram("deposit.batch_size")
                    .record(spends.len() as u64);
                // Without an account to credit, no spend is accepted.
                if let Err(e) = shared.bank.balance(*account) {
                    return MaResponse::Err(e);
                }
                let dec = dec.expect("a deposit decides under the DEC lock");
                let mut marks = Vec::new();
                for (idx, (spend, verdict)) in spends.iter().zip(verdicts).enumerate() {
                    let Ok(value) = verdict else { continue };
                    if let Ok(mark) = dec.check_deposit(spend, value, &marks) {
                        marks.push(mark);
                        effects.push((idx as u32, value));
                    }
                }
                MaResponse::BatchDeposited {
                    total: effects.iter().map(|&(_, value)| value).sum(),
                    accepted: effects.len(),
                    rejected: spends.len() - effects.len(),
                }
            }
            Balance { account } => match shared.bank.balance(*account) {
                Ok(v) => MaResponse::Balance(v),
                Err(e) => MaResponse::Err(e),
            },
        }
    }

    /// Serializes this shard's private state (plus the idempotency
    /// cache) into the checkpoint form, deterministically ordered.
    fn project(&self) -> ShardSection {
        let mut nonces: Vec<(u64, u64)> = self
            .used_nonces
            .iter()
            .map(|(account, nonce)| (account.0, *nonce))
            .collect();
        nonces.sort_unstable();
        let mut labor: Vec<(u64, Vec<Vec<u8>>)> = self
            .labor
            .iter()
            .map(|(job, keys)| (*job, keys.clone()))
            .collect();
        labor.sort_unstable_by_key(|(job, _)| *job);
        let mut reports: Vec<(u64, Vec<Vec<u8>>)> = self
            .data_reports
            .iter()
            .map(|(job, data)| (*job, data.clone()))
            .collect();
        reports.sort_unstable_by_key(|(job, _)| *job);
        ShardSection {
            nonces,
            labor,
            reports,
            dedup: self.dedup.entries_in_order(),
        }
    }

    /// Loads a checkpointed projection as this shard's base state;
    /// the journal tail is replayed on top by the caller.
    fn load_base(&mut self, base: &ShardSection) {
        self.used_nonces = base
            .nonces
            .iter()
            .map(|&(account, nonce)| (AccountId(account), nonce))
            .collect();
        self.labor = base.labor.iter().cloned().collect();
        self.data_reports = base.reports.iter().cloned().collect();
        for (key, response) in &base.dedup {
            self.dedup.insert(*key, response.clone());
        }
    }
}

/// What a shard worker reads from its queue: a routed request, a
/// checkpoint barrier, or the stop message shutdown sends behind every
/// queued request. FIFO order is the correctness argument: by the time
/// the worker answers a barrier, it has executed every request placed
/// before it, so its projection is a consistent prefix.
enum ShardMsg {
    Req(Box<Inbound>),
    Barrier(CheckpointBarrier),
    Stop,
}

/// A checkpoint barrier. The shard sends its projection on `section`,
/// then waits on `resume` until the checkpoint has finished: `Some` is
/// its new restart base (the snapshot covering it is published and the
/// log compacted behind it), `None` means the checkpoint failed and
/// the old base stands.
struct CheckpointBarrier {
    section: Sender<ShardSection>,
    resume: Receiver<Option<ShardSection>>,
}

/// Which shard handles a request. Affinity-keyed requests always land
/// on the same shard; everything else routes by its idempotency id,
/// so a retransmit reaches the shard that cached the original answer.
fn route(inbound: &Inbound, shards: usize) -> usize {
    use MaRequest::*;
    match &inbound.request {
        Withdraw { account, .. } | DepositBatch { account, .. } | Balance { account } => {
            account.0 as usize % shards
        }
        LaborRegister { job_id, .. }
        | FetchLabor { job_id }
        | SubmitData { job_id, .. }
        | FetchData { job_id } => *job_id as usize % shards,
        SubmitPayment { sp_pubkey, .. } | FetchPayment { sp_pubkey } => {
            crate::wire::fnv1a(sp_pubkey) as usize % shards
        }
        RegisterJoAccount { .. } | RegisterSpAccount | PublishJob { .. } => {
            inbound.key.request_id as usize % shards
        }
    }
}

/// Whether executing `request` can change market state, i.e. whether
/// it is journaled and [`apply`]'d. The pure reads, which `apply`
/// would ignore, are neither journaled nor cached for retransmits: a
/// retransmitted read re-executes against current state, so a shard's
/// live dedup cache is exactly what its base plus its journal rebuild.
fn is_write(request: &MaRequest) -> bool {
    !matches!(
        request,
        MaRequest::Balance { .. } | MaRequest::FetchLabor { .. }
    )
}

/// When the next scheduled checkpoint is due. Shards start it (the
/// one whose append reaches the mark asks the checkpointer), and the
/// checkpointer moves the mark after every checkpoint, failed ones
/// included, so a failing checkpoint is retried only once another
/// `every` records have been appended.
struct CheckpointSchedule {
    /// `DurabilityConfig::checkpoint_every`; `0` = manual only.
    every: u64,
    /// The log length at which the next scheduled checkpoint starts;
    /// `u64::MAX` while one is requested and not yet finished.
    due: AtomicU64,
    /// `wal.records_since_snapshot`.
    since_snapshot: Arc<ppms_obs::Gauge>,
    ctrl: Sender<Control>,
}

impl CheckpointSchedule {
    /// Notes a shard's append at `lsn`; the append that reaches the
    /// mark asks the checkpointer for a checkpoint.
    fn appended(&self, lsn: u64) {
        self.since_snapshot.add(1);
        let due = self.due.load(Ordering::Acquire);
        if self.every > 0
            && lsn + 1 >= due
            && self
                .due
                .compare_exchange(due, u64::MAX, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
        {
            let _ = self.ctrl.send(Control::Checkpoint(None));
        }
    }

    /// Sets the next mark `every` records past a log of `len` records.
    fn rearm(&self, len: u64) {
        self.due
            .store(len.saturating_add(self.every), Ordering::Release);
    }
}

/// Why an incarnation of a shard worker ended: `Crash` is what a
/// restart cures; `Stop` is shutdown; `Failed` is a journal that no
/// longer replays, which stops the shard for good.
enum Exit {
    Stop,
    Crash,
    Failed,
}

/// A shard worker thread. It lives as long as its queue and
/// supervises itself: a crash ends only the current incarnation, and
/// the next one is rebuilt over the same journal and keeps reading the
/// same queue.
struct ShardWorker {
    shared: Arc<SharedState>,
    /// The service's journal, shared by every shard; this worker's
    /// records carry `shard_idx` as their tag.
    log: Arc<DurableLog>,
    /// Checkpointed base state: each incarnation starts from this
    /// projection and replays only the journal tail on top. The worker
    /// adopts each successful checkpoint's projection, which is what
    /// makes log compaction sound.
    base: ShardSection,
    schedule: Arc<CheckpointSchedule>,
    faults: FaultMetrics,
    /// The service registry: per-op latency, dedup misses, WAL
    /// timings all land here.
    obs: Registry,
    /// Shared with the routers: they add one per enqueue, the worker
    /// subtracts one per dequeue, so the gauge reads the queue depth.
    queue_depth: Arc<ppms_obs::Gauge>,
    /// Where crash dumps leave their paths.
    dumps: Arc<Mutex<Vec<PathBuf>>>,
    /// This worker's shard index (names its per-shard gauges).
    shard_idx: usize,
    /// The most items one drain collects.
    max_batch: usize,
    /// The crash point, if it names this shard; cleared when it
    /// fires, so it fires once.
    crash: Option<CrashPoint>,
}

impl ShardWorker {
    /// Writes the span ring plus a full registry snapshot to a JSON
    /// crash dump (see [`ppms_obs::write_dump`]). The crashing
    /// request's `shard.handle` span is already in the ring: it opens
    /// before the crash checks.
    fn dump_crash(&self, reason: &str) {
        let name = format!("ma-shard{}", self.shard_idx);
        match ppms_obs::write_dump(&ppms_obs::dump_dir(), &name, reason, &self.obs.snapshot()) {
            Ok(path) => self.dumps.lock().push(path),
            Err(e) => eprintln!("flight-recorder dump failed: {e}"),
        }
    }

    /// Ends the incarnation with a crash: dumps, and counts the
    /// respawn before the incarnation's replies hang up, so a client
    /// that sees the hang-up also sees the respawn counted.
    fn crash_exit(&self, reason: &str) -> Exit {
        self.dump_crash(reason);
        self.faults.shard_respawn();
        Exit::Crash
    }

    fn run(mut self, srx: Receiver<ShardMsg>) {
        // One incarnation per pass. Returning drops `srx`, which closes
        // the queue: later sends fail instead of waiting on a dead shard.
        loop {
            match self.incarnation(&srx) {
                Exit::Crash => {}
                Exit::Stop => return,
                // Health reports the service degraded from here on.
                Exit::Failed => return self.obs.gauge("ma.shards_stopped").add(1),
            }
        }
    }

    /// Answers a checkpoint barrier with this shard's projection, then
    /// waits until the checkpoint has finished, adopting the
    /// projection as the restart base if the checkpoint committed.
    fn pause(&mut self, barrier: CheckpointBarrier, shard: &Shard) {
        if barrier.section.send(shard.project()).is_ok() {
            if let Ok(Some(base)) = barrier.resume.recv() {
                self.base = base;
            }
        }
    }

    /// Runs one incarnation: rebuilds the shard from its checkpointed
    /// base plus the journal tail, then serves the queue until
    /// shutdown or a crash.
    fn incarnation(&mut self, srx: &Receiver<ShardMsg>) -> Exit {
        let replay_ns = self.obs.histogram("wal.replay_ns");
        let replayed = {
            let _span = Timed::new(&replay_ns);
            self.log.replay_shard(self.shard_idx as u32)
        };
        let replayed = match replayed {
            Ok(records) => records,
            Err(e) => {
                // Not a fault a restart can cure: stop the shard.
                self.dump_crash(&format!("journal-replay-failed: {e}"));
                return Exit::Failed;
            }
        };
        let mut shard = Shard {
            shared: self.shared.clone(),
            obs: self.obs.clone(),
            used_nonces: HashMap::new(),
            labor: HashMap::new(),
            data_reports: HashMap::new(),
            dedup: DedupCache::new(DEDUP_CAPACITY),
        };
        shard.load_base(&self.base);
        for record in &replayed {
            // Parented under the record's persisted span, so replayed
            // work stays attributed to the client operation that
            // originally caused it, not an anonymous wall of trace 0.
            let _span = Span::child("wal.replay", record.span);
            apply(record, None, None, Some(&mut shard));
        }
        let mut executed = replayed.len() as u64;

        let wal_append_ns = self.obs.histogram("wal.append_ns");
        let dedup_misses = self.obs.counter("ma.dedup.misses");
        // Per-op latency histograms, resolved once per label instead of
        // a `format!` + registry lookup on every request.
        let mut op_hists: HashMap<&'static str, Arc<ppms_obs::Histogram>> = HashMap::new();

        // Batching instrumentation (DESIGN.md §16): how batches form
        // (`batch.drain_size`), why they flush (`batch.flush_*`), how
        // many spends the cross-client preverify combined, and how
        // many group commits amortized an fsync.
        let drain_size = self.obs.histogram("batch.drain_size");
        let flush_full = self.obs.counter("batch.flush_full");
        let flush_drain = self.obs.counter("batch.flush_drain");
        let batch_items = self.obs.counter("batch.items");
        let batch_drains = self.obs.counter("batch.drains");
        let group_commits = self.obs.counter("batch.group_commits");
        let preverify_spends = self.obs.histogram("batch.preverify_spends");
        let amortized_ns = self.obs.histogram("deposit.item_amortized_ns");
        let max_batch = self.max_batch;
        // Reusable batch scratch, reclaimed across iterations.
        let mut batch: Vec<Inbound> = Vec::with_capacity(max_batch);
        let mut held: Vec<(Reply, MaResponse)> = Vec::with_capacity(max_batch);
        let mut preverified: Vec<Vec<Result<u64, DecError>>> = Vec::with_capacity(max_batch);

        loop {
            batch.clear();
            held.clear();
            preverified.clear();
            let mut barrier: Option<CheckpointBarrier> = None;
            let mut stop = false;

            // Phase 1 — collect: block for the first item, then take
            // what is already queued, up to the cap. The worker never
            // waits for companions: a batch forms from backlog, which
            // is exactly when there is work to share. A checkpoint
            // barrier or a stop seals the batch: it is honored after
            // the batch executes, preserving the FIFO consistent-prefix
            // argument.
            match srx.recv() {
                Ok(ShardMsg::Req(inbound)) => batch.push(*inbound),
                Ok(ShardMsg::Barrier(b)) => {
                    // Everything placed before this message has
                    // already executed (FIFO), so the projection is a
                    // consistent prefix of this shard.
                    self.pause(b, &shard);
                    continue;
                }
                Ok(ShardMsg::Stop) | Err(_) => return Exit::Stop,
            }
            while batch.len() < max_batch && barrier.is_none() && !stop {
                match srx.try_recv() {
                    Ok(ShardMsg::Req(inbound)) => batch.push(*inbound),
                    Ok(ShardMsg::Barrier(b)) => barrier = Some(b),
                    Ok(ShardMsg::Stop) | Err(channel::TryRecvError::Disconnected) => stop = true,
                    Err(channel::TryRecvError::Empty) => break,
                }
            }
            if batch.len() >= max_batch {
                flush_full.inc();
            } else {
                flush_drain.inc();
            }
            batch_drains.inc();
            batch_items.add(batch.len() as u64);
            drain_size.record(batch.len() as u64);
            self.queue_depth.sub(batch.len() as i64);
            let lead_ctx = batch[0].span;

            // Phase 2 — cross-client preverify: move every
            // non-replayed deposit's spends (admission deposits
            // included — they ride the same request shape) into one
            // combined slice and run the whole thing through the
            // chunked combined verification. Bisection inside
            // `verify_batch` isolates a cheater without poisoning its
            // batch neighbors, and verdicts are bit-identical to
            // per-item verification regardless of the seed, so
            // scattering them back per item keeps execution
            // sequential-equivalent. The *stateful* double-spend
            // checks are not here: they run in `decide`, per item, in
            // arrival order.
            preverified.resize_with(batch.len(), Vec::new);
            let mut combined: Vec<Spend> = Vec::new();
            let mut plan: Vec<(usize, usize)> = Vec::new();
            for (i, inbound) in batch.iter_mut().enumerate() {
                if shard.dedup.map.contains_key(&inbound.key) {
                    continue; // replays below; never re-verify
                }
                if let MaRequest::DepositBatch { spends, .. } = &mut inbound.request {
                    if spends.is_empty() {
                        continue;
                    }
                    plan.push((i, spends.len()));
                    combined.append(spends);
                }
            }
            if !combined.is_empty() {
                let pv_span = Span::child("shard.preverify", lead_ctx);
                let started = std::time::Instant::now();
                preverify_spends.record(combined.len() as u64);
                let seed = ppms_ecash::batch_seed(&combined, b"");
                let verdicts = ppms_ecash::verify_batch_chunked(
                    seed,
                    ppms_ecash::DEPOSIT_CHUNK,
                    &self.shared.params,
                    &self.shared.bank_pk,
                    b"",
                    &combined,
                );
                amortized_ns.record((started.elapsed().as_nanos() / combined.len() as u128) as u64);
                drop(pv_span);
                let mut verdicts = verdicts.into_iter();
                let mut spends_back = combined.into_iter();
                for &(i, n) in &plan {
                    let MaRequest::DepositBatch { spends, .. } = &mut batch[i].request else {
                        unreachable!("plan entries are deposits")
                    };
                    spends.extend(spends_back.by_ref().take(n));
                    preverified[i] = verdicts.by_ref().take(n).collect();
                }
            }

            // Phase 3 — execute, strictly in arrival order. Replies
            // are collected, not sent: they are released only after
            // the batch's group commit, so a batched acknowledgement
            // is never weaker than an unbatched one.
            let mut committed = 0usize;
            for (i, inbound) in batch.drain(..).enumerate() {
                let Inbound {
                    key,
                    span,
                    request,
                    reply,
                } = inbound;
                let label = request_label(&request);
                // Exactly-once: a retransmit of an executed request
                // gets its original answer back, without touching any
                // state — including a retransmit that landed in the
                // same batch as its original.
                if let Some(cached) = shard.dedup.map.get(&key) {
                    let _span = Span::child("shard.dedup_replay", span);
                    self.faults.dedup_replay();
                    held.push((reply, cached.clone()));
                    continue;
                }
                dedup_misses.inc();
                // Service latency from here: execute + journal append.
                // The causal span covers the same window, parented
                // under whatever delivered the request (a transport
                // attempt or a reactor read), so exported traces show
                // shard residency.
                let handle_span = Span::child("shard.handle", span);
                let op_hist = op_hists
                    .entry(label)
                    .or_insert_with(|| self.obs.histogram(&format!("ma.op.{label}_ns")));
                let op_span = TimedOwned::new(op_hist.clone());

                executed += 1;
                let crash = self
                    .crash
                    .filter(|c| executed >= c.at_request)
                    .map(|c| c.phase);
                if crash == Some(CrashPhase::BeforeExecute) {
                    // Injected crash: die before executing — the
                    // request is lost in flight and leaves no record.
                    // Its reply, the held replies and the undrained
                    // batch items hang up as the incarnation unwinds;
                    // the retries queue behind the restart.
                    self.crash = None;
                    return self.crash_exit("injected-crash");
                }

                let verdicts = std::mem::take(&mut preverified[i]);
                // A deposit holds the DEC lock from its decide through
                // its append and apply, so no deposit on another shard
                // accepts the same serial in between.
                let mut dec = matches!(request, MaRequest::DepositBatch { .. })
                    .then(|| self.shared.dec_bank.lock());
                // Decide, journal, then apply: a panic in decide or a
                // failed append leaves no effect behind, and ends only
                // this incarnation; the retransmit re-executes.
                let mut effects = Vec::new();
                let decided = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    shard.decide(&request, &mut effects, verdicts, dec.as_deref())
                }));
                let Ok(response) = decided else {
                    return self.crash_exit("handler-panic");
                };

                let response = if is_write(&request) {
                    // The record takes the request and the response by
                    // move — no deep clone of payload vectors on the
                    // hot path — and hands the response back after the
                    // append; only the dedup cache still clones it.
                    let record = WalRecord {
                        key: Some(key),
                        span,
                        request,
                        response,
                        effects,
                    };
                    let appended = {
                        let _span = Timed::new(&wal_append_ns);
                        let wal_span = Span::child("wal.append", handle_span.ctx());
                        self.log
                            .append_spanned(self.shard_idx as u32, &record, wal_span.ctx())
                    };
                    match appended {
                        Ok(lsn) => self.schedule.appended(lsn),
                        Err(e) => {
                            // The storage device failed mid-flight; a
                            // write-ahead log has no degraded mode. An
                            // id the decide reserved goes back, so the
                            // retransmit takes the same one.
                            match record.response {
                                MaResponse::Account(id) => self.shared.bank.release_id(id),
                                MaResponse::JobId(id) => self.shared.bulletin.release_id(id),
                                _ => {}
                            }
                            return self.crash_exit(&format!("journal-append-failed: {e}"));
                        }
                    }
                    apply(
                        &record,
                        Some(&self.shared),
                        dec.as_deref_mut(),
                        Some(&mut shard),
                    );
                    drop(dec);
                    self.faults.wal_commit();
                    committed += 1;
                    record.response
                } else {
                    response
                };
                drop(op_span);
                drop(handle_span);
                if crash == Some(CrashPhase::AfterAppend) {
                    // Mid-batch kill point: the record above is
                    // journaled (not necessarily synced — under a
                    // deferring policy the group commit below is what
                    // would have made it durable), and no held reply
                    // escapes. Every client in the batch must converge
                    // via retry: recorded items replay from the dedup
                    // cache, the rest re-execute.
                    self.crash = None;
                    return self.crash_exit("mid-batch-crash");
                }
                held.push((reply, response));
            }

            // Phase 4 — group commit, then release the held replies.
            // Under a deferring policy one fsync forces the batch's
            // records to media (DESIGN.md §16), so one verification
            // batch costs one fsync, and replies held until it returns
            // make batched acknowledgements durable-before-ack. Under
            // `SyncPolicy::Always` every append already fsynced, the
            // flush returns at once and no group commit is counted. A
            // batch of one keeps the per-append policy untouched (no
            // forced fsync), so sequential drivers see byte-identical
            // fsync behavior to the unbatched pipeline.
            if committed > 1 {
                let gc_span = Span::child("wal.group_commit", lead_ctx);
                match self.log.flush() {
                    Ok(true) => group_commits.inc(),
                    Ok(false) => {}
                    Err(e) => {
                        return self.crash_exit(&format!("journal-flush-failed: {e}"));
                    }
                }
                drop(gc_span);
            }
            for (reply, response) in held.drain(..) {
                // A vanished client is not an MA failure.
                let _ = reply.send(response);
            }
            if let Some(b) = barrier {
                self.pause(b, &shard);
            }
            if stop {
                return Exit::Stop;
            }
        }
    }
}

/// What the checkpointer thread blocks on. The channel is separate
/// from the shard queues, so control never waits behind requests.
enum Control {
    /// Take a checkpoint now; reply with the covered LSN. `None` is
    /// the scheduled checkpoint a shard asks for, which nobody awaits.
    Checkpoint(Option<Sender<Result<u64, StorageError>>>),
    /// Stop the shards, join them and flush the log.
    Shutdown,
}

/// What cold-start recovery found and replayed
/// ([`MaService::recover`]).
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// The snapshot file the instance restarted from, if any.
    pub snapshot: Option<String>,
    /// First LSN *not* covered by that snapshot (0 = cold start).
    pub snapshot_lsn: u64,
    /// Snapshot files present but unreadable (torn or corrupt
    /// checkpoint publications), skipped in favor of an older one.
    pub snapshots_skipped: usize,
    /// Log records replayed on top of the snapshot. After a
    /// checkpoint + compaction this counts only post-snapshot records
    /// — the property that bounds recovery time by checkpoint
    /// interval, not by history length.
    pub replayed_records: usize,
    /// Bytes of torn final frame truncated from the log tail.
    pub torn_tail_bytes: usize,
    /// Segment files read during replay.
    pub segments_read: usize,
}

/// The one code path that changes market state: makes what `record`
/// says happened, keyed off its recorded response and `effects`, and
/// never re-runs a check or a verification. Each arm writes the
/// record's shared half (bank, bulletin, CL bindings, DEC double-spend
/// state, held payments) when `shared` is given, and its private half
/// (nonces, labor, data reports, the dedup entry) when `shard` is.
/// Live execution applies both after the append; a restarted shard
/// applies only the private half, since shared state holds exactly the
/// appended records; cold recovery applies only the shared half, in
/// log order. A deposit needs `dec`, the DEC bank its caller locked.
fn apply(
    record: &WalRecord,
    shared: Option<&SharedState>,
    dec: Option<&mut DecBank>,
    mut shard: Option<&mut Shard>,
) {
    use MaRequest::*;
    match (&record.request, &record.response) {
        (RegisterJoAccount { funds, clpk }, MaResponse::Account(id)) => {
            if let Some(shared) = shared {
                shared.bank.restore_account(*id, *funds);
                shared.cl_bindings.write().insert(*id, clpk.clone());
            }
        }
        (RegisterSpAccount, MaResponse::Account(id)) => {
            if let Some(shared) = shared {
                shared.bank.restore_account(*id, 0);
            }
        }
        (
            PublishJob {
                description,
                payment,
                pseudonym,
            },
            MaResponse::JobId(job_id),
        ) => {
            if let Some(shared) = shared {
                shared.bulletin.restore_job(JobProfile {
                    job_id: *job_id,
                    description: description.clone(),
                    payment: *payment,
                    pseudonym: pseudonym.clone(),
                });
            }
        }
        // The nonce burns once the authorization verifies, even when
        // the debit is then refused.
        (
            Withdraw { account, nonce, .. },
            response @ (MaResponse::BlindSignature(_)
            | MaResponse::Err(MarketError::InsufficientFunds)),
        ) => {
            if let Some(shard) = shard.as_deref_mut() {
                let last = shard.used_nonces.entry(*account).or_insert(0);
                *last = (*last).max(*nonce);
            }
            if let (Some(shared), MaResponse::BlindSignature(_)) = (shared, response) {
                let _ = shared.bank.debit(*account, shared.params.face_value());
            }
        }
        (LaborRegister { job_id, sp_pubkey }, MaResponse::Ok) => {
            if let Some(shard) = shard.as_deref_mut() {
                let keys = shard.labor.entry(*job_id).or_default();
                keys.push(sp_pubkey.clone());
            }
        }
        (
            SubmitPayment {
                sp_pubkey,
                ciphertext,
            },
            MaResponse::Ok,
        ) => {
            if let Some(shared) = shared {
                let mut held = shared.held.lock();
                held.pending.insert(sp_pubkey.clone(), ciphertext.clone());
            }
        }
        (
            SubmitData {
                job_id,
                sp_pubkey,
                data,
            },
            MaResponse::Ok,
        ) => {
            if let Some(shard) = shard.as_deref_mut() {
                let reports = shard.data_reports.entry(*job_id).or_default();
                reports.push(data.clone());
            }
            if let Some(shared) = shared {
                shared.held.lock().received.insert(sp_pubkey.clone());
            }
        }
        (FetchPayment { sp_pubkey }, MaResponse::Payment(Some(_))) => {
            if let Some(shared) = shared {
                shared.held.lock().pending.remove(sp_pubkey);
            }
        }
        // The fetch handed the reports out; they must not reappear.
        (FetchData { job_id }, MaResponse::Data(_)) => {
            if let Some(shard) = shard.as_deref_mut() {
                shard.data_reports.remove(job_id);
            }
        }
        // The accepted spends ride in `effects`: the response carries
        // only counts. A record written before deposits were decided
        // first may pair effects with an `Err` (its credit failed after
        // the spends were recorded); the spends stay spent, as then.
        (DepositBatch { account, spends }, response) => {
            if let Some(shared) = shared {
                let dec = dec.expect("a deposit applies under the DEC lock");
                let mut total = 0u64;
                for &(idx, value) in &record.effects {
                    if let Some(spend) = spends.get(idx as usize) {
                        let _ = dec.deposit_preverified(spend, value);
                        total += value;
                    }
                }
                if total > 0 && matches!(response, MaResponse::BatchDeposited { .. }) {
                    let _ = shared.bank.credit(*account, total);
                }
            }
        }
        _ => {}
    }
    if let (Some(shard), Some(key)) = (shard, record.key) {
        shard.dedup.insert(key, record.response.clone());
    }
}

/// The checkpointer thread's state. It blocks on its control channel
/// and runs the checkpoint protocol and the shutdown drain; it never
/// touches a request.
struct Checkpointer {
    shared: Arc<SharedState>,
    /// The shard queues, for barriers and the stop messages.
    txs: Arc<[Sender<ShardMsg>]>,
    shards: Vec<JoinHandle<()>>,
    schedule: Arc<CheckpointSchedule>,
    log: Arc<DurableLog>,
    storage: Arc<dyn crate::storage::Storage>,
    /// Set by the TCP front door so checkpoints can include the
    /// admission gate's state.
    gate_hook: Arc<Mutex<Option<Arc<GateCheckpoint>>>>,
    snapshots: Arc<ppms_obs::Counter>,
    snapshot_failures: Arc<ppms_obs::Counter>,
    last_snapshot_lsn: Arc<ppms_obs::Gauge>,
}

impl Checkpointer {
    /// Serves checkpoints until shutdown, then sends each shard a stop
    /// message behind its queued requests, joins the shards, flushes
    /// what the sync policy deferred and returns how many held
    /// payments were never delivered.
    fn run(mut self, ctrl: Receiver<Control>) -> usize {
        while let Ok(Control::Checkpoint(reply)) = ctrl.recv() {
            let result = self.checkpoint();
            if let Some(reply) = reply {
                let _ = reply.send(result);
            }
        }
        for tx in self.txs.iter() {
            // A shard that stopped for good has closed its queue.
            let _ = tx.send(ShardMsg::Stop);
        }
        for shard in self.shards.drain(..) {
            let _ = shard.join();
        }
        let _ = self.log.flush();
        self.shared.held.lock().pending.len()
    }

    /// The checkpoint protocol: barrier every shard for its
    /// projection, fsync the log, publish one atomic snapshot of the
    /// whole market, compact the log behind it, and hand each shard its
    /// projection back as its new restart base. Every shard that
    /// answered waits until the protocol ends, so no request executes
    /// between the cut and the snapshot; requests that arrive meanwhile
    /// queue. Returns the covered LSN — the point recovery will replay
    /// from.
    fn checkpoint(&mut self) -> Result<u64, StorageError> {
        let mut paused = Vec::with_capacity(self.txs.len());
        let result = self
            .cut(&mut paused)
            .and_then(|sections| self.publish(sections));
        // A failed checkpoint is retried only once the log has grown
        // by another `checkpoint_every` records.
        self.schedule.rearm(self.log.next_lsn());
        let (result, mut bases) = match result {
            Ok((covered, sections)) => (Ok(covered), Some(sections.into_iter())),
            Err(e) => (Err(e), None),
        };
        for resume in paused {
            let _ = resume.send(bases.as_mut().and_then(Iterator::next));
        }
        result
    }

    /// Sends each shard a barrier and collects its projection; the
    /// shards that answered wait on the senders pushed to `paused`. A
    /// barrier lost to a crash is sent again, since the restarted shard
    /// reads the same queue; a shard that has stopped for good fails
    /// the checkpoint.
    fn cut(
        &self,
        paused: &mut Vec<Sender<Option<ShardSection>>>,
    ) -> Result<Vec<ShardSection>, StorageError> {
        let mut sections = Vec::with_capacity(self.txs.len());
        for (idx, tx) in self.txs.iter().enumerate() {
            let section = loop {
                let (section, answer) = channel::bounded(1);
                let (resume_tx, resume) = channel::bounded(1);
                tx.send(ShardMsg::Barrier(CheckpointBarrier { section, resume }))
                    .map_err(|_| StorageError::Io(format!("shard {idx} has stopped")))?;
                if let Ok(section) = answer.recv() {
                    paused.push(resume_tx);
                    break section;
                }
            };
            sections.push(section);
        }
        Ok(sections)
    }

    /// Publishes the snapshot for the cut `sections` and compacts the
    /// log behind it; hands the sections back for the shards to adopt.
    fn publish(
        &mut self,
        sections: Vec<ShardSection>,
    ) -> Result<(u64, Vec<ShardSection>), StorageError> {
        // Everything the snapshot will cover must be durable *before*
        // the snapshot claims to cover it.
        self.log.flush()?;
        let covered = self.log.next_lsn();
        let gate = self.request_gate_blob();
        let state = SnapshotState {
            covered,
            shards: sections,
            gate,
            ..self.shared.capture()
        };
        if let Err(e) = save_snapshot(&self.storage, &state) {
            // The snapshot never became durable: keep the old covered
            // point, skip compaction, leave the old bases in place.
            // The log still holds the full tail, so nothing is lost.
            self.snapshot_failures.inc();
            return Err(e);
        }
        self.log.compact(covered)?;
        self.snapshots.inc();
        self.last_snapshot_lsn.set(covered as i64);
        self.schedule.since_snapshot.set(0);
        Ok((covered, state.shards))
    }

    /// Asks the front door (if one attached a hook) to export the
    /// admission gate, waiting a bounded window for its reactor to
    /// answer. `None` — no front door, or a stopped reactor — just
    /// omits the gate section from the snapshot.
    fn request_gate_blob(&self) -> Option<Vec<u8>> {
        let hook = self.gate_hook.lock().clone()?;
        hook.request();
        hook.take_blob(std::time::Duration::from_millis(500))
    }
}

impl MaService {
    /// Spawns the MA service with the default configuration (one
    /// shard — the sequential-service behavior).
    pub fn spawn<R: rand::Rng + ?Sized>(
        rng: &mut R,
        params: DecParams,
        rsa_bits: usize,
        pairing_bits: usize,
    ) -> MaService {
        Self::spawn_with_config(
            rng,
            params,
            rsa_bits,
            pairing_bits,
            ServiceConfig::default(),
        )
    }

    /// Spawns the MA service: `config.shards` self-supervising shard
    /// workers behind bounded queues plus a checkpointer thread, over a
    /// fresh in-process [`SimStorage`] with [`DurabilityConfig::new`]
    /// defaults. State survives *worker* crashes but not the process;
    /// see [`MaService::spawn_durable`] for storage that does.
    pub fn spawn_with_config<R: rand::Rng + ?Sized>(
        rng: &mut R,
        params: DecParams,
        rsa_bits: usize,
        pairing_bits: usize,
        config: ServiceConfig,
    ) -> MaService {
        Self::spawn_durable(
            rng,
            params,
            rsa_bits,
            pairing_bits,
            config,
            DurabilityConfig::new(Arc::new(SimStorage::new())),
        )
        .expect("a fresh in-memory storage cannot fail to open")
    }

    /// Spawns the MA service over a durable storage tier: every
    /// journal record lands in the on-disk segment log under
    /// `durability.storage`, checkpoints snapshot the whole market
    /// (and compact the log behind them), and a later
    /// [`MaService::recover`] over the same storage resumes where this
    /// instance stopped — spawning over non-empty storage *is*
    /// recovery.
    pub fn spawn_durable<R: rand::Rng + ?Sized>(
        rng: &mut R,
        params: DecParams,
        rsa_bits: usize,
        pairing_bits: usize,
        config: ServiceConfig,
        durability: DurabilityConfig,
    ) -> Result<MaService, StorageError> {
        Self::recover(rng, params, rsa_bits, pairing_bits, config, durability)
            .map(|(svc, _report)| svc)
    }

    /// Cold-start recovery: rebuilds a full service from the newest
    /// readable snapshot plus the log tail and reports what it
    /// replayed. Empty storage is a clean cold start. `rng` must be
    /// seeded as the original instance's was: the bank and pairing
    /// keys are regenerated deterministically from it — the
    /// reproduction's stand-in for a sealed key file (DESIGN.md §14).
    pub fn recover<R: rand::Rng + ?Sized>(
        rng: &mut R,
        params: DecParams,
        rsa_bits: usize,
        pairing_bits: usize,
        config: ServiceConfig,
        durability: DurabilityConfig,
    ) -> Result<(MaService, RecoveryReport), StorageError> {
        // Build the fixed-base window tables once, up front: every
        // shard and every client clone of `params` share the per-ring
        // caches, so nobody pays the lazy first-use build.
        params.precompute();
        let mut dec_bank = DecBank::new(rng, params.clone(), rsa_bits);
        let bank_pk = dec_bank.public_key().clone();
        let pairing = TypeAPairing::generate(rng, pairing_bits);
        // One registry for the whole service: traffic bytes, fault
        // counters, per-op latency, queue depths and WAL timings all
        // merge into a single snapshot. Private (not the process-wide
        // global) so concurrent services in one test binary don't
        // bleed counts into each other.
        let obs = Registry::new();
        let traffic = TrafficLog::in_registry(&obs);
        let faults = FaultMetrics::in_registry(&obs);

        let n_shards = config.shards.max(1);
        let depth = config.queue_depth.max(1);
        let mut report = RecoveryReport::default();
        let gate_hook: Arc<Mutex<Option<Arc<GateCheckpoint>>>> = Arc::new(Mutex::new(None));

        // Open the log, build the shared state from the newest readable
        // snapshot (an empty market without one), then apply the shared
        // half of the log tail. (Workers apply the same tail's private
        // half when they start.)
        let (log, log_rec) = DurableLog::open(
            durability.storage.clone(),
            durability.sync,
            durability.segment_bytes,
            &obs,
        )?;
        let log = Arc::new(log);
        let snap = load_latest(&durability.storage)?;
        report.snapshots_skipped = snap.skipped.len();
        report.snapshot = snap.name;
        let state = snap.state.unwrap_or_else(|| SnapshotState {
            shards: vec![ShardSection::default(); n_shards],
            ..SnapshotState::default()
        });
        if state.shards.len() != n_shards {
            return Err(StorageError::ShardMismatch {
                snapshot: state.shards.len(),
                config: n_shards,
            });
        }
        let covered = state.covered;
        report.snapshot_lsn = covered;
        dec_bank.restore_state(&state.dec);
        let bulletin = Bulletin::new();
        for job in state.jobs {
            bulletin.restore_job(job);
        }
        let shared = Arc::new(SharedState {
            bank: Bank::restore(&state.bank),
            bulletin,
            dec_bank: Mutex::new(dec_bank),
            params: params.clone(),
            bank_pk: bank_pk.clone(),
            pairing: pairing.clone(),
            cl_bindings: RwLock::new(
                (state.cl_bindings.into_iter())
                    .map(|(account, pk)| (AccountId(account), pk))
                    .collect(),
            ),
            held: Mutex::new(HeldPayments {
                pending: state.pending_payments.into_iter().collect(),
                received: state.received_reports.into_iter().collect(),
            }),
        });
        if log_rec.start_lsn > covered {
            // Records between the snapshot's coverage and the log's
            // first segment are gone — compaction ran against a
            // snapshot we can no longer read. State cannot be
            // reconstructed faithfully; refuse.
            return Err(StorageError::Corrupt {
                file: String::new(),
                offset: 0,
                detail: format!(
                    "log starts at lsn {} but newest readable snapshot covers only {}",
                    log_rec.start_lsn, covered
                ),
            });
        }
        let mut dec = shared.dec_bank.lock();
        for (_, _, record) in log_rec.records.iter().filter(|(lsn, ..)| *lsn >= covered) {
            apply(record, Some(&shared), Some(&mut dec), None);
            report.replayed_records += 1;
        }
        drop(dec);
        report.torn_tail_bytes = log_rec.torn_bytes;
        report.segments_read = log_rec.segments_read;

        let (ctrl_tx, ctrl_rx) = channel::unbounded::<Control>();
        // Created here (not inside a worker) so the service handle can
        // locate a crash dump after the incarnation is gone.
        let dumps: Arc<Mutex<Vec<PathBuf>>> = Arc::new(Mutex::new(Vec::new()));
        let since_snapshot = obs.gauge("wal.records_since_snapshot");
        since_snapshot.set(log.next_lsn().saturating_sub(covered) as i64);
        let schedule = Arc::new(CheckpointSchedule {
            every: durability.checkpoint_every,
            due: AtomicU64::new(covered.saturating_add(durability.checkpoint_every)),
            since_snapshot,
            ctrl: ctrl_tx.clone(),
        });
        let last_snapshot_lsn = obs.gauge("wal.last_snapshot_lsn");
        last_snapshot_lsn.set(covered as i64);

        // Queue-depth gauges: routers add one per enqueue, the worker
        // subtracts one per dequeue.
        let gauges: Arc<[Arc<ppms_obs::Gauge>]> = (0..n_shards)
            .map(|i| obs.gauge(&format!("ma.shard{i}.queue_depth")))
            .collect();
        let mut txs = Vec::with_capacity(n_shards);
        let mut shards = Vec::with_capacity(n_shards);
        for (idx, base) in state.shards.into_iter().enumerate() {
            let (tx, rx) = channel::bounded(depth);
            let worker = ShardWorker {
                shared: shared.clone(),
                log: log.clone(),
                base,
                schedule: schedule.clone(),
                faults: faults.clone(),
                obs: obs.clone(),
                queue_depth: gauges[idx].clone(),
                dumps: dumps.clone(),
                shard_idx: idx,
                max_batch: config.max_batch.max(1),
                crash: config.crash.filter(|c| c.shard % n_shards == idx),
            };
            txs.push(tx);
            shards.push(std::thread::spawn(move || worker.run(rx)));
        }
        let txs: Arc<[Sender<ShardMsg>]> = txs.into();
        let router = ShardRouter {
            txs: txs.clone(),
            gauges,
            placed: obs.counter("ma.direct_routed"),
        };
        let checkpointer = Checkpointer {
            shared: shared.clone(),
            txs,
            shards,
            schedule,
            log,
            storage: durability.storage,
            gate_hook: gate_hook.clone(),
            snapshots: obs.counter("wal.snapshots"),
            snapshot_failures: obs.counter("wal.snapshot_failures"),
            last_snapshot_lsn,
        };
        let handle = std::thread::spawn(move || checkpointer.run(ctrl_rx));

        let svc = MaService {
            ctrl: ctrl_tx,
            handle: Some(handle),
            bank: shared.bank.clone(),
            bulletin: shared.bulletin.clone(),
            shared,
            traffic,
            faults,
            obs,
            dumps,
            params,
            bank_pk,
            pairing,
            gate_hook,
            recovered_gate: Mutex::new(state.gate),
            router,
        };
        Ok((svc, report))
    }

    /// Takes a checkpoint now: barriers the shards for their
    /// projections, publishes one atomic snapshot of the whole market
    /// and compacts the log behind it. Returns the covered LSN — the
    /// point a future recovery replays from. Fails if the snapshot
    /// could not be published (the log is untouched in that case;
    /// nothing is lost).
    pub fn checkpoint(&self) -> Result<u64, StorageError> {
        let (reply_tx, reply_rx) = channel::bounded(1);
        self.ctrl
            .send(Control::Checkpoint(Some(reply_tx)))
            .map_err(|_| StorageError::Io("service is not running".into()))?;
        reply_rx
            .recv()
            .map_err(|_| StorageError::Io("service is not running".into()))?
    }

    /// Registers the front door's gate-checkpoint hook: during a
    /// checkpoint the checkpointer asks it for the admission gate's
    /// exported state, so paid sessions survive recovery.
    pub fn attach_gate_checkpoint(&self, hook: Arc<GateCheckpoint>) {
        *self.gate_hook.lock() = Some(hook);
    }

    /// The admission-gate state recovered from the snapshot, if any —
    /// consumed (once) by the TCP front door on spawn to restore paid
    /// sessions instead of starting a fresh gate.
    pub fn take_recovered_gate(&self) -> Option<Vec<u8>> {
        self.recovered_gate.lock().take()
    }

    /// One merged snapshot of everything observable about this
    /// service: its private registry (traffic, faults, per-op latency,
    /// queue depths, WAL timings) plus the process-global registry
    /// (crypto and bigint spans recorded via [`ppms_obs::timed!`]).
    pub fn obs_snapshot(&self) -> Snapshot {
        self.obs.snapshot().merge(&ppms_obs::global().snapshot())
    }

    /// Crash-dump files written by dead shard workers so far, in
    /// order of death.
    pub fn crash_dumps(&self) -> Vec<PathBuf> {
        self.dumps.lock().clone()
    }

    /// The shared market state (ledger, bulletin, CL bindings, DEC
    /// double-spend state, held payments) as a checkpoint writes it,
    /// without the shard sections and the gate.
    pub fn ledger(&self) -> SnapshotState {
        self.shared.capture()
    }

    /// The one way into the shard queues; see [`ShardRouter`].
    pub fn router(&self) -> ShardRouter {
        self.router.clone()
    }

    /// An in-process client connection (enums over channels; no
    /// serialization, no traffic accounting).
    pub fn client(&self) -> MaClient {
        MaClient::new(Arc::new(InProcTransport::new(self.router())), Party::Jo)
    }

    /// A simulated-network client for `party`: every message is
    /// serialized into a wire envelope, subjected to the configured
    /// latency/jitter/drop, counted in the service's [`TrafficLog`]
    /// at its actual encoded size, and decoded on the far side.
    pub fn simnet_client(&self, party: Party, config: SimNetConfig) -> MaClient {
        self.chaos_client(party, FaultPlan::from(config))
    }

    /// A simulated-network client running a full chaos schedule
    /// (drops, duplicates, stale replays, corruption) with **no**
    /// retry layer — every fault surfaces to the caller.
    pub fn chaos_client(&self, party: Party, plan: FaultPlan) -> MaClient {
        MaClient::new(
            Arc::new(SimNetTransport::with_faults(
                self.router(),
                self.traffic.clone(),
                plan,
            )),
            party,
        )
    }

    /// A chaos client wrapped in the retry layer: faults are absorbed
    /// by idempotent retransmission under `policy`, reported into the
    /// service's [`FaultMetrics`].
    pub fn retrying_client(&self, party: Party, plan: FaultPlan, policy: RetryPolicy) -> MaClient {
        let inner = Arc::new(SimNetTransport::with_faults(
            self.router(),
            self.traffic.clone(),
            plan,
        ));
        MaClient::new(
            Arc::new(RetryingTransport::new(inner, policy, self.faults.clone())),
            party,
        )
    }

    /// Stops the service: each shard finishes the requests queued
    /// ahead of its stop message, then the shards and the checkpointer
    /// are joined. Returns how many held payments were never delivered.
    pub fn shutdown(mut self) -> usize {
        self.stop()
    }

    fn stop(&mut self) -> usize {
        let Some(handle) = self.handle.take() else {
            return 0;
        };
        let _ = self.ctrl.send(Control::Shutdown);
        handle.join().unwrap_or(0)
    }
}

impl Drop for MaService {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::next_request_id;
    use ppms_crypto::cl::ClKeyPair;
    use ppms_crypto::pairing::Point;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn service(seed: u64) -> (MaService, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = DecParams::fixture(2, 8);
        let svc = MaService::spawn(&mut rng, params, 512, 40);
        (svc, rng)
    }

    fn sharded_service(seed: u64, shards: usize) -> (MaService, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = DecParams::fixture(2, 8);
        let svc = MaService::spawn_with_config(
            &mut rng,
            params,
            512,
            40,
            ServiceConfig {
                shards,
                queue_depth: 8,
                ..ServiceConfig::default()
            },
        );
        (svc, rng)
    }

    #[test]
    fn accounts_and_balances() {
        let (svc, mut rng) = service(1);
        let client = svc.client();
        let cl = ClKeyPair::generate(&mut rng, &svc.pairing);
        let MaResponse::Account(jo) = client.call(MaRequest::RegisterJoAccount {
            funds: 50,
            clpk: cl.public.clone(),
        }) else {
            panic!("account");
        };
        let MaResponse::Balance(b) = client.call(MaRequest::Balance { account: jo }) else {
            panic!("balance");
        };
        assert_eq!(b, 50);
        svc.shutdown();
    }

    #[test]
    fn withdrawal_requires_valid_cl_auth() {
        let (svc, mut rng) = service(2);
        let client = svc.client();
        let cl = ClKeyPair::generate(&mut rng, &svc.pairing);
        let other = ClKeyPair::generate(&mut rng, &svc.pairing);
        let MaResponse::Account(jo) = client.call(MaRequest::RegisterJoAccount {
            funds: 50,
            clpk: cl.public.clone(),
        }) else {
            panic!()
        };
        // Wrong key: rejected.
        let bad_auth = other.sign_bytes(&mut rng, &svc.pairing, &1u64.to_be_bytes());
        let resp = client.call(MaRequest::Withdraw {
            account: jo,
            nonce: 1,
            auth: bad_auth,
            blinded: BigUint::from(12345u64),
        });
        assert!(matches!(
            resp,
            MaResponse::Err(MarketError::BadAuthentication)
        ));
        // Right key: accepted, balance debited by 2^L = 4.
        let auth = cl.sign_bytes(&mut rng, &svc.pairing, &2u64.to_be_bytes());
        let resp = client.call(MaRequest::Withdraw {
            account: jo,
            nonce: 2,
            auth,
            blinded: BigUint::from(12345u64),
        });
        assert!(matches!(resp, MaResponse::BlindSignature(_)), "{resp:?}");
        let MaResponse::Balance(b) = client.call(MaRequest::Balance { account: jo }) else {
            panic!()
        };
        assert_eq!(b, 46);
        svc.shutdown();
    }

    #[test]
    fn registration_refuses_keys_outside_g() {
        let (svc, mut rng) = service(2);
        let client = svc.client();
        let cl = ClKeyPair::generate(&mut rng, &svc.pairing);
        let register =
            |clpk: ClPublicKey| client.call(MaRequest::RegisterJoAccount { funds: 50, clpk });
        let MaResponse::Account(first) = register(cl.public.clone()) else {
            panic!("valid key refused")
        };
        let Point::Affine { x, y } = cl.public.y_pub.clone() else {
            panic!("finite key")
        };
        let p = &svc.pairing.curve.fp.p;
        let zero = BigUint::zero();
        let bad_points = [
            Point::Infinity,
            Point::Affine {
                x: x.clone(),
                y: &y + p,
            },
            Point::Affine {
                x: &x + p,
                y: y.clone(),
            },
            Point::Affine {
                x: BigUint::from(2u64),
                y: BigUint::from(2u64),
            },
            Point::Affine {
                x: zero.clone(),
                y: zero,
            },
        ];
        for bad in bad_points {
            for clpk in [
                ClPublicKey {
                    x_pub: bad.clone(),
                    y_pub: cl.public.y_pub.clone(),
                },
                ClPublicKey {
                    x_pub: cl.public.x_pub.clone(),
                    y_pub: bad.clone(),
                },
            ] {
                let resp = register(clpk);
                assert!(
                    matches!(resp, MaResponse::Err(MarketError::BadKey)),
                    "{bad:?}: {resp:?}"
                );
            }
        }
        // No refused registration opened an account.
        let MaResponse::Account(next) = register(cl.public.clone()) else {
            panic!("valid key refused")
        };
        assert_eq!(next.0, first.0 + 1);
        svc.shutdown();
    }

    #[test]
    fn non_canonical_withdraw_auth_is_refused_without_a_respawn() {
        // A coordinate shifted by p passes no curve check and reaches
        // no field subtraction: the worker answers instead of dying,
        // and the nonce stays fresh for the honest signature.
        let (svc, mut rng) = service(2);
        let client = svc.client();
        let cl = ClKeyPair::generate(&mut rng, &svc.pairing);
        let MaResponse::Account(jo) = client.call(MaRequest::RegisterJoAccount {
            funds: 50,
            clpk: cl.public.clone(),
        }) else {
            panic!()
        };
        let auth = cl.sign_bytes(&mut rng, &svc.pairing, &1u64.to_be_bytes());
        let p = &svc.pairing.curve.fp.p;
        let respawns = svc.faults.shard_respawns();
        for field in 0..3 {
            for coord in 0..2 {
                let mut bad = auth.clone();
                let pt = match field {
                    0 => &mut bad.a,
                    1 => &mut bad.b,
                    _ => &mut bad.c,
                };
                let Point::Affine { x, y } = pt else {
                    panic!("finite signature")
                };
                if coord == 0 {
                    *x = &*x + p;
                } else {
                    *y = &*y + p;
                }
                let resp = client.call(MaRequest::Withdraw {
                    account: jo,
                    nonce: 1,
                    auth: bad,
                    blinded: BigUint::one(),
                });
                assert!(
                    matches!(resp, MaResponse::Err(MarketError::BadAuthentication)),
                    "field {field}, coordinate {coord}: {resp:?}"
                );
            }
        }
        assert_eq!(svc.faults.shard_respawns(), respawns);
        let resp = client.call(MaRequest::Withdraw {
            account: jo,
            nonce: 1,
            auth,
            blinded: BigUint::one(),
        });
        assert!(matches!(resp, MaResponse::BlindSignature(_)), "{resp:?}");
        svc.shutdown();
    }

    #[test]
    fn nonce_replay_rejected() {
        let (svc, mut rng) = service(3);
        let client = svc.client();
        let cl = ClKeyPair::generate(&mut rng, &svc.pairing);
        let MaResponse::Account(jo) = client.call(MaRequest::RegisterJoAccount {
            funds: 50,
            clpk: cl.public.clone(),
        }) else {
            panic!()
        };
        let auth = cl.sign_bytes(&mut rng, &svc.pairing, &5u64.to_be_bytes());
        let ok = client.call(MaRequest::Withdraw {
            account: jo,
            nonce: 5,
            auth: auth.clone(),
            blinded: BigUint::one(),
        });
        assert!(matches!(ok, MaResponse::BlindSignature(_)));
        let replay = client.call(MaRequest::Withdraw {
            account: jo,
            nonce: 5,
            auth,
            blinded: BigUint::one(),
        });
        assert!(matches!(
            replay,
            MaResponse::Err(MarketError::BadAuthentication)
        ));
        svc.shutdown();
    }

    #[test]
    fn payment_held_until_data() {
        let (svc, _rng) = service(4);
        let client = svc.client();
        let sp_key = vec![9u8; 16];
        client.call(MaRequest::SubmitPayment {
            sp_pubkey: sp_key.clone(),
            ciphertext: vec![1, 2, 3],
        });
        // Before data: nothing delivered.
        let MaResponse::Payment(None) = client.call(MaRequest::FetchPayment {
            sp_pubkey: sp_key.clone(),
        }) else {
            panic!("payment must be held");
        };
        client.call(MaRequest::SubmitData {
            job_id: 0,
            sp_pubkey: sp_key.clone(),
            data: vec![7],
        });
        let MaResponse::Payment(Some(ct)) =
            client.call(MaRequest::FetchPayment { sp_pubkey: sp_key })
        else {
            panic!("payment must be released after data");
        };
        assert_eq!(ct, vec![1, 2, 3]);
        svc.shutdown();
    }

    #[test]
    fn undelivered_payment_reported_at_shutdown() {
        let (svc, _rng) = service(7);
        let client = svc.client();
        client.call(MaRequest::SubmitPayment {
            sp_pubkey: vec![5; 8],
            ciphertext: vec![1],
        });
        assert_eq!(svc.shutdown(), 1, "one payment was never fetched");
    }

    #[test]
    fn batch_deposit_credits_valid_subset() {
        let (svc, mut rng) = service(6);
        let client = svc.client();
        let MaResponse::Account(sp) = client.call(MaRequest::RegisterSpAccount) else {
            panic!()
        };

        // Craft spends directly against a parallel DecBank sharing the
        // service's parameters is impossible (keys differ), so go
        // through the service's own withdrawal path.
        let cl = ClKeyPair::generate(&mut rng, &svc.pairing);
        let MaResponse::Account(jo) = client.call(MaRequest::RegisterJoAccount {
            funds: 50,
            clpk: cl.public.clone(),
        }) else {
            panic!()
        };
        let mut coin = ppms_ecash::Coin::mint(&mut rng, &svc.params);
        let (blinded, factor) = coin.blind_token(&mut rng, &svc.bank_pk);
        let auth = cl.sign_bytes(&mut rng, &svc.pairing, &1u64.to_be_bytes());
        let MaResponse::BlindSignature(sig) = client.call(MaRequest::Withdraw {
            account: jo,
            nonce: 1,
            auth,
            blinded,
        }) else {
            panic!()
        };
        assert!(coin.attach_signature(&svc.bank_pk, &sig, &factor));

        // Batch: two disjoint leaves + one duplicate.
        let s1 = coin.spend(
            &mut rng,
            &svc.params,
            &ppms_ecash::NodePath::from_index(2, 0),
            b"",
        );
        let s2 = coin.spend(
            &mut rng,
            &svc.params,
            &ppms_ecash::NodePath::from_index(2, 1),
            b"",
        );
        let dup = coin.spend(
            &mut rng,
            &svc.params,
            &ppms_ecash::NodePath::from_index(2, 0),
            b"",
        );
        let MaResponse::BatchDeposited {
            total,
            accepted,
            rejected,
        } = client.call(MaRequest::DepositBatch {
            account: sp,
            spends: vec![s1, s2, dup],
        })
        else {
            panic!("batch response");
        };
        assert_eq!(total, 2, "two unit leaves at L = 2");
        assert_eq!(accepted, 2);
        assert_eq!(rejected, 1);
        let MaResponse::Balance(b) = client.call(MaRequest::Balance { account: sp }) else {
            panic!()
        };
        assert_eq!(b, 2);
        svc.shutdown();
    }

    #[test]
    fn single_spend_deposits_as_batch_of_one() {
        let (svc, mut rng) = service(8);
        let client = svc.client();
        let MaResponse::Account(sp) = client.call(MaRequest::RegisterSpAccount) else {
            panic!()
        };
        let cl = ClKeyPair::generate(&mut rng, &svc.pairing);
        let MaResponse::Account(jo) = client.call(MaRequest::RegisterJoAccount {
            funds: 50,
            clpk: cl.public.clone(),
        }) else {
            panic!()
        };
        let mut coin = ppms_ecash::Coin::mint(&mut rng, &svc.params);
        let (blinded, factor) = coin.blind_token(&mut rng, &svc.bank_pk);
        let auth = cl.sign_bytes(&mut rng, &svc.pairing, &1u64.to_be_bytes());
        let MaResponse::BlindSignature(sig) = client.call(MaRequest::Withdraw {
            account: jo,
            nonce: 1,
            auth,
            blinded,
        }) else {
            panic!()
        };
        assert!(coin.attach_signature(&svc.bank_pk, &sig, &factor));
        let s = coin.spend(
            &mut rng,
            &svc.params,
            &ppms_ecash::NodePath::from_index(1, 0),
            b"",
        );
        let MaResponse::BatchDeposited {
            total,
            accepted,
            rejected,
        } = client.call(MaRequest::DepositBatch {
            account: sp,
            spends: vec![s],
        })
        else {
            panic!("batch response");
        };
        assert_eq!((total, accepted, rejected), (2, 1, 0));
        svc.shutdown();
    }

    #[test]
    fn a_deposit_to_an_unknown_account_burns_no_spend() {
        let (svc, mut rng) = service(9);
        let client = svc.client();
        let MaResponse::Account(sp) = client.call(MaRequest::RegisterSpAccount) else {
            panic!("sp account")
        };
        let cl = ClKeyPair::generate(&mut rng, &svc.pairing);
        let MaResponse::Account(jo) = client.call(MaRequest::RegisterJoAccount {
            funds: 50,
            clpk: cl.public.clone(),
        }) else {
            panic!("jo account")
        };
        let mut coin = ppms_ecash::Coin::mint(&mut rng, &svc.params);
        let (blinded, factor) = coin.blind_token(&mut rng, &svc.bank_pk);
        let auth = cl.sign_bytes(&mut rng, &svc.pairing, &1u64.to_be_bytes());
        let MaResponse::BlindSignature(sig) = client.call(MaRequest::Withdraw {
            account: jo,
            nonce: 1,
            auth,
            blinded,
        }) else {
            panic!("withdraw")
        };
        assert!(coin.attach_signature(&svc.bank_pk, &sig, &factor));
        let path = ppms_ecash::NodePath::from_index(1, 0);
        let spend = coin.spend(&mut rng, &svc.params, &path, b"");
        let deposit = |account| MaRequest::DepositBatch {
            account,
            spends: vec![spend.clone()],
        };
        let resp = client.call(deposit(AccountId(u64::MAX)));
        assert!(
            matches!(resp, MaResponse::Err(MarketError::NoSuchAccount)),
            "{resp:?}"
        );
        // The refused deposit recorded nothing: the spend is still good.
        let resp = client.call(deposit(sp));
        assert!(
            matches!(
                resp,
                MaResponse::BatchDeposited {
                    total: 2,
                    accepted: 1,
                    rejected: 0
                }
            ),
            "{resp:?}"
        );
        assert!(matches!(
            client.call(MaRequest::Balance { account: sp }),
            MaResponse::Balance(2)
        ));
        svc.shutdown();
    }

    #[test]
    fn labor_registration_requires_job() {
        let (svc, _rng) = service(5);
        let client = svc.client();
        let resp = client.call(MaRequest::LaborRegister {
            job_id: 99,
            sp_pubkey: vec![1],
        });
        assert!(matches!(resp, MaResponse::Err(MarketError::NoSuchJob)));
        let MaResponse::JobId(id) = client.call(MaRequest::PublishJob {
            description: "d".into(),
            payment: 2,
            pseudonym: vec![2],
        }) else {
            panic!()
        };
        assert!(matches!(
            client.call(MaRequest::LaborRegister {
                job_id: id,
                sp_pubkey: vec![1]
            }),
            MaResponse::Ok
        ));
        let MaResponse::Labor(sps) = client.call(MaRequest::FetchLabor { job_id: id }) else {
            panic!()
        };
        assert_eq!(sps, vec![vec![1u8]]);
        svc.shutdown();
    }

    #[test]
    fn sharded_service_keeps_job_affinity() {
        // With 4 shards, labor registered for a job must be visible to
        // the fetch for the same job (both route by job_id).
        let (svc, _rng) = sharded_service(9, 4);
        let client = svc.client();
        let mut job_ids = Vec::new();
        for i in 0..6u64 {
            let MaResponse::JobId(id) = client.call(MaRequest::PublishJob {
                description: format!("job {i}"),
                payment: 1,
                pseudonym: vec![i as u8],
            }) else {
                panic!()
            };
            job_ids.push(id);
        }
        for &id in &job_ids {
            assert!(matches!(
                client.call(MaRequest::LaborRegister {
                    job_id: id,
                    sp_pubkey: vec![id as u8; 4],
                }),
                MaResponse::Ok
            ));
        }
        for &id in &job_ids {
            let MaResponse::Labor(sps) = client.call(MaRequest::FetchLabor { job_id: id }) else {
                panic!()
            };
            assert_eq!(sps, vec![vec![id as u8; 4]], "job {id}");
        }
        svc.shutdown();
    }

    #[test]
    fn calls_after_shutdown_degrade_gracefully() {
        let (svc, _rng) = service(10);
        let client = svc.client();
        svc.shutdown();
        let resp = client.call(MaRequest::RegisterSpAccount);
        assert!(
            matches!(resp, MaResponse::Err(MarketError::Transport(_))),
            "{resp:?}"
        );
        assert!(client.try_call(MaRequest::RegisterSpAccount).is_err());
    }

    #[test]
    fn retransmit_replays_cached_response() {
        let (svc, _rng) = service(11);
        let client = svc.client();
        let id = next_request_id();
        let MaResponse::Account(first) = client
            .try_call_keyed(id, MaRequest::RegisterSpAccount)
            .expect("first send")
        else {
            panic!("account");
        };
        // Same key again: the cached answer comes back — no second
        // account is opened.
        let MaResponse::Account(second) = client
            .try_call_keyed(id, MaRequest::RegisterSpAccount)
            .expect("retransmit")
        else {
            panic!("account");
        };
        assert_eq!(first, second);
        assert_eq!(svc.faults.dedup_replays(), 1);
        // A fresh key is a new logical request and opens a new account.
        let MaResponse::Account(third) = client
            .try_call_keyed(next_request_id(), MaRequest::RegisterSpAccount)
            .expect("fresh request")
        else {
            panic!("account");
        };
        assert_ne!(first, third);
        svc.shutdown();
    }

    #[test]
    fn dedup_cache_is_bounded_fifo() {
        let mk = |id| RequestKey {
            party: Party::Jo,
            request_id: id,
        };
        let mut cache = DedupCache::new(2);
        cache.insert(mk(1), MaResponse::Ok);
        cache.insert(mk(2), MaResponse::Ok);
        cache.insert(mk(3), MaResponse::Ok);
        assert_eq!(cache.len(), 2);
        assert!(!cache.map.contains_key(&mk(1)), "oldest evicted");
        assert!(cache.map.contains_key(&mk(2)));
        assert!(cache.map.contains_key(&mk(3)));
    }

    /// Waits until a checkpoint has asked `hook` for the gate state:
    /// every shard is then paused at its barrier.
    fn await_gate_request(hook: &GateCheckpoint) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !hook.pending() {
            assert!(
                std::time::Instant::now() < deadline,
                "checkpoint never asked the hook"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// A keyed request with a fresh reply channel.
    fn inbound(request_id: u64, request: MaRequest) -> (Inbound, Receiver<MaResponse>) {
        let (reply, answer) = channel::bounded(1);
        let inbound = Inbound {
            key: RequestKey {
                party: Party::Jo,
                request_id,
            },
            span: SpanContext::NONE,
            request,
            reply: reply.into(),
        };
        (inbound, answer)
    }

    #[test]
    fn crashed_shard_restarts_itself_and_retry_succeeds() {
        // Batches of one, so the request queued behind the crash is
        // still in the queue, not in the crashing batch.
        let mut rng = StdRng::seed_from_u64(12);
        let params = DecParams::fixture(2, 8);
        let svc = MaService::spawn_with_config(
            &mut rng,
            params,
            512,
            40,
            ServiceConfig {
                max_batch: 1,
                crash: Some(CrashPoint {
                    shard: 0,
                    at_request: 2,
                    phase: CrashPhase::BeforeExecute,
                }),
                ..ServiceConfig::default()
            },
        );
        let client = svc.client();
        let MaResponse::JobId(job) = client.call(MaRequest::PublishJob {
            description: "j".into(),
            payment: 1,
            pseudonym: vec![1],
        }) else {
            panic!("publish");
        };
        // Queue request #2, which hits the crash point, and one behind
        // it while a checkpoint holds the shard at its barrier.
        let hook = Arc::new(GateCheckpoint::new());
        svc.attach_gate_checkpoint(hook.clone());
        let id = next_request_id();
        let register = |sp: u8| MaRequest::LaborRegister {
            job_id: job,
            sp_pubkey: vec![sp],
        };
        std::thread::scope(|scope| {
            let checkpoint = scope.spawn(|| svc.checkpoint());
            await_gate_request(&hook);
            let router = svc.router();
            let (crashing, lost) = inbound(id, register(7));
            let (queued, survived) = inbound(next_request_id(), register(8));
            assert!(router.try_route(crashing).is_ok());
            assert!(router.try_route(queued).is_ok());
            hook.fulfill(Vec::new());
            checkpoint
                .join()
                .expect("checkpoint thread")
                .expect("checkpoint");
            // Never executed, no record written: the crash hangs up.
            assert!(lost.recv().is_err(), "crash must surface as a hang-up");
            let resp = survived.recv();
            assert!(
                matches!(resp, Ok(MaResponse::Ok)),
                "the request queued behind the crash is served: {resp:?}"
            );
        });
        // The retry (same key) lands on the restarted incarnation:
        // nothing was recorded for it, so this re-executes cleanly.
        let retry = client
            .try_call_keyed(id, register(7))
            .expect("retry after restart");
        assert!(matches!(retry, MaResponse::Ok), "{retry:?}");
        assert_eq!(svc.faults.shard_respawns(), 1);
        // The pre-crash state survived the restart via journal replay.
        let MaResponse::Labor(sps) = client.call(MaRequest::FetchLabor { job_id: job }) else {
            panic!("labor");
        };
        assert_eq!(sps, vec![vec![8u8], vec![7]]);
        svc.shutdown();
    }

    use crate::storage::{FaultyStorage, SimStorage, Storage, StorageFaults};

    fn durable_service(
        seed: u64,
        config: ServiceConfig,
        durability: DurabilityConfig,
    ) -> (MaService, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = DecParams::fixture(2, 8);
        let svc = MaService::spawn_durable(&mut rng, params, 512, 40, config, durability)
            .expect("durable spawn over fresh storage");
        (svc, rng)
    }

    #[test]
    fn an_older_builds_refused_deposit_record_keeps_its_spends_spent() {
        // Before deposits were decided first, a deposit to an unknown
        // account recorded its spends, then failed to credit, and was
        // journaled with those effects beside `Err(NoSuchAccount)`.
        // Recovery replays such a record as it executed.
        let storage = Arc::new(SimStorage::new());
        let (svc, mut rng) = durable_service(
            41,
            ServiceConfig::default(),
            DurabilityConfig::new(storage.clone()),
        );
        let client = svc.client();
        let cl = ClKeyPair::generate(&mut rng, &svc.pairing);
        let MaResponse::Account(jo) = client.call(MaRequest::RegisterJoAccount {
            funds: 50,
            clpk: cl.public.clone(),
        }) else {
            panic!("jo account")
        };
        let MaResponse::Account(sp) = client.call(MaRequest::RegisterSpAccount) else {
            panic!("sp account")
        };
        let mut coin = ppms_ecash::Coin::mint(&mut rng, &svc.params);
        let (blinded, factor) = coin.blind_token(&mut rng, &svc.bank_pk);
        let auth = cl.sign_bytes(&mut rng, &svc.pairing, &1u64.to_be_bytes());
        let MaResponse::BlindSignature(sig) = client.call(MaRequest::Withdraw {
            account: jo,
            nonce: 1,
            auth,
            blinded,
        }) else {
            panic!("withdraw")
        };
        assert!(coin.attach_signature(&svc.bank_pk, &sig, &factor));
        let path = ppms_ecash::NodePath::from_index(2, 0);
        let spend = coin.spend(&mut rng, &svc.params, &path, b"");
        svc.shutdown();
        let (log, _) = DurableLog::open(
            storage.clone(),
            crate::storage::SyncPolicy::Always,
            64 * 1024,
            &Registry::new(),
        )
        .expect("reopen the log");
        let record = WalRecord {
            key: Some(RequestKey {
                party: Party::Sp,
                request_id: next_request_id(),
            }),
            span: SpanContext::NONE,
            request: MaRequest::DepositBatch {
                account: AccountId(u64::MAX),
                spends: vec![spend.clone()],
            },
            response: MaResponse::Err(MarketError::NoSuchAccount),
            effects: vec![(0, 1)],
        };
        log.append(0, &record).expect("append the older record");
        drop(log);

        let (svc, _rng) =
            durable_service(41, ServiceConfig::default(), DurabilityConfig::new(storage));
        let resp = svc.client().call(MaRequest::DepositBatch {
            account: sp,
            spends: vec![spend],
        });
        assert!(
            matches!(
                resp,
                MaResponse::BatchDeposited {
                    accepted: 0,
                    rejected: 1,
                    ..
                }
            ),
            "the replayed record's spend stays spent: {resp:?}"
        );
        assert!(matches!(
            svc.client().call(MaRequest::Balance { account: sp }),
            MaResponse::Balance(0)
        ));
        svc.shutdown();
    }

    #[test]
    fn durable_service_recovers_cold_from_log_alone() {
        let storage = Arc::new(SimStorage::new());
        let (svc, mut rng) = durable_service(
            40,
            ServiceConfig::default(),
            DurabilityConfig::new(storage.clone()),
        );
        let client = svc.client();
        let cl = ClKeyPair::generate(&mut rng, &svc.pairing);
        let MaResponse::Account(jo) = client.call(MaRequest::RegisterJoAccount {
            funds: 50,
            clpk: cl.public.clone(),
        }) else {
            panic!()
        };
        let MaResponse::Account(sp) = client.call(MaRequest::RegisterSpAccount) else {
            panic!()
        };
        let mut coin = ppms_ecash::Coin::mint(&mut rng, &svc.params);
        let (blinded, factor) = coin.blind_token(&mut rng, &svc.bank_pk);
        let auth = cl.sign_bytes(&mut rng, &svc.pairing, &1u64.to_be_bytes());
        let MaResponse::BlindSignature(sig) = client.call(MaRequest::Withdraw {
            account: jo,
            nonce: 1,
            auth,
            blinded,
        }) else {
            panic!()
        };
        assert!(coin.attach_signature(&svc.bank_pk, &sig, &factor));
        let s1 = coin.spend(
            &mut rng,
            &svc.params,
            &ppms_ecash::NodePath::from_index(2, 0),
            b"",
        );
        let MaResponse::BatchDeposited { total, .. } = client.call(MaRequest::DepositBatch {
            account: sp,
            spends: vec![s1.clone()],
        }) else {
            panic!()
        };
        assert_eq!(total, 1);
        client.call(MaRequest::SubmitPayment {
            sp_pubkey: vec![9; 8],
            ciphertext: vec![1, 2, 3],
        });
        let before = svc.bank.snapshot();
        svc.shutdown();

        // Same seed → same keys (the sealed-key-file stand-in); no
        // checkpoint was ever taken, so this is recovery from the log
        // alone.
        let mut rng2 = StdRng::seed_from_u64(40);
        let (svc2, report) = MaService::recover(
            &mut rng2,
            DecParams::fixture(2, 8),
            512,
            40,
            ServiceConfig::default(),
            DurabilityConfig::new(storage),
        )
        .expect("recover");
        assert!(report.snapshot.is_none(), "no checkpoint was taken");
        assert!(report.replayed_records > 0);
        assert_eq!(svc2.bank.snapshot(), before, "ledger restored exactly");
        let client2 = svc2.client();
        // DEC double-spend state survived: the deposited spend under a
        // fresh request key is a double-spend, not a credit.
        let MaResponse::BatchDeposited {
            total,
            accepted,
            rejected,
        } = client2.call(MaRequest::DepositBatch {
            account: sp,
            spends: vec![s1],
        })
        else {
            panic!()
        };
        assert_eq!((total, accepted, rejected), (0, 0, 1));
        // The per-shard nonce high-water mark survived: the old nonce
        // is refused even under a valid signature.
        let auth2 = cl.sign_bytes(&mut rng2, &svc2.pairing, &1u64.to_be_bytes());
        let resp = client2.call(MaRequest::Withdraw {
            account: jo,
            nonce: 1,
            auth: auth2,
            blinded: BigUint::one(),
        });
        assert!(matches!(
            resp,
            MaResponse::Err(MarketError::BadAuthentication)
        ));
        // And the held (never fetched) payment is still held.
        assert_eq!(svc2.shutdown(), 1);
    }

    #[test]
    fn checkpoint_compacts_log_and_bounds_recovery_replay() {
        let storage = Arc::new(SimStorage::new());
        let mut durability = DurabilityConfig::new(storage.clone());
        // Tiny segments so the pre-checkpoint history spans several
        // files and compaction has something to drop.
        durability.segment_bytes = 256;
        let (svc, _rng) = durable_service(41, ServiceConfig::default(), durability.clone());
        let client = svc.client();
        for i in 0..6u8 {
            client.call(MaRequest::SubmitPayment {
                sp_pubkey: vec![i; 8],
                ciphertext: vec![i; 40],
            });
        }
        let covered = svc.checkpoint().expect("checkpoint");
        assert_eq!(covered, 6, "six writes journal six records");
        assert_eq!(svc.faults.wal_snapshots(), 1);
        assert!(svc.faults.wal_compactions() >= 1, "segments were dropped");
        // One more request after the checkpoint: the only tail.
        client.call(MaRequest::SubmitData {
            job_id: 0,
            sp_pubkey: vec![0; 8],
            data: vec![1],
        });
        let before = svc.bank.snapshot();
        svc.shutdown();

        let mut rng2 = StdRng::seed_from_u64(41);
        let (svc2, report) = MaService::recover(
            &mut rng2,
            DecParams::fixture(2, 8),
            512,
            40,
            ServiceConfig::default(),
            durability,
        )
        .expect("recover");
        assert_eq!(report.snapshot_lsn, covered);
        assert!(report.snapshot.is_some());
        // The compaction guarantee: recovery replays only the records
        // written since the snapshot, however long the prior history.
        assert_eq!(report.replayed_records, 1);
        assert_eq!(svc2.bank.snapshot(), before);
        // Payment 0's data arrived post-checkpoint, so its payment is
        // deliverable; the other five stay held.
        let client2 = svc2.client();
        let MaResponse::Payment(Some(ct)) = client2.call(MaRequest::FetchPayment {
            sp_pubkey: vec![0; 8],
        }) else {
            panic!("post-checkpoint SubmitData must survive recovery");
        };
        assert_eq!(ct, vec![0; 40]);
        assert_eq!(svc2.shutdown(), 5);
    }

    #[test]
    fn recovery_under_different_shard_count_is_refused() {
        let storage = Arc::new(SimStorage::new());
        let sharded = ServiceConfig {
            shards: 2,
            ..ServiceConfig::default()
        };
        let (svc, _rng) = durable_service(42, sharded, DurabilityConfig::new(storage.clone()));
        svc.client().call(MaRequest::SubmitPayment {
            sp_pubkey: vec![1; 8],
            ciphertext: vec![2],
        });
        svc.checkpoint().expect("checkpoint");
        svc.shutdown();

        let mut rng2 = StdRng::seed_from_u64(42);
        let err = match MaService::recover(
            &mut rng2,
            DecParams::fixture(2, 8),
            512,
            40,
            ServiceConfig::default(),
            DurabilityConfig::new(storage),
        ) {
            Ok(_) => panic!("shard counts must match the snapshot"),
            Err(e) => e,
        };
        assert!(
            matches!(
                err,
                StorageError::ShardMismatch {
                    snapshot: 2,
                    config: 1
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn in_memory_service_checkpoints_and_respawns_from_base() {
        // The in-memory service journals to the same log as a durable
        // one, so it checkpoints too; a worker that dies after the
        // checkpoint respawns from the checkpointed base plus the log
        // tail (compaction dropped the records the base covers).
        let mut rng = StdRng::seed_from_u64(43);
        let svc = MaService::spawn_with_config(
            &mut rng,
            DecParams::fixture(2, 8),
            512,
            40,
            ServiceConfig {
                crash: Some(CrashPoint {
                    shard: 0,
                    at_request: 4,
                    phase: CrashPhase::BeforeExecute,
                }),
                ..ServiceConfig::default()
            },
        );
        let client = svc.client();
        let MaResponse::JobId(job) = client.call(MaRequest::PublishJob {
            description: "j".into(),
            payment: 1,
            pseudonym: vec![1],
        }) else {
            panic!("publish");
        };
        for sp in 1..=2u8 {
            let resp = client.call(MaRequest::LaborRegister {
                job_id: job,
                sp_pubkey: vec![sp],
            });
            assert!(matches!(resp, MaResponse::Ok), "{resp:?}");
        }
        let covered = svc.checkpoint().expect("in-memory checkpoint");
        assert_eq!(covered, 3, "three writes journal three records");
        assert_eq!(svc.faults.wal_snapshots(), 1);
        assert!(svc.faults.wal_compactions() >= 1, "covered segment dropped");
        // Request #4 hits the crash point after the checkpoint.
        let id = next_request_id();
        let third = MaRequest::LaborRegister {
            job_id: job,
            sp_pubkey: vec![3],
        };
        assert!(client.try_call_keyed(id, third.clone()).is_err());
        let retry = client
            .try_call_keyed(id, third)
            .expect("retry after respawn");
        assert!(matches!(retry, MaResponse::Ok), "{retry:?}");
        assert_eq!(svc.faults.shard_respawns(), 1);
        let MaResponse::Labor(sps) = client.call(MaRequest::FetchLabor { job_id: job }) else {
            panic!("labor");
        };
        assert_eq!(sps, vec![vec![1u8], vec![2], vec![3]]);
        svc.shutdown();
    }

    #[test]
    fn group_commits_count_only_flushes_that_fsynced() {
        // Three deposits queue behind a shard held at a checkpoint
        // barrier, so one drain executes all three. Under `Always`
        // each append fsynced already and the batch flush has nothing
        // to do; only a deferring policy makes it a group commit.
        use crate::storage::SyncPolicy;
        for (policy, expected) in [
            (SyncPolicy::Always, 0),
            (SyncPolicy::Batch { every: 1000 }, 1),
        ] {
            let mut durability = DurabilityConfig::new(Arc::new(SimStorage::new()));
            durability.sync = policy;
            let (svc, mut rng) = durable_service(46, ServiceConfig::default(), durability);
            let client = svc.client();
            let MaResponse::Account(sp) = client.call(MaRequest::RegisterSpAccount) else {
                panic!("sp account");
            };
            let cl = ClKeyPair::generate(&mut rng, &svc.pairing);
            let MaResponse::Account(jo) = client.call(MaRequest::RegisterJoAccount {
                funds: 50,
                clpk: cl.public.clone(),
            }) else {
                panic!("jo account");
            };
            let mut coin = ppms_ecash::Coin::mint(&mut rng, &svc.params);
            let (blinded, factor) = coin.blind_token(&mut rng, &svc.bank_pk);
            let auth = cl.sign_bytes(&mut rng, &svc.pairing, &1u64.to_be_bytes());
            let MaResponse::BlindSignature(sig) = client.call(MaRequest::Withdraw {
                account: jo,
                nonce: 1,
                auth,
                blinded,
            }) else {
                panic!("withdraw");
            };
            assert!(coin.attach_signature(&svc.bank_pk, &sig, &factor));
            let deposits: Vec<_> = (0..3)
                .map(|leaf| {
                    let path = ppms_ecash::NodePath::from_index(2, leaf);
                    inbound(
                        next_request_id(),
                        MaRequest::DepositBatch {
                            account: sp,
                            spends: vec![coin.spend(&mut rng, &svc.params, &path, b"")],
                        },
                    )
                })
                .collect();
            let hook = Arc::new(GateCheckpoint::new());
            svc.attach_gate_checkpoint(hook.clone());
            let drains = svc.obs.counter("batch.drains");
            let group_commits = svc.obs.counter("batch.group_commits");
            std::thread::scope(|scope| {
                let checkpoint = scope.spawn(|| svc.checkpoint());
                await_gate_request(&hook);
                let drains_before = drains.get();
                let router = svc.router();
                let answers: Vec<_> = deposits
                    .into_iter()
                    .map(|(deposit, answer)| {
                        assert!(router.try_route(deposit).is_ok(), "queued, not shed");
                        answer
                    })
                    .collect();
                hook.fulfill(Vec::new());
                checkpoint
                    .join()
                    .expect("checkpoint thread")
                    .expect("checkpoint");
                for answer in answers {
                    let resp = answer.recv();
                    assert!(
                        matches!(resp, Ok(MaResponse::BatchDeposited { accepted: 1, .. })),
                        "{policy:?}: {resp:?}"
                    );
                }
                assert_eq!(drains.get() - drains_before, 1, "{policy:?}: one drain");
            });
            assert_eq!(group_commits.get(), expected, "{policy:?}");
            svc.shutdown();
        }
    }

    #[test]
    fn checkpoint_pauses_direct_routes_so_recovery_applies_once() {
        // A request that executed while a checkpoint runs would land
        // after the covered LSN was read but before the shared state
        // was captured, and recovery would apply it a second time. Here
        // two withdrawals arrive while the checkpoint waits on the gate
        // hook, one through `try_route` and one through an in-process
        // client. Both queue behind the paused shard and are answered
        // only after the hook is fulfilled; the recovered ledger must
        // show one debit each.
        let storage = Arc::new(SimStorage::new());
        let (svc, mut rng) = durable_service(
            45,
            ServiceConfig::default(),
            DurabilityConfig::new(storage.clone()),
        );
        let hook = Arc::new(GateCheckpoint::new());
        svc.attach_gate_checkpoint(hook.clone());
        let cl = ClKeyPair::generate(&mut rng, &svc.pairing);
        let MaResponse::Account(jo) = svc.client().call(MaRequest::RegisterJoAccount {
            funds: 50,
            clpk: cl.public.clone(),
        }) else {
            panic!("register");
        };
        let withdraw = |rng: &mut StdRng, nonce: u64| MaRequest::Withdraw {
            account: jo,
            nonce,
            auth: cl.sign_bytes(rng, &svc.pairing, &nonce.to_be_bytes()),
            blinded: BigUint::from(12345u64),
        };
        let (routed, routed_answer) = inbound(next_request_id(), withdraw(&mut rng, 1));
        let from_client = withdraw(&mut rng, 2);
        std::thread::scope(|scope| {
            let checkpoint = scope.spawn(|| svc.checkpoint());
            await_gate_request(&hook);
            assert!(svc.router().try_route(routed).is_ok(), "queued, not shed");
            let client = scope.spawn(|| svc.client().call(from_client));
            let wait = std::time::Duration::from_millis(50);
            assert!(
                routed_answer.recv_timeout(wait).is_err(),
                "a routed request executed inside the checkpoint"
            );
            assert!(
                !client.is_finished(),
                "a client request executed inside the checkpoint"
            );
            hook.fulfill(Vec::new());
            checkpoint
                .join()
                .expect("checkpoint thread")
                .expect("checkpoint");
            let resp = routed_answer.recv();
            assert!(
                matches!(resp, Ok(MaResponse::BlindSignature(_))),
                "{resp:?}"
            );
            let resp = client.join().expect("client thread");
            assert!(matches!(resp, MaResponse::BlindSignature(_)), "{resp:?}");
        });
        let live = svc.bank.snapshot();
        svc.shutdown();

        let (recovered, _) = MaService::recover(
            &mut StdRng::seed_from_u64(45),
            DecParams::fixture(2, 8),
            512,
            40,
            ServiceConfig::default(),
            DurabilityConfig::new(storage),
        )
        .expect("recover");
        assert_eq!(recovered.bank.snapshot(), live, "one debit each");
        recovered.shutdown();
    }

    #[test]
    fn a_refused_withdrawals_nonce_stays_burned_after_a_restart() {
        // Request #4 (after the registration and two withdrawals) hits
        // the crash point.
        let mut rng = StdRng::seed_from_u64(49);
        let params = DecParams::fixture(2, 8);
        let face = params.face_value();
        let svc = MaService::spawn_with_config(
            &mut rng,
            params,
            512,
            40,
            ServiceConfig {
                crash: Some(CrashPoint {
                    shard: 0,
                    at_request: 4,
                    phase: CrashPhase::BeforeExecute,
                }),
                ..ServiceConfig::default()
            },
        );
        let client = svc.client();
        let cl = ClKeyPair::generate(&mut rng, &svc.pairing);
        let MaResponse::Account(jo) = client.call(MaRequest::RegisterJoAccount {
            funds: face,
            clpk: cl.public.clone(),
        }) else {
            panic!("register");
        };
        let withdraw = |rng: &mut StdRng, nonce: u64| MaRequest::Withdraw {
            account: jo,
            nonce,
            auth: cl.sign_bytes(rng, &svc.pairing, &nonce.to_be_bytes()),
            blinded: BigUint::from(12345u64),
        };
        let resp = client.call(withdraw(&mut rng, 1));
        assert!(matches!(resp, MaResponse::BlindSignature(_)), "{resp:?}");
        // Nonce 2 verifies, so it burns, but the one coin is spent.
        let refused = withdraw(&mut rng, 2);
        let resp = client.call(refused.clone());
        assert!(
            matches!(resp, MaResponse::Err(MarketError::InsufficientFunds)),
            "{resp:?}"
        );
        assert!(client.try_call(MaRequest::RegisterSpAccount).is_err());
        assert_eq!(svc.faults.shard_respawns(), 1);
        // The same signed (nonce, auth) under a new request id: the
        // restarted shard must still know nonce 2 as used.
        let resp = client.try_call_keyed(next_request_id(), refused);
        assert!(
            matches!(resp, Ok(MaResponse::Err(MarketError::BadAuthentication))),
            "a replayed authorization passed the freshness check: {resp:?}"
        );
        svc.shutdown();
    }

    #[test]
    fn short_reads_never_reexecute_a_write_after_a_restart() {
        // Half of all reads come back short. Three keyed registrations,
        // a crash at the fourth request, then the three keys
        // retransmitted: each must answer the account it opened, or
        // fail visibly because its shard stopped on a read that stayed
        // short. It must never open a second account.
        let mut stopped = 0;
        for seed in 1..=40u64 {
            let storage = Arc::new(FaultyStorage::new(
                Arc::new(SimStorage::new()),
                StorageFaults {
                    short_read: 0.5,
                    seed,
                    ..StorageFaults::default()
                },
            ));
            let (svc, _rng) = durable_service(
                seed,
                ServiceConfig {
                    crash: Some(CrashPoint {
                        shard: 0,
                        at_request: 4,
                        phase: CrashPhase::BeforeExecute,
                    }),
                    ..ServiceConfig::default()
                },
                DurabilityConfig::new(storage),
            );
            let client = svc.client();
            let keys: Vec<u64> = (0..3).map(|_| next_request_id()).collect();
            let opened: Vec<_> = keys
                .iter()
                .map(|&id| client.try_call_keyed(id, MaRequest::RegisterSpAccount))
                .collect();
            let crashed = client.try_call(MaRequest::RegisterSpAccount);
            assert!(crashed.is_err(), "seed {seed}: {crashed:?}");
            let mut visible = opened.iter().any(Result::is_err);
            for (&id, first) in keys.iter().zip(&opened) {
                match (
                    first,
                    client.try_call_keyed(id, MaRequest::RegisterSpAccount),
                ) {
                    (_, Err(MarketError::Transport(_))) => visible = true,
                    (Ok(MaResponse::Account(a)), Ok(MaResponse::Account(b))) => {
                        assert_eq!(*a, b, "seed {seed}: a retransmit opened a second account");
                    }
                    (first, again) => {
                        assert!(first.is_err(), "seed {seed}: {first:?} then {again:?}");
                    }
                }
            }
            stopped += visible as usize;
            svc.shutdown();
        }
        eprintln!("short reads: {stopped} of 40 seeds stopped a shard visibly");
        assert!(stopped < 40, "no seed got past a short read");
    }

    #[test]
    fn a_failed_scheduled_checkpoint_waits_for_more_records() {
        // Every snapshot write tears, so every checkpoint fails. The
        // retry must wait for another `checkpoint_every` appends, not
        // spin while the service idles.
        let storage = FaultyStorage::new(
            Arc::new(SimStorage::new()),
            StorageFaults {
                torn_atomic: 1.0,
                ..StorageFaults::default()
            },
        );
        let mut durability = DurabilityConfig::new(Arc::new(storage));
        durability.checkpoint_every = 2;
        let (svc, _rng) = durable_service(47, ServiceConfig::default(), durability);
        let client = svc.client();
        for i in 0..4u8 {
            client.call(MaRequest::SubmitPayment {
                sp_pubkey: vec![i; 8],
                ciphertext: vec![i],
            });
        }
        // Control is FIFO: once this explicit checkpoint returns, every
        // scheduled one the writes asked for has run.
        assert!(svc.checkpoint().is_err(), "every snapshot write tears");
        let failures = || svc.obs.snapshot().counter("wal.snapshot_failures");
        let before = failures();
        assert!(before >= 2, "no scheduled checkpoint ran: {before}");
        std::thread::sleep(std::time::Duration::from_millis(200));
        assert_eq!(failures(), before, "an idle service retried a checkpoint");
        svc.shutdown();
    }

    #[test]
    fn a_journal_that_no_longer_replays_stops_its_shard() {
        let storage = Arc::new(SimStorage::new());
        let (svc, _rng) = durable_service(
            48,
            ServiceConfig {
                crash: Some(CrashPoint {
                    shard: 0,
                    at_request: 3,
                    phase: CrashPhase::BeforeExecute,
                }),
                ..ServiceConfig::default()
            },
            DurabilityConfig::new(storage.clone()),
        );
        let client = svc.client();
        for i in 0..2u8 {
            client.call(MaRequest::SubmitPayment {
                sp_pubkey: vec![i; 8],
                ciphertext: vec![i],
            });
        }
        // Rot one bit in the first record's body: past the 16-byte
        // segment header and the frame's length word.
        let segment = storage
            .list()
            .expect("list")
            .into_iter()
            .find(|name| name.starts_with("wal-") && name.ends_with(".seg"))
            .expect("a segment");
        storage.flip_bit(&segment, 16 + 4 + 8, 0x01);
        // Request #3 hits the crash point; the restart cannot replay.
        let crashed = client.try_call(MaRequest::RegisterSpAccount);
        assert!(crashed.is_err(), "{crashed:?}");
        for _ in 0..10 {
            let resp = client.try_call(MaRequest::RegisterSpAccount);
            assert!(
                matches!(resp, Err(MarketError::Transport(_))),
                "a stopped shard must refuse: {resp:?}"
            );
        }
        assert!(svc.faults.shard_respawns() <= 1, "a respawn per request");
        let dumps = svc.crash_dumps();
        let replay_dump = dumps.iter().any(|path| {
            std::fs::read_to_string(path).is_ok_and(|body| body.contains("journal-replay-failed"))
        });
        assert!(replay_dump, "no dump names the replay failure: {dumps:?}");
        svc.shutdown();
    }

    #[test]
    fn reads_are_neither_journaled_nor_cached() {
        // Request #12 (one write, eight reads, the keyed Balance, the
        // withdrawal, then a fresh write) hits the crash point.
        let mut rng = StdRng::seed_from_u64(46);
        let svc = MaService::spawn_with_config(
            &mut rng,
            DecParams::fixture(2, 8),
            512,
            40,
            ServiceConfig {
                crash: Some(CrashPoint {
                    shard: 0,
                    at_request: 12,
                    phase: CrashPhase::BeforeExecute,
                }),
                ..ServiceConfig::default()
            },
        );
        let client = svc.client();
        let cl = ClKeyPair::generate(&mut rng, &svc.pairing);
        let MaResponse::Account(jo) = client.call(MaRequest::RegisterJoAccount {
            funds: 50,
            clpk: cl.public.clone(),
        }) else {
            panic!("register");
        };
        let journal = |svc: &MaService| {
            let snap = svc.obs_snapshot();
            let appends = snap.histogram("wal.append_ns").map_or(0, |h| h.count);
            (appends, snap.gauge("wal.records"))
        };
        let before = journal(&svc);
        assert_eq!(before, (1, 1), "the registration is the one record");

        // Reads append nothing: no record, no LSN.
        for _ in 0..4 {
            let resp = client.call(MaRequest::Balance { account: jo });
            assert!(matches!(resp, MaResponse::Balance(50)), "{resp:?}");
            let resp = client.call(MaRequest::FetchLabor { job_id: 0 });
            assert!(matches!(resp, MaResponse::Labor(_)), "{resp:?}");
        }
        assert_eq!(journal(&svc), before, "reads must not be journaled");

        // A keyed read, then a withdrawal that changes its answer.
        let read_id = next_request_id();
        let balance = MaRequest::Balance { account: jo };
        let resp = client.try_call_keyed(read_id, balance.clone());
        assert!(matches!(resp, Ok(MaResponse::Balance(50))), "{resp:?}");
        let auth = cl.sign_bytes(&mut rng, &svc.pairing, &1u64.to_be_bytes());
        let resp = client.call(MaRequest::Withdraw {
            account: jo,
            nonce: 1,
            auth,
            blinded: BigUint::from(12345u64),
        });
        assert!(matches!(resp, MaResponse::BlindSignature(_)), "{resp:?}");
        let now = 50 - svc.params.face_value();

        // Crash and restart: the new incarnation rebuilds its dedup
        // cache from the journal alone.
        let id = next_request_id();
        assert!(client
            .try_call_keyed(id, MaRequest::RegisterSpAccount)
            .is_err());
        let resp = client.try_call_keyed(id, MaRequest::RegisterSpAccount);
        assert!(matches!(resp, Ok(MaResponse::Account(_))), "{resp:?}");
        assert_eq!(svc.faults.shard_respawns(), 1);

        // The retransmitted read re-executes against current state.
        let replays = svc.faults.dedup_replays();
        let resp = client.try_call_keyed(read_id, balance);
        assert!(
            matches!(resp, Ok(MaResponse::Balance(b)) if b == now),
            "a retransmitted read answers the current balance {now}: {resp:?}"
        );
        assert_eq!(
            svc.faults.dedup_replays(),
            replays,
            "reads are never cached"
        );
        svc.shutdown();
    }
}

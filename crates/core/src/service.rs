//! The market administrator as a **message-passing service** — the
//! paper's Fig. 1 system model made concrete: JOs and SPs are
//! independent threads that talk to the MA exclusively through a
//! [`crate::transport::Transport`], and the MA enforces the
//! protocol rules (publish, forward, hold payments until data arrives,
//! verify deposits).
//!
//! Internally the service is a **supervisor plus N shard workers**:
//! the dispatcher routes each request to a shard by its affinity key
//! (`AccountId` for ledger operations, `job_id` for job-scoped ones,
//! the SP pseudonym for payment forwarding), so all per-key state
//! lives in exactly one shard and never needs a lock. Cross-cutting
//! state (ledger, bulletin, DEC bank, held payments) is shared behind
//! the existing thread-safe types. Channels are bounded end to end,
//! so a flood of clients exerts backpressure instead of growing
//! queues without limit. `Shutdown` drains the shards and reports how
//! many held payments were never delivered.
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
//! * **Journaling.** A shard appends one [`WalRecord`] — request,
//!   response and effects — to the service's [`DurableLog`] after each
//!   write executes and before its reply is released, so its private
//!   state (nonce high-water marks, labor, data reports, the
//!   idempotency cache) can be rebuilt after a crash. Pure reads
//!   (`Balance`, `FetchLabor`) are neither journaled nor cached; a
//!   retransmitted read re-executes. The log sits on the caller's storage
//!   ([`MaService::spawn_durable`]) or on an in-process
//!   [`SimStorage`] ([`MaService::spawn_with_config`]), whose bytes
//!   outlive any worker thread.
//! * **Supervision.** The dispatcher doubles as supervisor: when a
//!   send to a shard fails (the worker panicked or was
//!   crash-injected), it joins the corpse, respawns the worker over
//!   the same journal, and redelivers the request.
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
use std::sync::atomic::{AtomicBool, Ordering};
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
    /// Stop the service: the dispatcher drains every shard, then
    /// reports how many held payments were never delivered.
    Shutdown,
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
    /// Shutdown complete; the shards are drained.
    Drained {
        /// Held payments that were never picked up by their SP.
        undelivered_payments: usize,
    },
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

/// One request plus its reply channel — the unit the dispatcher
/// routes to a shard.
pub struct Inbound {
    /// Idempotency key; `None` only for hand-built internal sends.
    pub key: Option<RequestKey>,
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

/// Crash-injection point for the supervision tests: the chosen shard
/// worker exits (as if panicked) just before its `at_request`-th
/// executed request runs — the canonical "lost in flight" window,
/// which leaves no journal record. Executed requests are those that
/// missed the dedup cache, reads included. Fires at most once per
/// service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// Which shard dies (taken modulo the shard count).
    pub shard: usize,
    /// 1-based count of executed requests that triggers the crash.
    pub at_request: u64,
}

/// Crash-injection point for the batching pipeline: the chosen shard
/// worker exits after its `at_request`-th executed request ran and
/// its record (if it is a write) was appended — *between* the batch's
/// verification/execution and its group-commit flush, before any held
/// reply is released. Items executed earlier in the same cross-client
/// batch have journal records but unanswered clients; the retries
/// must replay, not re-execute (pinned by `tests/chaos.rs` /
/// `tests/recovery.rs`). Fires at most once per service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MidBatchCrash {
    /// Which shard dies (taken modulo the shard count).
    pub shard: usize,
    /// 1-based count of executed requests that triggers the crash.
    pub at_request: u64,
}

/// Flush triggers for shard-level dynamic batching (DESIGN.md §16): a
/// worker drains its queue into a batch until the size cap, then
/// Nagle-waits for companions only while the observed arrival rate
/// says one is likely inside the deadline window.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Batch-size cap N: the most items one drain may collect.
    pub max_batch: usize,
    /// Upper bound D on the adaptive flush deadline, in microseconds.
    /// `0` disables the Nagle wait entirely (pure greedy drain).
    pub max_delay_micros: u64,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_batch: 32,
            max_delay_micros: 150,
        }
    }
}

/// Sizing knobs for the sharded service.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Number of shard worker threads.
    pub shards: usize,
    /// Capacity of the inbox and of each shard queue (backpressure:
    /// senders block when a queue is full).
    pub queue_depth: usize,
    /// Cross-client batching flush triggers.
    pub batch: BatchConfig,
    /// Optional crash injection for the supervision tests.
    pub crash: Option<CrashPoint>,
    /// Optional mid-batch crash injection (between batch verify and
    /// group commit) for the batching chaos tests.
    pub crash_mid_batch: Option<MidBatchCrash>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 1,
            queue_depth: 128,
            batch: BatchConfig::default(),
            crash: None,
            crash_mid_batch: None,
        }
    }
}

/// Handle to a running MA service (dispatcher + shards).
pub struct MaService {
    tx: Sender<Inbound>,
    /// Service-level operations (checkpointing) — separate from the
    /// request inbox so they skip request backpressure.
    ctrl: Sender<Control>,
    handle: Option<JoinHandle<()>>,
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
    /// Crash-dump files written by dead workers, in order of death.
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
    /// The live shard inboxes (shared with the dispatcher, which
    /// refreshes them on respawn) — what a [`ShardRouter`] sends into.
    shard_txs: Arc<Mutex<Vec<Sender<ShardMsg>>>>,
    /// Set by the dispatcher while a checkpoint runs (see
    /// [`ShardRouter`]).
    routes_paused: Arc<AtomicBool>,
    /// Queue-depth gauges, one per shard, for direct routers.
    queue_gauges: Vec<Arc<ppms_obs::Gauge>>,
    n_shards: usize,
}

/// A direct route into the shard queues, handed to the TCP reactor:
/// the per-request hop through the dispatcher thread (one channel
/// transfer plus a thread wake on an otherwise-parked core) is pure
/// overhead on the hot path, so the reactor sends straight into the
/// target shard's inbox. Anything the router cannot place — a full or
/// disconnected shard queue, a `Shutdown`, a not-yet-spawned shard —
/// is handed back for the supervised inbox path, where the dispatcher
/// still owns respawn and backpressure. Sharing `shard_txs` with the
/// dispatcher keeps direct routes valid across worker respawns. While
/// a checkpoint runs the router places nothing: a request reaching a
/// shard behind the checkpoint's barrier would fall outside the cut.
pub struct ShardRouter {
    txs: Arc<Mutex<Vec<Sender<ShardMsg>>>>,
    paused: Arc<AtomicBool>,
    gauges: Vec<Arc<ppms_obs::Gauge>>,
    n_shards: usize,
    rr: usize,
    direct: Arc<ppms_obs::Counter>,
}

impl ShardRouter {
    /// Places `inbound` on its shard's queue, or returns it when the
    /// dispatcher must get involved instead.
    // The Err variant is the *moved-back* request, not an error type:
    // boxing it would put an allocation on the zero-alloc hot path.
    #[allow(clippy::result_large_err)]
    pub fn try_route(&mut self, inbound: Inbound) -> Result<(), Inbound> {
        if matches!(inbound.request, MaRequest::Shutdown) {
            // Shutdown is a dispatcher-level protocol message, not a
            // shard request.
            return Err(inbound);
        }
        let idx = route(inbound.key, &inbound.request, self.n_shards, &mut self.rr);
        // Send under the lock: the dispatcher raises `paused` under
        // it too, so once a checkpoint starts no send is mid-flight.
        let txs = self.txs.lock();
        let tx = match txs.get(idx) {
            Some(tx) if !self.paused.load(Ordering::SeqCst) => tx,
            _ => return Err(inbound), // still spawning, or checkpointing
        };
        match tx.try_send(ShardMsg::Req(Box::new(inbound))) {
            Ok(()) => {
                self.gauges[idx].add(1);
                self.direct.inc();
                Ok(())
            }
            Err(TrySendError::Full(msg)) | Err(TrySendError::Disconnected(msg)) => {
                let ShardMsg::Req(inbound) = msg else {
                    unreachable!("router only sends requests")
                };
                Err(*inbound)
            }
        }
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

    fn get(&self, key: &RequestKey) -> Option<&MaResponse> {
        self.map.get(key)
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
}

impl Shard {
    /// Executes one request. `effects` records shared-state outcomes
    /// that cold-start recovery cannot re-derive from the response
    /// alone: for `DepositBatch` it collects the `(index, value)` of
    /// every *accepted* spend, so replay re-inserts exactly the spends
    /// the original execution accepted without re-running the ZK
    /// verification (whose verdict lives only in the journal).
    ///
    /// `verdicts` is this request's slice of the worker's cross-client
    /// combined verification (one verdict per spend; empty for every
    /// other request). The `DepositBatch` arm consumes them; the
    /// stateful double-spend bookkeeping runs here, in arrival order.
    fn handle(
        &mut self,
        request: &MaRequest,
        effects: &mut Vec<(u32, u64)>,
        verdicts: Vec<Result<u64, DecError>>,
    ) -> MaResponse {
        use MaRequest::*;
        match request {
            RegisterJoAccount { funds, clpk } => {
                // Withdraw verifies under this key; refuse one outside
                // G before any Miller loop runs on it.
                if !clpk.is_valid(&self.shared.pairing) {
                    return MaResponse::Err(MarketError::BadKey);
                }
                let account = self.shared.bank.open_account(*funds);
                self.shared
                    .cl_bindings
                    .write()
                    .insert(account, clpk.clone());
                MaResponse::Account(account)
            }
            RegisterSpAccount => MaResponse::Account(self.shared.bank.open_account(0)),
            PublishJob {
                description,
                payment,
                pseudonym,
            } => MaResponse::JobId(self.shared.bulletin.publish(
                description.clone(),
                *payment,
                pseudonym.clone(),
            )),
            Withdraw {
                account,
                nonce,
                auth,
                blinded,
            } => {
                {
                    let bindings = self.shared.cl_bindings.read();
                    let Some(bound) = bindings.get(account) else {
                        return MaResponse::Err(MarketError::NoSuchAccount);
                    };
                    // Nonce freshness prevents replaying an old
                    // withdrawal authorization. Withdrawals route by
                    // account, so this shard sees every nonce for it.
                    let last = self.used_nonces.entry(*account).or_insert(0);
                    if *nonce <= *last {
                        return MaResponse::Err(MarketError::BadAuthentication);
                    }
                    if !auth.verify_bytes(&self.shared.pairing, bound, &nonce.to_be_bytes()) {
                        return MaResponse::Err(MarketError::BadAuthentication);
                    }
                    *last = *nonce;
                }
                if let Err(e) = self
                    .shared
                    .bank
                    .debit(*account, self.shared.params.face_value())
                {
                    return MaResponse::Err(e);
                }
                let sig = self.shared.dec_bank.lock().sign_blinded(blinded);
                MaResponse::BlindSignature(sig)
            }
            LaborRegister { job_id, sp_pubkey } => {
                if self.shared.bulletin.get(*job_id).is_none() {
                    return MaResponse::Err(MarketError::NoSuchJob);
                }
                self.labor
                    .entry(*job_id)
                    .or_default()
                    .push(sp_pubkey.clone());
                MaResponse::Ok
            }
            FetchLabor { job_id } => {
                MaResponse::Labor(self.labor.get(job_id).cloned().unwrap_or_default())
            }
            SubmitPayment {
                sp_pubkey,
                ciphertext,
            } => {
                self.shared
                    .held
                    .lock()
                    .pending
                    .insert(sp_pubkey.clone(), ciphertext.clone());
                MaResponse::Ok
            }
            SubmitData {
                job_id,
                sp_pubkey,
                data,
            } => {
                self.data_reports
                    .entry(*job_id)
                    .or_default()
                    .push(data.clone());
                self.shared.held.lock().received.insert(sp_pubkey.clone());
                MaResponse::Ok
            }
            FetchPayment { sp_pubkey } => {
                // Paper phase 7: deliver only once the SP's data is in.
                let mut held = self.shared.held.lock();
                if !held.received.contains(sp_pubkey) {
                    return MaResponse::Payment(None);
                }
                MaResponse::Payment(held.pending.remove(sp_pubkey))
            }
            FetchData { job_id } => {
                MaResponse::Data(self.data_reports.remove(job_id).unwrap_or_default())
            }
            DepositBatch { account, spends } => {
                // The expensive ZK verification already ran in the
                // worker's preverify pass, outside the DEC-bank lock;
                // only the cheap double-spend bookkeeping serializes
                // on the bank. A spend without a verdict is rejected,
                // never credited unverified.
                self.obs
                    .histogram("deposit.batch_size")
                    .record(spends.len() as u64);
                let mut total = 0u64;
                let mut accepted = 0usize;
                {
                    let mut dec_bank = self.shared.dec_bank.lock();
                    for (idx, (spend, v)) in spends.iter().zip(verdicts).enumerate() {
                        let recorded =
                            v.and_then(|value| dec_bank.deposit_preverified(spend, value));
                        if let Ok(value) = recorded {
                            total += value;
                            accepted += 1;
                            effects.push((idx as u32, value));
                        }
                    }
                }
                if total > 0 {
                    if let Err(e) = self.shared.bank.credit(*account, total) {
                        return MaResponse::Err(e);
                    }
                }
                MaResponse::BatchDeposited {
                    total,
                    accepted,
                    rejected: spends.len() - accepted,
                }
            }
            Balance { account } => match self.shared.bank.balance(*account) {
                Ok(v) => MaResponse::Balance(v),
                Err(e) => MaResponse::Err(e),
            },
            // The dispatcher intercepts Shutdown; a shard seeing one
            // means a routing bug, answered defensively.
            Shutdown => MaResponse::Err(MarketError::Transport(
                "shutdown must be handled by the dispatcher".into(),
            )),
        }
    }

    /// Re-applies one journal record to this shard's private state.
    /// Shared state (ledger, bulletin, DEC bank, held payments) lives
    /// behind `Arc`s and survived the crash on its own, so only the
    /// per-shard projection is replayed — replaying the full request
    /// would double-apply the shared effects.
    fn apply_committed(&mut self, record: &WalRecord) {
        use MaRequest::*;
        match (&record.request, &record.response) {
            (Withdraw { account, nonce, .. }, MaResponse::BlindSignature(_)) => {
                let last = self.used_nonces.entry(*account).or_insert(0);
                *last = (*last).max(*nonce);
            }
            (LaborRegister { job_id, sp_pubkey }, MaResponse::Ok) => {
                self.labor
                    .entry(*job_id)
                    .or_default()
                    .push(sp_pubkey.clone());
            }
            (SubmitData { job_id, data, .. }, MaResponse::Ok) => {
                self.data_reports
                    .entry(*job_id)
                    .or_default()
                    .push(data.clone());
            }
            (FetchData { job_id }, MaResponse::Data(_)) => {
                // The fetch handed the reports out; they must not
                // reappear after a respawn.
                self.data_reports.remove(job_id);
            }
            _ => {}
        }
    }

    /// Serializes this shard's private state (plus the idempotency
    /// cache) into the checkpoint form, deterministically ordered.
    fn project(&self, dedup: &DedupCache) -> ShardSection {
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
            dedup: dedup.entries_in_order(),
        }
    }

    /// Loads a checkpointed projection as this shard's base state;
    /// the journal tail is replayed on top by the caller.
    fn load_base(&mut self, base: &ShardSection, dedup: &mut DedupCache) {
        self.used_nonces = base
            .nonces
            .iter()
            .map(|&(account, nonce)| (AccountId(account), nonce))
            .collect();
        self.labor = base.labor.iter().cloned().collect();
        self.data_reports = base.reports.iter().cloned().collect();
        for (key, response) in &base.dedup {
            dedup.insert(*key, response.clone());
        }
    }
}

/// What the dispatcher sends a shard worker: a routed request, or a
/// checkpoint barrier asking for the shard's state projection. FIFO
/// channel order is the correctness argument: by the time the worker
/// answers `Project`, it has executed every request routed before the
/// barrier, so the projection is a consistent prefix.
enum ShardMsg {
    Req(Box<Inbound>),
    Project(Sender<ShardSection>),
}

/// Which shard handles a request. Affinity-keyed requests always land
/// on the same shard; everything else routes by its idempotency id —
/// *not* round-robin — so a retransmit reaches the shard that cached
/// the original answer. Round-robin via `rr` remains only for
/// keyless internal sends.
fn route(key: Option<RequestKey>, request: &MaRequest, shards: usize, rr: &mut usize) -> usize {
    use MaRequest::*;
    match request {
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
        RegisterJoAccount { .. } | RegisterSpAccount | PublishJob { .. } | Shutdown => match key {
            Some(k) => k.request_id as usize % shards,
            None => {
                *rr = rr.wrapping_add(1);
                (*rr - 1) % shards
            }
        },
    }
}

/// Whether executing `request` changes state a replay must rebuild.
/// The pure reads — the kinds both [`Shard::apply_committed`] and
/// [`apply_shared_effects`] ignore — are neither journaled nor cached
/// for retransmits: a retransmitted read re-executes against current
/// state, so a shard's live dedup cache is exactly what its base plus
/// its journal rebuild.
fn is_write(request: &MaRequest) -> bool {
    !matches!(
        request,
        MaRequest::Balance { .. } | MaRequest::FetchLabor { .. }
    )
}

/// Everything a shard worker thread needs; built once per incarnation
/// by the supervisor, so a respawn reconstructs the worker over the
/// same journal and crash bookkeeping.
struct ShardWorker {
    shared: Arc<SharedState>,
    /// The service's journal, shared by every shard; this worker's
    /// records carry `shard_idx` as their tag.
    log: Arc<DurableLog>,
    /// Checkpointed base state: the worker starts from this
    /// projection and replays only the journal tail on top. The
    /// dispatcher swaps in each checkpoint's projection, which is what
    /// makes log compaction sound.
    base: Arc<Mutex<ShardSection>>,
    faults: FaultMetrics,
    /// The service registry: per-op latency, dedup misses, WAL
    /// timings all land here.
    obs: Registry,
    /// Shared with the dispatcher: it adds one per enqueue, the worker
    /// subtracts one per dequeue, so the gauge reads the queue depth.
    queue_depth: Arc<ppms_obs::Gauge>,
    /// Where dead workers leave their crash-dump paths.
    dumps: Arc<Mutex<Vec<PathBuf>>>,
    /// This worker's shard index (names its per-shard gauges).
    shard_idx: usize,
    /// Cross-client batching flush triggers.
    batch: BatchConfig,
    /// `(at_request, fired)` — exit before executing the
    /// `at_request`-th request (counting this incarnation's replayed
    /// records as executed), unless a previous incarnation already
    /// fired the crash.
    crash: Option<(u64, Arc<AtomicBool>)>,
    /// `(at_request, fired)` — exit after the matching request
    /// executed and its record was appended, before the group commit
    /// and before any held reply is sent.
    crash_mid_batch: Option<(u64, Arc<AtomicBool>)>,
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

    /// Appends one of this shard's records to the journal. An append
    /// failure means the storage device is gone mid-flight; there is
    /// no meaningful degraded mode for a write-ahead log, so fail the
    /// worker (the supervisor respawns it, and if storage stays dead
    /// the respawn loop surfaces the error to callers).
    fn journal(&self, record: &WalRecord, ctx: SpanContext) {
        self.log
            .append_spanned(self.shard_idx as u32, record, ctx)
            .expect("journal append failed");
    }

    fn run(self, srx: Receiver<ShardMsg>) {
        // Recover: load the checkpointed base, then rebuild private
        // state and the idempotency cache from the journal tail. An
        // undecodable journal is a bug, not a recoverable fault —
        // fail loudly.
        let wal_replay_ns = self.obs.histogram("wal.replay_ns");
        let wal_append_ns = self.obs.histogram("wal.append_ns");
        let dedup_misses = self.obs.counter("ma.dedup.misses");
        // Per-op latency histograms, resolved once per label instead of
        // a `format!` + registry lookup on every request.
        let mut op_hists: HashMap<&'static str, Arc<ppms_obs::Histogram>> = HashMap::new();
        let mut dedup = DedupCache::new(DEDUP_CAPACITY);
        let mut shard = Shard {
            shared: self.shared.clone(),
            obs: self.obs.clone(),
            used_nonces: HashMap::new(),
            labor: HashMap::new(),
            data_reports: HashMap::new(),
        };
        shard.load_base(&self.base.lock(), &mut dedup);
        let replayed = {
            let _span = Timed::new(&wal_replay_ns);
            self.log
                .replay_shard(self.shard_idx as u32)
                .expect("shard journal must replay cleanly")
        };
        for record in &replayed {
            // Parented under the record's persisted span, so replayed
            // work stays attributed to the client operation that
            // originally caused it, not an anonymous wall of trace 0.
            let _span = Span::child("wal.replay", record.span);
            shard.apply_committed(record);
            if let Some(k) = record.key {
                dedup.insert(k, record.response.clone());
            }
        }
        let mut executed = replayed.len() as u64;

        // Batching instrumentation (DESIGN.md §16): how batches form
        // (`batch.drain_size`), why they flush (`batch.flush_*`), how
        // many spends the cross-client preverify combined, and how
        // many group commits amortized an fsync.
        let drain_size = self.obs.histogram("batch.drain_size");
        let flush_full = self.obs.counter("batch.flush_full");
        let flush_deadline = self.obs.counter("batch.flush_deadline");
        let flush_drain = self.obs.counter("batch.flush_drain");
        let batch_items = self.obs.counter("batch.items");
        let batch_drains = self.obs.counter("batch.drains");
        let group_commits = self.obs.counter("batch.group_commits");
        let preverify_spends = self.obs.histogram("batch.preverify_spends");
        let amortized_ns = self.obs.histogram("deposit.item_amortized_ns");
        let delay_gauge = self
            .obs
            .gauge(&format!("ma.shard{}.batch_delay_us", self.shard_idx));
        let max_batch = self.batch.max_batch.max(1);
        let max_delay_ns = self.batch.max_delay_micros.saturating_mul(1_000);
        // Nagle state: an EWMA of inter-arrival gaps. It starts
        // pessimistic (gaps far wider than any deadline budget — no
        // wait) and only genuinely fast arrivals pull it down.
        let mut ewma_gap_ns: f64 = 1e9;
        let mut last_arrival = std::time::Instant::now();
        // Reusable batch scratch, reclaimed across iterations.
        let mut batch: Vec<Inbound> = Vec::with_capacity(max_batch);
        let mut held: Vec<(Reply, MaResponse)> = Vec::with_capacity(max_batch);
        let mut preverified: Vec<Vec<Result<u64, DecError>>> = Vec::with_capacity(max_batch);

        loop {
            batch.clear();
            held.clear();
            preverified.clear();
            let mut barrier: Option<Sender<ShardSection>> = None;
            let mut closed = false;

            // Phase 1 — collect: block for the first item, then drain
            // greedily up to the cap N, Nagle-waiting out the adaptive
            // deadline D only while the observed arrival rate makes a
            // companion likely inside it. D collapses to zero at low
            // load, so a lone request is never delayed. A checkpoint
            // barrier seals the batch: it is answered after the batch
            // executes, preserving the FIFO consistent-prefix
            // argument.
            match srx.recv() {
                Ok(ShardMsg::Req(inbound)) => batch.push(*inbound),
                Ok(ShardMsg::Project(reply)) => {
                    // Everything routed before this message has
                    // already executed (FIFO), so the projection is a
                    // consistent prefix of this shard.
                    let _ = reply.send(shard.project(&dedup));
                    continue;
                }
                Err(_) => return,
            }
            let now = std::time::Instant::now();
            let gap = now.duration_since(last_arrival).as_nanos() as f64;
            last_arrival = now;
            ewma_gap_ns = 0.75 * ewma_gap_ns + 0.25 * gap;
            // Wait ~4 expected gaps, and only when at least two of
            // them fit the deadline budget; otherwise flush instantly.
            let delay_ns = if max_delay_ns > 0 && 2.0 * ewma_gap_ns <= max_delay_ns as f64 {
                ((4.0 * ewma_gap_ns) as u64).min(max_delay_ns)
            } else {
                0
            };
            delay_gauge.set((delay_ns / 1_000) as i64);
            let deadline = now + std::time::Duration::from_nanos(delay_ns);
            let mut reason = &flush_drain;
            while batch.len() < max_batch && barrier.is_none() && !closed {
                match srx.try_recv() {
                    Ok(ShardMsg::Req(inbound)) => {
                        let now = std::time::Instant::now();
                        let gap = now.duration_since(last_arrival).as_nanos() as f64;
                        last_arrival = now;
                        ewma_gap_ns = 0.75 * ewma_gap_ns + 0.25 * gap;
                        batch.push(*inbound);
                    }
                    Ok(ShardMsg::Project(reply)) => barrier = Some(reply),
                    Err(channel::TryRecvError::Empty) => {
                        let now = std::time::Instant::now();
                        if now >= deadline {
                            break;
                        }
                        match srx.recv_timeout(deadline - now) {
                            Ok(ShardMsg::Req(inbound)) => {
                                let now = std::time::Instant::now();
                                let gap = now.duration_since(last_arrival).as_nanos() as f64;
                                last_arrival = now;
                                ewma_gap_ns = 0.75 * ewma_gap_ns + 0.25 * gap;
                                batch.push(*inbound);
                            }
                            Ok(ShardMsg::Project(reply)) => barrier = Some(reply),
                            Err(channel::RecvTimeoutError::Timeout) => {
                                reason = &flush_deadline;
                                break;
                            }
                            Err(channel::RecvTimeoutError::Disconnected) => closed = true,
                        }
                    }
                    Err(channel::TryRecvError::Disconnected) => closed = true,
                }
            }
            if batch.len() >= max_batch {
                reason = &flush_full;
            }
            reason.inc();
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
            // bookkeeping is not here: it stays in the handler, per
            // item, in arrival order.
            preverified.resize_with(batch.len(), Vec::new);
            let mut combined: Vec<Spend> = Vec::new();
            let mut plan: Vec<(usize, usize)> = Vec::new();
            for (i, inbound) in batch.iter_mut().enumerate() {
                if inbound.key.is_some_and(|k| dedup.get(&k).is_some()) {
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
                if let Some(k) = key {
                    if let Some(cached) = dedup.get(&k) {
                        let _span = Span::child("shard.dedup_replay", span);
                        self.faults.dedup_replay();
                        held.push((reply, cached.clone()));
                        continue;
                    }
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
                if let Some((at, fired)) = &self.crash {
                    if executed >= *at && !fired.swap(true, Ordering::SeqCst) {
                        // Injected crash: die before executing — the
                        // request is lost in flight and leaves no
                        // record. Close the queue *before* hanging up
                        // on the caller: once the caller observes the
                        // failure, its retry is guaranteed to bounce
                        // off the dead channel and reach the
                        // supervisor's respawn path instead of
                        // vanishing into a dying queue. Held replies
                        // and undrained batch items hang up the same
                        // way.
                        self.dump_crash("injected-crash");
                        drop(srx);
                        drop(reply);
                        return;
                    }
                }

                let verdicts = std::mem::take(&mut preverified[i]);
                // A panic inside a handler kills only this worker; the
                // supervisor respawns it and the journal replay
                // restores everything recorded before the blast.
                let (response, effects) = match std::panic::catch_unwind(AssertUnwindSafe(|| {
                    let mut effects = Vec::new();
                    let response = shard.handle(&request, &mut effects, verdicts);
                    (response, effects)
                })) {
                    Ok(pair) => pair,
                    Err(_) => {
                        self.dump_crash("handler-panic");
                        // Same close-then-hang-up ordering as above.
                        drop(srx);
                        drop(reply);
                        return;
                    }
                };

                let response = if is_write(&request) {
                    // The record takes the request and the response by
                    // move — no deep clone of payload vectors on the
                    // hot path — and hands the response back after the
                    // append; only the dedup cache still clones it.
                    let record = {
                        let _span = Timed::new(&wal_append_ns);
                        let wal_span = Span::child("wal.append", handle_span.ctx());
                        let record = WalRecord {
                            key,
                            span,
                            request,
                            response,
                            effects,
                        };
                        self.journal(&record, wal_span.ctx());
                        record
                    };
                    self.faults.wal_commit();
                    committed += 1;
                    if let Some(k) = key {
                        dedup.insert(k, record.response.clone());
                    }
                    record.response
                } else {
                    response
                };
                drop(op_span);
                drop(handle_span);
                if let Some((at, fired)) = &self.crash_mid_batch {
                    if executed >= *at && !fired.swap(true, Ordering::SeqCst) {
                        // Mid-batch kill point: the record above is
                        // journaled (not necessarily synced — under a
                        // deferring policy the group commit below is
                        // what would have made it durable), and no
                        // held reply escapes. Every client in the
                        // batch must converge via retry: recorded
                        // items replay from the dedup cache, the rest
                        // re-execute.
                        self.dump_crash("mid-batch-crash");
                        drop(srx);
                        drop(reply);
                        return;
                    }
                }
                held.push((reply, response));
            }

            // Phase 4 — group commit, then release the held replies.
            // One fsync forces everything the sync policy deferred to
            // media (DESIGN.md §16), so one verification batch costs
            // one fsync, and replies held until it returns make
            // batched acknowledgements durable-before-ack even under a
            // deferring policy (under `SyncPolicy::Always` it is
            // free). A batch of one keeps the per-append policy
            // untouched (no forced fsync), so sequential drivers see
            // byte-identical fsync behavior to the unbatched pipeline.
            if committed > 1 {
                let gc_span = Span::child("wal.group_commit", lead_ctx);
                self.log.flush().expect("journal group commit failed");
                group_commits.inc();
                drop(gc_span);
            }
            for (reply, response) in held.drain(..) {
                // A vanished client is not an MA failure.
                let _ = reply.send(response);
            }
            if let Some(reply) = barrier {
                let _ = reply.send(shard.project(&dedup));
            }
            if closed {
                return;
            }
        }
    }
}

/// Service-level operations routed around the request inbox, so they
/// are never subject to request backpressure.
enum Control {
    /// Take a checkpoint now; reply with the covered LSN.
    Checkpoint(Sender<Result<u64, StorageError>>),
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

/// Journal and checkpoint state owned by the dispatcher.
struct DurableCtx {
    log: Arc<DurableLog>,
    config: DurabilityConfig,
    /// First LSN not covered by the last durable snapshot.
    covered: u64,
    /// Set by the TCP front door so checkpoints can include the
    /// admission gate's state.
    gate_hook: Arc<Mutex<Option<Arc<GateCheckpoint>>>>,
    snapshots: Arc<ppms_obs::Counter>,
    snapshot_failures: Arc<ppms_obs::Counter>,
    last_snapshot_lsn: Arc<ppms_obs::Gauge>,
    since_snapshot: Arc<ppms_obs::Gauge>,
}

/// Re-applies the *shared-state* effects of one journal record during
/// cold-start recovery — the shared twin of
/// [`Shard::apply_committed`] (which replays per-shard private
/// state). Each arm applies exactly what the original execution wrote
/// into the shared structures, keyed off the recorded response; it
/// never re-runs verification, whose verdict already rides in the
/// record (`effects` for batch deposits).
fn apply_shared_effects(
    record: &WalRecord,
    bank: &Bank,
    bulletin: &Bulletin,
    dec_bank: &mut DecBank,
    cl_bindings: &mut HashMap<AccountId, ClPublicKey>,
    held: &mut HeldPayments,
    face_value: u64,
) {
    use MaRequest::*;
    let response = &record.response;
    match (&record.request, response) {
        (RegisterJoAccount { funds, clpk }, MaResponse::Account(id)) => {
            bank.restore_account(*id, *funds);
            cl_bindings.insert(*id, clpk.clone());
        }
        (RegisterSpAccount, MaResponse::Account(id)) => {
            bank.restore_account(*id, 0);
        }
        (
            PublishJob {
                description,
                payment,
                pseudonym,
            },
            MaResponse::JobId(job_id),
        ) => {
            bulletin.restore_job(JobProfile {
                job_id: *job_id,
                description: description.clone(),
                payment: *payment,
                pseudonym: pseudonym.clone(),
            });
        }
        (Withdraw { account, .. }, MaResponse::BlindSignature(_)) => {
            // The debit succeeded when the record was written; under
            // faithful in-order replay it succeeds again.
            let _ = bank.debit(*account, face_value);
        }
        (
            SubmitPayment {
                sp_pubkey,
                ciphertext,
            },
            MaResponse::Ok,
        ) => {
            held.pending.insert(sp_pubkey.clone(), ciphertext.clone());
        }
        (SubmitData { sp_pubkey, .. }, MaResponse::Ok) => {
            held.received.insert(sp_pubkey.clone());
        }
        (FetchPayment { sp_pubkey }, MaResponse::Payment(Some(_))) => {
            held.pending.remove(sp_pubkey);
        }
        (DepositBatch { account, spends }, _) => {
            // Re-insert exactly the spends the original execution
            // accepted (double-spend state) and re-credit the
            // recorded total — the response alone carries only
            // counts, which is why `effects` rides in the record.
            // The DEC state mutates even when the response was an
            // error (a failed ledger credit happens *after* the
            // deposits), matching the original execution.
            let mut total = 0u64;
            for &(idx, value) in &record.effects {
                if let Some(spend) = spends.get(idx as usize) {
                    let _ = dec_bank.deposit_preverified(spend, value);
                    total += value;
                }
            }
            if total > 0 && matches!(response, MaResponse::BatchDeposited { .. }) {
                let _ = bank.credit(*account, total);
            }
        }
        _ => {}
    }
}

/// The supervisor thread's state: routes requests to shards, respawns
/// dead workers, and runs the checkpoint protocol.
struct Dispatcher {
    shared: Arc<SharedState>,
    faults: FaultMetrics,
    obs: Registry,
    dumps: Arc<Mutex<Vec<PathBuf>>>,
    depth: usize,
    n_shards: usize,
    /// One checkpointed base per shard, swapped at each checkpoint.
    bases: Vec<Arc<Mutex<ShardSection>>>,
    /// One crash latch per shard, shared across incarnations.
    crashes: Vec<Option<(u64, Arc<AtomicBool>)>>,
    /// Mid-batch crash latches, ditto.
    mid_crashes: Vec<Option<(u64, Arc<AtomicBool>)>>,
    batch: BatchConfig,
    queue_gauges: Vec<Arc<ppms_obs::Gauge>>,
    /// Shard inboxes, shared with every [`ShardRouter`] so direct
    /// routes keep working across worker respawns.
    shard_txs: Arc<Mutex<Vec<Sender<ShardMsg>>>>,
    shard_handles: Vec<Option<JoinHandle<()>>>,
    /// Shared with every [`ShardRouter`]: set while a checkpoint cuts
    /// the market, so direct routes fall back to the inbox the
    /// dispatcher is not draining.
    routes_paused: Arc<AtomicBool>,
    rr: usize,
    /// The journal outlives any worker incarnation, so a respawn
    /// resumes from it.
    durable: DurableCtx,
}

impl Dispatcher {
    fn spawn_shard(&self, idx: usize) -> (Sender<ShardMsg>, JoinHandle<()>) {
        let (stx, srx): (Sender<ShardMsg>, Receiver<ShardMsg>) = channel::bounded(self.depth);
        let worker = ShardWorker {
            shared: self.shared.clone(),
            log: self.durable.log.clone(),
            base: self.bases[idx].clone(),
            faults: self.faults.clone(),
            obs: self.obs.clone(),
            queue_depth: self.queue_gauges[idx].clone(),
            dumps: self.dumps.clone(),
            crash: self.crashes[idx].clone(),
            shard_idx: idx,
            batch: self.batch,
            crash_mid_batch: self.mid_crashes[idx].clone(),
        };
        let handle = std::thread::spawn(move || worker.run(srx));
        (stx, handle)
    }

    /// Joins a dead worker and brings up a fresh incarnation over the
    /// same journal, base and crash latch.
    fn respawn(&mut self, idx: usize) {
        if let Some(old) = self.shard_handles[idx].take() {
            let _ = old.join();
        }
        self.faults.shard_respawn();
        // Whatever sat in the dead channel is gone; the fresh
        // incarnation starts with an empty queue.
        self.queue_gauges[idx].set(0);
        let (stx, handle) = self.spawn_shard(idx);
        self.shard_txs.lock()[idx] = stx;
        self.shard_handles[idx] = Some(handle);
    }

    /// A clone of shard `idx`'s current inbox. Cloned out of the lock
    /// so a blocking send never holds it against direct routers.
    fn shard_tx(&self, idx: usize) -> Sender<ShardMsg> {
        self.shard_txs.lock()[idx].clone()
    }

    fn deliver(&mut self, inbound: Inbound) {
        let idx = route(inbound.key, &inbound.request, self.n_shards, &mut self.rr);
        match self.shard_tx(idx).send(ShardMsg::Req(Box::new(inbound))) {
            Ok(()) => self.queue_gauges[idx].add(1),
            Err(send_err) => {
                // The worker died (panic or injected crash).
                // Supervise: join the corpse, respawn over the same
                // journal — the new incarnation replays it — and
                // redeliver. Requests queued in the dead channel are
                // lost; their senders see a hang-up and retry.
                let ShardMsg::Req(inbound) = send_err.0 else {
                    unreachable!("deliver only sends requests")
                };
                self.respawn(idx);
                if let Err(send_err) = self.shard_tx(idx).send(ShardMsg::Req(inbound)) {
                    let ShardMsg::Req(inbound) = send_err.0 else {
                        unreachable!("deliver only sends requests")
                    };
                    let _ = inbound.reply.send(MaResponse::Err(MarketError::Transport(
                        "shard worker unavailable".into(),
                    )));
                    return;
                }
                self.queue_gauges[idx].add(1);
            }
        }
    }

    /// Publishes how far the log has grown past the last snapshot and
    /// takes the scheduled checkpoint once `checkpoint_every` records
    /// have accumulated. Reads the log's LSN, so records written by
    /// direct-routed requests count as much as dispatched ones.
    fn checkpoint_if_due(&mut self) {
        let d = &self.durable;
        let pending = d.log.next_lsn().saturating_sub(d.covered);
        d.since_snapshot.set(pending as i64);
        if d.config.checkpoint_every > 0 && pending >= d.config.checkpoint_every {
            // A failure (e.g. an injected torn snapshot write) is not
            // fatal: the log still holds everything, only compaction
            // is deferred.
            let _ = self.checkpoint();
        }
    }

    /// The checkpoint protocol: barrier every shard for its
    /// projection, fsync the log, publish one atomic snapshot of the
    /// whole market, compact the log behind it, and adopt the
    /// projections as the workers' respawn bases. Returns the covered
    /// LSN — the point recovery will replay from.
    fn checkpoint(&mut self) -> Result<u64, StorageError> {
        // Pause direct routes for the whole protocol. Taking the
        // inbox lock orders the flag after any send a router already
        // started (routers send under that lock), so no request
        // reaches a shard behind its barrier until the cut is done.
        {
            let _txs = self.shard_txs.lock();
            self.routes_paused.store(true, Ordering::SeqCst);
        }
        let result = self.checkpoint_paused();
        self.routes_paused.store(false, Ordering::SeqCst);
        result
    }

    fn checkpoint_paused(&mut self) -> Result<u64, StorageError> {
        // Projection barrier. The dispatcher is not routing while
        // this runs and channels are FIFO, so each shard's answer
        // reflects exactly the requests delivered before the barrier
        // — and between barriers no new work is delivered, making the
        // union a consistent cut. A dead worker is respawned and
        // asked again: the fresh incarnation answers from base +
        // journal tail, which is the same state.
        let mut sections: Vec<ShardSection> = Vec::with_capacity(self.n_shards);
        for idx in 0..self.n_shards {
            loop {
                let (ptx, prx) = channel::bounded(1);
                if self.shard_tx(idx).send(ShardMsg::Project(ptx)).is_err() {
                    self.respawn(idx);
                    continue;
                }
                match prx.recv() {
                    Ok(section) => {
                        sections.push(section);
                        break;
                    }
                    Err(_) => self.respawn(idx),
                }
            }
        }
        let log = self.durable.log.clone();
        let storage = self.durable.config.storage.clone();
        // Everything the snapshot will cover must be durable *before*
        // the snapshot claims to cover it.
        log.flush()?;
        let covered = log.next_lsn();
        let gate = self.request_gate_blob();
        let state = {
            let mut cl_bindings: Vec<(u64, ClPublicKey)> = self
                .shared
                .cl_bindings
                .read()
                .iter()
                .map(|(account, pk)| (account.0, pk.clone()))
                .collect();
            cl_bindings.sort_unstable_by_key(|(account, _)| *account);
            let held = self.shared.held.lock();
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
                covered,
                bank: self.shared.bank.snapshot(),
                jobs: self.shared.bulletin.list(),
                cl_bindings,
                dec: self.shared.dec_bank.lock().export_state(),
                pending_payments,
                received_reports,
                shards: sections.clone(),
                gate,
            }
        };
        if let Err(e) = save_snapshot(&storage, &state) {
            // The snapshot never became durable: keep the old covered
            // point, skip compaction, leave the old bases in place.
            // The log still holds the full tail, so nothing is lost.
            self.durable.snapshot_failures.inc();
            return Err(e);
        }
        log.compact(covered)?;
        for (base, section) in self.bases.iter().zip(sections) {
            *base.lock() = section;
        }
        let d = &mut self.durable;
        d.covered = covered;
        d.snapshots.inc();
        d.last_snapshot_lsn.set(covered as i64);
        d.since_snapshot.set(0);
        Ok(covered)
    }

    /// Asks the front door (if one attached a hook) to export the
    /// admission gate, waiting a bounded window for its reactor to
    /// answer. `None` — no front door, or a stopped reactor — just
    /// omits the gate section from the snapshot.
    fn request_gate_blob(&self) -> Option<Vec<u8>> {
        let hook = self.durable.gate_hook.lock().clone()?;
        hook.request();
        hook.take_blob(std::time::Duration::from_millis(500))
    }

    fn run(mut self, rx: Receiver<Inbound>, ctrl_rx: Receiver<Control>) {
        // Route until Shutdown (or every client hung up), supervising
        // the workers along the way and serving checkpoint requests
        // between deliveries. The control channel is polled (the
        // vendored channel stand-in has no `select!`), so an idle
        // dispatcher notices a checkpoint request within the recv
        // timeout. The checkpoint schedule is evaluated on every pass,
        // idle ones included: requests the TCP door routes straight
        // into the shard queues never pass through `deliver`.
        let idle = std::time::Duration::from_millis(2);
        let shutdown_reply = loop {
            if let Ok(Control::Checkpoint(reply)) = ctrl_rx.try_recv() {
                let _ = reply.send(self.checkpoint());
                continue;
            }
            match rx.recv_timeout(idle) {
                Ok(inbound) if matches!(inbound.request, MaRequest::Shutdown) => {
                    break Some(inbound.reply);
                }
                Ok(inbound) => self.deliver(inbound),
                Err(channel::RecvTimeoutError::Timeout) => {}
                Err(channel::RecvTimeoutError::Disconnected) => break None,
            }
            self.checkpoint_if_due();
        };

        // Graceful drain: close the shard queues, let every queued
        // request finish, then report undelivered held payments.
        drop(std::mem::take(&mut *self.shard_txs.lock()));
        for h in std::mem::take(&mut self.shard_handles)
            .into_iter()
            .flatten()
        {
            let _ = h.join();
        }
        // Shutdown barrier: whatever the sync policy deferred reaches
        // media before the process exits.
        let _ = self.durable.log.flush();
        let undelivered = self.shared.held.lock().pending.len();
        if let Some(reply) = shutdown_reply {
            let _ = reply.send(MaResponse::Drained {
                undelivered_payments: undelivered,
            });
        }
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

    /// Spawns the MA service: one supervising dispatcher thread plus
    /// `config.shards` shard workers behind bounded channels, over a
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
        Self::spawn_inner(rng, params, rsa_bits, pairing_bits, config, durability)
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
        Self::spawn_inner(rng, params, rsa_bits, pairing_bits, config, durability)
    }

    fn spawn_inner<R: rand::Rng + ?Sized>(
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
        let bank = Bank::new();
        let bulletin = Bulletin::new();
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

        let bases: Vec<Arc<Mutex<ShardSection>>> = (0..n_shards)
            .map(|_| Arc::new(Mutex::new(ShardSection::default())))
            .collect();
        let mut cl_map: HashMap<AccountId, ClPublicKey> = HashMap::new();
        let mut held = HeldPayments::default();
        let mut report = RecoveryReport::default();
        let gate_hook: Arc<Mutex<Option<Arc<GateCheckpoint>>>> = Arc::new(Mutex::new(None));
        let mut recovered_gate = None;

        // Open the log, restore the newest readable snapshot into the
        // shared structures, then replay the log tail's shared
        // effects. (Workers replay the same tail for their private
        // state when they start.)
        let (log, log_rec) = DurableLog::open(
            durability.storage.clone(),
            durability.sync,
            durability.segment_bytes,
            &obs,
        )?;
        let log = Arc::new(log);
        let snap = load_latest(&durability.storage)?;
        report.snapshots_skipped = snap.skipped.len();
        let mut covered = 0u64;
        if let Some(state) = snap.state {
            if state.shards.len() != n_shards {
                return Err(StorageError::ShardMismatch {
                    snapshot: state.shards.len(),
                    config: n_shards,
                });
            }
            covered = state.covered;
            for &(id, balance) in &state.bank.accounts {
                bank.restore_account(AccountId(id), balance);
            }
            for job in state.jobs {
                bulletin.restore_job(job);
            }
            for (account, pk) in state.cl_bindings {
                cl_map.insert(AccountId(account), pk);
            }
            dec_bank.restore_state(&state.dec);
            held.pending = state.pending_payments.into_iter().collect();
            held.received = state.received_reports.into_iter().collect();
            for (base, section) in bases.iter().zip(state.shards) {
                *base.lock() = section;
            }
            recovered_gate = state.gate;
            report.snapshot = snap.name;
            report.snapshot_lsn = covered;
        }
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
        // Shared-effects replay, in global journal order.
        for (_, _, record) in log_rec.records.iter().filter(|(lsn, ..)| *lsn >= covered) {
            apply_shared_effects(
                record,
                &bank,
                &bulletin,
                &mut dec_bank,
                &mut cl_map,
                &mut held,
                params.face_value(),
            );
            report.replayed_records += 1;
        }
        report.torn_tail_bytes = log_rec.torn_bytes;
        report.segments_read = log_rec.segments_read;

        let shared = Arc::new(SharedState {
            bank: bank.clone(),
            bulletin: bulletin.clone(),
            dec_bank: Mutex::new(dec_bank),
            params: params.clone(),
            bank_pk: bank_pk.clone(),
            pairing: pairing.clone(),
            cl_bindings: RwLock::new(cl_map),
            held: Mutex::new(held),
        });

        let (tx, rx): (Sender<Inbound>, Receiver<Inbound>) = channel::bounded(depth);
        let (ctrl_tx, ctrl_rx) = channel::unbounded::<Control>();

        // Created here (not inside the dispatcher) so the service
        // handle can locate a crash dump after the worker is gone.
        let dumps: Arc<Mutex<Vec<PathBuf>>> = Arc::new(Mutex::new(Vec::new()));
        let crashes: Vec<Option<(u64, Arc<AtomicBool>)>> = (0..n_shards)
            .map(|i| {
                config
                    .crash
                    .filter(|c| c.shard % n_shards == i)
                    .map(|c| (c.at_request, Arc::new(AtomicBool::new(false))))
            })
            .collect();
        let mid_crashes: Vec<Option<(u64, Arc<AtomicBool>)>> = (0..n_shards)
            .map(|i| {
                config
                    .crash_mid_batch
                    .filter(|c| c.shard % n_shards == i)
                    .map(|c| (c.at_request, Arc::new(AtomicBool::new(false))))
            })
            .collect();
        // Queue-depth gauges: the dispatcher adds one per enqueue,
        // the worker subtracts one per dequeue.
        let queue_gauges: Vec<_> = (0..n_shards)
            .map(|i| obs.gauge(&format!("ma.shard{i}.queue_depth")))
            .collect();
        let durable = DurableCtx {
            snapshots: obs.counter("wal.snapshots"),
            snapshot_failures: obs.counter("wal.snapshot_failures"),
            last_snapshot_lsn: obs.gauge("wal.last_snapshot_lsn"),
            since_snapshot: obs.gauge("wal.records_since_snapshot"),
            log,
            config: durability,
            covered,
            gate_hook: gate_hook.clone(),
        };
        durable.last_snapshot_lsn.set(covered as i64);
        durable
            .since_snapshot
            .set(durable.log.next_lsn().saturating_sub(covered) as i64);
        let routes_paused = Arc::new(AtomicBool::new(false));

        let mut dispatcher = Dispatcher {
            shared,
            faults: faults.clone(),
            obs: obs.clone(),
            dumps: dumps.clone(),
            depth,
            n_shards,
            bases,
            crashes,
            mid_crashes,
            batch: config.batch,
            queue_gauges: queue_gauges.clone(),
            shard_txs: Arc::new(Mutex::new(Vec::with_capacity(n_shards))),
            shard_handles: Vec::with_capacity(n_shards),
            routes_paused: routes_paused.clone(),
            rr: 0,
            durable,
        };
        let shard_txs = dispatcher.shard_txs.clone();
        let handle = std::thread::spawn(move || {
            for idx in 0..dispatcher.n_shards {
                let (stx, handle) = dispatcher.spawn_shard(idx);
                dispatcher.shard_txs.lock().push(stx);
                dispatcher.shard_handles.push(Some(handle));
            }
            dispatcher.run(rx, ctrl_rx);
        });

        let svc = MaService {
            tx,
            ctrl: ctrl_tx,
            handle: Some(handle),
            bank,
            bulletin,
            traffic,
            faults,
            obs,
            dumps,
            params,
            bank_pk,
            pairing,
            gate_hook,
            recovered_gate: Mutex::new(recovered_gate),
            shard_txs,
            routes_paused,
            queue_gauges,
            n_shards,
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
            .send(Control::Checkpoint(reply_tx))
            .map_err(|_| StorageError::Io("service is not running".into()))?;
        reply_rx
            .recv()
            .map_err(|_| StorageError::Io("service is not running".into()))?
    }

    /// Registers the front door's gate-checkpoint hook: during a
    /// checkpoint the dispatcher asks it for the admission gate's
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

    /// The dispatcher's raw inbox. This is how an in-process front
    /// door (the TCP reactor) injects already-decoded requests:
    /// `try_send` gives it the non-blocking admission decision a
    /// load-shedding server needs, which the blocking [`Transport`]
    /// backends deliberately do not expose.
    pub fn inbox(&self) -> Sender<Inbound> {
        self.tx.clone()
    }

    /// A direct route into the shard queues for the hot path; see
    /// [`ShardRouter`]. Callers keep [`MaService::inbox`] around as
    /// the supervised fallback for whatever the router hands back.
    pub fn router(&self) -> ShardRouter {
        ShardRouter {
            txs: self.shard_txs.clone(),
            paused: self.routes_paused.clone(),
            gauges: self.queue_gauges.clone(),
            n_shards: self.n_shards,
            rr: 0,
            direct: self.obs.counter("ma.direct_routed"),
        }
    }

    /// An in-process client connection (enums over channels; no
    /// serialization, no traffic accounting).
    pub fn client(&self) -> MaClient {
        MaClient::new(Arc::new(InProcTransport::new(self.tx.clone())), Party::Jo)
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
                self.tx.clone(),
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
            self.tx.clone(),
            self.traffic.clone(),
            plan,
        ));
        MaClient::new(
            Arc::new(RetryingTransport::new(inner, policy, self.faults.clone())),
            party,
        )
    }

    /// Stops the service, drains the shards and joins the dispatcher.
    /// Returns how many held payments were never delivered.
    pub fn shutdown(mut self) -> usize {
        let client = self.client();
        let undelivered = match client.call(MaRequest::Shutdown) {
            MaResponse::Drained {
                undelivered_payments,
            } => undelivered_payments,
            _ => 0,
        };
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        undelivered
    }
}

impl Drop for MaService {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            let (reply_tx, _reply_rx) = channel::bounded(1);
            let _ = self.tx.send(Inbound {
                key: None,
                span: SpanContext::NONE,
                request: MaRequest::Shutdown,
                reply: reply_tx.into(),
            });
            let _ = h.join();
        }
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
        assert!(cache.get(&mk(1)).is_none(), "oldest evicted");
        assert!(cache.get(&mk(2)).is_some());
        assert!(cache.get(&mk(3)).is_some());
    }

    #[test]
    fn crashed_shard_is_respawned_and_retry_succeeds() {
        let mut rng = StdRng::seed_from_u64(12);
        let params = DecParams::fixture(2, 8);
        let svc = MaService::spawn_with_config(
            &mut rng,
            params,
            512,
            40,
            ServiceConfig {
                crash: Some(CrashPoint {
                    shard: 0,
                    at_request: 2,
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
        // Request #2 hits the crash point: never executed, no record
        // written, the worker dies, the reply channel hangs up.
        let id = next_request_id();
        let first = client.try_call_keyed(
            id,
            MaRequest::LaborRegister {
                job_id: job,
                sp_pubkey: vec![7],
            },
        );
        assert!(first.is_err(), "crash must surface as a transport error");
        // The retry (same key) lands on the respawned worker: nothing
        // was recorded for it, so this re-executes cleanly.
        let retry = client
            .try_call_keyed(
                id,
                MaRequest::LaborRegister {
                    job_id: job,
                    sp_pubkey: vec![7],
                },
            )
            .expect("retry after respawn");
        assert!(matches!(retry, MaResponse::Ok), "{retry:?}");
        assert_eq!(svc.faults.shard_respawns(), 1);
        // The pre-crash state survived the respawn via journal replay.
        let MaResponse::Labor(sps) = client.call(MaRequest::FetchLabor { job_id: job }) else {
            panic!("labor");
        };
        assert_eq!(sps, vec![vec![7u8]]);
        svc.shutdown();
    }

    use crate::storage::SimStorage;

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
    fn checkpoint_pauses_direct_routes_so_recovery_applies_once() {
        // A request the door's router places while a checkpoint runs
        // would execute after the covered LSN was read but before the
        // shared state was captured, and recovery would apply it a
        // second time. Here a withdrawal arrives while the checkpoint
        // waits on the gate hook; the recovered balance must show one
        // debit.
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
        let auth = cl.sign_bytes(&mut rng, &svc.pairing, &1u64.to_be_bytes());
        let (reply, answer) = channel::bounded(1);
        let inbound = Inbound {
            key: Some(RequestKey {
                party: Party::Jo,
                request_id: next_request_id(),
            }),
            span: SpanContext::NONE,
            request: MaRequest::Withdraw {
                account: jo,
                nonce: 1,
                auth,
                blinded: BigUint::from(12345u64),
            },
            reply: reply.into(),
        };
        std::thread::scope(|scope| {
            let checkpoint = scope.spawn(|| svc.checkpoint());
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while !hook.pending() {
                assert!(
                    std::time::Instant::now() < deadline,
                    "checkpoint never asked the hook"
                );
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            let mut answered = None;
            match svc.router().try_route(inbound) {
                // Placed: it executes while the checkpoint waits.
                Ok(()) => answered = answer.recv().ok(),
                // Refused: it waits in the inbox for the checkpoint.
                Err(inbound) => svc.inbox().send(inbound).expect("inbox"),
            }
            hook.fulfill(Vec::new());
            checkpoint
                .join()
                .expect("checkpoint thread")
                .expect("checkpoint");
            let resp = answered.or_else(|| answer.recv().ok());
            assert!(
                matches!(resp, Some(MaResponse::BlindSignature(_))),
                "{resp:?}"
            );
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
        assert_eq!(recovered.bank.snapshot(), live, "one withdrawal, one debit");
        recovered.shutdown();
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

        // Crash and respawn: the new worker rebuilds its dedup cache
        // from the journal alone.
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

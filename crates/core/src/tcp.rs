//! The **TCP front door**: the first transport backend where bytes
//! actually cross a socket, plus the matching client-side
//! [`Transport`].
//!
//! ## Server: a hand-rolled event-driven reactor
//!
//! One thread owns every connection, in non-blocking mode. A second
//! thread blocks on the listener and hands each accepted socket over.
//! Each tick adopts handed-over connections (up to `max_connections`),
//! reads every socket until a short read feeding the per-connection
//! stratum-2 [`FrameDecoder`], dispatches complete frames, takes the
//! replies the shard workers have posted to the door's one
//! `ReplyQueue`, and drains the per-connection [`WriteQueue`]s.
//! Ticks run back to back while they make progress. After a tick that
//! makes none, the reactor parks: it blocks in `poll(2)` with no
//! timeout on every connection (`POLLOUT` too while its write queue
//! holds bytes) and a wake socket. Everything else that can give the
//! reactor work wakes it: a handed-over connection, a shard reply sent
//! or dropped, [`TcpFrontDoor::shutdown`], and a checkpoint's gate
//! export. A wake writes the socket only while the reactor is parked
//! (DESIGN.md §19). An idle door therefore costs no CPU, a busy one
//! no wake-up syscalls, and a request never waits out a sleep.
//!
//! Overload policy (all observable via the service registry):
//!
//! * **Connection limit** — sockets beyond `max_connections` are
//!   refused on accept (`tcp.refused`).
//! * **Load shedding** — a request that cannot enter its shard's
//!   queue without blocking (or that would exceed the per-connection
//!   in-flight cap) is answered immediately with
//!   [`MaResponse::Busy`] / [`GateResponse::Busy`] (`tcp.shed`); the
//!   reactor never blocks on a full queue, so a saturated service
//!   slows its clients instead of growing its own memory.
//! * **Slow-client eviction** — responses queue per connection in a
//!   byte-capped [`WriteQueue`]; a client that stops reading until
//!   the cap would be exceeded is disconnected (`tcp.evicted`).
//!
//! ## Admission
//!
//! Every connection starts unadmitted. The only things an unadmitted
//! peer can get out of the reactor are a [`GateResponse::Challenge`]
//! or a denial — `App` frames without a valid session token never
//! reach [`ShardRouter::try_route`], so no shard handler ever runs on
//! behalf of an unpaid connection. See [`crate::gate`] for the
//! protocol and the coin economics.

use crate::error::MarketError;
use crate::frame::{FrameDecoder, FramedConn, WriteQueue};
use crate::gate::{
    denied_error, spends_for_price, AdmissionConfig, AdmissionGate, GateCheckpoint, GateRequest,
    GateResponse, OpsRequest,
};
use crate::metrics::Party;
use crate::poll::{self, PollFd, Waker, POLLIN, POLLOUT};
use crate::service::{
    Inbound, MaRequest, MaResponse, MaService, Reply, ReplyQueue, RequestKey, ShardRouter,
};
use crate::stream::{ByteStream, FlakyConfig, FlakyStream, TcpByteStream};
use crate::transport::{next_request_id, next_trace_id, request_label, response_label};
use crate::transport::{TrafficLog, Transport};
use crate::wire::Envelope;
use crossbeam::channel::TrySendError;
use parking_lot::Mutex;
use ppms_ecash::Spend;
use ppms_obs::{Span, SpanContext};
use std::collections::{HashMap, VecDeque};
use std::io::{self, ErrorKind};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// Front-door policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// Concurrent-connection cap; accepts beyond it are refused.
    pub max_connections: usize,
    /// Per-connection outbound buffer cap in bytes; exceeding it
    /// evicts the (slow) client.
    pub write_queue_bytes: usize,
    /// Largest frame body a connection may announce.
    pub max_frame_bytes: usize,
    /// Per-connection in-flight request cap; beyond it requests are
    /// shed with `Busy`.
    pub max_inflight_per_conn: usize,
    /// Admission policy.
    pub admission: AdmissionConfig,
    /// Sustained [`GateRequest::Ops`] rate allowed per second (token
    /// bucket). Ops queries skip admission, so without a limit they
    /// would be a free flood vector.
    pub ops_rate_per_sec: u32,
    /// Ops token-bucket burst capacity.
    pub ops_burst: u32,
    /// Requests slower than this land in the slow-request log with
    /// their span tree.
    pub slow_request_threshold: Duration,
    /// How many slow-request entries the log retains (FIFO).
    pub slow_log_capacity: usize,
    /// Test hook: panic inside the reactor on the *first* frame that
    /// arrives with this trace id (the hook disarms itself, so the
    /// caller's retry goes through) — exercises the panic dump and
    /// resume path end to end.
    pub chaos_panic_on_trace: Option<u64>,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            max_connections: 64,
            write_queue_bytes: 256 * 1024,
            max_frame_bytes: crate::frame::DEFAULT_MAX_FRAME_BYTES,
            max_inflight_per_conn: 32,
            admission: AdmissionConfig::default(),
            ops_rate_per_sec: 100,
            ops_burst: 20,
            slow_request_threshold: Duration::from_millis(250),
            slow_log_capacity: 64,
            chaos_panic_on_trace: None,
        }
    }
}

/// One accepted connection's reactor state.
struct Conn {
    stream: TcpByteStream,
    decoder: FrameDecoder,
    outq: WriteQueue,
    /// Requests currently inside the service on this connection's
    /// behalf.
    inflight: usize,
    /// Set when the connection must be torn down after the current
    /// tick (protocol violation, eviction, peer close).
    dead: bool,
}

/// What a pending reply, once it arrives, should be turned into.
enum PendingKind {
    /// An application request: wrap the response in
    /// [`GateResponse::App`]. Carries the session token for refunds.
    App,
    /// An admission deposit for `presented` spends: judge the verdict
    /// through the gate.
    Admit { presented: usize },
}

/// A request dispatched into the service whose reply has not yet
/// arrived.
struct Pending {
    conn_id: u64,
    key: RequestKey,
    /// The *client's* span context from the request envelope — replies
    /// and the slow-request log attribute to the caller's trace, not
    /// to the reactor's internal read span.
    ctx: SpanContext,
    kind: PendingKind,
    started: Instant,
}

/// The requests in the service, indexed by the slot their [`Reply`]
/// posts under. A slot is freed when its one reply is taken, and only
/// then reused.
#[derive(Default)]
struct Slots {
    entries: Vec<Option<Pending>>,
    free: Vec<usize>,
    len: usize,
}

impl Slots {
    /// The slot the next [`insert`](Slots::insert) will fill.
    fn next(&self) -> usize {
        self.free.last().copied().unwrap_or(self.entries.len())
    }

    /// Fills `slot`, which must be what [`next`](Slots::next) returned.
    fn insert(&mut self, slot: usize, pending: Pending) {
        debug_assert_eq!(slot, self.next());
        self.len += 1;
        match self.free.pop() {
            Some(_) => self.entries[slot] = Some(pending),
            None => self.entries.push(Some(pending)),
        }
    }

    fn remove(&mut self, slot: usize) -> Option<Pending> {
        let pending = self.entries.get_mut(slot)?.take()?;
        self.free.push(slot);
        self.len -= 1;
        Some(pending)
    }
}

/// Accepted sockets on their way from the acceptor thread to the
/// reactor.
type Handoff = Arc<Mutex<Vec<TcpStream>>>;

/// Handle to a running TCP front door. Dropping it stops the reactor
/// and joins the thread.
pub struct TcpFrontDoor {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// Ends the reactor's idle wait so it sees `stop`.
    waker: Arc<Waker>,
    handle: Option<JoinHandle<()>>,
    /// The acceptor thread; it exits when the reactor does.
    acceptor: Option<JoinHandle<()>>,
    obs: ppms_obs::Registry,
    /// Crash-dump files written by the reactor on panic, in order.
    dumps: Arc<Mutex<Vec<PathBuf>>>,
}

impl TcpFrontDoor {
    /// Binds `bind` (e.g. `"127.0.0.1:0"`), registers the gate's
    /// revenue account with the service, and spawns the reactor
    /// thread. All front-door metrics land in the service's own
    /// registry (`tcp.*`, `gate.*`), so one
    /// [`MaService::obs_snapshot`] covers the whole stack.
    pub fn spawn(svc: &MaService, bind: &str, config: TcpConfig) -> io::Result<TcpFrontDoor> {
        // Nonblocking so the acceptor drains a burst of connections
        // per readiness report; it blocks in `poll`, not in `accept`.
        let listener = TcpListener::bind(bind)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        // Recovery path first: a service recovered from a snapshot
        // that includes gate state hands it over exactly once, and
        // the restored gate carries its own revenue account, paid
        // sessions and admission verdicts — re-registering a fresh
        // account would strand the accrued fees.
        let gate = match svc.take_recovered_gate() {
            Some(blob) => {
                let mut gate =
                    AdmissionGate::new(config.admission, crate::bank::AccountId(0), &svc.obs);
                gate.restore_state(&blob).map_err(|e| {
                    io::Error::other(format!("recovered gate state does not decode: {e}"))
                })?;
                gate
            }
            None => {
                // The admission fees need somewhere to accrue: an
                // ordinary SP-style account owned by the MA itself,
                // registered through the ordinary path.
                let revenue_account = match svc.client().try_call(MaRequest::RegisterSpAccount) {
                    Ok(MaResponse::Account(id)) => id,
                    other => {
                        return Err(io::Error::other(format!(
                            "could not register gate revenue account: {other:?}"
                        )));
                    }
                };
                AdmissionGate::new(config.admission, revenue_account, &svc.obs)
            }
        };

        // Checkpoints want the gate's state in the snapshot; the
        // reactor owns the gate outright, so hand the checkpointer a
        // rendezvous that wakes the reactor instead of a lock.
        let waker = Arc::new(Waker::new(svc.obs.counter("tcp.wake_writes"))?);
        let gate_hook = Arc::new(GateCheckpoint::waking(waker.clone()));
        svc.attach_gate_checkpoint(gate_hook.clone());

        // The acceptor holds one end of this pair and the reactor the
        // other: the reactor's exit, however it happens, closes its end
        // and so stops the acceptor.
        let (acceptor_stop, reactor_alive) = UnixStream::pair()?;
        let handoff: Handoff = Arc::default();
        let acceptor = {
            let handoff = handoff.clone();
            let waker = waker.clone();
            let refused = svc.obs.counter("tcp.refused");
            std::thread::Builder::new()
                .name("tcp-acceptor".into())
                .spawn(move || accept_loop(listener, acceptor_stop, handoff, waker, refused))?
        };

        let stop = Arc::new(AtomicBool::new(false));
        let dumps = Arc::new(Mutex::new(Vec::new()));
        let mut reactor = Reactor {
            handoff,
            adopted: Vec::new(),
            _alive: reactor_alive,
            config,
            router: svc.router(),
            gate,
            gate_hook,
            replies: Arc::new(ReplyQueue::new(waker.clone())),
            completed: Vec::new(),
            waker: waker.clone(),
            poll_fds: Vec::new(),
            traffic: svc.traffic.clone(),
            conns: HashMap::new(),
            conn_ids: Vec::new(),
            pending: Slots::default(),
            next_conn_id: 1,
            next_msg_id: 1,
            reply_scratch: Vec::new(),
            stop: stop.clone(),
            obs: svc.obs.clone(),
            dumps: dumps.clone(),
            started: Instant::now(),
            ops_tokens: config.ops_burst as f64,
            ops_refilled: Instant::now(),
            slow_log: VecDeque::new(),
            accepted: svc.obs.counter("tcp.accepted"),
            refused: svc.obs.counter("tcp.refused"),
            evicted: svc.obs.counter("tcp.evicted"),
            shed: svc.obs.counter("tcp.shed"),
            bad_frames: svc.obs.counter("tcp.bad_frames"),
            ops_served: svc.obs.counter("tcp.ops"),
            ops_limited: svc.obs.counter("tcp.ops_limited"),
            slow_requests: svc.obs.counter("tcp.slow_requests"),
            reactor_panics: svc.obs.counter("tcp.reactor_panics"),
            idle_waits: svc.obs.counter("tcp.idle_waits"),
            connections: svc.obs.gauge("tcp.connections"),
            request_ns: svc.obs.histogram("tcp.request_ns"),
            queue_fill: svc.obs.histogram("tcp.write_queue_fill"),
            frames_per_tick: svc.obs.histogram("tcp.frames_per_tick"),
        };
        let handle = std::thread::Builder::new()
            .name("tcp-front-door".into())
            .spawn(move || reactor.run())?;
        Ok(TcpFrontDoor {
            addr,
            stop,
            waker,
            handle: Some(handle),
            acceptor: Some(acceptor),
            obs: svc.obs.clone(),
            dumps,
        })
    }

    /// The bound listen address (resolves `:0` binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time snapshot of everything observable about the
    /// stack: the service registry the front door records into
    /// (`tcp.*`, `gate.*`, per-op latencies, WAL timings) merged with
    /// the process-global registry (storage gauges and anything else
    /// recorded outside the service). Same view the ops plane serves.
    pub fn obs_snapshot(&self) -> ppms_obs::Snapshot {
        self.obs.snapshot().merge(&ppms_obs::global().snapshot())
    }

    /// Crash-dump files the reactor wrote after in-reactor panics
    /// (empty when it never panicked).
    pub fn crash_dumps(&self) -> Vec<PathBuf> {
        self.dumps.lock().clone()
    }

    /// Stops the reactor and joins its thread. Called by `Drop`;
    /// explicit form for tests that want the join to finish first.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        for h in [self.handle.take(), self.acceptor.take()]
            .into_iter()
            .flatten()
        {
            let _ = h.join();
        }
    }
}

impl Drop for TcpFrontDoor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The acceptor thread: blocks in `poll` on the listener and `alive`,
/// accepts every waiting connection, readies it for the reactor and
/// hands it over. Returns when the reactor's end of `alive` closes.
fn accept_loop(
    listener: TcpListener,
    alive: UnixStream,
    handoff: Handoff,
    waker: Arc<Waker>,
    refused: Arc<ppms_obs::Counter>,
) {
    let mut fds = [
        PollFd::new(listener.as_raw_fd(), POLLIN),
        PollFd::new(alive.as_raw_fd(), POLLIN),
    ];
    loop {
        // An error (EINTR) ends the wait like a readiness report.
        let _ = poll::wait(&mut fds);
        if fds[1].ready() {
            return;
        }
        let mut accepted = false;
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        refused.inc();
                        continue;
                    }
                    handoff.lock().push(stream);
                    accepted = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Out of descriptors, say: the listener stays
                    // readable, so pause instead of spinning on it.
                    std::thread::sleep(Duration::from_millis(10));
                    break;
                }
            }
        }
        if accepted {
            waker.wake();
        }
    }
}

struct Reactor {
    /// Connections the acceptor has handed over, not yet adopted.
    handoff: Handoff,
    /// Reused buffer the handoff is swapped into.
    adopted: Vec<TcpStream>,
    /// Held only to close when the reactor goes, which stops the
    /// acceptor.
    _alive: UnixStream,
    config: TcpConfig,
    /// The service's one way into the shard queues; the reactor uses
    /// its non-blocking `try_route` and sheds what a full queue refuses.
    router: ShardRouter,
    gate: AdmissionGate,
    /// Checkpoint rendezvous: checked once per tick; when the
    /// checkpointer requests it, the reactor exports the gate state.
    gate_hook: Arc<GateCheckpoint>,
    /// Where every shard posts this door's replies.
    replies: Arc<ReplyQueue>,
    /// Reused buffer the posted replies are swapped into.
    completed: Vec<(usize, MaResponse)>,
    /// Wake socket: the acceptor, every reply, the gate hook and
    /// `shutdown` wake it, so the idle wait ends when any of them has
    /// work.
    waker: Arc<Waker>,
    /// Reusable descriptor set for the idle wait.
    poll_fds: Vec<PollFd>,
    traffic: TrafficLog,
    conns: HashMap<u64, Conn>,
    /// Reused buffer of connection ids for `read_tick`.
    conn_ids: Vec<u64>,
    pending: Slots,
    next_conn_id: u64,
    next_msg_id: u64,
    /// Reusable reply-encoding scratch (see `send_gate`).
    reply_scratch: Vec<u8>,
    stop: Arc<AtomicBool>,
    /// Service registry handle — the ops plane snapshots it (merged
    /// with the process-global registry) without leaving the reactor.
    obs: ppms_obs::Registry,
    dumps: Arc<Mutex<Vec<PathBuf>>>,
    started: Instant,
    /// Ops token bucket: refilled at `ops_rate_per_sec`, capped at
    /// `ops_burst`.
    ops_tokens: f64,
    ops_refilled: Instant,
    /// Slow-request log: rendered JSON entries, oldest evicted first.
    slow_log: VecDeque<String>,
    accepted: Arc<ppms_obs::Counter>,
    refused: Arc<ppms_obs::Counter>,
    evicted: Arc<ppms_obs::Counter>,
    shed: Arc<ppms_obs::Counter>,
    bad_frames: Arc<ppms_obs::Counter>,
    ops_served: Arc<ppms_obs::Counter>,
    ops_limited: Arc<ppms_obs::Counter>,
    slow_requests: Arc<ppms_obs::Counter>,
    reactor_panics: Arc<ppms_obs::Counter>,
    /// Returns from the idle wait: an idle door adds one per wake, not
    /// one per spin.
    idle_waits: Arc<ppms_obs::Counter>,
    connections: Arc<ppms_obs::Gauge>,
    request_ns: Arc<ppms_obs::Histogram>,
    queue_fill: Arc<ppms_obs::Histogram>,
    /// Whole frames decoded from one connection in one read tick —
    /// the reactor-side coalescing evidence (DESIGN.md §16).
    frames_per_tick: Arc<ppms_obs::Histogram>,
}

impl Reactor {
    fn run(&mut self) {
        // The reactor thread is the front door's single point of
        // failure, so a panic anywhere in a tick (a handler bug, the
        // chaos hook) is caught, dumped — the span ring, in-flight
        // spans included, plus metrics — and the loop resumes. A panic
        // *storm* (something deterministically broken) stops the
        // reactor instead of spinning the dump path forever.
        let mut panics = 0u32;
        while !self.stop.load(Ordering::SeqCst) {
            match std::panic::catch_unwind(AssertUnwindSafe(|| self.tick())) {
                Ok(progress) => {
                    if !progress {
                        self.wait_idle();
                    }
                }
                Err(_) => {
                    panics += 1;
                    self.reactor_panics.inc();
                    let snap = self.obs.snapshot().merge(&ppms_obs::global().snapshot());
                    let dir = ppms_obs::dump_dir();
                    if let Ok(path) =
                        ppms_obs::write_dump(&dir, "tcp-reactor", "tcp-reactor-panic", &snap)
                    {
                        self.dumps.lock().push(path);
                    }
                    if panics >= 8 {
                        break;
                    }
                }
            }
        }
        // Tear every connection down on the way out.
        for conn in self.conns.values_mut() {
            conn.stream.shutdown();
        }
        self.conns.clear();
        self.connections.set(0);
    }

    /// Blocks until a socket is ready or something wakes the reactor.
    /// Called only after a tick with no progress: by then every socket
    /// has been read until a short read and written until `WouldBlock`,
    /// and every posted reply taken, so each source of new work is a
    /// descriptor in the set or a caller of [`Waker::wake`].
    fn wait_idle(&mut self) {
        // The handshake: park, then re-check what every waker publishes
        // before waking. Work published before `park` is seen here;
        // work published after it finds the reactor parked and writes
        // the wake socket.
        self.waker.park();
        if self.stop.load(Ordering::SeqCst)
            || self.gate_hook.requested()
            || !self.replies.is_empty()
            || !self.handoff.lock().is_empty()
        {
            self.waker.unpark();
            return;
        }
        self.poll_fds.clear();
        self.poll_fds.push(PollFd::new(self.waker.fd(), POLLIN));
        for conn in self.conns.values() {
            let events = if conn.outq.is_empty() {
                POLLIN
            } else {
                POLLIN | POLLOUT
            };
            self.poll_fds
                .push(PollFd::new(conn.stream.0.as_raw_fd(), events));
        }
        // An error (EINTR) ends the wait like a wake: the next tick
        // finds whatever there is to do.
        let _ = poll::wait(&mut self.poll_fds);
        self.waker.unpark();
        self.idle_waits.inc();
        if self.poll_fds[0].ready() {
            self.waker.drain();
        }
    }

    /// One reactor iteration; `true` when any sub-tick made progress.
    fn tick(&mut self) -> bool {
        if self.gate_hook.pending() {
            self.gate_hook.fulfill(self.gate.export_state());
        }
        let mut progress = false;
        progress |= self.adopt_tick();
        progress |= self.read_tick();
        progress |= self.reply_tick();
        progress |= self.write_tick();
        self.bury_dead();
        progress
    }

    /// Adopts the connections the acceptor handed over, refusing those
    /// beyond `max_connections`.
    fn adopt_tick(&mut self) -> bool {
        std::mem::swap(&mut *self.handoff.lock(), &mut self.adopted);
        let progress = !self.adopted.is_empty();
        for stream in self.adopted.drain(..) {
            if self.conns.len() >= self.config.max_connections {
                self.refused.inc();
                continue; // refused: dropping closes it
            }
            let id = self.next_conn_id;
            self.next_conn_id += 1;
            self.conns.insert(
                id,
                Conn {
                    stream: TcpByteStream(stream),
                    decoder: FrameDecoder::new(self.config.max_frame_bytes),
                    outq: WriteQueue::new(self.config.write_queue_bytes),
                    inflight: 0,
                    dead: false,
                },
            );
            self.accepted.inc();
        }
        if progress {
            self.connections.set(self.conns.len() as i64);
        }
        progress
    }

    fn read_tick(&mut self) -> bool {
        let mut progress = false;
        let mut ids = std::mem::take(&mut self.conn_ids);
        ids.clear();
        ids.extend(self.conns.keys().copied());
        let mut buf = [0u8; 8192];
        for &id in &ids {
            // Read until a short read: the kernel had nothing more
            // buffered, and `poll` reports the socket again if more
            // arrives before the reactor next looks.
            loop {
                let conn = self.conns.get_mut(&id).expect("conn exists");
                if conn.dead {
                    break;
                }
                match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        conn.dead = true;
                        break;
                    }
                    Ok(n) => {
                        progress = true;
                        conn.decoder.push(&buf[..n]);
                        if n < buf.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.dead = true;
                        break;
                    }
                }
            }
            // Drain complete frames, decoding each envelope *in place*
            // from the connection buffer: `next_frame` yields a slice
            // borrowed from the decoder's reassembly buffer (no
            // per-frame copy — the zero-copy hot path pinned by
            // `crates/core/tests/frame_alloc.rs`), and only the owned
            // envelope leaves the borrow before dispatch.
            let mut frames = 0u64;
            loop {
                let conn = self.conns.get_mut(&id).expect("conn exists");
                if conn.dead {
                    break;
                }
                let decoded = match conn.decoder.next_frame() {
                    Ok(Some(frame)) => match Envelope::<GateRequest>::from_bytes(frame) {
                        Ok(env) => Some((env, frame.len())),
                        Err(_) => None,
                    },
                    Ok(None) => break,
                    Err(_) => None,
                };
                match decoded {
                    Some((env, frame_len)) => {
                        progress = true;
                        frames += 1;
                        self.handle_envelope(id, env, frame_len);
                    }
                    None => {
                        // Desynchronized or undecodable: unrecoverable.
                        self.bad_frames.inc();
                        self.conns.get_mut(&id).expect("conn exists").dead = true;
                        break;
                    }
                }
            }
            if frames > 0 {
                // Coalescing evidence: how many whole requests one
                // drained connection contributed to this tick.
                self.frames_per_tick.record(frames);
            }
        }
        self.conn_ids = ids;
        progress
    }

    fn handle_envelope(&mut self, conn_id: u64, env: Envelope<GateRequest>, frame_len: usize) {
        let party = env.party;
        let key = RequestKey {
            party,
            request_id: env.msg_id,
        };
        // The frame's span context is the *client's* attempt span; the
        // reactor's own read phase is a child of it, and everything
        // the request causes downstream (gate check, shard handler,
        // WAL appends) parents under the read span — one causal tree
        // per client attempt, shared across retransmits only at the
        // trace level.
        let ctx = env.span_ctx();
        let read_span = Span::child("tcp.read", ctx);
        let read_ctx = read_span.ctx();
        if self.config.chaos_panic_on_trace == Some(env.trace_id) && env.trace_id != 0 {
            // Disarm before unwinding: the hook fires exactly once, so
            // the caller's retransmit of the same trace succeeds. The
            // open `tcp.read` span carries the trace into the dump.
            self.config.chaos_panic_on_trace = None;
            panic!("chaos: injected reactor panic on trace {:#x}", env.trace_id);
        }
        match env.payload {
            GateRequest::Hello => {
                self.traffic
                    .record(party, Party::Ma, "gate-hello", frame_len);
                let resp = if self.gate.config().price == 0 {
                    self.gate.mint()
                } else {
                    self.gate.challenge()
                };
                self.send_gate(conn_id, party, key.request_id, ctx, resp);
            }
            GateRequest::Admit { spends } => {
                self.traffic
                    .record(party, Party::Ma, "gate-admit", frame_len);
                let gate_span = Span::child("gate.admit", read_ctx);
                if let Some(cached) = self.gate.cached_admission(key) {
                    // Retransmitted Admit: replay the recorded verdict
                    // (same token), no second deposit.
                    drop(gate_span);
                    self.send_gate(conn_id, party, key.request_id, ctx, cached);
                    return;
                }
                let presented = spends.len();
                let request = self.gate.deposit_request(spends);
                drop(gate_span);
                let slot = self.pending.next();
                let inbound = Inbound {
                    key,
                    span: read_ctx,
                    request,
                    reply: Reply::to_door(slot, self.replies.clone()),
                };
                match self.router.try_route(inbound) {
                    Ok(()) => {
                        self.pending.insert(
                            slot,
                            Pending {
                                conn_id,
                                key,
                                ctx,
                                kind: PendingKind::Admit { presented },
                                started: Instant::now(),
                            },
                        );
                    }
                    Err(TrySendError::Full(refused) | TrySendError::Disconnected(refused)) => {
                        refused.reply.withdraw();
                        self.shed.inc();
                        self.send_gate(conn_id, party, key.request_id, ctx, GateResponse::Busy);
                    }
                }
            }
            GateRequest::App { token, request } => {
                self.traffic
                    .record(party, Party::Ma, request_label(&request), frame_len);
                let admitted = {
                    let _gate_span = Span::child("gate.check", read_ctx);
                    self.gate.consume(token)
                };
                if !admitted {
                    // Unknown or exhausted token: the request never
                    // reaches a shard — re-challenge.
                    let resp = self.gate.challenge();
                    self.send_gate(conn_id, party, key.request_id, ctx, resp);
                    return;
                }
                let inflight = self
                    .conns
                    .get(&conn_id)
                    .map(|c| c.inflight)
                    .unwrap_or(usize::MAX);
                if inflight >= self.config.max_inflight_per_conn {
                    self.gate.refund(token);
                    self.shed.inc();
                    self.send_gate(
                        conn_id,
                        party,
                        key.request_id,
                        ctx,
                        GateResponse::App(MaResponse::Busy),
                    );
                    return;
                }
                let slot = self.pending.next();
                let inbound = Inbound {
                    key,
                    span: read_ctx,
                    request,
                    reply: Reply::to_door(slot, self.replies.clone()),
                };
                match self.router.try_route(inbound) {
                    Ok(()) => {
                        if let Some(conn) = self.conns.get_mut(&conn_id) {
                            conn.inflight += 1;
                        }
                        self.pending.insert(
                            slot,
                            Pending {
                                conn_id,
                                key,
                                ctx,
                                kind: PendingKind::App,
                                started: Instant::now(),
                            },
                        );
                    }
                    Err(TrySendError::Full(refused)) => {
                        refused.reply.withdraw();
                        self.gate.refund(token);
                        self.shed.inc();
                        self.send_gate(
                            conn_id,
                            party,
                            key.request_id,
                            ctx,
                            GateResponse::App(MaResponse::Busy),
                        );
                    }
                    Err(TrySendError::Disconnected(refused)) => {
                        refused.reply.withdraw();
                        self.send_gate(
                            conn_id,
                            party,
                            key.request_id,
                            ctx,
                            GateResponse::App(MaResponse::Err(MarketError::Transport(
                                "service stopped".into(),
                            ))),
                        );
                    }
                }
            }
            GateRequest::Ops(op) => {
                self.traffic.record(party, Party::Ma, "ops", frame_len);
                // Admission-exempt but rate-limited: refill the token
                // bucket, then either serve from reactor-local state
                // or shed with Busy. Never touches a shard.
                let elapsed = self.ops_refilled.elapsed().as_secs_f64();
                self.ops_refilled = Instant::now();
                self.ops_tokens = (self.ops_tokens
                    + elapsed * f64::from(self.config.ops_rate_per_sec))
                .min(f64::from(self.config.ops_burst));
                if self.ops_tokens < 1.0 {
                    self.ops_limited.inc();
                    self.send_gate(conn_id, party, key.request_id, ctx, GateResponse::Busy);
                    return;
                }
                self.ops_tokens -= 1.0;
                self.ops_served.inc();
                let _ops_span = Span::child("tcp.ops", read_ctx);
                let body = match op {
                    OpsRequest::Health => self.health_json(),
                    OpsRequest::MetricsJson => self
                        .obs
                        .snapshot()
                        .merge(&ppms_obs::global().snapshot())
                        .to_json(),
                    OpsRequest::MetricsText => self
                        .obs
                        .snapshot()
                        .merge(&ppms_obs::global().snapshot())
                        .to_prometheus(),
                    OpsRequest::SlowLog => {
                        let entries: Vec<&str> = self.slow_log.iter().map(String::as_str).collect();
                        format!("[{}]", entries.join(","))
                    }
                };
                self.send_gate(
                    conn_id,
                    party,
                    key.request_id,
                    ctx,
                    GateResponse::Ops { body },
                );
            }
        }
    }

    /// The health/readiness body: liveness is implied by answering at
    /// all; readiness is `status == "ok"` (a stopping reactor reports
    /// `"stopping"` so a scraper can drain it from rotation, and a
    /// service with a shard stopped for good, which refuses every
    /// request routed to it, reports `"degraded"`).
    fn health_json(&self) -> String {
        let stopped = self.obs.gauge("ma.shards_stopped").get();
        let status = match (self.stop.load(Ordering::SeqCst), stopped) {
            (true, _) => "stopping",
            (false, 0) => "ok",
            _ => "degraded",
        };
        format!(
            "{{\"status\":\"{}\",\"shards_stopped\":{},\"uptime_ms\":{},\"connections\":{},\
             \"inflight\":{},\"slow_log_entries\":{}}}",
            status,
            stopped,
            self.started.elapsed().as_millis(),
            self.conns.len(),
            self.pending.len,
            self.slow_log.len()
        )
    }

    /// Answers every reply the shards have posted since the last tick.
    fn reply_tick(&mut self) -> bool {
        let mut done = std::mem::take(&mut self.completed);
        self.replies.take(&mut done);
        let progress = !done.is_empty();
        for (slot, resp) in done.drain(..) {
            let Some(p) = self.pending.remove(slot) else {
                continue;
            };
            let elapsed = p.started.elapsed();
            let gate_resp = match p.kind {
                PendingKind::App => {
                    self.request_ns.record(elapsed.as_nanos() as u64);
                    if let Some(conn) = self.conns.get_mut(&p.conn_id) {
                        conn.inflight = conn.inflight.saturating_sub(1);
                    }
                    GateResponse::App(resp)
                }
                PendingKind::Admit { presented } => {
                    self.gate.judge_deposit(p.key, presented, &resp)
                }
            };
            if elapsed >= self.config.slow_request_threshold && p.ctx.trace_id != 0 {
                self.log_slow(&p, elapsed);
            }
            self.send_gate(p.conn_id, p.key.party, p.key.request_id, p.ctx, gate_resp);
        }
        self.completed = done;
        progress
    }

    /// Appends one slow-request entry — the request's identity plus
    /// its span tree as captured in the ring right now — evicting the
    /// oldest beyond `slow_log_capacity`.
    fn log_slow(&mut self, p: &Pending, elapsed: Duration) {
        self.slow_requests.inc();
        let entry = format!(
            "{{\"trace_id\":\"{:#018x}\",\"party\":\"{:?}\",\"request_id\":{},\
             \"elapsed_ns\":{},\"spans\":{}}}",
            p.ctx.trace_id,
            p.key.party,
            p.key.request_id,
            elapsed.as_nanos(),
            ppms_obs::trace_dump_json(p.ctx.trace_id)
        );
        if self.slow_log.len() >= self.config.slow_log_capacity.max(1) {
            self.slow_log.pop_front();
        }
        self.slow_log.push_back(entry);
    }

    /// Frames a gate response and queues it on the connection.
    /// Overflowing the write queue is the slow-client signal: the
    /// connection is evicted.
    fn send_gate(
        &mut self,
        conn_id: u64,
        to: Party,
        correlation_id: u64,
        ctx: SpanContext,
        resp: GateResponse,
    ) {
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return; // peer vanished while the request was in flight
        };
        if conn.dead {
            return;
        }
        let label = match &resp {
            GateResponse::Challenge { .. } => "gate-challenge",
            GateResponse::Admitted { .. } => "gate-admitted",
            GateResponse::Denied { .. } => "gate-denied",
            GateResponse::App(inner) => response_label(inner),
            GateResponse::Busy => "busy",
            GateResponse::Ops { .. } => "ops",
        };
        // The reply span parents under the *client's* request context
        // and its ids ride back in the response envelope, closing the
        // causal tree across the wire.
        let reply_span = Span::child("tcp.reply", ctx);
        let rctx = reply_span.ctx();
        let msg_id = self.next_msg_id;
        self.next_msg_id += 1;
        // Encode into the reactor's reusable scratch: the reply path
        // allocates nothing at steady state.
        self.reply_scratch.clear();
        Envelope {
            msg_id,
            correlation_id,
            trace_id: rctx.trace_id,
            span_id: rctx.span_id,
            parent_id: rctx.parent_id,
            party: Party::Ma,
            payload: resp,
        }
        .encode_append(&mut self.reply_scratch);
        let len = self.reply_scratch.len();
        match conn.outq.enqueue(&self.reply_scratch) {
            Ok(()) => {
                self.queue_fill.record(conn.outq.queued_bytes() as u64);
                self.traffic.record(Party::Ma, to, label, len);
            }
            Err(_) => {
                // Slow client: its outbound buffer is full. Evict.
                self.evicted.inc();
                conn.dead = true;
            }
        }
    }

    fn write_tick(&mut self) -> bool {
        let mut progress = false;
        for conn in self.conns.values_mut() {
            if conn.dead || conn.outq.is_empty() {
                continue;
            }
            match conn.outq.flush(&mut conn.stream) {
                Ok(n) => progress |= n > 0,
                Err(_) => conn.dead = true,
            }
        }
        progress
    }

    /// Removes connections marked dead this tick.
    fn bury_dead(&mut self) {
        let before = self.conns.len();
        self.conns.retain(|_, conn| {
            if conn.dead {
                conn.stream.shutdown();
                false
            } else {
                true
            }
        });
        if self.conns.len() != before {
            self.connections.set(self.conns.len() as i64);
        }
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// Client-side connection knobs.
#[derive(Debug, Clone)]
pub struct TcpClientConfig {
    /// Front-door address.
    pub addr: SocketAddr,
    /// How long to wait for any single reply.
    pub reply_timeout: Duration,
    /// How many challenge/re-admit cycles one logical request may
    /// cause before giving up (covers token expiry mid-conversation).
    pub handshake_attempts: u32,
    /// Inject seeded stream tears under the framing layer (tests the
    /// redial/re-admit path; the seed is varied per dial).
    pub flaky: Option<FlakyConfig>,
}

impl TcpClientConfig {
    /// Defaults for a front door at `addr`.
    pub fn new(addr: SocketAddr) -> TcpClientConfig {
        TcpClientConfig {
            addr,
            reply_timeout: Duration::from_secs(30),
            handshake_attempts: 5,
            flaky: None,
        }
    }
}

struct ClientState {
    conn: Option<FramedConn>,
    token: Option<u64>,
    /// Unit-value spends reserved for admission fees.
    wallet: VecDeque<Spend>,
    /// An `Admit` whose outcome we never learned: `(msg_id, spends)`.
    /// Retransmitted under the same id so the service's dedup cache
    /// (and the gate's verdict cache) replay the original admission
    /// instead of taking payment twice.
    pending_admit: Option<(u64, Vec<Spend>)>,
    dials: u64,
}

/// Stratum-3 [`Transport`] over a real TCP connection through the
/// admission gate. One transport = one connection (re-dialed lazily
/// after failures) + one wallet of admission spends + at most one
/// live session token. `Send + Sync` via an internal lock; callers
/// needing concurrency open more transports (connections are cheap on
/// the reactor side).
pub struct TcpTransport {
    config: TcpClientConfig,
    state: Mutex<ClientState>,
}

impl TcpTransport {
    /// A transport dialing `config.addr` lazily on first use.
    pub fn new(config: TcpClientConfig) -> TcpTransport {
        TcpTransport {
            config,
            state: Mutex::new(ClientState {
                conn: None,
                token: None,
                wallet: VecDeque::new(),
                pending_admit: None,
                dials: 0,
            }),
        }
    }

    /// Convenience: resolve `addr` (e.g. `"127.0.0.1:4070"`).
    pub fn dial(addr: impl ToSocketAddrs) -> io::Result<TcpTransport> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(ErrorKind::InvalidInput, "no address"))?;
        Ok(TcpTransport::new(TcpClientConfig::new(addr)))
    }

    /// Adds admission spends to the wallet. The gate charges
    /// `price` face value per admission; wallets hold unit-value
    /// leaf spends, so one admission costs `price` of them.
    pub fn load_wallet(&self, spends: Vec<Spend>) {
        self.state.lock().wallet.extend(spends);
    }

    /// Admission spends still available.
    pub fn wallet_len(&self) -> usize {
        self.state.lock().wallet.len()
    }

    fn connect(&self, state: &mut ClientState) -> Result<(), MarketError> {
        if state.conn.is_some() {
            return Ok(());
        }
        let stream = TcpStream::connect_timeout(&self.config.addr, Duration::from_secs(5))
            .map_err(|e| MarketError::Transport(format!("dial failed: {e}")))?;
        let _ = stream.set_nodelay(true);
        // A short read timeout gives recv_frame its poll granularity;
        // the frame-level deadline is enforced above this.
        let _ = stream.set_read_timeout(Some(Duration::from_millis(5)));
        state.dials += 1;
        let byte_stream: Box<dyn ByteStream> = match self.config.flaky {
            Some(mut cfg) => {
                // Vary the tear schedule per dial, or every reconnect
                // would die at the same byte.
                cfg.seed = cfg.seed.wrapping_add(state.dials);
                Box::new(FlakyStream::new(TcpByteStream(stream), cfg))
            }
            None => Box::new(TcpByteStream(stream)),
        };
        state.conn = Some(FramedConn::new(byte_stream));
        // A new connection does not invalidate the token (tokens are
        // gate-global bearer words), but a torn mid-handshake dial
        // may have left one half-minted; keep whatever we have and
        // let the server re-challenge if it disagrees.
        Ok(())
    }

    /// Sends one gate request and receives the correlated gate
    /// response. Any io failure tears the connection so the next call
    /// re-dials.
    fn gate_round_trip(
        &self,
        state: &mut ClientState,
        from: Party,
        msg_id: u64,
        ctx: SpanContext,
        payload: &GateRequest,
    ) -> Result<GateResponse, MarketError> {
        self.connect(state)?;
        let frame = Envelope {
            msg_id,
            correlation_id: 0,
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent_id: ctx.parent_id,
            party: from,
            payload,
        }
        .to_bytes();
        let conn = state.conn.as_mut().expect("connected above");
        let result = (|| {
            conn.send_frame(&frame)?;
            let deadline = Instant::now() + self.config.reply_timeout;
            loop {
                let reply = conn.recv_frame(deadline)?;
                let env = Envelope::<GateResponse>::from_bytes(&reply)
                    .map_err(|e| MarketError::Transport(format!("bad reply frame: {e}")))?;
                if env.correlation_id == msg_id {
                    return Ok(env.payload);
                }
                // A stale reply (e.g. for a request whose first
                // attempt we gave up on): skip it.
            }
        })();
        if result.is_err() {
            // Tear the session; the next call re-dials.
            if let Some(mut conn) = state.conn.take() {
                conn.shutdown();
            }
        }
        result
    }

    /// Ensures `state.token` holds a live session token, paying the
    /// admission price from the wallet if challenged. The handshake's
    /// spans parent under `parent` — when admission happens on behalf
    /// of an application request, the Hello/Admit exchange shows up
    /// inside that request's trace instead of as orphan roots.
    fn ensure_admitted(
        &self,
        state: &mut ClientState,
        from: Party,
        parent: SpanContext,
    ) -> Result<(), MarketError> {
        if state.token.is_some() {
            return Ok(());
        }
        // Hello is read-only, so each attempt gets a fresh id.
        let hello_span = Span::child("tcp.hello", parent);
        let hello = self.gate_round_trip(
            state,
            from,
            next_request_id(),
            hello_span.ctx(),
            &GateRequest::Hello,
        )?;
        drop(hello_span);
        let price = match hello {
            GateResponse::Admitted { token, .. } => {
                state.token = Some(token);
                return Ok(());
            }
            GateResponse::Challenge { price, .. } => price,
            GateResponse::Denied { reason } => return Err(denied_error(&reason)),
            GateResponse::Busy => {
                return Err(MarketError::Transport("front door busy".into()));
            }
            GateResponse::App(_) | GateResponse::Ops { .. } => {
                return Err(MarketError::Transport("protocol confusion on Hello".into()));
            }
        };
        // Pay. A re-used pending_admit replays the exact same frame
        // (same msg_id, same spends) so a lost Admitted answer cannot
        // cost a second payment.
        let (admit_id, spends) = match state.pending_admit.take() {
            Some(pa) => pa,
            None => {
                let need = spends_for_price(price);
                if state.wallet.len() < need {
                    return Err(MarketError::BadCoin(format!(
                        "admission wallet exhausted: have {}, need {need}",
                        state.wallet.len()
                    )));
                }
                let spends: Vec<Spend> = state.wallet.drain(..need).collect();
                (next_request_id(), spends)
            }
        };
        state.pending_admit = Some((admit_id, spends.clone()));
        let admit_span = Span::child("tcp.admit", parent);
        let verdict = self.gate_round_trip(
            state,
            from,
            admit_id,
            admit_span.ctx(),
            &GateRequest::Admit { spends },
        )?;
        drop(admit_span);
        match verdict {
            GateResponse::Admitted { token, .. } => {
                state.token = Some(token);
                state.pending_admit = None;
                Ok(())
            }
            GateResponse::Denied { reason } => {
                // A definitive refusal: the coins are judged (and the
                // verdict cached server-side); replaying them is
                // pointless.
                state.pending_admit = None;
                Err(denied_error(&reason))
            }
            GateResponse::Busy => {
                // The deposit never entered the service; keep
                // pending_admit for the retry.
                Err(MarketError::Transport("front door busy".into()))
            }
            other => Err(MarketError::Transport(format!(
                "unexpected admission answer: {other:?}"
            ))),
        }
    }

    /// Runs one admission-exempt operational query against the front
    /// door and returns the rendered body. No wallet, token or
    /// admission required — this is the programmatic form of "scrape
    /// the ops plane" (the load harness calls it mid-run).
    pub fn ops(&self, op: OpsRequest) -> Result<String, MarketError> {
        let mut state = self.state.lock();
        let answer = self.gate_round_trip(
            &mut state,
            Party::Ma,
            next_request_id(),
            SpanContext::from_trace(next_trace_id()),
            &GateRequest::Ops(op),
        )?;
        match answer {
            GateResponse::Ops { body } => Ok(body),
            GateResponse::Busy => Err(MarketError::Transport(
                "ops query rate-limited; retry later".into(),
            )),
            other => Err(MarketError::Transport(format!(
                "unexpected ops answer: {other:?}"
            ))),
        }
    }
}

impl Transport for TcpTransport {
    fn round_trip_spanned(
        &self,
        from: Party,
        request_id: u64,
        ctx: SpanContext,
        request: MaRequest,
    ) -> Result<MaResponse, MarketError> {
        let mut state = self.state.lock();
        for _ in 0..self.config.handshake_attempts.max(1) {
            self.ensure_admitted(&mut state, from, ctx)?;
            let token = state.token.expect("admitted above");
            let answer = self.gate_round_trip(
                &mut state,
                from,
                request_id,
                ctx,
                &GateRequest::App {
                    token,
                    request: request.clone(),
                },
            )?;
            match answer {
                GateResponse::App(MaResponse::Busy) | GateResponse::Busy => {
                    return Err(MarketError::Transport(
                        "service busy (load shed); retry later".into(),
                    ));
                }
                // The door's own transport failures (a shard that hung
                // up, a stopped service) are retryable errors here, as
                // they are on the in-process transports.
                GateResponse::App(MaResponse::Err(e @ MarketError::Transport(_))) => return Err(e),
                GateResponse::App(resp) => return Ok(resp),
                GateResponse::Challenge { .. } => {
                    // Token exhausted or expelled: re-admit and replay
                    // this request under its *original* key — the
                    // dedup cache makes the replay exactly-once even
                    // if the first copy did execute.
                    state.token = None;
                    continue;
                }
                GateResponse::Denied { reason } => return Err(denied_error(&reason)),
                GateResponse::Admitted { .. } | GateResponse::Ops { .. } => {
                    return Err(MarketError::Transport(
                        "unsolicited admission during request".into(),
                    ));
                }
            }
        }
        Err(MarketError::Transport(
            "admission kept expiring; giving up".into(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_are_sane() {
        let c = TcpConfig::default();
        assert!(c.max_connections > 0);
        assert!(c.write_queue_bytes > 4096);
        assert!(c.max_inflight_per_conn > 0);
        assert!(c.admission.price > 0, "paywall is on by default");
    }

    #[test]
    fn transport_without_wallet_fails_closed() {
        // Nothing is listening on this port — the transport must
        // surface a retryable transport error, not hang or panic.
        let t = TcpTransport::new(TcpClientConfig {
            addr: "127.0.0.1:1".parse().unwrap(),
            reply_timeout: Duration::from_millis(50),
            handshake_attempts: 1,
            flaky: None,
        });
        let err = t
            .round_trip(Party::Sp, MaRequest::FetchData { job_id: 1 })
            .unwrap_err();
        assert!(
            err.is_retryable(),
            "dial failure must be retryable: {err:?}"
        );
    }
}

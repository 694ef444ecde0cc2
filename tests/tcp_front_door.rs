//! The TCP front door's security and overload policies, exercised
//! over real loopback sockets: unadmitted connections never reach a
//! shard handler, admission is paid in the market's own e-cash (and a
//! double-spent admission coin is refused), slow clients are evicted
//! when their outbound buffer fills instead of growing it without
//! bound, and overload is shed with `Busy` instead of queuing
//! unboundedly. Every policy decision is asserted through the obs
//! counters the reactor records (`tcp.*`, `gate.*`).
//!
//! The idle reactor blocks in `poll(2)` with no timeout, so every
//! source of work must wake it. One test per wake source (a request
//! after an idle spell, `shutdown`, a reply dropped by a crashed shard,
//! a checkpoint's gate export) runs under a [`watchdog`], so a missing
//! wake fails the suite with a message instead of hanging it. So do
//! pipelined clients whose replies race the reactor's parking, and a
//! dial into a door too busy ever to park.

use ppms_core::bank::BankSnapshot;
use ppms_core::gate::{AdmissionConfig, OpsRequest};
use ppms_core::service::{MaClient, MaRequest, MaResponse, MaService, ServiceConfig};
use ppms_core::sim::{mint_admission_spends, mint_deposit_batches};
use ppms_core::{
    next_request_id, next_trace_id, AccountId, CrashPhase, CrashPoint, DurabilityConfig, Envelope,
    FramedConn, GateRequest, GateResponse, MarketError, Party, RetryPolicy, RetryingTransport,
    SimStorage, Storage, TcpByteStream, TcpClientConfig, TcpConfig, TcpFrontDoor, TcpTransport,
};
use ppms_crypto::cl::ClKeyPair;
use ppms_ecash::DecParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

fn spawn_service(seed: u64, shards: usize, queue_depth: usize) -> MaService {
    let mut rng = StdRng::seed_from_u64(seed);
    MaService::spawn_with_config(
        &mut rng,
        DecParams::fixture(2, 6),
        512,
        40,
        ServiceConfig {
            shards,
            queue_depth,
            ..ServiceConfig::default()
        },
    )
}

/// A raw framed connection to the front door — the protocol surface
/// an arbitrary (possibly hostile) peer sees, below `TcpTransport`'s
/// well-behaved client logic.
fn gate_conn(addr: SocketAddr) -> FramedConn {
    let stream = TcpStream::connect(addr).expect("loopback connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(5)))
        .expect("read timeout");
    let _ = stream.set_nodelay(true);
    FramedConn::new(Box::new(TcpByteStream(stream)))
}

fn gate_frame(party: Party, msg_id: u64, payload: &GateRequest) -> Vec<u8> {
    Envelope {
        msg_id,
        correlation_id: 0,
        trace_id: next_trace_id(),
        span_id: 0,
        parent_id: 0,
        party,
        payload,
    }
    .to_bytes()
}

/// One correlated request/response exchange on a raw connection.
fn ask(conn: &mut FramedConn, party: Party, payload: &GateRequest) -> GateResponse {
    let msg_id = next_request_id();
    conn.send_frame(&gate_frame(party, msg_id, payload))
        .expect("send");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let reply = conn.recv_frame(deadline).expect("reply");
        let env = Envelope::<GateResponse>::from_bytes(&reply).expect("gate reply decodes");
        if env.correlation_id == msg_id {
            return env.payload;
        }
    }
}

/// Exits the test binary with a message unless dropped within its
/// limit. A wake the reactor misses leaves a client blocked on a reply
/// (or a join blocked on the reactor) for good; this turns that hang
/// into a failure naming the wake.
struct Watchdog {
    done: Option<mpsc::Sender<()>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

fn watchdog(what: &'static str, limit: Duration) -> Watchdog {
    let (done, finished) = mpsc::channel::<()>();
    let thread = std::thread::spawn(move || {
        if finished.recv_timeout(limit) == Err(mpsc::RecvTimeoutError::Timeout) {
            // Straight to the stream: the test harness captures
            // `eprintln!`, and the exit below would discard it.
            let _ = writeln!(
                std::io::stderr(),
                "watchdog: {what} did not finish within {limit:?}"
            );
            std::process::exit(1);
        }
    });
    Watchdog {
        done: Some(done),
        thread: Some(thread),
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        drop(self.done.take());
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// A raw connection admitted by an open door, with its session token.
fn admitted_conn(addr: SocketAddr) -> (FramedConn, u64) {
    let mut conn = gate_conn(addr);
    match ask(&mut conn, Party::Sp, &GateRequest::Hello) {
        GateResponse::Admitted { token, .. } => (conn, token),
        other => panic!("open door must admit, got {other:?}"),
    }
}

/// Pipelines one `Balance` query without waiting; returns its id.
fn send_balance(conn: &mut FramedConn, token: u64, account: AccountId) -> u64 {
    let msg_id = next_request_id();
    let request = MaRequest::Balance { account };
    conn.send_frame(&gate_frame(
        Party::Sp,
        msg_id,
        &GateRequest::App { token, request },
    ))
    .expect("pipelined send");
    msg_id
}

/// The next reply on a pipelined connection: `(correlation id, answer)`.
fn next_reply(conn: &mut FramedConn) -> (u64, GateResponse) {
    let reply = conn
        .recv_frame(Instant::now() + Duration::from_secs(120))
        .expect("pipelined reply");
    let env = Envelope::<GateResponse>::from_bytes(&reply).expect("reply decodes");
    (env.correlation_id, env.payload)
}

/// A JO account registered in process with `funds`, so a `Balance`
/// answer can be checked exactly.
fn funded_account(svc: &MaService, seed: u64, funds: u64) -> AccountId {
    let cl = ClKeyPair::generate(&mut StdRng::seed_from_u64(seed), &svc.pairing);
    match svc.client().try_call(MaRequest::RegisterJoAccount {
        funds,
        clpk: cl.public,
    }) {
        Ok(MaResponse::Account(account)) => account,
        other => panic!("register a funded account: {other:?}"),
    }
}

/// The in-flight count the door's Health body reports.
fn health_inflight(addr: SocketAddr) -> u64 {
    let body = TcpTransport::new(TcpClientConfig::new(addr))
        .ops(OpsRequest::Health)
        .expect("health");
    let tail = body
        .split("\"inflight\":")
        .nth(1)
        .unwrap_or_else(|| panic!("no inflight in {body}"));
    let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().expect("inflight is a count")
}

fn open_door(price_zero: bool) -> AdmissionConfig {
    AdmissionConfig {
        price: if price_zero { 0 } else { 1 },
        requests_per_token: 100_000,
        ..AdmissionConfig::default()
    }
}

#[test]
fn unadmitted_requests_never_reach_a_shard() {
    let svc = spawn_service(0xD001, 2, 64);
    let door = TcpFrontDoor::spawn(&svc, "127.0.0.1:0", TcpConfig::default()).expect("front door");

    // Baseline after spawn (the revenue-account registration is the
    // service's own and has already landed).
    let before = svc.obs.snapshot();

    let mut conn = gate_conn(door.addr());
    // Hello without payment: challenged, not admitted.
    assert!(matches!(
        ask(&mut conn, Party::Sp, &GateRequest::Hello),
        GateResponse::Challenge { .. }
    ));
    // A forged token bounces with a re-challenge.
    assert!(matches!(
        ask(
            &mut conn,
            Party::Sp,
            &GateRequest::App {
                token: 0xDEAD_BEEF,
                request: MaRequest::RegisterSpAccount,
            },
        ),
        GateResponse::Challenge { .. }
    ));
    // Request tag 12 (the retired in-process shutdown) is not a request
    // any more: the frame fails to decode, counts as a bad frame and
    // costs its sender the connection.
    assert_refused_unanswered(door.addr(), &retired_tag_frame(Party::Sp));

    // Not one of those frames reached a shard: the dedup counters
    // (incremented once per request entering the service) are
    // untouched.
    let after = svc.obs.snapshot();
    assert_eq!(
        after.counter("tcp.bad_frames") - before.counter("tcp.bad_frames"),
        1,
        "the tag-12 frame counts as one bad frame"
    );
    assert_eq!(
        before.counter("ma.dedup.misses"),
        after.counter("ma.dedup.misses"),
        "an unadmitted request entered the service"
    );
    assert_eq!(
        before.counter("fault.dedup_replays"),
        after.counter("fault.dedup_replays")
    );
    assert!(after.counter("gate.challenges") >= 2);

    drop(door);
    svc.shutdown();
}

/// A frame with an honest length prefix and FNV trailer around `body`.
fn reframe(version: u16, body: &[u8]) -> Vec<u8> {
    let mut frame = version.to_be_bytes().to_vec();
    frame.extend_from_slice(&(body.len() as u32).to_be_bytes());
    frame.extend_from_slice(body);
    frame.extend_from_slice(&ppms_core::wire::fnv1a(body).to_be_bytes());
    frame
}

/// The body of a current frame: between the 6-byte version+length
/// header and the 8-byte trailer.
fn body_of(frame: &[u8]) -> &[u8] {
    &frame[6..frame.len() - 8]
}

/// A current `App` frame whose request tag is patched to 12, the
/// retired in-process shutdown request.
fn retired_tag_frame(party: Party) -> Vec<u8> {
    let app = GateRequest::App {
        token: 0xDEAD_BEEF,
        request: MaRequest::RegisterSpAccount,
    };
    let mut body = body_of(&gate_frame(party, next_request_id(), &app)).to_vec();
    let tag = body.last_mut().expect("non-empty body");
    assert_eq!(*tag, 1, "RegisterSpAccount is the last byte, tag 1");
    *tag = 12;
    reframe(ppms_core::wire::WIRE_VERSION, &body)
}

/// A frame at a retired wire version (v3: trace id but no span ids),
/// built by hand from a current frame so its length prefix and FNV
/// trailer are honest — only the version is wrong.
fn v3_frame(party: Party, msg_id: u64, payload: &GateRequest) -> Vec<u8> {
    let v4 = gate_frame(party, msg_id, payload);
    // v4 body: msg_id, correlation_id, trace_id, span_id, parent_id
    // (8 bytes each), party, payload. v3 omits span_id and parent_id.
    let mut body = body_of(&v4)[..24].to_vec();
    body.extend_from_slice(&body_of(&v4)[40..]);
    reframe(3, &body)
}

/// Sends `frame` on a fresh connection and asserts the door closes it
/// without an answer.
fn assert_refused_unanswered(addr: SocketAddr, frame: &[u8]) {
    let mut raw = TcpStream::connect(addr).expect("loopback connect");
    raw.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    raw.write_all(frame).expect("send frame");
    let mut reply = Vec::new();
    match raw.read_to_end(&mut reply) {
        Ok(_) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        Err(e) => panic!("the door must close the connection, not leave it open: {e}"),
    }
    assert!(reply.is_empty(), "a refused frame was answered: {reply:?}");
}

#[test]
fn retired_frame_versions_are_refused_at_the_door() {
    let svc = spawn_service(0xD00B, 1, 64);
    let config = TcpConfig {
        admission: open_door(true),
        ..TcpConfig::default()
    };
    let door = TcpFrontDoor::spawn(&svc, "127.0.0.1:0", config).expect("front door");
    let before = door.obs_snapshot();

    // The v3 peer gets no reply: the door drops the connection.
    let v3 = v3_frame(Party::Sp, next_request_id(), &GateRequest::Hello);
    assert_refused_unanswered(door.addr(), &v3);
    let after = door.obs_snapshot();
    assert_eq!(
        after.counter("tcp.bad_frames") - before.counter("tcp.bad_frames"),
        1,
        "the v3 frame counts as one bad frame"
    );

    // A current client on another connection is still served.
    let mut conn = gate_conn(door.addr());
    let token = match ask(&mut conn, Party::Sp, &GateRequest::Hello) {
        GateResponse::Admitted { token, .. } => token,
        other => panic!("open door must admit, got {other:?}"),
    };
    assert!(matches!(
        ask(
            &mut conn,
            Party::Sp,
            &GateRequest::App {
                token,
                request: MaRequest::RegisterSpAccount,
            },
        ),
        GateResponse::App(MaResponse::Account(_))
    ));
    assert_eq!(door.obs_snapshot().counter("tcp.reactor_panics"), 0);

    drop(door);
    svc.shutdown();
}

#[test]
fn admission_is_paid_and_double_spent_coins_are_refused() {
    let svc = spawn_service(0xD002, 2, 64);
    // One request per token forces a second admission immediately.
    let config = TcpConfig {
        admission: AdmissionConfig {
            requests_per_token: 1,
            ..AdmissionConfig::default()
        },
        ..TcpConfig::default()
    };
    let door = TcpFrontDoor::spawn(&svc, "127.0.0.1:0", config).expect("front door");

    let spends = mint_admission_spends(&svc, 0xFEE, 1).expect("wallet");
    let transport = TcpTransport::new(TcpClientConfig::new(door.addr()));
    // The wallet holds the same spend twice: the first admission
    // deposits it legitimately, the second replays a spent serial.
    transport.load_wallet(vec![spends[0].clone(), spends[0].clone()]);
    let client = MaClient::new(Arc::new(transport), Party::Sp);

    let account = match client.try_call(MaRequest::RegisterSpAccount) {
        Ok(MaResponse::Account(a)) => a,
        other => panic!("paid admission should serve the request, got {other:?}"),
    };

    // Token exhausted; re-admission presents the double-spent coin
    // and must be refused with a *fatal* error (not a retryable one).
    match client.try_call(MaRequest::Balance { account }) {
        Err(MarketError::BadCoin(reason)) => {
            assert!(
                reason.contains("admission denied"),
                "unexpected refusal: {reason}"
            );
        }
        other => panic!("double-spent admission must be denied, got {other:?}"),
    }

    let snap = door.obs_snapshot();
    assert!(snap.counter("gate.admitted") >= 1, "first admission minted");
    assert!(snap.counter("gate.denied") >= 1, "replayed coin refused");

    drop(door);
    svc.shutdown();
}

#[test]
fn exhausted_token_is_refused_and_the_client_repays() {
    // The full admission-token lifecycle: one paid token buys exactly
    // N requests; the N+1st is refused at the gate (re-challenged,
    // never reaching a shard with the dead token) and the client
    // transport automatically re-pays from its wallet — visible as a
    // second admission, a second fee spent, and uninterrupted service
    // at the request level.
    let svc = spawn_service(0xD00D, 2, 64);
    let per_token = 3u64;
    let config = TcpConfig {
        admission: AdmissionConfig {
            price: 1,
            requests_per_token: per_token,
            ..AdmissionConfig::default()
        },
        ..TcpConfig::default()
    };
    let door = TcpFrontDoor::spawn(&svc, "127.0.0.1:0", config).expect("front door");

    let transport = Arc::new(TcpTransport::new(TcpClientConfig::new(door.addr())));
    transport.load_wallet(mint_admission_spends(&svc, 0xFED5, 4).expect("wallet"));
    let client = MaClient::new(
        transport.clone() as Arc<dyn ppms_core::Transport>,
        Party::Sp,
    );

    // N requests ride the first token; the N+1st exhausts it and
    // forces the re-admission. All succeed from the caller's seat.
    let account = match client.try_call(MaRequest::RegisterSpAccount) {
        Ok(MaResponse::Account(a)) => a,
        other => panic!("first paid request, got {other:?}"),
    };
    for i in 1..=per_token {
        match client.try_call(MaRequest::Balance { account }) {
            Ok(MaResponse::Balance(0)) => {}
            other => panic!("request {i} after admission, got {other:?}"),
        }
    }

    assert_eq!(
        transport.wallet_len(),
        2,
        "two admissions at price 1 cost exactly two wallet spends"
    );
    let snap = door.obs_snapshot();
    assert_eq!(
        snap.counter("gate.admitted"),
        2,
        "token exhaustion must have minted a second session"
    );
    assert!(
        snap.counter("gate.challenges") >= 2,
        "the N+1st request must have been re-challenged"
    );
    assert_eq!(snap.counter("gate.denied"), 0, "no coin was refused");

    drop(door);
    svc.shutdown();
}

#[test]
fn slow_clients_are_evicted_with_bounded_buffers() {
    let svc = spawn_service(0xD003, 2, 64);
    let config = TcpConfig {
        // Small outbound budget so a non-reading client trips it fast.
        write_queue_bytes: 32 * 1024,
        admission: open_door(true),
        ..TcpConfig::default()
    };
    let door = TcpFrontDoor::spawn(&svc, "127.0.0.1:0", config).expect("front door");

    // Publish a job and register two fat labor keys so `FetchLabor`
    // replies are ~24 KiB each.
    let setup = svc.client();
    let job_id = match setup.call(MaRequest::PublishJob {
        description: "eviction fixture".into(),
        payment: 1,
        pseudonym: vec![1, 2, 3],
    }) {
        MaResponse::JobId(id) => id,
        other => panic!("publish: {other:?}"),
    };
    for fill in [0xA5u8, 0x5A] {
        match setup.call(MaRequest::LaborRegister {
            job_id,
            sp_pubkey: vec![fill; 12 * 1024],
        }) {
            MaResponse::Ok => {}
            other => panic!("labor fixture: {other:?}"),
        }
    }

    // The slow client: admitted through the open door, then pipelines
    // FetchLabor requests and never reads a single reply.
    let mut slow = gate_conn(door.addr());
    let token = match ask(&mut slow, Party::Jo, &GateRequest::Hello) {
        GateResponse::Admitted { token, .. } => token,
        other => panic!("open door must admit, got {other:?}"),
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut sent = 0u32;
    loop {
        if door.obs_snapshot().counter("tcp.evicted") >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no eviction after {sent} unread replies"
        );
        let frame = gate_frame(
            Party::Jo,
            next_request_id(),
            &GateRequest::App {
                token,
                request: MaRequest::FetchLabor { job_id },
            },
        );
        // Once the reactor evicts us it closes the socket, so a send
        // failure is also the success signal.
        if slow.send_frame(&frame).is_err() {
            break;
        }
        sent += 1;
        if sent.is_multiple_of(8) {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let waited = Instant::now() + Duration::from_secs(10);
    while door.obs_snapshot().counter("tcp.evicted") == 0 && Instant::now() < waited {
        std::thread::sleep(Duration::from_millis(5));
    }
    let snap = door.obs_snapshot();
    assert!(snap.counter("tcp.evicted") >= 1, "slow client not evicted");

    // The eviction freed the connection slot: a fresh, well-behaved
    // client on the same door is served normally.
    let mut fresh = gate_conn(door.addr());
    let token = match ask(&mut fresh, Party::Jo, &GateRequest::Hello) {
        GateResponse::Admitted { token, .. } => token,
        other => panic!("fresh client refused: {other:?}"),
    };
    match ask(
        &mut fresh,
        Party::Jo,
        &GateRequest::App {
            token,
            request: MaRequest::FetchLabor { job_id },
        },
    ) {
        GateResponse::App(MaResponse::Labor(keys)) => assert_eq!(keys.len(), 2),
        other => panic!("fresh client not served: {other:?}"),
    }

    drop(door);
    svc.shutdown();
}

#[test]
fn overload_is_shed_with_busy_not_queued_unboundedly() {
    // A deliberately tiny service: one shard, queue depth one — the
    // whole pipeline absorbs only a few in-flight requests.
    let svc = spawn_service(0xD004, 1, 1);
    let config = TcpConfig {
        admission: open_door(true),
        max_inflight_per_conn: 64,
        ..TcpConfig::default()
    };
    let door = TcpFrontDoor::spawn(&svc, "127.0.0.1:0", config).expect("front door");

    let mut conn = gate_conn(door.addr());
    let token = match ask(&mut conn, Party::Sp, &GateRequest::Hello) {
        GateResponse::Admitted { token, .. } => token,
        other => panic!("open door must admit, got {other:?}"),
    };

    // Fire volleys of expensive requests — full-coin deposit batches
    // whose per-spend ZK verification stalls the single shard for
    // milliseconds each — back-to-back without waiting for replies.
    // The shard-queue overflow must come back as Busy — immediately, not
    // after a queueing delay. On a loaded machine the shard can drain
    // between reactor reads, so escalate with fresh volleys until the
    // pipeline falls behind at least once. A second connection probes
    // the ops plane while each volley is in flight: the live metrics
    // path must answer from inside the loaded reactor.
    let ops = TcpTransport::new(TcpClientConfig::new(door.addr()));
    let mut busy = 0usize;
    let mut deposited = 0usize;
    let mut sent = 0usize;
    let mut round = 0u64;
    while busy == 0 {
        assert!(round < 8, "overload never shed ({deposited} deposited)");
        let batches = mint_deposit_batches(&svc, 0xB0B ^ round, 10).expect("batches");
        round += 1;
        let mut ids = Vec::new();
        for (account, spends) in &batches {
            let msg_id = next_request_id();
            conn.send_frame(&gate_frame(
                Party::Sp,
                msg_id,
                &GateRequest::App {
                    token,
                    request: MaRequest::DepositBatch {
                        account: *account,
                        spends: spends.clone(),
                    },
                },
            ))
            .expect("pipelined send");
            ids.push(msg_id);
        }
        sent += ids.len();

        let health = ops.ops(OpsRequest::Health).expect("health under load");
        assert!(health.contains("\"status\""), "health probe body: {health}");
        let metrics = ops
            .ops(OpsRequest::MetricsJson)
            .expect("metrics under load");
        assert!(
            metrics.contains("\"tcp."),
            "metrics scrape must expose the door's counters: {metrics}"
        );

        // Every request gets exactly one reply: either its deposit
        // result or a Busy shed marker.
        let deadline = Instant::now() + Duration::from_secs(60);
        while !ids.is_empty() {
            let reply = conn.recv_frame(deadline).expect("pipelined reply");
            let env = Envelope::<GateResponse>::from_bytes(&reply).expect("reply decodes");
            let Some(pos) = ids.iter().position(|&id| id == env.correlation_id) else {
                continue;
            };
            ids.swap_remove(pos);
            match env.payload {
                GateResponse::App(MaResponse::Busy) | GateResponse::Busy => busy += 1,
                GateResponse::App(MaResponse::BatchDeposited { .. }) => deposited += 1,
                other => panic!("unexpected pipelined reply: {other:?}"),
            }
        }
    }
    assert!(deposited >= 1, "shedding must not starve the service");
    assert_eq!(busy + deposited, sent);

    let snap = door.obs_snapshot();
    assert_eq!(snap.counter("tcp.shed"), busy as u64);
    assert_eq!(snap.counter("tcp.evicted"), 0, "shedding is not eviction");

    drop(door);
    svc.shutdown();
}

#[test]
fn scheduled_checkpoints_fire_for_traffic_served_through_the_door() {
    // The shard whose append reaches the mark starts the scheduled
    // checkpoint, whatever carried the request; here every request
    // comes through the door. The client keeps
    // sending while checkpoints run, so the recovered ledger also
    // checks that each checkpoint cut the market consistently.
    const EVERY: u64 = 8;
    let storage = Arc::new(SimStorage::new());
    let mut durability = DurabilityConfig::new(storage.clone());
    durability.checkpoint_every = EVERY;
    let svc = MaService::spawn_durable(
        &mut StdRng::seed_from_u64(0xD00C),
        DecParams::fixture(2, 6),
        512,
        40,
        ServiceConfig {
            shards: 2,
            ..ServiceConfig::default()
        },
        durability.clone(),
    )
    .expect("durable spawn");
    let config = TcpConfig {
        admission: open_door(true),
        ..TcpConfig::default()
    };
    let door = TcpFrontDoor::spawn(&svc, "127.0.0.1:0", config).expect("front door");
    let client = MaClient::new(
        Arc::new(TcpTransport::new(TcpClientConfig::new(door.addr()))),
        Party::Sp,
    );
    for _ in 0..3 * EVERY {
        let resp = client
            .try_call(MaRequest::RegisterSpAccount)
            .expect("served through the door");
        assert!(matches!(resp, MaResponse::Account(_)), "{resp:?}");
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while svc.faults.wal_snapshots() == 0 {
        assert!(
            Instant::now() < deadline,
            "no scheduled checkpoint after {} door requests (checkpoint_every = {EVERY})",
            3 * EVERY
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        svc.obs.snapshot().counter("ma.direct_routed") > 0,
        "the traffic must take the direct route"
    );
    // One more checkpoint once the door has gone idle: its reactor is
    // blocked in `poll`, and only the hook's wake gets the gate state
    // into the snapshot within the export's 500 ms bound.
    let guard = watchdog(
        "a checkpoint taken while the door idles",
        Duration::from_secs(20),
    );
    std::thread::sleep(Duration::from_millis(50));
    svc.checkpoint().expect("checkpoint while the door idles");
    drop(guard);
    let ledger = svc.bank.snapshot();
    drop(door);
    svc.shutdown();

    let (recovered, report) = MaService::recover(
        &mut StdRng::seed_from_u64(0xD00C),
        DecParams::fixture(2, 6),
        512,
        40,
        ServiceConfig {
            shards: 2,
            ..ServiceConfig::default()
        },
        durability,
    )
    .expect("recover from the scheduled checkpoint");
    assert!(report.snapshot.is_some(), "{report:?}");
    assert_eq!(recovered.bank.snapshot(), ledger);
    assert!(
        recovered.take_recovered_gate().is_some(),
        "the checkpoint taken while the door idled carries no gate section"
    );
    recovered.shutdown();
}

#[test]
fn ops_plane_is_admission_exempt_read_only_and_shardless() {
    let svc = spawn_service(0xD005, 2, 64);
    // Paid door (default price 1): a wallet-less peer cannot reach a
    // shard, yet the ops family must serve it anyway.
    let door = TcpFrontDoor::spawn(&svc, "127.0.0.1:0", TcpConfig::default()).expect("front door");
    let before = svc.obs.snapshot();

    // Raw connection, never admitted: the ops family answers where an
    // app request would only be challenged.
    let mut conn = gate_conn(door.addr());
    let health = match ask(&mut conn, Party::Sp, &GateRequest::Ops(OpsRequest::Health)) {
        GateResponse::Ops { body } => body,
        other => panic!("ops must be admission-exempt, got {other:?}"),
    };
    assert!(health.contains("\"status\":\"ok\""), "{health}");
    assert!(health.contains("\"uptime_ms\""), "{health}");
    assert!(health.contains("\"connections\""), "{health}");

    // The programmatic scrape surface — no wallet loaded.
    let t = TcpTransport::new(TcpClientConfig::new(door.addr()));
    let json = t.ops(OpsRequest::MetricsJson).expect("metrics json");
    assert!(
        json.contains("\"tcp.ops\""),
        "merged snapshot carries the door's own counters: {json}"
    );
    let prom = t.ops(OpsRequest::MetricsText).expect("prometheus text");
    assert!(
        prom.contains("# TYPE tcp_ops counter"),
        "prometheus rendering of the same snapshot: {prom}"
    );
    let slow = t.ops(OpsRequest::SlowLog).expect("slow log");
    assert!(
        slow.starts_with('[') && slow.ends_with(']'),
        "slow log is a JSON array: {slow}"
    );

    // Served entirely in-reactor: not one ops query entered a shard.
    let after = svc.obs.snapshot();
    assert_eq!(
        before.counter("ma.dedup.misses"),
        after.counter("ma.dedup.misses"),
        "an ops query reached the service"
    );
    assert_eq!(
        before.counter("fault.dedup_replays"),
        after.counter("fault.dedup_replays")
    );
    assert!(after.counter("tcp.ops") >= 4, "every ops query counted");

    drop(door);
    svc.shutdown();
}

#[test]
fn ops_queries_are_rate_limited_but_app_traffic_is_not() {
    let svc = spawn_service(0xD006, 1, 64);
    let config = TcpConfig {
        admission: open_door(true),
        // Bucket of 3, refilled at 1/s: a burst of 10 must shed.
        ops_rate_per_sec: 1,
        ops_burst: 3,
        ..TcpConfig::default()
    };
    let door = TcpFrontDoor::spawn(&svc, "127.0.0.1:0", config).expect("front door");

    let mut conn = gate_conn(door.addr());
    let (mut served, mut limited) = (0u64, 0u64);
    for _ in 0..10 {
        match ask(&mut conn, Party::Sp, &GateRequest::Ops(OpsRequest::Health)) {
            GateResponse::Ops { .. } => served += 1,
            GateResponse::Busy => limited += 1,
            other => panic!("unexpected ops answer: {other:?}"),
        }
    }
    assert!(
        (3..=4).contains(&served),
        "burst capacity bounds the served count, got {served}"
    );
    assert!(limited >= 6, "the rest must shed, got {limited}");

    // The ops bucket never touches app traffic: the same door still
    // serves an admitted client normally.
    let token = match ask(&mut conn, Party::Sp, &GateRequest::Hello) {
        GateResponse::Admitted { token, .. } => token,
        other => panic!("open door must admit, got {other:?}"),
    };
    match ask(
        &mut conn,
        Party::Sp,
        &GateRequest::App {
            token,
            request: MaRequest::RegisterSpAccount,
        },
    ) {
        GateResponse::App(MaResponse::Account(_)) => {}
        other => panic!("app traffic throttled by the ops bucket: {other:?}"),
    }

    let snap = door.obs_snapshot();
    assert_eq!(snap.counter("tcp.ops_limited"), limited);
    assert_eq!(snap.counter("tcp.ops"), served);

    drop(door);
    svc.shutdown();
}

#[test]
fn slow_requests_land_in_the_slow_log_with_their_span_tree() {
    let svc = spawn_service(0xD007, 1, 64);
    let config = TcpConfig {
        admission: open_door(true),
        // Every traced request is "slow" at a 1ns threshold.
        slow_request_threshold: Duration::from_nanos(1),
        slow_log_capacity: 4,
        ..TcpConfig::default()
    };
    let door = TcpFrontDoor::spawn(&svc, "127.0.0.1:0", config).expect("front door");

    let client = MaClient::new(
        Arc::new(TcpTransport::new(TcpClientConfig::new(door.addr()))),
        Party::Sp,
    );
    let account = match client.call(MaRequest::RegisterSpAccount) {
        MaResponse::Account(a) => a,
        other => panic!("account: {other:?}"),
    };
    // Overflow the capacity-4 log so the FIFO bound is exercised too.
    for _ in 0..6 {
        match client.call(MaRequest::Balance { account }) {
            MaResponse::Balance(_) => {}
            other => panic!("balance: {other:?}"),
        }
    }

    let ops = TcpTransport::new(TcpClientConfig::new(door.addr()));
    let body = ops.ops(OpsRequest::SlowLog).expect("slow log");
    assert!(body.contains("\"trace_id\""), "{body}");
    assert!(body.contains("\"elapsed_ns\""), "{body}");
    assert!(body.contains("\"spans\""), "{body}");
    // The logged tree includes the server-side spans of the slow
    // request.
    assert!(
        body.contains("shard.handle"),
        "slow-log entries must carry the request's span tree: {body}"
    );
    // One "elapsed_ns" per entry (the nested span cells repeat
    // "trace_id", so that key cannot count entries).
    let entries = body.matches("\"elapsed_ns\"").count();
    assert!(
        (1..=4).contains(&entries),
        "FIFO capacity must bound the log, got {entries}: {body}"
    );

    let snap = door.obs_snapshot();
    assert!(snap.counter("tcp.slow_requests") >= 7);
    // Every app request sent (one registration, six reads) is timed.
    let timed = snap.histogram("tcp.request_ns").map_or(0, |h| h.count);
    assert!(timed >= 7, "{timed} of 7 requests timed");

    drop(door);
    svc.shutdown();
}

#[test]
fn an_idle_door_blocks_and_wakes_for_the_next_request() {
    let _guard = watchdog("a request after 300 ms of silence", Duration::from_secs(30));
    let svc = spawn_service(0xD008, 1, 64);
    let config = TcpConfig {
        admission: open_door(true),
        ..TcpConfig::default()
    };
    let door = TcpFrontDoor::spawn(&svc, "127.0.0.1:0", config).expect("front door");
    let client = MaClient::new(
        Arc::new(TcpTransport::new(TcpClientConfig::new(door.addr()))),
        Party::Sp,
    );
    let register = |client: &MaClient| {
        let resp = client
            .try_call(MaRequest::RegisterSpAccount)
            .expect("served through the door");
        assert!(matches!(resp, MaResponse::Account(_)), "{resp:?}");
    };
    register(&client);

    // 300 ms without traffic: a door that sleeps and re-polls would
    // return from its wait hundreds of times; a blocked one at most a
    // couple of times, for wakes still in flight from the last reply.
    std::thread::sleep(Duration::from_millis(20));
    let before = svc.obs.snapshot().counter("tcp.idle_waits");
    std::thread::sleep(Duration::from_millis(300));
    let idle = svc.obs.snapshot().counter("tcp.idle_waits") - before;
    assert!(
        idle <= 3,
        "the idle door returned from its wait {idle} times"
    );

    // Both socket wakes: a readable connection, then a new one on the
    // listener.
    register(&client);
    let fresh = MaClient::new(
        Arc::new(TcpTransport::new(TcpClientConfig::new(door.addr()))),
        Party::Sp,
    );
    register(&fresh);

    let json = TcpTransport::new(TcpClientConfig::new(door.addr()))
        .ops(OpsRequest::MetricsJson)
        .expect("metrics json");
    assert!(json.contains("\"tcp.idle_waits\""), "{json}");
    drop(door);
    svc.shutdown();
}

#[test]
fn shutdown_of_an_idle_door_returns() {
    let _guard = watchdog("shutdown of an idle door", Duration::from_secs(30));
    let svc = spawn_service(0xD009, 1, 64);
    let mut door = TcpFrontDoor::spawn(&svc, "127.0.0.1:0", TcpConfig::default()).expect("door");
    // An open connection too, so the reactor waits on more than the
    // listener.
    let _conn = gate_conn(door.addr());
    std::thread::sleep(Duration::from_millis(50));
    door.shutdown();
    svc.shutdown();
}

/// Runs one deposit and one balance query through the door, behind the
/// retry layer, on a one-shard service that crashes (or not) before
/// its `at_request`-th executed request. Then pipelines `Balance`
/// bursts into the shard's two-deep queue until some are shed, and
/// checks that the door's in-flight count is back to 0: neither the
/// reply the crash dropped nor a shed request holds a slot. Returns
/// the final ledger and how many times the shard was respawned.
fn deposit_through_the_door(crash: Option<CrashPoint>) -> (BankSnapshot, u64) {
    let svc = MaService::spawn_with_config(
        &mut StdRng::seed_from_u64(0xD00A),
        DecParams::fixture(2, 6),
        512,
        40,
        ServiceConfig {
            shards: 1,
            queue_depth: 2,
            crash,
            ..ServiceConfig::default()
        },
    );
    // Executed requests 1-3: the JO account, the SP account, the
    // withdrawal.
    let (account, spends) = mint_deposit_batches(&svc, 0xD00B, 1)
        .expect("mint")
        .remove(0);
    // Executed request 4: the gate's revenue account.
    let config = TcpConfig {
        admission: open_door(true),
        ..TcpConfig::default()
    };
    let door = TcpFrontDoor::spawn(&svc, "127.0.0.1:0", config).expect("front door");
    let tcp = Arc::new(TcpTransport::new(TcpClientConfig::new(door.addr())));
    let retrying = RetryingTransport::new(tcp, RetryPolicy::aggressive(0xD00C), svc.faults.clone());
    let client = MaClient::new(Arc::new(retrying), Party::Sp);
    // Executed requests 5 and 6.
    let resp = client
        .try_call(MaRequest::DepositBatch { account, spends })
        .expect("the deposit converges");
    assert!(
        matches!(resp, MaResponse::BatchDeposited { rejected: 0, .. }),
        "{resp:?}"
    );
    let resp = client
        .try_call(MaRequest::Balance { account })
        .expect("balance");
    let MaResponse::Balance(balance) = resp else {
        panic!("{resp:?}");
    };
    assert!(balance > 0);

    let (mut conn, token) = admitted_conn(door.addr());
    let mut shed = 0;
    for round in 0.. {
        assert!(
            round < 50,
            "32-request bursts never overflowed a 2-deep queue"
        );
        let mut ids: Vec<u64> = (0..32)
            .map(|_| send_balance(&mut conn, token, account))
            .collect();
        while !ids.is_empty() {
            let (id, resp) = next_reply(&mut conn);
            ids.retain(|&sent| sent != id);
            match resp {
                GateResponse::App(MaResponse::Busy) => shed += 1,
                GateResponse::App(MaResponse::Balance(b)) => assert_eq!(b, balance),
                other => panic!("unexpected burst reply: {other:?}"),
            }
        }
        if shed > 0 {
            break;
        }
    }
    assert_eq!(
        health_inflight(door.addr()),
        0,
        "a pending slot leaked ({shed} requests shed)"
    );
    let ledger = svc.bank.snapshot();
    let respawns = svc.faults.shard_respawns();
    drop(door);
    svc.shutdown();
    (ledger, respawns)
}

#[test]
fn a_reply_dropped_by_a_crashed_shard_wakes_the_door() {
    // The shard dies holding the deposit and drops its reply unsent.
    // Only that drop wakes the blocked reactor, which answers the
    // client with a retryable hang-up; the retry respawns the shard.
    // Well inside the client's 30 s reply timeout, so a missing wake
    // trips the watchdog before any retry could mask it. Each run ends
    // with shed bursts and checks that no pending slot leaked.
    let _guard = watchdog("a deposit whose shard crashed", Duration::from_secs(20));
    let (expected, respawns) = deposit_through_the_door(None);
    assert_eq!(respawns, 0);
    let (ledger, respawns) = deposit_through_the_door(Some(CrashPoint {
        shard: 0,
        at_request: 5,
        phase: CrashPhase::BeforeExecute,
    }));
    assert_eq!(respawns, 1, "the crash must fire on the door's deposit");
    assert_eq!(ledger, expected, "the crash changed the ledger");
}

#[test]
fn no_wake_is_lost_while_the_reactor_parks_and_unparks() {
    // Clients pipeline bursts in lockstep rounds with a pause between
    // them, so the reactor parks and unparks hundreds of times while
    // shard replies race its parking. The barrier means no client's
    // next burst can rescue another's reply whose wake was lost: that
    // round never ends, and the watchdog fires.
    const CLIENTS: usize = 4;
    const ROUNDS: usize = 300;
    let _guard = watchdog(
        "pipelined rounds racing the reactor's parking",
        Duration::from_secs(60),
    );
    let svc = spawn_service(0xD00D, 2, 64);
    let config = TcpConfig {
        admission: open_door(true),
        ..TcpConfig::default()
    };
    let door = TcpFrontDoor::spawn(&svc, "127.0.0.1:0", config).expect("front door");
    let account = funded_account(&svc, 0xD00E, 4242);
    let before = svc.obs.snapshot();
    let barrier = Barrier::new(CLIENTS);
    std::thread::scope(|s| {
        for client in 0..CLIENTS {
            let (addr, barrier) = (door.addr(), &barrier);
            s.spawn(move || {
                let (mut conn, token) = admitted_conn(addr);
                let mut rng = StdRng::seed_from_u64(0xD00F + client as u64);
                for _ in 0..ROUNDS {
                    let burst = rng.random_range(1..=6usize);
                    let mut ids: Vec<u64> = (0..burst)
                        .map(|_| send_balance(&mut conn, token, account))
                        .collect();
                    while !ids.is_empty() {
                        let (id, resp) = next_reply(&mut conn);
                        ids.retain(|&sent| sent != id);
                        assert!(
                            matches!(resp, GateResponse::App(MaResponse::Balance(4242))),
                            "{resp:?}"
                        );
                    }
                    barrier.wait();
                    std::thread::sleep(Duration::from_micros(rng.random_range(0..300)));
                }
            });
        }
    });
    let after = svc.obs.snapshot();
    let parks = after.counter("tcp.idle_waits") - before.counter("tcp.idle_waits");
    let writes = after.counter("tcp.wake_writes") - before.counter("tcp.wake_writes");
    assert!(
        parks >= ROUNDS as u64 / 2,
        "the reactor parked only {parks} times"
    );
    assert!(writes > 0, "no reply ever woke the parked reactor");
    assert_eq!(health_inflight(door.addr()), 0);
    drop(door);
    svc.shutdown();
}

#[test]
fn a_saturated_door_still_accepts() {
    // One client keeps a full window of 32 requests in flight, so the
    // reactor always has work and never parks. A door that accepted
    // only when `poll` reported its listener would never see a second
    // client dial.
    const WINDOW: usize = 32;
    let _guard = watchdog("a dial into a saturated door", Duration::from_secs(60));
    let svc = spawn_service(0xD010, 2, 64);
    let config = TcpConfig {
        admission: open_door(true),
        max_inflight_per_conn: WINDOW,
        ..TcpConfig::default()
    };
    let door = TcpFrontDoor::spawn(&svc, "127.0.0.1:0", config).expect("front door");
    let account = funded_account(&svc, 0xD011, 777);
    let stop = AtomicBool::new(false);
    let answered = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let (addr, stop, answered) = (door.addr(), &stop, &answered);
        let pump = s.spawn(move || {
            let (mut conn, token) = admitted_conn(addr);
            let mut inflight = 0;
            while inflight > 0 || !stop.load(Ordering::SeqCst) {
                while inflight < WINDOW && !stop.load(Ordering::SeqCst) {
                    send_balance(&mut conn, token, account);
                    inflight += 1;
                }
                let (_, resp) = next_reply(&mut conn);
                assert!(
                    matches!(resp, GateResponse::App(MaResponse::Balance(777))),
                    "the window must never be shed: {resp:?}"
                );
                inflight -= 1;
                answered.fetch_add(1, Ordering::SeqCst);
            }
        });
        // Long enough for the reactor to park and be woken thousands of
        // times between replies: a lost wake stalls the window here.
        while answered.load(Ordering::SeqCst) < 20_000 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let dialed = Instant::now();
        let fresh = MaClient::new(
            Arc::new(TcpTransport::new(TcpClientConfig::new(addr))),
            Party::Sp,
        );
        let resp = fresh.try_call(MaRequest::Balance { account });
        let waited = dialed.elapsed();
        stop.store(true, Ordering::SeqCst);
        pump.join().expect("the saturating client");
        assert!(
            matches!(resp, Ok(MaResponse::Balance(777))),
            "the second client: {resp:?}"
        );
        assert!(
            waited < Duration::from_secs(10),
            "admitted and answered after {waited:?}"
        );
    });
    assert_eq!(door.obs_snapshot().counter("tcp.accepted"), 2);
    drop(door);
    svc.shutdown();
}

#[test]
fn health_reports_a_shard_stopped_by_a_journal_that_no_longer_replays() {
    // One shard; its fourth executed request (after the door's revenue
    // account and two payments) hits the crash point, and the restart
    // finds the journal rotten.
    let storage = SimStorage::new();
    let mut rng = StdRng::seed_from_u64(0xD00D);
    let svc = MaService::spawn_durable(
        &mut rng,
        DecParams::fixture(2, 6),
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
        DurabilityConfig::new(Arc::new(storage.clone())),
    )
    .expect("durable spawn");
    let door = TcpFrontDoor::spawn(&svc, "127.0.0.1:0", TcpConfig::default()).expect("front door");
    let ops = TcpTransport::new(TcpClientConfig::new(door.addr()));
    let health = ops.ops(OpsRequest::Health).expect("health");
    assert!(
        health.contains("\"status\":\"ok\"") && health.contains("\"shards_stopped\":0"),
        "{health}"
    );
    let client = svc.client();
    for i in 0..2u8 {
        let resp = client.call(MaRequest::SubmitPayment {
            sp_pubkey: vec![i; 8],
            ciphertext: vec![i],
        });
        assert!(matches!(resp, MaResponse::Ok), "{resp:?}");
    }
    let segment = storage
        .list()
        .expect("list")
        .into_iter()
        .find(|name| name.starts_with("wal-") && name.ends_with(".seg"))
        .expect("a segment");
    // Past the 16-byte segment header and the first frame's length word.
    storage.flip_bit(&segment, 16 + 4 + 8, 0x01);
    assert!(client.try_call(MaRequest::RegisterSpAccount).is_err());

    // The shard stops after the crash dump; health must say so.
    let deadline = Instant::now() + Duration::from_secs(10);
    let health = loop {
        let health = ops.ops(OpsRequest::Health).expect("health");
        if !health.contains("\"status\":\"ok\"") || Instant::now() > deadline {
            break health;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(
        health.contains("\"status\":\"degraded\"") && health.contains("\"shards_stopped\":1"),
        "a stopped shard refuses every request, yet health reads: {health}"
    );
    let resp = client.try_call(MaRequest::RegisterSpAccount);
    assert!(matches!(resp, Err(MarketError::Transport(_))), "{resp:?}");
    drop(door);
    svc.shutdown();
}

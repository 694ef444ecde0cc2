//! The TCP front door's security and overload policies, exercised
//! over real loopback sockets: unadmitted connections never reach a
//! shard handler, admission is paid in the market's own e-cash (and a
//! double-spent admission coin is refused), slow clients are evicted
//! when their outbound buffer fills instead of growing it without
//! bound, and overload is shed with `Busy` instead of queuing
//! unboundedly. Every policy decision is asserted through the obs
//! counters the reactor records (`tcp.*`, `gate.*`).

use ppms_core::gate::{AdmissionConfig, OpsRequest};
use ppms_core::service::{MaClient, MaRequest, MaResponse, MaService, ServiceConfig};
use ppms_core::sim::{mint_admission_spends, mint_deposit_batches};
use ppms_core::{
    next_request_id, next_trace_id, DurabilityConfig, Envelope, FramedConn, GateRequest,
    GateResponse, MarketError, Party, SimStorage, TcpByteStream, TcpClientConfig, TcpConfig,
    TcpFrontDoor, TcpTransport,
};
use ppms_ecash::DecParams;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
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
    // Shutdown is refused outright — network peers cannot stop the
    // market even if they had a token.
    assert!(matches!(
        ask(
            &mut conn,
            Party::Sp,
            &GateRequest::App {
                token: 0xDEAD_BEEF,
                request: MaRequest::Shutdown,
            },
        ),
        GateResponse::Denied { .. }
    ));

    // Not one of those frames reached the dispatcher: the dedup
    // counters (incremented once per request entering the service)
    // are untouched.
    let after = svc.obs.snapshot();
    assert_eq!(
        before.counter("ma.dedup.misses"),
        after.counter("ma.dedup.misses"),
        "an unadmitted request entered the service"
    );
    assert_eq!(
        before.counter("ma.dedup.hits"),
        after.counter("ma.dedup.hits")
    );
    assert!(after.counter("gate.challenges") >= 2);

    drop(door);
    svc.shutdown();
}

/// A frame at a retired wire version (v3: trace id but no span ids),
/// built by hand from a current frame so its length prefix and FNV
/// trailer are honest — only the version is wrong.
fn v3_frame(party: Party, msg_id: u64, payload: &GateRequest) -> Vec<u8> {
    let v4 = gate_frame(party, msg_id, payload);
    // v4 body: msg_id, correlation_id, trace_id, span_id, parent_id
    // (8 bytes each), party, payload. v3 omits span_id and parent_id.
    let v4_body = &v4[6..v4.len() - 8];
    let mut body = v4_body[..24].to_vec();
    body.extend_from_slice(&v4_body[40..]);
    let mut frame = 3u16.to_be_bytes().to_vec();
    frame.extend_from_slice(&(body.len() as u32).to_be_bytes());
    frame.extend_from_slice(&body);
    frame.extend_from_slice(&ppms_core::wire::fnv1a(&body).to_be_bytes());
    frame
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
    let mut raw = TcpStream::connect(door.addr()).expect("loopback connect");
    raw.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    raw.write_all(&v3_frame(Party::Sp, next_request_id(), &GateRequest::Hello))
        .expect("send v3 frame");
    let mut reply = Vec::new();
    match raw.read_to_end(&mut reply) {
        Ok(_) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        Err(e) => panic!("the door must close a v3 connection, not leave it open: {e}"),
    }
    assert!(reply.is_empty(), "a v3 frame was answered: {reply:?}");
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
    // The inbox overflow must come back as Busy — immediately, not
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
    // The door routes requests straight into the shard queues, past
    // the dispatcher's `deliver`; the checkpoint schedule must still
    // see the log grow and take its snapshot. The client keeps
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

    // Served entirely in-reactor: not one ops query entered the
    // service's dispatcher, let alone a shard.
    let after = svc.obs.snapshot();
    assert_eq!(
        before.counter("ma.dedup.misses"),
        after.counter("ma.dedup.misses"),
        "an ops query reached the service"
    );
    assert_eq!(
        before.counter("ma.dedup.hits"),
        after.counter("ma.dedup.hits")
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

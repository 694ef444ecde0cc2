//! Trace-context propagation end-to-end: a trace id minted at the
//! client rides the wire envelope, survives retransmission (same id on
//! every attempt of one logical request), reaches the serving shard's
//! spans in the process-global ring, and — when a shard worker dies —
//! appears in the crash-dump JSON, tying the dump to the request that
//! was in flight.

use ppms_core::gate::AdmissionConfig;
use ppms_core::service::{MaClient, MaRequest, MaResponse, MaService, ServiceConfig};
use ppms_core::sim::mint_deposit_batches;
use ppms_core::{
    next_request_id, CrashPhase, CrashPoint, DurabilityConfig, FaultPlan, Party, RetryPolicy,
    RetryingTransport, SimNetConfig, SimStorage, TcpClientConfig, TcpConfig, TcpFrontDoor,
    TcpTransport, Transport,
};
use ppms_ecash::DecParams;
use ppms_obs::SpanContext;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn crash_dump_carries_the_crashing_requests_trace_id() {
    let mut rng = StdRng::seed_from_u64(0x7A3E);
    let svc = MaService::spawn_with_config(
        &mut rng,
        DecParams::fixture(2, 6),
        512,
        40,
        ServiceConfig {
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

    // Request #2 hits the injected crash point under a caller-chosen
    // trace id; the retry reuses both the idempotency key *and* the
    // trace, so the whole logical operation is one trace.
    const TRACE: u64 = 0xFEED_F00D_0000_0042;
    let id = next_request_id();
    let req = MaRequest::LaborRegister {
        job_id: job,
        sp_pubkey: vec![9],
    };
    assert!(
        client
            .try_call_spanned(id, SpanContext::from_trace(TRACE), req.clone())
            .is_err(),
        "crash must surface as a transport error"
    );
    let retry = client
        .try_call_spanned(id, SpanContext::from_trace(TRACE), req)
        .expect("retry after respawn");
    assert!(matches!(retry, MaResponse::Ok), "{retry:?}");

    // The dump written by the dying worker names the crashing trace.
    let dumps = svc.crash_dumps();
    assert_eq!(dumps.len(), 1, "exactly one worker died");
    let body = std::fs::read_to_string(&dumps[0]).expect("dump file readable");
    assert!(body.contains("\"reason\": \"injected-crash\""), "{body}");
    assert!(
        body.contains(&format!("{TRACE:#018x}")),
        "dump must carry the crashing request's trace id: {body}"
    );

    // The span ring shows the same trace on the crashing attempt and
    // the successful retry, and the retry's journal commit under it.
    let events = ppms_obs::trace_events(TRACE);
    let count = |name: &str| events.iter().filter(|e| e.name == name).count();
    assert!(
        count("shard.handle") >= 2,
        "the crashing attempt and the retry both run under the trace: {events:?}"
    );
    assert!(
        count("wal.append") >= 1,
        "the retry must commit under the original trace: {events:?}"
    );
    svc.shutdown();
}

#[test]
fn one_trace_survives_lossy_retransmission() {
    let mut rng = StdRng::seed_from_u64(0x7A3F);
    let svc = MaService::spawn_with_config(
        &mut rng,
        DecParams::fixture(2, 6),
        512,
        40,
        ServiceConfig {
            shards: 2,
            ..ServiceConfig::default()
        },
    );
    let plan = FaultPlan {
        net: SimNetConfig {
            latency_micros: 0,
            jitter_micros: 0,
            drop_rate: 0.30,
            seed: 0x51F7,
        },
        duplicate_rate: 0.10,
        reorder_rate: 0.0,
        corrupt_rate: 0.10,
    };
    let client = svc.retrying_client(Party::Sp, plan, RetryPolicy::aggressive(0x51F7));

    let mut traces = Vec::new();
    for i in 0..12u64 {
        let trace = 0x7000_0000_0000_0000 | i;
        let resp = client
            .try_call_spanned(
                next_request_id(),
                SpanContext::from_trace(trace),
                MaRequest::RegisterSpAccount,
            )
            .expect("retry layer converges under loss");
        assert!(matches!(resp, MaResponse::Account(_)), "{resp:?}");
        traces.push(trace);
    }

    let faults = svc.faults.snapshot();
    assert!(faults.retries > 0, "loss must have forced retransmissions");

    // Every committed operation kept its caller-minted trace across
    // the wire, the faults, and whichever shard served it…
    let events = ppms_obs::span_events();
    for trace in &traces {
        assert!(
            events
                .iter()
                .any(|e| e.trace_id == *trace && e.name == "wal.append"),
            "trace {trace:#x} never committed at a shard"
        );
    }
    // …and every dedup replay (an executed-but-unacked retransmit) was
    // served under one of those same traces, not a fresh one: the
    // ring's replay spans under our traces account for every replay
    // this service counted. (The ring is process-global; a replay
    // under any other trace would fall short of the count.)
    let replays = events
        .iter()
        .filter(|e| e.name == "shard.dedup_replay" && traces.contains(&e.trace_id))
        .count() as u64;
    assert_eq!(
        replays, faults.dedup_replays,
        "replayed retransmits must carry their request's trace"
    );
    svc.shutdown();
}

/// One decoded `(name, span_id, parent_id)` triple per exported
/// trace-event line. The exporter's format is fixed (hand-rolled JSON
/// in `ppms-obs`), so positional parsing is stable.
fn parse_jsonl(jsonl: &str) -> Vec<(String, u64, u64)> {
    fn field_u64(line: &str, key: &str) -> u64 {
        let at = line.find(key).unwrap_or_else(|| panic!("{key} in {line}")) + key.len();
        line[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .expect("numeric field")
    }
    jsonl
        .lines()
        .map(|line| {
            let at = line.find("\"name\":\"").expect("name field") + 8;
            let name = line[at..]
                .split('"')
                .next()
                .expect("name value")
                .to_string();
            (
                name,
                field_u64(line, "\"span_id\":"),
                field_u64(line, "\"parent_id\":"),
            )
        })
        .collect()
}

/// The PR's acceptance trace: one retried PPMSdec deposit, driven
/// through the retry layer and the TCP front door into a durable
/// (fsync-per-append) shard, exports as a single JSONL trace whose
/// causal tree runs client span → ≥2 retry attempts → reactor
/// read/reply → gate → shard handler → WAL append → fsync. The first
/// attempt dies because the reactor itself panics on the trace (the
/// chaos hook), which also proves the reactor's dump-and-resume path.
#[test]
fn exported_jsonl_trace_shows_the_causal_tree_of_a_retried_deposit() {
    const TRACE: u64 = 0x7C0F_FEE0_0000_0001;
    let mut rng = StdRng::seed_from_u64(0x7A40);
    let svc = MaService::spawn_durable(
        &mut rng,
        DecParams::fixture(2, 6),
        512,
        40,
        ServiceConfig::default(),
        DurabilityConfig::new(Arc::new(SimStorage::new())), // SyncPolicy::Always
    )
    .expect("durable spawn");
    let door = TcpFrontDoor::spawn(
        &svc,
        "127.0.0.1:0",
        TcpConfig {
            admission: AdmissionConfig {
                price: 0,
                requests_per_token: u64::MAX,
                ..AdmissionConfig::default()
            },
            chaos_panic_on_trace: Some(TRACE),
            ..TcpConfig::default()
        },
    )
    .expect("front door");

    let (account, spends) = mint_deposit_batches(&svc, 0xD3E9, 1)
        .expect("mint deposit batch")
        .remove(0);

    let mut ccfg = TcpClientConfig::new(door.addr());
    // The panicked-over frame never gets a reply; a short deadline
    // turns that silence into the transport error the retry layer eats.
    ccfg.reply_timeout = Duration::from_millis(200);
    let tcp: Arc<dyn Transport> = Arc::new(TcpTransport::new(ccfg));
    let retrying = RetryingTransport::new(tcp, RetryPolicy::aggressive(0x7A40), svc.faults.clone());
    let client = MaClient::new(Arc::new(retrying), Party::Sp);

    let root = ppms_obs::Span::root("client.deposit", TRACE);
    let resp = client
        .try_call_spanned(
            next_request_id(),
            root.ctx(),
            MaRequest::DepositBatch { account, spends },
        )
        .expect("retry converges after the reactor panic");
    assert!(
        matches!(resp, MaResponse::BatchDeposited { rejected: 0, .. }),
        "{resp:?}"
    );
    drop(root);

    // The reactor died once, dumped (spans included), and resumed.
    let dumps = door.crash_dumps();
    assert_eq!(dumps.len(), 1, "exactly one reactor panic: {dumps:?}");
    let body = std::fs::read_to_string(&dumps[0]).expect("dump readable");
    assert!(body.contains("\"reason\": \"tcp-reactor-panic\""), "{body}");
    assert!(body.contains("\"spans\""), "dump must embed the span ring");
    assert!(
        body.contains(&format!("{TRACE:#018x}")),
        "dump names the chaos trace"
    );

    // One exported trace carries the whole causal tree.
    let jsonl = ppms_obs::export_trace_jsonl(TRACE);
    let spans = parse_jsonl(&jsonl);
    let by_id: std::collections::HashMap<u64, (&str, u64)> = spans
        .iter()
        .map(|(n, id, parent)| (*id, (n.as_str(), *parent)))
        .collect();
    let ids_of = |name: &str| -> Vec<(u64, u64)> {
        spans
            .iter()
            .filter(|(n, _, _)| n == name)
            .map(|(_, id, parent)| (*id, *parent))
            .collect()
    };

    let roots = ids_of("client.deposit");
    assert_eq!(roots.len(), 1, "{jsonl}");
    let (root_id, root_parent) = roots[0];
    assert_eq!(root_parent, 0, "the client span is the trace root");

    let attempts = ids_of("retry.attempt");
    assert!(
        attempts.len() >= 2,
        "a retried deposit needs >=2 attempt spans: {jsonl}"
    );
    assert!(
        attempts.iter().all(|(_, parent)| *parent == root_id),
        "every attempt is a child of the client span"
    );

    // The gate checked the (admitted) connection on the app frame, and
    // the reply rode back under the caller's context.
    assert!(!ids_of("gate.check").is_empty(), "{jsonl}");
    let replies = ids_of("tcp.reply");
    assert!(
        replies
            .iter()
            .any(|(_, parent)| attempts.iter().any(|(id, _)| id == parent)),
        "the reply span parents to the surviving attempt: {jsonl}"
    );

    // Deepest rung first: walk parent links from the fsync up to the
    // root and require the exact acceptance chain.
    let (fsync_id, _) = *ids_of("storage.fsync")
        .first()
        .expect("fsync span exported");
    let mut chain = Vec::new();
    let mut cursor = fsync_id;
    while cursor != 0 {
        let (name, parent) = by_id[&cursor];
        chain.push(name);
        cursor = parent;
    }
    assert_eq!(
        chain,
        vec![
            "storage.fsync",
            "wal.append",
            "shard.handle",
            "tcp.read",
            "retry.attempt",
            "client.deposit",
        ],
        "causal chain from the durable write back to the client: {jsonl}"
    );

    drop(door);
    svc.shutdown();
}

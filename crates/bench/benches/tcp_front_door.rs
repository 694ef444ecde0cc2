//! TCP front door: loopback throughput/latency through the reactor
//! and the admission gate, plus the Table-II-style framing overhead
//! of the socket path measured against the simnet wire. Emits
//! `BENCH_tcp.json` at the repo root (EXPERIMENTS.md A13).
//!
//! ```text
//! cargo bench -p ppms-bench --bench tcp_front_door
//! cargo bench -p ppms-bench --bench tcp_front_door -- --test # CI smoke
//! ```
//!
//! The smoke run does the same work but writes its JSON under
//! `target/bench-smoke/`, so it never overwrites the committed file.

use ppms_bench::artifact_path;
use ppms_core::gate::AdmissionConfig;
use ppms_core::service::{MaClient, MaRequest, MaResponse, MaService, ServiceConfig};
use ppms_core::sim::{run_service_market_traffic, TcpEquivConfig, TransportKind};
use ppms_core::{
    Party, SimNetConfig, TcpClientConfig, TcpConfig, TcpFrontDoor, TcpTransport, TrafficLog,
};
use ppms_ecash::DecParams;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

const SEED: u64 = 0xE0;
const SHARDS: usize = 2;
const N_SPS: usize = 3;
const W: u64 = 3;
const CLIENTS: usize = 2;
const REQUESTS_PER_CLIENT: usize = 500;

struct Table2Row {
    transport: &'static str,
    jo_out: usize,
    sp_out: usize,
    ma_out: usize,
    total: usize,
    frames: usize,
    gate_frames: usize,
    gate_bytes: usize,
}

fn table2_row(transport: &'static str, traffic: &TrafficLog) -> Table2Row {
    let (gate_frames, gate_bytes) = traffic
        .snapshot()
        .iter()
        .filter(|e| e.label.starts_with("gate-") || e.label == "busy")
        .fold((0usize, 0usize), |(n, b), e| (n + 1, b + e.bytes));
    Table2Row {
        transport,
        jo_out: traffic.output_bytes(Party::Jo),
        sp_out: traffic.output_bytes(Party::Sp),
        ma_out: traffic.output_bytes(Party::Ma),
        total: traffic.total_bytes(),
        frames: traffic.message_count(),
        gate_frames,
        gate_bytes,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    // ---- loopback throughput/latency through the open door ----
    let mut rng = StdRng::seed_from_u64(SEED);
    let svc = MaService::spawn_with_config(
        &mut rng,
        DecParams::fixture(2, 6),
        512,
        40,
        ServiceConfig {
            shards: SHARDS,
            ..ServiceConfig::default()
        },
    );
    // Price 0 isolates transport cost from admission cost; the
    // admission protocol itself (Hello/Admitted) still runs.
    let config = TcpConfig {
        admission: AdmissionConfig {
            price: 0,
            requests_per_token: u64::MAX,
            ..AdmissionConfig::default()
        },
        ..TcpConfig::default()
    };
    let door = TcpFrontDoor::spawn(&svc, "127.0.0.1:0", config).expect("front door");
    let addr = door.addr();

    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(move || {
                let client = MaClient::new(
                    Arc::new(TcpTransport::new(TcpClientConfig::new(addr))),
                    Party::Sp,
                );
                let account = match client.call(MaRequest::RegisterSpAccount) {
                    MaResponse::Account(a) => a,
                    other => panic!("account: {other:?}"),
                };
                for _ in 0..REQUESTS_PER_CLIENT {
                    match client.call(MaRequest::Balance { account }) {
                        MaResponse::Balance(_) => {}
                        other => panic!("balance: {other:?}"),
                    }
                }
            });
        }
    });
    let elapsed = t0.elapsed();
    let total_requests = CLIENTS * (REQUESTS_PER_CLIENT + 1);
    let rps = total_requests as f64 / elapsed.as_secs_f64();

    let snap = door.obs_snapshot();
    let hist = snap
        .histogram("tcp.request_ns")
        .expect("request histogram populated");
    let (p50_ns, p99_ns, served) = (hist.p50(), hist.p99(), hist.count);
    println!("tcp front door loopback: {CLIENTS} clients x {REQUESTS_PER_CLIENT} requests");
    println!(
        "  {rps:.0} req/s, service-side p50 {:.1}us p99 {:.1}us over {served} served",
        p50_ns as f64 / 1e3,
        p99_ns as f64 / 1e3
    );
    drop(door);
    svc.shutdown();

    // ---- Table II: framing overhead of the socket path ----
    let (simnet_outcome, simnet_traffic) = run_service_market_traffic(
        SEED,
        SHARDS,
        N_SPS,
        W,
        TransportKind::SimNet(SimNetConfig::default()),
    )
    .expect("simnet market");
    let (tcp_outcome, tcp_traffic) = run_service_market_traffic(
        SEED,
        SHARDS,
        N_SPS,
        W,
        TransportKind::Tcp(TcpEquivConfig::default()),
    )
    .expect("tcp market");
    assert_eq!(
        simnet_outcome, tcp_outcome,
        "socket path must not change the ledger"
    );

    let rows = [
        table2_row("simnet", &simnet_traffic),
        table2_row("tcp", &tcp_traffic),
    ];
    println!("table II ({N_SPS} SPs, w={W}), bytes on the wire:");
    println!(
        "  {:>8} {:>9} {:>9} {:>9} {:>9} {:>7} {:>11}",
        "", "jo-out", "sp-out", "ma-out", "total", "frames", "gate-bytes"
    );
    for r in &rows {
        println!(
            "  {:>8} {:>9} {:>9} {:>9} {:>9} {:>7} {:>11}",
            r.transport, r.jo_out, r.sp_out, r.ma_out, r.total, r.frames, r.gate_bytes
        );
    }
    let overhead = (rows[1].total as f64 - rows[0].total as f64) / rows[0].total as f64 * 100.0;
    println!("  tcp adds {overhead:.1}% bytes (admission handshakes + gate framing)");

    // Hand-rolled JSON (the workspace's serde_json is a build stub).
    let table_cells: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"transport\": \"{}\", \"jo_out\": {}, \"sp_out\": {}, \"ma_out\": {}, \
                 \"total\": {}, \"frames\": {}, \"gate_frames\": {}, \"gate_bytes\": {}}}",
                r.transport,
                r.jo_out,
                r.sp_out,
                r.ma_out,
                r.total,
                r.frames,
                r.gate_frames,
                r.gate_bytes
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"smoke\": {smoke},\n  \"loopback\": {{\"clients\": {CLIENTS}, \"requests\": {total_requests}, \
         \"requests_per_sec\": {rps:.1}, \"p50_ns\": {p50_ns}, \"p99_ns\": {p99_ns}, \
         \"served\": {served}}},\n  \"table2\": [\n{}\n  ],\n  \
         \"tcp_overhead_pct\": {overhead:.2}\n}}\n",
        table_cells.join(",\n")
    );
    let path = artifact_path("BENCH_tcp.json", smoke);
    match std::fs::write(&path, json) {
        Ok(()) => println!("  [json -> {}]", path.display()),
        Err(e) => eprintln!("  [json write failed: {e}]"),
    }

    // Correctness gates (the `-- --test` smoke relies on these).
    assert!(rps > 0.0);
    assert!(p99_ns >= p50_ns);
    assert!(served as usize >= total_requests, "every request timed");
    assert!(
        rows[1].total > rows[0].total,
        "the socket path must account its gate frames"
    );
    assert!(rows[1].gate_frames > 0 && rows[0].gate_frames == 0);
}

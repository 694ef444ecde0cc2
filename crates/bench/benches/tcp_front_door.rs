//! TCP front door: the Table-II-style framing overhead of the socket
//! path measured against the simnet wire, on the same seeded service
//! market, whose ledger must not change. Emits `BENCH_tcp.json` at the
//! repo root (EXPERIMENTS.md A13). The door's latency and throughput
//! are timed by perfbench (`perfbench/`, workload `reads`).
//!
//! ```text
//! cargo bench -p ppms-bench --bench tcp_front_door
//! cargo bench -p ppms-bench --bench tcp_front_door -- --test # CI smoke
//! ```
//!
//! The smoke run does the same work but writes its JSON under
//! `target/bench-smoke/`, so it never overwrites the committed file.

use ppms_bench::write_artifact;
use ppms_core::sim::{run_service_market_traffic, TcpEquivConfig, TransportKind};
use ppms_core::{Party, SimNetConfig, TrafficLog};

const SEED: u64 = 0xE0;
const SHARDS: usize = 2;
const N_SPS: usize = 3;
const W: u64 = 3;

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
    let body = format!(
        "\"table2\": [\n{}\n  ],\n  \"tcp_overhead_pct\": {overhead:.2}",
        table_cells.join(",\n")
    );
    write_artifact("BENCH_tcp.json", smoke, &body);

    // Correctness gates (the `-- --test` smoke relies on these).
    assert!(
        rows[1].total > rows[0].total,
        "the socket path must account its gate frames"
    );
    assert!(rows[1].gate_frames > 0 && rows[0].gate_frames == 0);
}

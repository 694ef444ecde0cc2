//! Observability overhead: runs full PPMSdec and PPMSpbs rounds with
//! the `ppms-obs` layer recording (the default) and with it disabled
//! at runtime (`set_enabled(false)`), and reports the relative cost
//! of instrumentation. Emits `BENCH_obs.json` at the repo root
//! (EXPERIMENTS.md A10).
//!
//! ```text
//! cargo bench -p ppms-bench --bench obs_overhead
//! ```

use ppms_bench::cfg;
use ppms_core::sim::{run_dec_rounds, run_pbs_rounds};
use ppms_ecash::CashBreak;
use std::time::Instant;

const RUNS: usize = 15;
const ROUNDS: usize = 2;
const N_SPS: usize = 3;
const W: u64 = 5;

struct Row {
    mechanism: &'static str,
    on_ms: f64,
    off_ms: f64,
    overhead_pct: f64,
    spans: u64,
}

fn main() {
    let dec = |seed: u64| {
        run_dec_rounds(
            seed,
            ROUNDS,
            N_SPS,
            cfg::ZKP_ROUNDS,
            cfg::RSA_BITS,
            cfg::PAIRING_BITS,
            W,
            CashBreak::Pcba,
        )
        .expect("dec rounds")
    };
    let pbs = |seed: u64| run_pbs_rounds(seed, ROUNDS, cfg::RSA_BITS).expect("pbs rounds");

    // Warm both paths once (prime table, allocator, page cache).
    ppms_obs::set_enabled(true);
    dec(1);
    pbs(1);

    let mut rows: Vec<Row> = Vec::new();
    println!("obs overhead: median of {RUNS} paired runs, {ROUNDS} market rounds each");
    println!(
        "{:>8} {:>9} {:>9} {:>9} {:>9}",
        "mech", "on-ms", "off-ms", "ovh-%", "spans"
    );
    for (mechanism, run) in [
        (
            "PPMSdec",
            &mut (|s: u64| {
                let _ = dec(s);
            }) as &mut dyn FnMut(u64),
        ),
        ("PPMSpbs", &mut |s: u64| {
            let _ = pbs(s);
        }),
    ] {
        // Each run executes the *same seed* once per configuration,
        // alternating which goes first so neither systematically
        // inherits the warmer cache / CPU-frequency state. Overhead is
        // the median of the per-seed paired ratios: pairing cancels
        // the (large) seed-to-seed key-generation variance, and the
        // median discards runs the scheduler perturbed.
        let spans_before: u64 = sum_span_counts();
        let mut on_times = [0.0f64; RUNS];
        let mut off_times = [0.0f64; RUNS];
        for r in 0..RUNS {
            let seed = 100 + r as u64;
            let order = if r % 2 == 0 {
                [true, false]
            } else {
                [false, true]
            };
            for on in order {
                ppms_obs::set_enabled(on);
                let t0 = Instant::now();
                run(seed);
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                if on {
                    on_times[r] = ms;
                } else {
                    off_times[r] = ms;
                }
            }
        }
        ppms_obs::set_enabled(true);
        let spans = sum_span_counts() - spans_before;

        let on_ms = on_times.iter().sum::<f64>() / RUNS as f64;
        let off_ms = off_times.iter().sum::<f64>() / RUNS as f64;
        let mut per_seed: Vec<f64> = on_times
            .iter()
            .zip(&off_times)
            .map(|(on, off)| (on - off) / off * 100.0)
            .collect();
        per_seed.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let overhead_pct = per_seed[RUNS / 2];
        println!("{mechanism:>8} {on_ms:>9.2} {off_ms:>9.2} {overhead_pct:>9.2} {spans:>9}");
        assert!(spans > 0, "{mechanism}: instrumentation never fired");
        rows.push(Row {
            mechanism,
            on_ms,
            off_ms,
            overhead_pct,
            spans,
        });
    }

    // Hand-rolled JSON (the workspace's serde_json is a build stub).
    let cells: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "  {{\"mechanism\": \"{}\", \"enabled_ms\": {:.3}, \"disabled_ms\": {:.3}, \
                 \"overhead_pct\": {:.3}, \"spans_recorded\": {}}}",
                r.mechanism, r.on_ms, r.off_ms, r.overhead_pct, r.spans
            )
        })
        .collect();
    let json = format!("[\n{}\n]\n", cells.join(",\n"));
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let path = format!("{dir}/BENCH_obs.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("  [json -> BENCH_obs.json]"),
        Err(e) => eprintln!("  [json write failed: {e}]"),
    }

    // Acceptance: instrumented runs stay within 3% of the disabled
    // path. The spans live on millisecond-scale crypto operations, so
    // a clock read per span is lost in the noise floor.
    for r in &rows {
        assert!(
            r.overhead_pct < 3.0,
            "{}: observability overhead {:.2}% exceeds the 3% budget",
            r.mechanism,
            r.overhead_pct
        );
    }
}

/// Total number of span samples in the process-global registry —
/// proof the instrumentation actually recorded during the run.
fn sum_span_counts() -> u64 {
    ppms_obs::global()
        .snapshot()
        .histograms
        .values()
        .map(|h| h.count)
        .sum()
}

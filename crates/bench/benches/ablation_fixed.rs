//! Straus↔Pippenger crossover on the `FpMont` kernels: `multi_pow_n`
//! timed with each algorithm forced, at a 1024-bit modulus, for
//! full-width and 64-bit exponents over a range of base counts.
//! `pick_bucketed` in `ring.rs` is tuned from this table. Emits
//! `BENCH_fixed.json` at the repo root (EXPERIMENTS.md A12).
//!
//! ```text
//! cargo bench -p ppms-bench --bench ablation_fixed           # full run
//! cargo bench -p ppms-bench --bench ablation_fixed -- --test # CI smoke
//! ```
//!
//! The smoke mode runs one repetition of two sizes, checks that both
//! algorithms agree, and writes under `target/bench-smoke/`.

use ppms_bench::write_artifact;
use ppms_bigint::{random_bits, random_odd_bits, BigUint, ModRing};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() * 1e6 / reps as f64
}

struct XRow {
    n: usize,
    exp_bits: usize,
    straus_us: f64,
    pippenger_us: f64,
}

fn bench_crossover(xrows: &mut Vec<XRow>, exp_bits: usize, sizes: &[usize], reps: usize) {
    // 1024-bit modulus; exponent width selects the regime (full-width,
    // or the 64-bit small-exponent multipliers of batch verification).
    let mut rng = StdRng::seed_from_u64(0xF1D0C + exp_bits as u64);
    let m = random_odd_bits(&mut rng, 1024);
    let ring = ModRing::new(&m);
    println!("fixed-kernel crossover (1024-bit modulus, {exp_bits}-bit exponents):");
    for &n in sizes {
        let pairs: Vec<(BigUint, BigUint)> = (0..n)
            .map(|_| (random_bits(&mut rng, 1023), random_bits(&mut rng, exp_bits)))
            .collect();
        let refs: Vec<(&BigUint, &BigUint)> = pairs.iter().map(|(b, e)| (b, e)).collect();
        assert_eq!(
            ring.multi_pow_n_straus(&refs),
            ring.multi_pow_n_pippenger(&refs)
        );
        let straus_us = time_us(reps, || {
            std::hint::black_box(ring.multi_pow_n_straus(&refs));
        });
        let pippenger_us = time_us(reps, || {
            std::hint::black_box(ring.multi_pow_n_pippenger(&refs));
        });
        println!("  n={n:<4} straus {straus_us:>9.1}us  pippenger {pippenger_us:>9.1}us");
        xrows.push(XRow {
            n,
            exp_bits,
            straus_us,
            pippenger_us,
        });
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let xsizes: &[usize] = if smoke {
        &[4, 16]
    } else {
        &[16, 48, 96, 128, 192, 256]
    };
    let xreps = if smoke { 1 } else { 4 };

    let mut xrows = Vec::new();
    bench_crossover(&mut xrows, 1024, xsizes, xreps);
    bench_crossover(&mut xrows, 64, xsizes, xreps);

    // Hand-rolled JSON (the workspace's serde_json is a build stub).
    let x_cells: Vec<String> = xrows
        .iter()
        .map(|r| {
            format!(
                "    {{\"n\": {}, \"exp_bits\": {}, \"straus_us\": {:.2}, \"pippenger_us\": {:.2}}}",
                r.n, r.exp_bits, r.straus_us, r.pippenger_us
            )
        })
        .collect();
    let body = format!("\"fixed_crossover\": [\n{}\n  ]", x_cells.join(",\n"));
    write_artifact("BENCH_fixed.json", smoke, &body);
}

//! Batch-verification amortization: per-item cost of the combined
//! small-exponent batch checks against the sequential per-item path,
//! at batch sizes 1/4/16/64, for Schnorr proofs, RSA-FDH signatures
//! and full e-cash spend deposits, plus a Straus-vs-Pippenger
//! crossover table for the underlying multi-exponentiation kernel.
//! Emits `BENCH_batch.json` at the repo root (EXPERIMENTS.md A11); a
//! smoke run writes under `target/bench-smoke/` instead.
//!
//! ```text
//! cargo bench -p ppms-bench --bench batch_verify          # full run
//! cargo bench -p ppms-bench --bench batch_verify -- --test  # CI smoke
//! ```
//!
//! The smoke mode runs one repetition of the small sizes and checks
//! verdict correctness only; the full run also asserts the headline
//! amortization: ≥2× lower per-item cost at batch 64 for Schnorr
//! proofs at a deployment-grade 1024-bit group. The deposit rows run
//! on the toy fixture tower (66–78-bit groups), where fixed per-item
//! costs (hashing, screens) bound the gain — they are gated at "never
//! slower", and the schnorr rows show the regime the gain scales to.
//! The `rsa` rows time `rsa::batch_verify`, which verifies per item
//! (nothing beats that at e = 65537), gated at parity.

use ppms_bench::{artifact_path, cfg};
use ppms_bigint::{random_bits, random_odd_bits, BigUint, ModRing};
use ppms_crypto::group::SchnorrGroup;
use ppms_crypto::rsa;
use ppms_crypto::zkp::schnorr::{self, BatchItem, SchnorrProof};
use ppms_ecash::{verify_batch, DecBank, DecParams, NodePath, Spend};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const SIZES: [usize; 4] = [1, 4, 16, 64];
const MAX_N: usize = 64;

struct Row {
    scheme: &'static str,
    n: usize,
    seq_item_us: f64,
    batch_item_us: f64,
    speedup: f64,
}

fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() * 1e6 / reps as f64
}

fn push_row(
    rows: &mut Vec<Row>,
    scheme: &'static str,
    n: usize,
    seq_item_us: f64,
    batch_item_us: f64,
) {
    let speedup = seq_item_us / batch_item_us;
    println!("{scheme:>8} n={n:<3} seq/item {seq_item_us:>9.1}us  batch/item {batch_item_us:>9.1}us  speedup {speedup:>5.2}x");
    rows.push(Row {
        scheme,
        n,
        seq_item_us,
        batch_item_us,
        speedup,
    });
}

/// The 1024-bit MODP safe prime of RFC 2409 (Second Oakley Group):
/// a deployment-grade modulus where exponentiation dominates the
/// fixed per-item costs (hashing, membership screens) that batching
/// cannot remove. Embedded so the bench needs no safe-prime search.
const MODP_1024_HEX: &str = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1\
                             29024E088A67CC74020BBEA63B139B22514A08798E3404DD\
                             EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245\
                             E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED\
                             EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381\
                             FFFFFFFFFFFFFFFF";

fn modp_group() -> SchnorrGroup {
    let p = BigUint::parse_hex(MODP_1024_HEX).expect("RFC 2409 modulus");
    let q = &(&p - 1u64) >> 1usize;
    SchnorrGroup::from_safe_prime(&p, &q)
}

fn bench_schnorr(rows: &mut Vec<Row>, sizes: &[usize], reps: usize) {
    let mut rng = StdRng::seed_from_u64(0xBA7C1);
    let group = modp_group();
    let mut proofs = Vec::new();
    let mut ys = Vec::new();
    for _ in 0..MAX_N {
        let x = group.random_exponent(&mut rng);
        let y = group.g_exp(&x);
        let g = group.g.clone();
        proofs.push(SchnorrProof::prove(
            &mut rng, &group, &g, &y, &x, "bench", b"",
        ));
        ys.push(y);
    }
    let items: Vec<BatchItem> = proofs
        .iter()
        .zip(&ys)
        .map(|(proof, y)| BatchItem {
            proof,
            g: &group.g,
            y,
            domain: "bench",
            extra: b"",
        })
        .collect();
    for &n in sizes {
        let seq = time_us(reps, || {
            for item in &items[..n] {
                assert!(item.proof.verify(&group, item.g, item.y, "bench", b""));
            }
        }) / n as f64;
        let bat = time_us(reps, || {
            let got = schnorr::batch_verify(&mut rng, &group, &items[..n]);
            assert!(got.iter().all(|&ok| ok));
        }) / n as f64;
        push_row(rows, "schnorr", n, seq, bat);
    }
}

fn bench_rsa(rows: &mut Vec<Row>, sizes: &[usize], reps: usize) {
    let mut rng = StdRng::seed_from_u64(0xBA7C2);
    let key = rsa::keygen(&mut rng, cfg::RSA_BITS);
    let msgs: Vec<Vec<u8>> = (0..MAX_N).map(|i| vec![i as u8; 24]).collect();
    let sigs: Vec<BigUint> = msgs.iter().map(|m| rsa::sign(&key, m)).collect();
    let items: Vec<(&[u8], &BigUint)> = msgs
        .iter()
        .zip(&sigs)
        .map(|(m, s)| (m.as_slice(), s))
        .collect();
    for &n in sizes {
        let seq = time_us(reps, || {
            for (m, s) in &items[..n] {
                assert!(rsa::verify(&key.public, m, s));
            }
        }) / n as f64;
        // The batch entry point verifies per item, so this row must
        // sit at ~1x.
        let bat = time_us(reps, || {
            let got = rsa::batch_verify(&key.public, &items[..n]);
            assert!(got.iter().all(|&ok| ok));
        }) / n as f64;
        push_row(rows, "rsa", n, seq, bat);
    }
}

fn bench_deposit(rows: &mut Vec<Row>, sizes: &[usize], reps: usize) {
    // The MA's phase-8 hot path: full spend verification. Spends come
    // from several coins (a realistic mixed deposit batch); all claims
    // still share the tower's group slots.
    let mut rng = StdRng::seed_from_u64(0xBA7C3);
    let params = DecParams::fixture(2, cfg::ZKP_ROUNDS);
    let bank = DecBank::new(&mut rng, params.clone(), cfg::RSA_BITS);
    let mut spends: Vec<Spend> = Vec::with_capacity(MAX_N);
    while spends.len() < MAX_N {
        let coin = bank.withdraw_coin(&mut rng);
        for leaf in 0..4u64 {
            spends.push(coin.spend(&mut rng, &params, &NodePath::from_index(2, leaf), b"rcv"));
        }
    }
    for &n in sizes {
        let seq = time_us(reps, || {
            for s in &spends[..n] {
                assert!(s.verify(&params, bank.public_key(), b"rcv").is_ok());
            }
        }) / n as f64;
        let bat = time_us(reps, || {
            let got = verify_batch(&mut rng, &params, bank.public_key(), b"rcv", &spends[..n]);
            assert!(got.iter().all(|r| r.is_ok()));
        }) / n as f64;
        push_row(rows, "deposit", n, seq, bat);
    }
}

struct XRow {
    n: usize,
    straus_us: f64,
    pippenger_us: f64,
}

fn bench_crossover(reps: usize) -> Vec<XRow> {
    // Full-width exponents at a 512-bit odd modulus — the combined
    // check's left-hand shape. PIPPENGER_CROSSOVER in ring.rs is
    // chosen from this table.
    let mut rng = StdRng::seed_from_u64(0xBA7C4);
    let m = random_odd_bits(&mut rng, 512);
    let ring = ModRing::new(&m);
    let mut out = Vec::new();
    println!("multi-exp crossover (512-bit modulus, full-width exponents):");
    for n in [4usize, 8, 16, 32, 64, 128] {
        let pairs: Vec<(BigUint, BigUint)> = (0..n)
            .map(|_| (random_bits(&mut rng, 511), random_bits(&mut rng, 512)))
            .collect();
        let refs: Vec<(&BigUint, &BigUint)> = pairs.iter().map(|(b, e)| (b, e)).collect();
        let straus_us = time_us(reps, || {
            std::hint::black_box(ring.multi_pow_n_straus(&refs));
        });
        let pippenger_us = time_us(reps, || {
            std::hint::black_box(ring.multi_pow_n_pippenger(&refs));
        });
        println!("  n={n:<4} straus {straus_us:>9.1}us  pippenger {pippenger_us:>9.1}us");
        out.push(XRow {
            n,
            straus_us,
            pippenger_us,
        });
    }
    out
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let (sizes, reps): (&[usize], usize) = if smoke { (&SIZES[..2], 1) } else { (&SIZES, 8) };
    let xreps = if smoke { 1 } else { 16 };

    let mut rows = Vec::new();
    bench_schnorr(&mut rows, sizes, reps);
    bench_rsa(&mut rows, sizes, reps);
    bench_deposit(&mut rows, sizes, reps);
    let xrows = bench_crossover(xreps);

    // Hand-rolled JSON (the workspace's serde_json is a build stub).
    let batch_cells: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"scheme\": \"{}\", \"n\": {}, \"seq_item_us\": {:.2}, \
                 \"batch_item_us\": {:.2}, \"speedup\": {:.3}}}",
                r.scheme, r.n, r.seq_item_us, r.batch_item_us, r.speedup
            )
        })
        .collect();
    let x_cells: Vec<String> = xrows
        .iter()
        .map(|r| {
            format!(
                "    {{\"n\": {}, \"straus_us\": {:.2}, \"pippenger_us\": {:.2}}}",
                r.n, r.straus_us, r.pippenger_us
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"smoke\": {},\n  \"batch\": [\n{}\n  ],\n  \"multi_exp_crossover\": [\n{}\n  ]\n}}\n",
        smoke,
        batch_cells.join(",\n"),
        x_cells.join(",\n")
    );
    let path = artifact_path("BENCH_batch.json", smoke);
    match std::fs::write(&path, json) {
        Ok(()) => println!("  [json -> {}]", path.display()),
        Err(e) => eprintln!("  [json write failed: {e}]"),
    }

    if !smoke {
        // Acceptance: at a deployment-grade group the combined check
        // must amortize ≥2× at batch 64. The deposit path runs on the
        // toy fixture tower where per-item hashing bounds the gain, so
        // it is gated at "never slower". RSA with e = 65537 verifies
        // per item (a 17-squaring verify leaves nothing for batching
        // to save), so its rows must sit at parity.
        let row64 = |scheme: &str| {
            rows.iter()
                .find(|r| r.scheme == scheme && r.n == 64)
                .expect("batch-64 row")
        };
        let s = row64("schnorr");
        assert!(
            s.speedup >= 2.0,
            "schnorr: batch-64 speedup {:.2}x below the 2x bar",
            s.speedup
        );
        let d = row64("deposit");
        assert!(
            d.speedup >= 1.0,
            "deposit: batch-64 path slower than sequential ({:.2}x)",
            d.speedup
        );
        let r = row64("rsa");
        assert!(
            r.speedup >= 0.9,
            "rsa: batch entry point slower than per-item verify ({:.2}x)",
            r.speedup
        );
    }
}

//! **Ablation A5** — the `ModRing` exponentiation stack: per-call
//! plain `modpow` (the seed's RSA path, context rebuilt every call)
//! vs a cached ring context vs fixed-base window evaluation vs
//! RSA-CRT for private-key operations.
//!
//! The acceptance bar for the refactor is cached fixed-base ≥ 2× over
//! per-call plain `modpow` — in practice the gap is far larger, since
//! the window tables remove every squaring from the hot loop.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppms_bigint::{random_below, random_odd_bits, ModRing};
use ppms_crypto::rsa;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_exponentiation_paths(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0x51u64);
    let mut group = c.benchmark_group("ablation_ring");
    for bits in [512usize, 1024] {
        let m = random_odd_bits(&mut rng, bits);
        let base = random_below(&mut rng, &m);
        let exp = random_below(&mut rng, &m);

        // Per-call path: BigUint::modpow builds a fresh ring (the
        // Montgomery constants, two divisions) on every single call.
        group.bench_with_input(BenchmarkId::new("plain_per_call", bits), &bits, |b, _| {
            b.iter(|| std::hint::black_box(base.modpow(&exp, &m)));
        });

        // Constructed-once ring: same square-and-multiply, context
        // amortized across calls.
        let ring = ModRing::new(&m);
        group.bench_with_input(BenchmarkId::new("ring_cached", bits), &bits, |b, _| {
            b.iter(|| std::hint::black_box(ring.pow(&base, &exp)));
        });

        // Fixed-base window table: one multiplication per nonzero
        // 4-bit digit, no squarings at all.
        ring.register_base(&base);
        ring.precompute();
        group.bench_with_input(BenchmarkId::new("ring_fixed_base", bits), &bits, |b, _| {
            b.iter(|| std::hint::black_box(ring.pow_fixed(&base, &exp)));
        });
    }
    group.finish();
}

fn bench_rsa_crt(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0x52u64);
    let mut group = c.benchmark_group("ablation_ring_crt");
    for bits in [512usize, 1024] {
        let sk = rsa::keygen(&mut rng, bits);
        let n = &sk.public.n;
        let msg = random_below(&mut rng, n);

        // Full-width private exponent, context rebuilt per call.
        group.bench_with_input(BenchmarkId::new("d_plain_per_call", bits), &bits, |b, _| {
            b.iter(|| std::hint::black_box(msg.modpow(&sk.d, n)));
        });

        // Full-width private exponent on the cached ring.
        let ring = ModRing::new(n);
        group.bench_with_input(BenchmarkId::new("d_ring_cached", bits), &bits, |b, _| {
            b.iter(|| std::hint::black_box(ring.pow(&msg, &sk.d)));
        });

        // CRT split: two half-width exponentiations + Garner lift.
        group.bench_with_input(BenchmarkId::new("d_crt", bits), &bits, |b, _| {
            b.iter(|| std::hint::black_box(sk.crt().pow_secret(&msg)));
        });
    }
    group.finish();
}

fn bench_multi_pow(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0x53u64);
    let mut group = c.benchmark_group("ablation_ring_multi");
    for bits in [512usize, 1024] {
        let m = random_odd_bits(&mut rng, bits);
        let ring = ModRing::new(&m);
        let g = random_below(&mut rng, &m);
        let h = random_below(&mut rng, &m);
        let a = random_below(&mut rng, &m);
        let b_ = random_below(&mut rng, &m);

        // The Pedersen/ZKP shape g^a·h^b as two separate pows…
        group.bench_with_input(BenchmarkId::new("two_single_pows", bits), &bits, |b, _| {
            b.iter(|| std::hint::black_box(ring.mul(&ring.pow(&g, &a), &ring.pow(&h, &b_))));
        });

        // …vs Shamir's trick sharing one squaring chain.
        group.bench_with_input(BenchmarkId::new("multi_pow", bits), &bits, |b, _| {
            b.iter(|| std::hint::black_box(ring.multi_pow(&[(&g, &a), (&h, &b_)])));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_exponentiation_paths,
    bench_rsa_crt,
    bench_multi_pow
);
criterion_main!(benches);

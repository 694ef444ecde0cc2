//! **Ablation A4** — bignum design choices: `ModRing` exponentiation
//! against the naive square-and-multiply reference. **A17** — prime
//! generation: the residue-sieve walk against the walk that
//! trial-divides every candidate. **A18** — the Type-A pairing and the
//! CL signature on it, at the reproduction's `r = 40` bits and the
//! paper's `r = 160` (`-- --test` also checks each verdict). **A20** —
//! hybrid RSA encryption of the market's 1 533-byte payment bundle at
//! 512 bits (`-- --test` also checks the roundtrip). **A25** — the
//! binary-GCD modular inverse at 64 to 1024 bits (every result is
//! checked by `a·x ≡ 1`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppms_bigint::{gcd, modpow_plain, random_bits, random_odd_bits, BigUint, ModRing};
use ppms_primes::miller_rabin::is_probable_prime_rounds;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

fn bench_modpow(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let mut group = c.benchmark_group("ablation_modpow");
    // 64 and 2048 bits are the narrowest (1-limb) and widest (32-limb)
    // `FpMont` instantiations behind `ModRing`.
    for bits in [64usize, 256, 512, 1024, 2048] {
        let m = random_odd_bits(&mut rng, bits);
        let base = random_bits(&mut rng, bits - 1);
        let exp = random_bits(&mut rng, bits);
        let ring = ModRing::new(&m);
        group.bench_with_input(BenchmarkId::new("montgomery", bits), &bits, |b, _| {
            b.iter(|| std::hint::black_box(ring.pow(&base, &exp)));
        });
        group.bench_with_input(BenchmarkId::new("plain", bits), &bits, |b, _| {
            b.iter(|| std::hint::black_box(modpow_plain(&base, &exp, &m)));
        });
    }
    group.finish();
}

/// Mean microseconds per `modinv` over 64 random units, 20 passes
/// each; every result is checked by `a·x ≡ 1 (mod m)` first.
fn bench_modinv(_c: &mut Criterion) {
    const PASSES: u32 = 20;
    let mut rng = StdRng::seed_from_u64(13);
    // 71 bits is the width of the fixture Schnorr groups, 512 that of
    // the bank's RSA modulus.
    for bits in [64usize, 71, 256, 512, 1024] {
        let m = random_odd_bits(&mut rng, bits);
        let xs: Vec<BigUint> = (0..64)
            .map(|_| random_bits(&mut rng, bits - 1))
            .filter(|a| gcd(a, &m).is_one())
            .collect();
        for a in &xs {
            let x = a.modinv(&m).expect("a unit");
            assert!(a.modmul(&x, &m).is_one(), "{bits} bits: a·x ≢ 1");
        }
        let t0 = Instant::now();
        for _ in 0..PASSES {
            for a in &xs {
                std::hint::black_box(std::hint::black_box(a).modinv(&m));
            }
        }
        let us = t0.elapsed().as_secs_f64() * 1e6 / (PASSES as usize * xs.len()) as f64;
        println!("bench modinv/{bits}: {us:.2} us");
    }
}

fn bench_sha_hash_to_int(c: &mut Criterion) {
    // The Fiat–Shamir hot path.
    let data = vec![0xA5u8; 1024];
    c.bench_function("sha256_1k", |b| {
        b.iter(|| std::hint::black_box(ppms_crypto::Sha256::digest(&data)));
    });
    let bound = BigUint::parse_hex("ffffffffffffffffffffffffffffff61").unwrap();
    c.bench_function("hash_to_int_128", |b| {
        b.iter(|| std::hint::black_box(ppms_crypto::hash::hash_to_int("bench", &[&data], &bound)));
    });
}

/// The walk `random_prime` ran before the residue sieve: every odd
/// candidate from a random start goes through the full
/// `is_probable_prime_rounds` (24 rounds, 64 steps per start). It
/// returns the same prime for a seed as the sieved walk.
fn reference_prime<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
    loop {
        let mut cand = random_odd_bits(rng, bits);
        for _ in 0..64 {
            if cand.bits() != bits {
                break;
            }
            if is_probable_prime_rounds(&cand, 24, rng) {
                return cand;
            }
            cand = &cand + 2u64;
        }
    }
}

/// Mean microseconds per call of `f` over the seeds `0..SEEDS`, and
/// the outputs so the two walks can be checked to agree.
fn mean_us<T>(f: impl Fn(&mut StdRng) -> T) -> (f64, Vec<T>) {
    const SEEDS: u64 = 200;
    let t0 = Instant::now();
    let out: Vec<T> = (0..SEEDS)
        .map(|seed| f(&mut StdRng::seed_from_u64(seed)))
        .collect();
    (t0.elapsed().as_secs_f64() * 1e6 / SEEDS as f64, out)
}

/// Prints one row: the sieved walk beside the reference walk. Prime
/// search is geometric in the number of candidates, so both sides
/// average the same seeds; the walks return identical values, making
/// the row a paired comparison.
fn compare_walks(
    name: &str,
    sieved: impl Fn(&mut StdRng) -> BigUint,
    reference: impl Fn(&mut StdRng) -> BigUint,
) {
    let (sieved_us, a) = mean_us(sieved);
    let (reference_us, b) = mean_us(reference);
    assert_eq!(a, b, "{name}: the walks must return the same values");
    println!(
        "bench {name}: sieved {sieved_us:.0} reference {reference_us:.0} ({:.2}x)",
        reference_us / sieved_us
    );
}

fn bench_prime_generation(_c: &mut Criterion) {
    use ppms_crypto::rsa;
    compare_walks(
        "random_prime_256_us",
        |rng| ppms_primes::random_prime(rng, 256),
        |rng| reference_prime(rng, 256),
    );
    compare_walks(
        "rsa_keygen_512_us",
        |rng| rsa::keygen(rng, 512).public.n,
        |rng| rsa::keygen_with(rng, 512, reference_prime).public.n,
    );
}

fn bench_pairing(c: &mut Criterion) {
    use ppms_crypto::cl::ClKeyPair;
    use ppms_crypto::pairing::TypeAPairing;
    let mut group = c.benchmark_group("pairing");
    group.sample_size(20);
    for r_bits in [40usize, 160] {
        let mut rng = StdRng::seed_from_u64(11);
        let e = TypeAPairing::generate(&mut rng, r_bits);
        let keys = ClKeyPair::generate(&mut rng, &e);
        let k = e.random_scalar(&mut rng);
        let msg = b"withdrawal nonce 1";
        let sig = keys.sign_bytes(&mut rng, &e, msg);
        assert!(sig.verify_bytes(&e, &keys.public, msg), "r = {r_bits}");
        assert!(!sig.verify_bytes(&e, &keys.public, b"withdrawal nonce 2"));
        assert!(!e.pairing(&e.g, &keys.public.y_pub).is_one());
        group.bench_with_input(BenchmarkId::new("pairing", r_bits), &r_bits, |b, _| {
            b.iter(|| std::hint::black_box(e.pairing(&e.g, &keys.public.y_pub)));
        });
        group.bench_with_input(BenchmarkId::new("cl_verify", r_bits), &r_bits, |b, _| {
            b.iter(|| std::hint::black_box(sig.verify_bytes(&e, &keys.public, msg)));
        });
        group.bench_with_input(BenchmarkId::new("cl_sign", r_bits), &r_bits, |b, _| {
            b.iter(|| std::hint::black_box(keys.sign_bytes(&mut rng, &e, msg)));
        });
        group.bench_with_input(BenchmarkId::new("g_mul", r_bits), &r_bits, |b, _| {
            b.iter(|| std::hint::black_box(e.g_mul(&k)));
        });
    }
    group.finish();
}

fn bench_rsa_encrypt(c: &mut Criterion) {
    use ppms_crypto::rsa;
    let mut rng = StdRng::seed_from_u64(12);
    let key = rsa::keygen(&mut rng, 512);
    let payment: Vec<u8> = (0..1533u32).map(|i| i as u8).collect();
    let ct = rsa::encrypt(&mut rng, &key.public, &payment);
    assert_eq!(rsa::decrypt(&key, &ct).unwrap(), payment);
    let mut group = c.benchmark_group("rsa_encrypt");
    group.sample_size(20);
    group.bench_function("encrypt_1533B_512", |b| {
        b.iter(|| std::hint::black_box(rsa::encrypt(&mut rng, &key.public, &payment)));
    });
    group.bench_function("decrypt_1533B_512", |b| {
        b.iter(|| std::hint::black_box(rsa::decrypt(&key, &ct)));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_rsa_encrypt,
    bench_pairing,
    bench_prime_generation,
    bench_modpow,
    bench_modinv,
    bench_sha_hash_to_int
);
criterion_main!(benches);

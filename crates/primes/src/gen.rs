//! Random prime generation.
//!
//! [`random_prime`] draws a random odd start and walks the next 64
//! odd numbers. Instead of trial-dividing every candidate, it
//! reduces the start modulo each odd table prime once and marks the
//! candidates `start + 2k` that prime divides; only unmarked candidates
//! reach Miller–Rabin. A candidate is marked exactly when
//! [`is_probable_prime_rounds`] would reject it by trial division, so
//! the walk tests the same candidates in the same order with the same
//! RNG draws, and a seed yields the same prime as testing each
//! candidate in full (the `reference_prime` oracle in the tests pins
//! this).

use crate::miller_rabin::{is_probable_prime_rounds, miller_rabin};
use crate::sieve::{small_primes, SMALL_PRIME_LIMIT};
use ppms_bigint::{random_odd_bits, BigUint};
use rand::Rng;
use std::sync::OnceLock;

/// Miller–Rabin rounds used during generation (candidates are random,
/// so fewer rounds suffice than for adversarial inputs).
const GEN_ROUNDS: u32 = 24;

/// Odd candidates walked from one random start before a fresh start
/// is drawn (one bit each in the composite mask).
const WALK: u64 = 64;

/// Generates a random probable prime with exactly `bits` bits
/// (`bits >= 2`).
pub fn random_prime<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
    assert!(bits >= 2, "no primes below 2 bits");
    if bits == 2 {
        // Only 2-bit candidates are 2 and 3; pick randomly.
        return if rng.next_u32() & 1 == 0 {
            BigUint::two()
        } else {
            BigUint::from(3u64)
        };
    }
    let mut residues = vec![0u32; sieve_primes().len()];
    loop {
        let start = random_odd_bits(rng, bits);
        residues_into(&start, &mut residues);
        let composite = composite_mask(&start, &residues);
        for k in (0..WALK).filter(|k| composite >> k & 1 == 0) {
            let cand = &start + 2 * k;
            // Drifted out of the bit width: restart from a fresh start.
            if cand.bits() != bits {
                break;
            }
            // Below 2³² every composite has a table factor, so a
            // survivor is prime without Miller–Rabin.
            if cand
                .to_u64()
                .is_some_and(|v| v < SMALL_PRIME_LIMIT * SMALL_PRIME_LIMIT)
                || miller_rabin(&cand, GEN_ROUNDS, rng)
            {
                return cand;
            }
        }
    }
}

/// The odd table primes (candidates are odd, so 2 never divides one),
/// each with its reciprocal `m = ⌊(2⁶⁴ − 1) / p⌋ + 1`, so that
/// `m·p = 2⁶⁴ + e` with `0 < e < p`. For any `a < p·2³²`, `a mod p` is
/// the high word of `(m·a mod 2⁶⁴)·p` (Lemire, Kaser & Kurz, "Faster
/// remainder by direct computation", 2019): two multiplications in
/// place of a division. The bound is theirs with a 64-bit `m`: the
/// high word is `a mod p` whenever `e·a < 2⁶⁴`, and `e < p < 2¹⁶`.
fn sieve_primes() -> &'static [(u32, u64)] {
    static TABLE: OnceLock<Vec<(u32, u64)>> = OnceLock::new();
    TABLE.get_or_init(|| {
        small_primes()[1..]
            .iter()
            .map(|&p| (p as u32, u64::MAX / p + 1))
            .collect()
    })
}

/// Sieve primes per group: every table prime is below 2¹⁶, so the
/// product of a group fits a `u64`.
const GROUP: usize = 4;

/// The products of consecutive runs of [`GROUP`] sieve primes, in
/// table order. The 6 541 odd table primes leave a last run of one.
fn sieve_groups() -> &'static [u64] {
    static PRODUCTS: OnceLock<Vec<u64>> = OnceLock::new();
    PRODUCTS.get_or_init(|| {
        sieve_primes()
            .chunks(GROUP)
            .map(|run| run.iter().map(|&(p, _)| u64::from(p)).product())
            .collect()
    })
}

/// `a mod p` for `a < p·2³²`, by the reciprocal `m` of [`sieve_primes`].
#[inline]
fn reduce_small(a: u64, p: u32, m: u64) -> u32 {
    ((u128::from(m.wrapping_mul(a)) * u128::from(p)) >> 64) as u32
}

/// Writes `n mod p` for every sieve prime `p`. Each group reduces `n`
/// modulo its product with one 128/64 remainder per limb, then splits
/// that residue (below 2⁶⁴) into its primes' residues in two 32-bit
/// folds. Since every prime divides the product, `(n mod P) mod p`
/// equals `n mod p`.
fn residues_into(n: &BigUint, residues: &mut [u32]) {
    let groups = sieve_primes().chunks(GROUP).zip(sieve_groups());
    for (out, (run, &product)) in residues.chunks_mut(GROUP).zip(groups) {
        let mut g = 0u64;
        for &limb in n.limbs().iter().rev() {
            g = (((u128::from(g) << 64) | u128::from(limb)) % u128::from(product)) as u64;
        }
        for (r, &(p, m)) in out.iter_mut().zip(run) {
            let hi = reduce_small(g >> 32, p, m);
            *r = reduce_small((u64::from(hi) << 32) | (g & 0xffff_ffff), p, m);
        }
    }
}

/// Bit `k` is set iff some sieve prime divides `start + 2k` without
/// being equal to it — exactly the candidates trial division rejects.
fn composite_mask(start: &BigUint, residues: &[u32]) -> u64 {
    let small_start = start.to_u64();
    let mut mask = 0u64;
    for (&(p, _), &r) in sieve_primes().iter().zip(residues) {
        let (p, r) = (p as u64, r as u64);
        // First k with p | start + 2k, i.e. 2k ≡ -r (mod p) for odd p.
        let neg = if r == 0 { 0 } else { p - r };
        let mut k = if neg % 2 == 0 { neg / 2 } else { (neg + p) / 2 };
        // A candidate equal to p is prime; its next multiple is 3p.
        if small_start.is_some_and(|s| s + 2 * k == p) {
            k += p;
        }
        while k < WALK {
            mask |= 1 << k;
            k += p;
        }
    }
    mask
}

/// Generates a random safe prime `p = 2q + 1` (with `q` also prime)
/// of exactly `bits` bits. Returns `(p, q)`.
pub fn random_safe_prime<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> (BigUint, BigUint) {
    assert!(bits >= 3, "smallest safe prime is 5 (3 bits)");
    loop {
        let q = random_prime(rng, bits - 1);
        let p = &(&q << 1usize) + &BigUint::one();
        if p.bits() == bits && is_probable_prime_rounds(&p, GEN_ROUNDS, rng) {
            return (p, q);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::is_probable_prime;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// The walk `random_prime` ran before the residue sieve: every
    /// candidate goes through the full [`is_probable_prime_rounds`].
    /// Kept only as the oracle the sieved walk must match.
    fn reference_prime<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
        if bits == 2 {
            return if rng.next_u32() & 1 == 0 {
                BigUint::two()
            } else {
                BigUint::from(3u64)
            };
        }
        loop {
            let mut cand = random_odd_bits(rng, bits);
            for _ in 0..WALK {
                if cand.bits() != bits {
                    break;
                }
                if is_probable_prime_rounds(&cand, GEN_ROUNDS, rng) {
                    return cand;
                }
                cand = &cand + &BigUint::two();
            }
        }
    }

    /// Widths that cover the tiny walks (candidates can equal a table
    /// prime), the 2³² boundary where Miller–Rabin takes over, and the
    /// widths the protocols use.
    const WIDTHS: [usize; 28] = [
        3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 30, 31, 32, 33, 34, 35,
        36, 64, 256, 512,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn sieved_walk_matches_reference(seed in any::<u64>()) {
            for bits in WIDTHS {
                let mut a = StdRng::seed_from_u64(seed);
                let mut b = StdRng::seed_from_u64(seed);
                prop_assert_eq!(
                    random_prime(&mut a, bits),
                    reference_prime(&mut b, bits),
                    "seed {}, {} bits", seed, bits
                );
                // Same RNG draws, so the streams continue in step.
                prop_assert_eq!(a.next_u64(), b.next_u64());
            }
        }
    }

    #[test]
    fn residues_match_the_remainder_operator() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut residues = vec![0u32; sieve_primes().len()];
        let random = [2usize, 17, 63, 64, 65, 128, 256, 512, 1024, 2048]
            .map(|bits| random_odd_bits(&mut rng, bits));
        // All-ones values push every group residue and fold to its top.
        let all_ones = [64usize, 2048].map(|bits| &(BigUint::one() << bits) - 1u64);
        for n in random.iter().chain(&all_ones) {
            residues_into(n, &mut residues);
            for (&(p, _), &r) in sieve_primes().iter().zip(&residues) {
                assert_eq!(r as u64, n % p as u64, "{n} mod {p}");
            }
        }
    }

    #[test]
    fn last_group_holds_the_leftover_prime() {
        let primes = sieve_primes();
        assert_eq!(primes.len(), 6541);
        assert_eq!(sieve_groups().len(), primes.len().div_ceil(GROUP));
        let &(last, _) = primes.last().unwrap();
        assert_eq!(sieve_groups().last(), Some(&u64::from(last)));
        for (run, &product) in primes.chunks(GROUP).zip(sieve_groups()) {
            let exact = run
                .iter()
                .try_fold(1u64, |acc, &(p, _)| acc.checked_mul(u64::from(p)));
            assert_eq!(exact, Some(product));
        }
        // A multi-limb value one below a multiple of the last prime.
        let mut residues = vec![0u32; primes.len()];
        let n = &(BigUint::from(u64::from(last)) << 200usize) - 1u64;
        residues_into(&n, &mut residues);
        assert_eq!(*residues.last().unwrap(), last - 1);
    }

    #[test]
    fn random_primes_are_pinned_for_seeds() {
        // Computed before the four-prime grouping of the residue sieve.
        let pinned = [
            "e42e1c7bc266a3a792f89756082a4514853b559647364ceab3f2af6d0fc710fb",
            "bf733e63d139683d2f1829af001ef205b9bb8042daedd58a1a28690da8a8d0d3",
            "b72fe6e16b6fb4e635cd8bb5e1fa72566646287ee2a980836cb24c8fb2249827",
            "b95fba07afa980ac7be965236729c7d39ca3d6e037621a0239cf61fc694b95bd",
        ];
        for (seed, hex) in (1u64..).zip(pinned) {
            let p = random_prime(&mut StdRng::seed_from_u64(seed), 256);
            assert_eq!(p.to_hex(), hex, "seed {seed}");
        }
    }

    #[test]
    fn prime_has_requested_bits() {
        let mut rng = StdRng::seed_from_u64(7);
        for bits in [8usize, 16, 32, 64, 128] {
            let p = random_prime(&mut rng, bits);
            assert_eq!(p.bits(), bits, "requested {bits} bits");
            assert!(is_probable_prime(&p));
        }
    }

    #[test]
    fn tiny_widths() {
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..10 {
            let p = random_prime(&mut rng, 2);
            assert!(p == BigUint::two() || p == BigUint::from(3u64));
            let p3 = random_prime(&mut rng, 3);
            assert!(p3 == BigUint::from(5u64) || p3 == BigUint::from(7u64));
        }
    }

    #[test]
    fn safe_prime_structure() {
        let mut rng = StdRng::seed_from_u64(9);
        let (p, q) = random_safe_prime(&mut rng, 48);
        assert_eq!(p, &(&q << 1usize) + &BigUint::one());
        assert!(is_probable_prime(&p));
        assert!(is_probable_prime(&q));
        assert_eq!(p.bits(), 48);
    }
}

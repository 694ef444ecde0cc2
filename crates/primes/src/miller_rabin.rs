//! Miller–Rabin probabilistic primality testing.
//!
//! Uses trial division by the small-prime table first, then `rounds`
//! random bases (plus base 2, which kills most composites instantly).
//! With 32 rounds the error probability is < 4^-32 per call.

use crate::sieve::small_primes;
use ppms_bigint::{random_below, BigUint, ModRing};
use rand::rngs::StdRng;
use rand::Rng;

/// Default number of random Miller–Rabin rounds.
pub const DEFAULT_ROUNDS: u32 = 32;

/// One Miller–Rabin round for witness `a` against odd `n > 3`, with
/// `n - 1 = d * 2^s` precomputed. The ring is constructed once per
/// candidate (after trial division has had its chance to reject
/// cheaply) and reused across all witnesses; candidates wider than
/// [`ModRing::MAX_BITS`] have none and take the plain path.
fn mr_round(
    ring: Option<&ModRing>,
    n: &BigUint,
    n_minus_1: &BigUint,
    d: &BigUint,
    s: usize,
    a: &BigUint,
) -> bool {
    let mut x = match ring {
        Some(ring) => ring.pow(a, d),
        None => a.modpow(d, n),
    };
    if x.is_one() || &x == n_minus_1 {
        return true;
    }
    for _ in 1..s {
        x = match ring {
            Some(ring) => ring.mul(&x, &x),
            None => x.modmul(&x, n),
        };
        if &x == n_minus_1 {
            return true;
        }
        if x.is_one() {
            return false; // nontrivial sqrt of 1 found
        }
    }
    false
}

/// Probabilistic primality test with `rounds` random bases.
pub fn is_probable_prime_rounds<R: Rng + ?Sized>(n: &BigUint, rounds: u32, rng: &mut R) -> bool {
    // Small and even cases.
    if let Some(v) = n.to_u64() {
        if v < 2 {
            return false;
        }
        for &p in small_primes() {
            if p * p > v {
                break;
            }
            if v % p == 0 {
                return v == p;
            }
        }
        if v < crate::SMALL_PRIME_LIMIT * crate::SMALL_PRIME_LIMIT {
            return true;
        }
    }
    if n.is_even() {
        return false;
    }
    // Trial division by the small-prime table.
    for &p in small_primes() {
        if (n % p) == 0 {
            return n.to_u64() == Some(p);
        }
    }
    miller_rabin(n, rounds, rng)
}

/// The Miller–Rabin half of [`is_probable_prime_rounds`]: base 2, then
/// `rounds` random bases in `[2, n-2]`. `n` must be odd and above 3;
/// the caller has already ruled out small factors (by trial division
/// here, by the residue sieve in [`crate::gen`]).
pub(crate) fn miller_rabin<R: Rng + ?Sized>(n: &BigUint, rounds: u32, rng: &mut R) -> bool {
    // Only candidates that survived trial division pay for ring
    // construction (Montgomery constants need a division for
    // `R² mod n`); the one context then serves every witness round.
    let n_minus_1 = n - &BigUint::one();
    let s = n_minus_1.trailing_zeros().expect("n > 1 odd, so n-1 > 0");
    let d = &n_minus_1 >> s;
    let ring = ModRing::supports(n).then(|| ModRing::new(n));
    let ring = ring.as_ref();

    // Deterministic base 2 first — cheap and catches most composites.
    if !mr_round(ring, n, &n_minus_1, &d, s, &BigUint::two()) {
        return false;
    }
    // Random bases in [2, n-2].
    let upper = n - &BigUint::from(3u64);
    for _ in 0..rounds {
        let a = &random_below(rng, &upper) + &BigUint::two();
        if !mr_round(ring, n, &n_minus_1, &d, s, &a) {
            return false;
        }
    }
    true
}

/// Probabilistic primality test with the default round count.
///
/// The bases come from `rand::make_rng`, which the vendored `rand`
/// seeds from a process-wide counter, not from OS entropy: the bases
/// are predictable, so an adversary can craft a composite that passes.
/// Use this only in tests and on trusted inputs; for adversarial
/// inputs, call [`is_probable_prime_rounds`] with an RNG the caller
/// controls.
pub fn is_probable_prime(n: &BigUint) -> bool {
    let mut rng = rand::make_rng::<StdRng>();
    is_probable_prime_rounds(n, DEFAULT_ROUNDS, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(v: u64) -> BigUint {
        BigUint::from(v)
    }

    #[test]
    fn small_values() {
        assert!(!is_probable_prime(&b(0)));
        assert!(!is_probable_prime(&b(1)));
        assert!(is_probable_prime(&b(2)));
        assert!(is_probable_prime(&b(3)));
        assert!(!is_probable_prime(&b(4)));
        assert!(is_probable_prime(&b(65521)));
        assert!(!is_probable_prime(&b(65521 * 3)));
    }

    #[test]
    fn known_primes() {
        for p in [
            1_000_000_007u64,
            1_000_000_009,
            2_147_483_647,
            67_280_421_310_721,
        ] {
            assert!(is_probable_prime(&b(p)), "{p} is prime");
        }
    }

    #[test]
    fn known_composites() {
        // Carmichael numbers — fool Fermat, not Miller-Rabin.
        for c in [561u64, 1105, 1729, 41041, 825265, 321197185] {
            assert!(!is_probable_prime(&b(c)), "{c} is a Carmichael number");
        }
    }

    #[test]
    fn strong_pseudoprimes_base2() {
        // 2047 = 23*89 is a strong pseudoprime to base 2; random bases must catch it.
        for c in [2047u64, 3277, 4033, 4681, 8321] {
            assert!(!is_probable_prime(&b(c)), "{c} is composite");
        }
    }

    #[test]
    fn big_primes() {
        // 2^127 - 1 (Mersenne) and 2^255 - 19.
        let m127 = (BigUint::one() << 127usize) - BigUint::one();
        assert!(is_probable_prime(&m127));
        let p25519 = (BigUint::one() << 255usize) - b(19);
        assert!(is_probable_prime(&p25519));
        // 2^128 + 1 is composite (= 59649589127497217 * ...).
        let f7ish = (BigUint::one() << 128usize) + BigUint::one();
        assert!(!is_probable_prime(&f7ish));
    }

    #[test]
    fn candidates_wider_than_the_ring_take_the_plain_path() {
        use rand::SeedableRng;
        // 2^2203 − 1 is a Mersenne prime; its product with 2^127 − 1
        // is a composite with no small factor for trial division.
        let m2203 = (BigUint::one() << 2203usize) - BigUint::one();
        let mut rng = StdRng::seed_from_u64(7);
        assert!(is_probable_prime_rounds(&m2203, 2, &mut rng));
        let composite = &m2203 * &((BigUint::one() << 127usize) - BigUint::one());
        assert!(!is_probable_prime_rounds(&composite, 2, &mut rng));
    }

    #[test]
    fn product_of_two_primes() {
        let p = (BigUint::one() << 89usize) - BigUint::one(); // Mersenne prime
        let q = (BigUint::one() << 107usize) - BigUint::one(); // Mersenne prime
        assert!(!is_probable_prime(&(&p * &q)));
    }
}

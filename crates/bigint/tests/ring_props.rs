//! Property-based tests for the [`ModRing`] cached-exponentiation
//! layer, cross-checked against the naive square-and-multiply
//! reference `modpow_plain`. Every acceleration path is pinned to the
//! reference: plain `pow`, the fixed-base window tables, the CRT split,
//! and the Shamir simultaneous multi-exponentiation.

use ppms_bigint::{modpow_plain, BigUint, ModRing, RsaCrt};
use proptest::prelude::*;

/// Strategy: a BigUint from 0..4 random limbs (up to 192 bits).
fn big() -> impl Strategy<Value = BigUint> {
    prop::collection::vec(any::<u64>(), 0..4).prop_map(BigUint::from_limbs)
}

/// Strategy: an odd modulus `> 1` of one to three limbs (three pads
/// to the 4-limb width).
fn odd_modulus() -> impl Strategy<Value = BigUint> {
    prop::collection::vec(any::<u64>(), 1..4).prop_map(|mut limbs| {
        limbs[0] |= 1;
        let n = BigUint::from_limbs(limbs);
        if n.is_one() {
            BigUint::from(3u64)
        } else {
            n
        }
    })
}

/// Distinct primes for the CRT property (moduli `n = p·q`).
const PRIMES: [u64; 6] = [
    1_000_000_007,
    1_000_000_009,
    2_147_483_647,
    4_294_967_291,
    67_280_421_310_721,
    2_305_843_009_213_693_951,
];

proptest! {
    #[test]
    fn pow_matches_reference_odd(m in odd_modulus(), base in big(), exp in big()) {
        let ring = ModRing::new(&m);
        prop_assert_eq!(ring.pow(&base, &exp), modpow_plain(&base, &exp, &m));
    }

    #[test]
    fn pow_fixed_matches_pow_odd(m in odd_modulus(), base in big(), exp in big()) {
        let ring = ModRing::new(&m);
        ring.register_base(&base);
        prop_assert_eq!(ring.pow_fixed(&base, &exp), ring.pow(&base, &exp));
    }

    #[test]
    fn pow_fixed_unregistered_falls_back(m in odd_modulus(), base in big(), exp in big()) {
        let ring = ModRing::new(&m);
        // No register_base: silent fallback to plain pow.
        prop_assert_eq!(ring.pow_fixed(&base, &exp), modpow_plain(&base, &exp, &m));
    }

    #[test]
    fn multi_pow_matches_product_of_single_pows(
        m in odd_modulus(),
        b1 in big(), e1 in big(),
        b2 in big(), e2 in big(),
        b3 in big(), e3 in big(),
    ) {
        let ring = ModRing::new(&m);
        let expect = ring.mul(
            &ring.mul(&ring.pow(&b1, &e1), &ring.pow(&b2, &e2)),
            &ring.pow(&b3, &e3),
        );
        prop_assert_eq!(ring.multi_pow(&[(&b1, &e1), (&b2, &e2), (&b3, &e3)]), expect);
    }

    #[test]
    fn multi_pow_n_matches_product_of_single_pows(
        m in odd_modulus(),
        pairs in prop::collection::vec((big(), big()), 0..40),
    ) {
        let ring = ModRing::new(&m);
        let refs: Vec<(&BigUint, &BigUint)> = pairs.iter().map(|(b, e)| (b, e)).collect();
        let expect = refs.iter().fold(ring.reduce(&BigUint::one()), |acc, (b, e)| {
            ring.mul(&acc, &ring.pow(b, e))
        });
        prop_assert_eq!(ring.multi_pow_n(&refs), expect.clone());
        // Both algorithms must agree regardless of the dispatch point.
        prop_assert_eq!(ring.multi_pow_n_straus(&refs), expect.clone());
        prop_assert_eq!(ring.multi_pow_n_pippenger(&refs), expect);
    }

    #[test]
    fn batch_inv_matches_per_element_modinv(
        m in odd_modulus(),
        xs in prop::collection::vec(big(), 0..20),
    ) {
        let ring = ModRing::new(&m);
        let got = ring.batch_inv(&xs);
        prop_assert_eq!(got.len(), xs.len());
        for (x, inv) in xs.iter().zip(&got) {
            prop_assert_eq!(inv, &x.modinv(&m));
        }
    }

    #[test]
    fn pow_crt_matches_plain_exponent(
        pi in 0usize..6,
        qoff in 0usize..5,
        base in big(),
        draw in big(),
    ) {
        let p = BigUint::from(PRIMES[pi]);
        let q = BigUint::from(PRIMES[(pi + 1 + qoff) % 6]);
        let n = &p * &q;
        let phi = &(&p - &BigUint::one()) * &(&q - &BigUint::one());
        // d in [1, phi-1], as an RSA secret exponent would be.
        let d = &(&draw % &(&phi - &BigUint::one())) + &BigUint::one();
        let crt = RsaCrt::new(&p, &q, &d);
        let ring = ModRing::new(&n);
        prop_assert_eq!(ring.pow_crt(&base, &crt), modpow_plain(&base, &d, &n));
        prop_assert_eq!(crt.pow_secret(&base), modpow_plain(&base, &d, &n));
    }
}

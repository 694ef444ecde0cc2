//! Property-based tests for `ppms-bigint`, cross-checked against `u128`
//! reference arithmetic and against algebraic identities on large values.

use ppms_bigint::{gcd, jacobi, BigUint, ModRing};
use proptest::prelude::*;

/// Strategy: a BigUint from 0..4 random limbs (up to 256 bits).
fn big() -> impl Strategy<Value = BigUint> {
    prop::collection::vec(any::<u64>(), 0..4).prop_map(BigUint::from_limbs)
}

/// Strategy: a nonzero BigUint.
fn big_nonzero() -> impl Strategy<Value = BigUint> {
    big().prop_filter("nonzero", |v| !v.is_zero())
}

proptest! {
    #[test]
    fn add_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let s = BigUint::from(a) + BigUint::from(b);
        prop_assert_eq!(s.to_u128(), Some(a as u128 + b as u128));
    }

    #[test]
    fn mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let p = BigUint::from(a) * BigUint::from(b);
        prop_assert_eq!(p.to_u128(), Some(a as u128 * b as u128));
    }

    #[test]
    fn add_commutative(a in big(), b in big()) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn add_associative(a in big(), b in big(), c in big()) {
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
    }

    #[test]
    fn mul_commutative(a in big(), b in big()) {
        prop_assert_eq!(&a * &b, &b * &a);
    }

    #[test]
    fn mul_distributes_over_add(a in big(), b in big(), c in big()) {
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn sub_inverts_add(a in big(), b in big()) {
        prop_assert_eq!(&(&a + &b) - &b, a);
    }

    #[test]
    fn divrem_reconstructs(a in big(), b in big_nonzero()) {
        let (q, r) = a.divrem(&b);
        prop_assert!(r < b);
        prop_assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn rem_u64_matches_divrem_u64(a in big(), d in any::<u64>()) {
        let d = d.max(1);
        prop_assert_eq!(&a % d, a.divrem_u64(d).1);
    }

    #[test]
    fn shift_roundtrip(a in big(), n in 0usize..300) {
        prop_assert_eq!(&(&a << n) >> n, a);
    }

    #[test]
    fn shl_is_mul_by_pow2(a in big(), n in 0usize..130) {
        prop_assert_eq!(&a << n, &a * &(BigUint::one() << n));
    }

    #[test]
    fn bytes_roundtrip(a in big()) {
        prop_assert_eq!(BigUint::from_bytes_be(&a.to_bytes_be()), a);
    }

    #[test]
    fn dec_roundtrip(a in big()) {
        prop_assert_eq!(BigUint::parse_dec(&a.to_dec()).unwrap(), a);
    }

    #[test]
    fn hex_roundtrip(a in big()) {
        prop_assert_eq!(BigUint::parse_hex(&a.to_hex()).unwrap(), a);
    }

    #[test]
    fn product_matches_division_and_ring(
        av in prop::collection::vec(any::<u64>(), 0..80),
        bv in prop::collection::vec(any::<u64>(), 0..80),
        mut mv in prop::collection::vec(any::<u64>(), 1..=32),
    ) {
        // Checked against two independent paths: Knuth D division and
        // the Montgomery product of `FpMont`.
        let a = BigUint::from_limbs(av);
        let b = BigUint::from_limbs(bv);
        let p = &a * &b;
        if !b.is_zero() {
            let (q, r) = p.divrem(&b);
            prop_assert_eq!(q, a.clone());
            prop_assert!(r.is_zero());
        }
        mv[0] |= 1;
        let m = BigUint::from_limbs(mv);
        if !m.is_one() {
            let ring = ModRing::new(&m);
            prop_assert_eq!(&p % &m, ring.mul(&(&a % &m), &(&b % &m)));
        }
    }

    #[test]
    fn modpow_montgomery_matches_plain(a in big(), e in big(), mv in prop::collection::vec(any::<u64>(), 1..3)) {
        let mut m = BigUint::from_limbs(mv);
        m.set_bit(0, true); // make odd
        if m.is_one() { m = BigUint::from(3u64); }
        prop_assert_eq!(a.modpow(&e, &m), ppms_bigint::modpow_plain(&a, &e, &m));
    }

    #[test]
    fn modpow_exponent_addition(a in big(), e1 in any::<u64>(), e2 in any::<u64>(), mv in prop::collection::vec(any::<u64>(), 1..3)) {
        // a^(e1+e2) = a^e1 * a^e2 (mod m)
        let mut m = BigUint::from_limbs(mv);
        m.set_bit(0, true);
        if m.is_one() { m = BigUint::from(5u64); }
        let lhs = a.modpow(&(BigUint::from(e1) + BigUint::from(e2)), &m);
        let rhs = a.modpow(&BigUint::from(e1), &m).modmul(&a.modpow(&BigUint::from(e2), &m), &m);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn gcd_divides_both(a in big_nonzero(), b in big_nonzero()) {
        let g = gcd(&a, &b);
        prop_assert!((&a % &g).is_zero());
        prop_assert!((&b % &g).is_zero());
    }

    #[test]
    fn jacobi_multiplicative(a in any::<u64>(), b in any::<u64>(), n in any::<u32>()) {
        // (ab/n) = (a/n)(b/n) for odd n
        let n = BigUint::from((n as u64) | 1);
        if n.is_one() { return Ok(()); }
        let ja = jacobi(&BigUint::from(a), &n);
        let jb = jacobi(&BigUint::from(b), &n);
        let jab = jacobi(&(BigUint::from(a) * BigUint::from(b)), &n);
        prop_assert_eq!(jab, ja * jb);
    }

    #[test]
    fn cmp_consistent_with_sub(a in big(), b in big()) {
        match a.cmp(&b) {
            std::cmp::Ordering::Less => prop_assert!(a.checked_sub(&b).is_none()),
            _ => prop_assert!(a.checked_sub(&b).is_some()),
        }
    }
}

proptest! {
    // Eight kinds of case (see `pick`) over 1–32 limbs: enough cases
    // that every kind meets odd and even moduli of many widths.
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn modinv_is_inverse(
        mut mv in prop::collection::vec(any::<u64>(), 1..=32),
        av in prop::collection::vec(any::<u64>(), 0..=34),
        odd in any::<bool>(),
        pick in 0u8..8,
        shared in 1u64..64,
    ) {
        // Moduli of 1–32 limbs, odd and even, plus the two smallest;
        // `a` ranges over zero, values above `m`, and values that
        // share the factor `shared` with `m` so no inverse exists.
        if odd { mv[0] |= 1 } else { mv[0] &= !1 }
        let mut m = BigUint::from_limbs(mv);
        if pick == 0 || m.is_zero() {
            m = BigUint::from(1 + odd as u64);
        }
        let mut a = BigUint::from_limbs(av);
        if pick == 1 {
            a = BigUint::zero();
        } else if pick == 2 {
            a = &(&a % &m) * &BigUint::from(shared);
            m = &m * &BigUint::from(shared);
        } else if pick == 3 {
            a = &a + &m;
        }
        let inv = a.modinv(&m);
        if m.is_one() {
            // Z/1 has no unit to return.
            prop_assert_eq!(inv, None);
        } else if gcd(&a, &m).is_one() {
            let x = inv.expect("a unit has an inverse");
            prop_assert!(x < m);
            prop_assert_eq!(a.modmul(&x, &m), BigUint::one());
        } else {
            prop_assert_eq!(inv, None);
        }
    }
}

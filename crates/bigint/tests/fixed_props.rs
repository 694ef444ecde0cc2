//! Property tests pinning the [`FpMont`] backend behind [`ModRing`] to
//! the one reference: plain square-and-multiply ([`modpow_plain`]) and
//! plain `BigUint` products reduced by division. Every routed operation
//! must be *bit-identical* to it — `pow`, `mul`, `multi_pow_n`
//! (Straus, Pippenger and the cost-model dispatch), Shamir `multi_pow`,
//! the fixed-base window tables and `batch_inv` — at exact widths (the
//! modulus fills its `FpMont` instantiation) and at padded ones (a
//! 3-limb modulus on the 4-limb kernels, 31 limbs on 32, …). Edge
//! operands (0, 1, p−1, p, p+1) are driven explicitly alongside the
//! random ones.

use ppms_bigint::{modpow_plain, BigUint, FpMont, ModRing};
use proptest::prelude::*;

/// Limb counts that fill an `FpMont` instantiation exactly.
const EXACT_WIDTHS: [usize; 6] = [1, 2, 4, 8, 16, 32];
/// Limb counts that `ModRing` pads to the next instantiation (1 is
/// included for its small-top-limb shape).
const PADDED_WIDTHS: [usize; 6] = [1, 3, 5, 9, 17, 31];

/// Makes an odd modulus from random limbs: the top limb either gets its
/// top bit set (so the width cannot collapse) or is replaced by a small
/// value (1..=255), which sits far below the width's `R`.
fn shape_modulus(mut v: Vec<u64>, small_top: Option<u64>) -> BigUint {
    let last = v.len() - 1;
    match small_top {
        Some(top) => v[last] = top,
        None => v[last] |= 1 << 63,
    }
    v[0] |= 1;
    if v == [1] {
        v[0] = 3;
    }
    BigUint::from_limbs(v)
}

/// Strategy: an odd modulus of *exactly* `limbs` limbs.
fn exact_width_modulus(limbs: usize) -> impl Strategy<Value = BigUint> {
    prop::collection::vec(any::<u64>(), limbs).prop_map(|v| shape_modulus(v, None))
}

/// Strategy: an odd modulus of `limbs` limbs with a small top limb.
fn small_top_modulus(limbs: usize) -> impl Strategy<Value = BigUint> {
    (prop::collection::vec(any::<u64>(), limbs), 1u64..=255)
        .prop_map(|(v, top)| shape_modulus(v, Some(top)))
}

/// Strategy: a modulus at an exact width or at a padded one.
fn any_width_modulus() -> impl Strategy<Value = BigUint> {
    (
        0usize..12,
        prop::collection::vec(any::<u64>(), 32),
        1u64..=255,
    )
        .prop_map(|(pick, mut v, top)| {
            if pick < 6 {
                v.truncate(EXACT_WIDTHS[pick]);
                shape_modulus(v, None)
            } else {
                v.truncate(PADDED_WIDTHS[pick - 6]);
                shape_modulus(v, Some(top))
            }
        })
}

/// Strategy: a protocol-width modulus — 16 limbs (1024-bit) or
/// 32 limbs (2048-bit).
fn protocol_modulus() -> impl Strategy<Value = BigUint> {
    any::<bool>().prop_flat_map(|wide| exact_width_modulus(if wide { 32 } else { 16 }))
}

/// Strategy: an operand biased toward the edges — 0, 1, and offsets
/// that the test maps to p−1 / p / p+1 — plus random values up to a
/// little wider than the modulus (exercising the unreduced path).
fn operand() -> impl Strategy<Value = Operand> {
    (any::<u64>(), prop::collection::vec(any::<u64>(), 0..34)).prop_map(|(tag, limbs)| {
        match tag % 8 {
            0 => Operand::Zero,
            1 => Operand::One,
            2 => Operand::PMinus1,
            3 => Operand::P,
            4 => Operand::PPlus1,
            _ => Operand::Random(limbs),
        }
    })
}

/// Strategy: an exponent — the same edge values, but random ones stay
/// within two limbs so the plain reference remains affordable.
fn exponent() -> impl Strategy<Value = Operand> {
    (operand(), prop::collection::vec(any::<u64>(), 0..3)).prop_map(|(op, short)| match op {
        Operand::Random(_) => Operand::Random(short),
        edge => edge,
    })
}

#[derive(Clone, Debug)]
enum Operand {
    Zero,
    One,
    PMinus1,
    P,
    PPlus1,
    Random(Vec<u64>),
}

impl Operand {
    fn value(&self, p: &BigUint) -> BigUint {
        match self {
            Operand::Zero => BigUint::zero(),
            Operand::One => BigUint::one(),
            Operand::PMinus1 => p - &BigUint::one(),
            Operand::P => p.clone(),
            Operand::PPlus1 => p + &BigUint::one(),
            Operand::Random(limbs) => BigUint::from_limbs(limbs.clone()),
        }
    }
}

/// `∏ baseᵢ^expᵢ mod m` from the plain reference alone.
fn plain_product(pairs: &[(BigUint, BigUint)], m: &BigUint) -> BigUint {
    pairs.iter().fold(&BigUint::one() % m, |acc, (b, e)| {
        &(&acc * &modpow_plain(b, e, m)) % m
    })
}

proptest! {
    // Full-width operands make each case a real 1024/2048-bit ladder;
    // keep the case count low enough for the ci-gate smoke budget.
    #![proptest_config(ProptestConfig::with_cases(24))]

    // `pow` at every exact and padded width, edge exponents included.
    #[test]
    fn pow_matches_plain_at_every_width(m in any_width_modulus(), b in operand(), e in exponent()) {
        let ring = ModRing::new(&m);
        prop_assert!(ring.width_limbs() >= m.limbs().len());
        let base = b.value(&m);
        let exp = e.value(&m);
        prop_assert_eq!(ring.pow(&base, &exp), modpow_plain(&base, &exp, &m));
    }

    // `mul` against the plain product reduced by division.
    #[test]
    fn mul_matches_plain_product(m in any_width_modulus(), a in operand(), b in operand()) {
        let ring = ModRing::new(&m);
        let (a, b) = (a.value(&m), b.value(&m));
        prop_assert_eq!(ring.mul(&a, &b), &(&a * &b) % &m);
    }

    // The protocol widths against the reference (shorter exponents
    // keep the reference affordable).
    #[test]
    fn pow_fixed_matches_plain_reference(
        m in protocol_modulus(),
        b in operand(),
        e in prop::collection::vec(any::<u64>(), 0..2),
    ) {
        let ring = ModRing::new(&m);
        let base = b.value(&m);
        let exp = BigUint::from_limbs(e);
        prop_assert_eq!(ring.pow(&base, &exp), modpow_plain(&base, &exp, &m));
    }

    // `multi_pow_n` ≡ the plain product, for Straus, Pippenger and the
    // cost-model dispatch alike.
    #[test]
    fn multi_pow_n_fixed_matches_plain(
        m in any_width_modulus(),
        pairs in prop::collection::vec((operand(), exponent()), 0..8),
    ) {
        let ring = ModRing::new(&m);
        let vals: Vec<(BigUint, BigUint)> =
            pairs.iter().map(|(b, e)| (b.value(&m), e.value(&m))).collect();
        let refs: Vec<(&BigUint, &BigUint)> = vals.iter().map(|(b, e)| (b, e)).collect();
        let expect = plain_product(&vals, &m);
        prop_assert_eq!(ring.multi_pow_n(&refs), expect.clone());
        prop_assert_eq!(ring.multi_pow_n_straus(&refs), expect.clone());
        prop_assert_eq!(ring.multi_pow_n_pippenger(&refs), expect);
    }

    // Same equivalence at the 2048-bit width (fewer, smaller batches).
    #[test]
    fn multi_pow_n_fixed_matches_plain_2048(
        m in exact_width_modulus(32),
        pairs in prop::collection::vec((operand(), exponent()), 0..4),
    ) {
        let ring = ModRing::new(&m);
        let vals: Vec<(BigUint, BigUint)> =
            pairs.iter().map(|(b, e)| (b.value(&m), e.value(&m))).collect();
        let refs: Vec<(&BigUint, &BigUint)> = vals.iter().map(|(b, e)| (b, e)).collect();
        let expect = plain_product(&vals, &m);
        prop_assert_eq!(ring.multi_pow_n(&refs), expect.clone());
        prop_assert_eq!(ring.multi_pow_n_straus(&refs), expect.clone());
        prop_assert_eq!(ring.multi_pow_n_pippenger(&refs), expect);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Shamir `multi_pow` against the product of plain powers.
    #[test]
    fn multi_pow_fixed_matches_product(
        m in any_width_modulus(),
        b1 in operand(), e1 in exponent(),
        b2 in operand(), e2 in exponent(),
        b3 in operand(), e3 in exponent(),
    ) {
        let ring = ModRing::new(&m);
        let vals = vec![
            (b1.value(&m), e1.value(&m)),
            (b2.value(&m), e2.value(&m)),
            (b3.value(&m), e3.value(&m)),
        ];
        let refs: Vec<(&BigUint, &BigUint)> = vals.iter().map(|(b, e)| (b, e)).collect();
        prop_assert_eq!(ring.multi_pow(&refs[..2]), plain_product(&vals[..2], &m));
        prop_assert_eq!(ring.multi_pow(&refs), plain_product(&vals, &m));
    }

    // Fixed-base window tables agree with the plain reference.
    #[test]
    fn pow_fixed_base_tables_match_pow(
        m in any_width_modulus(),
        b in operand(),
        e in exponent(),
    ) {
        let ring = ModRing::new(&m);
        let base = b.value(&m);
        let exp = e.value(&m);
        ring.register_base(&base);
        prop_assert_eq!(ring.pow_fixed(&base, &exp), modpow_plain(&base, &exp, &m));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // `batch_inv` (whose internal products route through the
    // fixed-width `mul`) against per-element `modinv`.
    #[test]
    fn batch_inv_fixed_matches_modinv(
        m in any_width_modulus(),
        xs in prop::collection::vec(operand(), 0..10),
    ) {
        let ring = ModRing::new(&m);
        let vals: Vec<BigUint> = xs.iter().map(|x| x.value(&m)).collect();
        let got = ring.batch_inv(&vals);
        prop_assert_eq!(got.len(), vals.len());
        for (x, inv) in vals.iter().zip(&got) {
            prop_assert_eq!(inv, &x.modinv(&m));
        }
    }

    // Montgomery domain round-trip on the raw kernels: `to_mont` →
    // `from_mont` is the identity on reduced values, and reduces
    // unreduced ones, at exact and padded widths.
    #[test]
    fn mont_roundtrip_identity_1024(m in exact_width_modulus(16), x in operand()) {
        let fp = FpMont::<16>::new(&m).expect("exact-width odd modulus");
        let x = x.value(&m);
        prop_assert_eq!(fp.from_mont(&fp.to_mont(&x)), &x % &m);
    }

    #[test]
    fn mont_roundtrip_identity_2048(m in exact_width_modulus(32), x in operand()) {
        let fp = FpMont::<32>::new(&m).expect("exact-width odd modulus");
        let x = x.value(&m);
        prop_assert_eq!(fp.from_mont(&fp.to_mont(&x)), &x % &m);
    }

    #[test]
    fn mont_roundtrip_identity_padded(m in small_top_modulus(31), x in operand()) {
        let fp = FpMont::<32>::new(&m).expect("31-limb odd modulus pads to 32");
        let x = x.value(&m);
        prop_assert_eq!(fp.from_mont(&fp.to_mont(&x)), &x % &m);
    }
}

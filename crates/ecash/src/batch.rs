//! Combined batch verification of spends: one small-exponent check per
//! tower group for a whole deposit batch, instead of the full proof
//! gauntlet per spend.
//!
//! The expensive part of [`Spend::verify`] is exponentiations: the
//! Stadler root proof (`zkp_rounds` full-width outer exps), the
//! level-1 linked-representation proof, one OR-proof per deeper edge,
//! plus the per-edge inversions that reconstruct the OR statement.
//! Across a batch, every one of those equations becomes a
//! [`GroupClaim`] and folds into a single Bellare–Garay–Rabin combined
//! check per group (a batch with an invalid spend survives with
//! probability ≤ 2⁻⁶⁴); the edge inversions collapse into one
//! Montgomery batch inversion per tower level.
//!
//! Per-item accept/reject decisions are **bit-identical** to the
//! sequential path, by construction:
//!
//! - the structural screens (depth, edge count), the RSA bank-signature
//!   batch (itself bisection-exact) and the membership screens
//!   reproduce [`Spend::verify`]'s checks in its exact error
//!   precedence;
//! - any spend whose proofs cannot be expressed as claims (a screen
//!   inside an extractor failed) is decided by full sequential
//!   [`Spend::verify`];
//! - a combined-check failure triggers bisection whose base case is
//!   full sequential [`Spend::verify`] — the combined check only ever
//!   *accepts* whole sub-batches, never rejects an item.

use crate::coin::{edge_binding, root_tag_base, token_for};
use crate::error::DecError;
use crate::params::DecParams;
use crate::spend::Spend;
use ppms_bigint::BigUint;
use ppms_crypto::hash::hash_tagged;
use ppms_crypto::rsa::{self, RsaPublicKey};
use ppms_crypto::zkp::ddlog::DdlogStatement;
use ppms_crypto::zkp::{bisect_verify, BatchAccumulator, GroupClaim};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sub-chunk size for [`verify_batch_chunked`]: big enough that the
/// combined check amortizes well, small enough that rayon has
/// parallelism to exploit on typical deposit batches.
pub const DEPOSIT_CHUNK: usize = 16;

/// A deterministic seed for the batch multipliers, derived from the
/// batch content. Verdicts do not depend on the seed (up to the 2⁻⁶⁴
/// combined-check soundness error), but a content-derived seed makes
/// retried batches take the exact same verification path — useful for
/// replay debugging and the idempotency chaos tests.
pub fn batch_seed(spends: &[Spend], binding: &[u8]) -> u64 {
    let mut acc = u64::from_be_bytes(
        hash_tagged("dec-batch-seed", binding)[..8]
            .try_into()
            .expect("8 bytes"),
    );
    for s in spends {
        let h = hash_tagged("dec-batch-seed-item", &s.serial().to_bytes_be());
        acc = acc
            .rotate_left(17)
            .wrapping_add(u64::from_be_bytes(h[..8].try_into().expect("8 bytes")));
    }
    acc
}

/// Claims for one spend, tagged with the tower level whose group each
/// claim lives in (root + link claims in level 1, edge claims at their
/// depth).
type SpendClaims = Vec<(usize, GroupClaim)>;

/// Verifies a batch of spends with combined checks. Returns exactly
/// what mapping [`Spend::verify`] over the batch would return, item
/// for item.
///
/// Span: `ecash.batch_verify_ns`.
pub fn verify_batch<R: Rng + ?Sized>(
    rng: &mut R,
    params: &DecParams,
    bank_pk: &RsaPublicKey,
    binding: &[u8],
    spends: &[Spend],
) -> Vec<Result<u64, DecError>> {
    let _span = ppms_obs::timed!("ecash.batch_verify_ns");
    let n = spends.len();
    let mut out: Vec<Option<Result<u64, DecError>>> = vec![None; n];

    // 0. Structural screens, in Spend::verify's order.
    let mut alive: Vec<usize> = Vec::with_capacity(n);
    for (i, s) in spends.iter().enumerate() {
        let depth = s.depth();
        if depth == 0 || depth > params.levels {
            out[i] = Some(Err(DecError::BadDepth));
        } else if s.edge_proofs.len() != depth - 1 {
            out[i] = Some(Err(DecError::BadProof("edge proof count".into())));
        } else {
            alive.push(i);
        }
    }

    // 1. Bank signatures, verified per item (with the bank's
    //    e = 65537 nothing beats that), so a `false` here is precisely
    //    the sequential BadBankSignature decision.
    let tokens: Vec<Vec<u8>> = alive
        .iter()
        .map(|&i| token_for(&spends[i].root_tag))
        .collect();
    let sig_items: Vec<(&[u8], &BigUint)> = alive
        .iter()
        .zip(&tokens)
        .map(|(&i, tok)| (tok.as_slice(), &spends[i].bank_sig))
        .collect();
    let sig_ok = rsa::batch_verify(bank_pk, &sig_items);
    let mut survivors = Vec::with_capacity(alive.len());
    for (&i, ok) in alive.iter().zip(&sig_ok) {
        if *ok {
            survivors.push(i);
        } else {
            out[i] = Some(Err(DecError::BadBankSignature));
        }
    }
    let mut alive = survivors;

    // 2. Membership of the revealed keys (contains() is exact, so this
    //    is the sequential decision, in the sequential order).
    let lvl1 = params.tower.level(1);
    alive.retain(|&i| {
        let s = &spends[i];
        let member = lvl1.group.contains(&s.root_tag)
            && s.keys
                .iter()
                .enumerate()
                .all(|(j, key)| params.tower.level(j + 1).group.contains(key));
        if !member {
            out[i] = Some(Err(DecError::BadGroupElement));
        }
        member
    });

    // 3. Edge OR-statement reconstruction: the `y` values need one
    //    inversion per edge side; gather them per tower level and run
    //    one Montgomery batch inversion per level instead.
    //    edge_ys[k][d - 2] = ys for spend alive[k] at depth d.
    let mut edge_ys: Vec<Vec<[BigUint; 2]>> = alive
        .iter()
        .map(|&i| Vec::with_capacity(spends[i].depth().saturating_sub(1)))
        .collect();
    for d in 2..=params.levels {
        let lvl = params.tower.level(d);
        let mut members: Vec<usize> = Vec::new(); // positions in `alive`
        let mut denoms: Vec<BigUint> = Vec::new();
        for (k, &i) in alive.iter().enumerate() {
            let s = &spends[i];
            if s.depth() < d {
                continue;
            }
            let t_prev = &s.keys[d - 2];
            denoms.push(lvl.group.exp(&lvl.g0, t_prev));
            denoms.push(lvl.group.exp(&lvl.g1, t_prev));
            members.push(k);
        }
        if members.is_empty() {
            continue;
        }
        let invs = lvl.group.ring().batch_inv(&denoms);
        for (pos, &k) in members.iter().enumerate() {
            let s = &spends[alive[k]];
            let t_cur = &s.keys[d - 1];
            // Group elements are units mod p, so inversion never fails.
            let inv0 = invs[2 * pos].as_ref().expect("group element is a unit");
            let inv1 = invs[2 * pos + 1].as_ref().expect("group element is a unit");
            edge_ys[k].push([lvl.group.mul(t_cur, inv0), lvl.group.mul(t_cur, inv1)]);
        }
    }

    // 4. Claim extraction. Any extractor returning None sends the
    //    spend to the sequential verifier right here (same decision,
    //    same error precedence).
    let u = root_tag_base(params);
    let lvl0 = params.tower.level(0);
    let mut pending: Vec<usize> = Vec::with_capacity(alive.len());
    let mut claims: Vec<Option<SpendClaims>> = vec![None; n];
    for (k, &i) in alive.iter().enumerate() {
        let s = &spends[i];
        let depth = s.depth();
        let extracted = (|| {
            let mut cs: SpendClaims = Vec::with_capacity(2 * depth + params.zkp_rounds);
            let stmt = DdlogStatement {
                outer: &lvl1.group,
                inner: &lvl0.group,
                g: &u,
                h: &lvl0.group.g,
                y: &s.root_tag,
            };
            for c in s
                .root_proof
                .batch_claims(&stmt, params.zkp_rounds, "dec-root", binding)?
            {
                cs.push((1, c));
            }
            let gb = if s.first_bit { &lvl1.g1 } else { &lvl1.g0 };
            for c in s.link.batch_claims(
                &lvl1.group,
                &u,
                &s.root_tag,
                gb,
                &lvl1.h,
                &s.keys[0],
                binding,
            )? {
                cs.push((1, c));
            }
            for d in 2..=depth {
                let lvl = params.tower.level(d);
                let ys = &edge_ys[k][d - 2];
                let extra = edge_binding(&s.root_tag, &s.keys[d - 2], &s.keys[d - 1], d, binding);
                for c in
                    s.edge_proofs[d - 2].batch_claims(&lvl.group, &lvl.h, ys, "dec-edge", &extra)?
                {
                    cs.push((d, c));
                }
            }
            Some(cs)
        })();
        match extracted {
            Some(cs) => {
                claims[i] = Some(cs);
                pending.push(i);
            }
            None => out[i] = Some(s.verify(params, bank_pk, binding)),
        }
    }

    // 5. Combined check with bisection; base case is full sequential
    //    Spend::verify, so errors keep their canonical precedence.
    let mut results = vec![false; n];
    {
        let mut combined = |rng: &mut R, subset: &[usize]| {
            let mut acc = BatchAccumulator::new();
            for &i in subset {
                for (lvl, claim) in claims[i].as_ref().expect("pending items have claims") {
                    acc.push(rng, &params.tower.level(*lvl).group, claim);
                }
            }
            acc.verify()
        };
        let mut sequential = |i: usize| {
            let r = spends[i].verify(params, bank_pk, binding);
            let ok = r.is_ok();
            out[i] = Some(r);
            ok
        };
        bisect_verify(rng, &pending, &mut results, &mut combined, &mut sequential);
    }
    for &i in &pending {
        if results[i] && out[i].is_none() {
            out[i] = Some(Ok(params.node_value(spends[i].depth())));
        }
    }

    out.into_iter()
        .map(|o| o.expect("every spend decided"))
        .collect()
}

/// [`verify_batch`] over rayon-parallel sub-chunks of
/// [`DEPOSIT_CHUNK`] spends, each with a deterministic per-chunk RNG
/// derived from `seed`. Ordering and per-item verdicts are identical
/// to the single-chunk call.
pub fn verify_batch_chunked(
    seed: u64,
    chunk_size: usize,
    params: &DecParams,
    bank_pk: &RsaPublicKey,
    binding: &[u8],
    spends: &[Spend],
) -> Vec<Result<u64, DecError>> {
    use rayon::prelude::*;
    let chunk_size = chunk_size.max(1);
    let chunks: Vec<Vec<Result<u64, DecError>>> = spends
        .par_chunks(chunk_size)
        .enumerate()
        .map(|(ci, chunk)| {
            let mut rng =
                StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(ci as u64 + 1));
            verify_batch(&mut rng, params, bank_pk, binding, chunk)
        })
        .collect();
    chunks.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spend::NodePath;
    use crate::DecBank;

    fn setup(levels: usize) -> (DecParams, DecBank, crate::Coin, StdRng) {
        let mut rng = StdRng::seed_from_u64(0xBA7C4);
        let params = DecParams::fixture(levels, 10);
        let bank = DecBank::new(&mut rng, params.clone(), 512);
        let coin = bank.withdraw_coin(&mut rng);
        (params, bank, coin, rng)
    }

    fn spend_at(
        coin: &crate::Coin,
        params: &DecParams,
        rng: &mut StdRng,
        depth: usize,
        idx: u64,
    ) -> Spend {
        coin.spend(rng, params, &NodePath::from_index(depth, idx), b"rcv")
    }

    #[test]
    fn all_valid_batch_accepts_via_combined_check() {
        let (params, bank, coin, mut rng) = setup(3);
        let spends: Vec<Spend> = (0..4)
            .map(|i| spend_at(&coin, &params, &mut rng, 3, i))
            .collect();
        let got = verify_batch(&mut rng, &params, bank.public_key(), b"rcv", &spends);
        assert_eq!(got, vec![Ok(1); 4]);
    }

    #[test]
    fn forged_items_get_sequential_errors() {
        let (params, bank, coin, mut rng) = setup(3);
        let mut spends: Vec<Spend> = (0..6)
            .map(|i| spend_at(&coin, &params, &mut rng, 3, i))
            .collect();
        // Structural: truncate keys on item 0 (edge proof count).
        spends[0].keys.pop();
        // Bad bank signature on item 1.
        spends[1].bank_sig = (&spends[1].bank_sig + 1u64) % &bank.public_key().n;
        // Non-member serial on item 2.
        spends[2].keys[2] = BigUint::zero();
        // Tampered link response on item 3 (combined check must fail
        // and bisection must isolate exactly this item).
        spends[3].link.s0 = (&spends[3].link.s0 + 1u64) % &params.tower.level(1).group.q;
        let got = verify_batch(&mut rng, &params, bank.public_key(), b"rcv", &spends);
        let expect: Vec<Result<u64, DecError>> = spends
            .iter()
            .map(|s| s.verify(&params, bank.public_key(), b"rcv"))
            .collect();
        assert_eq!(got, expect);
        assert_eq!(got[0], Err(DecError::BadProof("edge proof count".into())));
        assert_eq!(got[1], Err(DecError::BadBankSignature));
        assert_eq!(got[2], Err(DecError::BadGroupElement));
        assert_eq!(got[3], Err(DecError::BadProof("level-1 link".into())));
        assert_eq!(got[4], Ok(1));
        assert_eq!(got[5], Ok(1));
    }

    #[test]
    fn wrong_binding_matches_sequential_error() {
        let (params, bank, coin, mut rng) = setup(2);
        let spends = vec![spend_at(&coin, &params, &mut rng, 2, 0)];
        let got = verify_batch(&mut rng, &params, bank.public_key(), b"other", &spends);
        assert_eq!(
            got[0],
            spends[0].verify(&params, bank.public_key(), b"other")
        );
        assert!(got[0].is_err());
    }

    #[test]
    fn mixed_depths_batch() {
        let (params, bank, coin, mut rng) = setup(3);
        let spends = vec![
            spend_at(&coin, &params, &mut rng, 1, 0),
            spend_at(&coin, &params, &mut rng, 2, 2),
            spend_at(&coin, &params, &mut rng, 3, 6),
        ];
        let got = verify_batch(&mut rng, &params, bank.public_key(), b"rcv", &spends);
        assert_eq!(got, vec![Ok(4), Ok(2), Ok(1)]);
    }

    #[test]
    fn chunked_matches_unchunked_and_is_seed_stable() {
        let (params, bank, coin, mut rng) = setup(2);
        let mut spends: Vec<Spend> = (0..5)
            .map(|i| spend_at(&coin, &params, &mut rng, 2, i % 4))
            .collect();
        spends[3].bank_sig = BigUint::one();
        let seed = batch_seed(&spends, b"rcv");
        let a = verify_batch_chunked(seed, 2, &params, bank.public_key(), b"rcv", &spends);
        let b = verify_batch_chunked(seed, 2, &params, bank.public_key(), b"rcv", &spends);
        assert_eq!(a, b, "same seed, same path");
        let mut rng2 = StdRng::seed_from_u64(7);
        let whole = verify_batch(&mut rng2, &params, bank.public_key(), b"rcv", &spends);
        assert_eq!(a, whole, "chunking must not change verdicts");
        assert!(verify_batch_chunked(seed, 2, &params, bank.public_key(), b"rcv", &[]).is_empty());
    }
}

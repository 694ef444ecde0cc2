//! Chaum blind signatures over RSA-FDH (paper ref \[26\]).
//!
//! Used by the DEC withdrawal: the bank signs the coin root without
//! seeing it, so the issued coin is unlinkable to the account that
//! paid for it.
//!
//! Protocol: requester computes `blinded = H(m) · r^e mod n`, signer
//! returns `blinded^d`, requester divides by `r` to get `H(m)^d` — a
//! plain FDH signature verifiable with [`super::verify`].

use super::sign::fdh;
use super::{RsaPrivateKey, RsaPublicKey};
use ppms_bigint::{random_unit_range, BigUint};
use rand::Rng;

/// The requester's secret blinding factor, kept as `r⁻¹ mod n`: the
/// inverse that proved `r` a unit while blinding is the one unblinding
/// multiplies by, so a withdrawal inverts once.
#[derive(Debug, Clone)]
pub struct BlindingFactor {
    r_inv: BigUint,
}

/// Blinds `msg` for signing. Returns the value to send to the signer
/// and the factor to keep.
pub fn blind<R: Rng + ?Sized>(
    rng: &mut R,
    pk: &RsaPublicKey,
    msg: &[u8],
) -> (BigUint, BlindingFactor) {
    let h = fdh(pk, msg);
    let ring = pk.ring();
    loop {
        let r = random_unit_range(rng, &pk.n);
        // r must be invertible mod n (overwhelmingly likely).
        let Some(r_inv) = r.modinv(&pk.n) else {
            continue;
        };
        let blinded = ring.mul(&h, &ring.pow(&r, &pk.e));
        return (blinded, BlindingFactor { r_inv });
    }
}

/// Signer's operation on a blinded value. The signer learns nothing
/// about the underlying message.
pub fn sign_blinded(sk: &RsaPrivateKey, blinded: &BigUint) -> BigUint {
    let _span = ppms_obs::timed!("rsa.blind_sign_ns");
    sk.crt().pow_secret(blinded)
}

/// Removes the blinding, yielding a standard FDH signature on `msg`.
pub fn unblind(pk: &RsaPublicKey, blinded_sig: &BigUint, factor: &BlindingFactor) -> BigUint {
    blinded_sig.modmul(&factor.r_inv, &pk.n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rsa::{sign, test_key, verify};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn blind_sign_unblind_verifies() {
        let key = test_key(40);
        let mut rng = StdRng::seed_from_u64(41);
        let (blinded, factor) = blind(&mut rng, &key.public, b"coin root token");
        let bs = sign_blinded(&key, &blinded);
        let sig = unblind(&key.public, &bs, &factor);
        assert!(verify(&key.public, b"coin root token", &sig));
    }

    #[test]
    fn unblinded_equals_direct_signature() {
        // The unblinded signature is exactly the deterministic FDH
        // signature — the signer could not have embedded a tracer.
        let key = test_key(42);
        let mut rng = StdRng::seed_from_u64(43);
        let (blinded, factor) = blind(&mut rng, &key.public, b"msg");
        let sig = unblind(&key.public, &sign_blinded(&key, &blinded), &factor);
        assert_eq!(sig, sign(&key, b"msg"));
    }

    #[test]
    fn blinded_value_hides_message() {
        // Two different messages blind (with the right factors) to any
        // value; sanity-check that equal messages give different
        // blinded values under fresh randomness.
        let key = test_key(44);
        let mut rng = StdRng::seed_from_u64(45);
        let (b1, _) = blind(&mut rng, &key.public, b"same");
        let (b2, _) = blind(&mut rng, &key.public, b"same");
        assert_ne!(b1, b2);
    }

    #[test]
    fn wrong_factor_fails() {
        let key = test_key(46);
        let mut rng = StdRng::seed_from_u64(47);
        let (blinded, _) = blind(&mut rng, &key.public, b"msg");
        let (_, wrong_factor) = blind(&mut rng, &key.public, b"msg");
        let sig = unblind(&key.public, &sign_blinded(&key, &blinded), &wrong_factor);
        assert!(!verify(&key.public, b"msg", &sig));
    }
}

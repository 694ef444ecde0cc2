//! RSA full-domain-hash signatures: `σ = H(m)^d mod n` with the hash
//! expanded over the full modulus range by MGF1.
//!
//! PPMSdec uses these for the JO's designated-receiver signature
//! (`sig = RSA_SIG_rskjo(rpksp)`, paper eq. (7)); PPMSpbs verifies the
//! recovered partially blind signature the same way.

use super::{RsaPrivateKey, RsaPublicKey};
use crate::hash::hash_to_int;
use ppms_bigint::BigUint;

/// Full-domain hash of `msg` into `[0, n)`.
pub(crate) fn fdh(pk: &RsaPublicKey, msg: &[u8]) -> BigUint {
    hash_to_int("ppms-rsa-fdh", &[msg], &pk.n)
}

/// Signs `msg` with the private key (CRT-accelerated).
pub fn sign(sk: &RsaPrivateKey, msg: &[u8]) -> BigUint {
    sk.crt().pow_secret(&fdh(&sk.public, msg))
}

/// Verifies an FDH signature.
pub fn verify(pk: &RsaPublicKey, msg: &[u8], sig: &BigUint) -> bool {
    if sig >= &pk.n {
        return false;
    }
    pk.ring().pow(sig, &pk.e) == fdh(pk, msg)
}

/// Verifies many `(msg, sig)` pairs under one key: per-item [`verify`],
/// one small `e`-exponentiation each. (A combined small-exponent batch
/// check cannot beat that at the protocol's `e = 65537`: it measured
/// below 1× of sequential verification at every batch size,
/// EXPERIMENTS.md A11/A12.)
///
/// Span: `rsa.batch_verify_ns`.
pub fn batch_verify(pk: &RsaPublicKey, items: &[(&[u8], &BigUint)]) -> Vec<bool> {
    let _span = ppms_obs::timed!("rsa.batch_verify_ns");
    items
        .iter()
        .map(|(msg, sig)| verify(pk, msg, sig))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rsa::test_key;

    #[test]
    fn sign_verify_roundtrip() {
        let key = test_key(30);
        let sig = sign(&key, b"the data report");
        assert!(verify(&key.public, b"the data report", &sig));
    }

    #[test]
    fn wrong_message_rejected() {
        let key = test_key(31);
        let sig = sign(&key, b"message A");
        assert!(!verify(&key.public, b"message B", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let key = test_key(32);
        let mut sig = sign(&key, b"msg");
        sig = &sig + 1u64;
        assert!(!verify(&key.public, b"msg", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let k1 = test_key(33);
        let k2 = test_key(34);
        let sig = sign(&k1, b"msg");
        assert!(!verify(&k2.public, b"msg", &sig));
    }

    #[test]
    fn oversized_signature_rejected() {
        let key = test_key(35);
        let sig = sign(&key, b"msg");
        let huge = &sig + &key.public.n;
        assert!(
            !verify(&key.public, b"msg", &huge),
            "sig >= n must fail fast"
        );
    }

    #[test]
    fn signing_deterministic() {
        let key = test_key(36);
        assert_eq!(sign(&key, b"m"), sign(&key, b"m"));
    }

    #[test]
    fn batch_verify_matches_sequential() {
        let key = test_key(37);
        let msgs: Vec<Vec<u8>> = (0..6).map(|i| vec![i as u8; 10]).collect();
        let mut sigs: Vec<BigUint> = msgs.iter().map(|m| sign(&key, m)).collect();
        let items: Vec<(&[u8], &BigUint)> = msgs
            .iter()
            .zip(&sigs)
            .map(|(m, s)| (m.as_slice(), s))
            .collect();
        assert_eq!(
            batch_verify(&key.public, &items),
            vec![true; 6],
            "all-valid batch must pass"
        );

        // Corrupt one signature and oversize another.
        sigs[1] = (&sigs[1] + 1u64) % &key.public.n;
        sigs[4] = &key.public.n + 1u64;
        let items: Vec<(&[u8], &BigUint)> = msgs
            .iter()
            .zip(&sigs)
            .map(|(m, s)| (m.as_slice(), s))
            .collect();
        assert_eq!(
            batch_verify(&key.public, &items),
            vec![true, false, true, true, false, true]
        );
        assert!(batch_verify(&key.public, &[]).is_empty());
    }
}

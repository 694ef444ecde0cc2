//! RSA partially blind signatures (Chien–Jan–Tseng style, paper ref
//! \[40\]) — the "light-weight digital coin" of PPMSpbs.
//!
//! A partially blind signature binds **common information** `info`
//! (agreed by both parties — in PPMSpbs the pre-agreed serial number
//! `s`) into a signature on a message the signer never sees (the SP's
//! one-time public key).
//!
//! Construction: the common info is folded into the public exponent,
//! `e_info = e · F(info)` with `F` an odd full-domain hash. The signer
//! derives the matching private exponent `d_info = e_info⁻¹ mod φ(n)`
//! and the rest is Chaum blinding under `e_info`:
//!
//! * requester: `α = H(m) · r^{e_info} mod n`
//! * signer:    `β = α^{d_info} mod n`
//! * requester: `σ = β · r⁻¹ mod n`, so `σ^{e_info} = H(m)`.
//!
//! Anyone can verify with only `(n, e)`, `info` and `m` — and changing
//! `info` (a different serial) invalidates the signature, which is how
//! the bank enforces serial freshness at deposit.

use super::sign::fdh;
use super::{RsaPrivateKey, RsaPublicKey};
use crate::hash::hash_to_int;
use ppms_bigint::{random_unit_range, BigUint};
use rand::Rng;

/// Derives the common-info exponent factor `F(info)`: the first
/// probable prime at or above a 128-bit hash of `info`. Primality
/// makes `gcd(F, φ(n)) = 1` overwhelmingly likely (a random *odd* F
/// would share the factor 3 with φ(n) a third of the time). The
/// derivation is deterministic, so signer and verifier agree.
fn info_exponent(info: &[u8]) -> BigUint {
    use rand::SeedableRng;
    let bound = BigUint::one() << 128usize;
    let mut f = hash_to_int("ppms-pbs-info", &[info], &bound);
    f.set_bit(0, true);
    f.set_bit(127, true); // keep the width fixed during the scan
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x9B5_1F0Eu64);
    while !ppms_primes::miller_rabin::is_probable_prime_rounds(&f, 32, &mut rng) {
        f = &f + &BigUint::two();
    }
    f
}

/// Full public exponent for `info`: `e · F(info)`.
fn full_exponent(pk: &RsaPublicKey, info: &[u8]) -> BigUint {
    &pk.e * &info_exponent(info)
}

/// Requester-side blinding state: `r⁻¹ mod n`, computed once while
/// blinding checks that `r` is a unit.
#[derive(Debug, Clone)]
pub struct PbsBlinding {
    r_inv: BigUint,
}

/// Errors from the signer side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PbsError {
    /// `e·F(info)` shares a factor with `φ(n)` — astronomically rare;
    /// the requester should pick a fresh serial.
    BadInfo,
}

impl std::fmt::Display for PbsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "common info exponent not invertible; pick a fresh serial"
        )
    }
}

impl std::error::Error for PbsError {}

/// Blinds `msg` under common info `info`.
pub fn pbs_blind<R: Rng + ?Sized>(
    rng: &mut R,
    pk: &RsaPublicKey,
    info: &[u8],
    msg: &[u8],
) -> (BigUint, PbsBlinding) {
    let h = fdh(pk, msg);
    let e_info = full_exponent(pk, info);
    let ring = pk.ring();
    loop {
        let r = random_unit_range(rng, &pk.n);
        let Some(r_inv) = r.modinv(&pk.n) else {
            continue;
        };
        let alpha = ring.mul(&h, &ring.pow(&r, &e_info));
        return (alpha, PbsBlinding { r_inv });
    }
}

/// Signer's operation: raises the blinded value to the per-info
/// private exponent. Signer sees `info` but not `msg`. The derived
/// exponent goes through the key's CRT context (reduced per prime
/// factor), the same fast path as ordinary secret-key operations.
pub fn pbs_sign(sk: &RsaPrivateKey, info: &[u8], alpha: &BigUint) -> Result<BigUint, PbsError> {
    let _span = ppms_obs::timed!("rsa.pbs_sign_ns");
    let e_info = full_exponent(&sk.public, info);
    let d_info = e_info.modinv(&sk.phi).ok_or(PbsError::BadInfo)?;
    Ok(sk.crt().pow(alpha, &d_info))
}

/// Requester-side unblinding: `σ = β · r⁻¹`.
pub fn pbs_unblind(pk: &RsaPublicKey, beta: &BigUint, blinding: &PbsBlinding) -> BigUint {
    beta.modmul(&blinding.r_inv, &pk.n)
}

/// Public verification: `σ^{e·F(info)} == H(m) mod n`.
pub fn pbs_verify(pk: &RsaPublicKey, info: &[u8], msg: &[u8], sig: &BigUint) -> bool {
    let _span = ppms_obs::timed!("rsa.pbs_verify_ns");
    if sig >= &pk.n || sig.is_zero() {
        return false;
    }
    pk.ring().pow(sig, &full_exponent(pk, info)) == fdh(pk, msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rsa::test_key;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run(seed: u64, info: &[u8], msg: &[u8]) -> (crate::rsa::RsaPrivateKey, BigUint) {
        let key = test_key(50 + seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let (alpha, blinding) = pbs_blind(&mut rng, &key.public, info, msg);
        let beta = pbs_sign(&key, info, &alpha).unwrap();
        let sig = pbs_unblind(&key.public, &beta, &blinding);
        (key, sig)
    }

    #[test]
    fn full_protocol_verifies() {
        let (key, sig) = run(1, b"serial-0001", b"sp one-time pubkey bytes");
        assert!(pbs_verify(
            &key.public,
            b"serial-0001",
            b"sp one-time pubkey bytes",
            &sig
        ));
    }

    #[test]
    fn verification_binds_info() {
        // The deposit-side freshness check hinges on this: a signature
        // under serial A must not verify under serial B.
        let (key, sig) = run(2, b"serial-A", b"msg");
        assert!(!pbs_verify(&key.public, b"serial-B", b"msg", &sig));
    }

    #[test]
    fn verification_binds_message() {
        let (key, sig) = run(3, b"serial", b"honest msg");
        assert!(!pbs_verify(&key.public, b"serial", b"forged msg", &sig));
    }

    #[test]
    fn signer_view_independent_of_message() {
        // Same message blinded twice gives different alphas.
        let key = test_key(99);
        let mut rng = StdRng::seed_from_u64(4);
        let (a1, _) = pbs_blind(&mut rng, &key.public, b"i", b"m");
        let (a2, _) = pbs_blind(&mut rng, &key.public, b"i", b"m");
        assert_ne!(a1, a2);
    }

    #[test]
    fn zero_signature_rejected() {
        let key = test_key(98);
        assert!(!pbs_verify(&key.public, b"i", b"m", &BigUint::zero()));
    }

    #[test]
    fn tampered_signature_rejected() {
        let (key, sig) = run(5, b"serial", b"msg");
        assert!(!pbs_verify(&key.public, b"serial", b"msg", &(&sig + 1u64)));
    }
}

//! Property-based tests for the crypto substrate: RSA round-trips,
//! blind/partially-blind signature laws, ZKP completeness over random
//! witnesses, Pedersen homomorphism, and pairing bilinearity over
//! random scalars.
//!
//! Key generation is expensive, so each property reuses a small pool
//! of deterministic fixtures and lets proptest vary the *data*.

use ppms_bigint::BigUint;
use ppms_crypto::group::SchnorrGroup;
use ppms_crypto::pairing::TypeAPairing;
use ppms_crypto::pedersen::PedersenParams;
use ppms_crypto::rsa;
use ppms_crypto::zkp::orproof::OrProof;
use ppms_crypto::zkp::repr::ReprProof;
use ppms_crypto::zkp::schnorr::{self, SchnorrProof};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

fn rsa_key() -> &'static rsa::RsaPrivateKey {
    static KEY: OnceLock<rsa::RsaPrivateKey> = OnceLock::new();
    KEY.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xF1);
        rsa::keygen(&mut rng, 512)
    })
}

fn group() -> &'static SchnorrGroup {
    static G: OnceLock<SchnorrGroup> = OnceLock::new();
    G.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xF2);
        SchnorrGroup::generate(&mut rng, 64)
    })
}

fn pairing() -> &'static TypeAPairing {
    static P: OnceLock<TypeAPairing> = OnceLock::new();
    P.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xF3);
        TypeAPairing::generate(&mut rng, 40)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn oaep_roundtrip(msg in prop::collection::vec(any::<u8>(), 0..300), seed in any::<u64>()) {
        let key = rsa_key();
        let mut rng = StdRng::seed_from_u64(seed);
        let ct = rsa::encrypt(&mut rng, &key.public, &msg);
        prop_assert_eq!(rsa::decrypt(key, &ct).unwrap(), msg);
    }

    #[test]
    fn oaep_tamper_never_decrypts_to_plaintext(msg in prop::collection::vec(any::<u8>(), 1..100), seed in any::<u64>(), flip in any::<(u16, u8)>()) {
        let key = rsa_key();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ct = rsa::encrypt(&mut rng, &key.public, &msg);
        let pos = flip.0 as usize % ct.len();
        let bit = 1u8 << (flip.1 % 8);
        ct[pos] ^= bit;
        match rsa::decrypt(key, &ct) {
            Err(_) => {}
            Ok(out) => prop_assert_ne!(out, msg, "tampered ciphertext must not silently decrypt"),
        }
    }

    #[test]
    fn decrypt_never_panics_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..=3 * 64)) {
        // The SP decrypts whatever bytes the MA hands it: every shape
        // is refused with an error, never a panic. Each case tries the
        // drawn bytes, the two lengths around the minimum `k + 32`,
        // and a KEM block of all 0xff (an integer above `n`).
        let key = rsa_key();
        let k = key.public.size_bytes();
        prop_assert_eq!(k, 64);
        let resized = |len: usize| {
            let mut v = bytes.clone();
            v.resize(len, 0x3C);
            v
        };
        let mut high_kem = resized(bytes.len().max(k + 32));
        high_kem[..k].fill(0xFF);
        for ct in [bytes.clone(), resized(k + 31), resized(k + 32), high_kem] {
            let expected = if ct.len() < k + 32 {
                rsa::encrypt::DecryptError::BadLength
            } else {
                rsa::encrypt::DecryptError::BadPadding
            };
            prop_assert_eq!(rsa::decrypt(key, &ct), Err(expected), "len {}", ct.len());
        }
    }

    #[test]
    fn fdh_sign_verify(msg in prop::collection::vec(any::<u8>(), 0..200)) {
        let key = rsa_key();
        let sig = rsa::sign(key, &msg);
        prop_assert!(rsa::verify(&key.public, &msg, &sig));
        let mut other = msg.clone();
        other.push(0x55);
        prop_assert!(!rsa::verify(&key.public, &other, &sig));
    }

    #[test]
    fn blind_signature_equals_direct(msg in prop::collection::vec(any::<u8>(), 1..100), seed in any::<u64>()) {
        let key = rsa_key();
        let mut rng = StdRng::seed_from_u64(seed);
        let (blinded, factor) = rsa::blind(&mut rng, &key.public, &msg);
        let sig = rsa::unblind(&key.public, &rsa::sign_blinded(key, &blinded), &factor);
        prop_assert_eq!(sig, rsa::sign(key, &msg));
    }

    #[test]
    fn pbs_binds_info_and_message(info in prop::collection::vec(any::<u8>(), 1..40), msg in prop::collection::vec(any::<u8>(), 1..100), seed in any::<u64>()) {
        let key = rsa_key();
        let mut rng = StdRng::seed_from_u64(seed);
        let (alpha, blinding) = rsa::pbs_blind(&mut rng, &key.public, &info, &msg);
        let beta = rsa::pbs_sign(key, &info, &alpha).unwrap();
        let sig = rsa::pbs_unblind(&key.public, &beta, &blinding);
        prop_assert!(rsa::pbs_verify(&key.public, &info, &msg, &sig));
        // Different info rejects.
        let mut info2 = info.clone();
        info2.push(1);
        prop_assert!(!rsa::pbs_verify(&key.public, &info2, &msg, &sig));
        // Different message rejects.
        let mut msg2 = msg.clone();
        msg2[0] ^= 1;
        prop_assert!(!rsa::pbs_verify(&key.public, &info, &msg2, &sig));
    }

    #[test]
    fn schnorr_completeness(seed in any::<u64>(), extra in prop::collection::vec(any::<u8>(), 0..32)) {
        let g = group();
        let mut rng = StdRng::seed_from_u64(seed);
        let x = g.random_exponent(&mut rng);
        let y = g.g_exp(&x);
        let proof = SchnorrProof::prove(&mut rng, g, &g.g.clone(), &y, &x, "prop", &extra);
        prop_assert!(proof.verify(g, &g.g, &y, "prop", &extra));
    }

    #[test]
    fn schnorr_soundness_wrong_statement(seed in any::<u64>(), delta in 1u64..1000) {
        let g = group();
        let mut rng = StdRng::seed_from_u64(seed);
        let x = g.random_exponent(&mut rng);
        let y = g.g_exp(&x);
        let y2 = g.g_exp(&((&x + delta) % &g.q));
        let proof = SchnorrProof::prove(&mut rng, g, &g.g.clone(), &y, &x, "prop", b"");
        if y != y2 {
            prop_assert!(!proof.verify(g, &g.g, &y2, "prop", b""));
        }
    }

    #[test]
    fn repr_completeness(seed in any::<u64>(), n_bases in 1usize..5) {
        let g = group();
        let mut rng = StdRng::seed_from_u64(seed);
        let bases: Vec<BigUint> = (0..n_bases).map(|i| g.derive_generator(&format!("b{i}"))).collect();
        let xs: Vec<BigUint> = (0..n_bases).map(|_| g.random_exponent(&mut rng)).collect();
        let mut y = BigUint::one();
        for (b, x) in bases.iter().zip(&xs) {
            y = g.mul(&y, &g.exp(b, x));
        }
        let proof = ReprProof::prove(&mut rng, g, &bases, &y, &xs, "prop", b"");
        prop_assert!(proof.verify(g, &bases, &y, "prop", b""));
    }

    #[test]
    fn or_proof_completeness_both_branches(seed in any::<u64>(), known in 0usize..2) {
        let g = group();
        let mut rng = StdRng::seed_from_u64(seed);
        let x = g.random_exponent(&mut rng);
        let mut ys = [g.random_element(&mut rng), g.random_element(&mut rng)];
        ys[known] = g.g_exp(&x);
        let proof = OrProof::prove(&mut rng, g, &g.g.clone(), &ys, &x, known, "prop", b"");
        prop_assert!(proof.verify(g, &g.g, &ys, "prop", b""));
    }

    #[test]
    fn schnorr_batch_matches_sequential_under_forgeries(
        seed in any::<u64>(),
        n in 1usize..12,
        bad_mask in any::<u16>(),
    ) {
        // Batch verify must return exactly the sequential verdicts:
        // true for every honest proof, false for every injected
        // forgery, with the bisection naming exactly the bad indices.
        let g = group();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut proofs = Vec::new();
        let mut ys = Vec::new();
        let mut expected = Vec::new();
        for i in 0..n {
            let x = g.random_exponent(&mut rng);
            let y = g.g_exp(&x);
            let mut proof = SchnorrProof::prove(&mut rng, g, &g.g.clone(), &y, &x, "batch", b"");
            let bad = bad_mask & (1 << i) != 0;
            if bad {
                // Forge by perturbing the response.
                proof.s = (&proof.s + 1u64) % &g.q;
            }
            expected.push(!bad);
            proofs.push(proof);
            ys.push(y);
        }
        let items: Vec<schnorr::BatchItem> = proofs
            .iter()
            .zip(&ys)
            .map(|(proof, y)| schnorr::BatchItem { proof, g: &g.g, y, domain: "batch", extra: b"" })
            .collect();
        let got = schnorr::batch_verify(&mut rng, g, &items);
        prop_assert_eq!(&got, &expected);
        // And bit-identical to per-item sequential verification.
        let sequential: Vec<bool> = items
            .iter()
            .map(|it| it.proof.verify(g, it.g, it.y, it.domain, it.extra))
            .collect();
        prop_assert_eq!(got, sequential);
    }

    #[test]
    fn rsa_batch_matches_sequential_under_forgeries(
        seed in any::<u64>(),
        n in 1usize..10,
        bad_mask in any::<u16>(),
    ) {
        let key = rsa_key();
        let msgs: Vec<Vec<u8>> = (0..n).map(|i| format!("report-{seed}-{i}").into_bytes()).collect();
        let mut sigs: Vec<BigUint> = msgs.iter().map(|m| rsa::sign(key, m)).collect();
        let mut expected = Vec::new();
        for (i, sig) in sigs.iter_mut().enumerate() {
            let bad = bad_mask & (1 << i) != 0;
            if bad {
                // Corrupt: off-by-one (an out-of-range variant is
                // covered below via the sig >= n fast-fail).
                *sig = (&*sig + 1u64) % &key.public.n;
            }
            expected.push(!bad);
        }
        // One oversized signature exercises the fast-fail path.
        if n > 2 && bad_mask & 1 << 14 != 0 {
            sigs[0] = &key.public.n + 5u64;
            expected[0] = false;
        }
        let items: Vec<(&[u8], &BigUint)> = msgs
            .iter()
            .zip(&sigs)
            .map(|(m, s)| (m.as_slice(), s))
            .collect();
        let got = rsa::batch_verify(&key.public, &items);
        prop_assert_eq!(&got, &expected);
        let sequential: Vec<bool> = items
            .iter()
            .map(|(m, s)| rsa::verify(&key.public, m, s))
            .collect();
        prop_assert_eq!(got, sequential);
    }

    #[test]
    fn pedersen_homomorphism(m1 in any::<u64>(), m2 in any::<u64>(), seed in any::<u64>()) {
        let g = group();
        let params = PedersenParams::new(g.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        let c1 = params.commit(&mut rng, &BigUint::from(m1));
        let c2 = params.commit(&mut rng, &BigUint::from(m2));
        let sum = params.add(&c1.value, &c2.value);
        let m = (&c1.message + &c2.message) % &g.q;
        let r = (&c1.randomness + &c2.randomness) % &g.q;
        prop_assert!(params.verify(&sum, &m, &r));
    }

    #[test]
    fn pairing_bilinearity_random_scalars(seed in any::<u64>()) {
        let e = pairing();
        let mut rng = StdRng::seed_from_u64(seed);
        let a = e.random_scalar(&mut rng);
        let b = e.random_scalar(&mut rng);
        let lhs = e.pairing(&e.g_mul(&a), &e.g_mul(&b));
        let rhs = e.gt_pow(&e.pairing(&e.g, &e.g), &a.modmul(&b, &e.r));
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn cl_signature_random_messages(seed in any::<u64>(), msg in prop::collection::vec(any::<u8>(), 0..64)) {
        let e = pairing();
        let mut rng = StdRng::seed_from_u64(seed);
        let keys = ppms_crypto::cl::ClKeyPair::generate(&mut rng, e);
        let sig = keys.sign_bytes(&mut rng, e, &msg);
        prop_assert!(sig.verify_bytes(e, &keys.public, &msg));
        let rand_sig = sig.randomize(&mut rng, e);
        prop_assert!(rand_sig.verify_bytes(e, &keys.public, &msg));
    }

    #[test]
    fn sha256_length_extension_resistant_framing(a in prop::collection::vec(any::<u8>(), 0..50), b in prop::collection::vec(any::<u8>(), 0..50)) {
        // hash_parts framing: (a, b) != (a || b) unless identical split.
        use ppms_crypto::hash::hash_parts;
        let joined = [a.clone(), b.clone()].concat();
        if !b.is_empty() {
            prop_assert_ne!(
                hash_parts("t", &[&a, &b]),
                hash_parts("t", &[&joined]),
                "length-prefixed framing must distinguish part boundaries"
            );
        }
    }
}

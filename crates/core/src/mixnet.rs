//! A decryption **mix network** — the network-level anonymization the
//! paper's trust model assumes (§III-B: "the communications between
//! each JO/SP and the MA are anonymized on the networking level using
//! IP/MAC recycling and/or Mix Networks").
//!
//! Chaumian decryption mix: the sender onion-encrypts its message
//! under the mix nodes' RSA keys (innermost layer = last node), each
//! node collects a batch, strips one layer, **shuffles**, and forwards.
//! Each layer is one hybrid [`rsa::encrypt`](fn@rsa::encrypt) — a `k`-byte KEM block in
//! front, a 32-byte tag behind — so an `h`-hop onion is exactly
//! `h·(k + 32)` bytes longer than its message.
//! With at least one honest node, the input-to-output permutation is
//! hidden from everyone else; the MA receives plaintexts it cannot map
//! back to senders.
//!
//! The market itself treats this as an assumption (the protocols never
//! inspect network addresses); this module exists so the assumption is
//! *implemented and testable* rather than hand-waved: the privacy test
//! checks that output order is decorrelated from input order while the
//! multiset of messages is preserved.

use ppms_crypto::rsa::{self, RsaPrivateKey, RsaPublicKey};
use rand::seq::SliceRandom;
use rand::Rng;

/// One mix node: an RSA keypair plus batch processing.
pub struct MixNode {
    key: RsaPrivateKey,
}

/// Errors from mix processing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MixError {
    /// A layer failed to decrypt (malformed onion or wrong route).
    BadOnion,
}

impl std::fmt::Display for MixError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "onion layer failed to decrypt")
    }
}

impl std::error::Error for MixError {}

impl MixNode {
    /// Creates a node with a fresh key.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, rsa_bits: usize) -> MixNode {
        MixNode {
            key: rsa::keygen(rng, rsa_bits),
        }
    }

    /// The node's public key (senders need it to build onions).
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.key.public
    }

    /// Strips one onion layer from every message in the batch and
    /// returns the *shuffled* next-hop batch. The shuffle is the whole
    /// point: it breaks the positional correlation between inputs and
    /// outputs.
    pub fn process_batch<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        batch: &[Vec<u8>],
    ) -> Result<Vec<Vec<u8>>, MixError> {
        let mut out = Vec::with_capacity(batch.len());
        for onion in batch {
            out.push(rsa::decrypt(&self.key, onion).map_err(|_| MixError::BadOnion)?);
        }
        out.shuffle(rng);
        Ok(out)
    }
}

/// A cascade of mix nodes with a fixed route.
pub struct MixCascade {
    nodes: Vec<MixNode>,
}

impl MixCascade {
    /// Builds a cascade of `n` nodes.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, n: usize, rsa_bits: usize) -> MixCascade {
        assert!(n >= 1);
        MixCascade {
            nodes: (0..n).map(|_| MixNode::new(rng, rsa_bits)).collect(),
        }
    }

    /// Number of hops.
    pub fn hops(&self) -> usize {
        self.nodes.len()
    }

    /// Sender-side onion construction: encrypt under the *last* node's
    /// key first, then wrap outward so the first node strips first.
    pub fn build_onion<R: Rng + ?Sized>(&self, rng: &mut R, message: &[u8]) -> Vec<u8> {
        let mut onion = message.to_vec();
        for node in self.nodes.iter().rev() {
            onion = rsa::encrypt(rng, node.public_key(), &onion);
        }
        onion
    }

    /// Runs a batch through the whole cascade; the output is the
    /// plaintext multiset in an order unlinkable to the input order.
    pub fn run_batch<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        onions: &[Vec<u8>],
    ) -> Result<Vec<Vec<u8>>, MixError> {
        let mut batch = onions.to_vec();
        for node in &self.nodes {
            batch = node.process_batch(rng, &batch)?;
        }
        Ok(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn single_node_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let cascade = MixCascade::new(&mut rng, 1, 512);
        let onion = cascade.build_onion(&mut rng, b"labor registration");
        let out = cascade.run_batch(&mut rng, &[onion]).unwrap();
        assert_eq!(out, vec![b"labor registration".to_vec()]);
    }

    #[test]
    fn three_hop_batch_preserves_multiset() {
        let mut rng = StdRng::seed_from_u64(2);
        let cascade = MixCascade::new(&mut rng, 3, 512);
        let messages: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 20]).collect();
        let onions: Vec<Vec<u8>> = messages
            .iter()
            .map(|m| cascade.build_onion(&mut rng, m))
            .collect();
        let mut out = cascade.run_batch(&mut rng, &onions).unwrap();
        let mut expected = messages.clone();
        out.sort();
        expected.sort();
        assert_eq!(out, expected, "all messages delivered exactly once");
    }

    #[test]
    fn onion_grows_by_one_kem_block_and_tag_per_layer() {
        let mut rng = StdRng::seed_from_u64(7);
        let cascade = MixCascade::new(&mut rng, 3, 512);
        let layer = cascade.nodes[0].public_key().size_bytes() + 32;
        let messages: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 40 + i as usize]).collect();
        let mut batch: Vec<Vec<u8>> = messages
            .iter()
            .map(|m| cascade.build_onion(&mut rng, m))
            .collect();
        for (onion, m) in batch.iter().zip(&messages) {
            assert_eq!(onion.len(), m.len() + 3 * layer);
        }
        // Each hop strips exactly one layer from every onion; the
        // shuffle hides which is which, so compare sorted lengths.
        for (hop, node) in cascade.nodes.iter().enumerate() {
            batch = node.process_batch(&mut rng, &batch).unwrap();
            let layers_left = cascade.hops() - hop - 1;
            let mut lens: Vec<usize> = batch.iter().map(Vec::len).collect();
            let mut expected: Vec<usize> = messages
                .iter()
                .map(|m| m.len() + layers_left * layer)
                .collect();
            lens.sort();
            expected.sort();
            assert_eq!(lens, expected, "after hop {hop}");
        }
        let mut expected = messages;
        batch.sort();
        expected.sort();
        assert_eq!(batch, expected, "all messages delivered exactly once");
    }

    #[test]
    fn output_order_decorrelated_from_input() {
        // Over many batches, the identity permutation should be rare —
        // with 6 messages, P(identity) = 1/720 per batch.
        let mut rng = StdRng::seed_from_u64(3);
        let cascade = MixCascade::new(&mut rng, 2, 512);
        let messages: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i; 4]).collect();
        let mut identity_count = 0;
        let trials = 20;
        for _ in 0..trials {
            let onions: Vec<Vec<u8>> = messages
                .iter()
                .map(|m| cascade.build_onion(&mut rng, m))
                .collect();
            let out = cascade.run_batch(&mut rng, &onions).unwrap();
            if out == messages {
                identity_count += 1;
            }
        }
        assert!(
            identity_count <= 1,
            "shuffle must actually permute ({identity_count}/{trials} identity)"
        );
    }

    #[test]
    fn onion_layers_look_independent() {
        // The same message onion-built twice yields different bytes at
        // every layer (OAEP randomness) — no watermarking by content.
        let mut rng = StdRng::seed_from_u64(4);
        let cascade = MixCascade::new(&mut rng, 2, 512);
        let o1 = cascade.build_onion(&mut rng, b"same");
        let o2 = cascade.build_onion(&mut rng, b"same");
        assert_ne!(o1, o2);
    }

    #[test]
    fn malformed_onion_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        let cascade = MixCascade::new(&mut rng, 2, 512);
        let mut onion = cascade.build_onion(&mut rng, b"x");
        onion[3] ^= 0xFF;
        assert_eq!(
            cascade.run_batch(&mut rng, &[onion]),
            Err(MixError::BadOnion)
        );
    }

    #[test]
    fn wrong_route_rejected() {
        let mut rng = StdRng::seed_from_u64(6);
        let c1 = MixCascade::new(&mut rng, 2, 512);
        let c2 = MixCascade::new(&mut rng, 2, 512);
        let onion = c1.build_onion(&mut rng, b"x");
        assert!(c2.run_batch(&mut rng, &[onion]).is_err());
    }
}

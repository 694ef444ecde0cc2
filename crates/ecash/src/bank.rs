//! The DEC-side bank: blind issuance at withdrawal and deposit with
//! double-spend detection over the coin tree.
//!
//! PPMSdec's market administrator owns one of these. The detection
//! rules implement the binary-tree divisibility semantics: a node
//! conflicts with itself, any ancestor and any descendant; disjoint
//! nodes coexist. Because every spend reveals its ancestor keys, the
//! bank can enforce this with two hash sets — no tree reconstruction.

use crate::coin::Coin;
use crate::error::DecError;
use crate::params::DecParams;
use crate::spend::Spend;
use ppms_bigint::BigUint;
use ppms_crypto::hash::hash_tagged;
use ppms_crypto::rsa::{self, RsaPrivateKey, RsaPublicKey};
use rand::Rng;
use std::collections::{HashMap, HashSet};

/// The bank component of the DEC scheme.
#[derive(Debug)]
pub struct DecBank {
    params: DecParams,
    key: RsaPrivateKey,
    /// Hashes of spent serials.
    spent: HashSet<[u8; 32]>,
    /// Hashes of every revealed ancestor key of a spent node.
    ancestors: HashSet<[u8; 32]>,
    /// Total value deposited per coin (keyed by root-tag hash).
    coin_totals: HashMap<[u8; 32], u64>,
}

fn key_hash(k: &BigUint) -> [u8; 32] {
    hash_tagged("dec-serial", &k.to_bytes_be())
}

impl DecBank {
    /// Creates a bank with a fresh blind-signing key of `rsa_bits`.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, params: DecParams, rsa_bits: usize) -> DecBank {
        DecBank {
            params,
            key: rsa::keygen(rng, rsa_bits),
            spent: HashSet::new(),
            ancestors: HashSet::new(),
            coin_totals: HashMap::new(),
        }
    }

    /// The bank's public blind-signing key.
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.key.public
    }

    /// The DEC parameters this bank operates under.
    pub fn params(&self) -> &DecParams {
        &self.params
    }

    /// Withdrawal step 2 (bank side): signs a blinded coin token.
    /// The caller is responsible for debiting the withdrawer's account
    /// by the face value `2^L` (done by the market layer).
    pub fn sign_blinded(&self, blinded: &BigUint) -> BigUint {
        rsa::sign_blinded(&self.key, blinded)
    }

    /// Convenience: runs the whole withdrawal against this bank and
    /// returns a signed coin.
    pub fn withdraw_coin<R: Rng + ?Sized>(&self, rng: &mut R) -> Coin {
        let _span = ppms_obs::timed!("ecash.withdraw_ns");
        let mut coin = Coin::mint(rng, &self.params);
        let (blinded, factor) = coin.blind_token(rng, self.public_key());
        let sig = self.sign_blinded(&blinded);
        let ok = coin.attach_signature(self.public_key(), &sig, &factor);
        debug_assert!(ok, "bank's own signature must verify");
        coin
    }

    /// Deposits a spend: verifies it, runs double-spend detection, and
    /// returns the credited value.
    pub fn deposit(&mut self, spend: &Spend, binding: &[u8]) -> Result<u64, DecError> {
        let _span = ppms_obs::timed!("ecash.deposit_ns");
        let value = spend.verify(&self.params, self.public_key(), binding)?;
        self.record_deposit(spend, value)
    }

    /// Deposits a batch of spends: cryptographic verification runs as
    /// combined small-exponent batch checks over rayon-parallel
    /// sub-chunks (see [`crate::batch::verify_batch_chunked`]; per-item
    /// verdicts are bit-identical to sequential verification), then the
    /// double-spend bookkeeping is applied sequentially in order (so
    /// intra-batch conflicts resolve deterministically: first wins).
    pub fn deposit_batch(
        &mut self,
        spends: &[Spend],
        binding: &[u8],
    ) -> Vec<Result<u64, DecError>> {
        let seed = crate::batch::batch_seed(spends, binding);
        let verified = crate::batch::verify_batch_chunked(
            seed,
            crate::batch::DEPOSIT_CHUNK,
            &self.params,
            self.public_key(),
            binding,
            spends,
        );
        spends
            .iter()
            .zip(verified)
            .map(|(spend, v)| {
                let value = v?;
                self.record_deposit(spend, value)
            })
            .collect()
    }

    /// The bookkeeping half of [`DecBank::deposit`] for callers that
    /// have already verified the spend themselves (e.g. a sharded
    /// service that parallelizes verification outside the bank lock):
    /// runs only double-spend detection and face-value accounting.
    ///
    /// `value` must be the node value returned by
    /// [`Spend::verify`](crate::Spend::verify); passing an unverified
    /// spend here bypasses the cryptographic checks entirely.
    pub fn deposit_preverified(&mut self, spend: &Spend, value: u64) -> Result<u64, DecError> {
        self.record_deposit(spend, value)
    }

    /// The bookkeeping half of [`DecBank::deposit`] (verification
    /// already done): [`DecBank::check_deposit`], then
    /// [`DecBank::insert_deposit`].
    fn record_deposit(&mut self, spend: &Spend, value: u64) -> Result<u64, DecError> {
        let mark = self.check_deposit(spend, value, &[])?;
        self.insert_deposit(mark);
        Ok(value)
    }

    /// The double-spend rules, read-only: whether `spend`, worth
    /// `value`, may be deposited on top of this bank's state plus the
    /// not yet inserted `pending` marks (the spends accepted earlier in
    /// the same request, so conflicts inside one request resolve first
    /// wins). Returns what [`DecBank::insert_deposit`] records.
    pub fn check_deposit(
        &self,
        spend: &Spend,
        value: u64,
        pending: &[DepositMark],
    ) -> Result<DepositMark, DecError> {
        let serial = key_hash(spend.serial());
        let ancestors: Vec<[u8; 32]> = spend.keys[..spend.keys.len() - 1]
            .iter()
            .map(key_hash)
            .collect();
        let spent = |h: &[u8; 32]| self.spent.contains(h) || pending.iter().any(|m| m.serial == *h);

        if spent(&serial) {
            return Err(DecError::DoubleSpend("node already spent".into()));
        }
        if self.ancestors.contains(&serial) || pending.iter().any(|m| m.ancestors.contains(&serial))
        {
            return Err(DecError::DoubleSpend(
                "a descendant was already spent".into(),
            ));
        }
        if ancestors.iter().any(spent) {
            return Err(DecError::DoubleSpend(
                "an ancestor was already spent".into(),
            ));
        }

        let root = hash_tagged("dec-root-hash", &spend.root_tag.to_bytes_be());
        let total = self.coin_totals.get(&root).copied().unwrap_or(0)
            + pending
                .iter()
                .filter(|m| m.root == root)
                .map(|m| m.value)
                .sum::<u64>();
        if total + value > self.params.face_value() {
            return Err(DecError::Overspend);
        }
        Ok(DepositMark {
            serial,
            ancestors,
            root,
            value,
        })
    }

    /// Records a deposit [`DecBank::check_deposit`] accepted.
    pub fn insert_deposit(&mut self, mark: DepositMark) {
        *self.coin_totals.entry(mark.root).or_insert(0) += mark.value;
        self.spent.insert(mark.serial);
        self.ancestors.extend(mark.ancestors);
    }

    /// Number of distinct serials deposited so far.
    pub fn deposited_count(&self) -> usize {
        self.spent.len()
    }

    /// Exports the double-spend bookkeeping (spent serials, revealed
    /// ancestors, per-coin deposit totals) in a canonical sorted
    /// order — the durable tier checkpoints this alongside the
    /// ledger. The signing key is *not* part of the export: key
    /// material is provisioned separately (regenerated from the same
    /// seed in the simulated market, a sealed key file in a real
    /// deployment).
    pub fn export_state(&self) -> DecBankState {
        let mut spent: Vec<[u8; 32]> = self.spent.iter().copied().collect();
        spent.sort_unstable();
        let mut ancestors: Vec<[u8; 32]> = self.ancestors.iter().copied().collect();
        ancestors.sort_unstable();
        let mut coin_totals: Vec<([u8; 32], u64)> =
            self.coin_totals.iter().map(|(k, &v)| (*k, v)).collect();
        coin_totals.sort_unstable();
        DecBankState {
            spent,
            ancestors,
            coin_totals,
        }
    }

    /// Replaces the double-spend bookkeeping with an exported state —
    /// the recovery half of [`DecBank::export_state`].
    pub fn restore_state(&mut self, state: &DecBankState) {
        self.spent = state.spent.iter().copied().collect();
        self.ancestors = state.ancestors.iter().copied().collect();
        self.coin_totals = state.coin_totals.iter().copied().collect();
    }
}

/// What one accepted deposit adds to a [`DecBank`]'s double-spend
/// state: its serial's hash, its revealed ancestors' hashes, its
/// coin's root hash and its value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepositMark {
    serial: [u8; 32],
    ancestors: Vec<[u8; 32]>,
    root: [u8; 32],
    value: u64,
}

/// A point-in-time export of a [`DecBank`]'s double-spend state, in
/// canonical (sorted) order so two banks with equal state export
/// equal values — the crash-matrix tests compare these directly.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DecBankState {
    /// Hashes of spent serials, sorted.
    pub spent: Vec<[u8; 32]>,
    /// Hashes of revealed ancestor keys, sorted.
    pub ancestors: Vec<[u8; 32]>,
    /// `(root-tag hash, deposited total)` per coin, sorted.
    pub coin_totals: Vec<([u8; 32], u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spend::NodePath;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(levels: usize) -> (DecParams, DecBank, Coin, StdRng) {
        let mut rng = StdRng::seed_from_u64(0xBA27);
        let params = DecParams::fixture(levels, 10);
        let bank = DecBank::new(&mut rng, params.clone(), 512);
        let coin = bank.withdraw_coin(&mut rng);
        (params, bank, coin, rng)
    }

    #[test]
    fn deposit_credits_node_value() {
        let (params, mut bank, coin, mut rng) = setup(3);
        let spend = coin.spend(&mut rng, &params, &NodePath::from_index(2, 1), b"sp");
        assert_eq!(bank.deposit(&spend, b"sp"), Ok(2));
    }

    #[test]
    fn same_node_twice_rejected() {
        let (params, mut bank, coin, mut rng) = setup(2);
        let path = NodePath::from_index(2, 0);
        let s1 = coin.spend(&mut rng, &params, &path, b"a");
        let s2 = coin.spend(&mut rng, &params, &path, b"b");
        assert!(bank.deposit(&s1, b"a").is_ok());
        assert_eq!(
            bank.deposit(&s2, b"b"),
            Err(DecError::DoubleSpend("node already spent".into()))
        );
    }

    #[test]
    fn ancestor_after_descendant_rejected() {
        let (params, mut bank, coin, mut rng) = setup(3);
        let leaf = coin.spend(&mut rng, &params, &NodePath::from_index(3, 0), b"a");
        assert!(bank.deposit(&leaf, b"a").is_ok());
        // The depth-1 node above it.
        let anc = coin.spend(&mut rng, &params, &NodePath::from_index(1, 0), b"b");
        assert_eq!(
            bank.deposit(&anc, b"b"),
            Err(DecError::DoubleSpend(
                "a descendant was already spent".into()
            ))
        );
    }

    #[test]
    fn descendant_after_ancestor_rejected() {
        let (params, mut bank, coin, mut rng) = setup(3);
        let anc = coin.spend(&mut rng, &params, &NodePath::from_index(1, 1), b"a");
        assert!(bank.deposit(&anc, b"a").is_ok());
        let leaf = coin.spend(&mut rng, &params, &NodePath::from_index(3, 7), b"b");
        assert_eq!(
            bank.deposit(&leaf, b"b"),
            Err(DecError::DoubleSpend(
                "an ancestor was already spent".into()
            ))
        );
    }

    #[test]
    fn disjoint_nodes_all_deposit_and_sum_to_face_value() {
        let (params, mut bank, coin, mut rng) = setup(3);
        // Cover: depth-1 right half (4) + depth-2 node (2) + two leaves (1+1) = 8.
        let spends = [
            NodePath::from_index(1, 1),
            NodePath::from_index(2, 1),
            NodePath::from_index(3, 0),
            NodePath::from_index(3, 1),
        ];
        let mut total = 0;
        for p in &spends {
            let s = coin.spend(&mut rng, &params, p, b"sp");
            total += bank.deposit(&s, b"sp").unwrap();
        }
        assert_eq!(total, params.face_value());
    }

    #[test]
    fn overspend_rejected() {
        let (params, mut bank, coin, mut rng) = setup(2);
        // Depth-1 nodes are worth 2 each; spending both = 4 = face value. OK.
        let a = coin.spend(&mut rng, &params, &NodePath::from_index(1, 0), b"x");
        let b = coin.spend(&mut rng, &params, &NodePath::from_index(1, 1), b"x");
        assert!(bank.deposit(&a, b"x").is_ok());
        assert!(bank.deposit(&b, b"x").is_ok());
        // Any further node of this coin conflicts; craft a disjoint-tree
        // scenario instead with a second coin to show totals are per-coin.
        let coin2 = bank.withdraw_coin(&mut rng);
        let c = coin2.spend(&mut rng, &params, &NodePath::from_index(1, 0), b"x");
        assert!(
            bank.deposit(&c, b"x").is_ok(),
            "fresh coin has its own budget"
        );
        assert_eq!(bank.deposited_count(), 3);
    }

    #[test]
    fn batch_deposit_matches_sequential_semantics() {
        let (params, mut bank, coin, mut rng) = setup(3);
        // Mix: two valid disjoint nodes, one intra-batch duplicate, one
        // ancestor conflict.
        let a = coin.spend(&mut rng, &params, &NodePath::from_index(2, 0), b"x");
        let b = coin.spend(&mut rng, &params, &NodePath::from_index(2, 1), b"x");
        let dup = coin.spend(&mut rng, &params, &NodePath::from_index(2, 0), b"x");
        let anc = coin.spend(&mut rng, &params, &NodePath::from_index(1, 0), b"x");
        let results = bank.deposit_batch(&[a, b, dup, anc], b"x");
        assert_eq!(results[0], Ok(2));
        assert_eq!(results[1], Ok(2));
        assert_eq!(
            results[2],
            Err(DecError::DoubleSpend("node already spent".into()))
        );
        assert_eq!(
            results[3],
            Err(DecError::DoubleSpend(
                "a descendant was already spent".into()
            ))
        );
        assert_eq!(bank.deposited_count(), 2);
    }

    #[test]
    fn checks_change_nothing_and_pending_marks_resolve_first_wins() {
        let (params, mut bank, coin, mut rng) = setup(3);
        let leaf = coin.spend(&mut rng, &params, &NodePath::from_index(3, 0), b"x");
        let anc = coin.spend(&mut rng, &params, &NodePath::from_index(1, 0), b"x");
        let mark = bank.check_deposit(&leaf, 1, &[]).expect("fresh leaf");
        assert_eq!(
            bank.export_state(),
            DecBankState::default(),
            "a check records nothing"
        );
        // Against the pending leaf, its ancestor is refused and the
        // leaf itself is a double spend, before either is inserted.
        let pending = [mark.clone()];
        assert_eq!(
            bank.check_deposit(&anc, 4, &pending),
            Err(DecError::DoubleSpend(
                "a descendant was already spent".into()
            ))
        );
        assert_eq!(
            bank.check_deposit(&leaf, 1, &pending),
            Err(DecError::DoubleSpend("node already spent".into()))
        );
        bank.insert_deposit(mark);
        assert_eq!(bank.deposited_count(), 1);
        assert_eq!(
            bank.deposit_preverified(&leaf, 1),
            Err(DecError::DoubleSpend("node already spent".into()))
        );
    }

    #[test]
    fn batch_deposit_rejects_bad_binding() {
        let (params, mut bank, coin, mut rng) = setup(2);
        let s = coin.spend(&mut rng, &params, &NodePath::from_index(1, 0), b"alice");
        let results = bank.deposit_batch(&[s], b"bob");
        assert!(matches!(results[0], Err(DecError::BadProof(_))));
        assert_eq!(bank.deposited_count(), 0);
    }

    #[test]
    fn two_coins_do_not_interfere() {
        let (params, mut bank, coin1, mut rng) = setup(2);
        let coin2 = bank.withdraw_coin(&mut rng);
        let p = NodePath::from_index(2, 2);
        let s1 = coin1.spend(&mut rng, &params, &p, b"r");
        let s2 = coin2.spend(&mut rng, &params, &p, b"r");
        assert!(bank.deposit(&s1, b"r").is_ok());
        assert!(
            bank.deposit(&s2, b"r").is_ok(),
            "same path, different coins"
        );
    }
}

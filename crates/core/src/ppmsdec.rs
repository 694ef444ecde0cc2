//! **PPMSdec** (paper §IV, Algorithm 1): the privacy-preserving market
//! mechanism for arbitrary payments, built on divisible e-cash.
//!
//! One payment round walks the paper's phases:
//!
//! 1. *Job registration* — `JO → MA: jd, w, rpk_jo`; MA publishes on
//!    the bulletin board.
//! 2. *Money withdrawal* — JO authenticates with a CL signature on a
//!    fresh nonce (its CL public key is account-bound, paper §IV-A1),
//!    the bank debits `2^L` and blind-signs the coin root.
//! 3. *Cash break* — the payment `w` is broken per the chosen
//!    strategy (unitary / PCBA / EPCBA) and padded with fakes `E(0)`.
//! 4. *Labor registration* — `SP → MA → JO: rpk_sp`.
//! 5. *Payment submission* — JO signs the SP's one-time key
//!    (`sig = RSA_SIG_rskjo(rpk_sp)`, eq. (7)) and encrypts the coin
//!    bundle + signature under `rpk_sp` (eq. (8)).
//! 6. *Data submission / delivery* — SP's report flows through MA.
//! 7. *Payment delivery* — MA forwards the ciphertext (eq. (9)).
//! 8. *Money deposit* — SP decrypts, verifies the designation
//!    signature and each coin, then deposits the spends one by one
//!    under its real account id (eq. (11)).
//!
//! The driver records every message in the [`TrafficLog`] (→ Table II)
//! and every cryptographic operation in [`Metrics`] (→ Table I).
//! Message sizes are the **actual encoded lengths** of the
//! [`crate::wire`] envelopes those messages occupy on the wire
//! ([`wire::framed_len`]), not hand-estimates.

use crate::bank::{AccountId, Bank};
use crate::bulletin::Bulletin;
use crate::error::MarketError;
use crate::metrics::{Metrics, Op, Party};
use crate::service::{MaRequest, MaResponse};
use crate::transport::TrafficLog;
use crate::wire;
use ppms_crypto::cl::{ClKeyPair, ClPublicKey};
use ppms_crypto::pairing::TypeAPairing;
use ppms_crypto::rsa::{self, RsaPrivateKey};
use ppms_ecash::brk::{build_payment_with, NodeAllocator};
use ppms_ecash::{
    decode_payment, encode_payment, plan_break, CashBreak, Coin, DecBank, DecParams, PaymentItem,
};
use rand::Rng;
use std::collections::HashMap;

/// The market administrator's PPMSdec state: ledger, bulletin board,
/// DEC bank, pairing parameters, and account→CL-key bindings.
pub struct DecMarket {
    /// The virtual-currency ledger.
    pub bank: Bank,
    /// The public bulletin board.
    pub bulletin: Bulletin,
    /// The divisible e-cash bank (blind issuance + deposits).
    pub dec_bank: DecBank,
    /// Pairing parameters for CL authentication.
    pub pairing: TypeAPairing,
    /// Operation counters (Table I).
    pub metrics: Metrics,
    /// Message log (Table II).
    pub traffic: TrafficLog,
    cl_bindings: HashMap<AccountId, ClPublicKey>,
    withdraw_nonce: u64,
}

/// A job owner in the DEC market.
pub struct DecJobOwner {
    /// Bank account (authentic identity).
    pub account: AccountId,
    cl: ClKeyPair,
    /// Per-job pseudonymous RSA key (`rpk_jo`).
    job_key: RsaPrivateKey,
    /// The withdrawn coin, if any.
    coin: Option<Coin>,
    /// Which tree nodes of the coin are still unspent.
    allocator: NodeAllocator,
}

impl DecJobOwner {
    /// The job's pseudonymous verification key (`rpk_jo`) — what the
    /// bulletin board publishes and the SP verifies against.
    pub fn job_key_public(&self) -> ppms_crypto::rsa::RsaPublicKey {
        self.job_key.public.clone()
    }

    /// Unspent value still held in the current coin.
    pub fn change_value(&self, _params: &DecParams) -> u64 {
        if self.coin.is_some() {
            self.allocator.remaining()
        } else {
            0
        }
    }
}

/// A sensing participant in the DEC market.
pub struct DecParticipant {
    /// Bank account (authentic identity — used *only* at deposit).
    pub account: AccountId,
    /// Per-job one-time RSA key (`rpk_sp`).
    one_time: RsaPrivateKey,
}

impl DecParticipant {
    /// The one-time public key bytes (the SP's job pseudonym).
    pub fn pseudonym(&self) -> Vec<u8> {
        self.one_time.public.to_bytes()
    }
}

/// What a completed round produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecRoundOutcome {
    /// Bulletin-board job id.
    pub job_id: u64,
    /// Value credited to the SP.
    pub credited: u64,
    /// Real coins in the payment bundle.
    pub real_coins: usize,
    /// Fake coins `E(0)` in the bundle.
    pub fake_coins: usize,
    /// The deposit values the MA observed, in order — the adversary's
    /// view for the denomination attack.
    pub deposit_stream: Vec<u64>,
}

impl DecMarket {
    /// Sets up the market: DEC parameters, DEC bank (blind-signing key
    /// of `rsa_bits`), and Type-A pairing for CL authentication.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        params: DecParams,
        rsa_bits: usize,
        pairing_bits: usize,
    ) -> DecMarket {
        DecMarket {
            bank: Bank::new(),
            bulletin: Bulletin::new(),
            dec_bank: DecBank::new(rng, params, rsa_bits),
            pairing: TypeAPairing::generate(rng, pairing_bits),
            metrics: Metrics::new(),
            traffic: TrafficLog::new(),
            cl_bindings: HashMap::new(),
            withdraw_nonce: 0,
        }
    }

    /// DEC parameters in force.
    pub fn params(&self) -> &DecParams {
        self.dec_bank.params()
    }

    /// Registers a job owner: opens a funded account and binds a fresh
    /// CL public key to it (paper §IV-A1).
    pub fn register_jo<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        initial_funds: u64,
        rsa_bits: usize,
    ) -> DecJobOwner {
        let cl = ClKeyPair::generate(rng, &self.pairing);
        let account = self
            .register_jo_key(initial_funds, &cl.public)
            .expect("a generated key lies in G");
        DecJobOwner {
            account,
            cl,
            job_key: rsa::keygen(rng, rsa_bits),
            coin: None,
            allocator: NodeAllocator::new(self.dec_bank.params().levels),
        }
    }

    /// Opens a funded account bound to `clpk`, under the MA's rule:
    /// a key that is not a pair of finite points of `G` is refused with
    /// [`MarketError::BadKey`] and opens no account.
    pub fn register_jo_key(
        &mut self,
        initial_funds: u64,
        clpk: &ClPublicKey,
    ) -> Result<AccountId, MarketError> {
        if !clpk.is_valid(&self.pairing) {
            return Err(MarketError::BadKey);
        }
        let account = self.bank.open_account(initial_funds);
        self.cl_bindings.insert(account, clpk.clone());
        Ok(account)
    }

    /// Registers a sensing participant: opens an (empty) account and
    /// draws a one-time key pair for the job.
    pub fn register_sp<R: Rng + ?Sized>(&mut self, rng: &mut R, rsa_bits: usize) -> DecParticipant {
        let account = self.bank.open_account(0);
        DecParticipant {
            account,
            one_time: rsa::keygen(rng, rsa_bits),
        }
    }

    /// Phase 1 — job registration and bulletin publication.
    pub fn register_job(&mut self, jo: &DecJobOwner, description: &str, payment: u64) -> u64 {
        let pseudonym = jo.job_key.public.to_bytes();
        let size = wire::framed_len(
            Party::Jo,
            &MaRequest::PublishJob {
                description: description.to_string(),
                payment,
                pseudonym: pseudonym.clone(),
            },
        );
        self.traffic
            .record(Party::Jo, Party::Ma, "job-registration", size);
        self.bulletin
            .publish(description.to_string(), payment, pseudonym)
    }

    /// Phase 2 — money withdrawal: CL-authenticated debit of `2^L`
    /// plus blind issuance of the coin.
    pub fn withdraw<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        jo: &mut DecJobOwner,
    ) -> Result<(), MarketError> {
        // JO authenticates the withdrawal request by CL-signing a
        // fresh nonce under its account-bound key.
        self.withdraw_nonce += 1;
        let nonce = self.withdraw_nonce.to_be_bytes();
        let auth = jo.cl.sign_bytes(rng, &self.pairing, &nonce);
        self.metrics.count(Party::Jo, Op::Enc); // CL signature

        let bound = self
            .cl_bindings
            .get(&jo.account)
            .ok_or(MarketError::NoSuchAccount)?;
        if !auth.verify_bytes(&self.pairing, bound, &nonce) {
            return Err(MarketError::BadAuthentication);
        }
        self.metrics.count(Party::Ma, Op::Dec); // CL verification

        let face = self.params().face_value();
        self.bank.debit(jo.account, face)?;

        // Blind issuance: JO mints, blinds, bank signs, JO unblinds.
        let mut coin = Coin::mint(rng, self.params());
        self.metrics.count(Party::Jo, Op::Hash); // coin token
        let (blinded, factor) = coin.blind_token(rng, self.dec_bank.public_key());
        self.metrics.count(Party::Jo, Op::Enc); // blinding exponentiation
        self.traffic.record(
            Party::Jo,
            Party::Ma,
            "withdrawal-request",
            wire::framed_len(
                Party::Jo,
                &MaRequest::Withdraw {
                    account: jo.account,
                    nonce: self.withdraw_nonce,
                    auth: auth.clone(),
                    blinded: blinded.clone(),
                },
            ),
        );

        let sig = self.dec_bank.sign_blinded(&blinded);
        self.metrics.count(Party::Ma, Op::Enc); // bank blind signature
        self.traffic.record(
            Party::Ma,
            Party::Jo,
            "e-cash",
            wire::framed_len(Party::Ma, &MaResponse::BlindSignature(sig.clone())),
        );

        if !coin.attach_signature(self.dec_bank.public_key(), &sig, &factor) {
            return Err(MarketError::BadCoin("bank signature did not verify".into()));
        }
        self.metrics.count(Party::Jo, Op::Dec); // unblind + verify
        jo.coin = Some(coin);
        jo.allocator = NodeAllocator::new(self.params().levels);
        Ok(())
    }

    /// Phase 4 — labor registration: SP's one-time key travels
    /// `SP → MA → JO`.
    pub fn labor_registration(&mut self, sp: &DecParticipant) -> Vec<u8> {
        let pk = sp.pseudonym();
        self.traffic.record(
            Party::Sp,
            Party::Ma,
            "labor-registration",
            wire::framed_len(
                Party::Sp,
                &MaRequest::LaborRegister {
                    job_id: 0,
                    sp_pubkey: pk.clone(),
                },
            ),
        );
        self.traffic.record(
            Party::Ma,
            Party::Jo,
            "labor-forward",
            wire::framed_len(Party::Ma, &MaResponse::Labor(vec![pk.clone()])),
        );
        pk
    }

    /// Phases 3+5 — cash break and payment submission: breaks `w`,
    /// builds the bundle (real spends + fakes), signs the receiver's
    /// key and encrypts everything under it (paper eqs. (7)–(8)).
    /// Returns the ciphertext held by the MA and the bundle stats.
    #[allow(clippy::type_complexity)]
    pub fn submit_payment<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        jo: &mut DecJobOwner,
        sp_pubkey_bytes: &[u8],
        w: u64,
        strategy: CashBreak,
    ) -> Result<(Vec<u8>, usize, usize), MarketError> {
        // The receiver's key arrives from outside; an unusable one is
        // refused before any coin node is allocated to it.
        let sp_pk = ppms_crypto::rsa::RsaPublicKey::from_bytes(sp_pubkey_bytes)
            .ok_or(MarketError::BadPayload("sp public key".into()))?;
        let params = self.params().clone();
        let coin = jo
            .coin
            .as_ref()
            .ok_or(MarketError::BadCoin("no coin withdrawn".into()))?;
        if jo.allocator.remaining() < w {
            return Err(MarketError::InsufficientFunds);
        }

        let plan = plan_break(strategy, w, params.levels)?;
        let bank_sig_bytes = self.dec_bank.public_key().size_bytes();
        let items = build_payment_with(
            rng,
            &params,
            coin,
            &plan,
            b"",
            bank_sig_bytes,
            &mut jo.allocator,
        )?;
        let real = items
            .iter()
            .filter(|i| matches!(i, PaymentItem::Real(_)))
            .count();
        let fake = items.len() - real;
        // Every real spend carries 1 Stadler + 1 linked-repr +
        // (depth−1) OR proofs.
        for item in &items {
            if let PaymentItem::Real(s) = item {
                self.metrics.add(Party::Jo, Op::Zkp, (s.depth() + 1) as u64);
            }
        }
        // Designated-receiver signature on the SP's one-time key.
        let sig = rsa::sign(&jo.job_key, sp_pubkey_bytes);
        self.metrics.count(Party::Jo, Op::Enc);
        self.metrics.count(Party::Jo, Op::Hash);

        // Bundle + signature, encrypted under rpk_sp.
        let mut payload = encode_payment(&items);
        let sig_bytes = sig.to_bytes_be();
        payload.extend_from_slice(&(sig_bytes.len() as u32).to_be_bytes());
        payload.extend_from_slice(&sig_bytes);

        let ciphertext = rsa::encrypt(rng, &sp_pk, &payload);
        self.metrics.count(Party::Jo, Op::Enc);

        self.traffic.record(
            Party::Jo,
            Party::Ma,
            "payment-submission",
            wire::framed_len(
                Party::Jo,
                &MaRequest::SubmitPayment {
                    sp_pubkey: sp_pubkey_bytes.to_vec(),
                    ciphertext: ciphertext.clone(),
                },
            ),
        );
        Ok((ciphertext, real, fake))
    }

    /// Phase 6 — data submission (SP → MA) and delivery (MA → JO).
    pub fn submit_data(&mut self, sp: &DecParticipant, job_id: u64, data: &[u8]) {
        self.traffic.record(
            Party::Sp,
            Party::Ma,
            "data-report",
            wire::framed_len(
                Party::Sp,
                &MaRequest::SubmitData {
                    job_id,
                    sp_pubkey: sp.pseudonym(),
                    data: data.to_vec(),
                },
            ),
        );
        self.traffic.record(
            Party::Ma,
            Party::Jo,
            "data-delivery",
            wire::framed_len(Party::Ma, &MaResponse::Data(vec![data.to_vec()])),
        );
    }

    /// Phase 7 — payment delivery: MA forwards the ciphertext.
    pub fn deliver_payment(&mut self, ciphertext: &[u8]) {
        self.traffic.record(
            Party::Ma,
            Party::Sp,
            "payment-delivery",
            wire::framed_len(Party::Ma, &MaResponse::Payment(Some(ciphertext.to_vec()))),
        );
    }

    /// Phase 8 — the SP opens the payment, verifies designation and
    /// coins, then deposits every valid spend under its account.
    /// Returns the credited total and the deposit value stream the MA
    /// observed.
    pub fn deposit_payment(
        &mut self,
        sp: &DecParticipant,
        jo_job_pubkey: &ppms_crypto::rsa::RsaPublicKey,
        ciphertext: &[u8],
    ) -> Result<(u64, Vec<u64>), MarketError> {
        // Decrypt (eq. (10)).
        let payload = rsa::decrypt(&sp.one_time, ciphertext)
            .map_err(|_| MarketError::BadPayload("decrypt".into()))?;
        self.metrics.count(Party::Sp, Op::Dec);

        // Split bundle / signature (eq. (10)).
        let (items, sig) = split_bundle_and_sig(&payload)?;

        // Verify the designation signature (paper: "SP verifies the
        // validity of the sig using the JO's public key").
        if !rsa::verify(jo_job_pubkey, &sp.pseudonym(), &sig) {
            return Err(MarketError::BadPayload("designation signature".into()));
        }
        self.metrics.count(Party::Sp, Op::Dec);
        self.metrics.count(Party::Sp, Op::Hash);

        // Verify coins; fakes drop out here (paper §IV-A4).
        let params = self.params().clone();
        let bank_pk = self.dec_bank.public_key().clone();
        let mut valid = Vec::new();
        for item in &items {
            if let PaymentItem::Real(spend) = item {
                if spend.verify(&params, &bank_pk, b"").is_ok() {
                    self.metrics
                        .add(Party::Sp, Op::Zkp, (spend.depth() + 1) as u64);
                    valid.push(spend.clone());
                }
                self.metrics.count(Party::Sp, Op::Dec);
            }
        }

        // Deposit one by one (paper: "waits a random period of time
        // between two consecutive deposits" — timing simulated by the
        // market simulator; here we record the value stream).
        let mut credited = 0;
        let mut stream = Vec::new();
        for spend in &valid {
            // One deposit on the wire is a batch of one (the unified
            // service path); the SP still spaces deposits out, so each
            // spend pays its own envelope.
            let size = wire::framed_len(
                Party::Sp,
                &MaRequest::DepositBatch {
                    account: sp.account,
                    spends: vec![spend.clone()],
                },
            );
            self.traffic.record(Party::Sp, Party::Ma, "deposit", size);
            let value = self.dec_bank.deposit(spend, b"")?;
            self.metrics
                .add(Party::Ma, Op::Zkp, (spend.depth() + 1) as u64);
            self.metrics.count(Party::Ma, Op::Dec);
            self.bank.credit(sp.account, value)?;
            credited += value;
            stream.push(value);
        }
        Ok((credited, stream))
    }

    /// Optional change redemption: the JO deposits the coin's unspent
    /// nodes back into its own account.
    ///
    /// **Privacy warning** (documented deviation): all spends of one
    /// coin share the root tag `R`, so redeeming change under the JO's
    /// account lets the bank link `R` — and therefore every SP deposit
    /// of this coin — to the JO. Keep change for future payments
    /// instead when transaction-linkage privacy matters.
    pub fn redeem_change<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        jo: &mut DecJobOwner,
    ) -> Result<u64, MarketError> {
        let params = self.params().clone();
        let coin = jo
            .coin
            .as_ref()
            .ok_or(MarketError::BadCoin("no coin".into()))?;
        let nodes = jo.allocator.free_nodes();
        let mut total = 0;
        for path in &nodes {
            let spend = coin.spend(rng, &params, path, b"");
            self.metrics
                .add(Party::Jo, Op::Zkp, (spend.depth() + 1) as u64);
            let value = self.dec_bank.deposit(&spend, b"")?;
            self.bank.credit(jo.account, value)?;
            total += value;
        }
        jo.coin = None;
        jo.allocator = NodeAllocator::new(params.levels);
        Ok(total)
    }

    /// Runs one complete PPMSdec round (paper Algorithm 1).
    #[allow(clippy::too_many_arguments)] // one parameter per protocol input
    pub fn run_round<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        jo: &mut DecJobOwner,
        sp: &DecParticipant,
        description: &str,
        w: u64,
        strategy: CashBreak,
        data: &[u8],
    ) -> Result<DecRoundOutcome, MarketError> {
        let job_id = self.register_job(jo, description, w);
        if jo.coin.is_none() || jo.change_value(self.params()) < w {
            self.withdraw(rng, jo)?;
        }
        let sp_pk = self.labor_registration(sp);
        let (ciphertext, real, fake) = self.submit_payment(rng, jo, &sp_pk, w, strategy)?;
        self.submit_data(sp, job_id, data);
        self.deliver_payment(&ciphertext);
        let (credited, deposit_stream) =
            self.deposit_payment(sp, &jo.job_key.public, &ciphertext)?;
        Ok(DecRoundOutcome {
            job_id,
            credited,
            real_coins: real,
            fake_coins: fake,
            deposit_stream,
        })
    }
}

/// Splits `encode_payment(items) || len(sig) || sig` back apart.
fn split_bundle_and_sig(
    payload: &[u8],
) -> Result<(Vec<PaymentItem>, ppms_bigint::BigUint), MarketError> {
    // The bundle is self-delimiting; try progressively shorter
    // prefixes is wasteful, so parse structurally: decode_payment on
    // the full buffer fails (trailing sig), so walk the frame manually.
    // Layout: [u32 count] ([u8 tag][u32 len][bytes])* [u32 sig_len][sig]
    if payload.len() < 4 {
        return Err(MarketError::BadPayload("framing".into()));
    }
    let count = u32::from_be_bytes(payload[..4].try_into().expect("4 bytes")) as usize;
    let mut off = 4;
    for _ in 0..count {
        if payload.len() < off + 5 {
            return Err(MarketError::BadPayload("framing".into()));
        }
        let len =
            u32::from_be_bytes(payload[off + 1..off + 5].try_into().expect("4 bytes")) as usize;
        off += 5 + len;
    }
    if payload.len() < off + 4 {
        return Err(MarketError::BadPayload("framing".into()));
    }
    let bundle = &payload[..off];
    let sig_len = u32::from_be_bytes(payload[off..off + 4].try_into().expect("4 bytes")) as usize;
    if payload.len() != off + 4 + sig_len {
        return Err(MarketError::BadPayload("framing".into()));
    }
    let sig = ppms_bigint::BigUint::from_bytes_be(&payload[off + 4..]);
    let items = decode_payment(bundle).map_err(|_| MarketError::BadPayload("bundle".into()))?;
    Ok((items, sig))
}

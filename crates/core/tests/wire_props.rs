//! Property-based coverage of the wire protocol: encode∘decode is the
//! identity (witnessed by canonical re-encoding) for every
//! [`MaRequest`] / [`MaResponse`] / [`RelayPayload`] variant and for
//! the e-cash layer's own wire types, truncated buffers never decode,
//! and foreign versions are rejected. The journal's decoders (WAL
//! records, snapshots, segment files) get the same never-panic check.

use ppms_bigint::BigUint;
use ppms_core::service::{MaRequest, MaResponse};
use ppms_core::wire::{framed_len, Envelope, RelayPayload, WireDecode, WireEncode, WireError};
use ppms_core::{AccountId, MarketError, Party};
use ppms_crypto::cl::{ClPublicKey, ClSignature};
use ppms_crypto::pairing::Point;
use ppms_ecash::{DecBank, DecError, DecParams, NodePath, Spend};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

/// A real verified spend (keygen is expensive; shared across cases).
fn fixture_spend() -> &'static Spend {
    static F: OnceLock<Spend> = OnceLock::new();
    F.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0x31BE);
        let params = DecParams::fixture(2, 6);
        let bank = DecBank::new(&mut rng, params.clone(), 512);
        let coin = bank.withdraw_coin(&mut rng);
        coin.spend(&mut rng, &params, &NodePath::from_index(2, 1), b"")
    })
}

fn party(p: u64) -> Party {
    [Party::Jo, Party::Sp, Party::Ma][(p % 3) as usize]
}

fn point(x: u64, y: u64) -> Point {
    if x == 0 {
        Point::Infinity
    } else {
        Point::Affine {
            x: BigUint::from(x),
            y: BigUint::from(y),
        }
    }
}

fn clpk(a: u64, b: u64) -> ClPublicKey {
    ClPublicKey {
        x_pub: point(a, b),
        y_pub: point(b, a),
    }
}

fn clsig(a: u64, b: u64) -> ClSignature {
    ClSignature {
        a: point(a, b),
        b: point(b, a.wrapping_add(1)),
        c: point(a ^ b, b.wrapping_mul(3)),
    }
}

fn dec_error(k: u64, text: &str) -> DecError {
    match k % 8 {
        0 => DecError::BadBankSignature,
        1 => DecError::BadProof(text.to_string()),
        2 => DecError::BadGroupElement,
        3 => DecError::BadDepth,
        4 => DecError::DoubleSpend(text.to_string()),
        5 => DecError::Overspend,
        6 => DecError::FakeCoin,
        _ => DecError::BadAmount,
    }
}

fn market_error(k: u64, text: &str) -> MarketError {
    match k % 10 {
        0 => MarketError::NoSuchAccount,
        1 => MarketError::InsufficientFunds,
        2 => MarketError::BadAuthentication,
        3 => MarketError::BadPayload(text.to_string()),
        4 => MarketError::BadCoin(text.to_string()),
        5 => MarketError::StaleSerial,
        6 => MarketError::Dec(dec_error(k / 10, text)),
        7 => MarketError::NoSuchJob,
        8 => MarketError::BadKey,
        _ => MarketError::Transport(text.to_string()),
    }
}

/// Deterministically builds each of the 12 request variants from raw
/// generator material (the proptest stub has no `prop_oneof!`).
fn build_request(variant: u64, a: u64, b: u64, blob: &[u8], text: &str) -> MaRequest {
    match variant % 12 {
        0 => MaRequest::RegisterJoAccount {
            funds: a,
            clpk: clpk(a, b),
        },
        1 => MaRequest::RegisterSpAccount,
        2 => MaRequest::PublishJob {
            description: text.to_string(),
            payment: a,
            pseudonym: blob.to_vec(),
        },
        3 => MaRequest::Withdraw {
            account: AccountId(a),
            nonce: b,
            auth: clsig(a, b),
            blinded: BigUint::from(b | 1),
        },
        4 => MaRequest::LaborRegister {
            job_id: a,
            sp_pubkey: blob.to_vec(),
        },
        5 => MaRequest::FetchLabor { job_id: a },
        6 => MaRequest::SubmitPayment {
            sp_pubkey: blob.to_vec(),
            ciphertext: vec![b as u8; (a % 33) as usize],
        },
        7 => MaRequest::SubmitData {
            job_id: a,
            sp_pubkey: blob.to_vec(),
            data: text.as_bytes().to_vec(),
        },
        8 => MaRequest::FetchPayment {
            sp_pubkey: blob.to_vec(),
        },
        9 => MaRequest::FetchData { job_id: a },
        10 => MaRequest::DepositBatch {
            account: AccountId(a),
            spends: vec![fixture_spend().clone(); (b % 3) as usize],
        },
        _ => MaRequest::Balance {
            account: AccountId(a),
        },
    }
}

/// Deterministically builds each of the 11 response variants.
fn build_response(variant: u64, a: u64, b: u64, blob: &[u8], text: &str) -> MaResponse {
    match variant % 11 {
        0 => MaResponse::Account(AccountId(a)),
        1 => MaResponse::JobId(a),
        2 => MaResponse::BlindSignature(BigUint::from(a | 1)),
        3 => MaResponse::Ok,
        4 => MaResponse::Labor(vec![blob.to_vec(), vec![], vec![b as u8]]),
        5 => MaResponse::Payment(if b.is_multiple_of(2) {
            None
        } else {
            Some(blob.to_vec())
        }),
        6 => MaResponse::Data(vec![text.as_bytes().to_vec()]),
        7 => MaResponse::BatchDeposited {
            total: a,
            accepted: (b % 100) as usize,
            rejected: (a % 100) as usize,
        },
        8 => MaResponse::Balance(a),
        9 => MaResponse::Err(market_error(b, text)),
        _ => MaResponse::Busy,
    }
}

/// Deterministically builds each of the 8 relay payload variants.
fn build_relay(variant: u64, a: u64, blob: &[u8]) -> RelayPayload {
    match variant % 8 {
        0 => RelayPayload::DataReport {
            data: blob.to_vec(),
        },
        1 => RelayPayload::DataDelivery {
            data: blob.to_vec(),
        },
        2 => RelayPayload::PbsLaborRegister {
            ciphertext: blob.to_vec(),
        },
        3 => RelayPayload::PbsDesignation {
            receiver: vec![a as u8; (a % 9) as usize],
            ciphertext: blob.to_vec(),
        },
        4 => RelayPayload::PbsDesignationForward {
            ciphertext: blob.to_vec(),
        },
        5 => RelayPayload::PbsBlindRequest {
            alpha: BigUint::from(a | 1),
            serial: blob.to_vec(),
        },
        6 => RelayPayload::PbsBlindResponse {
            beta: BigUint::from(a | 1),
        },
        _ => RelayPayload::PbsDeposit {
            sig: BigUint::from(a | 1),
            sp_key: blob.to_vec(),
            jo_key: vec![a as u8; (a % 7) as usize],
            serial: vec![1, 2, 3],
        },
    }
}

/// encode∘decode = id, witnessed by canonical re-encoding (the codec
/// is deterministic, so equal bytes ⇔ equal values).
fn assert_envelope_roundtrip<T: WireEncode + WireDecode>(
    msg_id: u64,
    correlation_id: u64,
    from: Party,
    payload: T,
) -> Result<(), TestCaseError> {
    let trace_id = msg_id.wrapping_mul(0x9E37_79B9) | 1;
    let span_id = msg_id.rotate_left(11) | 1;
    let parent_id = msg_id.rotate_right(23);
    let bytes = Envelope {
        msg_id,
        correlation_id,
        trace_id,
        span_id,
        parent_id,
        party: from,
        payload,
    }
    .to_bytes();
    let back: Envelope<T> = Envelope::from_bytes(&bytes).expect("well-formed frame must decode");
    prop_assert_eq!(back.msg_id, msg_id);
    prop_assert_eq!(back.correlation_id, correlation_id);
    prop_assert_eq!(back.trace_id, trace_id);
    prop_assert_eq!(back.span_id, span_id);
    prop_assert_eq!(back.parent_id, parent_id);
    prop_assert_eq!(back.party, from);
    let re = Envelope {
        msg_id,
        correlation_id,
        trace_id,
        span_id,
        parent_id,
        party: back.party,
        payload: back.payload,
    }
    .to_bytes();
    prop_assert_eq!(bytes, re);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn requests_roundtrip(
        variant in 0u64..12,
        a in any::<u64>(),
        b in any::<u64>(),
        blob in prop::collection::vec(any::<u8>(), 0..48),
        raw_text in prop::collection::vec(any::<u8>(), 0..24),
        ids in any::<u64>(),
        p in 0u64..3,
    ) {
        let text = String::from_utf8_lossy(&raw_text).into_owned();
        let req = build_request(variant, a, b, &blob, &text);
        assert_envelope_roundtrip(ids, ids.wrapping_mul(3), party(p), req)?;
    }

    #[test]
    fn responses_roundtrip(
        variant in 0u64..11,
        a in any::<u64>(),
        b in any::<u64>(),
        blob in prop::collection::vec(any::<u8>(), 0..48),
        raw_text in prop::collection::vec(any::<u8>(), 0..24),
        ids in any::<u64>(),
    ) {
        let text = String::from_utf8_lossy(&raw_text).into_owned();
        let resp = build_response(variant, a, b, &blob, &text);
        assert_envelope_roundtrip(ids, ids ^ 0xF0F0, Party::Ma, resp)?;
    }

    #[test]
    fn relay_payloads_roundtrip(
        variant in 0u64..8,
        a in any::<u64>(),
        blob in prop::collection::vec(any::<u8>(), 0..64),
        p in 0u64..3,
    ) {
        let relay = build_relay(variant, a, &blob);
        assert_envelope_roundtrip(1, 0, party(p), relay)?;
    }

    #[test]
    fn framed_len_is_id_independent(
        variant in 0u64..12,
        a in any::<u64>(),
        b in any::<u64>(),
        blob in prop::collection::vec(any::<u8>(), 0..32),
        ids in any::<u64>(),
        p in 0u64..3,
    ) {
        let req = build_request(variant, a, b, &blob, "t");
        let expected = framed_len(party(p), &req);
        let actual = Envelope {
            msg_id: ids,
            correlation_id: !ids,
            trace_id: ids.rotate_left(17),
            span_id: ids.rotate_left(29),
            parent_id: ids.rotate_left(41),
            party: party(p),
            payload: req,
        }
        .to_bytes()
        .len();
        prop_assert_eq!(actual, expected);
    }

    #[test]
    fn truncated_frames_never_decode(
        variant in 0u64..12,
        a in any::<u64>(),
        b in any::<u64>(),
        blob in prop::collection::vec(any::<u8>(), 0..32),
        cut_frac in 0.0f64..1.0,
    ) {
        let req = build_request(variant, a, b, &blob, "payload");
        let bytes = Envelope { msg_id: 1, correlation_id: 0, trace_id: a, span_id: a ^ 2, parent_id: a ^ 3, party: Party::Jo, payload: req }.to_bytes();
        let cut = ((bytes.len() as f64) * cut_frac) as usize; // < len
        prop_assert!(Envelope::<MaRequest>::from_bytes(&bytes[..cut]).is_err());
        // Trailing garbage is rejected too.
        let mut extended = bytes.clone();
        extended.push(b as u8);
        prop_assert!(matches!(
            Envelope::<MaRequest>::from_bytes(&extended),
            Err(WireError::Trailing)
        ));
    }

    #[test]
    fn foreign_versions_rejected(
        version in (0u16..u16::MAX, 0u16..8, any::<bool>())
            .prop_map(|(wide, low, pick_low)| if pick_low { low } else { wide }),
        variant in 0u64..11,
        a in any::<u64>(),
    ) {
        // Only the current version is legitimate; everything else —
        // the retired v2/v3 included, which the low half of the
        // strategy hits often — must be rejected.
        let version = if version == ppms_core::wire::WIRE_VERSION {
            ppms_core::wire::WIRE_VERSION + 1
        } else {
            version
        };
        let resp = build_response(variant, a, a, &[7, 7], "x");
        let mut bytes = Envelope { msg_id: 2, correlation_id: 1, trace_id: a, span_id: 0, parent_id: 0, party: Party::Ma, payload: resp }.to_bytes();
        bytes[0..2].copy_from_slice(&version.to_be_bytes());
        prop_assert!(matches!(
            Envelope::<MaResponse>::from_bytes(&bytes),
            Err(WireError::BadVersion(v)) if v == version
        ));
    }

    // The framing layer's reassembly law: a concatenation of frames
    // split at *arbitrary* byte boundaries — including one byte at a
    // time — decodes to exactly the same frame sequence as the
    // contiguous stream, with nothing left in the buffer.
    #[test]
    fn frames_reassemble_across_arbitrary_splits(
        variants in prop::collection::vec(0u64..12, 1..5),
        a in any::<u64>(),
        blob in prop::collection::vec(any::<u8>(), 0..32),
        cuts in prop::collection::vec(1usize..64, 1..8),
        one_byte in any::<bool>(),
    ) {
        use ppms_core::FrameDecoder;

        let frames: Vec<Vec<u8>> = variants
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                Envelope {
                    msg_id: i as u64 + 1,
                    correlation_id: i as u64,
                    trace_id: a.rotate_left(i as u32),
                    span_id: a.rotate_left(i as u32 + 7),
                    parent_id: a.rotate_left(i as u32 + 13),
                    party: party(v),
                    payload: build_request(v, a, a ^ 1, &blob, "split"),
                }
                .to_bytes()
            })
            .collect();
        let stream: Vec<u8> = frames.concat();

        // Contiguous decode: one push yields every frame verbatim.
        let mut whole = FrameDecoder::default();
        whole.push(&stream);
        let mut contiguous = Vec::new();
        while let Some(f) = whole.next_frame().expect("contiguous stream decodes") {
            contiguous.push(f.to_vec());
        }
        prop_assert_eq!(&contiguous, &frames);
        prop_assert_eq!(whole.buffered(), 0);

        // Split decode: feed chunks whose sizes cycle through `cuts`
        // (or single bytes), draining after every push.
        let mut split = FrameDecoder::default();
        let mut reassembled = Vec::new();
        let mut offset = 0usize;
        let mut cut_idx = 0usize;
        while offset < stream.len() {
            let step = if one_byte {
                1
            } else {
                cuts[cut_idx % cuts.len()].min(stream.len() - offset)
            };
            cut_idx += 1;
            split.push(&stream[offset..offset + step]);
            offset += step;
            while let Some(f) = split.next_frame().expect("split stream decodes") {
                reassembled.push(f.to_vec());
            }
        }
        prop_assert_eq!(&reassembled, &frames);
        prop_assert_eq!(split.buffered(), 0);

        // Every reassembled frame still passes envelope decoding
        // (prefix, trailer and version checks included).
        for f in &reassembled {
            prop_assert!(Envelope::<MaRequest>::from_bytes(f).is_ok());
        }
    }

    // Reassembly is position-oblivious: cutting one frame at every
    // single interior byte boundary yields the identical frame.
    #[test]
    fn single_frame_survives_every_split_point(
        variant in 0u64..12,
        a in any::<u64>(),
        blob in prop::collection::vec(any::<u8>(), 0..24),
    ) {
        use ppms_core::FrameDecoder;

        let frame = Envelope {
            msg_id: a | 1,
            correlation_id: a,
            trace_id: !a,
            span_id: a.rotate_left(3),
            parent_id: a.rotate_left(5),
            party: party(variant),
            payload: build_request(variant, a, a.rotate_left(7), &blob, "cutpoint"),
        }
        .to_bytes();
        for cut in 1..frame.len() {
            let mut dec = FrameDecoder::default();
            dec.push(&frame[..cut]);
            prop_assert!(
                dec.next_frame().expect("prefix alone never errors").is_none(),
                "partial frame (cut {cut}) must not decode"
            );
            dec.push(&frame[cut..]);
            let got = dec
                .next_frame()
                .expect("completed frame decodes")
                .expect("frame present")
                .to_vec();
            prop_assert_eq!(&got, &frame);
            prop_assert_eq!(dec.buffered(), 0);
        }
    }

    #[test]
    fn ecash_spend_bytes_roundtrip(cut_frac in 0.0f64..1.0) {
        // The e-cash layer's own wire types obey the same laws: exact
        // byte round-trip, and no truncated prefix parses.
        let spend = fixture_spend();
        let bytes = spend.to_bytes();
        let back = Spend::from_bytes(&bytes).expect("spend decodes");
        prop_assert_eq!(&back.to_bytes(), &bytes);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        prop_assert!(Spend::from_bytes(&bytes[..cut]).is_err());
    }

    #[test]
    fn ecash_payment_bundle_roundtrip(n_real in 0usize..3, pad in 0usize..3) {
        let spend = fixture_spend();
        let items: Vec<ppms_ecash::PaymentItem> = (0..n_real)
            .map(|_| ppms_ecash::PaymentItem::Real(spend.clone()))
            .chain((0..pad).map(|i| {
                let mut rng = StdRng::seed_from_u64(i as u64);
                let params = DecParams::fixture(2, 6);
                ppms_ecash::PaymentItem::Fake(ppms_ecash::FakeCoin::matching(
                    &mut rng, &params, 2, 64,
                ))
            }))
            .collect();
        let bytes = ppms_ecash::encode_payment(&items);
        let back = ppms_ecash::decode_payment(&bytes).expect("bundle decodes");
        prop_assert_eq!(ppms_ecash::encode_payment(&back), bytes);
    }
}

/// A frame the framing layer accepts whole — current version, honest
/// length prefix, matching FNV-1a trailer — around `body`.
fn checksummed_frame(body: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(6 + body.len() + 8);
    frame.extend_from_slice(&ppms_core::wire::WIRE_VERSION.to_be_bytes());
    frame.extend_from_slice(&(body.len() as u32).to_be_bytes());
    frame.extend_from_slice(body);
    frame.extend_from_slice(&ppms_core::wire::fnv1a(body).to_be_bytes());
    frame
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    // Adversarial bytes that pass every frame-level check (version,
    // length, checksum) reach the payload decoders; each must answer
    // `Ok` or `Err`, never panic. `bare` drops the envelope header so
    // the header decode itself sees garbage; `steer` folds the first
    // payload byte into the tag range so most cases get past the
    // variant tag; a nonzero `zeros` mask clears bytes so embedded
    // length prefixes often read as plausible sizes (≤ 16 MiB, yet
    // past the buffer's end) instead of tripping the size cap.
    #[test]
    fn decoders_never_panic_on_checksummed_garbage(
        ids in any::<[u64; 5]>(),
        party_tag in 0u8..4,
        payload in prop::collection::vec(any::<u8>(), 0..=64),
        steer in any::<bool>(),
        bare in 0u8..8,
        zeros in (any::<u64>(), any::<bool>()).prop_map(|(m, on)| if on { m } else { 0 }),
    ) {
        use ppms_core::{FrameDecoder, GateRequest, GateResponse};

        let mut payload = payload;
        for (i, b) in payload.iter_mut().enumerate() {
            if zeros >> i & 1 == 1 {
                *b = 0;
            }
        }

        let mut body = Vec::with_capacity(41 + payload.len());
        for id in ids {
            body.extend_from_slice(&id.to_be_bytes());
        }
        body.push(party_tag);
        body.extend_from_slice(&payload);
        if steer && !payload.is_empty() {
            body[41] %= 24;
        }
        if bare == 0 {
            body = payload;
        }
        let frame = checksummed_frame(&body);

        let mut dec = FrameDecoder::default();
        dec.push(&frame);
        let got = dec.next_frame().expect("prefix is valid").expect("frame is whole");
        prop_assert_eq!(got, &frame[..]);
        let _ = Envelope::<GateRequest>::from_bytes(got);
        let _ = Envelope::<GateResponse>::from_bytes(got);
        let _ = Envelope::<MaRequest>::from_bytes(got);
        let _ = Envelope::<MaResponse>::from_bytes(got);
        let _ = Envelope::<RelayPayload>::from_bytes(got);
    }
}

/// Valid journal records to mutate: deep-decoding shapes (a deposit
/// carrying a real spend and its effects, a keyless withdrawal, a data
/// fetch answering a list).
fn journal_templates() -> Vec<Vec<u8>> {
    use ppms_core::service::RequestKey;
    use ppms_core::WalRecord;
    use ppms_obs::SpanContext;
    let key = Some(RequestKey {
        party: Party::Sp,
        request_id: 7,
    });
    let records = [
        WalRecord {
            key,
            span: SpanContext::from_trace(9),
            request: MaRequest::DepositBatch {
                account: AccountId(3),
                spends: vec![fixture_spend().clone()],
            },
            response: MaResponse::BatchDeposited {
                total: 2,
                accepted: 1,
                rejected: 1,
            },
            effects: vec![(0, 2)],
        },
        WalRecord {
            key: None,
            span: SpanContext::NONE,
            request: MaRequest::Withdraw {
                account: AccountId(1),
                nonce: 2,
                auth: clsig(3, 4),
                blinded: BigUint::from(5u64),
            },
            response: MaResponse::BlindSignature(BigUint::from(6u64)),
            effects: vec![],
        },
        WalRecord {
            key,
            span: SpanContext::from_trace(10),
            request: MaRequest::FetchData { job_id: 1 },
            response: MaResponse::Data(vec![vec![1; 4], vec![2; 3]]),
            effects: vec![],
        },
    ];
    records.iter().map(|r| r.to_wire_bytes()).collect()
}

/// A valid snapshot touching every section of the format.
fn snapshot_template() -> Vec<u8> {
    use ppms_core::service::RequestKey;
    use ppms_core::storage::ShardSection;
    use ppms_core::SnapshotState;
    let mut state = SnapshotState {
        covered: 12,
        jobs: vec![ppms_core::JobProfile {
            job_id: 1,
            description: "j".into(),
            payment: 2,
            pseudonym: vec![3; 4],
        }],
        cl_bindings: vec![(1, clpk(5, 6))],
        pending_payments: vec![(vec![1; 8], vec![2; 16])],
        received_reports: vec![vec![3; 8]],
        shards: vec![ShardSection {
            nonces: vec![(1, 2)],
            labor: vec![(1, vec![vec![4; 8]])],
            reports: vec![(1, vec![vec![5; 3]])],
            dedup: vec![(
                RequestKey {
                    party: Party::Jo,
                    request_id: 4,
                },
                MaResponse::Balance(9),
            )],
        }],
        gate: Some(vec![6; 10]),
        ..SnapshotState::default()
    };
    state.bank.next_id = 2;
    state.bank.accounts = vec![(1, 50)];
    state.dec.spent = vec![[7; 32]];
    state.dec.ancestors = vec![[8; 32]];
    state.dec.coin_totals = vec![([9; 32], 4)];
    state.to_wire_bytes()
}

/// `template` with byte flips applied and cut to `cut` bytes — or, for
/// an out-of-range `pick`, the raw `garbage` itself.
fn mutate(
    template: Option<&Vec<u8>>,
    flips: &[(usize, u8)],
    cut: usize,
    garbage: &[u8],
) -> Vec<u8> {
    let Some(template) = template else {
        return garbage.to_vec();
    };
    let mut bytes = template.clone();
    for &(at, mask) in flips {
        let at = at % bytes.len();
        bytes[at] ^= mask;
    }
    bytes.truncate(cut % (bytes.len() + 1));
    bytes.extend_from_slice(garbage);
    bytes
}

/// Feeds one mutated record, snapshot and garbage segment to the
/// journal's decoders; only a panic can fail it.
fn feed_journal_decoders(
    pick: usize,
    flips: &[(usize, u8)],
    cut: usize,
    garbage: &[u8],
    shard: u32,
    frames: usize,
) {
    use ppms_core::storage::{DurableLog, SimStorage, Storage, SyncPolicy};
    use ppms_core::{SnapshotState, WalRecord};
    use std::sync::Arc;

    static RECORDS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    static SNAPSHOT: OnceLock<Vec<u8>> = OnceLock::new();
    let records = RECORDS.get_or_init(journal_templates);
    let snapshot = SNAPSHOT.get_or_init(snapshot_template);

    let record = mutate(records.get(pick), flips, cut, garbage);
    let _ = WalRecord::from_wire_bytes(&record);
    let snap = mutate((pick < 2).then_some(snapshot), flips, cut, garbage);
    let _ = SnapshotState::from_wire_bytes(&snap);

    // A fresh log writes a valid segment header; the frames behind it
    // carry honest lengths and checksums over garbage bodies.
    let storage = Arc::new(SimStorage::new());
    let registry = ppms_obs::Registry::new();
    let open = |storage: &Arc<SimStorage>| {
        DurableLog::open(storage.clone(), SyncPolicy::Always, 1 << 16, &registry)
    };
    drop(open(&storage).expect("fresh log opens"));
    let segment = storage.list().expect("list").pop().expect("one segment");
    for i in 0..frames {
        let mut body = shard.to_be_bytes().to_vec();
        body.extend_from_slice(if i % 2 == 0 { &record } else { garbage });
        let mut frame = Vec::new();
        ppms_core::wal::append_frame(&mut frame, &body);
        storage.append(&segment, &frame).expect("append");
    }
    if let Ok((log, _)) = open(&storage) {
        let _ = log.replay_shard(shard);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    // Arbitrary bytes — raw, or valid records and snapshots with
    // flipped bytes, cut short or padded — decode to `Ok` or `Err`,
    // never a panic. A segment of checksummed garbage frames behind a
    // valid header either refuses to open or opens, and then replays
    // to `Ok` or `Err` too.
    #[test]
    fn journal_decoders_never_panic_on_garbage(
        pick in 0usize..5,
        flips in prop::collection::vec((any::<usize>(), 1u8..=255), 0..4),
        cut in any::<usize>(),
        garbage in prop::collection::vec(any::<u8>(), 0..=48),
        shard in 0u32..3,
        frames in 1usize..4,
    ) {
        feed_journal_decoders(pick, &flips, cut, &garbage, shard, frames);
    }
}

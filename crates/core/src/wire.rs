//! The market's wire protocol: a versioned, length-prefixed envelope
//! around every client↔MA message.
//!
//! The paper's Fig. 1 system model is three parties exchanging
//! *messages*, and Table II tabulates the *bytes* those messages cost.
//! This module makes that boundary real: every [`MaRequest`] /
//! [`MaResponse`] (and every party-to-party payload the MA relays,
//! [`RelayPayload`]) has a deterministic binary encoding, wrapped in
//! an [`Envelope`] frame
//!
//! ```text
//! [version: u16 BE][body_len: u32 BE]
//!     [msg_id: u64][correlation_id: u64]
//!     [trace_id: u64][span_id: u64][parent_id: u64][party: u8]
//!     [payload ...]
//! [fnv1a(body): u64 BE]
//! ```
//!
//! so the transport layer ([`crate::transport::SimNetTransport`]) can
//! ship actual bytes and the traffic log can account actual sizes.
//! The codec extends the length-prefixed style of `ppms_ecash::wire`
//! (the in-ciphertext payment-bundle encoding) to the whole protocol
//! surface. Decoding rejects truncated buffers, trailing garbage and
//! version mismatches.
//!
//! All payload types additionally derive `serde::Serialize` /
//! `serde::Deserialize`, so a generic serde backend can carry them;
//! the hand-rolled encoding here stays the canonical one because it
//! is deterministic and self-delimiting (Table II must not depend on
//! a serializer's formatting choices).

use crate::bank::AccountId;
use crate::error::MarketError;
use crate::metrics::Party;
use crate::service::{MaRequest, MaResponse};
use ppms_bigint::BigUint;
use ppms_crypto::cl::{ClPublicKey, ClSignature};
use ppms_crypto::pairing::Point;
use ppms_ecash::{DecError, Spend};

/// Protocol version carried by every frame; a frame at any other
/// version is refused with [`WireError::BadVersion`]. The header
/// carries the full causal triple — `trace_id`, `span_id`,
/// `parent_id` — so a server can parent its own spans to the
/// client-side span that sent the frame, and the FNV-1a trailer (see
/// [`FRAME_TRAILER_LEN`]) rejects a frame corrupted in flight instead
/// of letting it mis-decode into a different request — which would
/// defeat the service's idempotent request keys.
pub const WIRE_VERSION: u16 = 4;

/// Fixed per-frame overhead: version + body length + msg id +
/// correlation id + trace id + span id + parent id + party tag.
pub const FRAME_HEADER_LEN: usize = 2 + 4 + 8 + 8 + 8 + 8 + 8 + 1;

/// Integrity trailer: FNV-1a-64 over the frame body, appended after
/// the payload. Not cryptographic — transport integrity against bit
/// rot / truncation mid-path; authenticity lives in the protocol's
/// signatures.
pub const FRAME_TRAILER_LEN: usize = 8;

/// FNV-1a-64 — the frame checksum and the service's stable routing
/// hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Upper bound on any single length prefix (16 MiB) — a sanity cap so
/// a corrupt length field cannot trigger a huge allocation.
const MAX_FIELD_LEN: usize = 1 << 24;

/// Upper bound on list element counts.
const MAX_LIST_LEN: usize = 1 << 16;

/// Why a frame or payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Buffer ended before the field completed.
    Truncated,
    /// Bytes left over after the final field.
    Trailing,
    /// Frame version differs from [`WIRE_VERSION`].
    BadVersion(u16),
    /// An enum discriminant was out of range.
    BadTag(&'static str, u8),
    /// A length prefix exceeded the sanity bounds.
    TooLong,
    /// An embedded structure failed to parse.
    Malformed(&'static str),
    /// The frame's integrity trailer did not match its body.
    Corrupt,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "buffer truncated"),
            WireError::Trailing => write!(f, "trailing bytes after frame"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadTag(what, tag) => write!(f, "bad {what} tag {tag}"),
            WireError::TooLong => write!(f, "length prefix exceeds sanity bound"),
            WireError::Malformed(what) => write!(f, "malformed {what}"),
            WireError::Corrupt => write!(f, "frame checksum mismatch"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for MarketError {
    fn from(e: WireError) -> Self {
        MarketError::Transport(e.to_string())
    }
}

// ---------------------------------------------------------------------------
// Writer / reader primitives
// ---------------------------------------------------------------------------

/// Append-only encoder for the length-prefixed wire format.
#[derive(Debug, Default)]
pub struct WireWriter {
    out: Vec<u8>,
}

impl WireWriter {
    /// Fresh, empty writer.
    pub fn new() -> WireWriter {
        WireWriter::default()
    }

    /// A writer that appends to an existing buffer — callers reusing
    /// one scratch allocation across frames start from this.
    pub fn appending(out: Vec<u8>) -> WireWriter {
        WireWriter { out }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }

    /// Writes a raw byte.
    pub fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    /// Writes a big-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.out.extend_from_slice(&v.to_be_bytes());
    }

    /// Writes a big-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_be_bytes());
    }

    /// Writes a big-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_be_bytes());
    }

    /// Writes a bool as one byte (0 / 1).
    pub fn bool(&mut self, v: bool) {
        self.out.push(v as u8);
    }

    /// Writes a `u32`-length-prefixed byte string.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.out.extend_from_slice(b);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Writes a big integer as a length-prefixed big-endian byte
    /// string.
    pub fn int(&mut self, v: &BigUint) {
        self.bytes(&v.to_bytes_be());
    }

    /// Consumes the writer and returns the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.out
    }
}

/// Cursor over an encoded buffer; every accessor checks bounds.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
}

impl<'a> WireReader<'a> {
    /// Wraps a buffer.
    pub fn new(buf: &'a [u8]) -> WireReader<'a> {
        WireReader { buf }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Truncated);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a big-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_be_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    /// Reads a big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a bool; any byte other than 0/1 is rejected.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::BadTag("bool", b)),
        }
    }

    /// Reads a `u32`-length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u32()? as usize;
        if len > MAX_FIELD_LEN {
            return Err(WireError::TooLong);
        }
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        String::from_utf8(self.bytes()?.to_vec()).map_err(|_| WireError::Malformed("utf-8 string"))
    }

    /// Reads a length-prefixed big-endian integer.
    pub fn int(&mut self) -> Result<BigUint, WireError> {
        Ok(BigUint::from_bytes_be(self.bytes()?))
    }

    /// Whether the buffer is fully consumed.
    pub fn is_done(&self) -> bool {
        self.buf.is_empty()
    }

    /// Fails unless the buffer is fully consumed.
    pub fn expect_done(&self) -> Result<(), WireError> {
        if self.is_done() {
            Ok(())
        } else {
            Err(WireError::Trailing)
        }
    }
}

/// Writes a `u32` count followed by each element.
pub fn put_list<T>(w: &mut WireWriter, items: &[T], mut f: impl FnMut(&mut WireWriter, &T)) {
    w.u32(items.len() as u32);
    for item in items {
        f(w, item);
    }
}

/// Reads a `u32` count followed by each element.
pub fn read_list<T>(
    r: &mut WireReader<'_>,
    mut f: impl FnMut(&mut WireReader<'_>) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    let n = r.u32()? as usize;
    if n > MAX_LIST_LEN {
        return Err(WireError::TooLong);
    }
    (0..n).map(|_| f(r)).collect()
}

// ---------------------------------------------------------------------------
// Encode / decode traits
// ---------------------------------------------------------------------------

/// Types with a canonical wire encoding.
pub trait WireEncode {
    /// Appends this value to the writer.
    fn encode(&self, w: &mut WireWriter);

    /// Encodes this value alone into a fresh buffer.
    fn to_wire_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        self.encode(&mut w);
        w.finish()
    }
}

/// Types decodable from the wire encoding.
pub trait WireDecode: Sized {
    /// Reads one value from the reader.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// Decodes a buffer that must contain exactly one value.
    fn from_wire_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let v = Self::decode(&mut r)?;
        r.expect_done()?;
        Ok(v)
    }
}

impl WireEncode for Party {
    fn encode(&self, w: &mut WireWriter) {
        w.u8(match self {
            Party::Jo => 0,
            Party::Sp => 1,
            Party::Ma => 2,
        });
    }
}

impl WireDecode for Party {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(Party::Jo),
            1 => Ok(Party::Sp),
            2 => Ok(Party::Ma),
            t => Err(WireError::BadTag("party", t)),
        }
    }
}

impl WireEncode for AccountId {
    fn encode(&self, w: &mut WireWriter) {
        w.u64(self.0);
    }
}

impl WireDecode for AccountId {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(AccountId(r.u64()?))
    }
}

impl WireEncode for Point {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            Point::Infinity => w.u8(0),
            Point::Affine { x, y } => {
                w.u8(1);
                w.int(x);
                w.int(y);
            }
        }
    }
}

impl WireDecode for Point {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(Point::Infinity),
            1 => Ok(Point::Affine {
                x: r.int()?,
                y: r.int()?,
            }),
            t => Err(WireError::BadTag("point", t)),
        }
    }
}

impl WireEncode for ClPublicKey {
    fn encode(&self, w: &mut WireWriter) {
        self.x_pub.encode(w);
        self.y_pub.encode(w);
    }
}

impl WireDecode for ClPublicKey {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(ClPublicKey {
            x_pub: Point::decode(r)?,
            y_pub: Point::decode(r)?,
        })
    }
}

impl WireEncode for ClSignature {
    fn encode(&self, w: &mut WireWriter) {
        self.a.encode(w);
        self.b.encode(w);
        self.c.encode(w);
    }
}

impl WireDecode for ClSignature {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(ClSignature {
            a: Point::decode(r)?,
            b: Point::decode(r)?,
            c: Point::decode(r)?,
        })
    }
}

impl WireEncode for Spend {
    fn encode(&self, w: &mut WireWriter) {
        // Delegate to the e-cash layer's own encoding (the same bytes
        // that travel inside payment ciphertexts), nested as one
        // length-prefixed field.
        w.bytes(&self.to_bytes());
    }
}

impl WireDecode for Spend {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Spend::from_bytes(r.bytes()?).map_err(|_| WireError::Malformed("spend"))
    }
}

impl WireEncode for DecError {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            DecError::BadBankSignature => w.u8(0),
            DecError::BadProof(s) => {
                w.u8(1);
                w.str(s);
            }
            DecError::BadGroupElement => w.u8(2),
            DecError::BadDepth => w.u8(3),
            DecError::DoubleSpend(s) => {
                w.u8(4);
                w.str(s);
            }
            DecError::Overspend => w.u8(5),
            DecError::FakeCoin => w.u8(6),
            DecError::BadAmount => w.u8(7),
        }
    }
}

impl WireDecode for DecError {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => DecError::BadBankSignature,
            1 => DecError::BadProof(r.str()?),
            2 => DecError::BadGroupElement,
            3 => DecError::BadDepth,
            4 => DecError::DoubleSpend(r.str()?),
            5 => DecError::Overspend,
            6 => DecError::FakeCoin,
            7 => DecError::BadAmount,
            t => return Err(WireError::BadTag("dec-error", t)),
        })
    }
}

impl WireEncode for MarketError {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            MarketError::NoSuchAccount => w.u8(0),
            MarketError::InsufficientFunds => w.u8(1),
            MarketError::BadAuthentication => w.u8(2),
            MarketError::BadPayload(s) => {
                w.u8(3);
                w.str(s);
            }
            MarketError::BadCoin(s) => {
                w.u8(4);
                w.str(s);
            }
            MarketError::StaleSerial => w.u8(5),
            MarketError::Dec(e) => {
                w.u8(6);
                e.encode(w);
            }
            MarketError::NoSuchJob => w.u8(7),
            MarketError::Transport(s) => {
                w.u8(8);
                w.str(s);
            }
            MarketError::Timeout => w.u8(9),
            MarketError::CircuitOpen => w.u8(10),
            MarketError::BadKey => w.u8(11),
        }
    }
}

impl WireDecode for MarketError {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => MarketError::NoSuchAccount,
            1 => MarketError::InsufficientFunds,
            2 => MarketError::BadAuthentication,
            3 => MarketError::BadPayload(r.str()?),
            4 => MarketError::BadCoin(r.str()?),
            5 => MarketError::StaleSerial,
            6 => MarketError::Dec(DecError::decode(r)?),
            7 => MarketError::NoSuchJob,
            8 => MarketError::Transport(r.str()?),
            9 => MarketError::Timeout,
            10 => MarketError::CircuitOpen,
            11 => MarketError::BadKey,
            t => return Err(WireError::BadTag("market-error", t)),
        })
    }
}

impl WireEncode for MaRequest {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            MaRequest::RegisterJoAccount { funds, clpk } => {
                w.u8(0);
                w.u64(*funds);
                clpk.encode(w);
            }
            MaRequest::RegisterSpAccount => w.u8(1),
            MaRequest::PublishJob {
                description,
                payment,
                pseudonym,
            } => {
                w.u8(2);
                w.str(description);
                w.u64(*payment);
                w.bytes(pseudonym);
            }
            MaRequest::Withdraw {
                account,
                nonce,
                auth,
                blinded,
            } => {
                w.u8(3);
                account.encode(w);
                w.u64(*nonce);
                auth.encode(w);
                w.int(blinded);
            }
            MaRequest::LaborRegister { job_id, sp_pubkey } => {
                w.u8(4);
                w.u64(*job_id);
                w.bytes(sp_pubkey);
            }
            MaRequest::FetchLabor { job_id } => {
                w.u8(5);
                w.u64(*job_id);
            }
            MaRequest::SubmitPayment {
                sp_pubkey,
                ciphertext,
            } => {
                w.u8(6);
                w.bytes(sp_pubkey);
                w.bytes(ciphertext);
            }
            MaRequest::SubmitData {
                job_id,
                sp_pubkey,
                data,
            } => {
                w.u8(7);
                w.u64(*job_id);
                w.bytes(sp_pubkey);
                w.bytes(data);
            }
            MaRequest::FetchPayment { sp_pubkey } => {
                w.u8(8);
                w.bytes(sp_pubkey);
            }
            MaRequest::FetchData { job_id } => {
                w.u8(9);
                w.u64(*job_id);
            }
            MaRequest::DepositBatch { account, spends } => {
                w.u8(10);
                account.encode(w);
                put_list(w, spends, |w, s| s.encode(w));
            }
            MaRequest::Balance { account } => {
                w.u8(11);
                account.encode(w);
            }
        }
    }
}

impl WireDecode for MaRequest {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => MaRequest::RegisterJoAccount {
                funds: r.u64()?,
                clpk: ClPublicKey::decode(r)?,
            },
            1 => MaRequest::RegisterSpAccount,
            2 => MaRequest::PublishJob {
                description: r.str()?,
                payment: r.u64()?,
                pseudonym: r.bytes()?.to_vec(),
            },
            3 => MaRequest::Withdraw {
                account: AccountId::decode(r)?,
                nonce: r.u64()?,
                auth: ClSignature::decode(r)?,
                blinded: r.int()?,
            },
            4 => MaRequest::LaborRegister {
                job_id: r.u64()?,
                sp_pubkey: r.bytes()?.to_vec(),
            },
            5 => MaRequest::FetchLabor { job_id: r.u64()? },
            6 => MaRequest::SubmitPayment {
                sp_pubkey: r.bytes()?.to_vec(),
                ciphertext: r.bytes()?.to_vec(),
            },
            7 => MaRequest::SubmitData {
                job_id: r.u64()?,
                sp_pubkey: r.bytes()?.to_vec(),
                data: r.bytes()?.to_vec(),
            },
            8 => MaRequest::FetchPayment {
                sp_pubkey: r.bytes()?.to_vec(),
            },
            9 => MaRequest::FetchData { job_id: r.u64()? },
            10 => MaRequest::DepositBatch {
                account: AccountId::decode(r)?,
                spends: read_list(r, Spend::decode)?,
            },
            11 => MaRequest::Balance {
                account: AccountId::decode(r)?,
            },
            // Tag 12 was the in-process shutdown request; it is
            // retired, not reused, so every other tag keeps its bytes.
            t => return Err(WireError::BadTag("ma-request", t)),
        })
    }
}

impl WireEncode for MaResponse {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            MaResponse::Account(id) => {
                w.u8(0);
                id.encode(w);
            }
            MaResponse::JobId(id) => {
                w.u8(1);
                w.u64(*id);
            }
            MaResponse::BlindSignature(sig) => {
                w.u8(2);
                w.int(sig);
            }
            MaResponse::Ok => w.u8(3),
            MaResponse::Labor(keys) => {
                w.u8(4);
                put_list(w, keys, |w, k| w.bytes(k));
            }
            MaResponse::Payment(ct) => {
                w.u8(5);
                match ct {
                    Some(ct) => {
                        w.bool(true);
                        w.bytes(ct);
                    }
                    None => w.bool(false),
                }
            }
            MaResponse::Data(reports) => {
                w.u8(6);
                put_list(w, reports, |w, d| w.bytes(d));
            }
            MaResponse::BatchDeposited {
                total,
                accepted,
                rejected,
            } => {
                w.u8(7);
                w.u64(*total);
                w.u64(*accepted as u64);
                w.u64(*rejected as u64);
            }
            MaResponse::Balance(v) => {
                w.u8(8);
                w.u64(*v);
            }
            MaResponse::Err(e) => {
                w.u8(9);
                e.encode(w);
            }
            MaResponse::Busy => {
                w.u8(11);
            }
        }
    }
}

impl WireDecode for MaResponse {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => MaResponse::Account(AccountId::decode(r)?),
            1 => MaResponse::JobId(r.u64()?),
            2 => MaResponse::BlindSignature(r.int()?),
            3 => MaResponse::Ok,
            4 => MaResponse::Labor(read_list(r, |r| Ok(r.bytes()?.to_vec()))?),
            5 => MaResponse::Payment(if r.bool()? {
                Some(r.bytes()?.to_vec())
            } else {
                None
            }),
            6 => MaResponse::Data(read_list(r, |r| Ok(r.bytes()?.to_vec()))?),
            7 => MaResponse::BatchDeposited {
                total: r.u64()?,
                accepted: r.u64()? as usize,
                rejected: r.u64()? as usize,
            },
            8 => MaResponse::Balance(r.u64()?),
            9 => MaResponse::Err(MarketError::decode(r)?),
            // Tag 10 was the shutdown acknowledgement; retired like
            // request tag 12.
            11 => MaResponse::Busy,
            t => return Err(WireError::BadTag("ma-response", t)),
        })
    }
}

/// Party-to-party payloads the MA relays without interpreting —
/// PPMSpbs's encrypted labor registration, designation, partially
/// blind signature round trip and deposit tuple, plus the forwarded
/// data/payment deliveries both mechanisms share. The single-threaded
/// drivers size these with real envelope encodings for Table II.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub enum RelayPayload {
    /// A data report on its way `SP → MA` (PPMSpbs; PPMSdec uses
    /// [`MaRequest::SubmitData`]).
    DataReport {
        /// The sensing data.
        data: Vec<u8>,
    },
    /// A data report forwarded `MA → JO`.
    DataDelivery {
        /// The sensing data.
        data: Vec<u8>,
    },
    /// PPMSpbs labor registration `SP → MA → JO`:
    /// `ENC_rpkjo(rpk_sp, s)` (paper eq. (14)).
    PbsLaborRegister {
        /// The RSA ciphertext.
        ciphertext: Vec<u8>,
    },
    /// PPMSpbs designation reply `JO → MA`: the receiver's one-time
    /// key plus `ENC_rpksp(rpk_JO, sig)` (paper eqs. (16)–(18)).
    PbsDesignation {
        /// The receiving SP's one-time key bytes (routing).
        receiver: Vec<u8>,
        /// The RSA ciphertext.
        ciphertext: Vec<u8>,
    },
    /// PPMSpbs designation forward `MA → SP`.
    PbsDesignationForward {
        /// The RSA ciphertext.
        ciphertext: Vec<u8>,
    },
    /// PPMSpbs blind-signature request `SP → MA → JO`: blinded
    /// message plus the serial as common info (paper eq. (22)).
    PbsBlindRequest {
        /// The blinded message `alpha`.
        alpha: BigUint,
        /// The serial `s` (common info).
        serial: Vec<u8>,
    },
    /// PPMSpbs blind-signature response `JO → MA → SP` (paper
    /// eq. (23)).
    PbsBlindResponse {
        /// The blind signature `beta`.
        beta: BigUint,
    },
    /// PPMSpbs deposit tuple `SP → MA`: `(sig, rpk_SP, rpk_JO, s)`
    /// (paper eq. (26)).
    PbsDeposit {
        /// The unblinded signature.
        sig: BigUint,
        /// The SP's account key bytes.
        sp_key: Vec<u8>,
        /// The JO's account key bytes.
        jo_key: Vec<u8>,
        /// The serial.
        serial: Vec<u8>,
    },
}

impl WireEncode for RelayPayload {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            RelayPayload::DataReport { data } => {
                w.u8(0);
                w.bytes(data);
            }
            RelayPayload::DataDelivery { data } => {
                w.u8(1);
                w.bytes(data);
            }
            RelayPayload::PbsLaborRegister { ciphertext } => {
                w.u8(2);
                w.bytes(ciphertext);
            }
            RelayPayload::PbsDesignation {
                receiver,
                ciphertext,
            } => {
                w.u8(3);
                w.bytes(receiver);
                w.bytes(ciphertext);
            }
            RelayPayload::PbsDesignationForward { ciphertext } => {
                w.u8(4);
                w.bytes(ciphertext);
            }
            RelayPayload::PbsBlindRequest { alpha, serial } => {
                w.u8(5);
                w.int(alpha);
                w.bytes(serial);
            }
            RelayPayload::PbsBlindResponse { beta } => {
                w.u8(6);
                w.int(beta);
            }
            RelayPayload::PbsDeposit {
                sig,
                sp_key,
                jo_key,
                serial,
            } => {
                w.u8(7);
                w.int(sig);
                w.bytes(sp_key);
                w.bytes(jo_key);
                w.bytes(serial);
            }
        }
    }
}

impl WireDecode for RelayPayload {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => RelayPayload::DataReport {
                data: r.bytes()?.to_vec(),
            },
            1 => RelayPayload::DataDelivery {
                data: r.bytes()?.to_vec(),
            },
            2 => RelayPayload::PbsLaborRegister {
                ciphertext: r.bytes()?.to_vec(),
            },
            3 => RelayPayload::PbsDesignation {
                receiver: r.bytes()?.to_vec(),
                ciphertext: r.bytes()?.to_vec(),
            },
            4 => RelayPayload::PbsDesignationForward {
                ciphertext: r.bytes()?.to_vec(),
            },
            5 => RelayPayload::PbsBlindRequest {
                alpha: r.int()?,
                serial: r.bytes()?.to_vec(),
            },
            6 => RelayPayload::PbsBlindResponse { beta: r.int()? },
            7 => RelayPayload::PbsDeposit {
                sig: r.int()?,
                sp_key: r.bytes()?.to_vec(),
                jo_key: r.bytes()?.to_vec(),
                serial: r.bytes()?.to_vec(),
            },
            t => return Err(WireError::BadTag("relay-payload", t)),
        })
    }
}

// ---------------------------------------------------------------------------
// The envelope frame
// ---------------------------------------------------------------------------

/// A versioned, length-prefixed frame around one protocol payload.
#[derive(Debug, Clone)]
pub struct Envelope<T> {
    /// Sender-assigned message id (unique per connection).
    pub msg_id: u64,
    /// For responses: the `msg_id` of the request being answered
    /// (0 for unsolicited messages).
    pub correlation_id: u64,
    /// Trace context: minted once at the originating client and
    /// preserved verbatim across retransmits, shard hops and the
    /// response leg, so one market interaction is one correlated
    /// event stream. 0 means "no trace context".
    pub trace_id: u64,
    /// The sender-side causal span that emitted this frame — what the
    /// receiver parents its own spans to. 0 means "no span context":
    /// receiver spans root at the trace.
    pub span_id: u64,
    /// The parent of `span_id` on the sender's side (0 = root there).
    pub parent_id: u64,
    /// The originating party.
    pub party: Party,
    /// The payload.
    pub payload: T,
}

impl<T> Envelope<T> {
    /// The frame's causal span context as one value.
    pub fn span_ctx(&self) -> ppms_obs::SpanContext {
        ppms_obs::SpanContext {
            trace_id: self.trace_id,
            span_id: self.span_id,
            parent_id: self.parent_id,
        }
    }
}

impl<T: WireEncode> Envelope<T> {
    /// Encodes the full frame (header + payload + trailer) into a
    /// fresh buffer — the same bytes [`Envelope::encode_append`]
    /// writes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_append(&mut out);
        out
    }

    /// Appends the full frame to `out` with no intermediate buffers:
    /// the length prefix is patched in place after the body is
    /// written, so a hot reply path can reuse one scratch `Vec` across
    /// frames and stay allocation-free at steady state. This is the
    /// one place the frame layout is written.
    pub fn encode_append(&self, out: &mut Vec<u8>) {
        let start = out.len();
        let mut w = WireWriter::appending(std::mem::take(out));
        w.u16(WIRE_VERSION);
        w.u32(0); // body length, patched below
        w.u64(self.msg_id);
        w.u64(self.correlation_id);
        w.u64(self.trace_id);
        w.u64(self.span_id);
        w.u64(self.parent_id);
        self.party.encode(&mut w);
        self.payload.encode(&mut w);
        let mut buf = w.finish();
        // 6 = u16 version + u32 body length, the frame prefix.
        let body_len = (buf.len() - start - 6) as u32;
        buf[start + 2..start + 6].copy_from_slice(&body_len.to_be_bytes());
        let sum = fnv1a(&buf[start + 6..]).to_be_bytes();
        buf.extend_from_slice(&sum);
        *out = buf;
    }
}

impl<T: WireDecode> Envelope<T> {
    /// Decodes a frame, rejecting any version but [`WIRE_VERSION`],
    /// truncation, corruption and trailing bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Envelope<T>, WireError> {
        let mut r = WireReader::new(bytes);
        let version = r.u16()?;
        if version != WIRE_VERSION {
            return Err(WireError::BadVersion(version));
        }
        let body_len = r.u32()? as usize;
        let framed = 2 + 4 + body_len + FRAME_TRAILER_LEN;
        if bytes.len() != framed {
            return Err(if bytes.len() < framed {
                WireError::Truncated
            } else {
                WireError::Trailing
            });
        }
        let body = &bytes[2 + 4..2 + 4 + body_len];
        let trailer = &bytes[2 + 4 + body_len..];
        if fnv1a(body).to_be_bytes() != trailer {
            return Err(WireError::Corrupt);
        }
        let mut r = WireReader::new(body);
        let env = Envelope {
            msg_id: r.u64()?,
            correlation_id: r.u64()?,
            trace_id: r.u64()?,
            span_id: r.u64()?,
            parent_id: r.u64()?,
            party: Party::decode(&mut r)?,
            payload: T::decode(&mut r)?,
        };
        r.expect_done()?;
        Ok(env)
    }
}

/// Encoded size of `payload` framed in an envelope from `party` —
/// what the message would cost on a real wire. Sizes are independent
/// of the ids (fixed-width fields), so the drivers use 0.
pub fn framed_len<T: WireEncode>(party: Party, payload: &T) -> usize {
    Envelope {
        msg_id: 0,
        correlation_id: 0,
        trace_id: 0,
        span_id: 0,
        parent_id: 0,
        party,
        payload,
    }
    .to_bytes()
    .len()
}

impl<T: WireEncode> WireEncode for &T {
    fn encode(&self, w: &mut WireWriter) {
        (*self).encode(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: &MaRequest) {
        let env = Envelope {
            msg_id: 7,
            correlation_id: 0,
            trace_id: 0,
            span_id: 0,
            parent_id: 0,
            party: Party::Jo,
            payload: req,
        };
        let bytes = env.to_bytes();
        let back: Envelope<MaRequest> = Envelope::from_bytes(&bytes).expect("decode");
        assert_eq!(back.msg_id, 7);
        assert_eq!(back.party, Party::Jo);
        // Canonical encoding: re-encoding the decoded value is
        // byte-identical.
        let bytes2 = Envelope {
            msg_id: 7,
            correlation_id: 0,
            trace_id: 0,
            span_id: 0,
            parent_id: 0,
            party: back.party,
            payload: &back.payload,
        }
        .to_bytes();
        assert_eq!(bytes, bytes2);
    }

    #[test]
    fn simple_requests_roundtrip() {
        roundtrip_request(&MaRequest::RegisterSpAccount);
        roundtrip_request(&MaRequest::PublishJob {
            description: "air quality".into(),
            payment: 3,
            pseudonym: vec![1, 2, 3],
        });
        roundtrip_request(&MaRequest::FetchLabor { job_id: 42 });
        roundtrip_request(&MaRequest::Balance {
            account: AccountId(9),
        });
    }

    #[test]
    fn retired_tags_are_refused() {
        assert!(matches!(
            MaRequest::from_wire_bytes(&[12]),
            Err(WireError::BadTag("ma-request", 12))
        ));
        assert!(matches!(
            MaResponse::from_wire_bytes(&[10, 0, 0, 0, 0, 0, 0, 0, 4]),
            Err(WireError::BadTag("ma-response", 10))
        ));
    }

    #[test]
    fn responses_roundtrip() {
        for resp in [
            MaResponse::Account(AccountId(3)),
            MaResponse::JobId(11),
            MaResponse::BlindSignature(BigUint::from(0xDEADBEEFu64)),
            MaResponse::Ok,
            MaResponse::Labor(vec![vec![1], vec![2, 3]]),
            MaResponse::Payment(None),
            MaResponse::Payment(Some(vec![9; 40])),
            MaResponse::Data(vec![]),
            MaResponse::BatchDeposited {
                total: 5,
                accepted: 3,
                rejected: 2,
            },
            MaResponse::Balance(77),
            MaResponse::Err(MarketError::Dec(DecError::DoubleSpend("node".into()))),
            MaResponse::Err(MarketError::Transport("peer gone".into())),
            MaResponse::Busy,
        ] {
            let bytes = resp.to_wire_bytes();
            let back = MaResponse::from_wire_bytes(&bytes).expect("decode");
            assert_eq!(bytes, back.to_wire_bytes());
        }
    }

    #[test]
    fn bad_version_rejected() {
        let env = Envelope {
            msg_id: 1,
            correlation_id: 0,
            trace_id: 0,
            span_id: 0,
            parent_id: 0,
            party: Party::Sp,
            payload: MaRequest::RegisterSpAccount,
        };
        let mut bytes = env.to_bytes();
        bytes[0] = 0xFF;
        assert!(matches!(
            Envelope::<MaRequest>::from_bytes(&bytes),
            Err(WireError::BadVersion(_))
        ));
    }

    #[test]
    fn truncated_and_trailing_rejected() {
        let env = Envelope {
            msg_id: 1,
            correlation_id: 2,
            trace_id: 0,
            span_id: 0,
            parent_id: 0,
            party: Party::Ma,
            payload: MaResponse::Balance(5),
        };
        let bytes = env.to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                Envelope::<MaResponse>::from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(matches!(
            Envelope::<MaResponse>::from_bytes(&extended),
            Err(WireError::Trailing)
        ));
    }

    #[test]
    fn frame_header_len_is_accurate() {
        let env = Envelope {
            msg_id: 0,
            correlation_id: 0,
            trace_id: 0,
            span_id: 0,
            parent_id: 0,
            party: Party::Ma,
            payload: MaResponse::Ok,
        };
        // MaResponse::Ok is a single tag byte.
        assert_eq!(
            env.to_bytes().len(),
            FRAME_HEADER_LEN + 1 + FRAME_TRAILER_LEN
        );
    }

    #[test]
    fn corrupted_body_rejected_by_trailer() {
        let env = Envelope {
            msg_id: 3,
            correlation_id: 0,
            trace_id: 9,
            span_id: 0,
            parent_id: 0,
            party: Party::Sp,
            payload: MaRequest::FetchLabor { job_id: 42 },
        };
        let bytes = env.to_bytes();
        // Flip every body byte in turn: the checksum must catch each
        // single-byte corruption (the version/length prefix fails its
        // own checks instead).
        for i in 2 + 4..bytes.len() - FRAME_TRAILER_LEN {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                matches!(
                    Envelope::<MaRequest>::from_bytes(&bad),
                    Err(WireError::Corrupt)
                ),
                "flip at {i} must be caught"
            );
        }
    }

    #[test]
    fn bool_rejects_junk() {
        let mut r = WireReader::new(&[2]);
        assert!(matches!(r.bool(), Err(WireError::BadTag("bool", 2))));
    }
}

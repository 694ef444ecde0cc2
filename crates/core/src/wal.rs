//! The write-ahead journal's record format and replay rules: the
//! crash-recovery half of the MA's fault-tolerance story.
//!
//! A shard worker runs every write as *decide, journal, then apply*:
//! it decides the response (and, for a deposit, which spends are
//! accepted) without changing any state, appends one framed
//! [`WalRecord`] carrying both into the service's one
//! [`crate::storage::DurableLog`], and only then applies the record.
//! The service's `apply` is the only code that changes market state,
//! and it reads nothing but the record. So a failed append or a crash
//! before it leaves no effect behind (the client's retry re-executes
//! from scratch), and the state the MA holds is exactly what its
//! journal rebuilds: a write counts once its record is in the log. Pure reads (`Balance`, `FetchLabor`) change
//! nothing, so they are neither journaled nor cached for retransmits.
//!
//! Each record has a shared half (ledger, bulletin, CL bindings, DEC
//! double-spend set, held payments) and a private half (withdrawal
//! nonces, labor registrations, data reports and the idempotency
//! entry of `(party, request_id) → response`). Shared state outlives a
//! worker, so a restarted shard replays only the private half of its
//! records; cold-start recovery, which lost the process, applies the
//! shared half of every record in log order before the workers start.
//!
//! The rule extends one level down, to the *bytes*: a partial
//! final frame (a torn tail, the signature of a crash mid-append) is
//! tolerated and its length reported, while a checksum mismatch on
//! any *complete* frame is a hard error — corruption before the tail
//! means the medium lied, and replaying past it would rebuild a
//! ledger nobody agreed to.
//!
//! Records are framed as real bytes — the same length-prefixed wire
//! codec the transport speaks (the repo's `serde` is a marker-only
//! stand-in, so `crate::wire` is the serialization layer), each frame
//! carrying an FNV-1a integrity trailer like a wire envelope.

use crate::metrics::Party;
use crate::service::{MaRequest, MaResponse, RequestKey};
use crate::wire::{fnv1a, WireDecode, WireEncode, WireError, WireReader, WireWriter};
use ppms_obs::SpanContext;

/// One journal entry: a decided write, appended before it is applied.
#[derive(Debug, Clone)]
pub struct WalRecord {
    /// The idempotency key the request arrived under. The service
    /// always writes `Some`; the record format keeps a presence flag,
    /// which decoding still honors.
    pub key: Option<RequestKey>,
    /// The span context the request executed under, persisted so a
    /// respawned worker's replay re-attributes each entry to the trace
    /// that originally caused it instead of trace 0.
    /// `SpanContext::NONE` for untraced internal sends.
    pub span: SpanContext,
    /// The request that executed.
    pub request: MaRequest,
    /// The response that was sent (and cached for retransmits).
    pub response: MaResponse,
    /// For a `DepositBatch`: the `(index, value)` pairs of the spends
    /// the decision accepted, which `apply` inserts into the
    /// double-spend set and credits — the response alone carries only
    /// counts, and re-verifying on replay would wrongly admit spends
    /// whose ZK proofs never passed. Empty for every other request.
    pub effects: Vec<(u32, u64)>,
}

fn put_key(w: &mut WireWriter, key: &Option<RequestKey>) {
    match key {
        None => w.bool(false),
        Some(k) => {
            w.bool(true);
            k.party.encode(w);
            w.u64(k.request_id);
        }
    }
}

fn read_key(r: &mut WireReader<'_>) -> Result<Option<RequestKey>, WireError> {
    Ok(if r.bool()? {
        Some(RequestKey {
            party: Party::decode(r)?,
            request_id: r.u64()?,
        })
    } else {
        None
    })
}

impl WireEncode for WalRecord {
    fn encode(&self, w: &mut WireWriter) {
        put_key(w, &self.key);
        w.u64(self.span.trace_id);
        w.u64(self.span.span_id);
        w.u64(self.span.parent_id);
        self.request.encode(w);
        self.response.encode(w);
        crate::wire::put_list(w, &self.effects, |w, &(idx, value)| {
            w.u32(idx);
            w.u64(value);
        });
    }
}

impl WireDecode for WalRecord {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(WalRecord {
            key: read_key(r)?,
            span: SpanContext {
                trace_id: r.u64()?,
                span_id: r.u64()?,
                parent_id: r.u64()?,
            },
            request: MaRequest::decode(r)?,
            response: MaResponse::decode(r)?,
            effects: crate::wire::read_list(r, |r| Ok((r.u32()?, r.u64()?)))?,
        })
    }
}

/// One frame scan failure, positioned for a precise report: `offset`
/// is the byte offset of the offending frame inside the scanned
/// buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameFault {
    /// Byte offset of the frame that failed.
    pub offset: usize,
    /// What was wrong with it.
    pub error: WireError,
}

/// The outcome of scanning a frame buffer: the complete, checksummed
/// frame bodies (with their byte offsets) plus the length of a
/// tolerated torn tail.
#[derive(Debug, Default)]
pub struct FrameScan<'a> {
    /// `(offset, body)` for every complete frame, in order.
    pub frames: Vec<(usize, &'a [u8])>,
    /// Trailing bytes that do not form a complete frame (torn final
    /// write). 0 when the buffer ends exactly on a frame boundary.
    pub torn_bytes: usize,
}

/// Scans a buffer of `[len: u32 BE][body][fnv1a(body): u64 BE]`
/// frames — the framing of the log's segment files.
///
/// * An **incomplete final frame** (not enough bytes left for the
///   header, the announced body, or the trailer) is a torn tail:
///   tolerated, reported via [`FrameScan::torn_bytes`].
/// * A **checksum mismatch on a complete frame** is corruption in the
///   middle of the log: refused with the offending offset.
pub fn scan_frames(buf: &[u8]) -> Result<FrameScan<'_>, FrameFault> {
    let mut scan = FrameScan::default();
    let mut pos = 0usize;
    while pos < buf.len() {
        let rest = &buf[pos..];
        if rest.len() < 4 {
            scan.torn_bytes = rest.len();
            break;
        }
        let len = u32::from_be_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
        if rest.len() < 4 + len + 8 {
            scan.torn_bytes = rest.len();
            break;
        }
        let body = &rest[4..4 + len];
        let sum = &rest[4 + len..4 + len + 8];
        if fnv1a(body).to_be_bytes() != sum {
            return Err(FrameFault {
                offset: pos,
                error: WireError::Corrupt,
            });
        }
        scan.frames.push((pos, body));
        pos += 4 + len + 8;
    }
    Ok(scan)
}

/// Appends one framed, checksummed record to a byte buffer — the
/// inverse of [`scan_frames`].
pub fn append_frame(buf: &mut Vec<u8>, body: &[u8]) {
    buf.extend_from_slice(&(body.len() as u32).to_be_bytes());
    buf.extend_from_slice(body);
    buf.extend_from_slice(&fnv1a(body).to_be_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::AccountId;

    fn key(id: u64) -> Option<RequestKey> {
        Some(RequestKey {
            party: Party::Sp,
            request_id: id,
        })
    }

    /// Frames `records` into one journal buffer.
    fn journal(records: &[WalRecord]) -> Vec<u8> {
        let mut buf = Vec::new();
        for record in records {
            append_frame(&mut buf, &record.to_wire_bytes());
        }
        buf
    }

    /// Scans and decodes a journal buffer into its records plus the
    /// torn tail length — what a respawning worker does with its
    /// segment.
    fn replay(buf: &[u8]) -> Result<(Vec<WalRecord>, usize), WireError> {
        let scan = scan_frames(buf).map_err(|fault| fault.error)?;
        let records = scan
            .frames
            .iter()
            .map(|&(_, body)| WalRecord::from_wire_bytes(body))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((records, scan.torn_bytes))
    }

    fn record(id: u64, request: MaRequest, response: MaResponse) -> WalRecord {
        WalRecord {
            key: key(id),
            span: SpanContext::NONE,
            request,
            response,
            effects: vec![],
        }
    }

    fn sp_account(id: u64) -> WalRecord {
        record(
            id,
            MaRequest::RegisterSpAccount,
            MaResponse::Account(AccountId(id)),
        )
    }

    #[test]
    fn committed_records_replay_in_order() {
        let records: Vec<WalRecord> = (0..4u64)
            .map(|i| WalRecord {
                span: SpanContext::from_trace(0x1000 + i),
                ..record(
                    i,
                    MaRequest::LaborRegister {
                        job_id: i,
                        sp_pubkey: vec![i as u8],
                    },
                    MaResponse::Ok,
                )
            })
            .collect();
        let (replayed, torn) = replay(&journal(&records)).expect("replay");
        assert_eq!(replayed.len(), 4);
        assert_eq!(torn, 0);
        for (i, entry) in replayed.iter().enumerate() {
            assert_eq!(entry.key, key(i as u64));
            assert_eq!(
                entry.span.trace_id,
                0x1000 + i as u64,
                "replay re-attributes each entry to its record's trace"
            );
            assert!(matches!(
                entry.request,
                MaRequest::LaborRegister { job_id, .. } if job_id == i as u64
            ));
        }
    }

    #[test]
    fn torn_tail_is_discarded_not_fatal() {
        // Regression: a partial final frame (the writer died
        // mid-append) used to surface WireError::Truncated and sink
        // the whole replay. It must be dropped instead: everything
        // before it replays, the tail's length is reported.
        let whole = journal(&[sp_account(1), sp_account(2), sp_account(3)]);
        let n = whole.len();
        for torn_len in [n - 1, n - 9, n - (n / 4)] {
            let (records, torn) = replay(&whole[..torn_len]).expect("torn tail must not be fatal");
            assert!(torn > 0, "tail length must be reported");
            assert!(records.len() <= 2, "nothing past the tear may replay");
        }
        // Tearing into the *header* of the final frame (fewer than 4
        // bytes left) is also just a torn tail: keep the two complete
        // frames plus 2 stray bytes.
        let two_frames = {
            let scan = scan_frames(&whole).expect("scan");
            let (off, body) = scan.frames[1];
            off + 4 + body.len() + 8
        };
        let (records, torn) = replay(&whole[..two_frames + 2]).expect("2-byte tail tolerated");
        assert_eq!(records.len(), 2);
        assert_eq!(torn, 2);
    }

    #[test]
    fn corruption_before_the_tail_stays_fatal() {
        // Regression twin of torn_tail_is_discarded_not_fatal: a
        // checksum mismatch on a frame *before* the end is not a torn
        // tail — it means the medium corrupted history, and replay
        // must refuse rather than rebuild a diverged ledger.
        let mut buf = journal(&[sp_account(1), sp_account(2)]);
        // Flip a bit inside the *first* record's body.
        buf[5] ^= 0x10;
        assert!(matches!(replay(&buf), Err(WireError::Corrupt)));
        assert!(matches!(
            scan_frames(&buf),
            Err(FrameFault {
                offset: 0,
                error: WireError::Corrupt
            })
        ));
    }

    #[test]
    fn corrupted_journal_fails_loudly() {
        let mut buf = journal(&[WalRecord {
            key: None,
            ..sp_account(1)
        }]);
        // Flip a byte inside the record body.
        buf[5] ^= 0x10;
        assert!(matches!(replay(&buf), Err(WireError::Corrupt)));
    }

    #[test]
    fn scan_reports_precise_corruption_offset() {
        let mut buf = journal(&[sp_account(1)]);
        let first_len = buf.len();
        append_frame(&mut buf, &sp_account(2).to_wire_bytes());
        // Corrupt the *second* frame's body.
        buf[first_len + 5] ^= 0x01;
        let fault = scan_frames(&buf).expect_err("must refuse");
        assert_eq!(fault.offset, first_len, "offset names the bad frame");
        assert_eq!(fault.error, WireError::Corrupt);
    }

    #[test]
    fn records_roundtrip_through_frames() {
        let buf = journal(&[WalRecord {
            key: key(9),
            span: SpanContext::from_trace(0x77),
            request: MaRequest::DepositBatch {
                account: AccountId(4),
                spends: vec![],
            },
            response: MaResponse::BatchDeposited {
                total: 3,
                accepted: 2,
                rejected: 1,
            },
            effects: vec![(0, 2), (2, 1)],
        }]);
        let scan = scan_frames(&buf).expect("scan");
        assert_eq!(scan.frames.len(), 1);
        let back = WalRecord::from_wire_bytes(scan.frames[0].1).expect("decode");
        assert_eq!(back.key, key(9));
        assert_eq!(back.span, SpanContext::from_trace(0x77));
        assert!(matches!(
            back.request,
            MaRequest::DepositBatch { account: AccountId(4), ref spends } if spends.is_empty()
        ));
        assert!(matches!(
            back.response,
            MaResponse::BatchDeposited {
                total: 3,
                accepted: 2,
                rejected: 1
            }
        ));
        assert_eq!(back.effects, vec![(0u32, 2u64), (2, 1)]);
    }
}

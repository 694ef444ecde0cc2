//! The write-ahead journal's record format and replay rules: the
//! crash-recovery half of the MA's fault-tolerance story.
//!
//! Every shard worker appends a framed [`WalRecord::Begin`] *before*
//! executing a request and a [`WalRecord::Commit`] carrying the
//! response right after, into the service's one
//! [`crate::storage::DurableLog`]. The log outlives the worker thread
//! (the supervisor owns it through an `Arc`), so when a shard panics or
//! is crash-injected, the respawned incarnation replays its records to
//! rebuild exactly the state the dead worker held privately:
//!
//! * withdrawal-nonce high-water marks,
//! * labor registrations and data reports keyed to this shard,
//! * the idempotency (dedup) cache of `(party, request_id) →
//!   response`, so retransmits of already-executed requests still
//!   replay their original answer after a crash.
//!
//! Replay applies only *committed* records. A `Begin` without a
//! matching `Commit` marks the request that was in flight when the
//! shard died: it was never applied (the shard journals, then
//! executes, then commits), so replay discards it and the client's
//! retry re-executes it from scratch. The same rule extends one level
//! down, to the *bytes*: a partial final frame (a torn tail, the
//! signature of a crash mid-append) is tolerated and its length
//! reported, while a checksum mismatch on any *complete* frame is a
//! hard error — corruption before the tail means the medium lied, and
//! replaying past it would rebuild a ledger nobody agreed to.
//!
//! Shared state (ledger, bulletin, DEC double-spend set, held
//! payments) lives outside the shards behind `Arc`s and survives a
//! worker crash on its own, so a respawn replays only the per-shard
//! projection. A process restart *does* lose the shared state — there,
//! cold-start recovery applies the full recorded effects (which is why
//! a `Commit` carries the deposit effects explicitly: re-running ZK
//! verification on recovery is neither possible — the verdicts depend
//! on bank-private state order — nor meaningful).
//!
//! Records are framed as real bytes — the same length-prefixed wire
//! codec the transport speaks (the repo's `serde` is a marker-only
//! stand-in, so `crate::wire` is the serialization layer), each frame
//! carrying an FNV-1a integrity trailer like a wire envelope.

use crate::metrics::Party;
use crate::service::{MaRequest, MaResponse, RequestKey};
use crate::wire::{fnv1a, WireDecode, WireEncode, WireError, WireReader, WireWriter};
use ppms_obs::SpanContext;

/// One journal entry.
#[derive(Debug, Clone)]
pub enum WalRecord {
    /// Appended before a request executes. `key` is `None` only for
    /// requests that arrived without an idempotency key (a raw
    /// `Inbound` constructed by hand).
    Begin {
        /// The idempotency key the request arrived under.
        key: Option<RequestKey>,
        /// The span context the request executed under, persisted so
        /// a respawned worker's replay re-attributes each applied
        /// entry to the trace that originally caused it instead of
        /// trace 0. `SpanContext::NONE` for untraced internal sends.
        span: SpanContext,
        /// The request about to execute.
        request: MaRequest,
    },
    /// Appended after a request executed, carrying its response.
    Commit {
        /// The idempotency key the request arrived under.
        key: Option<RequestKey>,
        /// The response that was sent (and cached for retransmits).
        response: MaResponse,
        /// For a `DepositBatch`: the `(index, value)` pairs of the
        /// spends that passed verification and were recorded in the
        /// double-spend set. Cold-start recovery re-inserts exactly
        /// these — the response alone carries only counts, and
        /// re-verifying on replay would wrongly admit spends whose
        /// ZK proofs never passed. Empty for every other request.
        effects: Vec<(u32, u64)>,
    },
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

fn put_span(w: &mut WireWriter, span: &SpanContext) {
    w.u64(span.trace_id);
    w.u64(span.span_id);
    w.u64(span.parent_id);
}

fn read_span(r: &mut WireReader<'_>) -> Result<SpanContext, WireError> {
    Ok(SpanContext {
        trace_id: r.u64()?,
        span_id: r.u64()?,
        parent_id: r.u64()?,
    })
}

impl WireEncode for WalRecord {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            WalRecord::Begin { key, span, request } => {
                w.u8(0);
                put_key(w, key);
                put_span(w, span);
                request.encode(w);
            }
            WalRecord::Commit {
                key,
                response,
                effects,
            } => {
                w.u8(1);
                put_key(w, key);
                response.encode(w);
                crate::wire::put_list(w, effects, |w, &(idx, value)| {
                    w.u32(idx);
                    w.u64(value);
                });
            }
        }
    }
}

impl WireDecode for WalRecord {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => WalRecord::Begin {
                key: read_key(r)?,
                span: read_span(r)?,
                request: MaRequest::decode(r)?,
            },
            1 => WalRecord::Commit {
                key: read_key(r)?,
                response: MaResponse::decode(r)?,
                effects: crate::wire::read_list(r, |r| Ok((r.u32()?, r.u64()?)))?,
            },
            t => return Err(WireError::BadTag("wal-record", t)),
        })
    }
}

/// A committed request: what replay applies, in journal order.
#[derive(Debug, Clone)]
pub struct CommittedEntry {
    /// The idempotency key, if the request carried one.
    pub key: Option<RequestKey>,
    /// The span context the request executed under (from its `Begin`
    /// record) — what replay re-attribution reports.
    pub span: SpanContext,
    /// The request that executed.
    pub request: MaRequest,
    /// The response it produced.
    pub response: MaResponse,
    /// Accepted `(index, value)` pairs of a batch deposit (see
    /// [`WalRecord::Commit::effects`]); empty otherwise.
    pub effects: Vec<(u32, u64)>,
}

/// The replayable content of a journal.
#[derive(Debug, Default)]
pub struct WalReplay {
    /// Committed entries in execution order.
    pub committed: Vec<CommittedEntry>,
    /// `Begin` records with no `Commit` — in flight at the crash,
    /// discarded (the client's retry re-executes them).
    pub discarded: u64,
    /// Bytes of a partial final frame (a torn tail): the append that
    /// was in flight when the writer died. Tolerated exactly like an
    /// orphan `Begin` — never applied, reported so the recovery path
    /// can log the loss.
    pub torn_bytes: usize,
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

/// Pairs one shard's `Begin`/`Commit` records into committed entries —
/// the replay state machine behind a respawning worker's recovery.
/// Execution on a shard is sequential, so records strictly alternate;
/// only a crash can leave a `Begin` unmatched. A `Commit` with no
/// pending `Begin`, or under a different key than the `Begin` it
/// follows, is a corrupt journal and refused.
pub fn replay_records(records: impl Iterator<Item = WalRecord>) -> Result<WalReplay, WireError> {
    let mut replay = WalReplay::default();
    let mut pending: Option<(Option<RequestKey>, SpanContext, MaRequest)> = None;
    for record in records {
        match record {
            WalRecord::Begin { key, span, request } => {
                if pending.is_some() {
                    // A Begin over a live Begin means the worker
                    // died mid-request earlier: the older one was
                    // never applied.
                    replay.discarded += 1;
                }
                pending = Some((key, span, request));
            }
            WalRecord::Commit {
                key,
                response,
                effects,
            } => {
                let Some((bkey, span, request)) = pending.take() else {
                    return Err(WireError::Malformed("wal commit without begin"));
                };
                if bkey != key {
                    return Err(WireError::Malformed("wal commit answers a different begin"));
                }
                replay.committed.push(CommittedEntry {
                    key,
                    span,
                    request,
                    response,
                    effects,
                });
            }
        }
    }
    if pending.is_some() {
        replay.discarded += 1;
    }
    Ok(replay)
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

    /// Scans, decodes and pairs a journal buffer, keeping the torn
    /// tail length — what a respawning worker does with its segment.
    fn replay(buf: &[u8]) -> Result<WalReplay, WireError> {
        let scan = scan_frames(buf).map_err(|fault| fault.error)?;
        let records = scan
            .frames
            .iter()
            .map(|&(_, body)| WalRecord::from_wire_bytes(body))
            .collect::<Result<Vec<_>, _>>()?;
        let mut replay = replay_records(records.into_iter())?;
        replay.torn_bytes = scan.torn_bytes;
        Ok(replay)
    }

    fn begin(id: u64, request: MaRequest) -> WalRecord {
        WalRecord::Begin {
            key: key(id),
            span: SpanContext::NONE,
            request,
        }
    }

    fn commit(id: u64, response: MaResponse) -> WalRecord {
        WalRecord::Commit {
            key: key(id),
            response,
            effects: vec![],
        }
    }

    #[test]
    fn committed_records_replay_in_order() {
        let mut records = Vec::new();
        for i in 0..4u64 {
            records.push(WalRecord::Begin {
                key: key(i),
                span: SpanContext::from_trace(0x1000 + i),
                request: MaRequest::FetchLabor { job_id: i },
            });
            records.push(commit(i, MaResponse::Labor(vec![])));
        }
        let replay = replay(&journal(&records)).expect("replay");
        assert_eq!(replay.committed.len(), 4);
        assert_eq!(replay.discarded, 0);
        assert_eq!(replay.torn_bytes, 0);
        for (i, entry) in replay.committed.iter().enumerate() {
            assert_eq!(entry.key, key(i as u64));
            assert_eq!(
                entry.span.trace_id,
                0x1000 + i as u64,
                "replay re-attributes each entry to its Begin's trace"
            );
            assert!(matches!(
                entry.request,
                MaRequest::FetchLabor { job_id } if job_id == i as u64
            ));
        }
    }

    #[test]
    fn inflight_begin_is_discarded() {
        let buf = journal(&[
            begin(1, MaRequest::RegisterSpAccount),
            commit(1, MaResponse::Account(AccountId(7))),
            // Crash mid-request: Begin with no Commit.
            begin(
                2,
                MaRequest::Balance {
                    account: AccountId(7),
                },
            ),
        ]);
        let replay = replay(&buf).expect("replay");
        assert_eq!(replay.committed.len(), 1);
        assert_eq!(replay.discarded, 1);
    }

    #[test]
    fn torn_tail_is_discarded_not_fatal() {
        // Regression: a partial final frame (the writer died
        // mid-append) used to surface WireError::Truncated and sink
        // the whole replay. It must behave like an orphan Begin:
        // everything before it replays, the tail's length is reported.
        let whole = journal(&[
            begin(1, MaRequest::RegisterSpAccount),
            commit(1, MaResponse::Account(AccountId(3))),
            begin(2, MaRequest::RegisterSpAccount),
        ]);
        let n = whole.len();
        for torn_len in [n - 1, n - 9, n - (n / 3)] {
            let replay = replay(&whole[..torn_len]).expect("torn tail must not be fatal");
            assert!(replay.torn_bytes > 0, "tail length must be reported");
            assert!(
                replay.committed.len() <= 1,
                "nothing past the tear may replay"
            );
        }
        // Tearing into the *header* of the final frame (fewer than 4
        // bytes left) is also just a torn tail: keep the two complete
        // frames plus 2 stray bytes.
        let two_frames = {
            let scan = scan_frames(&whole).expect("scan");
            let (off, body) = scan.frames[1];
            off + 4 + body.len() + 8
        };
        let replay = replay(&whole[..two_frames + 2]).expect("2-byte tail tolerated");
        assert_eq!(replay.committed.len(), 1);
        assert_eq!(replay.torn_bytes, 2);
    }

    #[test]
    fn corruption_before_the_tail_stays_fatal() {
        // Regression twin of torn_tail_is_discarded_not_fatal: a
        // checksum mismatch on a frame *before* the end is not a torn
        // tail — it means the medium corrupted history, and replay
        // must refuse rather than rebuild a diverged ledger.
        let mut buf = journal(&[
            begin(1, MaRequest::RegisterSpAccount),
            commit(1, MaResponse::Account(AccountId(3))),
        ]);
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
        let mut buf = journal(&[
            WalRecord::Begin {
                key: None,
                span: SpanContext::NONE,
                request: MaRequest::RegisterSpAccount,
            },
            WalRecord::Commit {
                key: None,
                response: MaResponse::Ok,
                effects: vec![],
            },
        ]);
        // Flip a byte inside the first record body.
        buf[5] ^= 0x10;
        assert!(matches!(replay(&buf), Err(WireError::Corrupt)));
    }

    #[test]
    fn scan_reports_precise_corruption_offset() {
        let mut buf = journal(&[begin(1, MaRequest::RegisterSpAccount)]);
        let first_len = buf.len();
        append_frame(&mut buf, &commit(1, MaResponse::Ok).to_wire_bytes());
        // Corrupt the *second* frame's body.
        buf[first_len + 5] ^= 0x01;
        let fault = scan_frames(&buf).expect_err("must refuse");
        assert_eq!(fault.offset, first_len, "offset names the bad frame");
        assert_eq!(fault.error, WireError::Corrupt);
    }

    #[test]
    fn records_roundtrip_through_frames() {
        let buf = journal(&[WalRecord::Commit {
            key: key(9),
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
        assert!(matches!(
            &back,
            WalRecord::Commit {
                key: Some(k),
                response: MaResponse::BatchDeposited {
                    total: 3,
                    accepted: 2,
                    rejected: 1
                },
                effects,
            } if k.request_id == 9 && effects == &vec![(0u32, 2u64), (2, 1)]
        ));
    }

    #[test]
    fn commit_under_a_different_key_is_refused() {
        // A Commit must answer the Begin it follows. A release build
        // used to pair them silently (and a debug build panicked);
        // replay now refuses the journal as malformed.
        let buf = journal(&[
            begin(1, MaRequest::RegisterSpAccount),
            commit(2, MaResponse::Account(AccountId(3))),
        ]);
        assert!(matches!(replay(&buf), Err(WireError::Malformed(_))));
        let keyless = journal(&[
            begin(1, MaRequest::RegisterSpAccount),
            WalRecord::Commit {
                key: None,
                response: MaResponse::Ok,
                effects: vec![],
            },
        ]);
        assert!(matches!(replay(&keyless), Err(WireError::Malformed(_))));
    }
}

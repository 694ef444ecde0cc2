//! The WAL: an append-only sequence of segment files over a
//! [`Storage`] backend, in the record framing of `crate::wal` — the
//! one journal every shard of an MA service writes, on disk or (for
//! an in-memory service) on a `SimStorage`.
//!
//! Layout. Records carry a global, strictly increasing LSN. Each
//! segment file `wal-<start_lsn:016x>.seg` begins with a 16-byte
//! header and then standard `[len][body][fnv1a]` frames, where every
//! body is `[shard: u32][WalRecord]` — one shared log, records tagged
//! with the shard that wrote them (commit order across shards *is*
//! the append order, which recovery replays).
//!
//! Durability. [`SyncPolicy::Always`] fsyncs after every append;
//! [`SyncPolicy::Batch`] group-commits, fsyncing every `every`
//! appends (and at rotation, checkpoint and shutdown via
//! [`DurableLog::flush`]). fsync latency lands in the `wal.fsync_ns`
//! histogram.
//!
//! Recovery semantics, mirroring `wal::scan_frames`: a torn tail is
//! tolerated **only in the final segment** (the one append that can
//! die mid-write) and is truncated away on open; a checksum mismatch
//! on any complete frame, a short non-final segment, an LSN gap or a
//! bad header are refused with a [`StorageError::Corrupt`] naming the
//! file and byte offset.
//!
//! Compaction. [`DurableLog::compact`] seals the live segment and
//! deletes every segment fully covered by the last durable snapshot,
//! so replay-after-checkpoint reads only post-snapshot records.

use super::backend::{Storage, StorageError};
use super::SyncPolicy;
use crate::wal::{self, WalRecord};
use crate::wire::{WireDecode, WireEncode, WireReader, WireWriter};
use parking_lot::Mutex;
use ppms_obs::{Counter, Gauge, Histogram, Registry};
use std::sync::Arc;
use std::time::Instant;

/// Segment header magic: `PPWS` ("privacy-preserving WAL segment").
const SEGMENT_MAGIC: u32 = 0x5050_5753;

/// Segment format version. v3: one record per executed write
/// (`{key, span, request, response, effects}`), where v2 wrote a
/// `Begin` before and a `Commit` after each request. Segments of any
/// other version are refused rather than misdecoded.
const SEGMENT_VERSION: u16 = 3;

/// Header bytes: magic u32, version u16, reserved u16, start LSN u64.
const SEGMENT_HEADER_LEN: usize = 16;

/// Extra reads a segment gets when a read comes back shorter than the
/// segment is known to be (replay) or looks torn (open): a short read
/// returns a prefix, so it must not be taken for a torn tail.
const SHORT_READ_RETRIES: usize = 4;

fn segment_name(start_lsn: u64) -> String {
    format!("wal-{start_lsn:016x}.seg")
}

fn segment_header(start_lsn: u64) -> [u8; SEGMENT_HEADER_LEN] {
    let mut h = [0u8; SEGMENT_HEADER_LEN];
    h[..4].copy_from_slice(&SEGMENT_MAGIC.to_be_bytes());
    h[4..6].copy_from_slice(&SEGMENT_VERSION.to_be_bytes());
    h[8..16].copy_from_slice(&start_lsn.to_be_bytes());
    h
}

#[derive(Debug, Clone)]
struct SegmentMeta {
    start_lsn: u64,
    name: String,
    bytes: usize,
}

#[derive(Debug)]
struct LogInner {
    /// Sorted by `start_lsn`; the last entry is the live segment.
    segments: Vec<SegmentMeta>,
    /// LSN the next append receives.
    next_lsn: u64,
    /// Appends since the last fsync (group-commit window).
    unsynced: u64,
    /// Total frame+header bytes across all live segments.
    total_bytes: usize,
}

/// What [`DurableLog::open`] found on the medium.
#[derive(Debug, Default)]
pub struct LogRecovery {
    /// Every record in LSN order, tagged with the shard that wrote
    /// it: `(lsn, shard, record)`.
    pub records: Vec<(u64, u32, WalRecord)>,
    /// First LSN still present (records below it live only in a
    /// snapshot) — the compaction-bound assertion reads this.
    pub start_lsn: u64,
    /// Bytes of the torn tail truncated from the final segment.
    pub torn_bytes: usize,
    /// Segment files read.
    pub segments_read: usize,
}

/// The instance-wide durable write-ahead log.
#[derive(Debug)]
pub struct DurableLog {
    storage: Arc<dyn Storage>,
    policy: SyncPolicy,
    segment_bytes: usize,
    inner: Mutex<LogInner>,
    fsync_ns: Arc<Histogram>,
    fsyncs: Arc<Counter>,
    compactions: Arc<Counter>,
    segments_compacted: Arc<Counter>,
    torn_bytes_total: Arc<Counter>,
    disk_bytes: Arc<Gauge>,
    segments_gauge: Arc<Gauge>,
    records_gauge: Arc<Gauge>,
}

impl DurableLog {
    /// Opens (or creates) the log on `storage`, replaying whatever
    /// the medium holds. Torn tails are truncated; corruption before
    /// the tail refuses to open.
    pub fn open(
        storage: Arc<dyn Storage>,
        policy: SyncPolicy,
        segment_bytes: usize,
        obs: &Registry,
    ) -> Result<(DurableLog, LogRecovery), StorageError> {
        let mut names: Vec<(u64, String)> = Vec::new();
        for name in storage.list()? {
            if let Some(start) = parse_segment_name(&name) {
                names.push((start, name));
            }
        }
        names.sort_unstable();

        let mut recovery = LogRecovery::default();
        let mut segments = Vec::with_capacity(names.len().max(1));
        let mut next_lsn = names.first().map_or(0, |&(start, _)| start);
        recovery.start_lsn = next_lsn;
        let last_idx = names.len().wrapping_sub(1);
        for (i, (start, name)) in names.iter().enumerate() {
            let is_last = i == last_idx;
            if *start != next_lsn {
                return Err(StorageError::Corrupt {
                    file: name.clone(),
                    offset: 0,
                    detail: format!("segment starts at lsn {start}, expected {next_lsn}"),
                });
            }
            let mut data = storage.read(name)?;
            if looks_torn(&data) {
                data = read_agreed(&*storage, name, data)?;
            }
            if data.len() < SEGMENT_HEADER_LEN {
                if is_last {
                    // The rotation died mid-header: the segment holds
                    // no records. Rewrite it whole.
                    recovery.torn_bytes += data.len();
                    storage.truncate(name, 0)?;
                    storage.append(name, &segment_header(*start))?;
                    storage.sync(name)?;
                    segments.push(SegmentMeta {
                        start_lsn: *start,
                        name: name.clone(),
                        bytes: SEGMENT_HEADER_LEN,
                    });
                    recovery.segments_read += 1;
                    continue;
                }
                return Err(StorageError::Corrupt {
                    file: name.clone(),
                    offset: 0,
                    detail: "short non-final segment (no header)".into(),
                });
            }
            check_header(name, &data, *start)?;
            let scan = wal::scan_frames(&data[SEGMENT_HEADER_LEN..]).map_err(|fault| {
                StorageError::Corrupt {
                    file: name.clone(),
                    offset: SEGMENT_HEADER_LEN + fault.offset,
                    detail: fault.error.to_string(),
                }
            })?;
            if scan.torn_bytes > 0 {
                if !is_last {
                    return Err(StorageError::Corrupt {
                        file: name.clone(),
                        offset: data.len() - scan.torn_bytes,
                        detail: "truncated non-final segment".into(),
                    });
                }
                // The one legitimate tear: the final append died
                // mid-write. Discard it so new appends never
                // interleave with dead bytes.
                recovery.torn_bytes += scan.torn_bytes;
                storage.truncate(name, (data.len() - scan.torn_bytes) as u64)?;
            }
            let mut seg_bytes = SEGMENT_HEADER_LEN;
            for &(_, body) in &scan.frames {
                let mut r = WireReader::new(body);
                let shard = r.u32()?;
                let record = WalRecord::decode(&mut r)?;
                r.expect_done()?;
                recovery.records.push((next_lsn, shard, record));
                next_lsn += 1;
                seg_bytes += 4 + body.len() + 8;
            }
            segments.push(SegmentMeta {
                start_lsn: *start,
                name: name.clone(),
                bytes: seg_bytes,
            });
            recovery.segments_read += 1;
        }

        if segments.is_empty() {
            let name = segment_name(next_lsn);
            storage.append(&name, &segment_header(next_lsn))?;
            storage.sync(&name)?;
            segments.push(SegmentMeta {
                start_lsn: next_lsn,
                name,
                bytes: SEGMENT_HEADER_LEN,
            });
        }

        let total_bytes = segments.iter().map(|s| s.bytes).sum();
        let log = DurableLog {
            storage,
            policy,
            segment_bytes: segment_bytes.max(SEGMENT_HEADER_LEN + 1),
            inner: Mutex::new(LogInner {
                segments,
                next_lsn,
                unsynced: 0,
                total_bytes,
            }),
            fsync_ns: obs.histogram("wal.fsync_ns"),
            fsyncs: obs.counter("wal.fsyncs"),
            compactions: obs.counter("wal.compactions"),
            segments_compacted: obs.counter("wal.segments_compacted"),
            torn_bytes_total: obs.counter("wal.torn_bytes"),
            disk_bytes: obs.gauge("wal.disk_bytes"),
            segments_gauge: obs.gauge("wal.segments"),
            records_gauge: obs.gauge("wal.records"),
        };
        log.torn_bytes_total.add(recovery.torn_bytes as u64);
        {
            let inner = log.inner.lock();
            log.publish_gauges(&inner);
        }
        Ok((log, recovery))
    }

    fn publish_gauges(&self, inner: &LogInner) {
        self.disk_bytes.set(inner.total_bytes as i64);
        self.segments_gauge.set(inner.segments.len() as i64);
        self.records_gauge.set(inner.next_lsn as i64);
    }

    /// Fsyncs the live segment if it holds unsynced appends; returns
    /// whether it ran an fsync.
    fn sync_live(&self, inner: &mut LogInner) -> Result<bool, StorageError> {
        if inner.unsynced == 0 {
            return Ok(false);
        }
        let name = inner.segments.last().expect("live segment").name.clone();
        let t0 = Instant::now();
        self.storage.sync(&name)?;
        self.fsync_ns.record(t0.elapsed().as_nanos() as u64);
        self.fsyncs.inc();
        inner.unsynced = 0;
        Ok(true)
    }

    fn start_segment(&self, inner: &mut LogInner) -> Result<(), StorageError> {
        let name = segment_name(inner.next_lsn);
        self.storage
            .append(&name, &segment_header(inner.next_lsn))?;
        inner.segments.push(SegmentMeta {
            start_lsn: inner.next_lsn,
            name,
            bytes: SEGMENT_HEADER_LEN,
        });
        inner.total_bytes += SEGMENT_HEADER_LEN;
        Ok(())
    }

    /// Appends one record for `shard`, returning its LSN. Honors the
    /// sync policy; rotates to a new segment when the live one is
    /// full (sealing the old one durably first).
    pub fn append(&self, shard: u32, record: &WalRecord) -> Result<u64, StorageError> {
        self.append_spanned(shard, record, ppms_obs::SpanContext::NONE)
    }

    /// Like [`DurableLog::append`], additionally parenting any fsync
    /// this append triggers (per the sync policy) to `ctx` as a
    /// `storage.fsync` span — the deepest rung of a request's causal
    /// trace. `SpanContext::NONE` records no span.
    pub fn append_spanned(
        &self,
        shard: u32,
        record: &WalRecord,
        ctx: ppms_obs::SpanContext,
    ) -> Result<u64, StorageError> {
        let mut w = WireWriter::new();
        w.u32(shard);
        record.encode(&mut w);
        let body = w.finish();
        let mut frame = Vec::with_capacity(body.len() + 12);
        wal::append_frame(&mut frame, &body);

        let mut inner = self.inner.lock();
        if inner.segments.last().expect("live segment").bytes >= self.segment_bytes {
            // Seal the full segment durably before opening the next:
            // only the *final* segment may ever hold a torn tail.
            self.sync_live(&mut inner)?;
            self.start_segment(&mut inner)?;
        }
        let live = inner.segments.last().expect("live segment");
        let (name, live_bytes) = (live.name.clone(), live.bytes);
        self.storage.append(&name, &frame)?;
        inner.unsynced += 1;
        let will_sync = match self.policy {
            SyncPolicy::Always => true,
            SyncPolicy::Batch { every } => inner.unsynced >= every.max(1),
        };
        if will_sync {
            let _fsync_span = (!ctx.is_none()).then(|| ppms_obs::Span::child("storage.fsync", ctx));
            if let Err(e) = self.sync_live(&mut inner) {
                // A failed append leaves no record behind: the service
                // applies a record only once it is in the log.
                inner.unsynced -= 1;
                let _ = self.storage.truncate(&name, live_bytes as u64);
                return Err(e);
            }
        }
        inner.segments.last_mut().expect("live segment").bytes += frame.len();
        let lsn = inner.next_lsn;
        inner.next_lsn += 1;
        inner.total_bytes += frame.len();
        self.publish_gauges(&inner);
        Ok(lsn)
    }

    /// Forces any group-committed tail to durable media (group
    /// commit, checkpoint and shutdown call this) and returns whether
    /// it ran an fsync. Under [`SyncPolicy::Always`] every append has
    /// fsynced before it returned, so this returns `false` without
    /// taking the log lock.
    pub fn flush(&self) -> Result<bool, StorageError> {
        if self.policy == SyncPolicy::Always {
            return Ok(false);
        }
        let mut inner = self.inner.lock();
        self.sync_live(&mut inner)
    }

    /// LSN the next append will receive (== records ever appended
    /// when the log has never been compacted).
    pub fn next_lsn(&self) -> u64 {
        self.inner.lock().next_lsn
    }

    /// First LSN still present on the medium.
    pub fn start_lsn(&self) -> u64 {
        self.inner.lock().segments[0].start_lsn
    }

    /// Live segment count.
    pub fn segment_count(&self) -> usize {
        self.inner.lock().segments.len()
    }

    /// Total bytes across live segments.
    pub fn disk_bytes(&self) -> usize {
        self.inner.lock().total_bytes
    }

    /// Drops every segment fully covered by a snapshot that reflects
    /// all records with `lsn < covered`. The live segment is sealed
    /// (synced + rotated) first if it holds covered records, so the
    /// surviving tail contains exactly the records `>= covered`.
    /// Returns the number of segments deleted.
    pub fn compact(&self, covered: u64) -> Result<usize, StorageError> {
        let mut inner = self.inner.lock();
        let live_has_records =
            inner.segments.last().expect("live segment").start_lsn < inner.next_lsn;
        if live_has_records && covered >= inner.next_lsn {
            self.sync_live(&mut inner)?;
            self.start_segment(&mut inner)?;
        }
        let mut removed = 0usize;
        // A segment is covered iff its successor starts at or below
        // `covered` (its own records all have lsn < covered). The
        // live segment never qualifies.
        while inner.segments.len() > 1 && inner.segments[1].start_lsn <= covered {
            let seg = inner.segments.remove(0);
            self.storage.remove(&seg.name)?;
            inner.total_bytes -= seg.bytes;
            removed += 1;
        }
        if removed > 0 {
            self.compactions.inc();
            self.segments_compacted.add(removed as u64);
        }
        self.publish_gauges(&inner);
        Ok(removed)
    }

    /// Replays the per-shard projection for a respawning worker:
    /// every record tagged `shard` still present in the log, in LSN
    /// order. Holds the append lock for the duration so the scan never
    /// races a concurrent writer mid-frame.
    pub fn replay_shard(&self, shard: u32) -> Result<Vec<WalRecord>, StorageError> {
        let inner = self.inner.lock();
        let mut records = Vec::new();
        let last = inner.segments.len() - 1;
        for (i, seg) in inner.segments.iter().enumerate() {
            let data = self.read_whole(seg)?;
            if data.len() < SEGMENT_HEADER_LEN {
                return Err(StorageError::Corrupt {
                    file: seg.name.clone(),
                    offset: 0,
                    detail: "short segment (no header)".into(),
                });
            }
            check_header(&seg.name, &data, seg.start_lsn)?;
            let scan = wal::scan_frames(&data[SEGMENT_HEADER_LEN..]).map_err(|fault| {
                StorageError::Corrupt {
                    file: seg.name.clone(),
                    offset: SEGMENT_HEADER_LEN + fault.offset,
                    detail: fault.error.to_string(),
                }
            })?;
            if scan.torn_bytes > 0 && i != last {
                return Err(StorageError::Corrupt {
                    file: seg.name.clone(),
                    offset: data.len() - scan.torn_bytes,
                    detail: "truncated non-final segment".into(),
                });
            }
            for &(_, body) in &scan.frames {
                let mut r = WireReader::new(body);
                let tag = r.u32()?;
                if tag == shard {
                    records.push(WalRecord::decode(&mut r)?);
                }
            }
        }
        Ok(records)
    }

    /// Reads `seg` whole: a read shorter than the bytes this process
    /// wrote to it is retried, and one that stays short is an error
    /// naming the file and both lengths, never a torn tail.
    fn read_whole(&self, seg: &SegmentMeta) -> Result<Vec<u8>, StorageError> {
        let mut data = self.storage.read(&seg.name)?;
        for _ in 0..SHORT_READ_RETRIES {
            if data.len() >= seg.bytes {
                break;
            }
            data = self.storage.read(&seg.name)?;
        }
        if data.len() < seg.bytes {
            return Err(StorageError::Io(format!(
                "short read of {}: {} of {} bytes",
                seg.name,
                data.len(),
                seg.bytes
            )));
        }
        Ok(data)
    }
}

/// Whether `data` ends inside the segment header or inside a frame,
/// judged by the frame lengths alone (checksums are `scan_frames`'s).
fn looks_torn(data: &[u8]) -> bool {
    let Some(mut rest) = data.get(SEGMENT_HEADER_LEN..) else {
        return true;
    };
    while let Some(len) = rest.get(..4) {
        let end = 4 + u32::from_be_bytes(len.try_into().expect("4 bytes")) as usize + 8;
        match rest.get(end..) {
            Some(tail) => rest = tail,
            None => return true,
        }
    }
    !rest.is_empty()
}

/// Re-reads `name` until two reads agree on its length, keeping the
/// longest: a short read returns a prefix, so only a length read twice
/// is the file's. Reads that never agree are an error.
fn read_agreed(
    storage: &dyn Storage,
    name: &str,
    mut data: Vec<u8>,
) -> Result<Vec<u8>, StorageError> {
    for _ in 0..SHORT_READ_RETRIES {
        let again = storage.read(name)?;
        if again.len() == data.len() {
            return Ok(data);
        }
        if again.len() > data.len() {
            data = again;
        }
    }
    Err(StorageError::Io(format!(
        "reads of {name} never agreed on its length (longest {} bytes)",
        data.len()
    )))
}

fn parse_segment_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("wal-")?.strip_suffix(".seg")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

fn check_header(name: &str, data: &[u8], expected_start: u64) -> Result<(), StorageError> {
    let magic = u32::from_be_bytes(data[..4].try_into().expect("4 bytes"));
    let version = u16::from_be_bytes(data[4..6].try_into().expect("2 bytes"));
    let start = u64::from_be_bytes(data[8..16].try_into().expect("8 bytes"));
    if magic != SEGMENT_MAGIC {
        return Err(StorageError::Corrupt {
            file: name.to_string(),
            offset: 0,
            detail: format!("bad segment magic {magic:#010x}"),
        });
    }
    if version != SEGMENT_VERSION {
        return Err(StorageError::Corrupt {
            file: name.to_string(),
            offset: 4,
            detail: format!("unsupported segment version {version}"),
        });
    }
    if start != expected_start {
        return Err(StorageError::Corrupt {
            file: name.to_string(),
            offset: 8,
            detail: format!("header lsn {start} disagrees with name ({expected_start})"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Party;
    use crate::service::{MaRequest, MaResponse, RequestKey};
    use crate::storage::SimStorage;

    fn rec(i: u64) -> WalRecord {
        WalRecord {
            key: Some(RequestKey {
                party: Party::Sp,
                request_id: i,
            }),
            span: ppms_obs::SpanContext::from_trace(i),
            request: MaRequest::LaborRegister {
                job_id: i,
                sp_pubkey: vec![i as u8],
            },
            response: MaResponse::Ok,
            effects: vec![],
        }
    }

    fn open(
        storage: &SimStorage,
        policy: SyncPolicy,
        segment_bytes: usize,
    ) -> (DurableLog, LogRecovery) {
        DurableLog::open(
            Arc::new(storage.clone()) as Arc<dyn Storage>,
            policy,
            segment_bytes,
            &Registry::new(),
        )
        .expect("open")
    }

    #[test]
    fn append_reopen_roundtrip_preserves_lsns_and_shards() {
        let sim = SimStorage::new();
        {
            let (log, rec0) = open(&sim, SyncPolicy::Always, 1 << 16);
            assert!(rec0.records.is_empty());
            for i in 0..6u64 {
                let lsn = log.append((i % 3) as u32, &rec(i)).unwrap();
                assert_eq!(lsn, i);
            }
        }
        let (log, recovered) = open(&sim, SyncPolicy::Always, 1 << 16);
        assert_eq!(recovered.records.len(), 6);
        assert_eq!(recovered.torn_bytes, 0);
        assert_eq!(recovered.start_lsn, 0);
        for (i, (lsn, shard, record)) in recovered.records.iter().enumerate() {
            assert_eq!(*lsn, i as u64);
            assert_eq!(*shard, (i % 3) as u32);
            assert!(matches!(
                record.request,
                MaRequest::LaborRegister { job_id, .. } if job_id == i as u64
            ));
        }
        assert_eq!(log.next_lsn(), 6);
    }

    #[test]
    fn rotation_seals_segments_and_replays_across_them() {
        let sim = SimStorage::new();
        let (log, _) = open(&sim, SyncPolicy::Always, 64); // tiny segments
        for i in 0..10u64 {
            log.append(0, &rec(i)).unwrap();
        }
        assert!(log.segment_count() > 2, "tiny cap must force rotation");
        let replayed = log.replay_shard(0).unwrap();
        assert_eq!(replayed.len(), 10);
        // Every non-final segment must be fully durable (sealed).
        let (_, recovered) = open(&sim, SyncPolicy::Always, 64);
        assert_eq!(recovered.records.len(), 10);
    }

    #[test]
    fn batch_policy_defers_fsync_and_flush_forces_it() {
        let sim = SimStorage::new();
        let (log, _) = open(&sim, SyncPolicy::Batch { every: 100 }, 1 << 16);
        for i in 0..5u64 {
            log.append(0, &rec(i)).unwrap();
        }
        // Nothing synced yet: a zero-tear crash image loses all five.
        let lost = (0..64u64).any(|seed| {
            let (_, r) = open(&sim.crash_image(seed), SyncPolicy::Always, 1 << 16);
            r.records.is_empty()
        });
        assert!(lost, "batch policy must leave a durability window");
        log.flush().unwrap();
        let (_, r) = open(&sim.crash_image(0), SyncPolicy::Always, 1 << 16);
        assert_eq!(r.records.len(), 5, "flush closes the window");
    }

    #[test]
    fn flush_reports_whether_it_fsynced_under_each_policy() {
        let obs = Registry::new();
        let open_with = |policy| {
            let storage = Arc::new(SimStorage::new()) as Arc<dyn Storage>;
            DurableLog::open(storage, policy, 1 << 16, &obs)
                .expect("open")
                .0
        };
        let fsyncs = obs.counter("wal.fsyncs");

        // `Always`: every append fsynced already, so a flush has
        // nothing to do and does not wait on the log lock for it.
        let log = Arc::new(open_with(SyncPolicy::Always));
        for i in 0..3u64 {
            log.append(0, &rec(i)).unwrap();
        }
        assert_eq!(fsyncs.get(), 3);
        let held = log.inner.lock();
        let (tx, rx) = std::sync::mpsc::channel();
        let flusher = log.clone();
        std::thread::spawn(move || tx.send(flusher.flush().unwrap()));
        let flushed = rx.recv_timeout(std::time::Duration::from_secs(10));
        drop(held);
        assert_eq!(flushed, Ok(false), "no fsync, and no wait on the lock");
        assert_eq!(fsyncs.get(), 3);

        // `Batch`: a flush fsyncs the deferred tail once, then has
        // nothing left to do.
        let log = open_with(SyncPolicy::Batch { every: 100 });
        assert!(!log.flush().unwrap(), "an empty tail needs no fsync");
        for i in 0..3u64 {
            log.append(0, &rec(i)).unwrap();
        }
        assert_eq!(fsyncs.get(), 3);
        assert!(log.flush().unwrap());
        assert_eq!(fsyncs.get(), 4);
        assert!(!log.flush().unwrap());
        assert_eq!(fsyncs.get(), 4);
    }

    /// A `SimStorage` whose next read of one file, once armed,
    /// returns all but its last five bytes: a short read. With
    /// `fail_sync` set, its next sync fails instead.
    #[derive(Debug)]
    struct ShortOnce {
        inner: SimStorage,
        armed: std::sync::Mutex<Option<String>>,
        fail_sync: std::sync::atomic::AtomicBool,
    }

    impl ShortOnce {
        fn arm(&self, name: &str) {
            *self.armed.lock().unwrap() = Some(name.to_string());
        }
    }

    impl Storage for ShortOnce {
        fn append(&self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
            self.inner.append(name, bytes)
        }
        fn sync(&self, name: &str) -> Result<(), StorageError> {
            if self
                .fail_sync
                .swap(false, std::sync::atomic::Ordering::SeqCst)
            {
                return Err(StorageError::Io("injected: fsync failed".into()));
            }
            self.inner.sync(name)
        }
        fn read(&self, name: &str) -> Result<Vec<u8>, StorageError> {
            let mut bytes = self.inner.read(name)?;
            let mut armed = self.armed.lock().unwrap();
            if armed.as_deref() == Some(name) {
                *armed = None;
                bytes.truncate(bytes.len() - 5);
            }
            Ok(bytes)
        }
        fn truncate(&self, name: &str, len: u64) -> Result<(), StorageError> {
            self.inner.truncate(name, len)
        }
        fn list(&self) -> Result<Vec<String>, StorageError> {
            self.inner.list()
        }
        fn remove(&self, name: &str) -> Result<(), StorageError> {
            self.inner.remove(name)
        }
        fn write_atomic(&self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
            self.inner.write_atomic(name, bytes)
        }
    }

    fn short_once(sim: &SimStorage) -> Arc<ShortOnce> {
        Arc::new(ShortOnce {
            inner: sim.clone(),
            armed: std::sync::Mutex::new(None),
            fail_sync: Default::default(),
        })
    }

    #[test]
    fn an_append_whose_fsync_failed_leaves_no_record() {
        // The service applies a record only once its append returned
        // Ok, so an Err must mean the record is not in the log.
        let sim = SimStorage::new();
        let storage = short_once(&sim);
        let (log, _) = DurableLog::open(
            storage.clone(),
            SyncPolicy::Always,
            1 << 16,
            &Registry::new(),
        )
        .expect("open");
        log.append(0, &rec(0)).unwrap();
        storage
            .fail_sync
            .store(true, std::sync::atomic::Ordering::SeqCst);
        assert!(log.append(0, &rec(1)).is_err());
        assert_eq!(
            log.append(0, &rec(2)).unwrap(),
            1,
            "the failed append took no lsn"
        );
        let keys = |records: Vec<WalRecord>| -> Vec<u64> {
            records.iter().map(|r| r.key.unwrap().request_id).collect()
        };
        assert_eq!(keys(log.replay_shard(0).unwrap()), [0, 2]);
        let (_, reopened) = open(&sim, SyncPolicy::Always, 1 << 16);
        let records = reopened.records.into_iter().map(|(_, _, r)| r).collect();
        assert_eq!(keys(records), [0, 2]);
    }

    #[test]
    fn a_short_read_during_replay_is_retried_not_taken_for_a_tear() {
        let sim = SimStorage::new();
        let storage = short_once(&sim);
        let (log, _) = DurableLog::open(
            storage.clone(),
            SyncPolicy::Always,
            1 << 16,
            &Registry::new(),
        )
        .expect("open");
        for i in 0..3u64 {
            log.append(0, &rec(i)).unwrap();
        }
        storage.arm(&segment_name(0));
        let replayed = log.replay_shard(0).unwrap();
        assert_eq!(replayed.len(), 3, "a short read dropped records");
        assert!(storage.armed.lock().unwrap().is_none(), "never read short");
    }

    #[test]
    fn a_read_that_stays_short_fails_replay_naming_both_lengths() {
        let sim = SimStorage::new();
        let (log, _) = open(&sim, SyncPolicy::Always, 1 << 16);
        log.append(0, &rec(1)).unwrap();
        let name = segment_name(0);
        let whole = sim.len(&name);
        // The medium lost bytes this process wrote: every read is short.
        sim.truncate(&name, (whole - 5) as u64).unwrap();
        let err = log.replay_shard(0).expect_err("a short segment must fail");
        let msg = err.to_string();
        assert!(matches!(err, StorageError::Io(_)), "{msg}");
        for part in [name, (whole - 5).to_string(), whole.to_string()] {
            assert!(msg.contains(&part), "{msg:?} lacks {part}");
        }
    }

    #[test]
    fn a_short_read_at_open_truncates_nothing() {
        let sim = SimStorage::new();
        {
            let (log, _) = open(&sim, SyncPolicy::Always, 1 << 16);
            for i in 0..3u64 {
                log.append(0, &rec(i)).unwrap();
            }
        }
        let name = segment_name(0);
        let whole = sim.len(&name);
        let storage = short_once(&sim);
        storage.arm(&name);
        let (_, recovered) = DurableLog::open(
            storage.clone(),
            SyncPolicy::Always,
            1 << 16,
            &Registry::new(),
        )
        .expect("open");
        assert!(storage.armed.lock().unwrap().is_none(), "never read short");
        assert_eq!(recovered.records.len(), 3, "a short read lost a record");
        assert_eq!(recovered.torn_bytes, 0);
        assert_eq!(sim.len(&name), whole, "a short read truncated the log");
    }

    #[test]
    fn torn_tail_is_truncated_and_reported() {
        let sim = SimStorage::new();
        let (log, _) = open(&sim, SyncPolicy::Always, 1 << 16);
        log.append(0, &rec(1)).unwrap();
        log.append(0, &rec(2)).unwrap();
        let name = segment_name(0);
        let whole = sim.len(&name);
        // Tear 5 bytes off the final frame.
        let sim2 = sim.crash_image(0); // all synced: identical copy
        sim2.truncate(&name, (whole - 5) as u64).unwrap();
        let (log2, recovered) = open(&sim2, SyncPolicy::Always, 1 << 16);
        assert_eq!(recovered.records.len(), 1);
        assert!(recovered.torn_bytes > 0);
        // The tail was truncated away: appending now yields a clean log.
        log2.append(7, &rec(9)).unwrap();
        let (_, r3) = open(&sim2, SyncPolicy::Always, 1 << 16);
        assert_eq!(r3.records.len(), 2);
        assert_eq!(r3.records[1].1, 7);
        assert_eq!(r3.records[1].0, 1, "lsn restarts after the tear");
    }

    #[test]
    fn bit_flip_mid_log_is_refused_with_position() {
        let sim = SimStorage::new();
        let (log, _) = open(&sim, SyncPolicy::Always, 1 << 16);
        log.append(0, &rec(1)).unwrap();
        log.append(0, &rec(2)).unwrap();
        let name = segment_name(0);
        // Flip a bit inside the *first* frame's body.
        sim.flip_bit(&name, SEGMENT_HEADER_LEN + 6, 0x40);
        let err = DurableLog::open(
            Arc::new(sim.clone()) as Arc<dyn Storage>,
            SyncPolicy::Always,
            1 << 16,
            &Registry::new(),
        )
        .expect_err("must refuse");
        match err {
            StorageError::Corrupt { file, offset, .. } => {
                assert_eq!(file, name);
                assert_eq!(offset, SEGMENT_HEADER_LEN, "offset names the bad frame");
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn compaction_drops_covered_segments_only() {
        let sim = SimStorage::new();
        let (log, _) = open(&sim, SyncPolicy::Always, 64);
        for i in 0..8u64 {
            log.append(0, &rec(i)).unwrap();
        }
        let covered = log.next_lsn();
        let removed = log.compact(covered).unwrap();
        assert!(removed > 0);
        assert_eq!(log.segment_count(), 1, "only the fresh live segment");
        assert_eq!(log.start_lsn(), covered);
        // Appends continue with unbroken lsns…
        log.append(0, &rec(100)).unwrap();
        // …and a reopen sees only the post-compaction tail.
        let (_, recovered) = open(&sim, SyncPolicy::Always, 64);
        assert_eq!(recovered.start_lsn, covered);
        assert_eq!(recovered.records.len(), 1);
        assert_eq!(recovered.records[0].0, covered);
    }

    #[test]
    fn partial_coverage_keeps_uncovered_segments() {
        let sim = SimStorage::new();
        let (log, _) = open(&sim, SyncPolicy::Always, 64);
        for i in 0..8u64 {
            log.append(0, &rec(i)).unwrap();
        }
        let segs_before = log.segment_count();
        // A snapshot covering only lsn 0 cannot drop anything beyond
        // segments whose every record is below 1.
        log.compact(1).unwrap();
        assert!(log.segment_count() >= segs_before - 1);
        let (_, recovered) = open(&sim, SyncPolicy::Always, 64);
        let first = recovered.records.first().map(|&(lsn, _, _)| lsn).unwrap();
        assert!(first <= 1, "records >= covered must survive");
        assert_eq!(recovered.records.last().unwrap().0, 7);
    }

    #[test]
    fn lsn_gap_between_segments_is_refused() {
        let sim = SimStorage::new();
        let (log, _) = open(&sim, SyncPolicy::Always, 64);
        for i in 0..8u64 {
            log.append(0, &rec(i)).unwrap();
        }
        assert!(log.segment_count() >= 3);
        // Delete a middle segment wholesale (a short_read-style loss).
        let victims: Vec<String> = sim
            .list()
            .unwrap()
            .into_iter()
            .filter(|n| parse_segment_name(n).is_some_and(|s| s > 0))
            .collect();
        let mut starts: Vec<u64> = victims
            .iter()
            .filter_map(|n| parse_segment_name(n))
            .collect();
        starts.sort_unstable();
        sim.remove(&segment_name(starts[0])).unwrap();
        let err = DurableLog::open(
            Arc::new(sim) as Arc<dyn Storage>,
            SyncPolicy::Always,
            64,
            &Registry::new(),
        )
        .expect_err("gap must refuse");
        assert!(matches!(err, StorageError::Corrupt { .. }));
    }

    #[test]
    fn segment_of_an_older_version_is_refused() {
        // A v2 segment (a Begin before and a Commit after each
        // request) must not be decoded as one-record-per-write frames.
        let sim = SimStorage::new();
        let mut header = segment_header(0);
        header[4..6].copy_from_slice(&2u16.to_be_bytes());
        let name = segment_name(0);
        sim.append(&name, &header).unwrap();
        sim.sync(&name).unwrap();
        let err = DurableLog::open(
            Arc::new(sim) as Arc<dyn Storage>,
            SyncPolicy::Always,
            1 << 16,
            &Registry::new(),
        )
        .expect_err("an old segment version must refuse");
        match err {
            StorageError::Corrupt { file, offset, .. } => {
                assert_eq!(file, name);
                assert_eq!(offset, 4, "offset names the version field");
            }
            other => panic!("wrong error: {other}"),
        }
    }
}

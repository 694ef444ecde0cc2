//! Checkpoint snapshots: a single checksummed frame serializing the
//! whole market state a cold start needs — the shared tier (ledger,
//! bulletin, CL bindings, DEC double-spend set, held payments) plus
//! every shard's private projection (nonce high-water marks, labor
//! registrations, data reports, dedup cache in insertion order) and
//! the TCP front door's admission-gate blob.
//!
//! A snapshot file `snap-<covered:016x>.snap` is published with
//! [`Storage::write_atomic`]; `covered` is the LSN *after* the last
//! record the snapshot reflects, so recovery replays exactly the log
//! records with `lsn >= covered`. [`load_latest`] walks snapshots
//! newest-first and skips any whose checksum or decode fails — a
//! checkpoint torn by a crash falls back to its predecessor (which is
//! why compaction only runs after a snapshot reports durable, and why
//! [`save_snapshot`] keeps the previous generation around).

use super::backend::{Storage, StorageError};
use crate::bank::BankSnapshot;
use crate::bulletin::JobProfile;
use crate::metrics::Party;
use crate::service::{MaResponse, RequestKey};
use crate::wal;
use crate::wire::{put_list, read_list, WireDecode, WireEncode, WireError, WireReader, WireWriter};
use ppms_crypto::cl::ClPublicKey;
use ppms_ecash::DecBankState;
use std::sync::Arc;

/// Snapshot body magic: `PPSN`.
const SNAPSHOT_MAGIC: u32 = 0x5050_534e;

/// Snapshot format version.
const SNAPSHOT_VERSION: u16 = 1;

/// Snapshot generations [`save_snapshot`] retains, the new one
/// included: the second is the fallback for a torn checkpoint
/// publication.
const KEEP_SNAPSHOTS: usize = 2;

/// One shard's private projection — what its respawn replay would
/// otherwise rebuild from the full log.
#[derive(Debug, Clone, Default)]
pub struct ShardSection {
    /// Withdrawal-nonce high-water marks: `(account, nonce)`.
    pub nonces: Vec<(u64, u64)>,
    /// Labor registrations: `(job_id, pseudonyms)`.
    pub labor: Vec<(u64, Vec<Vec<u8>>)>,
    /// Data reports: `(job_id, reports)`.
    pub reports: Vec<(u64, Vec<Vec<u8>>)>,
    /// Dedup cache in insertion (eviction) order.
    pub dedup: Vec<(RequestKey, MaResponse)>,
}

/// Everything a cold [`crate::service::MaService`] restores before
/// replaying the log tail.
#[derive(Debug, Clone, Default)]
pub struct SnapshotState {
    /// First LSN *not* reflected here: replay resumes at `covered`.
    pub covered: u64,
    /// The ledger.
    pub bank: BankSnapshot,
    /// Published job profiles in id order.
    pub jobs: Vec<JobProfile>,
    /// `account id → CL public key` bindings, sorted by id.
    pub cl_bindings: Vec<(u64, ClPublicKey)>,
    /// DEC bank double-spend state.
    pub dec: DecBankState,
    /// Held payments not yet fetched: `(sp_pubkey, bundle)`.
    pub pending_payments: Vec<(Vec<u8>, Vec<u8>)>,
    /// SP pubkeys whose data report arrived.
    pub received_reports: Vec<Vec<u8>>,
    /// Per-shard projections, indexed by shard id (the length pins
    /// the shard count the snapshot was taken under).
    pub shards: Vec<ShardSection>,
    /// Opaque admission-gate state (`AdmissionGate::export_state`),
    /// absent when no front door was running.
    pub gate: Option<Vec<u8>>,
}

fn put_bytes_list(w: &mut WireWriter, items: &[Vec<u8>]) {
    put_list(w, items, |w, b| w.bytes(b));
}

fn read_bytes_list(r: &mut WireReader<'_>) -> Result<Vec<Vec<u8>>, WireError> {
    read_list(r, |r| Ok(r.bytes()?.to_vec()))
}

fn put_hash_list(w: &mut WireWriter, items: &[[u8; 32]]) {
    put_list(w, items, |w, h| w.bytes(h));
}

fn read_hash_list(r: &mut WireReader<'_>) -> Result<Vec<[u8; 32]>, WireError> {
    read_list(r, |r| {
        let b = r.bytes()?;
        b.try_into()
            .map_err(|_| WireError::Malformed("32-byte hash"))
    })
}

impl WireEncode for ShardSection {
    fn encode(&self, w: &mut WireWriter) {
        put_list(w, &self.nonces, |w, &(account, nonce)| {
            w.u64(account);
            w.u64(nonce);
        });
        put_list(w, &self.labor, |w, (job, pseudonyms)| {
            w.u64(*job);
            put_bytes_list(w, pseudonyms);
        });
        put_list(w, &self.reports, |w, (job, reports)| {
            w.u64(*job);
            put_bytes_list(w, reports);
        });
        put_list(w, &self.dedup, |w, (key, response)| {
            key.party.encode(w);
            w.u64(key.request_id);
            response.encode(w);
        });
    }
}

impl WireDecode for ShardSection {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(ShardSection {
            nonces: read_list(r, |r| Ok((r.u64()?, r.u64()?)))?,
            labor: read_list(r, |r| Ok((r.u64()?, read_bytes_list(r)?)))?,
            reports: read_list(r, |r| Ok((r.u64()?, read_bytes_list(r)?)))?,
            dedup: read_list(r, |r| {
                Ok((
                    RequestKey {
                        party: Party::decode(r)?,
                        request_id: r.u64()?,
                    },
                    MaResponse::decode(r)?,
                ))
            })?,
        })
    }
}

impl WireEncode for SnapshotState {
    fn encode(&self, w: &mut WireWriter) {
        w.u32(SNAPSHOT_MAGIC);
        w.u16(SNAPSHOT_VERSION);
        w.u64(self.covered);
        w.u64(self.bank.next_id);
        put_list(w, &self.bank.accounts, |w, &(id, bal)| {
            w.u64(id);
            w.u64(bal);
        });
        put_list(w, &self.jobs, |w, job| {
            w.u64(job.job_id);
            w.str(&job.description);
            w.u64(job.payment);
            w.bytes(&job.pseudonym);
        });
        put_list(w, &self.cl_bindings, |w, (id, clpk)| {
            w.u64(*id);
            clpk.encode(w);
        });
        put_hash_list(w, &self.dec.spent);
        put_hash_list(w, &self.dec.ancestors);
        put_list(w, &self.dec.coin_totals, |w, (root, total)| {
            w.bytes(root);
            w.u64(*total);
        });
        put_list(w, &self.pending_payments, |w, (pk, bundle)| {
            w.bytes(pk);
            w.bytes(bundle);
        });
        put_bytes_list(w, &self.received_reports);
        put_list(w, &self.shards, |w, section| section.encode(w));
        match &self.gate {
            None => w.bool(false),
            Some(blob) => {
                w.bool(true);
                w.bytes(blob);
            }
        }
    }
}

impl WireDecode for SnapshotState {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        if r.u32()? != SNAPSHOT_MAGIC {
            return Err(WireError::Malformed("snapshot magic"));
        }
        if r.u16()? != SNAPSHOT_VERSION {
            return Err(WireError::Malformed("snapshot version"));
        }
        Ok(SnapshotState {
            covered: r.u64()?,
            bank: BankSnapshot {
                next_id: r.u64()?,
                accounts: read_list(r, |r| Ok((r.u64()?, r.u64()?)))?,
            },
            jobs: read_list(r, |r| {
                Ok(JobProfile {
                    job_id: r.u64()?,
                    description: r.str()?,
                    payment: r.u64()?,
                    pseudonym: r.bytes()?.to_vec(),
                })
            })?,
            cl_bindings: read_list(r, |r| Ok((r.u64()?, ClPublicKey::decode(r)?)))?,
            dec: DecBankState {
                spent: read_hash_list(r)?,
                ancestors: read_hash_list(r)?,
                coin_totals: read_list(r, |r| {
                    let root: [u8; 32] = r
                        .bytes()?
                        .try_into()
                        .map_err(|_| WireError::Malformed("32-byte root tag"))?;
                    Ok((root, r.u64()?))
                })?,
            },
            pending_payments: read_list(r, |r| Ok((r.bytes()?.to_vec(), r.bytes()?.to_vec())))?,
            received_reports: read_bytes_list(r)?,
            shards: read_list(r, ShardSection::decode)?,
            gate: if r.bool()? {
                Some(r.bytes()?.to_vec())
            } else {
                None
            },
        })
    }
}

fn snapshot_name(covered: u64) -> String {
    format!("snap-{covered:016x}.snap")
}

fn parse_snapshot_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("snap-")?.strip_suffix(".snap")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// Publishes `state` atomically and durably, then prunes old
/// generations down to `KEEP_SNAPSHOTS` (2). Returns the file name
/// written.
pub fn save_snapshot(
    storage: &Arc<dyn Storage>,
    state: &SnapshotState,
) -> Result<String, StorageError> {
    let body = state.to_wire_bytes();
    let mut framed = Vec::with_capacity(body.len() + 12);
    wal::append_frame(&mut framed, &body);
    let name = snapshot_name(state.covered);
    storage.write_atomic(&name, &framed)?;
    let mut existing: Vec<u64> = storage
        .list()?
        .iter()
        .filter_map(|n| parse_snapshot_name(n))
        .collect();
    existing.sort_unstable_by(|a, b| b.cmp(a)); // newest first
    for &old in existing.iter().skip(KEEP_SNAPSHOTS) {
        storage.remove(&snapshot_name(old))?;
    }
    Ok(name)
}

/// The result of hunting for a usable snapshot.
#[derive(Debug, Default)]
pub struct SnapshotLoad {
    /// The newest snapshot that passed its checksum and decoded, if
    /// any.
    pub state: Option<SnapshotState>,
    /// Its file name.
    pub name: Option<String>,
    /// Newer snapshot files that were skipped as unreadable (torn
    /// checkpoint publications) — surfaced so recovery can report the
    /// fallback.
    pub skipped: Vec<String>,
}

/// Walks snapshots newest-first and returns the first readable one.
/// A snapshot that fails its frame checksum or decode is *skipped*,
/// not fatal: it is the torn remnant of a checkpoint that never
/// finished publishing, and its predecessor (still on the medium —
/// compaction only runs after a successful publish) is authoritative.
pub fn load_latest(storage: &Arc<dyn Storage>) -> Result<SnapshotLoad, StorageError> {
    let mut names: Vec<(u64, String)> = storage
        .list()?
        .into_iter()
        .filter_map(|n| parse_snapshot_name(&n).map(|covered| (covered, n)))
        .collect();
    names.sort_unstable_by(|a, b| b.cmp(a)); // newest first
    let mut load = SnapshotLoad::default();
    for (_, name) in names {
        let data = storage.read(&name)?;
        let usable = wal::scan_frames(&data).ok().and_then(|scan| {
            if scan.frames.len() == 1 && scan.torn_bytes == 0 {
                SnapshotState::from_wire_bytes(scan.frames[0].1).ok()
            } else {
                None
            }
        });
        match usable {
            Some(state) => {
                load.state = Some(state);
                load.name = Some(name);
                return Ok(load);
            }
            None => load.skipped.push(name),
        }
    }
    Ok(load)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::SimStorage;

    fn sample(covered: u64) -> SnapshotState {
        SnapshotState {
            covered,
            bank: BankSnapshot {
                next_id: 3,
                accounts: vec![(0, 100), (1, 7), (2, 0)],
            },
            jobs: vec![JobProfile {
                job_id: 0,
                description: "noise mapping".into(),
                payment: 8,
                pseudonym: vec![1, 2, 3],
            }],
            cl_bindings: vec![],
            dec: DecBankState {
                spent: vec![[0xAB; 32]],
                ancestors: vec![[0x01; 32], [0x02; 32]],
                coin_totals: vec![([0xCD; 32], 5)],
            },
            pending_payments: vec![(vec![9, 9], vec![1, 2, 3, 4])],
            received_reports: vec![vec![9, 9]],
            shards: vec![
                ShardSection {
                    nonces: vec![(0, 4)],
                    labor: vec![(0, vec![vec![7]])],
                    reports: vec![],
                    dedup: vec![(
                        RequestKey {
                            party: Party::Jo,
                            request_id: 11,
                        },
                        MaResponse::Ok,
                    )],
                },
                ShardSection::default(),
            ],
            gate: Some(vec![0xFE, 0xED]),
        }
    }

    fn storage() -> Arc<dyn Storage> {
        Arc::new(SimStorage::new())
    }

    #[test]
    fn roundtrip_is_byte_identical() {
        let state = sample(42);
        let bytes = state.to_wire_bytes();
        let back = SnapshotState::from_wire_bytes(&bytes).expect("decode");
        assert_eq!(back.to_wire_bytes(), bytes);
        assert_eq!(back.covered, 42);
        assert_eq!(back.bank, state.bank);
        assert_eq!(back.dec, state.dec);
        assert_eq!(back.shards.len(), 2);
        assert_eq!(back.gate.as_deref(), Some(&[0xFE, 0xED][..]));
    }

    #[test]
    fn save_load_and_prune() {
        let s = storage();
        for covered in [10u64, 20, 30] {
            save_snapshot(&s, &sample(covered)).expect("save");
        }
        let mut files = s.list().unwrap();
        files.sort();
        assert_eq!(
            files,
            vec![snapshot_name(20), snapshot_name(30)],
            "keep=2 prunes the oldest"
        );
        let load = load_latest(&s).expect("load");
        assert_eq!(load.state.expect("state").covered, 30);
        assert_eq!(load.name.as_deref(), Some(snapshot_name(30).as_str()));
        assert!(load.skipped.is_empty());
    }

    #[test]
    fn torn_newest_snapshot_falls_back_to_predecessor() {
        let s = storage();
        save_snapshot(&s, &sample(10)).unwrap();
        save_snapshot(&s, &sample(20)).unwrap();
        // Tear the newest: keep only half its bytes (a checkpoint
        // publication the crash interrupted).
        let newest = snapshot_name(20);
        let bytes = s.read(&newest).unwrap();
        s.write_atomic(&newest, &bytes[..bytes.len() / 2]).unwrap();
        let load = load_latest(&s).expect("load");
        assert_eq!(load.state.expect("state").covered, 10, "fell back");
        assert_eq!(load.skipped, vec![newest]);
    }

    #[test]
    fn flipped_bit_in_snapshot_is_skipped_not_trusted() {
        let s = storage();
        save_snapshot(&s, &sample(10)).unwrap();
        save_snapshot(&s, &sample(20)).unwrap();
        let newest = snapshot_name(20);
        let mut bytes = s.read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x08;
        s.write_atomic(&newest, &bytes).unwrap();
        let load = load_latest(&s).expect("load");
        assert_eq!(load.state.expect("state").covered, 10);
        assert_eq!(load.skipped, vec![newest]);
    }

    #[test]
    fn no_snapshot_is_a_clean_cold_start() {
        let load = load_latest(&storage()).expect("load");
        assert!(load.state.is_none());
        assert!(load.skipped.is_empty());
    }
}

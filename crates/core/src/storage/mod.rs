//! The storage tier (DESIGN.md §14): the MA's one write-ahead log,
//! with checkpoints, log compaction and cold-start recovery.
//!
//! The log carries the [`crate::wal`] records that give the MA
//! exactly-once semantics across *worker* crashes. On a [`DiskStorage`]
//! it also survives *process* crashes; an in-memory service runs the
//! same log over a [`SimStorage`], whose bytes outlive any worker
//! thread but not the process. Layered as:
//!
//! * [`backend`] — the byte-level [`Storage`] contract plus disk,
//!   simulated-with-durability-watermark and fault-injecting
//!   implementations;
//! * [`log`] — [`DurableLog`], segment files of framed
//!   `[shard][WalRecord]` entries with group commit and compaction;
//! * [`snapshot`] — checksummed whole-market checkpoints published
//!   atomically, the base state recovery replays the log tail onto.
//!
//! The recovery entry point itself lives in `service.rs`
//! (`MaService::recover`): it owns the request semantics replay
//! needs. This module stays policy-free byte plumbing.

pub mod backend;
pub mod log;
pub mod snapshot;

pub use backend::{DiskStorage, FaultyStorage, SimStorage, Storage, StorageError, StorageFaults};
pub use log::{DurableLog, LogRecovery};
pub use snapshot::{load_latest, save_snapshot, ShardSection, SnapshotLoad, SnapshotState};

use std::fmt;
use std::sync::Arc;

/// When appended log records reach durable media.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SyncPolicy {
    /// fsync after every append: a positive response implies the
    /// request is durable. The safest and slowest setting.
    #[default]
    Always,
    /// Group commit: fsync once per `every` appends (plus rotation,
    /// checkpoint and shutdown). Responses inside the window may
    /// precede durability — after a crash the client's retry
    /// re-executes, which the crash-matrix convergence tests cover.
    Batch {
        /// Appends per fsync.
        every: u64,
    },
}

impl fmt::Display for SyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyncPolicy::Always => write!(f, "always"),
            SyncPolicy::Batch { every } => write!(f, "batch-{every}"),
        }
    }
}

/// Configuration of the durable tier for one `MaService` instance.
#[derive(Clone)]
pub struct DurabilityConfig {
    /// Where segments and snapshots live.
    pub storage: Arc<dyn Storage>,
    /// fsync discipline for the log.
    pub sync: SyncPolicy,
    /// Rotate the live segment past this size (bytes).
    pub segment_bytes: usize,
    /// Take a checkpoint automatically once this many records
    /// accumulate past the last snapshot; `0` = manual checkpoints
    /// only ([`crate::service::MaService::checkpoint`]).
    pub checkpoint_every: u64,
}

impl DurabilityConfig {
    /// Defaults: fsync-always, 64 KiB segments, manual checkpoints.
    pub fn new(storage: Arc<dyn Storage>) -> DurabilityConfig {
        DurabilityConfig {
            storage,
            sync: SyncPolicy::default(),
            segment_bytes: 64 * 1024,
            checkpoint_every: 0,
        }
    }
}

impl fmt::Debug for DurabilityConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DurabilityConfig")
            .field("sync", &self.sync)
            .field("segment_bytes", &self.segment_bytes)
            .field("checkpoint_every", &self.checkpoint_every)
            .finish_non_exhaustive()
    }
}

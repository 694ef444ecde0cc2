//! # ppms-core
//!
//! The paper's primary contribution: two privacy-preserving market
//! mechanisms for incentive-driven mobile sensing markets.
//!
//! * [`ppmsdec`] — **PPMSdec** (paper §IV, Algorithm 1): arbitrary
//!   payments, built on divisible e-cash with cash breaking. Protects
//!   the SP's data-/job-/transaction-linkage privacy against both the
//!   job owner and the market administrator, and the JO's identity as
//!   a byproduct.
//! * [`ppmspbs`] — **PPMSpbs** (paper §V, Algorithm 4): unitary
//!   payments, built on RSA partially blind signatures. Protects the
//!   SP's privacy against the JO and its job linkage against the MA,
//!   while deliberately revealing transactions to the bank
//!   (anti-money-laundering, as the paper notes).
//!
//! Support modules: the [`bank`] (virtual currency ledger), the
//! [`bulletin`] board, [`wire`] (versioned envelope protocol — the
//! canonical byte encoding of every market message, integrity-checked
//! per frame), the stratified transport stack — [`stream`] (byte
//! streams: TCP sockets, fault-injecting decorators), [`frame`]
//! (framing/session: partial-read reassembly, bounded write queues),
//! [`transport`] (typed request/response over in-process /
//! simulated-network backends with chaos injection plus byte-level
//! traffic accounting → paper Table II), [`tcp`] (the hand-rolled
//! non-blocking TCP front door and its client transport) and [`gate`]
//! (402-style admission control priced in the market's own e-cash) —
//! [`retry`] (idempotent retransmission with backoff and a circuit
//! breaker), [`wal`] (the write-ahead journal's records and replay
//! rules behind crash recovery), [`storage`] (the storage tier: the
//! segment WAL every service journals to, on disk or in memory,
//! checkpoints, compaction and the crash-matrix fault models behind
//! cold-start recovery), [`metrics`] (operation counts → paper Table I;
//! fault-tolerance counters — both thin views over the `ppms-obs`
//! registry, which also carries per-op latency histograms and
//! queue-depth gauges; a worker crash dumps them with the span ring),
//! [`sim`] (multi-round, threaded and chaos market simulation → paper
//! Fig. 5), and [`attack`] (the denomination / linkage attack
//! evaluation behind the paper's §IV-B analysis).
//!
//! The crate forbids `unsafe` except in `poll`, whose one block calls
//! `poll(2)` for the front door's readiness wait (DESIGN.md §19).

#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod attack;
pub mod bank;
pub mod bulletin;
pub mod error;
pub mod frame;
pub mod gate;
pub mod metrics;
pub mod mixnet;
#[allow(unsafe_code)]
mod poll;
pub mod ppmsdec;
pub mod ppmspbs;
pub mod retry;
pub mod service;
pub mod sim;
pub mod storage;
pub mod stream;
pub mod tcp;
pub mod transport;
pub mod wal;
pub mod wire;

pub use attack::{run_denomination_attack, AttackReport};
pub use bank::{AccountId, Bank};
pub use bulletin::{Bulletin, JobProfile};
pub use error::MarketError;
pub use frame::{FrameDecoder, FramedConn, QueueFull, WriteQueue};
pub use gate::GateCheckpoint;
pub use gate::{AdmissionConfig, AdmissionGate, GateRequest, GateResponse};
pub use metrics::{FaultMetrics, FaultSnapshot, Metrics, MetricsSnapshot, Op, Party};
pub use mixnet::{MixCascade, MixNode};
pub use ppmsdec::{DecMarket, DecRoundOutcome};
pub use ppmspbs::{PbsMarket, PbsRoundOutcome};
pub use retry::{RetryPolicy, RetryingTransport};
pub use service::{
    CrashPhase, CrashPoint, Inbound, MaClient, MaRequest, MaResponse, MaService, RecoveryReport,
    Reply, RequestKey, ServiceConfig,
};
pub use storage::{
    DiskStorage, DurabilityConfig, DurableLog, FaultyStorage, SimStorage, SnapshotState, Storage,
    StorageError, StorageFaults, SyncPolicy,
};
pub use stream::{ByteStream, FlakyConfig, FlakyStream, TcpByteStream};
pub use tcp::{TcpClientConfig, TcpConfig, TcpFrontDoor, TcpTransport};
pub use transport::{
    next_request_id, next_trace_id, FaultPlan, InProcTransport, SimNetConfig, SimNetTransport,
    TrafficLog, Transport,
};
pub use wal::WalRecord;
pub use wire::{Envelope, RelayPayload, WireDecode, WireEncode, WireError};

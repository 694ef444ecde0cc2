//! # ppms-ecash
//!
//! Binary-tree **divisible e-cash** (DEC), modeled on the schemes the
//! paper cites (Okamoto \[22\], Chan–Frankel–Tsiounis \[23\]) and adapted
//! the way PPMSdec requires: the bank (market administrator) is
//! *online* and sits between spender and receiver, so double-spend
//! detection happens at deposit time against a serial database.
//!
//! ## The coin tree (paper §III-C1)
//!
//! A coin of value `2^L` is a binary tree of `L + 1` levels; a node at
//! depth `d` is worth `2^(L−d)`. Spending a node consumes it, its
//! ancestors and its descendants; disjoint nodes can be spent
//! independently. Node keys are derived down a [group
//! tower](ppms_crypto::tower) whose orders form a Cunningham chain:
//!
//! ```text
//! t_0 = g_1^s                    (coin secret s; t_0 never revealed)
//! R   = u_2^{t_0}                (public root tag, blind-signed by the bank)
//! t_d = g_{d+1,b_d}^{t_{d−1}} · h_{d+1}^s      (node key at depth d)
//! ```
//!
//! A spend of the node at depth `d` reveals `t_1 … t_d` (the spent
//! node's key is the serial; the ancestors enable conflict detection)
//! together with zero-knowledge proofs that the chain is well-formed:
//! a Stadler double-dlog proof for the root tag, a linked
//! representation proof for level 1, and one CDS OR-proof per deeper
//! edge (hiding the path bits). Proof cost grows linearly with depth —
//! exactly the shape of the paper's Fig. 3/4.
//!
//! ## Cash break (paper §IV-C)
//!
//! [`brk`] implements the three strategies the paper analyses: the
//! unitary break, PCBA (Algorithm 2) and EPCBA (Algorithm 3), plus the
//! fake-coin padding `E(0)` that defeats length inspection.

pub mod bank;
pub mod batch;
pub mod brk;
pub mod coin;
pub mod error;
pub mod params;
pub mod spend;
pub mod trace;
pub mod wallet;
pub mod wire;

pub use bank::{DecBank, DecBankState, DepositMark};
pub use batch::{batch_seed, verify_batch, verify_batch_chunked, DEPOSIT_CHUNK};
pub use brk::{
    allocate_nodes, break_epcba, break_pcba, break_unitary, build_payment, cover_range, plan_break,
    receive_payment, BreakPlan, CashBreak,
};
pub use coin::{Coin, FakeCoin, PaymentItem};
pub use error::DecError;
pub use params::DecParams;
pub use spend::{NodePath, Spend};
pub use trace::{trace_double_spender, trace_tag, verify_tag, TraceKey, TraceTag};
pub use wallet::Wallet;
pub use wire::{decode_payment, encode_payment, WireError};

//! 402-style **admission control** for the TCP front door, priced in
//! the market's own e-cash.
//!
//! An unauthenticated connection may not reach any shard handler.
//! Instead the front door speaks a tiny session protocol around the
//! market protocol proper:
//!
//! ```text
//! client                          front door
//!   | -- Hello -------------------> |
//!   | <- Challenge{price, N} ------ |      (402: payment required)
//!   | -- Admit{spends} -----------> |      (e-cash coins, face >= price)
//!   |      [gate deposits the coins through the ordinary
//!   |       DepositBatch path: ZK-verified, double-spend-checked,
//!   |       credited to the gate's revenue account]
//!   | <- Admitted{token, N} ------- |
//!   | -- App{token, request} -----> |      (xN, then re-challenged)
//!   | <- App(response) ------------ |
//! ```
//!
//! The economics: one admission coin buys `requests_per_token`
//! requests, so a flooder must spend real (blindly-signed,
//! unforgeable, double-spend-traced) currency at a rate proportional
//! to the load it imposes — DDoS resistance in the system's native
//! unit, the token-gated browsing-fee pattern of the Cashu
//! marketplace. Honest clients pay the same price, which is tiny
//! relative to the payments the market itself moves. Because the
//! coins go through the standard deposit path, a *double-spent*
//! admission coin is rejected by the DEC bank like any other
//! double-spend and admission is denied.
//!
//! Tokens are plain bearer words minted from a seeded splitmix64
//! stream — unguessable enough for tests and loopback benches, and
//! deliberately *not* presented as cryptographic: a production gate
//! would mint from an OS entropy source (the vendored `rand` has
//! none) or bind tokens to a channel secret.

use crate::bank::AccountId;
use crate::error::MarketError;
use crate::poll::Waker;
use crate::service::{MaRequest, MaResponse, RequestKey};
use crate::wire::{put_list, read_list, WireDecode, WireEncode, WireError, WireReader, WireWriter};
use ppms_ecash::Spend;
use ppms_obs::{Counter, Registry};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, PoisonError};
use std::time::Duration;

/// What a connection may say to the front door. The market protocol
/// proper ([`MaRequest`]) rides inside [`GateRequest::App`], so one
/// framed connection carries both the session handshake and the
/// application traffic.
#[derive(Debug, Clone)]
pub enum GateRequest {
    /// "Let me in" — answered with a [`GateResponse::Challenge`]
    /// (or an immediate mint when the configured price is zero).
    Hello,
    /// Payment for admission: e-cash spends whose face value must
    /// cover the challenged price. Idempotent under the envelope's
    /// `(party, msg_id)` key — a retransmitted `Admit` replays the
    /// deposit's cached verdict instead of double-depositing.
    Admit {
        /// The admission coins.
        spends: Vec<Spend>,
    },
    /// An application request under a previously minted session
    /// token.
    App {
        /// Bearer token from [`GateResponse::Admitted`].
        token: u64,
        /// The market request itself.
        request: MaRequest,
    },
    /// A read-only operational query, answered by the reactor itself
    /// — admission-exempt (monitoring must work when the paywall or
    /// the wallet is broken) but rate-limited, and it never reaches a
    /// shard.
    Ops(OpsRequest),
}

/// The operational queries the front door answers in-reactor. All
/// read-only; all served from the reactor's own state plus metric
/// snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpsRequest {
    /// Liveness/readiness probe: a small JSON body with connection and
    /// in-flight gauges plus uptime.
    Health,
    /// The merged metrics snapshot (service registry + process-global
    /// registry) as JSON.
    MetricsJson,
    /// The same snapshot in Prometheus text exposition format.
    MetricsText,
    /// The slow-request log: JSON array of requests that exceeded the
    /// configured latency threshold, each with its span tree.
    SlowLog,
}

/// The front door's answers.
#[derive(Debug, Clone)]
pub enum GateResponse {
    /// 402: present e-cash worth `price` to proceed.
    Challenge {
        /// Total face value the admission spends must reach.
        price: u64,
        /// How many requests one admission buys.
        requests_per_token: u64,
    },
    /// Admission granted.
    Admitted {
        /// Bearer token to present in [`GateRequest::App`].
        token: u64,
        /// Requests this token covers.
        requests: u64,
    },
    /// Admission (or a request) permanently refused.
    Denied {
        /// Human-readable reason.
        reason: String,
    },
    /// An application response.
    App(MaResponse),
    /// Load shed: the server refused the message *before* the service
    /// pipeline. Retryable.
    Busy,
    /// The answer to a [`GateRequest::Ops`] query: a self-describing
    /// JSON or Prometheus-text body.
    Ops {
        /// The rendered body.
        body: String,
    },
}

impl WireEncode for GateRequest {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            GateRequest::Hello => w.u8(0),
            GateRequest::Admit { spends } => {
                w.u8(1);
                put_list(w, spends, |w, s| s.encode(w));
            }
            GateRequest::App { token, request } => {
                w.u8(2);
                w.u64(*token);
                request.encode(w);
            }
            GateRequest::Ops(op) => {
                w.u8(3);
                w.u8(match op {
                    OpsRequest::Health => 0,
                    OpsRequest::MetricsJson => 1,
                    OpsRequest::MetricsText => 2,
                    OpsRequest::SlowLog => 3,
                });
            }
        }
    }
}

impl WireDecode for GateRequest {
    fn decode(r: &mut WireReader<'_>) -> Result<GateRequest, WireError> {
        Ok(match r.u8()? {
            0 => GateRequest::Hello,
            1 => GateRequest::Admit {
                spends: read_list(r, Spend::decode)?,
            },
            2 => GateRequest::App {
                token: r.u64()?,
                request: MaRequest::decode(r)?,
            },
            3 => GateRequest::Ops(match r.u8()? {
                0 => OpsRequest::Health,
                1 => OpsRequest::MetricsJson,
                2 => OpsRequest::MetricsText,
                3 => OpsRequest::SlowLog,
                t => return Err(WireError::BadTag("ops-request", t)),
            }),
            t => return Err(WireError::BadTag("gate-request", t)),
        })
    }
}

impl WireEncode for GateResponse {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            GateResponse::Challenge {
                price,
                requests_per_token,
            } => {
                w.u8(0);
                w.u64(*price);
                w.u64(*requests_per_token);
            }
            GateResponse::Admitted { token, requests } => {
                w.u8(1);
                w.u64(*token);
                w.u64(*requests);
            }
            GateResponse::Denied { reason } => {
                w.u8(2);
                w.str(reason);
            }
            GateResponse::App(resp) => {
                w.u8(3);
                resp.encode(w);
            }
            GateResponse::Busy => w.u8(4),
            GateResponse::Ops { body } => {
                w.u8(5);
                w.str(body);
            }
        }
    }
}

impl WireDecode for GateResponse {
    fn decode(r: &mut WireReader<'_>) -> Result<GateResponse, WireError> {
        Ok(match r.u8()? {
            0 => GateResponse::Challenge {
                price: r.u64()?,
                requests_per_token: r.u64()?,
            },
            1 => GateResponse::Admitted {
                token: r.u64()?,
                requests: r.u64()?,
            },
            2 => GateResponse::Denied { reason: r.str()? },
            3 => GateResponse::App(MaResponse::decode(r)?),
            4 => GateResponse::Busy,
            5 => GateResponse::Ops { body: r.str()? },
            t => return Err(WireError::BadTag("gate-response", t)),
        })
    }
}

/// Gate policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Face value one admission costs. `0` turns the paywall off:
    /// `Hello` mints a token directly (useful for benches isolating
    /// transport cost from admission cost).
    pub price: u64,
    /// Requests one admission buys before the client is re-challenged.
    pub requests_per_token: u64,
    /// Live-session cap; the oldest session is expelled FIFO beyond
    /// it, so session state is bounded no matter how many clients pay.
    pub max_sessions: usize,
    /// Seed for the token stream (deterministic tests).
    pub seed: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            price: 1,
            requests_per_token: 32,
            max_sessions: 1024,
            seed: 0x0B_AD_C0_DE,
        }
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The admission middleware: session-token bookkeeping plus the
/// deposit-path plumbing that turns e-cash spends into tokens. The
/// TCP reactor owns one gate and drives it single-threaded; the gate
/// itself performs no I/O — the reactor sends the deposit request it
/// builds and feeds the verdict back in.
pub struct AdmissionGate {
    config: AdmissionConfig,
    /// Account the admission fees accrue to (the MA's revenue).
    revenue_account: AccountId,
    /// token → requests remaining.
    sessions: HashMap<u64, u64>,
    /// Mint order, for FIFO expulsion at `max_sessions`.
    order: VecDeque<u64>,
    /// Verdict replay cache keyed by the `Admit` frame's idempotency
    /// key. The service's dedup cache makes a retransmitted `Admit`
    /// replay the deposit verdict instead of double-depositing; this
    /// cache makes the *gate* replay the same `Admitted{token}` too —
    /// otherwise every replay of one paid admission would mint a
    /// fresh token (free requests for old coins).
    admit_verdicts: HashMap<RequestKey, GateResponse>,
    admit_order: VecDeque<RequestKey>,
    token_state: u64,
    challenges: Arc<Counter>,
    admitted: Arc<Counter>,
    denied: Arc<Counter>,
}

impl AdmissionGate {
    /// A gate accruing fees to `revenue_account`, with counters in
    /// `registry` (`gate.challenges` / `gate.admitted` / `gate.denied`).
    pub fn new(config: AdmissionConfig, revenue_account: AccountId, registry: &Registry) -> Self {
        AdmissionGate {
            config,
            revenue_account,
            sessions: HashMap::new(),
            order: VecDeque::new(),
            admit_verdicts: HashMap::new(),
            admit_order: VecDeque::new(),
            token_state: config.seed,
            challenges: registry.counter("gate.challenges"),
            admitted: registry.counter("gate.admitted"),
            denied: registry.counter("gate.denied"),
        }
    }

    /// The gate's policy knobs.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// The account admission fees accrue to.
    pub fn revenue_account(&self) -> AccountId {
        self.revenue_account
    }

    /// Live sessions (bounded by `max_sessions`).
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// The 402 answer for an unadmitted connection.
    pub fn challenge(&self) -> GateResponse {
        self.challenges.inc();
        GateResponse::Challenge {
            price: self.config.price,
            requests_per_token: self.config.requests_per_token,
        }
    }

    /// Mints a fresh session token. Public so a zero-price gate can
    /// admit on `Hello`.
    pub fn mint(&mut self) -> GateResponse {
        let token = splitmix64(&mut self.token_state);
        if self.sessions.len() >= self.config.max_sessions {
            if let Some(old) = self.order.pop_front() {
                self.sessions.remove(&old);
            }
        }
        self.sessions.insert(token, self.config.requests_per_token);
        self.order.push_back(token);
        self.admitted.inc();
        GateResponse::Admitted {
            token,
            requests: self.config.requests_per_token,
        }
    }

    /// The deposit the reactor must run for an `Admit{spends}`: the
    /// ordinary batch-deposit path, credited to the revenue account —
    /// so admission coins get the full ZK verification and
    /// double-spend check every market deposit gets.
    pub fn deposit_request(&self, spends: Vec<Spend>) -> MaRequest {
        MaRequest::DepositBatch {
            account: self.revenue_account,
            spends,
        }
    }

    /// A previously judged admission for this idempotency key, if any
    /// — checked *before* dispatching the deposit, so a retransmitted
    /// `Admit` is answered from the cache without another trip
    /// through the shard.
    pub fn cached_admission(&self, key: RequestKey) -> Option<GateResponse> {
        self.admit_verdicts.get(&key).cloned()
    }

    /// Turns the deposit verdict into the admission verdict, recorded
    /// under the `Admit` frame's idempotency key. Every presented
    /// spend must verify (a double-spent or forged admission coin
    /// denies the whole admission — no partial credit) and the
    /// accepted face value must cover the price.
    pub fn judge_deposit(
        &mut self,
        key: RequestKey,
        presented: usize,
        verdict: &MaResponse,
    ) -> GateResponse {
        let response = self.judge(presented, verdict);
        if self.admit_verdicts.len() >= self.config.max_sessions {
            if let Some(old) = self.admit_order.pop_front() {
                self.admit_verdicts.remove(&old);
            }
        }
        self.admit_verdicts.insert(key, response.clone());
        self.admit_order.push_back(key);
        response
    }

    fn judge(&mut self, presented: usize, verdict: &MaResponse) -> GateResponse {
        match verdict {
            MaResponse::BatchDeposited {
                total,
                accepted,
                rejected,
            } => {
                if *rejected > 0 || *accepted != presented {
                    self.denied.inc();
                    GateResponse::Denied {
                        reason: format!(
                            "admission coins rejected ({rejected} of {presented}): \
                             double-spent or invalid"
                        ),
                    }
                } else if *total < self.config.price {
                    self.denied.inc();
                    GateResponse::Denied {
                        reason: format!(
                            "admission underpaid: {total} < price {}",
                            self.config.price
                        ),
                    }
                } else {
                    self.mint()
                }
            }
            MaResponse::Err(e) => {
                self.denied.inc();
                GateResponse::Denied {
                    reason: format!("admission deposit failed: {e}"),
                }
            }
            other => {
                self.denied.inc();
                GateResponse::Denied {
                    reason: format!("unexpected deposit verdict: {other:?}"),
                }
            }
        }
    }

    /// Spends one request from `token`'s budget. `false` means the
    /// token is unknown or exhausted — the caller re-challenges.
    /// An exhausted token is removed (the re-challenge mints a fresh
    /// one), keeping the session map tight.
    pub fn consume(&mut self, token: u64) -> bool {
        match self.sessions.get_mut(&token) {
            Some(rem) if *rem > 0 => {
                *rem -= 1;
                if *rem == 0 {
                    self.sessions.remove(&token);
                    self.order.retain(|t| *t != token);
                }
                true
            }
            _ => false,
        }
    }

    /// Returns one request to `token`'s budget — used when the server
    /// sheds a request *after* consuming (the client paid for work the
    /// server refused to do).
    pub fn refund(&mut self, token: u64) {
        if let Some(rem) = self.sessions.get_mut(&token) {
            *rem += 1;
        } else {
            // The consume that emptied the budget removed the session;
            // restore it with the single refunded request.
            self.sessions.insert(token, 1);
            self.order.push_back(token);
        }
    }

    /// Serializes the gate's dynamic state — token stream position,
    /// live sessions (in mint order) and the admission-verdict replay
    /// cache — into an opaque blob the durable tier can checkpoint.
    /// Policy (`AdmissionConfig`) and the revenue account are *not*
    /// inside: they come from configuration and the snapshot's
    /// ledger, respectively.
    pub fn export_state(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.u64(self.token_state);
        w.u64(self.revenue_account.0);
        let live: Vec<(u64, u64)> = self
            .order
            .iter()
            .filter_map(|t| self.sessions.get(t).map(|rem| (*t, *rem)))
            .collect();
        put_list(&mut w, &live, |w, &(token, rem)| {
            w.u64(token);
            w.u64(rem);
        });
        let verdicts: Vec<(RequestKey, GateResponse)> = self
            .admit_order
            .iter()
            .filter_map(|k| self.admit_verdicts.get(k).map(|v| (*k, v.clone())))
            .collect();
        put_list(&mut w, &verdicts, |w, (k, v)| {
            k.party.encode(w);
            w.u64(k.request_id);
            v.encode(w);
        });
        w.finish()
    }

    /// Restores the dynamic state exported by
    /// [`AdmissionGate::export_state`]: a recovered front door keeps
    /// honoring pre-crash session tokens and replays pre-crash
    /// admission verdicts instead of minting fresh tokens for old
    /// coins.
    pub fn restore_state(&mut self, blob: &[u8]) -> Result<(), WireError> {
        let mut r = WireReader::new(blob);
        let token_state = r.u64()?;
        let revenue = AccountId(r.u64()?);
        let live = read_list(&mut r, |r| Ok((r.u64()?, r.u64()?)))?;
        let verdicts = read_list(&mut r, |r| {
            let party = crate::metrics::Party::decode(r)?;
            let request_id = r.u64()?;
            let verdict = GateResponse::decode(r)?;
            Ok((RequestKey { party, request_id }, verdict))
        })?;
        self.token_state = token_state;
        self.revenue_account = revenue;
        self.sessions = live.iter().copied().collect();
        self.order = live.iter().map(|&(t, _)| t).collect();
        self.admit_verdicts = verdicts.iter().cloned().collect();
        self.admit_order = verdicts.iter().map(|(k, _)| *k).collect();
        Ok(())
    }
}

/// Client-side helper: how many unit spends a challenge demands.
/// Admission wallets hold unit-value leaf spends, so `price` face
/// value = `price` spends.
pub fn spends_for_price(price: u64) -> usize {
    price as usize
}

/// Maps a terminal gate refusal to the client-facing error — fatal
/// (non-retryable): the gate has definitively rejected the admission
/// coins or the request itself.
pub fn denied_error(reason: &str) -> MarketError {
    MarketError::BadCoin(format!("admission denied: {reason}"))
}

/// Rendezvous between the service's checkpoint protocol and the TCP
/// front door's reactor, which owns the [`AdmissionGate`] outright
/// (no lock). At checkpoint time the checkpointer [`request`]s an
/// export, which wakes the reactor; the reactor checks [`pending`]
/// once per tick and answers with [`fulfill`]; the checkpointer waits
/// for it in [`take_blob`] under a bound, so a stopped reactor only
/// costs the checkpoint its gate section, never wedges it.
///
/// [`request`]: GateCheckpoint::request
/// [`pending`]: GateCheckpoint::pending
/// [`fulfill`]: GateCheckpoint::fulfill
/// [`take_blob`]: GateCheckpoint::take_blob
#[derive(Debug, Default)]
pub struct GateCheckpoint {
    requested: AtomicBool,
    blob: std::sync::Mutex<Option<Vec<u8>>>,
    fulfilled: Condvar,
    /// The reactor's waker; `None` for a hook no reactor serves.
    waker: Option<Arc<Waker>>,
}

impl GateCheckpoint {
    /// Fresh hook with no request outstanding and no reactor to wake.
    pub fn new() -> GateCheckpoint {
        GateCheckpoint::default()
    }

    /// A hook whose [`request`](GateCheckpoint::request) wakes the
    /// reactor blocked on `waker`.
    pub(crate) fn waking(waker: Arc<Waker>) -> GateCheckpoint {
        GateCheckpoint {
            waker: Some(waker),
            ..GateCheckpoint::default()
        }
    }

    /// Checkpointer side: ask the reactor for a gate export. An answer
    /// left over from an earlier request that timed out is discarded.
    pub fn request(&self) {
        *self.blob.lock().unwrap_or_else(PoisonError::into_inner) = None;
        self.requested.store(true, Ordering::SeqCst);
        if let Some(waker) = &self.waker {
            waker.wake();
        }
    }

    /// Reactor side: is an export wanted? Clears the flag.
    pub fn pending(&self) -> bool {
        self.requested.swap(false, Ordering::SeqCst)
    }

    /// Reactor side: is an export wanted? Leaves the flag for the next
    /// tick (the pre-park re-check).
    pub fn requested(&self) -> bool {
        self.requested.load(Ordering::SeqCst)
    }

    /// Reactor side: publish the exported gate state.
    pub fn fulfill(&self, blob: Vec<u8>) {
        *self.blob.lock().unwrap_or_else(PoisonError::into_inner) = Some(blob);
        self.fulfilled.notify_all();
    }

    /// Checkpointer side: collect the export, waiting up to `timeout`
    /// for the reactor to answer.
    pub fn take_blob(&self, timeout: Duration) -> Option<Vec<u8>> {
        let blob = self.blob.lock().unwrap_or_else(PoisonError::into_inner);
        let (mut blob, _) = self
            .fulfilled
            .wait_timeout_while(blob, timeout, |b| b.is_none())
            .unwrap_or_else(PoisonError::into_inner);
        blob.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Party;
    use crate::wire::Envelope;

    #[test]
    fn gate_protocol_roundtrips_through_envelopes() {
        for req in [
            GateRequest::Hello,
            GateRequest::Admit { spends: vec![] },
            GateRequest::App {
                token: 77,
                request: MaRequest::FetchData { job_id: 3 },
            },
            GateRequest::Ops(OpsRequest::Health),
            GateRequest::Ops(OpsRequest::MetricsJson),
            GateRequest::Ops(OpsRequest::MetricsText),
            GateRequest::Ops(OpsRequest::SlowLog),
        ] {
            let env = Envelope {
                msg_id: 9,
                correlation_id: 0,
                trace_id: 5,
                span_id: 0,
                parent_id: 0,
                party: Party::Sp,
                payload: req.clone(),
            };
            let back = Envelope::<GateRequest>::from_bytes(&env.to_bytes()).unwrap();
            assert_eq!(back.payload.to_wire_bytes(), req.to_wire_bytes());
        }
        for resp in [
            GateResponse::Challenge {
                price: 1,
                requests_per_token: 32,
            },
            GateResponse::Admitted {
                token: 123,
                requests: 32,
            },
            GateResponse::Denied {
                reason: "no".into(),
            },
            GateResponse::App(MaResponse::Balance(7)),
            GateResponse::App(MaResponse::Busy),
            GateResponse::Busy,
            GateResponse::Ops {
                body: "{\"status\":\"ok\"}".into(),
            },
        ] {
            let env = Envelope {
                msg_id: 1,
                correlation_id: 9,
                trace_id: 5,
                span_id: 0,
                parent_id: 0,
                party: Party::Ma,
                payload: resp.clone(),
            };
            let back = Envelope::<GateResponse>::from_bytes(&env.to_bytes()).unwrap();
            assert_eq!(back.payload.to_wire_bytes(), resp.to_wire_bytes());
        }
    }

    fn gate() -> AdmissionGate {
        AdmissionGate::new(
            AdmissionConfig {
                price: 2,
                requests_per_token: 3,
                max_sessions: 2,
                seed: 42,
            },
            AccountId(900),
            &Registry::new(),
        )
    }

    #[test]
    fn token_budget_consumes_and_rechallenges() {
        let mut g = gate();
        let GateResponse::Admitted { token, requests } = g.mint() else {
            panic!("mint");
        };
        assert_eq!(requests, 3);
        assert!(g.consume(token));
        assert!(g.consume(token));
        assert!(g.consume(token));
        // Budget exhausted → unknown token → re-challenge.
        assert!(!g.consume(token));
        assert_eq!(g.session_count(), 0);
        assert!(!g.consume(0xDEAD), "never-minted token is refused");
    }

    #[test]
    fn refund_restores_a_consumed_request() {
        let mut g = gate();
        let GateResponse::Admitted { token, .. } = g.mint() else {
            panic!("mint");
        };
        assert!(g.consume(token));
        g.refund(token);
        assert!(g.consume(token));
        assert!(g.consume(token));
        assert!(g.consume(token));
        assert!(!g.consume(token));
    }

    #[test]
    fn session_cap_expels_oldest() {
        let mut g = gate();
        let GateResponse::Admitted { token: t1, .. } = g.mint() else {
            panic!()
        };
        let GateResponse::Admitted { token: t2, .. } = g.mint() else {
            panic!()
        };
        let GateResponse::Admitted { token: t3, .. } = g.mint() else {
            panic!()
        };
        assert_eq!(g.session_count(), 2);
        assert!(!g.consume(t1), "oldest session expelled at the cap");
        assert!(g.consume(t2));
        assert!(g.consume(t3));
    }

    fn key(id: u64) -> RequestKey {
        RequestKey {
            party: Party::Sp,
            request_id: id,
        }
    }

    #[test]
    fn deposit_verdicts_gate_admission() {
        let mut g = gate();
        // Clean deposit covering the price → admitted.
        let ok = g.judge_deposit(
            key(1),
            2,
            &MaResponse::BatchDeposited {
                total: 2,
                accepted: 2,
                rejected: 0,
            },
        );
        assert!(matches!(ok, GateResponse::Admitted { .. }));
        // A rejected (double-spent) coin → denied, even if the rest
        // would cover the price.
        let ds = g.judge_deposit(
            key(2),
            3,
            &MaResponse::BatchDeposited {
                total: 2,
                accepted: 2,
                rejected: 1,
            },
        );
        assert!(matches!(ds, GateResponse::Denied { .. }));
        // Underpayment → denied.
        let under = g.judge_deposit(
            key(3),
            1,
            &MaResponse::BatchDeposited {
                total: 1,
                accepted: 1,
                rejected: 0,
            },
        );
        assert!(matches!(under, GateResponse::Denied { .. }));
    }

    #[test]
    fn replayed_admit_gets_the_same_token_not_a_fresh_one() {
        let mut g = gate();
        let verdict = MaResponse::BatchDeposited {
            total: 2,
            accepted: 2,
            rejected: 0,
        };
        let GateResponse::Admitted { token, .. } = g.judge_deposit(key(7), 2, &verdict) else {
            panic!("admitted");
        };
        // A retransmit of the same Admit frame is answered from the
        // cache with the *same* token — no token farming off one coin.
        let GateResponse::Admitted {
            token: replayed, ..
        } = g.cached_admission(key(7)).expect("cached")
        else {
            panic!("cached admitted");
        };
        assert_eq!(replayed, token);
        assert_eq!(g.session_count(), 1, "only one session was minted");
        // A different key is not cached.
        assert!(g.cached_admission(key(8)).is_none());
    }

    #[test]
    fn exported_state_roundtrips_sessions_and_verdicts() {
        let mut g = gate();
        let verdict = MaResponse::BatchDeposited {
            total: 2,
            accepted: 2,
            rejected: 0,
        };
        let GateResponse::Admitted { token, .. } = g.judge_deposit(key(7), 2, &verdict) else {
            panic!("admitted");
        };
        assert!(g.consume(token));
        let blob = g.export_state();

        let mut restored = gate();
        restored.restore_state(&blob).expect("restore");
        // The pre-crash token keeps its remaining budget (3 - 1 = 2).
        assert!(restored.consume(token));
        assert!(restored.consume(token));
        assert!(!restored.consume(token), "budget carried over, not reset");
        // The admission verdict cache replays the same token.
        let GateResponse::Admitted { token: cached, .. } =
            restored.cached_admission(key(7)).expect("verdict cached")
        else {
            panic!("cached admitted");
        };
        assert_eq!(cached, token);
        // The token stream continues where it left off: the next mint
        // on both gates agrees.
        let a = match g.mint() {
            GateResponse::Admitted { token, .. } => token,
            _ => unreachable!(),
        };
        let b = match restored.mint() {
            GateResponse::Admitted { token, .. } => token,
            _ => unreachable!(),
        };
        assert_eq!(a, b);
    }

    #[test]
    fn token_stream_is_seed_deterministic() {
        let mut a = gate();
        let mut b = gate();
        assert_eq!(
            match a.mint() {
                GateResponse::Admitted { token, .. } => token,
                _ => unreachable!(),
            },
            match b.mint() {
                GateResponse::Admitted { token, .. } => token,
                _ => unreachable!(),
            }
        );
    }
}

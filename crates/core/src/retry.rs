//! The client-side half of surviving a lossy market: a [`Transport`]
//! decorator that retransmits failed requests under their original
//! idempotency key.
//!
//! [`RetryingTransport`] wraps any inner transport and adds, per
//! [`RetryPolicy`]:
//!
//! * an **attempt budget** — at most `max_attempts` sends of one
//!   logical request;
//! * an **overall deadline** — once it expires the call fails with
//!   [`MarketError::Timeout`] instead of burning more attempts;
//! * **capped exponential backoff with seeded jitter** between
//!   attempts — `base_delay · 2^(attempt-1)` clamped to `max_delay`,
//!   plus a uniformly random extra in `[0, backoff/2]` drawn from a
//!   deterministic RNG so runs are reproducible;
//! * a **circuit breaker** — after `breaker_threshold` consecutive
//!   transport-level call failures the destination is declared down
//!   and calls fail fast with [`MarketError::CircuitOpen`] for
//!   `breaker_cooldown`; the first call after the cooldown is the
//!   half-open probe whose outcome re-closes or re-opens the circuit.
//!
//! Only failures where [`MarketError::is_retryable`] holds are
//! retried. A definitive protocol answer (double-spend rejected, bad
//! authentication…) is the MA's verdict, not a network accident:
//! retrying it would re-ask a question already answered.
//!
//! Crucially, every attempt of one logical request reuses **one**
//! request id, allocated once per call. The service's idempotency
//! cache recognizes the retransmit and replays the original response,
//! which is what makes blind retransmission of non-idempotent
//! operations (withdraw, deposit) safe.

use crate::error::MarketError;
use crate::metrics::{FaultMetrics, Party};
use crate::service::{MaRequest, MaResponse};
use crate::transport::Transport;
use parking_lot::Mutex;
use ppms_obs::{Counter, Gauge, Histogram, Span, SpanContext};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Retry and circuit-breaker knobs.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Maximum sends of one logical request (first try included).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub base_delay: Duration,
    /// Ceiling on the exponential backoff.
    pub max_delay: Duration,
    /// Overall wall-clock budget for one logical request, retries and
    /// backoff included.
    pub deadline: Duration,
    /// Seed for the jitter RNG (deterministic backoff schedules).
    pub jitter_seed: u64,
    /// Consecutive call failures that open the circuit.
    pub breaker_threshold: u32,
    /// How long an open circuit rejects calls before the half-open
    /// probe is allowed through.
    pub breaker_cooldown: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(50),
            deadline: Duration::from_secs(5),
            jitter_seed: 0,
            breaker_threshold: 8,
            breaker_cooldown: Duration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// A policy for chaos runs: enough attempts that even heavy loss
    /// (≤ 0.3 per hop, so ≈ 0.5 per round trip) practically never
    /// exhausts the budget, sub-millisecond backoffs to keep tests
    /// fast, and a breaker that effectively never opens — in a
    /// convergence test a fast-fail would abort the market, and the
    /// breaker's own behavior is unit-tested separately.
    pub fn aggressive(jitter_seed: u64) -> RetryPolicy {
        RetryPolicy {
            max_attempts: 24,
            base_delay: Duration::from_micros(20),
            max_delay: Duration::from_millis(2),
            deadline: Duration::from_secs(30),
            jitter_seed,
            breaker_threshold: u32::MAX,
            breaker_cooldown: Duration::from_millis(1),
        }
    }
}

/// Circuit state. The MA is the only destination a client talks to,
/// so one breaker per transport *is* per-destination.
#[derive(Debug)]
enum Circuit {
    /// Traffic flows; counts consecutive call failures.
    Closed {
        /// Consecutive failed calls so far.
        failures: u32,
    },
    /// Fast-failing until the cooldown ends.
    Open {
        /// When the half-open probe becomes permissible.
        until: Instant,
    },
    /// One probe call is in flight; its outcome decides the state.
    HalfOpen,
}

/// A [`Transport`] decorator adding idempotent retries, deadlines and
/// a circuit breaker. See the module docs for the full contract.
pub struct RetryingTransport {
    inner: Arc<dyn Transport>,
    policy: RetryPolicy,
    metrics: FaultMetrics,
    jitter: Mutex<StdRng>,
    circuit: Mutex<Circuit>,
    /// Individual sends, first tries included (`retry.attempts` in the
    /// fault registry; `fault.calls` counts logical calls instead).
    attempts: Arc<Counter>,
    /// Nanoseconds slept in backoff, per retry (`retry.backoff_ns`).
    backoff_ns: Arc<Histogram>,
    /// Breaker state as a number: 0 closed, 1 open, 2 half-open
    /// (`retry.circuit_state`).
    circuit_state: Arc<Gauge>,
}

/// [`RetryingTransport::circuit_state`] values.
const CIRCUIT_CLOSED: i64 = 0;
const CIRCUIT_OPEN: i64 = 1;
const CIRCUIT_HALF_OPEN: i64 = 2;

impl RetryingTransport {
    /// Wraps `inner`, reporting retry activity into `metrics` (and its
    /// registry: attempt counts, backoff sleeps, breaker state).
    pub fn new(
        inner: Arc<dyn Transport>,
        policy: RetryPolicy,
        metrics: FaultMetrics,
    ) -> RetryingTransport {
        let registry = metrics.registry().clone();
        RetryingTransport {
            inner,
            policy,
            metrics,
            jitter: Mutex::new(StdRng::seed_from_u64(policy.jitter_seed)),
            circuit: Mutex::new(Circuit::Closed { failures: 0 }),
            attempts: registry.counter("retry.attempts"),
            backoff_ns: registry.histogram("retry.backoff_ns"),
            circuit_state: registry.gauge("retry.circuit_state"),
        }
    }

    /// Gate on the breaker: `Err` fast-fails the call; `Ok` admits it
    /// (transitioning Open → HalfOpen when the cooldown has passed).
    fn admit(&self) -> Result<(), MarketError> {
        let mut circuit = self.circuit.lock();
        match *circuit {
            Circuit::Closed { .. } => Ok(()),
            Circuit::HalfOpen => {
                // A probe is already in flight; don't pile on.
                self.metrics.circuit_rejection();
                Err(MarketError::CircuitOpen)
            }
            Circuit::Open { until } => {
                if Instant::now() < until {
                    self.metrics.circuit_rejection();
                    Err(MarketError::CircuitOpen)
                } else {
                    *circuit = Circuit::HalfOpen;
                    self.circuit_state.set(CIRCUIT_HALF_OPEN);
                    Ok(())
                }
            }
        }
    }

    /// Records the final outcome of an admitted call.
    fn settle(&self, success: bool) {
        let mut circuit = self.circuit.lock();
        if success {
            *circuit = Circuit::Closed { failures: 0 };
            self.circuit_state.set(CIRCUIT_CLOSED);
            return;
        }
        let failures = match *circuit {
            Circuit::Closed { failures } => failures + 1,
            // A failed probe re-opens immediately.
            Circuit::HalfOpen | Circuit::Open { .. } => self.policy.breaker_threshold,
        };
        *circuit = if failures >= self.policy.breaker_threshold {
            self.circuit_state.set(CIRCUIT_OPEN);
            Circuit::Open {
                until: Instant::now() + self.policy.breaker_cooldown,
            }
        } else {
            self.circuit_state.set(CIRCUIT_CLOSED);
            Circuit::Closed { failures }
        };
    }

    /// Backoff before retry number `attempt` (1-based): capped
    /// exponential plus seeded jitter in `[0, backoff/2]`.
    fn backoff(&self, attempt: u32) -> Duration {
        let base = self.policy.base_delay.as_micros() as u64;
        let capped = base
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(20))
            .min(self.policy.max_delay.as_micros() as u64);
        let jitter = if capped > 1 {
            self.jitter.lock().random_range(0..=capped / 2)
        } else {
            0
        };
        Duration::from_micros(capped + jitter)
    }
}

impl Transport for RetryingTransport {
    fn round_trip_spanned(
        &self,
        from: Party,
        request_id: u64,
        ctx: SpanContext,
        request: MaRequest,
    ) -> Result<MaResponse, MarketError> {
        self.metrics.call();
        self.admit()?;
        let started = Instant::now();
        let mut attempt = 1u32;
        loop {
            // Every attempt reuses `request_id` and the *trace* id:
            // the service sees a retransmit, not a new request, and
            // the whole logical operation stays on one trace. Each
            // attempt gets its own child span, so an exported trace
            // shows every retransmit as a sibling under the caller.
            self.attempts.inc();
            let attempt_span = Span::child("retry.attempt", ctx);
            match self.inner.round_trip_spanned(
                from,
                request_id,
                attempt_span.ctx(),
                request.clone(),
            ) {
                Ok(response) => {
                    self.settle(true);
                    return Ok(response);
                }
                Err(e) if !e.is_retryable() => {
                    // A definitive protocol answer — the MA spoke, the
                    // network worked. Not a breaker event.
                    self.settle(true);
                    return Err(e);
                }
                Err(e) => {
                    if attempt >= self.policy.max_attempts {
                        self.metrics.exhausted();
                        self.settle(false);
                        return Err(e);
                    }
                    let delay = self.backoff(attempt);
                    if started.elapsed() + delay >= self.policy.deadline {
                        self.metrics.timeout();
                        self.settle(false);
                        return Err(MarketError::Timeout);
                    }
                    self.metrics.retry();
                    self.backoff_ns.record(delay.as_nanos() as u64);
                    std::thread::sleep(delay);
                    attempt += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// Fails the first `fail_first` calls with a retryable error,
    /// then succeeds; records every request id it sees.
    struct FlakyTransport {
        fail_first: u32,
        calls: AtomicU32,
        seen_ids: Mutex<Vec<u64>>,
    }

    impl FlakyTransport {
        fn new(fail_first: u32) -> FlakyTransport {
            FlakyTransport {
                fail_first,
                calls: AtomicU32::new(0),
                seen_ids: Mutex::new(Vec::new()),
            }
        }
    }

    impl Transport for FlakyTransport {
        fn round_trip_spanned(
            &self,
            _from: Party,
            request_id: u64,
            _ctx: SpanContext,
            _request: MaRequest,
        ) -> Result<MaResponse, MarketError> {
            self.seen_ids.lock().push(request_id);
            let n = self.calls.fetch_add(1, Ordering::SeqCst);
            if n < self.fail_first {
                Err(MarketError::Transport("flaky".into()))
            } else {
                Ok(MaResponse::Ok)
            }
        }
    }

    /// Always answers with a fixed error.
    struct FixedErrTransport(fn() -> MarketError);

    impl Transport for FixedErrTransport {
        fn round_trip_spanned(
            &self,
            _from: Party,
            _request_id: u64,
            _ctx: SpanContext,
            _request: MaRequest,
        ) -> Result<MaResponse, MarketError> {
            Err((self.0)())
        }
    }

    fn fast_policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_micros(10),
            max_delay: Duration::from_micros(100),
            deadline: Duration::from_secs(1),
            jitter_seed: 7,
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(5),
        }
    }

    #[test]
    fn retries_reuse_the_same_request_id() {
        let flaky = Arc::new(FlakyTransport::new(2));
        let metrics = FaultMetrics::new();
        let t = RetryingTransport::new(flaky.clone(), fast_policy(), metrics.clone());
        let resp = t
            .round_trip_keyed(Party::Sp, 42, MaRequest::RegisterSpAccount)
            .expect("succeeds on third attempt");
        assert!(matches!(resp, MaResponse::Ok));
        assert_eq!(*flaky.seen_ids.lock(), vec![42, 42, 42]);
        let snap = metrics.snapshot();
        assert_eq!(snap.calls, 1);
        assert_eq!(snap.retries, 2);
        assert_eq!(snap.exhausted, 0);
    }

    #[test]
    fn attempt_budget_is_enforced() {
        let flaky = Arc::new(FlakyTransport::new(u32::MAX));
        let metrics = FaultMetrics::new();
        let t = RetryingTransport::new(
            flaky.clone(),
            RetryPolicy {
                breaker_threshold: u32::MAX,
                ..fast_policy()
            },
            metrics.clone(),
        );
        let err = t
            .round_trip_keyed(Party::Sp, 1, MaRequest::RegisterSpAccount)
            .expect_err("must exhaust");
        assert!(err.is_retryable(), "the last transport error surfaces");
        assert_eq!(flaky.seen_ids.lock().len(), 5, "max_attempts sends");
        assert_eq!(metrics.snapshot().exhausted, 1);
    }

    #[test]
    fn fatal_errors_are_not_retried() {
        let t = RetryingTransport::new(
            Arc::new(FixedErrTransport(|| MarketError::NoSuchAccount)),
            fast_policy(),
            FaultMetrics::new(),
        );
        let err = t
            .round_trip_keyed(Party::Jo, 1, MaRequest::RegisterSpAccount)
            .expect_err("fatal");
        assert!(matches!(err, MarketError::NoSuchAccount));
    }

    #[test]
    fn deadline_cuts_the_retry_loop() {
        let metrics = FaultMetrics::new();
        let t = RetryingTransport::new(
            Arc::new(FlakyTransport::new(u32::MAX)),
            RetryPolicy {
                max_attempts: u32::MAX,
                base_delay: Duration::from_millis(2),
                max_delay: Duration::from_millis(2),
                deadline: Duration::from_millis(6),
                breaker_threshold: u32::MAX,
                ..fast_policy()
            },
            metrics.clone(),
        );
        let err = t
            .round_trip_keyed(Party::Sp, 1, MaRequest::RegisterSpAccount)
            .expect_err("deadline");
        assert!(matches!(err, MarketError::Timeout));
        assert_eq!(metrics.snapshot().timeouts, 1);
    }

    #[test]
    fn breaker_opens_after_consecutive_failures_and_reprobes() {
        let metrics = FaultMetrics::new();
        let policy = RetryPolicy {
            max_attempts: 1, // every call is a single attempt
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(3),
            ..fast_policy()
        };
        let t = RetryingTransport::new(
            Arc::new(FixedErrTransport(|| MarketError::Transport("down".into()))),
            policy,
            metrics.clone(),
        );
        // Three failures open the circuit…
        for _ in 0..3 {
            let err = t
                .round_trip_keyed(Party::Sp, 1, MaRequest::RegisterSpAccount)
                .expect_err("down");
            assert!(matches!(err, MarketError::Transport(_)));
        }
        // …so the next call fast-fails without touching the wire.
        let err = t
            .round_trip_keyed(Party::Sp, 2, MaRequest::RegisterSpAccount)
            .expect_err("open");
        assert!(matches!(err, MarketError::CircuitOpen));
        assert!(!err.is_retryable(), "fast-fail is final for this call");
        assert_eq!(metrics.snapshot().circuit_rejections, 1);
        // After the cooldown a half-open probe is admitted; it fails,
        // re-opening the circuit immediately.
        std::thread::sleep(Duration::from_millis(5));
        let err = t
            .round_trip_keyed(Party::Sp, 3, MaRequest::RegisterSpAccount)
            .expect_err("probe fails");
        assert!(matches!(err, MarketError::Transport(_)));
        let err = t
            .round_trip_keyed(Party::Sp, 4, MaRequest::RegisterSpAccount)
            .expect_err("re-opened");
        assert!(matches!(err, MarketError::CircuitOpen));
    }

    #[test]
    fn successful_probe_recloses_the_breaker() {
        let metrics = FaultMetrics::new();
        let policy = RetryPolicy {
            max_attempts: 1,
            breaker_threshold: 2,
            breaker_cooldown: Duration::from_millis(2),
            ..fast_policy()
        };
        // Fails twice (opening the circuit), then recovers.
        let flaky = Arc::new(FlakyTransport::new(2));
        let t = RetryingTransport::new(flaky, policy, metrics.clone());
        for _ in 0..2 {
            let _ = t.round_trip_keyed(Party::Sp, 1, MaRequest::RegisterSpAccount);
        }
        assert!(matches!(
            t.round_trip_keyed(Party::Sp, 2, MaRequest::RegisterSpAccount),
            Err(MarketError::CircuitOpen)
        ));
        std::thread::sleep(Duration::from_millis(4));
        // The probe succeeds and closes the circuit for good.
        assert!(t
            .round_trip_keyed(Party::Sp, 3, MaRequest::RegisterSpAccount)
            .is_ok());
        assert!(t
            .round_trip_keyed(Party::Sp, 4, MaRequest::RegisterSpAccount)
            .is_ok());
    }

    #[test]
    fn backoff_is_capped() {
        let t = RetryingTransport::new(
            Arc::new(FlakyTransport::new(0)),
            RetryPolicy {
                base_delay: Duration::from_micros(100),
                max_delay: Duration::from_micros(500),
                ..fast_policy()
            },
            FaultMetrics::new(),
        );
        // capped + jitter ≤ capped * 1.5
        for attempt in 1..40 {
            assert!(t.backoff(attempt) <= Duration::from_micros(750));
        }
    }
}

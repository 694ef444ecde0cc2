//! Market-level errors.

use ppms_ecash::DecError;

/// Why a market interaction was rejected.
///
/// Detail payloads are owned strings so errors survive a round trip
/// through the serialized transport layer ([`crate::wire`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MarketError {
    /// Account does not exist.
    NoSuchAccount,
    /// Balance too low for the requested debit.
    InsufficientFunds,
    /// Authentication failed (CL signature / account key mismatch).
    BadAuthentication,
    /// A cryptographic payload failed to decrypt or verify.
    BadPayload(String),
    /// The partially blind signature or its serial was rejected.
    BadCoin(String),
    /// The serial number was already deposited (PPMSpbs freshness).
    StaleSerial,
    /// An e-cash error from the DEC layer.
    Dec(DecError),
    /// The job does not exist on the bulletin board.
    NoSuchJob,
    /// The transport layer failed: a peer hung up, a channel closed,
    /// a frame failed to decode, or the simulated network dropped the
    /// message.
    Transport(String),
    /// The retry layer's overall deadline expired before any attempt
    /// succeeded.
    Timeout,
    /// The per-destination circuit breaker is open: the destination
    /// has failed repeatedly and calls are rejected without being
    /// attempted until the cooldown elapses.
    CircuitOpen,
    /// A CL public key was refused at registration: a coordinate of
    /// `X` or `Y` is infinite, non-canonical, off the curve or outside
    /// the pairing group `G`.
    BadKey,
}

impl MarketError {
    /// Whether a retransmission of the same request could plausibly
    /// succeed — the retry layer's retryable/fatal classification.
    ///
    /// Retryable errors mean the request may never have reached the
    /// MA (or its answer was lost); with the service's idempotent
    /// request keys a retransmit is safe. Everything else is a
    /// definitive answer from the MA (authentication, funds, coin
    /// validity, …) or an explicit instruction to back off
    /// ([`MarketError::CircuitOpen`]) and must not be retried
    /// blindly.
    pub fn is_retryable(&self) -> bool {
        matches!(self, MarketError::Transport(_) | MarketError::Timeout)
    }
}

impl From<DecError> for MarketError {
    fn from(e: DecError) -> Self {
        MarketError::Dec(e)
    }
}

impl std::fmt::Display for MarketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MarketError::NoSuchAccount => write!(f, "no such account"),
            MarketError::InsufficientFunds => write!(f, "insufficient funds"),
            MarketError::BadAuthentication => write!(f, "authentication failed"),
            MarketError::BadPayload(s) => write!(f, "bad payload: {s}"),
            MarketError::BadCoin(s) => write!(f, "bad coin: {s}"),
            MarketError::StaleSerial => write!(f, "serial number already used"),
            MarketError::Dec(e) => write!(f, "e-cash error: {e}"),
            MarketError::NoSuchJob => write!(f, "no such job"),
            MarketError::Transport(s) => write!(f, "transport failure: {s}"),
            MarketError::Timeout => write!(f, "deadline expired before a successful attempt"),
            MarketError::CircuitOpen => write!(f, "circuit breaker open: destination failing"),
            MarketError::BadKey => write!(f, "public key is not a pair of points of G"),
        }
    }
}

impl std::error::Error for MarketError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_and_timeout_are_retryable() {
        assert!(MarketError::Transport("dropped".into()).is_retryable());
        assert!(MarketError::Timeout.is_retryable());
    }

    #[test]
    fn definitive_answers_are_fatal() {
        for e in [
            MarketError::NoSuchAccount,
            MarketError::InsufficientFunds,
            MarketError::BadAuthentication,
            MarketError::BadPayload("x".into()),
            MarketError::BadCoin("x".into()),
            MarketError::StaleSerial,
            MarketError::Dec(DecError::Overspend),
            MarketError::NoSuchJob,
            MarketError::CircuitOpen,
            MarketError::BadKey,
        ] {
            assert!(!e.is_retryable(), "{e}");
        }
    }
}

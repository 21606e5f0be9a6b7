//! Typed errors of the redesigned submission API.
//!
//! The old `Server::submit` folded every refusal into
//! `SteppingError::BadConfig`, so callers could not tell an overloaded
//! server (retry later, or lower the request) from a shut-down one (stop)
//! from a genuinely malformed request (fix the call). [`ServeError`]
//! splits the three, and [`AdmissionError`] carries the load-shedding
//! detail — the observed lane depth and the configured capacity — so a
//! client-side limiter has something to act on.
//!
//! Both types convert into [`SteppingError`] (`?` keeps working in
//! `Result<_, SteppingError>` callers), and the conversion preserves the
//! old `"server is shut down"` message for shutdown refusals.

use std::error::Error;
use std::fmt;

use stepping_core::SteppingError;

/// Why admission control refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// The request's lane — and, under
    /// [`ShedPolicy::Downgrade`](crate::ShedPolicy::Downgrade), every
    /// smaller-subnet fallback lane too — was at its configured
    /// [`lane_capacity`](crate::ServeConfigBuilder::lane_capacity).
    QueueFull {
        /// Lane depth observed under the lane lock at refusal.
        depth: usize,
        /// The configured per-lane capacity.
        capacity: usize,
    },
    /// The server is draining ([`Server::drain`](crate::Server::drain)):
    /// it still serves queued work and upgrades of its existing sessions,
    /// but refuses *new* sessions so a router can migrate fresh traffic to
    /// another replica.
    Draining,
    /// The server is shutting down and accepts no new work.
    ShuttingDown,
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::QueueFull { depth, capacity } => {
                write!(f, "lane full: {depth} jobs at capacity {capacity}")
            }
            AdmissionError::Draining => {
                write!(f, "replica is draining: new sessions are not admitted")
            }
            AdmissionError::ShuttingDown => write!(f, "server is shut down"),
        }
    }
}

impl Error for AdmissionError {}

/// Error surface of [`Server::submit`](crate::Server::submit) and
/// [`Server::upgrade`](crate::Server::upgrade).
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Admission control refused the request (overload or shutdown); the
    /// request itself was well-formed.
    Admission(AdmissionError),
    /// The request or server state was invalid (unknown session, bad
    /// budget, out-of-range subnet, ...).
    Invalid(SteppingError),
    /// The session's previous upgrade has not resolved yet: its activation
    /// cache is with a worker, so a second upgrade has nothing to step
    /// from. Wait on the first ticket, then upgrade again.
    UpgradeInFlight {
        /// The session whose upgrade is still running.
        session: u64,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Admission(e) => write!(f, "admission refused: {e}"),
            ServeError::Invalid(e) => e.fmt(f),
            ServeError::UpgradeInFlight { session } => {
                write!(f, "session {session} already has an upgrade in flight")
            }
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Admission(e) => Some(e),
            ServeError::Invalid(e) => Some(e),
            ServeError::UpgradeInFlight { .. } => None,
        }
    }
}

impl From<AdmissionError> for ServeError {
    fn from(e: AdmissionError) -> Self {
        ServeError::Admission(e)
    }
}

impl From<SteppingError> for ServeError {
    fn from(e: SteppingError) -> Self {
        ServeError::Invalid(e)
    }
}

/// Folds back into the workspace error so `?` keeps working in
/// `Result<_, SteppingError>` contexts. Shutdown maps to the exact
/// message the pre-lane server used; overload maps to
/// [`SteppingError::Worker`] (the "system, not request" class).
impl From<ServeError> for SteppingError {
    fn from(e: ServeError) -> Self {
        match e {
            ServeError::Admission(AdmissionError::ShuttingDown) => {
                SteppingError::BadConfig("server is shut down".into())
            }
            ServeError::Admission(refused) => SteppingError::Worker(refused.to_string()),
            ServeError::Invalid(inner) => inner,
            in_flight @ ServeError::UpgradeInFlight { .. } => {
                SteppingError::ExecutorState(in_flight.to_string())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_preserve_class_and_legacy_message() {
        let shutdown: ServeError = AdmissionError::ShuttingDown.into();
        assert_eq!(
            SteppingError::from(shutdown),
            SteppingError::BadConfig("server is shut down".into()),
            "legacy shutdown message preserved"
        );
        let full: ServeError = AdmissionError::QueueFull {
            depth: 64,
            capacity: 64,
        }
        .into();
        assert!(matches!(
            SteppingError::from(full.clone()),
            SteppingError::Worker(_)
        ));
        assert!(full.to_string().contains("64"), "carries the depth");
        let invalid = ServeError::from(SteppingError::BadConfig("x".into()));
        assert_eq!(
            SteppingError::from(invalid),
            SteppingError::BadConfig("x".into())
        );
    }
}

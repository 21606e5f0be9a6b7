//! # stepping-router
//!
//! A scale-out front door for the SteppingNet serving engine: shards
//! sessions across N independent [`stepping_serve::Server`] replicas.
//!
//! * **Consistent-hash placement** — new sessions are keyed by a client
//!   identity and placed on a hand-rolled [`Ring`] with virtual nodes;
//!   the mapping is a pure function of `(replica_count, vnodes, key)`, so
//!   lookups are identical across restarts and machines.
//! * **Stickiness by construction** — a routed session id encodes its
//!   replica in the top bits ([`REPLICA_SHIFT`]); [`Router::upgrade`]
//!   decodes the replica straight out of the handle, so an incremental
//!   upgrade *cannot* land away from the activation cache it reuses. The
//!   paper's incremental-accuracy property survives scale-out untouched.
//! * **Health-aware failover** — per-replica sliding-window [`Breaker`]s
//!   trip on admission-refusal/shutdown error rates; tripped replicas are
//!   skipped for new sessions (which fail over along the ring) and probed
//!   half-open after a cooldown, while their existing sessions keep
//!   upgrading in place.
//! * **Graceful drain** — [`Router::drain`] flips one replica to
//!   refusing new sessions
//!   ([`AdmissionError::Draining`](stepping_serve::AdmissionError::Draining));
//!   the ring scatters its
//!   fresh traffic across the survivors, old sessions bleed off as they
//!   complete and release, and [`Router::drained`] reports when the
//!   replica is empty and safe to shut down.
//! * **Telemetry** — `router.route` / `router.reroute` / `router.drain` /
//!   `router.breaker_trip` counters, per-replica depth gauges, and a
//!   ring-imbalance histogram, all registered in the global
//!   [`MetricsRegistry`](stepping_metrics::MetricsRegistry) under names
//!   from `stepping_core::events`.
//!
//! See `docs/SERVING.md` ("Scaling out") for the ring diagram, the
//! stickiness rule, and the drain/failover policy.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod health;
mod metrics;
mod ring;
mod router;

pub use config::{RouterConfig, RouterConfigBuilder};
pub use health::{Breaker, BreakerState};
pub use ring::Ring;
pub use router::{decode_session, encode_session, RoutedTicket, Router, REPLICA_SHIFT};

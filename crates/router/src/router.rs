//! The front door: consistent-hash session routing over replica handles.

use std::sync::Arc;

use stepping_core::telemetry::{self, Value};
use stepping_core::{events::event, Result, SteppingError, SteppingNet};
use stepping_metrics::MetricsRegistry;
use stepping_serve::{
    AdmissionError, ReplicaHandle, Request, Response, ServeConfig, ServeError, Server, ServerStats,
    Ticket,
};

use crate::config::RouterConfig;
use crate::health::{Breaker, BreakerState};
use crate::metrics::RouterMetrics;
use crate::ring::Ring;

/// Bits of a routed session id reserved for the replica-local session.
///
/// A routed session id is `(replica_index << REPLICA_SHIFT) | local_id`:
/// the replica that owns a session's activation cache is *encoded in the
/// handle itself*, so an [`upgrade`](Router::upgrade) structurally cannot
/// land on the wrong replica. Replica-local ids are assigned sequentially
/// by each server; 48 bits last decades at a million sessions per second.
pub const REPLICA_SHIFT: u32 = 48;

const LOCAL_MASK: u64 = (1 << REPLICA_SHIFT) - 1;

/// Packs a replica index and a replica-local session id into one routed
/// session id. Inverse of [`decode_session`].
pub fn encode_session(replica: usize, local: u64) -> u64 {
    ((replica as u64) << REPLICA_SHIFT) | (local & LOCAL_MASK)
}

/// Splits a routed session id into `(replica_index, local_session_id)`.
pub fn decode_session(session: u64) -> (usize, u64) {
    ((session >> REPLICA_SHIFT) as usize, session & LOCAL_MASK)
}

/// A pending routed response: wraps the replica's
/// [`Ticket`](stepping_serve::Ticket) and rewrites the response's session
/// handle into routed form, so callers only ever see ids they can hand
/// back to [`Router::upgrade`] / [`Router::release`].
#[derive(Debug)]
pub struct RoutedTicket {
    ticket: Ticket,
    replica: usize,
}

impl RoutedTicket {
    /// Index of the replica serving this request.
    pub fn replica(&self) -> usize {
        self.replica
    }

    fn reencode(replica: usize, result: Result<Response>) -> Result<Response> {
        result.map(|mut response| {
            response.session = encode_session(replica, response.session);
            response
        })
    }

    /// Blocks until the replica answers; see
    /// [`Ticket::wait`](stepping_serve::Ticket::wait).
    pub fn wait(self) -> Result<Response> {
        Self::reencode(self.replica, self.ticket.wait())
    }

    /// Non-blocking poll; see
    /// [`Ticket::try_wait`](stepping_serve::Ticket::try_wait).
    pub fn try_wait(&self) -> Option<Result<Response>> {
        self.ticket
            .try_wait()
            .map(|result| Self::reencode(self.replica, result))
    }

    /// Bounded blocking wait; see
    /// [`Ticket::wait_timeout`](stepping_serve::Ticket::wait_timeout).
    pub fn wait_timeout(&self, timeout: std::time::Duration) -> Option<Result<Response>> {
        self.ticket
            .wait_timeout(timeout)
            .map(|result| Self::reencode(self.replica, result))
    }
}

/// A sharding front door over N independent serving replicas.
///
/// New sessions are placed by consistent-hashing their routing key onto
/// the replica [`Ring`]; upgrades and releases decode the replica straight
/// out of the routed session id (stickiness by construction). Per-replica
/// [`Breaker`]s trip on admission-refusal/shutdown error rates and steer
/// *new* sessions away from unhealthy replicas; [`drain`](Router::drain)
/// does the same deliberately, letting a replica bleed down to zero
/// sessions before [`shutdown`](Router::shutdown).
#[derive(Debug)]
pub struct Router {
    replicas: Vec<Arc<dyn ReplicaHandle>>,
    ring: Ring,
    health: Vec<Breaker>,
    /// Each replica's ring share in permille of the ideal share.
    share_permille: Vec<u64>,
    metrics: RouterMetrics,
}

impl Router {
    /// Wraps already-running replicas in a router. The `replicas` knob of
    /// `config` is ignored — the handed-in vector decides.
    ///
    /// # Errors
    ///
    /// [`SteppingError::BadConfig`] for an empty replica vector or more
    /// than 2^16 replicas (the routed-session encoding reserves 16 bits).
    pub fn new(replicas: Vec<Arc<dyn ReplicaHandle>>, config: &RouterConfig) -> Result<Router> {
        if replicas.is_empty() {
            return Err(SteppingError::BadConfig(
                "router needs at least one replica".into(),
            ));
        }
        if replicas.len() > 1 << (64 - REPLICA_SHIFT) {
            return Err(SteppingError::BadConfig(format!(
                "{} replicas exceed the {}-bit replica index",
                replicas.len(),
                64 - REPLICA_SHIFT
            )));
        }
        let ring = Ring::new(replicas.len(), config.get_vnodes());
        let ideal = 1.0 / replicas.len() as f64;
        let share_permille = ring
            .shares()
            .into_iter()
            .map(|share| (share / ideal * 1000.0).round() as u64)
            .collect();
        let health = (0..replicas.len())
            .map(|_| {
                Breaker::new(
                    config.get_breaker_window(),
                    config.get_breaker_trip_ratio(),
                    config.get_breaker_cooldown(),
                )
            })
            .collect();
        let metrics = RouterMetrics::new(&MetricsRegistry::global(), replicas.len());
        Ok(Router {
            replicas,
            ring,
            health,
            share_permille,
            metrics,
        })
    }

    /// Builds [`config.get_replicas()`](RouterConfig::get_replicas)
    /// independent [`Server`]s over `net` (each with its own worker pool
    /// and session table) and routes across them. The first replica
    /// compiles `net`; the others read the same
    /// [`CompiledModel`](stepping_core::CompiledModel) from the net's slot,
    /// so the whole fleet shares one `Arc`.
    ///
    /// # Errors
    ///
    /// Whatever [`Server::new`] reports for the given `serve` config.
    pub fn launch(net: &SteppingNet, serve: &ServeConfig, config: &RouterConfig) -> Result<Router> {
        let replicas = (0..config.get_replicas())
            .map(|_| {
                Server::new(net, serve.clone())
                    .map(|server| Arc::new(server) as Arc<dyn ReplicaHandle>)
            })
            .collect::<Result<Vec<_>>>()?;
        Router::new(replicas, config)
    }

    /// Number of replicas behind this router.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// The consistent-hash ring (for introspection and tests).
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// The replica that owns `key` on the ring — where a healthy,
    /// undrained fleet places a new session with that key.
    pub fn owner_of(&self, key: u64) -> usize {
        self.ring.owner(key)
    }

    /// Health-breaker state of one replica.
    pub fn breaker_state(&self, replica: usize) -> Option<BreakerState> {
        self.health.get(replica).map(Breaker::state)
    }

    /// Live session count of every replica.
    pub fn session_counts(&self) -> Vec<usize> {
        self.replicas.iter().map(|r| r.session_count()).collect()
    }

    /// Serving statistics of one replica.
    pub fn stats(&self, replica: usize) -> Option<ServerStats> {
        self.replicas.get(replica).map(|r| r.stats())
    }

    /// Routes a **new** session keyed by `key` (a client identity — the
    /// same key always hashes to the same owner). The owner replica is
    /// tried first; on drain, an open breaker, or an admission refusal the
    /// request fails over along the ring (`router.reroute`), so a sick
    /// replica sheds *new* traffic while its existing sessions stay put.
    ///
    /// # Errors
    ///
    /// The last replica's [`ServeError::Admission`] when every candidate
    /// refused, [`AdmissionError::Draining`] when every candidate was
    /// skipped (all draining or breaker-open), or the first
    /// [`ServeError::Invalid`] — a malformed request fails identically
    /// everywhere, so it is not retried.
    pub fn submit(
        &self,
        key: u64,
        request: Request,
    ) -> std::result::Result<RoutedTicket, ServeError> {
        let order = self.ring.successors(key);
        let mut refused: Option<ServeError> = None;
        for (hop, &replica) in order.iter().enumerate() {
            let handle = &self.replicas[replica];
            if handle.is_draining() || !self.health[replica].allow() {
                continue;
            }
            match handle.submit(request.clone()) {
                Ok(ticket) => {
                    self.health[replica].record(false);
                    if hop == 0 {
                        self.metrics.route.inc();
                    } else {
                        self.metrics.reroute.inc();
                        telemetry::point(
                            "serving",
                            event::ROUTER_REROUTE,
                            &[
                                ("key", Value::U64(key)),
                                ("owner", Value::U64(order[0] as u64)),
                                ("replica", Value::U64(replica as u64)),
                            ],
                        );
                    }
                    self.metrics
                        .ring_imbalance
                        .record(self.share_permille[replica]);
                    self.metrics.replica_depth[replica].set(handle.session_count() as i64);
                    return Ok(RoutedTicket { ticket, replica });
                }
                Err(ServeError::Admission(reason)) => {
                    if self.health[replica].record(true) {
                        self.metrics.breaker_trip.inc();
                        telemetry::point(
                            "serving",
                            event::ROUTER_BREAKER_TRIP,
                            &[("replica", Value::U64(replica as u64))],
                        );
                    }
                    refused = Some(ServeError::Admission(reason));
                }
                Err(invalid) => return Err(invalid),
            }
        }
        Err(refused.unwrap_or(ServeError::Admission(AdmissionError::Draining)))
    }

    /// Upgrades a routed session — **always** on the replica encoded in
    /// its id, where its activation cache lives. Never rerouted: a
    /// draining or breaker-open replica still serves its own upgrades.
    ///
    /// # Errors
    ///
    /// [`ServeError::Invalid`] for a session id whose replica index does
    /// not exist, plus whatever the replica reports.
    pub fn upgrade(
        &self,
        session: u64,
        extra_budget_us: Option<f64>,
    ) -> std::result::Result<RoutedTicket, ServeError> {
        let (replica, local) = decode_session(session);
        let handle = self.replicas.get(replica).ok_or_else(|| {
            ServeError::Invalid(SteppingError::BadConfig(format!(
                "session {session:#x} names unknown replica {replica}"
            )))
        })?;
        let ticket = handle.upgrade(local, extra_budget_us)?;
        Ok(RoutedTicket { ticket, replica })
    }

    /// Releases a routed session on its owning replica. Unknown replica
    /// indices and unknown sessions are ignored, like
    /// [`Server::release`].
    pub fn release(&self, session: u64) {
        let (replica, local) = decode_session(session);
        if let Some(handle) = self.replicas.get(replica) {
            handle.release(local);
            self.metrics.replica_depth[replica].set(handle.session_count() as i64);
        }
    }

    /// Starts draining one replica: it refuses *new* sessions (the ring
    /// fails them over to the other replicas) while continuing to serve
    /// queued work and upgrades of its existing sessions. Poll
    /// [`drained`](Router::drained) for the moment it can be shut down or
    /// removed from the fleet.
    ///
    /// # Errors
    ///
    /// [`SteppingError::BadConfig`] for an out-of-range replica index.
    pub fn drain(&self, replica: usize) -> Result<()> {
        let handle = self
            .replicas
            .get(replica)
            .ok_or_else(|| SteppingError::BadConfig(format!("unknown replica {replica}")))?;
        handle.drain();
        self.metrics.drain.inc();
        telemetry::point(
            "serving",
            event::ROUTER_DRAIN,
            &[
                ("replica", Value::U64(replica as u64)),
                ("sessions", Value::U64(handle.session_count() as u64)),
            ],
        );
        Ok(())
    }

    /// Whether a draining replica has bled down to zero live sessions.
    pub fn drained(&self, replica: usize) -> bool {
        self.replicas
            .get(replica)
            .is_some_and(|r| r.is_draining() && r.session_count() == 0)
    }

    /// Gracefully shuts down every replica (queued requests are served).
    pub fn shutdown(&self) {
        for replica in &self.replicas {
            replica.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_encoding_round_trips() {
        for replica in [0usize, 1, 7, 65_535] {
            for local in [0u64, 1, 42, LOCAL_MASK] {
                let (r, l) = decode_session(encode_session(replica, local));
                assert_eq!((r, l), (replica, local));
            }
        }
    }

    #[test]
    fn replica_vector_is_validated() {
        let config = RouterConfig::builder().build();
        assert!(Router::new(Vec::new(), &config).is_err());
    }
}

//! The router's always-on production metric handles.
//!
//! Same layout discipline as `stepping-serve`'s metrics module: every
//! series lives in the process-wide
//! [`MetricsRegistry::global`](stepping_metrics::MetricsRegistry::global)
//! registry under a name from `stepping_core::events::metric`, is
//! registered once at [`Router::new`](crate::Router::new), and the hot
//! path only touches pre-resolved `Arc` handles.
//!
//! Series layout:
//!
//! * unlabeled counters — `router.route` (sessions placed on their ring
//!   owner), `router.reroute` (placed elsewhere: breaker open, drain, or
//!   admission refusal at the owner), `router.drain` (drains initiated),
//!   `router.breaker_trip` (health breakers tripped open);
//! * per replica — `router.replica_depth{replica="N"}` gauges tracking
//!   live sessions;
//! * `router.ring_imbalance` — a histogram fed, at every placement, with
//!   the chosen replica's ring share in permille of the ideal share
//!   (1000 = exactly fair); its mean drifting above ~1000 means hot
//!   replicas are absorbing more than their slice of new sessions.

use std::sync::Arc;

use stepping_core::events::metric;
use stepping_metrics::{Gauge, LogHistogram, MetricsRegistry, ShardedCounter};

/// All metric handles the router records into.
#[derive(Debug)]
pub(crate) struct RouterMetrics {
    /// Sessions placed on their ring-owner replica.
    pub route: Arc<ShardedCounter>,
    /// Sessions placed off their owner (failover or drain).
    pub reroute: Arc<ShardedCounter>,
    /// Replica drains initiated through the router.
    pub drain: Arc<ShardedCounter>,
    /// Health breakers tripped open.
    pub breaker_trip: Arc<ShardedCounter>,
    /// Live sessions per replica.
    pub replica_depth: Vec<Arc<Gauge>>,
    /// Chosen replica's ring share, permille of ideal, per placement.
    pub ring_imbalance: Arc<LogHistogram>,
}

impl RouterMetrics {
    /// Registers every router series for `replicas` replicas. Idempotent —
    /// re-registration returns the existing handles.
    pub fn new(registry: &MetricsRegistry, replicas: usize) -> Self {
        RouterMetrics {
            route: registry.register_counter(metric::ROUTER_ROUTE),
            reroute: registry.register_counter(metric::ROUTER_REROUTE),
            drain: registry.register_counter(metric::ROUTER_DRAIN),
            breaker_trip: registry.register_counter(metric::ROUTER_BREAKER_TRIP),
            replica_depth: (0..replicas.max(1))
                .map(|r| {
                    registry.register_gauge_labeled(
                        metric::ROUTER_REPLICA_DEPTH,
                        "replica",
                        r.to_string(),
                    )
                })
                .collect(),
            ring_imbalance: registry.register_histogram(metric::ROUTER_RING_IMBALANCE),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_series_registers_cleanly() {
        let registry = MetricsRegistry::new();
        let m = RouterMetrics::new(&registry, 3);
        m.route.inc();
        m.replica_depth[2].set(5);
        m.ring_imbalance.record(1000);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("router.route"), Some(1));
        assert_eq!(snap.gauge("router.replica_depth{replica=\"2\"}"), Some(5));
        assert!(snap.hist("router.ring_imbalance").is_some());
    }
}

//! Production metric names: the series registered with
//! [`MetricsRegistry::register_*`](crate::MetricsRegistry::register_counter).
//!
//! These are the always-on aggregate metrics (counters, gauges, latency
//! histograms), distinct from the per-event telemetry names of
//! `stepping_core::events::event`: a metric exists for the whole process
//! lifetime and is read via snapshots, while an event is emitted once per
//! occurrence into the `obs` pipeline. `stepping_core::events::metric`
//! re-exports this module.
//!
//! A name is a [`Metric`], whose only values are the consts below, so a
//! name that is not in this table does not compile:
//!
//! ```compile_fail,E0308
//! let registry = stepping_metrics::MetricsRegistry::new();
//! let _ = registry.register_counter("serve.admited");
//! ```
//!
//! while a registered one does:
//!
//! ```
//! let registry = stepping_metrics::MetricsRegistry::new();
//! let _ = registry.register_counter(stepping_metrics::metric::SERVE_ADMITTED);
//! ```

/// A registered metric name. Its field is private: the consts of this
/// module are its only values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric(&'static str);

impl Metric {
    /// The name as it appears in snapshots, e.g. `serve.lock_wait_ns`.
    pub const fn as_str(self) -> &'static str {
        self.0
    }
}

// serving lifecycle (admission → queue → batch → lock → forward → reply)
/// Requests admitted into the server (submit + upgrade).
pub const SERVE_ADMITTED: Metric = Metric("serve.admitted");
/// Requests fully completed (reply sent).
pub const SERVE_COMPLETED: Metric = Metric("serve.completed");
/// Admission-side bookkeeping latency (resolve + enqueue).
pub const SERVE_ADMISSION_NS: Metric = Metric("serve.admission_ns");
/// Jobs waiting in the batch queue right now (gauge).
pub const SERVE_QUEUE_DEPTH: Metric = Metric("serve.queue_depth");
/// Queue depth observed by each worker at batch extraction.
pub const SERVE_QUEUE_DEPTH_SAMPLED: Metric = Metric("serve.queue_depth_sampled");
/// Per-job time from enqueue to batch extraction.
pub const SERVE_QUEUE_WAIT_NS: Metric = Metric("serve.queue_wait_ns");
/// Worker wait for the queue lock / batch condvar.
pub const SERVE_LOCK_WAIT_NS: Metric = Metric("serve.lock_wait_ns");
/// Oldest job's age when its batch was flushed (batch formation time).
pub const SERVE_BATCH_FORM_NS: Metric = Metric("serve.batch_form_ns");
/// Jobs fused per executed batch (per batch-key series).
pub const SERVE_BATCH_OCCUPANCY: Metric = Metric("serve.batch_occupancy");
/// Packed forward pass latency per batch.
pub const SERVE_FORWARD_NS: Metric = Metric("serve.forward_ns");
/// Reply delivery latency per batch.
pub const SERVE_REPLY_NS: Metric = Metric("serve.reply_ns");
/// Per-worker nanoseconds spent executing batches (utilization).
pub const SERVE_WORKER_BUSY_NS: Metric = Metric("serve.worker_busy_ns");
/// Requests whose budget was already blown at completion.
pub const SERVE_DEADLINE_MISS: Metric = Metric("serve.deadline_miss");
/// Unaffordable upgrades answered synchronously from cache.
pub const SERVE_CACHE_HIT: Metric = Metric("serve.cache_hit");
/// Depth of the claimed lane at batch extraction (per claim).
pub const SERVE_LANE_DEPTH: Metric = Metric("serve.lane_depth");
/// Requests admitted below their requested subnet (admission downgrade).
pub const SERVE_DEGRADED: Metric = Metric("serve.degraded");
/// Upgrades shed to their session cache by a full lane.
pub const SERVE_SHED: Metric = Metric("serve.shed");
/// Requests refused outright by admission control (queue full).
pub const SERVE_REJECTED: Metric = Metric("serve.rejected");

// routing front door (stepping-router)
/// Sessions routed to their ring-owner replica (first placement).
pub const ROUTER_ROUTE: Metric = Metric("router.route");
/// Sessions rerouted off their ring owner (breaker/drain/refusal).
pub const ROUTER_REROUTE: Metric = Metric("router.reroute");
/// Replica drains initiated through the router.
pub const ROUTER_DRAIN: Metric = Metric("router.drain");
/// Health-breaker trips (replica marked unroutable for new sessions).
pub const ROUTER_BREAKER_TRIP: Metric = Metric("router.breaker_trip");
/// Live sessions per replica (gauge, `replica="N"` label).
pub const ROUTER_REPLICA_DEPTH: Metric = Metric("router.replica_depth");
/// Ring imbalance at each placement: owned vnode share of the chosen
/// replica in tenths of a percent.
pub const ROUTER_RING_IMBALANCE: Metric = Metric("router.ring_imbalance");

// execution pool
/// Dispatch side of one pool run (send jobs to workers).
pub const EXEC_DISPATCH_NS: Metric = Metric("exec.dispatch_ns");
/// Collect/reduce side of one pool run.
pub const EXEC_REDUCE_NS: Metric = Metric("exec.reduce_ns");
/// Whole pool run (dispatch + workers + collect).
pub const EXEC_POOL_RUN_NS: Metric = Metric("exec.pool_run_ns");

// compiled plans
/// Panels compiled.
pub const PLAN_COMPILE: Metric = Metric("plan.compile");
/// Latency of compiling one model (every panel).
pub const PLAN_COMPILE_NS: Metric = Metric("plan.compile_ns");
/// Compiled models dropped by a mutation of their net.
pub const PLAN_INVALIDATE: Metric = Metric("plan.invalidate");
/// Blocked-GEMM time inside packed plan execution (for a convolution,
/// its whole kernel).
pub const PLAN_GEMM_NS: Metric = Metric("plan.gemm_ns");
/// Panel gather packing time inside packed linear and head execution
/// (a convolution packs inside its kernel, timed as `plan.gemm_ns`).
pub const PLAN_PACK_NS: Metric = Metric("plan.pack_ns");

/// Every registered metric name.
pub const ALL: &[Metric] = &[
    SERVE_ADMITTED,
    SERVE_COMPLETED,
    SERVE_ADMISSION_NS,
    SERVE_QUEUE_DEPTH,
    SERVE_QUEUE_DEPTH_SAMPLED,
    SERVE_QUEUE_WAIT_NS,
    SERVE_LOCK_WAIT_NS,
    SERVE_BATCH_FORM_NS,
    SERVE_BATCH_OCCUPANCY,
    SERVE_FORWARD_NS,
    SERVE_REPLY_NS,
    SERVE_WORKER_BUSY_NS,
    SERVE_DEADLINE_MISS,
    SERVE_CACHE_HIT,
    SERVE_LANE_DEPTH,
    SERVE_DEGRADED,
    SERVE_SHED,
    SERVE_REJECTED,
    ROUTER_ROUTE,
    ROUTER_REROUTE,
    ROUTER_DRAIN,
    ROUTER_BREAKER_TRIP,
    ROUTER_REPLICA_DEPTH,
    ROUTER_RING_IMBALANCE,
    EXEC_DISPATCH_NS,
    EXEC_REDUCE_NS,
    EXEC_POOL_RUN_NS,
    PLAN_COMPILE,
    PLAN_COMPILE_NS,
    PLAN_INVALIDATE,
    PLAN_GEMM_NS,
    PLAN_PACK_NS,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_duplicate_free() {
        for (i, a) in ALL.iter().enumerate() {
            for b in &ALL[i + 1..] {
                assert_ne!(a, b, "duplicate metric name");
            }
        }
    }

    #[test]
    fn names_are_dot_separated_lowercase() {
        for name in ALL.iter().map(|m| m.as_str()) {
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c == '.' || c == '_'),
                "metric name {name:?} breaks the naming convention"
            );
        }
    }
}

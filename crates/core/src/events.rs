//! Central registry of telemetry phase and event names.
//!
//! Every `phase` and `name` passed to [`crate::telemetry::point`],
//! [`crate::telemetry::counter`], or [`crate::telemetry::span`] anywhere in
//! the workspace must come from this module (or be a string literal equal to
//! one of these constants). The `stepping-lint` L6 *telemetry hygiene* rule
//! parses this file and flags any emission whose phase or event name is not
//! registered here — a typo'd counter name would otherwise silently split a
//! metric in two, and `stepping-obs` aggregation (which matches on these
//! exact strings) would never see it.
//!
//! `stepping-obs` consumes the same constants on the read side
//! (`summary.rs` roll-ups, the console sink's `report` routing), so the
//! emitter and the aggregator can no longer drift apart.

/// Coarse pipeline phases — the first argument of every emission.
pub mod phase {
    /// Subnet construction (paper §III-A): iteration spans, importance.
    pub const CONSTRUCTION: &str = "construction";
    /// Subnet training and knowledge distillation (§III-B).
    pub const TRAINING: &str = "training";
    /// Incremental / anytime inference (executor, driver, live sessions).
    pub const INFERENCE: &str = "inference";
    /// The concurrent batched serving runtime (`stepping-serve`).
    pub const SERVING: &str = "serving";
    /// Compiled-plan cache activity (`stepping_core::plan`).
    pub const PLAN: &str = "plan";
    /// Pre-formatted bench/report text routed through `stepping-obs`.
    pub const REPORT: &str = "report";

    /// Every registered phase.
    pub const ALL: &[&str] = &[CONSTRUCTION, TRAINING, INFERENCE, SERVING, PLAN, REPORT];
}

/// Event and counter names — the second argument of every emission.
pub mod event {
    // construction
    /// Whole construction run span.
    pub const CONSTRUCT_RUN: &str = "construct.run";
    /// One construction iteration span (moves/prunes/revives).
    pub const CONSTRUCT_ITERATION: &str = "construct.iteration";
    /// Per-subnet MAC-vs-budget point at the end of an iteration.
    pub const CONSTRUCT_SUBNET: &str = "construct.subnet";
    /// Importance-statistics point after an evaluation pass.
    pub const CONSTRUCT_IMPORTANCE: &str = "construct.importance";
    /// Training batches executed during construction.
    pub const CONSTRUCT_TRAIN_BATCHES: &str = "construct.train_batches";

    // training
    /// One-subnet training run span.
    pub const TRAIN_SUBNET: &str = "train.subnet";
    /// One training epoch span.
    pub const TRAIN_EPOCH: &str = "train.epoch";
    /// Training batches executed.
    pub const TRAIN_BATCHES: &str = "train.batches";

    // distillation
    /// Whole distillation run span.
    pub const DISTILL_RUN: &str = "distill.run";
    /// One distillation epoch span.
    pub const DISTILL_EPOCH: &str = "distill.epoch";
    /// Per-subnet distillation point (CE/KL loss split).
    pub const DISTILL_SUBNET: &str = "distill.subnet";
    /// Distillation batches executed.
    pub const DISTILL_BATCHES: &str = "distill.batches";

    // cached-step executor (one span per batch; a lone request is a batch of 1)
    /// Initial subnet run span (`BatchExecutor::begin`).
    pub const EXEC_BEGIN: &str = "exec.begin";
    /// Expand-step span (only newly added neurons).
    pub const EXEC_EXPAND: &str = "exec.expand";
    /// Contract-step span (head-only re-read at a smaller subnet).
    pub const EXEC_CONTRACT: &str = "exec.contract";

    // session driver
    /// Whole `Session::run*` drive span.
    pub const DRIVE_RUN: &str = "drive.run";
    /// One resource-slice span of a drive.
    pub const DRIVE_SLICE: &str = "drive.slice";
    /// Upgrade decision point within a slice.
    pub const DRIVE_UPGRADE: &str = "drive.upgrade";
    /// Deadline-resolution point of `run_until_deadline`.
    pub const DRIVE_DEADLINE: &str = "drive.deadline";
    /// Per-prediction point of a live (streaming) session.
    pub const LIVE_PREDICTION: &str = "live.prediction";

    // serving
    /// One fused micro-batch span (begin or upgrade).
    pub const SERVE_BATCH: &str = "serve.batch";
    /// Unaffordable upgrade answered synchronously from cache.
    pub const SERVE_CACHE_HIT: &str = "serve.cache_hit";
    /// Admission control shed an upgrade to its session cache (full lane).
    pub const SERVE_SHED: &str = "serve.shed";

    // routing front door (stepping-router)
    /// A new session was rerouted off its ring owner (breaker open, drain,
    /// or admission refusal).
    pub const ROUTER_REROUTE: &str = "router.reroute";
    /// A replica entered drain (refusing new sessions, serving old ones).
    pub const ROUTER_DRAIN: &str = "router.drain";
    /// A replica's health breaker tripped open.
    pub const ROUTER_BREAKER_TRIP: &str = "router.breaker_trip";

    // compiled plans
    /// A `(layer, subnet)` plan was compiled.
    pub const PLAN_COMPILE: &str = "plan.compile";
    /// A mutation dropped the net's compiled model.
    pub const PLAN_INVALIDATE: &str = "plan.invalidate";

    // parallel execution pool
    /// Pool construction point / per-batch dispatch span.
    pub const POOL_SPAWN: &str = "pool.spawn";
    /// One shard job span.
    pub const POOL_SHARD: &str = "pool.shard";
    /// Rows dispatched to shards.
    pub const POOL_SHARD_ROWS: &str = "pool.shard.rows";
    /// Fixed-order tree-reduction span.
    pub const POOL_REDUCE: &str = "pool.reduce";
    /// Pairwise combines performed by the reduction.
    pub const POOL_REDUCE_OPS: &str = "pool.reduce.ops";
    /// Batch fell back to the sequential path (shard-unsafe stage).
    pub const POOL_FALLBACK: &str = "pool.fallback";

    // report channel (stepping-obs report_text / progress)
    /// Pre-formatted stdout report text.
    pub const REPORT_TEXT: &str = "text";
    /// Pre-formatted stderr progress text.
    pub const REPORT_PROGRESS: &str = "progress";

    /// Every registered event name.
    pub const ALL: &[&str] = &[
        CONSTRUCT_RUN,
        CONSTRUCT_ITERATION,
        CONSTRUCT_SUBNET,
        CONSTRUCT_IMPORTANCE,
        CONSTRUCT_TRAIN_BATCHES,
        TRAIN_SUBNET,
        TRAIN_EPOCH,
        TRAIN_BATCHES,
        DISTILL_RUN,
        DISTILL_EPOCH,
        DISTILL_SUBNET,
        DISTILL_BATCHES,
        EXEC_BEGIN,
        EXEC_EXPAND,
        EXEC_CONTRACT,
        DRIVE_RUN,
        DRIVE_SLICE,
        DRIVE_UPGRADE,
        DRIVE_DEADLINE,
        LIVE_PREDICTION,
        SERVE_BATCH,
        SERVE_CACHE_HIT,
        SERVE_SHED,
        ROUTER_REROUTE,
        ROUTER_DRAIN,
        ROUTER_BREAKER_TRIP,
        PLAN_COMPILE,
        PLAN_INVALIDATE,
        POOL_SPAWN,
        POOL_SHARD,
        POOL_SHARD_ROWS,
        POOL_REDUCE,
        POOL_REDUCE_OPS,
        POOL_FALLBACK,
        REPORT_TEXT,
        REPORT_PROGRESS,
    ];
}

/// Production metric names — the series registered with
/// `stepping_metrics::MetricsRegistry::register_*`.
///
/// These are the always-on aggregate metrics (counters, gauges, latency
/// histograms), distinct from the per-event telemetry names in [`event`]:
/// a metric exists for the whole process lifetime and is read via
/// snapshots, while an event is emitted once per occurrence into the `obs`
/// pipeline. The `stepping-lint` L6 rule checks `register_*` call sites
/// against this table, and [`is_metric`] is installed as the runtime
/// validator (see `MetricsRegistry::set_validator`) so an unregistered
/// name surfaces in every snapshot's `invalid_names` count.
pub mod metric {
    // serving lifecycle (admission → queue → batch → lock → forward → reply)
    /// Requests admitted into the server (submit + upgrade).
    pub const SERVE_ADMITTED: &str = "serve.admitted";
    /// Requests fully completed (reply sent).
    pub const SERVE_COMPLETED: &str = "serve.completed";
    /// Admission-side bookkeeping latency (resolve + enqueue).
    pub const SERVE_ADMISSION_NS: &str = "serve.admission_ns";
    /// Jobs waiting in the batch queue right now (gauge).
    pub const SERVE_QUEUE_DEPTH: &str = "serve.queue_depth";
    /// Queue depth observed by each worker at batch extraction.
    pub const SERVE_QUEUE_DEPTH_SAMPLED: &str = "serve.queue_depth_sampled";
    /// Per-job time from enqueue to batch extraction.
    pub const SERVE_QUEUE_WAIT_NS: &str = "serve.queue_wait_ns";
    /// Worker wait for the queue lock / batch condvar.
    pub const SERVE_LOCK_WAIT_NS: &str = "serve.lock_wait_ns";
    /// Oldest job's age when its batch was flushed (batch formation time).
    pub const SERVE_BATCH_FORM_NS: &str = "serve.batch_form_ns";
    /// Jobs fused per executed batch (per batch-key series).
    pub const SERVE_BATCH_OCCUPANCY: &str = "serve.batch_occupancy";
    /// Packed forward pass latency per batch.
    pub const SERVE_FORWARD_NS: &str = "serve.forward_ns";
    /// Reply delivery latency per batch.
    pub const SERVE_REPLY_NS: &str = "serve.reply_ns";
    /// Per-worker nanoseconds spent executing batches (utilization).
    pub const SERVE_WORKER_BUSY_NS: &str = "serve.worker_busy_ns";
    /// Requests whose budget was already blown at completion.
    pub const SERVE_DEADLINE_MISS: &str = "serve.deadline_miss";
    /// Unaffordable upgrades answered synchronously from cache.
    pub const SERVE_CACHE_HIT: &str = "serve.cache_hit";
    /// Depth of the claimed lane at batch extraction (per claim).
    pub const SERVE_LANE_DEPTH: &str = "serve.lane_depth";
    /// Requests admitted below their requested subnet (admission downgrade).
    pub const SERVE_DEGRADED: &str = "serve.degraded";
    /// Upgrades shed to their session cache by a full lane.
    pub const SERVE_SHED: &str = "serve.shed";
    /// Requests refused outright by admission control (queue full).
    pub const SERVE_REJECTED: &str = "serve.rejected";

    // routing front door (stepping-router)
    /// Sessions routed to their ring-owner replica (first placement).
    pub const ROUTER_ROUTE: &str = "router.route";
    /// Sessions rerouted off their ring owner (breaker/drain/refusal).
    pub const ROUTER_REROUTE: &str = "router.reroute";
    /// Replica drains initiated through the router.
    pub const ROUTER_DRAIN: &str = "router.drain";
    /// Health-breaker trips (replica marked unroutable for new sessions).
    pub const ROUTER_BREAKER_TRIP: &str = "router.breaker_trip";
    /// Live sessions per replica (gauge, `replica="N"` label).
    pub const ROUTER_REPLICA_DEPTH: &str = "router.replica_depth";
    /// Ring imbalance at each placement: owned vnode share of the chosen
    /// replica in tenths of a percent.
    pub const ROUTER_RING_IMBALANCE: &str = "router.ring_imbalance";

    // execution pool
    /// Dispatch side of one pool run (send jobs to workers).
    pub const EXEC_DISPATCH_NS: &str = "exec.dispatch_ns";
    /// Collect/reduce side of one pool run.
    pub const EXEC_REDUCE_NS: &str = "exec.reduce_ns";
    /// Whole pool run (dispatch + workers + collect).
    pub const EXEC_POOL_RUN_NS: &str = "exec.pool_run_ns";

    // compiled plans
    /// Panels compiled.
    pub const PLAN_COMPILE: &str = "plan.compile";
    /// Latency of compiling one model (every panel).
    pub const PLAN_COMPILE_NS: &str = "plan.compile_ns";
    /// Compiled models dropped by a mutation of their net.
    pub const PLAN_INVALIDATE: &str = "plan.invalidate";
    /// Blocked-GEMM time inside packed plan execution (for a convolution,
    /// its whole kernel).
    pub const PLAN_GEMM_NS: &str = "plan.gemm_ns";
    /// Panel gather packing time inside packed linear and head execution
    /// (a convolution packs inside its kernel, timed as `plan.gemm_ns`).
    pub const PLAN_PACK_NS: &str = "plan.pack_ns";

    /// Every registered metric name.
    pub const ALL: &[&str] = &[
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
}

/// Whether `name` is a registered phase.
pub fn is_phase(name: &str) -> bool {
    phase::ALL.contains(&name)
}

/// Whether `name` is a registered event name.
pub fn is_event(name: &str) -> bool {
    event::ALL.contains(&name)
}

/// Whether `name` is a registered production metric name. Installed as the
/// `MetricsRegistry` runtime validator by the serving engine and benches.
pub fn is_metric(name: &str) -> bool {
    metric::ALL.contains(&name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_duplicate_free() {
        for (i, a) in event::ALL.iter().enumerate() {
            for b in &event::ALL[i + 1..] {
                assert_ne!(a, b, "duplicate event name");
            }
        }
        for (i, a) in phase::ALL.iter().enumerate() {
            for b in &phase::ALL[i + 1..] {
                assert_ne!(a, b, "duplicate phase name");
            }
        }
        for (i, a) in metric::ALL.iter().enumerate() {
            for b in &metric::ALL[i + 1..] {
                assert_ne!(a, b, "duplicate metric name");
            }
        }
    }

    #[test]
    fn lookups() {
        assert!(is_phase(phase::INFERENCE));
        assert!(!is_phase("inferense"));
        assert!(is_event(event::PLAN_INVALIDATE));
        assert!(!is_event("plan.cache_hit"), "retired with the plan caches");
        assert!(is_metric(metric::SERVE_QUEUE_DEPTH));
        assert!(!is_metric("serve.queuedepth"));
    }

    #[test]
    fn event_names_are_dot_separated_lowercase() {
        for name in event::ALL.iter().chain(metric::ALL) {
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c == '.' || c == '_'),
                "event name {name:?} breaks the naming convention"
            );
        }
    }
}

//! Central registry of telemetry phase and event names.
//!
//! Every `phase` and `name` passed to [`crate::telemetry::point`],
//! [`crate::telemetry::counter`], or [`crate::telemetry::span`] anywhere in
//! the workspace comes from this module: they take a [`Phase`] and an
//! [`EventName`], whose only values are the consts below, so an
//! unregistered name does not compile. A typo'd counter name would
//! otherwise silently split a metric in two, and `stepping-obs` aggregation
//! (which matches on these exact strings) would never see it.
//!
//! `stepping-obs` consumes the same constants on the read side
//! (`summary.rs` roll-ups, the console sink's `report` routing), so the
//! emitter and the aggregator can no longer drift apart.

use crate::telemetry::{EventName, Phase};

/// Coarse pipeline phases — the first argument of every emission.
pub mod phase {
    use super::Phase;

    /// Subnet construction (paper §III-A): iteration spans, importance.
    pub const CONSTRUCTION: Phase = Phase("construction");
    /// Subnet training and knowledge distillation (§III-B).
    pub const TRAINING: Phase = Phase("training");
    /// Incremental / anytime inference (executor, driver, live sessions).
    pub const INFERENCE: Phase = Phase("inference");
    /// The concurrent batched serving runtime (`stepping-serve`).
    pub const SERVING: Phase = Phase("serving");
    /// Compiled-plan cache activity (`stepping_core::plan`).
    pub const PLAN: Phase = Phase("plan");
    /// Pre-formatted bench/report text routed through `stepping-obs`.
    pub const REPORT: Phase = Phase("report");

    /// Every registered phase.
    pub const ALL: &[Phase] = &[CONSTRUCTION, TRAINING, INFERENCE, SERVING, PLAN, REPORT];
}

/// Event and counter names — the second argument of every emission.
pub mod event {
    use super::EventName;

    // construction
    /// Whole construction run span.
    pub const CONSTRUCT_RUN: EventName = EventName("construct.run");
    /// One construction iteration span (moves/prunes/revives).
    pub const CONSTRUCT_ITERATION: EventName = EventName("construct.iteration");
    /// Per-subnet MAC-vs-budget point at the end of an iteration.
    pub const CONSTRUCT_SUBNET: EventName = EventName("construct.subnet");
    /// Importance-statistics point after an evaluation pass.
    pub const CONSTRUCT_IMPORTANCE: EventName = EventName("construct.importance");
    /// Training batches executed during construction.
    pub const CONSTRUCT_TRAIN_BATCHES: EventName = EventName("construct.train_batches");

    // training
    /// One-subnet training run span.
    pub const TRAIN_SUBNET: EventName = EventName("train.subnet");
    /// One training epoch span.
    pub const TRAIN_EPOCH: EventName = EventName("train.epoch");
    /// Training batches executed.
    pub const TRAIN_BATCHES: EventName = EventName("train.batches");

    // distillation
    /// Whole distillation run span.
    pub const DISTILL_RUN: EventName = EventName("distill.run");
    /// One distillation epoch span.
    pub const DISTILL_EPOCH: EventName = EventName("distill.epoch");
    /// Per-subnet distillation point (CE/KL loss split).
    pub const DISTILL_SUBNET: EventName = EventName("distill.subnet");
    /// Distillation batches executed.
    pub const DISTILL_BATCHES: EventName = EventName("distill.batches");

    // cached-step executor (one span per batch; a lone request is a batch of 1)
    /// Initial subnet run span (`BatchExecutor::begin`).
    pub const EXEC_BEGIN: EventName = EventName("exec.begin");
    /// Expand-step span (only newly added neurons).
    pub const EXEC_EXPAND: EventName = EventName("exec.expand");
    /// Contract-step span (head-only re-read at a smaller subnet).
    pub const EXEC_CONTRACT: EventName = EventName("exec.contract");

    // session driver
    /// Whole `Session::run*` drive span.
    pub const DRIVE_RUN: EventName = EventName("drive.run");
    /// One resource-slice span of a drive.
    pub const DRIVE_SLICE: EventName = EventName("drive.slice");
    /// Upgrade decision point within a slice.
    pub const DRIVE_UPGRADE: EventName = EventName("drive.upgrade");
    /// Deadline-resolution point of `run_until_deadline`.
    pub const DRIVE_DEADLINE: EventName = EventName("drive.deadline");
    /// Per-prediction point of a live (streaming) session.
    pub const LIVE_PREDICTION: EventName = EventName("live.prediction");

    // serving
    /// One fused micro-batch span (begin or upgrade).
    pub const SERVE_BATCH: EventName = EventName("serve.batch");
    /// Unaffordable upgrade answered synchronously from cache.
    pub const SERVE_CACHE_HIT: EventName = EventName("serve.cache_hit");
    /// Admission control shed an upgrade to its session cache (full lane).
    pub const SERVE_SHED: EventName = EventName("serve.shed");

    // routing front door (stepping-router)
    /// A new session was rerouted off its ring owner (breaker open, drain,
    /// or admission refusal).
    pub const ROUTER_REROUTE: EventName = EventName("router.reroute");
    /// A replica entered drain (refusing new sessions, serving old ones).
    pub const ROUTER_DRAIN: EventName = EventName("router.drain");
    /// A replica's health breaker tripped open.
    pub const ROUTER_BREAKER_TRIP: EventName = EventName("router.breaker_trip");

    // compiled plans
    /// A `(layer, subnet)` plan was compiled.
    pub const PLAN_COMPILE: EventName = EventName("plan.compile");
    /// A mutation dropped the net's compiled model.
    pub const PLAN_INVALIDATE: EventName = EventName("plan.invalidate");

    // report channel (stepping-obs report_text / progress)
    /// Pre-formatted stdout report text.
    pub const REPORT_TEXT: EventName = EventName("text");
    /// Pre-formatted stderr progress text.
    pub const REPORT_PROGRESS: EventName = EventName("progress");

    /// Every registered event name.
    pub const ALL: &[EventName] = &[
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
        REPORT_TEXT,
        REPORT_PROGRESS,
    ];
}

/// Production metric names — the series registered with
/// `stepping_metrics::MetricsRegistry::register_*`. The table lives in
/// `stepping-metrics`, below this crate, so crates that do not depend on
/// this one can name it too.
pub use stepping_metrics::metric;

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
    }

    #[test]
    fn event_names_are_dot_separated_lowercase() {
        for name in event::ALL.iter().map(|e| e.as_str()) {
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c == '.' || c == '_'),
                "event name {name:?} breaks the naming convention"
            );
        }
    }
}

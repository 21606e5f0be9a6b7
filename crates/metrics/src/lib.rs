//! `stepping-metrics` — low-overhead, always-on production metrics.
//!
//! The offline observability layer (`stepping-obs` + the `obs` feature)
//! records *per-event* traces for post-hoc analysis; this crate is its
//! production twin: *aggregate-only* counters, gauges, and fixed-memory
//! histograms cheap enough to leave on in a serving binary. The hot path is
//! a handful of relaxed atomic operations — no locks, no allocation, no
//! formatting — and with the `metrics` feature disabled every primitive is
//! a zero-sized no-op and `enabled()` is `const false`, so instrumented
//! code compiles to nothing.
//!
//! Layering: this crate is std-only and sits *below* `stepping-core` (which
//! needs to record into it), so it owns the metric-name table: [`metric`]
//! holds every name, and `register_*` take a [`Metric`], whose only values
//! are that table's consts. A name outside the table does not compile.
//!
//! Feature/runtime matrix:
//!
//! | `metrics` feature | [`set_runtime_enabled`] | behaviour |
//! |---|---|---|
//! | off | — | everything compiles to no-ops, zero bytes of state |
//! | on  | `true` (default) | recording live, snapshots populated |
//! | on  | `false` | recording suppressed at runtime (overhead A/B tests) |

#![warn(missing_docs)]

pub mod counter;
pub mod hist;
pub mod metric;
pub mod registry;
pub mod snapshot;
pub mod timer;
pub mod writer;

pub use counter::{Gauge, ShardedCounter};
pub use hist::{bucket_bounds, bucket_index, HistSnapshot, LogHistogram, BUCKET_COUNT};
pub use metric::Metric;
pub use registry::{MetricKey, MetricsRegistry};
pub use snapshot::{diff, Snapshot, SnapshotDiff};
pub use timer::{elapsed_ns, start_timer, PhaseTimer};
pub use writer::SnapshotWriter;

#[cfg(feature = "metrics")]
use std::sync::atomic::{AtomicBool, Ordering};

/// Runtime switch consulted by every record path (compiled builds only).
/// Defaults to on: building with the feature means you want the data.
#[cfg(feature = "metrics")]
static RUNTIME_ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether metric recording is live. `const false` when the `metrics`
/// feature is off, so instrumented branches fold away entirely.
#[cfg(feature = "metrics")]
#[inline]
pub fn enabled() -> bool {
    RUNTIME_ENABLED.load(Ordering::Relaxed)
}

/// Whether metric recording is live (compiled-out build: always `false`).
#[cfg(not(feature = "metrics"))]
#[inline]
pub const fn enabled() -> bool {
    false
}

/// Toggles recording at runtime (no effect when the feature is compiled
/// out). Exists so one binary can measure its own instrumentation overhead
/// — run a workload with recording on, again with it off, compare.
pub fn set_runtime_enabled(on: bool) {
    #[cfg(feature = "metrics")]
    RUNTIME_ENABLED.store(on, Ordering::Relaxed);
    #[cfg(not(feature = "metrics"))]
    let _ = on;
}

#[cfg(test)]
mod tests {
    #[test]
    fn enabled_matches_the_feature() {
        #[cfg(feature = "metrics")]
        assert!(super::enabled());
        #[cfg(not(feature = "metrics"))]
        assert!(!super::enabled());
    }

    // The runtime-toggle test lives in `tests/runtime_toggle.rs`: flipping
    // the process-global switch would race with sibling unit tests, so it
    // gets its own test binary (and process).
}

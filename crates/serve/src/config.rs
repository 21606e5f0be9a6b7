//! Server configuration: serving knobs (workers, batching, admission
//! control) on top of the runtime's [`SessionConfig`], built with
//! [`ServeConfig::builder`].

use std::path::PathBuf;
use std::time::Duration;

use stepping_runtime::SessionConfig;

/// What admission control does with a request whose lane is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShedPolicy {
    /// Downgrade the request to the largest smaller subnet whose lane has
    /// room (the nested-subnet property makes the cheaper answer free to
    /// produce and still correct). Budget and full requests step down to
    /// the configured start subnet before giving up. An upgrade has one
    /// lane, that of the level its session sits at; when it is full the
    /// upgrade falls back at once to a synchronous cache answer
    /// ([`Outcome::Shed`](crate::Outcome::Shed)), whatever its target.
    /// Subnet-pinned requests are never downgraded. The default.
    #[default]
    Downgrade,
    /// Refuse immediately with
    /// [`AdmissionError::QueueFull`](crate::AdmissionError::QueueFull).
    Reject,
}

/// Configuration of a [`Server`](crate::Server).
///
/// Embeds a [`SessionConfig`] for the inference-side knobs (prune
/// threshold, device model, start subnet) and adds the serving-side ones:
/// worker threads, micro-batch limit, and the admission bound + shed
/// policy of the per-key batch lanes. Construct it with
/// [`builder`](ServeConfig::builder):
///
/// ```
/// use stepping_serve::{ServeConfig, ShedPolicy};
///
/// let config = ServeConfig::builder()
///     .workers(4)
///     .max_batch(8)
///     .lane_capacity(64)
///     .shed_policy(ShedPolicy::Downgrade)
///     .build();
/// assert_eq!(config.get_workers(), 4);
/// ```
///
/// Defaults: 2 workers, `max_batch` 8, `lane_capacity` 64,
/// [`ShedPolicy::Downgrade`], default [`SessionConfig`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    workers: usize,
    max_batch: usize,
    lane_capacity: usize,
    shed_policy: ShedPolicy,
    session: SessionConfig,
    metrics_snapshot: Option<PathBuf>,
    metrics_interval: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            max_batch: 8,
            lane_capacity: 64,
            shed_policy: ShedPolicy::default(),
            session: SessionConfig::new(),
            metrics_snapshot: None,
            metrics_interval: Duration::from_millis(500),
        }
    }
}

/// Builder for [`ServeConfig`]; created by [`ServeConfig::builder`], every
/// knob chains, finished with [`build`](ServeConfigBuilder::build).
#[derive(Debug, Clone, Default)]
pub struct ServeConfigBuilder {
    config: ServeConfig,
}

impl ServeConfigBuilder {
    /// Number of worker threads (they share one compiled model of the
    /// network). The pool is elastic under this cap: a parked worker is
    /// woken only when every worker is parked, or when the queued work
    /// reaches a full batch (`max_batch` requests) at the top subnet, and
    /// then the lowest-numbered one. Under light load worker 0 alone
    /// serves, in batches that grow with the queue. Under heavy load every
    /// worker can be awake at once, so size the pool to the cores.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Largest number of requests fused into one batched pass. `1` disables
    /// micro-batching (every request runs alone). Dispatch is
    /// work-conserving: a free worker claims the most urgent non-empty lane
    /// at once, and a batch is whatever queued while the workers were busy,
    /// so batches grow with load by themselves.
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.config.max_batch = max_batch;
        self
    }

    /// Admission-control bound on each lane's queue depth (minimum 1). A
    /// push into a full lane triggers the configured
    /// [`shed_policy`](Self::shed_policy).
    pub fn lane_capacity(mut self, capacity: usize) -> Self {
        self.config.lane_capacity = capacity.max(1);
        self
    }

    /// What to do with a request whose lane is full (default:
    /// [`ShedPolicy::Downgrade`]).
    pub fn shed_policy(mut self, policy: ShedPolicy) -> Self {
        self.config.shed_policy = policy;
        self
    }

    /// Inference-side configuration (prune threshold, device model, start
    /// subnet). The device model is required by
    /// [`Server::new`](crate::Server::new) — it is what turns a request's
    /// microsecond budget into a MAC budget.
    pub fn session(mut self, session: SessionConfig) -> Self {
        self.config.session = session;
        self
    }

    /// Writes a metrics snapshot (one JSON line) to `path` every
    /// [`metrics_interval`](Self::metrics_interval) while the server runs,
    /// plus a final line at shutdown — a `.jsonl` stream (say
    /// `metrics.jsonl`) read by `stepping-metrics-report`. Only takes effect when
    /// metric recording is live (the `metrics` feature); otherwise the
    /// writer is not spawned at all.
    pub fn metrics_snapshot(mut self, path: impl Into<PathBuf>) -> Self {
        self.config.metrics_snapshot = Some(path.into());
        self
    }

    /// Interval between background metrics snapshots (default 500 ms).
    pub fn metrics_interval(mut self, interval: Duration) -> Self {
        self.config.metrics_interval = interval;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> ServeConfig {
        self.config
    }
}

impl ServeConfig {
    /// Starts a builder with the defaults above.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder::default()
    }

    /// Configured worker count.
    pub fn get_workers(&self) -> usize {
        self.workers
    }

    /// Configured batch-size limit.
    pub fn get_max_batch(&self) -> usize {
        self.max_batch
    }

    /// Configured per-lane admission bound.
    pub fn get_lane_capacity(&self) -> usize {
        self.lane_capacity
    }

    /// Configured full-lane policy.
    pub fn get_shed_policy(&self) -> ShedPolicy {
        self.shed_policy
    }

    /// Configured inference-side session configuration.
    pub fn get_session(&self) -> &SessionConfig {
        &self.session
    }

    /// Configured metrics snapshot path, if any.
    pub fn get_metrics_snapshot(&self) -> Option<&std::path::Path> {
        self.metrics_snapshot.as_deref()
    }

    /// Configured metrics snapshot interval.
    pub fn get_metrics_interval(&self) -> Duration {
        self.metrics_interval
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_reaches_every_knob() {
        let built = ServeConfig::builder()
            .workers(4)
            .max_batch(16)
            .lane_capacity(32)
            .shed_policy(ShedPolicy::Reject)
            .build();
        assert_eq!(built.get_workers(), 4);
        assert_eq!(built.get_max_batch(), 16);
        assert_eq!(built.get_lane_capacity(), 32);
        assert_eq!(built.get_shed_policy(), ShedPolicy::Reject);

        // untouched knobs keep the documented defaults
        let defaults = ServeConfig::builder().build();
        assert_eq!(defaults.get_workers(), 2);
        assert_eq!(defaults.get_max_batch(), 8);
        assert_eq!(defaults.get_lane_capacity(), 64);
        assert_eq!(defaults.get_shed_policy(), ShedPolicy::Downgrade);
    }

    #[test]
    fn lane_capacity_floors_at_one() {
        let config = ServeConfig::builder().lane_capacity(0).build();
        assert_eq!(config.get_lane_capacity(), 1);
    }
}

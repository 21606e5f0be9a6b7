//! The server's always-on production metric handles.
//!
//! All series live in the process-wide
//! [`MetricsRegistry::global`](stepping_metrics::MetricsRegistry::global)
//! registry (so benches and operators can snapshot one place) and are
//! registered once at [`Server::new`](crate::Server::new) — the hot path
//! only touches pre-resolved `Arc` handles. Names come from
//! `stepping_core::events::metric`, the only values `register_*` accept.
//!
//! Series layout:
//!
//! * per-worker — `serve.lock_wait_ns{worker="N"}` and
//!   `serve.worker_busy_ns{worker="N"}` (utilization);
//! * per batch key — `serve.batch_occupancy{key="begin_K"}` for initial
//!   runs of subnet `K`, `{key="up_F"}` for upgrades from level `F`;
//! * unlabeled — admission/queue/forward/reply phases, the claimed-lane
//!   depth histogram, and the admitted/completed/deadline-miss/cache-hit/
//!   degraded/shed/rejected counters.
//!
//! With sharded lanes, `serve.lock_wait_ns` measures the *lane* lock a
//! worker claims a batch under (pushes to other lanes no longer contend),
//! and the admission-control counters split refused traffic by fate:
//! `serve.degraded` (admitted at a smaller subnet), `serve.shed` (upgrade
//! answered from cache), `serve.rejected` (typed error to the caller).

use std::sync::Arc;

use stepping_core::events::metric;
use stepping_metrics::{Gauge, LogHistogram, MetricsRegistry, ShardedCounter};

use crate::lane::BatchKey;

/// Handles for one worker's series.
#[derive(Debug)]
pub(crate) struct WorkerMetrics {
    /// Time spent acquiring the queue lock (`serve.lock_wait_ns`).
    pub lock_wait_ns: Arc<LogHistogram>,
    /// Nanoseconds spent executing batches (`serve.worker_busy_ns`).
    pub busy_ns: Arc<ShardedCounter>,
}

/// All metric handles the serving engine records into.
#[derive(Debug)]
pub(crate) struct ServeMetrics {
    /// Requests accepted (submit + upgrade, including cache hits).
    pub admitted: Arc<ShardedCounter>,
    /// Requests answered (replies sent, including cache hits).
    pub completed: Arc<ShardedCounter>,
    /// Admission bookkeeping latency (resolve target + enqueue).
    pub admission_ns: Arc<LogHistogram>,
    /// Jobs in the batch queue right now.
    pub queue_depth: Arc<Gauge>,
    /// Queue depth as seen by workers at batch extraction.
    pub queue_depth_sampled: Arc<LogHistogram>,
    /// Per-job enqueue → extraction wait.
    pub queue_wait_ns: Arc<LogHistogram>,
    /// Oldest job's age when a worker claimed its batch (batch-formation
    /// time).
    pub batch_form_ns: Arc<LogHistogram>,
    /// Packed forward pass per batch.
    pub forward_ns: Arc<LogHistogram>,
    /// Reply delivery per batch.
    pub reply_ns: Arc<LogHistogram>,
    /// Responses whose modeled cost blew the request budget.
    pub deadline_miss: Arc<ShardedCounter>,
    /// Upgrades answered synchronously from cache.
    pub cache_hit: Arc<ShardedCounter>,
    /// Depth of the claimed lane at each batch extraction.
    pub lane_depth: Arc<LogHistogram>,
    /// Requests admitted below their requested subnet (downgrades).
    pub degraded: Arc<ShardedCounter>,
    /// Upgrades shed to their session cache by full lanes.
    pub shed: Arc<ShardedCounter>,
    /// Requests refused outright by admission control.
    pub rejected: Arc<ShardedCounter>,
    /// Per-worker series, indexed by worker id.
    workers: Vec<WorkerMetrics>,
    /// `serve.batch_occupancy{key="begin_K"}`, indexed by subnet.
    begin_occupancy: Vec<Arc<LogHistogram>>,
    /// `serve.batch_occupancy{key="up_F"}`, indexed by level.
    upgrade_occupancy: Vec<Arc<LogHistogram>>,
}

impl ServeMetrics {
    /// Registers every series the server records: `workers` worker series
    /// and occupancy series for all `subnets` begin keys plus the upgrade
    /// keys of every level but the top. Idempotent — re-registration
    /// returns the existing handles, so several servers in one process
    /// share the series.
    pub fn new(registry: &MetricsRegistry, workers: usize, subnets: usize) -> Self {
        let workers = (0..workers.max(1))
            .map(|w| WorkerMetrics {
                lock_wait_ns: registry.register_histogram_labeled(
                    metric::SERVE_LOCK_WAIT_NS,
                    "worker",
                    w.to_string(),
                ),
                busy_ns: registry.register_counter_labeled(
                    metric::SERVE_WORKER_BUSY_NS,
                    "worker",
                    w.to_string(),
                ),
            })
            .collect();
        let occupancy = |key: String| {
            registry.register_histogram_labeled(metric::SERVE_BATCH_OCCUPANCY, "key", key)
        };
        let begin_occupancy = (0..subnets)
            .map(|k| occupancy(format!("begin_{k}")))
            .collect();
        let upgrade_occupancy = (0..subnets.saturating_sub(1))
            .map(|from| occupancy(format!("up_{from}")))
            .collect();
        ServeMetrics {
            admitted: registry.register_counter(metric::SERVE_ADMITTED),
            completed: registry.register_counter(metric::SERVE_COMPLETED),
            admission_ns: registry.register_histogram(metric::SERVE_ADMISSION_NS),
            queue_depth: registry.register_gauge(metric::SERVE_QUEUE_DEPTH),
            queue_depth_sampled: registry.register_histogram(metric::SERVE_QUEUE_DEPTH_SAMPLED),
            queue_wait_ns: registry.register_histogram(metric::SERVE_QUEUE_WAIT_NS),
            batch_form_ns: registry.register_histogram(metric::SERVE_BATCH_FORM_NS),
            forward_ns: registry.register_histogram(metric::SERVE_FORWARD_NS),
            reply_ns: registry.register_histogram(metric::SERVE_REPLY_NS),
            deadline_miss: registry.register_counter(metric::SERVE_DEADLINE_MISS),
            cache_hit: registry.register_counter(metric::SERVE_CACHE_HIT),
            lane_depth: registry.register_histogram(metric::SERVE_LANE_DEPTH),
            degraded: registry.register_counter(metric::SERVE_DEGRADED),
            shed: registry.register_counter(metric::SERVE_SHED),
            rejected: registry.register_counter(metric::SERVE_REJECTED),
            workers,
            begin_occupancy,
            upgrade_occupancy,
        }
    }

    /// The series of worker `index` (wraps for safety; worker ids are
    /// assigned 0..workers at spawn).
    pub fn worker(&self, index: usize) -> &WorkerMetrics {
        &self.workers[index % self.workers.len()]
    }

    /// The occupancy histogram of one batch key, if its series was
    /// registered (out-of-range keys cannot occur for jobs the server
    /// itself admitted).
    pub fn occupancy(&self, key: BatchKey) -> Option<&Arc<LogHistogram>> {
        match key {
            BatchKey::Begin { subnet } => self.begin_occupancy.get(subnet),
            BatchKey::Upgrade { from } => self.upgrade_occupancy.get(from),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_series_registers_cleanly() {
        let registry = MetricsRegistry::new();
        let m = ServeMetrics::new(&registry, 3, 2);
        assert!(m.occupancy(BatchKey::Begin { subnet: 1 }).is_some());
        assert!(m.occupancy(BatchKey::Upgrade { from: 0 }).is_some());
        assert!(m.occupancy(BatchKey::Upgrade { from: 1 }).is_none());
        assert!(m.occupancy(BatchKey::Begin { subnet: 9 }).is_none());
        // worker lookup wraps rather than indexing out of bounds
        let _ = m.worker(7);
        let snap = registry.snapshot();
        let series: Vec<&str> = snap.hists.iter().map(|(n, _)| n.as_str()).collect();
        assert!(series.contains(&"serve.lock_wait_ns{worker=\"2\"}"));
        assert!(series.contains(&"serve.batch_occupancy{key=\"up_0\"}"));
        assert!(series.contains(&"serve.lane_depth"));
    }
}

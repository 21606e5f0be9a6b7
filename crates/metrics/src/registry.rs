//! The central metric registry: named handles, label series, snapshots.
//!
//! Registration is the cold path — it takes a `RwLock` write once per
//! metric at startup and hands back an `Arc` handle; every record after
//! that touches only the handle's atomics. A process-wide
//! [`MetricsRegistry::global`] registry serves code with no natural place
//! to thread a handle through (the exec pool, the plan cache); servers and
//! tests may also build private registries.
//!
//! Metric *names* are the [`Metric`] consts of [`crate::metric`]:
//! `register_*` take nothing else, so an unregistered name cannot split a
//! series.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};
use std::time::Instant;

use crate::counter::{Gauge, ShardedCounter};
use crate::hist::LogHistogram;
use crate::metric::Metric;
use crate::snapshot::Snapshot;

/// Identity of one metric series: a registered name plus an optional
/// `key="value"` label distinguishing series (per worker, per batch key).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricKey {
    /// Registered base name, e.g. `serve.lock_wait_ns`.
    pub name: Metric,
    /// Optional series label, e.g. `("worker", "3")`.
    pub label: Option<(&'static str, String)>,
}

impl MetricKey {
    /// Renders the key as `name` or `name{key="value"}` — the form used in
    /// snapshots and parsed back by the report CLI.
    pub fn render(&self) -> String {
        match &self.label {
            None => self.name.as_str().to_string(),
            Some((k, v)) => format!("{}{{{}=\"{}\"}}", self.name.as_str(), k, v),
        }
    }
}

#[derive(Debug, Default)]
struct Tables {
    counters: Vec<(MetricKey, Arc<ShardedCounter>)>,
    gauges: Vec<(MetricKey, Arc<Gauge>)>,
    hists: Vec<(MetricKey, Arc<LogHistogram>)>,
}

/// The central registry of named metrics.
#[derive(Debug)]
pub struct MetricsRegistry {
    tables: RwLock<Tables>,
    start: Instant,
    seq: AtomicU64,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            tables: RwLock::new(Tables::default()),
            start: Instant::now(),
            seq: AtomicU64::new(0),
        }
    }
}

static GLOBAL: OnceLock<Arc<MetricsRegistry>> = OnceLock::new();

impl MetricsRegistry {
    /// A fresh private registry (tests, isolated servers).
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide registry shared by the exec pool, the plan cache,
    /// and the serving engine.
    pub fn global() -> Arc<MetricsRegistry> {
        Arc::clone(GLOBAL.get_or_init(|| Arc::new(MetricsRegistry::new())))
    }

    fn tables_read(&self) -> std::sync::RwLockReadGuard<'_, Tables> {
        self.tables.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn tables_write(&self) -> std::sync::RwLockWriteGuard<'_, Tables> {
        self.tables.write().unwrap_or_else(PoisonError::into_inner)
    }

    fn register<T: Default>(
        &self,
        table: impl Fn(&mut Tables) -> &mut Vec<(MetricKey, Arc<T>)>,
        key: MetricKey,
    ) -> Arc<T> {
        let mut tables = self.tables_write();
        let entries = table(&mut tables);
        if let Some((_, existing)) = entries.iter().find(|(k, _)| *k == key) {
            return Arc::clone(existing);
        }
        let handle = Arc::new(T::default());
        entries.push((key, Arc::clone(&handle)));
        handle
    }

    /// Registers (or retrieves) the unlabeled counter `name`.
    pub fn register_counter(&self, name: Metric) -> Arc<ShardedCounter> {
        self.register(|t| &mut t.counters, MetricKey { name, label: None })
    }

    /// Registers (or retrieves) the counter series `name{key="value"}`.
    pub fn register_counter_labeled(
        &self,
        name: Metric,
        key: &'static str,
        value: impl Into<String>,
    ) -> Arc<ShardedCounter> {
        self.register(
            |t| &mut t.counters,
            MetricKey {
                name,
                label: Some((key, value.into())),
            },
        )
    }

    /// Registers (or retrieves) the unlabeled gauge `name`.
    pub fn register_gauge(&self, name: Metric) -> Arc<Gauge> {
        self.register(|t| &mut t.gauges, MetricKey { name, label: None })
    }

    /// Registers (or retrieves) the gauge series `name{key="value"}`.
    pub fn register_gauge_labeled(
        &self,
        name: Metric,
        key: &'static str,
        value: impl Into<String>,
    ) -> Arc<Gauge> {
        self.register(
            |t| &mut t.gauges,
            MetricKey {
                name,
                label: Some((key, value.into())),
            },
        )
    }

    /// Registers (or retrieves) the unlabeled histogram `name`.
    pub fn register_histogram(&self, name: Metric) -> Arc<LogHistogram> {
        self.register(|t| &mut t.hists, MetricKey { name, label: None })
    }

    /// Registers (or retrieves) the histogram series `name{key="value"}`.
    pub fn register_histogram_labeled(
        &self,
        name: Metric,
        key: &'static str,
        value: impl Into<String>,
    ) -> Arc<LogHistogram> {
        self.register(
            |t| &mut t.hists,
            MetricKey {
                name,
                label: Some((key, value.into())),
            },
        )
    }

    /// Monotonic nanoseconds since the registry was created.
    pub fn uptime_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Point-in-time snapshot of every registered metric, sorted by
    /// rendered name for deterministic output. Empty (but well-formed) when
    /// metrics are compiled out.
    pub fn snapshot(&self) -> Snapshot {
        let tables = self.tables_read();
        let mut snap = Snapshot {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            uptime_ns: self.uptime_ns(),
            ..Snapshot::default()
        };
        for (key, c) in &tables.counters {
            snap.counters.push((key.render(), c.value()));
        }
        for (key, g) in &tables.gauges {
            snap.gauges.push((key.render(), g.value()));
        }
        for (key, h) in &tables.hists {
            snap.hists.push((key.render(), h.snapshot()));
        }
        snap.counters.sort_by(|a, b| a.0.cmp(&b.0));
        snap.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        snap.hists.sort_by(|a, b| a.0.cmp(&b.0));
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric;

    #[test]
    fn registration_is_idempotent() {
        let r = MetricsRegistry::new();
        let a = r.register_counter(metric::SERVE_CACHE_HIT);
        let b = r.register_counter(metric::SERVE_CACHE_HIT);
        assert!(Arc::ptr_eq(&a, &b));
        let h1 = r.register_histogram_labeled(metric::SERVE_LOCK_WAIT_NS, "worker", "0");
        let h2 = r.register_histogram_labeled(metric::SERVE_LOCK_WAIT_NS, "worker", "0");
        let h3 = r.register_histogram_labeled(metric::SERVE_LOCK_WAIT_NS, "worker", "1");
        assert!(Arc::ptr_eq(&h1, &h2));
        assert!(!Arc::ptr_eq(&h1, &h3));
    }

    #[test]
    fn snapshot_is_sorted_and_sequenced() {
        let r = MetricsRegistry::new();
        let _ = r.register_counter(metric::SERVE_SHED);
        let _ = r.register_counter(metric::EXEC_DISPATCH_NS);
        let s0 = r.snapshot();
        let s1 = r.snapshot();
        assert_eq!(s0.seq + 1, s1.seq);
        let names: Vec<&str> = s0.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["exec.dispatch_ns", "serve.shed"]);
    }
}

//! Sharded per-[`BatchKey`] batch lanes with earliest-deadline-first
//! scheduling — the replacement for the single `Mutex`/`Condvar` job queue.
//!
//! PR 7's lock-wait histograms showed every worker serializing on one
//! queue mutex, inverting the worker sweep (throughput *fell* as workers
//! rose). Here each batch key — one batched pass the engine can run —
//! owns a *lane*: its own bounded [`VecDeque`] behind its own lock, plus
//! lock-free scheduling hints (depth, oldest enqueue, earliest deadline)
//! published as atomics. Workers scan the hints without taking any lock,
//! pick the most urgent *ready* lane, and claim a whole batch from it
//! under that lane's lock alone — pushes to other lanes proceed in
//! parallel, and two workers only contend when they race for the same
//! lane.
//!
//! **Readiness** keeps the old flush policy per lane: a lane is ready
//! when it holds `max_batch` jobs, when its oldest job has waited
//! `max_wait`, or when the set is draining for shutdown. **Urgency**
//! among ready lanes is earliest-deadline-first: lanes are ordered by
//! `(earliest_deadline, oldest_enqueue, index)`, so a budget-carrying
//! request whose deadline has expired is always served before any
//! later-deadline batch ([`select_lane`] is pure and property-tested for
//! exactly that). Deadline-less lanes sort last and fall back to
//! oldest-first among themselves.
//!
//! **Work stealing** keeps a single hot lane from serializing the pool
//! under skewed traffic: when the scan finds exactly one ready lane and it
//! is a *mega-lane* (depth ≥ `2 * max_batch`, so one claim cannot empty
//! it — [`splittable`]), a worker that loses the claim race takes the
//! remaining tail as a partial batch instead of sleeping on the flush
//! timer. Balanced traffic never triggers it, so batch quality elsewhere
//! is untouched.
//!
//! **Sleeping** uses an eventcount-style doorbell: a version word bumped
//! on every push plus a sleeper count, so an idle worker can re-check the
//! hints and go to sleep without a lost-wakeup window, and a push only
//! touches the doorbell mutex when somebody is actually asleep.
//!
//! **Shutdown** is two-phase: the `shutting_down` flag stops admissions,
//! a lock barrier over every lane guarantees no push that saw the flag
//! clear is still in flight, and only then is the set `sealed` — workers
//! exit once the set is sealed and every lane scans empty, so no accepted
//! job can be lost.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use stepping_core::batch::ActivationCache;
use stepping_core::Result;
use stepping_metrics::{elapsed_ns, start_timer};
use stepping_tensor::Tensor;

use crate::metrics::ServeMetrics;
use crate::request::Response;

/// Sentinel for "no instant": the hint value of an empty lane and of jobs
/// without a deadline. Sorts after every real nanosecond offset.
const NONE_NS: u64 = u64::MAX;

/// The batched pass a job needs — the batching compatibility key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BatchKey {
    /// Full run of `subnet` from the input.
    Begin {
        /// Target subnet.
        subnet: usize,
    },
    /// Incremental expansion of cached activations.
    Upgrade {
        /// Level the caches currently sit at.
        from: usize,
        /// Level to reach.
        to: usize,
    },
}

/// Work payload of a job.
#[derive(Debug)]
pub(crate) enum Work {
    Begin {
        input: Tensor,
        subnet: usize,
    },
    Upgrade {
        session: u64,
        cache: ActivationCache,
        /// Level the cache sits at when the job is queued (the session's
        /// `last_subnet`); recorded here so batching never has to re-derive
        /// it from the cache.
        from: usize,
        target: usize,
    },
}

/// One queued request with its reply channel and bookkeeping.
#[derive(Debug)]
pub(crate) struct Job {
    pub id: u64,
    pub work: Work,
    /// Subnet (begin) or level (upgrade) admission originally resolved for
    /// the client, *before* any load-shedding downgrade — what the
    /// response's `Outcome::Degraded { requested, .. }` reports.
    pub requested: usize,
    /// Budget the target subnet was chosen against, if deadline-driven.
    pub budget_us: Option<f64>,
    /// Absolute deadline (`submitted + budget_us`) driving EDF lane
    /// ordering; `None` for exact-subnet and full requests.
    pub deadline: Option<Instant>,
    pub submitted: Instant,
    pub reply: mpsc::Sender<Result<Response>>,
}

impl Job {
    pub fn key(&self) -> BatchKey {
        match &self.work {
            Work::Begin { subnet, .. } => BatchKey::Begin { subnet: *subnet },
            Work::Upgrade { from, target, .. } => BatchKey::Upgrade {
                from: *from,
                to: *target,
            },
        }
    }
}

/// Why [`LaneSet::push`] refused a job; the job is handed back (boxed, so
/// the happy-path `Result` stays small) and the caller can downgrade it,
/// shed it, or recover its payload (an upgrade's activation cache).
#[derive(Debug)]
pub(crate) enum Refused {
    /// The target lane is at its admission-control capacity.
    Full {
        job: Box<Job>,
        /// Lane depth observed under the lane lock.
        depth: usize,
        /// The configured per-lane capacity.
        capacity: usize,
    },
    /// The lane set is draining for shutdown.
    Draining(Box<Job>),
}

/// One lane: the bounded queue of one batch key plus its lock-free
/// scheduling hints. The hints are advisory — they are recomputed under
/// the lane lock on every mutation, and a claim re-validates readiness
/// under the lock before draining anything — so a stale scan can cost a
/// wasted lock acquisition but never a wrong batch.
#[derive(Debug)]
struct Lane {
    key: BatchKey,
    queue: Mutex<VecDeque<Job>>,
    /// Jobs queued (hint; exact under the lane lock).
    depth: AtomicUsize,
    /// Enqueue time of the front job, ns since the set's epoch.
    oldest_ns: AtomicU64,
    /// Earliest deadline among queued jobs, ns since the set's epoch.
    earliest_deadline_ns: AtomicU64,
}

impl Lane {
    fn new(key: BatchKey) -> Self {
        Lane {
            key,
            queue: Mutex::new(VecDeque::new()),
            depth: AtomicUsize::new(0),
            oldest_ns: AtomicU64::new(NONE_NS),
            earliest_deadline_ns: AtomicU64::new(NONE_NS),
        }
    }

    fn view(&self) -> LaneView {
        LaneView {
            depth: self.depth.load(Ordering::SeqCst),
            oldest_ns: self.oldest_ns.load(Ordering::SeqCst),
            earliest_deadline_ns: self.earliest_deadline_ns.load(Ordering::SeqCst),
        }
    }

    /// Publishes recomputed hints (callers hold the lane lock).
    fn publish(&self, view: LaneView) {
        self.depth.store(view.depth, Ordering::SeqCst);
        self.oldest_ns.store(view.oldest_ns, Ordering::SeqCst);
        self.earliest_deadline_ns
            .store(view.earliest_deadline_ns, Ordering::SeqCst);
    }
}

/// A lock-free snapshot of one lane's scheduling hints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LaneView {
    /// Jobs queued.
    pub depth: usize,
    /// Enqueue instant of the oldest job (ns since epoch; [`NONE_NS`] when
    /// empty).
    pub oldest_ns: u64,
    /// Earliest job deadline (ns since epoch; [`NONE_NS`] when no queued
    /// job carries one).
    pub earliest_deadline_ns: u64,
}

impl LaneView {
    /// The instant this lane becomes ready by time alone: its flush timer
    /// (`oldest + max_wait`) or its earliest deadline, whichever first.
    fn due_ns(&self, max_wait_ns: u64) -> u64 {
        self.oldest_ns
            .saturating_add(max_wait_ns)
            .min(self.earliest_deadline_ns)
    }
}

/// Whether the chosen lane is a splittable *mega-lane*: it is the only
/// ready lane in the scan and holds at least `2 * max_batch` jobs, so one
/// claim cannot empty it. A worker that loses the claim race on such a
/// lane may take the remaining tail as a partial batch instead of going
/// back to sleep on the flush timer — under skewed traffic a single hot
/// batch key would otherwise serialize the replica: the tail below
/// `max_batch` sits out `max_wait` while every other worker idles. Pure,
/// like [`select_lane`], so tests can drive it directly.
pub(crate) fn splittable(
    views: &[LaneView],
    chosen: usize,
    now_ns: u64,
    max_batch: usize,
    max_wait_ns: u64,
    draining: bool,
) -> bool {
    views[chosen].depth >= max_batch.saturating_mul(2)
        && views.iter().enumerate().all(|(index, view)| {
            index == chosen
                || view.depth == 0
                || !(draining || view.depth >= max_batch || now_ns >= view.due_ns(max_wait_ns))
        })
}

/// The scheduling decision over a hint scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Pick {
    /// Index of the most urgent ready lane, if any lane is ready.
    pub lane: Option<usize>,
    /// When no lane is ready: the earliest future instant (ns since epoch)
    /// at which a pending lane's timer or deadline fires; [`NONE_NS`] if
    /// every lane is empty.
    pub next_due_ns: u64,
}

/// Pure EDF lane selection over a snapshot of lane hints.
///
/// A lane is **ready** when it is full (`depth >= max_batch`), its oldest
/// job has waited out `max_wait_ns`, its earliest deadline has passed, or
/// the set is `draining`. Among ready lanes the most urgent is the
/// smallest `(earliest_deadline_ns, oldest_ns, index)` — strict EDF with
/// oldest-first tiebreak, so an expired earlier deadline is always served
/// before any later-deadline batch, and deadline-less lanes (deadline =
/// [`NONE_NS`]) are served oldest-first after every deadline-carrying
/// lane. Pure so the property test can drive it directly.
pub(crate) fn select_lane(
    views: &[LaneView],
    now_ns: u64,
    max_batch: usize,
    max_wait_ns: u64,
    draining: bool,
) -> Pick {
    let mut best: Option<(u64, u64, usize)> = None;
    let mut next_due_ns = NONE_NS;
    for (index, view) in views.iter().enumerate() {
        if view.depth == 0 {
            continue;
        }
        let due = view.due_ns(max_wait_ns);
        if draining || view.depth >= max_batch || now_ns >= due {
            let candidate = (view.earliest_deadline_ns, view.oldest_ns, index);
            if best.is_none_or(|b| candidate < b) {
                best = Some(candidate);
            }
        } else {
            next_due_ns = next_due_ns.min(due);
        }
    }
    Pick {
        lane: best.map(|(_, _, index)| index),
        next_due_ns,
    }
}

/// Eventcount-style doorbell: wakes hint-scanning workers without a lock
/// on the push fast path.
///
/// The protocol closes the lost-wakeup window: a worker reads
/// [`version`](Doorbell::version) *before* scanning, and
/// [`sleep`](Doorbell::sleep) registers as a sleeper under the doorbell
/// mutex and re-checks the version before waiting — so a push that lands
/// between scan and sleep either bumps the version first (the sleeper
/// sees it and returns immediately) or sees `sleepers > 0` and notifies.
#[derive(Debug, Default)]
struct Doorbell {
    version: AtomicU64,
    sleepers: AtomicUsize,
    mutex: Mutex<()>,
    bell: Condvar,
}

impl Doorbell {
    fn version(&self) -> u64 {
        self.version.load(Ordering::SeqCst)
    }

    /// Signals that lane state changed; wakes sleepers if there are any.
    fn ring(&self) {
        self.version.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            // lock/unlock pairs with the sleeper's registration so the
            // notify cannot land between its version check and its wait
            drop(lock(&self.mutex));
            self.bell.notify_all();
        }
    }

    /// Like [`ring`](Self::ring) but always notifies (shutdown path).
    fn ring_all(&self) {
        self.version.fetch_add(1, Ordering::SeqCst);
        drop(lock(&self.mutex));
        self.bell.notify_all();
    }

    /// Sleeps until the version moves past `seen` or `timeout` elapses
    /// (forever on `None`). Returns immediately if it already moved.
    fn sleep(&self, seen: u64, timeout: Option<Duration>) {
        let guard = lock(&self.mutex);
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        if self.version.load(Ordering::SeqCst) == seen {
            match timeout {
                Some(t) => {
                    let _guard = self
                        .bell
                        .wait_timeout(guard, t)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                None => {
                    let _guard = self
                        .bell
                        .wait(guard)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Duration → ns with the sentinel for overflow.
fn dur_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(NONE_NS)
}

/// The sharded batch-forming structure shared by admission and workers.
#[derive(Debug)]
pub(crate) struct LaneSet {
    /// Lanes in key order: `Begin { 0..n }` then `Upgrade { from, to }`
    /// for every `from < to` pair, grouped by `from` ([`Self::index`]).
    lanes: Vec<Lane>,
    subnets: usize,
    max_batch: usize,
    max_wait: Duration,
    /// Admission-control bound on each lane's depth.
    capacity: usize,
    /// All lane hints are ns offsets from this instant.
    epoch: Instant,
    /// Phase 1 of shutdown: admissions refuse, timers are overridden.
    shutting_down: AtomicBool,
    /// Phase 2: every in-flight push has completed; workers may exit on an
    /// all-empty scan.
    sealed: AtomicBool,
    doorbell: Doorbell,
    metrics: Arc<ServeMetrics>,
}

impl LaneSet {
    pub fn new(
        subnets: usize,
        max_batch: usize,
        max_wait: Duration,
        capacity: usize,
        metrics: Arc<ServeMetrics>,
    ) -> Self {
        let mut lanes = Vec::new();
        for subnet in 0..subnets {
            lanes.push(Lane::new(BatchKey::Begin { subnet }));
        }
        for from in 0..subnets {
            for to in from + 1..subnets {
                lanes.push(Lane::new(BatchKey::Upgrade { from, to }));
            }
        }
        LaneSet {
            lanes,
            subnets,
            max_batch,
            max_wait,
            capacity: capacity.max(1),
            epoch: Instant::now(),
            shutting_down: AtomicBool::new(false),
            sealed: AtomicBool::new(false),
            doorbell: Doorbell::default(),
            metrics,
        }
    }

    /// Number of lanes (`n` begin + `n(n-1)/2` upgrade edges).
    #[cfg(test)]
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Maps a key to its lane: begin keys identity-map, upgrade `(f, t)`
    /// lands after all begin lanes at the `f`-grouped triangular offset.
    /// Out-of-range keys (impossible for server-admitted jobs) clamp
    /// instead of indexing out of bounds.
    fn index(&self, key: BatchKey) -> usize {
        let n = self.subnets;
        match key {
            BatchKey::Begin { subnet } => subnet.min(n - 1),
            BatchKey::Upgrade { from, to } => {
                let from = from.min(n.saturating_sub(2));
                let to = to.clamp(from + 1, n.saturating_sub(1).max(from + 1));
                n + from * (2 * n - from - 1) / 2 + (to - from - 1)
            }
        }
    }

    fn now_ns(&self) -> u64 {
        dur_ns(Instant::now().saturating_duration_since(self.epoch))
    }

    fn instant_ns(&self, at: Instant) -> u64 {
        dur_ns(at.saturating_duration_since(self.epoch))
    }

    fn max_wait_ns(&self) -> u64 {
        dur_ns(self.max_wait)
    }

    /// Recomputes a lane's hints from its queue contents (lock held).
    fn recompute(&self, queue: &VecDeque<Job>) -> LaneView {
        LaneView {
            depth: queue.len(),
            oldest_ns: queue
                .front()
                .map_or(NONE_NS, |j| self.instant_ns(j.submitted)),
            earliest_deadline_ns: queue
                .iter()
                .filter_map(|j| j.deadline)
                .map(|d| self.instant_ns(d))
                .min()
                .unwrap_or(NONE_NS),
        }
    }

    /// Total queued jobs across all lanes (hint-sum; approximate).
    fn total_depth(&self) -> usize {
        self.lanes
            .iter()
            .map(|l| l.depth.load(Ordering::SeqCst))
            .sum()
    }

    /// Enqueues a job into its lane; refuses with the job handed back when
    /// the lane is at capacity or the set is draining.
    pub fn push(&self, job: Job) -> std::result::Result<(), Refused> {
        let lane = &self.lanes[self.index(job.key())];
        let mut queue = lock(&lane.queue);
        if self.shutting_down.load(Ordering::SeqCst) {
            drop(queue);
            return Err(Refused::Draining(Box::new(job)));
        }
        if queue.len() >= self.capacity {
            let depth = queue.len();
            drop(queue);
            return Err(Refused::Full {
                job: Box::new(job),
                depth,
                capacity: self.capacity,
            });
        }
        queue.push_back(job);
        lane.publish(self.recompute(&queue));
        drop(queue);
        self.metrics.queue_depth.add(1);
        self.doorbell.ring();
        Ok(())
    }

    /// Blocks until a batch is ready and extracts it; `None` once the set
    /// is sealed *and* every lane is empty (worker should exit). `worker`
    /// attributes the lock-wait measurement to the calling worker's series;
    /// `views` is the worker's own scan buffer, refilled on every scan so
    /// that scanning allocates nothing.
    pub fn take_batch(
        &self,
        worker: usize,
        views: &mut Vec<LaneView>,
    ) -> Option<(BatchKey, Vec<Job>)> {
        loop {
            let version = self.doorbell.version();
            let draining = self.shutting_down.load(Ordering::SeqCst);
            let now_ns = self.now_ns();
            views.clear();
            views.extend(self.lanes.iter().map(Lane::view));
            let pick = select_lane(views, now_ns, self.max_batch, self.max_wait_ns(), draining);
            if let Some(index) = pick.lane {
                // Work stealing: when the pick is the only ready lane and a
                // mega-lane (depth >= 2 * max_batch), a worker that loses
                // the claim race may take whatever tail is left as a
                // partial batch rather than sleeping — one hot batch key
                // must not serialize the whole worker pool.
                let split = splittable(
                    views,
                    index,
                    now_ns,
                    self.max_batch,
                    self.max_wait_ns(),
                    draining,
                );
                if let Some(batch) = self.claim(index, worker, split) {
                    return Some(batch);
                }
                // lost the race for that lane — rescan immediately
                continue;
            }
            if pick.next_due_ns == NONE_NS {
                // all lanes empty: exit if sealed, else sleep for a push
                if self.sealed.load(Ordering::SeqCst) {
                    return None;
                }
                self.doorbell.sleep(version, None);
            } else {
                // nothing ready yet: sleep until the earliest timer fires
                // (floor keeps a clamped now/due race from busy-spinning)
                let wait = pick.next_due_ns.saturating_sub(now_ns).max(1_000);
                self.doorbell
                    .sleep(version, Some(Duration::from_nanos(wait)));
            }
        }
    }

    /// Claims up to `max_batch` jobs from lane `index`, re-validating
    /// readiness under the lane lock (the hint scan raced other workers).
    /// With `allow_partial` — the scan saw a splittable mega-lane — a lane
    /// whose remaining tail fell below readiness is still claimed rather
    /// than left to wait out its flush timer next to an idle worker.
    fn claim(
        &self,
        index: usize,
        worker: usize,
        allow_partial: bool,
    ) -> Option<(BatchKey, Vec<Job>)> {
        let lane = &self.lanes[index];
        // Lock wait is the contended lane-mutex acquisition only; doorbell
        // sleeps are idle time, not contention.
        let lock_timer = start_timer(&self.metrics.worker(worker).lock_wait_ns);
        let mut queue = lock(&lane.queue);
        lock_timer.stop();
        let now_ns = self.now_ns();
        let draining = self.shutting_down.load(Ordering::SeqCst);
        let view = self.recompute(&queue);
        let ready = view.depth > 0
            && (allow_partial
                || draining
                || view.depth >= self.max_batch
                || now_ns >= view.due_ns(self.max_wait_ns()));
        if !ready {
            lane.publish(view);
            drop(queue);
            return None;
        }
        if stepping_metrics::enabled() {
            self.metrics.lane_depth.record(view.depth as u64);
            self.metrics
                .queue_depth_sampled
                .record(self.total_depth() as u64);
            // the oldest job's age at flush = batch formation time
            self.metrics
                .batch_form_ns
                .record(now_ns.saturating_sub(view.oldest_ns));
        }
        let take = view.depth.min(self.max_batch);
        let batch: Vec<Job> = queue.drain(..take).collect();
        let rest = self.recompute(&queue);
        lane.publish(rest);
        drop(queue);
        self.metrics.queue_depth.add(-(batch.len() as i64));
        if stepping_metrics::enabled() {
            for job in &batch {
                self.metrics.queue_wait_ns.record(elapsed_ns(job.submitted));
            }
        }
        if rest.depth > 0 {
            // leftovers may already be ready — wake another worker
            self.doorbell.ring();
        }
        Some((lane.key, batch))
    }

    /// Starts draining: no new jobs are accepted, queued jobs are still
    /// served, and workers are woken so they can observe the flags.
    ///
    /// The lane-lock barrier between the two flags guarantees that every
    /// push which saw `shutting_down == false` has fully enqueued before
    /// the set reads as sealed — a worker's exit scan can therefore never
    /// miss an accepted job.
    pub fn shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        for lane in &self.lanes {
            drop(lock(&lane.queue));
        }
        self.sealed.store(true, Ordering::SeqCst);
        self.doorbell.ring_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ServeMetrics;
    use stepping_metrics::MetricsRegistry;
    use stepping_tensor::{Shape, Tensor};

    fn test_set(subnets: usize, max_batch: usize, max_wait: Duration, capacity: usize) -> LaneSet {
        let registry = MetricsRegistry::new();
        let metrics = Arc::new(ServeMetrics::new(&registry, 1, subnets));
        LaneSet::new(subnets, max_batch, max_wait, capacity, metrics)
    }

    fn begin_job(
        id: u64,
        subnet: usize,
        deadline: Option<Instant>,
    ) -> (Job, mpsc::Receiver<Result<Response>>) {
        let (tx, rx) = mpsc::channel();
        let job = Job {
            id,
            work: Work::Begin {
                input: Tensor::ones(Shape::of(&[1, 2])),
                subnet,
            },
            requested: subnet,
            budget_us: None,
            deadline,
            submitted: Instant::now(),
            reply: tx,
        };
        (job, rx)
    }

    #[test]
    fn lane_indexing_is_a_bijection_over_keys() {
        for n in 1..=6usize {
            let set = test_set(n, 8, Duration::from_micros(100), 64);
            assert_eq!(set.lane_count(), n + n * (n - 1) / 2);
            let mut seen = vec![false; set.lane_count()];
            let mut keys = Vec::new();
            for subnet in 0..n {
                keys.push(BatchKey::Begin { subnet });
            }
            for from in 0..n {
                for to in from + 1..n {
                    keys.push(BatchKey::Upgrade { from, to });
                }
            }
            for key in keys {
                let idx = set.index(key);
                assert!(!seen[idx], "key {key:?} collides at lane {idx} (n={n})");
                seen[idx] = true;
                assert_eq!(set.lanes[idx].key, key, "lane {idx} stores its own key");
            }
            assert!(seen.iter().all(|s| *s), "every lane reachable (n={n})");
        }
    }

    #[test]
    fn push_respects_capacity_and_draining() {
        let set = test_set(2, 8, Duration::from_secs(10), 2);
        let mut rxs = Vec::new();
        for id in 0..2 {
            let (job, rx) = begin_job(id, 0, None);
            assert!(set.push(job).is_ok());
            rxs.push(rx);
        }
        let (job, _rx) = begin_job(2, 0, None);
        match set.push(job) {
            Err(Refused::Full {
                depth,
                capacity,
                job,
            }) => {
                assert_eq!((depth, capacity), (2, 2));
                assert_eq!(job.id, 2, "the refused job is handed back intact");
            }
            other => panic!("expected Full, got {other:?}"),
        }
        // a different lane still has room
        let (job, _rx1) = begin_job(3, 1, None);
        assert!(set.push(job).is_ok());
        set.shutdown();
        let (job, _rx2) = begin_job(4, 1, None);
        assert!(matches!(set.push(job), Err(Refused::Draining(_))));
    }

    #[test]
    fn take_batch_drains_ready_lane_and_exits_after_shutdown() {
        let set = test_set(2, 4, Duration::ZERO, 64); // max_wait 0: always ready
        let mut rxs = Vec::new();
        for id in 0..3 {
            let (job, rx) = begin_job(id, 1, None);
            set.push(job).map_err(|_| "push").unwrap();
            rxs.push(rx);
        }
        let (key, batch) = set.take_batch(0, &mut Vec::new()).expect("a ready batch");
        assert_eq!(key, BatchKey::Begin { subnet: 1 });
        assert_eq!(batch.len(), 3);
        assert!(
            batch.windows(2).all(|w| w[0].id < w[1].id),
            "FIFO within lane"
        );
        set.shutdown();
        assert!(
            set.take_batch(0, &mut Vec::new()).is_none(),
            "sealed and empty: worker exits"
        );
    }

    #[test]
    fn claim_prefers_expired_deadline_over_older_deadline_free_lane() {
        let set = test_set(2, 8, Duration::from_secs(30), 64);
        // lane 0: older, deadline-free; lane 1: younger but expired deadline
        let (mut old, _rx0) = begin_job(0, 0, None);
        old.submitted = Instant::now() - Duration::from_millis(5);
        set.push(old).map_err(|_| "push").unwrap();
        let (fresh, _rx1) = begin_job(1, 1, Some(Instant::now() - Duration::from_millis(1)));
        set.push(fresh).map_err(|_| "push").unwrap();
        let (key, batch) = set
            .take_batch(0, &mut Vec::new())
            .expect("expired lane is ready");
        assert_eq!(
            key,
            BatchKey::Begin { subnet: 1 },
            "EDF picks the expired deadline"
        );
        assert_eq!(batch.len(), 1);
    }

    #[test]
    fn shutdown_flushes_unready_jobs_immediately() {
        let set = test_set(1, 8, Duration::from_secs(3600), 64);
        let (job, _rx) = begin_job(0, 0, None);
        set.push(job).map_err(|_| "push").unwrap();
        set.shutdown();
        // the huge max_wait no longer matters: draining flushes at once
        let (_, batch) = set
            .take_batch(0, &mut Vec::new())
            .expect("draining flushes the lane");
        assert_eq!(batch.len(), 1);
        assert!(set.take_batch(0, &mut Vec::new()).is_none());
    }

    #[test]
    fn partial_claim_steals_mega_lane_tail() {
        // max_wait far in the future: the tail would normally sit until the
        // flush timer. A partial claim (the work-stealing path) takes it
        // immediately.
        let set = test_set(1, 4, Duration::from_secs(3600), 64);
        let mut rxs = Vec::new();
        for id in 0..3 {
            let (job, rx) = begin_job(id, 0, None);
            set.push(job).map_err(|_| "push").unwrap();
            rxs.push(rx);
        }
        assert!(
            set.claim(0, 0, false).is_none(),
            "3 < max_batch and the timer has not fired: not ready"
        );
        let (key, batch) = set.claim(0, 0, true).expect("partial claim");
        assert_eq!(key, BatchKey::Begin { subnet: 0 });
        assert_eq!(batch.len(), 3, "the whole tail is stolen");
        assert!(set.claim(0, 0, true).is_none(), "empty lane never claims");
    }

    #[test]
    fn splittable_requires_single_ready_mega_lane() {
        let mega = LaneView {
            depth: 16,
            oldest_ns: 1_000,
            earliest_deadline_ns: NONE_NS,
        };
        let empty = LaneView {
            depth: 0,
            oldest_ns: NONE_NS,
            earliest_deadline_ns: NONE_NS,
        };
        let pending = LaneView {
            depth: 2,
            oldest_ns: 5_000,
            earliest_deadline_ns: NONE_NS,
        };
        let ready = LaneView {
            depth: 8,
            oldest_ns: 5_000,
            earliest_deadline_ns: NONE_NS,
        };
        let max_batch = 8;
        let max_wait = 100_000;
        // a lone mega-lane splits; empty and unready lanes don't block it
        assert!(splittable(
            &[mega, empty, pending],
            0,
            0,
            max_batch,
            max_wait,
            false
        ));
        // a second *ready* lane means the loser has other work to claim
        assert!(!splittable(
            &[mega, ready],
            0,
            0,
            max_batch,
            max_wait,
            false
        ));
        // depth below 2 * max_batch: one claim empties it, nothing to split
        assert!(!splittable(
            &[ready, empty],
            0,
            0,
            max_batch,
            max_wait,
            false
        ));
        // draining makes every pending lane ready, so nothing splits
        assert!(!splittable(
            &[mega, pending],
            0,
            0,
            max_batch,
            max_wait,
            true
        ));
        // the pending lane's own timer firing makes it ready too
        assert!(!splittable(
            &[mega, pending],
            0,
            200_000,
            max_batch,
            max_wait,
            false
        ));
    }

    #[test]
    fn select_lane_reports_next_due_when_nothing_ready() {
        let views = [
            LaneView {
                depth: 0,
                oldest_ns: NONE_NS,
                earliest_deadline_ns: NONE_NS,
            },
            LaneView {
                depth: 2,
                oldest_ns: 1_000,
                earliest_deadline_ns: 50_000,
            },
            LaneView {
                depth: 1,
                oldest_ns: 2_000,
                earliest_deadline_ns: NONE_NS,
            },
        ];
        // max_wait 100µs, now 3µs: lane 1 due at min(101_000, 50_000),
        // lane 2 due at 102_000 — nothing ready, next wake 50µs
        let pick = select_lane(&views, 3_000, 8, 100_000, false);
        assert_eq!(
            pick,
            Pick {
                lane: None,
                next_due_ns: 50_000
            }
        );
        // at 50µs lane 1's deadline fires
        let pick = select_lane(&views, 50_000, 8, 100_000, false);
        assert_eq!(pick.lane, Some(1));
        // a full lane is ready regardless of time
        let pick = select_lane(&views, 0, 2, 100_000, false);
        assert_eq!(pick.lane, Some(1));
        // draining makes everything ready; EDF still orders the two
        let pick = select_lane(&views, 0, 8, 100_000, true);
        assert_eq!(pick.lane, Some(1), "lane 1 carries the only deadline");
    }

    mod edf_property {
        use super::super::{select_lane, LaneView, NONE_NS};
        use proptest::collection;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

            /// The EDF satellite property, driven directly on the pure
            /// selector: whenever two lanes are both ready and one's
            /// deadline has expired while the other's lies strictly later,
            /// the expired lane wins — a later-deadline batch is never
            /// served before an expired earlier one.
            #[test]
            fn edf_never_serves_later_deadline_before_expired_earlier(
                max_batch in 1usize..=8,
                max_wait_ns in 0u64..=200_000,
                now_ns in 100_000u64..=10_000_000,
                draining_bit in 0u8..=1,
                // (depth, oldest_ns, deadline tag, deadline): tag 0 means
                // deadline-free; deadlines range from long expired to far
                // past `now`
                raw in collection::vec(
                    (0usize..=12, 0u64..=10_000_000, 0u8..=3, 0u64..=20_000_000),
                    2..=12,
                ),
            ) {
                let draining = draining_bit == 1;
                let views: Vec<LaneView> = raw
                    .iter()
                    .map(|&(depth, oldest_ns, tag, dl)| LaneView {
                        depth,
                        oldest_ns,
                        earliest_deadline_ns: if tag == 0 { NONE_NS } else { dl },
                    })
                    .collect();
                let pick = select_lane(&views, now_ns, max_batch, max_wait_ns, draining);
                let ready = |v: &LaneView| {
                    v.depth > 0
                        && (draining
                            || v.depth >= max_batch
                            || now_ns >= v.due_ns(max_wait_ns))
                };
                match pick.lane {
                    Some(chosen) => {
                        let c = &views[chosen];
                        prop_assert!(ready(c), "chosen lane must be ready: {c:?}");
                        for (i, v) in views.iter().enumerate() {
                            if i == chosen || !ready(v) {
                                continue;
                            }
                            // an expired earlier deadline beats every
                            // strictly later deadline among ready lanes
                            prop_assert!(
                                !(v.earliest_deadline_ns <= now_ns
                                    && v.earliest_deadline_ns < c.earliest_deadline_ns),
                                "lane {} ({:?}) has an expired earlier deadline than \
                                 chosen lane {} ({:?}) at now={}",
                                i, v, chosen, c, now_ns
                            );
                        }
                    }
                    None => {
                        for v in &views {
                            prop_assert!(!ready(v), "no pick but lane ready: {v:?}");
                        }
                    }
                }
            }
        }
    }
}

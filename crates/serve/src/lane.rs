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
//! **Readiness** is work-conserving: a lane is ready as soon as it is
//! non-empty, so a free worker takes the most urgent one *now* and a batch
//! is whatever queued while the workers were busy (capped at `max_batch`) —
//! batches grow with load and vanish when idle. With the default zero
//! `max_wait` the scan reads no clock and no worker ever takes a timed
//! sleep. `max_wait` is an opt-in *linger*: when set, a lane below
//! `max_batch` is held until its oldest job has waited that long or its
//! earliest deadline passes (or the set drains for shutdown), and only
//! then do the timer arithmetic ([`LaneView::due_ns`]), the timed sleep
//! and the mega-lane split below run. **Urgency** among ready lanes is
//! earliest-deadline-first: lanes are ordered by
//! `(earliest_deadline, oldest_enqueue, index)`, so a budget-carrying
//! request whose deadline has expired is always served before any
//! later-deadline batch ([`select_lane`] is pure and property-tested for
//! exactly that). Deadline-less lanes sort last and fall back to
//! oldest-first among themselves.
//!
//! **Work stealing** (linger only) keeps a single hot lane from
//! serializing the pool under skewed traffic: when the scan finds exactly
//! one ready lane and it is a *mega-lane* (depth ≥ `2 * max_batch`, so one
//! claim cannot empty it — [`splittable`]), a worker that loses the claim
//! race takes the remaining tail as a partial batch instead of sleeping on
//! the linger timer. Without a linger every non-empty tail is claimable
//! anyway and the question is never asked.
//!
//! **Sleeping** uses an eventcount-style [`Doorbell`]: a version word
//! bumped on every push plus a count of parked workers, so an idle worker
//! can re-check the hints and park without a lost-wakeup window, and a
//! push only touches the doorbell mutex when it is going to wake somebody.
//! A ring wakes **one** parked worker, not all of them: one push is one
//! batch of work, and a claim that leaves jobs behind rings again. That is
//! never a lost wake-up — every ring bumps the version, and an awake
//! worker re-reads it before it parks.
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
use stepping_metrics::start_timer;
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
/// scheduling hints. The hints are written only under the lane lock — a
/// push folds its job in, a claim republishes what it left — so they are
/// exact to whoever holds the lock and advisory to a scan, which can cost
/// a wasted lock acquisition but never a wrong batch: a claim re-validates
/// readiness under the lock before draining anything.
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

    /// Folds the job just pushed to the back of the queue into the hints
    /// (callers hold the lane lock): one more job, the earlier of the two
    /// deadlines, and a new oldest job only when the lane was empty —
    /// what [`LaneSet::recompute`] would find without walking the queue.
    fn admit(&self, depth: usize, submitted_ns: u64, deadline_ns: u64) {
        if depth == 1 {
            self.oldest_ns.store(submitted_ns, Ordering::SeqCst);
        }
        self.earliest_deadline_ns
            .fetch_min(deadline_ns, Ordering::SeqCst);
        // depth last: a scan that sees the job also sees its hints
        self.depth.store(depth, Ordering::SeqCst);
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
    /// The instant a lingering lane becomes ready by time alone: its
    /// linger timer (`oldest + max_wait`) or its earliest deadline,
    /// whichever first.
    fn due_ns(&self, max_wait_ns: u64) -> u64 {
        self.oldest_ns
            .saturating_add(max_wait_ns)
            .min(self.earliest_deadline_ns)
    }

    /// Whether a worker may claim this lane now. Without a linger
    /// (`max_wait_ns == 0`) any non-empty lane is, and neither `now_ns`
    /// nor the timer is looked at; with one, the lane must be full, due,
    /// or draining.
    fn ready(&self, now_ns: u64, max_batch: usize, max_wait_ns: u64, draining: bool) -> bool {
        self.depth > 0
            && (max_wait_ns == 0
                || draining
                || self.depth >= max_batch
                || now_ns >= self.due_ns(max_wait_ns))
    }
}

/// Whether the chosen lane is a splittable *mega-lane*: it is the only
/// ready lane in the scan and holds at least `2 * max_batch` jobs, so one
/// claim cannot empty it. A worker that loses the claim race on such a
/// lane may take the remaining tail as a partial batch instead of going
/// back to sleep on the linger timer — under skewed traffic a single hot
/// batch key would otherwise serialize the replica: the tail below
/// `max_batch` sits out `max_wait` while every other worker idles. Only a
/// linger makes the question meaningful (without one the tail is ready by
/// itself), so [`LaneSet::take_batch`] asks it only then. Pure, like
/// [`select_lane`], so tests can drive it directly.
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
            index == chosen || !view.ready(now_ns, max_batch, max_wait_ns, draining)
        })
}

/// The scheduling decision over a hint scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Pick {
    /// Index of the most urgent ready lane, if any lane is ready.
    pub lane: Option<usize>,
    /// When no lane is ready: the earliest future instant (ns since epoch)
    /// at which a lingering lane's timer or deadline fires; [`NONE_NS`] if
    /// every lane is empty — without a linger, whenever no lane is ready.
    pub next_due_ns: u64,
}

/// Pure EDF lane selection over a snapshot of lane hints.
///
/// A lane is **ready** when it is non-empty and — only if a linger is set
/// (`max_wait_ns > 0`) — also full (`depth >= max_batch`), past its linger
/// timer or earliest deadline, or the set is `draining`
/// ([`LaneView::ready`]). Among ready lanes the most urgent is the
/// smallest `(earliest_deadline_ns, oldest_ns, index)` — strict EDF with
/// oldest-first tiebreak, so an expired earlier deadline is always served
/// before any later-deadline batch, and deadline-less lanes (deadline =
/// [`NONE_NS`]) are served oldest-first after every deadline-carrying
/// lane. Without a linger `now_ns` is not looked at and `next_due_ns` is
/// always [`NONE_NS`]. Pure so the property test can drive it directly.
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
        if view.ready(now_ns, max_batch, max_wait_ns, draining) {
            let candidate = (view.earliest_deadline_ns, view.oldest_ns, index);
            if best.is_none_or(|b| candidate < b) {
                best = Some(candidate);
            }
        } else if view.depth > 0 {
            next_due_ns = next_due_ns.min(view.due_ns(max_wait_ns));
        }
    }
    Pick {
        lane: best.map(|(_, _, index)| index),
        next_due_ns,
    }
}

/// Eventcount-style doorbell: parks idle workers and wakes them without a
/// lock on the push fast path.
///
/// **No lost wake-up.** A worker reads [`version`](Doorbell::version)
/// *before* scanning, and [`sleep`](Doorbell::sleep) registers as a sleeper
/// under the doorbell mutex and re-checks the version before waiting — so
/// a push that lands between scan and sleep either bumps the version first
/// (the worker sees it and does not park) or sees `sleepers > 0` and
/// notifies.
///
/// **Wake one.** A ring notifies a single sleeper; the rest stay parked
/// instead of waking to lose the claim race. The notified worker may be one
/// that is leaving `sleep` anyway (woken by an earlier ring, not yet out of
/// the sleeper count) — then nobody new wakes, but that worker rescans
/// before it parks again and the version bump makes sure it does. A sleeper
/// woken for nothing rescans, finds nothing and parks again.
#[derive(Debug, Default)]
struct Doorbell {
    version: AtomicU64,
    sleepers: AtomicUsize,
    mutex: Mutex<()>,
    bell: Condvar,
    /// Calls of `sleep` with a timeout: none without a linger.
    #[cfg(test)]
    timed_sleeps: AtomicUsize,
    /// Untimed waits that ended, counted once the worker is off
    /// `sleepers`: one per ring that found somebody waiting.
    #[cfg(test)]
    wakeups: AtomicUsize,
}

impl Doorbell {
    fn version(&self) -> u64 {
        self.version.load(Ordering::SeqCst)
    }

    /// Signals that lane state changed; wakes one sleeper if there is any.
    fn ring(&self) {
        self.version.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            // lock/unlock pairs with the sleeper's registration so the
            // notify cannot land between its version check and its wait
            drop(lock(&self.mutex));
            self.bell.notify_one();
        }
    }

    /// Wakes every sleeper (shutdown path).
    fn ring_all(&self) {
        self.version.fetch_add(1, Ordering::SeqCst);
        drop(lock(&self.mutex));
        self.bell.notify_all();
    }

    /// Sleeps until a ring wakes this worker or `timeout` elapses (forever
    /// on `None`; the linger path passes one). Returns immediately if the
    /// version already moved past `seen`.
    fn sleep(&self, seen: u64, timeout: Option<Duration>) {
        #[cfg(test)]
        if timeout.is_some() {
            self.timed_sleeps.fetch_add(1, Ordering::SeqCst);
        }
        let guard = lock(&self.mutex);
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let waits = self.version.load(Ordering::SeqCst) == seen;
        if waits {
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
        #[cfg(test)]
        if waits && timeout.is_none() {
            self.wakeups.fetch_add(1, Ordering::SeqCst);
        }
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
    /// The opt-in linger (`max_wait`) in ns; 0, the default, takes the
    /// clock, the timer and the mega-lane split out of dispatch.
    max_wait_ns: u64,
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
    /// Reads of the scheduling clock: none without a linger.
    #[cfg(test)]
    clock_reads: AtomicUsize,
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
            max_wait_ns: dur_ns(max_wait),
            capacity: capacity.max(1),
            epoch: Instant::now(),
            shutting_down: AtomicBool::new(false),
            sealed: AtomicBool::new(false),
            doorbell: Doorbell::default(),
            metrics,
            #[cfg(test)]
            clock_reads: AtomicUsize::new(0),
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

    /// The scheduling clock, ns since the epoch — what a lingering lane's
    /// timer and deadline are compared with. Without a linger readiness
    /// does not depend on the time, so the clock is not read and 0 stands
    /// in.
    fn now_ns(&self) -> u64 {
        if self.max_wait_ns == 0 {
            return 0;
        }
        #[cfg(test)]
        self.clock_reads.fetch_add(1, Ordering::SeqCst);
        self.instant_ns(Instant::now())
    }

    fn instant_ns(&self, at: Instant) -> u64 {
        dur_ns(at.saturating_duration_since(self.epoch))
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
        let submitted_ns = self.instant_ns(job.submitted);
        let deadline_ns = job.deadline.map_or(NONE_NS, |d| self.instant_ns(d));
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
        lane.admit(queue.len(), submitted_ns, deadline_ns);
        drop(queue);
        self.metrics.queue_depth.add(1);
        self.doorbell.ring();
        Ok(())
    }

    /// Blocks until a batch is ready and moves it into `batch`; `None`
    /// once the set is sealed *and* every lane is empty (worker should
    /// exit). `worker` attributes the lock-wait measurement to the calling
    /// worker's series. `views` and `batch` are the worker's own buffers —
    /// the scan refills the one, the claim appends to the other (which the
    /// worker drains before it comes back) — so that scanning and claiming
    /// allocate nothing once they have grown.
    pub fn take_batch(
        &self,
        worker: usize,
        views: &mut Vec<LaneView>,
        batch: &mut Vec<Job>,
    ) -> Option<BatchKey> {
        loop {
            let version = self.doorbell.version();
            let draining = self.shutting_down.load(Ordering::SeqCst);
            let now_ns = self.now_ns();
            views.clear();
            views.extend(self.lanes.iter().map(Lane::view));
            let pick = select_lane(views, now_ns, self.max_batch, self.max_wait_ns, draining);
            if let Some(index) = pick.lane {
                // Work stealing under a linger: when the pick is the only
                // ready lane and a mega-lane (depth >= 2 * max_batch), a
                // worker that loses the claim race may take whatever tail
                // is left as a partial batch rather than sleeping — one hot
                // batch key must not serialize the whole worker pool.
                let split = self.max_wait_ns != 0
                    && splittable(
                        views,
                        index,
                        now_ns,
                        self.max_batch,
                        self.max_wait_ns,
                        draining,
                    );
                if let Some(key) = self.claim(index, worker, split, batch) {
                    return Some(key);
                }
                // lost the race for that lane — rescan immediately
                continue;
            }
            if pick.next_due_ns == NONE_NS {
                // all lanes empty: exit if sealed, else park for a push
                if self.sealed.load(Ordering::SeqCst) {
                    return None;
                }
                self.doorbell.sleep(version, None);
            } else {
                // a lingering lane is not ready yet: sleep until its timer
                // fires (floor keeps a clamped now/due race from
                // busy-spinning)
                let wait = pick.next_due_ns.saturating_sub(now_ns).max(1_000);
                self.doorbell
                    .sleep(version, Some(Duration::from_nanos(wait)));
            }
        }
    }

    /// Moves up to `max_batch` jobs from lane `index` into `batch`,
    /// re-validating readiness under the lane lock (the hint scan raced
    /// other workers); `None`, with `batch` untouched, when the lane is not
    /// ready after all. With `allow_partial` — the scan saw a splittable
    /// mega-lane — a lane whose remaining tail fell below readiness is
    /// still claimed rather than left to wait out its linger timer next to
    /// an idle worker.
    fn claim(
        &self,
        index: usize,
        worker: usize,
        allow_partial: bool,
        batch: &mut Vec<Job>,
    ) -> Option<BatchKey> {
        let lane = &self.lanes[index];
        // Lock wait is the contended lane-mutex acquisition only; doorbell
        // sleeps are idle time, not contention.
        let lock_timer = start_timer(&self.metrics.worker(worker).lock_wait_ns);
        let mut queue = lock(&lane.queue);
        lock_timer.stop();
        // exact: the hints only change under this lock
        let view = lane.view();
        debug_assert_eq!(view, self.recompute(&queue), "folded hints drifted");
        let draining = self.shutting_down.load(Ordering::SeqCst);
        let ready = view.depth > 0
            && (allow_partial
                || view.ready(self.now_ns(), self.max_batch, self.max_wait_ns, draining));
        if !ready {
            return None;
        }
        if stepping_metrics::enabled() {
            self.metrics.lane_depth.record(view.depth as u64);
            self.metrics
                .queue_depth_sampled
                .record(self.total_depth() as u64);
        }
        let take = view.depth.min(self.max_batch);
        batch.extend(queue.drain(..take));
        let rest = self.recompute(&queue);
        lane.publish(rest);
        drop(queue);
        self.metrics.queue_depth.add(-(take as i64));
        if stepping_metrics::enabled() {
            // one clock read per claim; the oldest job's wait is how long
            // the batch took to form
            let now = Instant::now();
            let waited = |job: &Job| dur_ns(now.saturating_duration_since(job.submitted));
            let claimed = &batch[batch.len() - take..];
            self.metrics.batch_form_ns.record(waited(&claimed[0]));
            for job in claimed {
                self.metrics.queue_wait_ns.record(waited(job));
            }
        }
        if rest.depth > 0 {
            // what is left may be ready already — wake another worker
            self.doorbell.ring();
        }
        Some(lane.key)
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
    use std::thread::JoinHandle;
    use stepping_metrics::MetricsRegistry;
    use stepping_tensor::{Shape, Tensor};

    fn test_set(subnets: usize, max_batch: usize, max_wait: Duration, capacity: usize) -> LaneSet {
        let registry = MetricsRegistry::new();
        let metrics = Arc::new(ServeMetrics::new(&registry, 1, subnets));
        LaneSet::new(subnets, max_batch, max_wait, capacity, metrics)
    }

    /// Runs a blocking test body on a thread of its own and fails the test
    /// if it is still running after half a minute: a lost wake-up must fail
    /// in seconds, not hang the run.
    fn watchdog(body: impl FnOnce() + Send + 'static) {
        const LIMIT: Duration = Duration::from_secs(30);
        let (done, finished) = mpsc::channel();
        let body = std::thread::spawn(move || {
            body();
            let _ = done.send(());
        });
        match finished.recv_timeout(LIMIT) {
            Ok(()) => {}
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("still blocked after {LIMIT:?}"),
            // the body panicked: fail with its message
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                if let Err(panic) = body.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        }
    }

    /// `n` workers over `set`, each claiming until the set is sealed
    /// and handing every claimed batch to `on_claim` with its own index.
    fn spawn_workers<F>(set: &Arc<LaneSet>, n: usize, on_claim: F) -> Vec<JoinHandle<()>>
    where
        F: Fn(usize, Vec<Job>) + Clone + Send + 'static,
    {
        (0..n)
            .map(|worker| {
                let set = Arc::clone(set);
                let on_claim = on_claim.clone();
                std::thread::spawn(move || {
                    let (mut views, mut batch) = (Vec::new(), Vec::new());
                    while set.take_batch(worker, &mut views, &mut batch).is_some() {
                        on_claim(worker, std::mem::take(&mut batch));
                    }
                })
            })
            .collect()
    }

    /// Waits until `n` workers are inside the doorbell's wait (the caller's
    /// watchdog bounds this). Call it with no push in flight and every
    /// earlier wake-up counted.
    fn await_parked(set: &LaneSet, n: usize) {
        while set.doorbell.sleepers.load(Ordering::SeqCst) != n {
            std::thread::yield_now();
        }
        // a registered sleeper holds the mutex until its wait lets go of it
        drop(lock(&set.doorbell.mutex));
    }

    /// Pushes one job and spins until a worker has claimed and dropped it,
    /// which closes its reply channel. Spinning, not blocking: the caller
    /// is back with its next push while that worker is still between its
    /// rescan and its sleep, the window a lost wake-up needs.
    fn hand_off(set: &LaneSet, id: u64) {
        let (job, reply) = begin_job(id, 0, None);
        set.push(job).map_err(|_| "push").unwrap();
        while !matches!(reply.try_recv(), Err(mpsc::TryRecvError::Disconnected)) {
            std::hint::spin_loop();
        }
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
        let mut batch = Vec::new();
        let key = set
            .take_batch(0, &mut Vec::new(), &mut batch)
            .expect("a ready batch");
        assert_eq!(key, BatchKey::Begin { subnet: 1 });
        assert_eq!(batch.len(), 3);
        assert!(
            batch.windows(2).all(|w| w[0].id < w[1].id),
            "FIFO within lane"
        );
        set.shutdown();
        assert!(
            set.take_batch(0, &mut Vec::new(), &mut Vec::new())
                .is_none(),
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
        let mut batch = Vec::new();
        let key = set
            .take_batch(0, &mut Vec::new(), &mut batch)
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
        let mut batch = Vec::new();
        set.take_batch(0, &mut Vec::new(), &mut batch)
            .expect("draining flushes the lane");
        assert_eq!(batch.len(), 1);
        assert!(set
            .take_batch(0, &mut Vec::new(), &mut Vec::new())
            .is_none());
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
        let mut batch = Vec::new();
        assert!(
            set.claim(0, 0, false, &mut batch).is_none(),
            "3 < max_batch and the timer has not fired: not ready"
        );
        let key = set.claim(0, 0, true, &mut batch).expect("partial claim");
        assert_eq!(key, BatchKey::Begin { subnet: 0 });
        assert_eq!(batch.len(), 3, "the whole tail is stolen");
        assert!(
            set.claim(0, 0, true, &mut Vec::new()).is_none(),
            "empty lane never claims"
        );
    }

    #[test]
    fn pushed_hints_equal_recomputed_hints() {
        let set = test_set(1, 4, Duration::ZERO, 64);
        let start = Instant::now();
        // deadlines arrive out of order, and some jobs carry none
        let deadlines_ms = [None, Some(50), Some(20), None, Some(30), Some(5), Some(40)];
        for (id, ms) in deadlines_ms.into_iter().enumerate() {
            let deadline = ms.map(|ms| start + Duration::from_millis(ms));
            let (job, _rx) = begin_job(id as u64, 0, deadline);
            set.push(job).map_err(|_| "push").unwrap();
            let queue = lock(&set.lanes[0].queue);
            assert_eq!(
                set.lanes[0].view(),
                set.recompute(&queue),
                "after push {id}"
            );
        }
        // a claim leaves recomputed hints behind, and pushes fold onto them
        let mut batch = Vec::new();
        set.take_batch(0, &mut Vec::new(), &mut batch).unwrap();
        let (job, _rx) = begin_job(7, 0, Some(start + Duration::from_millis(1)));
        set.push(job).map_err(|_| "push").unwrap();
        let queue = lock(&set.lanes[0].queue);
        assert_eq!(set.lanes[0].view(), set.recompute(&queue));
        assert_eq!(set.lanes[0].view().depth, 4);
    }

    #[test]
    fn expired_deadline_is_in_the_very_next_claim_under_backlog() {
        let set = test_set(3, 4, Duration::ZERO, 64);
        let mut rxs = Vec::new();
        let mut push = |id, subnet, deadline| {
            let (job, rx) = begin_job(id, subnet, deadline);
            set.push(job).map_err(|_| "push").unwrap();
            rxs.push(rx);
        };
        // a deep deadline-free lane keeps the one worker busy ...
        for id in 0..12 {
            push(id, 0, None);
        }
        let (mut views, mut batch) = (Vec::new(), Vec::new());
        let mut next = |batch: &mut Vec<Job>| {
            batch.clear();
            set.take_batch(0, &mut views, batch).unwrap()
        };
        assert_eq!(next(&mut batch), BatchKey::Begin { subnet: 0 });
        assert_eq!(batch.len(), 4, "backlog alone fills the batch");
        // ... and while it runs that batch, a later-deadline job arrives,
        // then one whose deadline has already passed
        let now = Instant::now();
        push(12, 1, Some(now + Duration::from_secs(3600)));
        push(13, 2, Some(now - Duration::from_millis(1)));
        assert_eq!(
            next(&mut batch),
            BatchKey::Begin { subnet: 2 },
            "the expired deadline goes first"
        );
        assert_eq!(next(&mut batch), BatchKey::Begin { subnet: 1 });
        assert_eq!(
            next(&mut batch),
            BatchKey::Begin { subnet: 0 },
            "deadline-free work last"
        );
        assert_eq!(batch.len(), 4);
    }

    #[test]
    fn one_push_wakes_one_parked_worker_and_leaves_the_rest_parked() {
        watchdog(|| {
            const WORKERS: usize = 4;
            const ROUNDS: usize = 3;
            let set = Arc::new(test_set(2, 8, Duration::ZERO, 64));
            let (claimed, claims) = mpsc::channel();
            let workers = spawn_workers(&set, WORKERS, move |_, jobs| {
                claimed.send(jobs.len()).unwrap();
            });
            let wakeups = || set.doorbell.wakeups.load(Ordering::SeqCst);
            await_parked(&set, WORKERS);
            for round in 0..ROUNDS {
                let (job, _reply) = begin_job(round as u64, 0, None);
                set.push(job).map_err(|_| "push").unwrap();
                // whoever the ring woke was counted before it claimed
                assert_eq!(claims.recv().unwrap(), 1);
                await_parked(&set, WORKERS);
                assert!(claims.try_recv().is_err(), "one push, one claim");

                // a wake-up nobody sent: every sleeper rescans, finds
                // nothing and parks again
                let before = wakeups();
                set.doorbell.bell.notify_all();
                while wakeups() < before + WORKERS {
                    std::thread::yield_now();
                }
                await_parked(&set, WORKERS);
                assert!(claims.try_recv().is_err(), "nothing to claim");
            }
            // everybody is waiting, so shutdown wakes each worker once more
            set.shutdown();
            for worker in workers {
                worker.join().unwrap();
            }
            assert_eq!(
                wakeups(),
                ROUNDS * (1 + WORKERS) + WORKERS,
                "a push woke one worker, not all {WORKERS}"
            );
        });
    }

    /// A push racing a worker between its scan and its sleep is never
    /// lost, whoever wins: each hand-off completes before the next begins,
    /// so the producer pushes exactly while the worker that answered is on
    /// its way back to sleep — where a ring finds no sleeper to notify and
    /// only the version bump keeps the worker from parking on top of the
    /// job. A lost wake-up stalls the producer until the watchdog fires.
    #[test]
    fn single_job_hand_offs_are_never_lost() {
        const HAND_OFFS: u64 = 100_000;
        for workers in [1, 2, 8] {
            watchdog(move || {
                let set = Arc::new(test_set(2, 8, Duration::ZERO, 64));
                let pool = spawn_workers(&set, workers, |_, jobs| drop(jobs));
                for id in 0..HAND_OFFS {
                    hand_off(&set, id);
                }
                set.shutdown();
                for worker in pool {
                    worker.join().unwrap();
                }
            });
        }
    }

    #[test]
    fn dead_worker_does_not_strand_later_pushes() {
        watchdog(|| {
            let set = Arc::new(test_set(2, 8, Duration::ZERO, 64));
            let died = Arc::new(AtomicBool::new(false));
            let pool = spawn_workers(&set, 3, move |_, jobs| {
                if !died.swap(true, Ordering::SeqCst) {
                    // the first claimer dies inside its batch; the unwind
                    // drops its jobs (no panic message: this does not run
                    // the panic hook)
                    std::panic::resume_unwind(Box::new("worker died in its batch"));
                }
                drop(jobs);
            });
            await_parked(&set, 3);
            // a dead worker is no sleeper: every ring goes to a live one
            for id in 0..200 {
                hand_off(&set, id);
            }
            set.shutdown();
            let deaths = pool
                .into_iter()
                .map(JoinHandle::join)
                .filter(std::result::Result::is_err)
                .count();
            assert_eq!(deaths, 1, "shutdown joins the two survivors");
        });
    }

    #[test]
    fn no_clock_and_no_timed_sleep_without_a_linger() {
        watchdog(|| {
            let set = Arc::new(test_set(2, 8, Duration::ZERO, 64));
            let pool = spawn_workers(&set, 1, |_, jobs| drop(jobs));
            for id in 0..3 {
                // parked first, so every hand-off goes through a sleep
                await_parked(&set, 1);
                hand_off(&set, id);
            }
            set.shutdown();
            for worker in pool {
                worker.join().unwrap();
            }
            assert_eq!(set.clock_reads.load(Ordering::SeqCst), 0);
            assert_eq!(set.doorbell.timed_sleeps.load(Ordering::SeqCst), 0);

            // the counters are live: a linger brings both back
            let set = test_set(1, 8, Duration::from_millis(2), 64);
            let (job, _reply) = begin_job(0, 0, None);
            set.push(job).map_err(|_| "push").unwrap();
            let mut batch = Vec::new();
            set.take_batch(0, &mut Vec::new(), &mut batch).unwrap();
            assert_eq!(batch.len(), 1, "claimed when the linger ran out");
            assert!(set.clock_reads.load(Ordering::SeqCst) > 0);
            assert!(set.doorbell.timed_sleeps.load(Ordering::SeqCst) > 0);
        });
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
                        && (max_wait_ns == 0
                            || draining
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

            /// Without a linger dispatch is work-conserving: a lane is
            /// picked iff any lane is non-empty — whatever the clock, the
            /// batch limit or the drain flag say — and the pick is the
            /// `(deadline, oldest, index)` minimum over the non-empty
            /// lanes, with no timer left to wait for.
            #[test]
            fn zero_linger_picks_the_edf_minimum_of_the_non_empty_lanes(
                max_batch in 1usize..=8,
                now_ns in 0u64..=10_000_000,
                draining_bit in 0u8..=1,
                raw in collection::vec(
                    (0usize..=3, 0u64..=10_000_000, 0u8..=3, 0u64..=20_000_000),
                    1..=12,
                ),
            ) {
                let views: Vec<LaneView> = raw
                    .iter()
                    .map(|&(depth, oldest_ns, tag, dl)| LaneView {
                        depth,
                        oldest_ns,
                        earliest_deadline_ns: if tag == 0 { NONE_NS } else { dl },
                    })
                    .collect();
                let pick = select_lane(&views, now_ns, max_batch, 0, draining_bit == 1);
                let expected = views
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| v.depth > 0)
                    .min_by_key(|(i, v)| (v.earliest_deadline_ns, v.oldest_ns, *i))
                    .map(|(i, _)| i);
                prop_assert_eq!(pick.lane, expected);
                prop_assert_eq!(pick.next_due_ns, NONE_NS);
            }
        }
    }
}

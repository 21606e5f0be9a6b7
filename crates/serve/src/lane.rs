//! Sharded per-[`BatchKey`] batch lanes with earliest-deadline-first
//! scheduling — the replacement for the single `Mutex`/`Condvar` job queue.
//!
//! PR 7's lock-wait histograms showed every worker serializing on one
//! queue mutex, inverting the worker sweep (throughput *fell* as workers
//! rose). Here each batch key owns a *lane*: its own bounded [`VecDeque`]
//! behind its own lock, plus lock-free scheduling hints (depth, oldest
//! enqueue, earliest deadline) published as atomics. Workers scan the
//! hints without taking any lock, pick the most urgent *ready* lane, and
//! claim a whole batch from it under that lane's lock alone — pushes to
//! other lanes proceed in parallel, and two workers only contend when they
//! race for the same lane.
//!
//! **Keys** follow the paper's steps: one lane per begin subnet and one per
//! level an upgrade's caches sit at, `2n − 1` lanes for `n` subnets. An
//! upgrade lane holds jobs bound for different targets; the batch steps
//! them one level at a time, each pass over the rows whose target is not
//! reached yet, so two upgrades from the same level share every step they
//! both take.
//!
//! **Readiness** is work-conserving: a lane is ready as soon as it is
//! non-empty, so a free worker takes the most urgent one *now* and a batch
//! is whatever queued while the workers were busy (capped at `max_batch`) —
//! batches grow with load and vanish when idle. The scan reads no clock
//! and no worker ever takes a timed sleep. **Urgency** among ready lanes is
//! earliest-deadline-first: lanes are ordered by
//! `(earliest_deadline, oldest_enqueue, index)`, so a budget-carrying
//! request whose deadline has expired is always served before any
//! later-deadline batch ([`select_lane`] is pure and property-tested for
//! exactly that). Deadline-less lanes sort last and fall back to
//! oldest-first among themselves.
//!
//! **Pausing** holds every lane still so that tests can queue jobs
//! deterministically: while the set is paused (and not draining) a claim
//! takes the lane lock, leaves the jobs, and the worker parks;
//! [`LaneSet::pause`] and [`LaneSet::resume`] wake them all.
//! It is a test hold, not a scheduling policy, and shutdown overrides it.
//!
//! **Sleeping** uses an eventcount-style [`Doorbell`]: a version word
//! bumped on every push and every claim that leaves jobs behind, plus one
//! parking slot per worker, so an idle worker can re-check the hints and
//! park without a lost-wakeup window. Whether a ring also wakes a parked
//! worker is one pure rule, [`wakes`]: only when every live worker is
//! parked, or when the work queued across all lanes reaches a full batch
//! at the top subnet (`max_batch × direct()[top]` MACs, each [`Job`]
//! carrying its cost). The woken worker is the lowest-index parked one, so
//! under light load worker 0 stays warm and serves batches that grow with
//! the queue, and the others join only when a full batch's worth waits.
//! A skipped wake is never a lost one: it happens only while some live
//! worker is awake, and that worker re-reads the version before it parks.
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
    /// Incremental expansion of cached activations, whatever level each
    /// job targets.
    Upgrade {
        /// Level the caches currently sit at.
        from: usize,
    },
}

/// Work payload of a job.
#[derive(Debug)]
pub(crate) enum Work {
    Begin {
        input: Tensor,
        subnet: usize,
    },
    /// Its target is the job's `requested` level: admission never lowers
    /// an upgrade's target.
    Upgrade {
        session: u64,
        cache: ActivationCache,
        /// Level the cache sits at when the job is queued (the session's
        /// `last_subnet`); recorded here so batching never has to re-derive
        /// it from the cache.
        from: usize,
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
    /// MACs its pass multiplies, as admission costs it from the model's
    /// MAC table: what the job adds to the set's queued work.
    pub macs: u64,
}

impl Job {
    pub fn key(&self) -> BatchKey {
        match &self.work {
            Work::Begin { subnet, .. } => BatchKey::Begin { subnet: *subnet },
            Work::Upgrade { from, .. } => BatchKey::Upgrade { from: *from },
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
    /// Whether a worker may claim this lane now: any non-empty lane is.
    fn ready(&self) -> bool {
        self.depth > 0
    }
}

/// Pure EDF lane selection over a snapshot of lane hints: the most urgent
/// ready lane, `None` when every lane is empty.
///
/// The most urgent lane is the smallest
/// `(earliest_deadline_ns, oldest_ns, index)` — strict EDF with
/// oldest-first tiebreak, so an expired earlier deadline is always served
/// before any later-deadline batch, and deadline-less lanes (deadline =
/// [`NONE_NS`]) are served oldest-first after every deadline-carrying
/// lane. Pure so the property test can drive it directly.
pub(crate) fn select_lane(views: &[LaneView]) -> Option<usize> {
    views
        .iter()
        .enumerate()
        .filter(|(_, view)| view.ready())
        .min_by_key(|(index, view)| (view.earliest_deadline_ns, view.oldest_ns, *index))
        .map(|(index, _)| index)
}

/// The wake rule: whether a ring wakes one of `parked` workers out of
/// `live`, with `queued_macs` of work in the lanes.
///
/// It does when some worker is parked and either every live worker is —
/// nobody awake would see the work — or the queued work reaches
/// `threshold`, a full batch at the top subnet: more than an awake worker
/// should make wait behind its current batch. Otherwise the ring only
/// bumps the version, and the awake workers take the work on their next
/// scan. Pure so the property test can drive it directly.
pub(crate) fn wakes(parked: usize, live: usize, queued_macs: u64, threshold: u64) -> bool {
    parked > 0 && (parked >= live || queued_macs >= threshold)
}

/// One worker's parking place in the [`Doorbell`].
#[derive(Debug, Default)]
struct Slot {
    /// Whether the worker is parked here. The worker sets it under the
    /// lock and holds the lock until its wait lets go of it; it is cleared
    /// by the ring that wakes the worker, or by the worker itself when it
    /// leaves for any other reason.
    parked: Mutex<bool>,
    cond: Condvar,
}

/// The workers' parking slots, indexed by worker.
#[derive(Debug)]
struct Bells {
    slots: Vec<Slot>,
}

impl Bells {
    /// Wakes every parked worker. The lock/unlock pairs with each
    /// worker's registration, so no notify lands between a worker's
    /// version check and its wait.
    fn notify_all(&self) {
        for slot in &self.slots {
            drop(lock(&slot.parked));
            slot.cond.notify_one();
        }
    }
}

/// Eventcount-style doorbell: parks idle workers, each in a slot of its
/// own, and wakes them by the rule of [`wakes`], lowest index first.
///
/// **No lost wake-up.** A worker reads [`version`](Doorbell::version)
/// *before* scanning, and [`sleep`](Doorbell::sleep) registers it as parked
/// under its slot's lock and re-checks the version before waiting. Every
/// ring bumps the version first, then counts the parked and the live
/// workers. A ring that wakes takes the lowest-index parked worker off the
/// parked count under that worker's lock, so a second ring picks the next
/// one. A ring that skips saw fewer parked workers than live ones, so some
/// live worker was not registered: it either reads the version after the
/// bump and its scan finds the job, or its registration comes after the
/// bump and its version check sends it back to rescan.
///
/// **Dead workers.** That awake worker may die instead. Each worker holds
/// the guard of [`LaneSet::clock_in`]: on exit or unwind it counts the
/// worker out of `live` and rings every slot, so the parked workers rescan
/// and, with the dead one gone from the count, the next ring that finds
/// them all parked wakes one. A worker that dies awake strands nothing.
///
/// A worker woken for nothing rescans, finds nothing and parks again.
#[derive(Debug)]
struct Doorbell {
    version: AtomicU64,
    /// Workers registered in their slot and not yet woken by a ring.
    parked: AtomicUsize,
    /// Workers holding a [`Shift`] guard.
    live: AtomicUsize,
    bell: Bells,
    /// Waits that ended, counted once the worker is off `parked`.
    #[cfg(test)]
    wakeups: AtomicUsize,
}

impl Doorbell {
    fn new(workers: usize) -> Self {
        Doorbell {
            version: AtomicU64::new(0),
            parked: AtomicUsize::new(0),
            live: AtomicUsize::new(0),
            bell: Bells {
                slots: (0..workers).map(|_| Slot::default()).collect(),
            },
            #[cfg(test)]
            wakeups: AtomicUsize::new(0),
        }
    }

    fn version(&self) -> u64 {
        self.version.load(Ordering::SeqCst)
    }

    /// Signals that lane state changed, and wakes the lowest-index parked
    /// worker when [`wakes`] says so; returns whether it woke one.
    fn ring(&self, queued_macs: u64, threshold: u64) -> bool {
        self.version.fetch_add(1, Ordering::SeqCst);
        let parked = self.parked.load(Ordering::SeqCst);
        let live = self.live.load(Ordering::SeqCst);
        wakes(parked, live, queued_macs, threshold) && self.wake_lowest()
    }

    /// Takes the lowest-index parked worker off the parked count and
    /// notifies it; `false` when every slot is empty by now.
    fn wake_lowest(&self) -> bool {
        for slot in &self.bell.slots {
            let mut parked = lock(&slot.parked);
            if *parked {
                *parked = false;
                self.parked.fetch_sub(1, Ordering::SeqCst);
                drop(parked);
                slot.cond.notify_one();
                return true;
            }
        }
        false
    }

    /// Wakes every parked worker (resume, shutdown, a worker's exit).
    fn ring_all(&self) {
        self.version.fetch_add(1, Ordering::SeqCst);
        self.bell.notify_all();
    }

    /// Parks `worker` until a ring wakes it. Returns immediately if the
    /// version already moved past `seen`.
    fn sleep(&self, worker: usize, seen: u64) {
        let slot = &self.bell.slots[worker];
        let mut parked = lock(&slot.parked);
        *parked = true;
        self.parked.fetch_add(1, Ordering::SeqCst);
        let waits = self.version.load(Ordering::SeqCst) == seen;
        if waits {
            parked = slot
                .cond
                .wait(parked)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if *parked {
            // not taken by a ring: the version moved, or a wake-all
            *parked = false;
            self.parked.fetch_sub(1, Ordering::SeqCst);
        }
        drop(parked);
        #[cfg(test)]
        if waits {
            self.wakeups.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// A worker's place in the live count of the [`Doorbell`]
/// ([`LaneSet::clock_in`]); dropping it, on exit or unwind, counts the
/// worker out and wakes every parked worker.
#[derive(Debug)]
pub(crate) struct Shift<'a> {
    doorbell: &'a Doorbell,
}

impl Drop for Shift<'_> {
    fn drop(&mut self) {
        self.doorbell.live.fetch_sub(1, Ordering::SeqCst);
        self.doorbell.ring_all();
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
    /// Lanes in key order: `Begin { 0..n }` then `Upgrade { 0..n-1 }`
    /// ([`Self::index`]).
    lanes: Vec<Lane>,
    subnets: usize,
    max_batch: usize,
    /// Admission-control bound on each lane's depth.
    capacity: usize,
    /// All lane hints are ns offsets from this instant.
    epoch: Instant,
    /// The test hold ([`Self::pause`]): nothing is claimed while it is set,
    /// unless the set is shutting down.
    paused: AtomicBool,
    /// Phase 1 of shutdown: admissions refuse, a pause is overridden.
    shutting_down: AtomicBool,
    /// Phase 2: every in-flight push has completed; workers may exit on an
    /// all-empty scan.
    sealed: AtomicBool,
    /// MACs of every queued job, across all lanes: a push adds its job's
    /// under the lane lock before the job is visible, a claim takes its
    /// batch's back under the lane lock before the lane's new depth is.
    queued_macs: AtomicU64,
    /// Queued MACs at which a ring wakes a parked worker although another
    /// is awake ([`wakes`]).
    wake_threshold: u64,
    doorbell: Doorbell,
    metrics: Arc<ServeMetrics>,
}

impl LaneSet {
    /// Lanes for `subnets` subnets, parking slots for `workers` workers
    /// (worker ids `0..workers`), and the queued-MAC `wake_threshold` of
    /// the wake rule: a full batch at the top subnet for the server.
    pub fn new(
        subnets: usize,
        max_batch: usize,
        capacity: usize,
        workers: usize,
        wake_threshold: u64,
        metrics: Arc<ServeMetrics>,
    ) -> Self {
        let begins = (0..subnets).map(|subnet| BatchKey::Begin { subnet });
        let upgrades = (0..subnets.saturating_sub(1)).map(|from| BatchKey::Upgrade { from });
        LaneSet {
            lanes: begins.chain(upgrades).map(Lane::new).collect(),
            subnets,
            max_batch,
            capacity: capacity.max(1),
            epoch: Instant::now(),
            paused: AtomicBool::new(false),
            shutting_down: AtomicBool::new(false),
            sealed: AtomicBool::new(false),
            queued_macs: AtomicU64::new(0),
            wake_threshold,
            doorbell: Doorbell::new(workers),
            metrics,
        }
    }

    /// Counts the calling worker live until the guard drops. Every worker
    /// that calls [`take_batch`](Self::take_batch) holds one: the wake
    /// rule leaves work to awake workers only while the live count says
    /// some worker is awake.
    pub fn clock_in(&self) -> Shift<'_> {
        self.doorbell.live.fetch_add(1, Ordering::SeqCst);
        Shift {
            doorbell: &self.doorbell,
        }
    }

    /// Rings the doorbell with the queued work; counts a worker it woke.
    fn ring(&self) {
        let queued = self.queued_macs.load(Ordering::SeqCst);
        if self.doorbell.ring(queued, self.wake_threshold) {
            self.metrics.worker_wakes.inc();
        }
    }

    /// Number of lanes (`n` begin + `n - 1` upgrade levels).
    #[cfg(test)]
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Maps a key to its lane: begin keys identity-map, an upgrade from
    /// level `f` lands at `n + f`, after all begin lanes.
    fn index(&self, key: BatchKey) -> usize {
        match key {
            BatchKey::Begin { subnet } => subnet,
            BatchKey::Upgrade { from } => self.subnets + from,
        }
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
        self.queued_macs.fetch_add(job.macs, Ordering::SeqCst);
        queue.push_back(job);
        lane.admit(queue.len(), submitted_ns, deadline_ns);
        drop(queue);
        self.metrics.queue_depth.add(1);
        self.ring();
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
            // read before the scan: once sealed, every accepted push is
            // already in its lane, so an empty scan is final
            let sealed = self.sealed.load(Ordering::SeqCst);
            let held = self.held();
            views.clear();
            views.extend(self.lanes.iter().map(Lane::view));
            match select_lane(views) {
                Some(index) => {
                    if let Some(key) = self.claim(index, worker, batch) {
                        return Some(key);
                    }
                    // held: the claim took the lane lock and left the
                    // jobs, park for a resume or shutdown; otherwise it
                    // lost the race for that lane (or a pause came in
                    // between) — rescan immediately
                    if held {
                        self.doorbell.sleep(worker, version);
                    }
                }
                None if sealed => {
                    debug_assert_eq!(
                        self.queued_macs.load(Ordering::SeqCst),
                        0,
                        "queued MACs drifted"
                    );
                    return None;
                }
                // nothing to claim: park for a push, a resume or shutdown
                None => self.doorbell.sleep(worker, version),
            }
        }
    }

    /// Whether the test hold is in force: paused, and not shutting down.
    fn held(&self) -> bool {
        self.paused.load(Ordering::SeqCst) && !self.shutting_down.load(Ordering::SeqCst)
    }

    /// Moves up to `max_batch` jobs from lane `index` into `batch`,
    /// re-validating under the lane lock (the hint scan raced other
    /// workers); `None`, with `batch` untouched, when the lane is empty
    /// after all or the set is held. Checking the hold here, under the lock
    /// a push takes, means no job pushed after [`Self::pause`] returned is
    /// claimed by a scan that began before it.
    fn claim(&self, index: usize, worker: usize, batch: &mut Vec<Job>) -> Option<BatchKey> {
        let lane = &self.lanes[index];
        // Lock wait is the contended lane-mutex acquisition only; doorbell
        // sleeps are idle time, not contention.
        let lock_timer = start_timer(&self.metrics.worker(worker).lock_wait_ns);
        let mut queue = lock(&lane.queue);
        lock_timer.stop();
        // exact: the hints only change under this lock
        let view = lane.view();
        debug_assert_eq!(view, self.recompute(&queue), "folded hints drifted");
        if !view.ready() || self.held() {
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
        let claimed: u64 = batch[batch.len() - take..].iter().map(|j| j.macs).sum();
        self.queued_macs.fetch_sub(claimed, Ordering::SeqCst);
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
            // what is left is ready: this worker comes back for it, and
            // the rule wakes another only for a full batch's worth
            self.ring();
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

    /// Holds every lane: pushes are still accepted, but nothing is claimed
    /// until [`resume`](Self::resume) or [`shutdown`](Self::shutdown). The
    /// deterministic way for tests to keep jobs queued.
    ///
    /// Every parked worker is woken to see the hold: it scans, takes the
    /// lock of the most urgent non-empty lane (a `serve.lock_wait_ns`
    /// sample), leaves its jobs and parks again — as does any worker a push
    /// wakes while the set is held. Pausing a held set again thus has every
    /// worker look at what queued meanwhile.
    pub fn pause(&self) {
        self.paused.store(true, Ordering::SeqCst);
        self.doorbell.ring_all();
    }

    /// Lifts [`pause`](Self::pause) and wakes every worker to claim what
    /// queued meanwhile.
    pub fn resume(&self) {
        self.paused.store(false, Ordering::SeqCst);
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

    /// Parking slots of every test set: the most workers a test spawns.
    const SLOTS: usize = 8;

    /// A set whose every job costs one MAC ([`begin_job`]), so the wake
    /// threshold — a full batch — is `max_batch` queued jobs.
    fn test_set(subnets: usize, max_batch: usize, capacity: usize) -> LaneSet {
        let registry = MetricsRegistry::new();
        let metrics = Arc::new(ServeMetrics::new(&registry, 1, subnets));
        LaneSet::new(
            subnets,
            max_batch,
            capacity,
            SLOTS,
            max_batch as u64,
            metrics,
        )
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
                    let _shift = set.clock_in();
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
        while set.doorbell.parked.load(Ordering::SeqCst) != n {
            std::thread::yield_now();
        }
        // a registered worker holds its slot's lock until its wait lets go
        // of it
        for slot in &set.doorbell.bell.slots {
            drop(lock(&slot.parked));
        }
    }

    /// Whether `worker` is parked in its slot.
    fn is_parked(set: &LaneSet, worker: usize) -> bool {
        *lock(&set.doorbell.bell.slots[worker].parked)
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
            macs: 1,
        };
        (job, rx)
    }

    #[test]
    fn lane_indexing_is_a_bijection_over_keys() {
        for n in 1..=6usize {
            let set = test_set(n, 8, 64);
            assert_eq!(set.lane_count(), 2 * n - 1);
            let mut seen = vec![false; set.lane_count()];
            let begins = (0..n).map(|subnet| BatchKey::Begin { subnet });
            let upgrades = (0..n - 1).map(|from| BatchKey::Upgrade { from });
            for key in begins.chain(upgrades) {
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
        let set = test_set(2, 8, 2);
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
        let set = test_set(2, 4, 64);
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
        let set = test_set(2, 8, 64);
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
    fn paused_set_claims_nothing_until_resumed_and_shutdown_overrides_a_pause() {
        watchdog(|| {
            let set = Arc::new(test_set(2, 8, 64));
            let (claimed, claims) = mpsc::channel();
            let workers = spawn_workers(&set, 1, move |_, jobs: Vec<Job>| {
                for job in jobs {
                    claimed.send(job.id).unwrap();
                }
            });
            let wakeups = || set.doorbell.wakeups.load(Ordering::SeqCst);
            // pushes to the parked worker: each one wakes it, it rescans,
            // claims nothing and parks again
            let mut replies = Vec::new();
            let mut push_held = |id, subnet, deadline| {
                let before = wakeups();
                let (job, reply) = begin_job(id, subnet, deadline);
                set.push(job).map_err(|_| "push").unwrap();
                replies.push(reply);
                while wakeups() == before {
                    std::thread::yield_now();
                }
                await_parked(&set, 1);
            };
            await_parked(&set, 1);
            set.pause();
            // lane 0 older and deadline-free, lane 1 with a deadline
            push_held(0, 0, None);
            push_held(1, 1, Some(Instant::now() + Duration::from_secs(3600)));
            assert!(claims.try_recv().is_err(), "a paused set claims nothing");

            set.resume();
            assert_eq!(claims.recv().unwrap(), 1, "EDF: the deadline first");
            assert_eq!(claims.recv().unwrap(), 0);

            await_parked(&set, 1);
            set.pause();
            push_held(2, 0, None);
            assert!(claims.try_recv().is_err(), "paused again");
            set.shutdown();
            assert_eq!(claims.recv().unwrap(), 2, "shutdown overrides the pause");
            for worker in workers {
                worker.join().unwrap();
            }
        });
    }

    #[test]
    fn pushed_hints_equal_recomputed_hints() {
        let set = test_set(1, 4, 64);
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
        let set = test_set(3, 4, 64);
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
            let set = Arc::new(test_set(2, 8, 64));
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
                let set = Arc::new(test_set(2, 8, 64));
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
            let set = Arc::new(test_set(2, 8, 64));
            let died = Arc::new(AtomicBool::new(false));
            let (entered, in_batch) = mpsc::channel();
            let (release, gate) = mpsc::channel::<()>();
            let gate = Arc::new(Mutex::new(gate));
            let pool = spawn_workers(&set, 3, move |worker, jobs| {
                if !died.swap(true, Ordering::SeqCst) {
                    // the first claimer waits inside its batch, then dies
                    // there; the unwind drops its jobs (no panic message:
                    // this does not run the panic hook)
                    entered.send(worker).unwrap();
                    let _ = lock(&gate).recv();
                    std::panic::resume_unwind(Box::new("worker died in its batch"));
                }
                drop(jobs);
            });
            await_parked(&set, 3);
            // an idle set wakes worker 0, from then on the only awake one
            let (job, _first) = begin_job(0, 0, None);
            set.push(job).map_err(|_| "push").unwrap();
            assert_eq!(in_batch.recv().unwrap(), 0);
            await_parked(&set, 2);
            // below a full batch, the push leaves its job to worker 0 ...
            let (job, queued) = begin_job(1, 0, None);
            set.push(job).map_err(|_| "push").unwrap();
            assert!(is_parked(&set, 1) && is_parked(&set, 2), "nobody woken");
            // ... which dies instead: its exit wakes the parked workers,
            // and one of them claims the job
            release.send(()).unwrap();
            while !matches!(queued.try_recv(), Err(mpsc::TryRecvError::Disconnected)) {
                std::thread::yield_now();
            }
            // a dead worker is neither parked nor live: with the survivors
            // parked, every ring wakes one of them
            for id in 2..200 {
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

    /// Claims as they are reported: `(worker, job ids)`.
    type Claims = mpsc::Receiver<(usize, Vec<u64>)>;

    /// Workers whose first claim waits inside its batch until the returned
    /// sender fires; every claim is reported to the [`Claims`].
    fn spawn_holding(
        set: &Arc<LaneSet>,
        n: usize,
    ) -> (Vec<JoinHandle<()>>, Claims, mpsc::Sender<()>) {
        let (claimed, claims) = mpsc::channel();
        let (release, gate) = mpsc::channel::<()>();
        let gate = Arc::new(Mutex::new(gate));
        let held = Arc::new(AtomicBool::new(false));
        let pool = spawn_workers(set, n, move |worker, jobs: Vec<Job>| {
            let ids = jobs.iter().map(|job| job.id).collect();
            claimed.send((worker, ids)).unwrap();
            if !held.swap(true, Ordering::SeqCst) {
                let _ = lock(&gate).recv();
            }
        });
        (pool, claims, release)
    }

    fn push_one(set: &LaneSet, id: u64) {
        let (job, _reply) = begin_job(id, 0, None);
        set.push(job).map_err(|_| "push").unwrap();
    }

    #[test]
    fn an_idle_set_wakes_worker_0_first() {
        watchdog(|| {
            const WORKERS: usize = 3;
            let set = Arc::new(test_set(2, 8, 64));
            let (claimed, claims) = mpsc::channel();
            let pool = spawn_workers(&set, WORKERS, move |worker, jobs: Vec<Job>| {
                claimed.send((worker, jobs.len())).unwrap();
            });
            for id in 0..5 {
                await_parked(&set, WORKERS);
                push_one(&set, id);
                assert!(is_parked(&set, 1) && is_parked(&set, 2));
                assert_eq!(claims.recv().unwrap(), (0, 1));
            }
            await_parked(&set, WORKERS);
            assert_eq!(set.doorbell.wakeups.load(Ordering::SeqCst), 5);
            set.shutdown();
            for worker in pool {
                worker.join().unwrap();
            }
        });
    }

    #[test]
    fn a_push_below_a_full_batch_rings_but_wakes_nobody() {
        watchdog(|| {
            let set = Arc::new(test_set(2, 8, 64));
            let (pool, claims, release) = spawn_holding(&set, 2);
            let wakeups = || set.doorbell.wakeups.load(Ordering::SeqCst);
            await_parked(&set, 2);
            push_one(&set, 0);
            assert_eq!(claims.recv().unwrap(), (0, vec![0]), "worker 0 is held");
            await_parked(&set, 1);
            let (woken, version) = (wakeups(), set.doorbell.version());
            push_one(&set, 1);
            assert!(set.doorbell.version() > version, "the push rings");
            assert!(is_parked(&set, 1), "worker 1 stays parked");
            assert_eq!(set.doorbell.parked.load(Ordering::SeqCst), 1);
            assert_eq!(wakeups(), woken, "nobody woke");
            release.send(()).unwrap();
            assert_eq!(claims.recv().unwrap(), (0, vec![1]), "worker 0 came back");
            await_parked(&set, 2);
            assert_eq!(wakeups(), woken, "worker 1 slept through");
            set.shutdown();
            for worker in pool {
                worker.join().unwrap();
            }
        });
    }

    #[test]
    fn crossing_a_full_batch_wakes_the_lowest_parked_worker_alone() {
        watchdog(|| {
            const MAX_BATCH: usize = 4;
            let set = Arc::new(test_set(2, MAX_BATCH, 64));
            let (pool, claims, release) = spawn_holding(&set, 3);
            let wakeups = || set.doorbell.wakeups.load(Ordering::SeqCst);
            await_parked(&set, 3);
            push_one(&set, 0);
            assert_eq!(claims.recv().unwrap(), (0, vec![0]), "worker 0 is held");
            await_parked(&set, 2);
            let woken = wakeups();
            // one job short of a full batch: nobody wakes
            for id in 1..MAX_BATCH as u64 {
                push_one(&set, id);
                assert!(is_parked(&set, 1) && is_parked(&set, 2), "after job {id}");
            }
            // the job that completes the batch wakes worker 1, not 2
            push_one(&set, MAX_BATCH as u64);
            assert!(is_parked(&set, 2), "worker 2 stays parked");
            assert_eq!(
                claims.recv().unwrap(),
                (1, (1..=MAX_BATCH as u64).collect())
            );
            await_parked(&set, 2);
            assert_eq!(wakeups(), woken + 1, "exactly one worker woke");
            assert!(is_parked(&set, 2));
            release.send(()).unwrap();
            await_parked(&set, 3);
            set.shutdown();
            for worker in pool {
                worker.join().unwrap();
            }
        });
    }

    mod wake_property {
        use super::super::wakes;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

            /// The wake rule, driven directly: it never wakes without a
            /// parked worker, always wakes one when every live worker is
            /// parked, and otherwise wakes one iff a full batch is queued
            /// — so a skipped wake always leaves a live worker awake, and
            /// more queued work never turns a wake into a skip.
            #[test]
            fn wakes_only_to_keep_work_seen_or_to_add_a_worker_for_a_full_batch(
                live in 0usize..=8,
                parked in 0usize..=8,
                queued in 0u64..=4_000,
                threshold in 1u64..=2_000,
            ) {
                let woke = wakes(parked, live, queued, threshold);
                if parked == 0 {
                    prop_assert!(!woke, "nobody to wake");
                } else if parked >= live {
                    prop_assert!(woke, "every live worker is parked");
                } else {
                    prop_assert_eq!(woke, queued >= threshold);
                }
                prop_assert!(woke || parked == 0 || parked < live);
                prop_assert!(!woke || wakes(parked, live, queued + 1, threshold));
            }
        }
    }

    mod edf_property {
        use super::super::{select_lane, LaneView, NONE_NS};
        use proptest::collection;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

            /// Dispatch is work-conserving and EDF, driven directly on the
            /// pure selector: a lane is picked iff some lane is non-empty,
            /// the pick is the `(deadline, oldest, index)` minimum over the
            /// non-empty lanes, and so no non-empty lane whose deadline has
            /// expired loses to one whose deadline lies strictly later.
            #[test]
            fn select_lane_picks_the_edf_minimum_of_the_non_empty_lanes(
                now_ns in 100_000u64..=10_000_000,
                // (depth, oldest_ns, deadline tag, deadline): tag 0 means
                // deadline-free; deadlines range from long expired to far
                // past `now`
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
                let pick = select_lane(&views);
                prop_assert_eq!(pick.is_some(), views.iter().any(|v| v.depth > 0));
                let Some(chosen) = pick else {
                    return Ok(());
                };
                let c = &views[chosen];
                prop_assert!(c.depth > 0, "chosen lane must be non-empty: {c:?}");
                let urgency = |i: usize, v: &LaneView| (v.earliest_deadline_ns, v.oldest_ns, i);
                for (i, v) in views.iter().enumerate() {
                    if i == chosen || v.depth == 0 {
                        continue;
                    }
                    prop_assert!(
                        urgency(chosen, c) < urgency(i, v),
                        "lane {} ({:?}) is more urgent than chosen lane {} ({:?})",
                        i, v, chosen, c
                    );
                    prop_assert!(
                        !(v.earliest_deadline_ns <= now_ns
                            && v.earliest_deadline_ns < c.earliest_deadline_ns),
                        "lane {} ({:?}) has an expired earlier deadline than \
                         chosen lane {} ({:?}) at now={}",
                        i, v, chosen, c, now_ns
                    );
                }
            }
        }
    }
}

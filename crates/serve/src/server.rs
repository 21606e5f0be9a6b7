//! The serving engine: worker pool, deadline math, session table, admission
//! control, and the sharded-lane dispatch loop.

use std::cmp::Reverse;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use stepping_core::batch::{ActivationCache, BatchExecutor};
use stepping_core::events::{event, phase};
use stepping_core::telemetry::{self, SpanGuard, Value};
use stepping_core::{CompiledModel, ExpandStep, MacTable, Result, SteppingError, SteppingNet};
use stepping_metrics::{elapsed_ns, start_timer, MetricsRegistry, SnapshotWriter};
use stepping_runtime::{DeviceModel, Policy, UpgradePolicy};
use stepping_tensor::Tensor;

use crate::admission::{AdmissionError, ServeError};
use crate::config::{ServeConfig, ShedPolicy};
use crate::lane::{BatchKey, Job, LaneSet, Refused, Work};
use crate::request::{Outcome, Request, Response, TargetSpec, Ticket};
use crate::stats::{ServerStats, StatsInner};

/// Retained per-request state between an initial run and later upgrades.
#[derive(Debug)]
struct SessionEntry {
    /// The cached levels an upgrade steps from; `None` at the top subnet,
    /// which nothing steps up from (the server never contracts).
    cache: Option<ActivationCache>,
    /// Batch rows of the session's input.
    rows: usize,
    /// MACs charged to the session since its begin.
    total_macs: u64,
    last_subnet: usize,
    last_logits: Tensor,
}

impl SessionEntry {
    /// The state a served step leaves: `cache` is dropped here when the
    /// step reached the top subnet (`top`).
    fn new(cache: Option<ActivationCache>, step: ExpandStep, top: usize) -> Self {
        SessionEntry {
            cache: cache.filter(|_| step.subnet < top),
            rows: step.logits.shape().dims().first().copied().unwrap_or(0),
            total_macs: step.cumulative_macs,
            last_subnet: step.subnet,
            last_logits: step.logits,
        }
    }
}

/// One row of the session table.
#[derive(Debug)]
enum Slot {
    /// The session's cache is here, ready to be upgraded.
    Resident(SessionEntry),
    /// An upgrade job carries the cache; the slot stays so that a
    /// [`Server::release`] arriving meanwhile is remembered (`released`)
    /// and a second upgrade is told to wait instead of "unknown session".
    InFlight { released: bool },
}

/// State shared between the client-facing handle and the workers.
#[derive(Debug)]
struct Shared {
    lanes: LaneSet,
    device: DeviceModel,
    start_subnet: usize,
    shed_policy: ShedPolicy,
    /// The compiled model every worker's executor serves. Admission reads
    /// its MAC table — per sample, `direct()[k]` is what an initial run of
    /// subnet `k` pays, `step()[k]` what an upgrade pays for the level
    /// `k - 1 → k` over cached activations — and the executors charge from
    /// the same table, so admission and accounting cannot disagree. Its
    /// input shape (one sample, no batch dimension) is what `submit` holds
    /// requests to, before they can share a batch with well-formed ones.
    model: Arc<CompiledModel>,
    /// The anytime step rule over `model`'s incremental steps, which
    /// upgrade admission folds over a session's budget.
    policy: Policy,
    sessions: Mutex<HashMap<u64, Slot>>,
    next_id: AtomicU64,
    next_session: AtomicU64,
    /// Replica drain ([`Server::drain`]): new sessions are refused while
    /// queued work and upgrades of existing sessions keep flowing.
    draining: AtomicBool,
    stats: StatsInner,
    metrics: Arc<crate::metrics::ServeMetrics>,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Puts `session`'s new state in the table (a begin's first entry, or an
/// upgrade's result), or drops it when the session was released while its
/// upgrade ran.
fn settle(sessions: &mut HashMap<u64, Slot>, session: u64, entry: SessionEntry) {
    if matches!(
        sessions.get(&session),
        Some(Slot::InFlight { released: true })
    ) {
        sessions.remove(&session);
    } else {
        sessions.insert(session, Slot::Resident(entry));
    }
}

impl Shared {
    fn costs(&self) -> &MacTable {
        self.model.mac_table()
    }

    fn subnet_count(&self) -> usize {
        self.model.subnet_count()
    }

    /// The largest subnet.
    fn top(&self) -> usize {
        self.subnet_count() - 1
    }

    /// Largest subnet (≥ the configured start subnet) whose direct cost
    /// fits `mac_budget`; falls back to the start subnet (best effort).
    fn largest_direct_within(&self, mac_budget: u64) -> usize {
        let mut best = self.start_subnet;
        for k in self.start_subnet..self.subnet_count() {
            if self.costs().direct()[k] <= mac_budget {
                best = k;
            }
        }
        best
    }

    /// Largest subnet reachable from `cur` whose *incremental* cost fits
    /// `mac_budget`; `cur` itself if not even one step fits.
    fn largest_upgrade_within(&self, cur: usize, mac_budget: u64) -> usize {
        self.policy.reach(cur, mac_budget)
    }

    /// MACs a begin of `rows` samples at `subnet` multiplies.
    fn begin_macs(&self, rows: usize, subnet: usize) -> u64 {
        rows as u64 * self.costs().direct()[subnet]
    }

    /// MACs an upgrade of `rows` samples from level `from` to `to`
    /// multiplies.
    fn upgrade_macs(&self, rows: usize, from: usize, to: usize) -> u64 {
        rows as u64 * self.costs().step()[from + 1..=to].iter().sum::<u64>()
    }

    /// Ends `session`'s in-flight upgrade when its cache was lost with a
    /// failed job: the session is gone.
    fn forget(&self, session: u64) {
        lock(&self.sessions).remove(&session);
    }

    /// Absolute EDF deadline of a request submitted now with `budget_us`.
    /// `None` on no budget or a budget past the representable horizon.
    fn deadline_of(submitted: Instant, budget_us: Option<f64>) -> Option<Instant> {
        budget_us
            .and_then(|b| Duration::try_from_secs_f64(b / 1e6).ok())
            .and_then(|d| submitted.checked_add(d))
    }
}

/// A concurrent, deadline-aware inference server over one [`SteppingNet`].
///
/// `workers` threads share one immutable
/// [`CompiledModel`](stepping_core::CompiledModel) of the network — each
/// through its own executor and scratch buffers — and claim micro-batches
/// of *compatible* requests (same target subnet, or upgrades from the same
/// level) from sharded per-key batch lanes, running one batched pass per
/// claim, or per level an upgrade claim steps. Lane selection is earliest-deadline-first, so
/// budget-carrying requests are serviced before their deadlines expire
/// whenever possible. Because every kernel in the workspace computes batch
/// rows independently, each request's logits are **bit-identical** to
/// running it alone.
///
/// Admission control bounds every lane
/// ([`lane_capacity`](crate::ServeConfigBuilder::lane_capacity)); under
/// overload the configured [`ShedPolicy`] either downgrades a request to
/// the largest subnet whose lane still has room — the nested-subnet
/// property makes the cheaper answer free — or refuses it with a typed
/// [`AdmissionError`].
///
/// Every answered request leaves its answer in a session table, and below
/// the top subnet its activation cache too; [`upgrade`](Server::upgrade)
/// later steps it to a larger subnet paying only the newly added neurons
/// plus the new head — the paper's incremental property, applied per
/// request. A session at the top subnet keeps its logits and MACs alone:
/// nothing steps up from there, so its upgrades are cache hits.
///
/// # Example
///
/// ```
/// use stepping_core::SteppingNetBuilder;
/// use stepping_runtime::{DeviceModel, SessionConfig};
/// use stepping_serve::{Request, ServeConfig, Server};
/// use stepping_tensor::{Shape, Tensor};
///
/// let mut net = SteppingNetBuilder::new(Shape::of(&[4]), 2, 0)
///     .linear(6).relu().build(3)?;
/// net.move_neuron(0, 5, 1)?;
/// let config = ServeConfig::builder()
///     .workers(2)
///     .session(SessionConfig::new().device(DeviceModel::mobile()))
///     .build();
/// let server = Server::new(&net, config)?;
/// let ticket = server.submit(Request::full(Tensor::ones(Shape::of(&[1, 4]))))?;
/// let response = ticket.wait()?;
/// assert_eq!(response.subnet, 1); // the largest of the 2 subnets
/// server.shutdown();
/// # Ok::<(), stepping_core::SteppingError>(())
/// ```
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Background metrics snapshot thread, when configured
    /// (`ServeConfigBuilder::metrics_snapshot`); stopped on shutdown.
    snapshot_writer: Mutex<Option<SnapshotWriter>>,
}

impl Server {
    /// Compiles `net` once at the session's prune threshold
    /// ([`SteppingNet::compile`]; a slot read when `net` was already
    /// compiled, as for every replica of a `Router::launch` after the
    /// first), spawns the worker pool — each worker gets an executor
    /// holding the same `Arc` of the model, nothing is cloned — and starts
    /// accepting requests. The server serves `net` as it is now; later
    /// mutations of it are not seen.
    ///
    /// # Errors
    ///
    /// Returns [`SteppingError::BadConfig`] for zero workers, a zero
    /// `max_batch` or a missing device model,
    /// [`SteppingError::SubnetOutOfRange`] for an out-of-range start
    /// subnet, and [`SteppingError::InvalidStructure`] for a net that is
    /// not [level-major](SteppingNet::is_level_major) (a move without
    /// [`SteppingNet::sync_assignments`]), which cannot be compiled.
    pub fn new(net: &SteppingNet, config: ServeConfig) -> Result<Server> {
        if config.get_workers() == 0 {
            return Err(SteppingError::BadConfig(
                "server needs at least one worker".into(),
            ));
        }
        if config.get_max_batch() == 0 {
            return Err(SteppingError::BadConfig(
                "max_batch must be at least 1".into(),
            ));
        }
        let session = config.get_session();
        let device = session.get_device().ok_or_else(|| {
            SteppingError::BadConfig(
                "serving needs a device model; set SessionConfig::device".into(),
            )
        })?;
        let thr = session.get_prune_threshold();
        let start = session.get_start_subnet();
        let subnets = net.subnet_count();
        if start >= subnets {
            return Err(SteppingError::SubnetOutOfRange {
                subnet: start,
                count: subnets,
            });
        }
        if !net.is_level_major() {
            return Err(SteppingError::InvalidStructure(
                "a masked stage is not level-major: call sync_assignments() before serving".into(),
            ));
        }
        let registry = MetricsRegistry::global();
        let metrics = Arc::new(crate::metrics::ServeMetrics::new(
            &registry,
            config.get_workers(),
            subnets,
        ));
        let snapshot_writer = match config.get_metrics_snapshot() {
            Some(path) if stepping_metrics::enabled() => Some(
                SnapshotWriter::spawn(registry, path, config.get_metrics_interval()).map_err(
                    |e| {
                        SteppingError::BadConfig(format!(
                            "cannot open metrics snapshot file {}: {e}",
                            path.display()
                        ))
                    },
                )?,
            ),
            _ => None,
        };
        let model = net.compile(thr);
        // a full batch at the top subnet: the queued work at which a ring
        // wakes a parked worker while another is awake
        let full_batch =
            (config.get_max_batch() as u64).saturating_mul(model.mac_table().direct()[subnets - 1]);
        let policy = Policy::new(model.mac_table(), UpgradePolicy::Incremental, start, None)?;
        let shared = Arc::new(Shared {
            lanes: LaneSet::new(
                subnets,
                config.get_max_batch(),
                config.get_lane_capacity(),
                config.get_workers(),
                full_batch,
                Arc::clone(&metrics),
            ),
            device,
            start_subnet: start,
            shed_policy: config.get_shed_policy(),
            model,
            policy,
            sessions: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(0),
            next_session: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            stats: StatsInner::default(),
            metrics,
        });
        let workers = (0..config.get_workers())
            .map(|worker| {
                let shared = Arc::clone(&shared);
                // a slot read: the model `shared` holds
                let exec = BatchExecutor::new(net, thr);
                std::thread::spawn(move || worker_loop(shared, exec, worker))
            })
            .collect();
        Ok(Server {
            shared,
            workers: Mutex::new(workers),
            snapshot_writer: Mutex::new(snapshot_writer),
        })
    }

    /// Submits a request; returns immediately with a [`Ticket`].
    ///
    /// The target subnet is resolved now: for a budget request, the largest
    /// subnet whose modeled latency
    /// ([`DeviceModel::budget_for_us`]) covers its direct MAC cost, floored
    /// at the configured start subnet (best effort when nothing fits). If
    /// that subnet's lane is full, [`ShedPolicy::Downgrade`] steps budget
    /// and full requests down toward the start subnet until a lane has
    /// room — the response then reports
    /// [`Outcome::Degraded`](crate::Outcome::Degraded).
    ///
    /// # Errors
    ///
    /// [`ServeError::Admission`] with [`AdmissionError::QueueFull`] when no
    /// admissible lane has room (always, for subnet-pinned requests under
    /// load, and for everything under [`ShedPolicy::Reject`]) or
    /// [`AdmissionError::ShuttingDown`] after
    /// [`shutdown`](Server::shutdown); [`ServeError::Invalid`] for an
    /// out-of-range subnet, a non-positive budget, an input without batch
    /// rows or of the wrong sample shape, or one holding a NaN or infinite
    /// value.
    pub fn submit(&self, request: Request) -> std::result::Result<Ticket, ServeError> {
        // admission phase = resolve target + enqueue; rejected requests are
        // not recorded (cancel), so the series measures accepted work only
        let timer = start_timer(&self.shared.metrics.admission_ns);
        let result = self.submit_inner(request);
        match &result {
            Ok(_) => {
                timer.stop();
            }
            Err(_) => timer.cancel(),
        }
        result
    }

    fn submit_inner(&self, request: Request) -> std::result::Result<Ticket, ServeError> {
        // a draining replica serves what it already owns but starts nothing
        // new — the front door routes fresh sessions to another replica
        if self.shared.draining.load(Ordering::SeqCst) {
            return Err(AdmissionError::Draining.into());
        }
        let (subnet, budget_us) = self.resolve_begin(request.target)?;
        let dims = request.input.shape().dims();
        if dims.is_empty() || dims[0] == 0 {
            return Err(SteppingError::BadConfig(
                "request input must have at least one batch row".into(),
            )
            .into());
        }
        if dims[1..] != *self.shared.model.input_shape().dims() {
            return Err(SteppingError::InvalidStructure(format!(
                "request input {} does not hold samples of shape {}",
                request.input.shape(),
                self.shared.model.input_shape()
            ))
            .into());
        }
        // a NaN or infinite row would get a session, cache poisoned
        // activations, and charge every later upgrade MACs for garbage
        if !request.input.is_finite() {
            return Err(SteppingError::InvalidStructure(
                "request input holds a non-finite value (NaN or infinity)".into(),
            )
            .into());
        }
        // only elastic targets may be downgraded; a pinned subnet is a
        // contract, so its full lane rejects instead
        let downgradable = self.shared.shed_policy == ShedPolicy::Downgrade
            && matches!(request.target, TargetSpec::BudgetUs(_) | TargetSpec::Full);
        let rows = dims[0];
        let submitted = Instant::now();
        let (tx, rx) = mpsc::channel();
        let mut job = Job {
            id: self.shared.next_id.fetch_add(1, Ordering::Relaxed),
            work: Work::Begin {
                input: request.input,
                subnet,
            },
            requested: subnet,
            budget_us,
            deadline: Shared::deadline_of(submitted, budget_us),
            submitted,
            reply: tx,
            macs: self.shared.begin_macs(rows, subnet),
        };
        // admitted is counted before the push so a worker can never answer
        // (bumping `requests`) before the admission is visible; a refused
        // push takes the count back
        self.shared.stats.record_admitted(1);
        loop {
            match self.shared.lanes.push(job) {
                Ok(()) => break,
                Err(Refused::Draining(_)) => {
                    self.shared.stats.record_admission_rejected(1);
                    return Err(AdmissionError::ShuttingDown.into());
                }
                Err(Refused::Full {
                    job: returned,
                    depth,
                    capacity,
                }) => {
                    job = *returned;
                    if let Work::Begin { subnet, .. } = &mut job.work {
                        if downgradable && *subnet > self.shared.start_subnet {
                            *subnet -= 1;
                            job.macs = self.shared.begin_macs(rows, *subnet);
                            continue;
                        }
                    }
                    self.shared.stats.record_rejected(1);
                    self.shared.metrics.rejected.inc();
                    return Err(AdmissionError::QueueFull { depth, capacity }.into());
                }
            }
        }
        self.shared.metrics.admitted.inc();
        Ok(Ticket { rx })
    }

    /// Upgrades an answered request to a larger subnet, reusing its cached
    /// activations: with `extra_budget_us` the largest subnet whose
    /// *incremental* cost fits the extra budget is chosen; with `None` the
    /// largest subnet. If not even one step is affordable, the cached
    /// prediction is returned immediately with zero new MACs
    /// ([`Outcome::CacheHit`](crate::Outcome::CacheHit), `batch_size == 0`,
    /// `cache_reuse == 1.0`). Every upgrade from one level shares that
    /// level's lane, whatever its target; when that lane is full,
    /// [`ShedPolicy::Downgrade`] sheds to a synchronous cache answer
    /// ([`Outcome::Shed`](crate::Outcome::Shed)) — the session stays
    /// upgradeable later either way.
    ///
    /// # Errors
    ///
    /// [`ServeError::Invalid`] for an unknown session or a non-positive
    /// budget; [`ServeError::UpgradeInFlight`] while the session's previous
    /// upgrade has not resolved; [`ServeError::Admission`] when shutting
    /// down, or when the lane is full under [`ShedPolicy::Reject`].
    pub fn upgrade(
        &self,
        session: u64,
        extra_budget_us: Option<f64>,
    ) -> std::result::Result<Ticket, ServeError> {
        let timer = start_timer(&self.shared.metrics.admission_ns);
        let result = self.upgrade_inner(session, extra_budget_us);
        match &result {
            Ok(_) => {
                timer.stop();
            }
            Err(_) => timer.cancel(),
        }
        result
    }

    fn upgrade_inner(
        &self,
        session: u64,
        extra_budget_us: Option<f64>,
    ) -> std::result::Result<Ticket, ServeError> {
        if let Some(b) = extra_budget_us {
            if !(b.is_finite() && b > 0.0) {
                return Err(SteppingError::BadConfig(format!(
                    "budget {b} must be positive finite microseconds"
                ))
                .into());
            }
        }
        let mut entry = {
            let mut sessions = lock(&self.shared.sessions);
            let Some(slot) = sessions.get_mut(&session) else {
                return Err(SteppingError::BadConfig(format!("unknown session {session}")).into());
            };
            match std::mem::replace(slot, Slot::InFlight { released: false }) {
                Slot::Resident(entry) => entry,
                in_flight @ Slot::InFlight { .. } => {
                    // keep the running upgrade's marker as it was
                    *slot = in_flight;
                    return Err(ServeError::UpgradeInFlight { session });
                }
            }
        };
        let cur = entry.last_subnet;
        let target = match extra_budget_us {
            None => self.shared.top(),
            Some(b) => self
                .shared
                .largest_upgrade_within(cur, self.shared.device.budget_for_us(b)),
        };
        let (tx, rx) = mpsc::channel();
        // only a session below the top holds a cache, and only one below
        // the top has a level above it
        let cache = match entry.cache.take() {
            Some(cache) if target > cur => cache,
            kept => {
                entry.cache = kept;
                // nothing affordable (or already at the top): answer from
                // the session's last answer
                let response = self.cached_response(session, &entry, Outcome::CacheHit);
                self.shared.stats.record_admitted(1);
                self.shared.stats.record_cache_hit();
                self.shared.metrics.admitted.inc();
                self.shared.metrics.cache_hit.inc();
                self.shared.metrics.completed.inc();
                telemetry::point(
                    phase::SERVING,
                    event::SERVE_CACHE_HIT,
                    &[
                        ("session", Value::U64(session)),
                        ("subnet", Value::U64(cur as u64)),
                    ],
                );
                settle(&mut lock(&self.shared.sessions), session, entry);
                let _ = tx.send(Ok(response));
                return Ok(Ticket { rx });
            }
        };
        let submitted = Instant::now();
        let job = Job {
            id: self.shared.next_id.fetch_add(1, Ordering::Relaxed),
            macs: self.shared.upgrade_macs(entry.rows, cur, target),
            work: Work::Upgrade {
                session,
                cache,
                from: cur,
            },
            requested: target,
            budget_us: extra_budget_us,
            deadline: Shared::deadline_of(submitted, extra_budget_us),
            submitted,
            reply: tx,
        };
        self.shared.stats.record_admitted(1);
        let (returned, depth, capacity) = match self.shared.lanes.push(job) {
            Ok(()) => {
                self.shared.metrics.admitted.inc();
                return Ok(Ticket { rx });
            }
            Err(Refused::Draining(returned)) => {
                self.shared.stats.record_admission_rejected(1);
                self.reinstall(session, *returned, entry);
                return Err(AdmissionError::ShuttingDown.into());
            }
            Err(Refused::Full {
                job,
                depth,
                capacity,
            }) => (job, depth, capacity),
        };
        // the one lane of level `cur` is full
        let (id, reply) = (returned.id, returned.reply.clone());
        self.reinstall(session, *returned, entry);
        if self.shared.shed_policy == ShedPolicy::Downgrade {
            // shed to the cache — the nested-subnet property means the
            // session's current level is still a correct answer
            let shed = match lock(&self.shared.sessions).get(&session) {
                Some(Slot::Resident(e)) => {
                    let mut r = self.cached_response(session, e, Outcome::Shed);
                    r.id = id;
                    r.latency_us = submitted.elapsed().as_secs_f64() * 1e6;
                    Some(r)
                }
                _ => None,
            };
            if let Some(response) = shed {
                self.shared.stats.record_shed();
                self.shared.metrics.shed.inc();
                self.shared.metrics.completed.inc();
                telemetry::point(
                    phase::SERVING,
                    event::SERVE_SHED,
                    &[
                        ("session", Value::U64(session)),
                        ("subnet", Value::U64(cur as u64)),
                        ("requested", Value::U64(target as u64)),
                    ],
                );
                let _ = reply.send(Ok(response));
                return Ok(Ticket { rx });
            }
            // the session vanished while shedding (concurrent release):
            // report the staler but honest refusal
        }
        self.shared.stats.record_rejected(1);
        self.shared.metrics.rejected.inc();
        Err(AdmissionError::QueueFull { depth, capacity }.into())
    }

    /// Puts a refused upgrade job's cache back into the session's `entry`
    /// and the entry into the table, so the session survives the refusal
    /// (unless it was released meanwhile).
    fn reinstall(&self, session: u64, job: Job, mut entry: SessionEntry) {
        if let Work::Upgrade { cache, .. } = job.work {
            entry.cache = Some(cache);
            settle(&mut lock(&self.shared.sessions), session, entry);
        }
    }

    /// A compute-free response carrying the session's cached prediction.
    fn cached_response(&self, session: u64, entry: &SessionEntry, outcome: Outcome) -> Response {
        Response {
            id: self.shared.next_id.fetch_add(1, Ordering::Relaxed),
            session,
            subnet: entry.last_subnet,
            logits: entry.last_logits.clone(),
            step_macs: 0,
            total_macs: entry.total_macs,
            modeled_latency_us: 0.0,
            latency_us: 0.0,
            outcome,
            batch_size: 0,
            cache_reuse: 1.0,
        }
    }

    /// Starts draining this replica: new sessions
    /// ([`submit`](Server::submit)) are refused with
    /// [`AdmissionError::Draining`], while queued work and
    /// [`upgrade`](Server::upgrade)s of existing sessions — whose
    /// activation caches live here and nowhere else — keep being served.
    /// A front door migrates fresh traffic to other replicas and calls
    /// [`shutdown`](Server::shutdown) once
    /// [`session_count`](Server::session_count) reaches zero. Idempotent.
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// Whether [`drain`](Server::drain) has been called.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Forgets a session, freeing its answer and activation cache. A
    /// session whose upgrade is in flight is forgotten when that upgrade
    /// completes — its ticket still resolves. Unknown sessions are ignored.
    pub fn release(&self, session: u64) {
        let mut sessions = lock(&self.shared.sessions);
        match sessions.get_mut(&session) {
            Some(Slot::InFlight { released }) => *released = true,
            Some(Slot::Resident(_)) => {
                sessions.remove(&session);
            }
            None => {}
        }
    }

    /// Number of sessions currently retained in the table. A session whose
    /// upgrade is in flight travels with the job and is counted again once
    /// the upgrade completes — unless it was released meanwhile.
    pub fn session_count(&self) -> usize {
        lock(&self.shared.sessions)
            .values()
            .filter(|slot| matches!(slot, Slot::Resident(_)))
            .count()
    }

    /// Per-sample direct MAC cost of each subnet (index = subnet).
    pub fn subnet_costs(&self) -> &[u64] {
        self.shared.costs().direct()
    }

    /// Aggregate serving statistics so far.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats.snapshot()
    }

    /// Test hold: requests are still admitted and queued, but no worker
    /// claims any until [`resume`](Server::resume) or
    /// [`shutdown`](Server::shutdown) (which drains them). Not a
    /// scheduling policy — it lets tests fill lanes and batches
    /// deterministically. Every parked worker wakes to see the hold; one
    /// that finds queued jobs takes that lane's lock, leaves them and
    /// parks again, so pausing a held server once more has every worker
    /// look at what queued meanwhile.
    #[doc(hidden)]
    pub fn pause(&self) {
        self.shared.lanes.pause();
    }

    /// Lifts [`pause`](Server::pause): the workers claim what queued
    /// meanwhile.
    #[doc(hidden)]
    pub fn resume(&self) {
        self.shared.lanes.resume();
    }

    /// Graceful shutdown: stops accepting requests, drains every lane
    /// (every queued request is still answered), and joins the workers.
    /// Idempotent.
    pub fn shutdown(&self) {
        self.shared.lanes.shutdown();
        let handles: Vec<JoinHandle<()>> = lock(&self.workers).drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
        // stop the snapshot writer last so its final line sees the drained
        // lanes; write errors surface nowhere better than stderr here
        if let Some(writer) = lock(&self.snapshot_writer).take() {
            if let Err(e) = writer.stop() {
                eprintln!("stepping-serve: metrics snapshot writer failed: {e}");
            }
        }
    }

    fn resolve_begin(&self, target: TargetSpec) -> Result<(usize, Option<f64>)> {
        let n = self.shared.subnet_count();
        match target {
            TargetSpec::Full => Ok((n - 1, None)),
            TargetSpec::Subnet(k) => {
                if k >= n {
                    Err(SteppingError::SubnetOutOfRange {
                        subnet: k,
                        count: n,
                    })
                } else {
                    Ok((k, None))
                }
            }
            TargetSpec::BudgetUs(b) => {
                if !(b.is_finite() && b > 0.0) {
                    return Err(SteppingError::BadConfig(format!(
                        "budget {b} must be positive finite microseconds"
                    )));
                }
                let mac_budget = self.shared.device.budget_for_us(b);
                Ok((self.shared.largest_direct_within(mac_budget), Some(b)))
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serves batches with `exec` — this worker's handle on the shared compiled
/// model and its private scratch — until the lanes shut down.
fn worker_loop(shared: Arc<Shared>, mut exec: BatchExecutor, worker: usize) {
    let _shift = shared.lanes.clock_in();
    let mut lane_views = Vec::new();
    let mut batch = Vec::new();
    while let Some(key) = shared.lanes.take_batch(worker, &mut lane_views, &mut batch) {
        let busy_start = stepping_metrics::enabled().then(Instant::now);
        if let Some(occupancy) = shared.metrics.occupancy(key) {
            occupancy.record(batch.len() as u64);
        }
        match key {
            BatchKey::Begin { subnet } => run_begin_batch(&shared, &mut exec, &mut batch, subnet),
            BatchKey::Upgrade { from } => run_upgrade_batch(&shared, &mut exec, &mut batch, from),
        }
        if let Some(start) = busy_start {
            shared.metrics.worker(worker).busy_ns.add(elapsed_ns(start));
        }
    }
}

/// What a batch keeps of a job once its payload (input tensor or
/// activation cache) has moved into the pass: what the reply needs.
struct Waiting {
    id: u64,
    requested: usize,
    budget_us: Option<f64>,
    submitted: Instant,
    reply: mpsc::Sender<Result<Response>>,
}

/// Splits a claimed job into its payload and what its reply needs.
fn split(job: Job) -> (Work, Waiting) {
    let Job {
        id,
        work,
        requested,
        budget_us,
        submitted,
        reply,
        ..
    } = job;
    let waiting = Waiting {
        id,
        requested,
        budget_us,
        submitted,
        reply,
    };
    (work, waiting)
}

fn respond_error(waiting: Vec<Waiting>, err: SteppingError) {
    for w in waiting {
        let _ = w.reply.send(Err(err.clone()));
    }
}

/// The outcome of serving `job` at `served`, and whether it missed its
/// budget: below-request service is a degradation even within budget, and
/// a blown budget degrades even at the requested subnet.
fn outcome_of(
    requested: usize,
    served: usize,
    budget_us: Option<f64>,
    modeled: f64,
) -> (Outcome, bool) {
    let miss = budget_us.is_some_and(|b| modeled > b);
    if served < requested || miss {
        (Outcome::Degraded { requested, served }, miss)
    } else {
        (Outcome::Met, false)
    }
}

/// Runs one claimed begin batch and answers it; `jobs` is left empty.
fn run_begin_batch(shared: &Shared, exec: &mut BatchExecutor, jobs: &mut Vec<Job>, subnet: usize) {
    let span = telemetry::span(phase::SERVING, event::SERVE_BATCH);
    let mut inputs = Vec::with_capacity(jobs.len());
    let mut waiting = Vec::with_capacity(jobs.len());
    for job in jobs.drain(..) {
        match split(job) {
            // the input tensor moves into the pass, it is not copied
            (Work::Begin { input, .. }, w) => {
                inputs.push(input);
                waiting.push(w);
            }
            // A mis-keyed job can't run in this batch; answer it with an
            // error instead of poisoning the whole batch. Its cache is
            // lost with it, so the session ends.
            (Work::Upgrade { session, .. }, w) => {
                shared.forget(session);
                let _ = w.reply.send(Err(SteppingError::ExecutorState(
                    "upgrade job routed to a begin batch".into(),
                )));
            }
        }
    }
    let forward_timer = start_timer(&shared.metrics.forward_ns);
    // a session at the top subnet keeps no levels: nothing steps from it
    let forward: Result<Vec<(Option<ActivationCache>, ExpandStep)>> = if subnet == shared.top() {
        exec.forward(&inputs, subnet)
            .map(|steps| steps.into_iter().map(|step| (None, step)).collect())
    } else {
        exec.begin(&inputs, subnet).map(|results| {
            results
                .into_iter()
                .map(|(cache, step)| (Some(cache), step))
                .collect()
        })
    };
    forward_timer.stop();
    match forward {
        Ok(results) => {
            let rows = waiting.into_iter().zip(results).map(|(w, (cache, step))| {
                let session = shared.next_session.fetch_add(1, Ordering::Relaxed);
                let step_macs = step.step_macs;
                (w, session, cache, step, step_macs)
            });
            answer(shared, span, BatchKey::Begin { subnet }, rows);
        }
        Err(e) => {
            span.end(&[("error", Value::Bool(true))]);
            respond_error(waiting, e);
        }
    }
}

/// Runs one claimed upgrade batch from level `from` and answers it; `jobs`
/// is left empty.
///
/// The rows may target different levels. Sorted highest target first, the
/// rows still short of level `k` are a prefix, and step `k` runs one pass
/// over that prefix: rows share every step they both take, and each keeps
/// the step of its own target.
fn run_upgrade_batch(shared: &Shared, exec: &mut BatchExecutor, jobs: &mut Vec<Job>, from: usize) {
    let span = telemetry::span(phase::SERVING, event::SERVE_BATCH);
    jobs.sort_unstable_by_key(|job| Reverse(job.requested));
    // each session with what it had spent before this batch
    let mut sessions = Vec::with_capacity(jobs.len());
    let mut caches = Vec::with_capacity(jobs.len());
    let mut waiting = Vec::with_capacity(jobs.len());
    for job in jobs.drain(..) {
        match split(job) {
            (Work::Upgrade { session, cache, .. }, w) => {
                sessions.push((session, cache.cumulative_macs()));
                caches.push(cache);
                waiting.push(w);
            }
            // A mis-keyed job can't run in this batch; answer it with an
            // error instead of poisoning the whole batch.
            (Work::Begin { .. }, w) => {
                let _ = w.reply.send(Err(SteppingError::ExecutorState(
                    "begin job routed to an upgrade batch".into(),
                )));
            }
        }
    }
    let top = waiting.first().map_or(from, |w| w.requested);
    let mut steps = Vec::new();
    let forward_timer = start_timer(&shared.metrics.forward_ns);
    for k in from + 1..=top {
        let rows = waiting.partition_point(|w| w.requested >= k);
        match exec.expand(&mut caches[..rows]) {
            Ok(fresh) if steps.is_empty() => steps = fresh,
            // rows past the prefix keep the step of their own target
            Ok(fresh) => {
                steps.splice(..rows, fresh);
            }
            Err(e) => {
                forward_timer.stop();
                span.end(&[("error", Value::Bool(true))]);
                // the caches are in an unknown state: the sessions end
                sessions.into_iter().for_each(|(s, _)| shared.forget(s));
                respond_error(waiting, e);
                return;
            }
        }
    }
    forward_timer.stop();
    let rows = waiting
        .into_iter()
        .zip(sessions)
        .zip(caches)
        .zip(steps)
        .map(|(((w, (session, spent)), cache), step)| {
            let step_macs = cache.cumulative_macs() - spent;
            (w, session, Some(cache), step, step_macs)
        });
    answer(shared, span, BatchKey::Upgrade { from }, rows);
}

/// One served row: what its reply needs, its session, the session's new
/// cache (none from a pass that keeps no levels), the step that answered
/// it and the MACs this batch spent on it.
type Row = (Waiting, u64, Option<ActivationCache>, ExpandStep, u64);

/// Answers a served batch, begin or upgrade alike: builds every response,
/// puts each session's new state into the table — dropping, before the
/// table is locked, the cache of every row whose step reached the top
/// subnet — books the batch, then sends the replies: stats and sessions
/// are visible before any reply is.
fn answer(
    shared: &Shared,
    span: SpanGuard,
    key: BatchKey,
    rows: impl ExactSizeIterator<Item = Row>,
) {
    let batch_size = rows.len();
    let mut batch_macs = 0u64;
    let mut misses = 0u64;
    let mut degraded = 0u64;
    let mut outbox = Vec::with_capacity(batch_size);
    for (job, session, cache, step, step_macs) in rows {
        let modeled = shared.device.latency_us(step_macs);
        let (outcome, miss) = outcome_of(job.requested, step.subnet, job.budget_us, modeled);
        misses += u64::from(miss);
        degraded += u64::from(step.subnet < job.requested);
        batch_macs += step_macs;
        let total = step.cumulative_macs;
        let response = Response {
            id: job.id,
            session,
            subnet: step.subnet,
            logits: step.logits.clone(),
            step_macs,
            total_macs: total,
            modeled_latency_us: modeled,
            latency_us: job.submitted.elapsed().as_secs_f64() * 1e6,
            outcome,
            batch_size,
            // exactly 0 for a begin, whose step is all it has spent
            cache_reuse: if total == 0 {
                0.0
            } else {
                1.0 - step_macs as f64 / total as f64
            },
        };
        let entry = SessionEntry::new(cache, step, shared.top());
        outbox.push((job.reply, response, Some(entry)));
    }
    // one table lock for the batch, held for the table updates alone: into
    // the table — or dropped, if released while its upgrade was in flight
    let mut sessions = lock(&shared.sessions);
    for (_, response, entry) in &mut outbox {
        if let Some(entry) = entry.take() {
            settle(&mut sessions, response.session, entry);
        }
    }
    drop(sessions);
    shared
        .stats
        .record_batch(batch_size as u64, batch_macs, misses, degraded);
    shared.metrics.deadline_miss.add(misses);
    shared.metrics.degraded.add(degraded);
    shared.metrics.completed.add(batch_size as u64);
    let reply_timer = start_timer(&shared.metrics.reply_ns);
    for (reply, response, _) in outbox {
        let _ = reply.send(Ok(response));
    }
    reply_timer.stop();
    let (kind, level) = match key {
        BatchKey::Begin { subnet } => ("begin", ("subnet", subnet)),
        BatchKey::Upgrade { from } => ("upgrade", ("from", from)),
    };
    span.end(&[
        ("kind", Value::Str(kind)),
        ("batch", Value::U64(batch_size as u64)),
        (level.0, Value::U64(level.1 as u64)),
        ("macs", Value::U64(batch_macs)),
    ]);
}

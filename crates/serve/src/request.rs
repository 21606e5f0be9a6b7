//! Client-facing request/response types and the [`Ticket`] future.

use std::sync::mpsc;
use std::time::Duration;

use stepping_core::{Result, SteppingError};
use stepping_tensor::Tensor;

/// How far a request wants the stepping network driven.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum TargetSpec {
    /// Run the largest subnet whose modeled latency fits in this many
    /// microseconds (best-effort smallest subnet if none fits).
    BudgetUs(f64),
    /// Run exactly this subnet.
    Subnet(usize),
    /// Run the largest subnet.
    Full,
}

/// One inference request: an input sample (or batch of rows) plus a target
/// specification.
#[derive(Debug, Clone)]
pub struct Request {
    pub(crate) input: Tensor,
    pub(crate) target: TargetSpec,
}

impl Request {
    /// A deadline-driven request: the server picks the largest subnet whose
    /// modeled latency (via the configured
    /// [`DeviceModel`](stepping_runtime::DeviceModel)) fits within
    /// `budget_us` microseconds. If not even the smallest subnet fits, it
    /// runs best-effort and the response reports
    /// [`Outcome::Degraded`]. The budget also sets the request's absolute
    /// deadline for EDF lane scheduling.
    pub fn with_budget(input: Tensor, budget_us: f64) -> Self {
        Request {
            input,
            target: TargetSpec::BudgetUs(budget_us),
        }
    }

    /// A request pinned to an exact subnet. Pinned requests are never
    /// downgraded by admission control — a full lane rejects them instead.
    pub fn at_subnet(input: Tensor, subnet: usize) -> Self {
        Request {
            input,
            target: TargetSpec::Subnet(subnet),
        }
    }

    /// A request for the largest (most accurate) subnet.
    pub fn full(input: Tensor) -> Self {
        Request {
            input,
            target: TargetSpec::Full,
        }
    }
}

/// How a request was ultimately served, relative to what it asked for.
///
/// Replaces the old `deadline_met: bool`, which could not distinguish an
/// admission-control downgrade (the server chose a smaller subnet under
/// load) from a deadline miss (the requested subnet was served but its
/// modeled cost blew the budget) from a shed (no compute at all).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Served at the requested subnet, within the budget if one was set.
    Met,
    /// Served below the request. `served < requested` is an
    /// admission-control downgrade to the largest subnet that fit under
    /// load; `served == requested` means the subnet itself was served but
    /// its modeled cost exceeded the request's budget (the old
    /// `deadline_met == false`).
    Degraded {
        /// Subnet (or upgrade level) the request originally resolved to.
        requested: usize,
        /// Subnet (or upgrade level) actually served.
        served: usize,
    },
    /// Admission control shed the request entirely: an upgrade whose lanes
    /// were full was answered from its session cache without compute
    /// (`batch_size == 0`, `cache_reuse == 1.0`).
    Shed,
    /// An unaffordable upgrade answered synchronously from the session
    /// cache — the request's own budget, not load, made it free.
    CacheHit,
}

impl Outcome {
    /// Whether any compute was degraded or skipped relative to the request.
    pub fn is_degraded(&self) -> bool {
        matches!(self, Outcome::Degraded { .. } | Outcome::Shed)
    }
}

/// Outcome of one served request (an initial run or an upgrade).
#[derive(Debug, Clone)]
pub struct Response {
    /// Server-assigned request id.
    pub id: u64,
    /// Session handle for later [`Server::upgrade`](crate::Server::upgrade)
    /// calls; the request's activation cache is retained under this key.
    pub session: u64,
    /// Subnet whose prediction this response carries.
    pub subnet: usize,
    /// Logits of that subnet — bit-identical to running the request alone.
    pub logits: Tensor,
    /// MACs newly executed for this response (per sample).
    pub step_macs: u64,
    /// Cumulative MACs charged to the session across begin + upgrades.
    pub total_macs: u64,
    /// Device-modeled latency of `step_macs`.
    pub modeled_latency_us: f64,
    /// Measured wall-clock latency from submit to reply, in microseconds.
    pub latency_us: f64,
    /// How the request was served relative to what it asked for.
    pub outcome: Outcome,
    /// Number of requests fused into the batched pass that produced this
    /// response (1 = ran alone, 0 = answered from cache without compute).
    pub batch_size: usize,
    /// Fraction of the session's cumulative MACs that were reused from the
    /// cache rather than recomputed by this call (0 for an initial run).
    pub cache_reuse: f64,
}

impl Response {
    /// Predicted class (argmax over logits).
    pub fn prediction(&self) -> usize {
        self.logits.argmax()
    }
}

/// A pending response: returned by
/// [`Server::submit`](crate::Server::submit) /
/// [`Server::upgrade`](crate::Server::upgrade), redeemed with
/// [`wait`](Ticket::wait), polled with [`try_wait`](Ticket::try_wait), or
/// bounded-blocked with [`wait_timeout`](Ticket::wait_timeout).
#[derive(Debug)]
pub struct Ticket {
    pub(crate) rx: mpsc::Receiver<Result<Response>>,
}

impl Ticket {
    /// A ticket already holding its answer. This is how replica test
    /// doubles (implementing
    /// [`ReplicaHandle`](crate::ReplicaHandle)) and synchronous answer
    /// paths hand back a `Ticket` without a worker in the loop.
    pub fn resolved(result: Result<Response>) -> Self {
        let (tx, rx) = mpsc::channel();
        let _ = tx.send(result);
        Ticket { rx }
    }

    /// Blocks until the server answers this request.
    ///
    /// # Errors
    ///
    /// Propagates the worker-side error, or reports
    /// [`SteppingError::ExecutorState`] if the server dropped the request
    /// (worker panic during shutdown).
    pub fn wait(self) -> Result<Response> {
        self.rx.recv().unwrap_or_else(|_| Err(Self::dropped()))
    }

    /// Non-blocking poll: `Some` once the request is resolved (at most one
    /// `Ok`; a dropped request yields the same error as
    /// [`wait`](Ticket::wait)), `None` while it is still in flight.
    pub fn try_wait(&self) -> Option<Result<Response>> {
        match self.rx.try_recv() {
            Ok(result) => Some(result),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(Self::dropped())),
        }
    }

    /// Blocks up to `timeout` for the answer; `None` on timeout, with the
    /// ticket still valid for a later [`wait`](Ticket::wait) /
    /// [`try_wait`](Ticket::try_wait).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<Response>> {
        match self.rx.recv_timeout(timeout) {
            Ok(result) => Some(result),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(Self::dropped())),
        }
    }

    fn dropped() -> SteppingError {
        SteppingError::ExecutorState("server dropped the request before answering".into())
    }
}

//! Load generation and reply collection: one generator thread that makes
//! every call into the program, one collector thread that stamps replies.
//!
//! **Stamping rule.** A reply is stamped no later than 100 us after it
//! resolves, whatever order replies resolve in: the collector blocks on the
//! oldest outstanding ticket for at most one wake period and polls every
//! other outstanding ticket each time it wakes. Without that, a reply that
//! resolves behind an older, slower one would be charged the older one's
//! wait. A timed wait on the hosts this runs on returns about 70 us after
//! the time asked for, so [`WAKE`] asks for 25 us to wake every ~95 us.

use std::collections::VecDeque;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use stepping_core::Result;
use stepping_router::{RoutedTicket, Router};
use stepping_serve::{Outcome, Request, Response, ServeError, Server, Ticket};
use stepping_tensor::Tensor;

use crate::models::SUBNETS;
use crate::procfs::thread_cpu_seconds;
use crate::schedule::{First, Phase, SessionPlan};
use crate::trace::{Span, SpanName, Tracer};

/// Timeout the collector blocks with before it polls every outstanding
/// ticket; with the host's timer slack the wake period is ~95 us.
pub const WAKE: Duration = Duration::from_micros(25);
/// An open-loop generator this far behind its schedule has been stalled (a
/// burst it is still serialising puts it a few milliseconds behind at most).
pub const STALL: Duration = Duration::from_millis(10);
/// After a stall the backlog is sent no faster than one request per this
/// gap. Dumped at once it would overflow a 64-deep lane and be refused, and
/// the run would report the host's stall as the program's failure; paced,
/// the late requests still count from their due times and miss the limit.
pub const CATCH_UP_GAP: Duration = Duration::from_micros(100);
/// Every this-many-th reply is kept for the output check.
pub const SAMPLE_STRIDE: usize = 64;

/// A reply that may not have arrived yet.
pub trait Pending {
    /// The reply, if it has arrived.
    fn try_wait(&self) -> Option<Result<Response>>;
    /// Blocks up to `timeout` for the reply.
    fn wait_timeout(&self, timeout: Duration) -> Option<Result<Response>>;
    /// Replica that holds the request (0 without a router).
    fn replica(&self) -> usize {
        0
    }
}

impl Pending for Ticket {
    fn try_wait(&self) -> Option<Result<Response>> {
        Ticket::try_wait(self)
    }
    fn wait_timeout(&self, timeout: Duration) -> Option<Result<Response>> {
        Ticket::wait_timeout(self, timeout)
    }
}

impl Pending for RoutedTicket {
    fn try_wait(&self) -> Option<Result<Response>> {
        RoutedTicket::try_wait(self)
    }
    fn wait_timeout(&self, timeout: Duration) -> Option<Result<Response>> {
        RoutedTicket::wait_timeout(self, timeout)
    }
    fn replica(&self) -> usize {
        RoutedTicket::replica(self)
    }
}

/// What the generator drives: one server, a router, or a test double.
pub trait Target: Sync {
    /// Its pending-reply type.
    type Ticket: Pending + Send;
    /// Span name of a submit call into this target.
    const SUBMIT_SPAN: SpanName;
    /// Starts a session.
    fn submit(&self, key: u64, request: Request) -> std::result::Result<Self::Ticket, ServeError>;
    /// Steps a session up within `budget_us`.
    fn upgrade(
        &self,
        session: u64,
        budget_us: f64,
    ) -> std::result::Result<Self::Ticket, ServeError>;
    /// Ends a session.
    fn release(&self, session: u64);
    /// Replica that owns `key` (0 without a router).
    fn owner(&self, _key: u64) -> usize {
        0
    }
}

impl Target for Server {
    type Ticket = Ticket;
    const SUBMIT_SPAN: SpanName = SpanName::SubmitCall;
    fn submit(&self, _key: u64, request: Request) -> std::result::Result<Ticket, ServeError> {
        Server::submit(self, request)
    }
    fn upgrade(&self, session: u64, budget_us: f64) -> std::result::Result<Ticket, ServeError> {
        Server::upgrade(self, session, Some(budget_us))
    }
    fn release(&self, session: u64) {
        Server::release(self, session);
    }
}

impl Target for Router {
    type Ticket = RoutedTicket;
    const SUBMIT_SPAN: SpanName = SpanName::RouterSubmitCall;
    fn submit(&self, key: u64, request: Request) -> std::result::Result<RoutedTicket, ServeError> {
        Router::submit(self, key, request)
    }
    fn upgrade(
        &self,
        session: u64,
        budget_us: f64,
    ) -> std::result::Result<RoutedTicket, ServeError> {
        Router::upgrade(self, session, Some(budget_us))
    }
    fn release(&self, session: u64) {
        Router::release(self, session);
    }
    fn owner(&self, key: u64) -> usize {
        self.owner_of(key)
    }
}

/// A reply as the collector saw it.
#[derive(Debug)]
pub struct Stamped {
    /// Operation the reply answers.
    pub op: u32,
    /// When the collector saw it.
    pub at: Instant,
    /// The reply.
    pub result: Result<Response>,
}

/// The outstanding tickets of a run, oldest first.
#[derive(Debug)]
pub struct Collector<P> {
    pending: VecDeque<(u32, P)>,
}

impl<P> Default for Collector<P> {
    fn default() -> Self {
        Collector {
            pending: VecDeque::new(),
        }
    }
}

impl<P: Pending> Collector<P> {
    /// Adds the ticket of operation `op`; operations are pushed in send
    /// order.
    pub fn push(&mut self, op: u32, ticket: P) {
        self.pending.push_back((op, ticket));
    }

    /// Tickets not yet resolved.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether nothing is outstanding.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// One wake: blocks on the oldest ticket for at most [`WAKE`], then
    /// polls all the others, and appends every reply found to `out`.
    pub fn wake(&mut self, out: &mut Vec<Stamped>) {
        let Some((op, oldest)) = self.pending.front() else {
            return;
        };
        if let Some(result) = oldest.wait_timeout(WAKE) {
            out.push(Stamped {
                op: *op,
                at: Instant::now(),
                result,
            });
            self.pending.pop_front();
        }
        let mut i = 0;
        while i < self.pending.len() {
            match self.pending[i].1.try_wait() {
                Some(result) => {
                    let (op, _) = self.pending.remove(i).expect("index in range");
                    out.push(Stamped {
                        op,
                        at: Instant::now(),
                        result,
                    });
                }
                None => i += 1,
            }
        }
    }
}

/// Microsecond budgets derived from a model's cost table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Budgets {
    /// `begin_us[k]`: budget that affords a direct run of subnet `k` and
    /// nothing larger.
    pub begin_us: [f64; SUBNETS],
    /// `step_us[k]`: budget that affords the step `k → k + 1` and not two.
    pub step_us: [f64; SUBNETS],
}

/// How a phase's sessions are started.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// A new session starts when fewer than this many are in flight.
    Closed(usize),
    /// A session starts when its `due_ns` has passed since this instant.
    Open(Instant),
}

/// How one operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Served as asked.
    Met,
    /// Served below what was asked, or past its budget.
    Degraded,
    /// An upgrade shed to its session cache under load.
    Shed,
    /// An upgrade answered from the cache because its budget bought nothing.
    CacheHit,
    /// The reply was an error.
    Errored,
}

/// What the generator knows about one operation.
#[derive(Debug, Clone, Copy)]
pub struct SendRecord {
    /// Index of the session in the phase.
    pub session: u32,
    /// 0 for the first request, `n` for the `n`-th upgrade.
    pub step: u8,
    /// Server-side session handle (upgrades only).
    pub handle: u64,
    /// Latency origin: due time (open-loop first requests) or call start.
    pub origin_ns: u64,
    /// Start of the call into the target.
    pub sent_ns: u64,
    /// Return of that call.
    pub called_ns: u64,
    /// Whether the call was refused.
    pub refused: bool,
    /// Whether the session was placed off its key's ring owner.
    pub rerouted: bool,
}

/// What the collector knows about one answered operation.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    /// The operation.
    pub op: u32,
    /// When the reply was stamped.
    pub stamp_ns: u64,
    /// `Response::latency_us`, the program's own submit → reply time.
    pub inside_us: f64,
    /// `Response::subnet`.
    pub subnet: u8,
    /// `Response::batch_size`.
    pub batch: u8,
    /// How it ended.
    pub fate: Fate,
}

/// Everything recorded while driving one phase.
#[derive(Debug)]
pub struct PhaseRun {
    /// One entry per operation attempted, indexed by operation.
    pub sends: Vec<SendRecord>,
    /// One entry per reply, in stamping order.
    pub replies: Vec<Reply>,
    /// Every [`SAMPLE_STRIDE`]-th successful reply, for the output check.
    pub samples: Vec<(u32, Response)>,
    /// Spans of both threads (empty unless tracing).
    pub spans: Vec<Span>,
    /// Generator lateness of each open-loop first request.
    pub late_ns: Vec<u64>,
    /// CPU seconds the collector thread used. How often its timed waits
    /// return is the host's doing (60 000 to 98 000 wakes in runs of one
    /// schedule), so its polling is kept out of the program's CPU time.
    pub collector_cpu_s: f64,
    /// When the first session started.
    pub start_ns: u64,
    /// When the last reply was stamped and its session released.
    pub end_ns: u64,
}

struct Sent<P> {
    op: u32,
    origin_ns: u64,
    sent_ns: u64,
    ticket: P,
}

struct Done {
    op: u32,
    handle: Option<u64>,
}

fn ns_since(epoch: Instant, at: Instant) -> u64 {
    at.saturating_duration_since(epoch).as_nanos() as u64
}

/// Drives `phase` against `target` and returns what both threads recorded.
/// Times in the result are nanoseconds since `epoch`.
pub fn run_phase<T: Target>(
    target: &T,
    phase: &Phase,
    pace: Pace,
    budgets: &Budgets,
    inputs: &[Tensor],
    epoch: Instant,
    trace: bool,
) -> PhaseRun {
    let (sent_tx, sent_rx) = mpsc::channel::<Sent<T::Ticket>>();
    let (done_tx, done_rx) = mpsc::channel::<Done>();
    let start_ns = ns_since(epoch, Instant::now());
    std::thread::scope(|scope| {
        let collector = scope.spawn(move || collect(sent_rx, done_tx, epoch, trace));
        let mut generator = Generator {
            target,
            sessions: &phase.sessions,
            budgets,
            inputs,
            epoch,
            tracer: Tracer::new(trace),
            sends: Vec::with_capacity(phase.ops() as usize),
            late_ns: Vec::new(),
            to_collector: sent_tx,
            live: 0,
        };
        generator.run(pace, &done_rx);
        let Generator {
            tracer,
            sends,
            late_ns,
            to_collector,
            ..
        } = generator;
        // hanging up is what tells the collector the phase is over
        drop(to_collector);
        let (replies, samples, collector_spans, collector_cpu_s) =
            collector.join().expect("collector thread panicked");
        let mut spans = tracer.into_spans();
        spans.extend(collector_spans);
        PhaseRun {
            sends,
            replies,
            samples,
            spans,
            late_ns,
            collector_cpu_s,
            start_ns,
            end_ns: ns_since(epoch, Instant::now()),
        }
    })
}

struct Generator<'a, T: Target> {
    target: &'a T,
    sessions: &'a [SessionPlan],
    budgets: &'a Budgets,
    inputs: &'a [Tensor],
    epoch: Instant,
    tracer: Tracer,
    sends: Vec<SendRecord>,
    late_ns: Vec<u64>,
    to_collector: Sender<Sent<T::Ticket>>,
    /// Sessions started and not yet released.
    live: usize,
}

impl<T: Target> Generator<'_, T> {
    fn run(&mut self, pace: Pace, done: &Receiver<Done>) {
        let total = self.sessions.len();
        let mut next = 0;
        let mut last_begin = self.epoch;
        loop {
            // when the next session may start, if that is a matter of time
            let mut ready_at = None;
            while next < total {
                match pace {
                    Pace::Closed(concurrency) => {
                        if self.live >= concurrency {
                            break;
                        }
                        self.begin(next, None);
                    }
                    Pace::Open(start) => {
                        let due = start + Duration::from_nanos(self.sessions[next].due_ns);
                        let now = Instant::now();
                        let at = if now.saturating_duration_since(due) > STALL {
                            due.max(last_begin + CATCH_UP_GAP)
                        } else {
                            due
                        };
                        if now < at {
                            ready_at = Some(at);
                            break;
                        }
                        self.begin(next, Some(due));
                        last_begin = now;
                    }
                }
                next += 1;
            }
            if next == total && self.live == 0 {
                return;
            }
            let message = match ready_at {
                Some(at) => match done.recv_timeout(at.saturating_duration_since(Instant::now())) {
                    Ok(message) => Some(message),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => return,
                },
                None => match done.recv() {
                    Ok(message) => Some(message),
                    Err(_) => return,
                },
            };
            if let Some(message) = message {
                self.advance(message);
                while let Ok(message) = done.try_recv() {
                    self.advance(message);
                }
            }
        }
    }

    /// Sends the first request of session `index`.
    fn begin(&mut self, index: usize, due: Option<Instant>) {
        let plan = self.sessions[index];
        let input = self.inputs[plan.input as usize].clone();
        let request = match plan.first {
            First::Full => Request::full(input),
            First::Subnet0 => Request::at_subnet(input, 0),
            First::Budget(class) => {
                Request::with_budget(input, self.budgets.begin_us[usize::from(class)])
            }
        };
        let sent = Instant::now();
        let result = self.target.submit(plan.key, request);
        let called = Instant::now();
        if let Some(due) = due {
            self.late_ns
                .push(sent.saturating_duration_since(due).as_nanos() as u64);
        }
        self.live += 1;
        let record = SendRecord {
            session: index as u32,
            step: 0,
            handle: 0,
            origin_ns: ns_since(self.epoch, due.unwrap_or(sent)),
            sent_ns: ns_since(self.epoch, sent),
            called_ns: ns_since(self.epoch, called),
            refused: result.is_err(),
            rerouted: result
                .as_ref()
                .is_ok_and(|ticket| ticket.replica() != self.target.owner(plan.key)),
        };
        self.sent(record, T::SUBMIT_SPAN, result);
    }

    /// Reacts to the reply of one operation: the session's next upgrade, or
    /// its release.
    fn advance(&mut self, done: Done) {
        let send = self.sends[done.op as usize];
        let plan = self.sessions[send.session as usize];
        match done.handle {
            Some(handle) if send.step < plan.steps => {
                let budget_us = self.budgets.step_us[usize::from(send.step)];
                let sent = Instant::now();
                let result = self.target.upgrade(handle, budget_us);
                let called = Instant::now();
                let sent_ns = ns_since(self.epoch, sent);
                let record = SendRecord {
                    session: send.session,
                    step: send.step + 1,
                    handle,
                    origin_ns: sent_ns,
                    sent_ns,
                    called_ns: ns_since(self.epoch, called),
                    refused: result.is_err(),
                    rerouted: false,
                };
                self.sent(record, SpanName::UpgradeCall, result);
            }
            // an errored upgrade leaves its session in the table
            handle => self.finish(done.op, handle.or((send.step > 0).then_some(send.handle))),
        }
    }

    /// Records one call and hands its ticket to the collector; a refused
    /// call ends its session here.
    fn sent(
        &mut self,
        record: SendRecord,
        span: SpanName,
        result: std::result::Result<T::Ticket, ServeError>,
    ) {
        let op = self.sends.len() as u32;
        self.tracer
            .record(span, op, record.sent_ns, record.called_ns);
        self.sends.push(record);
        match result {
            Ok(ticket) => {
                // the collector outlives every send: it only stops once
                // this sender is dropped
                let _ = self.to_collector.send(Sent {
                    op,
                    origin_ns: record.origin_ns,
                    sent_ns: record.sent_ns,
                    ticket,
                });
            }
            Err(_) => self.finish(op, (record.step > 0).then_some(record.handle)),
        }
    }

    fn finish(&mut self, op: u32, handle: Option<u64>) {
        if let Some(handle) = handle {
            let start = Instant::now();
            self.target.release(handle);
            let end = Instant::now();
            self.tracer.record(
                SpanName::ReleaseCall,
                op,
                ns_since(self.epoch, start),
                ns_since(self.epoch, end),
            );
        }
        self.live -= 1;
    }
}

fn fate_of(outcome: Outcome) -> Fate {
    match outcome {
        Outcome::Met => Fate::Met,
        Outcome::Degraded { .. } => Fate::Degraded,
        Outcome::Shed => Fate::Shed,
        Outcome::CacheHit => Fate::CacheHit,
    }
}

/// Replies, sampled responses, spans, and the thread's own CPU seconds.
type Collected = (Vec<Reply>, Vec<(u32, Response)>, Vec<Span>, f64);

fn accept<P: Pending>(collector: &mut Collector<P>, origins: &mut Vec<(u64, u64)>, sent: Sent<P>) {
    let op = sent.op as usize;
    if origins.len() <= op {
        origins.resize(op + 1, (0, 0));
    }
    origins[op] = (sent.origin_ns, sent.sent_ns);
    collector.push(sent.op, sent.ticket);
}

fn collect<P: Pending>(
    inbox: Receiver<Sent<P>>,
    done: Sender<Done>,
    epoch: Instant,
    trace: bool,
) -> Collected {
    let mut collector = Collector::default();
    // origin and call start of each outstanding operation, by operation
    let mut origins: Vec<(u64, u64)> = Vec::new();
    let mut tracer = Tracer::new(trace);
    let mut replies = Vec::new();
    let mut samples = Vec::new();
    let mut stamped = Vec::new();
    loop {
        if collector.is_empty() {
            match inbox.recv() {
                Ok(sent) => accept(&mut collector, &mut origins, sent),
                Err(_) => break,
            }
        }
        while let Ok(sent) = inbox.try_recv() {
            accept(&mut collector, &mut origins, sent);
        }
        collector.wake(&mut stamped);
        for Stamped { op, at, result } in stamped.drain(..) {
            let stamp_ns = ns_since(epoch, at);
            let (origin_ns, sent_ns) = origins[op as usize];
            let handle = result.as_ref().ok().map(|r| r.session);
            let reply = match &result {
                Ok(r) => Reply {
                    op,
                    stamp_ns,
                    inside_us: r.latency_us,
                    subnet: r.subnet as u8,
                    batch: r.batch_size.min(255) as u8,
                    fate: fate_of(r.outcome),
                },
                Err(_) => Reply {
                    op,
                    stamp_ns,
                    inside_us: 0.0,
                    subnet: 0,
                    batch: 0,
                    fate: Fate::Errored,
                },
            };
            tracer.record(SpanName::ClientOp, op, origin_ns, stamp_ns);
            let resolved_ns = sent_ns + (reply.inside_us * 1e3) as u64;
            tracer.record(
                SpanName::ClientWait,
                op,
                resolved_ns.min(stamp_ns),
                stamp_ns,
            );
            if let Ok(response) = result {
                if replies.len() % SAMPLE_STRIDE == 0 {
                    samples.push((op, response));
                }
            }
            replies.push(reply);
            // the generator may already have given up on a dead target
            let _ = done.send(Done { op, handle });
        }
    }
    // the thread starts with the phase: everything it ever used is the
    // phase's
    let cpu_s = thread_cpu_seconds().unwrap_or(0.0);
    (replies, samples, tracer.into_spans(), cpu_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;
    use stepping_core::SteppingError;
    use stepping_tensor::Shape;

    fn response(session: u64, subnet: usize) -> Response {
        Response {
            id: session,
            session,
            subnet,
            logits: Tensor::zeros(Shape::of(&[1, 2])),
            step_macs: 1,
            total_macs: 1,
            modeled_latency_us: 0.0,
            latency_us: 1.0,
            outcome: Outcome::Met,
            batch_size: 1,
            cache_reuse: 0.0,
        }
    }

    /// A ticket that never resolves and counts how long it was blocked on.
    struct Never {
        blocked: Cell<Duration>,
    }

    enum Stub {
        Ready(Ticket),
        Never(Never),
    }

    impl Pending for Stub {
        fn try_wait(&self) -> Option<Result<Response>> {
            match self {
                Stub::Ready(t) => t.try_wait(),
                Stub::Never(_) => None,
            }
        }
        fn wait_timeout(&self, timeout: Duration) -> Option<Result<Response>> {
            match self {
                Stub::Ready(t) => Ticket::wait_timeout(t, timeout),
                Stub::Never(n) => {
                    n.blocked.set(n.blocked.get() + timeout);
                    None
                }
            }
        }
    }

    #[test]
    fn replies_behind_an_unresolved_oldest_ticket_are_stamped_on_the_next_wake() {
        let mut collector = Collector::default();
        collector.push(
            0,
            Stub::Never(Never {
                blocked: Cell::new(Duration::ZERO),
            }),
        );
        for op in 1..=5u32 {
            let result = if op == 3 {
                Err(SteppingError::ExecutorState("boom".into()))
            } else {
                Ok(response(u64::from(op), 0))
            };
            collector.push(op, Stub::Ready(Ticket::resolved(result)));
        }
        let mut out = Vec::new();
        let before = Instant::now();
        collector.wake(&mut out);
        // one wake, bounded by one WAKE of blocking on the oldest ticket,
        // finds every resolved reply although the oldest is still pending
        let mut ops: Vec<u32> = out.iter().map(|s| s.op).collect();
        ops.sort_unstable();
        assert_eq!(ops, vec![1, 2, 3, 4, 5]);
        assert!(out.iter().all(|s| s.at >= before));
        assert!(out
            .iter()
            .find(|s| s.op == 3)
            .expect("op 3")
            .result
            .is_err());
        assert_eq!(collector.len(), 1);
        let Some((0, Stub::Never(never))) = collector.pending.front() else {
            panic!("the unresolved ticket stays outstanding");
        };
        assert_eq!(never.blocked.get(), WAKE, "blocked exactly one WAKE");
        // a later wake with nothing new finds nothing and blocks once more
        out.clear();
        collector.wake(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn a_resolved_oldest_ticket_is_taken_first_and_the_rest_still_polled() {
        let mut collector = Collector::default();
        for op in 0..3u32 {
            collector.push(op, Ticket::resolved(Ok(response(u64::from(op), 1))));
        }
        let mut out = Vec::new();
        collector.wake(&mut out);
        assert_eq!(out.iter().map(|s| s.op).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert!(collector.is_empty());
        collector.wake(&mut out); // nothing outstanding: returns at once
        assert_eq!(out.len(), 3);
    }

    /// Answers every call at once; upgrades step one subnet up.
    #[derive(Default)]
    struct Echo {
        next: AtomicU64,
        level: Mutex<std::collections::HashMap<u64, usize>>,
        released: AtomicU64,
        refuse_upgrades: bool,
    }

    impl Target for Echo {
        type Ticket = Ticket;
        const SUBMIT_SPAN: SpanName = SpanName::SubmitCall;
        fn submit(&self, _key: u64, _r: Request) -> std::result::Result<Ticket, ServeError> {
            let session = self.next.fetch_add(1, Ordering::Relaxed);
            self.level.lock().expect("level").insert(session, 0);
            Ok(Ticket::resolved(Ok(response(session, 0))))
        }
        fn upgrade(&self, session: u64, _b: f64) -> std::result::Result<Ticket, ServeError> {
            if self.refuse_upgrades {
                return Err(ServeError::Invalid(SteppingError::BadConfig("no".into())));
            }
            let mut level = self.level.lock().expect("level");
            let at = level.get_mut(&session).expect("known session");
            *at += 1;
            Ok(Ticket::resolved(Ok(response(session, *at))))
        }
        fn release(&self, session: u64) {
            self.level.lock().expect("level").remove(&session);
            self.released.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn plans(n: usize, steps: u8) -> Phase {
        Phase {
            rate_rps: 0.0,
            window_ns: 0,
            sessions: (0..n)
                .map(|i| SessionPlan {
                    input: 0,
                    key: i as u64,
                    first: First::Subnet0,
                    steps,
                    due_ns: i as u64 * 20_000,
                })
                .collect(),
        }
    }

    const BUDGETS: Budgets = Budgets {
        begin_us: [1.0; SUBNETS],
        step_us: [1.0; SUBNETS],
    };

    #[test]
    fn closed_loop_runs_every_step_of_every_session_and_releases_it() {
        let target = Echo::default();
        let inputs = [Tensor::zeros(Shape::of(&[1, 2]))];
        let phase = plans(40, 3);
        let epoch = Instant::now();
        let run = run_phase(
            &target,
            &phase,
            Pace::Closed(4),
            &BUDGETS,
            &inputs,
            epoch,
            true,
        );
        assert_eq!(run.sends.len(), 160);
        assert_eq!(run.replies.len(), 160);
        assert_eq!(target.released.load(Ordering::Relaxed), 40);
        assert!(target.level.lock().expect("level").is_empty());
        assert_eq!(run.samples.len(), 160_usize.div_ceil(SAMPLE_STRIDE));
        // every session climbed 0, 1, 2, 3
        let mut top = [0u8; 40];
        for reply in &run.replies {
            let send = run.sends[reply.op as usize];
            assert_eq!(reply.subnet, send.step);
            assert!(reply.stamp_ns >= send.called_ns.min(reply.stamp_ns));
            top[send.session as usize] = top[send.session as usize].max(reply.subnet);
        }
        assert!(top.iter().all(|&t| t == 3));
        let count = |name| run.spans.iter().filter(|s| s.name == name).count();
        assert_eq!(count(SpanName::ClientOp), 160);
        assert_eq!(count(SpanName::ClientWait), 160);
        assert_eq!(count(SpanName::SubmitCall), 40);
        assert_eq!(count(SpanName::UpgradeCall), 120);
        assert_eq!(count(SpanName::ReleaseCall), 40);
    }

    #[test]
    fn open_loop_starts_sessions_no_earlier_than_due_and_reports_lateness() {
        let target = Echo::default();
        let inputs = [Tensor::zeros(Shape::of(&[1, 2]))];
        let phase = plans(50, 1);
        let epoch = Instant::now();
        let run = run_phase(
            &target,
            &phase,
            Pace::Open(epoch),
            &BUDGETS,
            &inputs,
            epoch,
            false,
        );
        assert_eq!(run.replies.len(), 100);
        assert_eq!(run.late_ns.len(), 50);
        assert!(run.spans.is_empty(), "tracing was off");
        for send in run.sends.iter().filter(|s| s.step == 0) {
            let due = phase.sessions[send.session as usize].due_ns;
            assert_eq!(send.origin_ns, due, "first requests are timed from due");
            assert!(send.sent_ns >= due);
        }
        assert_eq!(target.released.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn a_refused_upgrade_is_recorded_and_its_session_released() {
        let target = Echo {
            refuse_upgrades: true,
            ..Echo::default()
        };
        let inputs = [Tensor::zeros(Shape::of(&[1, 2]))];
        let phase = plans(8, 3);
        let epoch = Instant::now();
        let run = run_phase(
            &target,
            &phase,
            Pace::Closed(2),
            &BUDGETS,
            &inputs,
            epoch,
            false,
        );
        assert_eq!(
            run.sends.len(),
            16,
            "one begin and one refused upgrade each"
        );
        assert_eq!(run.sends.iter().filter(|s| s.refused).count(), 8);
        assert_eq!(run.replies.len(), 8);
        assert_eq!(target.released.load(Ordering::Relaxed), 8);
    }
}

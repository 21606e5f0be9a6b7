//! Allocation guard for the serve worker's per-request overhead.
//!
//! Two things a worker used to allocate for every request, besides the
//! pass itself: a fresh vector of lane snapshots on every scan of the
//! lanes, and a copy of the request's input tensor on the way into the
//! batch. The scan now refills a buffer the worker owns and the input is
//! moved, so a scan that claims nothing allocates nothing, and a begin
//! batch allocates less than it did by the size of its inputs.
//!
//! And two copies of the inputs a begin at the top subnet used to
//! allocate: the stacked rows and every session's level 0. Such a session
//! now keeps its logits alone and the pass runs through scratch levels the
//! executor keeps, so the batch allocates no copy of its inputs at all.
//!
//! And one thing a launch used to allocate per worker: a deep clone of the
//! net. Workers now share one compiled model, so what `Server::new`
//! allocates does not grow with the worker count.
//!
//! And one thing a worker used to allocate per batch: the vector the claim
//! collected the lane's jobs into. The claim now fills a buffer the worker
//! owns.
//!
//! The counting allocator is process-wide, so the tests take turns
//! (`SERIAL`). Allocations are attributed by thread — a test's own thread
//! (the client: tickets, channels, jobs) is exempt, everything else is a
//! worker.

#![allow(
    unsafe_code,
    reason = "a `#[global_allocator]` must implement the unsafe `GlobalAlloc` trait"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use stepping_baselines::regular_assign;
use stepping_core::{SteppingNet, SteppingNetBuilder};
use stepping_runtime::{DeviceModel, SessionConfig};
use stepping_serve::{Request, ServeConfig, Server};
use stepping_tensor::{Shape, Tensor};

thread_local! {
    /// Set on the client thread, whose allocations are not counted.
    static EXEMPT: Cell<bool> = const { Cell::new(false) };
}

static WORKER_ALLOCS: AtomicUsize = AtomicUsize::new(0);
static WORKER_BYTES: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are atomics and a thread-local
// `Cell` with a constant initialiser (no lazy allocation, no destructor),
// so touching them cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if !EXEMPT.with(Cell::get) {
            WORKER_ALLOCS.fetch_add(1, Ordering::Relaxed);
            WORKER_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        }
        // SAFETY: same layout, forwarded to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `(allocations, bytes)` made off the client thread so far.
fn worker_counts() -> (usize, usize) {
    (
        WORKER_ALLOCS.load(Ordering::Relaxed),
        WORKER_BYTES.load(Ordering::Relaxed),
    )
}

/// One test at a time: the counters are shared.
static SERIAL: Mutex<()> = Mutex::new(());

/// This test's turn, with its own thread exempt from the counts.
fn take_turn() -> MutexGuard<'static, ()> {
    let turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    EXEMPT.with(|e| e.set(true));
    turn
}

/// Inputs wide enough that one copy of a request dwarfs everything else a
/// batch allocates — and one copy of the net's weights (64 K values)
/// everything else a launch does.
const WIDTH: usize = 16 * 1024;
const BATCH: usize = 8;

fn wide_net() -> SteppingNet {
    SteppingNetBuilder::new(Shape::of(&[WIDTH]), 1, 3)
        .linear(4)
        .relu()
        .build(2)
        .unwrap()
}

/// Three more workers cost three more executors — an `Arc` and an empty
/// scratch each — not three more copies of the net.
#[test]
fn launch_allocation_does_not_grow_with_workers() {
    let _turn = take_turn();
    // bytes `Server::new` allocates, on this thread and its new workers'
    let launch_bytes = |workers: usize| {
        let net = wide_net();
        let config = ServeConfig::builder()
            .workers(workers)
            .session(SessionConfig::new().device(DeviceModel::new(1000.0)))
            .build();
        let (_, before) = worker_counts();
        EXEMPT.with(|e| e.set(false));
        let server = Server::new(&net, config);
        EXEMPT.with(|e| e.set(true));
        let server = server.unwrap();
        // a round trip: every worker is up and has scanned the lanes
        server
            .submit(Request::full(Tensor::ones(Shape::of(&[1, WIDTH]))))
            .unwrap()
            .wait()
            .unwrap();
        let (_, after) = worker_counts();
        server.shutdown();
        after - before
    };
    let (one, four) = (launch_bytes(1), launch_bytes(4));
    let weights_bytes = WIDTH * 4 * std::mem::size_of::<f32>();
    assert!(
        one > weights_bytes,
        "a launch compiles the net: {one} B for {weights_bytes} B of weights"
    );
    assert!(
        four <= one + 64 * 1024,
        "4 workers launched with {four} B, 1 worker with {one} B"
    );
}

#[test]
fn worker_scans_allocate_nothing_and_inputs_are_moved() {
    let _turn = take_turn();
    let net = wide_net();
    // the server is paused while a batch queues, so it runs full, on
    // resume, and until then its requests stay queued
    let config = ServeConfig::builder()
        .workers(1)
        .max_batch(BATCH)
        .session(SessionConfig::new().device(DeviceModel::new(1000.0)))
        .build();
    let server = Server::new(&net, config).unwrap();
    let submit = || {
        server
            .submit(Request::full(Tensor::ones(Shape::of(&[1, WIDTH]))))
            .unwrap()
    };

    // warm-up: one full batch grows every buffer the worker keeps (pack
    // scratch, lane snapshots)
    server.pause();
    let warm: Vec<_> = (0..BATCH).map(|_| submit()).collect();
    server.resume();
    for t in warm {
        assert_eq!(t.wait().unwrap().batch_size, BATCH);
    }
    std::thread::sleep(Duration::from_millis(50));

    // scans: each push rings the doorbell, the worker rescans the lanes,
    // finds the set paused, claims nothing and goes back to sleep
    server.pause();
    let (before, _) = worker_counts();
    let mut tickets = Vec::new();
    for _ in 0..BATCH - 1 {
        tickets.push(submit());
        std::thread::sleep(Duration::from_millis(5));
    }
    let (after, _) = worker_counts();
    assert_eq!(
        after - before,
        0,
        "a lane scan that claims nothing must not allocate"
    );

    // inputs: the push that fills the batch, then the resume that lets it
    // run. A begin at the top subnet copies the rows into the scratch level
    // the warm-up grew and keeps no level, so no copy of the inputs is
    // allocated; stacking them into a fresh tensor, handing every session
    // its level-0 activations, or a clone on the way into the batch would
    // each be one
    let (_, before) = worker_counts();
    tickets.push(submit());
    server.resume();
    for t in tickets {
        assert_eq!(t.wait().unwrap().batch_size, BATCH);
    }
    let (_, after) = worker_counts();
    let inputs_bytes = BATCH * WIDTH * std::mem::size_of::<f32>();
    let batch_bytes = after - before;
    assert!(
        batch_bytes < inputs_bytes / 4,
        "the begin batch allocated {batch_bytes} B for {inputs_bytes} B of inputs"
    );
    server.shutdown();
}

/// Allocations a warmed worker makes to serve one request in a batch of its
/// own at the top subnet, everything counted: the pass (its logits), the
/// reply (its logits, its channel block) and the batch's bookkeeping
/// vectors. Claiming the batch is not among them: the claim drains the
/// lane into a buffer the worker keeps, where it used to collect a fresh
/// vector per batch. Nor is any activation level: a session at the top
/// subnet keeps its logits alone, and the pass runs through two scratch
/// levels the executor keeps, where a begin that caches its levels stacks
/// the rows and hands the session every level (23 here, 25 before the
/// claim buffer).
const ONE_JOB_BATCH_ALLOCS: usize = 12;

/// The same for a one-job begin below the top subnet, which keeps the
/// session's levels for later upgrades: the stacked rows, one zeroed level
/// per compiled stage, the logits and the per-request lists.
const ONE_JOB_CACHED_BEGIN_ALLOCS: usize = 20;

/// The same for a one-step upgrade of a session in a batch of its own: the
/// step pass, the reply (its logits, its channel block) and the batch's
/// bookkeeping vectors. The cache moves through the lane and, below the
/// top, back into the table; no level of it is copied. This step reaches
/// the top, so the worker frees the levels instead, which allocates
/// nothing.
const ONE_STEP_UPGRADE_ALLOCS: usize = 13;

/// What one counted round trip of [`warmed_one_job_claim_allocates_nothing`]
/// serves.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Trip {
    /// A begin at the top subnet.
    TopBegin,
    /// A begin at subnet 0 of a two-level net.
    CachedBegin,
    /// A one-step upgrade, to the top, of a session begun (uncounted) at 0.
    Upgrade,
}

#[test]
fn warmed_one_job_claim_allocates_nothing() {
    let _turn = take_turn();
    // a second net of the same width with two levels, so that a session
    // begun at subnet 0 keeps its levels and has one step to take
    let stepped = || {
        let mut net = SteppingNetBuilder::new(Shape::of(&[WIDTH]), 2, 3)
            .linear(4)
            .relu()
            .build(2)
            .unwrap();
        regular_assign(&mut net, &[0.5, 1.0]).unwrap();
        net
    };
    for (net, trip, budget) in [
        (wide_net(), Trip::TopBegin, ONE_JOB_BATCH_ALLOCS),
        (stepped(), Trip::CachedBegin, ONE_JOB_CACHED_BEGIN_ALLOCS),
        (stepped(), Trip::Upgrade, ONE_STEP_UPGRADE_ALLOCS),
    ] {
        let config = ServeConfig::builder()
            .workers(1)
            .session(SessionConfig::new().device(DeviceModel::new(1000.0)))
            .build();
        let server = Server::new(&net, config).unwrap();
        let begin = |request: Request| server.submit(request).unwrap().wait().unwrap();
        let input = || Tensor::ones(Shape::of(&[1, WIDTH]));
        // the reply is sent before the worker is done with the batch
        let settle = || std::thread::sleep(Duration::from_millis(20));
        // worker allocations of one round trip
        let round_trip = || {
            let (before, response) = match trip {
                Trip::TopBegin => (worker_counts().0, begin(Request::full(input()))),
                Trip::CachedBegin => (worker_counts().0, begin(Request::at_subnet(input(), 0))),
                Trip::Upgrade => {
                    let session = begin(Request::at_subnet(input(), 0)).session;
                    settle();
                    let (before, _) = worker_counts();
                    (
                        before,
                        server.upgrade(session, None).unwrap().wait().unwrap(),
                    )
                }
            };
            assert_eq!(response.batch_size, 1);
            assert_eq!(response.subnet, usize::from(trip == Trip::Upgrade));
            // the session table stays at one entry and never regrows
            server.release(response.session);
            settle();
            let (after, _) = worker_counts();
            after - before
        };
        // warm-up: grows the pack scratch, the lane snapshots, the claim
        // buffer and the session table
        for _ in 0..4 {
            round_trip();
        }
        for _ in 0..4 {
            let allocs = round_trip();
            assert!(
                allocs <= budget,
                "a one-job batch ({trip:?}) cost the worker {allocs} allocations, \
                 {budget} budgeted"
            );
        }
        server.shutdown();
    }
}

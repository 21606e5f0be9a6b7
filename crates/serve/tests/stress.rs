//! Multi-threaded stress test: N producer threads × M requests each, mixed
//! targets, all completing with the correct subnet for their budget and
//! logits bit-identical to lone execution — under the work-conserving
//! dispatch, where batches form from backlog alone and urgency still
//! decides what a busy worker takes next.

mod common;

use std::sync::Arc;

use common::watchdog;
use stepping_baselines::regular_assign;
use stepping_core::{SteppingNet, SteppingNetBuilder};
use stepping_runtime::{DeviceModel, SessionConfig};
use stepping_serve::{Outcome, Request, ServeConfig, Server, ServerStats};
use stepping_tensor::{init, Shape, Tensor};

const PRODUCERS: usize = 8;
const PER_PRODUCER: usize = 24;

fn net() -> SteppingNet {
    let mut n = SteppingNetBuilder::new(Shape::of(&[6]), 3, 41)
        .linear(18)
        .relu()
        .linear(12)
        .relu()
        .build(4)
        .unwrap();
    regular_assign(&mut n, &[0.3, 0.6, 1.0]).unwrap();
    n
}

/// `PRODUCERS` threads each send `PER_PRODUCER` requests of mixed targets,
/// `wave` at a time (1: the next only once the last is answered), and check
/// every reply: the subnet its target resolves to, served as requested,
/// logits `==` the masked forward of that input alone.
fn run_producers(config: ServeConfig, wave: usize) -> ServerStats {
    let device = DeviceModel::new(1000.0);
    let srv = Arc::new(Server::new(&net(), config).unwrap());
    let costs = srv.subnet_costs().to_vec();

    let handles: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let srv = Arc::clone(&srv);
            let costs = costs.clone();
            std::thread::spawn(move || {
                let mut scratch = net();
                let request = |j: usize| {
                    let seed = (p * PER_PRODUCER + j) as u64;
                    let x = init::uniform(Shape::of(&[1, 6]), -1.0, 1.0, &mut init::rng(seed));
                    // mix exact-subnet, budget-driven, and full requests
                    let (request, expected) = match j % 3 {
                        0 => {
                            let k = j % costs.len();
                            (Request::at_subnet(x.clone(), k), k)
                        }
                        1 => {
                            let k = (p + j) % costs.len();
                            let budget = (costs[k] as f64 + 0.5) / device.macs_per_us();
                            (Request::with_budget(x.clone(), budget), k)
                        }
                        _ => (Request::full(x.clone()), costs.len() - 1),
                    };
                    (j, x, expected, srv.submit(request).unwrap())
                };
                for first in (0..PER_PRODUCER).step_by(wave) {
                    let sent: Vec<_> = (first..first + wave).map(request).collect();
                    for (j, x, expected, ticket) in sent {
                        let resp = ticket.wait().unwrap();
                        assert_eq!(
                            resp.subnet, expected,
                            "producer {p} request {j} wrong subnet"
                        );
                        // budget responses never exceed their MAC budget, and
                        // nothing here loads the lanes enough to downgrade
                        assert_eq!(
                            resp.outcome,
                            Outcome::Met,
                            "producer {p} request {j} not served as requested"
                        );
                        // bit-identical to running this input alone, whatever
                        // batch it was fused into
                        let reference = scratch.forward(&x, resp.subnet, false).unwrap();
                        assert_eq!(
                            resp.logits, reference,
                            "producer {p} request {j} logits differ"
                        );
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("producer panicked");
    }
    srv.shutdown();
    let stats = srv.stats();
    assert_eq!(stats.requests, (PRODUCERS * PER_PRODUCER) as u64);
    assert_eq!(stats.requests, stats.admitted, "no ticket lost");
    assert!(stats.batches > 0);
    assert_eq!(stats.deadline_misses, 0);
    stats
}

/// The default configuration on one worker: eight clients six requests
/// deep keep it busy, and what queues meanwhile is its next batch.
#[test]
fn default_config_batches_from_backlog_alone() {
    watchdog(|| {
        let config = ServeConfig::builder()
            .workers(1)
            .session(SessionConfig::new().device(DeviceModel::new(1000.0)))
            .build();
        let stats = run_producers(config, 6);
        assert!(
            stats.max_batch >= 2,
            "no batch ever formed behind the busy worker: {stats:?}"
        );
    });
}

/// A net whose pass is long next to a submit call, so that a backlog
/// outlives the few calls the test makes behind it.
fn heavy_net() -> SteppingNet {
    let mut n = SteppingNetBuilder::new(Shape::of(&[HEAVY_WIDTH]), 3, 43)
        .linear(96)
        .relu()
        .build(4)
        .unwrap();
    regular_assign(&mut n, &[0.3, 0.6, 1.0]).unwrap();
    n
}

const HEAVY_WIDTH: usize = 4096;

/// EDF under backlog: one worker is kept busy by a deep lane of
/// deadline-free requests when a request whose deadline has already passed
/// and one with a later deadline arrive. The expired one is in the very
/// next claim and the later one runs after it. Sessions are numbered in the
/// order batches run, which makes the order visible without a clock, and
/// every bound below holds however the threads are scheduled: had the
/// worker drained the backlog before the two arrived, they say less, not
/// something false (the lane-level
/// `expired_deadline_is_in_the_very_next_claim_under_backlog` pins the
/// order itself).
#[test]
fn expired_deadline_overtakes_a_deadline_free_backlog() {
    watchdog(|| {
        const MAX_BATCH: usize = 8;
        const BACKLOG: usize = 6 * MAX_BATCH;
        let device = DeviceModel::new(1000.0);
        let config = ServeConfig::builder()
            .workers(1)
            .max_batch(MAX_BATCH)
            .session(SessionConfig::new().device(device))
            .build();
        let srv = Server::new(&heavy_net(), config).unwrap();
        let costs = srv.subnet_costs().to_vec();
        let input = |seed: u64| -> Tensor {
            init::uniform(
                Shape::of(&[1, HEAVY_WIDTH]),
                -1.0,
                1.0,
                &mut init::rng(seed),
            )
        };
        let inputs: Vec<Tensor> = (0..BACKLOG as u64 + 2).map(input).collect();

        let backlog: Vec<_> = inputs[..BACKLOG]
            .iter()
            .map(|x| srv.submit(Request::full(x.clone())).unwrap())
            .collect();
        // a budget nothing fits: served at the start subnet, deadline gone
        // by the time a worker looks
        let expired = srv
            .submit(Request::with_budget(inputs[BACKLOG].clone(), 1e-3))
            .unwrap();
        let later_budget = (costs[1] as f64 + 0.5) / device.macs_per_us();
        let later = srv
            .submit(Request::with_budget(
                inputs[BACKLOG + 1].clone(),
                later_budget,
            ))
            .unwrap();
        // what the worker had answered by now bounds what it had claimed
        // before the two arrived: that, and the batch it was running
        let early: Vec<_> = backlog.iter().map(|t| t.try_wait()).collect();
        let answered_by_now = early.iter().flatten().count();

        let expired = expired.wait().unwrap();
        let later = later.wait().unwrap();
        assert_eq!((expired.subnet, later.subnet), (0, 1));
        assert!(
            expired.session < later.session,
            "the earlier deadline runs first"
        );
        let mut scratch = heavy_net();
        let mut ran_before_expired = 0;
        for ((x, ticket), early) in inputs.iter().zip(backlog).zip(early) {
            let resp = early.unwrap_or_else(|| ticket.wait()).unwrap();
            assert_eq!(resp.logits, scratch.forward(x, 2, false).unwrap());
            ran_before_expired += usize::from(resp.session < expired.session);
        }
        assert!(
            ran_before_expired <= answered_by_now + MAX_BATCH,
            "{ran_before_expired} backlog requests ran before the expired one, \
             {answered_by_now} were answered when it arrived"
        );
        for (x, resp) in inputs[BACKLOG..].iter().zip([&expired, &later]) {
            assert_eq!(resp.logits, scratch.forward(x, resp.subnet, false).unwrap());
        }
        srv.shutdown();
        let stats = srv.stats();
        assert_eq!(stats.requests, stats.admitted);
        assert_eq!(stats.requests, BACKLOG as u64 + 2);
    });
}

#[test]
fn concurrent_upgrades_race_safely() {
    let config = ServeConfig::builder()
        .workers(3)
        .max_batch(4)
        .session(SessionConfig::new().device(DeviceModel::new(1000.0)))
        .build();
    let srv = Arc::new(Server::new(&net(), config).unwrap());

    // phase 1: everyone gets a subnet-0 answer and a session
    let mut sessions = Vec::new();
    let mut inputs = Vec::new();
    for i in 0..12u64 {
        let x = init::uniform(Shape::of(&[1, 6]), -1.0, 1.0, &mut init::rng(500 + i));
        let resp = srv
            .submit(Request::at_subnet(x.clone(), 0))
            .unwrap()
            .wait()
            .unwrap();
        sessions.push(resp.session);
        inputs.push(x);
    }
    // phase 2: all sessions upgrade concurrently from many threads
    let handles: Vec<_> = sessions
        .iter()
        .zip(&inputs)
        .map(|(&session, x)| {
            let srv = Arc::clone(&srv);
            let x = x.clone();
            std::thread::spawn(move || {
                let resp = srv.upgrade(session, None).unwrap().wait().unwrap();
                assert_eq!(resp.subnet, 2);
                let mut scratch = net();
                assert_eq!(resp.logits, scratch.forward(&x, 2, false).unwrap());
                assert!(resp.cache_reuse > 0.0);
            })
        })
        .collect();
    for h in handles {
        h.join().expect("upgrader panicked");
    }
    assert_eq!(srv.session_count(), 12);
    srv.shutdown();
}

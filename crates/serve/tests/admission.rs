//! Deterministic admission-control tests: lanes are made to fill (tiny
//! `lane_capacity`, huge `max_batch`, and a paused server, so jobs queue
//! but are not claimed until shutdown) and each shed-policy path is pinned
//! down — downgrade chains, typed rejection, upgrade shedding, and the
//! pinned-subnet guarantee.

use std::time::Duration;

use stepping_baselines::regular_assign;
use stepping_core::{SteppingNet, SteppingNetBuilder};
use stepping_runtime::{DeviceModel, SessionConfig};
use stepping_serve::{
    AdmissionError, Outcome, Request, ServeConfig, ServeError, Server, ShedPolicy,
};
use stepping_tensor::{init, Shape, Tensor};

fn net(subnets: usize) -> SteppingNet {
    let fractions: Vec<f64> = (1..=subnets).map(|k| k as f64 / subnets as f64).collect();
    let mut n = SteppingNetBuilder::new(Shape::of(&[6]), subnets, 7)
        .linear(16)
        .relu()
        .linear(12)
        .relu()
        .build(4)
        .unwrap();
    regular_assign(&mut n, &fractions).unwrap();
    n
}

fn sample(seed: u64) -> Tensor {
    init::uniform(Shape::of(&[1, 6]), -1.0, 1.0, &mut init::rng(seed))
}

/// A config whose lanes accept exactly one job: capacity 1, `max_batch`
/// far above anything queued. With the server paused, jobs stay queued
/// until shutdown.
fn congested(policy: ShedPolicy) -> ServeConfig {
    ServeConfig::builder()
        .workers(1)
        .max_batch(64)
        .lane_capacity(1)
        .shed_policy(policy)
        .session(SessionConfig::new().device(DeviceModel::new(1000.0)))
        .build()
}

#[test]
fn full_requests_downgrade_down_the_subnet_ladder_then_reject() {
    let srv = Server::new(&net(3), congested(ShedPolicy::Downgrade)).unwrap();
    srv.pause();
    // three full requests land in Begin{2}, Begin{1}, Begin{0} in turn
    let t1 = srv.submit(Request::full(sample(1))).unwrap();
    let t2 = srv.submit(Request::full(sample(2))).unwrap();
    let t3 = srv.submit(Request::full(sample(3))).unwrap();
    // the fourth finds every admissible lane full
    match srv.submit(Request::full(sample(4))) {
        Err(ServeError::Admission(AdmissionError::QueueFull { depth, capacity })) => {
            assert_eq!((depth, capacity), (1, 1));
        }
        other => panic!("expected QueueFull, got {other:?}"),
    }
    let stats = srv.stats();
    assert_eq!(stats.admitted, 3);
    assert_eq!(stats.rejected, 1);
    // shutdown drains the stuck lanes; outcomes report each downgrade
    srv.shutdown();
    let r1 = t1.wait().unwrap();
    assert_eq!((r1.subnet, r1.outcome), (2, Outcome::Met));
    let r2 = t2.wait().unwrap();
    assert_eq!(r2.subnet, 1);
    assert_eq!(
        r2.outcome,
        Outcome::Degraded {
            requested: 2,
            served: 1
        }
    );
    let r3 = t3.wait().unwrap();
    assert_eq!(r3.subnet, 0);
    assert_eq!(
        r3.outcome,
        Outcome::Degraded {
            requested: 2,
            served: 0
        }
    );
    let stats = srv.stats();
    assert_eq!(stats.requests, 3);
    assert_eq!(stats.degraded, 2);
    assert_eq!(stats.deadline_misses, 0, "degradation is not a miss");
}

#[test]
fn pinned_subnet_requests_are_never_downgraded() {
    let srv = Server::new(&net(3), congested(ShedPolicy::Downgrade)).unwrap();
    srv.pause();
    let t1 = srv.submit(Request::at_subnet(sample(1), 2)).unwrap();
    // same lane, pinned: admission must refuse rather than serve subnet 1
    match srv.submit(Request::at_subnet(sample(2), 2)) {
        Err(ServeError::Admission(AdmissionError::QueueFull { .. })) => {}
        other => panic!("expected QueueFull for pinned request, got {other:?}"),
    }
    // smaller pinned lanes are untouched by the refusal
    let t3 = srv.submit(Request::at_subnet(sample(3), 0)).unwrap();
    srv.shutdown();
    assert_eq!(t1.wait().unwrap().subnet, 2);
    assert_eq!(t3.wait().unwrap().subnet, 0);
    assert_eq!(srv.stats().degraded, 0);
    assert_eq!(srv.stats().rejected, 1);
}

#[test]
fn reject_policy_refuses_without_downgrading() {
    let srv = Server::new(&net(3), congested(ShedPolicy::Reject)).unwrap();
    srv.pause();
    let t1 = srv.submit(Request::full(sample(1))).unwrap();
    let err = srv.submit(Request::full(sample(2))).unwrap_err();
    assert!(matches!(
        err,
        ServeError::Admission(AdmissionError::QueueFull { .. })
    ));
    // the typed error converts to the workspace error's "system" class
    assert!(matches!(
        stepping_core::SteppingError::from(err),
        stepping_core::SteppingError::Worker(_)
    ));
    srv.shutdown();
    let r1 = t1.wait().unwrap();
    assert_eq!((r1.subnet, r1.outcome), (2, Outcome::Met));
    assert_eq!(srv.stats().degraded, 0);
    assert_eq!(srv.stats().rejected, 1);
}

#[test]
fn full_upgrade_lanes_shed_to_the_session_cache() {
    // each level has one upgrade lane, whatever the target: with two
    // subnets the second upgrade from level 0 has no other lane, and with
    // four it is not walked down to a smaller target's lane either
    for subnets in [2, 4] {
        let srv = Server::new(&net(subnets), congested(ShedPolicy::Downgrade)).unwrap();
        // a near-zero budget resolves to subnet 0; served at once, it
        // yields a session
        let ra = srv
            .submit(Request::with_budget(sample(1), 0.001))
            .unwrap()
            .wait()
            .unwrap();
        let rb = srv
            .submit(Request::with_budget(sample(2), 0.001))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!((ra.subnet, rb.subnet), (0, 0));
        srv.pause();
        // first upgrade occupies the single lane of level 0 and sticks there
        let stuck = srv.upgrade(ra.session, None).unwrap();
        // second upgrade finds it full and is shed: answered synchronously
        // from its session cache, no compute, session retained
        let shed = srv
            .upgrade(rb.session, None)
            .unwrap()
            .try_wait()
            .expect("a shed upgrade is answered before upgrade returns")
            .unwrap();
        assert_eq!(shed.outcome, Outcome::Shed, "{subnets} subnets");
        assert!(shed.outcome.is_degraded());
        assert_eq!(shed.subnet, 0);
        assert_eq!(shed.step_macs, 0);
        assert_eq!(shed.batch_size, 0);
        assert_eq!(shed.cache_reuse, 1.0);
        assert_eq!(shed.logits, rb.logits, "shed answer is the cached one");
        let stats = srv.stats();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.degraded, 0, "no smaller target was tried");
        // session A's cache rides in the queued upgrade; B's was reinstalled
        assert_eq!(srv.session_count(), 1, "shed session survives");
        srv.shutdown();
        let upgraded = stuck.wait().unwrap();
        assert_eq!(upgraded.subnet, subnets - 1);
        assert_eq!(upgraded.outcome, Outcome::Met);
        assert_eq!(srv.session_count(), 2, "both sessions back in the table");
    }
}

#[test]
fn full_upgrade_lanes_reject_under_reject_policy_and_session_survives() {
    let srv = Server::new(&net(2), congested(ShedPolicy::Reject)).unwrap();
    let ra = srv
        .submit(Request::with_budget(sample(1), 0.001))
        .unwrap()
        .wait()
        .unwrap();
    let rb = srv
        .submit(Request::with_budget(sample(2), 0.001))
        .unwrap()
        .wait()
        .unwrap();
    srv.pause();
    let stuck = srv.upgrade(ra.session, None).unwrap();
    let err = srv.upgrade(rb.session, None).unwrap_err();
    assert!(matches!(
        err,
        ServeError::Admission(AdmissionError::QueueFull { .. })
    ));
    // A's cache is in flight in the stuck job; B's refusal reinstalled it
    assert_eq!(
        srv.session_count(),
        1,
        "refused upgrade reinstalls its session"
    );
    assert_eq!(srv.stats().rejected, 1);
    srv.shutdown();
    assert_eq!(stuck.wait().unwrap().subnet, 1);
    assert_eq!(srv.session_count(), 2, "both sessions back in the table");
    // post-shutdown refusals are typed as ShuttingDown and keep the old
    // SteppingError message through the conversion
    let err = srv.submit(Request::full(sample(9))).unwrap_err();
    assert!(matches!(
        err,
        ServeError::Admission(AdmissionError::ShuttingDown)
    ));
    assert_eq!(
        stepping_core::SteppingError::from(err),
        stepping_core::SteppingError::BadConfig("server is shut down".into())
    );
}

#[test]
fn tickets_can_be_polled_and_time_limited() {
    let srv = Server::new(&net(3), congested(ShedPolicy::Downgrade)).unwrap();
    srv.pause();
    // the paused lane is not claimed, so the ticket stays pending
    let t = srv.submit(Request::full(sample(1))).unwrap();
    assert!(t.try_wait().is_none(), "nothing served yet");
    assert!(
        t.wait_timeout(Duration::from_millis(10)).is_none(),
        "timeout leaves the ticket pending"
    );
    srv.shutdown();
    // after the drain the same ticket resolves through either path
    let resp = loop {
        if let Some(r) = t.try_wait() {
            break r;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    assert_eq!(resp.unwrap().subnet, 2);
}

//! Functional tests of the serving engine: batched bit-identity, deadline
//! math, incremental upgrades, cache hits, validation, and graceful
//! shutdown.

use stepping_baselines::regular_assign;
use stepping_core::{SteppingError, SteppingNet, SteppingNetBuilder};
use stepping_runtime::{DeviceModel, SessionConfig};
use stepping_serve::{Outcome, Request, ServeConfig, ServeError, Server};
use stepping_tensor::{init, Shape, Tensor};

fn net() -> SteppingNet {
    let mut n = SteppingNetBuilder::new(Shape::of(&[6]), 3, 11)
        .linear(16)
        .relu()
        .linear(12)
        .relu()
        .build(4)
        .unwrap();
    regular_assign(&mut n, &[0.3, 0.6, 1.0]).unwrap();
    n
}

fn sample(seed: u64) -> Tensor {
    init::uniform(Shape::of(&[1, 6]), -1.0, 1.0, &mut init::rng(seed))
}

fn server(workers: usize, max_batch: usize) -> Server {
    let config = ServeConfig::builder()
        .workers(workers)
        .max_batch(max_batch)
        .session(SessionConfig::new().device(DeviceModel::new(1000.0)))
        .build();
    Server::new(&net(), config).unwrap()
}

#[test]
fn batched_logits_bit_identical_to_lone_forward() {
    let srv = server(1, 4);
    let inputs: Vec<Tensor> = (0..4).map(|i| sample(100 + i)).collect();
    srv.pause();
    let tickets: Vec<_> = inputs
        .iter()
        .map(|x| srv.submit(Request::at_subnet(x.clone(), 1)).unwrap())
        .collect();
    srv.resume();
    let mut scratch = net();
    let mut saw_fused_batch = false;
    for (x, t) in inputs.iter().zip(tickets) {
        let resp = t.wait().unwrap();
        assert_eq!(resp.subnet, 1);
        let reference = scratch.forward(x, 1, false).unwrap();
        assert_eq!(
            resp.logits, reference,
            "batched logits differ from lone run"
        );
        assert_eq!(resp.prediction(), reference.argmax());
        assert_eq!(resp.batch_size, 4, "all four queued while paused");
        saw_fused_batch |= resp.batch_size > 1;
    }
    assert!(
        saw_fused_batch,
        "with one worker and the server paused, requests should have batched"
    );
    srv.shutdown();
    let stats = srv.stats();
    assert_eq!(stats.requests, 4);
    assert!(stats.max_batch >= 2);
}

#[test]
fn deadline_budget_picks_largest_affordable_subnet() {
    let srv = server(2, 4);
    let costs = srv.subnet_costs().to_vec();
    let device = DeviceModel::new(1000.0);
    assert!(costs.windows(2).all(|w| w[0] < w[1]));

    // budget exactly covering subnet 1 but not subnet 2
    let budget = (costs[1] as f64 + 0.5) / device.macs_per_us();
    let resp = srv
        .submit(Request::with_budget(sample(1), budget))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(resp.subnet, 1);
    assert_eq!(resp.outcome, Outcome::Met);
    assert!(resp.modeled_latency_us <= budget);

    // budget too small even for subnet 0: best-effort, flagged as a miss
    let starved = (costs[0] as f64 - 0.5) / device.macs_per_us();
    let resp = srv
        .submit(Request::with_budget(sample(2), starved))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(resp.subnet, 0);
    // the requested (best-effort) subnet was served, but its modeled cost
    // blew the budget: a degradation with served == requested
    assert_eq!(
        resp.outcome,
        Outcome::Degraded {
            requested: 0,
            served: 0
        }
    );
    assert!(resp.outcome.is_degraded());
    assert_eq!(srv.stats().deadline_misses, 1);

    // a generous budget affords the largest subnet
    let generous = (costs[2] as f64 + 1.0) / device.macs_per_us();
    let resp = srv
        .submit(Request::with_budget(sample(3), generous))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(resp.subnet, 2);
    srv.shutdown();
}

#[test]
fn upgrade_reuses_cache_and_matches_scratch() {
    let srv = server(2, 4);
    let x = sample(7);
    let first = srv
        .submit(Request::at_subnet(x.clone(), 0))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(first.subnet, 0);
    assert_eq!(first.cache_reuse, 0.0);
    assert_eq!(srv.session_count(), 1);

    let upgraded = srv.upgrade(first.session, None).unwrap().wait().unwrap();
    assert_eq!(upgraded.subnet, 2);
    assert_eq!(upgraded.session, first.session);
    let mut scratch = net();
    let reference = scratch.forward(&x, 2, false).unwrap();
    assert_eq!(upgraded.logits, reference, "upgraded logits differ");
    // incremental upgrade is cheaper than recomputing subnet 2 directly
    assert!(upgraded.step_macs < srv.subnet_costs()[2]);
    assert_eq!(upgraded.total_macs, first.step_macs + upgraded.step_macs);
    assert!(upgraded.cache_reuse > 0.0 && upgraded.cache_reuse < 1.0);
    srv.shutdown();
}

#[test]
fn unaffordable_upgrade_is_answered_from_cache() {
    let srv = server(1, 2);
    let x = sample(9);
    let first = srv
        .submit(Request::at_subnet(x, 1))
        .unwrap()
        .wait()
        .unwrap();
    // an extra budget too small for even one expansion step
    let resp = srv
        .upgrade(first.session, Some(0.001))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(resp.subnet, 1);
    assert_eq!(resp.outcome, Outcome::CacheHit);
    assert_eq!(resp.step_macs, 0);
    assert_eq!(resp.batch_size, 0);
    assert_eq!(resp.cache_reuse, 1.0);
    assert_eq!(resp.logits, first.logits);
    assert_eq!(srv.stats().cache_hits, 1);
    // the session survives a cache hit and can still be upgraded for real
    let real = srv.upgrade(first.session, None).unwrap().wait().unwrap();
    assert_eq!(real.subnet, 2);
    srv.shutdown();
}

#[test]
fn validates_configuration_and_requests() {
    // no device model
    let err = Server::new(&net(), ServeConfig::builder().build());
    assert!(err.is_err());
    // zero workers / zero batch
    let session = SessionConfig::new().device(DeviceModel::mobile());
    assert!(matches!(
        Server::new(
            &net(),
            ServeConfig::builder()
                .workers(0)
                .session(session.clone())
                .build()
        ),
        Err(SteppingError::BadConfig(_))
    ));
    assert!(matches!(
        Server::new(
            &net(),
            ServeConfig::builder()
                .max_batch(0)
                .session(session.clone())
                .build()
        ),
        Err(SteppingError::BadConfig(_))
    ));
    // out-of-range start subnet
    assert!(matches!(
        Server::new(
            &net(),
            ServeConfig::builder()
                .session(session.clone().start_subnet(9))
                .build()
        ),
        Err(SteppingError::SubnetOutOfRange { subnet: 9, .. })
    ));

    let srv = server(1, 2);
    // out-of-range subnet, bad budgets, empty input
    assert!(srv.submit(Request::at_subnet(sample(1), 9)).is_err());
    assert!(srv.submit(Request::with_budget(sample(1), -1.0)).is_err());
    assert!(srv
        .submit(Request::with_budget(sample(1), f64::NAN))
        .is_err());
    assert!(srv
        .submit(Request::full(Tensor::zeros(Shape::of(&[0, 6]))))
        .is_err());
    // unknown session
    assert!(srv.upgrade(999, None).is_err());
    assert!(srv.upgrade(999, Some(-3.0)).is_err());
    srv.shutdown();
    // post-shutdown submissions are rejected
    assert!(srv.submit(Request::full(sample(1))).is_err());
}

/// A request of the wrong trailing shape would fail the stacked forward of
/// whatever batch it joined; it must be refused at `submit` so that its
/// would-be batch neighbours are still answered.
#[test]
fn malformed_request_is_refused_and_spares_its_batch() {
    let srv = server(1, 4);
    let inputs: Vec<Tensor> = (0..3).map(|i| sample(300 + i)).collect();
    let mut tickets = Vec::new();
    srv.pause();
    for (i, x) in inputs.iter().enumerate() {
        if i == 1 {
            // same lane, queued beside its paused neighbours
            for bad in [Shape::of(&[1, 5]), Shape::of(&[1, 6, 1]), Shape::of(&[6])] {
                let err = srv
                    .submit(Request::at_subnet(Tensor::zeros(bad), 1))
                    .unwrap_err();
                assert!(
                    matches!(err, ServeError::Invalid(SteppingError::InvalidStructure(_))),
                    "{err:?}"
                );
            }
        }
        tickets.push(srv.submit(Request::at_subnet(x.clone(), 1)).unwrap());
    }
    srv.resume();
    let mut scratch = net();
    for (x, t) in inputs.iter().zip(tickets) {
        let resp = t.wait().expect("a well-formed request failed");
        assert_eq!(resp.logits, scratch.forward(x, 1, false).unwrap());
    }
    srv.shutdown();
    assert_eq!(srv.stats().requests, 3);
}

/// A NaN or infinite input would be given a session, cache non-finite
/// activations and charge every later upgrade for garbage; it must be
/// refused at `submit`, before admission is counted, and must not disturb
/// the well-formed request submitted alongside it.
#[test]
fn non_finite_request_is_refused_at_admission() {
    let srv = server(1, 4);
    let good = sample(400);
    srv.pause();
    let ticket = srv.submit(Request::at_subnet(good.clone(), 1)).unwrap();
    let admitted = srv.stats().admitted;
    for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let mut bad = sample(401);
        bad.data_mut()[3] = poison;
        let err = srv.submit(Request::at_subnet(bad, 1)).unwrap_err();
        assert!(
            matches!(err, ServeError::Invalid(SteppingError::InvalidStructure(_))),
            "{poison}: {err:?}"
        );
    }
    assert_eq!(srv.stats().admitted, admitted, "a refusal was admitted");
    srv.resume();
    let resp = ticket.wait().expect("the well-formed request failed");
    assert_eq!(resp.logits, net().forward(&good, 1, false).unwrap());
    srv.shutdown();
    assert_eq!(srv.stats().requests, 1);
    assert_eq!(srv.session_count(), 1, "a refused input got a session");
}

#[test]
fn shutdown_drains_queued_requests() {
    let srv = server(1, 4);
    srv.pause();
    let tickets: Vec<_> = (0..6)
        .map(|i| srv.submit(Request::at_subnet(sample(200 + i), 0)).unwrap())
        .collect();
    srv.shutdown();
    for t in tickets {
        let resp = t.wait().expect("queued request dropped during shutdown");
        assert_eq!(resp.subnet, 0);
    }
    assert_eq!(srv.stats().requests, 6);
}

#[test]
fn drain_refuses_new_sessions_but_serves_upgrades() {
    use stepping_serve::{AdmissionError, ReplicaHandle, ServeError};

    let srv = server(1, 2);
    let resp = srv
        .submit(Request::at_subnet(sample(900), 0))
        .unwrap()
        .wait()
        .unwrap();
    assert!(!srv.is_draining());
    srv.drain();
    assert!(srv.is_draining());
    // new sessions are refused with the typed drain error...
    match srv.submit(Request::at_subnet(sample(901), 0)) {
        Err(ServeError::Admission(AdmissionError::Draining)) => {}
        other => panic!("expected Draining refusal, got {other:?}"),
    }
    // ...but the existing session still upgrades where its cache lives
    let upgraded = srv.upgrade(resp.session, None).unwrap().wait().unwrap();
    assert_eq!(upgraded.subnet, 2);
    assert!(
        upgraded.cache_reuse > 0.0,
        "upgrade reused the drained cache"
    );
    srv.release(upgraded.session);
    assert_eq!(srv.session_count(), 0);
    // the same lifecycle is reachable through the ReplicaHandle trait
    let handle: &dyn ReplicaHandle = &srv;
    assert!(handle.is_draining());
    handle.shutdown();
}

#[test]
fn release_frees_sessions() {
    let srv = server(1, 2);
    let a = srv
        .submit(Request::at_subnet(sample(31), 0))
        .unwrap()
        .wait()
        .unwrap();
    let b = srv
        .submit(Request::at_subnet(sample(32), 0))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(srv.session_count(), 2);
    srv.release(a.session);
    assert_eq!(srv.session_count(), 1);
    assert!(
        srv.upgrade(a.session, None).is_err(),
        "released session gone"
    );
    assert!(srv.upgrade(b.session, None).is_ok());
    srv.release(12345); // unknown: ignored
    srv.shutdown();
}

#[test]
fn release_during_an_in_flight_upgrade_is_honoured_on_completion() {
    // one worker, paused once the sessions exist, so that a lone upgrade
    // job is still queued — in flight — while the client acts
    let srv = server(1, 8);
    let first = srv
        .submit(Request::at_subnet(sample(41), 0))
        .unwrap()
        .wait()
        .unwrap();
    let bystander = srv
        .submit(Request::at_subnet(sample(42), 0))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(srv.session_count(), 2);

    srv.pause();
    let ticket = srv.upgrade(first.session, None).unwrap();
    assert_eq!(srv.session_count(), 1, "the cache travels with the job");
    match srv.upgrade(first.session, None) {
        Err(ServeError::UpgradeInFlight { session }) => assert_eq!(session, first.session),
        other => panic!("second concurrent upgrade: expected UpgradeInFlight, got {other:?}"),
    }
    srv.release(first.session);
    srv.resume();

    // the ticket still resolves, with the upgraded answer
    let upgraded = ticket.wait().unwrap();
    assert_eq!(upgraded.subnet, 2);
    assert_eq!(
        upgraded.logits,
        net().forward(&sample(41), 2, false).unwrap()
    );
    assert_eq!(
        srv.session_count(),
        1,
        "the worker dropped the released cache instead of reinstalling it"
    );
    assert!(matches!(
        srv.upgrade(first.session, None),
        Err(ServeError::Invalid(SteppingError::BadConfig(_)))
    ));
    srv.release(bystander.session);
    assert_eq!(srv.session_count(), 0);
    srv.shutdown();
    let stats = srv.stats();
    assert_eq!(
        stats.admitted, 3,
        "two begins and one upgrade were admitted"
    );
    assert_eq!(stats.requests, 3, "and each was answered exactly once");
}

#[test]
fn batch_rows_per_request_are_preserved() {
    // a request may carry several rows; they stay together through batching
    let srv = server(1, 3);
    let wide = init::uniform(Shape::of(&[3, 6]), -1.0, 1.0, &mut init::rng(77));
    let narrow = sample(78);
    srv.pause();
    let t1 = srv.submit(Request::at_subnet(wide.clone(), 2)).unwrap();
    let t2 = srv.submit(Request::at_subnet(narrow.clone(), 2)).unwrap();
    srv.resume();
    let r1 = t1.wait().unwrap();
    let r2 = t2.wait().unwrap();
    assert_eq!((r1.batch_size, r2.batch_size), (2, 2), "one batch of two");
    assert_eq!(r1.logits.shape().dims(), &[3, 4]);
    assert_eq!(r2.logits.shape().dims(), &[1, 4]);
    let mut scratch = net();
    assert_eq!(r1.logits, scratch.forward(&wide, 2, false).unwrap());
    assert_eq!(r2.logits, scratch.forward(&narrow, 2, false).unwrap());
    srv.shutdown();
}

#[test]
fn upgrades_from_one_level_share_their_steps_whatever_their_targets() {
    // four subnets: from level 0, one upgrade affords one step and the
    // other takes all three, yet both ride the one lane of level 0
    let mut net = SteppingNetBuilder::new(Shape::of(&[6]), 4, 11)
        .linear(16)
        .relu()
        .linear(12)
        .relu()
        .build(4)
        .unwrap();
    regular_assign(&mut net, &[0.25, 0.5, 0.75, 1.0]).unwrap();
    let device = DeviceModel::new(1000.0);
    let config = ServeConfig::builder()
        .workers(1)
        .max_batch(8)
        .session(SessionConfig::new().device(device))
        .build();
    let srv = Server::new(&net, config).unwrap();
    let table = net.mac_table(0.0);
    let (direct, step) = (table.direct(), table.step());
    let begun: Vec<_> = [51, 52]
        .map(|seed| {
            srv.submit(Request::at_subnet(sample(seed), 0))
                .unwrap()
                .wait()
                .unwrap()
        })
        .into();
    assert!(begun.iter().all(|r| r.subnet == 0));
    let before = srv.stats();

    srv.pause();
    // enough for the step to level 1, not for the one after it
    let one_step = (step[1] as f64 + 0.5) / device.macs_per_us();
    assert!(step[1] + step[2] > device.budget_for_us(one_step));
    let a = srv.upgrade(begun[0].session, Some(one_step)).unwrap();
    let b = srv.upgrade(begun[1].session, None).unwrap();
    srv.resume();
    let (a, b) = (a.wait().unwrap(), b.wait().unwrap());

    assert_eq!((a.batch_size, b.batch_size), (2, 2), "one batch of two");
    assert_eq!((a.subnet, b.subnet), (1, 3));
    for (response, seed, target) in [(&a, 51, 1), (&b, 52, 3)] {
        assert_eq!(
            response.logits,
            net.forward(&sample(seed), target, false).unwrap(),
            "logits at subnet {target}"
        );
        assert_eq!(response.outcome, Outcome::Met);
        let step_macs: u64 = step[1..=target].iter().sum();
        let total = direct[0] + step_macs;
        assert_eq!(response.step_macs, step_macs, "subnet {target}");
        assert_eq!(response.total_macs, total, "subnet {target}");
        assert_eq!(response.modeled_latency_us, device.latency_us(step_macs));
        assert_eq!(
            response.cache_reuse,
            1.0 - step_macs as f64 / total as f64,
            "subnet {target}"
        );
    }
    let after = srv.stats();
    assert_eq!(after.batches, before.batches + 1, "one claim, one batch");
    assert_eq!(after.requests, before.requests + 2);
    srv.shutdown();
}

/// A session at the top subnet — begun there, or upgraded there — holds its
/// answer alone: it stays counted, a further upgrade is a cache hit with
/// the same logits and `total_macs`, and `release` frees it.
#[test]
fn top_sessions_answer_later_upgrades_from_their_logits() {
    let srv = server(1, 4);
    let top = srv.subnet_costs().len() - 1;
    let x = sample(41);
    let reference = net().forward(&x, top, false).unwrap();
    let begun = srv
        .submit(Request::full(x.clone()))
        .unwrap()
        .wait()
        .unwrap();
    let stepped = {
        let first = srv
            .submit(Request::at_subnet(x, 0))
            .unwrap()
            .wait()
            .unwrap();
        srv.upgrade(first.session, None).unwrap().wait().unwrap()
    };
    assert_eq!(srv.session_count(), 2, "both top sessions stay counted");
    for (what, answer) in [("top begin", &begun), ("upgrade to the top", &stepped)] {
        assert_eq!(answer.subnet, top, "{what}");
        assert_eq!(answer.logits, reference, "{what}");
        let again = srv.upgrade(answer.session, None).unwrap().wait().unwrap();
        assert_eq!(again.outcome, Outcome::CacheHit, "{what}");
        assert_eq!(again.subnet, top, "{what}");
        assert_eq!(again.logits, answer.logits, "{what}");
        assert_eq!(again.total_macs, answer.total_macs, "{what}");
        assert_eq!((again.step_macs, again.batch_size), (0, 0), "{what}");
        // a budgeted upgrade from the top is a cache hit too
        let budgeted = srv
            .upgrade(answer.session, Some(1e9))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(budgeted.outcome, Outcome::CacheHit, "{what}");
        assert_eq!(budgeted.total_macs, answer.total_macs, "{what}");
    }
    assert_eq!(begun.total_macs, srv.subnet_costs()[top]);
    assert_eq!(srv.stats().cache_hits, 4);
    srv.release(begun.session);
    assert_eq!(srv.session_count(), 1);
    assert!(srv.upgrade(begun.session, None).is_err(), "released");
    srv.release(stepped.session);
    assert_eq!(srv.session_count(), 0);
    srv.shutdown();
}

/// A neuron moved through `stages_mut()` without `sync_assignments()`
/// leaves its stage out of level order, which no panel can be compiled
/// for: `Server::new` refuses the net with a typed error naming the fix,
/// in release builds too, where compiling it would index out of bounds
/// or pack the wrong rows.
#[test]
fn a_net_out_of_level_order_is_refused() {
    let mut unsynced = net();
    unsynced.stages_mut()[0].move_out_neuron(0, 1).unwrap();
    assert!(!unsynced.is_level_major());
    let config = ServeConfig::builder()
        .session(SessionConfig::new().device(DeviceModel::mobile()))
        .build();
    match Server::new(&unsynced, config.clone()) {
        Err(SteppingError::InvalidStructure(msg)) => {
            assert!(msg.contains("sync_assignments()"), "{msg}");
        }
        other => panic!("expected InvalidStructure, got {other:?}"),
    }
    unsynced.sync_assignments().unwrap();
    assert!(unsynced.is_level_major());
    Server::new(&unsynced, config).unwrap().shutdown();
}

//! Soak test: 10 000 sessions of submit / upgrade / release churn across
//! producer threads. Asserts zero lost tickets (every accepted request is
//! answered exactly once), every reply `==` the masked forward, a sane p99
//! latency, and a coherent final stats tuple — the lane scheduler's
//! liveness under sustained mixed load with work-conserving dispatch: a
//! free worker claims at once, one push wakes one worker.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use common::watchdog;
use stepping_baselines::regular_assign;
use stepping_core::{SteppingNet, SteppingNetBuilder};
use stepping_runtime::{DeviceModel, SessionConfig};
use stepping_serve::{Request, ServeConfig, Server};
use stepping_tensor::{init, Shape};

const PRODUCERS: usize = 4;
const SESSIONS_PER_PRODUCER: usize = 2_500;
const CHUNK: usize = 25;

fn net() -> SteppingNet {
    let mut n = SteppingNetBuilder::new(Shape::of(&[6]), 3, 23)
        .linear(16)
        .relu()
        .linear(12)
        .relu()
        .build(4)
        .unwrap();
    regular_assign(&mut n, &[0.3, 0.6, 1.0]).unwrap();
    n
}

#[test]
fn ten_thousand_sessions_of_churn_lose_nothing() {
    watchdog(churn);
}

fn churn() {
    let device = DeviceModel::new(1000.0);
    let config = ServeConfig::builder()
        .workers(4)
        .max_batch(8)
        .lane_capacity(512) // far above peak in-flight: no shedding today
        .session(SessionConfig::new().device(device))
        .build();
    let srv = Arc::new(Server::new(&net(), config).unwrap());
    let answered = Arc::new(AtomicU64::new(0));
    let upgraded = Arc::new(AtomicU64::new(0));
    let released = Arc::new(AtomicU64::new(0));
    let costs = srv.subnet_costs().to_vec();

    let handles: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let srv = Arc::clone(&srv);
            let answered = Arc::clone(&answered);
            let upgraded = Arc::clone(&upgraded);
            let released = Arc::clone(&released);
            let costs = costs.clone();
            std::thread::spawn(move || {
                let mut scratch = net();
                let mut latencies = Vec::with_capacity(SESSIONS_PER_PRODUCER);
                for chunk in 0..SESSIONS_PER_PRODUCER / CHUNK {
                    // submit a wave without waiting, so batches can form
                    let tickets: Vec<_> = (0..CHUNK)
                        .map(|j| {
                            let i = (p * SESSIONS_PER_PRODUCER + chunk * CHUNK + j) as u64;
                            let x = init::uniform(Shape::of(&[1, 6]), -1.0, 1.0, &mut init::rng(i));
                            let request = match j % 3 {
                                0 => Request::at_subnet(x.clone(), j % costs.len()),
                                1 => Request::with_budget(
                                    x.clone(),
                                    (costs[j % costs.len()] as f64 + 0.5)
                                        / DeviceModel::new(1000.0).macs_per_us(),
                                ),
                                _ => Request::full(x.clone()),
                            };
                            let ticket = srv.submit(request).expect("admission refused under soak");
                            (x, ticket)
                        })
                        .collect();
                    // drain the wave; churn sessions as answers arrive
                    for (j, (x, t)) in tickets.into_iter().enumerate() {
                        let resp = t.wait().expect("ticket lost");
                        answered.fetch_add(1, Ordering::Relaxed);
                        latencies.push(resp.latency_us);
                        assert_eq!(
                            resp.logits,
                            scratch.forward(&x, resp.subnet, false).unwrap(),
                            "producer {p} chunk {chunk} request {j} logits differ"
                        );
                        if j % 3 == 0 {
                            let up = srv
                                .upgrade(resp.session, None)
                                .expect("upgrade refused under soak")
                                .wait()
                                .expect("upgrade ticket lost");
                            assert!(up.subnet >= resp.subnet);
                            assert_eq!(
                                up.logits,
                                scratch.forward(&x, up.subnet, false).unwrap(),
                                "producer {p} chunk {chunk} upgrade {j} logits differ"
                            );
                            answered.fetch_add(1, Ordering::Relaxed);
                            upgraded.fetch_add(1, Ordering::Relaxed);
                            latencies.push(up.latency_us);
                        }
                        if j % 3 != 2 {
                            srv.release(resp.session);
                            released.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                latencies
            })
        })
        .collect();

    let mut latencies: Vec<f64> = Vec::new();
    for h in handles {
        latencies.extend(h.join().expect("producer panicked"));
    }
    srv.shutdown();

    let begins = (PRODUCERS * SESSIONS_PER_PRODUCER) as u64;
    let ups = upgraded.load(Ordering::Relaxed);
    let total = begins + ups;
    assert_eq!(
        answered.load(Ordering::Relaxed),
        total,
        "every accepted ticket answered exactly once"
    );
    assert_eq!(latencies.len(), total as usize);

    let stats = srv.stats();
    assert_eq!(
        stats.admitted, total,
        "no admissions lost or double-counted"
    );
    assert_eq!(stats.requests, total);
    assert_eq!(stats.rejected, 0, "capacity 512 never filled");
    assert_eq!(stats.shed, 0);
    assert!(stats.batches > 0 && stats.batches <= total);
    // upgrades to an already-top session can't happen here: every upgrade
    // starts below the top subnet, so none is a cache hit
    assert_eq!(stats.cache_hits, 0);
    assert_eq!(
        srv.session_count() as u64,
        begins - released.load(Ordering::Relaxed),
        "released sessions gone, kept sessions retained"
    );

    // p99 sanity: sustained churn must not leave stragglers behind (bound
    // is deliberately loose — debug builds on loaded CI still clear it)
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("latency NaN"));
    let p99 = latencies[(latencies.len() * 99) / 100 - 1];
    assert!(
        p99 < 2_000_000.0,
        "p99 latency {p99} µs exceeds the 2 s soak bound"
    );
}

//! Placement of seeded session keys on a two-replica fleet with 64
//! virtual nodes per replica: how evenly the ring spreads a uniform and a
//! zipf-skewed key population, pinned to the exact shares.
//!
//! Each population is 8 clients × 40 session lifecycles (submit, upgrade,
//! release), each client on its own thread. The key of lifecycle `j` of
//! client `c` is drawn from `init::rng((c * 40 + j) ^ 0xda7a_5eed)`: a
//! uniform `u64`, or a zipf(1.0) rank over 256 users, avalanched. Placement
//! is a pure function of the keys, so the shares are exact on any host.

mod support;

use std::sync::atomic::Ordering;

use rand::Rng;
use stepping_router::{decode_session, Ring};
use stepping_tensor::init;
use support::{fleet, request};

/// Closed-loop clients, one thread each.
const CLIENTS: usize = 8;
/// Session lifecycles per client.
const LIFECYCLES: usize = 40;
/// Distinct users behind the zipf population.
const USERS: usize = 256;
/// Zipf exponent: user `i` carries weight `1/(i+1)^S`.
const ZIPF_S: f64 = 1.0;
/// Virtual nodes per replica on the ring.
const VNODES: usize = 64;

/// Normalized zipf CDF over [`USERS`] ranks.
fn zipf_cdf() -> Vec<f64> {
    let weights: Vec<f64> = (0..USERS)
        .map(|i| 1.0 / ((i + 1) as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// One session key: uniform over the key space, or a zipf user rank
/// avalanched so ring placement sees well-mixed bits.
fn session_key(cdf: Option<&[f64]>, rng: &mut impl Rng) -> u64 {
    match cdf {
        None => rng.random::<u64>(),
        Some(cdf) => {
            let u = rng.random::<f64>();
            let rank = cdf.partition_point(|&c| c < u).min(USERS - 1);
            (rank as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        }
    }
}

/// Runs one population's lifecycles against a fresh two-replica fleet,
/// checking every answer on the way, and returns the fraction of sessions
/// the hottest replica absorbed.
fn max_share(cdf: Option<&[f64]>) -> f64 {
    let (mocks, router) = fleet(2, VNODES);
    let ring = Ring::new(2, VNODES);
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let (router, ring, mocks) = (&router, &ring, &mocks);
            scope.spawn(move || {
                for j in 0..LIFECYCLES {
                    let seed = (c * LIFECYCLES + j) as u64;
                    let key = session_key(cdf, &mut init::rng(seed ^ 0xda7a_5eed));
                    let resp = router.submit(key, request()).unwrap().wait().unwrap();
                    let (replica, local) = decode_session(resp.session);
                    // zero reroutes: a healthy fleet places on the owner
                    assert_eq!(replica, ring.owner(key), "key {key:#x} off its owner");
                    let upgraded = router.upgrade(resp.session, None).unwrap().wait().unwrap();
                    assert_eq!(upgraded.session, resp.session, "sticky id");
                    assert_eq!(upgraded.subnet, 1, "one upgrade step");
                    assert!(mocks[replica].owns(local), "session held by its owner");
                    router.release(resp.session);
                }
            });
        }
    });
    // every submit and every upgrade answered exactly once
    let placed: Vec<u64> = mocks
        .iter()
        .map(|m| m.submits.load(Ordering::SeqCst))
        .collect();
    for mock in &mocks {
        assert_eq!(
            mock.upgrades.load(Ordering::SeqCst),
            mock.submits.load(Ordering::SeqCst)
        );
    }
    assert_eq!(placed.iter().sum::<u64>(), (CLIENTS * LIFECYCLES) as u64);
    assert_eq!(router.session_counts(), [0, 0], "every session released");
    placed[0].max(placed[1]) as f64 / (CLIENTS * LIFECYCLES) as f64
}

#[test]
fn uniform_keys_split_evenly() {
    let share = max_share(None);
    assert!(
        share < 0.65,
        "uniform keys landed {share:.3} on one replica"
    );
    assert_eq!(format!("{share:.4}"), "0.5219");
}

#[test]
fn zipf_keys_stay_under_the_skew_bound() {
    let share = max_share(Some(&zipf_cdf()));
    assert!(share < 0.75, "zipf keys landed {share:.3} on one replica");
    assert_eq!(format!("{share:.4}"), "0.5906");
}

#[test]
fn two_replica_ring_imbalance_is_pinned() {
    let imbalance = Ring::new(2, VNODES).imbalance();
    assert_eq!(format!("{imbalance:.4}"), "1.0488");
}

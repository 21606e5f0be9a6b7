//! Property tests of the routing layer over replica test doubles.
//!
//! The invariant the whole crate exists to protect: **incremental-upgrade
//! state never crosses replicas**. For any interleaving of submits,
//! upgrades, and drains, every session's upgrade lands on the replica
//! that holds its activation cache, and every routed session id decodes
//! to the replica that actually created it. Plus the restart property:
//! ring lookups are a pure function of `(replicas, vnodes, key)`.

mod support;

use std::sync::atomic::Ordering;

use proptest::prelude::*;
use stepping_router::{decode_session, Ring};
use stepping_serve::ReplicaHandle;
use support::{fleet, request};

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// For any interleaving of submits, upgrades, releases, and drains:
    /// every routed session decodes to the replica that actually holds
    /// it, and every upgrade is served by that same replica — zero
    /// cross-replica leaks.
    #[test]
    fn upgrades_always_land_on_the_owning_replica(
        replicas in 1usize..6,
        ops in proptest::collection::vec((0u8..10, 0u64..1_000_000), 1..120),
    ) {
        let (mocks, router) = fleet(replicas, 32);
        let mut live: Vec<u64> = Vec::new();
        for (kind, key) in ops {
            match kind {
                // drain a replica (at most replicas-1 so someone accepts)
                0 if replicas > 1 => {
                    let candidate = (key as usize) % replicas;
                    let draining = mocks.iter().filter(|m| m.is_draining()).count();
                    if draining + 1 < replicas {
                        router.drain(candidate).unwrap();
                    }
                }
                // upgrade a random live session
                1..=3 if !live.is_empty() => {
                    let session = live[(key as usize) % live.len()];
                    let (replica, local) = decode_session(session);
                    let before = mocks[replica].upgrades.load(Ordering::SeqCst);
                    let resp = router.upgrade(session, None).unwrap().wait().unwrap();
                    // the upgrade ran on the replica encoded in the id...
                    prop_assert_eq!(mocks[replica].upgrades.load(Ordering::SeqCst), before + 1);
                    // ...which really holds the session
                    prop_assert!(mocks[replica].owns(local), "cache crossed replicas");
                    prop_assert_eq!(resp.session, session, "sticky id survives the upgrade");
                }
                // release a random live session
                4 if !live.is_empty() => {
                    let session = live.swap_remove((key as usize) % live.len());
                    router.release(session);
                    let (replica, local) = decode_session(session);
                    prop_assert!(!mocks[replica].owns(local), "release reached the owner");
                }
                // submit a new session
                _ => {
                    let ticket = router.submit(key, request()).unwrap();
                    let placed = ticket.replica();
                    prop_assert!(!mocks[placed].is_draining(), "routed to a draining replica");
                    let resp = ticket.wait().unwrap();
                    let (replica, local) = decode_session(resp.session);
                    prop_assert_eq!(replica, placed, "id encodes the serving replica");
                    prop_assert!(mocks[replica].owns(local), "replica holds the new session");
                    live.push(resp.session);
                }
            }
        }
        // end-to-end accounting: every live session is still held by the
        // replica its id names, and nothing leaked elsewhere
        for &session in &live {
            let (replica, local) = decode_session(session);
            prop_assert!(mocks[replica].owns(local));
        }
        let held: usize = mocks.iter().map(|m| m.session_count()).sum();
        prop_assert_eq!(held, live.len(), "no session lost or duplicated");
    }

    /// Ring lookups are deterministic across process "restarts": a ring
    /// rebuilt from the same `(replicas, vnodes)` maps every key to the
    /// same owner and the same failover order.
    #[test]
    fn ring_lookups_survive_restart(
        replicas in 1usize..9,
        vnodes in 1usize..129,
        keys in proptest::collection::vec(0u64..u64::MAX, 1..64),
    ) {
        let first = Ring::new(replicas, vnodes);
        let rebuilt = Ring::new(replicas, vnodes);
        for key in keys {
            prop_assert_eq!(first.owner(key), rebuilt.owner(key));
            prop_assert_eq!(first.successors(key), rebuilt.successors(key));
        }
    }

    /// A refusing owner trips its breaker after enough failures and new
    /// sessions fail over; the owner's existing sessions still upgrade on
    /// the owner throughout.
    #[test]
    fn refusing_owner_sheds_new_sessions_but_keeps_old_ones(
        key in 0u64..1_000_000,
        extra in 1usize..40,
    ) {
        let (mocks, router) = fleet(2, 32);
        let owner = router.owner_of(key);
        let resp = router.submit(key, request()).unwrap().wait().unwrap();
        prop_assert_eq!(decode_session(resp.session).0, owner);
        // owner starts refusing (overload); new sessions with the same key
        // must land on the other replica, never error out
        mocks[owner].refuse.store(true, Ordering::SeqCst);
        for _ in 0..extra {
            let ticket = router.submit(key, request()).unwrap();
            prop_assert_eq!(ticket.replica(), 1 - owner, "failover to the survivor");
            ticket.wait().unwrap();
        }
        // the original session never moved
        let upgraded = router.upgrade(resp.session, None).unwrap().wait().unwrap();
        prop_assert_eq!(decode_session(upgraded.session).0, owner);
        prop_assert_eq!(upgraded.subnet, 1);
    }
}

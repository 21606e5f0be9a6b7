//! Property tests of the routing layer over replica test doubles.
//!
//! The invariant the whole crate exists to protect: **incremental-upgrade
//! state never crosses replicas**. For any interleaving of submits,
//! upgrades, and drains, every session's upgrade lands on the replica
//! that holds its activation cache, and every routed session id decodes
//! to the replica that actually created it. Plus the restart property:
//! ring lookups are a pure function of `(replicas, vnodes, key)`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use proptest::prelude::*;
use stepping_core::SteppingError;
use stepping_router::{decode_session, Ring, Router, RouterConfig};
use stepping_serve::{
    AdmissionError, Outcome, ReplicaHandle, Request, Response, ServeError, ServerStats, Ticket,
};
use stepping_tensor::{Shape, Tensor};

/// An in-memory replica: a session table and nothing else. Tickets
/// resolve synchronously, so the property test drives thousands of ops
/// without worker pools.
#[derive(Debug)]
struct MockReplica {
    sessions: Mutex<HashMap<u64, usize>>,
    next_session: AtomicU64,
    draining: AtomicBool,
    /// When set, every submit is refused (simulates overload/shutdown).
    refuse: AtomicBool,
    submits: AtomicU64,
    upgrades: AtomicU64,
}

impl MockReplica {
    fn new() -> Self {
        MockReplica {
            sessions: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(1),
            draining: AtomicBool::new(false),
            refuse: AtomicBool::new(false),
            submits: AtomicU64::new(0),
            upgrades: AtomicU64::new(0),
        }
    }

    fn table(&self) -> std::sync::MutexGuard<'_, HashMap<u64, usize>> {
        self.sessions.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn owns(&self, local: u64) -> bool {
        self.table().contains_key(&local)
    }

    fn response(&self, session: u64, subnet: usize) -> Response {
        Response {
            id: session,
            session,
            subnet,
            logits: Tensor::zeros(Shape::of(&[1, 2])),
            step_macs: 1,
            total_macs: 1 + subnet as u64,
            modeled_latency_us: 1.0,
            latency_us: 1.0,
            outcome: Outcome::Met,
            batch_size: 1,
            cache_reuse: 0.0,
        }
    }
}

impl ReplicaHandle for MockReplica {
    fn submit(&self, _request: Request) -> Result<Ticket, ServeError> {
        if self.refuse.load(Ordering::SeqCst) {
            return Err(AdmissionError::QueueFull {
                depth: 1,
                capacity: 1,
            }
            .into());
        }
        if self.draining.load(Ordering::SeqCst) {
            return Err(AdmissionError::Draining.into());
        }
        let session = self.next_session.fetch_add(1, Ordering::SeqCst);
        self.table().insert(session, 0);
        self.submits.fetch_add(1, Ordering::SeqCst);
        Ok(Ticket::resolved(Ok(self.response(session, 0))))
    }

    fn upgrade(&self, session: u64, _extra: Option<f64>) -> Result<Ticket, ServeError> {
        let mut table = self.table();
        let subnet = *table
            .get(&session)
            .ok_or_else(|| SteppingError::BadConfig(format!("unknown session {session}")))?;
        table.insert(session, subnet + 1);
        drop(table);
        self.upgrades.fetch_add(1, Ordering::SeqCst);
        Ok(Ticket::resolved(Ok(self.response(session, subnet + 1))))
    }

    fn release(&self, session: u64) {
        self.table().remove(&session);
    }

    fn session_count(&self) -> usize {
        self.table().len()
    }

    fn drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn shutdown(&self) {}

    fn stats(&self) -> ServerStats {
        ServerStats::default()
    }
}

fn fleet(replicas: usize) -> (Vec<Arc<MockReplica>>, Router) {
    let mocks: Vec<Arc<MockReplica>> = (0..replicas)
        .map(|_| Arc::new(MockReplica::new()))
        .collect();
    let handles: Vec<Arc<dyn ReplicaHandle>> = mocks
        .iter()
        .map(|m| Arc::clone(m) as Arc<dyn ReplicaHandle>)
        .collect();
    let config = RouterConfig::builder().vnodes(32).build();
    let router = Router::new(handles, &config).unwrap();
    (mocks, router)
}

fn request() -> Request {
    Request::at_subnet(Tensor::zeros(Shape::of(&[1, 2])), 0)
}

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
        let (mocks, router) = fleet(replicas);
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
        let (mocks, router) = fleet(2);
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

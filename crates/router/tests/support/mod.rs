//! The in-memory replica test double shared by the router's integration
//! suites.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use stepping_core::SteppingError;
use stepping_router::{Router, RouterConfig};
use stepping_serve::{
    AdmissionError, Outcome, ReplicaHandle, Request, Response, ServeError, ServerStats, Ticket,
};
use stepping_tensor::{Shape, Tensor};

/// An in-memory replica: a session table and nothing else. Tickets
/// resolve synchronously, so a suite drives thousands of ops without
/// worker pools.
#[derive(Debug)]
pub struct MockReplica {
    sessions: Mutex<HashMap<u64, usize>>,
    next_session: AtomicU64,
    draining: AtomicBool,
    /// When set, every submit is refused (simulates overload/shutdown).
    pub refuse: AtomicBool,
    /// Sessions this replica created.
    pub submits: AtomicU64,
    /// Upgrades this replica served.
    pub upgrades: AtomicU64,
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

    pub fn owns(&self, local: u64) -> bool {
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

/// `replicas` mock replicas behind a router with `vnodes` virtual nodes
/// per replica; the mocks are returned for inspection.
pub fn fleet(replicas: usize, vnodes: usize) -> (Vec<Arc<MockReplica>>, Router) {
    let mocks: Vec<Arc<MockReplica>> = (0..replicas)
        .map(|_| Arc::new(MockReplica::new()))
        .collect();
    let handles: Vec<Arc<dyn ReplicaHandle>> = mocks
        .iter()
        .map(|m| Arc::clone(m) as Arc<dyn ReplicaHandle>)
        .collect();
    let config = RouterConfig::builder().vnodes(vnodes).build();
    let router = Router::new(handles, &config).unwrap();
    (mocks, router)
}

/// A one-row request at subnet 0, all the mocks need.
pub fn request() -> Request {
    Request::at_subnet(Tensor::zeros(Shape::of(&[1, 2])), 0)
}

//! Live (threaded) simulation of a resource-varying platform.
//!
//! The live loop itself lives in [`Session::run_live`](crate::Session::run_live):
//! a producer thread plays a [`ResourceTrace`](crate::ResourceTrace) over a
//! channel — the "computing system" granting resources tick by tick — while
//! the caller's thread runs anytime inference, publishing every refined
//! prediction into a shared [`LatestPrediction`] cell that a controller
//! (e.g. the vehicle's planner) can poll at any moment without blocking
//! inference. This module keeps the [`LatestPrediction`] cell.

use std::sync::Arc;

use parking_lot::RwLock;
use stepping_tensor::Tensor;

/// A published prediction: the subnet level it came from and the logits.
type Prediction = (usize, Vec<f32>);

/// The most recent prediction published by a live run, shared with observer
/// threads.
///
/// Cheap to clone (internally an [`Arc`]).
#[derive(Debug, Clone, Default)]
pub struct LatestPrediction {
    inner: Arc<RwLock<Option<Prediction>>>,
}

impl LatestPrediction {
    /// Creates an empty cell.
    pub fn new() -> Self {
        Self::default()
    }

    /// The latest `(subnet, logits)` published, if any.
    pub fn get(&self) -> Option<(usize, Vec<f32>)> {
        self.inner.read().clone()
    }

    pub(crate) fn publish(&self, subnet: usize, logits: &Tensor) {
        *self.inner.write() = Some((subnet, logits.data().to_vec()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ResourceTrace, Session, SessionConfig};
    use std::thread;
    use std::time::Duration;
    use stepping_core::{SteppingNet, SteppingNetBuilder};
    use stepping_tensor::{init, Shape};

    fn net() -> SteppingNet {
        let mut n = SteppingNetBuilder::new(Shape::of(&[5]), 2, 1)
            .linear(8)
            .relu()
            .build(3)
            .unwrap();
        n.move_neurons(&[(0, 6, 1), (0, 7, 1)]).unwrap();
        n
    }

    #[test]
    fn live_matches_offline_drive() {
        let x = init::uniform(Shape::of(&[1, 5]), -1.0, 1.0, &mut init::rng(2));
        let trace = ResourceTrace::constant(net().macs(1, 0.0), 3);
        let latest = LatestPrediction::new();
        let cfg = SessionConfig::new().trace(trace);
        let mut n1 = net();
        let live = Session::new(&n1, cfg.clone())
            .run_live(&x, &latest)
            .unwrap();
        let mut n2 = net();
        let offline = Session::new(&n2, cfg).run(&x).unwrap();
        assert_eq!(live.final_subnet, offline.final_subnet);
        assert_eq!(live.total_macs, offline.total_macs);
        assert_eq!(live.timeline, offline.timeline);
        // observer saw the final refined prediction
        let (subnet, logits) = latest.get().expect("a prediction was published");
        assert_eq!(Some(subnet), live.final_subnet);
        assert_eq!(logits, live.final_logits.unwrap().data());
    }

    #[test]
    fn observer_thread_can_poll_concurrently() {
        let x = init::uniform(Shape::of(&[1, 5]), -1.0, 1.0, &mut init::rng(3));
        let trace = ResourceTrace::constant(net().macs(1, 0.0), 8);
        let latest = LatestPrediction::new();
        let observer_cell = latest.clone();
        let observer = thread::spawn(move || {
            // poll until a prediction appears (bounded wait)
            for _ in 0..1000 {
                if observer_cell.get().is_some() {
                    return true;
                }
                thread::sleep(Duration::from_micros(50));
            }
            false
        });
        let mut n = net();
        let cfg = SessionConfig::new()
            .trace(trace)
            .tick(Duration::from_micros(100));
        Session::new(&n, cfg).run_live(&x, &latest).unwrap();
        assert!(observer.join().unwrap(), "observer never saw a prediction");
    }
}

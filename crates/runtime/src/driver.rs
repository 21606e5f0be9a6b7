//! Anytime-inference driver types.
//!
//! The drive loop itself lives in [`Session`](crate::Session); this module
//! keeps its vocabulary types ([`UpgradePolicy`], [`SliceLog`],
//! [`DriveOutcome`], [`expand_macs`]).
//!
//! Two upgrade policies are supported so the cost of recomputation can be
//! measured directly:
//!
//! * [`UpgradePolicy::Incremental`] — SteppingNet-style: pay only the new
//!   neurons and the new head;
//! * [`UpgradePolicy::Recompute`] — slimmable-style: switching to a larger
//!   subnet discards intermediate results and pays its full MAC count.

use stepping_core::{Result, SteppingError, SteppingNet};
use stepping_tensor::Tensor;

/// How subnet upgrades are charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpgradePolicy {
    /// Reuse cached activations; pay only new neurons + the new head.
    Incremental,
    /// Recompute the larger subnet from scratch (baseline behaviour).
    Recompute,
}

impl UpgradePolicy {
    /// Short label used in telemetry events.
    pub fn label(self) -> &'static str {
        match self {
            UpgradePolicy::Incremental => "incremental",
            UpgradePolicy::Recompute => "recompute",
        }
    }
}

/// Log of one timeslice of a drive.
#[derive(Debug, Clone, PartialEq)]
pub struct SliceLog {
    /// Slice index.
    pub slice: usize,
    /// Budget granted this slice.
    pub budget: u64,
    /// MACs spent this slice (on begin/expand work).
    pub spent: u64,
    /// Subnet whose prediction is available after this slice (`None` while
    /// the first subnet is still being computed).
    pub subnet_ready: Option<usize>,
}

/// Outcome of driving one input over a resource trace.
#[derive(Debug, Clone, PartialEq)]
pub struct DriveOutcome {
    /// Per-slice log.
    pub timeline: Vec<SliceLog>,
    /// Largest subnet completed, if any.
    pub final_subnet: Option<usize>,
    /// Logits of the largest completed subnet.
    pub final_logits: Option<Tensor>,
    /// Total MACs executed.
    pub total_macs: u64,
    /// Slice index at which the first (smallest-subnet) prediction became
    /// available.
    pub first_prediction_slice: Option<usize>,
}

/// MACs required to expand from `subnet` to `subnet + 1` with reuse
/// (new neurons + next head), read from the
/// [`MacTable`](stepping_core::MacTable) of the net's compiled model
/// ([`SteppingNet::compile`]).
///
/// # Errors
///
/// Returns [`SteppingError::SubnetOutOfRange`] when there is no subnet
/// `subnet + 1`.
pub fn expand_macs(net: &SteppingNet, subnet: usize, prune_threshold: f32) -> Result<u64> {
    let next = subnet + 1;
    net.compile(prune_threshold)
        .mac_table()
        .step()
        .get(next)
        .copied()
        .ok_or(SteppingError::SubnetOutOfRange {
            subnet: next,
            count: net.subnet_count(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ResourceTrace, Session, SessionConfig};
    use stepping_core::SteppingNetBuilder;
    use stepping_tensor::{init, Shape};

    fn net() -> SteppingNet {
        let mut n = SteppingNetBuilder::new(Shape::of(&[6]), 3, 0)
            .linear(12)
            .relu()
            .linear(9)
            .relu()
            .build(3)
            .unwrap();
        n.move_neurons(&[(0, 0, 1), (0, 1, 1), (0, 2, 2), (2, 0, 1), (2, 1, 2)])
            .unwrap();
        n
    }

    fn x() -> Tensor {
        init::uniform(Shape::of(&[1, 6]), -1.0, 1.0, &mut init::rng(0))
    }

    fn session_cfg(trace: ResourceTrace, policy: UpgradePolicy) -> SessionConfig {
        SessionConfig::new().trace(trace).policy(policy)
    }

    #[test]
    fn expand_macs_is_cheaper_than_recompute() {
        let n = net();
        for k in 0..2 {
            let inc = expand_macs(&n, k, 0.0).unwrap();
            let scratch = n.macs(k + 1, 0.0);
            assert!(inc < scratch, "subnet {k}: {inc} !< {scratch}");
        }
        assert!(expand_macs(&n, 2, 0.0).is_err());
    }

    #[test]
    fn generous_trace_reaches_largest_subnet() {
        let n = net();
        let full = n.macs(2, 0.0);
        let trace = ResourceTrace::constant(full, 4);
        let cfg = session_cfg(trace, UpgradePolicy::Incremental);
        let out = Session::new(&n, cfg).run(&x()).unwrap();
        assert_eq!(out.final_subnet, Some(2));
        assert_eq!(out.first_prediction_slice, Some(0));
        assert!(out.final_logits.is_some());
    }

    #[test]
    fn starved_trace_stays_small() {
        let n = net();
        let small = n.macs(0, 0.0);
        // just enough for subnet 0 over the whole trace, never more
        let per_slice = small / 4 + 1;
        let trace = ResourceTrace::constant(per_slice, 5);
        let cfg = session_cfg(trace, UpgradePolicy::Incremental);
        let out = Session::new(&n, cfg).run(&x()).unwrap();
        assert_eq!(out.final_subnet, Some(0));
        assert!(out.first_prediction_slice.unwrap() > 0);
    }

    #[test]
    fn incremental_policy_upgrades_sooner_than_recompute() {
        let n = net();
        let budget = n.macs(0, 0.0) + expand_macs(&n, 0, 0.0).unwrap();
        let trace = ResourceTrace::constant(budget, 1);
        let inc = Session::new(&n, session_cfg(trace.clone(), UpgradePolicy::Incremental))
            .run(&x())
            .unwrap();
        let rec = Session::new(&n, session_cfg(trace, UpgradePolicy::Recompute))
            .run(&x())
            .unwrap();
        assert_eq!(inc.final_subnet, Some(1));
        assert_eq!(
            rec.final_subnet,
            Some(0),
            "recompute policy can't afford the upgrade"
        );
    }

    #[test]
    fn incremental_total_macs_below_recompute() {
        let n = net();
        let full = n.macs(2, 0.0);
        let trace = ResourceTrace::constant(full, 6);
        let inc = Session::new(&n, session_cfg(trace.clone(), UpgradePolicy::Incremental))
            .run(&x())
            .unwrap();
        let rec = Session::new(&n, session_cfg(trace, UpgradePolicy::Recompute))
            .run(&x())
            .unwrap();
        assert_eq!(inc.final_subnet, rec.final_subnet);
        assert!(
            inc.total_macs < rec.total_macs,
            "{} !< {}",
            inc.total_macs,
            rec.total_macs
        );
    }

    #[test]
    fn deadline_truncates() {
        let n = net();
        let full = n.macs(2, 0.0);
        let trace = ResourceTrace::constant(full / 3, 9);
        let cfg = session_cfg(trace, UpgradePolicy::Incremental);
        let early = Session::new(&n, cfg.clone())
            .run_until_deadline(&x(), 1)
            .unwrap();
        let late = Session::new(&n, cfg.clone())
            .run_until_deadline(&x(), 9)
            .unwrap();
        assert!(early.final_subnet <= late.final_subnet);
        assert!(Session::new(&n, cfg.clone())
            .run_until_deadline(&x(), 0)
            .is_err());
        assert!(Session::new(&n, cfg).run_until_deadline(&x(), 10).is_err());
    }

    #[test]
    fn empty_trace_rejected() {
        let n = net();
        let trace = ResourceTrace::from_budgets(vec![]);
        let cfg = session_cfg(trace, UpgradePolicy::Incremental);
        assert!(Session::new(&n, cfg).run(&x()).is_err());
    }
}

//! Confidence-gated anytime inference: stop stepping up once the current
//! subnet's prediction is confident enough.
//!
//! The early-exit literature (BranchyNet, MSDNet — the paper's refs
//! \[12\]\[13\] family) gates computation on prediction entropy/confidence
//! rather than on resource availability. SteppingNet's nested subnets
//! support the same policy for free: run the smallest subnet, and expand
//! only while the softmax confidence stays below a threshold. Combined with
//! computational reuse, each *additional* opinion costs only the new
//! neurons.
//!
//! The loop itself lives in
//! [`Session::run_until_confident`](crate::Session::run_until_confident);
//! this module keeps the [`ConfidentOutcome`] type.

/// Outcome of a confidence-gated run on one input.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfidentOutcome {
    /// Subnet whose prediction was accepted.
    pub subnet: usize,
    /// Predicted class.
    pub prediction: usize,
    /// Softmax confidence of the accepted prediction.
    pub confidence: f32,
    /// Total MACs charged, as [`Session::run`](crate::Session::run)
    /// charges them under the configured
    /// [`UpgradePolicy`](crate::UpgradePolicy): the start subnet's direct
    /// cost, then each step's incremental cost (`Incremental`) or the
    /// larger subnet's direct cost (`Recompute`).
    pub total_macs: u64,
    /// Whether the run stopped because the threshold was met (`true`) or
    /// because the largest subnet was reached (`false`).
    pub early_exit: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Session, SessionConfig};
    use stepping_core::{Result, SteppingNet, SteppingNetBuilder};
    use stepping_tensor::{init, Shape, Tensor};

    fn net() -> SteppingNet {
        let mut n = SteppingNetBuilder::new(Shape::of(&[6]), 3, 4)
            .linear(12)
            .relu()
            .build(3)
            .unwrap();
        n.move_neurons(&[(0, 8, 1), (0, 9, 1), (0, 10, 2), (0, 11, 2)])
            .unwrap();
        n
    }

    fn x() -> Tensor {
        init::uniform(Shape::of(&[1, 6]), -1.0, 1.0, &mut init::rng(3))
    }

    fn confident(n: &SteppingNet, input: &Tensor, threshold: f32) -> Result<ConfidentOutcome> {
        Session::new(n, SessionConfig::new().confidence(threshold)).run_until_confident(input)
    }

    #[test]
    fn tiny_threshold_exits_at_first_subnet() {
        let n = net();
        let out = confident(&n, &x(), 1e-6).unwrap();
        assert_eq!(out.subnet, 0);
        assert!(out.early_exit);
        assert_eq!(out.total_macs, n.macs(0, 0.0));
    }

    #[test]
    fn impossible_threshold_runs_to_largest() {
        let n = net();
        let out = confident(&n, &x(), 1.0).unwrap();
        assert_eq!(out.subnet, 2);
        assert!(!out.early_exit || out.confidence >= 1.0);
        // reuse means total < sum of from-scratch costs
        let scratch_total: u64 = (0..3).map(|k| n.macs(k, 0.0)).sum();
        assert!(out.total_macs < scratch_total);
    }

    #[test]
    fn confidence_is_a_probability() {
        let n = net();
        let out = confident(&n, &x(), 0.5).unwrap();
        assert!((0.0..=1.0).contains(&out.confidence));
        assert!(out.prediction < 3);
    }

    #[test]
    fn validates_inputs() {
        let n = net();
        assert!(confident(&n, &x(), 0.0).is_err());
        assert!(confident(&n, &x(), 1.5).is_err());
        let batch = init::uniform(Shape::of(&[2, 6]), -1.0, 1.0, &mut init::rng(4));
        assert!(confident(&n, &batch, 0.5).is_err());
    }
}

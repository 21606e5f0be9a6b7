//! Resource traces: per-timeslice MAC budgets of a resource-varying
//! platform.
//!
//! The paper motivates SteppingNet with platforms whose "computational
//! resources vary dynamically due to the tasks executed in parallel"
//! (autonomous vehicles, phone power modes). A [`ResourceTrace`] is the
//! simulated version: how many MAC operations the inference task may spend
//! in each timeslice.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic sequence of per-timeslice MAC budgets.
///
/// # Example
///
/// ```
/// use stepping_runtime::ResourceTrace;
///
/// let t = ResourceTrace::step(100, 500, 4, 8);
/// assert_eq!(t.len(), 8);
/// assert_eq!(t.get(0), Some(100));
/// assert_eq!(t.get(4), Some(500));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceTrace {
    slices: Vec<u64>,
}

impl ResourceTrace {
    /// A trace from explicit budgets.
    pub fn from_budgets(slices: Vec<u64>) -> Self {
        ResourceTrace { slices }
    }

    /// Constant budget for `len` slices.
    pub fn constant(budget: u64, len: usize) -> Self {
        ResourceTrace {
            slices: vec![budget; len],
        }
    }

    /// Alternates `low` and `high` every `period` slices (power-mode
    /// switches).
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn step(low: u64, high: u64, period: usize, len: usize) -> Self {
        assert!(period > 0, "period must be nonzero");
        let slices = (0..len)
            .map(|i| {
                if (i / period).is_multiple_of(2) {
                    low
                } else {
                    high
                }
            })
            .collect();
        ResourceTrace { slices }
    }

    /// Multiplicative random walk between `min` and `max` (background load
    /// drift), seeded.
    pub fn random_walk(seed: u64, start: u64, min: u64, max: u64, len: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cur = start.clamp(min, max) as f64;
        let slices = (0..len)
            .map(|_| {
                let factor = 0.7 + 0.6 * rng.random::<f64>();
                cur = (cur * factor).clamp(min as f64, max as f64);
                cur.round() as u64
            })
            .collect();
        ResourceTrace { slices }
    }

    /// Mostly `base` with probability-`burst_p` slices of `burst` budget
    /// (co-running task completing / preempting), seeded.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= burst_p <= 1.0`.
    pub fn bursty(seed: u64, base: u64, burst: u64, burst_p: f64, len: usize) -> Self {
        assert!(
            (0.0..=1.0).contains(&burst_p),
            "burst probability must be in [0, 1]"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let slices = (0..len)
            .map(|_| {
                if rng.random::<f64>() < burst_p {
                    burst
                } else {
                    base
                }
            })
            .collect();
        ResourceTrace { slices }
    }

    /// Number of timeslices.
    pub fn len(&self) -> usize {
        self.slices.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.slices.is_empty()
    }

    /// Budget of slice `i`.
    pub fn get(&self, i: usize) -> Option<u64> {
        self.slices.get(i).copied()
    }

    /// All budgets.
    pub fn budgets(&self) -> &[u64] {
        &self.slices
    }

    /// Total MAC budget over the whole trace, saturating at `u64::MAX`.
    pub fn total(&self) -> u64 {
        self.slices
            .iter()
            .fold(0u64, |total, &budget| total.saturating_add(budget))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_and_total() {
        let t = ResourceTrace::constant(10, 5);
        assert_eq!(t.total(), 50);
        assert!(!t.is_empty());
        assert_eq!(t.get(9), None);
        assert_eq!(ResourceTrace::constant(u64::MAX, 2).total(), u64::MAX);
    }

    #[test]
    fn step_alternates() {
        let t = ResourceTrace::step(1, 9, 2, 6);
        assert_eq!(t.budgets(), &[1, 1, 9, 9, 1, 1]);
    }

    #[test]
    fn random_walk_is_bounded_and_deterministic() {
        let a = ResourceTrace::random_walk(3, 100, 10, 1000, 50);
        let b = ResourceTrace::random_walk(3, 100, 10, 1000, 50);
        assert_eq!(a, b);
        assert!(a.budgets().iter().all(|&x| (10..=1000).contains(&x)));
        let c = ResourceTrace::random_walk(4, 100, 10, 1000, 50);
        assert_ne!(a, c);
    }

    #[test]
    fn bursty_mixes_levels() {
        let t = ResourceTrace::bursty(7, 5, 500, 0.3, 200);
        let bursts = t.budgets().iter().filter(|&&x| x == 500).count();
        assert!(bursts > 20 && bursts < 120, "bursts {bursts}");
    }

    #[test]
    #[should_panic(expected = "period")]
    fn zero_period_panics() {
        let _ = ResourceTrace::step(1, 2, 0, 4);
    }
}

//! The anytime step decision, written once.
//!
//! The paper's deployment story repeats one decision: "decide on-the-fly
//! whether to enhance the inference accuracy by executing further MAC
//! operations". A confidence-gated early exit (Progressive Sub-Network
//! Searching, BranchyNet) is the same decision with a confidence gate in
//! place of a budget. [`Policy`] answers it as a pure function of where a
//! run stands — the level answered, the MACs banked, the last answer's
//! top-1 probability — with no clock and no executor, so every
//! [`Session`](crate::Session) mode and a server's upgrade admission share
//! it.

use stepping_core::{MacTable, Result, SteppingError};

use crate::UpgradePolicy;

/// Why a run stops stepping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// The banked MACs do not cover the next step.
    Budget,
    /// The largest subnet is answered.
    Top,
    /// The last answer's top-1 probability reached the threshold.
    Confident,
}

/// The answer of [`Policy::decide`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Run subnet `to` next, charging `cost` MACs.
    Step {
        /// The subnet the step answers.
        to: usize,
        /// MACs the step is charged under the policy.
        cost: u64,
    },
    /// Answer from the level reached.
    Stop(Stop),
}

/// The anytime step rule of one model: what the first answer (at the start
/// subnet) costs, what each step up costs under the [`UpgradePolicy`], and
/// the optional confidence gate.
///
/// # Example
///
/// ```
/// use stepping_core::SteppingNetBuilder;
/// use stepping_runtime::{Decision, Policy, Stop, UpgradePolicy};
/// use stepping_tensor::Shape;
///
/// let mut net = SteppingNetBuilder::new(Shape::of(&[4]), 2, 0)
///     .linear(6).relu().build(3)?;
/// net.move_neuron(0, 5, 1)?;
/// let model = net.compile(0.0);
/// let table = model.mac_table();
/// let policy = Policy::new(table, UpgradePolicy::Incremental, 0, None)?;
/// let first = table.direct()[0];
/// assert_eq!(policy.decide(None, first, None), Decision::Step { to: 0, cost: first });
/// assert_eq!(policy.decide(None, first - 1, None), Decision::Stop(Stop::Budget));
/// assert_eq!(policy.decide(Some(1), u64::MAX, None), Decision::Stop(Stop::Top));
/// assert_eq!(policy.reach(0, u64::MAX), 1);
/// # Ok::<(), stepping_core::SteppingError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Policy {
    start: usize,
    /// MACs of the first answer: the start subnet run from the input.
    first: u64,
    /// `upgrades[k]`: MACs of stepping from subnet `k - 1` up to `k`.
    upgrades: Vec<u64>,
    confidence: Option<f32>,
}

impl Policy {
    /// The rule over `table` under `upgrade`, answering first at `start`
    /// and, with a `confidence` threshold, stopping once an answer's top-1
    /// probability reaches it.
    ///
    /// # Errors
    ///
    /// Returns [`SteppingError::SubnetOutOfRange`] for a start subnet the
    /// table does not have.
    pub fn new(
        table: &MacTable,
        upgrade: UpgradePolicy,
        start: usize,
        confidence: Option<f32>,
    ) -> Result<Policy> {
        let first = *table
            .direct()
            .get(start)
            .ok_or(SteppingError::SubnetOutOfRange {
                subnet: start,
                count: table.direct().len(),
            })?;
        let upgrades = match upgrade {
            UpgradePolicy::Incremental => table.step(),
            UpgradePolicy::Recompute => table.direct(),
        };
        Ok(Policy {
            start,
            first,
            upgrades: upgrades.to_vec(),
            confidence,
        })
    }

    /// Whether answers are gated on their top-1 probability.
    pub fn gates_confidence(&self) -> bool {
        self.confidence.is_some()
    }

    /// The next move of a run at level `at` (`None` before its first
    /// answer) with `bank` MACs banked, whose last answer's top-1
    /// probability is `p`. A confident answer stops first, then the top
    /// subnet, then a bank short of the next step's cost.
    pub fn decide(&self, at: Option<usize>, bank: u64, p: Option<f32>) -> Decision {
        if matches!((self.confidence, p), (Some(threshold), Some(p)) if p >= threshold) {
            return Decision::Stop(Stop::Confident);
        }
        let (to, cost) = match at {
            None => (self.start, self.first),
            Some(k) => match self.upgrades.get(k + 1) {
                Some(&cost) => (k + 1, cost),
                None => return Decision::Stop(Stop::Top),
            },
        };
        if bank >= cost {
            Decision::Step { to, cost }
        } else {
            Decision::Stop(Stop::Budget)
        }
    }

    /// The level a run at `at` reaches by stepping greedily while `bank`
    /// covers each next step: `at` itself when not even one step fits.
    pub fn reach(&self, mut at: usize, mut bank: u64) -> usize {
        while let Decision::Step { to, cost } = self.decide(Some(at), bank, None) {
            at = to;
            bank -= cost;
        }
        at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stepping_core::SteppingNetBuilder;
    use stepping_tensor::Shape;

    /// Recompute charges direct costs, a confident answer stops before the
    /// top and the budget, and an ungated policy ignores probabilities.
    #[test]
    fn decisions_follow_costs_then_confidence() {
        let mut n = SteppingNetBuilder::new(Shape::of(&[6]), 3, 0)
            .linear(12)
            .relu()
            .build(3)
            .unwrap();
        n.move_neurons(&[(0, 0, 1), (0, 1, 1), (0, 2, 2)]).unwrap();
        let model = n.compile(0.0);
        let (table, step) = (model.mac_table(), |to, cost| Decision::Step { to, cost });
        let (direct, inc_step, stop) = (table.direct(), table.step(), Decision::Stop);
        let inc = Policy::new(table, UpgradePolicy::Incremental, 1, None).unwrap();
        let rec = Policy::new(table, UpgradePolicy::Recompute, 1, None).unwrap();
        let gated = Policy::new(table, UpgradePolicy::Incremental, 1, Some(0.5)).unwrap();
        for (policy, at, bank, p, want) in [
            (&inc, None, u64::MAX, None, step(1, direct[1])),
            (&rec, None, u64::MAX, None, step(1, direct[1])),
            (&inc, Some(1), u64::MAX, Some(1.0), step(2, inc_step[2])),
            (&rec, Some(1), u64::MAX, None, step(2, direct[2])),
            (&inc, Some(1), inc_step[2] - 1, None, stop(Stop::Budget)),
            (&inc, Some(2), u64::MAX, None, stop(Stop::Top)),
            (&gated, Some(2), 0, Some(0.5), stop(Stop::Confident)),
            (&gated, Some(2), 0, Some(0.4), stop(Stop::Top)),
            (&gated, Some(1), u64::MAX, Some(0.4), step(2, inc_step[2])),
        ] {
            assert_eq!(policy.decide(at, bank, p), want, "{at:?} {bank} {p:?}");
        }
        assert!(Policy::new(table, UpgradePolicy::Incremental, 3, None).is_err());
    }

    /// A server's upgrade admission before it read the policy: the largest
    /// subnet above `cur` whose summed incremental steps fit `mac_budget`.
    fn largest_upgrade_within(step: &[u64], cur: usize, mac_budget: u64) -> usize {
        let mut best = cur;
        let mut spent = 0u64;
        for (k, &cost) in step.iter().enumerate().skip(cur + 1) {
            spent += cost;
            if spent <= mac_budget {
                best = k;
            } else {
                break;
            }
        }
        best
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 64, ..Default::default() })]

        /// `reach` answers what the old greedy admission rule answers, on
        /// the step tables of random nets, from every level and for budgets
        /// around each partial sum (and an unbounded one).
        #[test]
        fn reach_matches_the_greedy_admission_rule(
            subnets in 2usize..5,
            widths in (1usize..9, 1usize..9),
            moves in proptest::collection::vec((0u8..2, 0u8..8, 0u8..5), 0..12),
            seed in 0u64..1000,
        ) {
            let mut n = SteppingNetBuilder::new(Shape::of(&[5]), subnets, seed)
                .linear(widths.0)
                .relu()
                .linear(widths.1)
                .relu()
                .build(3)
                .unwrap();
            let masked = n.masked_stage_indices();
            for (s, neuron, to) in moves {
                let stage = masked[s as usize % masked.len()];
                let count = n.stages()[stage].neuron_count().unwrap();
                n.move_neuron(stage, neuron as usize % count, to as usize % subnets).unwrap();
            }
            let model = n.compile(0.0);
            let table = model.mac_table();
            let policy = Policy::new(table, UpgradePolicy::Incremental, 0, None).unwrap();
            for cur in 0..subnets {
                let mut budgets = vec![0, u64::MAX];
                let mut sum = 0u64;
                for &cost in &table.step()[cur + 1..] {
                    sum += cost;
                    budgets.extend([sum.saturating_sub(1), sum, sum + 1]);
                }
                for budget in budgets {
                    proptest::prop_assert_eq!(
                        policy.reach(cur, budget),
                        largest_upgrade_within(table.step(), cur, budget),
                        "from {} with {}", cur, budget
                    );
                }
            }
        }
    }
}

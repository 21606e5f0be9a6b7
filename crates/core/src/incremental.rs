//! Anytime inference with computational reuse — the deployment-side payoff
//! of the stepping structure (paper §I contribution 2: "intermediate results
//! of a subnet can directly be reused in subsequent larger subnets").
//!
//! [`IncrementalExecutor::begin`] runs the smallest subnet and caches every
//! stage's activations. When more computational resources become available,
//! [`IncrementalExecutor::expand`] steps to the next subnet by computing
//! **only the newly added neurons** (plus the next subnet's lightweight
//! head); cached values are spliced, never recomputed. The executor's outputs
//! are bit-identical to running the larger subnet from scratch — a property
//! the test suite asserts exhaustively.

use stepping_tensor::Tensor;

use crate::batch::{self, ActivationCache};
use crate::telemetry::{self, Value};
use crate::{MacTable, Result, SteppingError, SteppingNet};

/// Outcome of one executor step ([`IncrementalExecutor::begin`] or
/// [`IncrementalExecutor::expand`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ExpandStep {
    /// The subnet now active.
    pub subnet: usize,
    /// Class logits of that subnet's head.
    pub logits: Tensor,
    /// MAC operations executed by this step alone (new neurons + head).
    pub step_macs: u64,
    /// Total MAC operations executed since `begin`.
    pub cumulative_macs: u64,
}

/// Stateful anytime-inference driver over a [`SteppingNet`].
///
/// # Example
///
/// ```
/// use stepping_core::{IncrementalExecutor, SteppingNetBuilder};
/// use stepping_tensor::{Shape, Tensor};
///
/// let mut net = SteppingNetBuilder::new(Shape::of(&[4]), 2, 0)
///     .linear(6).relu().build(3)?;
/// net.move_neuron(0, 5, 1)?; // neuron 5 only in subnet 1
/// let mut exec = IncrementalExecutor::new(&mut net, 1e-5);
/// let first = exec.begin(&Tensor::zeros(Shape::of(&[1, 4])))?;
/// let second = exec.expand()?; // reuses subnet-0 activations
/// assert!(second.step_macs < first.step_macs + second.step_macs);
/// # Ok::<(), stepping_core::SteppingError>(())
/// ```
#[derive(Debug)]
pub struct IncrementalExecutor<'a> {
    net: &'a mut SteppingNet,
    /// The net's MAC accounting at the executor's prune threshold, read
    /// once (the exclusive borrow keeps it valid).
    costs: MacTable,
    cache: ActivationCache,
}

impl<'a> IncrementalExecutor<'a> {
    /// Creates an executor over `net`; `prune_threshold` is the magnitude
    /// threshold used for MAC accounting.
    pub fn new(net: &'a mut SteppingNet, prune_threshold: f32) -> Self {
        let costs = net.mac_table(prune_threshold);
        IncrementalExecutor {
            net,
            costs,
            cache: ActivationCache::new(),
        }
    }

    /// The subnet most recently executed, if any.
    pub fn current_subnet(&self) -> Option<usize> {
        self.cache.current_subnet()
    }

    /// Total MACs executed since the last `begin`.
    pub fn cumulative_macs(&self) -> u64 {
        self.cache.cumulative_macs()
    }

    /// The per-request activation cache (e.g. to persist across a serving
    /// session and upgrade later via
    /// [`BatchExecutor`](crate::batch::BatchExecutor)).
    pub fn cache(&self) -> &ActivationCache {
        &self.cache
    }

    /// Consumes the executor, releasing its cache for external storage.
    pub fn into_cache(self) -> ActivationCache {
        self.cache
    }

    /// Runs subnet 0 on `input` (inference mode), caching all activations.
    ///
    /// # Errors
    ///
    /// Propagates forward errors.
    pub fn begin(&mut self, input: &Tensor) -> Result<ExpandStep> {
        self.begin_at(input, 0)
    }

    /// Runs subnet `subnet` directly on `input` (inference mode), caching
    /// all activations — the client skips the smaller subnets entirely and
    /// pays `macs(subnet)` up front; later [`expand`](Self::expand) calls
    /// still reuse the caches incrementally.
    ///
    /// # Errors
    ///
    /// Returns [`SteppingError::SubnetOutOfRange`] and propagates forward
    /// errors.
    pub fn begin_at(&mut self, input: &Tensor, subnet: usize) -> Result<ExpandStep> {
        if subnet >= self.net.subnet_count() {
            return Err(SteppingError::SubnetOutOfRange {
                subnet,
                count: self.net.subnet_count(),
            });
        }
        let span = telemetry::span("inference", "exec.begin");
        let (acts, logits) = batch::full_pass(self.net, input.clone(), subnet)?;
        let step_macs = self.costs.direct()[subnet];
        let cached_stages = acts.len() as u64 - 1;
        self.cache = ActivationCache {
            acts,
            current: Some(subnet),
            computed: subnet,
            cumulative_macs: step_macs,
        };
        span.end(&[
            ("subnet", Value::U64(subnet as u64)),
            ("step_macs", Value::U64(step_macs)),
            ("cached_stages", Value::U64(cached_stages)),
        ]);
        Ok(ExpandStep {
            subnet,
            logits,
            step_macs,
            cumulative_macs: step_macs,
        })
    }

    /// Steps to the next larger subnet, computing only its new neurons and
    /// head. Cached activations of smaller subnets are reused verbatim.
    ///
    /// # Errors
    ///
    /// Returns [`SteppingError::ExecutorState`] before `begin` or past the
    /// largest subnet, and propagates forward errors.
    pub fn expand(&mut self) -> Result<ExpandStep> {
        let cur = self
            .cache
            .current
            .ok_or_else(|| SteppingError::ExecutorState("expand called before begin".into()))?;
        let k = cur + 1;
        if k >= self.net.subnet_count() {
            return Err(SteppingError::ExecutorState(format!(
                "already at largest subnet {cur}"
            )));
        }
        let span = telemetry::span("inference", "exec.expand");
        let head_only = k <= self.cache.computed;
        let (logits, step_macs) = if head_only {
            // The caches already hold every neuron of subnet `k` (we
            // contracted earlier) — only the head needs to run.
            let logits = self.net.head_forward_packed(self.cache.features()?, k)?;
            (logits, self.costs.head()[k])
        } else {
            let logits = batch::expand_pass(self.net, &mut [self.cache.acts.as_mut_slice()], k)?;
            (logits, self.costs.step()[k])
        };
        self.cache.current = Some(k);
        if !head_only {
            self.cache.computed = k;
        }
        self.cache.cumulative_macs += step_macs;
        if span.is_active() {
            // Reuse ratio: fraction of the from-scratch subnet-k cost that
            // cached activations made unnecessary.
            let scratch = self.costs.direct()[k];
            span.end(&[
                ("subnet", Value::U64(k as u64)),
                ("step_macs", Value::U64(step_macs)),
                ("cumulative_macs", Value::U64(self.cache.cumulative_macs)),
                ("head_only", Value::Bool(head_only)),
                (
                    "reuse_ratio",
                    Value::F64(1.0 - step_macs as f64 / scratch.max(1) as f64),
                ),
            ]);
        }
        Ok(ExpandStep {
            subnet: k,
            logits,
            step_macs,
            cumulative_macs: self.cache.cumulative_macs,
        })
    }

    /// Steps down to the next *smaller* subnet when resources shrink. The
    /// larger subnet's cached results are reused (paper §II: "the smaller
    /// subnet can also reuse the intermediate results of the previous larger
    /// subnet"); only the smaller subnet's head runs, and a later re-expansion
    /// back up to the previously computed level costs only heads too.
    ///
    /// # Errors
    ///
    /// Returns [`SteppingError::ExecutorState`] before `begin` or at
    /// subnet 0.
    pub fn contract(&mut self) -> Result<ExpandStep> {
        let cur = self
            .cache
            .current
            .ok_or_else(|| SteppingError::ExecutorState("contract called before begin".into()))?;
        if cur == 0 {
            return Err(SteppingError::ExecutorState(
                "already at smallest subnet".into(),
            ));
        }
        let span = telemetry::span("inference", "exec.contract");
        let k = cur - 1;
        let logits = self.net.head_forward_packed(self.cache.features()?, k)?;
        let step_macs = self.costs.head()[k];
        self.cache.current = Some(k);
        self.cache.cumulative_macs += step_macs;
        span.end(&[
            ("subnet", Value::U64(k as u64)),
            ("step_macs", Value::U64(step_macs)),
            ("cumulative_macs", Value::U64(self.cache.cumulative_macs)),
            ("computed_level", Value::U64(self.cache.computed as u64)),
        ]);
        Ok(ExpandStep {
            subnet: k,
            logits,
            step_macs,
            cumulative_macs: self.cache.cumulative_macs,
        })
    }

    /// Runs `begin` and then `expand`s until `subnet`, returning every step.
    ///
    /// # Errors
    ///
    /// Propagates `begin`/`expand` errors.
    pub fn run_to(&mut self, input: &Tensor, subnet: usize) -> Result<Vec<ExpandStep>> {
        if subnet >= self.net.subnet_count() {
            return Err(SteppingError::SubnetOutOfRange {
                subnet,
                count: self.net.subnet_count(),
            });
        }
        let mut steps = vec![self.begin(input)?];
        while self.cache.current != Some(subnet) {
            steps.push(self.expand()?);
        }
        Ok(steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SteppingNetBuilder;
    use stepping_tensor::{init, Shape};

    fn mlp() -> SteppingNet {
        let mut net = SteppingNetBuilder::new(Shape::of(&[6]), 3, 1)
            .linear(10)
            .relu()
            .linear(8)
            .relu()
            .build(4)
            .unwrap();
        // spread neurons across subnets
        net.move_neurons(&[(0, 1, 1), (0, 2, 2), (0, 3, 1), (2, 0, 1), (2, 5, 2)])
            .unwrap();
        net
    }

    fn cnn() -> SteppingNet {
        let mut net = SteppingNetBuilder::new(Shape::of(&[2, 8, 8]), 3, 2)
            .conv(5, 3, 1, 1)
            .batch_norm()
            .relu()
            .max_pool(2, 2)
            .flatten()
            .linear(9)
            .relu()
            .build(3)
            .unwrap();
        net.move_neurons(&[(0, 0, 1), (0, 4, 2), (5, 2, 1), (5, 7, 2)])
            .unwrap();
        net
    }

    #[test]
    fn incremental_equals_from_scratch_mlp() {
        let mut net = mlp();
        let x = init::uniform(Shape::of(&[3, 6]), -1.0, 1.0, &mut init::rng(5));
        // From-scratch references first (separate clone so caches don't mix).
        let mut scratch = net.clone();
        let refs: Vec<Tensor> = (0..3)
            .map(|k| scratch.forward(&x, k, false).unwrap())
            .collect();
        let mut exec = IncrementalExecutor::new(&mut net, 1e-5);
        let s0 = exec.begin(&x).unwrap();
        assert_eq!(s0.logits, refs[0]);
        let s1 = exec.expand().unwrap();
        assert_eq!(s1.logits, refs[1], "subnet 1 logits differ");
        let s2 = exec.expand().unwrap();
        assert_eq!(s2.logits, refs[2], "subnet 2 logits differ");
    }

    #[test]
    fn incremental_equals_from_scratch_cnn_with_batchnorm() {
        let mut net = cnn();
        // give batch norm non-trivial running stats
        let warm = init::uniform(Shape::of(&[4, 2, 8, 8]), -1.0, 1.0, &mut init::rng(6));
        for _ in 0..3 {
            net.forward(&warm, 2, true).unwrap();
        }
        let x = init::uniform(Shape::of(&[2, 2, 8, 8]), -1.0, 1.0, &mut init::rng(7));
        let mut scratch = net.clone();
        let refs: Vec<Tensor> = (0..3)
            .map(|k| scratch.forward(&x, k, false).unwrap())
            .collect();
        let mut exec = IncrementalExecutor::new(&mut net, 1e-5);
        let steps = exec.run_to(&x, 2).unwrap();
        for (k, step) in steps.iter().enumerate() {
            assert_eq!(step.logits, refs[k], "subnet {k} logits differ");
        }
    }

    #[test]
    fn expand_costs_less_than_from_scratch() {
        let mut net = mlp();
        let from_scratch: Vec<u64> = (0..3).map(|k| net.macs(k, 1e-5)).collect();
        let head_total: u64 = (0..3).map(|k| net.head_macs(k)).sum();
        let stage_total = from_scratch[2] - net.head_macs(2);
        let x = init::uniform(Shape::of(&[1, 6]), -1.0, 1.0, &mut init::rng(8));
        let mut exec = IncrementalExecutor::new(&mut net, 1e-5);
        exec.begin(&x).unwrap();
        let s1 = exec.expand().unwrap();
        assert!(
            s1.step_macs < from_scratch[1],
            "expansion cost {} should be below from-scratch {}",
            s1.step_macs,
            from_scratch[1]
        );
        let s2 = exec.expand().unwrap();
        assert!(s2.step_macs < from_scratch[2]);
        // cumulative = from-scratch cost of the largest subnet ± head overlap:
        // we paid heads 0, 1, 2 but reused all stage MACs exactly once.
        assert_eq!(exec.cumulative_macs(), stage_total + head_total);
    }

    #[test]
    fn executor_state_errors() {
        let mut net = mlp();
        let mut exec = IncrementalExecutor::new(&mut net, 1e-5);
        assert!(exec.expand().is_err());
        let x = init::uniform(Shape::of(&[1, 6]), -1.0, 1.0, &mut init::rng(9));
        exec.begin(&x).unwrap();
        exec.expand().unwrap();
        exec.expand().unwrap();
        assert!(
            exec.expand().is_err(),
            "expanding past the largest subnet must fail"
        );
        assert!(exec.run_to(&x, 7).is_err());
    }

    #[test]
    fn begin_resets_state() {
        let mut net = mlp();
        let x = init::uniform(Shape::of(&[1, 6]), -1.0, 1.0, &mut init::rng(10));
        let mut exec = IncrementalExecutor::new(&mut net, 1e-5);
        exec.begin(&x).unwrap();
        exec.expand().unwrap();
        let again = exec.begin(&x).unwrap();
        assert_eq!(again.subnet, 0);
        assert_eq!(exec.current_subnet(), Some(0));
        assert_eq!(exec.cumulative_macs(), again.step_macs);
    }

    #[test]
    fn contract_reuses_larger_subnet_results() {
        let mut net = mlp();
        let head1_macs = net.head_macs(1);
        let head2_macs = net.head_macs(2);
        let x = init::uniform(Shape::of(&[2, 6]), -1.0, 1.0, &mut init::rng(11));
        let mut scratch = net.clone();
        let refs: Vec<Tensor> = (0..3)
            .map(|k| scratch.forward(&x, k, false).unwrap())
            .collect();
        let mut exec = IncrementalExecutor::new(&mut net, 1e-5);
        exec.begin(&x).unwrap();
        exec.expand().unwrap();
        exec.expand().unwrap();
        // shrink: subnet 1's prediction for the head price only
        let down = exec.contract().unwrap();
        assert_eq!(down.subnet, 1);
        assert_eq!(down.logits, refs[1]);
        assert_eq!(
            down.step_macs, head1_macs,
            "contraction should cost only the head"
        );
        // re-expansion to the already-computed subnet 2 is also head-only
        let up = exec.expand().unwrap();
        assert_eq!(up.subnet, 2);
        assert_eq!(up.logits, refs[2]);
        assert_eq!(
            up.step_macs, head2_macs,
            "re-expansion should cost only the head"
        );
        // contract twice more hits the floor
        exec.contract().unwrap();
        exec.contract().unwrap();
        assert!(exec.contract().is_err());
    }

    #[test]
    fn contract_before_begin_errors() {
        let mut net = mlp();
        let mut exec = IncrementalExecutor::new(&mut net, 1e-5);
        assert!(exec.contract().is_err());
    }

    #[test]
    fn splice_helpers_validate_shapes() {
        use crate::batch::{splice_channels, splice_columns};
        let mut t = Tensor::zeros(Shape::of(&[2, 3]));
        let fresh = Tensor::ones(Shape::of(&[2, 1]));
        splice_columns(&mut t, &fresh, &[1]).unwrap();
        assert_eq!(t.data(), &[0., 1., 0., 0., 1., 0.]);
        assert!(splice_columns(&mut t, &fresh, &[0, 1]).is_err());
        let mut img = Tensor::zeros(Shape::of(&[1, 2, 1, 2]));
        let fresh = Tensor::ones(Shape::of(&[1, 1, 1, 2]));
        splice_channels(&mut img, &fresh, &[1]).unwrap();
        assert_eq!(img.data(), &[0., 0., 1., 1.]);
        assert!(splice_channels(&mut img, &fresh, &[0, 1]).is_err());
    }
}

//! Anytime inference with computational reuse — the deployment-side payoff
//! of the stepping structure (paper §I contribution 2: "intermediate results
//! of a subnet can directly be reused in subsequent larger subnets").
//!
//! [`IncrementalExecutor::begin`] runs the smallest subnet and caches every
//! stage's activations. When more computational resources become available,
//! [`IncrementalExecutor::expand`] steps to the next subnet by computing
//! **only the newly added neurons** (plus the next subnet's lightweight
//! head); cached values are never recomputed. The executor's outputs are
//! bit-identical to running the larger subnet from scratch — a property the
//! test suite asserts exhaustively. The state machine itself is
//! [`BatchExecutor`]: this type runs it over a batch of one request.

use stepping_tensor::Tensor;

use crate::batch::{ActivationCache, BatchExecutor};
use crate::{CompiledModel, Result, SteppingError, SteppingNet};

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

/// Stateful anytime-inference driver over a [`SteppingNet`] — like
/// [`BatchExecutor`], a handle on the model compiled from the net when the
/// executor was created, not a borrow of the net.
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
/// let mut exec = IncrementalExecutor::new(&net, 1e-5);
/// let first = exec.begin(&Tensor::zeros(Shape::of(&[1, 4])))?;
/// let second = exec.expand()?; // reuses subnet-0 activations
/// assert!(second.step_macs < first.step_macs + second.step_macs);
/// # Ok::<(), stepping_core::SteppingError>(())
/// ```
#[derive(Debug)]
pub struct IncrementalExecutor {
    /// The state machine: this executor is a batch of one request.
    exec: BatchExecutor,
    cache: ActivationCache,
}

/// The single step of a batch of one.
fn only<T>(mut batch: Vec<T>) -> Result<T> {
    batch
        .pop()
        .ok_or_else(|| SteppingError::ExecutorState("a batch of one produced no step".into()))
}

impl IncrementalExecutor {
    /// Creates an executor over `net` as it is now; `prune_threshold` is
    /// the magnitude threshold used for MAC accounting.
    pub fn new(net: &SteppingNet, prune_threshold: f32) -> Self {
        IncrementalExecutor {
            exec: BatchExecutor::new(net, prune_threshold),
            cache: ActivationCache::new(),
        }
    }

    /// The compiled model this executor serves.
    pub fn model(&self) -> &CompiledModel {
        self.exec.model()
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
    /// session and upgrade later via [`BatchExecutor`]).
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
        let (cache, step) = only(self.exec.begin(std::slice::from_ref(input), subnet)?)?;
        self.cache = cache;
        Ok(step)
    }

    /// Steps to the next larger subnet, computing only its new neurons and
    /// head. Cached activations of smaller subnets are reused verbatim; a
    /// level already computed before a [`contract`](Self::contract) costs
    /// only the head.
    ///
    /// # Errors
    ///
    /// Returns [`SteppingError::ExecutorState`] before `begin` or past the
    /// largest subnet, and propagates forward errors.
    pub fn expand(&mut self) -> Result<ExpandStep> {
        only(self.exec.expand(std::slice::from_mut(&mut self.cache))?)
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
        only(self.exec.contract(std::slice::from_mut(&mut self.cache))?)
    }

    /// Runs `begin` and then `expand`s until `subnet`, returning every step.
    ///
    /// # Errors
    ///
    /// Propagates `begin`/`expand` errors.
    pub fn run_to(&mut self, input: &Tensor, subnet: usize) -> Result<Vec<ExpandStep>> {
        let count = self.model().subnet_count();
        if subnet >= count {
            return Err(SteppingError::SubnetOutOfRange { subnet, count });
        }
        let mut steps = vec![self.begin(input)?];
        while self.current_subnet() != Some(subnet) {
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
        let mut exec = IncrementalExecutor::new(&net, 1e-5);
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
        let mut exec = IncrementalExecutor::new(&net, 1e-5);
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
        let mut exec = IncrementalExecutor::new(&net, 1e-5);
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
        let mut exec = IncrementalExecutor::new(&net, 1e-5);
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
        let mut exec = IncrementalExecutor::new(&net, 1e-5);
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
        let mut exec = IncrementalExecutor::new(&net, 1e-5);
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
        let mut exec = IncrementalExecutor::new(&net, 1e-5);
        assert!(exec.contract().is_err());
    }
}

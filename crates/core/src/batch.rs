//! Batched cached-activation execution — the one state machine behind
//! anytime inference (`begin` / `expand` / `contract`).
//! [`IncrementalExecutor`](crate::IncrementalExecutor) is this executor
//! over a batch of one request.
//!
//! A serving engine handles many concurrent requests whose anytime state
//! must outlive any single executor borrow. This module therefore splits
//! the executor into two pieces:
//!
//! * [`ActivationCache`] — the per-request state (stage activations, the
//!   subnet currently answered, the largest subnet materialised in the
//!   caches, cumulative MACs). It is plain data: it can be stored in a
//!   session table, shipped between worker threads, and upgraded later.
//! * [`BatchExecutor`] — a handle on the net's [`CompiledModel`] plus its
//!   own scratch that runs **one batched stage pass for several requests
//!   at once**. A `begin` stacks
//!   the inputs along the batch dimension, runs every stage once and
//!   splits each level back into the per-request caches; an `expand` works
//!   **in place**: each masked stage gathers its step plan's input columns
//!   straight from the requests' cached rows into one panel, runs one GEMM
//!   for the batch, and scatters every request's rows straight back into
//!   its cached activation (a conv stage writes its new filters' planes
//!   straight into each cached level); each fixed stage then recomputes
//!   only the channels the step changed.
//!
//! Because every kernel in this workspace computes each batch row
//! independently (row-major loops, per-image convolution, inference-mode
//! batch norm via running statistics), batched execution is **bit-identical**
//! to running each request alone — the property the serve crate's tests
//! assert exhaustively.
//!
//! MAC figures come from the model's [`MacTable`](crate::MacTable): a step
//! costs a table lookup, not a pass over the weights.

use std::sync::Arc;

use stepping_tensor::pack::PackScratch;
use stepping_tensor::{Shape, Tensor};

use crate::events::{event, phase};
use crate::telemetry::{self, Value};
use crate::{CompiledModel, ExpandStep, Result, SteppingError, SteppingNet};

/// Per-request anytime-inference state, detached from any executor borrow.
///
/// `acts[i]` is the input of stage `i`; `acts[stages]` is the feature tensor
/// feeding the heads. An empty cache (before any `begin`) holds no
/// activations.
#[derive(Debug, Clone, Default)]
pub struct ActivationCache {
    pub(crate) acts: Vec<Tensor>,
    pub(crate) current: Option<usize>,
    pub(crate) computed: usize,
    pub(crate) cumulative_macs: u64,
}

impl ActivationCache {
    /// An empty cache; populate it with [`BatchExecutor::begin`].
    pub fn new() -> Self {
        Self::default()
    }

    /// The subnet most recently answered from this cache, if any.
    pub fn current_subnet(&self) -> Option<usize> {
        self.current
    }

    /// Largest subnet whose neurons are materialised in the cached
    /// activations; re-expanding up to this level costs only the head.
    pub fn computed_level(&self) -> usize {
        self.computed
    }

    /// Total MACs charged to this request since its `begin`.
    pub fn cumulative_macs(&self) -> u64 {
        self.cumulative_macs
    }

    /// Whether `begin` has populated this cache.
    pub fn is_initialised(&self) -> bool {
        self.current.is_some()
    }

    /// Number of batch rows held by this cache (0 before `begin`).
    pub fn rows(&self) -> usize {
        self.acts.first().map(|a| a.shape().dims()[0]).unwrap_or(0)
    }

    /// The feature activation (last level), as a typed error instead of a
    /// panic for an uninitialised cache.
    pub(crate) fn features(&self) -> Result<&Tensor> {
        self.acts
            .last()
            .ok_or_else(|| SteppingError::ExecutorState("activation cache holds no levels".into()))
    }
}

/// Runs the full stage stack plus the head of `subnet` on `input`
/// (inference mode) through the packed execution plans, returning every
/// intermediate activation (level 0 is `input` itself) and the logits.
/// Bit-identical (under `f32 ==`) to the masked reference pass — see
/// [`crate::plan`].
fn full_pass(
    model: &CompiledModel,
    input: Tensor,
    subnet: usize,
    scratch: &mut PackScratch,
) -> Result<(Vec<Tensor>, Tensor)> {
    let mut acts = Vec::with_capacity(model.stages.len() + 1);
    acts.push(input);
    for (si, stage) in model.stages.iter().enumerate() {
        let target = stage.target(&acts[si])?;
        acts.push(target);
        stage.run_into((subnet, false), &mut [&mut acts[..]], si, scratch)?;
    }
    let logits = model.head_rows(acts.last().into_iter(), subnet, scratch)?;
    Ok((acts, logits))
}

/// Expands the cached activation stacks of one or more requests from subnet
/// `k - 1` to `k` in place, computing only the newly added neurons plus
/// subnet `k`'s head: each masked stage runs its step plan once over the
/// rows of every stack, each fixed stage rewrites the channels of the next
/// cached level that the step changed (see `CompiledStage::run_into`).
/// Returns the logits
/// of all rows, stacked in `stacks` order.
fn expand_pass(
    model: &CompiledModel,
    stacks: &mut [&mut [Tensor]],
    k: usize,
    scratch: &mut PackScratch,
) -> Result<Tensor> {
    let stages = model.stages.len();
    if stacks.iter().any(|levels| levels.len() != stages + 1) {
        return Err(SteppingError::ExecutorState(format!(
            "activation cache does not hold the {} levels of this network",
            stages + 1
        )));
    }
    for (si, stage) in model.stages.iter().enumerate() {
        stage.run_into((k, true), stacks, si, scratch)?;
    }
    model.head_rows(stacks.iter().map(|levels| &levels[stages]), k, scratch)
}

/// Concatenates tensors along the batch (first) dimension. A single part is
/// returned as a clone.
fn stack_rows(parts: &[Tensor]) -> Result<Tensor> {
    let first = parts
        .first()
        .ok_or_else(|| SteppingError::BadConfig("cannot stack an empty batch".into()))?;
    if parts.len() == 1 {
        return Ok(first.clone());
    }
    let trailing = &first.shape().dims()[1..];
    let mut rows = 0usize;
    for p in parts {
        if p.shape().rank() != first.shape().rank() || &p.shape().dims()[1..] != trailing {
            return Err(SteppingError::InvalidStructure(format!(
                "batch members disagree on shape: {} vs {}",
                first.shape(),
                p.shape()
            )));
        }
        rows += p.shape().dims()[0];
    }
    let mut dims = first.shape().dims().to_vec();
    dims[0] = rows;
    let mut data = Vec::with_capacity(dims.iter().product());
    for p in parts {
        data.extend_from_slice(p.data());
    }
    Ok(Tensor::from_vec(Shape::from(dims), data)?)
}

/// Splits `t` back into parts of `row_counts` batch rows each. A single
/// part is `t` itself, moved.
fn split_rows(t: Tensor, row_counts: &[usize]) -> Result<Vec<Tensor>> {
    let dims = t.shape().dims();
    let total: usize = row_counts.iter().sum();
    if dims[0] != total {
        return Err(SteppingError::InvalidStructure(format!(
            "cannot split {} rows into {total}",
            dims[0]
        )));
    }
    if row_counts.len() == 1 {
        return Ok(vec![t]);
    }
    let row_len: usize = dims[1..].iter().product::<usize>().max(1);
    let mut out = Vec::with_capacity(row_counts.len());
    let mut offset = 0usize;
    for &rc in row_counts {
        let mut part_dims = dims.to_vec();
        part_dims[0] = rc;
        let data = t.data()[offset * row_len..(offset + rc) * row_len].to_vec();
        out.push(Tensor::from_vec(Shape::from(part_dims), data)?);
        offset += rc;
    }
    Ok(out)
}

/// Executes micro-batches of requests over a [`SteppingNet`], one batched
/// stage pass per step, maintaining each request's [`ActivationCache`].
///
/// An executor holds the net's [`CompiledModel`] (an `Arc`, read from the
/// net's slot or compiled on creation) and its own scratch buffers, not the
/// net: it is `Send`, any number of them run the same model concurrently,
/// and each serves the **snapshot** it was created from — a net mutated
/// afterwards needs a new executor to be seen.
///
/// All requests in a batch must sit at the **same subnet level** (the serve
/// scheduler's compatibility rule); the executor validates this and rejects
/// mixed batches.
///
/// # Example
///
/// ```
/// use stepping_core::{batch::BatchExecutor, SteppingNetBuilder};
/// use stepping_tensor::{Shape, Tensor};
///
/// let mut net = SteppingNetBuilder::new(Shape::of(&[4]), 2, 0)
///     .linear(6).relu().build(3)?;
/// net.move_neuron(0, 5, 1)?;
/// let inputs = vec![Tensor::zeros(Shape::of(&[1, 4])), Tensor::ones(Shape::of(&[1, 4]))];
/// let mut exec = BatchExecutor::new(&net, 0.0);
/// let mut started = exec.begin(&inputs, 0)?;
/// let mut caches: Vec<_> = started.drain(..).map(|(c, _)| c).collect();
/// let steps = exec.expand(&mut caches)?; // both requests step to subnet 1 in one pass
/// assert_eq!(steps.len(), 2);
/// # Ok::<(), stepping_core::SteppingError>(())
/// ```
#[derive(Debug)]
pub struct BatchExecutor {
    model: Arc<CompiledModel>,
    /// Gather / GEMM buffers of this executor's passes.
    scratch: PackScratch,
}

impl BatchExecutor {
    /// Creates a batch executor over `net` as it is now
    /// ([`SteppingNet::compile`]: a slot read when the net was already
    /// compiled at this threshold); `prune_threshold` is the magnitude
    /// threshold used for MAC accounting.
    pub fn new(net: &SteppingNet, prune_threshold: f32) -> Self {
        BatchExecutor {
            model: net.compile(prune_threshold),
            scratch: PackScratch::new(),
        }
    }

    /// The compiled model this executor serves.
    pub fn model(&self) -> &CompiledModel {
        &self.model
    }

    /// Runs subnet `subnet` for every input in **one** batched stage pass,
    /// returning each request's freshly populated cache and step outcome.
    ///
    /// Each request's `step_macs` is the per-sample cost `macs(subnet)`,
    /// whatever the batch size.
    ///
    /// # Errors
    ///
    /// Rejects an empty batch, an out-of-range subnet, and shape-mismatched
    /// inputs; propagates forward errors.
    pub fn begin(
        &mut self,
        inputs: &[Tensor],
        subnet: usize,
    ) -> Result<Vec<(ActivationCache, ExpandStep)>> {
        if inputs.is_empty() {
            return Err(SteppingError::BadConfig(
                "cannot begin an empty batch".into(),
            ));
        }
        if subnet >= self.model.subnet_count() {
            return Err(SteppingError::SubnetOutOfRange {
                subnet,
                count: self.model.subnet_count(),
            });
        }
        let span = telemetry::span(phase::INFERENCE, event::EXEC_BEGIN);
        let row_counts: Vec<usize> = inputs.iter().map(|t| t.shape().dims()[0]).collect();
        let (acts, logits) =
            full_pass(&self.model, stack_rows(inputs)?, subnet, &mut self.scratch)?;
        let step_macs = self.model.mac_table().direct()[subnet];
        // Transpose [level][request] slices back into per-request caches.
        let mut per_req: Vec<Vec<Tensor>> = (0..inputs.len())
            .map(|_| Vec::with_capacity(acts.len()))
            .collect();
        for level in acts {
            for (req_acts, part) in per_req.iter_mut().zip(split_rows(level, &row_counts)?) {
                req_acts.push(part);
            }
        }
        let logit_parts = split_rows(logits, &row_counts)?;
        span.end(&[
            ("batch", Value::U64(inputs.len() as u64)),
            ("subnet", Value::U64(subnet as u64)),
            ("step_macs", Value::U64(step_macs)),
        ]);
        Ok(per_req
            .into_iter()
            .zip(logit_parts)
            .map(|(req_acts, req_logits)| {
                (
                    ActivationCache {
                        acts: req_acts,
                        current: Some(subnet),
                        computed: subnet,
                        cumulative_macs: step_macs,
                    },
                    ExpandStep {
                        subnet,
                        logits: req_logits,
                        step_macs,
                        cumulative_macs: step_macs,
                    },
                )
            })
            .collect())
    }

    /// Steps every cache to the next larger subnet in **one** batched pass.
    ///
    /// All caches must sit at the same current subnet. When every cache
    /// already materialises the target level (after contractions) only the
    /// head runs; otherwise the pass computes exactly the newly added
    /// neurons, writing them into each request's cached activations in
    /// place.
    ///
    /// # Errors
    ///
    /// Returns [`SteppingError::ExecutorState`] for an uninitialised cache,
    /// mixed levels, or a batch already at the largest subnet; propagates
    /// forward errors. A pass that fails midway may already have written
    /// some of the target subnet's neurons into the caches; their level
    /// markers are unchanged and the smaller subnets' values untouched, so
    /// a retry recomputes the same entries.
    pub fn expand(&mut self, caches: &mut [ActivationCache]) -> Result<Vec<ExpandStep>> {
        if caches.is_empty() {
            return Ok(Vec::new());
        }
        let cur = Self::common_level(caches, "expand")?;
        let k = cur + 1;
        if k >= self.model.subnet_count() {
            return Err(SteppingError::ExecutorState(format!(
                "already at largest subnet {cur}"
            )));
        }
        let head_only = caches.iter().all(|c| k <= c.computed);
        if !head_only && caches.iter().any(|c| k <= c.computed) {
            return Err(SteppingError::ExecutorState(
                "batch mixes head-only and fresh expansions".into(),
            ));
        }
        let span = telemetry::span(phase::INFERENCE, event::EXEC_EXPAND);
        let (logits, step_macs) = if head_only {
            (self.head_pass(caches, k)?, self.model.mac_table().head()[k])
        } else {
            let mut stacks: Vec<&mut [Tensor]> =
                caches.iter_mut().map(|c| c.acts.as_mut_slice()).collect();
            let logits = expand_pass(&self.model, &mut stacks, k, &mut self.scratch)?;
            (logits, self.model.mac_table().step()[k])
        };
        let steps = Self::finish_step(caches, logits, k, step_macs, !head_only)?;
        if span.is_active() {
            // Reuse ratio: fraction of the from-scratch subnet-k cost that
            // cached activations made unnecessary.
            let scratch = self.model.mac_table().direct()[k];
            span.end(&[
                ("batch", Value::U64(caches.len() as u64)),
                ("subnet", Value::U64(k as u64)),
                ("step_macs", Value::U64(step_macs)),
                ("head_only", Value::Bool(head_only)),
                (
                    "reuse_ratio",
                    Value::F64(1.0 - step_macs as f64 / scratch.max(1) as f64),
                ),
            ]);
        }
        Ok(steps)
    }

    /// Steps every cache down to the next smaller subnet — head-only, the
    /// cached larger-subnet activations are reused verbatim.
    ///
    /// # Errors
    ///
    /// Returns [`SteppingError::ExecutorState`] for uninitialised caches,
    /// mixed levels, or a batch already at subnet 0.
    pub fn contract(&mut self, caches: &mut [ActivationCache]) -> Result<Vec<ExpandStep>> {
        if caches.is_empty() {
            return Ok(Vec::new());
        }
        let cur = Self::common_level(caches, "contract")?;
        if cur == 0 {
            return Err(SteppingError::ExecutorState(
                "already at smallest subnet".into(),
            ));
        }
        let span = telemetry::span(phase::INFERENCE, event::EXEC_CONTRACT);
        let k = cur - 1;
        let step_macs = self.model.mac_table().head()[k];
        let logits = self.head_pass(caches, k)?;
        let steps = Self::finish_step(caches, logits, k, step_macs, false)?;
        span.end(&[
            ("batch", Value::U64(caches.len() as u64)),
            ("subnet", Value::U64(k as u64)),
            ("step_macs", Value::U64(step_macs)),
        ]);
        Ok(steps)
    }

    /// The subnet every cache of the batch currently answers from.
    fn common_level(caches: &[ActivationCache], op: &str) -> Result<usize> {
        let cur = caches[0]
            .current
            .ok_or_else(|| SteppingError::ExecutorState(format!("{op} called before begin")))?;
        if caches.iter().any(|c| c.current != Some(cur)) {
            return Err(SteppingError::ExecutorState(
                "batch members sit at different subnet levels".into(),
            ));
        }
        Ok(cur)
    }

    /// Runs subnet `k`'s head over the cached features of every request.
    fn head_pass(&mut self, caches: &[ActivationCache], k: usize) -> Result<Tensor> {
        for c in caches {
            c.features()?;
        }
        self.model.head_rows(
            caches.iter().filter_map(|c| c.acts.last()),
            k,
            &mut self.scratch,
        )
    }

    /// Books a finished step into every cache and hands each request its
    /// rows of the stacked `logits`.
    fn finish_step(
        caches: &mut [ActivationCache],
        logits: Tensor,
        k: usize,
        step_macs: u64,
        computed: bool,
    ) -> Result<Vec<ExpandStep>> {
        let row_counts: Vec<usize> = caches.iter().map(|c| c.rows()).collect();
        let logit_parts = split_rows(logits, &row_counts)?;
        let mut steps = Vec::with_capacity(caches.len());
        for (cache, req_logits) in caches.iter_mut().zip(logit_parts) {
            cache.current = Some(k);
            if computed {
                cache.computed = k;
            }
            cache.cumulative_macs += step_macs;
            steps.push(ExpandStep {
                subnet: k,
                logits: req_logits,
                step_macs,
                cumulative_macs: cache.cumulative_macs,
            });
        }
        Ok(steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IncrementalExecutor, SteppingNetBuilder};
    use stepping_tensor::init;

    fn mlp() -> SteppingNet {
        let mut net = SteppingNetBuilder::new(Shape::of(&[6]), 3, 1)
            .linear(10)
            .relu()
            .linear(8)
            .relu()
            .build(4)
            .unwrap();
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

    fn samples(n: usize, dims: &[usize], seed: u64) -> Vec<Tensor> {
        (0..n)
            .map(|i| {
                let mut d = vec![1usize];
                d.extend_from_slice(dims);
                init::uniform(Shape::of(&d), -1.0, 1.0, &mut init::rng(seed + i as u64))
            })
            .collect()
    }

    /// Every transition — begin, fresh expands, contract, head-only
    /// re-expand — over a batch of several requests against the delegating
    /// [`IncrementalExecutor`] (a batch of one) and the masked reference.
    #[test]
    fn batched_begin_and_expand_match_lone_executor_bitwise() {
        let inputs = samples(5, &[6], 20);
        let net = mlp();
        let mut batch = BatchExecutor::new(&net, 1e-5);
        let mut started = batch.begin(&inputs, 0).unwrap();
        let mut caches: Vec<ActivationCache> = Vec::new();
        let mut batch_steps: Vec<Vec<ExpandStep>> = Vec::new();
        for (c, s) in started.drain(..) {
            caches.push(c);
            batch_steps.push(vec![s]);
        }
        // up to 1, up to 2, down to 1, head-only back up to 2
        for up in [true, true, false, true] {
            let steps = if up {
                batch.expand(&mut caches).unwrap()
            } else {
                batch.contract(&mut caches).unwrap()
            };
            for (i, s) in steps.into_iter().enumerate() {
                batch_steps[i].push(s);
            }
        }
        let mut reference = mlp();
        for (i, x) in inputs.iter().enumerate() {
            let lone_net = mlp();
            let head2 = lone_net.head_macs(2);
            let mut lone = IncrementalExecutor::new(&lone_net, 1e-5);
            let mut steps = lone.run_to(x, 2).unwrap();
            steps.push(lone.contract().unwrap());
            steps.push(lone.expand().unwrap());
            assert_eq!(steps[4].step_macs, head2, "re-expand is head-only");
            assert_eq!(steps, batch_steps[i], "request {i} differs");
            for step in &steps {
                let masked = reference.forward(x, step.subnet, false).unwrap();
                assert_eq!(step.logits, masked, "request {i} subnet {}", step.subnet);
            }
            assert_eq!(caches[i].cumulative_macs(), lone.cumulative_macs());
            assert_eq!(caches[i].current_subnet(), lone.current_subnet());
            assert_eq!(caches[i].computed_level(), lone.cache().computed_level());
        }
    }

    #[test]
    fn batched_cnn_matches_from_scratch() {
        let mut net = cnn();
        let warm = init::uniform(Shape::of(&[4, 2, 8, 8]), -1.0, 1.0, &mut init::rng(6));
        for _ in 0..3 {
            net.forward(&warm, 2, true).unwrap();
        }
        let inputs = samples(3, &[2, 8, 8], 30);
        let mut scratch = net.clone();
        let mut batch = BatchExecutor::new(&net, 1e-5);
        let mut caches: Vec<ActivationCache> = batch
            .begin(&inputs, 0)
            .unwrap()
            .into_iter()
            .map(|(c, _)| c)
            .collect();
        batch.expand(&mut caches).unwrap();
        let final_steps = batch.expand(&mut caches).unwrap();
        for (i, x) in inputs.iter().enumerate() {
            let reference = scratch.forward(x, 2, false).unwrap();
            assert_eq!(final_steps[i].logits, reference, "request {i} differs");
        }
    }

    #[test]
    fn begin_at_larger_subnet_skips_smaller_heads() {
        let inputs = samples(2, &[6], 40);
        let net = mlp();
        let expected = net.macs(1, 0.0);
        let mut batch = BatchExecutor::new(&net, 0.0);
        let started = batch.begin(&inputs, 1).unwrap();
        for (cache, step) in &started {
            assert_eq!(step.subnet, 1);
            assert_eq!(step.step_macs, expected);
            assert_eq!(cache.computed_level(), 1);
        }
        // and the logits equal a from-scratch subnet-1 forward
        let mut scratch = mlp();
        for (i, x) in inputs.iter().enumerate() {
            let reference = scratch.forward(x, 1, false).unwrap();
            assert_eq!(started[i].1.logits, reference);
        }
    }

    #[test]
    fn contract_then_head_only_reexpand() {
        let inputs = samples(3, &[6], 50);
        let net = mlp();
        let head1 = net.head_macs(1);
        let head2 = net.head_macs(2);
        let mut batch = BatchExecutor::new(&net, 0.0);
        let mut caches: Vec<ActivationCache> = batch
            .begin(&inputs, 0)
            .unwrap()
            .into_iter()
            .map(|(c, _)| c)
            .collect();
        batch.expand(&mut caches).unwrap();
        batch.expand(&mut caches).unwrap();
        let down = batch.contract(&mut caches).unwrap();
        assert!(down.iter().all(|s| s.subnet == 1 && s.step_macs == head1));
        let up = batch.expand(&mut caches).unwrap();
        assert!(up.iter().all(|s| s.subnet == 2 && s.step_macs == head2));
    }

    #[test]
    fn mixed_levels_rejected() {
        let inputs = samples(2, &[6], 60);
        let net = mlp();
        let mut batch = BatchExecutor::new(&net, 0.0);
        let mut caches: Vec<ActivationCache> = batch
            .begin(&inputs, 0)
            .unwrap()
            .into_iter()
            .map(|(c, _)| c)
            .collect();
        // advance only the first cache
        let mut first = vec![caches.remove(0)];
        batch.expand(&mut first).unwrap();
        caches.insert(0, first.remove(0));
        assert!(batch.expand(&mut caches).is_err());
    }

    #[test]
    fn validates_batch_shape_and_bounds() {
        let net = mlp();
        let mut batch = BatchExecutor::new(&net, 0.0);
        assert!(batch.begin(&[], 0).is_err());
        let x = Tensor::zeros(Shape::of(&[1, 6]));
        assert!(batch.begin(std::slice::from_ref(&x), 9).is_err());
        let bad = Tensor::zeros(Shape::of(&[1, 5]));
        assert!(batch.begin(&[x, bad], 0).is_err());
        let mut empty: Vec<ActivationCache> = vec![ActivationCache::new()];
        assert!(batch.expand(&mut empty).is_err());
        assert!(batch.contract(&mut empty).is_err());
    }

    #[test]
    fn stack_and_split_round_trip() {
        let a = Tensor::from_vec(Shape::of(&[1, 2]), vec![1.0, 2.0]).unwrap();
        let b = Tensor::from_vec(Shape::of(&[2, 2]), vec![3.0, 4.0, 5.0, 6.0]).unwrap();
        let stacked = stack_rows(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(stacked.shape().dims(), &[3, 2]);
        assert!(split_rows(stacked.clone(), &[1, 1]).is_err());
        assert!(split_rows(stacked.clone(), &[2]).is_err());
        let parts = split_rows(stacked, &[1, 2]).unwrap();
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
        assert!(stack_rows(&[]).is_err());
        let c = Tensor::zeros(Shape::of(&[1, 3]));
        assert!(stack_rows(&[a, c]).is_err());
    }
}

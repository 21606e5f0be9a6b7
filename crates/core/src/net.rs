use rand::rngs::StdRng;
use std::sync::Arc;
use stepping_nn::{
    AvgPool2d, BatchNorm1d, BatchNorm2d, Dropout, Flatten, Layer, Linear, MaxPool2d, Param, Relu,
    Sigmoid, Tanh,
};

use stepping_tensor::conv::ConvGeometry;
use stepping_tensor::pack::PackScratch;
use stepping_tensor::{init, GradStore, Shape, Tensor};

use crate::parts::{Guarded, Parts};
use crate::plan::MacTable;
use crate::{
    Assignment, CompiledModel, FixedStage, MaskedConv2d, MaskedLinear, Result, Stage, SteppingError,
};

/// A stepping neural network: a stack of [`Stage`]s plus one lightweight
/// classifier head per subnet.
///
/// Invariants maintained by this type (checked by
/// [`SteppingNet::check_invariants`]):
///
/// * every masked stage's input assignment mirrors the nearest upstream
///   masked stage's output assignment (expanded across flatten),
/// * therefore weight legality (`assign(in) ≤ assign(out)`) implies the
///   incremental property: a neuron's value is identical in every subnet
///   containing it, and subnet `k`'s activations are reusable verbatim when
///   stepping up to `k+1`.
///
/// Heads are the one place recomputation happens on expansion (see
/// `DESIGN.md` §3.2): each subnet owns a `features → classes` linear head
/// whose input is masked to the subnet's active features; head MACs are
/// charged to the subnet.
///
/// Use [`SteppingNetBuilder`] to construct instances.
#[derive(Debug, Clone)]
pub struct SteppingNet {
    /// Stages, heads and feature assignment, with the slot remembering the
    /// last [`CompiledModel`]: every `&mut` access empties it (see
    /// [`crate::parts`]).
    parts: Guarded,
    subnets: usize,
    classes: usize,
    input_shape: Shape,
    last_subnet: Option<usize>,
}

impl SteppingNet {
    /// Number of subnets.
    pub fn subnet_count(&self) -> usize {
        self.subnets
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Shape of one input sample (no batch dimension).
    pub fn input_shape(&self) -> &Shape {
        &self.input_shape
    }

    /// The stage stack.
    pub fn stages(&self) -> &[Stage] {
        &self.parts.read().stages
    }

    /// Mutable access to the stage stack (keep invariants in mind; call
    /// [`SteppingNet::sync_assignments`] after structural edits). Like
    /// every `&mut` access to stages or heads, handing out the borrow
    /// forgets the compiled model (see [`SteppingNet::compile`]).
    pub fn stages_mut(&mut self) -> &mut [Stage] {
        &mut self.parts.write().stages
    }

    /// Indices of masked (steppable) stages.
    pub fn masked_stage_indices(&self) -> Vec<usize> {
        self.stages()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_masked())
            .map(|(i, _)| i)
            .collect()
    }

    /// Assignment of the flattened features that feed the heads.
    pub fn feature_assign(&self) -> &Assignment {
        &self.parts.read().feature_assign
    }

    /// Head of `subnet`.
    ///
    /// # Errors
    ///
    /// Returns [`SteppingError::SubnetOutOfRange`].
    pub fn head(&self, subnet: usize) -> Result<&Linear> {
        self.heads()
            .get(subnet)
            .ok_or(SteppingError::SubnetOutOfRange {
                subnet,
                count: self.subnets,
            })
    }

    /// Every head, indexed by subnet.
    pub(crate) fn heads(&self) -> &[Linear] {
        &self.parts.read().heads
    }

    /// Mutable access to all heads (checkpoint restore; keep geometry
    /// intact).
    pub fn heads_mut(&mut self) -> &mut [Linear] {
        &mut self.parts.write().heads
    }

    /// Re-derives every masked stage's input assignment (and the feature
    /// assignment) from the chain of output assignments. Call after moving
    /// neurons.
    ///
    /// # Errors
    ///
    /// Returns [`SteppingError::InvalidStructure`] if the chain is
    /// inconsistent with the stage geometry.
    pub fn sync_assignments(&mut self) -> Result<()> {
        let input_width = self.input_shape.dims()[0];
        let mut cur = Assignment::new(input_width, self.subnets);
        let parts = self.parts.write();
        for stage in &mut parts.stages {
            match stage {
                Stage::Linear(l) => {
                    l.set_in_assign(cur.clone())?;
                    cur = l.out_assign().clone();
                }
                Stage::Conv(c) => {
                    c.set_in_assign(cur.clone())?;
                    cur = c.out_assign().clone();
                }
                Stage::Fixed(FixedStage::Flatten { factor, .. }) => {
                    cur = cur.repeat_each(*factor);
                }
                s @ Stage::Fixed(
                    FixedStage::BatchNorm1d { .. } | FixedStage::BatchNorm2d { .. },
                ) => {
                    s.set_in_assign(cur.clone())?;
                }
                Stage::Fixed(_) => {}
            }
        }
        if cur.len() != parts.heads[0].in_features() {
            return Err(SteppingError::InvalidStructure(format!(
                "feature assignment of {} does not match head input {}",
                cur.len(),
                parts.heads[0].in_features()
            )));
        }
        parts.feature_assign = cur;
        Ok(())
    }

    /// Verifies the structural invariants (nesting + head geometry); intended
    /// for tests and debug assertions.
    ///
    /// # Errors
    ///
    /// Returns [`SteppingError::InvalidStructure`] describing the violation.
    pub fn check_invariants(&self) -> Result<()> {
        let input_width = self.input_shape.dims()[0];
        let mut cur = Assignment::new(input_width, self.subnets);
        for (i, stage) in self.stages().iter().enumerate() {
            match stage {
                Stage::Linear(l) => {
                    if l.in_assign() != &cur {
                        return Err(SteppingError::InvalidStructure(format!(
                            "stage {i}: stale input assignment"
                        )));
                    }
                    cur = l.out_assign().clone();
                }
                Stage::Conv(c) => {
                    if c.in_assign() != &cur {
                        return Err(SteppingError::InvalidStructure(format!(
                            "stage {i}: stale input assignment"
                        )));
                    }
                    cur = c.out_assign().clone();
                }
                Stage::Fixed(FixedStage::Flatten { factor, .. }) => {
                    cur = cur.repeat_each(*factor);
                }
                Stage::Fixed(FixedStage::BatchNorm1d { assign, .. })
                | Stage::Fixed(FixedStage::BatchNorm2d { assign, .. }) => {
                    if assign.as_ref() != Some(&cur) {
                        return Err(SteppingError::InvalidStructure(format!(
                            "stage {i}: stale batch-norm assignment"
                        )));
                    }
                }
                Stage::Fixed(_) => {}
            }
        }
        if &cur != self.feature_assign() {
            return Err(SteppingError::InvalidStructure(
                "stale feature assignment".into(),
            ));
        }
        Ok(())
    }

    /// Moves output neuron `neuron` of masked stage `stage` to subnet
    /// `target` and re-syncs downstream assignments.
    ///
    /// # Errors
    ///
    /// Propagates stage/assignment errors.
    pub fn move_neuron(&mut self, stage: usize, neuron: usize, target: usize) -> Result<()> {
        self.move_neurons(&[(stage, neuron, target)])
    }

    /// Moves several neurons, then re-syncs once.
    ///
    /// # Errors
    ///
    /// Propagates stage/assignment errors; assignments are re-synced even on
    /// partial failure to keep the network consistent.
    pub fn move_neurons(&mut self, moves: &[(usize, usize, usize)]) -> Result<()> {
        let mut first_err = None;
        for &(stage, neuron, target) in moves {
            let r = match self.stages_mut().get_mut(stage) {
                Some(s) => s.move_out_neuron(neuron, target),
                None => Err(SteppingError::InvalidStructure(format!(
                    "stage {stage} out of range"
                ))),
            };
            if let Err(e) = r {
                first_err.get_or_insert(e);
            }
        }
        let sync = self.sync_assignments();
        match first_err {
            Some(e) => Err(e),
            None => sync,
        }
    }

    /// 0/1 mask of features active in `subnet`, shaped `[features]`.
    pub fn feature_mask(&self, subnet: usize) -> Tensor {
        let assign = self.feature_assign();
        let mut m = Tensor::zeros(Shape::of(&[assign.len()]));
        for (i, v) in m.data_mut().iter_mut().enumerate() {
            if assign.is_active(i, subnet) {
                *v = 1.0;
            }
        }
        m
    }

    /// Runs the feature extractor (all stages, no head) for `subnet`.
    ///
    /// # Errors
    ///
    /// Propagates stage errors; requires the final stage output to be
    /// `[n, features]`.
    pub fn features(&mut self, input: &Tensor, subnet: usize, train: bool) -> Result<Tensor> {
        if subnet >= self.subnets {
            return Err(SteppingError::SubnetOutOfRange {
                subnet,
                count: self.subnets,
            });
        }
        let mut x = input.clone();
        for stage in self.stages_mut() {
            x = stage.forward(&x, subnet, train)?;
        }
        let features = self.feature_assign().len();
        if x.shape().rank() != 2 || x.shape().dims()[1] != features {
            return Err(SteppingError::InvalidStructure(format!(
                "feature extractor produced {}, expected [n, {features}]",
                x.shape()
            )));
        }
        Ok(x)
    }

    /// Full forward pass: feature extractor + masked subnet head. Returns
    /// class logits `[n, classes]`.
    ///
    /// # Errors
    ///
    /// Propagates stage/head errors.
    pub fn forward(&mut self, input: &Tensor, subnet: usize, train: bool) -> Result<Tensor> {
        let feats = self.features(input, subnet, train)?;
        let logits = self.head_forward(&feats, subnet, train)?;
        self.last_subnet = Some(subnet);
        Ok(logits)
    }

    /// Applies the masked head of `subnet` to already-computed features.
    ///
    /// # Errors
    ///
    /// Propagates head errors.
    pub fn head_forward(
        &mut self,
        features: &Tensor,
        subnet: usize,
        train: bool,
    ) -> Result<Tensor> {
        if subnet >= self.subnets {
            return Err(SteppingError::SubnetOutOfRange {
                subnet,
                count: self.subnets,
            });
        }
        let mask = self.feature_mask(subnet);
        let mut masked = features.clone();
        let f = mask.len();
        let n = features.shape().dims()[0];
        for b in 0..n {
            for i in 0..f {
                masked.data_mut()[b * f + i] *= mask.data()[i];
            }
        }
        Ok(self.heads_mut()[subnet].forward(&masked, train)?)
    }

    /// Compiles the net for inference: every packed panel of every masked
    /// stage and head, the fixed stages, and the [`MacTable`] counted at
    /// `prune_threshold`, built eagerly into one immutable, `Send + Sync`
    /// [`CompiledModel`] that executors share through the `Arc`.
    ///
    /// The net remembers the last model it compiled in a single slot: a
    /// repeated call at the same threshold is a slot read, a call at
    /// another threshold recompiles and takes the slot. Every `&mut` access
    /// to stages, heads or assignments — moves, pruning, optimizer steps,
    /// checkpoint loads, even a masked [`forward`](Self::forward), whose
    /// batch norms may move running statistics — empties the slot, so the
    /// next call recompiles from the mutated net. A model handed out
    /// earlier is unaffected: it is a snapshot, and executors created from
    /// it keep serving it.
    pub fn compile(&self, prune_threshold: f32) -> Arc<CompiledModel> {
        self.compiled(Some(prune_threshold))
    }

    /// The slot's model if it fits `threshold` (any model fits `None`),
    /// else one compiled now, which takes the slot.
    fn compiled(&self, threshold: Option<f32>) -> Arc<CompiledModel> {
        self.parts
            .compiled(threshold, |threshold| CompiledModel::new(self, threshold))
    }

    /// Full packed inference pass through the compiled model — the
    /// remembered one whatever its threshold (panels do not depend on it),
    /// else one compiled now: every stage and the head run their panels —
    /// the per-stage kernels
    /// [`BatchExecutor::begin`](crate::BatchExecutor::begin) runs, without
    /// keeping the intermediate levels. Equal to
    /// `forward(input, subnet, false)` under `f32 ==`; does not populate
    /// backward caches or `last_subnet`.
    ///
    /// # Errors
    ///
    /// Propagates stage/head errors.
    pub fn forward_packed(&self, input: &Tensor, subnet: usize) -> Result<Tensor> {
        self.compiled(None)
            .forward(input, subnet, &mut PackScratch::new())
    }

    /// MAC operations a direct packed pass at `subnet` executes for one
    /// sample, read off the compiled model's full panels: per `NR`-wide
    /// tile its real rows times its depth extent (times the output
    /// positions for a convolution), plus the head panel. Compare against
    /// [`SteppingNet::macs`] (the paper's budget accounting) to see how
    /// tightly execution tracks the `P_i` budgets: pruned and row-illegal
    /// weights inside a tile's extent still occupy panel slots. The SIMD
    /// tiers run a group of up to eight tiles at the group's largest extent
    /// (AVX2 on a batch of fewer than eight rows, AVX-512 on every batch),
    /// which this count does not charge.
    ///
    /// # Panics
    ///
    /// Panics if `subnet` is out of range.
    pub fn packed_macs(&self, subnet: usize) -> u64 {
        self.compiled(None).packed_macs(subnet)
    }

    /// Back-propagates a logits gradient through the head used by the last
    /// [`SteppingNet::forward`] and the whole stage stack, accumulating
    /// parameter gradients.
    ///
    /// # Errors
    ///
    /// Returns [`SteppingError::ExecutorState`] before any forward, and
    /// propagates stage errors.
    pub fn backward(&mut self, dlogits: &Tensor) -> Result<()> {
        let subnet = self
            .last_subnet
            .ok_or_else(|| SteppingError::ExecutorState("backward called before forward".into()))?;
        let mut dfeat = self.heads_mut()[subnet].backward(dlogits)?;
        let mask = self.feature_mask(subnet);
        let f = mask.len();
        let n = dfeat.shape().dims()[0];
        for b in 0..n {
            for i in 0..f {
                dfeat.data_mut()[b * f + i] *= mask.data()[i];
            }
        }
        let mut g = dfeat;
        for stage in self.stages_mut().iter_mut().rev() {
            g = stage.backward(&g)?;
        }
        Ok(())
    }

    /// Parameters trained when optimising `subnet`: all stage parameters plus
    /// that subnet's head.
    ///
    /// # Errors
    ///
    /// Returns [`SteppingError::SubnetOutOfRange`].
    pub fn params_for(&mut self, subnet: usize) -> Result<Vec<&mut Param>> {
        if subnet >= self.subnets {
            return Err(SteppingError::SubnetOutOfRange {
                subnet,
                count: self.subnets,
            });
        }
        let parts = self.parts.write();
        let mut params: Vec<&mut Param> = parts
            .stages
            .iter_mut()
            .flat_map(|s| s.params_mut())
            .collect();
        params.extend(parts.heads[subnet].params_mut());
        Ok(params)
    }

    /// Copies head 0's parameters into every other head.
    ///
    /// A fresh network only ever trains head 0 (subnet 0 *is* the whole
    /// network before construction), so the other heads would enter
    /// construction from random initialisation. Warm-starting them from the
    /// pretrained head gives every subnet a sensible classifier to refine —
    /// the paper's single-output-layer formulation gets this for free.
    pub fn warm_start_heads(&mut self) {
        let Some((first, rest)) = self.heads_mut().split_first_mut() else {
            return; // a built network always has >= 1 head
        };
        let w = first.weight().value.clone();
        let b = first.bias().value.clone();
        for h in rest {
            h.weight_mut().value = w.clone();
            h.bias_mut().value = b.clone();
        }
    }

    /// Zeroes every gradient (stages and all heads).
    pub fn zero_grad(&mut self) {
        let parts = self.parts.write();
        for s in &mut parts.stages {
            for p in s.params_mut() {
                p.zero_grad();
            }
        }
        for h in &mut parts.heads {
            for p in h.params_mut() {
                p.zero_grad();
            }
        }
    }

    /// Snapshots the gradients of every parameter trained for `subnet`, in
    /// [`SteppingNet::params_for`] order (all stage parameters, then the
    /// subnet head's weight and bias).
    ///
    /// Together with [`SteppingNet::import_grads`] this is the transport the
    /// stepping-exec engine uses to move per-shard gradients between replica
    /// nets and the master.
    ///
    /// # Errors
    ///
    /// Returns [`SteppingError::SubnetOutOfRange`].
    pub fn export_grads(&mut self, subnet: usize) -> Result<GradStore> {
        let params = self.params_for(subnet)?;
        Ok(GradStore::new(
            params.iter().map(|p| p.grad.clone()).collect(),
        ))
    }

    /// Overwrites the gradients of every parameter trained for `subnet` with
    /// the slots of `grads` (a [`SteppingNet::export_grads`] snapshot from a
    /// structurally identical net).
    ///
    /// # Errors
    ///
    /// Returns [`SteppingError::SubnetOutOfRange`] or
    /// [`SteppingError::InvalidStructure`] on slot-count/shape mismatch.
    pub fn import_grads(&mut self, subnet: usize, grads: &GradStore) -> Result<()> {
        let mut params = self.params_for(subnet)?;
        if params.len() != grads.len() {
            return Err(SteppingError::InvalidStructure(format!(
                "gradient import expects {} slots, got {}",
                params.len(),
                grads.len()
            )));
        }
        for (p, g) in params.iter_mut().zip(grads.iter()) {
            if p.grad.shape() != g.shape() {
                return Err(SteppingError::InvalidStructure(format!(
                    "gradient slot shape mismatch: {} vs {}",
                    p.grad.shape(),
                    g.shape()
                )));
            }
            p.grad = g.clone();
        }
        Ok(())
    }

    /// Snapshots the accumulated per-neuron importance of every masked
    /// stage, index-aligned with [`SteppingNet::masked_stage_indices`].
    pub fn export_importance(&self) -> Vec<Vec<f64>> {
        self.stages()
            .iter()
            .filter_map(|s| s.importance_values().map(<[f64]>::to_vec))
            .collect()
    }

    /// Adds an [`SteppingNet::export_importance`] snapshot (from a replica
    /// net) onto this net's accumulated importance, stage by stage.
    ///
    /// # Errors
    ///
    /// Returns [`SteppingError::InvalidStructure`] on stage-count or
    /// neuron-count mismatch.
    pub fn add_importance(&mut self, delta: &[Vec<f64>]) -> Result<()> {
        let masked = self.masked_stage_indices();
        if masked.len() != delta.len() {
            return Err(SteppingError::InvalidStructure(format!(
                "importance import expects {} masked stages, got {}",
                masked.len(),
                delta.len()
            )));
        }
        for (idx, d) in masked.into_iter().zip(delta.iter()) {
            self.stages_mut()[idx].add_importance_values(d)?;
        }
        Ok(())
    }

    /// Whether training-mode forwards of this net are shard-decomposable:
    /// true iff no stage couples rows of a batch (batch norm) or consumes a
    /// per-batch RNG stream (dropout). When false, the stepping-exec engine
    /// falls back to a single shard regardless of configuration.
    pub fn train_parallel_safe(&self) -> bool {
        self.stages().iter().all(Stage::shard_safe)
    }

    /// MAC operations executed by subnet `subnet` (stages + its head).
    pub fn macs(&self, subnet: usize, threshold: f32) -> u64 {
        let stage_macs: u64 = self
            .stages()
            .iter()
            .map(|s| s.macs(subnet, threshold))
            .sum();
        stage_macs + self.head_macs(subnet)
    }

    /// The MAC accounting of every subnet and step at `threshold`: the
    /// [`MacTable`] of [`compile`](Self::compile)`(threshold)`, so a call on
    /// an unmutated net at the threshold last compiled costs a slot read.
    /// Its entries equal [`SteppingNet::macs`] and the per-step sums of
    /// `neuron_macs` exactly.
    pub fn mac_table(&self, threshold: f32) -> MacTable {
        self.compile(threshold).mac_table().clone()
    }

    /// MAC operations of `subnet`'s head (active features × classes).
    pub fn head_macs(&self, subnet: usize) -> u64 {
        (self.feature_assign().active_count(subnet) * self.classes) as u64
    }

    /// Architectural MAC capacity: every weight legal and unpruned, one head
    /// reading all features — the `P_t` of the construction flow.
    pub fn full_macs(&self) -> u64 {
        let mut total = 0u64;
        for s in self.stages() {
            total += match s {
                Stage::Linear(l) => (l.out_features() * l.in_features()) as u64,
                Stage::Conv(c) => {
                    (c.out_channels() * c.in_channels() * c.kernel() * c.kernel()) as u64
                        * c.positions() as u64
                }
                Stage::Fixed(_) => 0,
            };
        }
        total + (self.feature_assign().len() * self.classes) as u64
    }

    /// Applies non-permanent pruning to every masked stage; returns the
    /// number of zeroed weights.
    pub fn prune(&mut self, threshold: f32) -> usize {
        self.stages_mut()
            .iter_mut()
            .map(|s| s.prune(threshold))
            .sum()
    }

    /// Per-stage snapshots of which weights are currently zero, for revival
    /// tracking across a training round (fixed stages yield empty masks).
    pub fn zeroed_weight_masks(&self) -> Vec<Vec<bool>> {
        self.stages().iter().map(|s| s.zeroed_weights()).collect()
    }

    /// Counts synapses that were zero in `before` (a
    /// [`zeroed_weight_masks`](Self::zeroed_weight_masks) snapshot) and now
    /// carry magnitude `>= threshold` — weights revived after non-permanent
    /// pruning.
    pub fn count_revived(&self, before: &[Vec<bool>], threshold: f32) -> usize {
        self.stages()
            .iter()
            .zip(before.iter())
            .map(|(s, b)| s.count_revived(b, threshold))
            .sum()
    }

    /// Clears accumulated importance on every masked stage.
    pub fn reset_importance(&mut self) {
        for s in self.stages_mut() {
            s.reset_importance();
        }
    }

    /// Installs weight-update suppression (`β^(subnet − assign)`) on every
    /// masked stage for training `subnet`.
    pub fn apply_lr_suppression(&mut self, subnet: usize, beta: f32) {
        for s in self.stages_mut() {
            s.apply_lr_suppression(subnet, beta);
        }
    }

    /// Removes weight-update suppression everywhere.
    pub fn clear_lr_suppression(&mut self) {
        for s in self.stages_mut() {
            s.clear_lr_suppression();
        }
    }

    /// Short human-readable summary of the architecture and current subnet
    /// MAC footprints.
    pub fn summary(&self, threshold: f32) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "SteppingNet: input {}, {} subnets, {} classes, full {} MACs",
            self.input_shape,
            self.subnets,
            self.classes,
            self.full_macs()
        );
        for (i, s) in self.stages().iter().enumerate() {
            let extra = match s.neuron_count() {
                Some(n) => format!(" ({n} neurons)"),
                None => String::new(),
            };
            let _ = writeln!(out, "  stage {i}: {}{extra}", s.name());
        }
        for k in 0..self.subnets {
            let _ = writeln!(out, "  subnet {k}: {} MACs", self.macs(k, threshold));
        }
        out
    }
}

/// Where the builder currently is, shape-wise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BuilderShape {
    /// NCHW image pipeline (channels, height, width).
    Image(usize, usize, usize),
    /// Flattened feature pipeline.
    Flat(usize),
}

/// Fluent builder for [`SteppingNet`].
///
/// # Example
///
/// ```
/// use stepping_core::SteppingNetBuilder;
/// use stepping_tensor::Shape;
///
/// let net = SteppingNetBuilder::new(Shape::of(&[3, 8, 8]), 3, 0)
///     .conv(8, 3, 1, 1)
///     .relu()
///     .max_pool(2, 2)
///     .flatten()
///     .linear(16)
///     .relu()
///     .build(10)?;
/// assert_eq!(net.subnet_count(), 3);
/// assert_eq!(net.classes(), 10);
/// # Ok::<(), stepping_core::SteppingError>(())
/// ```
#[derive(Debug)]
pub struct SteppingNetBuilder {
    subnets: usize,
    rng: StdRng,
    stages: Vec<Stage>,
    shape: BuilderShape,
    input_shape: Shape,
    error: Option<SteppingError>,
    dropout_count: u64,
    seed: u64,
}

impl SteppingNetBuilder {
    /// Starts a builder for inputs of `input_shape` (`[c, h, w]` for images
    /// or `[features]` for flat inputs), `subnets` subnets, seeded
    /// initialisation.
    ///
    /// An `input_shape` that is not rank 1 or 3 is reported as
    /// [`SteppingError::BadConfig`] by [`build`](SteppingNetBuilder::build)
    /// rather than panicking here.
    ///
    /// # Panics
    ///
    /// Panics if `subnets` is zero.
    pub fn new(input_shape: Shape, subnets: usize, seed: u64) -> Self {
        assert!(subnets > 0, "at least one subnet required");
        let mut error = None;
        let shape = match input_shape.dims() {
            [c, h, w] => BuilderShape::Image(*c, *h, *w),
            [f] => BuilderShape::Flat(*f),
            _ => {
                error = Some(SteppingError::BadConfig(format!(
                    "input shape must be [c, h, w] or [features], got {input_shape}"
                )));
                BuilderShape::Flat(0)
            }
        };
        SteppingNetBuilder {
            subnets,
            rng: init::rng(seed),
            stages: Vec::new(),
            shape,
            input_shape,
            error,
            dropout_count: 0,
            seed,
        }
    }

    fn fail(&mut self, msg: String) {
        if self.error.is_none() {
            self.error = Some(SteppingError::BadConfig(msg));
        }
    }

    /// Adds a masked convolution (square kernel).
    pub fn conv(
        mut self,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        if self.error.is_some() {
            return self;
        }
        match self.shape {
            BuilderShape::Image(c, h, w) => {
                match ConvGeometry::new(c, h, w, kernel, kernel, stride, padding) {
                    Ok(geom) => {
                        let positions = geom.positions();
                        self.stages.push(Stage::Conv(MaskedConv2d::new(
                            c,
                            out_channels,
                            kernel,
                            stride,
                            padding,
                            positions,
                            self.subnets,
                            &mut self.rng,
                        )));
                        self.shape = BuilderShape::Image(out_channels, geom.out_h, geom.out_w);
                    }
                    Err(e) => self.fail(format!("conv geometry: {e}")),
                }
            }
            BuilderShape::Flat(_) => self.fail("conv after flatten".into()),
        }
        self
    }

    /// Adds a masked fully-connected layer (requires a flat pipeline).
    pub fn linear(mut self, out_features: usize) -> Self {
        if self.error.is_some() {
            return self;
        }
        match self.shape {
            BuilderShape::Flat(f) => {
                self.stages.push(Stage::Linear(MaskedLinear::new(
                    f,
                    out_features,
                    self.subnets,
                    &mut self.rng,
                )));
                self.shape = BuilderShape::Flat(out_features);
            }
            BuilderShape::Image(..) => self.fail("linear before flatten".into()),
        }
        self
    }

    /// Adds a ReLU activation.
    pub fn relu(mut self) -> Self {
        if self.error.is_none() {
            self.stages
                .push(Stage::Fixed(FixedStage::Relu(Relu::new())));
        }
        self
    }

    /// Adds a tanh activation.
    pub fn tanh(mut self) -> Self {
        if self.error.is_none() {
            self.stages
                .push(Stage::Fixed(FixedStage::Tanh(Tanh::new())));
        }
        self
    }

    /// Adds a sigmoid activation.
    pub fn sigmoid(mut self) -> Self {
        if self.error.is_none() {
            self.stages
                .push(Stage::Fixed(FixedStage::Sigmoid(Sigmoid::new())));
        }
        self
    }

    /// Adds max pooling (image pipeline only).
    pub fn max_pool(mut self, kernel: usize, stride: usize) -> Self {
        if self.error.is_some() {
            return self;
        }
        match self.shape {
            BuilderShape::Image(c, h, w) => {
                match ConvGeometry::new(c, h, w, kernel, kernel, stride, 0) {
                    Ok(geom) => {
                        self.stages
                            .push(Stage::Fixed(FixedStage::MaxPool(MaxPool2d::new(
                                kernel, stride,
                            ))));
                        self.shape = BuilderShape::Image(c, geom.out_h, geom.out_w);
                    }
                    Err(e) => self.fail(format!("max pool geometry: {e}")),
                }
            }
            BuilderShape::Flat(_) => self.fail("max pool after flatten".into()),
        }
        self
    }

    /// Adds average pooling (image pipeline only).
    pub fn avg_pool(mut self, kernel: usize, stride: usize) -> Self {
        if self.error.is_some() {
            return self;
        }
        match self.shape {
            BuilderShape::Image(c, h, w) => {
                match ConvGeometry::new(c, h, w, kernel, kernel, stride, 0) {
                    Ok(geom) => {
                        self.stages
                            .push(Stage::Fixed(FixedStage::AvgPool(AvgPool2d::new(
                                kernel, stride,
                            ))));
                        self.shape = BuilderShape::Image(c, geom.out_h, geom.out_w);
                    }
                    Err(e) => self.fail(format!("avg pool geometry: {e}")),
                }
            }
            BuilderShape::Flat(_) => self.fail("avg pool after flatten".into()),
        }
        self
    }

    /// Adds batch normalisation matching the current pipeline (2-D per
    /// channel for images, 1-D per feature when flat).
    pub fn batch_norm(mut self) -> Self {
        if self.error.is_some() {
            return self;
        }
        match self.shape {
            BuilderShape::Image(c, ..) => {
                self.stages.push(Stage::Fixed(FixedStage::BatchNorm2d {
                    layer: BatchNorm2d::new(c),
                    assign: None,
                }));
            }
            BuilderShape::Flat(f) => {
                self.stages.push(Stage::Fixed(FixedStage::BatchNorm1d {
                    layer: BatchNorm1d::new(f),
                    assign: None,
                }));
            }
        }
        self
    }

    /// Adds inverted dropout with probability `p`.
    pub fn dropout(mut self, p: f32) -> Self {
        if self.error.is_some() {
            return self;
        }
        if !(0.0..1.0).contains(&p) {
            self.fail(format!("dropout probability {p} must be in [0, 1)"));
            return self;
        }
        let seed = self.seed.wrapping_add(0xd0_00 + self.dropout_count);
        self.dropout_count += 1;
        self.stages
            .push(Stage::Fixed(FixedStage::Dropout(Dropout::new(p, seed))));
        self
    }

    /// Flattens the image pipeline to features.
    pub fn flatten(mut self) -> Self {
        if self.error.is_some() {
            return self;
        }
        match self.shape {
            BuilderShape::Image(c, h, w) => {
                self.stages.push(Stage::Fixed(FixedStage::Flatten {
                    layer: Flatten::new(),
                    factor: h * w,
                }));
                self.shape = BuilderShape::Flat(c * h * w);
            }
            BuilderShape::Flat(_) => self.fail("flatten on an already-flat pipeline".into()),
        }
        self
    }

    /// Finalises the network, attaching one `features → classes` head per
    /// subnet.
    ///
    /// # Errors
    ///
    /// Returns the first configuration error recorded during building, or
    /// [`SteppingError::BadConfig`] when the pipeline does not end flat or
    /// has no masked stage.
    pub fn build(mut self, classes: usize) -> Result<SteppingNet> {
        if let Some(e) = self.error {
            return Err(e);
        }
        if classes == 0 {
            return Err(SteppingError::BadConfig("classes must be nonzero".into()));
        }
        let features = match self.shape {
            BuilderShape::Flat(f) => f,
            BuilderShape::Image(..) => {
                return Err(SteppingError::BadConfig(
                    "pipeline must end with flatten (or be flat) before heads".into(),
                ))
            }
        };
        if !self.stages.iter().any(Stage::is_masked) {
            return Err(SteppingError::BadConfig(
                "network has no masked stage".into(),
            ));
        }
        let heads = (0..self.subnets)
            .map(|_| Linear::new(features, classes, &mut self.rng))
            .collect();
        let mut net = SteppingNet {
            parts: Guarded::new(Parts {
                stages: self.stages,
                heads,
                feature_assign: Assignment::new(features, self.subnets),
            }),
            subnets: self.subnets,
            classes,
            input_shape: self.input_shape,
            last_subnet: None,
        };
        net.sync_assignments()?;
        Ok(net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mlp() -> SteppingNet {
        SteppingNetBuilder::new(Shape::of(&[6]), 3, 1)
            .linear(8)
            .relu()
            .linear(5)
            .relu()
            .build(4)
            .unwrap()
    }

    fn cnn() -> SteppingNet {
        SteppingNetBuilder::new(Shape::of(&[2, 8, 8]), 2, 2)
            .conv(4, 3, 1, 1)
            .relu()
            .max_pool(2, 2)
            .conv(6, 3, 1, 1)
            .relu()
            .max_pool(2, 2)
            .flatten()
            .linear(12)
            .relu()
            .build(3)
            .unwrap()
    }

    #[test]
    fn builder_wires_shapes_and_heads() {
        let mut net = cnn();
        assert_eq!(net.masked_stage_indices(), vec![0, 3, 7]);
        let x = Tensor::zeros(Shape::of(&[2, 2, 8, 8]));
        let y = net.forward(&x, 0, false).unwrap();
        assert_eq!(y.shape().dims(), &[2, 3]);
        net.check_invariants().unwrap();
    }

    #[test]
    fn builder_rejects_bad_pipelines() {
        assert!(SteppingNetBuilder::new(Shape::of(&[4]), 2, 0)
            .conv(3, 3, 1, 1)
            .build(2)
            .is_err());
        assert!(SteppingNetBuilder::new(Shape::of(&[2, 4, 4]), 2, 0)
            .linear(4)
            .build(2)
            .is_err());
        assert!(SteppingNetBuilder::new(Shape::of(&[2, 4, 4]), 2, 0)
            .conv(3, 3, 1, 1)
            .build(2)
            .is_err()); // not flattened
        assert!(SteppingNetBuilder::new(Shape::of(&[4]), 2, 0)
            .linear(3)
            .build(0)
            .is_err());
        assert!(SteppingNetBuilder::new(Shape::of(&[4]), 2, 0)
            .relu()
            .build(2)
            .is_err()); // no masked stage
    }

    #[test]
    fn builder_supports_smooth_activations() {
        let mut net = SteppingNetBuilder::new(Shape::of(&[4]), 2, 0)
            .linear(6)
            .tanh()
            .linear(5)
            .sigmoid()
            .build(3)
            .unwrap();
        let x = init::uniform(Shape::of(&[2, 4]), -1.0, 1.0, &mut init::rng(1));
        let y = net.forward(&x, 1, true).unwrap();
        assert_eq!(y.shape().dims(), &[2, 3]);
        assert_eq!(net.stages()[1].name(), "Tanh");
        assert_eq!(net.stages()[3].name(), "Sigmoid");
        net.backward(&Tensor::ones(Shape::of(&[2, 3]))).unwrap();
    }

    #[test]
    fn move_neuron_propagates_to_downstream_in_assign() {
        let mut net = mlp();
        // stage 0 linear 6→8; stage 2 linear 8→5
        net.move_neuron(0, 3, 1).unwrap();
        match &net.stages()[2] {
            Stage::Linear(l) => assert_eq!(l.in_assign().subnet_of(3), 1),
            _ => unreachable!(),
        }
        net.check_invariants().unwrap();
    }

    #[test]
    fn flatten_expands_assignment_to_downstream_linear() {
        let mut net = cnn();
        // stage 3 conv has 6 filters; after two 2x2 pools on 8x8 → 2x2
        // spatial, so each filter becomes 4 features of stage 7's input.
        net.move_neuron(3, 5, 1).unwrap();
        match &net.stages()[7] {
            Stage::Linear(l) => {
                let ia = l.in_assign();
                assert_eq!(ia.len(), 6 * 4);
                for i in 0..4 {
                    assert_eq!(ia.subnet_of(5 * 4 + i), 1);
                    assert_eq!(ia.subnet_of(i), 0);
                }
            }
            _ => unreachable!("stage 7 is the masked linear"),
        }
        // heads read the final linear's 12 outputs, all still in subnet 0
        assert_eq!(net.feature_assign().len(), 12);
        assert_eq!(net.head_macs(0), (12 * 3) as u64);
        // moving a head-feature neuron shrinks the smaller subnet's head
        net.move_neuron(7, 0, 1).unwrap();
        assert_eq!(net.head_macs(0), (11 * 3) as u64);
        assert_eq!(net.head_macs(1), (12 * 3) as u64);
    }

    #[test]
    fn incremental_property_shared_logits_inputs() {
        // Feature values of subnet-0 features are identical under subnet 1.
        let mut net = cnn();
        net.move_neuron(0, 1, 1).unwrap();
        net.move_neuron(3, 2, 1).unwrap();
        let x = init::uniform(Shape::of(&[2, 2, 8, 8]), -1.0, 1.0, &mut init::rng(9));
        let f0 = net.features(&x, 0, false).unwrap();
        let f1 = net.features(&x, 1, false).unwrap();
        let fa = net.feature_assign().clone();
        for b in 0..2 {
            for i in 0..fa.len() {
                if fa.is_active(i, 0) {
                    assert_eq!(
                        f0.data()[b * fa.len() + i],
                        f1.data()[b * fa.len() + i],
                        "feature {i} changed between subnets"
                    );
                }
            }
        }
    }

    #[test]
    fn macs_monotone_in_subnet_index() {
        let mut net = cnn();
        net.move_neuron(0, 0, 1).unwrap();
        net.move_neuron(3, 1, 1).unwrap();
        net.move_neuron(7, 2, 1).unwrap();
        assert!(net.macs(0, 0.0) < net.macs(1, 0.0));
        assert!(net.macs(1, 0.0) <= net.full_macs());
    }

    #[test]
    fn backward_accumulates_grads_for_trained_subnet_only_head() {
        let mut net = mlp();
        let x = init::uniform(Shape::of(&[4, 6]), -1.0, 1.0, &mut init::rng(3));
        let y = net.forward(&x, 1, true).unwrap();
        net.backward(&Tensor::ones(y.shape().clone())).unwrap();
        // head 1 has gradient, head 0 does not
        let g1: f32 = net.heads()[1].weight().grad.norm_sq();
        let g0: f32 = net.heads()[0].weight().grad.norm_sq();
        assert!(g1 > 0.0);
        assert_eq!(g0, 0.0);
        net.zero_grad();
        assert_eq!(net.heads()[1].weight().grad.norm_sq(), 0.0);
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut net = mlp();
        assert!(net.backward(&Tensor::zeros(Shape::of(&[1, 4]))).is_err());
    }

    #[test]
    fn params_for_includes_head() {
        let mut net = mlp();
        let n_stage_params = 4; // 2 masked linears × (w, b)
        assert_eq!(net.params_for(0).unwrap().len(), n_stage_params + 2);
        assert!(net.params_for(5).is_err());
    }

    #[test]
    fn summary_mentions_all_subnets() {
        let net = mlp();
        let s = net.summary(0.0);
        assert!(s.contains("subnet 0"));
        assert!(s.contains("subnet 2"));
        assert!(s.contains("MaskedLinear"));
    }

    #[test]
    fn unused_pool_neurons_drop_out_of_all_subnets() {
        let mut net = mlp();
        net.move_neuron(2, 0, 3).unwrap(); // unused pool (subnets = 3)
        let macs_before = net.macs(2, 0.0);
        assert!(macs_before < mlp().macs(2, 0.0));
    }

    #[test]
    fn bad_input_rank_is_a_typed_error_not_a_panic() {
        let err = SteppingNetBuilder::new(Shape::of(&[2, 3, 4, 5]), 2, 0)
            .linear(4)
            .build(2)
            .unwrap_err();
        assert!(matches!(err, SteppingError::BadConfig(_)), "{err:?}");
        let err = SteppingNetBuilder::new(Shape::of(&[2, 3]), 2, 0)
            .build(2)
            .unwrap_err();
        assert!(matches!(err, SteppingError::BadConfig(_)), "{err:?}");
    }
}

//! The immutable compiled form of a [`SteppingNet`]: what packed inference
//! reads, and nothing training writes.
//!
//! [`SteppingNet::compile`] builds one [`CompiledModel`] eagerly — per
//! masked stage the full and step panels of every subnet, every head panel
//! with its bias, the fixed stages with the channel runs of their input
//! that each step changes and that each subnet uses (a direct pass skips
//! the rest), the [`MacTable`] — and hands it out in an `Arc`.
//! Nothing in it changes afterwards: there is no epoch, no lock and no
//! scratch inside, so any number of executors on any number of threads run
//! it through `&self`, each with its own [`PackScratch`]. See the `plan`
//! module docs for bit-identity and `crate::parts` for how the net forgets
//! a model when it is mutated.

use std::ops::Range;

use stepping_tensor::conv::ConvGeometry;
use stepping_tensor::microkernel::{self, Epilogue, PackedB};
use stepping_tensor::pack::{self, span, PackScratch};
use stepping_tensor::{Shape, Tensor};

use crate::plan::{self, ConvPlan, HeadPlan, LinearPlan, MacTable};
use crate::{FixedStage, Result, Stage, SteppingError, SteppingNet};

/// The full and step panels of one masked stage.
#[derive(Debug)]
pub(crate) struct Panels<P> {
    /// `full[s]` covers every neuron active at subnet `s` (a direct pass),
    /// level-major.
    full: Vec<P>,
    /// `step[k - 1]` covers the neurons assigned exactly to subnet `k`
    /// (an expand); no expand targets subnet 0, so it has no step panel.
    step: Vec<P>,
}

impl<P> Panels<P> {
    /// Compiles both families: `panel(subnet, step)` builds one panel.
    pub fn compile(subnets: usize, panel: impl Fn(usize, bool) -> P) -> Self {
        Panels {
            full: (0..subnets).map(|s| panel(s, false)).collect(),
            step: (1..subnets).map(|k| panel(k, true)).collect(),
        }
    }

    /// The step panel of `subnet` or its full panel.
    fn get(&self, subnet: usize, step: bool) -> Result<&P> {
        let panel = if step {
            subnet.checked_sub(1).and_then(|i| self.step.get(i))
        } else {
            self.full.get(subnet)
        };
        panel.ok_or(SteppingError::SubnetOutOfRange {
            subnet,
            count: self.full.len(),
        })
    }
}

/// A masked linear stage in inference form (see
/// [`MaskedLinear`](crate::MaskedLinear)).
#[derive(Debug)]
pub(crate) struct CompiledLinear {
    pub in_features: usize,
    pub out_features: usize,
    pub panels: Panels<LinearPlan>,
}

impl CompiledLinear {
    /// A zeroed `[n, out_features]` level for the rows of `input`.
    fn target(&self, input: &Tensor) -> Tensor {
        let n = input.shape().dims().first().copied().unwrap_or(0);
        Tensor::zeros(Shape::of(&[n, self.out_features]))
    }

    /// The one packed kernel, batched over per-request activation stacks:
    /// reads level `si` of every stack (`[n_i, in_features]`), computes
    /// `plan`'s rows — a step panel's (the neurons assigned exactly to a
    /// subnet) or a full panel's (every neuron active at it), against every
    /// input active at the subnet — for all their rows in **one** GEMM —
    /// rows are independent in every kernel — and scatters each stack's
    /// rows straight into the matching columns of its level `si + 1`
    /// (`[n_i, out_features]`: the cached full-width activation, or a
    /// zeroed [`target`](Self::target)). The stacked panels live in
    /// `scratch`; untouched columns keep their exact old values, so the
    /// result equals [`MaskedLinear::forward`](crate::MaskedLinear::forward)
    /// under `f32 ==` (see the `plan` module docs). Every stack must hold
    /// levels `si` and `si + 1`.
    fn run(
        &self,
        plan: &LinearPlan,
        stacks: &mut [&mut [Tensor]],
        si: usize,
        scratch: &mut PackScratch,
    ) -> Result<()> {
        let (i_n, o_n) = (self.in_features, self.out_features);
        if plan.out_idx.is_empty() {
            return Ok(());
        }
        let mut total = 0usize;
        for levels in stacks.iter() {
            let (input, target) = (&levels[si], &levels[si + 1]);
            if input.shape().rank() != 2 || input.shape().dims()[1] != i_n {
                return Err(SteppingError::InvalidStructure(format!(
                    "masked linear expects [n, {i_n}], got {}",
                    input.shape()
                )));
            }
            let n = input.shape().dims()[0];
            if target.shape().dims() != [n, o_n] {
                return Err(SteppingError::InvalidStructure(format!(
                    "step splice target expects [{n}, {o_n}], got {}",
                    target.shape()
                )));
            }
            total += n;
        }
        let (cols_in, cols_out) = (plan.in_idx.len(), plan.out_idx.len());
        let packed = span(&mut scratch.input, total * cols_in);
        {
            let _pack_timer = plan::pack_timer();
            let mut row = 0;
            for levels in stacks.iter() {
                let input = &levels[si];
                let n = input.shape().dims()[0];
                pack::gather_columns_slice(
                    input.data(),
                    n,
                    i_n,
                    &plan.in_idx,
                    &mut packed[row * cols_in..(row + n) * cols_in],
                );
                row += n;
            }
        }
        let out = span(&mut scratch.out, total * cols_out);
        {
            let _gemm_timer = plan::gemm_timer();
            pack::gemm_packed_nt_slice(
                packed,
                &plan.weight,
                out,
                total,
                &mut scratch.a_pack,
                Epilogue::Bias(&plan.bias),
            );
        }
        let mut row = 0;
        for levels in stacks.iter_mut() {
            let target = &mut levels[si + 1];
            let n = target.shape().dims()[0];
            pack::scatter_columns(
                &out[row * cols_out..(row + n) * cols_out],
                n,
                &plan.out_idx,
                target.data_mut(),
                o_n,
            );
            row += n;
        }
        Ok(())
    }
}

/// A masked convolution in inference form (see
/// [`MaskedConv2d`](crate::MaskedConv2d)).
#[derive(Debug)]
pub(crate) struct CompiledConv {
    pub in_channels: usize,
    pub out_channels: usize,
    pub kernel: usize,
    pub stride: usize,
    pub padding: usize,
    /// Output positions per image the layer was built for (MAC
    /// accounting only; a run takes its geometry from the input).
    pub positions: usize,
    pub panels: Panels<ConvPlan>,
}

impl CompiledConv {
    fn geometry(&self, in_h: usize, in_w: usize) -> Result<ConvGeometry> {
        Ok(ConvGeometry::new(
            self.in_channels,
            in_h,
            in_w,
            self.kernel,
            self.kernel,
            self.stride,
            self.padding,
        )?)
    }

    /// A zeroed `[n, out_channels, oh, ow]` level for the images of `input`.
    fn target(&self, input: &Tensor) -> Result<Tensor> {
        let &[n, _, h, w] = input.shape().dims() else {
            return Err(SteppingError::InvalidStructure(format!(
                "masked conv expects [n, {}, h, w], got {}",
                self.in_channels,
                input.shape()
            )));
        };
        let geom = self.geometry(h, w)?;
        Ok(Tensor::zeros(Shape::of(&[
            n,
            self.out_channels,
            geom.out_h,
            geom.out_w,
        ])))
    }

    /// The one packed kernel, over per-request activation stacks: for each
    /// stack, reads level `si` (`[n_i, in_channels, h, w]`) and writes
    /// `plan`'s filters — a step panel's (the filters assigned exactly to a
    /// subnet) or a full panel's (every filter active at it), over every
    /// input channel active at the subnet — straight into their channels of
    /// level `si + 1` (`[n_i, out_channels, oh, ow]`: the cached full-width
    /// activation, or a zeroed [`target`](Self::target)) through
    /// [`microkernel::conv_packed`], which packs its operand from the image
    /// and keeps its buffers in `scratch`. Untouched channels keep their
    /// exact old values, so the result equals
    /// [`MaskedConv2d::forward`](crate::MaskedConv2d::forward) under
    /// `f32 ==`. Every stack must hold levels `si` and `si + 1`.
    fn run(
        &self,
        plan: &ConvPlan,
        stacks: &mut [&mut [Tensor]],
        si: usize,
        scratch: &mut PackScratch,
    ) -> Result<()> {
        let (ic_n, oc_n) = (self.in_channels, self.out_channels);
        if plan.oc_idx.is_empty() {
            return Ok(());
        }
        // every stack is checked before any is written
        for levels in stacks.iter() {
            let (input, target) = (&levels[si], &levels[si + 1]);
            let (n, h, w) = match *input.shape().dims() {
                [n, c, h, w] if c == ic_n => (n, h, w),
                _ => {
                    return Err(SteppingError::InvalidStructure(format!(
                        "masked conv expects [n, {ic_n}, h, w], got {}",
                        input.shape()
                    )))
                }
            };
            let geom = self.geometry(h, w)?;
            if target.shape().dims() != [n, oc_n, geom.out_h, geom.out_w] {
                return Err(SteppingError::InvalidStructure(format!(
                    "step splice target expects [{n}, {oc_n}, {}, {}], got {}",
                    geom.out_h,
                    geom.out_w,
                    target.shape()
                )));
            }
        }
        let _gemm_timer = plan::gemm_timer();
        for levels in stacks.iter_mut() {
            let (done, rest) = levels.split_at_mut(si + 1);
            let dims = done[si].shape().dims();
            let geom = self.geometry(dims[2], dims[3])?;
            microkernel::conv_packed(&done[si], &geom, plan.filters(), &mut rest[0], scratch);
        }
        Ok(())
    }
}

/// One stage of a compiled model (a model holds a handful, so the unequal
/// variant sizes cost nothing worth a `Box`).
#[derive(Debug)]
#[allow(
    clippy::large_enum_variant,
    reason = "a model holds a handful of stages, so boxing saves nothing"
)]
pub(crate) enum CompiledStage {
    Linear(CompiledLinear),
    Conv(CompiledConv),
    /// A fixed stage, run through [`FixedStage::infer_into`] (which reads
    /// no cache), with two tables of channel runs of its input: per expand
    /// target `k` (entry `k - 1`) the runs the step to `k` changes, and per
    /// subnet `s` the runs active at `s`, which a direct pass computes —
    /// `None` before the first masked stage, where the whole level is live.
    Fixed {
        stage: FixedStage,
        step_runs: Vec<Vec<Range<usize>>>,
        direct_runs: Option<Vec<Vec<Range<usize>>>>,
    },
}

impl CompiledStage {
    /// A zeroed level for this stage to write the rows of `input` into:
    /// full-width for a masked stage (inactive neurons stay exactly zero),
    /// the stage's output shape for a fixed one (empty for an input it
    /// cannot take, whose run then reports why).
    pub(crate) fn target(&self, input: &Tensor) -> Result<Tensor> {
        match self {
            CompiledStage::Linear(l) => Ok(l.target(input)),
            CompiledStage::Conv(c) => c.target(input),
            CompiledStage::Fixed { stage, .. } => Ok(stage
                .output_shape(input.shape())
                .map_or_else(|| Tensor::zeros(Shape::of(&[0])), Tensor::zeros)),
        }
    }

    /// Runs the stage over every stack in place, reading level `si` and
    /// writing level `si + 1`: a masked stage computes the neurons assigned
    /// exactly to `subnet` when `step` (an expand over cached levels) and
    /// every neuron active at it otherwise (a direct pass into
    /// [`target`](Self::target)s); a fixed stage — a pure per-element /
    /// per-channel map in inference mode, no MACs — recomputes the channel
    /// runs the step to `subnet` changed when `step` (every other cached
    /// channel keeps its exact old value) and the runs active at `subnet`
    /// otherwise (the whole level, `0..c`, before the first masked stage).
    ///
    /// Equal to [`Stage::forward`] with `train == false` under `f32 ==` on
    /// every channel a later stage reads at `subnet`: masked stages read
    /// their active inputs, the head its active features. A channel a
    /// direct pass skips keeps its target's `0.0`, which is what every fixed
    /// stage but batch norm and sigmoid maps a zero to (those two would
    /// write `f(0)` there, which nothing reads); the expand that activates
    /// it recomputes it as a changed run. Every stack must hold levels `si`
    /// and `si + 1`.
    pub(crate) fn run_into(
        &self,
        (subnet, step): (usize, bool),
        stacks: &mut [&mut [Tensor]],
        si: usize,
        scratch: &mut PackScratch,
    ) -> Result<()> {
        match self {
            CompiledStage::Linear(l) => l.run(l.panels.get(subnet, step)?, stacks, si, scratch),
            CompiledStage::Conv(c) => c.run(c.panels.get(subnet, step)?, stacks, si, scratch),
            CompiledStage::Fixed {
                stage,
                step_runs,
                direct_runs,
            } => {
                let listed = if step {
                    Some(subnet.checked_sub(1).and_then(|i| step_runs.get(i)))
                } else {
                    direct_runs.as_ref().map(|table| table.get(subnet))
                };
                let listed = listed
                    .map(|runs| {
                        runs.ok_or(SteppingError::SubnetOutOfRange {
                            subnet,
                            count: step_runs.len() + 1,
                        })
                    })
                    .transpose()?;
                for levels in stacks.iter_mut() {
                    let (done, rest) = levels.split_at_mut(si + 1);
                    let whole = 0..done[si].shape().dims().get(1).copied().unwrap_or(0);
                    let runs = listed.map_or(std::slice::from_ref(&whole), Vec::as_slice);
                    stage.infer_into(&done[si], &mut rest[0], runs)?;
                }
                Ok(())
            }
        }
    }
}

/// The ascending indices `idx` as maximal runs of consecutive values:
/// `[1, 2, 3, 7, 9, 10]` → `[1..4, 7..8, 9..11]`.
fn index_runs(idx: &[usize]) -> Vec<Range<usize>> {
    let mut runs: Vec<Range<usize>> = Vec::new();
    for &i in idx {
        match runs.last_mut() {
            Some(run) if run.end == i => run.end += 1,
            _ => runs.push(i..i + 1),
        }
    }
    runs
}

/// [`index_runs`] of a full panel's level-major rows, sorted first.
fn sorted_runs(rows: &[usize]) -> Vec<Range<usize>> {
    let mut rows = rows.to_vec();
    rows.sort_unstable();
    index_runs(&rows)
}

/// A [`SteppingNet`] compiled for inference at one prune threshold:
/// immutable, `Send + Sync`, shared through an `Arc` by every executor
/// created from the net until the net is next mutated.
///
/// Built by [`SteppingNet::compile`]. It is a *snapshot*: an executor keeps
/// serving the weights, running statistics and assignments its model was
/// compiled from, whatever happens to the net afterwards.
#[derive(Debug)]
pub struct CompiledModel {
    pub(crate) stages: Vec<CompiledStage>,
    heads: Vec<HeadPlan>,
    costs: MacTable,
    prune_threshold: f32,
    input_shape: Shape,
    classes: usize,
    features: usize,
}

// Executors on different threads share one model through `&self`.
const _: fn() = || {
    fn shared<T: Send + Sync>() {}
    shared::<CompiledModel>();
};

impl CompiledModel {
    /// Compiles every panel of `net` and counts its MACs at
    /// `prune_threshold`.
    pub(crate) fn new(net: &SteppingNet, prune_threshold: f32) -> Self {
        let _compile_timer = plan::compile_timer();
        let subnets = net.subnet_count();
        let mut stage_step = vec![0u64; subnets];
        // the channel runs of the level the stages so far wrote: per expand
        // target those the step changed (the last masked stage's step
        // panel), per subnet those active (its full panel, sorted); both
        // mapped through the fixed stages after it (all channel-local; a
        // flatten turns channel `c` into features `c·h·w .. (c + 1)·h·w`).
        // Before the first masked stage no step changes anything and a
        // direct pass runs the whole level.
        let mut changed: Vec<Vec<Range<usize>>> = vec![Vec::new(); subnets.saturating_sub(1)];
        let mut active: Option<Vec<Vec<Range<usize>>>> = None;
        let stages = net
            .stages()
            .iter()
            .map(|stage| {
                for (total, macs) in stage_step
                    .iter_mut()
                    .zip(stage.step_macs(prune_threshold).unwrap_or_default())
                {
                    *total += macs;
                }
                match stage {
                    Stage::Linear(l) => {
                        let l = l.compile();
                        changed = l
                            .panels
                            .step
                            .iter()
                            .map(|p| index_runs(&p.out_idx))
                            .collect();
                        let full = l.panels.full.iter();
                        active = Some(full.map(|p| sorted_runs(&p.out_idx)).collect());
                        CompiledStage::Linear(l)
                    }
                    Stage::Conv(c) => {
                        let c = c.compile();
                        changed = c
                            .panels
                            .step
                            .iter()
                            .map(|p| index_runs(&p.oc_idx))
                            .collect();
                        let full = c.panels.full.iter();
                        active = Some(full.map(|p| sorted_runs(&p.oc_idx)).collect());
                        CompiledStage::Conv(c)
                    }
                    Stage::Fixed(f) => {
                        let (step_runs, direct_runs) = (changed.clone(), active.clone());
                        if let FixedStage::Flatten { factor, .. } = f {
                            let widened = changed.iter_mut().chain(active.iter_mut().flatten());
                            for run in widened.flatten() {
                                *run = run.start * factor..run.end * factor;
                            }
                        }
                        CompiledStage::Fixed {
                            stage: f.clone(),
                            step_runs,
                            direct_runs,
                        }
                    }
                }
            })
            .collect();
        let head_macs = (0..subnets).map(|k| net.head_macs(k)).collect();
        CompiledModel {
            stages,
            heads: (0..subnets).map(|k| compile_head(net, k)).collect(),
            costs: MacTable::new(&stage_step, head_macs),
            prune_threshold,
            input_shape: net.input_shape().clone(),
            classes: net.classes(),
            features: net.feature_assign().len(),
        }
    }

    /// Number of subnets.
    pub fn subnet_count(&self) -> usize {
        self.heads.len()
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Shape of one input sample (no batch dimension).
    pub fn input_shape(&self) -> &Shape {
        &self.input_shape
    }

    /// The magnitude threshold the [`MacTable`] was counted at.
    pub fn prune_threshold(&self) -> f32 {
        self.prune_threshold
    }

    /// The MAC accounting of every subnet and step — the one table the
    /// executors, the runtime's cost vectors and the server's cost tables
    /// read. Its entries equal [`SteppingNet::macs`] and the per-step sums
    /// of `neuron_macs` at [`prune_threshold`](Self::prune_threshold)
    /// exactly.
    pub fn mac_table(&self) -> &MacTable {
        &self.costs
    }

    /// What a direct pass at `subnet` multiplies per sample: every full
    /// panel's [`PackedB::macs`] (times the output positions for a
    /// convolution) plus the head panel's (see
    /// [`SteppingNet::packed_macs`]).
    pub(crate) fn packed_macs(&self, subnet: usize) -> u64 {
        let stages: u64 = self
            .stages
            .iter()
            .map(|stage| match stage {
                CompiledStage::Linear(l) => l.panels.full[subnet].weight.macs(),
                CompiledStage::Conv(c) => c.panels.full[subnet].weight.macs() * c.positions as u64,
                CompiledStage::Fixed { .. } => 0,
            })
            .sum();
        stages + self.heads[subnet].weight.macs()
    }

    /// Full packed inference pass: every stage and the head run their
    /// panels — the per-stage kernels
    /// [`BatchExecutor::begin`](crate::BatchExecutor::begin) runs, over a
    /// two-level stack that keeps no intermediate level.
    pub(crate) fn forward(
        &self,
        input: &Tensor,
        subnet: usize,
        scratch: &mut PackScratch,
    ) -> Result<Tensor> {
        let mut levels = [input.clone(), Tensor::zeros(Shape::of(&[0]))];
        for stage in &self.stages {
            levels[1] = stage.target(&levels[0])?;
            stage.run_into((subnet, false), &mut [&mut levels[..]], 0, scratch)?;
            levels.swap(0, 1);
        }
        self.head_rows(std::iter::once(&levels[0]), subnet, scratch)
    }

    /// The packed head of `subnet` over the feature tensors of several
    /// requests at once: their active columns are gathered into one stacked
    /// panel and multiplied against the compiled `[classes, active]` head
    /// panel in a single GEMM, bias fused into the epilogue — equal to the
    /// masked [`SteppingNet::head_forward`] under `f32 ==`. Returns the
    /// logits of all rows, `[Σ n_i, classes]`, in `features` order.
    pub(crate) fn head_rows<'t>(
        &self,
        features: impl Iterator<Item = &'t Tensor> + Clone,
        subnet: usize,
        scratch: &mut PackScratch,
    ) -> Result<Tensor> {
        let plan = self
            .heads
            .get(subnet)
            .ok_or(SteppingError::SubnetOutOfRange {
                subnet,
                count: self.heads.len(),
            })?;
        let f = self.features;
        let mut total = 0usize;
        for t in features.clone() {
            if t.shape().rank() != 2 || t.shape().dims()[1] != f {
                return Err(SteppingError::InvalidStructure(format!(
                    "head expects [n, {f}], got {}",
                    t.shape()
                )));
            }
            total += t.shape().dims()[0];
        }
        let cols = plan.feat_idx.len();
        let packed = span(&mut scratch.input, total * cols);
        {
            let _pack_timer = plan::pack_timer();
            let mut row = 0;
            for t in features {
                let n = t.shape().dims()[0];
                pack::gather_columns_slice(
                    t.data(),
                    n,
                    f,
                    &plan.feat_idx,
                    &mut packed[row * cols..(row + n) * cols],
                );
                row += n;
            }
        }
        let mut out = Tensor::zeros(Shape::of(&[total, self.classes]));
        let _gemm_timer = plan::gemm_timer();
        pack::gemm_packed_nt_slice(
            packed,
            &plan.weight,
            out.data_mut(),
            total,
            &mut scratch.a_pack,
            Epilogue::Bias(&plan.bias),
        );
        Ok(out)
    }
}

/// Compiles the packed head panel of `subnet`: the head's weight restricted
/// to the features active there.
fn compile_head(net: &SteppingNet, subnet: usize) -> HeadPlan {
    let head = &net.heads()[subnet];
    let (f, classes) = (net.feature_assign().len(), net.classes());
    let feat_idx = net.feature_assign().active_members(subnet);
    let wd = head.weight().value.data();
    let cols = feat_idx.len();
    let mut weight = vec![0.0f32; classes * cols];
    for r in 0..classes {
        let dst = &mut weight[r * cols..(r + 1) * cols];
        for (d, &i) in dst.iter_mut().zip(feat_idx.iter()) {
            *d = wd[r * f + i];
        }
    }
    plan::note_compile("head", subnet, classes, cols);
    HeadPlan {
        feat_idx,
        weight: PackedB::pack_nt(&weight, classes, cols),
        bias: head.bias().value.data().to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SteppingNetBuilder;

    #[test]
    fn index_runs_merge_consecutive_indices() {
        assert_eq!(index_runs(&[1, 2, 3, 7, 9, 10]), [1..4, 7..8, 9..11]);
        assert_eq!(index_runs(&[4]), std::slice::from_ref(&(4..5)));
        assert!(index_runs(&[]).is_empty());
    }

    /// Each fixed stage records, per step, the runs of the last masked
    /// stage's step panel — one contiguous span per run, none before the
    /// first masked stage — and a flatten widens each channel run to its
    /// features.
    #[test]
    fn fixed_stages_record_the_runs_each_step_changes() {
        let mut net = SteppingNetBuilder::new(Shape::of(&[2, 4, 4]), 3, 1)
            .relu()
            .conv(4, 3, 1, 1)
            .max_pool(2, 2)
            .flatten()
            .linear(5)
            .tanh()
            .build(2)
            .unwrap();
        // conv filters 1 and 3 to subnet 1, filter 2 to 2; linear 0..2 to 2
        net.move_neurons(&[(1, 1, 1), (1, 3, 1), (1, 2, 2), (4, 0, 2), (4, 1, 2)])
            .unwrap();
        let model = net.compile(0.0);
        let runs: Vec<&Vec<Vec<Range<usize>>>> = model
            .stages
            .iter()
            .filter_map(|s| match s {
                CompiledStage::Fixed { step_runs, .. } => Some(step_runs),
                _ => None,
            })
            .collect();
        let none: Vec<Vec<Range<usize>>> = vec![vec![], vec![]];
        assert_eq!(runs[0], &none, "before any masked stage");
        assert_eq!(runs[1], &vec![vec![1..2, 3..4], vec![2..3]], "max-pool");
        assert_eq!(runs[2], &vec![vec![1..2, 3..4], vec![2..3]], "flatten");
        assert_eq!(runs[3], &vec![vec![], vec![0..2]], "tanh after linear");
    }

    /// Each fixed stage records, per subnet, the runs a direct pass
    /// computes: the last masked stage's full-panel rows, sorted out of
    /// their level-major order and merged, widened to features by a
    /// flatten; none before the first masked stage, whose level runs whole.
    #[test]
    fn fixed_stages_record_the_runs_each_subnet_uses() {
        let mut net = SteppingNetBuilder::new(Shape::of(&[2, 4, 4]), 3, 1)
            .relu()
            .conv(4, 3, 1, 1)
            .max_pool(2, 2)
            .flatten()
            .sigmoid()
            .linear(5)
            .tanh()
            .build(2)
            .unwrap();
        // conv levels [2, 0, 1, 0] (the full panel at 1 lists 1, 3, 2);
        // linear levels [2, 0, 0, 0, 1]
        net.move_neurons(&[(1, 0, 2), (1, 2, 1), (5, 0, 2), (5, 4, 1)])
            .unwrap();
        let model = net.compile(0.0);
        let runs: Vec<&Option<Vec<Vec<Range<usize>>>>> = model
            .stages
            .iter()
            .filter_map(|s| match s {
                CompiledStage::Fixed { direct_runs, .. } => Some(direct_runs),
                _ => None,
            })
            .collect();
        let conv = Some(vec![vec![1..2, 3..4], vec![1..4], vec![0..4]]);
        assert_eq!(runs[0], &None, "before any masked stage");
        assert_eq!(runs[1], &conv, "max-pool");
        assert_eq!(runs[2], &conv, "flatten");
        let features = Some(vec![vec![4..8, 12..16], vec![4..16], vec![0..16]]);
        assert_eq!(runs[3], &features, "sigmoid after flatten");
        let linear = Some(vec![vec![1..4], vec![1..5], vec![0..5]]);
        assert_eq!(runs[4], &linear, "tanh after linear");
    }

    /// Full panels list their rows level-major, ascending within a level,
    /// and cut each `NR`-row tile after the last legal input of its rows;
    /// `packed_macs` sums those tiles.
    #[test]
    fn full_panels_are_level_major_and_cut_after_the_last_legal_input() {
        let mut net = SteppingNetBuilder::new(Shape::of(&[1, 4, 4]), 3, 1)
            .conv(4, 3, 1, 1)
            .relu()
            .conv(10, 3, 1, 1)
            .flatten()
            .linear(9)
            .build(2)
            .unwrap();
        // conv1 levels [0, 1, 0, 2]; conv2 levels [2, 0, 0, 1, 0, 0, 0, 1, 0, 2];
        // linear neuron 0 to subnet 1, neuron 5 to 2
        net.move_neurons(&[
            (0, 1, 1),
            (0, 3, 2),
            (2, 0, 2),
            (2, 3, 1),
            (2, 7, 1),
            (2, 9, 2),
            (4, 0, 1),
            (4, 5, 2),
        ])
        .unwrap();
        let model = net.compile(0.0);
        let conv2 = match &model.stages[2] {
            CompiledStage::Conv(c) => &c.panels.full,
            _ => unreachable!("stage 2 is a conv"),
        };
        let linear = match &model.stages[4] {
            CompiledStage::Linear(l) => &l.panels.full,
            _ => unreachable!("stage 4 is a linear"),
        };
        let conv2_rows = [1, 2, 4, 5, 6, 8, 3, 7, 0, 9];
        let linear_rows = [1, 2, 3, 4, 6, 7, 8, 0, 5];
        // (subnet, rows, tile extents): conv2 reads channels [0, 2] at
        // subnet 0 and [0, 1, 2] at 1, where every filter's last legal
        // channel is 2 (9 taps each); at 2 the level-2 filters read channel
        // 3 too. The linear's level-0 and level-1 rows stop after conv2's
        // channel 8 (16 features each); only neuron 5 reads channel 9.
        let conv2_want = [(6, vec![18]), (8, vec![27]), (10, vec![27, 36])];
        let linear_want = [(7, vec![96]), (8, vec![128]), (9, vec![144, 160])];
        for s in 0..3 {
            let (rows, extents) = &conv2_want[s];
            assert_eq!(conv2[s].oc_idx, conv2_rows[..*rows], "conv2 subnet {s}");
            assert_eq!(conv2[s].weight.extents(), extents, "conv2 subnet {s}");
            let (rows, extents) = &linear_want[s];
            assert_eq!(linear[s].out_idx, linear_rows[..*rows], "linear subnet {s}");
            assert_eq!(linear[s].weight.extents(), extents, "linear subnet {s}");
        }
        // conv1 4 rows × 9 taps, conv2 (8 × 27 + 2 × 36), both × 16
        // positions; the linear 8 × 144 + 160; the head 2 classes × 9
        assert_eq!(
            net.packed_macs(2),
            (4 * 9 + 8 * 27 + 2 * 36) * 16 + 8 * 144 + 160 + 2 * 9
        );
    }
}

//! The immutable compiled form of a [`SteppingNet`]: what packed inference
//! reads, and nothing training writes.
//!
//! [`SteppingNet::compile`] builds one [`CompiledModel`] eagerly — per
//! masked stage the full and step panels of every subnet, every head panel
//! with its bias, the fixed stages with the level ends of their input, the
//! [`MacTable`] — and hands it out in an `Arc`. Every masked layer stores
//! its neurons level-major (see the `plan` module docs), so each subnet is
//! a channel prefix of every level and each step a channel range: a masked
//! stage copies a row prefix of its input and writes its output at an
//! offset, and a fixed stage recomputes `end(k − 1)..end(k)` on a step to
//! `k` and `0..end(s)` on a direct pass at `s`. A ReLU or tanh that directly
//! follows a masked stage is folded into that stage's store (an
//! [`Activation`]), so the compiled model has one stage, and an executor's
//! cache one level, fewer per folded activation.
//! Nothing in the model changes afterwards: there is no epoch, no lock and
//! no scratch inside, so any number of executors on any number of threads
//! run it through `&self`, each with its own [`PackScratch`]. See the
//! `plan` module docs for bit-identity and `crate::parts` for how the net
//! forgets a model when it is mutated.

use stepping_tensor::conv::ConvGeometry;
use stepping_tensor::microkernel::{self, ConvFilters, Epilogue};
use stepping_tensor::pack::{self, span, PackScratch};
use stepping_tensor::{Shape, Tensor};

use crate::plan::{self, MacTable, Plan};
use crate::{FixedStage, Result, Stage, SteppingError, SteppingNet};

/// The activation a masked stage applies as it stores its outputs: the
/// `Relu` or `Tanh` stage that directly followed it in the net, folded in
/// by [`CompiledModel::new`]. Its epilogue computes `(acc + bias).max(0.0)`
/// or `(acc + bias).tanh()`, the standalone layer's arithmetic on the
/// value the masked stage would have stored, so folding changes no bit
/// (an inactive neuron stays `0.0`, which both map to `0.0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum Activation {
    /// Bias only: no activation follows the stage directly.
    #[default]
    Identity,
    Relu,
    Tanh,
}

impl Activation {
    /// The store epilogue over `bias`.
    pub fn epilogue(self, bias: &[f32]) -> Epilogue<'_> {
        match self {
            Activation::Identity => Epilogue::Bias(bias),
            Activation::Relu => Epilogue::BiasRelu(bias),
            Activation::Tanh => Epilogue::BiasTanh(bias),
        }
    }
}

/// The full and step panels of one masked stage.
#[derive(Debug)]
pub(crate) struct Panels {
    /// `full[s]` covers every neuron active at subnet `s` (a direct pass),
    /// rows `0..end(s)`.
    full: Vec<Plan>,
    /// `step[k - 1]` covers the neurons assigned exactly to subnet `k`
    /// (an expand), rows `end(k − 1)..end(k)`; no expand targets subnet 0,
    /// so it has no step panel.
    step: Vec<Plan>,
}

impl Panels {
    /// Compiles both families: `panel(subnet, step)` builds one panel.
    pub fn compile(subnets: usize, panel: impl Fn(usize, bool) -> Plan) -> Self {
        Panels {
            full: (0..subnets).map(|s| panel(s, false)).collect(),
            step: (1..subnets).map(|k| panel(k, true)).collect(),
        }
    }

    /// The step panel of `subnet` or its full panel.
    fn get(&self, subnet: usize, step: bool) -> Result<&Plan> {
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
    pub panels: Panels,
    /// Applied in the GEMM's epilogue.
    pub activation: Activation,
}

impl CompiledLinear {
    /// The one packed kernel, batched over per-request activation stacks:
    /// reads level `si` of every stack (`[n_i, in_features]`), computes
    /// `plan`'s rows — a step panel's (the neurons assigned exactly to a
    /// subnet) or a full panel's (every neuron active at it), against every
    /// input active at the subnet, a prefix of each row — for all their rows
    /// in **one** GEMM — rows are independent in every kernel — and writes
    /// each stack's rows straight into columns `plan.rows` of its level
    /// `si + 1` (`[n_i, out_features]`: the cached full-width activation, or
    /// a [`CompiledStage::target`]), through the stage's [`Activation`]. The
    /// stacked input panel and the output live in `scratch`; untouched
    /// columns keep their exact old values, so the result equals
    /// [`MaskedLinear::forward`](crate::MaskedLinear::forward), then the
    /// folded activation, under `f32 ==` (see the `plan` module docs).
    /// Every stack must hold levels `si` and `si + 1`.
    fn run(
        &self,
        plan: &Plan,
        stacks: &mut [&mut [Tensor]],
        si: usize,
        scratch: &mut PackScratch,
    ) -> Result<()> {
        let (i_n, o_n) = (self.in_features, self.out_features);
        if plan.rows.is_empty() {
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
        let (cols_in, cols_out) = (plan.inputs, plan.rows.len());
        let packed = span(&mut scratch.input, total * cols_in);
        {
            let _pack_timer = plan::pack_timer();
            let mut row = 0;
            for levels in stacks.iter() {
                let input = &levels[si];
                let n = input.shape().dims()[0];
                let dst = &mut packed[row * cols_in..(row + n) * cols_in];
                copy_prefixes(input.data(), i_n, cols_in, dst);
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
                self.activation.epilogue(&plan.bias),
            );
        }
        let mut rows = out.chunks_exact(cols_out);
        for levels in stacks.iter_mut() {
            for (dst, src) in levels[si + 1]
                .data_mut()
                .chunks_exact_mut(o_n)
                .zip(&mut rows)
            {
                dst[plan.rows.clone()].copy_from_slice(src);
            }
        }
        Ok(())
    }
}

/// Copies the first `cols` columns of each `width`-wide row of the
/// row-major `src` into `dst`, back to back.
fn copy_prefixes(src: &[f32], width: usize, cols: usize, dst: &mut [f32]) {
    if cols == 0 {
        return;
    }
    for (d, s) in dst.chunks_exact_mut(cols).zip(src.chunks_exact(width)) {
        d.copy_from_slice(&s[..cols]);
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
    pub panels: Panels,
    /// Applied in the conv driver's store.
    pub activation: Activation,
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

    /// The one packed kernel, over per-request activation stacks: for each
    /// stack, reads level `si` (`[n_i, in_channels, h, w]`) and writes
    /// `plan`'s filters — a step panel's (the filters assigned exactly to a
    /// subnet) or a full panel's (every filter active at it), over every
    /// input channel active at the subnet, a channel prefix — straight into
    /// their channel range of level `si + 1` (`[n_i, out_channels, oh,
    /// ow]`: the cached full-width activation, or a
    /// [`CompiledStage::target`]) through [`microkernel::conv_packed`],
    /// which packs its operand from the image, keeps its buffers in
    /// `scratch` and stores through the stage's [`Activation`]. Untouched
    /// channels keep their exact old values, so the result equals
    /// [`MaskedConv2d::forward`](crate::MaskedConv2d::forward), then the
    /// folded activation, under `f32 ==`. Every stack must hold levels `si`
    /// and `si + 1`.
    fn run(
        &self,
        plan: &Plan,
        stacks: &mut [&mut [Tensor]],
        si: usize,
        scratch: &mut PackScratch,
    ) -> Result<()> {
        let (ic_n, oc_n) = (self.in_channels, self.out_channels);
        if plan.rows.is_empty() {
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
        let filters = ConvFilters {
            weight: &plan.weight,
            epilogue: self.activation.epilogue(&plan.bias),
            in_channels: plan.inputs,
            out_offset: plan.rows.start,
        };
        let _gemm_timer = plan::gemm_timer();
        for levels in stacks.iter_mut() {
            let (done, rest) = levels.split_at_mut(si + 1);
            let dims = done[si].shape().dims();
            let geom = self.geometry(dims[2], dims[3])?;
            microkernel::conv_packed(&done[si], &geom, filters, &mut rest[0], scratch);
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
    /// no cache), with the level ends of its input: `ends[s]` channels are
    /// active at subnet `s`, those of the last masked stage before it
    /// (widened by a flatten between), or the whole level before the
    /// first masked stage.
    Fixed {
        stage: FixedStage,
        ends: Vec<usize>,
    },
}

impl CompiledStage {
    /// The shape this stage writes for an input of shape `input`, batch
    /// dimension first: full-width for a masked stage, the layer's output
    /// shape for a fixed one; `None` for an input it cannot take.
    fn output_dims(&self, input: &[usize]) -> Option<Vec<usize>> {
        match self {
            CompiledStage::Linear(l) => Some(vec![*input.first()?, l.out_features]),
            CompiledStage::Conv(c) => {
                let &[n, _, h, w] = input else {
                    return None;
                };
                let geom = c.geometry(h, w).ok()?;
                Some(vec![n, c.out_channels, geom.out_h, geom.out_w])
            }
            CompiledStage::Fixed { stage, .. } => stage
                .output_shape(&Shape::of(input))
                .map(|shape| shape.dims().to_vec()),
        }
    }

    /// A zeroed level for this stage to write the rows of `input` into
    /// ([`output_dims`](Self::output_dims); inactive neurons stay exactly
    /// zero), empty for an input it cannot take, whose run then reports
    /// why.
    pub(crate) fn target(&self, input: &Tensor) -> Tensor {
        let shape = match self {
            CompiledStage::Fixed { stage, .. } => stage.output_shape(input.shape()),
            masked => masked.output_dims(input.shape().dims()).map(Shape::from),
        };
        shape.map_or_else(|| Tensor::zeros(Shape::of(&[0])), Tensor::zeros)
    }

    /// The channels (or features) of its input a direct pass at `subnet`
    /// reads, a prefix of each row: a masked stage's full panel inputs, a
    /// fixed stage's `ends[subnet]`. `None` for a subnet out of range.
    fn reads(&self, subnet: usize) -> Option<usize> {
        match self {
            CompiledStage::Linear(l) => l.panels.full.get(subnet).map(|p| p.inputs),
            CompiledStage::Conv(c) => c.panels.full.get(subnet).map(|p| p.inputs),
            CompiledStage::Fixed { ends, .. } => ends.get(subnet).copied(),
        }
    }

    /// The channels (or features) of its output a direct pass at `subnet`
    /// writes, a prefix of each row: a masked stage's full panel rows, a
    /// fixed stage's `ends[subnet]` (times `h·w` through a flatten).
    fn writes(&self, subnet: usize) -> Option<usize> {
        match self {
            CompiledStage::Linear(l) => l.panels.full.get(subnet).map(|p| p.rows.end),
            CompiledStage::Conv(c) => c.panels.full.get(subnet).map(|p| p.rows.end),
            CompiledStage::Fixed { stage, ends } => {
                let factor = match stage {
                    FixedStage::Flatten { factor, .. } => *factor,
                    _ => 1,
                };
                ends.get(subnet).map(|e| e * factor)
            }
        }
    }

    /// Folds `next`, the net stage directly after this one, into this
    /// stage's store when this is a masked stage that stores no activation
    /// yet and `next` a ReLU or tanh. Returns whether it did.
    fn fold(&mut self, next: &FixedStage) -> bool {
        let activation = match next {
            FixedStage::Relu(_) => Activation::Relu,
            FixedStage::Tanh(_) => Activation::Tanh,
            _ => return false,
        };
        let slot = match self {
            CompiledStage::Linear(l) => &mut l.activation,
            CompiledStage::Conv(c) => &mut c.activation,
            CompiledStage::Fixed { .. } => return false,
        };
        if *slot != Activation::Identity {
            return false;
        }
        *slot = activation;
        true
    }

    /// Runs the stage over every stack in place, reading level `si` and
    /// writing level `si + 1`: a masked stage computes the neurons assigned
    /// exactly to `subnet` when `step` (an expand over cached levels) and
    /// every neuron active at it otherwise (a direct pass into
    /// [`target`](Self::target)s); a fixed stage — a pure per-element /
    /// per-channel map in inference mode, no MACs — recomputes the channels
    /// `ends[subnet − 1]..ends[subnet]` the step to `subnet` changed when
    /// `step` (every other cached channel keeps its exact old value) and
    /// the channels `0..ends[subnet]` active at `subnet` otherwise.
    ///
    /// Equal to [`Stage::forward`] with `train == false` (a masked stage
    /// followed by its folded activation) under `f32 ==` on every channel a
    /// later stage reads at `subnet`: masked stages read their active
    /// inputs, fixed stages their active channels, the head its active
    /// features — a prefix of each row every time. A channel a direct pass
    /// skips keeps what its target held (a [`target`](Self::target)'s
    /// `0.0`, stale values in a reused scratch level), which nothing reads
    /// at `subnet`; the expand that activates it recomputes it as a changed
    /// channel. Every stack must hold levels `si` and `si + 1`.
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
            CompiledStage::Fixed { stage, ends } => {
                let end = |s: usize| {
                    ends.get(s).copied().ok_or(SteppingError::SubnetOutOfRange {
                        subnet,
                        count: ends.len(),
                    })
                };
                // a step to subnet 0 asks for `ends[usize::MAX]`: an error
                let start = if step {
                    end(subnet.wrapping_sub(1))?
                } else {
                    0
                };
                let channels = start..end(subnet)?;
                for levels in stacks.iter_mut() {
                    let (done, rest) = levels.split_at_mut(si + 1);
                    stage.infer_into(&done[si], &mut rest[0], channels.clone())?;
                }
                Ok(())
            }
        }
    }
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
    /// What `stages[i]` writes per sample (its output shape without the
    /// batch dimension) for inputs of `input_shape`; `None` where a stage
    /// cannot take what the stage before it writes.
    samples: Vec<Option<Vec<usize>>>,
    heads: Vec<Plan>,
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
    /// Compiles every panel of `net`, folds each ReLU or tanh that
    /// directly follows a masked stage into it, and counts the MACs at
    /// `prune_threshold`.
    ///
    /// # Panics
    ///
    /// Panics if a masked stage is not level-major (a move without
    /// [`SteppingNet::sync_assignments`]): its panels would cover the wrong
    /// rows.
    pub(crate) fn new(net: &SteppingNet, prune_threshold: f32) -> Self {
        let _compile_timer = plan::compile_timer();
        assert!(
            net.is_level_major(),
            "a masked stage is not level-major: call sync_assignments()"
        );
        let subnets = net.subnet_count();
        let mut stage_step = vec![0u64; subnets];
        // the level ends of the level the stages so far wrote: the last
        // masked stage's, widened by every flatten after it (a flatten
        // turns channel `c` into features `c·h·w .. (c + 1)·h·w`); before
        // the first masked stage every subnet runs the whole level
        let mut ends = vec![net.input_shape().dims()[0]; subnets];
        let mut stages: Vec<CompiledStage> = Vec::with_capacity(net.stages().len());
        for stage in net.stages() {
            for (total, macs) in stage_step
                .iter_mut()
                .zip(stage.step_macs(prune_threshold).unwrap_or_default())
            {
                *total += macs;
            }
            if let Some(assign) = stage.out_assign() {
                ends = (0..subnets).map(|s| assign.active_count(s)).collect();
            }
            match stage {
                Stage::Linear(l) => stages.push(CompiledStage::Linear(l.compile())),
                Stage::Conv(c) => stages.push(CompiledStage::Conv(c.compile())),
                Stage::Fixed(f) => {
                    if stages.last_mut().is_some_and(|last| last.fold(f)) {
                        continue;
                    }
                    stages.push(CompiledStage::Fixed {
                        stage: f.clone(),
                        ends: ends.clone(),
                    });
                    if let FixedStage::Flatten { factor, .. } = f {
                        ends.iter_mut().for_each(|e| *e *= factor);
                    }
                }
            }
        }
        let mut dims = Some([&[1], net.input_shape().dims()].concat());
        let samples = stages
            .iter()
            .map(|stage| {
                dims = dims.as_deref().and_then(|d| stage.output_dims(d));
                dims.as_ref().map(|d| d[1..].to_vec())
            })
            .collect();
        let head_macs = (0..subnets).map(|k| net.head_macs(k)).collect();
        CompiledModel {
            stages,
            samples,
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

    /// Number of levels an activation cache of this model holds: the
    /// input of every compiled stage and the features.
    pub fn cache_levels(&self) -> usize {
        self.stages.len() + 1
    }

    /// Full packed inference pass over the rows of `inputs`, stacked in
    /// order: every stage and the head run their full panels — the
    /// per-stage kernels [`BatchExecutor::begin`](crate::BatchExecutor::begin)
    /// runs — but no level is kept. The stages alternate between the two
    /// levels in `scratch.levels`, each reshaped in place, so a warmed pass
    /// allocates only the logits it returns (`[Σ n_i, classes]`). Nothing
    /// is zeroed but what a level grows by: every stage writes the prefix
    /// of each row that the next one reads at `subnet` (see
    /// [`CompiledStage::run_into`]).
    pub(crate) fn forward<'t>(
        &self,
        inputs: impl Iterator<Item = &'t Tensor> + Clone,
        subnet: usize,
        scratch: &mut PackScratch,
    ) -> Result<Tensor> {
        let sample = self.input_shape.dims();
        let mut rows = 0usize;
        for input in inputs.clone() {
            match input.shape().dims().split_first() {
                Some((&n, dims)) if dims == sample => rows += n,
                _ => {
                    return Err(SteppingError::InvalidStructure(format!(
                        "input {} does not hold samples of shape {}",
                        input.shape(),
                        self.input_shape
                    )))
                }
            }
        }
        let mut levels = std::mem::take(&mut scratch.levels);
        levels.resize_with(2, || Tensor::zeros(Shape::scalar()));
        levels[0].reshape_rows(rows, sample);
        let mut at = 0;
        for input in inputs {
            levels[0].data_mut()[at..at + input.len()].copy_from_slice(input.data());
            at += input.len();
        }
        let logits = self.direct_pass(&mut levels, subnet, scratch);
        // each buffer keeps its role — the input and every even level, or
        // every odd one — so each grows to its largest level once
        if self.stages.len() % 2 == 1 {
            levels.swap(0, 1);
        }
        scratch.levels = levels;
        logits
    }

    /// The stages and the head of [`forward`](Self::forward) over the
    /// stacked input in `levels[0]`.
    fn direct_pass(
        &self,
        levels: &mut [Tensor],
        subnet: usize,
        scratch: &mut PackScratch,
    ) -> Result<Tensor> {
        let rows = levels[0].shape().dims()[0];
        for (si, (stage, sample)) in self.stages.iter().zip(&self.samples).enumerate() {
            let sample = sample.as_deref().ok_or_else(|| {
                SteppingError::InvalidStructure(format!(
                    "stage {si} cannot take the output of the stage before it"
                ))
            })?;
            levels[1].reshape_rows(rows, sample);
            stage.run_into((subnet, false), &mut [&mut *levels], 0, scratch)?;
            // the next reader reads past what this stage wrote only when
            // its input assignment was set apart from the chain; those
            // channels are inactive, zero in a masked level
            let read = match self.stages.get(si + 1) {
                Some(next) => next.reads(subnet),
                None => self.heads.get(subnet).map(|head| head.inputs),
            };
            if let (Some(written), Some(read)) = (stage.writes(subnet), read) {
                zero_channels(&mut levels[1], written..read);
            }
            levels.swap(0, 1);
        }
        self.head_rows(std::iter::once(&levels[0]), subnet, scratch)
    }

    /// The packed head of `subnet` over the feature tensors of several
    /// requests at once: the prefix of their rows active at `subnet` is
    /// stacked into one panel and multiplied against the compiled
    /// `[classes, active]` head panel in a single GEMM, bias fused into the
    /// epilogue — equal to the masked [`SteppingNet::head_forward`] under
    /// `f32 ==`. Returns the logits of all rows, `[Σ n_i, classes]`, in
    /// `features` order.
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
        let cols = plan.inputs;
        let packed = span(&mut scratch.input, total * cols);
        {
            let _pack_timer = plan::pack_timer();
            let mut row = 0;
            for t in features {
                let n = t.shape().dims()[0];
                copy_prefixes(t.data(), f, cols, &mut packed[row * cols..(row + n) * cols]);
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

/// Zeroes channels `channels` (clipped to the level's channels) of every
/// row of `level` (`[n, c, inner…]`); nothing for an empty range.
fn zero_channels(level: &mut Tensor, channels: std::ops::Range<usize>) {
    let dims = level.shape().dims();
    let (Some(&c), false) = (dims.get(1), channels.is_empty()) else {
        return;
    };
    let inner: usize = dims[2..].iter().product();
    if c * inner == 0 {
        return;
    }
    let span = channels.start.min(c) * inner..channels.end.min(c) * inner;
    for row in level.data_mut().chunks_exact_mut(c * inner) {
        row[span.clone()].fill(0.0);
    }
}

/// Compiles the packed head panel of `subnet`: the head's weight restricted
/// to the features active there, a prefix of each row.
fn compile_head(net: &SteppingNet, subnet: usize) -> Plan {
    let head = &net.heads()[subnet];
    let (f, classes) = (net.feature_assign().len(), net.classes());
    let active = net.feature_assign().active_count(subnet);
    plan::note_compile("head", subnet, classes, active);
    Plan::pack(
        (head.weight().value.data(), head.bias().value.data()),
        (f, 1),
        0..classes,
        active,
        |_| active,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SteppingNetBuilder;

    /// Each fixed stage records the level ends of its input: the input
    /// width before the first masked stage, else the last masked stage's
    /// ends after the move sorted it level-major, widened to features by a
    /// flatten. A ReLU before any masked stage stays a fixed stage; the
    /// tanh right after the linear is folded into it, and the sigmoid after
    /// that reads the linear's level.
    #[test]
    fn fixed_stages_record_the_level_ends_of_their_input() {
        let mut net = SteppingNetBuilder::new(Shape::of(&[2, 4, 4]), 3, 1)
            .relu()
            .conv(4, 3, 1, 1)
            .max_pool(2, 2)
            .flatten()
            .sigmoid()
            .linear(5)
            .tanh()
            .sigmoid()
            .build(2)
            .unwrap();
        // conv levels [2, 0, 1, 0] are stored [0, 0, 1, 2]; linear levels
        // [2, 0, 0, 0, 1] are stored [0, 0, 0, 1, 2]
        net.move_neurons(&[(1, 0, 2), (1, 2, 1), (5, 0, 2), (5, 4, 1)])
            .unwrap();
        let model = net.compile(0.0);
        let ends: Vec<&Vec<usize>> = model
            .stages
            .iter()
            .filter_map(|s| match s {
                CompiledStage::Fixed { ends, .. } => Some(ends),
                _ => None,
            })
            .collect();
        assert_eq!(ends[0], &[2, 2, 2], "before any masked stage");
        assert_eq!(ends[1], &[2, 3, 4], "max-pool");
        assert_eq!(ends[2], &[2, 3, 4], "flatten");
        assert_eq!(ends[3], &[8, 12, 16], "sigmoid after flatten");
        assert_eq!(ends[4], &[3, 4, 5], "sigmoid after linear and tanh");
        assert_eq!(ends.len(), 5, "the tanh has no stage of its own");
        let CompiledStage::Linear(linear) = &model.stages[5] else {
            unreachable!("relu, conv, pool, flatten, sigmoid, linear")
        };
        assert_eq!(linear.activation, Activation::Tanh);
    }

    /// Full panels cover the row prefix of their subnet and cut each
    /// `NR`-row tile after the last legal input of its rows; `packed_macs`
    /// sums those tiles.
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
        // linear neuron 0 to subnet 1, neuron 5 to 2 — stored level-major:
        // conv1 [0, 0, 1, 2], conv2 six 0s, two 1s, two 2s, linear seven 0s
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
        // the relu is folded into conv1: conv2 is compiled stage 1
        let conv2 = match &model.stages[1] {
            CompiledStage::Conv(c) => &c.panels.full,
            _ => unreachable!("compiled stage 1 is a conv"),
        };
        let linear = match &model.stages[3] {
            CompiledStage::Linear(l) => &l.panels.full,
            _ => unreachable!("compiled stage 3 is a linear"),
        };
        // (subnet, rows, channels read, tile extents): conv2 reads channels
        // 0..2 at subnet 0, 0..3 at 1 and 0..4 at 2 (9 taps each), each
        // level-0 filter only 0..2; the linear reads conv2's level-0 and
        // level-1 channels (16 features each), only its last row all 160
        let conv2_want = [(6, 2, vec![18]), (8, 3, vec![27]), (10, 4, vec![27, 36])];
        let linear_want = [
            (7, 96, vec![96]),
            (8, 128, vec![128]),
            (9, 160, vec![128, 160]),
        ];
        for s in 0..3 {
            let (rows, inputs, extents) = &conv2_want[s];
            assert_eq!(conv2[s].rows, 0..*rows, "conv2 subnet {s}");
            assert_eq!(conv2[s].inputs, *inputs, "conv2 subnet {s}");
            assert_eq!(conv2[s].weight.extents(), extents, "conv2 subnet {s}");
            let (rows, inputs, extents) = &linear_want[s];
            assert_eq!(linear[s].rows, 0..*rows, "linear subnet {s}");
            assert_eq!(linear[s].inputs, *inputs, "linear subnet {s}");
            assert_eq!(linear[s].weight.extents(), extents, "linear subnet {s}");
        }
        // conv1 4 rows × 9 taps, conv2 (8 × 27 + 2 × 36), both × 16
        // positions; the linear 8 × 128 + 160; the head 2 classes × 9
        assert_eq!(
            net.packed_macs(2),
            (4 * 9 + 8 * 27 + 2 * 36) * 16 + 8 * 128 + 160 + 2 * 9
        );
    }

    /// A step panel covers exactly the rows of its level, against every
    /// input active at the level.
    #[test]
    fn step_panels_are_the_rows_of_one_level() {
        let mut net = SteppingNetBuilder::new(Shape::of(&[6]), 3, 1)
            .linear(8)
            .relu()
            .linear(5)
            .build(2)
            .unwrap();
        net.move_neurons(&[(0, 0, 2), (0, 5, 1), (0, 6, 1), (2, 1, 1), (2, 2, 3)])
            .unwrap();
        let model = net.compile(0.0);
        let [CompiledStage::Linear(first), CompiledStage::Linear(second)] = &model.stages[..]
        else {
            unreachable!("linear with its relu folded in, linear")
        };
        assert_eq!(
            (first.activation, second.activation),
            (Activation::Relu, Activation::Identity)
        );
        let steps = |p: &Panels| {
            p.step
                .iter()
                .map(|s| (s.rows.clone(), s.inputs))
                .collect::<Vec<_>>()
        };
        assert_eq!(steps(&first.panels), [(5..7, 6), (7..8, 6)]);
        assert_eq!(steps(&second.panels), [(3..4, 7), (4..4, 8)]);
    }
}

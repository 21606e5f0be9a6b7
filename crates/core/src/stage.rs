use std::ops::Range;

use stepping_nn::{
    AvgPool2d, BatchNorm1d, BatchNorm2d, Dropout, Flatten, Layer, MaxPool2d, Param, Relu, Sigmoid,
    Tanh,
};
use stepping_tensor::{Shape, Tensor};

use crate::{Assignment, MaskedConv2d, MaskedLayer, MaskedLinear, Result};

/// A subnet-agnostic layer inside a SteppingNet (activation, pooling,
/// normalisation, flatten, dropout). These layers never mix neurons across
/// channels/features, so they preserve the incremental property untouched.
#[derive(Debug, Clone)]
pub enum FixedStage {
    /// ReLU activation.
    Relu(Relu),
    /// Hyperbolic-tangent activation.
    Tanh(Tanh),
    /// Logistic-sigmoid activation.
    Sigmoid(Sigmoid),
    /// Max pooling.
    MaxPool(MaxPool2d),
    /// Average pooling.
    AvgPool(AvgPool2d),
    /// Batch norm over `[n, features]`. `assign` mirrors the upstream
    /// feature assignment so running statistics only update for features
    /// active in the trained subnet (inactive features carry masked zeros).
    BatchNorm1d {
        /// The wrapped layer.
        layer: BatchNorm1d,
        /// Upstream feature assignment (synced by the network).
        assign: Option<Assignment>,
    },
    /// Batch norm over NCHW (per channel — identical statistics in every
    /// subnet containing the channel, so no per-subnet copies are needed;
    /// this is the property the any-width network shares, paper §II).
    /// `assign` mirrors the upstream channel assignment, as in
    /// [`FixedStage::BatchNorm1d`].
    BatchNorm2d {
        /// The wrapped layer.
        layer: BatchNorm2d,
        /// Upstream channel assignment (synced by the network).
        assign: Option<Assignment>,
    },
    /// Flatten `[n, c, h, w] → [n, c·h·w]`; `factor` is `h·w`, used to expand
    /// channel assignments into feature assignments.
    Flatten {
        /// The wrapped layer.
        layer: Flatten,
        /// Spatial positions per channel at this point of the network.
        factor: usize,
    },
    /// Inverted dropout.
    Dropout(Dropout),
}

impl FixedStage {
    pub(crate) fn layer_mut(&mut self) -> &mut dyn Layer {
        match self {
            FixedStage::Relu(l) => l,
            FixedStage::Tanh(l) => l,
            FixedStage::Sigmoid(l) => l,
            FixedStage::MaxPool(l) => l,
            FixedStage::AvgPool(l) => l,
            FixedStage::BatchNorm1d { layer, .. } => layer,
            FixedStage::BatchNorm2d { layer, .. } => layer,
            FixedStage::Flatten { layer, .. } => layer,
            FixedStage::Dropout(l) => l,
        }
    }

    fn layer(&self) -> &dyn Layer {
        match self {
            FixedStage::Relu(l) => l,
            FixedStage::Tanh(l) => l,
            FixedStage::Sigmoid(l) => l,
            FixedStage::MaxPool(l) => l,
            FixedStage::AvgPool(l) => l,
            FixedStage::BatchNorm1d { layer, .. } => layer,
            FixedStage::BatchNorm2d { layer, .. } => layer,
            FixedStage::Flatten { layer, .. } => layer,
            FixedStage::Dropout(l) => l,
        }
    }

    /// The shape this stage writes for an input of shape `input`, `None`
    /// when the input does not fit it.
    pub(crate) fn output_shape(&self, input: &Shape) -> Option<Shape> {
        self.layer().output_shape(input)
    }

    /// Inference forward through `&self`: `forward(x, false)` of the wrapped
    /// layer written into the channel (or feature) range `channels` of
    /// `out` — the same per-element arithmetic in the same order — reading
    /// and writing no backward cache. Every fixed stage is channel-local, so
    /// any range of the channels of `x` (`[n, c, ..]`) can be computed
    /// alone: `0..c` is the whole level, and channels outside the range keep
    /// what `out` held (a flatten's channel `j` is its features `j·h·w ..
    /// (j + 1)·h·w`). `out`'s buffer is reused when its shape already
    /// matches (an executor's level), so a warmed pass allocates nothing
    /// here.
    ///
    /// # Errors
    ///
    /// Propagates the layer's input-shape errors and rejects a range beyond
    /// the channels of `x`.
    pub fn infer_into(&self, x: &Tensor, out: &mut Tensor, channels: Range<usize>) -> Result<()> {
        match self {
            FixedStage::Relu(l) => l.infer_into(x, out, channels)?,
            FixedStage::Tanh(l) => l.infer_into(x, out, channels)?,
            FixedStage::Sigmoid(l) => l.infer_into(x, out, channels)?,
            FixedStage::MaxPool(l) => l.infer_into(x, out, channels)?,
            FixedStage::AvgPool(l) => l.infer_into(x, out, channels)?,
            FixedStage::BatchNorm1d { layer, .. } => layer.infer_into(x, out, channels)?,
            FixedStage::BatchNorm2d { layer, .. } => layer.infer_into(x, out, channels)?,
            FixedStage::Flatten { layer, .. } => layer.infer_into(x, out, channels)?,
            FixedStage::Dropout(l) => l.infer_into(x, out, channels)?,
        }
        Ok(())
    }

    /// Human-readable kind.
    pub fn name(&self) -> &'static str {
        match self {
            FixedStage::Relu(_) => "Relu",
            FixedStage::Tanh(_) => "Tanh",
            FixedStage::Sigmoid(_) => "Sigmoid",
            FixedStage::MaxPool(_) => "MaxPool2d",
            FixedStage::AvgPool(_) => "AvgPool2d",
            FixedStage::BatchNorm1d { .. } => "BatchNorm1d",
            FixedStage::BatchNorm2d { .. } => "BatchNorm2d",
            FixedStage::Flatten { .. } => "Flatten",
            FixedStage::Dropout(_) => "Dropout",
        }
    }
}

/// One stage of a SteppingNet: a masked (steppable) layer or a fixed layer.
#[derive(Debug, Clone)]
pub enum Stage {
    /// Masked fully-connected layer (steppable output neurons).
    Linear(MaskedLinear),
    /// Masked convolution (steppable filters).
    Conv(MaskedConv2d),
    /// Subnet-agnostic layer.
    Fixed(FixedStage),
}

impl Stage {
    /// The masked core of a steppable stage — the one place its assignment,
    /// mask, MAC, importance and suppression rules live; `None` for a fixed
    /// stage.
    pub fn masked(&self) -> Option<&MaskedLayer> {
        match self {
            Stage::Linear(l) => Some(l),
            Stage::Conv(c) => Some(c),
            Stage::Fixed(_) => None,
        }
    }

    /// Mutable access to the masked core of a steppable stage.
    pub fn masked_mut(&mut self) -> Option<&mut MaskedLayer> {
        match self {
            Stage::Linear(l) => Some(l),
            Stage::Conv(c) => Some(c),
            Stage::Fixed(_) => None,
        }
    }

    /// Runs the stage forward for `subnet`.
    ///
    /// # Errors
    ///
    /// Propagates layer errors.
    pub fn forward(&mut self, x: &Tensor, subnet: usize, train: bool) -> Result<Tensor> {
        match self {
            Stage::Linear(l) => l.forward(x, subnet, train),
            Stage::Conv(c) => c.forward(x, subnet, train),
            Stage::Fixed(f) => {
                // Batch-norm running statistics must ignore channels that
                // are inactive (masked to zero) in the subnet being trained.
                if train {
                    match f {
                        FixedStage::BatchNorm1d {
                            layer,
                            assign: Some(a),
                        } => {
                            layer.set_stat_mask(Some(
                                (0..a.len()).map(|i| a.is_active(i, subnet)).collect(),
                            ));
                        }
                        FixedStage::BatchNorm2d {
                            layer,
                            assign: Some(a),
                        } => {
                            layer.set_stat_mask(Some(
                                (0..a.len()).map(|i| a.is_active(i, subnet)).collect(),
                            ));
                        }
                        _ => {}
                    }
                }
                Ok(f.layer_mut().forward(x, train)?)
            }
        }
    }

    /// Back-propagates through the stage (subnet context is whatever the last
    /// forward used).
    ///
    /// # Errors
    ///
    /// Propagates layer errors.
    pub fn backward(&mut self, g: &Tensor) -> Result<Tensor> {
        match self {
            Stage::Linear(l) => l.backward(g),
            Stage::Conv(c) => c.backward(g),
            Stage::Fixed(f) => Ok(f.layer_mut().backward(g)?),
        }
    }

    /// Trainable parameters of the stage.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        match self {
            Stage::Fixed(f) => f.layer_mut().params_mut(),
            masked => masked
                .masked_mut()
                .map_or_else(Vec::new, MaskedLayer::params_mut),
        }
    }

    /// Whether this is a masked (steppable) stage.
    pub fn is_masked(&self) -> bool {
        self.masked().is_some()
    }

    /// Output-neuron assignment for masked stages.
    pub fn out_assign(&self) -> Option<&Assignment> {
        self.masked().map(MaskedLayer::out_assign)
    }

    /// Number of output neurons for masked stages.
    pub fn neuron_count(&self) -> Option<usize> {
        self.out_assign().map(Assignment::len)
    }

    /// MAC operations of `subnet` through this stage (0 for fixed stages —
    /// activations/pooling are not MACs, matching the paper's accounting).
    pub fn macs(&self, subnet: usize, threshold: f32) -> u64 {
        self.masked().map_or(0, |m| m.macs(subnet, threshold))
    }

    /// MACs each step adds at a masked stage: entry `k` is the sum of
    /// [`neuron_macs`](Self::neuron_macs) over the neurons assigned exactly
    /// to subnet `k` (the unused pool counts nowhere), so
    /// [`macs`](Self::macs)`(s, threshold)` is the sum of entries `0..=s`.
    /// `None` for fixed stages.
    pub(crate) fn step_macs(&self, threshold: f32) -> Option<Vec<u64>> {
        let m = self.masked()?;
        let assign = m.out_assign();
        let mut counts = vec![0u64; assign.subnet_count()];
        for o in 0..assign.len() {
            if let Some(c) = counts.get_mut(assign.subnet_of(o)) {
                *c += m.neuron_macs(o, threshold);
            }
        }
        Some(counts)
    }

    /// MAC contribution of output neuron `o` for masked stages.
    pub fn neuron_macs(&self, o: usize, threshold: f32) -> Option<u64> {
        self.masked().map(|m| m.neuron_macs(o, threshold))
    }

    /// Selection criterion `M_o^i` for masked stages.
    pub fn selection_score(&self, o: usize, alpha: &[f64]) -> Option<f64> {
        self.masked().map(|m| m.selection_score(o, alpha))
    }

    /// Naive magnitude criterion for masked stages (ablation baseline).
    pub fn magnitude_score(&self, o: usize) -> Option<f64> {
        self.masked().map(|m| m.magnitude_score(o))
    }

    /// Moves output neuron `o` of a masked stage to `target`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SteppingError::InvalidStructure`] for fixed stages
    /// and propagates assignment errors.
    pub fn move_out_neuron(&mut self, o: usize, target: usize) -> Result<()> {
        match self.masked_mut() {
            Some(m) => m.move_out_neuron(o, target),
            None => Err(crate::SteppingError::InvalidStructure(format!(
                "stage {} has no steppable neurons",
                self.name()
            ))),
        }
    }

    /// Stably sorts a masked stage's neurons by level and returns the order
    /// applied (entry `j` is the old index of neuron `j`): its weight rows,
    /// bias, their gradients and learning-rate scales, importance and
    /// assignment move with their neurons. `None` for a fixed stage or one
    /// already level-major.
    pub(crate) fn sort_by_level(&mut self) -> Option<Vec<usize>> {
        let m = self.masked_mut()?;
        let order = m.out_assign().level_order()?;
        m.permute_outputs(&order);
        Some(order)
    }

    /// Carries `order`, a reorder of the upstream neurons, into this stage
    /// and returns it for the next one: a batch norm reorders its
    /// per-channel parameters and statistics, a flatten widens each channel
    /// into its `h·w` features, and a masked stage reorders its input
    /// columns and returns `None` — the stages after it read its neurons.
    pub(crate) fn permute_inputs(&mut self, order: Vec<usize>) -> Option<Vec<usize>> {
        match self {
            Stage::Fixed(FixedStage::BatchNorm1d { layer, .. }) => layer.permute_features(&order),
            Stage::Fixed(FixedStage::BatchNorm2d { layer, .. }) => layer.permute_channels(&order),
            Stage::Fixed(FixedStage::Flatten { factor, .. }) => {
                let f = *factor;
                return Some(order.iter().flat_map(|&c| c * f..(c + 1) * f).collect());
            }
            Stage::Fixed(_) => {}
            masked => {
                masked.masked_mut()?.permute_inputs(&order);
                return None;
            }
        }
        Some(order)
    }

    /// Replaces the input assignment of a masked stage or a batch norm
    /// (no-op for other fixed stages).
    ///
    /// # Errors
    ///
    /// Propagates geometry mismatches.
    pub fn set_in_assign(&mut self, assign: Assignment) -> Result<()> {
        if let Some(m) = self.masked_mut() {
            return m.set_in_assign(assign);
        }
        let (len, noun, slot) = match self {
            Stage::Fixed(FixedStage::BatchNorm1d { layer, assign }) => {
                (layer.features(), "features", assign)
            }
            Stage::Fixed(FixedStage::BatchNorm2d { layer, assign }) => {
                (layer.channels(), "channels", assign)
            }
            _ => return Ok(()),
        };
        if assign.len() != len {
            return Err(crate::SteppingError::InvalidStructure(format!(
                "batch norm over {len} {noun} got assignment of {}",
                assign.len()
            )));
        }
        *slot = Some(assign);
        Ok(())
    }

    /// Non-permanent magnitude pruning; returns zeroed-weight count.
    pub fn prune(&mut self, threshold: f32) -> usize {
        self.masked_mut().map_or(0, |m| m.prune(threshold))
    }

    /// Boolean mask of currently-zeroed weights on masked stages (empty for
    /// fixed stages), for revival tracking across a training round.
    pub fn zeroed_weights(&self) -> Vec<bool> {
        self.masked()
            .map_or_else(Vec::new, MaskedLayer::zeroed_weights)
    }

    /// Counts weights zero in `before` now at magnitude `>= threshold`
    /// (always `0` for fixed stages).
    pub fn count_revived(&self, before: &[bool], threshold: f32) -> usize {
        self.masked()
            .map_or(0, |m| m.count_revived(before, threshold))
    }

    /// Clears accumulated importance on masked stages.
    pub fn reset_importance(&mut self) {
        if let Some(m) = self.masked_mut() {
            m.reset_importance();
        }
    }

    /// Raw accumulated importance of a masked stage (flattened
    /// `[subnet][out]`); `None` for fixed stages.
    pub fn importance_values(&self) -> Option<&[f64]> {
        self.masked().map(MaskedLayer::importance_values)
    }

    /// Installs weight-update suppression for training `subnet`.
    pub fn apply_lr_suppression(&mut self, subnet: usize, beta: f32) {
        if let Some(m) = self.masked_mut() {
            m.apply_lr_suppression(subnet, beta);
        }
    }

    /// Removes weight-update suppression.
    pub fn clear_lr_suppression(&mut self) {
        if let Some(m) = self.masked_mut() {
            m.clear_lr_suppression();
        }
    }

    /// Human-readable stage kind.
    pub fn name(&self) -> &'static str {
        match self {
            Stage::Linear(_) => "MaskedLinear",
            Stage::Conv(_) => "MaskedConv2d",
            Stage::Fixed(f) => f.name(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stepping_tensor::init::rng;
    use stepping_tensor::Shape;

    #[test]
    fn fixed_stage_dispatch() {
        let mut s = Stage::Fixed(FixedStage::Relu(Relu::new()));
        assert!(!s.is_masked());
        assert_eq!(s.name(), "Relu");
        assert!(s.out_assign().is_none());
        assert_eq!(s.macs(0, 0.0), 0);
        assert!(s.move_out_neuron(0, 1).is_err());
        let x = Tensor::from_vec(Shape::of(&[1, 2]), vec![-1.0, 1.0]).unwrap();
        let y = s.forward(&x, 0, true).unwrap();
        assert_eq!(y.data(), &[0.0, 1.0]);
        assert_eq!(s.prune(1.0), 0);
    }

    #[test]
    fn masked_stage_dispatch() {
        let mut s = Stage::Linear(MaskedLinear::new(2, 3, 2, &mut rng(0)));
        assert!(s.is_masked());
        assert_eq!(s.neuron_count(), Some(3));
        s.move_out_neuron(1, 1).unwrap();
        assert_eq!(s.out_assign().unwrap().subnet_of(1), 1);
        assert!(s.macs(1, 0.0) > s.macs(0, 0.0));
        assert!(s.neuron_macs(0, 0.0).is_some());
        assert!(s.selection_score(0, &[1.0, 1.5]).is_some());
    }

    #[test]
    fn flatten_factor_recorded() {
        let s = Stage::Fixed(FixedStage::Flatten {
            layer: Flatten::new(),
            factor: 4,
        });
        match s {
            Stage::Fixed(FixedStage::Flatten { factor, .. }) => assert_eq!(factor, 4),
            _ => unreachable!(),
        }
    }
}

use std::ops::Range;

use stepping_nn::{
    AvgPool2d, BatchNorm1d, BatchNorm2d, Dropout, Flatten, Layer, MaxPool2d, Param, Relu, Sigmoid,
    Tanh,
};
use stepping_tensor::{Shape, Tensor};

use crate::{Assignment, MaskedConv2d, MaskedLinear, Result};

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
    /// layer written into the channel (or feature) `runs` of `out` — the
    /// same per-element arithmetic in the same order — reading and writing
    /// no backward cache. Every fixed stage is channel-local, so `runs` may
    /// name any channels of `x` (`[n, c, ..]`): `&[0..c]` is the whole
    /// level, and channels outside the runs keep what `out` held (a
    /// flatten's run of channel `j` is its features `j·h·w .. (j + 1)·h·w`).
    /// `out`'s buffer is reused when its shape already matches (an
    /// executor's level), so a warmed pass allocates nothing here.
    ///
    /// # Errors
    ///
    /// Propagates the layer's input-shape errors and rejects a run beyond
    /// the channels of `x`.
    pub fn infer_into(&self, x: &Tensor, out: &mut Tensor, runs: &[Range<usize>]) -> Result<()> {
        match self {
            FixedStage::Relu(l) => l.infer_into(x, out, runs)?,
            FixedStage::Tanh(l) => l.infer_into(x, out, runs)?,
            FixedStage::Sigmoid(l) => l.infer_into(x, out, runs)?,
            FixedStage::MaxPool(l) => l.infer_into(x, out, runs)?,
            FixedStage::AvgPool(l) => l.infer_into(x, out, runs)?,
            FixedStage::BatchNorm1d { layer, .. } => layer.infer_into(x, out, runs)?,
            FixedStage::BatchNorm2d { layer, .. } => layer.infer_into(x, out, runs)?,
            FixedStage::Flatten { layer, .. } => layer.infer_into(x, out, runs)?,
            FixedStage::Dropout(l) => l.infer_into(x, out, runs)?,
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

    /// Whether train-mode forwards of this stage are row-independent and
    /// free of cross-batch state, i.e. safe to run on sharded sub-batches:
    /// batch-norm (batch statistics) and dropout (an RNG stream) are not.
    ///
    /// Every variant is matched explicitly — no wildcard, no negated
    /// `matches!` — so adding a stage kind without deciding its shard
    /// safety is a compile error: rustc checks the match is exhaustive and
    /// the two clippy lints denied below reject a `_` arm, whether it
    /// stands for several variants or one. A silent `true` default would
    /// let a new stateful stage break the thread-count-invariance
    /// guarantee of `docs/PARALLELISM.md`.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    pub fn shard_safe(&self) -> bool {
        match self {
            Stage::Linear(_) => true,
            Stage::Conv(_) => true,
            Stage::Fixed(f) => match f {
                FixedStage::Relu(_) => true,
                FixedStage::Tanh(_) => true,
                FixedStage::Sigmoid(_) => true,
                FixedStage::MaxPool(_) => true,
                FixedStage::AvgPool(_) => true,
                // batch statistics couple rows across the whole batch
                FixedStage::BatchNorm1d { .. } => false,
                FixedStage::BatchNorm2d { .. } => false,
                // one RNG stream per layer, consumed in row order
                FixedStage::Dropout(_) => false,
                FixedStage::Flatten { .. } => true,
            },
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
            Stage::Linear(l) => l.params_mut(),
            Stage::Conv(c) => c.params_mut(),
            Stage::Fixed(f) => f.layer_mut().params_mut(),
        }
    }

    /// Whether this is a masked (steppable) stage.
    pub fn is_masked(&self) -> bool {
        matches!(self, Stage::Linear(_) | Stage::Conv(_))
    }

    /// Output-neuron assignment for masked stages.
    pub fn out_assign(&self) -> Option<&Assignment> {
        match self {
            Stage::Linear(l) => Some(l.out_assign()),
            Stage::Conv(c) => Some(c.out_assign()),
            Stage::Fixed(_) => None,
        }
    }

    /// Number of output neurons for masked stages.
    pub fn neuron_count(&self) -> Option<usize> {
        self.out_assign().map(Assignment::len)
    }

    /// MAC operations of `subnet` through this stage (0 for fixed stages —
    /// activations/pooling are not MACs, matching the paper's accounting).
    pub fn macs(&self, subnet: usize, threshold: f32) -> u64 {
        match self {
            Stage::Linear(l) => l.macs(subnet, threshold),
            Stage::Conv(c) => c.macs(subnet, threshold),
            Stage::Fixed(_) => 0,
        }
    }

    /// MACs each step adds at a masked stage: entry `k` is the sum of
    /// [`neuron_macs`](Self::neuron_macs) over the neurons assigned exactly
    /// to subnet `k` (the unused pool counts nowhere), so
    /// [`macs`](Self::macs)`(s, threshold)` is the sum of entries `0..=s`.
    /// `None` for fixed stages.
    pub(crate) fn step_macs(&self, threshold: f32) -> Option<Vec<u64>> {
        let assign = self.out_assign()?;
        let mut counts = vec![0u64; assign.subnet_count()];
        for o in 0..assign.len() {
            if let Some(c) = counts.get_mut(assign.subnet_of(o)) {
                *c += self.neuron_macs(o, threshold)?;
            }
        }
        Some(counts)
    }

    /// MAC contribution of output neuron `o` for masked stages.
    pub fn neuron_macs(&self, o: usize, threshold: f32) -> Option<u64> {
        match self {
            Stage::Linear(l) => Some(l.neuron_macs(o, threshold)),
            Stage::Conv(c) => Some(c.neuron_macs(o, threshold)),
            Stage::Fixed(_) => None,
        }
    }

    /// Selection criterion `M_o^i` for masked stages.
    pub fn selection_score(&self, o: usize, alpha: &[f64]) -> Option<f64> {
        match self {
            Stage::Linear(l) => Some(l.selection_score(o, alpha)),
            Stage::Conv(c) => Some(c.selection_score(o, alpha)),
            Stage::Fixed(_) => None,
        }
    }

    /// Naive magnitude criterion for masked stages (ablation baseline).
    pub fn magnitude_score(&self, o: usize) -> Option<f64> {
        match self {
            Stage::Linear(l) => Some(l.magnitude_score(o)),
            Stage::Conv(c) => Some(c.magnitude_score(o)),
            Stage::Fixed(_) => None,
        }
    }

    /// Moves output neuron `o` of a masked stage to `target`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SteppingError::InvalidStructure`] for fixed stages
    /// and propagates assignment errors.
    pub fn move_out_neuron(&mut self, o: usize, target: usize) -> Result<()> {
        match self {
            Stage::Linear(l) => l.move_out_neuron(o, target),
            Stage::Conv(c) => c.move_out_neuron(o, target),
            Stage::Fixed(f) => Err(crate::SteppingError::InvalidStructure(format!(
                "stage {} has no steppable neurons",
                f.name()
            ))),
        }
    }

    /// Replaces the input assignment of a masked stage (no-op for fixed).
    ///
    /// # Errors
    ///
    /// Propagates geometry mismatches.
    pub fn set_in_assign(&mut self, assign: Assignment) -> Result<()> {
        match self {
            Stage::Linear(l) => l.set_in_assign(assign),
            Stage::Conv(c) => c.set_in_assign(assign),
            Stage::Fixed(FixedStage::BatchNorm1d {
                layer,
                assign: slot,
            }) => {
                if assign.len() != layer.features() {
                    return Err(crate::SteppingError::InvalidStructure(format!(
                        "batch norm over {} features got assignment of {}",
                        layer.features(),
                        assign.len()
                    )));
                }
                *slot = Some(assign);
                Ok(())
            }
            Stage::Fixed(FixedStage::BatchNorm2d {
                layer,
                assign: slot,
            }) => {
                if assign.len() != layer.channels() {
                    return Err(crate::SteppingError::InvalidStructure(format!(
                        "batch norm over {} channels got assignment of {}",
                        layer.channels(),
                        assign.len()
                    )));
                }
                *slot = Some(assign);
                Ok(())
            }
            Stage::Fixed(_) => Ok(()),
        }
    }

    /// Non-permanent magnitude pruning; returns zeroed-weight count.
    pub fn prune(&mut self, threshold: f32) -> usize {
        match self {
            Stage::Linear(l) => l.prune(threshold),
            Stage::Conv(c) => c.prune(threshold),
            Stage::Fixed(_) => 0,
        }
    }

    /// Boolean mask of currently-zeroed weights on masked stages (empty for
    /// fixed stages), for revival tracking across a training round.
    pub fn zeroed_weights(&self) -> Vec<bool> {
        match self {
            Stage::Linear(l) => l.zeroed_weights(),
            Stage::Conv(c) => c.zeroed_weights(),
            Stage::Fixed(_) => Vec::new(),
        }
    }

    /// Counts weights zero in `before` now at magnitude `>= threshold`
    /// (always `0` for fixed stages).
    pub fn count_revived(&self, before: &[bool], threshold: f32) -> usize {
        match self {
            Stage::Linear(l) => l.count_revived(before, threshold),
            Stage::Conv(c) => c.count_revived(before, threshold),
            Stage::Fixed(_) => 0,
        }
    }

    /// Clears accumulated importance on masked stages.
    pub fn reset_importance(&mut self) {
        match self {
            Stage::Linear(l) => l.reset_importance(),
            Stage::Conv(c) => c.reset_importance(),
            Stage::Fixed(_) => {}
        }
    }

    /// Raw accumulated importance of a masked stage (flattened
    /// `[subnet][out]`); `None` for fixed stages.
    pub fn importance_values(&self) -> Option<&[f64]> {
        match self {
            Stage::Linear(l) => Some(l.importance_values()),
            Stage::Conv(c) => Some(c.importance_values()),
            Stage::Fixed(_) => None,
        }
    }

    /// Adds a merged importance delta into a masked stage; no-op for fixed
    /// stages given an empty delta.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SteppingError::InvalidStructure`] on length
    /// mismatch.
    pub fn add_importance_values(&mut self, delta: &[f64]) -> Result<()> {
        match self {
            Stage::Linear(l) => l.add_importance_values(delta),
            Stage::Conv(c) => c.add_importance_values(delta),
            Stage::Fixed(_) if delta.is_empty() => Ok(()),
            Stage::Fixed(_) => Err(crate::SteppingError::InvalidStructure(
                "importance delta for a fixed stage".into(),
            )),
        }
    }

    /// Installs weight-update suppression for training `subnet`.
    pub fn apply_lr_suppression(&mut self, subnet: usize, beta: f32) {
        match self {
            Stage::Linear(l) => l.apply_lr_suppression(subnet, beta),
            Stage::Conv(c) => c.apply_lr_suppression(subnet, beta),
            Stage::Fixed(_) => {}
        }
    }

    /// Removes weight-update suppression.
    pub fn clear_lr_suppression(&mut self) {
        match self {
            Stage::Linear(l) => l.clear_lr_suppression(),
            Stage::Conv(c) => c.clear_lr_suppression(),
            Stage::Fixed(_) => {}
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

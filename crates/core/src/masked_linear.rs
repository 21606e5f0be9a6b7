use std::borrow::Cow;
use std::ops::{Deref, DerefMut};

use rand::rngs::StdRng;
use stepping_tensor::Tensor;

use crate::compiled::{Activation, CompiledLinear};
use crate::{MaskedLayer, Result, SteppingError};

/// A fully-connected layer whose output neurons carry subnet assignments —
/// the FC building block of a SteppingNet: a [`MaskedLayer`] with one weight
/// column per input feature, run over the batch rows as they come. It
/// dereferences to that layer, which holds the structural rules (legality,
/// synapse revival, pruning, importance, update suppression).
#[derive(Debug, Clone)]
pub struct MaskedLinear {
    layer: MaskedLayer,
}

impl MaskedLinear {
    /// Creates a masked layer with Kaiming-initialised weights; all output
    /// neurons start in subnet 0 (the construction flow initialises subnet1
    /// with the whole network).
    pub fn new(in_features: usize, out_features: usize, subnets: usize, rng: &mut StdRng) -> Self {
        MaskedLinear {
            layer: MaskedLayer::new(&[out_features, in_features], 1, 1, subnets, rng),
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_assign().len()
    }

    /// Output neuron count.
    pub fn out_features(&self) -> usize {
        self.out_assign().len()
    }

    /// Forward pass for `subnet`: `z = x · W_effᵀ + b_eff` where inactive
    /// neurons produce exactly 0.
    ///
    /// # Errors
    ///
    /// Returns an error for a subnet index out of range or an input of the
    /// wrong width.
    pub fn forward(&mut self, input: &Tensor, subnet: usize, train: bool) -> Result<Tensor> {
        self.check_subnet(subnet)?;
        if input.shape().rank() != 2 || input.shape().dims()[1] != self.in_features() {
            return Err(SteppingError::InvalidStructure(format!(
                "masked linear expects [n, {}], got {}",
                self.in_features(),
                input.shape()
            )));
        }
        self.layer.forward_rows(Cow::Borrowed(input), subnet, train)
    }

    /// Backward pass for the subnet used in the last forward: accumulates
    /// masked weight/bias gradients and the per-neuron importance
    /// `|Σ_batch ∂L/∂z_j · z_j|` (paper eq. 2), and returns `∂L/∂x`.
    ///
    /// # Errors
    ///
    /// Returns an error when called before `forward` or with a gradient of
    /// the wrong shape.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        self.layer.backward_rows(grad_out)
    }

    /// Compiles the layer's full and step panels for every subnet.
    pub(crate) fn compile(&self) -> CompiledLinear {
        CompiledLinear {
            in_features: self.in_features(),
            out_features: self.out_features(),
            panels: self.panels("linear"),
            activation: Activation::Identity,
        }
    }
}

impl Deref for MaskedLinear {
    type Target = MaskedLayer;

    fn deref(&self) -> &MaskedLayer {
        &self.layer
    }
}

impl DerefMut for MaskedLinear {
    fn deref_mut(&mut self) -> &mut MaskedLayer {
        &mut self.layer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stepping_tensor::init::{self, rng};
    use stepping_tensor::Shape;

    #[test]
    fn fresh_layer_behaves_like_plain_linear() {
        let mut l = MaskedLinear::new(3, 4, 3, &mut rng(0));
        let x = init::uniform(Shape::of(&[2, 3]), -1.0, 1.0, &mut rng(1));
        let z = l.forward(&x, 0, true).unwrap();
        // all neurons in subnet 0, all weights legal: matches dense matmul
        let dense = stepping_tensor::matmul::matmul_bt(&x, &l.weight().value).unwrap();
        assert_eq!(z, dense); // bias is zero at init
        assert_eq!(l.backward(&z).unwrap().shape().dims(), &[2, 3]);
    }

    #[test]
    fn input_shape_and_subnet_bounds_checked() {
        let mut l = MaskedLinear::new(3, 4, 3, &mut rng(0));
        let x = Tensor::zeros(Shape::of(&[1, 3]));
        assert!(matches!(
            l.forward(&x, 3, true),
            Err(SteppingError::SubnetOutOfRange {
                subnet: 3,
                count: 3
            })
        ));
        assert!(l
            .forward(&Tensor::zeros(Shape::of(&[1, 4])), 0, true)
            .is_err());
    }
}

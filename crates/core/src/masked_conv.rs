use std::borrow::Cow;
use std::ops::{Deref, DerefMut};

use rand::rngs::StdRng;
use stepping_tensor::conv::{col2im, im2col, mat_to_nchw, nchw_to_mat, ConvGeometry};
use stepping_tensor::Tensor;

use crate::compiled::{Activation, CompiledConv};
use crate::{MaskedLayer, Result, SteppingError};

/// A 2-D convolution whose filters (output channels) carry subnet
/// assignments — the CNN building block of a SteppingNet: a
/// [`MaskedLayer`] with `k²` weight columns per input channel, run over the
/// `im2col` rows of its input (one per image and output position). It
/// dereferences to that layer, so the structural rules are the masked
/// linear layer's at *filter* granularity: filter `oc` may read input
/// channel `ic` only when `assign(ic) ≤ assign(oc)`, so channels of smaller
/// subnets are never invalidated by larger-subnet channels. Unstructured
/// pruning additionally zeroes individual kernel weights (paper §III-A1
/// applies pruning \[14\] inside each iteration).
#[derive(Debug, Clone)]
pub struct MaskedConv2d {
    layer: MaskedLayer,
    kernel: usize,
    stride: usize,
    padding: usize,
    /// Geometry and batch of the last training forward, which `backward`
    /// folds the input gradient back with.
    cached: Option<(ConvGeometry, usize)>,
}

impl MaskedConv2d {
    /// Creates a masked convolution; all filters start in subnet 0.
    ///
    /// `positions` is the number of output spatial positions per image at
    /// this layer's place in the model (for MAC accounting).
    #[allow(
        clippy::too_many_arguments,
        reason = "one argument per convolution hyper-parameter"
    )]
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        positions: usize,
        subnets: usize,
        rng: &mut StdRng,
    ) -> Self {
        MaskedConv2d {
            layer: MaskedLayer::new(
                &[out_channels, in_channels, kernel, kernel],
                kernel * kernel,
                positions,
                subnets,
                rng,
            ),
            kernel,
            stride,
            padding,
            cached: None,
        }
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_assign().len()
    }

    /// Output filter count.
    pub fn out_channels(&self) -> usize {
        self.out_assign().len()
    }

    /// Square kernel extent.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    fn geometry(&self, in_h: usize, in_w: usize) -> Result<ConvGeometry> {
        Ok(ConvGeometry::new(
            self.in_channels(),
            in_h,
            in_w,
            self.kernel,
            self.kernel,
            self.stride,
            self.padding,
        )?)
    }

    /// Forward pass for `subnet`; inactive filters produce exactly 0.
    ///
    /// # Errors
    ///
    /// Returns structural errors for a bad subnet index or input shape.
    pub fn forward(&mut self, input: &Tensor, subnet: usize, train: bool) -> Result<Tensor> {
        self.check_subnet(subnet)?;
        let dims = input.shape().dims();
        if dims.len() != 4 || dims[1] != self.in_channels() {
            return Err(SteppingError::InvalidStructure(format!(
                "masked conv expects [n, {}, h, w], got {}",
                self.in_channels(),
                input.shape()
            )));
        }
        let (n, h, w) = (dims[0], dims[2], dims[3]);
        let geom = self.geometry(h, w)?;
        let cols = im2col(input, &geom)?;
        let z = self.layer.forward_rows(Cow::Owned(cols), subnet, train)?;
        self.cached = train.then_some((geom, n));
        Ok(mat_to_nchw(
            &z,
            n,
            self.out_channels(),
            geom.out_h,
            geom.out_w,
        ))
    }

    /// Backward pass for the subnet used in the last forward; accumulates
    /// masked gradients and per-filter importance (over every image and
    /// output position), returns `∂L/∂x`.
    ///
    /// # Errors
    ///
    /// Returns an error when called before `forward` or with a gradient of
    /// the wrong shape.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let (geom, n) = self.cached.ok_or_else(|| {
            SteppingError::ExecutorState("masked conv backward before forward".into())
        })?;
        let oc_n = self.out_channels();
        if grad_out.shape().dims() != [n, oc_n, geom.out_h, geom.out_w] {
            return Err(SteppingError::InvalidStructure(format!(
                "masked conv backward expects [{n}, {oc_n}, {}, {}], got {}",
                geom.out_h,
                geom.out_w,
                grad_out.shape()
            )));
        }
        let grad = nchw_to_mat(grad_out, n, oc_n, geom.out_h, geom.out_w);
        let dcols = self.layer.backward_rows(&grad)?;
        Ok(col2im(&dcols, n, &geom)?)
    }

    /// Compiles the layer's full and step panels for every subnet.
    pub(crate) fn compile(&self) -> CompiledConv {
        CompiledConv {
            in_channels: self.in_channels(),
            out_channels: self.out_channels(),
            kernel: self.kernel,
            stride: self.stride,
            padding: self.padding,
            positions: self.positions(),
            panels: self.panels("conv"),
            activation: Activation::Identity,
        }
    }
}

impl Deref for MaskedConv2d {
    type Target = MaskedLayer;

    fn deref(&self) -> &MaskedLayer {
        &self.layer
    }
}

impl DerefMut for MaskedConv2d {
    fn deref_mut(&mut self) -> &mut MaskedLayer {
        &mut self.layer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Assignment;
    use stepping_tensor::init::{self, rng};
    use stepping_tensor::Shape;

    fn conv() -> MaskedConv2d {
        // 2→3 channels, 3x3 kernel, pad 1 on 4x4 input → 16 positions
        MaskedConv2d::new(2, 3, 3, 1, 1, 16, 3, &mut rng(0))
    }

    fn input() -> Tensor {
        init::uniform(Shape::of(&[2, 2, 4, 4]), -1.0, 1.0, &mut rng(1))
    }

    #[test]
    fn inactive_filters_output_exactly_zero() {
        let mut c = conv();
        c.move_out_neuron(1, 2).unwrap();
        c.params_mut()[1].value.fill(0.7);
        let z = c.forward(&input(), 0, true).unwrap();
        let positions = 16;
        for b in 0..2 {
            let base = (b * 3 + 1) * positions;
            for p in 0..positions {
                assert_eq!(z.data()[base + p], 0.0);
            }
        }
    }

    #[test]
    fn shared_filter_values_identical_across_subnets() {
        let mut c = conv();
        c.move_out_neuron(2, 1).unwrap();
        let x = input();
        let z0 = c.forward(&x, 0, false).unwrap();
        let z1 = c.forward(&x, 1, false).unwrap();
        let positions = 16;
        for b in 0..2 {
            for oc in 0..2 {
                let base = (b * 3 + oc) * positions;
                for p in 0..positions {
                    assert_eq!(z0.data()[base + p], z1.data()[base + p]);
                }
            }
        }
    }

    #[test]
    fn importance_covers_every_position() {
        let mut c = conv();
        c.move_out_neuron(1, 1).unwrap();
        let z = c.forward(&input(), 1, true).unwrap();
        let dx = c.backward(&Tensor::ones(z.shape().clone())).unwrap();
        assert_eq!(dx.shape(), input().shape());
        // Σ over images and positions of g·z with g = 1: the filter's sum
        let filter0: f32 = (0..2)
            .flat_map(|b| z.data()[b * 48..b * 48 + 16].iter())
            .sum();
        assert!((c.importance(1, 0) - filter0.abs() as f64).abs() < 1e-4);
        assert_eq!(c.importance(0, 0), 0.0);
    }

    #[test]
    fn structural_validation() {
        let mut c = conv();
        assert!(c
            .forward(&Tensor::zeros(Shape::of(&[1, 3, 4, 4])), 0, true)
            .is_err());
        assert!(c
            .forward(&Tensor::zeros(Shape::of(&[1, 2, 4, 4])), 5, true)
            .is_err());
        assert!(c.set_in_assign(Assignment::new(7, 3)).is_err());
        assert!(c
            .backward(&Tensor::zeros(Shape::of(&[1, 3, 4, 4])))
            .is_err());
        c.forward(&input(), 0, true).unwrap();
        assert!(c
            .backward(&Tensor::zeros(Shape::of(&[1, 3, 4, 4])))
            .is_err());
    }
}

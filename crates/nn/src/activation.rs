use std::ops::Range;

use stepping_tensor::{Shape, Tensor};

use crate::layer::map_into;
use crate::{Layer, NnError, Result};

macro_rules! check_backward_shape {
    ($cached:expr, $grad:expr, $name:literal) => {{
        let cached = $cached
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: $name })?;
        if cached.shape() != $grad.shape() {
            return Err(NnError::BadInput(format!(
                concat!($name, " backward expects {}, got {}"),
                cached.shape(),
                $grad.shape()
            )));
        }
        cached
    }};
}

fn relu(x: f32) -> f32 {
    x.max(0.0)
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Rectified linear unit `max(0, x)` (the paper's activation `φ`).
///
/// # Example
///
/// ```
/// use stepping_nn::{Layer, Relu};
/// use stepping_tensor::{Shape, Tensor};
///
/// let mut relu = Relu::new();
/// let x = Tensor::from_vec(Shape::of(&[1, 2]), vec![-1.0, 2.0])?;
/// assert_eq!(relu.forward(&x, true)?.data(), &[0.0, 2.0]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Default, Clone)]
pub struct Relu {
    cached_input: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu { cached_input: None }
    }

    /// Inference forward through `&self`: `forward(input, false)` written
    /// into the channel range of `out` (`[n, c, ..]`; `0..c` is the
    /// whole level), whose buffer is reused when its shape already matches.
    /// Channels outside the range keep what `out` held.
    ///
    /// # Errors
    ///
    /// Rejects an input of rank below 2 and a range beyond its channels.
    pub fn infer_into(
        &self,
        input: &Tensor,
        out: &mut Tensor,
        channels: Range<usize>,
    ) -> Result<()> {
        map_into(input, out, input.shape().dims(), channels, relu)
    }
}

impl Layer for Relu {
    fn name(&self) -> &'static str {
        "Relu"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        // Inference never backpropagates: skip the clone and drop any stale
        // cache so a later `backward` fails loudly.
        self.cached_input = train.then(|| input.clone());
        Ok(input.map(relu))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let input = check_backward_shape!(self.cached_input, grad_out, "Relu");
        Ok(grad_out.zip(input, |g, x| if x > 0.0 { g } else { 0.0 })?)
    }

    fn output_shape(&self, input: &Shape) -> Option<Shape> {
        Some(input.clone())
    }
}

/// Hyperbolic tangent activation.
#[derive(Debug, Default, Clone)]
pub struct Tanh {
    cached_output: Option<Tensor>,
}

impl Tanh {
    /// Creates a tanh layer.
    pub fn new() -> Self {
        Tanh {
            cached_output: None,
        }
    }

    /// Inference forward through `&self` (see [`Relu::infer_into`]).
    ///
    /// # Errors
    ///
    /// As [`Relu::infer_into`].
    pub fn infer_into(
        &self,
        input: &Tensor,
        out: &mut Tensor,
        channels: Range<usize>,
    ) -> Result<()> {
        map_into(input, out, input.shape().dims(), channels, f32::tanh)
    }
}

impl Layer for Tanh {
    fn name(&self) -> &'static str {
        "Tanh"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        let out = input.map(f32::tanh);
        self.cached_output = train.then(|| out.clone());
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let out = check_backward_shape!(self.cached_output, grad_out, "Tanh");
        Ok(grad_out.zip(out, |g, y| g * (1.0 - y * y))?)
    }

    fn output_shape(&self, input: &Shape) -> Option<Shape> {
        Some(input.clone())
    }
}

/// Logistic sigmoid activation `1 / (1 + e^{-x})`.
#[derive(Debug, Default, Clone)]
pub struct Sigmoid {
    cached_output: Option<Tensor>,
}

impl Sigmoid {
    /// Creates a sigmoid layer.
    pub fn new() -> Self {
        Sigmoid {
            cached_output: None,
        }
    }

    /// Inference forward through `&self` (see [`Relu::infer_into`]).
    ///
    /// # Errors
    ///
    /// As [`Relu::infer_into`].
    pub fn infer_into(
        &self,
        input: &Tensor,
        out: &mut Tensor,
        channels: Range<usize>,
    ) -> Result<()> {
        map_into(input, out, input.shape().dims(), channels, sigmoid)
    }
}

impl Layer for Sigmoid {
    fn name(&self) -> &'static str {
        "Sigmoid"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        let out = input.map(sigmoid);
        self.cached_output = train.then(|| out.clone());
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let out = check_backward_shape!(self.cached_output, grad_out, "Sigmoid");
        Ok(grad_out.zip(out, |g, y| g * y * (1.0 - y))?)
    }

    fn output_shape(&self, input: &Shape) -> Option<Shape> {
        Some(input.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> Tensor {
        Tensor::from_vec(Shape::of(&[1, 4]), vec![-2.0, -0.5, 0.5, 2.0]).unwrap()
    }

    #[test]
    fn relu_forward_backward() {
        let mut l = Relu::new();
        let y = l.forward(&x(), true).unwrap();
        assert_eq!(y.data(), &[0.0, 0.0, 0.5, 2.0]);
        let g = l.backward(&Tensor::ones(Shape::of(&[1, 4]))).unwrap();
        assert_eq!(g.data(), &[0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn tanh_gradient_finite_difference() {
        let mut l = Tanh::new();
        let input = x();
        l.forward(&input, true).unwrap();
        let g = l.backward(&Tensor::ones(Shape::of(&[1, 4]))).unwrap();
        let eps = 1e-3;
        for i in 0..4 {
            let mut xp = input.clone();
            xp.data_mut()[i] += eps;
            let mut xm = input.clone();
            xm.data_mut()[i] -= eps;
            let num = (Tanh::new().forward(&xp, true).unwrap().sum()
                - Tanh::new().forward(&xm, true).unwrap().sum())
                / (2.0 * eps);
            assert!((num - g.data()[i]).abs() < 1e-3);
        }
    }

    #[test]
    fn sigmoid_gradient_finite_difference() {
        let mut l = Sigmoid::new();
        let input = x();
        l.forward(&input, true).unwrap();
        let g = l.backward(&Tensor::ones(Shape::of(&[1, 4]))).unwrap();
        let eps = 1e-3;
        for i in 0..4 {
            let mut xp = input.clone();
            xp.data_mut()[i] += eps;
            let mut xm = input.clone();
            xm.data_mut()[i] -= eps;
            let num = (Sigmoid::new().forward(&xp, true).unwrap().sum()
                - Sigmoid::new().forward(&xm, true).unwrap().sum())
                / (2.0 * eps);
            assert!((num - g.data()[i]).abs() < 1e-3);
        }
    }

    #[test]
    fn eval_forward_keeps_no_backward_cache() {
        let g = Tensor::ones(Shape::of(&[1, 4]));
        let mut relu = Relu::new();
        relu.forward(&x(), true).unwrap();
        relu.forward(&x(), false).unwrap();
        assert!(
            relu.backward(&g).is_err(),
            "eval forward must drop the cache"
        );
        let mut tanh = Tanh::new();
        tanh.forward(&x(), false).unwrap();
        assert!(tanh.backward(&g).is_err());
        let mut sigmoid = Sigmoid::new();
        sigmoid.forward(&x(), false).unwrap();
        assert!(sigmoid.backward(&g).is_err());
    }

    #[test]
    fn infer_into_matches_forward_and_reuses_the_buffer() {
        let input = x();
        let mut out = Tensor::zeros(Shape::of(&[1, 4]));
        let buffer = out.data().as_ptr();
        Relu::new().infer_into(&input, &mut out, 0..4).unwrap();
        assert_eq!(out, Relu::new().forward(&input, false).unwrap());
        Tanh::new().infer_into(&input, &mut out, 0..4).unwrap();
        assert_eq!(out, Tanh::new().forward(&input, false).unwrap());
        Sigmoid::new().infer_into(&input, &mut out, 0..4).unwrap();
        assert_eq!(out, Sigmoid::new().forward(&input, false).unwrap());
        assert_eq!(
            out.data().as_ptr(),
            buffer,
            "matching shape writes in place"
        );
        // a mismatched target is replaced, not written out of bounds
        let mut other = Tensor::zeros(Shape::of(&[2]));
        Relu::new().infer_into(&input, &mut other, 0..4).unwrap();
        assert_eq!(other, Relu::new().forward(&input, false).unwrap());
    }

    #[test]
    fn infer_into_recomputes_only_its_range() {
        // two images of three channels of two elements each
        let input = Tensor::from_vec(
            Shape::of(&[2, 3, 2]),
            (0..12).map(|v| v as f32 - 6.0).collect(),
        )
        .unwrap();
        let mut out = Tensor::full(Shape::of(&[2, 3, 2]), 9.0);
        Relu::new().infer_into(&input, &mut out, 1..3).unwrap();
        let relu = Relu::new().forward(&input, false).unwrap();
        for (i, (&got, &want)) in out.data().iter().zip(relu.data()).enumerate() {
            let channel = i / 2 % 3;
            let expect = if channel == 0 { 9.0 } else { want };
            assert_eq!(got, expect, "element {i}");
        }
        assert!(Relu::new().infer_into(&input, &mut out, 2..4).is_err());
        let flat = Tensor::zeros(Shape::of(&[4]));
        assert!(Relu::new().infer_into(&flat, &mut out, 0..0).is_err());
    }

    #[test]
    fn backward_before_forward_errors() {
        let g = Tensor::ones(Shape::of(&[1, 4]));
        assert!(Relu::new().backward(&g).is_err());
        assert!(Tanh::new().backward(&g).is_err());
        assert!(Sigmoid::new().backward(&g).is_err());
    }

    #[test]
    fn backward_shape_mismatch_errors() {
        let mut l = Relu::new();
        l.forward(&x(), true).unwrap();
        assert!(l.backward(&Tensor::ones(Shape::of(&[2, 4]))).is_err());
    }

    #[test]
    fn activations_have_no_params() {
        assert!(Relu::new().params_mut().is_empty());
        assert!(Tanh::new().params_mut().is_empty());
        assert!(Sigmoid::new().params_mut().is_empty());
    }
}

use std::ops::Range;

use stepping_tensor::{Shape, Tensor};

use crate::layer::map_into;
use crate::{Layer, NnError, Result};

/// Flattens `[n, …]` activations to `[n, prod(…)]` (the conv→fc bridge).
///
/// # Example
///
/// ```
/// use stepping_nn::{Flatten, Layer};
/// use stepping_tensor::{Shape, Tensor};
///
/// let mut f = Flatten::new();
/// let y = f.forward(&Tensor::zeros(Shape::of(&[2, 3, 4, 4])), true)?;
/// assert_eq!(y.shape().dims(), &[2, 48]);
/// # Ok::<(), stepping_nn::NnError>(())
/// ```
#[derive(Debug, Default, Clone)]
pub struct Flatten {
    cached_in_shape: Option<Shape>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten {
            cached_in_shape: None,
        }
    }

    /// Inference forward through `&self`: the channel range of `input`
    /// (`0..c` is the whole level) copied into the same elements of its
    /// `[n, rest]` view `out` — input channel `j` becomes features
    /// `j·inner .. (j + 1)·inner` — whose buffer is reused when its shape
    /// already matches. Features outside the range keep what `out` held.
    ///
    /// # Errors
    ///
    /// As [`Layer::forward`], and for a range beyond the input's channels.
    pub fn infer_into(
        &self,
        input: &Tensor,
        out: &mut Tensor,
        channels: Range<usize>,
    ) -> Result<()> {
        let n = flat_rows(input)?;
        map_into(input, out, &[n, input.len() / n.max(1)], channels, |x| x)
    }
}

/// The batch rows of a flattenable input.
fn flat_rows(input: &Tensor) -> Result<usize> {
    if input.shape().rank() < 2 {
        return Err(NnError::BadInput(format!(
            "flatten expects rank >= 2, got {}",
            input.shape()
        )));
    }
    Ok(input.shape().dims()[0])
}

impl Layer for Flatten {
    fn name(&self) -> &'static str {
        "Flatten"
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
        let n = flat_rows(input)?;
        let rest = input.len() / n.max(1);
        self.cached_in_shape = Some(input.shape().clone());
        Ok(input.reshape(Shape::of(&[n, rest]))?)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let in_shape = self
            .cached_in_shape
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "Flatten" })?;
        Ok(grad_out.reshape(in_shape.clone())?)
    }

    fn output_shape(&self, input: &Shape) -> Option<Shape> {
        if input.rank() < 2 {
            return None;
        }
        let n = input.dims()[0];
        Some(Shape::of(&[n, input.len() / n.max(1)]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_round_trip() {
        let mut f = Flatten::new();
        let x = Tensor::from_vec(Shape::of(&[1, 2, 1, 2]), vec![1., 2., 3., 4.]).unwrap();
        let y = f.forward(&x, true).unwrap();
        assert_eq!(y.shape().dims(), &[1, 4]);
        let g = f.backward(&y).unwrap();
        assert_eq!(g.shape(), x.shape());
        assert_eq!(g.data(), x.data());
    }

    #[test]
    fn infer_into_matches_forward_and_reuses_the_buffer() {
        let f = Flatten::new();
        let x = Tensor::from_vec(Shape::of(&[2, 1, 1, 2]), vec![1., 2., 3., 4.]).unwrap();
        let mut out = Tensor::zeros(Shape::of(&[2, 2]));
        let buffer = out.data().as_ptr();
        f.infer_into(&x, &mut out, 0..1).unwrap();
        assert_eq!(out, Flatten::new().forward(&x, false).unwrap());
        assert_eq!(out.data().as_ptr(), buffer);
        let mut other = Tensor::zeros(Shape::of(&[1]));
        f.infer_into(&x, &mut other, 0..1).unwrap();
        assert_eq!(other, out);
        assert!(f
            .infer_into(&Tensor::zeros(Shape::of(&[4])), &mut other, 0..0)
            .is_err());
    }

    #[test]
    fn infer_into_copies_only_its_channel_range() {
        let x = Tensor::from_vec(
            Shape::of(&[2, 3, 1, 2]),
            (0..12).map(|v| v as f32).collect(),
        )
        .unwrap();
        let mut out = Tensor::full(Shape::of(&[2, 6]), -1.0);
        Flatten::new().infer_into(&x, &mut out, 1..2).unwrap();
        assert_eq!(
            out.data(),
            &[-1., -1., 2., 3., -1., -1., -1., -1., 8., 9., -1., -1.]
        );
    }

    #[test]
    fn rejects_rank1_and_premature_backward() {
        let mut f = Flatten::new();
        assert!(f.forward(&Tensor::zeros(Shape::of(&[4])), true).is_err());
        assert!(f.backward(&Tensor::zeros(Shape::of(&[1, 4]))).is_err());
    }
}

use std::ops::Range;

use stepping_tensor::{Shape, Tensor};

use crate::{NnError, Result};

/// Per-element learning-rate scaling for a parameter.
///
/// SteppingNet's weight-update suppression (paper §III-A2) reduces the
/// learning rate of weights owned by smaller subnets by `β^(j−i)` while a
/// larger subnet `j` trains. The optimizer multiplies each element's update
/// by this scale.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamLr {
    /// Every element uses the optimizer's base learning rate.
    Uniform,
    /// Element `i`'s update is scaled by `scale.data()[i]` (same shape as the
    /// parameter).
    PerElement(Tensor),
}

/// A trainable parameter: value, accumulated gradient, and learning-rate
/// scaling.
///
/// # Example
///
/// ```
/// use stepping_nn::Param;
/// use stepping_tensor::{Shape, Tensor};
///
/// let p = Param::new(Tensor::zeros(Shape::of(&[3, 3])));
/// assert_eq!(p.grad.shape(), p.value.shape());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Current value.
    pub value: Tensor,
    /// Gradient accumulated by the most recent backward pass.
    pub grad: Tensor,
    /// Per-element learning-rate scaling (see [`ParamLr`]).
    pub lr: ParamLr,
}

impl Param {
    /// Wraps a value tensor with a zeroed gradient and uniform LR.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape().clone());
        Param {
            value,
            grad,
            lr: ParamLr::Uniform,
        }
    }

    /// Zeroes the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }

    /// Sets a per-element learning-rate scale.
    ///
    /// # Panics
    ///
    /// Panics if `scale`'s shape differs from the parameter's shape.
    pub fn set_lr_scale(&mut self, scale: Tensor) {
        assert_eq!(
            scale.shape(),
            self.value.shape(),
            "lr scale shape must match parameter shape"
        );
        self.lr = ParamLr::PerElement(scale);
    }

    /// Removes any per-element learning-rate scale.
    pub fn clear_lr_scale(&mut self) {
        self.lr = ParamLr::Uniform;
    }

    /// Effective per-element scale at flat index `i` (1.0 when uniform).
    pub fn lr_scale_at(&self, i: usize) -> f32 {
        match &self.lr {
            ParamLr::Uniform => 1.0,
            ParamLr::PerElement(t) => t.data()[i],
        }
    }

    /// Reorders the parameter along one axis — value, gradient and a
    /// per-element learning-rate scale alike (see [`permute_axis`]).
    pub fn permute(&mut self, perm: &[usize], inner: usize) {
        permute_axis(self.value.data_mut(), perm, inner);
        permute_axis(self.grad.data_mut(), perm, inner);
        if let ParamLr::PerElement(scale) = &mut self.lr {
            permute_axis(scale.data_mut(), perm, inner);
        }
    }
}

/// Reorders `data`, viewed as `[outer, perm.len(), inner]`, along its middle
/// axis: slice `j` of every outer block becomes the old slice `perm[j]`.
pub fn permute_axis<T: Copy>(data: &mut [T], perm: &[usize], inner: usize) {
    let block = perm.len() * inner;
    if block == 0 {
        return;
    }
    for chunk in data.chunks_exact_mut(block) {
        let old = chunk.to_vec();
        for (dst, &src) in chunk.chunks_exact_mut(inner).zip(perm) {
            dst.copy_from_slice(&old[src * inner..(src + 1) * inner]);
        }
    }
}

/// The buffer of `out` once it holds `dims`: kept when the shape already
/// agrees (a caller's cached activation), replaced by zeros otherwise. The
/// `infer_into` methods of the stateless and batch-norm layers write their
/// result through it, so a warmed cache pays no allocation.
pub(crate) fn shaped<'a>(out: &'a mut Tensor, dims: &[usize]) -> &'a mut [f32] {
    if out.shape().dims() != dims {
        *out = Tensor::zeros(Shape::of(dims));
    }
    out.data_mut()
}

/// Writes `f(input)` into the channel range of `out` — one contiguous span
/// per image — through [`shaped`]`(out, dims)`, so `out`'s buffer is reused
/// when it already holds `dims` (the cached-activation case).
pub(crate) fn map_into(
    input: &Tensor,
    out: &mut Tensor,
    dims: &[usize],
    channels: Range<usize>,
    f: impl Fn(f32) -> f32,
) -> Result<()> {
    let channels = Channels::new(input.shape().dims(), channels)?;
    let dst = shaped(out, dims);
    for span in channels.spans() {
        for (o, &x) in dst[span.clone()].iter_mut().zip(&input.data()[span]) {
            *o = f(x);
        }
    }
    Ok(())
}

/// The channels an `infer_into` call recomputes, checked against its input
/// `[n, c, inner…]` (`inner` = 1 for `[n, c]` features). Every stateless
/// and batch-norm layer is *channel-local* — output channel `j` of an image
/// reads input channel `j` of that image and nothing else — so any channel
/// range can be recomputed alone.
#[derive(Debug, Clone)]
pub(crate) struct Channels {
    /// Images (the batch dimension).
    n: usize,
    /// Channels (or features) per image.
    pub c: usize,
    /// Elements per channel.
    pub inner: usize,
    range: Range<usize>,
}

impl Channels {
    /// Checks `range` against an input of shape `dims`.
    pub fn new(dims: &[usize], range: Range<usize>) -> Result<Self> {
        let (&n, &c) = match dims {
            [n, c, ..] => (n, c),
            _ => {
                return Err(NnError::BadInput(format!(
                    "a channel range needs a [n, c, ..] input, got rank {}",
                    dims.len()
                )))
            }
        };
        if range.start > range.end || range.end > c {
            return Err(NnError::BadInput(format!(
                "channel range {range:?} out of range for {c} channels"
            )));
        }
        Ok(Channels {
            n,
            c,
            inner: dims[2..].iter().product(),
            range,
        })
    }

    /// The range in each image as one contiguous element span.
    pub fn spans(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        let (c, inner, r) = (self.c, self.inner, &self.range);
        (0..self.n).map(move |b| (b * c + r.start) * inner..(b * c + r.end) * inner)
    }

    /// Every channel in the range, image by image, as its index `b·c + j`
    /// among the `n·c` planes of the input.
    pub fn planes(&self) -> impl Iterator<Item = usize> + '_ {
        let (c, r) = (self.c, &self.range);
        (0..self.n).flat_map(move |b| r.clone().map(move |j| b * c + j))
    }
}

/// A differentiable network layer with explicit forward/backward passes.
///
/// The trait is object-safe, so heterogeneous stacks hold boxed layers.
/// Implementations cache whatever they need during `forward` and consume it
/// in `backward`.
///
/// Contract:
/// * `forward(x, train)` — `train` selects training behaviour (batch-norm
///   batch statistics, dropout sampling); inference uses running statistics
///   and identity dropout.
/// * `backward(grad_out)` must be called after a `forward` with
///   `train == true` (an inference forward may skip the backward cache, as
///   the activations do) and a gradient of the same shape as the forward
///   output; it accumulates parameter
///   gradients (adding to `Param::grad`) and returns the gradient w.r.t. the
///   layer input.
pub trait Layer: std::fmt::Debug + Send {
    /// Human-readable layer kind (for diagnostics and error messages).
    fn name(&self) -> &'static str;

    /// Computes the layer output.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`](crate::NnError) when the input shape is invalid.
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor>;

    /// Back-propagates `grad_out`, accumulating parameter gradients, and
    /// returns the gradient with respect to the layer's input.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BackwardBeforeForward`](crate::NnError) if no
    /// forward activation is cached, or shape errors if `grad_out` does not
    /// match the forward output.
    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor>;

    /// Mutable access to the layer's trainable parameters (empty for
    /// stateless layers).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Shape of the output for a given input shape, if the layer can compute
    /// it statically (used for model summaries and MAC accounting).
    fn output_shape(&self, input: &Shape) -> Option<Shape> {
        let _ = input;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_starts_with_zero_grad_and_uniform_lr() {
        let p = Param::new(Tensor::ones(Shape::of(&[2, 2])));
        assert_eq!(p.grad.sum(), 0.0);
        assert_eq!(p.lr_scale_at(3), 1.0);
    }

    #[test]
    fn lr_scale_round_trip() {
        let mut p = Param::new(Tensor::ones(Shape::of(&[2])));
        p.set_lr_scale(Tensor::from_vec(Shape::of(&[2]), vec![0.5, 0.25]).unwrap());
        assert_eq!(p.lr_scale_at(0), 0.5);
        assert_eq!(p.lr_scale_at(1), 0.25);
        p.clear_lr_scale();
        assert_eq!(p.lr_scale_at(1), 1.0);
    }

    #[test]
    #[should_panic(expected = "lr scale shape")]
    fn lr_scale_rejects_wrong_shape() {
        let mut p = Param::new(Tensor::ones(Shape::of(&[2])));
        p.set_lr_scale(Tensor::ones(Shape::of(&[3])));
    }

    #[test]
    fn zero_grad_clears() {
        let mut p = Param::new(Tensor::ones(Shape::of(&[2])));
        p.grad.fill(5.0);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
    }
}

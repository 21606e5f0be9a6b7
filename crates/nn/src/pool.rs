//! Max and average pooling over square windows (NCHW).
//!
//! Each output is one chain over its window's taps in `(ky, kx)` order: a
//! max starts at `−∞` and takes a tap when `v > best` (so a NaN tap is
//! never taken, and of two equal taps — `−0.0` and `+0.0` among them — the
//! first one stays); an average adds from `+0.0` and multiplies the sum by
//! `1 / (kernel · kernel)`. The training `forward`s walk those chains one
//! output at a time ([`MaxPool2d`]'s recording each winner for `backward`).
//! The `infer_into` methods keep every chain as it is and only interleave
//! independent ones (`fold_windows`), so their outputs are bit-identical
//! to `forward`'s.

use std::ops::Range;

use stepping_tensor::conv::ConvGeometry;
use stepping_tensor::{Shape, Tensor};

use crate::layer::{shaped, Channels};
use crate::{Layer, NnError, Result};

fn pool_geometry(
    dims: &[usize],
    kernel: usize,
    stride: usize,
) -> Result<(usize, usize, ConvGeometry)> {
    if dims.len() != 4 {
        return Err(NnError::BadInput(format!(
            "pooling expects rank-4 NCHW input, got rank {}",
            dims.len()
        )));
    }
    let geom = ConvGeometry::new(dims[1], dims[2], dims[3], kernel, kernel, stride, 0)?;
    Ok((dims[0], dims[1], geom))
}

/// The max chain's step: take the tap when it is greater (never a NaN, and
/// the first of two equal taps stays).
fn max_step(best: f32, v: f32) -> f32 {
    if v > best {
        v
    } else {
        best
    }
}

/// Folds every `kernel × kernel` window of the listed `planes` (indices
/// `b·c + j` among the `n·c` planes) of `src` (`[n, c, in_h, in_w]`) into
/// the same planes of `dst` (`[n, c, out_h, out_w]`): each output's chain
/// starts at `init`, takes its taps through `step` in `(ky, kx)` order and
/// ends in `finish`, so it equals the one-output-at-a-time loop bit for
/// bit, while the chains of independent outputs run side by side. A 2×2 /
/// stride-2 window reads its two input rows once per output row; any other
/// sweeps each tap across the whole output row.
fn fold_windows(
    src: &[f32],
    dst: &mut [f32],
    geom: &ConvGeometry,
    (kernel, stride): (usize, usize),
    planes: impl Iterator<Item = usize>,
    (init, step, finish): (f32, impl Fn(f32, f32) -> f32, impl Fn(f32) -> f32),
) {
    let (w, in_len, out_len) = (geom.in_w, geom.in_h * geom.in_w, geom.positions());
    for plane in planes {
        let src = &src[plane * in_len..(plane + 1) * in_len];
        let dst = &mut dst[plane * out_len..(plane + 1) * out_len];
        for (oy, out) in dst.chunks_exact_mut(geom.out_w).enumerate() {
            let row = |ky: usize| &src[(oy * stride + ky) * w..][..w];
            if (kernel, stride) == (2, 2) {
                let pairs = row(0).chunks_exact(2).zip(row(1).chunks_exact(2));
                for (o, (top, bottom)) in out.iter_mut().zip(pairs) {
                    let chain = step(step(step(step(init, top[0]), top[1]), bottom[0]), bottom[1]);
                    *o = finish(chain);
                }
            } else {
                out.fill(init);
                for ky in 0..kernel {
                    let row = row(ky);
                    for kx in 0..kernel {
                        let taps = row[kx..].iter().step_by(stride);
                        for (o, &v) in out.iter_mut().zip(taps) {
                            *o = step(*o, v);
                        }
                    }
                }
                for o in out.iter_mut() {
                    *o = finish(*o);
                }
            }
        }
    }
}

/// Max pooling over square windows (NCHW).
///
/// # Example
///
/// ```
/// use stepping_nn::{Layer, MaxPool2d};
/// use stepping_tensor::{Shape, Tensor};
///
/// let mut pool = MaxPool2d::new(2, 2);
/// let x = Tensor::from_vec(Shape::of(&[1, 1, 2, 2]), vec![1., 5., 3., 2.])?;
/// assert_eq!(pool.forward(&x, true)?.data(), &[5.0]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    kernel: usize,
    stride: usize,
    /// For each output element, the flat input index that won the max.
    cached_argmax: Option<(Vec<usize>, Shape)>,
}

impl MaxPool2d {
    /// Creates a max-pool layer with square `kernel` and `stride`.
    pub fn new(kernel: usize, stride: usize) -> Self {
        MaxPool2d {
            kernel,
            stride,
            cached_argmax: None,
        }
    }

    /// Inference forward through `&self`: `forward(input, false)` written
    /// into the channel range of `out` (`0..c` is the whole level;
    /// buffer reused when its shape already matches), keeping no argmax and
    /// running the chains of independent outputs side by side (see the
    /// module docs). Channels outside the range keep what `out` held.
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
        let (n, c, geom) = pool_geometry(input.shape().dims(), self.kernel, self.stride)?;
        let channels = Channels::new(input.shape().dims(), channels)?;
        let dst = shaped(out, &[n, c, geom.out_h, geom.out_w]);
        fold_windows(
            input.data(),
            dst,
            &geom,
            (self.kernel, self.stride),
            channels.planes(),
            (f32::NEG_INFINITY, max_step, |best| best),
        );
        Ok(())
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &'static str {
        "MaxPool2d"
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
        let (n, c, geom) = pool_geometry(input.shape().dims(), self.kernel, self.stride)?;
        let (k, s, w) = (self.kernel, self.stride, geom.in_w);
        let src = input.data();
        let mut out = Tensor::zeros(Shape::of(&[n, c, geom.out_h, geom.out_w]));
        let mut argmax = vec![0usize; out.len()];
        let dst = out.data_mut();
        let mut o = 0;
        for plane in 0..n * c {
            let base = plane * geom.in_h * w;
            for oy in 0..geom.out_h {
                for ox in 0..geom.out_w {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0;
                    for ky in 0..k {
                        for kx in 0..k {
                            let idx = base + (oy * s + ky) * w + ox * s + kx;
                            if src[idx] > best {
                                best = src[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    dst[o] = best;
                    argmax[o] = best_idx;
                    o += 1;
                }
            }
        }
        self.cached_argmax = Some((argmax, input.shape().clone()));
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let (argmax, in_shape) = self
            .cached_argmax
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "MaxPool2d" })?;
        if grad_out.len() != argmax.len() {
            return Err(NnError::BadInput(format!(
                "maxpool backward got {} grads for {} outputs",
                grad_out.len(),
                argmax.len()
            )));
        }
        let mut grad_in = Tensor::zeros(in_shape.clone());
        let gd = grad_in.data_mut();
        for (o, &idx) in argmax.iter().enumerate() {
            gd[idx] += grad_out.data()[o];
        }
        Ok(grad_in)
    }

    fn output_shape(&self, input: &Shape) -> Option<Shape> {
        let (n, c, geom) = pool_geometry(input.dims(), self.kernel, self.stride).ok()?;
        Some(Shape::of(&[n, c, geom.out_h, geom.out_w]))
    }
}

/// Average pooling over square windows (NCHW).
#[derive(Debug, Clone)]
pub struct AvgPool2d {
    kernel: usize,
    stride: usize,
    cached_in_shape: Option<Shape>,
}

impl AvgPool2d {
    /// Creates an average-pool layer with square `kernel` and `stride`.
    pub fn new(kernel: usize, stride: usize) -> Self {
        AvgPool2d {
            kernel,
            stride,
            cached_in_shape: None,
        }
    }

    /// Inference forward through `&self` (see [`MaxPool2d::infer_into`]).
    ///
    /// # Errors
    ///
    /// As [`MaxPool2d::infer_into`].
    pub fn infer_into(
        &self,
        input: &Tensor,
        out: &mut Tensor,
        channels: Range<usize>,
    ) -> Result<()> {
        let (n, c, geom) = pool_geometry(input.shape().dims(), self.kernel, self.stride)?;
        let channels = Channels::new(input.shape().dims(), channels)?;
        let inv = self.inv();
        let dst = shaped(out, &[n, c, geom.out_h, geom.out_w]);
        fold_windows(
            input.data(),
            dst,
            &geom,
            (self.kernel, self.stride),
            channels.planes(),
            (0.0, |acc, v| acc + v, |acc| acc * inv),
        );
        Ok(())
    }

    /// The weight of one tap, `1 / (kernel · kernel)`.
    fn inv(&self) -> f32 {
        1.0 / (self.kernel * self.kernel) as f32
    }
}

impl Layer for AvgPool2d {
    fn name(&self) -> &'static str {
        "AvgPool2d"
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
        let (n, c, geom) = pool_geometry(input.shape().dims(), self.kernel, self.stride)?;
        let (k, s, w) = (self.kernel, self.stride, geom.in_w);
        let (src, inv) = (input.data(), self.inv());
        let mut out = Tensor::zeros(Shape::of(&[n, c, geom.out_h, geom.out_w]));
        let dst = out.data_mut();
        let mut o = 0;
        for plane in 0..n * c {
            let base = plane * geom.in_h * w;
            for oy in 0..geom.out_h {
                for ox in 0..geom.out_w {
                    let mut acc = 0.0;
                    for ky in 0..k {
                        for kx in 0..k {
                            acc += src[base + (oy * s + ky) * w + ox * s + kx];
                        }
                    }
                    dst[o] = acc * inv;
                    o += 1;
                }
            }
        }
        self.cached_in_shape = Some(input.shape().clone());
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let in_shape = self
            .cached_in_shape
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "AvgPool2d" })?
            .clone();
        let (n, c, geom) = pool_geometry(in_shape.dims(), self.kernel, self.stride)?;
        if grad_out.shape().dims() != [n, c, geom.out_h, geom.out_w] {
            return Err(NnError::BadInput(format!(
                "avgpool backward expects [{n}, {c}, {}, {}], got {}",
                geom.out_h,
                geom.out_w,
                grad_out.shape()
            )));
        }
        let (h, w) = (geom.in_h, geom.in_w);
        let inv = self.inv();
        let mut grad_in = Tensor::zeros(in_shape);
        let gd = grad_in.data_mut();
        let mut o = 0;
        for b in 0..n {
            for ch in 0..c {
                let base = (b * c + ch) * h * w;
                for oy in 0..geom.out_h {
                    for ox in 0..geom.out_w {
                        let g = grad_out.data()[o] * inv;
                        for ky in 0..self.kernel {
                            for kx in 0..self.kernel {
                                let iy = oy * self.stride + ky;
                                let ix = ox * self.stride + kx;
                                gd[base + iy * w + ix] += g;
                            }
                        }
                        o += 1;
                    }
                }
            }
        }
        Ok(grad_in)
    }

    fn output_shape(&self, input: &Shape) -> Option<Shape> {
        let (n, c, geom) = pool_geometry(input.dims(), self.kernel, self.stride).ok()?;
        Some(Shape::of(&[n, c, geom.out_h, geom.out_w]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_forward_picks_max_per_window() {
        let mut p = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(
            Shape::of(&[1, 1, 4, 4]),
            vec![
                1., 2., 5., 6., //
                3., 4., 7., 8., //
                9., 10., 13., 14., //
                11., 12., 15., 16.,
            ],
        )
        .unwrap();
        let y = p.forward(&x, true).unwrap();
        assert_eq!(y.data(), &[4., 8., 12., 16.]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let mut p = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(Shape::of(&[1, 1, 2, 2]), vec![1., 5., 3., 2.]).unwrap();
        p.forward(&x, true).unwrap();
        let g = p
            .backward(&Tensor::from_vec(Shape::of(&[1, 1, 1, 1]), vec![2.0]).unwrap())
            .unwrap();
        assert_eq!(g.data(), &[0., 2., 0., 0.]);
    }

    #[test]
    fn avgpool_forward_and_backward_spread() {
        let mut p = AvgPool2d::new(2, 2);
        let x = Tensor::from_vec(Shape::of(&[1, 1, 2, 2]), vec![1., 2., 3., 6.]).unwrap();
        let y = p.forward(&x, true).unwrap();
        assert_eq!(y.data(), &[3.0]);
        let g = p
            .backward(&Tensor::from_vec(Shape::of(&[1, 1, 1, 1]), vec![4.0]).unwrap())
            .unwrap();
        assert_eq!(g.data(), &[1., 1., 1., 1.]);
    }

    #[test]
    fn pooling_is_per_channel() {
        let mut p = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(
            Shape::of(&[1, 2, 2, 2]),
            vec![1., 2., 3., 4., 40., 30., 20., 10.],
        )
        .unwrap();
        let y = p.forward(&x, true).unwrap();
        assert_eq!(y.data(), &[4.0, 40.0]);
    }

    #[test]
    fn errors_on_bad_rank_and_premature_backward() {
        let mut p = MaxPool2d::new(2, 2);
        assert!(p.forward(&Tensor::zeros(Shape::of(&[2, 2])), true).is_err());
        assert!(p
            .backward(&Tensor::zeros(Shape::of(&[1, 1, 1, 1])))
            .is_err());
        let mut a = AvgPool2d::new(2, 2);
        assert!(a
            .backward(&Tensor::zeros(Shape::of(&[1, 1, 1, 1])))
            .is_err());
    }

    #[test]
    fn infer_into_matches_forward_and_reuses_the_buffer() {
        let x = Tensor::from_vec(
            Shape::of(&[1, 2, 2, 4]),
            (0..16).map(|v| ((v * 7) % 11) as f32 - 5.0).collect(),
        )
        .unwrap();
        let mut out = Tensor::zeros(Shape::of(&[1, 2, 1, 2]));
        let buffer = out.data().as_ptr();
        MaxPool2d::new(2, 2).infer_into(&x, &mut out, 0..2).unwrap();
        assert_eq!(out, MaxPool2d::new(2, 2).forward(&x, false).unwrap());
        AvgPool2d::new(2, 2).infer_into(&x, &mut out, 0..2).unwrap();
        assert_eq!(out, AvgPool2d::new(2, 2).forward(&x, false).unwrap());
        assert_eq!(
            out.data().as_ptr(),
            buffer,
            "matching shape writes in place"
        );
        // a mismatched target is replaced; a bad input is an error
        let mut other = Tensor::zeros(Shape::of(&[3]));
        MaxPool2d::new(2, 2)
            .infer_into(&x, &mut other, 0..2)
            .unwrap();
        assert_eq!(other, MaxPool2d::new(2, 2).forward(&x, false).unwrap());
        let flat = Tensor::zeros(Shape::of(&[2, 2]));
        assert!(AvgPool2d::new(2, 2)
            .infer_into(&flat, &mut other, 0..2)
            .is_err());
    }

    #[test]
    fn infer_into_recomputes_only_its_range() {
        let x = Tensor::from_vec(
            Shape::of(&[2, 3, 2, 2]),
            (0..24).map(|v| ((v * 5) % 13) as f32 - 6.0).collect(),
        )
        .unwrap();
        for (pool, whole) in [
            (MaxPool2d::new(2, 2).forward(&x, false).unwrap(), false),
            (AvgPool2d::new(2, 2).forward(&x, false).unwrap(), true),
        ] {
            let mut out = Tensor::full(Shape::of(&[2, 3, 1, 1]), 99.0);
            if whole {
                AvgPool2d::new(2, 2).infer_into(&x, &mut out, 1..3).unwrap();
            } else {
                MaxPool2d::new(2, 2).infer_into(&x, &mut out, 1..3).unwrap();
            }
            for (plane, (&got, &want)) in out.data().iter().zip(pool.data()).enumerate() {
                let expect = if plane % 3 == 0 { 99.0 } else { want };
                assert_eq!(got, expect, "plane {plane}");
            }
        }
        let mut out = Tensor::zeros(Shape::of(&[2, 3, 1, 1]));
        assert!(MaxPool2d::new(2, 2).infer_into(&x, &mut out, 0..4).is_err());
    }

    #[test]
    fn output_shape_matches_forward() {
        let p = MaxPool2d::new(2, 2);
        let s = p.output_shape(&Shape::of(&[3, 5, 8, 8])).unwrap();
        assert_eq!(s.dims(), &[3, 5, 4, 4]);
    }
}

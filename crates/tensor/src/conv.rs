//! `im2col`/`col2im` based 2-D convolution geometry and kernels.
//!
//! Layout conventions (all row-major):
//! * activations: `[batch, channels, height, width]` (NCHW),
//! * conv weights: `[out_channels, in_channels, kh, kw]`,
//! * `im2col` patch matrix: `[batch * oh * ow, in_channels * kh * kw]`.
//!
//! With these layouts a convolution forward pass is a single
//! [`matmul_bt`](crate::matmul::matmul_bt) against the flattened weights,
//! which is exactly how the `Conv2d` layer in `stepping-nn` is implemented.

use crate::{Result, Shape, Tensor, TensorError};

/// Static geometry of a 2-D convolution or pooling window.
///
/// # Example
///
/// ```
/// use stepping_tensor::conv::ConvGeometry;
///
/// let g = ConvGeometry::new(3, 32, 32, 3, 3, 1, 1)?;
/// assert_eq!((g.out_h, g.out_w), (32, 32)); // "same" padding
/// # Ok::<(), stepping_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvGeometry {
    /// Input channels.
    pub in_channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all four sides).
    pub padding: usize,
    /// Output height.
    pub out_h: usize,
    /// Output width.
    pub out_w: usize,
}

impl ConvGeometry {
    /// Computes output extents for the given window parameters.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] when the stride is zero or
    /// the (padded) input is smaller than the kernel.
    #[allow(
        clippy::too_many_arguments,
        reason = "one argument per convolution hyper-parameter"
    )]
    pub fn new(
        in_channels: usize,
        in_h: usize,
        in_w: usize,
        kernel_h: usize,
        kernel_w: usize,
        stride: usize,
        padding: usize,
    ) -> Result<Self> {
        if stride == 0 {
            return Err(TensorError::InvalidGeometry(
                "stride must be nonzero".into(),
            ));
        }
        if kernel_h == 0 || kernel_w == 0 {
            return Err(TensorError::InvalidGeometry(
                "kernel extents must be nonzero".into(),
            ));
        }
        let padded_h = in_h + 2 * padding;
        let padded_w = in_w + 2 * padding;
        if padded_h < kernel_h || padded_w < kernel_w {
            return Err(TensorError::InvalidGeometry(format!(
                "kernel {kernel_h}x{kernel_w} exceeds padded input {padded_h}x{padded_w}"
            )));
        }
        Ok(ConvGeometry {
            in_channels,
            in_h,
            in_w,
            kernel_h,
            kernel_w,
            stride,
            padding,
            out_h: (padded_h - kernel_h) / stride + 1,
            out_w: (padded_w - kernel_w) / stride + 1,
        })
    }

    /// Number of columns of the `im2col` patch matrix
    /// (`in_channels * kernel_h * kernel_w`).
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.kernel_h * self.kernel_w
    }

    /// Number of output spatial positions per image (`out_h * out_w`).
    pub fn positions(&self) -> usize {
        self.out_h * self.out_w
    }

    /// MAC operations of a full (unmasked, unpruned) convolution with
    /// `out_channels` filters over one input image.
    pub fn macs(&self, out_channels: usize) -> u64 {
        (self.positions() * self.patch_len() * out_channels) as u64
    }
}

/// Unfolds NCHW input into the `im2col` patch matrix.
///
/// Output shape: `[batch * out_h * out_w, patch_len]`; rows are ordered
/// batch-major, then row-major over output positions.
///
/// # Errors
///
/// Returns a shape error when the input is not `[n, c, h, w]` matching `geom`.
pub fn im2col(input: &Tensor, geom: &ConvGeometry) -> Result<Tensor> {
    let dims = input.shape().dims();
    if dims.len() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: dims.len(),
        });
    }
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    if c != geom.in_channels || h != geom.in_h || w != geom.in_w {
        return Err(TensorError::ShapeMismatch {
            expected: Shape::of(&[n, geom.in_channels, geom.in_h, geom.in_w]),
            actual: input.shape().clone(),
        });
    }
    let patch = geom.patch_len();
    let rows = n * geom.positions();
    let mut out = Tensor::zeros(Shape::of(&[rows, patch]));
    let src = input.data();
    let dst = out.data_mut();
    let pad = geom.padding as isize;
    for b in 0..n {
        for oy in 0..geom.out_h {
            for ox in 0..geom.out_w {
                let row = (b * geom.positions() + oy * geom.out_w + ox) * patch;
                let iy0 = (oy * geom.stride) as isize - pad;
                let ix0 = (ox * geom.stride) as isize - pad;
                let mut col = 0;
                for ch in 0..c {
                    let base = (b * c + ch) * h * w;
                    for ky in 0..geom.kernel_h {
                        let iy = iy0 + ky as isize;
                        for kx in 0..geom.kernel_w {
                            let ix = ix0 + kx as isize;
                            if iy >= 0 && (iy as usize) < h && ix >= 0 && (ix as usize) < w {
                                dst[row + col] = src[base + iy as usize * w + ix as usize];
                            }
                            col += 1;
                        }
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Folds an `im2col` patch-gradient matrix back onto the NCHW input gradient
/// (the adjoint of [`im2col`]); overlapping patches accumulate.
///
/// # Errors
///
/// Returns a shape error when `cols` is not
/// `[batch * out_h * out_w, patch_len]`.
pub fn col2im(cols: &Tensor, batch: usize, geom: &ConvGeometry) -> Result<Tensor> {
    let patch = geom.patch_len();
    let rows = batch * geom.positions();
    if cols.shape().dims() != [rows, patch] {
        return Err(TensorError::ShapeMismatch {
            expected: Shape::of(&[rows, patch]),
            actual: cols.shape().clone(),
        });
    }
    let (c, h, w) = (geom.in_channels, geom.in_h, geom.in_w);
    let mut out = Tensor::zeros(Shape::of(&[batch, c, h, w]));
    let src = cols.data();
    let dst = out.data_mut();
    let pad = geom.padding as isize;
    for b in 0..batch {
        for oy in 0..geom.out_h {
            for ox in 0..geom.out_w {
                let row = (b * geom.positions() + oy * geom.out_w + ox) * patch;
                let iy0 = (oy * geom.stride) as isize - pad;
                let ix0 = (ox * geom.stride) as isize - pad;
                let mut col = 0;
                for ch in 0..c {
                    let base = (b * c + ch) * h * w;
                    for ky in 0..geom.kernel_h {
                        let iy = iy0 + ky as isize;
                        for kx in 0..geom.kernel_w {
                            let ix = ix0 + kx as isize;
                            if iy >= 0 && (iy as usize) < h && ix >= 0 && (ix as usize) < w {
                                dst[base + iy as usize * w + ix as usize] += src[row + col];
                            }
                            col += 1;
                        }
                    }
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_same_padding() {
        let g = ConvGeometry::new(3, 32, 32, 3, 3, 1, 1).unwrap();
        assert_eq!((g.out_h, g.out_w), (32, 32));
        assert_eq!(g.patch_len(), 27);
        assert_eq!(g.macs(16), 32 * 32 * 27 * 16);
    }

    #[test]
    fn geometry_valid_padding_and_stride() {
        let g = ConvGeometry::new(1, 28, 28, 5, 5, 1, 0).unwrap();
        assert_eq!((g.out_h, g.out_w), (24, 24));
        let g2 = ConvGeometry::new(1, 28, 28, 2, 2, 2, 0).unwrap();
        assert_eq!((g2.out_h, g2.out_w), (14, 14));
    }

    #[test]
    fn geometry_rejects_bad_params() {
        assert!(ConvGeometry::new(1, 4, 4, 3, 3, 0, 0).is_err());
        assert!(ConvGeometry::new(1, 2, 2, 3, 3, 1, 0).is_err());
        assert!(ConvGeometry::new(1, 4, 4, 0, 3, 1, 0).is_err());
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1, no padding: im2col is a pure reshape/permute.
        let input = Tensor::from_vec(
            Shape::of(&[1, 2, 2, 2]),
            vec![1., 2., 3., 4., 5., 6., 7., 8.],
        )
        .unwrap();
        let g = ConvGeometry::new(2, 2, 2, 1, 1, 1, 0).unwrap();
        let cols = im2col(&input, &g).unwrap();
        assert_eq!(cols.shape().dims(), &[4, 2]);
        // position (0,0) gathers channel values 1 and 5
        assert_eq!(cols.row(0).unwrap().data(), &[1.0, 5.0]);
        assert_eq!(cols.row(3).unwrap().data(), &[4.0, 8.0]);
    }

    #[test]
    fn im2col_padding_zero_fills() {
        let input = Tensor::ones(Shape::of(&[1, 1, 2, 2]));
        let g = ConvGeometry::new(1, 2, 2, 3, 3, 1, 1).unwrap();
        let cols = im2col(&input, &g).unwrap();
        // top-left output position: only bottom-right 2x2 of the kernel hits data
        let r0 = cols.row(0).unwrap();
        assert_eq!(r0.data(), &[0., 0., 0., 0., 1., 1., 0., 1., 1.]);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random-ish x, y.
        let g = ConvGeometry::new(2, 5, 4, 3, 3, 2, 1).unwrap();
        let x = Tensor::from_vec(
            Shape::of(&[2, 2, 5, 4]),
            (0..80).map(|i| (i as f32 * 0.37).sin()).collect(),
        )
        .unwrap();
        let cols_shape = Shape::of(&[2 * g.positions(), g.patch_len()]);
        let y = Tensor::from_vec(
            cols_shape.clone(),
            (0..cols_shape.len())
                .map(|i| (i as f32 * 0.11).cos())
                .collect(),
        )
        .unwrap();
        let ix = im2col(&x, &g).unwrap();
        let cy = col2im(&y, 2, &g).unwrap();
        let lhs = ix.dot(&y).unwrap();
        let rhs = x.dot(&cy).unwrap();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn im2col_validates_shape() {
        let g = ConvGeometry::new(1, 4, 4, 3, 3, 1, 0).unwrap();
        let wrong = Tensor::zeros(Shape::of(&[1, 2, 4, 4]));
        assert!(im2col(&wrong, &g).is_err());
        let wrong_rank = Tensor::zeros(Shape::of(&[4, 4]));
        assert!(im2col(&wrong_rank, &g).is_err());
    }
}

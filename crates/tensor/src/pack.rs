//! Packed-panel kernels for compiled subnet execution plans.
//!
//! A SteppingNet subnet touches only a subset of each layer's neurons, yet
//! the masked reference path multiplies full-width matrices whose inactive
//! entries are zero. Neurons are stored level-major, so a subnet's inputs
//! are a prefix of each row and its outputs a contiguous range: a compiled
//! plan copies the prefix into a contiguous panel, runs a dense NT GEMM on
//! it and writes the result at a column offset. ([`microkernel::conv_packed`]
//! reads a channel prefix straight from the image and stores straight into
//! a plane range.) The index-list helpers [`gather_columns`] and
//! [`scatter_columns`] remain for callers whose columns are not a range.
//!
//! The GEMM entry point, [`gemm_packed_nt_slice`], runs the blocked,
//! register-tiled [`microkernel`] — the kernel behind
//! [`matmul_bt`](crate::matmul::matmul_bt) too — against a pre-packed
//! weight panel with an optional fused bias/activation epilogue.
//!
//! ## Bit-identity contract
//!
//! The kernel accumulates every output element sequentially in `k` from
//! `+0.0`, one rounding step per term — the per-element order of
//! [`reference_gemm`](crate::matmul::reference_gemm) (see [`microkernel`]
//! for the argument). As long as the packed columns keep their
//! ascending order, the surviving terms of each dot product are accumulated
//! in the same order as the dense path; the dropped terms are all exact
//! `±0.0` products, which can only affect the *sign* of a zero accumulator,
//! never a nonzero value. Results are therefore equal under `f32`
//! comparison (`-0.0 == 0.0`) to the masked dense path — the property
//! tests in `crates/core/tests` and `tests/` assert this across random
//! assignments.
//!
//! All `*_into` entry points write into caller-owned `Vec<f32>` scratch
//! buffers ([`PackScratch`]) so steady-state inference does zero heap
//! allocation per forward once the buffers have grown to their high-water
//! mark, and no redundant zero-fill either: buffers whose every element is
//! overwritten are grown with [`microkernel::grow`] instead of re-zeroed.

use std::ops::Range;

use crate::conv::ConvGeometry;
use crate::microkernel::{self, Epilogue, PackedB};
use crate::{Result, Shape, Tensor, TensorError};

/// Reusable scratch buffers for packed execution.
///
/// One `PackScratch` per layer (or per executor) amortises the gather /
/// GEMM-output allocations: buffers are grown without re-zeroing retained
/// capacity ([`microkernel::grow`], [`span`]) and only reallocate when a
/// call needs more capacity than any previous call — steady-state inference
/// does zero heap allocation *and* zero redundant memset per forward.
#[derive(Debug, Clone, Default)]
pub struct PackScratch {
    /// Stacked input panel (`[rows, packed_in]`).
    pub input: Vec<f32>,
    /// Packed GEMM output (`[rows, packed_out]`).
    pub out: Vec<f32>,
    /// A-panel packing scratch for the blocked microkernel.
    pub a_pack: Vec<f32>,
    /// Zero-padded copies of one image's active channel planes
    /// ([`microkernel::conv_packed`]).
    pub planes: Vec<f32>,
    /// One group of `NR` output positions' taps, `[k][NR]`
    /// ([`microkernel::conv_packed`]).
    pub groups: Vec<f32>,
    /// The two levels a pass that keeps no activations alternates between
    /// — one stage reads the one and writes the other — reshaped per stage
    /// with [`Tensor::reshape_rows`]; empty until the first such pass.
    pub levels: Vec<Tensor>,
}

/// The first `len` elements of a scratch buffer, grown — never shrunk — to
/// hold them. Every kernel that uses it overwrites what it reads back, so
/// nothing is re-zeroed when a wide call follows a narrow one through the
/// same buffer, and two callers whose sizes alternate neither allocate nor
/// memset once the larger has run (where [`microkernel::grow`] truncates
/// and zero-fills the regrown tail).
pub fn span(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

impl PackScratch {
    /// A fresh scratch with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Gathers columns `idx` of a row-major `[rows, width]` matrix into `dst`
/// (`[rows, idx.len()]`), reusing `dst`'s capacity.
///
/// # Panics
///
/// Panics if `src` is shorter than `rows * width` or any index is out of
/// bounds.
pub fn gather_columns(src: &[f32], rows: usize, width: usize, idx: &[usize], dst: &mut Vec<f32>) {
    // every element is overwritten below, so retained capacity is not
    // re-zeroed
    microkernel::grow(dst, rows * idx.len());
    let k = idx.len();
    for r in 0..rows {
        let srow = &src[r * width..(r + 1) * width];
        let drow = &mut dst[r * k..(r + 1) * k];
        for (d, &i) in drow.iter_mut().zip(idx.iter()) {
            *d = srow[i];
        }
    }
}

/// Scatters a packed `[rows, idx.len()]` matrix into columns `idx` of a
/// row-major `[rows, width]` destination. Untouched destination entries are
/// left as-is (callers pass a zeroed buffer to preserve exact-zero inactive
/// outputs).
///
/// # Panics
///
/// Panics if the slices are shorter than implied or any index is out of
/// bounds.
pub fn scatter_columns(src: &[f32], rows: usize, idx: &[usize], dst: &mut [f32], width: usize) {
    let k = idx.len();
    for r in 0..rows {
        let srow = &src[r * k..(r + 1) * k];
        let drow = &mut dst[r * width..(r + 1) * width];
        for (&v, &i) in srow.iter().zip(idx.iter()) {
            drow[i] = v;
        }
    }
}

/// `C = A · Bᵀ` through the blocked, register-tiled microkernel
/// ([`microkernel::gemm_packed`]) into a caller-sized slice
/// (`out.len() == m * b.n()`).
///
/// `a` is `[m, b.k()]`, `b` is the pre-packed weight panel, `a_pack` is the
/// A-packing scratch (typically [`PackScratch::a_pack`]), and `epi` fuses
/// bias/activation into the final tile store. Bit-identical to
/// [`reference_gemm`](crate::matmul::reference_gemm) + a separate
/// bias/activation pass — see [`microkernel`] for the argument.
///
/// # Panics
///
/// Panics if any slice is shorter than its implied extent.
pub fn gemm_packed_nt_slice(
    a: &[f32],
    b: &PackedB,
    out: &mut [f32],
    m: usize,
    a_pack: &mut Vec<f32>,
    epi: Epilogue,
) {
    microkernel::gemm_packed(a, false, b, out, m, a_pack, epi);
}

/// Unfolds the listed input channels of an NCHW tensor into an `im2col`
/// patch matrix `[batch * out_h * out_w, channels.len() * kh * kw]`, reusing
/// `dst`'s capacity.
///
/// Patch entries follow the same `[channel][ky][kx]` order as
/// [`im2col`](crate::conv::im2col) restricted to `channels`, with
/// zero-padded positions left at `0.0` — so a GEMM against a weight panel
/// gathered over the same channel list reproduces the dense convolution's
/// surviving terms in order.
///
/// # Errors
///
/// Returns a shape error when the input is not `[n, c, h, w]` matching
/// `geom`, or when a channel index is out of range.
pub fn im2col_channels_into(
    input: &Tensor,
    geom: &ConvGeometry,
    channels: &[usize],
    dst: &mut Vec<f32>,
) -> Result<()> {
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
    if let Some(&bad) = channels.iter().find(|&&ch| ch >= c) {
        return Err(TensorError::InvalidGeometry(format!(
            "channel index {bad} out of range for {c} input channels"
        )));
    }
    let window = geom.kernel_h * geom.kernel_w;
    let patch = channels.len() * window;
    // the unfold writes every entry (padding positions explicitly), so
    // retained capacity is not re-zeroed
    microkernel::grow(dst, n * geom.positions() * patch);
    let src = input.data();
    let (kh, kw) = (geom.kernel_h, geom.kernel_w);
    let (stride, pad) = (geom.stride, geom.padding);
    // Every bound is decided outside the element loop: a kernel row `ky` is
    // inside the image or not once per output row, and a kernel column `kx`
    // is inside it for one run `oxs` of output columns. The element loop
    // then walks `ox` — contiguous source, `patch`-strided destination —
    // because the contiguous destination runs are only `kw` floats long,
    // where a `copy_from_slice` per run costs more than it moves.
    let in_image = |kx: usize| -> Range<usize> {
        // 0 <= ox·stride + kx - pad < w
        let lo = pad.saturating_sub(kx).div_ceil(stride).min(geom.out_w);
        let hi = (w + pad).saturating_sub(kx).div_ceil(stride);
        lo..hi.clamp(lo, geom.out_w)
    };
    let line = geom.out_w * patch;
    for b in 0..n {
        for oy in 0..geom.out_h {
            let start = (b * geom.positions() + oy * geom.out_w) * patch;
            let block = &mut dst[start..start + line];
            // padding taps stay at the zero written here; in-image taps are
            // overwritten below
            block.fill(0.0);
            for kx in 0..kw {
                let oxs = in_image(kx);
                for ky in 0..kh {
                    let Some(iy) = (oy * stride + ky).checked_sub(pad).filter(|&iy| iy < h) else {
                        continue;
                    };
                    for (ci, &ch) in channels.iter().enumerate() {
                        let srow = &src[((b * c + ch) * h + iy) * w..][..w];
                        let col = ci * window + ky * kw + kx;
                        for ox in oxs.clone() {
                            block[ox * patch + col] = srow[ox * stride + kx - pad];
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::im2col;
    use crate::init;

    #[test]
    fn gather_scatter_roundtrip() {
        let src = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut packed = Vec::new();
        gather_columns(&src, 2, 3, &[0, 2], &mut packed);
        assert_eq!(packed, vec![1.0, 3.0, 4.0, 6.0]);
        let mut dst = vec![0.0; 6];
        scatter_columns(&packed, 2, &[0, 2], &mut dst, 3);
        assert_eq!(dst, vec![1.0, 0.0, 3.0, 4.0, 0.0, 6.0]);
    }

    /// `im2col_channels_into` must equal the dense unfold restricted to the
    /// channel list, `==` on every entry, zeros included.
    fn assert_matches_dense(g: &ConvGeometry, batch: usize, channels: &[usize], seed: u64) {
        let shape = Shape::of(&[batch, g.in_channels, g.in_h, g.in_w]);
        let x = init::uniform(shape, -1.0, 1.0, &mut init::rng(seed));
        let dense = im2col(&x, g).unwrap();
        // stale contents must all be overwritten
        let mut packed = vec![f32::NAN; 3];
        im2col_channels_into(&x, g, channels, &mut packed).unwrap();
        let window = g.kernel_h * g.kernel_w;
        let rows = batch * g.positions();
        assert_eq!(packed.len(), rows * channels.len() * window);
        for r in 0..rows {
            for (ci, &ch) in channels.iter().enumerate() {
                let got = &packed[(r * channels.len() + ci) * window..][..window];
                let want = &dense.data()[r * g.patch_len() + ch * window..][..window];
                assert_eq!(got, want, "{g:?} row {r} channel {ch}");
            }
        }
    }

    #[test]
    fn im2col_channels_matches_dense_subset() {
        let g = ConvGeometry::new(3, 5, 4, 3, 3, 1, 1).unwrap();
        assert_matches_dense(&g, 2, &[0, 2], 9);
    }

    #[test]
    fn im2col_channels_matches_dense_at_borders() {
        // (channels, h, w, kh, kw, stride, padding)
        for (i, &(c, h, w, kh, kw, stride, padding)) in [
            (2usize, 7usize, 6usize, 3usize, 3usize, 2usize, 1usize), // stride 2
            (2, 5, 6, 3, 3, 1, 0),                                    // no padding
            (3, 6, 7, 5, 5, 1, 2),                                    // 5×5 "same"
            (2, 6, 6, 5, 5, 2, 1),                                    // 5×5, stride 2
            (2, 1, 1, 3, 3, 1, 1),                                    // 1-pixel image
            (1, 1, 1, 3, 3, 2, 3), // windows wholly inside the padding
            (2, 4, 9, 1, 1, 3, 0), // 1×1 kernel, stride wider than it
            (2, 3, 8, 3, 2, 1, 1), // non-square kernel
        ]
        .iter()
        .enumerate()
        {
            let g = ConvGeometry::new(c, h, w, kh, kw, stride, padding).unwrap();
            let last = c - 1;
            assert_matches_dense(&g, 2, &[last], 20 + i as u64);
            assert_matches_dense(&g, 1, &(0..c).collect::<Vec<_>>(), 40 + i as u64);
        }
    }

    #[test]
    fn im2col_channels_validates() {
        let g = ConvGeometry::new(2, 4, 4, 3, 3, 1, 1).unwrap();
        let x = Tensor::zeros(Shape::of(&[1, 2, 4, 4]));
        let mut dst = Vec::new();
        assert!(im2col_channels_into(&x, &g, &[2], &mut dst).is_err());
        let wrong = Tensor::zeros(Shape::of(&[1, 3, 4, 4]));
        assert!(im2col_channels_into(&wrong, &g, &[0], &mut dst).is_err());
    }
}

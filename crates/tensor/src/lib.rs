//! # stepping-tensor
//!
//! Dense `f32` tensor substrate for the [SteppingNet (DATE 2023)] reproduction.
//!
//! The paper's reference implementation used PyTorch; this crate provides the
//! minimal-but-complete tensor toolkit the rest of the workspace needs:
//!
//! * [`Shape`] — n-dimensional extents with row-major strides,
//! * [`Tensor`] — owned, contiguous, row-major `f32` storage,
//! * [`matmul`] — matrix multiplication with transpose variants (the
//!   masked-reference kernels),
//! * [`microkernel`] — the blocked, register-tiled GEMM behind the packed
//!   inference paths (bit-identical to the reference kernels),
//! * [`conv`] — `im2col`/`col2im` based 2-D convolution kernels,
//! * [`reduce`] — reductions (sum/mean/max/argmax/softmax, per-axis),
//! * [`init`] — deterministic random initialisers (uniform, normal,
//!   Kaiming/Xavier fan-scaled),
//!
//! Everything is CPU-only and deterministic given a seed, which is what the
//! test suite and the benchmark harness rely on.
//!
//! ## Example
//!
//! ```
//! use stepping_tensor::{Tensor, Shape};
//!
//! let a = Tensor::from_vec(Shape::of(&[2, 3]), vec![1., 2., 3., 4., 5., 6.])?;
//! let b = Tensor::ones(Shape::of(&[3, 2]));
//! let c = stepping_tensor::matmul::matmul(&a, &b)?;
//! assert_eq!(c.shape().dims(), &[2, 2]);
//! assert_eq!(c.data()[0], 6.0);
//! # Ok::<(), stepping_tensor::TensorError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod conv;
mod error;
mod grads;
pub mod init;
pub mod matmul;
#[allow(
    unsafe_code,
    reason = "the SIMD tiers call `core::arch` intrinsics; every block names the CPU feature that was detected"
)]
pub mod microkernel;
pub mod pack;
pub mod reduce;
mod shape;
mod tensor;

pub use error::TensorError;
pub use grads::GradStore;
pub use shape::Shape;
pub use tensor::Tensor;

/// Convenience result alias used across this crate.
pub type Result<T> = std::result::Result<T, TensorError>;

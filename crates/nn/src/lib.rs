//! # stepping-nn
//!
//! Neural-network substrate for the SteppingNet (DATE 2023) reproduction:
//! layers with explicit, auditable manual backprop, optimizers, and losses.
//! This crate replaces the role PyTorch played in the paper's reference
//! implementation.
//!
//! Design choices (see `DESIGN.md` §3.5):
//!
//! * **Sequential, layer-wise backprop** instead of a tape autograd — every
//!   gradient is hand-written and verified against finite differences by
//!   property tests.
//! * **Per-element learning-rate scaling** on parameters ([`Param`]'s
//!   [`ParamLr`]) — the hook SteppingNet's weight-update suppression
//!   (`β^(j−i)`, paper §III-A2) plugs into.
//! * All layers implement the object-safe [`Layer`] trait so heterogeneous
//!   stacks compose via [`Sequential`].
//!
//! ## Example
//!
//! ```
//! use stepping_nn::{Linear, Relu, Sequential, Layer};
//! use stepping_tensor::{Shape, Tensor};
//!
//! let mut rng = stepping_tensor::init::rng(0);
//! let mut net = Sequential::new(vec![
//!     Box::new(Linear::new(4, 8, &mut rng)),
//!     Box::new(Relu::new()),
//!     Box::new(Linear::new(8, 3, &mut rng)),
//! ]);
//! let x = Tensor::zeros(Shape::of(&[2, 4]));
//! let y = net.forward(&x, true)?;
//! assert_eq!(y.shape().dims(), &[2, 3]);
//! # Ok::<(), stepping_nn::NnError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod activation;
mod conv;
mod dropout;
mod error;
mod flatten;
mod layer;
mod linear;
pub mod loss;
pub mod metrics;
mod norm;
pub mod optim;
mod pool;
pub mod schedule;
mod sequential;

pub use activation::{Relu, Sigmoid, Tanh};
pub use conv::Conv2d;
pub use dropout::Dropout;
pub use error::NnError;
pub use flatten::Flatten;
pub use layer::{permute_axis, Layer, Param, ParamLr};
pub use linear::Linear;
pub use norm::{BatchNorm1d, BatchNorm2d};
pub use pool::{AvgPool2d, MaxPool2d};
pub use sequential::Sequential;

/// Convenience result alias used across this crate.
pub type Result<T> = std::result::Result<T, NnError>;

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
//! * All layers implement the object-safe [`Layer`] trait, so a
//!   heterogeneous stack is a list of boxed layers run forward in order and
//!   backward in reverse. SteppingNet's own stack (`stepping-core`'s
//!   `Stage` list) wraps these layers beside its masked linear and
//!   convolution layers.
//!
//! ## Example
//!
//! ```
//! use stepping_nn::{Layer, Linear, Relu};
//! use stepping_tensor::{Shape, Tensor};
//!
//! let mut rng = stepping_tensor::init::rng(0);
//! let mut layers: Vec<Box<dyn Layer>> = vec![
//!     Box::new(Linear::new(4, 8, &mut rng)),
//!     Box::new(Relu::new()),
//!     Box::new(Linear::new(8, 3, &mut rng)),
//! ];
//! let mut y = Tensor::zeros(Shape::of(&[2, 4]));
//! for layer in &mut layers {
//!     y = layer.forward(&y, true)?;
//! }
//! assert_eq!(y.shape().dims(), &[2, 3]);
//! // backward visits the layers in reverse and returns ∂L/∂x
//! let mut g = Tensor::ones(y.shape().clone());
//! for layer in layers.iter_mut().rev() {
//!     g = layer.backward(&g)?;
//! }
//! assert_eq!(g.shape().dims(), &[2, 4]);
//! # Ok::<(), stepping_nn::NnError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod activation;
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

pub use activation::{Relu, Sigmoid, Tanh};
pub use dropout::Dropout;
pub use error::NnError;
pub use flatten::Flatten;
pub use layer::{permute_axis, Layer, Param, ParamLr};
pub use linear::Linear;
pub use norm::{BatchNorm1d, BatchNorm2d};
pub use pool::{AvgPool2d, MaxPool2d};

/// Convenience result alias used across this crate.
pub type Result<T> = std::result::Result<T, NnError>;

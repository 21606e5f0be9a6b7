//! # stepping-core
//!
//! The primary contribution of *SteppingNet: A Stepping Neural Network with
//! Incremental Accuracy Enhancement* (DATE 2023), reimplemented in pure Rust:
//!
//! * [`SteppingNet`] — a network whose neurons carry subnet [`Assignment`]s;
//!   subnet `k` is the set of neurons assigned `≤ k`, and the structural
//!   legality rule `assign(in) ≤ assign(out)` guarantees the **incremental
//!   property**: results of a smaller subnet are reused verbatim by larger
//!   ones.
//! * [`construct()`](construct()) — the paper's §III-A construction flow: train subnets for
//!   `m` batches, evaluate per-neuron importance
//!   `M_j^i = Σ_k α_k |∂L_k/∂r_j^k|` (eq. 2–3), move the least important
//!   neurons toward larger subnets until every subnet meets its MAC budget,
//!   with non-permanent pruning and weight-update suppression `β^(j−i)`.
//! * [`distill()`](distill()) — §III-B knowledge-distillation retraining with the
//!   combined cost `γ·L_i + (1−γ)·KL(teacher ‖ subnet)` (eq. 4).
//! * [`BatchExecutor`] — anytime inference: run the smallest subnet, then
//!   *expand* on newly available resources, computing only the neurons
//!   added by the next subnet, for a batch of requests (a lone request is a
//!   batch of one) whose per-request state is an [`ActivationCache`].
//! * [`CompiledModel`] — the immutable inference form of a net
//!   ([`SteppingNet::compile`]): every packed panel and the MAC table,
//!   shared through an `Arc` by any number of executors and threads.
//!
//! ## Example
//!
//! ```
//! use stepping_core::SteppingNetBuilder;
//! use stepping_tensor::{Shape, Tensor};
//!
//! let mut net = SteppingNetBuilder::new(Shape::of(&[4]), 2, 0)
//!     .linear(8)
//!     .relu()
//!     .build(3)?;
//! // subnet 1 costs at least as many MACs as subnet 0
//! assert!(net.macs(0, 0.0) <= net.macs(1, 0.0));
//! let logits = net.forward(&Tensor::zeros(Shape::of(&[2, 4])), 0, false)?;
//! assert_eq!(logits.shape().dims(), &[2, 3]);
//! # Ok::<(), stepping_core::SteppingError>(())
//! ```

#![warn(missing_docs)]
// Panic discipline: library code reports failures as errors. Test code is
// exempt.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![warn(missing_debug_implementations)]

mod assign;
pub mod batch;
pub mod checkpoint;
mod compiled;
pub mod construct;
pub mod distill;
mod error;
pub mod eval;
pub mod events;
pub mod hook;
mod masked;
mod masked_conv;
mod masked_linear;
mod net;
mod parts;
mod plan;
mod stage;
pub mod telemetry;
pub mod train;

pub use assign::Assignment;
pub use batch::{ActivationCache, BatchExecutor, ExpandStep};
pub use compiled::CompiledModel;
pub use construct::{
    construct, ConstructionOptions, ConstructionReport, IterationLog, SelectionCriterion,
};
pub use distill::{distill, DistillOptions, DistillReport};
pub use error::SteppingError;
pub use masked::MaskedLayer;
pub use masked_conv::MaskedConv2d;
pub use masked_linear::MaskedLinear;
pub use net::{SteppingNet, SteppingNetBuilder};
pub use plan::MacTable;
pub use stage::{FixedStage, Stage};

/// Convenience result alias used across this crate.
pub type Result<T> = std::result::Result<T, SteppingError>;

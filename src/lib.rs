//! # steppingnet
//!
//! Umbrella crate of the pure-Rust reproduction of *SteppingNet: A Stepping
//! Neural Network with Incremental Accuracy Enhancement* (DATE 2023).
//!
//! Re-exports every workspace crate under one roof:
//!
//! * [`tensor`] — dense `f32` tensors, matmul, `im2col` convolution,
//! * [`nn`] — layers with manual backprop, optimizers, losses,
//! * [`data`] — deterministic synthetic CIFAR-10/100 stand-ins,
//! * [`core`] — the paper's contribution: subnet construction by neuron
//!   reallocation, knowledge-distillation retraining, incremental anytime
//!   inference,
//! * [`models`] — LeNet-3C1L, LeNet-5, VGG-16 and width expansion,
//! * [`baselines`] — the any-width and slimmable comparison networks,
//! * [`runtime`] — the resource-varying platform simulator and the
//!   [`runtime::Session`] inference API,
//! * [`serve`] — the concurrent, deadline-aware batched serving engine,
//! * [`router`] — the scale-out front door: consistent-hash session
//!   sharding across serving replicas with sticky incremental upgrades,
//!   health breakers and graceful drain (see `docs/SERVING.md`),
//! * [`verify`] — the static invariant analyzer (rules R1–R6) and the
//!   `stepping-verify` checkpoint lint CLI,
//! * [`obs`] — structured observability: event sinks (console + JSONL),
//!   aggregation, and the `stepping-obs-report` summary CLI. Build with
//!   `--features obs` to compile telemetry emission into core (see
//!   `docs/OBSERVABILITY.md`),
//! * [`metrics`] — always-on production metrics: sharded counters, log2
//!   latency histograms, phase timers, registry snapshots (JSON +
//!   Prometheus), and the `stepping-metrics-report` diff CLI. Build with
//!   `--features metrics` to compile recording in (see `docs/METRICS.md`).
//!
//! See `README.md` for a tour and `examples/` for runnable end-to-end
//! programs; `DESIGN.md` documents the architecture and every substitution
//! made for the offline, CPU-only environment.
//!
//! ## Quickstart
//!
//! ```
//! use steppingnet::core::SteppingNetBuilder;
//! use steppingnet::tensor::{Shape, Tensor};
//!
//! let mut net = SteppingNetBuilder::new(Shape::of(&[8]), 2, 0)
//!     .linear(16)
//!     .relu()
//!     .build(4)?;
//! let logits = net.forward(&Tensor::zeros(Shape::of(&[1, 8])), 0, false)?;
//! assert_eq!(logits.shape().dims(), &[1, 4]);
//! # Ok::<(), steppingnet::core::SteppingError>(())
//! ```

#![warn(missing_docs)]

pub use stepping_baselines as baselines;
pub use stepping_core as core;
pub use stepping_data as data;
pub use stepping_metrics as metrics;
pub use stepping_models as models;
pub use stepping_nn as nn;
pub use stepping_obs as obs;
pub use stepping_router as router;
pub use stepping_runtime as runtime;
pub use stepping_serve as serve;
pub use stepping_tensor as tensor;
pub use stepping_verify as verify;

/// One-line import of the types most programs need.
///
/// ```
/// use steppingnet::prelude::*;
///
/// let net = SteppingNetBuilder::new(Shape::of(&[8]), 2, 0)
///     .linear(16)
///     .relu()
///     .build(4)?;
/// assert_eq!(net.subnet_count(), 2);
/// # Ok::<(), SteppingError>(())
/// ```
pub mod prelude {
    pub use stepping_baselines::regular_assign;
    pub use stepping_core::eval::evaluate_all;
    pub use stepping_core::train::{train_subnet, TrainOptions};
    // `core::Result` is deliberately left out: re-exporting it would shadow
    // `std::result::Result` for any program that glob-imports the prelude.
    pub use stepping_core::{
        construct, ConstructionOptions, SteppingError, SteppingNet, SteppingNetBuilder,
    };
    pub use stepping_data::{Dataset, Split};
    pub use stepping_router::{RoutedTicket, Router, RouterConfig, RouterConfigBuilder};
    pub use stepping_runtime::{DeviceModel, ResourceTrace, Session, SessionConfig, UpgradePolicy};
    pub use stepping_serve::{
        AdmissionError, Outcome, ReplicaHandle, Request, Response, ServeConfig, ServeConfigBuilder,
        ServeError, Server, ShedPolicy, Ticket,
    };
    pub use stepping_tensor::{init, Shape, Tensor};
}

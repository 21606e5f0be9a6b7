//! # stepping-runtime
//!
//! Resource-varying platform simulator and anytime-inference driver for the
//! SteppingNet (DATE 2023) reproduction.
//!
//! The paper motivates SteppingNet with mobile phones and autonomous
//! vehicles whose compute budget changes while inference runs. This crate
//! simulates that deployment environment:
//!
//! * [`ResourceTrace`] — deterministic per-timeslice MAC budgets (constant,
//!   power-mode steps, random walk, bursty),
//! * [`DeviceModel`] — MACs → latency conversion,
//! * [`Policy`] — the anytime step decision, written once and pure: at a
//!   level, with MACs banked and the last answer's top-1 probability, step
//!   to which level at what cost under the [`UpgradePolicy`], or [`Stop`]
//!   for the budget, the top subnet or confidence; `Policy::reach` is its
//!   greedy fold, which a server's upgrade admission calls,
//! * [`SessionConfig`] / [`Session`] — the unified inference API. One
//!   builder configures prune threshold, upgrade policy, device model,
//!   resource trace, confidence threshold, and start subnet; one
//!   [`Session`] — a `BatchExecutor` over one request's cache — then
//!   exposes every run mode, each the same loop over a budget iterator
//!   asking the [`Policy`]:
//!   [`run`](Session::run) / [`run_until_deadline`](Session::run_until_deadline)
//!   — the on-the-fly decision loop: bank budget, produce the smallest
//!   subnet's prediction early, and expand whenever the next step becomes
//!   affordable, under either the reuse-everything
//!   [`UpgradePolicy::Incremental`] or the baseline
//!   [`UpgradePolicy::Recompute`];
//!   [`run_live`](Session::run_live) — the same loop against a *threaded*
//!   resource producer with a lock-protected [`LatestPrediction`] cell for
//!   concurrent observers;
//!   [`run_until_confident`](Session::run_until_confident) —
//!   confidence-gated early exit (the BranchyNet-style policy), which
//!   composes naturally with the stepping structure because each additional
//!   opinion costs only the new neurons.
//!
//! ## Example
//!
//! ```
//! use stepping_core::SteppingNetBuilder;
//! use stepping_runtime::{ResourceTrace, Session, SessionConfig};
//! use stepping_tensor::{Shape, Tensor};
//!
//! let mut net = SteppingNetBuilder::new(Shape::of(&[4]), 2, 0)
//!     .linear(6).relu().build(3)?;
//! net.move_neuron(0, 5, 1)?;
//! let config = SessionConfig::new()
//!     .trace(ResourceTrace::constant(net.macs(1, 0.0), 3));
//! let out = Session::new(&net, config)
//!     .run(&Tensor::zeros(Shape::of(&[1, 4])))?;
//! assert_eq!(out.final_subnet, Some(1));
//! # Ok::<(), stepping_core::SteppingError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod confidence;
mod device;
mod driver;
mod live;
mod policy;
mod session;
mod trace;

pub use confidence::ConfidentOutcome;
pub use device::DeviceModel;
pub use driver::{expand_macs, DriveOutcome, SliceLog, UpgradePolicy};
pub use live::LatestPrediction;
pub use policy::{Decision, Policy, Stop};
pub use session::{Session, SessionConfig};
pub use trace::ResourceTrace;

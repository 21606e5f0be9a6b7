//! # stepping-verify
//!
//! Static invariant analyzer for SteppingNet stepping networks: takes a
//! [`SteppingNet`] or a serialized checkpoint
//! and — **without running inference** — rebuilds the synapse dependency
//! graph from the masks and [`Assignment`](stepping_core::Assignment)s and
//! checks seven rules:
//!
//! | rule | checks |
//! |------|--------|
//! | R1 | incremental property: stored input assignments equal the derived upstream chain, so `assign(in) ≤ assign(out)` legality is computed from true data |
//! | R2 | subnet nesting and unused-pool consistency (value ranges, uniform subnet counts, fresh feature assignment) |
//! | R3 | per-subnet MAC counts within configured budgets `P_i` |
//! | R4 | mask/weight shape agreement; no sub-threshold weight still mask-active |
//! | R5 | dead neurons (no active incoming synapses) and unreachable per-subnet heads |
//! | R6 | checkpoint round-trip stability (`save → load` reproduces assignments and bytes) |
//! | R7 | level-major order: index order equals `(assign, index)` order in every masked layer |
//!
//! Findings are structured [`Violation`]s (rule id, severity, stage /
//! neuron / synapse coordinates, fix hint) collected in a [`Report`] that
//! renders either rustc-style text or machine-readable JSON.
//!
//! ## Entry points
//!
//! * [`analyze`] — rules R1–R5 and R7 over an in-memory network,
//! * [`check_roundtrip`] / [`check_blob`] — rule R6 over checkpoints,
//! * `stepping-verify` — the CLI binary: verify a checkpoint file against
//!   an architecture preset,
//! * [`install_analyzer_gate`] — register the full analyzer as
//!   `stepping-core`'s invariant hook, so builds with the
//!   `verify-invariants` feature run it after every construction iteration
//!   and on every checkpoint load.
//!
//! ## Example
//!
//! ```
//! use stepping_core::SteppingNetBuilder;
//! use stepping_tensor::Shape;
//! use stepping_verify::{analyze, AnalyzerOptions};
//!
//! let net = SteppingNetBuilder::new(Shape::of(&[8]), 2, 0)
//!     .linear(16)
//!     .relu()
//!     .build(4)?;
//! let report = analyze(&net, &AnalyzerOptions::default());
//! assert!(report.violations.is_empty());
//! # Ok::<(), stepping_core::SteppingError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod analyzer;
mod diagnostics;
mod roundtrip;

pub use analyzer::{analyze, AnalyzerOptions};
pub use diagnostics::{Location, Report, Rule, Severity, Violation};
pub use roundtrip::{check_blob, check_roundtrip, digest};

use stepping_core::{Result, SteppingError, SteppingNet};

/// The hook body installed by [`install_analyzer_gate`]: runs the full
/// R1–R5 and R7 analysis and fails on any error-severity violation.
fn analyzer_hook(net: &SteppingNet) -> Result<()> {
    let report = analyze(net, &AnalyzerOptions::default());
    if report.is_clean() {
        Ok(())
    } else {
        Err(SteppingError::InvalidStructure(format!(
            "invariant analyzer found violations:\n{}",
            report.render_text()
        )))
    }
}

/// Registers the full static analyzer as `stepping-core`'s invariant hook.
///
/// When the workspace is built with the `verify-invariants` feature,
/// `construct()` then re-verifies the network after every reallocation
/// iteration and `checkpoint::load_state` re-verifies every loaded
/// checkpoint — catching structure corruption the moment it happens
/// instead of at inference time. Without the feature the hook is never
/// invoked and this call only records the function pointer.
///
/// Returns `false` if another hook was already installed (the first
/// installation wins for the lifetime of the process).
pub fn install_analyzer_gate() -> bool {
    stepping_core::hook::install_invariant_hook(analyzer_hook)
}

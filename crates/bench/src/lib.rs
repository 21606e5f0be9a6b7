//! # stepping-bench
//!
//! Experiment harness regenerating every table and figure of the SteppingNet
//! paper (DATE 2023) on the pure-Rust substrate:
//!
//! | Artefact | Binary | What it reproduces |
//! |---|---|---|
//! | Table I  | `table1` | accuracy + `M_i/M_t` of 4 subnets on 3 networks |
//! | Fig. 6   | `fig6`   | SteppingNet vs any-width vs slimmable at equal MACs |
//! | Fig. 7   | `fig7`   | accuracy under different width-expansion ratios |
//! | Fig. 8   | `fig8`   | ± weight-update suppression / ± knowledge distillation |
//! | (extra)  | `reuse`  | incremental vs from-scratch expansion cost |
//! | (extra)  | `ablations` | sensitivity to β, γ, α growth, head warm-start and the selection criterion |
//! | (extra)  | `plans`  | packed vs masked inference cost per subnet, with the MAC, chain and bit-identity gates |
//!
//! The paper binaries (`table1`, `fig6`–`fig8`, `reuse`) honour
//! `STEPPING_SCALE` = `quick` (minutes, default) / `standard` / `full`
//! (hours): the construction algorithm is scale-free, so smaller widths and
//! datasets preserve the qualitative shape of every result (see `DESIGN.md`
//! §3.6 on substitutions). `plans` takes `STEPPING_PLANS_REPS` instead.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cases;
pub mod observe;
pub mod pipeline;
pub mod report;

pub use cases::{ExperimentScale, TestCase};
pub use pipeline::{run_any_width, run_slimmable, run_steppingnet, BaselineResult, PipelineResult};
pub use report::{ascii_plot, format_pct, print_table, render_table, Series};

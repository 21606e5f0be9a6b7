//! # stepping-serve
//!
//! A multi-threaded, deadline-aware serving engine for the SteppingNet
//! (DATE 2023) reproduction — the deployment story the paper motivates,
//! turned into a server:
//!
//! * **Concurrency** — a [`Server`] owns a pool of worker threads that
//!   share one immutable
//!   [`CompiledModel`](stepping_core::CompiledModel) of the
//!   [`SteppingNet`](stepping_core::SteppingNet), each through an executor
//!   and scratch buffers of its own;
//!   clients [`submit`](Server::submit) from any number of threads and
//!   block only on their own [`Ticket`].
//! * **Sharded batch lanes** — every batch key (one target subnet, or the
//!   level an upgrade starts from) owns its own bounded lane with its own
//!   lock; workers scan lock-free scheduling hints and claim whole lanes,
//!   so pushes and claims on different keys never contend.
//! * **Work-conserving dispatch** — a free worker claims the most urgent
//!   non-empty lane at once; a batch is whatever queued while the workers
//!   were busy. One push wakes one parked worker; the others stay parked.
//! * **EDF scheduling** — a [`Request::with_budget`] carries a microsecond
//!   budget; the scheduler converts it to a MAC budget via the configured
//!   [`DeviceModel`](stepping_runtime::DeviceModel), picks the largest
//!   subnet that fits, and orders the lanes earliest-deadline-first so
//!   expiring requests are served ahead of later-deadline batches.
//! * **Admission control** — lanes are bounded
//!   ([`lane_capacity`](ServeConfigBuilder::lane_capacity)); under load the
//!   [`ShedPolicy`] downgrades a request to the largest subnet that still
//!   fits (the nested-subnet property makes the cheaper answer free), sheds
//!   an upgrade to its session cache, or refuses with a typed
//!   [`AdmissionError`]. Each [`Response::outcome`] reports how the request
//!   was actually served.
//! * **Micro-batching** — compatible requests in one lane are fused into
//!   **one** batched pass over the network. Every kernel in this workspace
//!   computes batch rows independently, so each request's logits stay
//!   bit-identical to running it alone — batching buys throughput without
//!   changing a single answer.
//! * **Incremental upgrades** — every response retains the request's
//!   activation cache in a session table;
//!   [`upgrade`](Server::upgrade) steps a session to a larger subnet
//!   paying only the newly added neurons plus the new head (the paper's
//!   incremental property, per request). The response reports the
//!   cache-reuse ratio.
//! * **Replica lifecycle** — [`Server::drain`] refuses *new* sessions
//!   while still serving queued work and upgrades of existing ones (their
//!   activation caches live on this replica and nowhere else), and the
//!   [`ReplicaHandle`] trait is the surface a scale-out front door
//!   (`stepping-router`) drives: submit/upgrade/release plus the
//!   drain → shutdown lifecycle.
//!
//! Configuration is two-layered: the runtime's
//! [`SessionConfig`](stepping_runtime::SessionConfig) supplies the
//! inference-side knobs; [`ServeConfig::builder`] adds workers,
//! `max_batch`, and the admission bound + shed policy. See
//! `docs/SERVING.md` for the lane architecture, the deadline math, and the
//! migration guide from the pre-0.7 API.

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

mod admission;
mod config;
mod lane;
mod metrics;
mod replica;
mod request;
mod server;
mod stats;

pub use admission::{AdmissionError, ServeError};
pub use config::{ServeConfig, ServeConfigBuilder, ShedPolicy};
pub use replica::ReplicaHandle;
pub use request::{Outcome, Request, Response, Ticket};
pub use server::Server;
pub use stats::ServerStats;

//! # stepping-exec
//!
//! A shared, deterministic data-parallel execution engine for the training
//! side of the SteppingNet workspace.
//!
//! Three pieces compose the determinism story:
//!
//! * [`ParallelConfig::shard_ranges`] — a **canonical shard decomposition**
//!   that is a pure function of the batch row count and the configured shard
//!   size. The thread count never influences where shard boundaries fall.
//! * [`ExecPool`] — a persistent worker pool (built on `std::sync::mpsc`
//!   bounded channels, mirroring the hand-rolled pool in
//!   `stepping-serve`) that executes indexed jobs and returns their results
//!   **in job-index order**, regardless of which worker ran which job or in
//!   what order they finished. Worker panics are caught and surfaced as
//!   typed [`PoolError`]s instead of aborting the process.
//! * [`tree_reduce`] — a **fixed-order pairwise tree reduction**: partial
//!   results are merged `(0,1) (2,3) …` level by level, so the floating-point
//!   association of the merged sum depends only on the number of shards,
//!   never on scheduling.
//!
//! Together these give the bit-identity guarantee the workspace's trainers
//! rely on: for a fixed [`ParallelConfig`] shard geometry, the merged
//! gradient (and every weight after the optimizer step) is identical under
//! `f32 ==` for *any* thread count, because every shard's computation depends
//! only on (master weights, shard rows) and the merge order is fixed. See
//! `docs/PARALLELISM.md` for the full argument.

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

pub mod pool;
pub mod reduce;

pub use pool::{ExecPool, Job, PoolError};
pub use reduce::tree_reduce;

use std::ops::Range;

/// How training batches are sharded across replica workers.
///
/// The decomposition ([`ParallelConfig::shard_ranges`]) depends only on
/// `shard_rows`/`min_rows` and the batch row count — **never** on
/// `threads`. Changing `threads` therefore changes scheduling only, which is
/// what makes parallel training bit-identical across thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker threads. `1` executes the same canonical shards inline on the
    /// calling thread (the sequential reference).
    pub threads: usize,
    /// Target rows per shard. `0` disables sharding: every batch is a single
    /// shard, which degenerates bitwise to the legacy single-threaded path.
    pub shard_rows: usize,
    /// Batches with fewer rows than this run as one shard (tiny-batch
    /// fallback to the sequential path).
    pub min_rows: usize,
}

impl Default for ParallelConfig {
    /// The sequential reference: one thread, whole-batch shards. With this
    /// config every trainer in the workspace computes exactly what it
    /// computed before the engine existed.
    fn default() -> Self {
        ParallelConfig::sequential()
    }
}

impl ParallelConfig {
    /// Sequential configuration: single thread, single whole-batch shard.
    pub fn sequential() -> Self {
        ParallelConfig {
            threads: 1,
            shard_rows: 0,
            min_rows: 0,
        }
    }

    /// Parallel configuration with `threads` workers and the default shard
    /// geometry (8 rows per shard, no tiny-batch floor).
    pub fn new(threads: usize) -> Self {
        ParallelConfig {
            threads,
            shard_rows: 8,
            min_rows: 0,
        }
    }

    /// Reads `STEPPING_THREADS` (default 1) and `STEPPING_SHARD_ROWS`
    /// (default 8). The shard geometry is fixed regardless of the thread
    /// count, so results are identical across a `STEPPING_THREADS` matrix.
    pub fn from_env() -> Self {
        let threads = std::env::var("STEPPING_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&t: &usize| t > 0)
            .unwrap_or(1);
        let shard_rows = std::env::var("STEPPING_SHARD_ROWS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(8);
        ParallelConfig {
            threads,
            shard_rows,
            min_rows: 0,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description when `threads` is zero.
    pub fn validate(&self) -> Result<(), String> {
        if self.threads == 0 {
            return Err("parallel threads must be nonzero".into());
        }
        Ok(())
    }

    /// The canonical shard decomposition of a batch with `rows` rows:
    /// consecutive chunks of `shard_rows` (the last may be short). A pure
    /// function of `(rows, shard_rows, min_rows)` — thread count plays no
    /// part.
    #[deny(clippy::disallowed_types, clippy::disallowed_methods)]
    pub fn shard_ranges(&self, rows: usize) -> Vec<Range<usize>> {
        if rows == 0 {
            return Vec::new();
        }
        if self.shard_rows == 0 || rows <= self.shard_rows || rows < self.min_rows {
            let whole = 0..rows;
            return vec![whole];
        }
        let mut out = Vec::with_capacity(rows.div_ceil(self.shard_rows));
        let mut lo = 0;
        while lo < rows {
            let hi = (lo + self.shard_rows).min(rows);
            out.push(lo..hi);
            lo = hi;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sequential_single_shard() {
        let c = ParallelConfig::default();
        assert_eq!(c, ParallelConfig::sequential());
        assert_eq!(c.shard_ranges(32), vec![0..32]);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn shard_ranges_cover_batch_exactly() {
        let c = ParallelConfig {
            threads: 3,
            shard_rows: 8,
            min_rows: 0,
        };
        let r = c.shard_ranges(20);
        assert_eq!(r, vec![0..8, 8..16, 16..20]);
        assert_eq!(c.shard_ranges(8), vec![0..8]);
        assert_eq!(c.shard_ranges(0), Vec::<Range<usize>>::new());
    }

    #[test]
    fn shard_ranges_ignore_thread_count() {
        for threads in [1usize, 2, 3, 8] {
            let c = ParallelConfig {
                threads,
                shard_rows: 4,
                min_rows: 0,
            };
            assert_eq!(c.shard_ranges(10), vec![0..4, 4..8, 8..10]);
        }
    }

    #[test]
    fn min_rows_forces_single_shard() {
        let c = ParallelConfig {
            threads: 4,
            shard_rows: 4,
            min_rows: 16,
        };
        assert_eq!(c.shard_ranges(10), vec![0..10]);
        assert_eq!(c.shard_ranges(16).len(), 4);
    }

    #[test]
    fn zero_threads_rejected() {
        let c = ParallelConfig {
            threads: 0,
            shard_rows: 8,
            min_rows: 0,
        };
        assert!(c.validate().is_err());
    }
}

//! Deterministic data-parallel training driver built on `stepping-exec`.
//!
//! [`ParallelRunner`] owns a persistent [`ExecPool`] and runs the
//! zero-grad → forward → loss → backward section of one training batch,
//! sharded across replica networks:
//!
//! 1. the batch is cut into the **canonical shards** of
//!    [`ParallelConfig::shard_ranges`] (a pure function of the row count —
//!    never of the thread count);
//! 2. each shard job clones the master network, runs forward/backward on its
//!    rows only, and exports its gradient ([`SteppingNet::export_grads`]) and
//!    importance contribution;
//! 3. shard results — always presented in shard-index order — are merged with
//!    the fixed-order pairwise [`tree_reduce`], and the merged gradient is
//!    imported back into the master.
//!
//! Because every shard's computation depends only on (master weights, shard
//! rows) and the merge order is a pure function of the shard count, the
//! accumulated gradient — and every weight after the caller's optimizer
//! step — is bit-identical (`f32 ==`) for *any* thread count. See
//! `docs/PARALLELISM.md` for the full argument and the places where the
//! sharded semantics intentionally differ from the legacy whole-batch path.
//!
//! Two degeneracies guarantee backwards compatibility:
//!
//! * a single-shard batch (the [`ParallelConfig::default`] geometry, a tiny
//!   batch under `min_rows`, or `shard_rows == 0`) runs the exact legacy
//!   inline path on the master net — no clone, no scaling, bitwise identical
//!   to the pre-engine trainers;
//! * a network that is not shard-decomposable in training mode (batch norm's
//!   batch statistics, dropout's RNG stream — see
//!   [`SteppingNet::train_parallel_safe`]) always falls back to that same
//!   single-shard path, which keeps the thread-count-invariance property
//!   even for those architectures.

use std::sync::Arc;

use stepping_exec::reduce::tree_reduce_ops;
use stepping_exec::{tree_reduce, ExecPool, Job, ParallelConfig};
use stepping_nn::loss;
use stepping_tensor::{GradStore, Tensor};

use crate::events::event;
use crate::telemetry::{self, Phase, Value};
use crate::{Result, SteppingError, SteppingNet};

/// Which loss drives one training batch.
#[derive(Debug, Clone, Copy)]
pub enum BatchLoss<'a> {
    /// Plain cross-entropy against integer targets.
    CrossEntropy,
    /// Knowledge distillation (paper eq. 4): `γ·CE + (1−γ)·KL(teacher ‖ s)`.
    Distill {
        /// Teacher softmax probabilities for the whole batch, `[n, classes]`.
        teacher_probs: &'a Tensor,
        /// Cross-entropy weight `γ`.
        gamma: f32,
    },
}

/// What one [`ParallelRunner::train_batch`] call produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchOutcome {
    /// The batch training loss (mean over the batch, merged across shards in
    /// fixed tree order).
    pub loss: f32,
    /// The cross-entropy component, when requested (`want_ce`); for
    /// [`BatchLoss::CrossEntropy`] this equals `loss`.
    pub ce: Option<f32>,
}

/// Everything a shard job sends back for merging.
struct ShardOut {
    grads: GradStore,
    importance: Vec<Vec<f64>>,
    loss: f32,
    ce: f32,
}

/// A persistent deterministic data-parallel training driver.
///
/// Create one per training run (the worker pool is reused across batches) and
/// call [`ParallelRunner::train_batch`] where the trainer previously ran
/// zero-grad / forward / loss / backward inline. The optimizer step stays
/// with the caller, on the master network.
#[derive(Debug)]
pub struct ParallelRunner {
    pool: ExecPool,
    config: ParallelConfig,
    phase: Phase,
}

impl ParallelRunner {
    /// Builds a runner (spawning `config.threads` persistent workers) that
    /// tags its telemetry with `phase` ([`crate::events::phase::TRAINING`] or
    /// [`crate::events::phase::CONSTRUCTION`]).
    ///
    /// # Errors
    ///
    /// Returns [`SteppingError::BadConfig`] for an invalid configuration.
    pub fn new(config: ParallelConfig, phase: Phase) -> Result<Self> {
        config.validate().map_err(SteppingError::BadConfig)?;
        let pool = ExecPool::new(config.threads);
        if telemetry::enabled() {
            telemetry::point(
                phase,
                event::POOL_SPAWN,
                &[
                    ("threads", Value::U64(pool.threads() as u64)),
                    ("shard_rows", Value::U64(config.shard_rows as u64)),
                    ("min_rows", Value::U64(config.min_rows as u64)),
                ],
            );
        }
        Ok(ParallelRunner {
            pool,
            config,
            phase,
        })
    }

    /// The configuration this runner shards with.
    pub fn config(&self) -> ParallelConfig {
        self.config
    }

    /// The underlying worker pool (shared with evaluation helpers).
    pub fn pool(&self) -> &ExecPool {
        &self.pool
    }

    /// Runs the gradient-accumulation section of one training batch:
    /// zero-grad, forward (training mode), loss, backward. On return the
    /// master `net` holds the merged gradients (and merged importance
    /// contributions) exactly as if the canonical shard decomposition had
    /// been computed on one thread; the caller performs the optimizer step.
    ///
    /// `want_ce` additionally reports the cross-entropy component (used by
    /// distillation telemetry); it costs an extra loss evaluation per shard
    /// for [`BatchLoss::Distill`].
    ///
    /// # Errors
    ///
    /// Propagates forward/backward/loss errors from any shard and surfaces
    /// worker panics as [`SteppingError::Worker`].
    #[deny(clippy::disallowed_types, clippy::disallowed_methods)]
    pub fn train_batch(
        &self,
        net: &mut SteppingNet,
        x: &Tensor,
        y: &[usize],
        subnet: usize,
        batch_loss: BatchLoss<'_>,
        want_ce: bool,
    ) -> Result<BatchOutcome> {
        let rows = x.shape().dims().first().copied().unwrap_or(0);
        if rows != y.len() {
            return Err(SteppingError::BadConfig(format!(
                "batch has {rows} rows but {} targets",
                y.len()
            )));
        }
        let ranges = self.config.shard_ranges(rows);
        if ranges.len() <= 1 {
            return inline_batch(net, x, y, subnet, batch_loss, want_ce);
        }
        if !net.train_parallel_safe() {
            telemetry::counter(
                self.phase,
                event::POOL_FALLBACK,
                1,
                &[("reason", Value::Str("shard-unsafe stage"))],
            );
            return inline_batch(net, x, y, subnet, batch_loss, want_ce);
        }
        let shards = ranges.len();
        let spawn_span = telemetry::span(self.phase, event::POOL_SPAWN);
        let master = Arc::new(net.clone());
        let inv_rows = 1.0f32 / rows as f32;
        let phase = self.phase;
        let mut jobs: Vec<Job<Result<ShardOut>>> = Vec::with_capacity(shards);
        for r in &ranges {
            let xs = x.slice_outer(r.start, r.end)?;
            let ys = y[r.clone()].to_vec();
            let shard_loss = match batch_loss {
                BatchLoss::CrossEntropy => None,
                BatchLoss::Distill {
                    teacher_probs,
                    gamma,
                } => Some((teacher_probs.slice_outer(r.start, r.end)?, gamma)),
            };
            let m = Arc::clone(&master);
            telemetry::counter(
                phase,
                event::POOL_SHARD_ROWS,
                (r.end - r.start) as u64,
                &[("subnet", Value::U64(subnet as u64))],
            );
            jobs.push(Box::new(move || -> Result<ShardOut> {
                let shard_span = telemetry::span(phase, event::POOL_SHARD);
                let m_s = xs.shape().dims()[0];
                let weight = m_s as f32 * inv_rows;
                let mut replica = (*m).clone();
                replica.zero_grad();
                replica.reset_importance();
                let logits = replica.forward(&xs, subnet, true)?;
                let ce = if want_ce {
                    let (c, _) = loss::cross_entropy(&logits, &ys).map_err(SteppingError::Nn)?;
                    c * weight
                } else {
                    0.0
                };
                let (l, mut dlogits) = match &shard_loss {
                    None => loss::cross_entropy(&logits, &ys).map_err(SteppingError::Nn)?,
                    Some((tp, gamma)) => {
                        loss::distillation(&logits, tp, &ys, *gamma).map_err(SteppingError::Nn)?
                    }
                };
                // Per-shard losses divide by the shard row count; rescale so
                // the merged gradient/loss is the batch mean.
                dlogits.scale(weight);
                replica.backward(&dlogits)?;
                let out = ShardOut {
                    grads: replica.export_grads(subnet)?,
                    importance: replica.export_importance(),
                    loss: l * weight,
                    ce,
                };
                shard_span.end(&[("rows", Value::U64(m_s as u64))]);
                Ok(out)
            }));
        }
        let results = self.pool.run(jobs)?;
        spawn_span.end(&[
            ("shards", Value::U64(shards as u64)),
            ("rows", Value::U64(rows as u64)),
            ("subnet", Value::U64(subnet as u64)),
        ]);
        let outs: Vec<ShardOut> = results.into_iter().collect::<Result<Vec<_>>>()?;

        let reduce_span = telemetry::span(self.phase, event::POOL_REDUCE);
        let mut merge_err: Option<SteppingError> = None;
        let merged = tree_reduce(outs, |a, b| {
            if merge_err.is_none() {
                if let Err(e) = a.grads.add_assign(&b.grads) {
                    merge_err = Some(e.into());
                    return;
                }
                for (ai, bi) in a.importance.iter_mut().zip(b.importance) {
                    for (av, bv) in ai.iter_mut().zip(bi) {
                        *av += bv;
                    }
                }
                a.loss += b.loss;
                a.ce += b.ce;
            }
        })
        .ok_or_else(|| SteppingError::Worker("no shard results to merge".into()))?;
        if let Some(e) = merge_err {
            return Err(e);
        }
        telemetry::counter(
            self.phase,
            event::POOL_REDUCE_OPS,
            tree_reduce_ops(shards),
            &[("shards", Value::U64(shards as u64))],
        );

        net.zero_grad();
        net.import_grads(subnet, &merged.grads)?;
        net.add_importance(&merged.importance)?;
        reduce_span.end(&[
            ("shards", Value::U64(shards as u64)),
            ("grad_slots", Value::U64(merged.grads.len() as u64)),
        ]);
        Ok(BatchOutcome {
            loss: merged.loss,
            ce: want_ce.then_some(merged.ce),
        })
    }
}

/// The exact legacy single-threaded batch section, run on the master net.
fn inline_batch(
    net: &mut SteppingNet,
    x: &Tensor,
    y: &[usize],
    subnet: usize,
    batch_loss: BatchLoss<'_>,
    want_ce: bool,
) -> Result<BatchOutcome> {
    net.zero_grad();
    let logits = net.forward(x, subnet, true)?;
    match batch_loss {
        BatchLoss::CrossEntropy => {
            let (l, dlogits) = loss::cross_entropy(&logits, y).map_err(SteppingError::Nn)?;
            net.backward(&dlogits)?;
            Ok(BatchOutcome {
                loss: l,
                ce: want_ce.then_some(l),
            })
        }
        BatchLoss::Distill {
            teacher_probs,
            gamma,
        } => {
            let ce = if want_ce {
                let (c, _) = loss::cross_entropy(&logits, y).map_err(SteppingError::Nn)?;
                Some(c)
            } else {
                None
            };
            let (l, dlogits) =
                loss::distillation(&logits, teacher_probs, y, gamma).map_err(SteppingError::Nn)?;
            net.backward(&dlogits)?;
            Ok(BatchOutcome { loss: l, ce })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::phase;
    use crate::SteppingNetBuilder;
    use stepping_data::{Dataset, GaussianBlobs, GaussianBlobsConfig, Split};
    use stepping_nn::optim::Sgd;
    use stepping_tensor::Shape;

    fn data() -> GaussianBlobs {
        GaussianBlobs::new(
            GaussianBlobsConfig {
                classes: 3,
                features: 8,
                train_per_class: 20,
                test_per_class: 5,
                separation: 3.0,
                noise_std: 0.5,
            },
            13,
        )
        .unwrap()
    }

    fn mlp() -> SteppingNet {
        SteppingNetBuilder::new(Shape::of(&[8]), 2, 3)
            .linear(16)
            .relu()
            .linear(12)
            .relu()
            .build(3)
            .unwrap()
    }

    fn grads_of(net: &mut SteppingNet, subnet: usize) -> GradStore {
        net.export_grads(subnet).unwrap()
    }

    #[test]
    fn sequential_config_matches_legacy_inline_path() {
        let d = data();
        let (x, y) = d.batch(Split::Train, &(0..24).collect::<Vec<_>>()).unwrap();
        let mut a = mlp();
        let mut b = mlp();
        let runner = ParallelRunner::new(ParallelConfig::sequential(), phase::TRAINING).unwrap();
        let out = runner
            .train_batch(&mut a, &x, &y, 0, BatchLoss::CrossEntropy, false)
            .unwrap();
        // legacy path by hand
        b.zero_grad();
        let logits = b.forward(&x, 0, true).unwrap();
        let (l, dlogits) = loss::cross_entropy(&logits, &y).unwrap();
        b.backward(&dlogits).unwrap();
        assert_eq!(out.loss.to_bits(), l.to_bits());
        assert_eq!(grads_of(&mut a, 0), grads_of(&mut b, 0));
    }

    #[test]
    fn sharded_training_is_thread_count_invariant() {
        let d = data();
        let (x, y) = d.batch(Split::Train, &(0..20).collect::<Vec<_>>()).unwrap();
        let mut reference: Option<(GradStore, f32)> = None;
        for threads in [1usize, 2, 3, 8] {
            let mut net = mlp();
            let cfg = ParallelConfig {
                threads,
                shard_rows: 6,
                min_rows: 0,
            };
            let runner = ParallelRunner::new(cfg, phase::TRAINING).unwrap();
            let out = runner
                .train_batch(&mut net, &x, &y, 0, BatchLoss::CrossEntropy, false)
                .unwrap();
            let g = grads_of(&mut net, 0);
            match &reference {
                None => reference = Some((g, out.loss)),
                Some((rg, rl)) => {
                    assert_eq!(&g, rg, "threads {threads}");
                    assert_eq!(out.loss.to_bits(), rl.to_bits(), "threads {threads}");
                }
            }
        }
    }

    #[test]
    fn post_step_weights_are_thread_count_invariant() {
        let d = data();
        let (x, y) = d.batch(Split::Train, &(0..20).collect::<Vec<_>>()).unwrap();
        let weights = |net: &mut SteppingNet| -> Vec<Vec<f32>> {
            net.params_for(0)
                .unwrap()
                .iter()
                .map(|p| p.value.data().to_vec())
                .collect()
        };
        let mut reference: Option<Vec<Vec<f32>>> = None;
        for threads in [1usize, 4] {
            let mut net = mlp();
            let cfg = ParallelConfig {
                threads,
                shard_rows: 8,
                min_rows: 0,
            };
            let runner = ParallelRunner::new(cfg, phase::TRAINING).unwrap();
            runner
                .train_batch(&mut net, &x, &y, 0, BatchLoss::CrossEntropy, false)
                .unwrap();
            let mut sgd = Sgd::new(0.05).unwrap();
            sgd.step(&mut net.params_for(0).unwrap()).unwrap();
            let w = weights(&mut net);
            match &reference {
                None => reference = Some(w),
                Some(rw) => assert_eq!(&w, rw, "threads {threads}"),
            }
        }
    }

    #[test]
    fn tiny_batches_fall_back_to_single_shard() {
        let d = data();
        let (x, y) = d.batch(Split::Train, &[0, 1, 2]).unwrap();
        let cfg = ParallelConfig {
            threads: 4,
            shard_rows: 2,
            min_rows: 16,
        };
        let runner = ParallelRunner::new(cfg, phase::TRAINING).unwrap();
        let mut a = mlp();
        runner
            .train_batch(&mut a, &x, &y, 0, BatchLoss::CrossEntropy, false)
            .unwrap();
        let mut b = mlp();
        let seq = ParallelRunner::new(ParallelConfig::sequential(), phase::TRAINING).unwrap();
        seq.train_batch(&mut b, &x, &y, 0, BatchLoss::CrossEntropy, false)
            .unwrap();
        assert_eq!(grads_of(&mut a, 0), grads_of(&mut b, 0));
    }

    #[test]
    fn distill_loss_reports_ce_component() {
        let d = data();
        let (x, y) = d.batch(Split::Train, &(0..16).collect::<Vec<_>>()).unwrap();
        let mut teacher = mlp();
        let t_logits = teacher.forward(&x, 0, false).unwrap();
        let tp = stepping_tensor::reduce::softmax_rows(&t_logits).unwrap();
        let cfg = ParallelConfig {
            threads: 2,
            shard_rows: 4,
            min_rows: 0,
        };
        let runner = ParallelRunner::new(cfg, phase::TRAINING).unwrap();
        let mut net = mlp();
        let out = runner
            .train_batch(
                &mut net,
                &x,
                &y,
                0,
                BatchLoss::Distill {
                    teacher_probs: &tp,
                    gamma: 0.4,
                },
                true,
            )
            .unwrap();
        let ce = out.ce.expect("ce requested");
        assert!(ce.is_finite() && out.loss.is_finite());
    }

    #[test]
    fn rejects_mismatched_targets_and_zero_threads() {
        let d = data();
        let (x, y) = d.batch(Split::Train, &[0, 1, 2, 3]).unwrap();
        let runner = ParallelRunner::new(ParallelConfig::sequential(), phase::TRAINING).unwrap();
        let mut net = mlp();
        assert!(runner
            .train_batch(&mut net, &x, &y[..3], 0, BatchLoss::CrossEntropy, false)
            .is_err());
        assert!(ParallelRunner::new(
            ParallelConfig {
                threads: 0,
                shard_rows: 8,
                min_rows: 0
            },
            phase::TRAINING
        )
        .is_err());
    }
}

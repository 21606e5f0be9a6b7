//! Knowledge-distillation retraining of constructed subnets (paper §III-B).
//!
//! After construction, every subnet is retrained in ascending order per epoch
//! with the combined cost of eq. 4,
//! `L'_i = γ·L_i + (1−γ)·KL(teacher ‖ subnet_i)`, where the teacher is the
//! pretrained original network. Weight-update suppression (`β^(j−i)`) remains
//! active so larger subnets don't destabilise smaller ones.

use stepping_data::{BatchIter, Dataset, Split};
use stepping_nn::optim::Sgd;
use stepping_nn::schedule::LrSchedule;
use stepping_tensor::reduce;

use crate::events::{event, phase};
use crate::telemetry::{self, Value};
use crate::train::{batch_step, BatchLoss};
use crate::{Result, SteppingError, SteppingNet};

/// Options for [`distill`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistillOptions {
    /// Retraining epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// Cross-entropy weight `γ` of eq. 4 (paper: 0.4).
    pub gamma: f32,
    /// Weight-update suppression base `β` (paper: 0.9).
    pub beta: f32,
    /// Whether suppression is active (Fig. 8 ablation).
    pub suppress_updates: bool,
    /// Whether the KL term is active; `false` retrains with plain
    /// cross-entropy (Fig. 8 ablation).
    pub use_distillation: bool,
    /// Per-epoch learning-rate schedule.
    pub schedule: LrSchedule,
    /// Shuffling seed.
    pub seed: u64,
}

impl Default for DistillOptions {
    fn default() -> Self {
        DistillOptions {
            epochs: 5,
            batch_size: 32,
            lr: 0.02,
            gamma: 0.4,
            beta: 0.9,
            suppress_updates: true,
            use_distillation: true,
            schedule: LrSchedule::Constant,
            seed: 0,
        }
    }
}

/// Result of [`distill`].
#[derive(Debug, Clone, PartialEq)]
pub struct DistillReport {
    /// Mean loss per epoch per subnet (`losses[epoch][subnet]`).
    pub losses: Vec<Vec<f32>>,
}

fn validate(opts: &DistillOptions) -> Result<()> {
    if opts.epochs == 0 || opts.batch_size == 0 {
        return Err(SteppingError::BadConfig(
            "epochs and batch size must be nonzero".into(),
        ));
    }
    if !(0.0..=1.0).contains(&opts.gamma) {
        return Err(SteppingError::BadConfig(format!(
            "gamma {} must be in [0, 1]",
            opts.gamma
        )));
    }
    if !(0.0..=1.0).contains(&opts.beta) {
        return Err(SteppingError::BadConfig(format!(
            "beta {} must be in [0, 1]",
            opts.beta
        )));
    }
    if !opts.schedule.is_valid() {
        return Err(SteppingError::BadConfig(
            "invalid learning-rate schedule".into(),
        ));
    }
    Ok(())
}

/// Retrains every subnet of `net` with knowledge distillation against
/// `teacher` (evaluated on `teacher_subnet`, usually its full network 0).
///
/// The teacher is only read (inference mode); the student's subnets are
/// trained smallest-first within each epoch, as in the paper.
///
/// # Errors
///
/// Returns [`SteppingError::BadConfig`] for invalid options or mismatched
/// teacher/student class counts, and propagates training errors.
pub fn distill(
    net: &mut SteppingNet,
    teacher: &mut SteppingNet,
    teacher_subnet: usize,
    data: &dyn Dataset,
    opts: &DistillOptions,
) -> Result<DistillReport> {
    validate(opts)?;
    if teacher.classes() != net.classes() {
        return Err(SteppingError::BadConfig(format!(
            "teacher has {} classes, student has {}",
            teacher.classes(),
            net.classes()
        )));
    }
    let n = net.subnet_count();
    let run_span = telemetry::span(phase::TRAINING, event::DISTILL_RUN);
    let mut sgd = Sgd::new(opts.lr).map_err(SteppingError::Nn)?;
    let mut losses = Vec::with_capacity(opts.epochs);
    for epoch in 0..opts.epochs {
        let epoch_span = telemetry::span(phase::TRAINING, event::DISTILL_EPOCH);
        sgd.set_lr(opts.lr * opts.schedule.multiplier(epoch))
            .map_err(SteppingError::Nn)?;
        let mut epoch_losses = vec![0.0f32; n];
        let mut batch_counts = vec![0usize; n];
        // Cross-entropy component per subnet, accumulated only while an
        // observer listens (the KL component follows from eq. 4:
        // `L' = γ·CE + (1−γ)·KL`).
        let mut ce_sums = vec![0.0f64; n];
        for batch in BatchIter::new(data, Split::Train, opts.batch_size, epoch as u64, opts.seed) {
            let (x, y) = batch?;
            let teacher_probs = if opts.use_distillation {
                let t_logits = teacher.forward(&x, teacher_subnet, false)?;
                Some(reduce::softmax_rows(&t_logits)?)
            } else {
                None
            };
            // Ascending order: smallest subnet first (paper §III-B).
            for k in 0..n {
                if opts.suppress_updates {
                    net.apply_lr_suppression(k, opts.beta);
                } else {
                    net.clear_lr_suppression();
                }
                let batch_loss = match &teacher_probs {
                    Some(tp) => BatchLoss::Distill {
                        teacher_probs: tp,
                        gamma: opts.gamma,
                    },
                    None => BatchLoss::CrossEntropy,
                };
                let (loss, ce) = batch_step(net, &x, &y, k, batch_loss, telemetry::enabled())?;
                if let Some(ce) = ce {
                    ce_sums[k] += f64::from(ce);
                }
                sgd.step(&mut net.params_for(k)?)
                    .map_err(SteppingError::Nn)?;
                epoch_losses[k] += loss;
                batch_counts[k] += 1;
            }
        }
        for (l, c) in epoch_losses.iter_mut().zip(batch_counts.iter()) {
            *l /= (*c).max(1) as f32;
        }
        if telemetry::enabled() {
            let gamma = f64::from(opts.gamma);
            for k in 0..n {
                let combined = f64::from(epoch_losses[k]);
                let ce = ce_sums[k] / batch_counts[k].max(1) as f64;
                // eq. 4 decomposition; without KD (or at γ = 1) the combined
                // loss is pure cross-entropy.
                let kl = if opts.use_distillation && gamma < 1.0 {
                    (combined - gamma * ce) / (1.0 - gamma)
                } else {
                    0.0
                };
                // The strongest update suppression actually applied while
                // training subnet k: β^(j−i) for the largest subnet j.
                let min_factor = if opts.suppress_updates {
                    f64::from(opts.beta).powi((n - 1 - k) as i32)
                } else {
                    1.0
                };
                telemetry::point(
                    phase::TRAINING,
                    event::DISTILL_SUBNET,
                    &[
                        ("epoch", Value::U64(epoch as u64)),
                        ("subnet", Value::U64(k as u64)),
                        ("loss", Value::F64(combined)),
                        ("loss_ce", Value::F64(ce)),
                        ("loss_kl", Value::F64(kl)),
                        ("gamma", Value::F64(gamma)),
                        ("suppression_min_factor", Value::F64(min_factor)),
                    ],
                );
                telemetry::counter(
                    phase::TRAINING,
                    event::DISTILL_BATCHES,
                    batch_counts[k] as u64,
                    &[("subnet", Value::U64(k as u64))],
                );
            }
        }
        epoch_span.end(&[
            ("epoch", Value::U64(epoch as u64)),
            (
                "loss_mean",
                Value::F64(
                    epoch_losses.iter().map(|l| f64::from(*l)).sum::<f64>() / n.max(1) as f64,
                ),
            ),
        ]);
        losses.push(epoch_losses);
    }
    net.clear_lr_suppression();
    run_span.end(&[
        ("epochs", Value::U64(opts.epochs as u64)),
        ("gamma", Value::F64(f64::from(opts.gamma))),
        ("beta", Value::F64(f64::from(opts.beta))),
        ("kd", Value::Bool(opts.use_distillation)),
        ("suppressed", Value::Bool(opts.suppress_updates)),
    ]);
    Ok(DistillReport { losses })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use crate::train::{train_subnet, TrainOptions};
    use crate::{construct, ConstructionOptions, SteppingNetBuilder};
    use stepping_data::{GaussianBlobs, GaussianBlobsConfig};
    use stepping_tensor::Shape;

    fn data() -> GaussianBlobs {
        GaussianBlobs::new(
            GaussianBlobsConfig {
                classes: 3,
                features: 10,
                train_per_class: 40,
                test_per_class: 12,
                separation: 3.0,
                noise_std: 0.7,
            },
            31,
        )
        .unwrap()
    }

    fn built_net(d: &GaussianBlobs) -> (crate::SteppingNet, crate::SteppingNet) {
        let mut net = SteppingNetBuilder::new(Shape::of(&[10]), 3, 8)
            .linear(20)
            .relu()
            .linear(14)
            .relu()
            .build(3)
            .unwrap();
        train_subnet(
            &mut net,
            d,
            0,
            &TrainOptions {
                epochs: 4,
                lr: 0.1,
                ..Default::default()
            },
        )
        .unwrap();
        // snapshot the pretrained original as teacher BEFORE construction
        let teacher = net.clone();
        let full = net.full_macs();
        let o = ConstructionOptions {
            mac_targets: vec![
                (full as f64 * 0.2) as u64,
                (full as f64 * 0.5) as u64,
                (full as f64 * 0.8) as u64,
            ],
            iterations: 10,
            batches_per_iter: 3,
            batch_size: 16,
            ..Default::default()
        };
        construct(&mut net, d, &o).unwrap();
        (net, teacher)
    }

    #[test]
    fn distillation_improves_or_maintains_subnet_accuracy() {
        let d = data();
        let (mut net, mut teacher) = built_net(&d);
        let before: Vec<f32> = (0..3)
            .map(|k| evaluate(&mut net, &d, Split::Test, k, 16).unwrap())
            .collect();
        let report = distill(
            &mut net,
            &mut teacher,
            0,
            &d,
            &DistillOptions {
                epochs: 6,
                lr: 0.05,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(report.losses.len(), 6);
        let after: Vec<f32> = (0..3)
            .map(|k| evaluate(&mut net, &d, Split::Test, k, 16).unwrap())
            .collect();
        // at least the smallest subnet should benefit from retraining
        assert!(
            after[0] >= before[0] - 0.05,
            "subnet0 degraded: before {before:?} after {after:?}"
        );
        // loss should broadly decrease
        let first: f32 = report.losses[0].iter().sum();
        let last: f32 = report.losses.last().unwrap().iter().sum();
        assert!(last <= first * 1.2, "losses diverged: {first} → {last}");
    }

    #[test]
    fn distill_validates_options() {
        let d = data();
        let (mut net, mut teacher) = built_net(&d);
        let bad = DistillOptions {
            gamma: 2.0,
            ..Default::default()
        };
        assert!(distill(&mut net, &mut teacher, 0, &d, &bad).is_err());
        let bad = DistillOptions {
            epochs: 0,
            ..Default::default()
        };
        assert!(distill(&mut net, &mut teacher, 0, &d, &bad).is_err());
    }

    #[test]
    fn ablation_without_kd_uses_cross_entropy() {
        let d = data();
        let (mut net, mut teacher) = built_net(&d);
        let report = distill(
            &mut net,
            &mut teacher,
            0,
            &d,
            &DistillOptions {
                use_distillation: false,
                epochs: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(report.losses.len(), 2);
    }
}

//! Plain training loops for stepping networks.
//!
//! [`train_subnet`] trains one subnet with cross-entropy SGD; it is used to
//! pretrain the "original network" (a fresh [`SteppingNet`] has every neuron
//! in subnet 0, so subnet 0 *is* the full network), which
//! then serves as both the construction starting point and the
//! knowledge-distillation teacher.

use stepping_data::{BatchIter, Dataset, Split};
use stepping_nn::loss;
use stepping_nn::optim::Sgd;
use stepping_nn::schedule::LrSchedule;
use stepping_tensor::{reduce, Tensor};

use crate::events::{event, phase};
use crate::telemetry::{self, Value};
use crate::{Result, SteppingError, SteppingNet};

/// Options for [`train_subnet`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainOptions {
    /// Number of passes over the training split.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// Per-epoch learning-rate schedule.
    pub schedule: LrSchedule,
    /// Shuffling seed.
    pub seed: u64,
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions {
            epochs: 5,
            batch_size: 32,
            lr: 0.05,
            schedule: LrSchedule::Constant,
            seed: 0,
        }
    }
}

/// Trains `subnet` of `net` with cross-entropy SGD; returns the mean training
/// loss of each epoch.
///
/// # Errors
///
/// Returns configuration errors for a bad subnet/batch size and propagates
/// forward/backward errors.
///
/// # Example
///
/// ```
/// use stepping_core::{train::{train_subnet, TrainOptions}, SteppingNetBuilder};
/// use stepping_data::{GaussianBlobs, GaussianBlobsConfig};
/// use stepping_tensor::Shape;
///
/// let data = GaussianBlobs::new(GaussianBlobsConfig::default(), 1)?;
/// let mut net = SteppingNetBuilder::new(Shape::of(&[16]), 2, 0)
///     .linear(12).relu().build(4)?;
/// let losses = train_subnet(&mut net, &data, 0, &TrainOptions { epochs: 2, ..Default::default() })?;
/// assert_eq!(losses.len(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn train_subnet(
    net: &mut SteppingNet,
    data: &dyn Dataset,
    subnet: usize,
    opts: &TrainOptions,
) -> Result<Vec<f32>> {
    if subnet >= net.subnet_count() {
        return Err(SteppingError::SubnetOutOfRange {
            subnet,
            count: net.subnet_count(),
        });
    }
    if opts.batch_size == 0 || opts.epochs == 0 {
        return Err(SteppingError::BadConfig(
            "epochs and batch size must be nonzero".into(),
        ));
    }
    if !opts.schedule.is_valid() {
        return Err(SteppingError::BadConfig(
            "invalid learning-rate schedule".into(),
        ));
    }
    let run_span = telemetry::span(phase::TRAINING, event::TRAIN_SUBNET);
    let mut sgd = Sgd::new(opts.lr).map_err(SteppingError::Nn)?;
    let mut epoch_losses = Vec::with_capacity(opts.epochs);
    for epoch in 0..opts.epochs {
        let epoch_span = telemetry::span(phase::TRAINING, event::TRAIN_EPOCH);
        let lr = opts.lr * opts.schedule.multiplier(epoch);
        sgd.set_lr(lr).map_err(SteppingError::Nn)?;
        let mut total = 0.0;
        let mut batches = 0;
        for batch in BatchIter::new(data, Split::Train, opts.batch_size, epoch as u64, opts.seed) {
            let (x, y) = batch?;
            let (loss, _) = batch_step(net, &x, &y, subnet, BatchLoss::CrossEntropy, false)?;
            sgd.step(&mut net.params_for(subnet)?)
                .map_err(SteppingError::Nn)?;
            total += loss;
            batches += 1;
        }
        let mean = total / batches.max(1) as f32;
        epoch_losses.push(mean);
        telemetry::counter(
            phase::TRAINING,
            event::TRAIN_BATCHES,
            batches as u64,
            &[
                ("subnet", Value::U64(subnet as u64)),
                ("epoch", Value::U64(epoch as u64)),
            ],
        );
        epoch_span.end(&[
            ("subnet", Value::U64(subnet as u64)),
            ("epoch", Value::U64(epoch as u64)),
            ("batches", Value::U64(batches as u64)),
            ("loss", Value::F64(f64::from(mean))),
            ("lr", Value::F64(f64::from(lr))),
        ]);
    }
    run_span.end(&[
        ("subnet", Value::U64(subnet as u64)),
        ("epochs", Value::U64(opts.epochs as u64)),
        (
            "final_loss",
            Value::F64(f64::from(epoch_losses.last().copied().unwrap_or(0.0))),
        ),
    ]);
    Ok(epoch_losses)
}

/// Which loss drives one training batch.
#[derive(Debug, Clone, Copy)]
pub(crate) enum BatchLoss<'a> {
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

/// One training batch on `net`, the step every trainer takes: zero-grad,
/// forward (training mode), loss, backward. The gradients stay in `net` for
/// the caller's optimizer step. Returns the batch's mean loss and, when
/// `want_ce` asks for it, its cross-entropy component (for
/// [`BatchLoss::CrossEntropy`] the loss itself).
///
/// # Errors
///
/// Returns [`SteppingError::BadConfig`] when `x` and `y` disagree on the row
/// count, and propagates forward, loss and backward errors.
pub(crate) fn batch_step(
    net: &mut SteppingNet,
    x: &Tensor,
    y: &[usize],
    subnet: usize,
    batch_loss: BatchLoss<'_>,
    want_ce: bool,
) -> Result<(f32, Option<f32>)> {
    let rows = x.shape().dims().first().copied().unwrap_or(0);
    if rows != y.len() {
        return Err(SteppingError::BadConfig(format!(
            "batch has {rows} rows but {} targets",
            y.len()
        )));
    }
    net.zero_grad();
    let logits = net.forward(x, subnet, true)?;
    match batch_loss {
        BatchLoss::CrossEntropy => {
            let (l, dlogits) = loss::cross_entropy(&logits, y).map_err(SteppingError::Nn)?;
            net.backward(&dlogits)?;
            Ok((l, want_ce.then_some(l)))
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
            Ok((l, ce))
        }
    }
}

/// Softmax class probabilities of `subnet` on a batch, in inference mode —
/// the teacher-side computation of knowledge distillation.
///
/// # Errors
///
/// Propagates forward errors.
pub fn subnet_probs(net: &mut SteppingNet, x: &Tensor, subnet: usize) -> Result<Tensor> {
    let logits = net.forward(x, subnet, false)?;
    Ok(reduce::softmax_rows(&logits)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SteppingNetBuilder;
    use stepping_data::{GaussianBlobs, GaussianBlobsConfig};
    use stepping_tensor::Shape;

    fn blob_data() -> GaussianBlobs {
        GaussianBlobs::new(
            GaussianBlobsConfig {
                classes: 3,
                features: 8,
                train_per_class: 30,
                test_per_class: 10,
                separation: 3.0,
                noise_std: 0.5,
            },
            7,
        )
        .unwrap()
    }

    fn mlp(subnets: usize) -> crate::SteppingNet {
        SteppingNetBuilder::new(Shape::of(&[8]), subnets, 3)
            .linear(16)
            .relu()
            .linear(12)
            .relu()
            .build(3)
            .unwrap()
    }

    #[test]
    fn training_reduces_loss() {
        let data = blob_data();
        let mut net = mlp(2);
        let losses = train_subnet(
            &mut net,
            &data,
            0,
            &TrainOptions {
                epochs: 6,
                lr: 0.1,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(losses.last().unwrap() < &losses[0], "losses {losses:?}");
    }

    #[test]
    fn training_is_reproducible() {
        let data = blob_data();
        let mut a = mlp(2);
        let mut b = mlp(2);
        let la = train_subnet(&mut a, &data, 0, &TrainOptions::default()).unwrap();
        let lb = train_subnet(&mut b, &data, 0, &TrainOptions::default()).unwrap();
        assert_eq!(la, lb);
    }

    #[test]
    fn rejects_bad_options() {
        let data = blob_data();
        let mut net = mlp(2);
        assert!(train_subnet(&mut net, &data, 9, &TrainOptions::default()).is_err());
        assert!(train_subnet(
            &mut net,
            &data,
            0,
            &TrainOptions {
                batch_size: 0,
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn batch_step_rejects_mismatched_targets() {
        let data = blob_data();
        let mut net = mlp(2);
        let (x, y) = data.batch(Split::Train, &[0, 1, 2, 3]).unwrap();
        assert!(batch_step(&mut net, &x, &y[..3], 0, BatchLoss::CrossEntropy, false).is_err());
    }

    #[test]
    fn distill_step_reports_its_cross_entropy_component() {
        let data = blob_data();
        let (x, y) = data
            .batch(Split::Train, &(0..16).collect::<Vec<_>>())
            .unwrap();
        let tp = subnet_probs(&mut mlp(2), &x, 0).unwrap();
        let distill = BatchLoss::Distill {
            teacher_probs: &tp,
            gamma: 0.4,
        };
        let mut net = mlp(2);
        let (ce, _) =
            batch_step(&mut net.clone(), &x, &y, 0, BatchLoss::CrossEntropy, false).unwrap();
        let (loss, reported) = batch_step(&mut net, &x, &y, 0, distill, true).unwrap();
        assert_eq!(reported.map(f32::to_bits), Some(ce.to_bits()));
        assert!(loss.is_finite());
        assert_eq!(
            batch_step(&mut net, &x, &y, 0, distill, false).unwrap().1,
            None
        );
    }

    #[test]
    fn subnet_probs_are_normalised() {
        let data = blob_data();
        let mut net = mlp(2);
        let (x, _) = data.batch(Split::Train, &[0, 1]).unwrap();
        let p = subnet_probs(&mut net, &x, 0).unwrap();
        for b in 0..2 {
            let s: f32 = p.row(b).unwrap().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }
}

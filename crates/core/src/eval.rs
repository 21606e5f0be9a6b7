//! Accuracy evaluation of stepping networks.
//!
//! [`evaluate_all`] runs one job per subnet on scoped threads; each job
//! evaluates a clone of the network, so every value equals a sequential
//! [`evaluate`] call, and a panicking job comes back as a typed
//! [`SteppingError::Worker`] rather than a process abort.

use std::any::Any;
use std::borrow::Borrow;
use std::num::NonZeroUsize;

use stepping_data::{BatchIter, Dataset, Split};
use stepping_nn::metrics;
use stepping_tensor::Tensor;

use crate::{Result, SteppingError, SteppingNet};

/// Top-1 accuracy of `subnet` on a dataset split (inference mode).
///
/// # Errors
///
/// Returns [`SteppingError::BadConfig`] for a zero batch size or an empty
/// split, and propagates forward errors.
///
/// # Example
///
/// ```
/// use stepping_core::{eval::evaluate, SteppingNetBuilder};
/// use stepping_data::{GaussianBlobs, GaussianBlobsConfig, Split};
/// use stepping_tensor::Shape;
///
/// let data = GaussianBlobs::new(GaussianBlobsConfig::default(), 1)?;
/// let mut net = SteppingNetBuilder::new(Shape::of(&[16]), 2, 0)
///     .linear(8).relu().build(4)?;
/// let acc = evaluate(&mut net, &data, Split::Test, 0, 32)?;
/// assert!((0.0..=1.0).contains(&acc));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn evaluate(
    net: &mut SteppingNet,
    data: &dyn Dataset,
    split: Split,
    subnet: usize,
    batch_size: usize,
) -> Result<f32> {
    check_split(data, split, batch_size)?;
    // epoch/seed 0: evaluation order does not matter, but keep it stable.
    accuracy(net, BatchIter::new(data, split, batch_size, 0, 0), subnet)
}

/// Refuses a zero batch size and an empty split.
fn check_split(data: &dyn Dataset, split: Split, batch_size: usize) -> Result<()> {
    if batch_size == 0 {
        return Err(SteppingError::BadConfig(
            "batch size must be nonzero".into(),
        ));
    }
    if data.is_empty(split) {
        return Err(SteppingError::BadConfig(
            "cannot evaluate on an empty split".into(),
        ));
    }
    Ok(())
}

/// Top-1 accuracy of `subnet` over `batches` (inference mode), weighted by
/// rows.
fn accuracy<B, E>(
    net: &mut SteppingNet,
    batches: impl IntoIterator<Item = std::result::Result<B, E>>,
    subnet: usize,
) -> Result<f32>
where
    B: Borrow<(Tensor, Vec<usize>)>,
    SteppingError: From<E>,
{
    let mut correct = 0.0f64;
    let mut total = 0usize;
    for batch in batches {
        let batch = batch?;
        let (x, y) = batch.borrow();
        let logits = net.forward(x, subnet, false)?;
        let acc = metrics::accuracy(&logits, y).map_err(SteppingError::Nn)?;
        correct += acc as f64 * y.len() as f64;
        total += y.len();
    }
    Ok((correct / total as f64) as f32)
}

/// Accuracy of every subnet on a split, smallest first. Each subnet is one
/// job on a scoped thread, at most the machine's available parallelism at a
/// time; each value is identical to a sequential [`evaluate`] call because
/// every job evaluates a clone of the network over the same batches, in the
/// same order.
///
/// # Errors
///
/// Propagates [`evaluate`] errors; reports a panicking job as
/// [`SteppingError::Worker`] with its panic message.
pub fn evaluate_all(
    net: &mut SteppingNet,
    data: &dyn Dataset,
    split: Split,
    batch_size: usize,
) -> Result<Vec<f32>> {
    check_split(data, split, batch_size)?;
    // Materialise the split's batches once (deterministic epoch/seed-0
    // order, as in `evaluate`) and share them read-only across the jobs.
    let batches = BatchIter::new(data, split, batch_size, 0, 0)
        .collect::<std::result::Result<Vec<_>, _>>()?;
    let (net, batches) = (&*net, &batches);
    let jobs: Vec<_> = (0..net.subnet_count())
        .map(|k| {
            move || {
                accuracy(
                    &mut net.clone(),
                    batches.iter().map(Ok::<_, SteppingError>),
                    k,
                )
            }
        })
        .collect();
    let width = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    run_scoped(jobs, width)
}

/// Runs `jobs` on scoped threads, at most `width` at a time, and returns
/// their results in job order. A job that panics is reported as
/// [`SteppingError::Worker`] carrying its panic message.
fn run_scoped<T, F>(jobs: Vec<F>, width: usize) -> Result<Vec<T>>
where
    T: Send,
    F: FnOnce() -> Result<T> + Send,
{
    let mut jobs = jobs.into_iter();
    let mut out = Vec::with_capacity(jobs.len());
    loop {
        let wave: Vec<F> = jobs.by_ref().take(width.max(1)).collect();
        if wave.is_empty() {
            return Ok(out);
        }
        // Join every thread of the wave before looking at any result, so a
        // panic never escapes the scope.
        let joined: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = wave.into_iter().map(|job| s.spawn(job)).collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        for result in joined {
            out.push(result.map_err(|p| SteppingError::Worker(panic_message(&*p)))??);
        }
    }
}

/// The message a panic was raised with.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "job panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{train_subnet, TrainOptions};
    use crate::SteppingNetBuilder;
    use stepping_data::{GaussianBlobs, GaussianBlobsConfig};
    use stepping_tensor::Shape;

    fn data() -> GaussianBlobs {
        GaussianBlobs::new(
            GaussianBlobsConfig {
                classes: 3,
                features: 8,
                train_per_class: 40,
                test_per_class: 15,
                separation: 4.0,
                noise_std: 0.5,
            },
            11,
        )
        .unwrap()
    }

    #[test]
    fn trained_net_beats_chance() {
        let d = data();
        let mut net = SteppingNetBuilder::new(Shape::of(&[8]), 2, 5)
            .linear(16)
            .relu()
            .build(3)
            .unwrap();
        train_subnet(
            &mut net,
            &d,
            0,
            &TrainOptions {
                epochs: 10,
                lr: 0.1,
                ..Default::default()
            },
        )
        .unwrap();
        let acc = evaluate(&mut net, &d, Split::Test, 0, 16).unwrap();
        assert!(acc > 0.6, "accuracy {acc}");
    }

    #[test]
    fn evaluate_all_returns_one_entry_per_subnet() {
        let d = data();
        let mut net = SteppingNetBuilder::new(Shape::of(&[8]), 3, 5)
            .linear(6)
            .relu()
            .build(3)
            .unwrap();
        let opts = TrainOptions {
            epochs: 2,
            ..Default::default()
        };
        train_subnet(&mut net, &d, 0, &opts).unwrap();
        // 45 test rows: batches of 7 leave a short last batch.
        let accs = evaluate_all(&mut net, &d, Split::Test, 7).unwrap();
        assert_eq!(accs.len(), 3);
        for (k, acc) in accs.iter().enumerate() {
            let seq = evaluate(&mut net, &d, Split::Test, k, 7).unwrap();
            assert_eq!(acc.to_bits(), seq.to_bits(), "subnet {k}");
        }
    }

    #[test]
    fn a_panicking_job_is_a_worker_error() {
        let jobs: Vec<Box<dyn FnOnce() -> Result<usize> + Send>> = vec![
            Box::new(|| Ok(1)),
            Box::new(|| panic!("boom")),
            Box::new(|| Ok(3)),
        ];
        let err = run_scoped(jobs, 2).unwrap_err();
        assert!(
            matches!(&err, SteppingError::Worker(m) if m == "boom"),
            "{err}"
        );
        let jobs: Vec<_> = (0..5).map(|k| move || Ok(k * 10)).collect();
        assert_eq!(run_scoped(jobs, 2).unwrap(), vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn bad_batch_size_rejected() {
        let d = data();
        let mut net = SteppingNetBuilder::new(Shape::of(&[8]), 2, 5)
            .linear(6)
            .relu()
            .build(3)
            .unwrap();
        assert!(evaluate(&mut net, &d, Split::Test, 0, 0).is_err());
    }
}

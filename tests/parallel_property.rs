//! End-to-end determinism of the data-parallel training engine: full
//! pipeline runs (`train_subnet`, `construct`, `distill`) under a
//! [`ParallelConfig`] must reproduce their single-threaded results exactly,
//! because the shard geometry — not the thread count — defines the
//! computation.

use steppingnet::core::distill::{distill, DistillOptions};
use steppingnet::core::eval::{evaluate, evaluate_all, evaluate_parallel};
use steppingnet::core::train::{train_subnet, TrainOptions};
use steppingnet::core::{
    construct, ConstructionOptions, ConstructionReport, ParallelConfig, SteppingNet,
    SteppingNetBuilder,
};
use steppingnet::data::{GaussianBlobs, GaussianBlobsConfig, Split};
use steppingnet::tensor::Shape;

fn data() -> GaussianBlobs {
    GaussianBlobs::new(
        GaussianBlobsConfig {
            classes: 3,
            features: 10,
            train_per_class: 40,
            test_per_class: 10,
            separation: 3.0,
            noise_std: 0.6,
        },
        29,
    )
    .unwrap()
}

fn mlp(subnets: usize) -> SteppingNet {
    SteppingNetBuilder::new(Shape::of(&[10]), subnets, 6)
        .linear(20)
        .relu()
        .linear(14)
        .relu()
        .build(3)
        .unwrap()
}

/// The thread counts to sweep: {1, 2, 4} plus `STEPPING_THREADS` when set
/// (so the CI matrix leg exercises its configured width here too).
fn thread_matrix() -> Vec<usize> {
    let mut m = vec![1usize, 2, 4];
    if let Some(t) = std::env::var("STEPPING_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&t| t > 0)
    {
        if !m.contains(&t) {
            m.push(t);
        }
    }
    m
}

fn construction_options(net: &SteppingNet, parallel: ParallelConfig) -> ConstructionOptions {
    let full = net.full_macs();
    ConstructionOptions {
        mac_targets: vec![
            (full as f64 * 0.25) as u64,
            (full as f64 * 0.55) as u64,
            (full as f64 * 0.85) as u64,
        ],
        iterations: 8,
        batches_per_iter: 3,
        batch_size: 16,
        lr: 0.05,
        parallel,
        ..Default::default()
    }
}

fn run_construct(parallel: ParallelConfig) -> (ConstructionReport, Vec<f32>) {
    let d = data();
    let mut net = mlp(3);
    train_subnet(
        &mut net,
        &d,
        0,
        &TrainOptions {
            epochs: 2,
            parallel,
            ..Default::default()
        },
    )
    .unwrap();
    let opts = construction_options(&net, parallel);
    let report = construct(&mut net, &d, &opts).unwrap();
    let accs = evaluate_all(&mut net, &d, Split::Test, 16).unwrap();
    (report, accs)
}

#[test]
fn construction_report_is_identical_across_thread_counts() {
    // Fixed shard geometry: the canonical decomposition (and therefore every
    // float) is the same for every thread count.
    let mut reference: Option<(ConstructionReport, Vec<f32>)> = None;
    for threads in thread_matrix() {
        let cfg = ParallelConfig {
            threads,
            shard_rows: 8,
            min_rows: 0,
        };
        let (report, accs) = run_construct(cfg);
        match &reference {
            None => reference = Some((report, accs)),
            Some((r_report, r_accs)) => {
                assert_eq!(
                    &report, r_report,
                    "construction diverged at {threads} threads"
                );
                assert_eq!(&accs, r_accs, "accuracy diverged at {threads} threads");
            }
        }
    }
}

#[test]
fn default_config_reproduces_the_legacy_sequential_run() {
    // `ParallelConfig::default()` = single whole-batch shard — must be
    // bitwise the pre-engine behaviour regardless of STEPPING_THREADS.
    let (seq_report, seq_accs) = run_construct(ParallelConfig::default());
    let (env_report, env_accs) = run_construct(ParallelConfig {
        threads: 3,
        shard_rows: 0, // whole-batch shards
        min_rows: 0,
    });
    assert_eq!(seq_report, env_report);
    assert_eq!(seq_accs, env_accs);
}

#[test]
fn training_losses_are_identical_across_thread_counts() {
    let d = data();
    let mut reference: Option<Vec<f32>> = None;
    for threads in thread_matrix() {
        let mut net = mlp(2);
        let losses = train_subnet(
            &mut net,
            &d,
            0,
            &TrainOptions {
                epochs: 3,
                parallel: ParallelConfig {
                    threads,
                    shard_rows: 8,
                    min_rows: 0,
                },
                ..Default::default()
            },
        )
        .unwrap();
        match &reference {
            None => reference = Some(losses),
            Some(r) => assert_eq!(&losses, r, "losses diverged at {threads} threads"),
        }
    }
}

#[test]
fn distillation_is_identical_across_thread_counts() {
    let d = data();
    let mut pretrained = mlp(2);
    train_subnet(
        &mut pretrained,
        &d,
        0,
        &TrainOptions {
            epochs: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let mut reference = None;
    for threads in thread_matrix() {
        let mut net = pretrained.clone();
        let mut teacher = pretrained.clone();
        let report = distill(
            &mut net,
            &mut teacher,
            0,
            &d,
            &DistillOptions {
                epochs: 2,
                parallel: ParallelConfig {
                    threads,
                    shard_rows: 8,
                    min_rows: 0,
                },
                ..Default::default()
            },
        )
        .unwrap();
        let accs = evaluate_all(&mut net, &d, Split::Test, 16).unwrap();
        match &reference {
            None => reference = Some((report, accs)),
            Some((r_rep, r_accs)) => {
                assert_eq!(&report, r_rep, "distill diverged at {threads} threads");
                assert_eq!(
                    &accs, r_accs,
                    "post-distill accuracy diverged at {threads} threads"
                );
            }
        }
    }
}

#[test]
fn parallel_evaluation_agrees_with_sequential_everywhere() {
    let d = data();
    let mut net = mlp(3);
    train_subnet(
        &mut net,
        &d,
        0,
        &TrainOptions {
            epochs: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let all = evaluate_all(&mut net, &d, Split::Test, 8).unwrap();
    for (k, &acc) in all.iter().enumerate() {
        let seq = evaluate(&mut net, &d, Split::Test, k, 8).unwrap();
        assert_eq!(
            acc.to_bits(),
            seq.to_bits(),
            "evaluate_all differs at subnet {k}"
        );
        for threads in thread_matrix() {
            let par = evaluate_parallel(&net, &d, Split::Test, k, 8, threads).unwrap();
            assert!(
                (par - seq).abs() < 1e-6,
                "evaluate_parallel differs at subnet {k}, {threads} threads"
            );
        }
    }
}

//! End-to-end integration: the full paper pipeline
//! (pretrain → construct → distill → evaluate → incremental inference) on an
//! MLP, checking every cross-crate contract along the way.

use steppingnet::core::eval::{evaluate, evaluate_all};
use steppingnet::core::train::{train_subnet, TrainOptions};
use steppingnet::core::{
    construct, distill, BatchExecutor, ConstructionOptions, DistillOptions, SteppingNet,
    SteppingNetBuilder,
};
use steppingnet::data::{Dataset, GaussianBlobs, GaussianBlobsConfig, Split};
use steppingnet::tensor::Shape;

fn data() -> GaussianBlobs {
    GaussianBlobs::new(
        GaussianBlobsConfig {
            classes: 5,
            features: 16,
            train_per_class: 60,
            test_per_class: 20,
            separation: 2.5,
            noise_std: 1.2,
        },
        2024,
    )
    .unwrap()
}

fn pipeline() -> (SteppingNet, ConstructionOptions) {
    let d = data();
    let mut net = SteppingNetBuilder::new(Shape::of(&[16]), 4, 3)
        .linear(48)
        .relu()
        .linear(32)
        .relu()
        .build(5)
        .unwrap();
    train_subnet(
        &mut net,
        &d,
        0,
        &TrainOptions {
            epochs: 8,
            lr: 0.1,
            ..Default::default()
        },
    )
    .unwrap();
    let mut teacher = net.clone();
    let full = net.full_macs();
    let opts = ConstructionOptions {
        mac_targets: vec![
            (full as f64 * 0.10) as u64,
            (full as f64 * 0.30) as u64,
            (full as f64 * 0.55) as u64,
            (full as f64 * 0.85) as u64,
        ],
        iterations: 15,
        batches_per_iter: 5,
        batch_size: 32,
        lr: 0.05,
        ..Default::default()
    };
    let report = construct(&mut net, &d, &opts).unwrap();
    assert!(report.satisfied, "budgets unmet: {:?}", report.final_macs);
    distill(
        &mut net,
        &mut teacher,
        0,
        &d,
        &DistillOptions {
            epochs: 6,
            ..Default::default()
        },
    )
    .unwrap();
    (net, opts)
}

#[test]
fn full_pipeline_produces_budgeted_accurate_subnets() {
    let d = data();
    let (mut net, opts) = pipeline();
    net.check_invariants().unwrap();

    // MAC budgets hold and are monotone.
    let macs: Vec<u64> = (0..4).map(|k| net.macs(k, opts.prune_threshold)).collect();
    for (m, t) in macs.iter().zip(opts.mac_targets.iter()) {
        assert!(m <= t, "{m} > {t}");
    }
    assert!(macs.windows(2).all(|w| w[0] < w[1]));

    // Every subnet beats chance; the largest subnet is the most accurate
    // within tolerance.
    let accs = evaluate_all(&mut net, &d, Split::Test, 32).unwrap();
    let chance = 1.0 / d.classes() as f32;
    for (k, a) in accs.iter().enumerate() {
        assert!(
            *a > chance + 0.1,
            "subnet {k} accuracy {a} barely beats chance"
        );
    }
    assert!(
        accs[3] >= accs[0] - 0.05,
        "largest subnet should not be clearly worse: {accs:?}"
    );
}

#[test]
fn incremental_execution_matches_from_scratch_after_pipeline() {
    let d = data();
    let (net, opts) = pipeline();
    let (x, _) = d.batch(Split::Test, &[0, 1, 2, 3]).unwrap();
    let mut scratch = net.clone();
    let refs: Vec<_> = (0..4)
        .map(|k| scratch.forward(&x, k, false).unwrap())
        .collect();
    let mut exec = BatchExecutor::new(&net, opts.prune_threshold);
    let (mut cache, first) = exec.begin(std::slice::from_ref(&x), 0).unwrap().remove(0);
    let mut steps = vec![first];
    for _ in 1..4 {
        steps.extend(exec.expand(std::slice::from_mut(&mut cache)).unwrap());
    }
    assert_eq!(steps.len(), 4);
    for (k, step) in steps.iter().enumerate() {
        assert_eq!(
            step.logits, refs[k],
            "subnet {k} incremental/from-scratch mismatch"
        );
    }
    // Reuse is real: every expansion is cheaper than its from-scratch run.
    for (k, step) in steps.iter().enumerate().skip(1) {
        assert!(step.step_macs < net.macs(k, opts.prune_threshold));
    }
}

#[test]
fn distillation_teacher_remains_functional() {
    let d = data();
    let mut net = SteppingNetBuilder::new(Shape::of(&[16]), 2, 9)
        .linear(24)
        .relu()
        .build(5)
        .unwrap();
    train_subnet(
        &mut net,
        &d,
        0,
        &TrainOptions {
            epochs: 6,
            lr: 0.1,
            ..Default::default()
        },
    )
    .unwrap();
    let mut teacher = net.clone();
    let before = evaluate(&mut teacher, &d, Split::Test, 0, 32).unwrap();
    // construct + distill the student; teacher weights must be untouched
    let full = net.full_macs();
    construct(
        &mut net,
        &d,
        &ConstructionOptions {
            mac_targets: vec![full / 4, full * 3 / 4],
            iterations: 8,
            batches_per_iter: 3,
            batch_size: 32,
            ..Default::default()
        },
    )
    .unwrap();
    distill(
        &mut net,
        &mut teacher,
        0,
        &d,
        &DistillOptions {
            epochs: 3,
            ..Default::default()
        },
    )
    .unwrap();
    let after = evaluate(&mut teacher, &d, Split::Test, 0, 32).unwrap();
    assert_eq!(
        before, after,
        "teacher accuracy changed during distillation"
    );
}

#[test]
fn pipeline_is_deterministic() {
    let (mut a, opts) = pipeline();
    let (mut b, _) = pipeline();
    let d = data();
    let (x, _) = d.batch(Split::Test, &[0]).unwrap();
    for k in 0..4 {
        assert_eq!(
            a.forward(&x, k, false).unwrap(),
            b.forward(&x, k, false).unwrap(),
            "subnet {k} differs between identical runs"
        );
        assert_eq!(
            a.macs(k, opts.prune_threshold),
            b.macs(k, opts.prune_threshold)
        );
    }
}

//! End-to-end integration on a convolutional pipeline with batch norm —
//! the Table-I shape (conv/pool/BN/fc + per-subnet heads) at miniature
//! scale, including incremental-executor equivalence after construction.

use steppingnet::core::eval::evaluate_all;
use steppingnet::core::train::{train_subnet, TrainOptions};
use steppingnet::core::{
    construct, distill, BatchExecutor, ConstructionOptions, DistillOptions, SteppingNetBuilder,
};
use steppingnet::data::{Dataset, Split, SyntheticImages, SyntheticImagesConfig};
use steppingnet::tensor::Shape;

fn data() -> SyntheticImages {
    SyntheticImages::new(
        SyntheticImagesConfig {
            classes: 4,
            channels: 2,
            height: 12,
            width: 12,
            train_per_class: 30,
            test_per_class: 10,
            noise_std: 0.4,
            max_shift: 2,
            ..Default::default()
        },
        314,
    )
    .unwrap()
}

#[test]
fn cnn_pipeline_with_batchnorm_end_to_end() {
    let d = data();
    let mut net = SteppingNetBuilder::new(Shape::of(&[2, 12, 12]), 3, 8)
        .conv(10, 3, 1, 1)
        .batch_norm()
        .relu()
        .max_pool(2, 2)
        .conv(14, 3, 1, 1)
        .relu()
        .max_pool(2, 2)
        .flatten()
        .linear(24)
        .relu()
        .build(4)
        .unwrap();
    train_subnet(
        &mut net,
        &d,
        0,
        &TrainOptions {
            epochs: 4,
            lr: 0.05,
            ..Default::default()
        },
    )
    .unwrap();
    let mut teacher = net.clone();
    let full = net.full_macs();
    let opts = ConstructionOptions {
        mac_targets: vec![
            (full as f64 * 0.15) as u64,
            (full as f64 * 0.45) as u64,
            (full as f64 * 0.85) as u64,
        ],
        iterations: 10,
        batches_per_iter: 6,
        batch_size: 16,
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
            epochs: 12,
            lr: 0.03,
            ..Default::default()
        },
    )
    .unwrap();
    net.check_invariants().unwrap();

    // accuracy above chance for the largest subnet
    let accs = evaluate_all(&mut net, &d, Split::Test, 16).unwrap();
    assert!(accs[2] > 0.25 + 0.25, "largest subnet too weak: {accs:?}");

    // incremental equivalence survives construction + BN running stats
    let (x, _) = d.batch(Split::Test, &[0, 1]).unwrap();
    let mut scratch = net.clone();
    let refs: Vec<_> = (0..3)
        .map(|k| scratch.forward(&x, k, false).unwrap())
        .collect();
    let mut exec = BatchExecutor::new(&net, opts.prune_threshold);
    let (mut cache, first) = exec.begin(std::slice::from_ref(&x), 0).unwrap().remove(0);
    assert_eq!(first.logits, refs[0], "subnet 0 mismatch");
    for (k, reference) in refs.iter().enumerate().skip(1) {
        let step = exec
            .expand(std::slice::from_mut(&mut cache))
            .unwrap()
            .remove(0);
        assert_eq!(step.logits, *reference, "subnet {k} incremental mismatch");
    }
}

#[test]
fn training_small_subnet_does_not_poison_bn_stats_of_larger() {
    // Regression test for the batch-norm pollution bug (DESIGN.md §3.7.1):
    // training subnet 0 must not update running statistics of channels that
    // only exist in subnet 1 — their batch values are masked zeros.
    use steppingnet::core::{FixedStage, Stage, SteppingNetBuilder};
    use steppingnet::tensor::{init, Shape};

    let mut net = SteppingNetBuilder::new(Shape::of(&[2, 8, 8]), 2, 3)
        .conv(6, 3, 1, 1)
        .batch_norm()
        .relu()
        .flatten()
        .linear(8)
        .relu()
        .build(3)
        .unwrap();
    // filters 4 and 5 belong to subnet 1 only
    net.move_neurons(&[(0, 4, 1), (0, 5, 1)]).unwrap();

    let snapshot = |net: &steppingnet::core::SteppingNet| -> (Vec<f32>, Vec<f32>) {
        match &net.stages()[1] {
            Stage::Fixed(FixedStage::BatchNorm2d { layer, .. }) => {
                let (m, v) = layer.running_stats();
                (m.data().to_vec(), v.data().to_vec())
            }
            _ => unreachable!("stage 1 is the batch norm"),
        }
    };
    // warm up subnet 1 so all channels have non-trivial statistics
    let x = init::uniform(Shape::of(&[4, 2, 8, 8]), -1.0, 1.0, &mut init::rng(1));
    net.forward(&x, 1, true).unwrap();
    let (mean_before, var_before) = snapshot(&net);
    // now train subnet 0 repeatedly: stats of channels 4 and 5 must not move
    for _ in 0..5 {
        net.forward(&x, 0, true).unwrap();
    }
    let (mean_after, var_after) = snapshot(&net);
    for ch in 4..6 {
        assert_eq!(mean_before[ch], mean_after[ch], "channel {ch} mean drifted");
        assert_eq!(var_before[ch], var_after[ch], "channel {ch} var drifted");
    }
    // active channels do keep updating
    assert_ne!(mean_before[0], mean_after[0]);
}

#[test]
fn cnn_macs_account_for_spatial_positions() {
    let net = SteppingNetBuilder::new(Shape::of(&[2, 12, 12]), 2, 1)
        .conv(4, 3, 1, 1)
        .relu()
        .max_pool(2, 2)
        .flatten()
        .linear(6)
        .relu()
        .build(3)
        .unwrap();
    // conv: 4 filters × 2 ch × 9 w × 144 positions; fc: 6×(4·36); head: 6·3… per subnet 0 all active
    let conv = 4 * 2 * 9 * 144;
    let fc = 6 * 4 * 36;
    let head = 6 * 3;
    assert_eq!(net.macs(0, 0.0), (conv + fc + head) as u64);
    assert_eq!(net.full_macs(), (conv + fc + head) as u64);
}

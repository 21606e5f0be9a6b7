//! Seeded training pinned bit for bit, for each of the three trainers:
//!
//! - `construct`: a tiny conv net (conv, batch norm, ReLU, pool, flatten,
//!   linear) is built, constructed under each selection criterion and saved,
//!   and the checkpoint's FNV-1a digest must equal a constant pinned from an
//!   earlier build;
//! - `train_subnet`: the per-epoch mean losses of a small MLP, as `f32` bits;
//! - `distill`: the checkpoint digest of the conv net after pretraining,
//!   construction and a distillation run against its pretrained copy.
//!
//! Any change to the masked forward, backward, loss, importance,
//! suppression, pruning or move rules that moves a single bit of a weight,
//! a loss or an assignment fails here.

use steppingnet::core::checkpoint::save_state;
use steppingnet::core::distill::{distill, DistillOptions};
use steppingnet::core::train::{train_subnet, TrainOptions};
use steppingnet::core::{
    construct, ConstructionOptions, SelectionCriterion, SteppingNet, SteppingNetBuilder,
};
use steppingnet::data::{
    GaussianBlobs, GaussianBlobsConfig, SyntheticImages, SyntheticImagesConfig,
};
use steppingnet::tensor::Shape;
use steppingnet::verify::digest;

/// Gradient importance with β suppression on.
const IMPORTANCE_DIGEST: u64 = 0x636f_c736_f7f7_bdf7;
/// Weight magnitude with β suppression off.
const MAGNITUDE_DIGEST: u64 = 0x1cc6_e9d7_82e1_823f;
/// `train_subnet`'s per-epoch mean losses on the MLP, as `f32` bits.
const TRAIN_LOSS_BITS: [u32; 4] = [0x3f27_2a2a, 0x3ea0_922f, 0x3e65_1d1c, 0x3e24_787e];
/// Pretrain, construct, then distill the conv net against its pretrained
/// copy.
const DISTILL_DIGEST: u64 = 0xad22_03ef_c225_af8a;

fn data() -> SyntheticImages {
    SyntheticImages::new(
        SyntheticImagesConfig {
            classes: 3,
            channels: 2,
            height: 8,
            width: 8,
            train_per_class: 16,
            test_per_class: 4,
            noise_std: 0.4,
            max_shift: 1,
            ..Default::default()
        },
        41,
    )
    .unwrap()
}

fn net() -> SteppingNet {
    SteppingNetBuilder::new(Shape::of(&[2, 8, 8]), 3, 17)
        .conv(6, 3, 1, 1)
        .batch_norm()
        .relu()
        .max_pool(2, 2)
        .flatten()
        .linear(10)
        .relu()
        .build(3)
        .unwrap()
}

/// Digest of the checkpoint a seeded construction leaves behind.
fn constructed(criterion: SelectionCriterion, suppress_updates: bool) -> u64 {
    let mut net = net();
    let full = net.full_macs() as f64;
    let opts = ConstructionOptions {
        mac_targets: vec![
            (full * 0.3) as u64,
            (full * 0.6) as u64,
            (full * 0.9) as u64,
        ],
        iterations: 4,
        batches_per_iter: 2,
        batch_size: 12,
        criterion,
        suppress_updates,
        seed: 5,
        ..Default::default()
    };
    construct(&mut net, &data(), &opts).unwrap();
    digest(&save_state(&mut net))
}

#[test]
fn seeded_construction_is_pinned() {
    let cases = [
        (
            "gradient importance, suppression on",
            SelectionCriterion::GradientImportance,
            true,
            IMPORTANCE_DIGEST,
        ),
        (
            "weight magnitude, suppression off",
            SelectionCriterion::WeightMagnitude,
            false,
            MAGNITUDE_DIGEST,
        ),
    ];
    for (what, criterion, suppress, want) in cases {
        let got = constructed(criterion, suppress);
        assert_eq!(got, want, "{what}: checkpoint digest {got:#018x}");
    }
}

#[test]
fn seeded_training_losses_are_pinned() {
    let blobs = GaussianBlobs::new(
        GaussianBlobsConfig {
            classes: 3,
            features: 10,
            train_per_class: 30,
            test_per_class: 5,
            separation: 1.5,
            noise_std: 1.0,
        },
        23,
    )
    .unwrap();
    let mut mlp = SteppingNetBuilder::new(Shape::of(&[10]), 2, 9)
        .linear(16)
        .relu()
        .linear(12)
        .relu()
        .build(3)
        .unwrap();
    let opts = TrainOptions {
        epochs: 4,
        batch_size: 16,
        lr: 0.05,
        seed: 3,
        ..Default::default()
    };
    let losses = train_subnet(&mut mlp, &blobs, 0, &opts).unwrap();
    let bits: Vec<u32> = losses.iter().map(|l| l.to_bits()).collect();
    assert_eq!(
        bits, TRAIN_LOSS_BITS,
        "epoch losses {losses:?}, bits {bits:#010x?}"
    );
}

#[test]
fn seeded_distillation_is_pinned() {
    let data = data();
    let mut teacher = net();
    let pretrain = TrainOptions {
        epochs: 2,
        batch_size: 12,
        seed: 7,
        ..Default::default()
    };
    train_subnet(&mut teacher, &data, 0, &pretrain).unwrap();
    let mut student = teacher.clone();
    let full = student.full_macs() as f64;
    let construction = ConstructionOptions {
        mac_targets: vec![
            (full * 0.3) as u64,
            (full * 0.6) as u64,
            (full * 0.9) as u64,
        ],
        iterations: 2,
        batches_per_iter: 2,
        batch_size: 12,
        seed: 5,
        ..Default::default()
    };
    construct(&mut student, &data, &construction).unwrap();
    let opts = DistillOptions {
        epochs: 2,
        batch_size: 12,
        seed: 11,
        ..Default::default()
    };
    distill(&mut student, &mut teacher, 0, &data, &opts).unwrap();
    let got = digest(&save_state(&mut student));
    assert_eq!(got, DISTILL_DIGEST, "checkpoint digest {got:#018x}");
}

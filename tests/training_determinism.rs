//! Seeded construction pinned bit for bit: a tiny conv net (conv, batch
//! norm, ReLU, pool, flatten, linear) is built, constructed under each
//! selection criterion and saved, and the checkpoint's FNV-1a digest must
//! equal a constant pinned from an earlier build. Any change to the masked
//! forward, backward, importance, suppression, pruning or move rules that
//! moves a single bit of a weight or an assignment fails here — and it must
//! not depend on the thread count, so every case runs at 1 and 4 threads.

use steppingnet::core::checkpoint::save_state;
use steppingnet::core::{
    construct, ConstructionOptions, ParallelConfig, SelectionCriterion, SteppingNet,
    SteppingNetBuilder,
};
use steppingnet::data::{SyntheticImages, SyntheticImagesConfig};
use steppingnet::tensor::Shape;
use steppingnet::verify::digest;

/// Gradient importance with β suppression on.
const IMPORTANCE_DIGEST: u64 = 0x636f_c736_f7f7_bdf7;
/// Weight magnitude with β suppression off.
const MAGNITUDE_DIGEST: u64 = 0x1cc6_e9d7_82e1_823f;

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
fn constructed(criterion: SelectionCriterion, suppress_updates: bool, threads: usize) -> u64 {
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
        parallel: ParallelConfig {
            threads,
            shard_rows: 8,
            min_rows: 0,
        },
        ..Default::default()
    };
    construct(&mut net, &data(), &opts).unwrap();
    digest(&save_state(&mut net))
}

#[test]
fn seeded_construction_is_pinned_at_every_thread_count() {
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
        for threads in [1, 4] {
            let got = constructed(criterion, suppress, threads);
            assert_eq!(
                got, want,
                "{what} at {threads} threads: checkpoint digest {got:#018x}"
            );
        }
    }
}

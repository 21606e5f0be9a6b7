//! End-to-end test of the `verify-invariants` gate: with the feature
//! enabled, the analyzer installed by [`stepping_verify::install_analyzer_gate`]
//! runs after every construction iteration and on every checkpoint load —
//! and never changes numerical results.
//!
//! This file is its own process, so installing the process-wide hook here
//! cannot interfere with other test binaries.

#![cfg(feature = "verify-invariants")]

use stepping_core::checkpoint::{load_state, save_state};
use stepping_core::{construct, ConstructionOptions, SteppingNet, SteppingNetBuilder};
use stepping_data::{GaussianBlobs, GaussianBlobsConfig};
use stepping_tensor::{init, Shape, Tensor};

fn data() -> GaussianBlobs {
    GaussianBlobs::new(
        GaussianBlobsConfig {
            classes: 3,
            features: 10,
            train_per_class: 30,
            test_per_class: 10,
            separation: 3.0,
            noise_std: 0.6,
        },
        21,
    )
    .unwrap()
}

fn net(subnets: usize) -> SteppingNet {
    SteppingNetBuilder::new(Shape::of(&[10]), subnets, 5)
        .linear(14)
        .relu()
        .linear(10)
        .relu()
        .build(3)
        .unwrap()
}

#[test]
fn gate_runs_through_construction_and_checkpoint_load() {
    assert!(
        stepping_verify::install_analyzer_gate(),
        "first installation in this process must win"
    );

    // The installed hook now dispatches to the full analyzer.
    let healthy = net(2);
    assert!(stepping_core::hook::run_invariant_checks(&healthy).is_ok());
    let mut corrupted = net(2);
    let last = *corrupted.masked_stage_indices().last().unwrap();
    corrupted.stages_mut()[last].move_out_neuron(0, 1).unwrap(); // no sync: stale
    let err = stepping_core::hook::run_invariant_checks(&corrupted).unwrap_err();
    assert!(
        format!("{err}").contains("R2"),
        "analyzer rule id expected: {err}"
    );
    // neuron 0 now sits in subnet 1 ahead of subnet-0 neurons: R7 names
    // the fix
    assert!(
        format!("{err}").contains("R7") && format!("{err}").contains("sync_assignments()"),
        "level-order violation expected: {err}"
    );

    // Construction re-verifies after every iteration — and succeeds on a
    // healthy run without altering results: two identical runs agree.
    let d = data();
    let mut a = net(3);
    let mut b = net(3);
    let full = a.full_macs();
    let opts = ConstructionOptions {
        mac_targets: vec![full / 5, full / 2, full * 4 / 5],
        iterations: 3,
        batches_per_iter: 2,
        batch_size: 16,
        seed: 9,
        ..Default::default()
    };
    let ra = construct(&mut a, &d, &opts).unwrap();
    let rb = construct(&mut b, &d, &opts).unwrap();
    assert_eq!(
        ra.final_macs, rb.final_macs,
        "gate must not perturb construction"
    );

    // Checkpoint load re-verifies the restored structure.
    let blob = save_state(&mut a);
    let mut restored = net(3);
    load_state(&mut restored, &blob).unwrap();
    let x = init::uniform(Shape::of(&[2, 10]), -1.0, 1.0, &mut init::rng(17));
    for k in 0..3 {
        let ya: Tensor = a.forward(&x, k, false).unwrap();
        let yr: Tensor = restored.forward(&x, k, false).unwrap();
        assert_eq!(
            ya.data(),
            yr.data(),
            "subnet {k} logits must survive the round-trip"
        );
    }
}

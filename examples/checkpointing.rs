//! Deployment workflow: construct + distill once, checkpoint the result, and
//! restore it into a fresh process for anytime inference — construction
//! never needs to run on the target device.
//!
//! Run with `cargo run --release --example checkpointing`.

use steppingnet::core::checkpoint::{load_state, save_state};
use steppingnet::core::IncrementalExecutor;
use steppingnet::data::{GaussianBlobs, GaussianBlobsConfig};
use steppingnet::prelude::*;

/// The architecture both the "build server" and the "device" agree on.
fn architecture() -> Result<SteppingNet, SteppingError> {
    SteppingNetBuilder::new(Shape::of(&[16]), 3, 21)
        .linear(40)
        .relu()
        .linear(28)
        .relu()
        .build(5)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = GaussianBlobs::new(
        GaussianBlobsConfig {
            classes: 5,
            features: 16,
            train_per_class: 60,
            test_per_class: 20,
            separation: 2.2,
            noise_std: 1.2,
        },
        8,
    )?;

    // ---- build server: train, construct, snapshot -----------------------
    let mut server_net = architecture()?;
    train_subnet(
        &mut server_net,
        &data,
        0,
        &TrainOptions {
            epochs: 10,
            lr: 0.1,
            ..Default::default()
        },
    )?;
    let full = server_net.full_macs();
    construct(
        &mut server_net,
        &data,
        &ConstructionOptions {
            mac_targets: vec![
                (full as f64 * 0.15) as u64,
                (full as f64 * 0.45) as u64,
                (full as f64 * 0.85) as u64,
            ],
            iterations: 12,
            batches_per_iter: 5,
            batch_size: 32,
            ..Default::default()
        },
    )?;
    let accs = evaluate_all(&mut server_net, &data, Split::Test, 32)?;
    let blob = save_state(&mut server_net);
    println!(
        "server: constructed subnets with accuracies {:?}; checkpoint is {} bytes",
        accs.iter().map(|a| (a * 100.0).round()).collect::<Vec<_>>(),
        blob.len()
    );

    // ---- device: restore into a fresh architecture ----------------------
    let mut device_net = architecture()?;
    load_state(&mut device_net, &blob)?;
    device_net.check_invariants()?;
    println!(
        "device: restored; subnet MACs {:?}",
        (0..3).map(|k| device_net.macs(k, 1e-5)).collect::<Vec<_>>()
    );

    // the restored network serves anytime inference immediately
    let (x, label) = data.batch(Split::Test, &[7])?;
    let mut exec = IncrementalExecutor::new(&device_net, 1e-5);
    let mut step = exec.begin(&x)?;
    println!(
        "device: anytime inference on one sample (true class {}):",
        label[0]
    );
    loop {
        println!(
            "  subnet {} predicts {} ({} MACs this step)",
            step.subnet,
            step.logits.argmax(),
            step.step_macs
        );
        match exec.expand() {
            Ok(next) => step = next,
            Err(_) => break,
        }
    }

    // restored and server nets agree exactly
    let mut check = evaluate_all(&mut device_net, &data, Split::Test, 32)?;
    for (a, b) in check.drain(..).zip(accs.iter()) {
        assert_eq!(a, *b, "restored accuracy must match the server's exactly");
    }
    println!("device accuracies match the server bit-for-bit");
    Ok(())
}

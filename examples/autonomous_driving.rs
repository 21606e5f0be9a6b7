//! Autonomous-driving scenario (the paper's §I motivation): a perception
//! network must deliver a *preliminary decision quickly* and refine it as
//! the deadline allows.
//!
//! A small stepping CNN is trained on a synthetic road-scene-like image
//! task; we then sweep deadlines and show which subnet's prediction is ready
//! at each deadline and how accurate that level is.
//!
//! Run with `cargo run --release --example autonomous_driving`.

use steppingnet::data::{SyntheticImages, SyntheticImagesConfig};
use steppingnet::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 5 "hazard classes" of synthetic camera frames.
    let data = SyntheticImages::new(
        SyntheticImagesConfig {
            classes: 5,
            channels: 3,
            height: 16,
            width: 16,
            train_per_class: 60,
            test_per_class: 15,
            noise_std: 0.5,
            ..Default::default()
        },
        99,
    )?;

    let mut net = SteppingNetBuilder::new(Shape::of(&[3, 16, 16]), 3, 3)
        .conv(12, 3, 1, 1)
        .relu()
        .max_pool(2, 2)
        .conv(18, 3, 1, 1)
        .relu()
        .max_pool(2, 2)
        .flatten()
        .linear(32)
        .relu()
        .build(5)?;

    println!("pretraining perception network…");
    train_subnet(
        &mut net,
        &data,
        0,
        &TrainOptions {
            epochs: 6,
            lr: 0.05,
            ..Default::default()
        },
    )?;

    let full = net.full_macs();
    let opts = ConstructionOptions {
        mac_targets: vec![
            (full as f64 * 0.15) as u64,
            (full as f64 * 0.45) as u64,
            (full as f64 * 0.85) as u64,
        ],
        iterations: 10,
        batches_per_iter: 4,
        batch_size: 32,
        ..Default::default()
    };
    println!("constructing subnets…");
    construct(&mut net, &data, &opts)?;

    let accs = evaluate_all(&mut net, &data, Split::Test, 32)?;
    println!(
        "subnet accuracies: {:?}",
        accs.iter().map(|a| (a * 100.0).round()).collect::<Vec<_>>()
    );

    // The ECU grants a fixed MAC budget per 1-ms control slice.
    let device = DeviceModel::embedded();
    let per_slice = device.budget_for_us(15.0); // 15 µs of compute per slice
    let trace = ResourceTrace::constant(per_slice, 64);
    let (x, label) = data.batch(Split::Test, &[3])?;
    println!(
        "\nper-slice budget: {per_slice} MACs; subnet costs: {:?}",
        (0..3)
            .map(|k| net.macs(k, opts.prune_threshold))
            .collect::<Vec<_>>()
    );
    println!("deadline sweep (true class {}):", label[0]);
    let cfg = SessionConfig::new()
        .trace(trace)
        .device(device)
        .prune_threshold(opts.prune_threshold);
    for deadline in [1usize, 2, 4, 8, 16, 32, 64] {
        let out = Session::new(&net, cfg.clone()).run_until_deadline(&x, deadline)?;
        match (out.final_subnet, &out.final_logits) {
            (Some(k), Some(logits)) => println!(
                "  deadline {deadline:>2} slices → subnet {k} ready, predicts class {} \
                 (level accuracy {:.0}%)",
                logits.argmax(),
                accs[k] * 100.0
            ),
            _ => println!("  deadline {deadline:>2} slices → no prediction ready yet"),
        }
    }
    Ok(())
}

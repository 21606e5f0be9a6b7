//! Quickstart: the whole SteppingNet workflow on a small MLP in under a
//! minute.
//!
//! 1. pretrain an original network,
//! 2. construct four MAC-budgeted nested subnets,
//! 3. retrain them with knowledge distillation,
//! 4. run anytime inference, stepping from the smallest to the largest
//!    subnet with full computational reuse.
//!
//! Run with `cargo run --release --example quickstart`.

use steppingnet::core::{distill, BatchExecutor, DistillOptions};
use steppingnet::data::{GaussianBlobs, GaussianBlobsConfig};
use steppingnet::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 6-class Gaussian-blob task: fast, deterministic, capacity-sensitive.
    let data = GaussianBlobs::new(
        GaussianBlobsConfig {
            classes: 6,
            features: 24,
            train_per_class: 80,
            test_per_class: 25,
            separation: 2.0,
            noise_std: 2.4,
        },
        42,
    )?;

    // The original network, width-expanded so construction has room to move
    // neurons (the paper's §IV expansion step).
    let mut net = SteppingNetBuilder::new(Shape::of(&[24]), 4, 7)
        .linear(96)
        .relu()
        .linear(64)
        .relu()
        .build(6)?;
    println!(
        "original (expanded) network: {} MACs capacity",
        net.full_macs()
    );

    println!("pretraining…");
    train_subnet(
        &mut net,
        &data,
        0,
        &TrainOptions {
            epochs: 10,
            lr: 0.1,
            ..Default::default()
        },
    )?;
    let teacher = net.clone(); // frozen pretrained original = KD teacher

    // Budgets: 10 / 30 / 55 / 85 % of the full capacity.
    let full = net.full_macs();
    let opts = ConstructionOptions {
        mac_targets: vec![
            (full as f64 * 0.10) as u64,
            (full as f64 * 0.30) as u64,
            (full as f64 * 0.55) as u64,
            (full as f64 * 0.85) as u64,
        ],
        iterations: 20,
        batches_per_iter: 6,
        batch_size: 32,
        lr: 0.05,
        ..Default::default()
    };
    println!("constructing subnets…");
    let report = construct(&mut net, &data, &opts)?;
    println!(
        "construction done in {} iterations; budgets met: {}",
        report.iterations.len(),
        report.satisfied
    );

    println!("retraining with knowledge distillation…");
    let mut teacher = teacher;
    distill(
        &mut net,
        &mut teacher,
        0,
        &data,
        &DistillOptions {
            epochs: 8,
            ..Default::default()
        },
    )?;

    let accs = evaluate_all(&mut net, &data, Split::Test, 32)?;
    println!("\nsubnet | MACs    | share  | test accuracy");
    for (k, acc) in accs.iter().enumerate() {
        let m = net.macs(k, opts.prune_threshold);
        println!(
            "   {k}   | {m:>7} | {:>5.1}% | {:.1}%",
            100.0 * m as f64 / full as f64,
            100.0 * acc
        );
    }

    // Anytime inference: classify one sample incrementally — a batch of
    // one request, whose cached activations each expand reuses.
    let (x, label) = data.batch(Split::Test, &[0])?;
    let mut exec = BatchExecutor::new(&net, opts.prune_threshold);
    let (mut cache, first) = exec.begin(std::slice::from_ref(&x), 0)?.remove(0);
    let mut steps = vec![first];
    for _ in 1..net.subnet_count() {
        steps.extend(exec.expand(std::slice::from_mut(&mut cache))?);
    }
    println!(
        "\nanytime inference on one sample (true class {}):",
        label[0]
    );
    for step in &steps {
        let pred = step.logits.argmax();
        println!(
            "  subnet {}: predicted {} ({} MACs this step, {} cumulative)",
            step.subnet, pred, step.step_macs, step.cumulative_macs
        );
    }
    Ok(())
}

//! Observation must be strictly read-only: running the identical
//! construct() + Session::run pipeline with the observer installed must produce
//! bit-identical numerics to running without it.
//!
//! The observer hook is a process-wide `OnceLock` and cannot be
//! uninstalled, so ordering is essential: the baseline run happens first,
//! then the observer is installed and the pipeline repeats. This file
//! contains exactly one #[test] so no sibling test can install the observer
//! early.

use stepping_core::{construct, ConstructionOptions, SteppingNet, SteppingNetBuilder};
use stepping_data::{GaussianBlobs, GaussianBlobsConfig};
use stepping_obs::CaptureSink;
use stepping_runtime::{ResourceTrace, Session, SessionConfig};
use stepping_tensor::{init, Shape};

fn data() -> GaussianBlobs {
    GaussianBlobs::new(
        GaussianBlobsConfig {
            classes: 3,
            features: 8,
            train_per_class: 30,
            test_per_class: 10,
            separation: 2.0,
            noise_std: 1.0,
        },
        77,
    )
    .unwrap()
}

fn fresh_net() -> SteppingNet {
    SteppingNetBuilder::new(Shape::of(&[8]), 3, 11)
        .linear(24)
        .relu()
        .build(3)
        .unwrap()
}

struct PipelineResult {
    report_debug: String,
    macs: Vec<u64>,
    timeline_debug: String,
    final_subnet: Option<usize>,
    total_macs: u64,
    logits_bits: Vec<u32>,
}

fn run_pipeline() -> PipelineResult {
    let d = data();
    let mut net = fresh_net();
    let full = net.full_macs();
    let opts = ConstructionOptions {
        mac_targets: vec![
            (full as f64 * 0.25) as u64,
            (full as f64 * 0.55) as u64,
            (full as f64 * 0.90) as u64,
        ],
        iterations: 6,
        batches_per_iter: 3,
        batch_size: 16,
        lr: 0.05,
        ..Default::default()
    };
    let report = construct(&mut net, &d, &opts).unwrap();
    let macs: Vec<u64> = (0..3).map(|k| net.macs(k, opts.prune_threshold)).collect();

    let x = init::uniform(Shape::of(&[2, 8]), -1.0, 1.0, &mut init::rng(5));
    let trace = ResourceTrace::constant(net.macs(1, opts.prune_threshold), 5);
    let config = SessionConfig::new()
        .trace(trace)
        .prune_threshold(opts.prune_threshold);
    let outcome = Session::new(&mut net, config).run(&x).unwrap();
    PipelineResult {
        report_debug: format!("{report:?}"),
        macs,
        timeline_debug: format!("{:?}", outcome.timeline),
        final_subnet: outcome.final_subnet,
        total_macs: outcome.total_macs,
        logits_bits: outcome
            .final_logits
            .map(|t| t.data().iter().map(|v| v.to_bits()).collect())
            .unwrap_or_default(),
    }
}

#[test]
fn observer_does_not_perturb_numerics() {
    // Baseline: no observer anywhere in this process yet.
    assert!(
        !stepping_obs::installed(),
        "observer installed before baseline — test ordering broken"
    );
    let baseline = run_pipeline();
    assert!(!baseline.logits_bits.is_empty(), "pipeline produced logits");

    // Now install the observer with a capture sink and repeat.
    let sink = CaptureSink::new();
    let handle = sink.handle();
    stepping_obs::add_sink(Box::new(sink));
    assert!(stepping_obs::install());

    let observed = run_pipeline();

    // Events actually flowed (the feature is on via dev-dependencies) ...
    let events = handle.lock().unwrap();
    assert!(
        events.iter().any(|e| e.name == "construct.iteration"),
        "no construction events captured"
    );
    assert!(
        events.iter().any(|e| e.name == "drive.slice"),
        "no inference events captured"
    );
    drop(events);

    // ... and nothing numeric moved by even one bit.
    assert_eq!(baseline.logits_bits, observed.logits_bits);
    assert_eq!(baseline.report_debug, observed.report_debug);
    assert_eq!(baseline.macs, observed.macs);
    assert_eq!(baseline.timeline_debug, observed.timeline_debug);
    assert_eq!(baseline.final_subnet, observed.final_subnet);
    assert_eq!(baseline.total_macs, observed.total_macs);
}

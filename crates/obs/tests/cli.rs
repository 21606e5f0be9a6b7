//! End-to-end CLI test: run a real construct() + Session::run pipeline with the
//! observer writing JSONL, then feed the file to the `stepping-obs-report`
//! binary and check the rendered summary.

use std::path::PathBuf;
use std::process::Command;

use stepping_core::{construct, ConstructionOptions, SteppingNetBuilder};
use stepping_data::{GaussianBlobs, GaussianBlobsConfig};
use stepping_obs::JsonlSink;
use stepping_runtime::{ResourceTrace, Session, SessionConfig};
use stepping_tensor::{init, Shape};

fn events_path() -> PathBuf {
    std::env::temp_dir().join(format!(
        "stepping-obs-cli-{}.events.jsonl",
        std::process::id()
    ))
}

fn produce_events(path: &PathBuf) {
    stepping_obs::add_sink(Box::new(JsonlSink::create(path).unwrap()));
    assert!(stepping_obs::install());

    let d = GaussianBlobs::new(
        GaussianBlobsConfig {
            classes: 3,
            features: 8,
            train_per_class: 20,
            test_per_class: 5,
            separation: 2.0,
            noise_std: 1.0,
        },
        13,
    )
    .unwrap();
    let mut net = SteppingNetBuilder::new(Shape::of(&[8]), 3, 4)
        .linear(16)
        .relu()
        .build(3)
        .unwrap();
    let full = net.full_macs();
    let opts = ConstructionOptions {
        mac_targets: vec![
            (full as f64 * 0.25) as u64,
            (full as f64 * 0.55) as u64,
            (full as f64 * 0.90) as u64,
        ],
        iterations: 4,
        batches_per_iter: 2,
        batch_size: 16,
        lr: 0.05,
        ..Default::default()
    };
    construct(&mut net, &d, &opts).unwrap();
    let x = init::uniform(Shape::of(&[1, 8]), -1.0, 1.0, &mut init::rng(9));
    let trace = ResourceTrace::constant(net.macs(1, opts.prune_threshold), 4);
    let config = SessionConfig::new()
        .trace(trace)
        .prune_threshold(opts.prune_threshold);
    Session::new(&mut net, config).run(&x).unwrap();
    stepping_obs::flush();
}

#[test]
fn report_renders_summary_from_end_to_end_run() {
    let path = events_path();
    produce_events(&path);

    let out = Command::new(env!("CARGO_BIN_EXE_stepping-obs-report"))
        .arg(&path)
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "report failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    for needle in [
        "stepping-obs report",
        "per-phase",
        "construction",
        "inference",
        "iterations: ",
        "slices: 4",
        "budget utilization",
        "slowest spans",
    ] {
        assert!(stdout.contains(needle), "missing {needle:?} in:\n{stdout}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn report_rejects_missing_file_and_bad_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_stepping-obs-report"))
        .arg("/nonexistent/events.jsonl")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(!String::from_utf8_lossy(&out.stderr).is_empty());

    let out = Command::new(env!("CARGO_BIN_EXE_stepping-obs-report"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

//! Resource-varying platform scenario (the paper's §I motivation 2): the
//! compute budget changes while inference runs — e.g. a phone switching
//! between power modes — and the network must exploit newly available
//! resources *without recomputing from scratch*.
//!
//! Compares the SteppingNet incremental-upgrade policy against the
//! recompute-on-switch behaviour of width-switchable baselines over the same
//! bursty resource trace, and demonstrates the live (threaded) simulator
//! with a concurrent observer.
//!
//! Run with `cargo run --release --example resource_varying`.

use std::time::Duration;

use steppingnet::prelude::*;
use steppingnet::runtime::LatestPrediction;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An untrained net suffices here: this example is about scheduling and
    // MAC accounting, not accuracy.
    let mut net = SteppingNetBuilder::new(Shape::of(&[3, 16, 16]), 4, 1)
        .conv(16, 3, 1, 1)
        .relu()
        .max_pool(2, 2)
        .conv(24, 3, 1, 1)
        .relu()
        .max_pool(2, 2)
        .flatten()
        .linear(40)
        .relu()
        .build(8)?;
    regular_assign(&mut net, &[0.25, 0.5, 0.75, 1.0])?;

    let full = net.macs(3, 0.0);
    println!(
        "subnet costs: {:?}",
        (0..4).map(|k| net.macs(k, 0.0)).collect::<Vec<_>>()
    );

    // Bursty budget: mostly starved, occasionally a big grant (a co-running
    // task finished).
    let trace = ResourceTrace::bursty(11, full / 10, full / 2, 0.25, 24);
    let x = init::uniform(Shape::of(&[1, 3, 16, 16]), -1.0, 1.0, &mut init::rng(5));

    let inc_cfg = SessionConfig::new().trace(trace.clone());
    let rec_cfg = inc_cfg.clone().policy(UpgradePolicy::Recompute);
    let inc = Session::new(&net, inc_cfg.clone()).run(&x)?;
    let rec = Session::new(&net, rec_cfg).run(&x)?;
    println!("\npolicy comparison over the same bursty trace:");
    println!(
        "  incremental: reached subnet {:?} spending {} MACs (first prediction at slice {:?})",
        inc.final_subnet, inc.total_macs, inc.first_prediction_slice
    );
    println!(
        "  recompute:   reached subnet {:?} spending {} MACs (first prediction at slice {:?})",
        rec.final_subnet, rec.total_macs, rec.first_prediction_slice
    );
    println!("\nincremental timeline (slice: budget → spent, ready subnet):");
    for log in inc.timeline.iter() {
        println!(
            "  {:>2}: {:>8} → {:>8}, ready: {:?}",
            log.slice, log.budget, log.spent, log.subnet_ready
        );
    }

    // Live threaded run: an observer polls the freshest prediction while the
    // budget ticks in.
    println!("\nlive run with concurrent observer…");
    let latest = LatestPrediction::new();
    let observer_cell = latest.clone();
    let observer = std::thread::spawn(move || {
        let mut seen = Vec::new();
        for _ in 0..2000 {
            if let Some((subnet, _)) = observer_cell.get() {
                if seen.last() != Some(&subnet) {
                    seen.push(subnet);
                }
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        seen
    });
    let live_cfg = inc_cfg.tick(Duration::from_millis(1));
    Session::new(&net, live_cfg).run_live(&x, &latest)?;
    let seen = observer.join().expect("observer panicked");
    println!("observer saw refinement sequence: {seen:?}");
    Ok(())
}

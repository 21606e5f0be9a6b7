//! Quantifies the **computational-reuse** claim (paper §I contribution 2):
//! MACs and modeled latency of stepping to each subnet incrementally versus
//! recomputing it from scratch, plus an anytime drive over a bursty resource
//! trace.
//!
//! Run with `cargo run --release -p stepping-bench --bin reuse`.

use stepping_bench::observe::{self, progress, report_text};
use stepping_bench::{print_table, ExperimentScale, TestCase};
use stepping_core::{construct, train::train_subnet, BatchExecutor};
use stepping_data::{Dataset, Split};
use stepping_runtime::{
    expand_macs, DeviceModel, ResourceTrace, Session, SessionConfig, UpgradePolicy,
};

fn main() {
    observe::init("reuse");
    let scale = ExperimentScale::from_env();
    let case = TestCase::lenet_3c1l(scale);
    let data = case.dataset().expect("dataset");
    let mut net = case
        .arch
        .build(case.budgets.len(), case.model_seed, case.expansion)
        .expect("build");
    train_subnet(&mut net, &data, 0, &case.pretrain_options()).expect("pretrain");
    let copts = case.construction_options();
    let report = construct(&mut net, &data, &copts).expect("construct");
    progress(&format!("constructed; budgets met: {}", report.satisfied));

    let thr = copts.prune_threshold;
    let device = DeviceModel::embedded();
    let mut rows = Vec::new();
    for k in 0..net.subnet_count() {
        let scratch = net.macs(k, thr);
        let step = if k == 0 {
            scratch
        } else {
            expand_macs(&net, k - 1, thr).expect("expand")
        };
        rows.push(vec![
            format!("{k}"),
            scratch.to_string(),
            step.to_string(),
            format!("{:.1}x", scratch as f64 / step.max(1) as f64),
            format!("{:.1}us", device.latency_us(scratch)),
            format!("{:.1}us", device.latency_us(step)),
        ]);
    }
    report_text("\nREUSE: incremental expansion vs from-scratch execution");
    print_table(
        &[
            "subnet",
            "scratch MACs",
            "step MACs",
            "saving",
            "scratch lat",
            "step lat",
        ],
        &rows,
    );

    // verify the executor agrees with the static accounting
    let (x, _) = data.batch(Split::Test, &[0]).expect("sample");
    let subnets = net.subnet_count();
    let mut exec = BatchExecutor::new(&net, thr);
    let (mut cache, _) = exec
        .begin(std::slice::from_ref(&x), 0)
        .expect("begin")
        .remove(0);
    for _ in 1..subnets {
        exec.expand(std::slice::from_mut(&mut cache))
            .expect("expand");
    }
    report_text(&format!(
        "\nexecutor cumulative MACs after final step: {}",
        cache.cumulative_macs()
    ));

    // anytime drive over a bursty trace: incremental vs recompute policies
    let full = net.macs(net.subnet_count() - 1, thr);
    let trace = ResourceTrace::bursty(7, full / 8, full / 2, 0.3, 12);
    let inc_cfg = SessionConfig::new()
        .trace(trace.clone())
        .prune_threshold(thr);
    let rec_cfg = inc_cfg.clone().policy(UpgradePolicy::Recompute);
    let inc = Session::new(&mut net, inc_cfg).run(&x).expect("drive");
    let rec = Session::new(&mut net, rec_cfg).run(&x).expect("drive");
    report_text(&format!(
        "\nANYTIME drive over bursty trace ({} slices, {} total MACs):",
        trace.len(),
        trace.total()
    ));
    print_table(
        &["policy", "final subnet", "total MACs", "first prediction"],
        &[
            vec![
                "incremental".into(),
                format!("{:?}", inc.final_subnet),
                inc.total_macs.to_string(),
                format!("{:?}", inc.first_prediction_slice),
            ],
            vec![
                "recompute".into(),
                format!("{:?}", rec.final_subnet),
                rec.total_macs.to_string(),
                format!("{:?}", rec.first_prediction_slice),
            ],
        ],
    );
    observe::finish();
}

//! The metric names of `BENCHMARK.json`, in report order. The binaries
//! report exactly these; a test keeps the file and this list equal.

use crate::models::{Model, SUBNETS};

/// One end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// Share of the reference value by which it may get worse.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better,
        bound,
    }
}

/// The end-to-end metrics, measured with tracing off on every workload.
///
/// Every metric that is a time, a rate or a size may get 25 % worse: the
/// host this was sized on drifts between regimes 10–15 % apart over
/// minutes (ten runs of one workload spread 2–5 % in a calm period and
/// 8–14 % in a bad one), and a bound is set at three times the spread seen.
///
/// `full_service_frac` is one minus the share of replies `Degraded` or
/// `Shed`, and `success_frac` one minus the share of operations that
/// errored, were refused or failed the output check: written as shares of
/// good outcomes because a benchmark metric may never read 0, and their
/// relative bounds (2 % of ~1, 0.1 % of 1) are the absolute ones meant.
pub const END_TO_END: [EndToEnd; 13] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("throughput_rps", "1/s", true, 0.25),
    e2e("cpu_us_per_op", "us", false, 0.25),
    e2e("latency_p50_us", "us", false, 0.25),
    e2e("first_answer_p50_us", "us", false, 0.25),
    e2e("step_p50_us", "us", false, 0.25),
    e2e("session_p50_us", "us", false, 0.25),
    e2e("goodput_rps", "1/s", true, 0.25),
    e2e("served_level_mean", "level", true, 0.02),
    e2e("full_service_frac", "ratio", true, 0.02),
    e2e("success_frac", "ratio", true, 0.001),
    e2e("peak_rss_mb", "MB", false, 0.25),
    e2e("ops", "count", true, 0.001),
];

/// Name and unit of every per-layer metric: the probe's first (`tensor`,
/// `core`, `runtime`, `serve.null_roundtrip_us`, the router's own costs),
/// then what the traced run of a workload adds.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| names.push((name.to_string(), unit));
    for (name, unit) in [
        ("tensor.gemm_r1_gflops", "GFLOP/s"),
        ("tensor.gemm_r8_gflops", "GFLOP/s"),
        ("tensor.peak_gflops", "GFLOP/s"),
        ("tensor.gemm_r8_peak_frac", "ratio"),
        ("tensor.gather_gbps", "GB/s"),
        ("tensor.scatter_gbps", "GB/s"),
        ("tensor.im2col_gbps", "GB/s"),
        ("tensor.pack_b_us", "us"),
    ] {
        add(name, unit);
    }
    for model in [Model::Mlp, Model::Conv] {
        let m = model.name();
        for s in 0..SUBNETS {
            add(&format!("core.{m}.packed_mac_ratio_s{s}"), "ratio");
            add(&format!("core.{m}.budget_mac_ratio_s{s}"), "ratio");
        }
        for rows in [1, 8] {
            for s in 0..SUBNETS {
                add(&format!("core.{m}.direct_r{rows}_s{s}_us"), "us");
            }
            for s in 1..SUBNETS {
                add(&format!("core.{m}.expand_r{rows}_s{s}_us"), "us");
            }
            add(&format!("core.{m}.chain_vs_direct_r{rows}"), "ratio");
            add(&format!("core.{m}.fused_r{rows}_s3_us"), "us");
        }
        add(&format!("core.{m}.plan_compile_us"), "us");
    }
    for (name, unit) in [
        ("runtime.session_run_us", "us"),
        ("serve.null_roundtrip_us", "us"),
        ("router.ring_owner_ns", "ns"),
        ("router.successors_ns", "ns"),
        ("router.breaker_ns", "ns"),
        ("router.submit_overhead_ns", "ns"),
        ("router.max_share", "ratio"),
        ("router.ring_imbalance", "ratio"),
        ("serve.submit_call_ns_p50", "ns"),
        ("serve.upgrade_call_ns_p50", "ns"),
        ("serve.release_call_ns_p50", "ns"),
        ("serve.wake_lag_us_p50", "us"),
        ("serve.queue_wait_est_us_p50", "us"),
        ("serve.mean_batch", "count"),
        ("serve.batches", "count"),
        ("serve.batch_size_p50", "count"),
        ("serve.degraded", "count"),
        ("serve.shed", "count"),
        ("serve.rejected", "count"),
        ("serve.cache_hits", "count"),
        ("serve.deadline_misses", "count"),
        ("serve.total_macs", "count"),
        ("serve.sessions_end", "count"),
        ("router.reroutes", "count"),
        ("router.vs_single_ratio", "ratio"),
        ("metrics.recording_cost_frac", "ratio"),
        ("client.latency_p90_us", "us"),
        ("client.latency_p99_us", "us"),
        ("client.session_p90_us", "us"),
        ("client.latency_tail_us", "us"),
        ("client.latency_tail_pct", "%"),
        ("client.samples", "count"),
        ("client.r1_latency_p50_us", "us"),
        ("client.r1_goodput_frac", "ratio"),
        ("client.r2_latency_p50_us", "us"),
        ("client.r2_goodput_frac", "ratio"),
        ("client.r3_latency_p50_us", "us"),
        ("client.r3_goodput_frac", "ratio"),
        ("client.max_rate_ok_rps", "1/s"),
        ("client.gen_late_p99_us", "us"),
        ("client.stamp_reorder_frac", "ratio"),
        ("client.throughput_spread", "ratio"),
        ("trace.overhead_frac", "ratio"),
        ("trace.spans", "count"),
        ("host.nproc", "count"),
        ("host.canary_before_mflops", "MFLOP/s"),
        ("host.canary_after_mflops", "MFLOP/s"),
    ] {
        add(name, unit);
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{Workload, NOMINAL_SECONDS};
    use stepping_metrics::snapshot::json::{self, Json};

    fn entries<'a>(file: &'a Json, key: &str) -> &'a [Json] {
        match file.get(key) {
            Some(Json::Array(entries)) => entries,
            other => panic!("{key}: expected an array, found {other:?}"),
        }
    }

    fn text<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry.get(key).and_then(Json::as_str).expect(key)
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_binaries_report() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let raw = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let file = json::parse(&raw).expect("valid JSON");

        let listed: Vec<(&str, &str, bool, f64)> = entries(&file, "end_to_end")
            .iter()
            .map(|e| {
                let bound = e.get("bound").and_then(Json::as_f64).expect("bound");
                (
                    text(e, "name"),
                    text(e, "unit"),
                    text(e, "better") == "higher",
                    bound,
                )
            })
            .collect();
        let reported: Vec<(&str, &str, bool, f64)> = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.higher_is_better, m.bound))
            .collect();
        assert_eq!(listed, reported);

        let layers: Vec<(String, String)> = entries(&file, "per_layer")
            .iter()
            .map(|e| (text(e, "name").to_string(), text(e, "unit").to_string()))
            .collect();
        let reported: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(name, unit)| (name, unit.to_string()))
            .collect();
        assert_eq!(layers, reported);
        assert!(reported.len() <= 128);

        let workloads: Vec<&str> = entries(&file, "workloads")
            .iter()
            .map(|w| text(w, "name"))
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
        let seconds = file.get("run_seconds").and_then(Json::as_u64);
        assert_eq!(seconds, Some(NOMINAL_SECONDS));
    }
}

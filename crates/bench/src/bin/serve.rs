//! Serving-throughput benchmark for the `stepping-serve` engine.
//!
//! Four experiments over the same closed-loop client population:
//!
//! 1. **worker sweep** — throughput as the worker pool grows (1 → 8) with
//!    micro-batching enabled and clients spread across the sharded batch
//!    lanes (each client pins a different subnet), with the production
//!    metric series (lock-wait percentiles, sampled queue depth, batch
//!    occupancy) diffed per configuration from the global registry. On
//!    hosts with ≥ 4 cores (or `STEPPING_SERVE_ASSERT=1`) the sweep gates
//!    on monotonically non-decreasing throughput from 1 to 4 workers —
//!    the regression the sharded lanes exist to prevent,
//! 2. **single-hot-lane sweep** — the same 1 → 4 monotonic-throughput gate
//!    with every client funneled into ONE lane at `max_batch = 4`, keeping
//!    the lane deeper than one claim can empty: a claim that leaves jobs
//!    behind rings a second worker, which takes the tail at once,
//! 3. **batch vs sequential** — micro-batching (`max_batch = 8`) against a
//!    degenerate one-job-per-batch server (`max_batch = 1`) at the same
//!    worker count, reporting throughput and client-observed latency
//!    percentiles,
//! 4. **metrics overhead A/B** — the same configuration with metric
//!    recording runtime-enabled vs runtime-disabled
//!    ([`stepping_metrics::set_runtime_enabled`]), interleaved, median of
//!    three runs each. The ≤5% hot-path overhead gate self-enables on
//!    machines with ≥ 4 cores (`STEPPING_METRICS_ASSERT=1` forces it
//!    elsewhere) — on fewer cores the A/B contrast is dominated by
//!    scheduler noise, not metric cost.
//!
//! The batched reference configuration also streams registry snapshots to
//! `results/serve.metrics.jsonl` (readable with `stepping-metrics-report`).
//! Results are printed as tables and written to `results/BENCH_serve.json`.
//! `STEPPING_SERVE_SMOKE=1` shrinks the client population and the sweep for
//! CI smoke runs.
//!
//! Run with `cargo run --release -p stepping-bench --bin serve`.

use std::fs;
use std::sync::Arc;
use std::time::{Duration, Instant};

use stepping_baselines::regular_assign;
use stepping_bench::observe::{self, progress, report_text};
use stepping_bench::print_table;
use stepping_core::{SteppingNet, SteppingNetBuilder};
use stepping_metrics::{HistSnapshot, MetricsRegistry, Snapshot};
use stepping_runtime::{DeviceModel, SessionConfig};
use stepping_serve::{Request, ServeConfig, Server};
use stepping_tensor::{init, Shape};

/// `STEPPING_SERVE_SMOKE=1` shrinks everything for CI smoke runs.
fn smoke() -> bool {
    std::env::var("STEPPING_SERVE_SMOKE").as_deref() == Ok("1")
}

/// Concurrent closed-loop clients; the batching claim is made at this level.
fn clients() -> usize {
    if smoke() {
        4
    } else {
        8
    }
}

/// Requests each client issues back-to-back.
fn per_client() -> usize {
    if smoke() {
        20
    } else {
        60
    }
}

/// A network large enough that the forward pass, not queue bookkeeping,
/// dominates: ~330k MACs per row at the full subnet. Four subnets so the
/// lane-diverse sweep exercises four begin lanes concurrently.
fn serving_net() -> SteppingNet {
    let mut net = SteppingNetBuilder::new(Shape::of(&[128]), 4, 3)
        .linear(512)
        .relu()
        .linear(512)
        .relu()
        .build(10)
        .expect("build");
    regular_assign(&mut net, &[0.25, 0.5, 0.75, 1.0]).expect("assign");
    net
}

struct RunResult {
    workers: usize,
    max_batch: usize,
    throughput_rps: f64,
    mean_batch: f64,
    largest_batch: u64,
    p50_us: f64,
    p90_us: f64,
    p99_us: f64,
    /// Queue-lock acquisition wait, merged across workers (µs).
    lock_wait_p50_us: f64,
    /// Tail of the same series (µs).
    lock_wait_p99_us: f64,
    /// Queue depth as sampled by workers at batch extraction (p90).
    queue_depth_p90: u64,
    /// Mean requests per extracted batch, from the occupancy series.
    occupancy_mean: f64,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Interval view of one histogram series (merged over labels) between two
/// registry snapshots.
fn hist_delta(before: &Snapshot, after: &Snapshot, base: &str) -> HistSnapshot {
    after.hist_merged(base).since(&before.hist_merged(base))
}

/// Runs closed-loop producers against one server configuration and measures
/// wall-clock throughput, client-observed latency percentiles, and the
/// production metric series the run left in the global registry.
/// When `lane_diverse`, each client pins its own subnet (`c % subnets`),
/// spreading the population across begin lanes — the sharded-lane fast
/// path. Otherwise every client asks for the full subnet (one shared
/// lane, the batching-friendly worst case for lock sharding).
fn run_config(
    net: &SteppingNet,
    workers: usize,
    max_batch: usize,
    lane_diverse: bool,
    snapshot_path: Option<&str>,
) -> RunResult {
    let registry = MetricsRegistry::global();
    let before = registry.snapshot();
    let mut builder = ServeConfig::builder()
        .workers(workers)
        .max_batch(max_batch)
        .session(SessionConfig::new().device(DeviceModel::embedded()));
    if let Some(path) = snapshot_path {
        builder = builder
            .metrics_snapshot(path)
            .metrics_interval(Duration::from_millis(50));
    }
    let config = builder.build();
    let subnets = net.subnet_count();
    let server = Arc::new(Server::new(net, config).expect("server"));
    let n_clients = clients();
    let n_per_client = per_client();
    let start = Instant::now();
    let handles: Vec<_> = (0..n_clients)
        .map(|c| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let mut latencies = Vec::with_capacity(n_per_client);
                for j in 0..n_per_client {
                    let seed = (c * n_per_client + j) as u64;
                    let x = init::uniform(Shape::of(&[1, 128]), -1.0, 1.0, &mut init::rng(seed));
                    let sent = Instant::now();
                    let request = if lane_diverse {
                        Request::at_subnet(x, c % subnets)
                    } else {
                        Request::full(x)
                    };
                    let response = server
                        .submit(request)
                        .expect("submit")
                        .wait()
                        .expect("response");
                    latencies.push(sent.elapsed().as_secs_f64() * 1e6);
                    server.release(response.session);
                }
                latencies
            })
        })
        .collect();
    let mut latencies: Vec<f64> = handles
        .into_iter()
        .flat_map(|h| match h.join() {
            Ok(l) => l,
            Err(_) => {
                // a panicked client contributes no samples; the request-count
                // assertion below will report the shortfall
                progress("client thread panicked; dropping its samples");
                Vec::new()
            }
        })
        .collect();
    let elapsed = start.elapsed().as_secs_f64();
    server.shutdown();
    let stats = server.stats();
    assert_eq!(stats.requests, (n_clients * n_per_client) as u64);
    let after = registry.snapshot();
    let lock_wait = hist_delta(&before, &after, "serve.lock_wait_ns");
    let sampled = hist_delta(&before, &after, "serve.queue_depth_sampled");
    let occupancy = hist_delta(&before, &after, "serve.batch_occupancy");
    latencies.sort_by(|a, b| a.total_cmp(b));
    RunResult {
        workers,
        max_batch,
        throughput_rps: stats.requests as f64 / elapsed,
        mean_batch: stats.mean_batch(),
        largest_batch: stats.max_batch,
        p50_us: percentile(&latencies, 0.50),
        p90_us: percentile(&latencies, 0.90),
        p99_us: percentile(&latencies, 0.99),
        lock_wait_p50_us: lock_wait.quantile(0.50) as f64 / 1e3,
        lock_wait_p99_us: lock_wait.quantile(0.99) as f64 / 1e3,
        queue_depth_p90: sampled.quantile(0.90),
        occupancy_mean: occupancy.mean(),
    }
}

fn row(r: &RunResult) -> Vec<String> {
    vec![
        r.workers.to_string(),
        r.max_batch.to_string(),
        format!("{:.0}", r.throughput_rps),
        format!("{:.2}", r.mean_batch),
        r.largest_batch.to_string(),
        format!("{:.0}", r.p50_us),
        format!("{:.0}", r.p90_us),
        format!("{:.0}", r.p99_us),
        format!("{:.1}", r.lock_wait_p50_us),
        format!("{:.1}", r.lock_wait_p99_us),
        r.queue_depth_p90.to_string(),
        format!("{:.2}", r.occupancy_mean),
    ]
}

fn json_entry(r: &RunResult) -> String {
    format!(
        "{{\"workers\": {}, \"max_batch\": {}, \"throughput_rps\": {:.1}, \
         \"mean_batch\": {:.3}, \"largest_batch\": {}, \"p50_us\": {:.1}, \
         \"p90_us\": {:.1}, \"p99_us\": {:.1}, \"lock_wait_p50_us\": {:.2}, \
         \"lock_wait_p99_us\": {:.2}, \"queue_depth_p90\": {}, \
         \"occupancy_mean\": {:.3}}}",
        r.workers,
        r.max_batch,
        r.throughput_rps,
        r.mean_batch,
        r.largest_batch,
        r.p50_us,
        r.p90_us,
        r.p99_us,
        r.lock_wait_p50_us,
        r.lock_wait_p99_us,
        r.queue_depth_p90,
        r.occupancy_mean,
    )
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Interleaved A/B of metric recording runtime-enabled vs runtime-disabled
/// on the reference configuration; returns (enabled, disabled) median
/// throughput.
fn overhead_ab(net: &SteppingNet) -> (f64, f64) {
    let mut on = Vec::new();
    let mut off = Vec::new();
    for _ in 0..3 {
        stepping_metrics::set_runtime_enabled(true);
        on.push(run_config(net, 2, 8, false, None).throughput_rps);
        stepping_metrics::set_runtime_enabled(false);
        off.push(run_config(net, 2, 8, false, None).throughput_rps);
    }
    stepping_metrics::set_runtime_enabled(true);
    (median(&mut on), median(&mut off))
}

fn main() {
    observe::init("serve");
    let net = serving_net();
    progress(&format!(
        "{} closed-loop clients x {} requests, full subnet{}",
        clients(),
        per_client(),
        if smoke() { " (smoke)" } else { "" }
    ));

    // warm-up so page faults and lazy allocations don't skew the first config
    let _ = run_config(&net, 1, 8, true, None);

    report_text("\nSERVE: throughput vs worker count (micro-batching on, lane-diverse)");
    let worker_counts: &[usize] = if smoke() { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let sweep: Vec<RunResult> = worker_counts
        .iter()
        .map(|&w| run_config(&net, w, 8, true, None))
        .collect();
    let headers = [
        "workers",
        "max_batch",
        "req/s",
        "mean batch",
        "largest",
        "p50 us",
        "p90 us",
        "p99 us",
        "lock p50 us",
        "lock p99 us",
        "qdepth p90",
        "occ mean",
    ];
    print_table(&headers, &sweep.iter().map(row).collect::<Vec<_>>());

    // Worker-scaling gate: with sharded lanes, adding workers up to 4 must
    // not lose throughput. 5% per-step tolerance absorbs run-to-run noise;
    // the 4-worker point must also beat the 1-worker baseline outright.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let scaling_forced = std::env::var("STEPPING_SERVE_ASSERT").as_deref() == Ok("1");
    if cores >= 4 || scaling_forced {
        let gated: Vec<&RunResult> = sweep.iter().filter(|r| r.workers <= 4).collect();
        for pair in gated.windows(2) {
            assert!(
                pair[1].throughput_rps >= 0.95 * pair[0].throughput_rps,
                "throughput fell {} -> {} workers: {:.0} -> {:.0} req/s",
                pair[0].workers,
                pair[1].workers,
                pair[0].throughput_rps,
                pair[1].throughput_rps,
            );
        }
        if let (Some(first), Some(last)) = (gated.first(), gated.last()) {
            assert!(
                last.throughput_rps >= first.throughput_rps,
                "{} workers slower than 1: {:.0} < {:.0} req/s",
                last.workers,
                last.throughput_rps,
                first.throughput_rps,
            );
        }
        report_text("worker-scaling gate passed (non-decreasing 1 -> 4 workers)");
    } else {
        report_text(&format!(
            "worker-scaling gate skipped: {cores} core(s) < 4, scaling is \
             scheduler noise (set STEPPING_SERVE_ASSERT=1 to force)"
        ));
    }

    // Single-hot-lane sweep: every client asks for the full subnet, so all
    // traffic funnels through ONE lane, and max_batch 4 with 8 clients
    // keeps the lane deeper than one claim can empty: the claim that
    // leaves a tail behind rings a second worker, which takes it at once.
    // A hot lane must not cap the sweep at one effective worker.
    report_text("\nSERVE: single-hot-lane worker sweep");
    let hot_sweep: Vec<RunResult> = worker_counts
        .iter()
        .map(|&w| run_config(&net, w, 4, false, None))
        .collect();
    print_table(&headers, &hot_sweep.iter().map(row).collect::<Vec<_>>());
    if cores >= 4 || scaling_forced {
        let gated: Vec<&RunResult> = hot_sweep.iter().filter(|r| r.workers <= 4).collect();
        for pair in gated.windows(2) {
            assert!(
                pair[1].throughput_rps >= 0.95 * pair[0].throughput_rps,
                "hot-lane throughput fell {} -> {} workers: {:.0} -> {:.0} req/s",
                pair[0].workers,
                pair[1].workers,
                pair[0].throughput_rps,
                pair[1].throughput_rps,
            );
        }
        if let (Some(first), Some(last)) = (gated.first(), gated.last()) {
            assert!(
                last.throughput_rps >= first.throughput_rps,
                "hot lane: {} workers slower than 1: {:.0} < {:.0} req/s",
                last.workers,
                last.throughput_rps,
                first.throughput_rps,
            );
        }
        report_text("hot-lane scaling gate passed (non-decreasing 1 -> 4 workers)");
    } else {
        report_text(&format!(
            "hot-lane scaling gate skipped: {cores} core(s) < 4 (set \
             STEPPING_SERVE_ASSERT=1 to force)"
        ));
    }

    report_text("\nSERVE: micro-batching vs sequential (one job per batch)");
    let batched = run_config(&net, 2, 8, false, Some("results/serve.metrics.jsonl"));
    let sequential = run_config(&net, 2, 1, false, None);
    print_table(&headers, &[row(&batched), row(&sequential)]);
    let speedup = batched.throughput_rps / sequential.throughput_rps;
    report_text(&format!(
        "micro-batching throughput speedup at {} clients: {speedup:.2}x",
        clients()
    ));

    report_text("\nSERVE: metric recording overhead (runtime A/B, median of 3)");
    let (enabled_rps, disabled_rps) = overhead_ab(&net);
    let overhead_pct = if disabled_rps > enabled_rps {
        (disabled_rps - enabled_rps) / disabled_rps * 100.0
    } else {
        0.0
    };
    report_text(&format!(
        "metrics on: {enabled_rps:.0} req/s, off: {disabled_rps:.0} req/s, \
         overhead: {overhead_pct:.2}%"
    ));
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let assert_forced = std::env::var("STEPPING_METRICS_ASSERT").as_deref() == Ok("1");
    if cores >= 4 || assert_forced {
        assert!(
            overhead_pct <= 5.0,
            "metric recording costs {overhead_pct:.2}% throughput (gate: 5%)"
        );
        report_text("overhead gate passed (<= 5%)");
    } else {
        report_text(&format!(
            "overhead gate skipped: {cores} core(s) < 4, A/B contrast is \
             scheduler noise (set STEPPING_METRICS_ASSERT=1 to force)"
        ));
    }

    let sweep_json: Vec<String> = sweep.iter().map(json_entry).collect();
    let hot_json: Vec<String> = hot_sweep.iter().map(json_entry).collect();
    let json = format!(
        "{{\n  \"bench\": \"serve\",\n  \"smoke\": {},\n  \"clients\": {},\n  \
         \"requests_per_client\": {},\n  \"net_macs_full\": {},\n  \
         \"worker_sweep\": [\n    {}\n  ],\n  \
         \"hot_lane_sweep\": [\n    {}\n  ],\n  \"batching\": {{\n    \
         \"batched\": {},\n    \"sequential\": {},\n    \
         \"throughput_speedup\": {:.3}\n  }},\n  \"metrics_overhead\": {{\n    \
         \"enabled_rps\": {:.1},\n    \"disabled_rps\": {:.1},\n    \
         \"overhead_pct\": {:.2}\n  }}\n}}\n",
        smoke(),
        clients(),
        per_client(),
        net.full_macs(),
        sweep_json.join(",\n    "),
        hot_json.join(",\n    "),
        json_entry(&batched),
        json_entry(&sequential),
        speedup,
        enabled_rps,
        disabled_rps,
        overhead_pct,
    );
    fs::create_dir_all("results").expect("results dir");
    fs::write("results/BENCH_serve.json", json).expect("write BENCH_serve.json");
    report_text("wrote results/BENCH_serve.json and results/serve.metrics.jsonl");
    observe::finish();
}

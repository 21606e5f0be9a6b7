//! Scale-out throughput benchmark for the `stepping-router` front door.
//!
//! Two closed-loop client populations — **uniform** session keys and
//! **zipf-skewed** keys (a few hot users dominate, sampled from a
//! hand-rolled zipf CDF) — are each driven against a single replica and
//! against a two-replica fleet behind the consistent-hash router. Every
//! client iteration is a full session lifecycle: submit at a mid subnet,
//! incremental upgrade to the top (sticky to the replica holding the
//! activation cache), release. Reported per configuration: throughput,
//! client-observed p50, and the fraction of sessions the hottest replica
//! absorbed (placement share; 0.5 is a perfectly balanced pair).
//!
//! On hosts with ≥ 4 cores (or `STEPPING_ROUTER_ASSERT=1`) the bench
//! gates on the two-replica fleet sustaining ≥ 1.5× the single-replica
//! throughput **under the zipf-skewed population** — the skew-proof
//! claim: consistent hashing with virtual nodes spreads even a hot-user
//! key mix well enough that the second replica pays for itself.
//!
//! `STEPPING_ROUTER_REPS=N` overrides the per-client request count (CI
//! smoke); the workload *shape* (clients, key distributions) never
//! changes, so fresh runs stay comparable to the checked-in
//! `results/baselines/BENCH_router.json` at any rep count. Results are
//! written to `results/BENCH_router.json`.
//!
//! Run with `cargo run --release -p stepping-bench --bin router`.

use std::fs;
use std::sync::Arc;
use std::time::Instant;

use rand::Rng;
use stepping_baselines::regular_assign;
use stepping_bench::observe::{self, progress, report_text};
use stepping_bench::print_table;
use stepping_core::{SteppingNet, SteppingNetBuilder};
use stepping_router::{decode_session, Router, RouterConfig};
use stepping_runtime::{DeviceModel, SessionConfig};
use stepping_serve::{Request, ServeConfig};
use stepping_tensor::{init, Shape};

/// Closed-loop clients (constant across smoke and full runs).
const CLIENTS: usize = 8;
/// Distinct users behind the zipf population.
const USERS: usize = 256;
/// Zipf exponent: user `i` carries weight `1/(i+1)^S`.
const ZIPF_S: f64 = 1.0;
/// Virtual nodes per replica on the ring.
const VNODES: usize = 64;

/// Per-client session lifecycles; `STEPPING_ROUTER_REPS=N` overrides.
fn reps() -> usize {
    std::env::var("STEPPING_ROUTER_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(40)
}

/// Same serving network as the serve bench: ~330k MACs per row at the
/// full subnet, four subnets, compute-dominated.
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

fn serve_config() -> ServeConfig {
    ServeConfig::builder()
        .workers(2)
        .max_batch(4)
        .session(SessionConfig::new().device(DeviceModel::embedded()))
        .build()
}

/// Normalized zipf CDF over [`USERS`] ranks.
fn zipf_cdf() -> Vec<f64> {
    let weights: Vec<f64> = (0..USERS)
        .map(|i| 1.0 / ((i + 1) as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// The session key of one client iteration. Uniform draws spread over the
/// whole key space; zipf draws pick a user rank from the CDF and avalanche
/// it so ring placement sees well-mixed bits. Deterministic in
/// `(client, iteration)` — every run places the same key sequence.
fn session_key(cdf: Option<&[f64]>, rng: &mut impl Rng) -> u64 {
    match cdf {
        None => rng.random::<u64>(),
        Some(cdf) => {
            let u = rng.random::<f64>();
            let rank = cdf.partition_point(|&c| c < u).min(USERS - 1);
            (rank as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        }
    }
}

struct RunResult {
    replicas: usize,
    skewed: bool,
    throughput_rps: f64,
    p50_us: f64,
    /// Fraction of sessions placed on the most-loaded replica.
    max_share: f64,
    /// Sessions placed off their ring owner (drain/failover; 0 here).
    reroutes: u64,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Drives the closed-loop population against a fresh fleet of `replicas`
/// servers and measures throughput and placement balance.
fn run_config(net: &SteppingNet, replicas: usize, skewed: bool) -> RunResult {
    let registry = stepping_metrics::MetricsRegistry::global();
    let before = registry.snapshot();
    let router = Arc::new(
        Router::launch(
            net,
            &serve_config(),
            &RouterConfig::builder()
                .replicas(replicas)
                .vnodes(VNODES)
                .build(),
        )
        .expect("router"),
    );
    let cdf = Arc::new(if skewed { Some(zipf_cdf()) } else { None });
    let n_reps = reps();
    let start = Instant::now();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let router = Arc::clone(&router);
            let cdf = Arc::clone(&cdf);
            std::thread::spawn(move || {
                let mut latencies = Vec::with_capacity(n_reps);
                let mut placements = vec![0u64; router.replica_count()];
                for j in 0..n_reps {
                    let seed = (c * n_reps + j) as u64;
                    let mut rng = init::rng(seed ^ 0xda7a_5eed);
                    let key = session_key(cdf.as_deref(), &mut rng);
                    let x = init::uniform(Shape::of(&[1, 128]), -1.0, 1.0, &mut rng);
                    let sent = Instant::now();
                    // full session lifecycle: place, upgrade in place, free
                    let resp = router
                        .submit(key, Request::at_subnet(x, 2))
                        .expect("submit")
                        .wait()
                        .expect("response");
                    let upgraded = router
                        .upgrade(resp.session, None)
                        .expect("upgrade")
                        .wait()
                        .expect("upgraded response");
                    assert_eq!(upgraded.session, resp.session, "sticky id");
                    latencies.push(sent.elapsed().as_secs_f64() * 1e6);
                    placements[decode_session(resp.session).0] += 1;
                    router.release(resp.session);
                }
                (latencies, placements)
            })
        })
        .collect();
    let mut latencies = Vec::new();
    let mut placements = vec![0u64; replicas];
    for handle in handles {
        match handle.join() {
            Ok((lat, placed)) => {
                latencies.extend(lat);
                for (total, p) in placements.iter_mut().zip(placed) {
                    *total += p;
                }
            }
            Err(_) => progress("client thread panicked; dropping its samples"),
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    router.shutdown();
    let responses: u64 = (0..replicas)
        .map(|r| router.stats(r).expect("stats").requests)
        .sum();
    assert_eq!(
        responses,
        (CLIENTS * n_reps * 2) as u64,
        "every submit and upgrade answered exactly once"
    );
    let after = registry.snapshot();
    let reroutes = after.counter("router.reroute").unwrap_or(0)
        - before.counter("router.reroute").unwrap_or(0);
    let placed: u64 = placements.iter().sum();
    latencies.sort_by(|a, b| a.total_cmp(b));
    RunResult {
        replicas,
        skewed,
        throughput_rps: responses as f64 / elapsed,
        p50_us: percentile(&latencies, 0.50),
        max_share: placements.iter().copied().max().unwrap_or(0) as f64 / placed.max(1) as f64,
        reroutes,
    }
}

fn row(r: &RunResult) -> Vec<String> {
    vec![
        r.replicas.to_string(),
        if r.skewed { "zipf" } else { "uniform" }.to_string(),
        format!("{:.0}", r.throughput_rps),
        format!("{:.0}", r.p50_us),
        format!("{:.3}", r.max_share),
        r.reroutes.to_string(),
    ]
}

fn json_entry(r: &RunResult) -> String {
    format!(
        "{{\"replicas\": {}, \"throughput_rps\": {:.1}, \"p50_us\": {:.1}, \
         \"max_share\": {:.4}, \"reroutes\": {}}}",
        r.replicas, r.throughput_rps, r.p50_us, r.max_share, r.reroutes,
    )
}

fn main() {
    observe::init("router");
    let net = serving_net();
    progress(&format!(
        "{CLIENTS} closed-loop clients x {} session lifecycles, {USERS} users",
        reps()
    ));

    // warm-up: page faults, lazy allocations, metric registration
    let _ = run_config(&net, 1, false);

    report_text("\nROUTER: single replica vs two-replica fleet");
    let results = [
        run_config(&net, 1, false),
        run_config(&net, 2, false),
        run_config(&net, 1, true),
        run_config(&net, 2, true),
    ];
    let headers = [
        "replicas",
        "keys",
        "resp/s",
        "p50 us",
        "max share",
        "reroutes",
    ];
    print_table(&headers, &results.iter().map(row).collect::<Vec<_>>());

    let uniform_speedup = results[1].throughput_rps / results[0].throughput_rps;
    let zipf_speedup = results[3].throughput_rps / results[2].throughput_rps;
    let ring_imbalance = stepping_router::Ring::new(2, VNODES).imbalance();
    report_text(&format!(
        "two-replica speedup: uniform {uniform_speedup:.2}x, zipf {zipf_speedup:.2}x; \
         hottest replica absorbed {:.1}% of zipf sessions (ring imbalance {ring_imbalance:.3})",
        results[3].max_share * 100.0
    ));

    // Skew-proof scaling gate: under the zipf population the second
    // replica must still pay for itself. Needs real parallel hardware.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let forced = std::env::var("STEPPING_ROUTER_ASSERT").as_deref() == Ok("1");
    if cores >= 4 || forced {
        assert!(
            zipf_speedup >= 1.5,
            "zipf-skewed two-replica fleet only {zipf_speedup:.2}x a single replica (gate: 1.5x)"
        );
        report_text("skew-proof scaling gate passed (zipf two-replica >= 1.5x)");
    } else {
        report_text(&format!(
            "skew-proof scaling gate skipped: {cores} core(s) < 4, replica \
             scaling is scheduler noise (set STEPPING_ROUTER_ASSERT=1 to force)"
        ));
    }
    // Balance gates hold at any core count: placement is deterministic.
    assert!(
        results[1].max_share < 0.65,
        "uniform keys landed {:.3} on one replica",
        results[1].max_share
    );
    assert!(
        results[3].max_share < 0.75,
        "zipf keys landed {:.3} on one replica",
        results[3].max_share
    );
    assert_eq!(
        results.iter().map(|r| r.reroutes).sum::<u64>(),
        0,
        "healthy fleets never reroute"
    );

    let json = format!(
        "{{\n  \"bench\": \"router\",\n  \"clients\": {CLIENTS},\n  \
         \"users\": {USERS},\n  \"zipf_s\": {ZIPF_S:.2},\n  \
         \"vnodes\": {VNODES},\n  \"ring_imbalance_2rep\": {ring_imbalance:.4},\n  \
         \"uniform\": {{\n    \"single\": {},\n    \"dual\": {},\n    \
         \"speedup\": {uniform_speedup:.3}\n  }},\n  \"zipf\": {{\n    \
         \"single\": {},\n    \"dual\": {},\n    \"speedup\": {zipf_speedup:.3}\n  }}\n}}\n",
        json_entry(&results[0]),
        json_entry(&results[1]),
        json_entry(&results[2]),
        json_entry(&results[3]),
    );
    fs::create_dir_all("results").expect("results dir");
    fs::write("results/BENCH_router.json", json).expect("write BENCH_router.json");
    report_text("wrote results/BENCH_router.json");
    observe::finish();
}

//! Live-load metrics acceptance test: a server under real traffic must
//! leave the queue-depth, lock-wait, batch-occupancy, and deadline-miss
//! series in the global registry (per worker where applicable), stream
//! snapshots to the configured `.jsonl` file, and render both JSON and
//! Prometheus text — all with zero invalid metric names.
//!
//! The registry is process-global, so the test measures *deltas* between a
//! snapshot taken before the server starts and one taken after shutdown
//! (`stepping_metrics::diff` / `HistSnapshot::since`), which also exercises
//! the exact interval arithmetic `stepping-metrics-report` relies on.

use std::time::Duration;

use stepping_baselines::regular_assign;
use stepping_core::{SteppingNet, SteppingNetBuilder};
use stepping_metrics::{diff, HistSnapshot, MetricsRegistry, Snapshot};
use stepping_runtime::{DeviceModel, SessionConfig};
use stepping_serve::{Request, ServeConfig, Server};

use stepping_tensor::{init, Shape, Tensor};

fn net() -> SteppingNet {
    let mut n = SteppingNetBuilder::new(Shape::of(&[6]), 3, 11)
        .linear(16)
        .relu()
        .linear(12)
        .relu()
        .build(4)
        .unwrap();
    regular_assign(&mut n, &[0.3, 0.6, 1.0]).unwrap();
    n
}

fn sample(seed: u64) -> Tensor {
    init::uniform(Shape::of(&[1, 6]), -1.0, 1.0, &mut init::rng(seed))
}

#[test]
fn live_load_populates_every_series() {
    assert!(
        stepping_metrics::enabled(),
        "this test binary re-enables the metrics feature via dev-dependency"
    );
    let registry = MetricsRegistry::global();
    let before = registry.snapshot();

    let dir = std::env::temp_dir().join(format!("stepping-serve-metrics-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snapshot_path = dir.join("serve.metrics.jsonl");

    let workers = 3usize;
    let device = DeviceModel::new(1000.0);
    let config = ServeConfig::builder()
        .workers(workers)
        .max_batch(4)
        .metrics_snapshot(&snapshot_path)
        .metrics_interval(Duration::from_millis(20))
        .session(SessionConfig::new().device(device))
        .build();
    let srv = Server::new(&net(), config).unwrap();
    let costs = srv.subnet_costs().to_vec();

    // Initial runs across both small subnets, batched where a backlog
    // forms; keep the sessions for the upgrade wave.
    let tickets: Vec<_> = (0..24u64)
        .map(|i| {
            srv.submit(Request::at_subnet(sample(500 + i), (i % 2) as usize))
                .unwrap()
        })
        .collect();
    let sessions: Vec<u64> = tickets
        .into_iter()
        .map(|t| t.wait().unwrap().session)
        .collect();

    // One starved budget: a guaranteed deadline miss.
    let starved = (costs[0] as f64 - 0.5) / device.macs_per_us();
    let miss = srv
        .submit(Request::with_budget(sample(999), starved))
        .unwrap()
        .wait()
        .unwrap();
    assert!(miss.outcome.is_degraded(), "starved budget degrades");

    // Upgrades (exercising the up_F occupancy keys) plus one zero-budget
    // upgrade answered synchronously from cache.
    for &s in sessions.iter().take(8) {
        srv.upgrade(s, None).unwrap().wait().unwrap();
    }
    let hit = srv
        .upgrade(sessions[9], Some(0.001))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(hit.cache_reuse, 1.0, "zero budget answered from cache");

    // Let the background writer emit at least one mid-run snapshot line.
    std::thread::sleep(Duration::from_millis(50));
    srv.shutdown();
    let stats = srv.stats();
    let after = registry.snapshot();

    // -- counters: deltas agree with the coherent ServerStats snapshot.
    let delta = |name: &str| after.counter(name).unwrap() - before.counter(name).unwrap_or(0);
    assert_eq!(delta("serve.admitted"), stats.admitted);
    assert_eq!(delta("serve.completed"), stats.requests);
    assert_eq!(delta("serve.deadline_miss"), stats.deadline_misses);
    assert_eq!(delta("serve.cache_hit"), stats.cache_hits);
    assert_eq!(stats.deadline_misses, 1);
    assert_eq!(stats.cache_hits, 1);

    // -- queue depth: gauge drained back to its starting level, and the
    // sampled-depth histogram saw every extracted batch.
    assert_eq!(
        after.gauge("serve.queue_depth").unwrap(),
        before.gauge("serve.queue_depth").unwrap_or(0),
        "queue fully drained at shutdown"
    );
    let empty = HistSnapshot::default();
    let sampled = after
        .hist("serve.queue_depth_sampled")
        .unwrap()
        .since(before.hist("serve.queue_depth_sampled").unwrap_or(&empty));
    assert!(sampled.count > 0, "workers sampled the queue depth");
    let lane_depth = after
        .hist("serve.lane_depth")
        .unwrap()
        .since(before.hist("serve.lane_depth").unwrap_or(&empty));
    assert!(lane_depth.count > 0, "workers recorded claimed-lane depths");

    // -- per-worker series exist for every spawned worker.
    for w in 0..workers {
        let lock_wait = after
            .hist(&format!("serve.lock_wait_ns{{worker=\"{w}\"}}"))
            .unwrap_or_else(|| panic!("missing lock-wait series for worker {w}"));
        assert!(lock_wait.count > 0, "worker {w} never acquired the lock?");
        assert!(
            after
                .counter(&format!("serve.worker_busy_ns{{worker=\"{w}\"}}"))
                .is_some(),
            "missing busy-ns series for worker {w}"
        );
    }

    // -- batch occupancy: begin keys saw the initial wave, upgrade keys the
    // upgrade wave; summed occupancy equals requests that reached a worker.
    let occupancy = after
        .hist_merged("serve.batch_occupancy")
        .since(&before.hist_merged("serve.batch_occupancy"));
    assert_eq!(
        occupancy.sum,
        stats.requests - stats.cache_hits - stats.shed
    );
    assert_eq!(occupancy.count, stats.batches);
    assert!(
        after
            .hist("serve.batch_occupancy{key=\"up_0\"}")
            .is_some_and(|h| h.count > 0)
            || after
                .hist("serve.batch_occupancy{key=\"up_1\"}")
                .is_some_and(|h| h.count > 0),
        "some upgrade level recorded occupancy"
    );

    // -- phase histograms all saw traffic.
    for phase in [
        "serve.admission_ns",
        "serve.queue_wait_ns",
        "serve.batch_form_ns",
        "serve.forward_ns",
        "serve.reply_ns",
    ] {
        let h = after
            .hist(phase)
            .unwrap()
            .since(before.hist(phase).unwrap_or(&empty));
        assert!(h.count > 0, "{phase} recorded nothing");
    }

    // -- the structured diff renders without panicking and carries the
    // counter movement the report CLI would show.
    let d = diff(&before, &after);
    let text = d.render_text();
    assert!(text.contains("serve.admitted"), "{text}");

    // -- snapshot stream: at least the final shutdown line, valid JSON,
    // containing the acceptance series; Prometheus rendering keeps them.
    let raw = std::fs::read_to_string(&snapshot_path).unwrap();
    let lines: Vec<&str> = raw.lines().filter(|l| !l.trim().is_empty()).collect();
    assert!(
        lines.len() >= 2,
        "expected interval + final snapshot lines, got {}",
        lines.len()
    );
    let last = Snapshot::parse_json(lines[lines.len() - 1]).unwrap();
    assert!(last.counter("serve.admitted").unwrap() >= stats.admitted);
    assert!(last.gauge("serve.queue_depth").is_some());
    assert!(last
        .hists
        .iter()
        .any(|(n, _)| n.starts_with("serve.lock_wait_ns{worker=")));
    let prom = last.to_prometheus();
    for needle in [
        "stepping_serve_queue_depth",
        "stepping_serve_lock_wait_ns",
        "stepping_serve_batch_occupancy",
        "stepping_serve_deadline_miss",
    ] {
        assert!(prom.contains(needle), "prometheus output missing {needle}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

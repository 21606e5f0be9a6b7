//! Metrics must never change results: inference through the serving engine
//! (initial packed forwards, incremental upgrades, micro-batching) is
//! bit-identical with metric recording enabled and disabled.
//!
//! The A/B contrast uses the runtime switch
//! ([`metrics::set_runtime_enabled`]), which gates every record path the
//! same way the compile-time feature does — in a default build (feature
//! off) both runs are no-ops and the comparison is trivially true, while
//! any build with `metrics` compiled in (the workspace default via the
//! bench crate) exercises the real on/off contrast.

use steppingnet::baselines::regular_assign;
use steppingnet::core::{SteppingNet, SteppingNetBuilder};
use steppingnet::metrics;
use steppingnet::runtime::{DeviceModel, SessionConfig};
use steppingnet::serve::{Request, ServeConfig, Server};
use steppingnet::tensor::{init, Shape, Tensor};

fn net() -> SteppingNet {
    let mut n = SteppingNetBuilder::new(Shape::of(&[10]), 3, 5)
        .linear(24)
        .relu()
        .linear(18)
        .relu()
        .build(6)
        .unwrap();
    regular_assign(&mut n, &[0.35, 0.7, 1.0]).unwrap();
    n
}

fn inputs() -> Vec<Tensor> {
    (0..12)
        .map(|i| init::uniform(Shape::of(&[1, 10]), -1.0, 1.0, &mut init::rng(4000 + i)))
        .collect()
}

/// Runs the full serving lifecycle — batched initial passes at subnet 0,
/// then an upgrade of every session to the largest subnet — and returns all
/// logits in submission order.
fn serve_all() -> Vec<Tensor> {
    let config = ServeConfig::builder()
        .workers(2)
        .max_batch(4)
        .session(SessionConfig::new().device(DeviceModel::new(1000.0)))
        .build();
    let srv = Server::new(&net(), config).unwrap();
    let tickets: Vec<_> = inputs()
        .into_iter()
        .map(|x| srv.submit(Request::at_subnet(x, 0)).unwrap())
        .collect();
    let first: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
    let upgraded: Vec<_> = first
        .iter()
        .map(|r| srv.upgrade(r.session, None).unwrap())
        .map(|t| t.wait().unwrap())
        .collect();
    srv.shutdown();
    first
        .into_iter()
        .map(|r| r.logits)
        .chain(upgraded.into_iter().map(|r| r.logits))
        .collect()
}

#[test]
fn inference_is_bit_identical_with_metrics_on_and_off() {
    metrics::set_runtime_enabled(true);
    let with_metrics = serve_all();
    metrics::set_runtime_enabled(false);
    let without_metrics = serve_all();
    metrics::set_runtime_enabled(true);

    assert_eq!(with_metrics.len(), without_metrics.len());
    for (i, (a, b)) in with_metrics.iter().zip(&without_metrics).enumerate() {
        assert_eq!(a, b, "logits {i} diverge between metrics on and off");
    }

    // And both agree with a scratch single-threaded forward.
    let mut scratch = net();
    for (i, x) in inputs().iter().enumerate() {
        let reference = scratch.forward(x, 0, false).unwrap();
        assert_eq!(with_metrics[i], reference, "request {i} vs scratch");
    }
}

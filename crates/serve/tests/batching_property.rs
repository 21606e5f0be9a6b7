//! Property test: micro-batching never changes any request's answer.
//!
//! For arbitrary request mixes, batch limits, and network seeds, every
//! response's logits — and therefore its argmax — equal a from-scratch
//! forward of that input alone.

use proptest::prelude::*;
use stepping_baselines::regular_assign;
use stepping_core::{SteppingNet, SteppingNetBuilder};
use stepping_runtime::{DeviceModel, SessionConfig};
use stepping_serve::{Request, ServeConfig, Server};
use stepping_tensor::{init, Shape};

fn net(seed: u64) -> SteppingNet {
    let mut n = SteppingNetBuilder::new(Shape::of(&[6]), 3, seed)
        .linear(14)
        .relu()
        .linear(10)
        .relu()
        .build(4)
        .unwrap();
    regular_assign(&mut n, &[0.35, 0.65, 1.0]).unwrap();
    n
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn micro_batching_never_changes_any_argmax(
        seed in 0u64..500,
        n_requests in 1usize..10,
        subnet in 0usize..3,
        max_batch in 1usize..6,
        workers in 1usize..4,
    ) {
        let reference_net = net(seed);
        let config = ServeConfig::builder()
            .workers(workers)
            .max_batch(max_batch)
            .session(SessionConfig::new().device(DeviceModel::mobile()))
            .build();
        let srv = Server::new(&reference_net, config).unwrap();
        let inputs: Vec<_> = (0..n_requests)
            .map(|i| init::uniform(Shape::of(&[1, 6]), -2.0, 2.0, &mut init::rng(seed ^ (i as u64 + 1))))
            .collect();
        let tickets: Vec<_> = inputs
            .iter()
            .map(|x| srv.submit(Request::at_subnet(x.clone(), subnet)).unwrap())
            .collect();
        let mut scratch = reference_net.clone();
        for (x, t) in inputs.iter().zip(tickets) {
            let resp = t.wait().unwrap();
            let lone = scratch.forward(x, subnet, false).unwrap();
            prop_assert_eq!(resp.prediction(), lone.argmax(), "argmax changed by batching");
            prop_assert_eq!(&resp.logits, &lone, "logits changed by batching");
        }
        srv.shutdown();
        prop_assert_eq!(srv.stats().requests, n_requests as u64);
    }
}

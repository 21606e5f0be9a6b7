//! Concurrent serving: many clients share one SteppingNet behind the
//! batched, deadline-aware `stepping-serve` engine.
//!
//! 1. build a stepping network and spread its neurons over three subnets,
//! 2. start a [`Server`] with a worker pool that micro-batches what queues,
//! 3. fire requests from several client threads — some pinned to a subnet,
//!    some deadline-driven (the server picks the largest affordable subnet),
//! 4. upgrade one session incrementally: only the newly added neurons are
//!    computed, the cached activations are reused bit-exactly.
//!
//! Run with `cargo run --release --example serving`.

use std::sync::Arc;

use steppingnet::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut net = SteppingNetBuilder::new(Shape::of(&[12]), 3, 9)
        .linear(48)
        .relu()
        .linear(32)
        .relu()
        .build(5)?;
    regular_assign(&mut net, &[0.3, 0.6, 1.0])?;

    let device = DeviceModel::new(1000.0); // 1000 MACs per microsecond
    let config = ServeConfig::builder()
        .workers(4)
        .max_batch(8)
        .session(SessionConfig::new().device(device))
        .build();
    let server = Arc::new(Server::new(&net, config)?);

    let costs = server.subnet_costs().to_vec();
    println!("subnet MAC costs: {costs:?}");

    // Several clients, each with a different latency budget: the server maps
    // each budget to the largest subnet the device model can afford.
    let mut handles = Vec::new();
    for (client, &macs) in costs.iter().enumerate() {
        let server = Arc::clone(&server);
        let budget_us = (macs as f64 + 1.0) / device.macs_per_us();
        handles.push(std::thread::spawn(move || {
            let x = init::uniform(
                Shape::of(&[1, 12]),
                -1.0,
                1.0,
                &mut init::rng(client as u64),
            );
            let response = server
                .submit(Request::with_budget(x, budget_us))
                .expect("server accepts the request")
                .wait()
                .expect("server answers");
            println!(
                "client {client}: budget {budget_us:>6.2}us -> subnet {} \
                 (class {}, {} MACs, batch of {}, outcome {:?})",
                response.subnet,
                response.prediction(),
                response.step_macs,
                response.batch_size,
                response.outcome,
            );
            response.session
        }));
    }
    let sessions: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Incremental accuracy enhancement on a live session: the smallest
    // client's budget loosens, so its answer is upgraded in place. Only the
    // *new* neurons are computed; everything cached is reused.
    let upgraded = server.upgrade(sessions[0], None)?.wait()?;
    println!(
        "upgrade: session {} -> subnet {} paying {} MACs ({}% of the work reused)",
        upgraded.session,
        upgraded.subnet,
        upgraded.step_macs,
        (upgraded.cache_reuse * 100.0).round(),
    );

    server.shutdown();
    let stats = server.stats();
    println!(
        "served {} requests in {} batches (mean batch {:.2}, largest {}), {} cache hits",
        stats.requests,
        stats.batches,
        stats.mean_batch(),
        stats.max_batch,
        stats.cache_hits,
    );
    Ok(())
}

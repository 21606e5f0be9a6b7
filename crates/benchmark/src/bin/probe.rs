//! Per-layer probes: times calls into the public functions of `tensor`,
//! `core`, `runtime`, `serve` and `router`, one layer at a time, on the
//! shapes the workloads actually serve. Prints `name<TAB>value<TAB>unit`
//! lines. `e2e` runs this binary when it is there; when a refactor removes
//! a probed function and this file no longer builds, the end-to-end numbers
//! still print and these read `missing`.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use stepping_benchmark::models::{null_net, Model, SUBNETS};
use stepping_benchmark::report::Metric;
use stepping_benchmark::stats::median;
use stepping_core::{BatchExecutor, Result, Stage, SteppingError, SteppingNet};
use stepping_router::{Breaker, Ring, Router, RouterConfig};
use stepping_runtime::{DeviceModel, ResourceTrace, Session, SessionConfig};
use stepping_serve::{
    Outcome, ReplicaHandle, Request, Response, ServeConfig, ServeError, Server, ServerStats, Ticket,
};
use stepping_tensor::conv::ConvGeometry;
use stepping_tensor::microkernel::{gemm_packed, Epilogue, PackedB};
use stepping_tensor::pack::{gather_columns, im2col_channels_into, scatter_columns};
use stepping_tensor::{init, Shape, Tensor};

/// Row counts every kernel and pass is probed at: one request alone, and a
/// full `max_batch`.
const ROWS: [usize; 2] = [1, 8];

/// Median microseconds of `reps` timed calls of `f`, after one untimed call.
fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// Median nanoseconds per call of `f`, timed in blocks of `block` calls.
fn time_ns_per_call(blocks: usize, block: usize, mut f: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..blocks)
        .map(|b| {
            let t = Instant::now();
            for i in 0..block {
                f(b * block + i);
            }
            t.elapsed().as_secs_f64() * 1e9 / block as f64
        })
        .collect();
    median(&samples)
}

/// One GEMM a masked layer runs: `positions` output rows per request row,
/// `n` active outputs, `k` legal inputs.
#[derive(Debug, Clone, Copy)]
struct GemmShape {
    positions: usize,
    n: usize,
    k: usize,
}

/// The GEMM of every masked layer of `net`, for a full pass at the top
/// subnet and for the step to subnet 1, read off the assignments.
fn gemm_shapes(net: &SteppingNet) -> Vec<GemmShape> {
    let top = SUBNETS - 1;
    let mut shapes = Vec::new();
    for stage in net.stages() {
        let (out, inp, window, positions) = match stage {
            Stage::Linear(l) => (l.out_assign(), l.in_assign(), 1, 1),
            Stage::Conv(c) => (
                c.out_assign(),
                c.in_assign(),
                c.kernel() * c.kernel(),
                c.positions(),
            ),
            Stage::Fixed(_) => continue,
        };
        shapes.push(GemmShape {
            positions,
            n: out.active_count(top),
            k: inp.active_count(top) * window,
        });
        shapes.push(GemmShape {
            positions,
            n: out.members(1).len(),
            k: inp.active_count(1) * window,
        });
    }
    shapes
}

/// GFLOP/s of `gemm_packed` over `shapes` at `rows` request rows: total
/// floating-point operations over total median time.
fn gemm_gflops(shapes: &[GemmShape], rows: usize) -> f64 {
    let mut rng = init::rng(17);
    let (mut flops, mut micros) = (0.0, 0.0);
    for s in shapes {
        let m = rows * s.positions;
        let a = init::uniform(Shape::of(&[m, s.k]), -1.0, 1.0, &mut rng);
        let w = init::uniform(Shape::of(&[s.n, s.k]), -1.0, 1.0, &mut rng);
        let bias = vec![0.1f32; s.n];
        let packed = PackedB::pack_nt(w.data(), s.n, s.k);
        let mut out = vec![0.0f32; m * s.n];
        let mut scratch = Vec::new();
        micros += time_us(200, || {
            gemm_packed(
                black_box(a.data()),
                false,
                &packed,
                &mut out,
                m,
                &mut scratch,
                Epilogue::BiasRelu(&bias),
            );
            black_box(&out);
        });
        flops += 2.0 * (m * s.n * s.k) as f64;
    }
    flops / micros / 1e3
}

/// Arithmetic rate of this build on this host: 64 independent
/// multiply-add chains, nothing read from memory. With the workspace's
/// default target features that is the SSE2 rate the microkernel is also
/// compiled for.
fn peak_gflops() -> f64 {
    const LANES: usize = 64;
    const ITERS: usize = 2_000_000;
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let mut acc = [1.0f32; LANES];
            let (mul, add) = (black_box(0.999_999f32), black_box(1e-6f32));
            let t = Instant::now();
            for _ in 0..ITERS {
                for v in acc.iter_mut() {
                    *v = *v * mul + add;
                }
            }
            black_box(&acc);
            2.0 * (LANES * ITERS) as f64 / t.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    median(&samples)
}

fn tensor_layer(out: &mut Vec<Metric>) {
    let mut shapes = gemm_shapes(&Model::Mlp.build());
    shapes.extend(gemm_shapes(&Model::Conv.build()));
    let r1 = gemm_gflops(&shapes, 1);
    let r8 = gemm_gflops(&shapes, 8);
    let peak = peak_gflops();
    out.push(Metric::new("tensor.gemm_r1_gflops", r1, "GFLOP/s"));
    out.push(Metric::new("tensor.gemm_r8_gflops", r8, "GFLOP/s"));
    out.push(Metric::new("tensor.peak_gflops", peak, "GFLOP/s"));
    out.push(Metric::new("tensor.gemm_r8_peak_frac", r8 / peak, "ratio"));

    // gather / scatter: half of a 512-wide activation, 8 rows, as an MLP
    // step reads its legal inputs and writes its new neurons; bytes moved
    // are computed from the sizes (one load and one store per element)
    let (rows, width) = (8, 512);
    let idx: Vec<usize> = (0..width).step_by(2).collect();
    let src = init::uniform(Shape::of(&[rows, width]), -1.0, 1.0, &mut init::rng(3));
    let mut packed = Vec::new();
    let bytes = (2 * rows * idx.len() * 4) as f64;
    let gather_us = time_us(2000, || {
        gather_columns(black_box(src.data()), rows, width, &idx, &mut packed);
        black_box(&packed);
    });
    let mut wide = vec![0.0f32; rows * width];
    let scatter_us = time_us(2000, || {
        scatter_columns(black_box(&packed), rows, &idx, &mut wide, width);
        black_box(&wide);
    });
    out.push(Metric::new(
        "tensor.gather_gbps",
        bytes / gather_us / 1e3,
        "GB/s",
    ));
    out.push(Metric::new(
        "tensor.scatter_gbps",
        bytes / scatter_us / 1e3,
        "GB/s",
    ));

    // im2col: the conv net's two layers at one request row, all channels
    let (mut im_bytes, mut im_us) = (0.0, 0.0);
    for (channels, side) in [(3usize, 16usize), (24, 8)] {
        let geom = ConvGeometry::new(channels, side, side, 3, 3, 1, 1).expect("fixed geometry");
        let x = init::uniform(
            Shape::of(&[1, channels, side, side]),
            -1.0,
            1.0,
            &mut init::rng(5),
        );
        let all: Vec<usize> = (0..channels).collect();
        let mut dst = Vec::new();
        im_us += time_us(500, || {
            im2col_channels_into(black_box(&x), &geom, &all, &mut dst).expect("im2col");
            black_box(&dst);
        });
        im_bytes += (2 * dst.len() * 4) as f64;
    }
    out.push(Metric::new(
        "tensor.im2col_gbps",
        im_bytes / im_us / 1e3,
        "GB/s",
    ));

    // packing every full-plan weight panel of the MLP, as a launch does
    let mlp_shapes: Vec<GemmShape> = gemm_shapes(&Model::Mlp.build())
        .into_iter()
        .step_by(2)
        .collect();
    let weights: Vec<Tensor> = mlp_shapes
        .iter()
        .map(|s| init::uniform(Shape::of(&[s.n, s.k]), -1.0, 1.0, &mut init::rng(9)))
        .collect();
    let pack_us = time_us(20, || {
        for (s, w) in mlp_shapes.iter().zip(&weights) {
            black_box(PackedB::pack_nt(w.data(), s.n, s.k));
        }
    });
    out.push(Metric::new("tensor.pack_b_us", pack_us, "us"));
}

fn core_layer(model: Model, out: &mut Vec<Metric>) {
    let m = model.name();
    let mut net = model.build();
    let inputs = model.inputs(23);
    let full = net.full_macs() as f64;
    for s in 0..SUBNETS {
        let packed = net.packed_macs(s) as f64 / full;
        let budget = net.macs(s, 0.0) as f64 / full;
        out.push(Metric::new(
            format!("core.{m}.packed_mac_ratio_s{s}"),
            packed,
            "ratio",
        ));
        out.push(Metric::new(
            format!("core.{m}.budget_mac_ratio_s{s}"),
            budget,
            "ratio",
        ));
    }
    for rows in ROWS {
        let batch = &inputs[..rows];
        let mut direct = [0.0f64; SUBNETS];
        for (s, us) in direct.iter_mut().enumerate() {
            *us = time_us(60, || {
                let mut exec = BatchExecutor::new(&mut net, 0.0);
                black_box(exec.begin(black_box(batch), s).expect("begin"));
            });
            out.push(Metric::new(
                format!("core.{m}.direct_r{rows}_s{s}_us"),
                *us,
                "us",
            ));
        }
        // one begin at subnet 0 (untimed) and three timed expands per rep
        let mut expand: [Vec<f64>; SUBNETS] = Default::default();
        for _ in 0..61 {
            let mut exec = BatchExecutor::new(&mut net, 0.0);
            let mut caches: Vec<_> = exec
                .begin(batch, 0)
                .expect("begin")
                .into_iter()
                .map(|(cache, _)| cache)
                .collect();
            for samples in expand.iter_mut().skip(1) {
                let t = Instant::now();
                black_box(exec.expand(&mut caches).expect("expand"));
                samples.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        let mut chain = direct[0];
        for (s, samples) in expand.iter().enumerate().skip(1) {
            // the first rep compiled the step plans
            let us = median(&samples[1..]);
            chain += us;
            out.push(Metric::new(
                format!("core.{m}.expand_r{rows}_s{s}_us"),
                us,
                "us",
            ));
        }
        out.push(Metric::new(
            format!("core.{m}.chain_vs_direct_r{rows}"),
            chain / direct[SUBNETS - 1],
            "ratio",
        ));
        let refs: Vec<&[f32]> = batch.iter().map(Tensor::data).collect();
        let mut dims = model.row_shape().dims().to_vec();
        dims[0] = rows;
        let stacked = Tensor::from_vec(Shape::of(&dims), refs.concat()).expect("stack rows");
        let fused = time_us(60, || {
            black_box(
                net.forward_packed(black_box(&stacked), SUBNETS - 1)
                    .expect("fused"),
            );
        });
        out.push(Metric::new(
            format!("core.{m}.fused_r{rows}_s3_us"),
            fused,
            "us",
        ));
    }
    // plan compilation: the first full pass of a fresh net against a warm one
    let warm = time_us(20, || {
        let mut exec = BatchExecutor::new(&mut net, 0.0);
        black_box(exec.begin(&inputs[..1], SUBNETS - 1).expect("begin"));
    });
    let cold: Vec<f64> = (0..5)
        .map(|_| {
            let mut fresh = model.build();
            let t = Instant::now();
            let mut exec = BatchExecutor::new(&mut fresh, 0.0);
            black_box(exec.begin(&inputs[..1], SUBNETS - 1).expect("begin"));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    out.push(Metric::new(
        format!("core.{m}.plan_compile_us"),
        median(&cold) - warm,
        "us",
    ));
}

fn runtime_layer(out: &mut Vec<Metric>) {
    let mut net = Model::Mlp.build();
    let x = Model::Mlp.inputs(29).swap_remove(0);
    // every slice affords every step: the session climbs to the top subnet
    let config = SessionConfig::new()
        .device(DeviceModel::embedded())
        .trace(ResourceTrace::constant(net.full_macs(), SUBNETS));
    let us = time_us(60, || {
        let outcome = Session::new(&mut net, config.clone())
            .run(black_box(&x))
            .expect("run");
        assert_eq!(outcome.final_subnet, Some(SUBNETS - 1));
    });
    out.push(Metric::new("runtime.session_run_us", us, "us"));
}

fn serve_layer(out: &mut Vec<Metric>) {
    // `max_batch` 1 makes a lone request ready at once; with the default 8
    // the round trip would be the 200 us batching window and nothing else
    let config = ServeConfig::builder()
        .max_batch(1)
        .session(SessionConfig::new().device(DeviceModel::embedded()))
        .build();
    let server = Server::new(&null_net(), config).expect("null server");
    let x = Tensor::ones(Shape::of(&[1, 1]));
    let us = time_us(5000, || {
        let ticket = server.submit(Request::full(x.clone())).expect("submit");
        let response = ticket.wait().expect("reply");
        server.release(response.session);
    });
    server.shutdown();
    out.push(Metric::new("serve.null_roundtrip_us", us, "us"));
}

/// A replica that answers at once: what is left of a `Router::submit` over
/// it is the router's own work.
#[derive(Debug)]
struct Instant0;

fn stub_ticket() -> Ticket {
    Ticket::resolved(Ok(Response {
        id: 0,
        session: 0,
        subnet: 0,
        logits: Tensor::zeros(Shape::of(&[1, 1])),
        step_macs: 0,
        total_macs: 0,
        modeled_latency_us: 0.0,
        latency_us: 0.0,
        outcome: Outcome::Met,
        batch_size: 1,
        cache_reuse: 0.0,
    }))
}

impl ReplicaHandle for Instant0 {
    fn submit(&self, _request: Request) -> std::result::Result<Ticket, ServeError> {
        Ok(stub_ticket())
    }
    fn upgrade(&self, _s: u64, _b: Option<f64>) -> std::result::Result<Ticket, ServeError> {
        Err(ServeError::Invalid(SteppingError::BadConfig("stub".into())))
    }
    fn release(&self, _session: u64) {}
    fn session_count(&self) -> usize {
        0
    }
    fn drain(&self) {}
    fn is_draining(&self) -> bool {
        false
    }
    fn shutdown(&self) {}
    fn stats(&self) -> ServerStats {
        ServerStats::default()
    }
}

fn router_layer(out: &mut Vec<Metric>) -> Result<()> {
    let config = RouterConfig::builder().replicas(2).vnodes(64).build();
    let ring = Ring::new(config.get_replicas(), config.get_vnodes());
    let key = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let owner = time_ns_per_call(21, 20_000, |i| {
        black_box(ring.owner(black_box(key(i))));
    });
    let successors = time_ns_per_call(21, 20_000, |i| {
        black_box(ring.successors(black_box(key(i))));
    });
    let breaker = Breaker::new(
        config.get_breaker_window(),
        config.get_breaker_trip_ratio(),
        config.get_breaker_cooldown(),
    );
    let breaker_ns = time_ns_per_call(21, 20_000, |_| {
        if black_box(breaker.allow()) {
            black_box(breaker.record(false));
        }
    });
    let stubs: Vec<Arc<dyn ReplicaHandle>> = (0..config.get_replicas())
        .map(|_| Arc::new(Instant0) as Arc<dyn ReplicaHandle>)
        .collect();
    let router = Router::new(stubs, &config)?;
    let x = Tensor::ones(Shape::of(&[1, 1]));
    let routed = time_ns_per_call(21, 5_000, |i| {
        black_box(
            router
                .submit(key(i), Request::full(x.clone()))
                .expect("routed"),
        );
    });
    let direct = time_ns_per_call(21, 5_000, |_| {
        black_box(Instant0.submit(Request::full(x.clone())).expect("direct"));
    });
    let max_share = ring.shares().into_iter().fold(0.0f64, f64::max);
    out.push(Metric::new("router.ring_owner_ns", owner, "ns"));
    out.push(Metric::new("router.successors_ns", successors, "ns"));
    out.push(Metric::new("router.breaker_ns", breaker_ns, "ns"));
    out.push(Metric::new(
        "router.submit_overhead_ns",
        routed - direct,
        "ns",
    ));
    out.push(Metric::new("router.max_share", max_share, "ratio"));
    out.push(Metric::new(
        "router.ring_imbalance",
        ring.imbalance(),
        "ratio",
    ));
    Ok(())
}

fn main() -> Result<()> {
    let mut out = Vec::new();
    tensor_layer(&mut out);
    core_layer(Model::Mlp, &mut out);
    core_layer(Model::Conv, &mut out);
    runtime_layer(&mut out);
    serve_layer(&mut out);
    router_layer(&mut out)?;
    for metric in &out {
        println!("{}", metric.to_tsv());
    }
    Ok(())
}

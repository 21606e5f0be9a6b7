//! The end-to-end benchmark: drives one workload against a freshly launched
//! server (or router), checks its outputs, and prints every metric.
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run
//! e2e [--seed <n>] [--seconds <s>] [--sets <k>]                  everything
//! ```
//!
//! One run prints its metrics by name and, as the last line of standard
//! output, the JSON result of the benchmark contract: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Without
//! `--workload` the binary runs every workload untraced and then traced,
//! each in a fresh process, `--sets` times over, prints one table and
//! compares the sets against the regression bounds.
//!
//! Only the serving surface is used here (`Server`, `Router`, their configs,
//! requests, tickets, responses and stats, plus the masked reference forward
//! for checking); calls below that surface live in the `probe` binary.

use std::collections::BTreeMap;
use std::fs;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use stepping_benchmark::drive::{run_phase, Budgets, Fate, Pace, PhaseRun, Target, SAMPLE_STRIDE};
use stepping_benchmark::models::{Model, SUBNETS};
use stepping_benchmark::names::{self, END_TO_END};
use stepping_benchmark::procfs;
use stepping_benchmark::report::{contract_json, parse_tsv, Metric};
use stepping_benchmark::schedule::{
    Phase, Schedule, Workload, BEGIN_BUDGET_MARGIN, CONCURRENCY, LATENCY_LIMIT_US, NOMINAL_SECONDS,
    STEP_BUDGET_MARGIN,
};
use stepping_benchmark::stats::{
    calm_median, median, percentile, slice_rates, sorted, spread, tail,
};
use stepping_benchmark::trace::{durations_ns, write_jsonl, Span, SpanName};
use stepping_core::SteppingNet;
use stepping_router::{Router, RouterConfig};
use stepping_runtime::{expand_macs, DeviceModel, SessionConfig};
use stepping_serve::{Response, ServeConfig, Server, ServerStats};
use stepping_tensor::{Shape, Tensor};

/// Launches timed for `setup_s`; the last one serves the run.
const SETUP_CYCLES: usize = 9;
/// Slices of a closed loop's measured phase; throughput is their median.
const SLICES: usize = 5;
/// Window of the open loop's latency metrics (see [`typical_us`]).
const CALM_WINDOW_NS: u64 = 500_000_000;
/// At most this many spans are written to a trace file.
const TRACE_FILE_SPANS: usize = 200_000;
/// Canary drift beyond which a run is marked noisy.
const NOISY_DRIFT: f64 = 0.15;

/// What a launched deployment must offer beyond [`Target`].
trait Deployed: Target + Sized {
    fn launch(net: &SteppingNet) -> Self;
    fn stats(&self) -> ServerStats;
    fn sessions(&self) -> usize;
    fn stop(&self);
}

fn serve_config(workers: usize) -> ServeConfig {
    ServeConfig::builder()
        .workers(workers)
        .session(SessionConfig::new().device(DeviceModel::embedded()))
        .build()
}

impl Deployed for Server {
    fn launch(net: &SteppingNet) -> Self {
        Server::new(net, serve_config(2)).expect("server launches")
    }
    fn stats(&self) -> ServerStats {
        Server::stats(self)
    }
    fn sessions(&self) -> usize {
        self.session_count()
    }
    fn stop(&self) {
        self.shutdown();
    }
}

impl Deployed for Router {
    fn launch(net: &SteppingNet) -> Self {
        let config = RouterConfig::builder().replicas(2).vnodes(64).build();
        Router::launch(net, &serve_config(1), &config).expect("router launches")
    }
    fn stats(&self) -> ServerStats {
        (0..self.replica_count())
            .map(|replica| Router::stats(self, replica).expect("replica in range"))
            .fold(ServerStats::default(), |sum, s| {
                combine(sum, s, |a, b| a + b)
            })
    }
    fn sessions(&self) -> usize {
        self.session_counts().iter().sum()
    }
    fn stop(&self) {
        self.shutdown();
    }
}

fn budgets(net: &SteppingNet) -> Budgets {
    let device = DeviceModel::embedded();
    let mut begin_us = [0.0; SUBNETS];
    let mut step_us = [0.0; SUBNETS];
    for k in 0..SUBNETS {
        begin_us[k] = BEGIN_BUDGET_MARGIN * device.latency_us(net.macs(k, 0.0));
        if k + 1 < SUBNETS {
            let step = expand_macs(net, k, 0.0).expect("step in range");
            step_us[k] = STEP_BUDGET_MARGIN * device.latency_us(step);
        }
    }
    Budgets { begin_us, step_us }
}

/// Megaflops of a fixed dependent multiply-add chain, median of 15 short
/// samples: the same instructions before and after every workload, so a
/// change reads as host noise.
fn canary_mflops() -> f64 {
    const ITERS: u64 = 5_000_000;
    let (mul, add) = (
        std::hint::black_box(0.999_999_9f64),
        std::hint::black_box(1e-7f64),
    );
    let samples: Vec<f64> = (0..15)
        .map(|_| {
            let mut x = 1.0f64;
            let t = Instant::now();
            for _ in 0..ITERS {
                x = x * mul + add;
            }
            std::hint::black_box(x);
            2.0 * ITERS as f64 / t.elapsed().as_secs_f64() / 1e6
        })
        .collect();
    median(&samples)
}

/// One operation with both threads' records joined.
#[derive(Debug, Clone, Copy)]
struct Op {
    phase: usize,
    session: u32,
    step: u8,
    origin_ns: u64,
    stamp_ns: u64,
    inside_us: f64,
    subnet: u8,
    batch: u8,
    fate: Fate,
}

impl Op {
    fn latency_us(&self) -> f64 {
        self.stamp_ns.saturating_sub(self.origin_ns) as f64 / 1e3
    }
    fn good(&self) -> bool {
        !matches!(self.fate, Fate::Errored | Fate::Shed) && self.latency_us() <= LATENCY_LIMIT_US
    }
}

/// Everything measured while the measured phases ran.
struct Measured {
    /// Answered operations, in stamping order within each phase.
    ops: Vec<Op>,
    runs: Vec<PhaseRun>,
    cpu_s: f64,
    stats: ServerStats,
    rerouted: u64,
}

fn join(runs: &[PhaseRun]) -> Vec<Op> {
    let mut ops = Vec::new();
    for (phase, run) in runs.iter().enumerate() {
        for reply in &run.replies {
            let send = run.sends[reply.op as usize];
            ops.push(Op {
                phase,
                session: send.session,
                step: send.step,
                origin_ns: send.origin_ns,
                stamp_ns: reply.stamp_ns,
                inside_us: reply.inside_us,
                subnet: reply.subnet,
                batch: reply.batch,
                fate: reply.fate,
            });
        }
    }
    ops
}

/// Field by field `op(a, b)`; `max_batch`, a running maximum, keeps the
/// larger of the two.
fn combine(a: ServerStats, b: ServerStats, op: impl Fn(u64, u64) -> u64) -> ServerStats {
    ServerStats {
        admitted: op(a.admitted, b.admitted),
        requests: op(a.requests, b.requests),
        batches: op(a.batches, b.batches),
        batched_requests: op(a.batched_requests, b.batched_requests),
        max_batch: a.max_batch.max(b.max_batch),
        cache_hits: op(a.cache_hits, b.cache_hits),
        total_macs: op(a.total_macs, b.total_macs),
        deadline_misses: op(a.deadline_misses, b.deadline_misses),
        degraded: op(a.degraded, b.degraded),
        shed: op(a.shed, b.shed),
        rejected: op(a.rejected, b.rejected),
    }
}

/// The inputs of one run, fixed by its arguments.
struct Plan {
    workload: Workload,
    schedule: Schedule,
    inputs: Vec<Tensor>,
    budgets: Budgets,
}

impl Plan {
    fn new(workload: Workload, seed: u64, seconds: u64) -> Plan {
        let model = workload.model();
        Plan {
            workload,
            schedule: Schedule::generate(workload, seed, seconds),
            inputs: model.inputs(seed),
            budgets: budgets(&model.build()),
        }
    }

    fn pace(&self) -> Pace {
        if self.workload.is_open() {
            Pace::Open(Instant::now())
        } else {
            Pace::Closed(CONCURRENCY)
        }
    }

    /// One set-up cycle: build the net, launch, replay the fixed script.
    fn launch<D: Deployed>(&self, epoch: Instant) -> (D, f64, u64) {
        let t = Instant::now();
        let deployed = D::launch(&self.workload.model().build());
        let run = run_phase(
            &deployed,
            &self.schedule.setup_script,
            Pace::Closed(CONCURRENCY),
            &self.budgets,
            &self.inputs,
            epoch,
            false,
        );
        (
            deployed,
            t.elapsed().as_secs_f64(),
            run.replies.len() as u64,
        )
    }

    /// Warm-up, then the measured phases, on a launched deployment.
    fn measure<D: Deployed>(&self, deployed: &D, epoch: Instant, trace: bool) -> Measured {
        let drive = |phase: &Phase, trace: bool| {
            run_phase(
                deployed,
                phase,
                self.pace(),
                &self.budgets,
                &self.inputs,
                epoch,
                trace,
            )
        };
        drive(&self.schedule.warmup, false);
        let stats_before = deployed.stats();
        let cpu_before = procfs::cpu_seconds().unwrap_or(0.0);
        let runs: Vec<PhaseRun> = self
            .schedule
            .measured
            .iter()
            .map(|p| drive(p, trace))
            .collect();
        // the collector's polling is the harness's cost, not the program's
        let cpu_s = procfs::cpu_seconds().unwrap_or(0.0)
            - cpu_before
            - runs.iter().map(|r| r.collector_cpu_s).sum::<f64>();
        let rerouted = runs
            .iter()
            .flat_map(|r| &r.sends)
            .filter(|s| s.rerouted)
            .count() as u64;
        Measured {
            ops: join(&runs),
            runs,
            cpu_s,
            stats: combine(deployed.stats(), stats_before, |after, before| {
                after - before
            }),
            rerouted,
        }
    }
}

/// Seconds the measured phases took: a closed loop from first send to last
/// stamp, the open loop over its send windows and drains.
fn elapsed_s(runs: &[PhaseRun]) -> f64 {
    runs.iter()
        .map(|r| (r.end_ns - r.start_ns) as f64 / 1e9)
        .sum()
}

fn throughput_rps(plan: &Plan, m: &Measured) -> (f64, f64) {
    if plan.workload.is_open() {
        return (m.ops.len() as f64 / elapsed_s(&m.runs), 0.0);
    }
    let stamps: Vec<u64> = m.ops.iter().map(|op| op.stamp_ns).collect();
    let rates = slice_rates(&stamps, m.runs[0].start_ns, SLICES);
    (median(&rates), spread(&rates))
}

fn p50(values: impl Iterator<Item = f64>) -> f64 {
    percentile(&sorted(values.collect()), 0.5)
}

/// Origin and latency of whole sessions (origin of the first request to the
/// stamp of the last planned reply), for sessions whose every operation was
/// answered.
fn session_latencies_us(plan: &Plan, ops: &[Op], phase: usize) -> Vec<(u64, f64)> {
    let sessions = &plan.schedule.measured[phase].sessions;
    let mut first = vec![u64::MAX; sessions.len()];
    let mut last = vec![0u64; sessions.len()];
    for op in ops
        .iter()
        .filter(|op| op.phase == phase && op.fate != Fate::Errored)
    {
        let s = op.session as usize;
        if op.step == 0 {
            first[s] = op.origin_ns;
        }
        if op.step == sessions[s].steps {
            last[s] = op.stamp_ns;
        }
    }
    first
        .iter()
        .zip(&last)
        .filter(|(&f, &l)| f != u64::MAX && l != 0)
        .map(|(&f, &l)| (f, l.saturating_sub(f) as f64 / 1e3))
        .collect()
}

/// The median of `(origin_ns, latency_us)` samples that the latency metrics
/// report. Replies of a closed loop wait for each other, so a disturbance
/// spreads over the whole run and the plain median is as good as any; an
/// open loop confines it to its own window (see [`calm_median`]: twenty
/// runs of `anytime_conv_open` spread 12 % by the plain median and 6 % by
/// this one).
fn typical_us(plan: &Plan, samples: &[(u64, f64)]) -> f64 {
    if plan.workload.is_open() {
        calm_median(samples, CALM_WINDOW_NS)
    } else {
        median(&samples.iter().map(|&(_, us)| us).collect::<Vec<_>>())
    }
}

fn end_to_end(plan: &Plan, m: &Measured, setup_s: f64, failed: u64) -> Vec<Metric> {
    let timed = |keep: &dyn Fn(&Op) -> bool| -> Vec<(u64, f64)> {
        m.ops
            .iter()
            .filter(|op| keep(op))
            .map(|op| (op.origin_ns, op.latency_us()))
            .collect()
    };
    let latency = typical_us(plan, &timed(&|_| true));
    let or_latency = |samples: Vec<(u64, f64)>| {
        if samples.is_empty() {
            latency
        } else {
            typical_us(plan, &samples)
        }
    };
    let first = or_latency(timed(&|op| op.step == 0));
    // a workload without upgrades has one kind of operation: its reply
    // latency stands in for the step
    let step = or_latency(timed(&|op| op.step > 0));
    let session = or_latency(
        (0..m.runs.len())
            .flat_map(|phase| session_latencies_us(plan, &m.ops, phase))
            .collect(),
    );
    let send_s = if plan.workload.is_open() {
        plan.schedule
            .measured
            .iter()
            .map(|p| p.window_ns as f64 / 1e9)
            .sum()
    } else {
        elapsed_s(&m.runs)
    };
    let answered: Vec<&Op> = m.ops.iter().filter(|op| op.fate != Fate::Errored).collect();
    let replies = answered.len().max(1) as f64;
    let below = answered
        .iter()
        .filter(|op| matches!(op.fate, Fate::Degraded | Fate::Shed))
        .count() as f64;
    let attempted = plan.schedule.measured_ops();
    let values = [
        ("setup_s", setup_s),
        ("throughput_rps", throughput_rps(plan, m).0),
        ("cpu_us_per_op", m.cpu_s * 1e6 / replies),
        ("latency_p50_us", latency),
        ("first_answer_p50_us", first),
        ("step_p50_us", step),
        ("session_p50_us", session),
        (
            "goodput_rps",
            m.ops.iter().filter(|op| op.good()).count() as f64 / send_s,
        ),
        (
            "served_level_mean",
            answered.iter().map(|op| f64::from(op.subnet)).sum::<f64>() / replies,
        ),
        ("full_service_frac", 1.0 - below / replies),
        ("success_frac", 1.0 - failed as f64 / attempted as f64),
        ("peak_rss_mb", procfs::peak_rss_mb().unwrap_or(0.0)),
        ("ops", attempted as f64),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(m, (name, value))| {
            assert_eq!(m.name, name, "values follow the order of END_TO_END");
            Metric::new(name, value, m.unit)
        })
        .collect()
}

/// Compares every sampled reply with the masked reference forward of a
/// private copy of the model; returns how many differ.
fn check_outputs(plan: &Plan, runs: &[PhaseRun]) -> (u64, u64) {
    let mut reference = plan.workload.model().build();
    let mut by_subnet: BTreeMap<usize, Vec<(&Tensor, &Response)>> = BTreeMap::new();
    for (phase, run) in runs.iter().enumerate() {
        let sessions = &plan.schedule.measured[phase].sessions;
        for (op, response) in &run.samples {
            let session = run.sends[*op as usize].session as usize;
            let input = &plan.inputs[sessions[session].input as usize];
            by_subnet
                .entry(response.subnet)
                .or_default()
                .push((input, response));
        }
    }
    let (mut checked, mut wrong) = (0u64, 0u64);
    for (subnet, samples) in by_subnet {
        // rows are computed independently, so a stacked pass checks many
        // replies at the cost of one
        for chunk in samples.chunks(64) {
            let mut dims = plan.workload.model().row_shape().dims().to_vec();
            dims[0] = chunk.len();
            let data: Vec<f32> = chunk
                .iter()
                .flat_map(|(x, _)| x.data().iter().copied())
                .collect();
            let stacked = Tensor::from_vec(Shape::of(&dims), data).expect("stack rows");
            let logits = reference
                .forward(&stacked, subnet, false)
                .expect("reference forward");
            let width = logits.len() / chunk.len();
            for (row, (_, response)) in chunk.iter().enumerate() {
                checked += 1;
                if logits.data()[row * width..(row + 1) * width] != *response.logits.data() {
                    wrong += 1;
                }
            }
        }
    }
    (checked, wrong)
}

/// Counter conservation after the drain; returns the number of misses.
fn check_conservation(totals: ServerStats, answered: u64, sessions_end: usize) -> u64 {
    let mut misses = 0;
    let mut expect = |ok: bool, what: &str| {
        if !ok {
            eprintln!("conservation miss: {what}: {totals:?}, answered {answered}");
            misses += 1;
        }
    };
    expect(totals.admitted == totals.requests, "admitted == requests");
    expect(
        totals.requests == answered,
        "requests == replies by outcome",
    );
    expect(sessions_end == 0, "no session left");
    misses
}

/// Throughput and CPU per operation of a short untraced run of `workload`,
/// on a fresh deployment in this process.
fn reference_run(workload: Workload, seed: u64, seconds: u64) -> (f64, f64) {
    fn go<D: Deployed>(plan: &Plan) -> (f64, f64) {
        let epoch = Instant::now();
        let (deployed, _, _) = plan.launch::<D>(epoch);
        let m = plan.measure(&deployed, epoch, false);
        deployed.stop();
        (
            throughput_rps(plan, &m).0,
            m.cpu_s * 1e6 / m.ops.len().max(1) as f64,
        )
    }
    let plan = Plan::new(workload, seed, seconds.max(1));
    if workload.is_routed() {
        go::<Router>(&plan)
    } else {
        go::<Server>(&plan)
    }
}

/// Runs the `probe` binary that sits beside this one, if it does.
fn run_probe() -> Vec<Metric> {
    let Some(probe) = std::env::current_exe()
        .ok()
        .map(|exe| exe.with_file_name("probe"))
        .filter(|p| p.is_file())
    else {
        eprintln!("probe binary not found: its per-layer metrics are missing");
        return Vec::new();
    };
    match Command::new(&probe).stderr(Stdio::inherit()).output() {
        Ok(output) if output.status.success() => {
            parse_tsv(&String::from_utf8_lossy(&output.stdout))
        }
        other => {
            eprintln!("probe failed ({other:?}): its per-layer metrics are missing");
            Vec::new()
        }
    }
}

/// The probe's time for one pass of `op`'s kind at its batch size,
/// interpolated between the one-row and eight-row measurements.
fn probe_pass_us(probe: &BTreeMap<&str, f64>, model: Model, op: &Op) -> Option<f64> {
    let m = model.name();
    let at = |rows: usize| {
        let name = if op.step == 0 {
            format!("core.{m}.direct_r{rows}_s{}_us", op.subnet)
        } else {
            format!("core.{m}.expand_r{rows}_s{}_us", op.subnet)
        };
        probe.get(name.as_str()).copied()
    };
    let (one, eight) = (at(1)?, at(8)?);
    let rows = f64::from(op.batch.clamp(1, 8));
    Some(one + (eight - one) * (rows - 1.0) / 7.0)
}

struct LayerInputs<'a> {
    plan: &'a Plan,
    m: &'a Measured,
    spans: &'a [Span],
    sessions_end: usize,
    canary: (f64, f64),
    probe: &'a [Metric],
    seed: u64,
    seconds: u64,
}

fn per_layer(input: &LayerInputs) -> Vec<Metric> {
    let LayerInputs {
        plan,
        m,
        spans,
        probe,
        ..
    } = *input;
    let mut out: Vec<Metric> = probe.to_vec();
    let mut push = |name: &str, value: f64, unit: &str| out.push(Metric::new(name, value, unit));
    let span_p50 = |name| percentile(&sorted(durations_ns(spans, name)), 0.5);

    // serve: the harness's calls into it, its own counters, its replies
    let submit = if plan.workload.is_routed() {
        SpanName::RouterSubmitCall
    } else {
        SpanName::SubmitCall
    };
    push("serve.submit_call_ns_p50", span_p50(submit), "ns");
    push(
        "serve.upgrade_call_ns_p50",
        span_p50(SpanName::UpgradeCall),
        "ns",
    );
    push(
        "serve.release_call_ns_p50",
        span_p50(SpanName::ReleaseCall),
        "ns",
    );
    push(
        "serve.wake_lag_us_p50",
        span_p50(SpanName::ClientWait) / 1e3,
        "us",
    );
    let probe_map: BTreeMap<&str, f64> = probe.iter().map(|p| (p.name.as_str(), p.value)).collect();
    if !probe.is_empty() {
        let waits = m.ops.iter().filter(|op| op.batch > 0).filter_map(|op| {
            Some(op.inside_us - probe_pass_us(&probe_map, plan.workload.model(), op)?)
        });
        push("serve.queue_wait_est_us_p50", p50(waits), "us");
    }
    let batches = m.stats.batches.max(1) as f64;
    let computed = m.stats.requests - m.stats.cache_hits - m.stats.shed;
    push("serve.mean_batch", computed as f64 / batches, "count");
    push("serve.batches", m.stats.batches as f64, "count");
    push(
        "serve.batch_size_p50",
        p50(m.ops.iter().map(|op| f64::from(op.batch))),
        "count",
    );
    push("serve.degraded", m.stats.degraded as f64, "count");
    push("serve.shed", m.stats.shed as f64, "count");
    push("serve.rejected", m.stats.rejected as f64, "count");
    push("serve.cache_hits", m.stats.cache_hits as f64, "count");
    push(
        "serve.deadline_misses",
        m.stats.deadline_misses as f64,
        "count",
    );
    push("serve.total_macs", m.stats.total_macs as f64, "count");
    push("serve.sessions_end", input.sessions_end as f64, "count");

    // router: placements off the ring owner, and the cost of the split
    push("router.reroutes", m.rerouted as f64, "count");
    let short = (input.seconds / 10).max(1);
    let single = reference_run(Workload::SteppingMlp, input.seed, short).0;
    let routed = reference_run(Workload::RoutedSteppingMlp, input.seed, short).0;
    push("router.vs_single_ratio", routed / single, "ratio");

    // metrics: CPU per operation with recording on against off
    let on = reference_run(Workload::DirectMlp, input.seed, short).1;
    stepping_metrics::set_runtime_enabled(false);
    let off = reference_run(Workload::DirectMlp, input.seed, short).1;
    stepping_metrics::set_runtime_enabled(true);
    push("metrics.recording_cost_frac", on / off - 1.0, "ratio");

    // client: what the harness saw beyond the medians
    let open = plan.workload.is_open();
    let all = sorted(m.ops.iter().map(Op::latency_us).collect());
    let (tail_pct, tail_us) = tail(&all);
    push("client.latency_p90_us", percentile(&all, 0.9), "us");
    push("client.latency_p99_us", percentile(&all, 0.99), "us");
    let sessions: Vec<f64> = (0..m.runs.len())
        .flat_map(|phase| session_latencies_us(plan, &m.ops, phase))
        .map(|(_, us)| us)
        .collect();
    push(
        "client.session_p90_us",
        percentile(&sorted(sessions), 0.9),
        "us",
    );
    push("client.latency_tail_us", tail_us, "us");
    push("client.latency_tail_pct", tail_pct, "%");
    push("client.samples", all.len() as f64, "count");
    let mut max_rate_ok = 0.0;
    for phase in 0..3 {
        let (mut p50_us, mut good_frac) = (0.0, 0.0);
        if open {
            let of_phase: Vec<&Op> = m.ops.iter().filter(|op| op.phase == phase).collect();
            let attempted = plan.schedule.measured[phase].ops() as f64;
            p50_us = p50(of_phase.iter().map(|op| op.latency_us()));
            good_frac = of_phase.iter().filter(|op| op.good()).count() as f64 / attempted;
            let run = &m.runs[phase];
            let window_end = run.start_ns + plan.schedule.measured[phase].window_ns;
            let drain_s = run.end_ns.saturating_sub(window_end) as f64 / 1e9;
            if good_frac >= 0.95 && drain_s <= 0.5 {
                max_rate_ok = plan.schedule.measured[phase].rate_rps;
            }
        }
        push(
            &format!("client.r{}_latency_p50_us", phase + 1),
            p50_us,
            "us",
        );
        push(
            &format!("client.r{}_goodput_frac", phase + 1),
            good_frac,
            "ratio",
        );
    }
    push("client.max_rate_ok_rps", max_rate_ok, "1/s");
    let late = m
        .runs
        .last()
        .map(|run| sorted(run.late_ns.iter().map(|&ns| ns as f64 / 1e3).collect()))
        .unwrap_or_default();
    push("client.gen_late_p99_us", percentile(&late, 0.99), "us");
    // share of replies stamped after the reply of a later-sent operation
    let mut reordered = 0u64;
    for run in &m.runs {
        let mut newest = 0u32;
        for reply in &run.replies {
            reordered += u64::from(reply.op < newest);
            newest = newest.max(reply.op);
        }
    }
    push(
        "client.stamp_reorder_frac",
        reordered as f64 / m.ops.len().max(1) as f64,
        "ratio",
    );
    let (traced_rps, slice_spread) = throughput_rps(plan, m);
    push("client.throughput_spread", slice_spread, "ratio");

    // trace: what recording the spans cost, against an untraced run
    let untraced_rps = reference_run(plan.workload, input.seed, (input.seconds / 5).max(1)).0;
    push(
        "trace.overhead_frac",
        1.0 - traced_rps / untraced_rps,
        "ratio",
    );
    push("trace.spans", spans.len() as f64, "count");

    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    push("host.nproc", nproc as f64, "count");
    push("host.canary_before_mflops", input.canary.0, "MFLOP/s");
    push("host.canary_after_mflops", input.canary.1, "MFLOP/s");
    // report in the order of BENCHMARK.json; what the probe could not
    // measure is left out and reads `missing` in the table
    names::per_layer()
        .into_iter()
        .filter_map(|(name, _)| out.iter().find(|m| m.name == name).cloned())
        .collect()
}

fn write_trace(path: &Path, spans: &[Span], ops: u32) -> std::io::Result<u64> {
    let stride = spans.len().div_ceil(TRACE_FILE_SPANS).max(1) as u32;
    let mut out = BufWriter::new(fs::File::create(path)?);
    let written = write_jsonl(&mut out, spans, ops, stride)?;
    out.flush()?;
    Ok(written)
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    sets: usize,
    set: usize,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: NOMINAL_SECONDS,
        trace: false,
        sets: 1,
        set: 1,
        out: PathBuf::from("crates/benchmark/out"),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.clamp(1, 60),
            "--trace" => args.trace = number()? != 0,
            "--sets" => args.sets = number()?.max(1) as usize,
            "--set" => args.set = number()? as usize,
            "--out" => args.out = PathBuf::from(value),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn result_path(out: &Path, workload: Workload, trace: bool, set: usize) -> PathBuf {
    out.join(format!(
        "{}.trace{}.set{set}.tsv",
        workload.name(),
        u8::from(trace)
    ))
}

fn run_one<D: Deployed>(args: &Args, workload: Workload) -> ExitCode {
    let plan = Plan::new(workload, args.seed, args.seconds);
    let epoch = Instant::now();
    let canary_before = canary_mflops();

    let mut cycles = Vec::with_capacity(SETUP_CYCLES);
    let mut kept: Option<(D, u64)> = None;
    for _ in 0..SETUP_CYCLES {
        if let Some((previous, _)) = kept.take() {
            previous.stop();
        }
        let (deployed, secs, script_replies) = plan.launch::<D>(epoch);
        cycles.push(secs);
        kept = Some((deployed, script_replies));
    }
    let (deployed, script_replies) = kept.expect("at least one set-up cycle");
    let setup_s = median(&cycles);

    let m = plan.measure(&deployed, epoch, args.trace);
    deployed.stop();
    let sessions_end = deployed.sessions();
    let canary_after = canary_mflops();

    // every reply this deployment ever gave: script, warm-up and measured
    let warm_replies = plan.schedule.warmup.ops();
    let errored = m.ops.iter().filter(|op| op.fate == Fate::Errored).count() as u64;
    let answered = script_replies + warm_replies + m.ops.len() as u64 - errored;
    let conservation = check_conservation(deployed.stats(), answered, sessions_end);
    let (checked, wrong) = check_outputs(&plan, &m.runs);
    let attempted = plan.schedule.measured_ops();
    let unanswered = attempted - (m.ops.len() as u64 - errored);
    let failed = unanswered + wrong + conservation;
    let correct = wrong == 0 && conservation == 0;
    eprintln!(
        "{}: {attempted} operations, {unanswered} refused or errored; every {SAMPLE_STRIDE}th \
         reply checked against the masked reference: {checked} checked, {wrong} wrong",
        workload.name(),
    );
    if workload.is_open() {
        for (phase, planned) in plan.schedule.measured.iter().enumerate() {
            let of_phase: Vec<&Op> = m.ops.iter().filter(|op| op.phase == phase).collect();
            eprintln!(
                "{}: {} rps: latency p50 {:.1} us, {:.4} of {} operations inside the limit",
                workload.name(),
                planned.rate_rps,
                p50(of_phase.iter().map(|op| op.latency_us())),
                of_phase.iter().filter(|op| op.good()).count() as f64 / planned.ops() as f64,
                planned.ops(),
            );
        }
    }
    let drift = (canary_after / canary_before - 1.0).abs();
    if drift > NOISY_DRIFT {
        eprintln!(
            "{}: noisy: canary moved {:.0} % during the run",
            workload.name(),
            drift * 100.0
        );
    }

    let metrics = if args.trace {
        // operations are numbered within a phase; the trace numbers them
        // across the whole run
        let mut spans: Vec<Span> = Vec::new();
        let mut ops = 0u32;
        for run in &m.runs {
            spans.extend(run.spans.iter().map(|s| Span {
                op: s.op + ops,
                ..*s
            }));
            ops += run.sends.len() as u32;
        }
        if let Err(e) = fs::create_dir_all(&args.out) {
            eprintln!("cannot create {}: {e}", args.out.display());
        }
        let trace_path = args.out.join(format!("trace_{}.jsonl", workload.name()));
        match write_trace(&trace_path, &spans, ops) {
            Ok(written) => eprintln!("wrote {written} spans to {}", trace_path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", trace_path.display()),
        }
        let probe = run_probe();
        per_layer(&LayerInputs {
            plan: &plan,
            m: &m,
            spans: &spans,
            sessions_end,
            canary: (canary_before, canary_after),
            probe: &probe,
            seed: args.seed,
            seconds: args.seconds,
        })
    } else {
        end_to_end(&plan, &m, setup_s, failed)
    };

    let mut tsv = String::new();
    for metric in &metrics {
        println!("{:<34} {:>18.4} {}", metric.name, metric.value, metric.unit);
        tsv.push_str(&metric.to_tsv());
        tsv.push('\n');
    }
    let path = result_path(&args.out, workload, args.trace, args.set);
    if let Err(e) = fs::create_dir_all(&args.out).and_then(|()| fs::write(&path, tsv)) {
        eprintln!("cannot write {}: {e}", path.display());
    }
    println!("{}", contract_json(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload untraced and traced, each in a fresh process, `sets`
/// times; prints one table and compares the sets against the bounds.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own path");
    let mut ok = true;
    for set in 1..=args.sets {
        for trace in [false, true] {
            for workload in Workload::ALL {
                eprintln!(
                    "== set {set}: {} (trace {}) ==",
                    workload.name(),
                    u8::from(trace)
                );
                let status = Command::new(&exe)
                    .args(["--workload", workload.name()])
                    .args(["--seed", &args.seed.to_string()])
                    .args(["--seconds", &args.seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .args(["--set", &set.to_string()])
                    .arg("--out")
                    .arg(&args.out)
                    .stdout(Stdio::null())
                    .status();
                if !status.as_ref().is_ok_and(|s| s.success()) {
                    eprintln!("{} failed: {status:?}", workload.name());
                    ok = false;
                }
            }
        }
    }
    let load = |workload, trace, set| -> BTreeMap<String, Metric> {
        fs::read_to_string(result_path(&args.out, workload, trace, set))
            .map(|text| parse_tsv(&text))
            .unwrap_or_default()
            .into_iter()
            .map(|m| (m.name.clone(), m))
            .collect()
    };
    let show = |m: Option<&Metric>| m.map_or("missing".to_string(), |m| format!("{:.4}", m.value));

    // one table: a row per metric, a column per workload (set 1)
    for trace in [false, true] {
        let columns: Vec<BTreeMap<String, Metric>> =
            Workload::ALL.iter().map(|&w| load(w, trace, 1)).collect();
        let names: Vec<(String, &str)> = if trace {
            names::per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|m| (m.name.to_string(), m.unit))
                .collect()
        };
        println!(
            "\n{:<34} {:>8} {}",
            if trace {
                "per-layer metric (traced run)"
            } else {
                "end-to-end metric"
            },
            "unit",
            Workload::ALL.map(|w| format!("{:>20}", w.name())).join("")
        );
        for (name, unit) in names {
            let cells: String = columns
                .iter()
                .map(|c| format!("{:>20}", show(c.get(&name))))
                .collect();
            println!("{name:<34} {unit:>8} {cells}");
        }
    }

    // the two gaps ROADMAP items 1 and 2 start from
    let direct = load(Workload::DirectMlp, false, 1);
    let stepping = load(Workload::SteppingMlp, false, 1);
    let layers = load(Workload::SteppingMlp, true, 1);
    let ratio = match (stepping.get("session_p50_us"), direct.get("latency_p50_us")) {
        (Some(s), Some(d)) => format!("{:.4}", s.value / d.value),
        _ => "missing".to_string(),
    };
    println!("\nstepping 0 -> 3 against one direct full pass:");
    println!(
        "  core.mlp.chain_vs_direct_r8 = {}   stepping_mlp.session_p50_us / direct_mlp.latency_p50_us = {ratio}",
        show(layers.get("core.mlp.chain_vs_direct_r8"))
    );
    println!("the pass the server runs against the fused pass:");
    println!(
        "  core.mlp.direct_r1_s3_us = {}   core.mlp.fused_r1_s3_us = {}",
        show(layers.get("core.mlp.direct_r1_s3_us")),
        show(layers.get("core.mlp.fused_r1_s3_us"))
    );

    // set against set, metric by metric, within the regression bounds
    for set in 2..=args.sets {
        println!("\nset 1 against set {set}:");
        for workload in Workload::ALL {
            let (a, b) = (load(workload, false, 1), load(workload, false, set));
            for m in &END_TO_END {
                let (name, unit, bound) = (m.name, m.unit, m.bound);
                let (Some(x), Some(y)) = (a.get(name), b.get(name)) else {
                    println!("  MISS {:<20} {name:<22} missing", workload.name());
                    ok = false;
                    continue;
                };
                let worse = if m.higher_is_better {
                    x.value - y.value
                } else {
                    y.value - x.value
                };
                let apart = worse.abs() / x.value.abs().max(f64::MIN_POSITIVE);
                let verdict = if apart <= bound { "ok  " } else { "MISS" };
                ok &= apart <= bound;
                println!(
                    "  {verdict} {:<20} {name:<22} {:>14.4} {:>14.4} {unit:<6} apart {:.2} % (bound {:.1} %)",
                    workload.name(),
                    x.value,
                    y.value,
                    apart * 100.0,
                    bound * 100.0
                );
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e: {e}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        None => run_all(&args),
        Some(w) if w.is_routed() => run_one::<Router>(&args, w),
        Some(w) => run_one::<Server>(&args, w),
    }
}

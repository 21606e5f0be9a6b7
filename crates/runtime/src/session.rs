//! The unified inference API: a [`SessionConfig`] builder plus a
//! [`Session`] exposing every anytime-inference mode as a method.
//!
//! A [`Session`] holds the network's compiled model and one validated
//! configuration, so callers (including the `stepping-serve` engine and
//! the benchmark harness) consume **one** type:
//!
//! ```
//! use stepping_core::SteppingNetBuilder;
//! use stepping_runtime::{ResourceTrace, Session, SessionConfig};
//! use stepping_tensor::{Shape, Tensor};
//!
//! let mut net = SteppingNetBuilder::new(Shape::of(&[4]), 2, 0)
//!     .linear(6).relu().build(3)?;
//! net.move_neuron(0, 5, 1)?;
//! let config = SessionConfig::new()
//!     .trace(ResourceTrace::constant(net.macs(1, 0.0), 3));
//! let out = Session::new(&net, config)
//!     .run(&Tensor::zeros(Shape::of(&[1, 4])))?;
//! assert_eq!(out.final_subnet, Some(1));
//! # Ok::<(), stepping_core::SteppingError>(())
//! ```

use std::sync::mpsc;
use std::time::Duration;

use stepping_core::events::{event, phase};
use stepping_core::telemetry::{self, Value};
use stepping_core::{
    ActivationCache, BatchExecutor, ExpandStep, Result, SteppingError, SteppingNet,
};
use stepping_tensor::{reduce, Tensor};

use crate::confidence::ConfidentOutcome;
use crate::driver::{DriveOutcome, SliceLog, UpgradePolicy};
use crate::live::LatestPrediction;
use crate::policy::{Decision, Policy, Stop};
use crate::{DeviceModel, ResourceTrace};

/// Everything an anytime-inference run needs, gathered behind a builder.
///
/// Defaults: prune threshold `0.0`, [`UpgradePolicy::Incremental`], no
/// device model, no trace, no confidence threshold, start at subnet 0,
/// zero live tick.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionConfig {
    prune_threshold: f32,
    policy: UpgradePolicy,
    device: Option<DeviceModel>,
    trace: Option<ResourceTrace>,
    confidence: Option<f32>,
    start_subnet: usize,
    tick_us: u64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            prune_threshold: 0.0,
            policy: UpgradePolicy::Incremental,
            device: None,
            trace: None,
            confidence: None,
            start_subnet: 0,
            tick_us: 0,
        }
    }
}

impl SessionConfig {
    /// A configuration with the defaults above.
    pub fn new() -> Self {
        Self::default()
    }

    /// Magnitude threshold used for MAC accounting.
    pub fn prune_threshold(mut self, threshold: f32) -> Self {
        self.prune_threshold = threshold;
        self
    }

    /// Upgrade-cost policy (incremental reuse vs recompute-from-scratch).
    pub fn policy(mut self, policy: UpgradePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Device latency model, used by consumers translating MACs to time
    /// (the serve engine's deadline math).
    pub fn device(mut self, device: DeviceModel) -> Self {
        self.device = Some(device);
        self
    }

    /// Per-timeslice MAC budgets driving [`Session::run`] /
    /// [`Session::run_until_deadline`] / [`Session::run_live`].
    pub fn trace(mut self, trace: ResourceTrace) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Softmax confidence threshold for
    /// [`Session::run_until_confident`].
    pub fn confidence(mut self, threshold: f32) -> Self {
        self.confidence = Some(threshold);
        self
    }

    /// First subnet worth answering from: the run pays `macs(start_subnet)`
    /// up front and never publishes a smaller subnet's prediction.
    pub fn start_subnet(mut self, subnet: usize) -> Self {
        self.start_subnet = subnet;
        self
    }

    /// Wall-clock interval between budget grants in
    /// [`Session::run_live`].
    pub fn tick(mut self, tick: Duration) -> Self {
        self.tick_us = tick.as_micros() as u64;
        self
    }

    /// Configured prune threshold.
    pub fn get_prune_threshold(&self) -> f32 {
        self.prune_threshold
    }

    /// Configured upgrade policy.
    pub fn get_policy(&self) -> UpgradePolicy {
        self.policy
    }

    /// Configured device model, if any.
    pub fn get_device(&self) -> Option<DeviceModel> {
        self.device
    }

    /// Configured resource trace, if any.
    pub fn get_trace(&self) -> Option<&ResourceTrace> {
        self.trace.as_ref()
    }

    /// Configured confidence threshold, if any.
    pub fn get_confidence(&self) -> Option<f32> {
        self.confidence
    }

    /// Configured start subnet.
    pub fn get_start_subnet(&self) -> usize {
        self.start_subnet
    }

    /// Configured live tick.
    pub fn get_tick(&self) -> Duration {
        Duration::from_micros(self.tick_us)
    }
}

/// An anytime-inference session over one network: every run mode of this
/// crate as a method, configured once via [`SessionConfig`].
///
/// The session does not borrow the net: it holds a [`BatchExecutor`]
/// created from it — the `Arc` of the net's
/// [`CompiledModel`](stepping_core::CompiledModel) at the configured prune
/// threshold plus scratch buffers of its own — and the one request's
/// [`ActivationCache`], so every run serves the net as it was when the
/// session was created.
///
/// Every mode is one loop: bank each slice's budget and step while the
/// [`Policy`] says so.
#[derive(Debug)]
pub struct Session {
    exec: BatchExecutor,
    cache: ActivationCache,
    config: SessionConfig,
}

/// The single request of a batch of one.
fn only<T>(mut batch: Vec<T>) -> Result<T> {
    batch
        .pop()
        .ok_or_else(|| SteppingError::ExecutorState("a batch of one produced no step".into()))
}

/// The top-1 class of one sample's logits and its softmax probability.
fn top1(logits: &Tensor) -> Result<(usize, f32)> {
    let probs = reduce::softmax_rows(logits)?;
    let class = probs.argmax();
    Ok((class, probs.data()[class]))
}

impl Session {
    /// Binds `config` to `net` as it is now
    /// ([`SteppingNet::compile`]: a slot read when the net was already
    /// compiled at the configured threshold).
    pub fn new(net: &SteppingNet, config: SessionConfig) -> Self {
        Session {
            exec: BatchExecutor::new(net, config.prune_threshold),
            cache: ActivationCache::new(),
            config,
        }
    }

    /// The session's configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// The step rule of this session's model and configuration, gated on
    /// `confidence` when given.
    fn policy(&self, confidence: Option<f32>) -> Result<Policy> {
        Policy::new(
            self.exec.model().mac_table(),
            self.config.policy,
            self.config.start_subnet,
            confidence,
        )
    }

    fn require_trace(&self) -> Result<ResourceTrace> {
        let trace = self.config.trace.clone().ok_or_else(|| {
            SteppingError::BadConfig(
                "no resource trace configured; use SessionConfig::trace".into(),
            )
        })?;
        if trace.is_empty() {
            return Err(SteppingError::BadConfig(
                "resource trace must be non-empty".into(),
            ));
        }
        Ok(trace)
    }

    /// Drives anytime inference of `input` over the configured trace.
    ///
    /// Budget accumulates across slices; work is performed greedily: first
    /// the start subnet, then an upgrade whenever the accumulated budget
    /// covers the next step's cost under the configured policy. This is the
    /// paper's deployment story: "decide on-the-fly whether to enhance the
    /// inference accuracy by executing further MAC operations". A configured
    /// confidence threshold plays no part here; it gates
    /// [`Session::run_until_confident`] only.
    ///
    /// # Errors
    ///
    /// Propagates executor errors; rejects a missing or empty trace and an
    /// out-of-range start subnet.
    pub fn run(&mut self, input: &Tensor) -> Result<DriveOutcome> {
        let trace = self.require_trace()?;
        let policy = self.policy(None)?;
        let budgets = trace.budgets().iter().copied();
        Ok(self.drive(input, &policy, budgets, |_, _| {})?.0)
    }

    /// Runs [`Session::run`] but stops consuming the trace at
    /// `deadline_slice` (exclusive), returning whatever prediction is ready
    /// — the paper's "preliminary decision made early, refined with more
    /// resources" scenario.
    ///
    /// # Errors
    ///
    /// As [`Session::run`]; additionally rejects a deadline of zero or
    /// beyond the trace.
    pub fn run_until_deadline(
        &mut self,
        input: &Tensor,
        deadline_slice: usize,
    ) -> Result<DriveOutcome> {
        let trace = self.require_trace()?;
        if deadline_slice == 0 || deadline_slice > trace.len() {
            return Err(SteppingError::BadConfig(format!(
                "deadline {deadline_slice} must be within 1..={}",
                trace.len()
            )));
        }
        telemetry::point(
            phase::INFERENCE,
            event::DRIVE_DEADLINE,
            &[
                ("deadline_slice", Value::U64(deadline_slice as u64)),
                ("trace_len", Value::U64(trace.len() as u64)),
            ],
        );
        let policy = self.policy(None)?;
        let budgets = trace.budgets()[..deadline_slice].iter().copied();
        Ok(self.drive(input, &policy, budgets, |_, _| {})?.0)
    }

    /// Runs anytime inference live: a producer thread emits one budget tick
    /// per configured [`tick`](SessionConfig::tick) interval; the calling
    /// thread banks budget and performs begin/expand steps as they become
    /// affordable, publishing each new prediction into `latest` for
    /// concurrent observers. The producer is scoped to the call: no thread
    /// outlives it.
    ///
    /// Semantics match [`Session::run`] over the same trace.
    ///
    /// # Errors
    ///
    /// As [`Session::run`].
    pub fn run_live(&mut self, input: &Tensor, latest: &LatestPrediction) -> Result<DriveOutcome> {
        let trace = self.require_trace()?;
        let policy = self.policy(None)?;
        let tick = self.config.get_tick();
        let label = self.config.policy.label();
        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::sync_channel::<u64>(4);
            let producer = scope.spawn(move || {
                for &b in trace.budgets() {
                    if tx.send(b).is_err() {
                        break;
                    }
                    if !tick.is_zero() {
                        std::thread::sleep(tick);
                    }
                }
            });
            // the receiver goes with the drive, so a failed drive ends the
            // producer's next send
            let drive = self.drive(input, &policy, rx, |slice, step| {
                latest.publish(step.subnet, &step.logits);
                telemetry::point(
                    phase::INFERENCE,
                    event::LIVE_PREDICTION,
                    &[
                        ("slice", Value::U64(slice as u64)),
                        ("subnet", Value::U64(step.subnet as u64)),
                        ("step_macs", Value::U64(step.step_macs)),
                        ("cumulative_macs", Value::U64(step.cumulative_macs)),
                        ("policy", Value::Str(label)),
                    ],
                );
            });
            producer.join().map_err(|_| {
                SteppingError::ExecutorState("resource producer thread panicked".into())
            })?;
            Ok(drive?.0)
        })
    }

    /// Runs anytime inference on a single sample (`[1, …]` input), expanding
    /// until the top-class softmax probability reaches the configured
    /// [`confidence`](SessionConfig::confidence) threshold or the largest
    /// subnet is exhausted — the BranchyNet-style early-exit policy, which
    /// composes naturally with the stepping structure because each
    /// additional opinion costs only the new neurons. Steps are charged as
    /// [`Session::run`] charges them under the configured policy.
    ///
    /// # Errors
    ///
    /// Returns [`SteppingError::BadConfig`] unless a threshold in `(0, 1]`
    /// is configured and the input has batch size 1; propagates executor
    /// errors.
    pub fn run_until_confident(&mut self, input: &Tensor) -> Result<ConfidentOutcome> {
        let threshold = self.config.confidence.ok_or_else(|| {
            SteppingError::BadConfig(
                "no confidence threshold configured; use SessionConfig::confidence".into(),
            )
        })?;
        if !(threshold > 0.0 && threshold <= 1.0) {
            return Err(SteppingError::BadConfig(format!(
                "confidence threshold {threshold} must be in (0, 1]"
            )));
        }
        if input.shape().dims().first() != Some(&1) {
            return Err(SteppingError::BadConfig(
                "confidence-gated inference expects a single sample (batch 1)".into(),
            ));
        }
        let policy = self.policy(Some(threshold))?;
        // one unbounded slice: only the top subnet or the gate stops it
        let (out, stop) = self.drive(input, &policy, std::iter::once(u64::MAX), |_, _| {})?;
        let (Some(subnet), Some(logits)) = (out.final_subnet, &out.final_logits) else {
            return Err(SteppingError::ExecutorState(
                "an unbounded slice produced no answer".into(),
            ));
        };
        let (prediction, confidence) = top1(logits)?;
        Ok(ConfidentOutcome {
            subnet,
            prediction,
            confidence,
            total_macs: out.total_macs,
            early_exit: stop == Stop::Confident,
        })
    }

    /// The one anytime loop: banks each slice's budget from `budgets`
    /// (saturating) and, while `policy` says step, begins at the start
    /// subnet or expands to the next one, handing every step to `observe`
    /// with its slice index. Returns the outcome and why the last slice
    /// stopped stepping.
    fn drive(
        &mut self,
        input: &Tensor,
        policy: &Policy,
        budgets: impl IntoIterator<Item = u64>,
        mut observe: impl FnMut(usize, &ExpandStep),
    ) -> Result<(DriveOutcome, Stop)> {
        let label = self.config.policy.label();
        let run_span = telemetry::span(phase::INFERENCE, event::DRIVE_RUN);
        let mut timeline = Vec::new();
        let mut bank = 0u64;
        let mut at = None;
        let mut final_logits = None;
        // the last answer's top-1 probability, when the policy gates on it
        let mut p = None;
        let mut total_macs = 0u64;
        let mut first_prediction_slice = None;
        let mut stop = Stop::Budget;
        for (i, budget) in budgets.into_iter().enumerate() {
            let slice_span = telemetry::span(phase::INFERENCE, event::DRIVE_SLICE);
            bank = bank.saturating_add(budget);
            let mut spent = 0u64;
            let mut upgrades = 0u64;
            stop = loop {
                let (to, cost) = match policy.decide(at, bank, p) {
                    Decision::Step { to, cost } => (to, cost),
                    Decision::Stop(why) => break why,
                };
                telemetry::point(
                    phase::INFERENCE,
                    event::DRIVE_UPGRADE,
                    &[
                        ("slice", Value::U64(i as u64)),
                        ("to_subnet", Value::U64(to as u64)),
                        ("cost", Value::U64(cost)),
                        ("bank_before", Value::U64(bank)),
                        ("policy", Value::Str(label)),
                    ],
                );
                bank -= cost;
                spent += cost;
                let step = if at.is_none() {
                    let (cache, step) = only(self.exec.begin(std::slice::from_ref(input), to)?)?;
                    self.cache = cache;
                    first_prediction_slice = Some(i);
                    step
                } else {
                    only(self.exec.expand(std::slice::from_mut(&mut self.cache))?)?
                };
                observe(i, &step);
                if policy.gates_confidence() {
                    p = Some(top1(&step.logits)?.1);
                }
                at = Some(step.subnet);
                final_logits = Some(step.logits);
                upgrades += 1;
            };
            total_macs += spent;
            slice_span.end(&[
                ("slice", Value::U64(i as u64)),
                ("budget", Value::U64(budget)),
                ("spent", Value::U64(spent)),
                ("bank", Value::U64(bank)),
                ("upgrades", Value::U64(upgrades)),
                ("subnet_ready", Value::I64(at.map_or(-1, |s| s as i64))),
            ]);
            timeline.push(SliceLog {
                slice: i,
                budget,
                spent,
                subnet_ready: at,
            });
        }
        run_span.end(&[
            ("slices", Value::U64(timeline.len() as u64)),
            ("total_macs", Value::U64(total_macs)),
            ("policy", Value::Str(label)),
            ("final_subnet", Value::I64(at.map_or(-1, |s| s as i64))),
            (
                "first_prediction_slice",
                Value::I64(first_prediction_slice.map_or(-1, |s| s as i64)),
            ),
        ]);
        let outcome = DriveOutcome {
            timeline,
            final_subnet: at,
            final_logits,
            total_macs,
            first_prediction_slice,
        };
        Ok((outcome, stop))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stepping_core::SteppingNetBuilder;
    use stepping_tensor::{init, Shape};

    fn net() -> SteppingNet {
        let mut n = SteppingNetBuilder::new(Shape::of(&[6]), 3, 0)
            .linear(12)
            .relu()
            .linear(9)
            .relu()
            .build(3)
            .unwrap();
        n.move_neurons(&[(0, 0, 1), (0, 1, 1), (0, 2, 2), (2, 0, 1), (2, 1, 2)])
            .unwrap();
        n
    }

    fn x() -> Tensor {
        init::uniform(Shape::of(&[1, 6]), -1.0, 1.0, &mut init::rng(0))
    }

    #[test]
    fn missing_trace_and_confidence_rejected() {
        let n = net();
        let mut s = Session::new(&n, SessionConfig::new());
        assert!(s.run(&x()).is_err());
        assert!(s.run_until_deadline(&x(), 1).is_err());
        assert!(s.run_until_confident(&x()).is_err());
        let latest = LatestPrediction::new();
        assert!(s.run_live(&x(), &latest).is_err());
    }

    #[test]
    fn start_subnet_skips_smaller_predictions() {
        let n = net();
        let full = n.macs(2, 0.0);
        let trace = ResourceTrace::constant(full, 4);
        let cfg = SessionConfig::new().trace(trace).start_subnet(1);
        let out = Session::new(&n, cfg).run(&x()).unwrap();
        assert_eq!(out.final_subnet, Some(2));
        // subnet 0 never appears in the timeline
        assert!(out
            .timeline
            .iter()
            .all(|l| l.subnet_ready.is_none() || l.subnet_ready >= Some(1)));
    }

    #[test]
    fn start_subnet_out_of_range_rejected() {
        let n = net();
        let cfg = SessionConfig::new()
            .trace(ResourceTrace::constant(10, 2))
            .start_subnet(7);
        assert!(Session::new(&n, cfg).run(&x()).is_err());
    }

    #[test]
    fn start_subnet_confident_run_charges_direct_cost() {
        let n = net();
        let direct = n.macs(1, 0.0);
        let cfg = SessionConfig::new().confidence(1e-6).start_subnet(1);
        let out = Session::new(&n, cfg).run_until_confident(&x()).unwrap();
        assert_eq!(out.subnet, 1);
        assert!(out.early_exit);
        assert_eq!(out.total_macs, direct);
    }

    #[test]
    fn unbounded_budgets_reach_the_top_without_overflow() {
        let n = net();
        for policy in [UpgradePolicy::Incremental, UpgradePolicy::Recompute] {
            let cfg = SessionConfig::new()
                .trace(ResourceTrace::from_budgets(vec![u64::MAX; 3]))
                .policy(policy);
            let mut session = Session::new(&n, cfg);
            let out = session.run(&x()).unwrap();
            assert_eq!(out.final_subnet, Some(2));
            assert_eq!(out.first_prediction_slice, Some(0));
            let live = session.run_live(&x(), &LatestPrediction::new()).unwrap();
            assert_eq!(live, out);
        }
    }

    #[test]
    fn recompute_confident_run_charges_direct_costs() {
        let n = net();
        let cfg = SessionConfig::new()
            .confidence(1.0)
            .policy(UpgradePolicy::Recompute);
        let out = Session::new(&n, cfg).run_until_confident(&x()).unwrap();
        assert_eq!(out.subnet, 2);
        assert!(!out.early_exit);
        let direct: u64 = (0..=2).map(|k| n.macs(k, 0.0)).sum();
        assert_eq!(out.total_macs, direct);
    }

    #[test]
    fn config_round_trips_through_accessors() {
        let cfg = SessionConfig::new()
            .prune_threshold(0.25)
            .policy(UpgradePolicy::Recompute)
            .device(DeviceModel::embedded())
            .trace(ResourceTrace::constant(5, 2))
            .confidence(0.9)
            .start_subnet(1)
            .tick(Duration::from_micros(70));
        assert_eq!(cfg.get_prune_threshold(), 0.25);
        assert_eq!(cfg.get_policy(), UpgradePolicy::Recompute);
        assert_eq!(cfg.get_device(), Some(DeviceModel::embedded()));
        assert_eq!(cfg.get_trace().unwrap().len(), 2);
        assert_eq!(cfg.get_confidence(), Some(0.9));
        assert_eq!(cfg.get_start_subnet(), 1);
        assert_eq!(cfg.get_tick(), Duration::from_micros(70));
    }
}

//! Compiled subnet execution plans: packed active-neuron panels.
//!
//! The masked reference path (`MaskedLinear::forward`,
//! `MaskedConv2d::forward`) multiplies full-width matrices in which every
//! inactive or illegal entry is zero, so a subnet at a 25% MAC budget still
//! pays >100% of the dense FLOPs plus an `O(out × in)` re-masking
//! allocation per call. A *plan* compiles the surviving structure of one
//! `(layer, subnet)` pair once — the active output neurons, the active
//! input neurons, and a contiguous weight panel over exactly those — so
//! inference runs a small dense GEMM and scatters the result back to the
//! full-width activation (inactive outputs stay exactly zero).
//!
//! ## Bit-identity
//!
//! Panels keep surviving terms in ascending index order and run the blocked
//! NT microkernel (`stepping_tensor::microkernel`), whose per-element
//! accumulation order is identical to the reference `nt_kernel`, and
//! per-row entries that are *legal at the subnet but illegal for that
//! particular row* (`assign(in) > assign(out)`) are stored as `0.0`,
//! mirroring `effective_weight`. The only dropped terms are products with
//! an exact-zero activation and an exact-zero masked weight, which can
//! never change a nonzero accumulator. Packed results therefore compare
//! equal (`f32 ==`) to masked results; the property suites assert this.
//!
//! ## Invalidation
//!
//! Plans are keyed by a per-layer *epoch* counter. Every mutation that can
//! change weights or assignments bumps the epoch and drops compiled plans:
//! handing out `&mut Param` (optimizer steps, checkpoint restore), pruning,
//! neuron moves, and in-assignment replacement. Handing out a mutable
//! borrow invalidates conservatively — a caller that only reads pays one
//! recompile, while a missed invalidation would silently serve stale
//! weights, which the tests in `crates/core/tests/packed_plans.rs` guard
//! against.
//!
//! ## MAC accounting
//!
//! What a subnet or a step costs in MACs is a property of the same weights
//! and assignments the panels are compiled from, so it is memoised here
//! too: each [`PlanSet`] holds its layer's per-step MAC counts for one
//! prune threshold, stamped with the epoch and dropped by
//! [`PlanSet::invalidate`] together with the panels.
//! [`SteppingNet::mac_table`](crate::SteppingNet::mac_table) sums the layers
//! into one [`MacTable`] — the single source of every MAC figure the
//! executors, the runtime and the server charge, equal by construction to
//! the brute-force [`SteppingNet::macs`](crate::SteppingNet::macs) /
//! `neuron_macs` scans it replaces on the serving path.

use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use stepping_metrics::{start_timer, LogHistogram, MetricsRegistry, PhaseTimer, ShardedCounter};
use stepping_tensor::microkernel::PackedB;
use stepping_tensor::Tensor;

use crate::telemetry::{self, Value};
use crate::Assignment;

/// Always-on plan-cache metrics in the process-wide registry, distinct from
/// the offline `obs` telemetry below: these are live production counters
/// (`plan.compile`, `plan.cache_hit`, `plan.invalidate`) plus the compile
/// phase histogram (`plan.compile_ns`) and the packed execution phase
/// histograms (`plan.gemm_ns`, `plan.pack_ns`), named by the
/// [`crate::events::metric`] table.
struct PlanMetrics {
    compile: Arc<ShardedCounter>,
    compile_ns: Arc<LogHistogram>,
    cache_hit: Arc<ShardedCounter>,
    invalidate: Arc<ShardedCounter>,
    gemm_ns: Arc<LogHistogram>,
    pack_ns: Arc<LogHistogram>,
}

fn plan_metrics() -> &'static PlanMetrics {
    static METRICS: OnceLock<PlanMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = MetricsRegistry::global();
        registry.set_validator(crate::events::is_metric);
        PlanMetrics {
            compile: registry.register_counter(crate::events::metric::PLAN_COMPILE),
            compile_ns: registry.register_histogram(crate::events::metric::PLAN_COMPILE_NS),
            cache_hit: registry.register_counter(crate::events::metric::PLAN_CACHE_HIT),
            invalidate: registry.register_counter(crate::events::metric::PLAN_INVALIDATE),
            gemm_ns: registry.register_histogram(crate::events::metric::PLAN_GEMM_NS),
            pack_ns: registry.register_histogram(crate::events::metric::PLAN_PACK_NS),
        }
    })
}

/// Starts the `plan.compile_ns` phase timer; bind it across an `ensure_*`
/// compile so the drop (or an explicit `stop`) records the compile latency.
pub(crate) fn compile_timer() -> PhaseTimer {
    start_timer(&plan_metrics().compile_ns)
}

/// Starts the `plan.gemm_ns` phase timer; bind it across the blocked GEMM
/// of one packed pass.
pub(crate) fn gemm_timer() -> PhaseTimer {
    start_timer(&plan_metrics().gemm_ns)
}

/// Starts the `plan.pack_ns` phase timer; bind it across the gather/im2col
/// packing of one packed pass.
pub(crate) fn pack_timer() -> PhaseTimer {
    start_timer(&plan_metrics().pack_ns)
}

/// Packed panel for one `(masked-linear layer, subnet)` pair.
#[derive(Debug, Clone)]
pub(crate) struct LinearPlan {
    /// Output neuron indices covered by this plan, ascending. For a *full*
    /// plan these are the neurons active at the subnet; for a *step* plan
    /// they are the neurons assigned exactly to the subnet.
    pub out_idx: Vec<usize>,
    /// Input indices active at the subnet, ascending.
    pub in_idx: Vec<usize>,
    /// Weight panel `[out_idx.len(), in_idx.len()]` pre-packed into the
    /// blocked microkernel's tile-major layout (NT orientation: packed from
    /// row-major `[rows, depth]`); entries illegal for their row
    /// (`assign(in) > assign(out)`) are `0.0`.
    pub weight: PackedB,
    /// Bias gathered over `out_idx`.
    pub bias: Vec<f32>,
}

/// Packed panel for one `(masked-conv layer, subnet)` pair.
#[derive(Debug, Clone)]
pub(crate) struct ConvPlan {
    /// Output channel indices covered by this plan, ascending (see
    /// [`LinearPlan::out_idx`] for full vs. step semantics).
    pub oc_idx: Vec<usize>,
    /// Input channel indices active at the subnet, ascending.
    pub ic_idx: Vec<usize>,
    /// Weight panel `[oc_idx.len(), ic_idx.len() * kh * kw]` pre-packed
    /// into the microkernel's tile-major layout (NT orientation); channel
    /// blocks illegal for their row are `0.0`.
    pub weight: PackedB,
    /// Bias gathered over `oc_idx`.
    pub bias: Vec<f32>,
}

/// Packed head panel: the classifier head of one subnet restricted to the
/// features active at that subnet.
#[derive(Debug, Clone)]
pub(crate) struct HeadPlan {
    /// Feature indices active at the subnet, ascending.
    pub feat_idx: Vec<usize>,
    /// Weight panel `[classes, feat_idx.len()]` pre-packed into the
    /// microkernel's tile-major layout (NT orientation).
    pub weight: PackedB,
}

/// Per-subnet MAC accounting of one network at one prune threshold: what a
/// direct run of each subnet costs, what each incremental step costs, and
/// the head share of both — the one source of every MAC figure the
/// executors, the runtime and the server charge.
///
/// Built by [`SteppingNet::mac_table`](crate::SteppingNet::mac_table); every
/// slice is indexed by subnet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MacTable {
    direct: Vec<u64>,
    step: Vec<u64>,
    head: Vec<u64>,
}

impl MacTable {
    /// Assembles the table from the stages' per-step MACs (`stage_step[k]`:
    /// incoming MACs of the neurons assigned exactly to `k`, summed over
    /// the masked stages) and the per-subnet head MACs.
    pub(crate) fn new(stage_step: &[u64], head: Vec<u64>) -> Self {
        let mut active = 0u64;
        let mut direct = Vec::with_capacity(head.len());
        let mut step = Vec::with_capacity(head.len());
        for (&s, &h) in stage_step.iter().zip(&head) {
            // a subnet runs every neuron assigned to it or below
            active += s;
            direct.push(active + h);
            step.push(s + h);
        }
        MacTable { direct, step, head }
    }

    /// `direct()[k]`: MACs of running subnet `k` from the input — exactly
    /// [`SteppingNet::macs`](crate::SteppingNet::macs)`(k, threshold)`.
    pub fn direct(&self) -> &[u64] {
        &self.direct
    }

    /// `step()[k]`: MACs of stepping from subnet `k - 1` to `k` over cached
    /// activations — the `neuron_macs` of the neurons assigned exactly to
    /// `k` plus subnet `k`'s head (`step()[0] == direct()[0]`).
    pub fn step(&self) -> &[u64] {
        &self.step
    }

    /// `head()[k]`: MACs of subnet `k`'s head alone — what a contraction or
    /// a re-expansion over already-computed neurons costs.
    pub fn head(&self) -> &[u64] {
        &self.head
    }
}

/// One memoised per-step MAC vector: the epoch and prune-threshold bits it
/// was counted at, and the counts.
type StepMacs = (u64, u32, Arc<[u64]>);

/// Per-layer cache of compiled plans, keyed by a weight/assignment epoch.
///
/// `full` plans cover every neuron active at a subnet (direct execution);
/// `step` plans cover only the neurons assigned exactly to a subnet (the
/// incremental expand path). Both are dropped — and the epoch advances —
/// on [`PlanSet::invalidate`]; a surviving entry is additionally epoch-
/// checked on read so a stale plan can never be served. The layer's
/// per-step MAC counts ride along under the same rules
/// ([`PlanSet::step_macs`]).
#[derive(Debug)]
pub(crate) struct PlanSet<P> {
    epoch: u64,
    full: Vec<Option<(u64, P)>>,
    step: Vec<Option<(u64, P)>>,
    /// Filled through `&self` (MAC queries take the net by shared
    /// reference), hence the lock; never contended on the serving path,
    /// where each worker owns its replica.
    step_macs: Mutex<Option<StepMacs>>,
}

impl<P> Default for PlanSet<P> {
    fn default() -> Self {
        PlanSet {
            epoch: 0,
            full: Vec::new(),
            step: Vec::new(),
            step_macs: Mutex::new(None),
        }
    }
}

impl<P: Clone> Clone for PlanSet<P> {
    fn clone(&self) -> Self {
        PlanSet {
            epoch: self.epoch,
            full: self.full.clone(),
            step: self.step.clone(),
            step_macs: Mutex::new(self.lock_step_macs().clone()),
        }
    }
}

impl<P> PlanSet<P> {
    /// Current weight/assignment epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Advances the epoch and drops every compiled plan. `kind` labels the
    /// owning layer in the `plan.invalidate` telemetry event (emitted only
    /// when plans were actually dropped, so construction-time churn on
    /// never-executed layers stays silent).
    pub fn invalidate(&mut self, kind: &'static str) {
        self.epoch = self.epoch.wrapping_add(1);
        *self
            .step_macs
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner) = None;
        let had = self.full.iter().any(Option::is_some) || self.step.iter().any(Option::is_some);
        if had {
            self.full.clear();
            self.step.clear();
            plan_metrics().invalidate.inc();
            telemetry::counter("plan", "plan.invalidate", 1, &[("layer", Value::Str(kind))]);
        }
    }

    /// The compiled full plan for `subnet`, if current.
    pub fn full(&self, subnet: usize) -> Option<&P> {
        Self::get(&self.full, subnet, self.epoch)
    }

    /// The compiled step plan for `subnet`, if current.
    pub fn step(&self, subnet: usize) -> Option<&P> {
        Self::get(&self.step, subnet, self.epoch)
    }

    /// Stores the full plan for `subnet` at the current epoch.
    pub fn put_full(&mut self, subnet: usize, plan: P) {
        Self::put(&mut self.full, subnet, self.epoch, plan);
    }

    /// Stores the step plan for `subnet` at the current epoch.
    pub fn put_step(&mut self, subnet: usize, plan: P) {
        Self::put(&mut self.step, subnet, self.epoch, plan);
    }

    /// The owning layer's per-step MAC counts at `threshold`: entry `k` is
    /// the sum of `neuron_macs(o)` over the outputs `out_assign` puts
    /// exactly in subnet `k` (the unused pool counts nowhere). Counted once
    /// per (epoch, threshold) and served from the memo afterwards; a query
    /// at another threshold recounts and takes the slot over.
    pub fn step_macs(
        &self,
        threshold: f32,
        out_assign: &Assignment,
        neuron_macs: impl Fn(usize) -> u64,
    ) -> Arc<[u64]> {
        let key = threshold.to_bits();
        let mut slot = self.lock_step_macs();
        if let Some((epoch, bits, counts)) = slot.as_ref() {
            if *epoch == self.epoch && *bits == key {
                return Arc::clone(counts);
            }
        }
        let mut counts = vec![0u64; out_assign.subnet_count()];
        for o in 0..out_assign.len() {
            if let Some(c) = counts.get_mut(out_assign.subnet_of(o)) {
                *c += neuron_macs(o);
            }
        }
        let counts: Arc<[u64]> = counts.into();
        *slot = Some((self.epoch, key, Arc::clone(&counts)));
        counts
    }

    fn lock_step_macs(&self) -> std::sync::MutexGuard<'_, Option<StepMacs>> {
        // the slot is replaced whole, so a poisoned lock still guards a
        // valid value
        self.step_macs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn get(slots: &[Option<(u64, P)>], subnet: usize, epoch: u64) -> Option<&P> {
        match slots.get(subnet).and_then(Option::as_ref) {
            Some((e, p)) if *e == epoch => Some(p),
            _ => None,
        }
    }

    fn put(slots: &mut Vec<Option<(u64, P)>>, subnet: usize, epoch: u64, plan: P) {
        if slots.len() <= subnet {
            slots.resize_with(subnet + 1, || None);
        }
        slots[subnet] = Some((epoch, plan));
    }
}

/// Typed error for a plan slot that is empty right after an `ensure_*`
/// compile — impossible unless the cache was invalidated mid-call, but the
/// packed paths surface it as an error instead of panicking (L4 panic
/// discipline).
pub(crate) fn missing(kind: &'static str) -> crate::SteppingError {
    crate::SteppingError::ExecutorState(format!("{kind} plan missing immediately after compile"))
}

/// Typed error for an activation stack too short for a step of stage `si`,
/// which reads level `si` and writes level `si + 1`.
pub(crate) fn check_levels(stacks: &[&mut [Tensor]], si: usize) -> crate::Result<()> {
    if stacks.iter().any(|levels| levels.len() < si + 2) {
        return Err(crate::SteppingError::ExecutorState(format!(
            "activation stack does not hold levels {si} and {}",
            si + 1
        )));
    }
    Ok(())
}

/// Emits the `plan.compile` telemetry point for a freshly compiled plan.
pub(crate) fn note_compile(kind: &'static str, subnet: usize, rows: usize, cols: usize) {
    plan_metrics().compile.inc();
    telemetry::point(
        "plan",
        "plan.compile",
        &[
            ("layer", Value::Str(kind)),
            ("subnet", Value::U64(subnet as u64)),
            ("rows", Value::U64(rows as u64)),
            ("cols", Value::U64(cols as u64)),
        ],
    );
}

/// Emits the `plan.cache_hit` telemetry counter.
pub(crate) fn note_hit(kind: &'static str, subnet: usize) {
    plan_metrics().cache_hit.inc();
    telemetry::counter(
        "plan",
        "plan.cache_hit",
        1,
        &[
            ("layer", Value::Str(kind)),
            ("subnet", Value::U64(subnet as u64)),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_survive_until_invalidated() {
        let mut set: PlanSet<u32> = PlanSet::default();
        assert_eq!(set.epoch(), 0);
        assert!(set.full(1).is_none());
        set.put_full(1, 42);
        set.put_step(0, 7);
        assert_eq!(set.full(1), Some(&42));
        assert_eq!(set.step(0), Some(&7));
        set.invalidate("test");
        assert_eq!(set.epoch(), 1);
        assert!(set.full(1).is_none());
        assert!(set.step(0).is_none());
    }

    #[test]
    fn step_macs_are_memoised_per_epoch_and_threshold() {
        use std::cell::Cell;
        let mut assign = Assignment::new(4, 2);
        assign.move_neuron(1, 1).unwrap();
        assign.move_neuron(3, 2).unwrap(); // unused pool: counted nowhere
        let mut set: PlanSet<u32> = PlanSet::default();
        let scans = Cell::new(0u32);
        let count = |set: &PlanSet<u32>, thr: f32| {
            set.step_macs(thr, &assign, |o| {
                scans.set(scans.get() + 1);
                10 + o as u64
            })
        };
        assert_eq!(&*count(&set, 0.5), &[10 + 12, 11]);
        assert_eq!(scans.get(), 3);
        count(&set, 0.5);
        assert_eq!(
            scans.get(),
            3,
            "same epoch and threshold: served from the memo"
        );
        assert_eq!(&*count(&set.clone(), 0.5), &[22, 11]);
        assert_eq!(scans.get(), 3, "a clone carries the memo");
        count(&set, 0.25);
        assert_eq!(scans.get(), 6, "another threshold recounts");
        set.invalidate("test");
        count(&set, 0.25);
        assert_eq!(scans.get(), 9, "invalidate drops the memo");
    }

    #[test]
    fn mac_table_sums_steps_into_direct_costs() {
        let table = MacTable::new(&[5, 3, 2], vec![4, 6, 8]);
        assert_eq!(table.direct(), &[5 + 4, 8 + 6, 10 + 8]);
        assert_eq!(table.step(), &[5 + 4, 3 + 6, 2 + 8]);
        assert_eq!(table.head(), &[4, 6, 8]);
    }

    #[test]
    fn stale_epoch_entries_are_never_served() {
        // Even if a slot survived a clear (belt and braces), the stored
        // epoch must match the current one.
        let mut set: PlanSet<u32> = PlanSet::default();
        set.put_full(0, 1);
        set.epoch = set.epoch.wrapping_add(1); // bump without clearing
        assert!(set.full(0).is_none());
    }
}

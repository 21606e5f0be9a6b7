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
//! Panels keep surviving terms in ascending input index order and run the
//! blocked NT microkernel (`stepping_tensor::microkernel`), whose
//! per-element accumulation order is identical to the reference
//! `nt_kernel`, and per-row entries that are *legal at the subnet but
//! illegal for that particular row* (`assign(in) > assign(out)`) are stored
//! as `0.0`, mirroring `effective_weight`. The only dropped terms are
//! products with an exact-zero activation and an exact-zero masked weight,
//! which can never change a nonzero accumulator. Packed results therefore
//! compare equal (`f32 ==`) to masked results; the property suites assert
//! this.
//!
//! A *full* panel orders its rows level-major — by `(assign, index)` — and
//! cuts each row's chain after its last legal input: the panel's depth
//! extent per `NR`-wide tile is the largest of its rows'
//! ([`PackedB::pack_nt_extents`]). The terms cut are the trailing `0.0 ·
//! x` terms of a chain that started at `+0.0`, the same kind as above, and
//! no chain is reordered. On an index-monotone assignment a row's legal
//! inputs are a prefix of the panel's depth, so a tile that holds one
//! level multiplies exactly its rows' legal weights and a direct pass pays
//! its budget; a tile that straddles levels pays its deepest row's extent.
//! A *step* panel's rows all own the subnet and may read every input, so
//! every extent is the panel's depth.
//!
//! ## Compiled model
//!
//! Plans are not cached per layer. [`SteppingNet::compile`] builds every
//! panel of every masked stage and head once, together with the fixed
//! stages and the [`MacTable`], into one immutable
//! [`CompiledModel`](crate::CompiledModel) that executors share through an
//! `Arc` and read through `&self`. A model is a snapshot: it serves the
//! weights and assignments it was compiled from for as long as anyone
//! holds it. The net remembers the last model it compiled in a single
//! slot, and that slot sits behind the only `&mut` route to stages, heads
//! and assignments (see `crate::parts`), so a mutation cannot leave a
//! compiled model behind — the next `compile` rebuilds.
//!
//! ## MAC accounting
//!
//! What a subnet or a step costs in MACs is a property of the same weights
//! and assignments the panels are compiled from, so it is counted in the
//! same pass and stored beside them: one [`MacTable`] per compiled model —
//! the single source of every MAC figure the executors, the runtime and
//! the server charge, equal by construction to the brute-force
//! [`SteppingNet::macs`](crate::SteppingNet::macs) / `neuron_macs` scans it
//! replaces on the serving path.
//!
//! [`SteppingNet::compile`]: crate::SteppingNet::compile

use std::sync::{Arc, OnceLock};

use stepping_metrics::{start_timer, LogHistogram, MetricsRegistry, PhaseTimer, ShardedCounter};
use stepping_tensor::microkernel::{ConvFilters, PackedB};

use crate::events::{event, phase};
use crate::telemetry::{self, Value};

/// Always-on plan metrics in the process-wide registry, distinct from the
/// offline `obs` telemetry below: these are live production counters
/// (`plan.compile`, one per panel; `plan.invalidate`, one per dropped
/// model) plus the compile phase histogram (`plan.compile_ns`, one sample
/// per compiled model) and the packed execution phase histograms
/// (`plan.gemm_ns`, `plan.pack_ns`), named by the
/// [`crate::events::metric`] table.
struct PlanMetrics {
    compile: Arc<ShardedCounter>,
    compile_ns: Arc<LogHistogram>,
    invalidate: Arc<ShardedCounter>,
    gemm_ns: Arc<LogHistogram>,
    pack_ns: Arc<LogHistogram>,
}

fn plan_metrics() -> &'static PlanMetrics {
    static METRICS: OnceLock<PlanMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = MetricsRegistry::global();
        PlanMetrics {
            compile: registry.register_counter(crate::events::metric::PLAN_COMPILE),
            compile_ns: registry.register_histogram(crate::events::metric::PLAN_COMPILE_NS),
            invalidate: registry.register_counter(crate::events::metric::PLAN_INVALIDATE),
            gemm_ns: registry.register_histogram(crate::events::metric::PLAN_GEMM_NS),
            pack_ns: registry.register_histogram(crate::events::metric::PLAN_PACK_NS),
        }
    })
}

/// Starts the `plan.compile_ns` phase timer; bind it across a model
/// compile so the drop records the compile latency.
pub(crate) fn compile_timer() -> PhaseTimer {
    start_timer(&plan_metrics().compile_ns)
}

/// Starts the `plan.gemm_ns` phase timer; bind it across the blocked GEMM
/// of one packed pass (for a convolution, its whole kernel, which packs as
/// it multiplies).
pub(crate) fn gemm_timer() -> PhaseTimer {
    start_timer(&plan_metrics().gemm_ns)
}

/// Starts the `plan.pack_ns` phase timer; bind it across the gather
/// packing of one packed linear or head pass.
pub(crate) fn pack_timer() -> PhaseTimer {
    start_timer(&plan_metrics().pack_ns)
}

/// Packed panel for one `(masked-linear layer, subnet)` pair.
#[derive(Debug, Clone)]
pub(crate) struct LinearPlan {
    /// Output neuron indices covered by this plan. For a *full* plan these
    /// are the neurons active at the subnet, level-major (by `(assign,
    /// index)`, so not ascending once a lower index sits at a higher
    /// level); for a *step* plan they are the neurons assigned exactly to
    /// the subnet, ascending.
    pub out_idx: Vec<usize>,
    /// Input indices active at the subnet, ascending.
    pub in_idx: Vec<usize>,
    /// Weight panel `[out_idx.len(), in_idx.len()]` pre-packed into the
    /// blocked microkernel's tile-major layout (NT orientation: packed from
    /// row-major `[rows, depth]`); entries illegal for their row
    /// (`assign(in) > assign(out)`) are `0.0`, and each row's extent ends
    /// one past its last legal input in `in_idx`.
    pub weight: PackedB,
    /// Bias gathered over `out_idx`.
    pub bias: Vec<f32>,
}

/// Packed panel for one `(masked-conv layer, subnet)` pair.
#[derive(Debug, Clone)]
pub(crate) struct ConvPlan {
    /// Output channel indices covered by this plan: level-major in a full
    /// plan, ascending in a step plan (see [`LinearPlan::out_idx`]).
    pub oc_idx: Vec<usize>,
    /// Input channel indices active at the subnet, ascending.
    pub ic_idx: Vec<usize>,
    /// Weight panel `[oc_idx.len(), ic_idx.len() * kh * kw]` pre-packed
    /// into the microkernel's tile-major layout (NT orientation); channel
    /// blocks illegal for their row are `0.0`, and each row's extent ends
    /// after its last legal channel's `kh · kw` taps.
    pub weight: PackedB,
    /// Bias gathered over `oc_idx`.
    pub bias: Vec<f32>,
}

impl ConvPlan {
    /// The panel as [`conv_packed`](stepping_tensor::microkernel::conv_packed)
    /// reads it: filter `r` over the channels `ic_idx`, stored into plane
    /// `oc_idx[r]`.
    pub fn filters(&self) -> ConvFilters<'_> {
        ConvFilters {
            weight: &self.weight,
            bias: &self.bias,
            in_channels: &self.ic_idx,
            out_planes: &self.oc_idx,
        }
    }
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
    /// The head's bias, one entry per class.
    pub bias: Vec<f32>,
}

/// Per-subnet MAC accounting of one network at one prune threshold: what a
/// direct run of each subnet costs, what each incremental step costs, and
/// the head share of both — the one source of every MAC figure the
/// executors, the runtime and the server charge.
///
/// Built by [`SteppingNet::compile`](crate::SteppingNet::compile) and read
/// off the [`CompiledModel`](crate::CompiledModel); every slice is indexed
/// by subnet.
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

/// Emits the `plan.compile` telemetry point for a freshly compiled plan.
pub(crate) fn note_compile(kind: &'static str, subnet: usize, rows: usize, cols: usize) {
    plan_metrics().compile.inc();
    telemetry::point(
        phase::PLAN,
        event::PLAN_COMPILE,
        &[
            ("layer", Value::Str(kind)),
            ("subnet", Value::U64(subnet as u64)),
            ("rows", Value::U64(rows as u64)),
            ("cols", Value::U64(cols as u64)),
        ],
    );
}

/// Counts one `plan.invalidate`: a mutation emptied a slot that held a
/// compiled model.
pub(crate) fn note_invalidate() {
    plan_metrics().invalidate.inc();
    telemetry::counter(phase::PLAN, event::PLAN_INVALIDATE, 1, &[]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_table_sums_steps_into_direct_costs() {
        let table = MacTable::new(&[5, 3, 2], vec![4, 6, 8]);
        assert_eq!(table.direct(), &[5 + 4, 8 + 6, 10 + 8]);
        assert_eq!(table.step(), &[5 + 4, 3 + 6, 2 + 8]);
        assert_eq!(table.head(), &[4, 6, 8]);
    }
}

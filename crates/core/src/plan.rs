//! Compiled subnet execution plans: packed active-neuron panels.
//!
//! The masked reference path (`MaskedLinear::forward`,
//! `MaskedConv2d::forward`) multiplies full-width matrices in which every
//! inactive or illegal entry is zero, so a subnet at a 25% MAC budget still
//! pays >100% of the dense FLOPs plus an `O(out × in)` re-masking
//! allocation per call. A *plan* compiles the surviving structure of one
//! `(layer, subnet)` pair once into a contiguous weight panel, so inference
//! runs a small dense GEMM and writes the result into the full-width
//! activation (inactive outputs stay exactly zero).
//!
//! ## Level-major layout
//!
//! Every masked layer stores its neurons level-major: index order equals
//! `(assign, index)` order (verify rule R7), and
//! [`SteppingNet::sync_assignments`](crate::SteppingNet::sync_assignments)
//! restores that order after every move and every checkpoint load. So the
//! neurons of subnet `s` are the prefix `0..end(s)` of every layer, and
//! the neurons a step to `k` adds are the range `end(k − 1)..end(k)`. A
//! plan is therefore a rectangle: a *full* panel at subnet `s` covers rows
//! `0..end(s)` against inputs `0..in_end(s)`, a *step* panel at `k` covers
//! rows `end(k − 1)..end(k)` against inputs `0..in_end(k)`, and a head
//! panel reads features `0..f_end(s)`. Inference copies a row prefix of
//! its input and writes its output at a column (or plane) offset.
//!
//! ## Bit-identity
//!
//! Panels keep every term in stored input order and run the blocked NT
//! microkernel (`stepping_tensor::microkernel`), whose per-element
//! accumulation order is identical to the oracle
//! `stepping_tensor::matmul::reference_gemm`. Row `r`'s legal inputs
//! (`assign(in) ≤ assign(r)`) are the prefix `0..in_end(assign(r))`, and its
//! chain is cut after it: the panel's depth extent per `NR`-wide tile is
//! the largest of its rows' ([`PackedB::pack_nt_extents`]), and entries
//! past a row's own extent are stored as `0.0`, mirroring
//! `effective_weight`. The only dropped terms are products with an
//! exact-zero activation or an exact-zero masked weight at the end of a
//! chain that started at `+0.0`, which can never change a nonzero
//! accumulator. Packed results therefore compare equal (`f32 ==`) to masked
//! results; the property suites assert this. A tile that holds one level
//! multiplies exactly its rows' legal weights; a tile that straddles levels
//! pays its deepest row's extent. A step panel's rows all own the subnet
//! and may read every input, so every extent is the panel's depth.
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

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use stepping_metrics::{start_timer, LogHistogram, MetricsRegistry, PhaseTimer, ShardedCounter};
use stepping_tensor::microkernel::PackedB;

use crate::events::{event, phase};
use crate::telemetry::{self, Value};
use crate::Assignment;

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

/// Starts the `plan.pack_ns` phase timer; bind it across the input copy
/// of one packed linear or head pass.
pub(crate) fn pack_timer() -> PhaseTimer {
    start_timer(&plan_metrics().pack_ns)
}

/// Packed panel for one `(masked stage or head, subnet)` pair: a
/// contiguous range of a level-major layer's rows against a prefix of its
/// inputs.
#[derive(Debug, Clone)]
pub(crate) struct Plan {
    /// The output neurons covered: `0..end(s)` for a full plan,
    /// `end(k − 1)..end(k)` for a step plan, every class for a head.
    pub rows: Range<usize>,
    /// The plan reads inputs (features or channels) `0..inputs`.
    pub inputs: usize,
    /// Weight panel `[rows.len(), inputs · taps]` pre-packed into the
    /// blocked microkernel's tile-major layout (NT orientation: packed from
    /// row-major `[rows, depth]`); each row's extent ends after its last
    /// legal input's taps, and entries past it are `0.0`.
    pub weight: PackedB,
    /// Bias over `rows`.
    pub bias: Vec<f32>,
}

impl Plan {
    /// The panel of a level-major masked layer at `subnet`: the rows
    /// assigned exactly to it (a `step` panel) or every row active there (a
    /// full panel), against every input active at `subnet`, each row cut
    /// after its last legal input. `out` and `inp` are the layer's output
    /// and input assignments; see [`pack`](Self::pack) for the rest.
    pub fn layer(
        kind: &'static str,
        (out, inp): (&Assignment, &Assignment),
        params: (&[f32], &[f32]),
        shape: (usize, usize),
        subnet: usize,
        step: bool,
    ) -> Plan {
        let in_ends: Vec<usize> = (0..=subnet).map(|k| inp.active_count(k)).collect();
        let start = match subnet.checked_sub(1) {
            Some(below) if step => out.active_count(below),
            _ => 0,
        };
        let rows = start..out.active_count(subnet);
        note_compile(kind, subnet, rows.len(), in_ends[subnet]);
        Plan::pack(params, shape, rows, in_ends[subnet], |o| {
            in_ends[out.subnet_of(o)]
        })
    }

    /// Packs rows `rows` of a layer whose row `r` is `weight[r · width..]`
    /// (`taps` entries per input) against its first `inputs` inputs, row
    /// `r` cut after input `legal(r)` (capped at `inputs`); `bias` is the
    /// layer's whole bias.
    pub fn pack(
        (weight, bias): (&[f32], &[f32]),
        (width, taps): (usize, usize),
        rows: Range<usize>,
        inputs: usize,
        legal: impl Fn(usize) -> usize,
    ) -> Plan {
        let depth = inputs * taps;
        let extents: Vec<usize> = rows.clone().map(|r| legal(r).min(inputs) * taps).collect();
        let mut panel = vec![0.0f32; rows.len() * depth];
        for (i, (r, &extent)) in rows.clone().zip(&extents).enumerate() {
            panel[i * depth..][..extent].copy_from_slice(&weight[r * width..][..extent]);
        }
        Plan {
            weight: PackedB::pack_nt_extents(&panel, rows.len(), depth, &extents),
            bias: bias[rows.clone()].to_vec(),
            rows,
            inputs,
        }
    }
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

//! The static analysis pass over a [`SteppingNet`].
//!
//! [`analyze`] walks the stage list once, re-deriving the assignment chain
//! exactly like `SteppingNet::sync_assignments` does, and checks rules
//! R1–R5 and R7 against the stored state — without running any inference:
//!
//! * **R1** incremental property / assignment monotonicity,
//! * **R2** subnet nesting and unused-pool consistency,
//! * **R3** per-subnet MAC counts vs configured budgets,
//! * **R4** mask/weight shape agreement and sub-threshold active weights,
//! * **R5** dead neurons and unreachable per-subnet heads,
//! * **R7** level-major order of every masked layer's neurons.
//!
//! R6 (checkpoint round-trip) lives in [`crate::roundtrip`] because it
//! needs serialization, not graph inspection.

use stepping_core::{Assignment, FixedStage, MaskedLayer, Stage, SteppingNet};

use crate::diagnostics::{Location, Report, Rule, Severity, Violation};

/// Knobs of an analysis run.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzerOptions {
    /// Magnitude below which a weight counts as pruned (the paper's
    /// `1e-5`); legal weights with `0 < |w| < threshold` raise R4 warnings.
    pub prune_threshold: f32,
    /// Per-subnet MAC budgets `P_i`; when set, R3 checks
    /// `macs(i) <= P_i` for every subnet.
    pub mac_budgets: Option<Vec<u64>>,
    /// Cap on per-weight violations (R1 index mismatches, R4 sub-threshold
    /// weights, R5 dead neurons) reported *per stage*; the remainder is
    /// summarized in one extra violation so reports stay readable.
    pub max_per_stage: usize,
}

impl Default for AnalyzerOptions {
    fn default() -> Self {
        AnalyzerOptions {
            prune_threshold: 1e-5,
            mac_budgets: None,
            max_per_stage: 16,
        }
    }
}

/// Accumulates violations with the per-stage cap applied.
struct Sink {
    violations: Vec<Violation>,
    max_per_stage: usize,
    /// Emitted count for the current (stage, rule) bucket.
    bucket: usize,
    suppressed: usize,
}

impl Sink {
    fn new(max_per_stage: usize) -> Self {
        Sink {
            violations: Vec::new(),
            max_per_stage,
            bucket: 0,
            suppressed: 0,
        }
    }

    /// Starts a new capped bucket (one per stage+rule combination).
    fn reset_bucket(&mut self, rule: Rule, stage: usize, name: &'static str) {
        self.flush_bucket(rule, stage, name);
        self.bucket = 0;
        self.suppressed = 0;
    }

    /// Emits the "… and N more" summary for the bucket, if needed.
    fn flush_bucket(&mut self, rule: Rule, stage: usize, name: &'static str) {
        if self.suppressed > 0 {
            self.violations.push(Violation {
                rule,
                severity: Severity::Warning,
                message: format!(
                    "{} more {} violation(s) in this stage suppressed",
                    self.suppressed,
                    rule.id()
                ),
                location: Location::stage(stage, name),
                hint: "raise AnalyzerOptions::max_per_stage for the full list".into(),
            });
            self.suppressed = 0;
        }
    }

    /// Pushes a violation subject to the current bucket's cap.
    fn push_capped(&mut self, v: Violation) {
        if self.bucket < self.max_per_stage {
            self.bucket += 1;
            self.violations.push(v);
        } else {
            self.suppressed += 1;
        }
    }

    /// Pushes a violation unconditionally (structural findings).
    fn push(&mut self, v: Violation) {
        self.violations.push(v);
    }
}

/// Runs rules R1–R5 and R7 over `net` and returns the findings.
///
/// The pass is read-only and performs no inference; a freshly built or
/// correctly constructed network yields an empty report.
pub fn analyze(net: &SteppingNet, opts: &AnalyzerOptions) -> Report {
    let mut sink = Sink::new(opts.max_per_stage.max(1));
    let mut checked_stages = 0usize;
    let mut checked_synapses = 0u64;
    let subnets = net.subnet_count();

    // Re-derive the assignment chain from the input just like
    // `sync_assignments`, comparing stored state along the way.
    let input_width = net.input_shape().dims()[0];
    let mut cur = Assignment::new(input_width, subnets);

    for (si, stage) in net.stages().iter().enumerate() {
        let name = stage.name();
        if let Some(m) = stage.masked() {
            checked_stages += 1;
            checked_synapses += (m.in_assign().len() * m.out_assign().len() * m.taps()) as u64;
            check_assignment_ranges(&mut sink, si, name, m.out_assign(), subnets);
            check_level_order(&mut sink, si, name, m.out_assign());
            check_chain(&mut sink, si, name, m.in_assign(), &cur);
            check_shapes(&mut sink, si, name, stage, m);
            check_subthreshold(&mut sink, si, name, m, opts.prune_threshold);
            check_dead_neurons(&mut sink, si, name, m, opts.prune_threshold);
            check_subnet_coverage(&mut sink, si, name, m.out_assign(), subnets);
            cur = m.out_assign().clone();
        }
        match stage {
            Stage::Fixed(FixedStage::Flatten { factor, .. }) => {
                cur = cur.repeat_each(*factor);
            }
            Stage::Fixed(
                FixedStage::BatchNorm1d { assign, .. } | FixedStage::BatchNorm2d { assign, .. },
            ) => {
                checked_stages += 1;
                match assign {
                    Some(a) => check_chain(&mut sink, si, name, a, &cur),
                    None => sink.push(Violation {
                        rule: Rule::R1Monotonicity,
                        severity: Severity::Error,
                        message: "batch-norm stage has no mirrored assignment".into(),
                        location: Location::stage(si, name),
                        hint: "call sync_assignments() after building or mutating the net".into(),
                    }),
                }
            }
            _ => {}
        }
    }

    // R2: the cached feature assignment must equal the end of the chain.
    check_feature_assign(&mut sink, net, &cur);

    // R5: every subnet head must see at least one active feature.
    for k in 0..subnets {
        if net.feature_assign().active_count(k) == 0 {
            sink.push(Violation {
                rule: Rule::R5Reachability,
                severity: Severity::Error,
                message: format!("head of subnet {k} is unreachable: no active features"),
                location: Location::subnet(k),
                hint: "keep at least one neuron assigned to every subnet in the final \
                       masked stage (min_neurons_per_stage)"
                    .into(),
            });
        }
    }

    // R4: head parameter shapes must match classes × features.
    check_head_shapes(&mut sink, net);

    // R3: per-subnet MAC counts against configured budgets.
    if let Some(budgets) = &opts.mac_budgets {
        if budgets.len() != subnets {
            sink.push(Violation {
                rule: Rule::R3MacBudget,
                severity: Severity::Error,
                message: format!(
                    "{} MAC budgets configured for {subnets} subnets",
                    budgets.len()
                ),
                location: Location::default(),
                hint: "pass one budget P_i per subnet".into(),
            });
        } else {
            for (k, &p) in budgets.iter().enumerate() {
                let m = net.macs(k, opts.prune_threshold);
                if m > p {
                    sink.push(Violation {
                        rule: Rule::R3MacBudget,
                        severity: Severity::Error,
                        message: format!("subnet {k} costs {m} MACs, budget is {p}"),
                        location: Location::subnet(k),
                        hint: "re-run construction with more iterations or a larger \
                               movement quota"
                            .into(),
                    });
                }
            }
        }
    }

    Report {
        violations: sink.violations,
        checked_stages,
        checked_synapses,
    }
}

/// R2: assignment values must stay within `0..=subnet_count` (the top value
/// being the unused pool) and carry the network's subnet count.
fn check_assignment_ranges(
    sink: &mut Sink,
    si: usize,
    name: &'static str,
    assign: &Assignment,
    subnets: usize,
) {
    if assign.subnet_count() != subnets {
        sink.push(Violation {
            rule: Rule::R2Nesting,
            severity: Severity::Error,
            message: format!(
                "assignment declares {} subnets, network has {subnets}",
                assign.subnet_count()
            ),
            location: Location::stage(si, name),
            hint: "rebuild the network; subnet counts cannot change after construction".into(),
        });
    }
    for (n, &v) in assign.values().iter().enumerate() {
        if (v as usize) > assign.unused() {
            sink.push(Violation {
                rule: Rule::R2Nesting,
                severity: Severity::Error,
                message: format!(
                    "assignment value {v} exceeds the unused-pool index {}",
                    assign.unused()
                ),
                location: Location::neuron(si, name, n),
                hint: "the checkpoint or mutation that produced this value is corrupt".into(),
            });
        }
    }
}

/// R7: a masked layer stores its neurons level-major — index order equals
/// `(assign, index)` order — so every subnet is a prefix of the layer. One
/// violation per layer, at the first neuron stored after a higher level.
fn check_level_order(sink: &mut Sink, si: usize, name: &'static str, assign: &Assignment) {
    let values = assign.values();
    let Some(i) = values.windows(2).position(|w| w[0] > w[1]) else {
        return;
    };
    sink.push(Violation {
        rule: Rule::R7LevelOrder,
        severity: Severity::Error,
        message: format!(
            "neuron {} (subnet {}) is stored after neuron {i} (subnet {}); packed \
             plans read each subnet as a prefix of the layer",
            i + 1,
            values[i + 1],
            values[i]
        ),
        location: Location::neuron(si, name, i + 1),
        hint: "call sync_assignments() after moving neurons directly on a stage: it \
               restores level-major order"
            .into(),
    });
}

/// R1: the stored input assignment must equal the derived upstream chain.
fn check_chain(
    sink: &mut Sink,
    si: usize,
    name: &'static str,
    stored: &Assignment,
    derived: &Assignment,
) {
    if stored.len() != derived.len() {
        sink.push(Violation {
            rule: Rule::R1Monotonicity,
            severity: Severity::Error,
            message: format!(
                "stored input assignment covers {} inputs, upstream produces {}",
                stored.len(),
                derived.len()
            ),
            location: Location::stage(si, name),
            hint: "call sync_assignments() after any structural change".into(),
        });
        return;
    }
    sink.reset_bucket(Rule::R1Monotonicity, si, name);
    for i in 0..stored.len() {
        let (s, d) = (stored.subnet_of(i), derived.subnet_of(i));
        if s != d {
            sink.push_capped(Violation {
                rule: Rule::R1Monotonicity,
                severity: Severity::Error,
                message: format!(
                    "input {i} is recorded in subnet {s} but upstream assigns it to \
                     subnet {d}; synapse legality is computed from stale data"
                ),
                location: Location {
                    input: Some(i),
                    ..Location::stage(si, name)
                },
                hint: "call sync_assignments() after moving neurons directly on a stage".into(),
            });
        }
    }
    sink.flush_bucket(Rule::R1Monotonicity, si, name);
}

/// R4 (shape part): the weight is `[out, in]` for a linear stage and
/// `[out, in, k, k]` for a convolution, the bias `[out]`, with `out` and
/// `in` the assignment lengths.
fn check_shapes(sink: &mut Sink, si: usize, name: &'static str, stage: &Stage, m: &MaskedLayer) {
    let (out, inputs) = (m.out_assign().len(), m.in_assign().len());
    let mut expect = vec![out, inputs];
    if let Stage::Conv(c) = stage {
        expect.extend([c.kernel(), c.kernel()]);
    }
    let w = m.weight().value.shape().dims();
    if w != expect {
        sink.push(shape_violation(si, name, w, &expect));
    }
    let b = m.bias().value.shape().dims();
    if b != [out] {
        sink.push(shape_violation(si, name, b, &[out]));
    }
}

fn shape_violation(si: usize, name: &'static str, got: &[usize], expect: &[usize]) -> Violation {
    Violation {
        rule: Rule::R4WeightMask,
        severity: Severity::Error,
        message: format!("parameter shape {got:?} does not match expected {expect:?}"),
        location: Location::stage(si, name),
        hint: "the checkpoint was saved from a different architecture".into(),
    }
}

/// Whether the weight holds `out · in · taps` values; when it does not, the
/// shape violation is reported and the per-weight checks are skipped.
fn weight_fits(m: &MaskedLayer) -> bool {
    m.weight().value.len() == m.out_assign().len() * m.in_assign().len() * m.taps()
}

/// Neuron `o`'s legal incoming weights as `(input, weight)` pairs — every
/// tap of every input `i` with `assign(i) ≤ assign(o)` — recomputed from the
/// stored assignments and weights rather than taken from the layer's own
/// legality rule, which is what the analyzer checks. Requires
/// [`weight_fits`].
fn legal_weights(m: &MaskedLayer, o: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
    let (inp, taps) = (m.in_assign(), m.taps());
    let oa = m.out_assign().subnet_of(o);
    let width = inp.len() * taps;
    let row = &m.weight().value.data()[o * width..(o + 1) * width];
    (0..inp.len())
        .filter(move |&i| inp.subnet_of(i) <= oa)
        .flat_map(move |i| row[i * taps..(i + 1) * taps].iter().map(move |&w| (i, w)))
}

/// R4 (threshold part): legal weights below the prune threshold that are
/// still mask-active should have been pruned to exact zero; a filter's
/// legality is per input channel.
fn check_subthreshold(
    sink: &mut Sink,
    si: usize,
    name: &'static str,
    m: &MaskedLayer,
    threshold: f32,
) {
    sink.reset_bucket(Rule::R4WeightMask, si, name);
    if !weight_fits(m) {
        return;
    }
    let out = m.out_assign();
    for o in 0..out.len() {
        if out.subnet_of(o) >= out.subnet_count() {
            continue; // unused pool: weight never participates
        }
        for (i, w) in legal_weights(m, o) {
            if w != 0.0 && w.abs() < threshold {
                sink.push_capped(subthreshold_violation(si, name, o, i, w, threshold));
            }
        }
    }
    sink.flush_bucket(Rule::R4WeightMask, si, name);
}

fn subthreshold_violation(
    si: usize,
    name: &'static str,
    o: usize,
    i: usize,
    w: f32,
    threshold: f32,
) -> Violation {
    Violation {
        rule: Rule::R4WeightMask,
        severity: Severity::Warning,
        message: format!(
            "legal weight {w:e} is below the prune threshold {threshold:e} but still \
             mask-active"
        ),
        location: Location::synapse(si, name, o, i),
        hint: "run prune() so MAC accounting and execution agree".into(),
    }
}

/// R5 (dead-neuron part): an active output neuron whose legal incoming
/// synapses are all pruned contributes nothing but still costs its
/// downstream consumers.
fn check_dead_neurons(
    sink: &mut Sink,
    si: usize,
    name: &'static str,
    m: &MaskedLayer,
    threshold: f32,
) {
    let assign = m.out_assign();
    sink.reset_bucket(Rule::R5Reachability, si, name);
    if !weight_fits(m) {
        return;
    }
    for o in 0..assign.len() {
        if assign.subnet_of(o) >= assign.subnet_count() {
            continue; // unused pool
        }
        if legal_weights(m, o).all(|(_, w)| w.abs() < threshold) {
            sink.push_capped(Violation {
                rule: Rule::R5Reachability,
                severity: Severity::Warning,
                message: format!(
                    "neuron {o} is active in subnet {} but has no active incoming \
                     synapses",
                    assign.subnet_of(o)
                ),
                location: Location::neuron(si, name, o),
                hint: "move the neuron to the unused pool or re-run construction".into(),
            });
        }
    }
    sink.flush_bucket(Rule::R5Reachability, si, name);
}

/// R5 (coverage part): a subnet with no active neuron in a masked stage is
/// degenerate — its forward pass through that stage carries no signal. A
/// warning (not an error): the structure is still legal and nested, unlike
/// an unreachable head.
fn check_subnet_coverage(
    sink: &mut Sink,
    si: usize,
    name: &'static str,
    assign: &Assignment,
    subnets: usize,
) {
    for k in 0..subnets {
        if assign.active_count(k) == 0 {
            sink.push(Violation {
                rule: Rule::R5Reachability,
                severity: Severity::Warning,
                message: format!("subnet {k} has no active neurons in this stage"),
                location: Location {
                    subnet: Some(k),
                    ..Location::stage(si, name)
                },
                hint: "enforce min_neurons_per_stage during construction".into(),
            });
        }
    }
}

/// R2 (feature part): the cached feature assignment must match the derived
/// chain and the heads' input width.
fn check_feature_assign(sink: &mut Sink, net: &SteppingNet, derived: &Assignment) {
    let cached = net.feature_assign();
    if cached.len() != derived.len() {
        sink.push(Violation {
            rule: Rule::R2Nesting,
            severity: Severity::Error,
            message: format!(
                "cached feature assignment covers {} features, stage chain produces {}",
                cached.len(),
                derived.len()
            ),
            location: Location::default(),
            hint: "call sync_assignments()".into(),
        });
        return;
    }
    for i in 0..cached.len() {
        if cached.subnet_of(i) != derived.subnet_of(i) {
            sink.push(Violation {
                rule: Rule::R2Nesting,
                severity: Severity::Error,
                message: format!(
                    "feature {i} cached in subnet {} but the stage chain assigns \
                     subnet {}; head masking is stale",
                    cached.subnet_of(i),
                    derived.subnet_of(i)
                ),
                location: Location {
                    input: Some(i),
                    ..Location::default()
                },
                hint: "call sync_assignments() after moving neurons directly on a stage".into(),
            });
        }
    }
}

/// R4 for classifier heads: `[classes, features]` weights, `[classes]` bias.
fn check_head_shapes(sink: &mut Sink, net: &SteppingNet) {
    let features = net.feature_assign().len();
    let classes = net.classes();
    for k in 0..net.subnet_count() {
        let Ok(head) = net.head(k) else { continue };
        let w = head.weight().value.shape().dims().to_vec();
        if w != [classes, features] {
            sink.push(Violation {
                rule: Rule::R4WeightMask,
                severity: Severity::Error,
                message: format!(
                    "head weight shape {w:?} does not match [classes={classes}, \
                     features={features}]"
                ),
                location: Location::subnet(k),
                hint: "the checkpoint was saved from a different architecture".into(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stepping_tensor::Shape;

    fn mlp(subnets: usize) -> SteppingNet {
        stepping_core::SteppingNetBuilder::new(Shape::of(&[6]), subnets, 7)
            .linear(10)
            .relu()
            .linear(8)
            .relu()
            .build(4)
            .unwrap()
    }

    fn cnn(subnets: usize) -> SteppingNet {
        stepping_core::SteppingNetBuilder::new(Shape::of(&[2, 6, 6]), subnets, 7)
            .conv(4, 3, 1, 1)
            .relu()
            .batch_norm()
            .max_pool(2, 2)
            .flatten()
            .linear(8)
            .relu()
            .build(3)
            .unwrap()
    }

    #[test]
    fn fresh_nets_are_clean() {
        for net in [mlp(1), mlp(3), cnn(2)] {
            let r = analyze(&net, &AnalyzerOptions::default());
            assert!(r.violations.is_empty(), "{}", r.render_text());
            assert!(r.checked_stages > 0 && r.checked_synapses > 0);
        }
    }

    #[test]
    fn constructed_net_stays_clean_after_moves() {
        let mut net = mlp(3);
        // legal moves through the safe API keep every invariant
        net.move_neuron(0, 1, 1).unwrap();
        net.move_neuron(0, 2, 2).unwrap();
        net.move_neuron(2, 3, 3).unwrap(); // unused pool
        let r = analyze(&net, &AnalyzerOptions::default());
        assert!(r.violations.is_empty(), "{}", r.render_text());
    }

    #[test]
    fn r1_stale_in_assign_detected_with_coordinates() {
        let mut net = mlp(2);
        // Craft an in_assign inconsistent with the upstream chain: input 4
        // of the second linear claimed to live in subnet 1.
        let second = net.masked_stage_indices()[1];
        let mut crafted = Assignment::new(10, 2);
        crafted.move_neuron(4, 1).unwrap();
        net.stages_mut()[second].set_in_assign(crafted).unwrap();
        let r = analyze(&net, &AnalyzerOptions::default());
        let v = r.of_rule(Rule::R1Monotonicity);
        assert!(!v.is_empty(), "{}", r.render_text());
        assert_eq!(v[0].location.stage, Some(second));
        assert_eq!(v[0].location.input, Some(4));
        assert_eq!(v[0].severity, Severity::Error);
    }

    #[test]
    fn r2_stale_feature_assign_detected() {
        let mut net = mlp(2);
        // Move an output neuron of the final masked stage directly, without
        // sync_assignments(): the cached feature assignment goes stale.
        let last = *net.masked_stage_indices().last().unwrap();
        net.stages_mut()[last].move_out_neuron(3, 1).unwrap();
        let r = analyze(&net, &AnalyzerOptions::default());
        let v = r.of_rule(Rule::R2Nesting);
        assert!(!v.is_empty(), "{}", r.render_text());
        assert_eq!(v[0].location.input, Some(3));
        assert!(!r.is_clean());
    }

    #[test]
    fn r7_unordered_layer_detected_until_sync() {
        let mut net = cnn(2);
        let first = net.masked_stage_indices()[0];
        // filter 1 to subnet 1 without sync_assignments(): filters 2 and 3
        // (subnet 0) now sit after it
        net.stages_mut()[first].move_out_neuron(1, 1).unwrap();
        let r = analyze(&net, &AnalyzerOptions::default());
        let v = r.of_rule(Rule::R7LevelOrder);
        assert_eq!(v.len(), 1, "{}", r.render_text());
        assert_eq!(v[0].severity, Severity::Error);
        assert_eq!(v[0].location.stage, Some(first));
        assert_eq!(v[0].location.neuron, Some(2));
        assert!(v[0].hint.contains("sync_assignments()"), "{}", v[0].hint);
        let err = net.check_invariants().unwrap_err().to_string();
        assert!(
            err.contains("level-major") && err.contains("sync_assignments()"),
            "{err}"
        );
        net.sync_assignments().unwrap();
        let r = analyze(&net, &AnalyzerOptions::default());
        assert!(r.violations.is_empty(), "{}", r.render_text());
        net.check_invariants().unwrap();
    }

    #[test]
    fn r3_budget_overrun_detected_per_subnet() {
        let net = mlp(2);
        let opts = AnalyzerOptions {
            mac_budgets: Some(vec![1, net.macs(1, 1e-5)]),
            ..AnalyzerOptions::default()
        };
        let r = analyze(&net, &opts);
        let v = r.of_rule(Rule::R3MacBudget);
        assert_eq!(v.len(), 1, "{}", r.render_text());
        assert_eq!(v[0].location.subnet, Some(0));
        // satisfied budgets are silent
        let ok = AnalyzerOptions {
            mac_budgets: Some(vec![net.macs(0, 1e-5), net.macs(1, 1e-5)]),
            ..AnalyzerOptions::default()
        };
        assert!(analyze(&net, &ok).violations.is_empty());
    }

    #[test]
    fn r3_budget_count_mismatch_detected() {
        let net = mlp(2);
        let opts = AnalyzerOptions {
            mac_budgets: Some(vec![u64::MAX]),
            ..AnalyzerOptions::default()
        };
        let r = analyze(&net, &opts);
        assert_eq!(r.of_rule(Rule::R3MacBudget).len(), 1);
    }

    #[test]
    fn r4_subthreshold_weight_detected_as_warning() {
        let mut net = mlp(1);
        let first = net.masked_stage_indices()[0];
        if let Stage::Linear(l) = &mut net.stages_mut()[first] {
            l.weight_mut().value.data_mut()[2 * 6 + 3] = 1e-7; // neuron 2, input 3
        }
        let r = analyze(&net, &AnalyzerOptions::default());
        let v = r.of_rule(Rule::R4WeightMask);
        assert_eq!(v.len(), 1, "{}", r.render_text());
        assert_eq!(v[0].severity, Severity::Warning);
        assert_eq!(v[0].location.neuron, Some(2));
        assert_eq!(v[0].location.input, Some(3));
        assert!(r.is_clean(), "warnings must not fail the gate");
    }

    #[test]
    fn r4_subthreshold_conv_weight_detected() {
        let mut net = cnn(2);
        let first = net.masked_stage_indices()[0];
        if let Stage::Conv(c) = &mut net.stages_mut()[first] {
            // filter (oc=1, ic=0), first tap, in [oc, ic, k, k] layout
            let base = c.in_channels() * c.kernel() * c.kernel();
            c.weight_mut().value.data_mut()[base] = -2e-6;
        }
        let r = analyze(&net, &AnalyzerOptions::default());
        let v = r.of_rule(Rule::R4WeightMask);
        assert_eq!(v.len(), 1, "{}", r.render_text());
        assert_eq!(v[0].location.neuron, Some(1));
        assert_eq!(v[0].location.input, Some(0));
    }

    #[test]
    fn r5_dead_neuron_detected() {
        let mut net = mlp(1);
        let first = net.masked_stage_indices()[0];
        if let Stage::Linear(l) = &mut net.stages_mut()[first] {
            let in_n = l.in_features();
            for i in 0..in_n {
                l.weight_mut().value.data_mut()[5 * in_n + i] = 0.0;
            }
        }
        let r = analyze(&net, &AnalyzerOptions::default());
        let v = r.of_rule(Rule::R5Reachability);
        assert_eq!(v.len(), 1, "{}", r.render_text());
        assert_eq!(v[0].severity, Severity::Warning);
        assert_eq!(v[0].location.neuron, Some(5));
    }

    #[test]
    fn r5_unreachable_head_detected() {
        let mut net = mlp(2);
        // Park every neuron of the final masked stage in the unused pool,
        // then sync so the chain itself is consistent: the heads see zero
        // features — an R5 error, not an R1/R2 one.
        let last = *net.masked_stage_indices().last().unwrap();
        let n = net.stages()[last].neuron_count().unwrap();
        for o in 0..n {
            net.stages_mut()[last].move_out_neuron(o, 2).unwrap();
        }
        net.sync_assignments().unwrap();
        let r = analyze(&net, &AnalyzerOptions::default());
        let heads: Vec<_> = r
            .of_rule(Rule::R5Reachability)
            .into_iter()
            .filter(|v| v.message.contains("unreachable"))
            .collect();
        assert_eq!(heads.len(), 2, "{}", r.render_text());
        assert_eq!(heads[0].location.subnet, Some(0));
        assert!(!r.is_clean());
    }

    #[test]
    fn per_stage_cap_suppresses_with_summary() {
        let mut net = mlp(1);
        let first = net.masked_stage_indices()[0];
        if let Stage::Linear(l) = &mut net.stages_mut()[first] {
            for w in l.weight_mut().value.data_mut().iter_mut() {
                *w = 1e-7;
            }
        }
        let opts = AnalyzerOptions {
            max_per_stage: 4,
            ..AnalyzerOptions::default()
        };
        let r = analyze(&net, &opts);
        let v = r.of_rule(Rule::R4WeightMask);
        // 4 reported + 1 summary
        assert_eq!(v.len(), 5, "{}", r.render_text());
        assert!(v[4].message.contains("suppressed"), "{}", v[4].message);
    }
}

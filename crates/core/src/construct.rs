//! Subnet construction by neuron reallocation — the work flow of the paper's
//! Fig. 3 and §III-A.
//!
//! Starting from a pretrained network with every neuron in subnet 0 (the
//! paper initialises subnet1 with the whole, width-expanded network), each
//! iteration:
//!
//! 1. trains every subnet for `m` batches in ascending order (with
//!    weight-update suppression `β^(j−i)` protecting smaller subnets), which
//!    also accumulates per-neuron importance `|∂L_k/∂r_j^k|` (eq. 2);
//! 2. applies non-permanent magnitude pruning (threshold `1e-5` in the
//!    paper);
//! 3. compares each subnet's MAC *increment* against its allowed increment —
//!    the paper's rule that neurons flow `subnet i → subnet i+1` only once
//!    the MAC difference exceeds the allowed difference (`7−3=4` in the
//!    Fig. 5 example) — and moves the lowest-`M_j^i` (eq. 3) neurons carrying
//!    a MAC mass that "just exceeds" the per-iteration quota
//!    `(P_t − P_1)/N_t` to the next subnet. Overflow from the largest subnet
//!    moves to the unused pool.
//!
//! The flow ends when every subnet's MAC count satisfies its budget, or after
//! `iterations` rounds (plus a bounded number of training-free fix-up
//! rounds).

use stepping_data::{BatchIter, Dataset, Split};
use stepping_exec::ParallelConfig;
use stepping_nn::optim::Sgd;

use crate::events::{event, phase};
use crate::parallel::{BatchLoss, ParallelRunner};
use crate::telemetry::{self, Value};
use crate::{Result, SteppingError, SteppingNet};

/// Which neuron-selection criterion drives reallocation.
///
/// The paper's contribution is [`SelectionCriterion::GradientImportance`]
/// (eq. 3); the others are ablation baselines for the §III-A argument that
/// "selecting weights according to their importance for each subnet …
/// can unfortunately block some neurons and lead to a suboptimal result".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionCriterion {
    /// The paper's `M_j^i = Σ_k α_k |∂L_k/∂r_j^k|` (eq. 3).
    #[default]
    GradientImportance,
    /// Naive per-neuron weight-magnitude importance (move the smallest-|w|
    /// neurons first), ignoring larger subnets.
    WeightMagnitude,
    /// Index order (move the highest-index neurons first) — the regular
    /// structure of the any-width network, with no importance signal at all.
    IndexOrder,
}

/// Options for [`construct`].
#[derive(Debug, Clone, PartialEq)]
pub struct ConstructionOptions {
    /// Absolute MAC budget per subnet (`P_1 … P_N`), strictly ascending.
    pub mac_targets: Vec<u64>,
    /// Maximum construction iterations (`N_t`, paper: 300).
    pub iterations: usize,
    /// Training batches per subnet per iteration (`m`, paper: 250/100).
    pub batches_per_iter: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// SGD learning rate during construction.
    pub lr: f32,
    /// Weight-update suppression base `β` (paper: 0.9).
    pub beta: f32,
    /// Multiplier between consecutive `α_k` in the selection criterion
    /// (paper: `α₁ = 1`, ×1.5 per larger subnet).
    pub alpha_growth: f64,
    /// Magnitude-pruning threshold (paper: `1e-5`).
    pub prune_threshold: f32,
    /// Whether weight-update suppression is active (Fig. 8 ablation).
    pub suppress_updates: bool,
    /// Minimum neurons per masked stage that must stay in each subnet
    /// (prevents a layer from going empty in a small subnet).
    pub min_neurons_per_stage: usize,
    /// Copy the pretrained head 0 into every subnet head before the first
    /// iteration (see [`SteppingNet::warm_start_heads`]).
    pub warm_start_heads: bool,
    /// Neuron-selection criterion (paper: gradient importance).
    pub criterion: SelectionCriterion,
    /// Shuffling seed.
    pub seed: u64,
    /// Data-parallel execution of the per-iteration training rounds
    /// (defaults to the sequential reference).
    pub parallel: ParallelConfig,
}

impl Default for ConstructionOptions {
    fn default() -> Self {
        ConstructionOptions {
            mac_targets: Vec::new(),
            iterations: 30,
            batches_per_iter: 10,
            batch_size: 32,
            lr: 0.05,
            beta: 0.9,
            alpha_growth: 1.5,
            prune_threshold: 1e-5,
            suppress_updates: true,
            min_neurons_per_stage: 1,
            warm_start_heads: true,
            criterion: SelectionCriterion::GradientImportance,
            seed: 0,
            parallel: ParallelConfig::default(),
        }
    }
}

/// What happened in one construction iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationLog {
    /// Iteration index.
    pub iteration: usize,
    /// MACs per subnet after this iteration's moves.
    pub macs: Vec<u64>,
    /// Number of neurons moved out of each subnet this iteration.
    pub moved: Vec<usize>,
    /// Mean training loss per subnet this iteration.
    pub train_loss: Vec<f32>,
    /// Synapses revived this iteration: weights zeroed by an earlier prune
    /// that regrew to `>= prune_threshold` during this round's training.
    pub revived: usize,
    /// Per-subnet budget slack `target_k − macs_k` after this iteration's
    /// moves (negative while a subnet is still over budget).
    pub budget_slack: Vec<i64>,
}

/// Result of [`construct`].
#[derive(Debug, Clone, PartialEq)]
pub struct ConstructionReport {
    /// Per-iteration logs.
    pub iterations: Vec<IterationLog>,
    /// Final MACs per subnet (post final prune).
    pub final_macs: Vec<u64>,
    /// Whether every subnet met its budget.
    pub satisfied: bool,
    /// Total weights zeroed by pruning over the whole run.
    pub pruned_weights: usize,
    /// Total synapses revived (pruned weights that regrew above the
    /// threshold) over the whole run.
    pub revived_weights: usize,
    /// Final per-subnet budget slack `target_k − macs_k` (post final prune;
    /// non-negative iff `satisfied`).
    pub final_slack: Vec<i64>,
}

impl std::fmt::Display for ConstructionReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "construction: {} iterations, budgets {}, {} weights pruned, {} revived",
            self.iterations.len(),
            if self.satisfied { "met" } else { "NOT met" },
            self.pruned_weights,
            self.revived_weights
        )?;
        write!(f, "final MACs per subnet:")?;
        for m in &self.final_macs {
            write!(f, " {m}")?;
        }
        write!(f, "\nfinal budget slack per subnet:")?;
        for s in &self.final_slack {
            write!(f, " {s}")?;
        }
        Ok(())
    }
}

fn validate(net: &SteppingNet, opts: &ConstructionOptions) -> Result<()> {
    let n = net.subnet_count();
    if opts.mac_targets.len() != n {
        return Err(SteppingError::BadConfig(format!(
            "{} MAC targets for {n} subnets",
            opts.mac_targets.len()
        )));
    }
    if !opts.mac_targets.windows(2).all(|w| w[0] < w[1]) {
        return Err(SteppingError::BadConfig(
            "MAC targets must be strictly ascending".into(),
        ));
    }
    if opts.mac_targets[0] == 0 {
        return Err(SteppingError::BadConfig(
            "smallest MAC target must be nonzero".into(),
        ));
    }
    if opts.iterations == 0 || opts.batch_size == 0 {
        return Err(SteppingError::BadConfig(
            "iterations and batch size must be nonzero".into(),
        ));
    }
    if !(0.0..=1.0).contains(&opts.beta) {
        return Err(SteppingError::BadConfig(format!(
            "beta {} must be in [0, 1]",
            opts.beta
        )));
    }
    if opts.alpha_growth <= 0.0 {
        return Err(SteppingError::BadConfig(
            "alpha growth must be positive".into(),
        ));
    }
    Ok(())
}

/// The `α_k` vector of eq. 3: `α₁ = 1`, multiplied by `alpha_growth` per
/// larger subnet.
fn alphas(n: usize, growth: f64) -> Vec<f64> {
    (0..n).map(|k| growth.powi(k as i32)).collect()
}

/// Trains every subnet for `m` batches in ascending order; returns mean loss
/// per subnet. Importance accumulates inside the masked layers.
fn train_round(
    net: &mut SteppingNet,
    data: &dyn Dataset,
    opts: &ConstructionOptions,
    iteration: usize,
    runner: &ParallelRunner,
) -> Result<Vec<f32>> {
    let n = net.subnet_count();
    let mut losses = vec![0.0f32; n];
    let mut sgd = Sgd::new(opts.lr).map_err(SteppingError::Nn)?;
    for (k, loss) in losses.iter_mut().enumerate() {
        if opts.suppress_updates {
            net.apply_lr_suppression(k, opts.beta);
        } else {
            net.clear_lr_suppression();
        }
        let mut total = 0.0;
        let mut count = 0usize;
        let epoch = (iteration * n + k) as u64;
        for batch in BatchIter::new(data, Split::Train, opts.batch_size, epoch, opts.seed) {
            if count >= opts.batches_per_iter {
                break;
            }
            let (x, y) = batch?;
            let out = runner.train_batch(net, &x, &y, k, BatchLoss::CrossEntropy, false)?;
            sgd.step(&mut net.params_for(k)?)
                .map_err(SteppingError::Nn)?;
            total += out.loss;
            count += 1;
        }
        *loss = total / count.max(1) as f32;
        telemetry::counter(
            phase::CONSTRUCTION,
            event::CONSTRUCT_TRAIN_BATCHES,
            count as u64,
            &[
                ("iteration", Value::U64(iteration as u64)),
                ("subnet", Value::U64(k as u64)),
                ("loss", Value::F64(f64::from(*loss))),
                (
                    "beta",
                    Value::F64(if opts.suppress_updates {
                        f64::from(opts.beta)
                    } else {
                        1.0
                    }),
                ),
            ],
        );
    }
    net.clear_lr_suppression();
    Ok(losses)
}

/// One movement candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Candidate {
    stage: usize,
    neuron: usize,
    score: f64,
    macs: u64,
}

/// Collects neurons currently owned by `subnet`, sorted by ascending
/// selection score (least important first).
fn candidates(
    net: &SteppingNet,
    subnet: usize,
    alpha: &[f64],
    threshold: f32,
    criterion: SelectionCriterion,
) -> Vec<Candidate> {
    let mut out = Vec::new();
    for si in net.masked_stage_indices() {
        let stage = &net.stages()[si];
        // masked_stage_indices only yields masked stages, whose accessors
        // all return Some; skip rather than panic if that ever drifts.
        let Some(assign) = stage.out_assign() else {
            continue;
        };
        for o in assign.members(subnet) {
            let score = match criterion {
                SelectionCriterion::GradientImportance => stage.selection_score(o, alpha),
                SelectionCriterion::WeightMagnitude => stage.magnitude_score(o),
                // highest index first → ascending sort on negated index
                SelectionCriterion::IndexOrder => Some(-(o as f64)),
            };
            let (Some(score), Some(macs)) = (score, stage.neuron_macs(o, threshold)) else {
                continue;
            };
            out.push(Candidate {
                stage: si,
                neuron: o,
                score,
                macs,
            });
        }
    }
    out.sort_by(|a, b| {
        a.score
            .partial_cmp(&b.score)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    out
}

/// Moves low-importance neurons out of `subnet` until `move_mass` MACs have
/// left (or candidates run out). Returns how many neurons moved.
fn move_round(
    net: &mut SteppingNet,
    subnet: usize,
    move_mass: u64,
    alpha: &[f64],
    opts: &ConstructionOptions,
) -> Result<usize> {
    let target = subnet + 1; // == subnet_count means the unused pool
    let cands = candidates(net, subnet, alpha, opts.prune_threshold, opts.criterion);
    if telemetry::enabled() && !cands.is_empty() {
        let n = cands.len() as f64;
        let mean = cands.iter().map(|c| c.score).sum::<f64>() / n;
        telemetry::point(
            phase::CONSTRUCTION,
            event::CONSTRUCT_IMPORTANCE,
            &[
                ("subnet", Value::U64(subnet as u64)),
                ("candidates", Value::U64(cands.len() as u64)),
                ("score_min", Value::F64(cands[0].score)),
                ("score_mean", Value::F64(mean)),
                ("score_max", Value::F64(cands[cands.len() - 1].score)),
                ("move_mass", Value::U64(move_mass)),
            ],
        );
    }
    // How many neurons each stage may still give away from this subnet.
    let mut stage_budget: std::collections::HashMap<usize, usize> =
        std::collections::HashMap::new();
    for si in net.masked_stage_indices() {
        let Some(assign) = net.stages()[si].out_assign() else {
            continue;
        };
        let owned = assign.members(subnet).len();
        stage_budget.insert(si, owned.saturating_sub(opts.min_neurons_per_stage));
    }
    let mut moved_mass = 0u64;
    let mut moves = Vec::new();
    for c in cands {
        if moved_mass >= move_mass {
            break;
        }
        let Some(budget) = stage_budget.get_mut(&c.stage) else {
            continue;
        };
        if *budget == 0 {
            continue;
        }
        // Zero-mass (fully pruned) neurons do not help meet the budget; skip
        // them so the loop is guaranteed to make MAC progress.
        if c.macs == 0 {
            continue;
        }
        *budget -= 1;
        moved_mass += c.macs;
        moves.push((c.stage, c.neuron, target));
    }
    let count = moves.len();
    if count > 0 {
        net.move_neurons(&moves)?;
    }
    Ok(count)
}

/// Runs the full construction flow (paper Fig. 3) on a pretrained network.
///
/// `net` must have every neuron in subnet 0. On success the network's subnets
/// are structured to meet `opts.mac_targets` (see
/// [`ConstructionReport::satisfied`]) and remain nested with the incremental
/// property intact.
///
/// # Errors
///
/// Returns [`SteppingError::BadConfig`] for inconsistent options and
/// propagates training errors.
pub fn construct(
    net: &mut SteppingNet,
    data: &dyn Dataset,
    opts: &ConstructionOptions,
) -> Result<ConstructionReport> {
    validate(net, opts)?;
    let run_span = telemetry::span(phase::CONSTRUCTION, event::CONSTRUCT_RUN);
    let runner = ParallelRunner::new(opts.parallel, phase::CONSTRUCTION)?;
    if opts.warm_start_heads {
        net.warm_start_heads();
    }
    let n = net.subnet_count();
    let alpha = alphas(n, opts.alpha_growth);
    let full = net.full_macs();
    // Per-iteration movement quota (P_t − P_1)/N_t, at least 1.
    let quota = ((full.saturating_sub(opts.mac_targets[0])) / opts.iterations as u64).max(1);
    let mut logs: Vec<IterationLog> = Vec::new();
    let mut pruned_weights = 0usize;
    let mut revived_weights = 0usize;
    let slack_of = |macs: &[u64], targets: &[u64]| -> Vec<i64> {
        macs.iter()
            .zip(targets.iter())
            .map(|(&m, &t)| t as i64 - m as i64)
            .collect()
    };

    let allowed_inc = |k: usize| -> u64 {
        if k == 0 {
            opts.mac_targets[0]
        } else {
            opts.mac_targets[k] - opts.mac_targets[k - 1]
        }
    };

    // head MACs are charged to each subnet's own increment only for k = 0;
    // for k > 0 the increment of the head is the delta of active features.
    let increments = |net: &SteppingNet| -> Vec<u64> {
        let mut incs = Vec::with_capacity(n);
        let mut prev = 0u64;
        for k in 0..n {
            let m = net.macs(k, opts.prune_threshold);
            incs.push(m.saturating_sub(prev));
            prev = m;
        }
        incs
    };

    let mut satisfied = false;
    for it in 0..opts.iterations {
        let iter_span = telemetry::span(phase::CONSTRUCTION, event::CONSTRUCT_ITERATION);
        let zeroed_before = net.zeroed_weight_masks();
        net.reset_importance();
        let train_loss = train_round(net, data, opts, it, &runner)?;
        let iter_pruned = net.prune(opts.prune_threshold);
        pruned_weights += iter_pruned;
        let revived = net.count_revived(&zeroed_before, opts.prune_threshold);
        revived_weights += revived;

        let mut moved = vec![0usize; n];
        for k in 0..n {
            let incs = increments(net);
            let excess = incs[k].saturating_sub(allowed_inc(k));
            if excess == 0 {
                continue;
            }
            let move_mass = quota.min(excess);
            moved[k] = move_round(net, k, move_mass, &alpha, opts)?;
        }

        let macs: Vec<u64> = (0..n).map(|k| net.macs(k, opts.prune_threshold)).collect();
        let budget_slack = slack_of(&macs, &opts.mac_targets);
        if telemetry::enabled() {
            for k in 0..n {
                telemetry::point(
                    phase::CONSTRUCTION,
                    event::CONSTRUCT_SUBNET,
                    &[
                        ("iteration", Value::U64(it as u64)),
                        ("subnet", Value::U64(k as u64)),
                        ("macs", Value::U64(macs[k])),
                        ("target", Value::U64(opts.mac_targets[k])),
                        ("slack", Value::I64(budget_slack[k])),
                        ("moved", Value::U64(moved[k] as u64)),
                    ],
                );
            }
        }
        logs.push(IterationLog {
            iteration: it,
            macs: macs.clone(),
            moved: moved.clone(),
            train_loss: train_loss.clone(),
            revived,
            budget_slack,
        });

        // With the `verify-invariants` feature, re-verify the stepping
        // structure after this iteration's reallocations (no-op otherwise).
        crate::hook::run_if_enabled(net)?;

        satisfied = macs
            .iter()
            .zip(opts.mac_targets.iter())
            .all(|(m, t)| m <= t);
        iter_span.end(&[
            ("iteration", Value::U64(it as u64)),
            (
                "neurons_moved",
                Value::U64(moved.iter().sum::<usize>() as u64),
            ),
            ("synapses_pruned", Value::U64(iter_pruned as u64)),
            ("synapses_revived", Value::U64(revived as u64)),
            (
                "loss_mean",
                Value::F64(
                    f64::from(train_loss.iter().sum::<f32>()) / train_loss.len().max(1) as f64,
                ),
            ),
            ("satisfied", Value::Bool(satisfied)),
        ]);
        if satisfied {
            break;
        }
    }

    // Training-free fix-up: if budgets are still unmet (e.g. short
    // `iterations` in tests), keep moving without the quota cap so the
    // structure lands on budget. Importance from the last round still guides
    // the selection.
    let mut fixup = 0;
    while !satisfied && fixup < 16 * n {
        let mut any = 0;
        for k in 0..n {
            let incs = increments(net);
            let excess = incs[k].saturating_sub(allowed_inc(k));
            if excess > 0 {
                any += move_round(net, k, excess, &alpha, opts)?;
            }
        }
        let macs: Vec<u64> = (0..n).map(|k| net.macs(k, opts.prune_threshold)).collect();
        crate::hook::run_if_enabled(net)?;
        satisfied = macs
            .iter()
            .zip(opts.mac_targets.iter())
            .all(|(m, t)| m <= t);
        fixup += 1;
        if any == 0 {
            break; // min-neuron floors prevent further movement
        }
    }

    pruned_weights += net.prune(opts.prune_threshold);
    let final_macs: Vec<u64> = (0..n).map(|k| net.macs(k, opts.prune_threshold)).collect();
    let satisfied = final_macs
        .iter()
        .zip(opts.mac_targets.iter())
        .all(|(m, t)| m <= t);
    let final_slack = slack_of(&final_macs, &opts.mac_targets);
    run_span.end(&[
        ("iterations", Value::U64(logs.len() as u64)),
        ("fixup_rounds", Value::U64(fixup as u64)),
        ("satisfied", Value::Bool(satisfied)),
        ("pruned_weights", Value::U64(pruned_weights as u64)),
        ("revived_weights", Value::U64(revived_weights as u64)),
    ]);
    Ok(ConstructionReport {
        iterations: logs,
        final_macs,
        satisfied,
        pruned_weights,
        revived_weights,
        final_slack,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{train_subnet, TrainOptions};
    use crate::SteppingNetBuilder;
    use stepping_data::{GaussianBlobs, GaussianBlobsConfig};
    use stepping_tensor::Shape;

    fn data() -> GaussianBlobs {
        GaussianBlobs::new(
            GaussianBlobsConfig {
                classes: 3,
                features: 10,
                train_per_class: 30,
                test_per_class: 10,
                separation: 3.0,
                noise_std: 0.6,
            },
            21,
        )
        .unwrap()
    }

    fn net(subnets: usize) -> crate::SteppingNet {
        SteppingNetBuilder::new(Shape::of(&[10]), subnets, 4)
            .linear(24)
            .relu()
            .linear(16)
            .relu()
            .build(3)
            .unwrap()
    }

    fn opts(net: &crate::SteppingNet, fractions: &[f64]) -> ConstructionOptions {
        let full = net.full_macs();
        ConstructionOptions {
            mac_targets: fractions.iter().map(|f| (full as f64 * f) as u64).collect(),
            iterations: 12,
            batches_per_iter: 4,
            batch_size: 16,
            lr: 0.05,
            ..Default::default()
        }
    }

    #[test]
    fn construction_meets_budgets_and_keeps_nesting() {
        let d = data();
        let mut n = net(3);
        train_subnet(
            &mut n,
            &d,
            0,
            &TrainOptions {
                epochs: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let o = opts(&n, &[0.2, 0.5, 0.8]);
        let report = construct(&mut n, &d, &o).unwrap();
        assert!(
            report.satisfied,
            "final macs {:?} targets {:?}",
            report.final_macs, o.mac_targets
        );
        for (m, t) in report.final_macs.iter().zip(o.mac_targets.iter()) {
            assert!(m <= t);
        }
        // nesting: macs ascending
        assert!(report.final_macs.windows(2).all(|w| w[0] <= w[1]));
        n.check_invariants().unwrap();
    }

    #[test]
    fn every_subnet_keeps_minimum_neurons() {
        let d = data();
        let mut n = net(3);
        let o = ConstructionOptions {
            min_neurons_per_stage: 2,
            ..opts(&n, &[0.1, 0.3, 0.6])
        };
        construct(&mut n, &d, &o).unwrap();
        for si in n.masked_stage_indices() {
            let a = n.stages()[si].out_assign().unwrap();
            assert!(
                a.active_count(0) >= 2,
                "stage {si} has {} subnet-0 neurons",
                a.active_count(0)
            );
        }
    }

    #[test]
    fn validation_rejects_bad_targets() {
        let d = data();
        let mut n = net(2);
        let bad = ConstructionOptions {
            mac_targets: vec![100],
            ..Default::default()
        };
        assert!(construct(&mut n, &d, &bad).is_err());
        let bad = ConstructionOptions {
            mac_targets: vec![200, 100],
            ..Default::default()
        };
        assert!(construct(&mut n, &d, &bad).is_err());
        let bad = ConstructionOptions {
            mac_targets: vec![0, 100],
            ..Default::default()
        };
        assert!(construct(&mut n, &d, &bad).is_err());
        let bad = ConstructionOptions {
            mac_targets: vec![100, 200],
            beta: 1.5,
            ..Default::default()
        };
        assert!(construct(&mut n, &d, &bad).is_err());
    }

    #[test]
    fn iteration_logs_are_recorded() {
        let d = data();
        let mut n = net(2);
        let o = opts(&n, &[0.3, 0.7]);
        let report = construct(&mut n, &d, &o).unwrap();
        assert!(!report.iterations.is_empty());
        let log = &report.iterations[0];
        assert_eq!(log.macs.len(), 2);
        assert_eq!(log.train_loss.len(), 2);
        assert_eq!(log.budget_slack.len(), 2);
        for log in &report.iterations {
            for (k, slack) in log.budget_slack.iter().enumerate() {
                assert_eq!(*slack, o.mac_targets[k] as i64 - log.macs[k] as i64);
            }
        }
        assert_eq!(report.final_slack.len(), 2);
        assert_eq!(
            report.satisfied,
            report.final_slack.iter().all(|s| *s >= 0),
            "satisfied must match non-negative final slack"
        );
        assert_eq!(
            report.revived_weights,
            report.iterations.iter().map(|l| l.revived).sum::<usize>()
        );
    }

    #[test]
    fn all_selection_criteria_produce_valid_structures() {
        let d = data();
        for criterion in [
            SelectionCriterion::GradientImportance,
            SelectionCriterion::WeightMagnitude,
            SelectionCriterion::IndexOrder,
        ] {
            let mut n = net(3);
            let o = ConstructionOptions {
                criterion,
                ..opts(&n, &[0.2, 0.5, 0.8])
            };
            let report = construct(&mut n, &d, &o).unwrap();
            assert!(report.satisfied, "{criterion:?} missed budgets");
            n.check_invariants().unwrap();
        }
    }

    #[test]
    fn index_order_moves_highest_indices_first() {
        let d = data();
        let mut n = net(2);
        let o = ConstructionOptions {
            criterion: SelectionCriterion::IndexOrder,
            ..opts(&n, &[0.3, 0.7])
        };
        construct(&mut n, &d, &o).unwrap();
        // subnet-0 neurons of the first stage occupy a prefix of the index
        // range (regular any-width-like structure)
        let a = n.stages()[0].out_assign().unwrap();
        let members = a.members(0);
        let max0 = members.iter().max().copied().unwrap();
        for i in 0..=max0 {
            assert!(
                a.subnet_of(i) == 0 || i > max0,
                "index-order criterion should keep a prefix in subnet 0"
            );
        }
    }

    #[test]
    fn report_display_is_informative() {
        let r = ConstructionReport {
            iterations: vec![],
            final_macs: vec![10, 20],
            satisfied: true,
            pruned_weights: 3,
            revived_weights: 2,
            final_slack: vec![5, -1],
        };
        let s = r.to_string();
        assert!(s.contains("met") && s.contains("10 20") && s.contains('3'));
        assert!(s.contains("2 revived") && s.contains("5 -1"), "{s}");
        let r2 = ConstructionReport {
            satisfied: false,
            ..r
        };
        assert!(r2.to_string().contains("NOT met"));
    }

    #[test]
    fn alphas_grow_geometrically() {
        let a = alphas(4, 1.5);
        assert_eq!(a[0], 1.0);
        assert!((a[3] - 3.375).abs() < 1e-12);
    }

    #[test]
    fn ablation_flag_disables_suppression_without_failing() {
        let d = data();
        let mut n = net(2);
        let o = ConstructionOptions {
            suppress_updates: false,
            ..opts(&n, &[0.3, 0.7])
        };
        let report = construct(&mut n, &d, &o).unwrap();
        assert!(report.satisfied);
    }
}

//! Packed execution through the compiled model: bit-identity with the masked
//! reference path, staleness and snapshot semantics, exercised at net level.
//!
//! * Every packed path — `forward_packed`, `BatchExecutor::begin` at every
//!   subnet (full panels), the begin → expand chain (step panels), the
//!   contractions back down (a step leaves every smaller subnet's cached
//!   neuron untouched) and the head-only re-expand — must equal the masked
//!   `forward` under `f32 ==` for arbitrary assignments, subnet indices and
//!   batch sizes, on one-stage nets that isolate a linear or a conv layer,
//!   and on a net with every kind of fixed stage between masked ones (a
//!   step recomputes only the channels it changed in each).
//! * A direct pass computes only the channels active at its subnet in each
//!   fixed stage: a begin at any subnet followed by expands, contractions
//!   and head-only re-expands stays `==` the masked forward, with batch
//!   norm, sigmoid and both poolings between masked stages.
//! * `packed_macs` — what a direct pass multiplies, read off the full
//!   panels' depth extents — lies between the budget `macs(s, 0.0)` and the
//!   dense extent `active_out × active_in` at every subnet of every net
//!   above, and equals the budget when the assignment is index-monotone and
//!   every level is whole `NR`-row tiles.
//! * A net is never served stale: after every kind of mutation the packed
//!   paths equal the masked reference again and `compile(thr)`'s `MacTable`
//!   equals the brute-force `macs()` / `neuron_macs()` scans.
//! * An executor is a snapshot: one created before a mutation keeps
//!   answering the pre-mutation logits.
//! * One compiled model is shared: executors on two threads run it at once.

use std::sync::Barrier;

use proptest::prelude::*;
use stepping_core::{
    checkpoint, Assignment, BatchExecutor, CompiledModel, IncrementalExecutor, Stage, SteppingNet,
    SteppingNetBuilder,
};
use stepping_nn::optim::Sgd;
use stepping_tensor::microkernel::NR;
use stepping_tensor::{init, Shape, Tensor};

const SUBNETS: usize = 3;
const IN_F: usize = 10;
const OUT_F: usize = 12;

/// Replaces stage 0's input assignment behind the net's back: legality
/// (`assign(in) ≤ assign(out)`) is the masking rule, not an invariant the
/// packed path may assume of its inputs.
fn assign_inputs(net: &mut SteppingNet, width: usize, in_moves: &[(u8, u8)]) {
    let mut ia = Assignment::new(width, SUBNETS);
    for &(n, t) in in_moves {
        ia.move_neuron(n as usize % width, t as usize % (SUBNETS + 1))
            .unwrap();
    }
    net.stages_mut()[0].set_in_assign(ia).unwrap();
}

/// One masked linear layer under the heads, with arbitrary out/in
/// assignments (targets may hit the unused pool).
fn linear_net(seed: u64, out_moves: &[(u8, u8)], in_moves: &[(u8, u8)]) -> SteppingNet {
    let mut net = SteppingNetBuilder::new(Shape::of(&[IN_F]), SUBNETS, seed)
        .linear(OUT_F)
        .build(4)
        .unwrap();
    let moves: Vec<_> = out_moves
        .iter()
        .map(|&(n, t)| (0, n as usize % OUT_F, t as usize % (SUBNETS + 1)))
        .collect();
    net.move_neurons(&moves).unwrap();
    assign_inputs(&mut net, IN_F, in_moves);
    net
}

const IN_C: usize = 3;
const OUT_C: usize = 6;
const EXTENT: usize = 6; // 3x3 kernel, stride 1, padding 1 -> 6x6 out

/// One masked conv layer (flattened) under the heads.
fn conv_net(seed: u64, out_moves: &[(u8, u8)], in_moves: &[(u8, u8)]) -> SteppingNet {
    let mut net = SteppingNetBuilder::new(Shape::of(&[IN_C, EXTENT, EXTENT]), SUBNETS, seed)
        .conv(OUT_C, 3, 1, 1)
        .flatten()
        .build(4)
        .unwrap();
    let moves: Vec<_> = out_moves
        .iter()
        .map(|&(n, t)| (0, n as usize % OUT_C, t as usize % (SUBNETS + 1)))
        .collect();
    net.move_neurons(&moves).unwrap();
    assign_inputs(&mut net, IN_C, in_moves);
    net
}

/// Masked reference logits of every input at every subnet,
/// `[subnet][input]`, computed on a clone so `net` is not touched.
fn masked(net: &SteppingNet, inputs: &[Tensor]) -> Vec<Vec<Tensor>> {
    let mut reference = net.clone();
    (0..net.subnet_count())
        .map(|s| {
            inputs
                .iter()
                .map(|x| reference.forward(x, s, false).unwrap())
                .collect()
        })
        .collect()
}

/// Drives `exec` through every transition over `inputs` as one batch and
/// requires the logits `want[subnet][input]` of each.
fn assert_executor_answers(
    exec: &mut BatchExecutor,
    inputs: &[Tensor],
    want: &[Vec<Tensor>],
    what: &str,
) {
    let subnets = want.len();
    let logits = |steps: Vec<stepping_core::ExpandStep>| -> Vec<Tensor> {
        steps.into_iter().map(|s| s.logits).collect()
    };
    // full panels: a direct pass at every subnet
    for (s, want) in want.iter().enumerate() {
        let (_, steps): (Vec<_>, Vec<_>) = exec.begin(inputs, s).unwrap().into_iter().unzip();
        assert_eq!(&logits(steps), want, "{what}: begin at subnet {s}");
    }
    // step panels: begin at 0, expand to the top ...
    let (mut caches, steps): (Vec<_>, Vec<_>) = exec.begin(inputs, 0).unwrap().into_iter().unzip();
    assert_eq!(logits(steps), want[0], "{what}: chain begin");
    for (k, want) in want.iter().enumerate().skip(1) {
        let steps = exec.expand(&mut caches).unwrap();
        assert_eq!(&logits(steps), want, "{what}: expand to subnet {k}");
    }
    // ... every step left the smaller subnets' cached neurons untouched ...
    for k in (0..subnets - 1).rev() {
        let steps = exec.contract(&mut caches).unwrap();
        assert_eq!(logits(steps), want[k], "{what}: contract to subnet {k}");
    }
    // ... and the larger ones' where it wrote them
    for (k, want) in want.iter().enumerate().skip(1) {
        let steps = exec.expand(&mut caches).unwrap();
        assert_eq!(&logits(steps), want, "{what}: re-expand to subnet {k}");
    }
}

/// What a direct pass at `subnet` multiplied before full panels had depth
/// extents: every active output against every active input of each masked
/// stage (times kernel taps and output positions for a convolution), plus
/// the head.
fn dense_extent(net: &SteppingNet, subnet: usize) -> u64 {
    let stages: usize = net
        .stages()
        .iter()
        .map(|stage| match stage {
            Stage::Linear(l) => {
                l.out_assign().active_count(subnet) * l.in_assign().active_count(subnet)
            }
            Stage::Conv(c) => {
                c.out_assign().active_count(subnet)
                    * c.in_assign().active_count(subnet)
                    * c.kernel()
                    * c.kernel()
                    * c.positions()
            }
            Stage::Fixed(_) => 0,
        })
        .sum();
    stages as u64 + net.head_macs(subnet)
}

/// A direct pass never multiplies more than the dense extent, and never
/// less than the budget it serves (pruning aside: nothing is pruned at
/// threshold 0).
fn assert_packed_macs_bounded(net: &SteppingNet, what: &str) {
    for s in 0..net.subnet_count() {
        let packed = net.packed_macs(s);
        assert!(
            packed <= dense_extent(net, s),
            "{what}: packed_macs({s}) = {packed} above the dense extent {}",
            dense_extent(net, s)
        );
        assert!(
            packed >= net.macs(s, 0.0),
            "{what}: packed_macs({s}) = {packed} below the budget {}",
            net.macs(s, 0.0)
        );
    }
}

/// Every packed path of `net` against its masked reference, and its
/// direct-pass MACs between the budget and the dense extent.
fn assert_packed_matches(net: &SteppingNet, inputs: &[Tensor], what: &str) {
    assert_packed_macs_bounded(net, what);
    let want = masked(net, inputs);
    for (s, want) in want.iter().enumerate() {
        for (x, want) in inputs.iter().zip(want) {
            let packed = net.forward_packed(x, s).unwrap();
            assert_eq!(&packed, want, "{what}: forward_packed at subnet {s}");
        }
    }
    assert_executor_answers(&mut BatchExecutor::new(net, 0.0), inputs, &want, what);
}

/// Conv + batch norm + linear net whose masked stages sit at indices 0
/// and 5.
fn table_net(seed: u64, moves: &[(u8, u8, u8)]) -> SteppingNet {
    let mut net = SteppingNetBuilder::new(Shape::of(&[2, 6, 6]), SUBNETS, seed)
        .conv(5, 3, 1, 1)
        .batch_norm()
        .relu()
        .max_pool(2, 2)
        .flatten()
        .linear(9)
        .relu()
        .build(4)
        .unwrap();
    let moves: Vec<(usize, usize, usize)> = moves
        .iter()
        .map(|&(stage, neuron, target)| {
            let (stage, width) = if stage % 2 == 0 { (0, 5) } else { (5, 9) };
            (
                stage,
                neuron as usize % width,
                target as usize % (SUBNETS + 1),
            )
        })
        .collect();
    net.move_neurons(&moves).unwrap();
    net
}

/// The masked stages of [`every_fixed_kind_net`] and their widths.
const EVERY_KIND_MASKED: [(usize, usize); 4] = [(1, 6), (5, 5), (10, 9), (14, 7)];

/// Scatters `moves` over the `masked` stages of `net` (non-contiguous, some
/// to the unused pool), then trains it for a few passes at the top subnet
/// so its batch norms' running statistics and affine parameters are not
/// the identity.
fn scatter_and_train(
    mut net: SteppingNet,
    masked: &[(usize, usize)],
    seed: u64,
    moves: &[(u8, u8, u8)],
) -> SteppingNet {
    for &(stage, width) in masked {
        assert!(
            net.stages()[stage].is_masked() && net.stages()[stage].neuron_count() == Some(width)
        );
    }
    let moves: Vec<(usize, usize, usize)> = moves
        .iter()
        .map(|&(stage, neuron, target)| {
            let (stage, width) = masked[stage as usize % masked.len()];
            (
                stage,
                neuron as usize % width,
                target as usize % (SUBNETS + 1),
            )
        })
        .collect();
    net.move_neurons(&moves).unwrap();
    let mut dims = vec![4];
    dims.extend_from_slice(net.input_shape().dims());
    let x = init::uniform(Shape::of(&dims), -1.0, 2.0, &mut init::rng(seed ^ 9));
    let dy = init::uniform(Shape::of(&[4, 4]), -1.0, 1.0, &mut init::rng(seed ^ 10));
    let mut sgd = Sgd::new(0.1).unwrap();
    for _ in 0..3 {
        net.zero_grad();
        net.forward(&x, SUBNETS - 1, true).unwrap();
        net.backward(&dy).unwrap();
        sgd.step(&mut net.params_for(SUBNETS - 1).unwrap()).unwrap();
    }
    net
}

/// The masked stages of [`pooled_net`] and their widths.
const POOLED_MASKED: [(usize, usize); 4] = [(0, 6), (4, 5), (9, 8), (12, 6)];

/// Batch norm, sigmoid and both poolings between masked stages — the fixed
/// stages that do not map a zero to zero, and max- and avg-pooling through
/// their generic (3×3 / 2) and 2×2 / 2 paths — with `moves` scattered over
/// the masked stages and the batch norms trained.
fn pooled_net(seed: u64, moves: &[(u8, u8, u8)]) -> SteppingNet {
    let net = SteppingNetBuilder::new(Shape::of(&[2, 9, 9]), SUBNETS, seed)
        .conv(6, 3, 1, 1)
        .batch_norm()
        .sigmoid()
        .max_pool(3, 2)
        .conv(5, 3, 1, 1)
        .batch_norm()
        .avg_pool(2, 2)
        .sigmoid()
        .flatten()
        .linear(8)
        .batch_norm()
        .sigmoid()
        .linear(6)
        .build(4)
        .unwrap();
    scatter_and_train(net, &POOLED_MASKED, seed, moves)
}

/// Begins at every subnet `s`, expands to the top, contracts to subnet 0
/// and re-expands head-only to the top, requiring the masked logits at
/// every step. A direct pass at `s` leaves the channels inactive at `s`
/// zero in every fixed stage (where the masked forward holds `f(0)` after
/// a batch norm or sigmoid); the expands that activate them, and every
/// smaller subnet read from the cache, must still answer `==`.
fn assert_direct_then_steps_answer(net: &SteppingNet, inputs: &[Tensor], what: &str) {
    let want = masked(net, inputs);
    let mut exec = BatchExecutor::new(net, 0.0);
    let logits = |steps: Vec<stepping_core::ExpandStep>| -> Vec<Tensor> {
        steps.into_iter().map(|s| s.logits).collect()
    };
    for s in 0..SUBNETS {
        let (mut caches, steps): (Vec<_>, Vec<_>) =
            exec.begin(inputs, s).unwrap().into_iter().unzip();
        assert_eq!(logits(steps), want[s], "{what}: begin at {s}");
        for (k, want_k) in want.iter().enumerate().take(SUBNETS).skip(s + 1) {
            let steps = exec.expand(&mut caches).unwrap();
            assert_eq!(
                logits(steps),
                *want_k,
                "{what}: begin at {s}, expand to {k}"
            );
        }
        for k in (0..SUBNETS - 1).rev() {
            let steps = exec.contract(&mut caches).unwrap();
            assert_eq!(
                logits(steps),
                want[k],
                "{what}: begin at {s}, contract to {k}"
            );
        }
        for (k, want_k) in want.iter().enumerate().take(SUBNETS).skip(1) {
            let steps = exec.expand(&mut caches).unwrap();
            assert_eq!(
                logits(steps),
                *want_k,
                "{what}: begin at {s}, re-expand to {k}"
            );
        }
    }
}

/// Every kind of fixed stage between masked conv and linear stages — a
/// leading one before any masked stage, batch norm 2-d, tanh, max-pool,
/// sigmoid, avg-pool, dropout, flatten, batch norm 1-d, relu — with
/// `moves` scattered over the four masked stages and the batch norms
/// trained (see [`scatter_and_train`]).
fn every_fixed_kind_net(seed: u64, moves: &[(u8, u8, u8)]) -> SteppingNet {
    let net = SteppingNetBuilder::new(Shape::of(&[2, 8, 8]), SUBNETS, seed)
        .relu()
        .conv(6, 3, 1, 1)
        .batch_norm()
        .tanh()
        .max_pool(2, 2)
        .conv(5, 3, 1, 1)
        .sigmoid()
        .avg_pool(2, 2)
        .dropout(0.25)
        .flatten()
        .linear(9)
        .batch_norm()
        .relu()
        .dropout(0.5)
        .linear(7)
        .tanh()
        .build(4)
        .unwrap();
    scatter_and_train(net, &EVERY_KIND_MASKED, seed, moves)
}

/// Assigns every masked stage of `net` index-monotonically in whole tiles:
/// level `k` of the `i`-th masked stage takes the next `NR · tiles[i ·
/// SUBNETS + k]` neurons (fewer where the stage runs out, still a multiple
/// of `NR` since every width is), and the rest go to the unused pool.
fn assign_whole_tile_levels(net: &mut SteppingNet, tiles: &[u8]) {
    let mut moves = Vec::new();
    for (i, si) in net.masked_stage_indices().into_iter().enumerate() {
        let width = net.stages()[si].neuron_count().expect("masked");
        assert_eq!(width % NR, 0, "stage {si} is not whole tiles");
        let mut cut = 0;
        for (level, &t) in tiles[i * SUBNETS..(i + 1) * SUBNETS].iter().enumerate() {
            let end = (cut + NR * t as usize).min(width);
            moves.extend((cut..end).map(|o| (si, o, level)));
            cut = end;
        }
        moves.extend((cut..width).map(|o| (si, o, SUBNETS)));
    }
    net.move_neurons(&moves).unwrap();
}

/// The table compiled for `thr` against the brute-force weight scans.
fn assert_table_matches_scans(net: &SteppingNet, thr: f32, what: &str) {
    let model = net.compile(thr);
    let table = model.mac_table();
    assert_eq!(model.prune_threshold(), thr);
    assert_eq!(table.direct().len(), SUBNETS);
    for k in 0..SUBNETS {
        assert_eq!(
            table.direct()[k],
            net.macs(k, thr),
            "{what}: direct[{k}] at {thr}"
        );
        let mut step = net.head_macs(k);
        for stage in net.stages() {
            if let Some(assign) = stage.out_assign() {
                for o in assign.members(k) {
                    step += stage.neuron_macs(o, thr).unwrap();
                }
            }
        }
        assert_eq!(table.step()[k], step, "{what}: step[{k}] at {thr}");
        assert_eq!(table.head()[k], net.head_macs(k), "{what}: head[{k}]");
    }
    assert_eq!(
        &net.mac_table(thr),
        table,
        "{what}: mac_table reads compile"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// After each kind of mutation the net is served fresh — packed equals
    /// masked on every subnet, the compiled MAC table equals the scans (the
    /// slot is read at the same threshold, at another, and back) — while an
    /// executor created before the mutation keeps its snapshot.
    #[test]
    fn compiled_model_is_never_stale_and_executors_keep_their_snapshot(
        moves in proptest::collection::vec((0u8..8, 0u8..64, 0u8..8), 0..16),
        later in (0u8..8, 0u8..64, 0u8..8),
        seed in 0u64..1000,
        thr in 0.0f32..0.4,
        scale in 0.1f32..3.0,
    ) {
        let mut net = table_net(seed, &moves);
        let x = init::uniform(Shape::of(&[2, 2, 6, 6]), -1.0, 1.0, &mut init::rng(seed ^ 5));
        let inputs = [x.clone()];
        let fresh = |net: &SteppingNet, what: &str| {
            assert_packed_matches(net, &inputs, what);
            for t in [thr, 0.0, thr] {
                assert_table_matches_scans(net, t, what);
            }
        };
        fresh(&net, "fresh");
        // mutates the net between the birth of an executor and its use
        let mutated = |net: &mut SteppingNet, what: &str, mutate: &dyn Fn(&mut SteppingNet)| {
            let before = masked(net, &inputs);
            let mut snapshot = BatchExecutor::new(net, thr);
            mutate(net);
            fresh(net, what);
            assert_executor_answers(&mut snapshot, &inputs, &before, &format!("snapshot, {what}"));
        };
        let (stage, width) = if later.0 % 2 == 0 { (0, 5) } else { (5, 9) };
        let (neuron, target) = (later.1 as usize % width, later.2 as usize % (SUBNETS + 1));

        mutated(&mut net, "after move_neuron", &|net| {
            net.move_neuron(stage, neuron, target).unwrap();
        });
        mutated(&mut net, "after move_neurons", &|net| {
            net.move_neurons(&[(0, (neuron + 1) % 5, 1), (5, (neuron + 2) % 9, 2)]).unwrap();
        });
        mutated(&mut net, "after prune", &|net| {
            net.prune(thr.max(0.05));
        });
        mutated(&mut net, "after weight_mut", &|net| {
            for si in [0, 5] {
                let weight = match &mut net.stages_mut()[si] {
                    Stage::Linear(l) => l.weight_mut(),
                    Stage::Conv(c) => c.weight_mut(),
                    Stage::Fixed(_) => unreachable!("stages 0 and 5 are masked"),
                };
                for w in weight.value.data_mut() {
                    *w *= scale;
                }
            }
        });
        mutated(&mut net, "after optimizer step", &|net| {
            net.zero_grad();
            let y = net.forward(&x, SUBNETS - 1, true).unwrap();
            net.backward(&y).unwrap();
            Sgd::new(0.5).unwrap().step(&mut net.params_for(SUBNETS - 1).unwrap()).unwrap();
        });
        mutated(&mut net, "after a training forward through batch norm", &|net| {
            // running statistics move; no weight does
            net.forward(&x.map(|v| 3.0 * v + 1.0), SUBNETS - 1, true).unwrap();
        });
        mutated(&mut net, "after set_in_assign", &|net| {
            // a layer's input assignment replaced behind the net's back
            // (the first layer's: the raw input is whole in every subnet,
            // so stepping stays valid)
            assign_inputs(net, 2, &[(later.1, later.2)]);
        });
        mutated(&mut net, "after sync_assignments", &|net| {
            net.sync_assignments().unwrap();
        });
        mutated(&mut net, "after heads_mut", &|net| {
            for head in net.heads_mut() {
                for w in head.weight_mut().value.data_mut() {
                    *w *= scale;
                }
            }
        });
        mutated(&mut net, "after warm_start_heads", &|net| net.warm_start_heads());
        // a checkpoint of a differently assigned, differently weighted net
        let mut other = table_net(seed ^ 0x5a, &[(later.0, later.1, later.2)]);
        let state = checkpoint::save_state(&mut other);
        mutated(&mut net, "after load_state", &|net| {
            checkpoint::load_state(net, &state).unwrap();
        });
        prop_assert_eq!(net.mac_table(thr), other.mac_table(thr));
    }

    #[test]
    fn linear_packed_bit_identical_to_masked(
        out_moves in proptest::collection::vec((0u8..64, 0u8..8), 0..12),
        in_moves in proptest::collection::vec((0u8..64, 0u8..8), 0..12),
        seed in 0u64..1000,
        batch in 1usize..5,
    ) {
        let net = linear_net(seed, &out_moves, &in_moves);
        let mut rng = init::rng(seed ^ 1);
        let inputs = [
            init::uniform(Shape::of(&[batch, IN_F]), -2.0, 2.0, &mut rng),
            init::uniform(Shape::of(&[1, IN_F]), -2.0, 2.0, &mut rng),
        ];
        assert_packed_matches(&net, &inputs, "cold");
        // a second executor serves the remembered model — must still match
        assert_packed_matches(&net, &inputs, "warm");
    }

    /// On an index-monotone assignment whose every level is whole tiles, a
    /// direct pass multiplies exactly its budget: every tile of a full
    /// panel holds one level, whose legal inputs are a prefix of the depth.
    #[test]
    fn packed_macs_equal_the_budget_on_whole_tile_monotone_levels(
        tiles in proptest::collection::vec(0u8..3, 3 * SUBNETS),
        seed in 0u64..1000,
    ) {
        let mlp = SteppingNetBuilder::new(Shape::of(&[IN_F]), SUBNETS, seed)
            .linear(32)
            .relu()
            .linear(24)
            .relu()
            .linear(16)
            .build(4)
            .unwrap();
        let conv = SteppingNetBuilder::new(Shape::of(&[2, 4, 4]), SUBNETS, seed)
            .conv(16, 3, 1, 1)
            .relu()
            .conv(24, 3, 1, 1)
            .flatten()
            .linear(16)
            .build(4)
            .unwrap();
        for (name, mut net) in [("mlp", mlp), ("conv", conv)] {
            assign_whole_tile_levels(&mut net, &tiles);
            for s in 0..SUBNETS {
                prop_assert_eq!(net.packed_macs(s), net.macs(s, 0.0), "{} subnet {}", name, s);
            }
        }
    }

    #[test]
    fn linear_packed_matches_after_weight_update(
        out_moves in proptest::collection::vec((0u8..64, 0u8..8), 0..12),
        seed in 0u64..1000,
        delta in -1.0f32..1.0,
    ) {
        let mut net = linear_net(seed, &out_moves, &[]);
        let inputs = [init::uniform(Shape::of(&[3, IN_F]), -1.0, 1.0, &mut init::rng(seed ^ 2))];
        // compile and serve every panel
        assert_packed_matches(&net, &inputs, "before the update");
        let Stage::Linear(l) = &mut net.stages_mut()[0] else {
            unreachable!("stage 0 is the masked linear");
        };
        for w in l.weight_mut().value.data_mut() {
            *w += delta;
        }
        // a stale full or step panel would write the old weights' values
        assert_packed_matches(&net, &inputs, "after the update");
    }

    #[test]
    fn conv_packed_bit_identical_to_masked(
        out_moves in proptest::collection::vec((0u8..64, 0u8..8), 0..8),
        in_moves in proptest::collection::vec((0u8..64, 0u8..8), 0..8),
        seed in 0u64..1000,
        batch in 1usize..4,
    ) {
        let net = conv_net(seed, &out_moves, &in_moves);
        let mut rng = init::rng(seed ^ 3);
        let inputs = [
            init::uniform(Shape::of(&[batch, IN_C, EXTENT, EXTENT]), -2.0, 2.0, &mut rng),
            init::uniform(Shape::of(&[1, IN_C, EXTENT, EXTENT]), -2.0, 2.0, &mut rng),
        ];
        assert_packed_matches(&net, &inputs, "cold");
    }

    /// A step recomputes only the channel runs its masked stage changed in
    /// every fixed stage after it: every kind of fixed stage, under random
    /// non-contiguous assignments, stays `==` the masked forward on every
    /// path — `forward_packed` and begin at every subnet, the whole expand
    /// chain, the contractions and the head-only re-expands.
    #[test]
    fn every_fixed_kind_recomputes_only_what_a_step_changed(
        moves in proptest::collection::vec((0u8..4, 0u8..64, 0u8..8), 0..20),
        seed in 0u64..1000,
        batch in 1usize..4,
    ) {
        let net = every_fixed_kind_net(seed, &moves);
        let mut rng = init::rng(seed ^ 11);
        let inputs = [
            init::uniform(Shape::of(&[batch, 2, 8, 8]), -2.0, 2.0, &mut rng),
            init::uniform(Shape::of(&[1, 2, 8, 8]), -2.0, 2.0, &mut rng),
        ];
        assert_packed_matches(&net, &inputs, "every fixed kind");
    }

    /// A direct pass computes only the channels active at its subnet in
    /// every fixed stage: from a begin at every subnet, under random
    /// non-monotone assignments, the expands to the top, the contractions
    /// and the head-only re-expands all stay `==` the masked forward — on
    /// the every-kind net and on one that puts batch norm, sigmoid and both
    /// poolings (generic and 2×2 / 2 windows) between masked stages.
    #[test]
    fn direct_passes_compute_only_active_channels(
        moves in proptest::collection::vec((0u8..4, 0u8..64, 0u8..8), 0..20),
        seed in 0u64..1000,
        batch in 1usize..3,
    ) {
        let mut rng = init::rng(seed ^ 13);
        let every_kind = every_fixed_kind_net(seed, &moves);
        let inputs = [init::uniform(Shape::of(&[batch, 2, 8, 8]), -2.0, 2.0, &mut rng)];
        assert_direct_then_steps_answer(&every_kind, &inputs, "every fixed kind");
        let pooled = pooled_net(seed, &moves);
        let inputs = [
            init::uniform(Shape::of(&[batch, 2, 9, 9]), -2.0, 2.0, &mut rng),
            init::uniform(Shape::of(&[1, 2, 9, 9]), -2.0, 2.0, &mut rng),
        ];
        assert_direct_then_steps_answer(&pooled, &inputs, "pooled");
    }

    #[test]
    fn conv_packed_matches_after_weight_update(
        out_moves in proptest::collection::vec((0u8..64, 0u8..8), 0..8),
        seed in 0u64..1000,
        delta in -1.0f32..1.0,
    ) {
        let mut net = conv_net(seed, &out_moves, &[]);
        let inputs = [init::uniform(
            Shape::of(&[2, IN_C, EXTENT, EXTENT]), -1.0, 1.0, &mut init::rng(seed ^ 4),
        )];
        assert_packed_matches(&net, &inputs, "before the update");
        let Stage::Conv(c) = &mut net.stages_mut()[0] else {
            unreachable!("stage 0 is the masked conv");
        };
        for w in c.weight_mut().value.data_mut() {
            *w += delta;
        }
        assert_packed_matches(&net, &inputs, "after the update");
    }
}

/// Executors created from one unmutated net hold the same `Arc`; two of
/// them run begin → expand chains over it at the same time, each equal to
/// the masked reference.
#[test]
fn two_threads_share_one_compiled_model() {
    fn shared<T: Send + Sync>() {}
    shared::<CompiledModel>();

    let net = table_net(3, &[(0, 1, 1), (0, 3, 2), (1, 2, 1), (1, 7, 2), (1, 4, 3)]);
    let mut execs = [BatchExecutor::new(&net, 0.0), BatchExecutor::new(&net, 0.0)];
    assert!(
        std::ptr::eq(execs[0].model(), execs[1].model()),
        "the second executor recompiled instead of reading the slot"
    );
    let start = Barrier::new(execs.len());
    std::thread::scope(|scope| {
        for (t, exec) in execs.iter_mut().enumerate() {
            let (net, start) = (&net, &start);
            scope.spawn(move || {
                let inputs: Vec<Tensor> = (0..3)
                    .map(|i| {
                        let mut rng = init::rng(100 * t as u64 + i);
                        init::uniform(
                            Shape::of(&[1 + i as usize % 2, 2, 6, 6]),
                            -1.0,
                            1.0,
                            &mut rng,
                        )
                    })
                    .collect();
                let want = masked(net, &inputs);
                start.wait();
                for round in 0..20 {
                    assert_executor_answers(
                        exec,
                        &inputs,
                        &want,
                        &format!("thread {t} round {round}"),
                    );
                }
            });
        }
    });
}

#[test]
fn net_packed_forward_tracks_sgd_updates() {
    let mut net = SteppingNetBuilder::new(Shape::of(&[6]), 2, 3)
        .linear(9)
        .relu()
        .linear(7)
        .relu()
        .build(4)
        .unwrap();
    net.move_neuron(0, 2, 1).unwrap();
    net.move_neuron(2, 4, 1).unwrap();
    let x = init::uniform(Shape::of(&[3, 6]), -1.0, 1.0, &mut init::rng(11));
    let dy = init::uniform(Shape::of(&[3, 4]), 0.1, 1.0, &mut init::rng(12));

    let mut sgd = Sgd::new(0.05).unwrap();
    for step in 0..3 {
        // packed inference on one compiled model for both subnets
        for s in 0..2 {
            let masked = net.clone().forward(&x, s, false).unwrap();
            let packed = net.forward_packed(&x, s).unwrap();
            assert_eq!(packed, masked, "step {step} subnet {s}");
        }
        // an SGD update through params_for must drop the compiled model
        net.zero_grad();
        let _ = net.forward(&x, 1, true).unwrap();
        net.backward(&dy).unwrap();
        sgd.step(&mut net.params_for(1).unwrap()).unwrap();
    }
}

/// Pipeline oracle test: a net whose stage list mixes relu, tanh and
/// sigmoid (`sigmoid(0) != 0` at inactive columns) between masked linears
/// with ragged column lists must stay bit-identical to the masked
/// `forward` across SGD updates, on both the direct `forward_packed` path
/// and the incremental expand path.
#[test]
fn fused_mlp_pipeline_tracks_sgd_updates() {
    let subnets = 3;
    let mut net = SteppingNetBuilder::new(Shape::of(&[8]), subnets, 5)
        .linear(12)
        .relu()
        .linear(10)
        .tanh()
        .linear(9)
        .sigmoid()
        .build(4)
        .unwrap();
    // scatter some neurons so subnet column lists are ragged
    net.move_neuron(0, 3, 1).unwrap();
    net.move_neuron(0, 7, 2).unwrap();
    net.move_neuron(2, 1, 1).unwrap();
    net.move_neuron(4, 2, 2).unwrap();
    let x = init::uniform(Shape::of(&[3, 8]), -1.0, 1.0, &mut init::rng(21));
    let dy = init::uniform(Shape::of(&[3, 4]), 0.1, 1.0, &mut init::rng(22));

    let mut sgd = Sgd::new(0.05).unwrap();
    for step in 0..3 {
        let mut masked = Vec::new();
        for s in 0..subnets {
            masked.push(net.clone().forward(&x, s, false).unwrap());
            let packed = net.forward_packed(&x, s).unwrap();
            assert_eq!(packed, masked[s], "step {step} subnet {s}: direct path");
        }
        {
            let mut exec = IncrementalExecutor::new(&net, 0.0);
            let first = exec.begin(&x).unwrap();
            assert_eq!(first.logits, masked[0], "step {step}: expand subnet 0");
            for (s, want) in masked.iter().enumerate().skip(1) {
                let inc = exec.expand().unwrap();
                assert_eq!(&inc.logits, want, "step {step}: expand subnet {s}");
            }
        }
        net.zero_grad();
        let _ = net.forward(&x, 1, true).unwrap();
        net.backward(&dy).unwrap();
        sgd.step(&mut net.params_for(1).unwrap()).unwrap();
    }
}

/// Same oracle discipline for a conv pipeline: packed conv stages,
/// pooling/flatten stages, and the packed expand path must all track the
/// masked reference bitwise while training mutates weights.
#[test]
fn fused_conv_pipeline_tracks_sgd_updates() {
    let subnets = 3;
    let mut net = SteppingNetBuilder::new(Shape::of(&[2, 8, 8]), subnets, 7)
        .conv(6, 3, 1, 1)
        .relu()
        .max_pool(2, 2)
        .flatten()
        .linear(10)
        .relu()
        .build(4)
        .unwrap();
    net.move_neuron(0, 1, 1).unwrap();
    net.move_neuron(0, 4, 2).unwrap();
    net.move_neuron(4, 3, 1).unwrap();
    let x = init::uniform(Shape::of(&[2, 2, 8, 8]), -1.0, 1.0, &mut init::rng(23));
    let dy = init::uniform(Shape::of(&[2, 4]), 0.1, 1.0, &mut init::rng(24));

    let mut sgd = Sgd::new(0.05).unwrap();
    for step in 0..3 {
        let mut masked = Vec::new();
        for s in 0..subnets {
            masked.push(net.clone().forward(&x, s, false).unwrap());
            let packed = net.forward_packed(&x, s).unwrap();
            assert_eq!(packed, masked[s], "step {step} subnet {s}: direct path");
        }
        {
            let mut exec = IncrementalExecutor::new(&net, 0.0);
            let first = exec.begin(&x).unwrap();
            assert_eq!(first.logits, masked[0], "step {step}: expand subnet 0");
            for (s, want) in masked.iter().enumerate().skip(1) {
                let inc = exec.expand().unwrap();
                assert_eq!(&inc.logits, want, "step {step}: expand subnet {s}");
            }
        }
        net.zero_grad();
        let _ = net.forward(&x, 1, true).unwrap();
        net.backward(&dy).unwrap();
        sgd.step(&mut net.params_for(1).unwrap()).unwrap();
    }
}

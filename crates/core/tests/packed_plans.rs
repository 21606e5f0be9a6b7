//! Packed execution plans: bit-identity with the masked reference path and
//! cache-invalidation guarantees, exercised at the layer level.
//!
//! * `forward_packed` must equal the masked `forward`, and the step panel
//!   `forward_step_packed_into` writes must equal the masked `forward`'s
//!   columns / channels `out_assign().members(k)`, under `f32 ==` for
//!   arbitrary assignments, subnet indices, and batch sizes — including
//!   right after a weight update invalidated the cached plans.
//! * Every structural or weight mutator must advance the plan epoch, so a
//!   stale plan is never served.
//! * The MAC table compiled beside the plans must equal the brute-force
//!   `macs()` / `neuron_macs()` scans for arbitrary assignments and prune
//!   thresholds, and every mutator must drop it with the plans.

use proptest::prelude::*;
use stepping_core::{
    checkpoint, Assignment, IncrementalExecutor, MaskedConv2d, MaskedLinear, Stage, SteppingNet,
    SteppingNetBuilder,
};
use stepping_nn::optim::Sgd;
use stepping_tensor::{init, Shape, Tensor};

const SUBNETS: usize = 3;
const IN_F: usize = 10;
const OUT_F: usize = 12;

/// Linear layer with arbitrary out/in assignments (targets may hit the
/// unused pool; legality is the masking rule, not a constructor invariant).
fn random_linear(seed: u64, out_moves: &[(u8, u8)], in_moves: &[(u8, u8)]) -> MaskedLinear {
    let mut l = MaskedLinear::new(IN_F, OUT_F, SUBNETS, &mut init::rng(seed));
    for &(n, t) in out_moves {
        l.move_out_neuron(n as usize % OUT_F, t as usize % (SUBNETS + 1))
            .unwrap();
    }
    let mut ia = Assignment::new(IN_F, SUBNETS);
    for &(n, t) in in_moves {
        ia.move_neuron(n as usize % IN_F, t as usize % (SUBNETS + 1))
            .unwrap();
    }
    l.set_in_assign(ia).unwrap();
    l
}

const IN_C: usize = 3;
const OUT_C: usize = 6;
const EXTENT: usize = 6; // 3x3 kernel, stride 1, padding 1 -> 6x6 out

fn random_conv(seed: u64, out_moves: &[(u8, u8)], in_moves: &[(u8, u8)]) -> MaskedConv2d {
    let mut c = MaskedConv2d::new(
        IN_C,
        OUT_C,
        3,
        1,
        1,
        EXTENT * EXTENT,
        SUBNETS,
        &mut init::rng(seed),
    );
    for &(n, t) in out_moves {
        c.move_out_neuron(n as usize % OUT_C, t as usize % (SUBNETS + 1))
            .unwrap();
    }
    let mut ia = Assignment::new(IN_C, SUBNETS);
    for &(n, t) in in_moves {
        ia.move_neuron(n as usize % IN_C, t as usize % (SUBNETS + 1))
            .unwrap();
    }
    c.set_in_assign(ia).unwrap();
    c
}

/// Runs the layer's subnet-`k` step over the one-stack slice `[x, zeros]`
/// and checks the written level against the masked `reference`
/// (`forward(x, k, false)`): neurons `members` carry the reference's values,
/// every other neuron is untouched. `inner` is the number of values per
/// neuron and sample (1 for a linear layer, `h * w` for a conv).
fn assert_step_matches(
    step: impl FnOnce(&mut [&mut [Tensor]]),
    x: &Tensor,
    reference: &Tensor,
    members: &[usize],
    inner: usize,
) {
    let mut levels = [x.clone(), Tensor::zeros(reference.shape().clone())];
    step(&mut [&mut levels[..]]);
    let width = reference.shape().dims()[1];
    for (i, (&got, &want)) in levels[1].data().iter().zip(reference.data()).enumerate() {
        let neuron = i / inner % width;
        if members.contains(&neuron) {
            assert_eq!(got, want, "step neuron {neuron} differs at {i}");
        } else {
            assert_eq!(got, 0.0, "step wrote neuron {neuron} outside its plan");
        }
    }
}

/// Conv + linear net whose masked stages sit at indices 0 and 4.
fn table_net(seed: u64, moves: &[(u8, u8, u8)]) -> SteppingNet {
    let mut net = SteppingNetBuilder::new(Shape::of(&[2, 6, 6]), SUBNETS, seed)
        .conv(5, 3, 1, 1)
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
            let (stage, width) = if stage % 2 == 0 { (0, 5) } else { (4, 9) };
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

/// The table served for `thr` against the brute-force weight scans.
fn assert_table_matches_scans(net: &SteppingNet, thr: f32, what: &str) {
    let table = net.mac_table(thr);
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
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn mac_table_equals_scans_and_is_never_stale(
        moves in proptest::collection::vec((0u8..8, 0u8..64, 0u8..8), 0..16),
        later in (0u8..8, 0u8..64, 0u8..8),
        seed in 0u64..1000,
        thr in 0.0f32..0.4,
        scale in 0.1f32..3.0,
    ) {
        let mut net = table_net(seed, &moves);
        // every check reads the table twice: the scan, then the memo
        let check = |net: &SteppingNet, what: &str| {
            for t in [thr, 0.0, thr] {
                assert_table_matches_scans(net, t, what);
            }
        };
        check(&net, "fresh");

        let (stage, width) = if later.0 % 2 == 0 { (0, 5) } else { (4, 9) };
        net.move_neuron(stage, later.1 as usize % width, later.2 as usize % (SUBNETS + 1))
            .unwrap();
        check(&net, "after move_neuron");

        net.prune(thr.max(0.05));
        check(&net, "after prune");

        for si in [0, 4] {
            let weight = match &mut net.stages_mut()[si] {
                Stage::Linear(l) => l.weight_mut(),
                Stage::Conv(c) => c.weight_mut(),
                Stage::Fixed(_) => unreachable!("stages 0 and 4 are masked"),
            };
            for w in weight.value.data_mut() {
                *w *= scale;
            }
        }
        check(&net, "after weight_mut");

        // an optimizer step through params_for
        let x = init::uniform(Shape::of(&[2, 2, 6, 6]), -1.0, 1.0, &mut init::rng(seed ^ 5));
        net.zero_grad();
        let y = net.forward(&x, SUBNETS - 1, true).unwrap();
        net.backward(&y).unwrap();
        Sgd::new(0.5).unwrap().step(&mut net.params_for(SUBNETS - 1).unwrap()).unwrap();
        check(&net, "after optimizer step");

        // a layer's input assignment replaced behind the net's back
        let mut ia = Assignment::new(5 * 3 * 3, SUBNETS);
        ia.move_neuron(later.1 as usize % 45, later.2 as usize % (SUBNETS + 1)).unwrap();
        net.stages_mut()[4].set_in_assign(ia).unwrap();
        check(&net, "after set_in_assign");
        net.sync_assignments().unwrap();
        check(&net, "after sync_assignments");

        // a checkpoint of a differently assigned, differently weighted net
        let mut other = table_net(seed ^ 0x5a, &[(later.0, later.1, later.2)]);
        let state = checkpoint::save_state(&mut other);
        check(&other, "checkpointed net");
        checkpoint::load_state(&mut net, state).unwrap();
        check(&net, "after load_state");
        prop_assert_eq!(net.mac_table(thr), other.mac_table(thr));
    }

    #[test]
    fn linear_packed_bit_identical_to_masked(
        out_moves in proptest::collection::vec((0u8..64, 0u8..8), 0..12),
        in_moves in proptest::collection::vec((0u8..64, 0u8..8), 0..12),
        seed in 0u64..1000,
        batch in 1usize..5,
    ) {
        let mut l = random_linear(seed, &out_moves, &in_moves);
        let x = init::uniform(
            Shape::of(&[batch, IN_F]), -2.0, 2.0, &mut init::rng(seed ^ 1),
        );
        for s in 0..SUBNETS {
            let masked = l.forward(&x, s, false).unwrap();
            let packed = l.forward_packed(&x, s).unwrap();
            prop_assert_eq!(&packed, &masked, "subnet {} full plan differs", s);
            // second call serves the cached plan — must still match
            let cached = l.forward_packed(&x, s).unwrap();
            prop_assert_eq!(&cached, &masked, "subnet {} cached plan differs", s);

            let rows = l.out_assign().members(s);
            assert_step_matches(
                |stack| l.forward_step_packed_into(s, stack, 0).unwrap(),
                &x, &masked, &rows, 1,
            );
        }
    }

    #[test]
    fn linear_packed_matches_after_weight_update(
        out_moves in proptest::collection::vec((0u8..64, 0u8..8), 0..12),
        seed in 0u64..1000,
        delta in -1.0f32..1.0,
    ) {
        let mut l = random_linear(seed, &out_moves, &[]);
        let x = init::uniform(Shape::of(&[3, IN_F]), -1.0, 1.0, &mut init::rng(seed ^ 2));
        // compile and serve plans for every subnet
        for s in 0..SUBNETS {
            let _ = l.forward_packed(&x, s).unwrap();
            let mut levels = [x.clone(), Tensor::zeros(Shape::of(&[3, OUT_F]))];
            l.forward_step_packed_into(s, &mut [&mut levels[..]], 0).unwrap();
        }
        let before = l.plan_epoch();
        for w in l.weight_mut().value.data_mut() {
            *w += delta;
        }
        prop_assert!(l.plan_epoch() != before, "weight_mut must advance the epoch");
        for s in 0..SUBNETS {
            let masked = l.forward(&x, s, false).unwrap();
            let packed = l.forward_packed(&x, s).unwrap();
            prop_assert_eq!(&packed, &masked, "stale full plan served for subnet {}", s);
            // a stale step plan would write the old weights' values
            let rows = l.out_assign().members(s);
            assert_step_matches(
                |stack| l.forward_step_packed_into(s, stack, 0).unwrap(),
                &x, &masked, &rows, 1,
            );
        }
    }

    #[test]
    fn conv_packed_bit_identical_to_masked(
        out_moves in proptest::collection::vec((0u8..64, 0u8..8), 0..8),
        in_moves in proptest::collection::vec((0u8..64, 0u8..8), 0..8),
        seed in 0u64..1000,
        batch in 1usize..4,
    ) {
        let mut c = random_conv(seed, &out_moves, &in_moves);
        let x = init::uniform(
            Shape::of(&[batch, IN_C, EXTENT, EXTENT]), -2.0, 2.0, &mut init::rng(seed ^ 3),
        );
        for s in 0..SUBNETS {
            let masked = c.forward(&x, s, false).unwrap();
            let packed = c.forward_packed(&x, s).unwrap();
            prop_assert_eq!(&packed, &masked, "subnet {} full plan differs", s);

            let chans = c.out_assign().members(s);
            assert_step_matches(
                |stack| c.forward_step_packed_into(s, stack, 0).unwrap(),
                &x, &masked, &chans, EXTENT * EXTENT,
            );
        }
    }

    #[test]
    fn conv_packed_matches_after_weight_update(
        out_moves in proptest::collection::vec((0u8..64, 0u8..8), 0..8),
        seed in 0u64..1000,
        delta in -1.0f32..1.0,
    ) {
        let mut c = random_conv(seed, &out_moves, &[]);
        let x = init::uniform(
            Shape::of(&[2, IN_C, EXTENT, EXTENT]), -1.0, 1.0, &mut init::rng(seed ^ 4),
        );
        for s in 0..SUBNETS {
            let _ = c.forward_packed(&x, s).unwrap();
        }
        let before = c.plan_epoch();
        for w in c.weight_mut().value.data_mut() {
            *w += delta;
        }
        prop_assert!(c.plan_epoch() != before, "weight_mut must advance the epoch");
        for s in 0..SUBNETS {
            let masked = c.forward(&x, s, false).unwrap();
            let packed = c.forward_packed(&x, s).unwrap();
            prop_assert_eq!(&packed, &masked, "stale full plan served for subnet {}", s);
        }
    }
}

#[test]
fn every_linear_mutator_advances_the_plan_epoch() {
    let mut l = random_linear(7, &[(3, 1), (5, 2)], &[(1, 1)]);
    let x = init::uniform(Shape::of(&[2, IN_F]), -1.0, 1.0, &mut init::rng(8));
    let _ = l.forward_packed(&x, 1).unwrap();

    let e0 = l.plan_epoch();
    l.weight_mut();
    let e1 = l.plan_epoch();
    assert_ne!(e0, e1, "weight_mut");

    l.params_mut();
    let e2 = l.plan_epoch();
    assert_ne!(e1, e2, "params_mut");

    l.move_out_neuron(0, 2).unwrap();
    let e3 = l.plan_epoch();
    assert_ne!(e2, e3, "move_out_neuron");

    l.set_in_assign(Assignment::new(IN_F, SUBNETS)).unwrap();
    let e4 = l.plan_epoch();
    assert_ne!(e3, e4, "set_in_assign");

    // prune with an enormous threshold zeroes weights -> must invalidate
    let pruned = l.prune(f32::INFINITY);
    assert!(pruned > 0, "test needs at least one pruned weight");
    let e5 = l.plan_epoch();
    assert_ne!(e4, e5, "prune");
}

#[test]
fn every_conv_mutator_advances_the_plan_epoch() {
    let mut c = random_conv(9, &[(2, 1)], &[]);
    let x = init::uniform(
        Shape::of(&[1, IN_C, EXTENT, EXTENT]),
        -1.0,
        1.0,
        &mut init::rng(10),
    );
    let _ = c.forward_packed(&x, 1).unwrap();

    let e0 = c.plan_epoch();
    c.weight_mut();
    let e1 = c.plan_epoch();
    assert_ne!(e0, e1, "weight_mut");

    c.params_mut();
    let e2 = c.plan_epoch();
    assert_ne!(e1, e2, "params_mut");

    c.move_out_neuron(0, 2).unwrap();
    let e3 = c.plan_epoch();
    assert_ne!(e2, e3, "move_out_neuron");

    c.set_in_assign(Assignment::new(IN_C, SUBNETS)).unwrap();
    let e4 = c.plan_epoch();
    assert_ne!(e3, e4, "set_in_assign");

    let pruned = c.prune(f32::INFINITY);
    assert!(pruned > 0, "test needs at least one pruned weight");
    let e5 = c.plan_epoch();
    assert_ne!(e4, e5, "prune");
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
        // packed inference on warm plans for both subnets
        for s in 0..2 {
            let masked = net.clone().forward(&x, s, false).unwrap();
            let packed = net.forward_packed(&x, s).unwrap();
            assert_eq!(packed, masked, "step {step} subnet {s}");
        }
        // SGD update through params_for must invalidate stage + head plans
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
            let mut exec = IncrementalExecutor::new(&mut net, 0.0);
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
            let mut exec = IncrementalExecutor::new(&mut net, 0.0);
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
